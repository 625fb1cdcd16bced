"""Layer constructions, serialization, and the hexagonal family."""
from __future__ import annotations

import math
import time

import pytest

from marcopolo import placements
from marcopolo.geometry import Point2, Probe
from marcopolo.placements import (
    ABUT_MARGIN,
    ALG3_RHO1,
    ALG4_RHO1,
    ALG5_RHO1,
    ALG6_RHO1,
    CertificationError,
    LayerPlacement,
    PlacementFile,
    construct_layer,
    execution_layer,
    generate_layer,
    hexfam_layer,
    hexfam_layers,
    load_placement,
    perimeter_covered,
    save_placement,
    uncovered_arcs,
)
from marcopolo.verifier import probe_coefficient


class TestHexagonalLayers:
    def test_alg1_structure(self, layers):
        layer = layers["ALG1"]
        assert layer.m == 7
        assert all(abs(p.rho - 0.5) < 1e-12 for p in layer.probes)
        # analysis order: center hexagon is the omitted last probe
        last = layer.probes[-1]
        assert math.hypot(last.center.x, last.center.y) < 1e-12
        assert abs(probe_coefficient(layer) - 6.0) < 1e-9

    def test_alg2_structure(self, layers):
        layer = layers["ALG2"]
        assert layer.m == 6
        assert abs(probe_coefficient(layer) - 5.0) < 1e-9
        # first two probes split off quadrants (rho = 1/sqrt(2)), the rest
        # are hexagons of the L = 2 lattice (rho = 1/2)
        big = 1.0 / math.sqrt(2.0)
        assert abs(layer.probes[0].rho - big) < 1e-12
        assert abs(layer.probes[1].rho - big) < 1e-12
        for p in layer.probes[2:]:
            assert abs(p.rho - 0.5) < 1e-12

    def test_alg2_quadrant_probes_contain_their_quadrant(self, layers):
        # a positive response on a quadrant probe localizes the POI to that
        # probe's disk, which must contain the whole quadrant of the unit
        # disk it is responsible for
        import numpy as np

        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.0, 1.0, (50_000, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
        for p in layers["ALG2"].probes[:2]:
            quad = pts[(np.sign(pts[:, 0]) == np.sign(p.center.x))
                       & (np.sign(pts[:, 1]) == np.sign(p.center.y))]
            assert (np.hypot(quad[:, 0] - p.center.x, quad[:, 1] - p.center.y)
                    <= p.rho + 1e-9).all()


class TestProgressiveLayers:
    def test_schedule_is_geometric(self, layers):
        for aid, base in (("ALG3", ALG3_RHO1), ("ALG5", ALG5_RHO1)):
            layer = layers[aid]
            assert layer.rho1 == base
            for k, p in enumerate(layer.probes, start=1):
                assert abs(p.rho - base ** k) < 1e-12

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_probes_rejected(self, layers, count):
        with pytest.raises(ValueError, match="at least two probes"):
            LayerPlacement("ALG3", layers["ALG3"].probes[:count], None, True)

    @pytest.mark.parametrize("rho1", [math.nan, math.inf])
    def test_non_finite_schedule_base_rejected(self, layers, rho1):
        with pytest.raises(ValueError, match="geometric schedule"):
            LayerPlacement("ALG3", layers["ALG3"].probes, rho1, True)

    def test_alg3_chords_abut(self, layers):
        # consecutive chord arcs overlap on the perimeter by the margin
        layer = layers["ALG3"]
        probes = layer.probes
        for a, b in zip(probes, probes[1:]):
            end_a = math.atan2(a.center.y, a.center.x) + math.asin(a.rho)
            start_b = math.atan2(b.center.y, b.center.x) - math.asin(b.rho)
            gap = (start_b - end_a + ABUT_MARGIN) % (2.0 * math.pi)
            assert min(gap, 2.0 * math.pi - gap) < 1e-9
        assert perimeter_covered(probes)

    def test_alg4_perimeter_only(self, layers):
        layer = layers["ALG4"]
        assert layer.coverage == "perimeter"
        assert layer.rho1 == ALG4_RHO1
        assert perimeter_covered(layer.probes)
        # the interior pinholes leave arcs of probe circles uncovered,
        # which the perimeter label does not count
        assert uncovered_arcs(layer.probes, "disk")
        assert uncovered_arcs(layer.probes, "perimeter") == []

    def test_alg6_free_distances(self, layers):
        layer = layers["ALG6"]
        assert layer.rho1 == ALG6_RHO1
        assert layer.m == 12
        # outer probes sit strictly inside the disk but off the chord circle
        for p in layer.probes[1:]:
            d = math.hypot(p.center.x, p.center.y)
            assert d + p.rho > 1.0 - 1e-9  # reaches the perimeter
            assert d < 1.0

    def test_coefficients(self, layers):
        targets = {"ALG3": 4.0840, "ALG4": 3.5122,
                   "ALG5": 3.8010, "ALG6": 3.3581}
        for aid, c in targets.items():
            assert probe_coefficient(layers[aid]) == pytest.approx(c, abs=5e-4)

    def test_geometric_schedule_duality(self):
        # with a geometric schedule rho_k = rho1^k every executed level
        # pays at rate 1/(-log2 rho1), so c collapses to that closed form
        for rho1 in (0.85, 0.87, ALG3_RHO1):
            layer = construct_layer("ALG3", rho1=rho1)
            assert probe_coefficient(layer) == pytest.approx(
                -1.0 / math.log2(rho1), abs=1e-9)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            construct_layer("ALG9")
        with pytest.raises((ValueError, KeyError)):
            construct_layer("ALG1", rho1=0.9)


def _scaled(probes, factor):
    return tuple(Probe(Point2(factor * p.center.x, factor * p.center.y),
                       p.rho) for p in probes)


class TestExecutionLayer:
    def test_alg1_tour_center_first(self, layers):
        layer = layers["ALG1"]
        executed = execution_layer(layer)
        tour = executed.probes
        assert math.hypot(tour[0].center.x, tour[0].center.y) < 1e-12
        assert tour == (layer.probes[6],) + layer.probes[:6]
        assert executed.certified == layer.certified

    def test_alg2_tour(self, layers):
        tour = execution_layer(layers["ALG2"]).probes
        assert math.hypot(tour[0].center.x, tour[0].center.y) < 1e-12
        assert len(tour) == 6
        assert set(tour) == set(layers["ALG2"].probes)

    @pytest.mark.parametrize("aid, order", [
        ("ALG1", (6, 0, 1, 2, 3, 4, 5)),
        ("ALG2", (3, 0, 1, 2, 5, 4)),
    ])
    def test_issues_the_placements_own_probes(self, layers, aid, order):
        # a loaded placement that differs from the construction is
        # executed as loaded, in its issue order
        probes = _scaled(layers[aid].probes, 0.99)
        placement = LayerPlacement(aid, probes, None, False, "disk")
        executed = execution_layer(placement)
        assert executed.probes == tuple(probes[i] for i in order)
        assert not executed.certified

    def test_probe_count_must_match_issue_order(self, layers):
        short = LayerPlacement("ALG1", layers["ALG1"].probes[:6], None,
                               True, "disk")
        with pytest.raises(ValueError, match="issue order"):
            execution_layer(short)

    def test_identity_for_progressive(self, layers):
        for aid in ("ALG3", "ALG4", "ALG5", "ALG6"):
            assert execution_layer(layers[aid]) is layers[aid]


class TestHexfam:
    def test_layer_counts(self):
        assert hexfam_layers(1, 4.0) == 4
        assert hexfam_layers(2, 4.0) == 2
        assert hexfam_layers(1, 64.0) == 44
        assert hexfam_layers(3, 64.0) == 4

    def test_shrink_factor(self):
        for r_max, n in ((1, 4.0), (2, 16.0), (2, 64.0)):
            layer = hexfam_layer(r_max, n)
            big_l = hexfam_layers(r_max, n)
            shrink = 2.0 / (3.0 * big_l - 2.0)
            assert all(abs(p.rho - shrink) < 1e-12 for p in layer.probes)
            # shrink strong enough to finish within R_max responses
            assert shrink ** r_max * n <= 1.0 + 1e-9

    def test_probe_budget(self):
        for r_max in (1, 2, 3):
            for n in (4.0, 16.0, 64.0):
                if n > 1 and r_max > math.ceil(math.log2(n)):
                    continue
                layer = hexfam_layer(r_max, n)
                big_l = hexfam_layers(r_max, n)
                assert layer.m <= 1 + 6 * math.comb(big_l, 2)

    def test_pruning_keeps_disk_covered(self):
        import numpy as np

        layer = hexfam_layer(1, 16.0)  # deep lattice with pruned corners
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.0, 1.0, (50_000, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
        covered = np.zeros(len(pts), dtype=bool)
        for p in layer.probes:
            covered |= (np.hypot(pts[:, 0] - p.center.x,
                                 pts[:, 1] - p.center.y) <= p.rho + 1e-9)
        assert covered.all()

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            hexfam_layer(0, 4.0)
        with pytest.raises(ValueError):
            hexfam_layer(5, 4.0)

    def test_lattice_size_limit(self, monkeypatch):
        # L = 43,692 layers, 1 + 3L(L - 1) hexagons: rejected before any
        # is built (building them ran for minutes)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"R_max=1 at n=65536 .* "
                                             r"5726841517 hexagons"):
            hexfam_layer(1, 2 ** 16)
        assert time.perf_counter() - t0 < 1.0
        # L = 44: 5677 hexagons, of which 5251 meet the unit disk
        assert hexfam_layers(1, 64) == 44
        assert hexfam_layer(1, 64).m == 5251
        # the limit itself is allowed
        monkeypatch.setattr(placements, "_HEXFAM_MAX", 5677)
        assert hexfam_layer(1, 64).m == 5251
        monkeypatch.setattr(placements, "_HEXFAM_MAX", 5676)
        with pytest.raises(ValueError, match="5677 hexagons"):
            hexfam_layer(1, 64)


class TestPlacementFiles:
    def test_round_trip(self, tmp_path, layers):
        path = tmp_path / "alg3.json"
        save_placement(PlacementFile.from_layer(layers["ALG3"]), path)
        loaded = load_placement(path)
        assert loaded.algorithm_id == "ALG3"
        assert loaded.certified
        assert loaded.probes == layers["ALG3"].probes
        assert loaded.rho1 == layers["ALG3"].rho1

    def test_tampered_file_rejected(self, tmp_path, layers):
        import json

        path = tmp_path / "bad.json"
        pf = PlacementFile.from_layer(layers["ALG3"])
        doc = json.loads(pf.to_json())
        doc["probes"][0]["x"] += 0.4  # shift a probe, opening a gap
        path.write_text(json.dumps(doc))
        with pytest.raises(CertificationError):
            load_placement(path)

    def test_uncertified_requires_flag(self, tmp_path):
        layer = construct_layer("ALG3", rho1=0.8)  # does not cover
        path = tmp_path / "uncov.json"
        save_placement(PlacementFile.from_layer(layer), path)
        with pytest.raises(CertificationError):
            load_placement(path)
        loose = load_placement(path, allow_uncertified=True)
        assert not loose.certified

    def test_provenance_must_be_an_object(self, tmp_path, layers):
        import json

        # every program path writes a {kind, seed, tool} dict
        pf = PlacementFile.from_layer(layers["ALG3"])
        assert set(pf.provenance) == {"kind", "seed", "tool"}
        doc = json.loads(pf.to_json())
        doc["provenance"] = "constructed"
        path = tmp_path / "string.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="provenance"):
            load_placement(path)
        with pytest.raises(TypeError, match="provenance"):
            PlacementFile.from_layer(layers["ALG3"], "constructed")

    def test_schema_version_checked(self, tmp_path, layers):
        path = tmp_path / "old.json"
        pf = PlacementFile.from_layer(layers["ALG1"])
        path.write_text(pf.to_json().replace('"schema_version": 1',
                                             '"schema_version": 99'))
        with pytest.raises(ValueError):
            load_placement(path)


class TestGenerateLayer:
    def test_all_six_certify(self, layers):
        for aid, layer in layers.items():
            assert layer.certified, aid
            assert layer.algorithm_id == aid

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            generate_layer("ALG7")

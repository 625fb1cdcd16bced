"""Worst-case coefficient computations, minimal schedule bases, and the
lower-bound constant."""
from __future__ import annotations

import math

import pytest

from marcopolo.geometry import Point2, Probe
from marcopolo.placements import (
    ALG3_RHO1,
    ALG4_RHO1,
    ALG5_RHO1,
    ALG6_RHO1,
    construct_layer,
    execution_layer,
    load_placement,
)
from marcopolo.verifier import (
    BoundsReport,
    bounds_report,
    distance_bound,
    last_probes_overlap,
    lower_bound_constant,
    minimal_rho1,
    probe_coefficient,
    response_bound,
)
from marcopolo.simulator import _frame


def _chain(rhos, spacing=0.1):
    """Probes along the x axis with the given radii."""
    return [Probe(Point2(spacing * (i + 1), 0.0), r)
            for i, r in enumerate(rhos)]


class TestProbeCoefficient:
    def test_halving_schedule(self):
        # rho_k = 2^-k pays exactly one probe per halving: c = 1
        probes = _chain([2.0 ** -k for k in range(1, 6)])
        assert probe_coefficient(probes) == pytest.approx(1.0, abs=1e-12)

    def test_omitted_last_probe(self):
        # two probes of rho = 1/2: a miss on probe 1 shrinks by 1/2 for
        # one probe paid, so c = 1 despite m = 2
        probes = _chain([0.5, 0.5])
        assert probe_coefficient(probes) == pytest.approx(1.0, abs=1e-12)

    def test_worst_level_dominates(self):
        # a weakly shrinking second probe makes level 2 the bottleneck
        probes = _chain([0.5, 0.6, 0.25])
        assert probe_coefficient(probes) == pytest.approx(
            2.0 / -math.log2(0.6), abs=1e-12)

    def test_rejects_unit_probe(self):
        with pytest.raises(ValueError):
            probe_coefficient(_chain([1.0, 0.5]))

    def test_frozen_layer_values(self, layers):
        assert probe_coefficient(layers["ALG1"]) == pytest.approx(6.0, abs=1e-9)
        assert probe_coefficient(layers["ALG2"]) == pytest.approx(5.0, abs=1e-9)


class TestDistanceBound:
    def test_single_central_probe(self):
        # the searcher never moves: zero distance coefficient
        probes = [Probe(Point2(0.0, 0.0), 0.5)]
        assert distance_bound(probes) == pytest.approx(0.0, abs=1e-12)

    def test_two_collinear_probes(self):
        probes = [Probe(Point2(0.5, 0.0), 0.5),
                  Probe(Point2(-0.5, 0.0), 0.5)]
        # leg 1: 0.5 travel, shrink 1/2 -> rate 1.0
        # leg 2 (omitted): 1.5 travel minus the 2*d1*rho_m = 0.5 round
        # trip -> 1.0 / 0.5 = 2.0
        assert distance_bound(probes) == pytest.approx(2.0, abs=1e-12)

    def test_execution_tours(self, layers):
        assert distance_bound(execution_layer(layers["ALG1"])) == \
            pytest.approx(10.3923, abs=5e-4)
        assert distance_bound(execution_layer(layers["ALG2"])) == \
            pytest.approx(8.8102, abs=5e-4)

    def test_progressive_values(self, layers):
        targets = {"ALG3": 6.9474, "ALG4": 9.2797,
                   "ALG5": 6.6805, "ALG6": 6.0236}
        for aid, b in targets.items():
            assert distance_bound(layers[aid]) == pytest.approx(b, abs=5e-4)


class TestResponseBound:
    def test_largest_probe_governs(self):
        probes = _chain([0.5, 0.25, 0.7])
        assert response_bound(probes) == pytest.approx(
            -1.0 / math.log2(0.7), abs=1e-12)

    def test_never_exceeds_probe_coefficient(self, layers):
        for layer in layers.values():
            assert response_bound(layer) <= probe_coefficient(layer) + 1e-12


class TestBoundsReport:
    def test_consistency(self, layers):
        for layer in layers.values():
            report = bounds_report(layer)
            assert report.c_probes == pytest.approx(
                probe_coefficient(layer), abs=1e-12)
            assert report.b_distance == pytest.approx(
                distance_bound(layer), abs=1e-12)
            assert report.c_responses == pytest.approx(
                response_bound(layer), abs=1e-12)
            for idx in report.worst_probe_index.values():
                assert 1 <= idx <= layer.m

    def test_matches_separate_functions_on_golden_files(self,
                                                         placements_dir):
        paths = sorted(placements_dir.glob("alg*.json"))
        assert len(paths) == 8
        for path in paths:
            layer = load_placement(path)
            report = bounds_report(layer)
            assert report.c_probes == probe_coefficient(layer)
            assert report.b_distance == distance_bound(layer)
            assert report.c_responses == response_bound(layer)

    def test_invalid_report_rejected(self):
        with pytest.raises(ValueError):
            BoundsReport(1.0, 1.0, 2.0, {})
        with pytest.raises(ValueError):
            BoundsReport(-1.0, 1.0, 0.5, {})


def _golden_orders(placements_dir):
    """Each golden layer in analysis order and as executed."""
    for path in sorted(placements_dir.glob("alg*.json")):
        layer = load_placement(path)
        yield path.name, layer
        yield f"{path.name} executed", execution_layer(layer)


class TestLastProbesOverlap:
    def test_separated_chords(self, layers):
        assert not last_probes_overlap(layers["ALG3"])

    def test_coincident_probes(self):
        probes = [Probe(Point2(0.3, 0.0), 0.5), Probe(Point2(0.3, 0.0), 0.5)]
        assert last_probes_overlap(probes)

    def test_no_golden_layer_is_flagged(self, placements_dir):
        # ALG6's last two probes overlap, but its first probe is centred
        for name, layer in _golden_orders(placements_dir):
            assert not last_probes_overlap(layer), name

    def test_frame_walks_the_shortcut(self, placements_dir):
        # the searcher's walk after an omitted probe, as the search frame
        # charges it, is |gap - d1 * rho_m|
        for name, layer in _golden_orders(placements_dir):
            first, a, b = layer.probes[0], layer.probes[-2], layer.probes[-1]
            gap = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
            reach = math.hypot(first.center.x, first.center.y) * b.rho
            walk = _frame(layer).leg[layer.m - 1] * b.rho
            assert walk == pytest.approx(abs(gap - reach), abs=1e-12), name


class TestMinimalRho1:
    def test_alg3(self):
        assert minimal_rho1("ALG3") == pytest.approx(0.844, abs=0.002)

    @pytest.mark.parametrize("scheme, base", [
        ("ALG3", ALG3_RHO1), ("ALG4", ALG4_RHO1),
        ("ALG5", ALG5_RHO1), ("ALG6", ALG6_RHO1),
    ])
    def test_frozen_bases(self, scheme, base):
        # the frozen bases are the bisection's results, ALG4's the flip
        # point of its perimeter verdict
        assert minimal_rho1(scheme) == pytest.approx(base, abs=2e-4)

    def test_perimeter_only(self):
        assert minimal_rho1("PERIMETER_ONLY", tol=1e-5) == \
            pytest.approx(0.74915, abs=5e-4)

    def test_monotone_in_tolerance(self):
        coarse = minimal_rho1("PERIMETER_ONLY", tol=1e-3)
        fine = minimal_rho1("PERIMETER_ONLY", tol=1e-6)
        assert fine <= coarse + 1e-12

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            minimal_rho1("ALG1")


class TestLowerBound:
    def test_constants(self):
        c_lb, rho_lb = lower_bound_constant()
        assert c_lb == pytest.approx(2.40001, abs=1e-4)
        assert rho_lb == pytest.approx(0.74915, abs=1e-4)
        assert rho_lb == pytest.approx(2.0 ** (-1.0 / c_lb), abs=1e-12)

    def test_truncation_stability(self):
        loose = lower_bound_constant(term_threshold=1e-10)
        tight = lower_bound_constant(term_threshold=1e-12)
        assert loose[0] == pytest.approx(tight[0], abs=1e-6)

    def test_below_every_achieved_coefficient(self, layers):
        c_lb, _ = lower_bound_constant()
        for layer in layers.values():
            assert c_lb < probe_coefficient(layer)

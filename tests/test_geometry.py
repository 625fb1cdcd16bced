"""Geometric primitives: lattices, chord and balanced probes, and the
coverage certifier: the exact arc test of decide mode, checked against the
refine-mode quadtree and dense sampling, and the quadtree itself."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marcopolo.geometry import (
    CoverageReport,
    Hexagon,
    Point2,
    Probe,
    balanced_probe_center,
    certify_coverage,
    chord_probe,
    circumscribe,
    hex_lattice,
    uncovered_hulls,
)
from marcopolo.geometry import (
    _cells_hull,
    _circle_gaps,
    _cluster_cells,
    _convex_hull,
)
from marcopolo.placements import PlacementFile, construct_layer, hexfam_layer

PLACEMENTS_DIR = Path(__file__).resolve().parent.parent / "placements"


def _hex_contains(hexes, pts: np.ndarray) -> np.ndarray:
    """Vectorized flat-top hexagon membership for an (n, 2) point array."""
    covered = np.zeros(len(pts), dtype=bool)
    s3 = math.sqrt(3)
    for h in hexes:
        qx = np.abs(pts[:, 0] - h.center.x)
        qy = np.abs(pts[:, 1] - h.center.y)
        s = h.side
        inside = (qy <= s3 / 2 * s + 1e-12) & (s3 * qx + qy <= s3 * s + 1e-12)
        covered |= inside
    return covered


class TestHexLattice:
    def test_counts_and_side(self):
        hexes = hex_lattice(2, 1.0)
        assert len(hexes) == 7
        assert all(abs(h.side - 0.5) < 1e-12 for h in hexes)
        assert len(hex_lattice(1, 1.0)) == 1
        assert abs(hex_lattice(1, 1.0)[0].side - 2.0) < 1e-12
        hexes4 = hex_lattice(4, 1.0)
        assert len(hexes4) == 37
        assert all(abs(h.side - 0.2) < 1e-12 for h in hexes4)

    def test_count_formula(self):
        for layers in range(1, 9):
            assert len(hex_lattice(layers, 3.0)) == 1 + 6 * math.comb(layers, 2)

    def test_center_hexagon_last(self):
        for layers in (2, 3, 5):
            last = hex_lattice(layers, 1.0)[-1]
            assert math.hypot(last.center.x, last.center.y) < 1e-12

    def test_lattice_covers_disk(self):
        rng = np.random.default_rng(0)
        for layers in (1, 2, 4, 8):
            for r in (1.0, 5.0, 17.0):
                hexes = hex_lattice(layers, r)
                pts = rng.uniform(-r, r, (20_000, 2))
                pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= r]
                assert _hex_contains(hexes, pts).all()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hex_lattice(0, 1.0)
        with pytest.raises(ValueError):
            hex_lattice(2, 0.0)


class TestCircumscribe:
    def test_radius_equals_side(self):
        probe = circumscribe(Hexagon(Point2(0.0, 0.0), 0.5))
        assert probe.center == Point2(0.0, 0.0)
        assert probe.rho == 0.5

    def test_vertices_on_circle(self):
        hexagon = Hexagon(Point2(0.2, -0.1), 0.3)
        probe = circumscribe(hexagon)
        for v in hexagon.vertices():
            assert abs(v.dist(hexagon.center) - probe.rho) < 1e-12

    def test_alg1_lattice_probes(self):
        probes = [circumscribe(h) for h in hex_lattice(2, 1.0)]
        assert len(probes) == 7
        assert all(abs(p.rho - 0.5) < 1e-12 for p in probes)


class TestChordProbe:
    def test_full_radius_is_central(self):
        probe = chord_probe(1.0)
        assert math.hypot(probe.center.x, probe.center.y) < 1e-12

    def test_paper_value(self):
        probe = chord_probe(0.844)
        d = math.hypot(probe.center.x, probe.center.y)
        assert abs(d - math.sqrt(1.0 - 0.844 ** 2)) < 1e-12

    def test_perimeter_arc_width(self):
        # a chord probe of radius rho covers a boundary arc of half-width
        # asin(rho)
        probe = chord_probe(0.6)
        d = math.hypot(probe.center.x, probe.center.y)
        cos_half = (1.0 + d * d - probe.rho ** 2) / (2.0 * d)
        assert abs(math.acos(cos_half) - math.asin(0.6)) < 1e-12

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_chord_identity(self, rho):
        probe = chord_probe(rho)
        d2 = probe.center.x ** 2 + probe.center.y ** 2
        assert abs(d2 + probe.rho ** 2 - 1.0) < 1e-12

    def test_rejects_invalid_radius(self):
        with pytest.raises(ValueError):
            chord_probe(1.5)
        with pytest.raises(ValueError):
            chord_probe(0.0)


class TestBalancedProbeCenter:
    def test_minimal_probe_gives_zero_angle(self):
        theta, _ = balanced_probe_center(0.8, (1.0 - 0.8) / 2.0)
        assert abs(theta) < 1e-12

    def test_reference_value(self):
        theta, _ = balanced_probe_center(0.8125, 0.8125 ** 2)
        assert abs(theta - 0.6249) < 1e-3

    def test_degenerate_annulus(self):
        for rk in (0.1, 0.3, 0.7):
            theta, _ = balanced_probe_center(1.0, rk)
            assert abs(theta - math.atan(rk)) < 1e-12

    def test_rejects_small_probe(self):
        with pytest.raises(ValueError):
            balanced_probe_center(0.8, 0.05)

    def test_equal_subtended_angles(self):
        # the probe's chords on the inner circle and the unit circle
        # subtend the same angle at the origin
        def half_angle(d, big_r, r):
            v = (r * r + d * d - big_r * big_r) / (2.0 * r * d)
            return math.acos(max(-1.0, min(1.0, v)))

        for r1 in (0.75, 0.8125, 0.9):
            for rk in (r1 ** 2, r1 ** 3):
                theta, d = balanced_probe_center(r1, rk)
                inner = half_angle(d, rk, r1)
                outer = half_angle(d, rk, 1.0)
                assert abs(inner - outer) < 1e-9
                assert abs(inner - theta) < 1e-9


class TestCertifyCoverage:
    def test_single_full_probe(self):
        report = certify_coverage([Probe(Point2(0.0, 0.0), 1.0)], 1e-3)
        assert report.certified_covered
        assert report.uncovered_area_upper_bound == 0.0

    def test_alg3_certifies_at_frozen_rho(self):
        layer = construct_layer("ALG3")
        assert certify_coverage(list(layer.probes), 1e-4).certified_covered

    def test_alg3_scheme_fails_below_minimum(self):
        layer = construct_layer("ALG3", rho1=0.82)
        report = certify_coverage(list(layer.probes), 1e-3,
                                  refine_uncovered=True)
        assert not report.certified_covered
        assert report.uncovered_area_upper_bound > 0.0
        # a gap reaches the perimeter, where the unit circle is uncovered;
        # refine mode also maps the interior gap between the chords
        reach = [np.hypot(c[:, 0], c[:, 1]).max()
                 for c in report.uncovered_regions]
        assert max(reach) > 0.9
        arcs = certify_coverage(layer.probes).uncovered_arcs
        assert arcs[0][0] == -1

    def test_report_invariants(self):
        with pytest.raises(AssertionError):
            CoverageReport(True, 0.1, [], 1e-4)

    def test_soundness_sampling(self, layers):
        # certified placements leave no uncovered random point
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, (200_000, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
        for aid in ("ALG1", "ALG3", "ALG5", "ALG6"):
            placement = layers[aid]
            covered = np.zeros(len(pts), dtype=bool)
            for p in placement.probes:
                covered |= (np.hypot(pts[:, 0] - p.center.x,
                                     pts[:, 1] - p.center.y)
                            <= p.rho + 1e-9)
            assert covered.all(), f"{aid} left uncovered samples"


class TestArcCertifier:
    """Decide mode: the exact probe-circle arc criterion."""

    def test_coincident_probes_leave_their_gap(self):
        # ALG4 covers the unit circle but leaves interior pinholes; an
        # identical copy of each probe must not cover its twin's circle
        probes = list(construct_layer("ALG4").probes)
        single = certify_coverage(probes)
        double = certify_coverage(probes + probes)
        assert not single.certified_covered
        assert not double.certified_covered
        m = len(probes)
        twins = sorted((c % m, a, b) for c, a, b in double.uncovered_arcs)
        expected = sorted(2 * single.uncovered_arcs)
        assert [c for c, _, _ in twins] == [c for c, _, _ in expected]
        assert np.allclose([arc[1:] for arc in twins],
                           [arc[1:] for arc in expected], rtol=0.0,
                           atol=1e-12)

    @pytest.mark.parametrize("aid", ["ALG1", "ALG2"])
    def test_tangent_hexagonal_lattices_certify(self, aid):
        # the lattice circles meet exactly at hexagon vertices, some of
        # them on the unit circle
        report = certify_coverage(construct_layer(aid).probes)
        assert report.certified_covered
        assert report.uncovered_arcs == []

    @pytest.mark.parametrize("r_max, n", [(10, 2 ** 10), (5, 2 ** 10),
                                          (3, 2 ** 10)])
    def test_deeper_hexagonal_lattices_certify(self, r_max, n):
        assert certify_coverage(hexfam_layer(r_max, n).probes) \
            .certified_covered

    def test_probe_at_origin(self):
        report = certify_coverage([Probe(Point2(0.0, 0.0), 0.6)])
        assert report.uncovered_arcs == [(-1, 0.0, 2.0 * math.pi),
                                         (0, 0.0, 2.0 * math.pi)]
        ring = [circumscribe(h) for h in hex_lattice(2, 1.0)]
        assert math.hypot(ring[-1].center.x, ring[-1].center.y) == 0.0
        assert certify_coverage(ring).certified_covered
        assert not certify_coverage(ring[:-1]).certified_covered

    def test_probe_circle_outside_the_disk(self):
        # a dilated circle wholly outside the unit disk needs no cover
        big = Probe(Point2(0.0, 0.0), 1.0)
        report = certify_coverage([big, Probe(Point2(0.5, 0.0), 0.3)])
        assert report.certified_covered
        # a disk touching the unit disk from outside: only its dilated
        # sliver inside the disk must be covered, which ALG3 does
        touching = Probe(Point2(1.5, 0.0), 0.5)
        alg3 = list(construct_layer("ALG3").probes)
        assert certify_coverage(alg3 + [touching]).certified_covered
        report = certify_coverage([Probe(Point2(0.0, 0.0), 0.6), touching])
        assert [c for c, _, _ in report.uncovered_arcs] == [-1, 0, 1]
        _, start, end = report.uncovered_arcs[2]
        assert start < math.pi < end and end - start < 1e-3

    def test_decide_mode_ignores_min_cell(self):
        probes = construct_layer("ALG3", rho1=0.8438).probes
        reports = [certify_coverage(probes, mc) for mc in (1e-2, 1e-6, 0.0)]
        assert all(r.uncovered_arcs == reports[0].uncovered_arcs
                   for r in reports)
        assert not reports[0].certified_covered


class TestCircleGaps:
    def test_wrapped_arc_covers_the_start(self):
        # the last arc runs past 2*pi and covers the gap after the first
        start = np.array([0.1, 0.3, 0.7])
        end = np.array([0.2, 0.8, 6.6])
        c, a, b = _circle_gaps(np.zeros(3, dtype=np.int64), start,
                               end - start, 1)
        assert c.size == 0

    def test_gaps_per_circle(self):
        circle = np.array([2, 0, 0, 2])
        start = np.array([1.0, 0.5, 3.0, 0.0])
        length = np.array([2.0 * math.pi, 1.0, 1.0, 0.5])
        c, a, b = _circle_gaps(circle, start, length, 3)
        assert c.tolist() == [0, 0, 1]
        assert a.tolist() == [1.5, 4.0, 0.0]
        assert b.tolist() == [3.0, 0.5 + 2.0 * math.pi, 2.0 * math.pi]


def _golden_probes() -> list[tuple]:
    return [PlacementFile.from_json(p.read_text()).probes
            for p in sorted(PLACEMENTS_DIR.glob("alg*.json"))]


_FIXED = [construct_layer("ALG3", 0.8438).probes,
          construct_layer("ALG3", 0.8440).probes,
          construct_layer("ALG6", 0.8135).probes]


@st.composite
def _oracle_placements(draw):
    """Fuzzed golden layers, random placements (some with duplicated
    probes), and the schedules just below and above ALG3's base."""
    kind = draw(st.sampled_from(["fixed", "fuzz", "random"]))
    if kind == "fixed":
        return list(draw(st.sampled_from(_FIXED)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "fuzz":
        probes = draw(st.sampled_from(_golden_probes()))
        sigma = 10.0 ** draw(st.floats(-9.0, -2.0))
        noise = rng.standard_normal((len(probes), 2)) * sigma
        try:
            return [Probe(Point2(p.center.x + dx, p.center.y + dy), p.rho)
                    for p, (dx, dy) in zip(probes, noise)]
        except ValueError:
            assume(False)
    m = draw(st.integers(1, 10))
    r = np.sqrt(rng.uniform(0.0, 1.0, m))
    a = rng.uniform(0.0, 2.0 * math.pi, m)
    probes = [Probe(Point2(ri * math.cos(ai), ri * math.sin(ai)), rho)
              for ri, ai, rho in zip(r, a, rng.uniform(0.15, 0.9, m))]
    if draw(st.booleans()):
        probes += [probes[i] for i in rng.integers(0, m, m)]
    return probes


def _covered(probes, pts: np.ndarray, tol: float) -> np.ndarray:
    covered = np.zeros(len(pts), dtype=bool)
    for p in probes:
        covered |= np.hypot(pts[:, 0] - p.center.x,
                            pts[:, 1] - p.center.y) <= p.rho + tol
    return covered


class TestArcCertifierOracle:
    @given(_oracle_placements())
    @settings(max_examples=120, deadline=None)
    def test_against_quadtree_sampling_and_witnesses(self, probes):
        report = certify_coverage(probes)
        # the quadtree is sound: what it certifies is covered.  Its cells
        # grow as (gap area) / min_cell^2, so only small gaps are refined
        # down to the finer resolution
        for min_cell in (2e-3, 1e-4):
            refined = certify_coverage(probes, min_cell,
                                       refine_uncovered=True)
            if refined.certified_covered:
                assert report.certified_covered
            if refined.uncovered_area_upper_bound > 1e-3:
                break
        if report.certified_covered:
            rng = np.random.default_rng(len(probes))
            r = np.sqrt(rng.uniform(0.0, 1.0, 20_000))
            a = rng.uniform(0.0, 2.0 * math.pi, 24_000)
            pts = np.column_stack([np.append(r, np.ones(4000)) * np.cos(a),
                                   np.append(r, np.ones(4000)) * np.sin(a)])
            assert _covered(probes, pts, 1e-9).all()
        # each uncovered arc's midpoint gives a point of the disk that no
        # probe covers: just inside the unit circle, or on the dilated
        # circle, just outside the probe circle
        for circle, start, end in report.uncovered_arcs:
            assert 0.0 <= start < 2.0 * math.pi and start < end
            mid = 0.5 * (start + end)
            if circle < 0:
                x, y = (1.0 - 5e-10) * math.cos(mid), \
                    (1.0 - 5e-10) * math.sin(mid)
            else:
                p = probes[circle]
                x = p.center.x + (p.rho + 1e-9) * math.cos(mid)
                y = p.center.y + (p.rho + 1e-9) * math.sin(mid)
            assert math.hypot(x, y) <= 1.0 + 1e-15
            assert not _covered(probes, np.array([[x, y]]), 0.0).any()


class TestUncoveredHulls:
    def test_covered_report_empty(self):
        report = certify_coverage([Probe(Point2(0.0, 0.0), 1.0)], 1e-3)
        assert uncovered_hulls(report) == []

    def test_two_gaps_ordered_by_area(self):
        probes = [Probe(Point2(0.35, 0.0), 0.72),
                  Probe(Point2(-0.55, 0.45), 0.5),
                  Probe(Point2(-0.55, -0.45), 0.5),
                  Probe(Point2(-0.9, 0.0), 0.28)]
        report = certify_coverage(probes, 1e-3, refine_uncovered=True)
        assert not report.certified_covered
        hulls = uncovered_hulls(report)
        assert len(hulls) >= 2

        def hull_area(poly):
            x, y = poly[:, 0], poly[:, 1]
            return 0.5 * abs(np.dot(x, np.roll(y, -1))
                             - np.dot(y, np.roll(x, -1)))

        areas = [hull_area(h) for h in hulls]
        assert areas == sorted(areas, reverse=True)

    def test_alg4_interior_gap(self):
        layer = construct_layer("ALG4", rho1=0.8)
        report = certify_coverage(list(layer.probes), 2e-3,
                                  refine_uncovered=True)
        assert not report.certified_covered
        assert len(uncovered_hulls(report)) >= 1


# ---------------------------------------------------------------------------
# Array helpers checked against plain reference loops
# ---------------------------------------------------------------------------

def _reference_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain over every distinct point."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                u = out[-1] - out[-2]
                v = p - out[-2]
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


def _point_hull(points: np.ndarray) -> np.ndarray:
    return _convex_hull(points[:, 0], points[:, 1], points[:, 1])


def _reference_clusters(cells: np.ndarray) -> list[list[int]]:
    """Row indices of each 8-neighbor component on the coarsest cell's
    grid, found by depth-first search from each unvisited row in order,
    ordered by area (stable, so ties keep first-row order)."""
    grid = 2.0 * float(cells[:, 2].max())
    keys = [(math.floor(x / grid), math.floor(y / grid))
            for x, y in cells[:, :2].tolist()]
    index: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        index.setdefault(key, []).append(i)
    seen = [False] * len(keys)
    groups = []
    for start in range(len(keys)):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            a, b = keys[i]
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    for j in index.get((a + da, b + db), ()):
                        if not seen[j]:
                            seen[j] = True
                            stack.append(j)
        groups.append(sorted(members))
    groups.sort(key=lambda g: -float(np.sum(cells[g, 2] ** 2)))
    return groups


def _random_cells(rng, count: int, levels=(5, 6, 7)) -> np.ndarray:
    """Cells of mixed dyadic sizes snapped to their own grids inside a
    small box, so neighbors touch and many corners are collinear."""
    half = 2.0 ** -rng.choice(levels, count)
    x = (np.floor(rng.uniform(-0.3, 0.3, count) / (2 * half)) + 0.5) * 2 * half
    y = (np.floor(rng.uniform(-0.2, 0.2, count) / (2 * half)) + 0.5) * 2 * half
    return np.column_stack([x, y, half])


class TestConvexHull:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(int(rng.integers(3, 3000)), 2))
        assert np.array_equal(_point_hull(pts), _reference_hull(pts))

    @pytest.mark.parametrize("seed", range(5))
    def test_cell_corners(self, seed):
        rng = np.random.default_rng(100 + seed)
        cells = _random_cells(rng, int(rng.integers(1, 400)))
        h = cells[:, 2:3]
        corners = np.concatenate([
            cells[:, :2] + np.column_stack([sx * h, sy * h])
            for sx in (-1, 1) for sy in (-1, 1)])
        assert np.array_equal(_cells_hull(cells), _reference_hull(corners))

    def test_degenerate_inputs(self):
        column = np.array([[0.0, 2.0], [0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        line = np.array([[float(i), 3.0 * i] for i in range(6)])
        for pts in (column, line, column[:1], column[:2], column[:0]):
            assert np.array_equal(_point_hull(pts), _reference_hull(pts))


class TestClusterCells:
    @staticmethod
    def _check(cells: np.ndarray) -> None:
        clusters = _cluster_cells(cells)
        expected = _reference_clusters(cells)
        assert len(clusters) == len(expected)
        for got, rows in zip(clusters, expected):
            assert np.array_equal(got, cells[rows])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixed_sizes(self, seed):
        rng = np.random.default_rng(200 + seed)
        self._check(_random_cells(rng, int(rng.integers(1, 600))))

    def test_scattered_single_cells(self):
        rng = np.random.default_rng(9)
        cells = np.column_stack([rng.uniform(-1, 1, (300, 2)),
                                 np.full(300, 1e-3)])
        self._check(cells)

    def test_fine_grid_keys_do_not_collide(self):
        # on a 2^-31 grid spanning the disk, raw 64-bit bucket keys
        # ix * width + iy wrap around, and cells a and b, two units
        # apart, would share a key
        grid = 2.0 ** -31
        half = grid / 2
        a = [-1.0 + half, half, half]
        b = [a[0] + (2 ** 32 - 2) * grid, half + 4 * grid, half]
        rows = [[half, -1.0 + half, half], [half, 1.0 - half, half]]
        cells = np.array([a, b] + rows)
        self._check(cells)
        assert len(_cluster_cells(cells)) == 4

    @pytest.mark.parametrize("probes", [
        list(construct_layer("ALG3", rho1=0.82).probes),
        list(construct_layer("ALG4", rho1=0.8).probes)[:4],
        [Probe(Point2(0.35, 0.0), 0.72), Probe(Point2(-0.55, 0.45), 0.5),
         Probe(Point2(-0.55, -0.45), 0.5), Probe(Point2(-0.9, 0.0), 0.28)],
    ])
    def test_refined_reports(self, probes):
        report = certify_coverage(probes, 2e-3, refine_uncovered=True)
        assert not report.certified_covered
        cells = np.concatenate(report.uncovered_regions)
        self._check(cells)
        # rows in a scrambled order form the same components
        self._check(cells[np.random.default_rng(1).permutation(len(cells))])

"""Geometric primitives: lattices, chord and balanced probes, and the
coverage model: the exact arc certifier and the uncovered faces and area
taken from its arcs, checked against dense sampling and a quadtree."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marcopolo.geometry import (
    CoverageReport,
    Face,
    Point2,
    Probe,
    certify_coverage,
    chord_probe,
    hex_lattice,
    uncovered_faces,
)
from marcopolo.geometry import _TOL, _circle_gaps, _convex_hull
from marcopolo.placements import (
    PlacementFile,
    construct_layer,
    hexfam_layer,
    load_placement,
)

PLACEMENTS_DIR = Path(__file__).resolve().parent.parent / "placements"


def _hex_contains(probes, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership of an (n, 2) point array in the flat-top
    hexagons the probes circumscribe (side = probe radius)."""
    covered = np.zeros(len(pts), dtype=bool)
    s3 = math.sqrt(3)
    for p in probes:
        qx = np.abs(pts[:, 0] - p.center.x)
        qy = np.abs(pts[:, 1] - p.center.y)
        s = p.rho
        inside = (qy <= s3 / 2 * s + 1e-12) & (s3 * qx + qy <= s3 * s + 1e-12)
        covered |= inside
    return covered


class TestHexLattice:
    def test_counts_and_side(self):
        probes = hex_lattice(2)
        assert len(probes) == 7
        assert all(abs(p.rho - 0.5) < 1e-12 for p in probes)
        probes4 = hex_lattice(4)
        assert len(probes4) == 37
        assert all(abs(p.rho - 0.2) < 1e-12 for p in probes4)

    def test_count_formula(self):
        # every hexagon meets the unit disk up to L = 7; from L = 8 the
        # corner hexagons lie outside it and are skipped
        for layers in range(2, 13):
            probes = hex_lattice(layers)
            full = 1 + 6 * math.comb(layers, 2)
            assert (len(probes) == full) == (layers <= 7)
            assert len(probes) <= full
            assert all(math.hypot(p.center.x, p.center.y) - p.rho <= 1.0
                       for p in probes)

    def test_radius_equals_side(self):
        # each probe circumscribes its hexagon: radius = lattice side
        for layers in (2, 3, 9):
            side = 2.0 / (3 * layers - 2)
            assert all(p.rho == side for p in hex_lattice(layers))

    def test_alg1_lattice_probes(self):
        # the golden ALG1 layer is the L = 2 lattice as listed
        golden = load_placement(PLACEMENTS_DIR / "alg1.json")
        assert golden.probes == tuple(hex_lattice(2))

    def test_center_hexagon_last(self):
        for layers in (2, 3, 5, 9):
            last = hex_lattice(layers)[-1]
            assert math.hypot(last.center.x, last.center.y) < 1e-12

    def test_lattice_covers_disk(self):
        rng = np.random.default_rng(0)
        for layers in (2, 4, 8, 12):
            probes = hex_lattice(layers)
            pts = rng.uniform(-1.0, 1.0, (20_000, 2))
            pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
            assert _hex_contains(probes, pts).all()

    def test_invalid_arguments(self):
        for layers in (0, 1):
            with pytest.raises(ValueError):
                hex_lattice(layers)


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


class TestCertifyCoverage:
    def test_single_full_probe(self):
        report = certify_coverage([Probe(Point2(0.0, 0.0), 1.0)], 1e-3)
        assert report.certified_covered
        assert report.uncovered_arcs == []

    def test_alg3_certifies_at_frozen_rho(self):
        layer = construct_layer("ALG3")
        assert certify_coverage(list(layer.probes), 1e-4).certified_covered

    def test_alg3_scheme_fails_below_minimum(self):
        layer = construct_layer("ALG3", rho1=0.82)
        covered, area, faces = uncovered_faces(layer.probes)
        assert not covered
        assert area > 0.0
        # a gap reaches the perimeter, where the unit circle is uncovered,
        # and another lies in the interior between the chords
        touching = [any(c < 0 for c, _, _ in f.arcs) for f in faces]
        assert True in touching and False in touching
        arcs = certify_coverage(layer.probes).uncovered_arcs
        assert arcs[0][0] == -1

    @pytest.mark.parametrize("probes", [[], ()])
    def test_empty_placement_rejected(self, probes):
        with pytest.raises(ValueError, match="empty placement"):
            certify_coverage(probes)
        with pytest.raises(ValueError, match="empty placement"):
            uncovered_faces(probes)

    def test_verdict_is_read_from_the_arcs(self):
        assert CoverageReport([]).certified_covered
        assert not CoverageReport([(-1, 0.0, 1.0)]).certified_covered

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
                            <= p.rho + _TOL)
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

    # L = 2, 4 and 8 layers, then L = 9-13 through n = (3L - 2) / 2 at
    # R_max = 1: lattices of 211-451 probes, pruned at the corners from
    # L = 8 on, which hexfam_layer returns as certified unchecked
    @pytest.mark.parametrize("r_max, n", [
        (10, 2 ** 10), (5, 2 ** 10), (3, 2 ** 10),
        *((1, (3 * big_l - 2) / 2) for big_l in range(9, 14))])
    def test_deeper_hexagonal_lattices_certify(self, r_max, n):
        assert certify_coverage(hexfam_layer(r_max, n).probes) \
            .certified_covered

    def test_probe_at_origin(self):
        report = certify_coverage([Probe(Point2(0.0, 0.0), 0.6)])
        assert report.uncovered_arcs == [(-1, 0.0, 2.0 * math.pi),
                                         (0, 0.0, 2.0 * math.pi)]
        ring = hex_lattice(2)
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
        assert _circle_gaps(np.zeros(3, dtype=np.int64), start,
                            end - start, 1) == []

    def test_gaps_per_circle(self):
        # the gaps come in no particular order
        circle = np.array([2, 0, 0, 2])
        start = np.array([1.0, 0.5, 3.0, 0.0])
        length = np.array([2.0 * math.pi, 1.0, 1.0, 0.5])
        assert sorted(_circle_gaps(circle, start, length, 3)) == [
            (0, 1.5, 3.0), (0, 4.0, 0.5 + 2.0 * math.pi),
            (1, 0.0, 2.0 * math.pi)]


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


def _fuzzed_golden(seed: int, sigma: float) -> list[Probe]:
    """Golden layer seed % 8 (ALG1 ... ALG8) with N(0, sigma^2) noise on
    its centers."""
    rng = np.random.default_rng(seed)
    probes = _golden_probes()[seed % 8]
    noise = rng.standard_normal((len(probes), 2)) * sigma
    return [Probe(Point2(p.center.x + dx, p.center.y + dy), p.rho)
            for p, (dx, dy) in zip(probes, noise)]


def _covered(probes, pts: np.ndarray, tol: float) -> np.ndarray:
    covered = np.zeros(len(pts), dtype=bool)
    for p in probes:
        covered |= np.hypot(pts[:, 0] - p.center.x,
                            pts[:, 1] - p.center.y) <= p.rho + tol
    return covered


def _arc_point(probes, circle: int, angle: float) -> np.ndarray:
    """The point at ``angle`` on the unit circle (circle -1) or on the
    dilated circle of probe ``circle``."""
    if circle < 0:
        return np.array([math.cos(angle), math.sin(angle)])
    p = probes[circle]
    r = p.rho + _TOL
    return np.array([p.center.x + r * math.cos(angle),
                     p.center.y + r * math.sin(angle)])


def _check_faces(probes) -> bool:
    """Check ``uncovered_faces`` against ``certify_coverage`` and dense
    sampling, and return its verdict."""
    covered, area, faces = uncovered_faces(probes)
    assert covered == certify_coverage(probes).certified_covered
    # Green's area against the share of 100k uniform points of the
    # disk that no dilated probe covers: within six standard errors,
    # plus two points for gaps too small to be hit reliably
    rng = np.random.default_rng(len(probes))
    n = 100_000
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    pts = np.column_stack([r * np.cos(a), r * np.sin(a)])
    sampled = math.pi * float(np.mean(~_covered(probes, pts, _TOL)))
    share = min(max(area / math.pi, 0.0), 1.0)
    error = math.pi * math.sqrt(share * (1.0 - share) / n)
    assert abs(area - sampled) <= 6.0 * error + 2.0 * math.pi / n
    # faces are closed loops of uncovered arcs, largest first; their
    # areas add up to at least the total, which subtracts the holes
    assert [f.area for f in faces] == sorted(
        (f.area for f in faces), reverse=True)
    assert all(f.area > 0.0 for f in faces)
    assert sum(f.area for f in faces) >= area - 1e-12
    for face in faces:
        for (c, s, e), (c2, s2, e2) in zip(
                face.arcs, face.arcs[1:] + face.arcs[:1]):
            end = _arc_point(probes, c, e if c < 0 else s)
            start = _arc_point(probes, c2, s2 if c2 < 0 else e2)
            assert np.hypot(*(end - start)) < 1e-9
    return covered


class TestArcCertifierOracle:
    @given(_oracle_placements())
    @settings(max_examples=120, deadline=None)
    def test_against_area_sampling_and_witnesses(self, probes):
        report = certify_coverage(probes)
        _check_faces(probes)
        if report.certified_covered:
            rng = np.random.default_rng(len(probes))
            r = np.sqrt(rng.uniform(0.0, 1.0, 20_000))
            a = rng.uniform(0.0, 2.0 * math.pi, 24_000)
            pts = np.column_stack([np.append(r, np.ones(4000)) * np.cos(a),
                                   np.append(r, np.ones(4000)) * np.sin(a)])
            assert _covered(probes, pts, _TOL).all()
        # each uncovered arc's midpoint gives a point of the disk that no
        # probe covers: just inside the unit circle, or on the dilated
        # circle, just outside the probe circle
        for circle, start, end in report.uncovered_arcs:
            assert 0.0 <= start < 2.0 * math.pi and start < end
            mid = 0.5 * (start + end)
            if circle < 0:
                x, y = (1.0 - _TOL / 2.0) * math.cos(mid), \
                    (1.0 - _TOL / 2.0) * math.sin(mid)
            else:
                p = probes[circle]
                x = p.center.x + (p.rho + _TOL) * math.cos(mid)
                y = p.center.y + (p.rho + _TOL) * math.sin(mid)
            assert math.hypot(x, y) <= 1.0 + 1e-15
            assert not _covered(probes, np.array([[x, y]]), 0.0).any()


# ---------------------------------------------------------------------------
# The arc certifier and the faces against their reference: the passes as
# they ran before they were merged, which must give the same arcs bit for
# bit, and so the same faces
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _reference_probe_arrays(probes):
    px = np.array([p.center.x for p in probes])
    py = np.array([p.center.y for p in probes])
    pr = np.array([p.rho for p in probes])
    return px, py, pr


def _reference_arcs(probes) -> list[tuple[int, float, float]]:
    """``certify_coverage(probes).uncovered_arcs`` by the reference."""
    return _reference_uncovered_arcs(*_reference_probe_arrays(probes))


def _reference_uncovered_arcs(px, py, pr):
    r = pr + _TOL
    cx = np.concatenate(([0.0], px))
    cy = np.concatenate(([0.0], py))
    cr = np.concatenate(([1.0], r))
    # the last column is the unit disk itself
    center, half = _reference_covered_arcs(
        cx, cy, cr, np.append(px, 0.0), np.append(py, 0.0),
        np.append(r, 1.0))
    # a probe covers neither its own circle nor an identical probe's
    same = (px == cx[:, None]) & (py == cy[:, None]) & (r == cr[:, None])
    same[0] = False
    half[:, :-1][same] = 0.0
    # the part of a probe circle outside the open unit disk needs no cover
    half[:, -1] = math.pi - half[:, -1]
    center[:, -1] += math.pi
    row, col = np.nonzero(half > 0.0)
    h = half[row, col]
    circle, start, end = _reference_circle_gaps(
        row, (center[row, col] - h) % _TWO_PI, 2.0 * h, half.shape[0])
    begin = start % _TWO_PI
    return sorted((c - 1, a0, a0 + (b - a)) for c, a0, a, b in
                  zip(circle.tolist(), begin.tolist(), start.tolist(),
                      end.tolist()))


def _reference_covered_arcs(cx, cy, cr, px, py, r):
    dx = px - cx[:, None]
    dy = py - cy[:, None]
    d = np.hypot(dx, dy)
    rc = cr[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_half = (rc * rc + d * d - r * r) / (2.0 * rc * d)
    half = np.arccos(np.maximum(np.minimum(cos_half, 1.0), -1.0))
    half[d + rc <= r] = math.pi
    return np.arctan2(dy, dx), half


def _reference_circle_gaps(circle, start, length, n_circles):
    bare = np.flatnonzero(np.bincount(circle, minlength=n_circles) == 0)
    if circle.size == 0:
        return bare, np.zeros(bare.size), np.full(bare.size, _TWO_PI)
    order = np.lexsort((start, circle))
    c = circle[order]
    s = start[order]
    span = length[order]
    offset = c * (4.0 * _TWO_PI)
    reach = np.maximum.accumulate(offset + s + span) - offset
    new = np.ones(c.size, dtype=bool)
    np.not_equal(c[1:], c[:-1], out=new[1:])
    first = np.flatnonzero(new)
    own = np.cumsum(new) - 1
    top = np.maximum.reduceat(reach, first)
    before = np.concatenate(([-np.inf], reach[:-1]))
    np.maximum(before, top[own] - _TWO_PI, out=before)
    open_circle = np.maximum.reduceat(span, first) < _TWO_PI
    inner = (s > before) & ~new & open_circle[own]
    closing = (top < s[first] + _TWO_PI) & open_circle
    gap_c = np.concatenate([c[inner], c[first][closing], bare])
    gap_a = np.concatenate([before[inner], top[closing],
                            np.zeros(bare.size)])
    gap_b = np.concatenate([s[inner], s[first][closing] + _TWO_PI,
                            np.full(bare.size, _TWO_PI)])
    by_circle = np.argsort(gap_c, kind="stable")
    return gap_c[by_circle], gap_a[by_circle], gap_b[by_circle]


def _reference_faces(probes):
    """``uncovered_faces(probes)`` by the reference."""
    px, py, pr = _reference_probe_arrays(probes)
    arcs = _reference_uncovered_arcs(px, py, pr)
    if not arcs:
        return True, 0.0, []
    keys = list(zip(px.tolist(), py.tolist(), pr.tolist()))
    first = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    arcs = [arc for arc in arcs
            if arc[0] < 0 or first[keys[arc[0]]] == arc[0]]
    circle = np.array([arc[0] for arc in arcs])
    a = np.array([arc[1] for arc in arcs])
    b = np.array([arc[2] for arc in arcs])
    unit = circle < 0
    x = np.where(unit, 0.0, px[circle])
    y = np.where(unit, 0.0, py[circle])
    r = np.where(unit, 1.0, pr[circle] + _TOL)
    sign = np.where(unit, 0.5, -0.5)
    area = sign * (r * r * (b - a) + r * (x * (np.sin(b) - np.sin(a))
                                          - y * (np.cos(b) - np.cos(a))))
    begin = np.where(unit, a, b)
    finish = np.where(unit, b, a)
    ends = np.column_stack([x + r * np.cos(finish), y + r * np.sin(finish)])
    starts = np.column_stack([x + r * np.cos(begin), y + r * np.sin(begin)])
    gap = ((ends[:, None, :] - starts[None, :, :]) ** 2).sum(axis=2)
    following = np.argmin(gap, axis=1).tolist()
    faces = []
    seen = [False] * len(arcs)
    for start in range(len(arcs)):
        if seen[start]:
            continue
        loop, k = [], start
        while not seen[k]:
            seen[k] = True
            loop.append(k)
            k = following[k]
        loop_area = float(area[loop].sum())
        if loop_area > 0.0:
            faces.append(Face(loop_area, [arcs[i] for i in loop]))
    faces.sort(key=lambda face: -face.area)
    return False, float(area.sum()), faces


_EDGE_LAYERS = {
    # no arc on any circle: both are uncovered whole
    "lone-probe-at-origin": [Probe(Point2(0.0, 0.0), 0.6)],
    "radius-1-probe-at-origin": [Probe(Point2(0.0, 0.0), 1.0)],
    # the big probe's dilated circle lies wholly outside the disk
    "circle-outside-the-disk": [Probe(Point2(0.0, 0.0), 1.0),
                                Probe(Point2(0.5, 0.0), 0.3)],
    "disk-touching-from-outside": [Probe(Point2(0.0, 0.0), 0.6),
                                   Probe(Point2(1.5, 0.0), 0.5)],
    "two-identical-probes": [Probe(Point2(0.3, -0.2), 0.7)] * 2,
    # a disk covers the whole circle of a smaller concentric probe
    "concentric-probes": [Probe(Point2(0.3, -0.2), 0.7),
                          Probe(Point2(0.3, -0.2), 0.4)],
    "tangent-ALG1": list(construct_layer("ALG1").probes),
    "tangent-ALG2": list(construct_layer("ALG2").probes),
    "ALG3-below-its-base": list(construct_layer("ALG3", 0.82).probes),
    "hexfam-2-1024": list(hexfam_layer(2, 2 ** 10).probes),
}


class TestCertifierMatchesReference:
    """The certifier's arcs equal the reference's under ==, with no
    tolerance, and so do the faces taken from them."""

    @staticmethod
    def _check(probes):
        assert certify_coverage(probes).uncovered_arcs == \
            _reference_arcs(probes)
        assert uncovered_faces(probes) == _reference_faces(probes)

    @given(_oracle_placements())
    @settings(max_examples=150, deadline=None)
    def test_oracle_placements(self, probes):
        self._check(probes)

    @pytest.mark.parametrize("name", list(_EDGE_LAYERS))
    def test_edge_cases(self, name):
        self._check(_EDGE_LAYERS[name])


class TestUncoveredRegions:
    """The uncovered faces: closed loops of uncovered arcs, largest area
    first, with the exact area of the uncovered set."""

    def test_covered_report_empty(self):
        assert uncovered_faces([Probe(Point2(0.0, 0.0), 1.0)]) == \
            (True, 0.0, [])

    def test_two_gaps_ordered_by_area(self):
        probes = [Probe(Point2(0.35, 0.0), 0.72),
                  Probe(Point2(-0.55, 0.45), 0.5),
                  Probe(Point2(-0.55, -0.45), 0.5),
                  Probe(Point2(-0.9, 0.0), 0.28)]
        covered, area, faces = uncovered_faces(probes)
        assert not covered
        assert len(faces) == 2
        areas = [f.area for f in faces]
        assert areas == sorted(areas, reverse=True)
        assert sum(areas) == pytest.approx(area, rel=0.0, abs=1e-12)

    def test_alg4_interior_gap(self):
        covered, area, faces = uncovered_faces(
            construct_layer("ALG4", rho1=0.8).probes)
        assert not covered
        assert len(faces) >= 1 and area > 0.0
        # at its frozen base ALG4 covers the unit circle and leaves only
        # interior pinholes, below the documented 3e-4
        covered, area, faces = uncovered_faces(construct_layer("ALG4").probes)
        assert not covered
        assert faces and all(c >= 0 for f in faces for c, _, _ in f.arcs)
        assert 0.0 < area < 3e-4


class TestUncoveredFaces:
    def test_duplicated_probes_count_once(self):
        for probes in (list(construct_layer("ALG4", rho1=0.8).probes),
                       list(construct_layer("ALG3", rho1=0.82).probes)):
            covered, area, faces = uncovered_faces(probes)
            twins = uncovered_faces(probes + probes[::-1] + probes[:2])
            assert twins[0] == covered
            assert twins[1] == pytest.approx(area, rel=0.0, abs=1e-15)
            assert [f.area for f in twins[2]] == pytest.approx(
                [f.area for f in faces], rel=0.0, abs=1e-15)

    def test_probe_inside_a_gap_is_a_hole(self):
        # the small disk lies wholly inside the gap that the large probe
        # leaves: its circle is a loop of negative area, which the total
        # subtracts but which bounds no face
        big = Probe(Point2(0.5, 0.0), 0.6)
        small = Probe(Point2(-0.5, 0.0), 0.2)
        covered, area, faces = uncovered_faces([big, small])
        alone = uncovered_faces([big])
        assert not covered
        assert len(faces) == 1
        assert faces[0].area == pytest.approx(alone[1], rel=0.0, abs=1e-12)
        hole = math.pi * (0.2 + _TOL) ** 2
        assert area == pytest.approx(alone[1] - hole, rel=0.0, abs=1e-12)
        assert (1, 0.0, 2.0 * math.pi) not in faces[0].arcs

    @pytest.mark.parametrize("sigma", [0.0, 1e-6, 1e-4])
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_golden_layers(self, seed, sigma):
        # each golden layer, with its centers fuzzed or not; unfuzzed, all
        # but ALG4, which covers only the unit circle, certify
        probes = _fuzzed_golden(seed, sigma)
        covered = _check_faces(probes)
        if sigma == 0.0:
            assert covered == (seed != 3)

    def test_probe_at_origin(self):
        covered, area, faces = uncovered_faces([Probe(Point2(0.0, 0.0),
                                                      0.6)])
        assert not covered
        assert area == pytest.approx(math.pi * (1.0 - (0.6 + _TOL) ** 2),
                                     rel=0.0, abs=1e-12)
        assert len(faces) == 1
        assert faces[0].arcs == [(-1, 0.0, 2.0 * math.pi)]
        assert faces[0].area == pytest.approx(math.pi, rel=0.0, abs=1e-12)


def _reference_area_bounds(probes, min_cell: float) -> tuple[float, float]:
    """Lower and upper bounds on the area of the unit disk that the probe
    disks, dilated by _TOL, leave uncovered, from a quadtree that tests
    its cells one probe at a time down to side ``min_cell``.

    A cell inside the disk that meets no probe counts in both bounds; a
    cell that no single probe covers and that reaches the floor counts in
    the upper one."""
    px = np.array([p.center.x for p in probes])
    py = np.array([p.center.y for p in probes])
    pr = np.array([p.rho for p in probes]) + _TOL
    cx, cy, half = np.array([0.0]), np.array([0.0]), 1.0
    lower = upper = 0.0
    while cx.size:
        ax, ay = np.abs(cx) + half, np.abs(cy) + half
        nx = np.maximum(np.abs(cx) - half, 0.0)
        ny = np.maximum(np.abs(cy) - half, 0.0)
        alive = nx * nx + ny * ny <= 1.0
        covered = np.zeros(cx.size, dtype=bool)
        touched = np.zeros(cx.size, dtype=bool)
        for x, y, r in zip(px, py, pr):
            fx, fy = np.abs(cx - x) + half, np.abs(cy - y) + half
            covered |= fx * fx + fy * fy <= r * r
            gx = np.maximum(np.abs(cx - x) - half, 0.0)
            gy = np.maximum(np.abs(cy - y) - half, 0.0)
            touched |= gx * gx + gy * gy <= r * r
        open_ = alive & ~covered
        empty = open_ & ~touched & (ax * ax + ay * ay <= 1.0)
        cell = 4.0 * half * half
        lower += cell * np.count_nonzero(empty)
        upper += cell * np.count_nonzero(empty)
        split = open_ & ~empty
        if 2.0 * half <= min_cell:
            upper += cell * np.count_nonzero(split)
            break
        half /= 2.0
        cx, cy = cx[split], cy[split]
        n = cx.size
        cx = np.repeat(cx, 4) + np.tile([-half, -half, half, half], n)
        cy = np.repeat(cy, 4) + np.tile([-half, half, -half, half], n)
    return lower, upper


class TestQuadtreeBlocks:
    """The exact uncovered area lies between the bounds of a quadtree
    whose cells are tested one probe at a time, for golden layers (whose
    tangent probes no quadtree cell certifies, so only the lower bound
    is tight), fuzzed ones and ALG4 at 0.8; ``certify_coverage`` ignores
    ``min_cell`` and agrees with ``uncovered_faces``."""

    @pytest.mark.parametrize("probes, min_cell", [
        (list(construct_layer("ALG4", rho1=0.8).probes), 2e-3),
        (list(construct_layer("ALG4", rho1=0.8).probes), 1e-3),
    ] + [(_fuzzed_golden(seed, sigma), 2e-3)
         for seed in range(8) for sigma in (0.0, 1e-6, 1e-4)])
    def test_matches_per_probe_loop(self, probes, min_cell):
        report = certify_coverage(probes, min_cell)
        assert report == certify_coverage(probes)
        covered, area, faces = uncovered_faces(probes)
        assert covered == report.certified_covered
        lower, upper = _reference_area_bounds(probes, min_cell)
        assert lower - 1e-12 <= area <= upper + 1e-12
        if lower > 0.0:
            assert not covered and faces
        if covered:
            assert area == 0.0 and lower == 0.0


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
    return _convex_hull(points[:, 0], points[:, 1])


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
        # corners of grid cells: many points share a column or a line,
        # and neighboring cells share corners
        rng = np.random.default_rng(100 + seed)
        cells = _random_cells(rng, int(rng.integers(1, 400)))
        h = cells[:, 2:3]
        corners = np.concatenate([
            cells[:, :2] + np.column_stack([sx * h, sy * h])
            for sx in (-1, 1) for sy in (-1, 1)])
        assert np.array_equal(_point_hull(corners), _reference_hull(corners))

    def test_degenerate_inputs(self):
        column = np.array([[0.0, 2.0], [0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        line = np.array([[float(i), 3.0 * i] for i in range(6)])
        for pts in (column, line, column[:1], column[:2], column[:0]):
            assert np.array_equal(_point_hull(pts), _reference_hull(pts))

"""Greedy gap filling and the evolutionary layer search.

The full-budget evolution is exercised by the acceptance suite; the unit
tests here stay fast by using zero generations (warm starts only)."""
from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from marcopolo import optimizer
from marcopolo.geometry import (
    Face,
    Point2,
    Probe,
    _TOL,
    _convex_hull,
    certify_coverage,
    uncovered_faces,
)
from marcopolo.placements import (
    CertificationError,
    LayerPlacement,
    construct_layer,
)
from marcopolo.optimizer import (
    ALG7_RHO1,
    OptimizerConfig,
    alg7_layer,
    evolve_initial,
    greedy_fill,
)
from marcopolo.optimizer import (
    _BOX_POINTS,
    _FACE_POINTS,
    _PAIR_BLOCK,
    _best_chord_probe,
    _densify_hull,
    _face_targets,
    _run_end,
)
from marcopolo.verifier import probe_coefficient


def _cpus(monkeypatch, count: int) -> None:
    """Make ``count`` CPUs look usable to the initial scoring."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


class TestOptimizerConfig:
    def test_defaults(self):
        config = OptimizerConfig()
        assert config.generations == 40
        assert config.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(generations=-1)


class TestGreedyFill:
    def test_covered_input_is_kept(self, layers):
        layer = layers["ALG3"]
        filled = greedy_fill(LayerPlacement("ALG3", layer.probes,
                                            layer.rho1, False, "disk"))
        assert filled.probes == layer.probes
        assert filled.certified
        assert certify_coverage(filled.probes).certified_covered

    def test_requires_schedule_base(self, layers):
        bare = LayerPlacement("ALG1", layers["ALG1"].probes, None,
                              False, "disk")
        with pytest.raises(ValueError):
            greedy_fill(bare)

    def test_impossible_budget_raises_with_partial(self):
        # at rho1 = 0.6 the probes the schedule can still add after the
        # four leading ALG4 probes have less total area than the gap
        rho1 = 0.6
        seed = construct_layer("ALG4", rho1)
        partial = LayerPlacement("ALG7", seed.probes[:4], rho1,
                                 False, "disk")
        assert optimizer._schedule_capacity(rho1, 4) < \
            uncovered_faces(partial.probes)[1]
        with pytest.raises(CertificationError) as info:
            greedy_fill(partial)
        attached = info.value.placement
        assert not attached.certified
        assert attached.probes[:4] == partial.probes
        assert not certify_coverage(attached.probes).certified_covered


class TestAlg7Layer:
    def test_beats_published_coefficient(self):
        layer = alg7_layer()
        assert layer.certified
        assert certify_coverage(layer.probes).certified_covered
        assert layer.rho1 == ALG7_RHO1
        c = probe_coefficient(layer)
        assert c <= 3.10
        assert c == pytest.approx(-1.0 / math.log2(ALG7_RHO1), abs=1e-9)
        # geometric schedule throughout
        for p in layer.probes:
            k = math.log(p.rho, ALG7_RHO1)
            assert abs(k - round(k)) < 1e-6


class TestEvolveInitial:
    def test_zero_generations_certifies(self):
        config = OptimizerConfig(generations=0)
        layer = evolve_initial(config)
        assert layer.certified
        assert certify_coverage(layer.probes).certified_covered
        # the schedule base stays inside its bounds, so the coefficient
        # cannot exceed the upper bound's closed form
        hi = optimizer._RHO1_BOUNDS[1]
        assert layer.rho1 <= hi
        assert probe_coefficient(layer) <= -1.0 / math.log2(hi) + 1e-9

    def test_deterministic(self):
        config = OptimizerConfig(generations=0)
        a = evolve_initial(config)
        b = evolve_initial(config)
        assert a.probes == b.probes
        assert a.rho1 == b.rho1

    def test_fitness_agrees_with_greedy_fill(self):
        # the fitness runs the fill greedy_fill runs: it is below the
        # penalty iff greedy_fill certifies, with the same probes
        for vector in optimizer._structured_individuals():
            fit, filled = optimizer._fitness(vector)
            rho1, probes = optimizer._decode(vector)
            partial = LayerPlacement("ALG8", tuple(probes), rho1, False,
                                     "disk")
            try:
                layer = greedy_fill(partial)
            except CertificationError as err:
                layer = err.placement
            assert (fit < optimizer._PENALTY) == layer.certified
            assert tuple(filled) == layer.probes
            assert certify_coverage(layer.probes).certified_covered \
                == layer.certified

    def test_returns_best_individuals_fill(self, monkeypatch):
        # with no generations each individual is scored once, in slot
        # order; one CPU keeps every call in this process, where the spy
        # records it
        _cpus(monkeypatch, 1)
        scored = []
        fitness = optimizer._fitness

        def spy(vector):
            scored.append(fitness(vector))
            return scored[-1]

        monkeypatch.setattr(optimizer, "_fitness", spy)
        layer = evolve_initial(OptimizerConfig(generations=0))
        assert len(scored) == optimizer._POPULATION
        fit, filled = min(scored, key=lambda pair: pair[0])
        assert fit < optimizer._PENALTY
        assert layer.probes == tuple(filled)
        assert certify_coverage(layer.probes).certified_covered
        assert probe_coefficient(layer) == pytest.approx(fit, abs=1e-12)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="initial scoring forks worker processes only on "
                    "Linux")
class TestParallelScoring:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("generations", [0, 1])
    def test_layer_does_not_depend_on_cpu_count(self, monkeypatch, seed,
                                                generations):
        config = OptimizerConfig(seed=seed, generations=generations)
        threads = threading.active_count()
        layers = []
        for cpus in (1, 2, 4):
            _cpus(monkeypatch, cpus)
            layers.append(evolve_initial(config))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        for layer in layers[1:]:
            assert layer.probes == layers[0].probes
            assert layer.rho1 == layers[0].rho1

    @staticmethod
    def _failing_fitness(monkeypatch, fail):
        """Patch ``_fitness`` so that ``fail(vector)`` runs first; forked
        workers inherit the patch."""
        fitness = optimizer._fitness

        def patched(vector):
            fail(vector)
            return fitness(vector)

        monkeypatch.setattr(optimizer, "_fitness", patched)

    def test_worker_error_is_raised_here(self, monkeypatch):
        # on two CPUs the worker scores the odd slots: slot 1 is the warm
        # start at rho1 = 0.772, the only individual at that base
        parent = os.getpid()

        def fail(vector):
            if vector[0] == 0.772:
                assert os.getpid() != parent
                raise ValueError("slot 1 refused")

        self._failing_fitness(monkeypatch, fail)
        _cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match="^slot 1 refused$"):
            evolve_initial(OptimizerConfig(generations=0))
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_a_failure(self, monkeypatch):
        parent = os.getpid()

        def die(vector):
            if os.getpid() != parent:
                os._exit(3)

        self._failing_fitness(monkeypatch, die)
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exited with code 3 before "
                           "sending item 1's result"):
            evolve_initial(OptimizerConfig(generations=0))
        assert multiprocessing.active_children() == []


def _hull(points):
    return _convex_hull(points[:, 0], points[:, 1])


def _reference_densify(hull, spacing):
    """The points of ``_densify_hull``, one edge and one point at a time."""
    n = len(hull)
    perimeter = sum(math.hypot(*(hull[(i + 1) % n] - hull[i]))
                    for i in range(n))
    spacing = max(spacing, perimeter / optimizer._HULL_CAP)
    pts = []
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        steps = max(1, int(math.ceil(math.hypot(*(b - a)) / spacing)))
        for t in range(steps):
            pts.append(a + (b - a) * (t / steps))
    return np.array(pts)


class TestDensifyHull:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_point_loop(self, seed):
        # edges longer and shorter than the spacing, and the spacing
        # widened to perimeter / _HULL_CAP
        rng = np.random.default_rng(seed)
        hull = _hull(rng.normal(size=(200, 2)))
        for spacing in (0.01, 0.2, 5.0):
            got = _densify_hull(hull, spacing)
            assert np.array_equal(got, _reference_densify(hull, spacing))

    def test_point_and_segment(self):
        for hull in (np.array([[0.3, 0.4]]),
                     np.array([[0.0, 0.0], [0.1, 0.05]])):
            got = _densify_hull(hull, 0.01)
            assert np.array_equal(got, _reference_densify(hull, 0.01))


def _reference_chord_scores(hull, points, r):
    """Every candidate center with the number of points in its disk, one
    candidate at a time in (i, j, +/-) order over the hull-point pairs."""
    pts = _densify_hull(hull, r / 2.0)
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            p, q = pts[i], pts[j]
            d2 = ((q - p) ** 2).sum()
            if d2 > 4.0 * r * r or d2 < 1e-18:
                continue
            mid = 0.5 * (p + q)
            lift = math.sqrt(r * r - 0.25 * d2)
            ux, uy = (q - p) / math.sqrt(d2)
            for s in (1.0, -1.0):
                cx, cy = mid[0] - s * lift * uy, mid[1] + s * lift * ux
                inside = ((points[:, 0] - cx) ** 2
                          + (points[:, 1] - cy) ** 2) <= r * r
                out.append(((cx, cy), int(inside.sum())))
    return out


def _reference_chord_probe(hull, points, r):
    best, best_score = None, 0
    for center, count in _reference_chord_scores(hull, points, r):
        if count > best_score:
            best_score, best = count, center
    return best


def _candidate_blocks(hull, r):
    """The block of pairs of each candidate of ``_reference_chord_scores``."""
    pts = _densify_hull(hull, r / 2.0)
    blocks = []
    for k, (i, j) in enumerate(zip(*np.triu_indices(len(pts), 1))):
        d2 = ((pts[j] - pts[i]) ** 2).sum()
        if 1e-18 <= d2 <= 4.0 * r * r:
            blocks += [k // _PAIR_BLOCK] * 2
    return blocks


def _blob(rng, count, x0, y0, half):
    """Points at the centers of grid cells of one size on a patch around
    (x0, y0)."""
    ix = rng.integers(-12, 12, count)
    iy = rng.integers(-8, 8, count)
    return np.column_stack([x0 + (2 * ix + 1) * half,
                            y0 + (2 * iy + 1) * half])


def _square(x, y, half):
    """The corners of a square, counterclockwise."""
    return np.array([[x - half, y - half], [x + half, y - half],
                     [x + half, y + half], [x - half, y + half]])


class TestBestChordProbe:
    @pytest.mark.parametrize("seed,many", [(0, False), (1, False), (2, True),
                                           (3, True)])
    def test_random_regions(self, seed, many):
        # with many points a scoring buffer holds few candidate rows
        rng = np.random.default_rng(seed)
        first = _blob(rng, 150, 0.1, -0.2, 2.0 ** -7)
        points = np.concatenate(
            [first, _blob(rng, 4500 if many else 60, 0.3, 0.1, 2.0 ** -8)])
        hull = _hull(first)
        # the smallest radius densifies the hull to about a hundred
        # points, several thousand pairs
        for r in (0.01, 0.05, 0.12, 0.3):
            expected = _reference_chord_probe(hull, points, r)
            got = _best_chord_probe(hull, points, r)
            assert expected is not None
            assert got == expected

    def test_tied_scores_keep_first_candidate(self):
        # four points well inside every candidate disk: each candidate
        # holds as many, so the first one must win
        half = 2.0 ** -6
        points = np.array([[sx * half, sy * half]
                           for sx in (-1, 1) for sy in (-1, 1)])
        hull, r = _square(0.0, 0.0, 2.0 * half), 0.2
        scores = [score for _, score in
                  _reference_chord_scores(hull, points, r)]
        assert scores.count(max(scores)) > 1
        assert _best_chord_probe(hull, points, r) == \
            _reference_chord_probe(hull, points, r)

    @pytest.mark.parametrize("seed", range(3))
    def test_dyadic_and_annulus_cells(self, seed):
        # grid points plus points along an arc just inside the unit
        # circle, as a face that reaches the perimeter gives
        rng = np.random.default_rng(10 + seed)
        angle = np.sort(rng.uniform(-0.6, 0.6, 400))
        ring = np.column_stack([np.cos(angle) * 0.998, np.sin(angle) * 0.998])
        first = np.concatenate([_blob(rng, 150, 0.85, 0.0, 2.0 ** -7), ring])
        points = np.concatenate([first, _blob(rng, 80, 0.6, 0.3, 2.0 ** -8)])
        hull = _hull(first)
        for r in (0.03, 0.1, 0.25):
            expected = _reference_chord_probe(hull, points, r)
            assert expected is not None
            assert _best_chord_probe(hull, points, r) == expected

    def test_cells_at_distance_r(self):
        # the hull of one small square gives a dozen candidates, half of
        # which hold the square's center; two points at distance r from
        # one candidate, on an edge of its bounding box and inside no
        # other disk, make that candidate win unless a prune drops them
        base, hull = np.zeros((1, 2)), _square(0.0, 0.0, 1e-3)
        r = 0.12
        centers = [c for c, _ in _reference_chord_scores(hull, base, r)]
        boundary = 0
        for k, (cx, cy) in enumerate(centers):
            for ex, ey in ((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r)):
                sx, sy = cx + ex, cy + ey
                inside = [(sx - ox) ** 2 + (sy - oy) ** 2 <= r * r
                          for ox, oy in centers]
                if not inside[k] or sum(inside) > 1:
                    continue
                boundary += 1
                points = np.array([[0.0, 0.0], [sx, sy], [sx, sy]])
                assert _reference_chord_probe(hull, points, r) == (cx, cy)
                assert _best_chord_probe(hull, points, r) == (cx, cy)
        assert boundary >= 4

    def test_skips_only_candidates_that_cannot_win(self, monkeypatch):
        # two blocks of pairs: in the first, tiles scored earlier let later
        # ones be skipped; in the second, so does the first block's best.
        # A skipped candidate must count less than its block's best, or no
        # more than the best of earlier blocks; counts are exact, so the
        # candidate that beats it may come after it in scan order
        rng = np.random.default_rng(1)
        first = _blob(rng, 150, 0.1, -0.2, 2.0 ** -7)
        points = np.concatenate([first, _blob(rng, 60, 0.3, 0.1, 2.0 ** -8)])
        hull, r = _hull(first), 0.02
        scored = set()
        near_scores = optimizer._near_scores

        def spy(sx, sy, cx, cy, radius, buf):
            scored.update(zip(cx.tolist(), cy.tolist()))
            return near_scores(sx, sy, cx, cy, radius, buf)

        monkeypatch.setattr(optimizer, "_near_scores", spy)
        assert _best_chord_probe(hull, points, r) == \
            _reference_chord_probe(hull, points, r)
        blocks = _candidate_blocks(hull, r)
        assert max(blocks) == 1
        candidates = list(zip(_reference_chord_scores(hull, points, r),
                              blocks))
        block_best = [max(s for (_, s), b in candidates if b == block)
                      for block in (0, 1)]
        lead = -math.inf
        later_skips = floor_skips = 0
        for (center, score), block in candidates:
            if center not in scored:
                floor = block_best[0] if block == 1 else -math.inf
                assert score < block_best[block] or score <= floor, center
                if score > lead:
                    later_skips += 1  # only a later candidate beats it
                if score >= block_best[block]:
                    floor_skips += 1  # only an earlier block's best does
            lead = max(lead, score)
        assert later_skips > 0 and floor_skips > 0

    def test_exact_tie_across_tiles_keeps_first_candidate(self):
        # half the dozen candidates around one point hold it; the first
        # of them and later ones in other tiles hold exactly as many.  A
        # point far off, in no candidate disk, raises the bound of a later
        # candidate's tile, which is then scored first: as a witness from
        # later in scan order it would let the first candidate's tile be
        # skipped
        r = 0.12
        hull = _square(0.0, 0.0, 1e-3)
        points = np.array([[0.0, 0.0], [-0.205, 0.103]])

        def tile(center):
            return tuple(math.floor(v / (0.5 * r)) for v in center)

        (first, score), *later = _reference_chord_scores(hull, points, r)
        assert score == 1 and all(s <= 1 for _, s in later)
        assert any(s == score and tile(c) != tile(first) for c, s in later)
        assert _reference_chord_probe(hull, points, r) == first
        assert _best_chord_probe(hull, points, r) == first

    def test_point_order_does_not_matter(self):
        # each fill step of ALG7 scores its points in the row-major order
        # _face_targets gives; shuffled, they pick the same probe
        probes = list(alg7_layer().probes)
        rng = np.random.default_rng(0)
        for m in range(4, len(probes)):
            r = ALG7_RHO1 ** (m + 1)
            face = uncovered_faces(probes[:m])[2][0]
            hull, points = _face_targets(face, probes[:m], r)
            shuffled = points[rng.permutation(len(points))]
            center = (probes[m].center.x, probes[m].center.y)
            assert _best_chord_probe(hull, points, r) == center
            assert _best_chord_probe(hull, shuffled, r) == center

    def test_no_candidate(self):
        # candidates along the hull of one large square never reach its
        # center, so every count is zero and no center wins
        hull, points = _square(0.0, 0.0, 0.5), np.zeros((1, 2))
        assert _best_chord_probe(hull, points, 0.1) is None
        assert _reference_chord_probe(hull, points, 0.1) is None


def _reference_face_targets(face, probes, r):
    """The chord hull and scoring points of ``_face_targets``, from the
    whole grid filtered one circle at a time, with the grid's axes and
    spacing."""
    xs, ys = [], []
    for circle, a, b in face.arcs:
        if circle < 0:
            x0, y0, radius = 0.0, 0.0, 1.0
        else:
            p = probes[circle]
            x0, y0, radius = p.center.x, p.center.y, p.rho + _TOL
        t = np.linspace(a, b, int(math.ceil((b - a) * radius * 4.0 / r)) + 1)
        xs.append(x0 + radius * np.cos(t))
        ys.append(y0 + radius * np.sin(t))
    hull = _convex_hull(np.concatenate(xs), np.concatenate(ys))
    x_lo, y_lo = np.maximum(hull.min(axis=0) - 2.0 * r, -1.0)
    x_hi, y_hi = np.minimum(hull.max(axis=0) + 2.0 * r, 1.0)
    h = max(math.sqrt(face.area / _FACE_POINTS),
            math.sqrt((x_hi - x_lo) * (y_hi - y_lo) / _BOX_POINTS))
    axis_x = np.arange(x_lo + 0.5 * h, x_hi, h)
    axis_y = np.arange(y_lo + 0.5 * h, y_hi, h)
    gx, gy = np.meshgrid(axis_x, axis_y)
    gx, gy = gx.ravel(), gy.ravel()
    inside = gx * gx + gy * gy <= 1.0
    gx, gy = gx[inside], gy[inside]
    for p in probes:
        reach = p.rho + _TOL
        if (p.center.x + reach < x_lo or p.center.x - reach > x_hi
                or p.center.y + reach < y_lo or p.center.y - reach > y_hi):
            continue
        dx = gx - p.center.x
        dy = gy - p.center.y
        free = dx * dx + dy * dy > reach * reach
        gx, gy = gx[free], gy[free]
    return hull, np.column_stack([gx, gy]), axis_x, axis_y, h


def _assert_same_targets(face, probes, r):
    hull, points = _face_targets(face, probes, r)
    ref_hull, ref_points, *_ = _reference_face_targets(face, probes, r)
    assert np.array_equal(hull, ref_hull)
    assert points.shape == ref_points.shape
    assert np.array_equal(points, ref_points)
    return points


# a face along the unit circle: its box, widened by 2r, is clipped at x = 1
_ARC_FACE = Face(0.01, [(-1, 0.2, 0.5)])


class TestFaceTargets:
    def test_every_visited_face(self, monkeypatch):
        visited = []

        def spy(face, probes, r):
            visited.append((face, list(probes), r))
            return _face_targets(face, probes, r)

        monkeypatch.setattr(optimizer, "_face_targets", spy)
        _cpus(monkeypatch, 1)  # the spy records calls in this process only
        alg7_layer()
        evolve_initial(OptimizerConfig(generations=0))
        assert len(visited) > 20
        for face, probes, r in visited:
            _assert_same_targets(face, probes, r)

    def test_probes_crossing_the_box(self):
        # runs that start left of the grid (the unit disk's and the large
        # probe's), runs inside it, and a probe that misses the box
        probes = [Probe(Point2(0.3, 0.3), 0.5),
                  Probe(Point2(0.8, 0.3), 0.15),
                  Probe(Point2(0.9, 0.45), 0.08),
                  Probe(Point2(-0.5, -0.5), 0.1)]
        points = _assert_same_targets(_ARC_FACE, probes, 0.1)
        assert 0 < len(points)
        for p in probes:
            _assert_same_targets(_ARC_FACE, [p], 0.1)

    def test_probe_centered_on_a_grid_point(self):
        *_, xs, ys, _ = _reference_face_targets(_ARC_FACE, [], 0.1)
        j = len(ys) // 2
        k = int(np.argmin(np.abs(xs - 0.7)))
        center = (float(xs[k]), float(ys[j]))
        points = _assert_same_targets(
            _ARC_FACE, [Probe(Point2(*center), 0.05)], 0.1)
        assert not (points == center).all(axis=1).any()

    def test_row_tangent_to_a_probe(self):
        # a row with dy*dy == reach*reach, and a column with dx == 0: the
        # run on that row is one point, which the exact test removes
        *_, xs, ys, _ = _reference_face_targets(_ARC_FACE, [], 0.1)
        k = int(np.argmin(np.abs(xs - 0.7)))
        found = None
        for rho in (0.03, 0.031, 0.0325, 0.04, 0.05, 0.0625):
            reach = rho + _TOL
            for j in range(len(ys) // 4, len(ys)):
                cy = float(ys[j]) + reach
                dy = float(ys[j]) - cy
                if dy * dy == reach * reach:
                    found = rho, j, cy
                    break
            if found:
                break
        assert found is not None
        rho, j, cy = found
        point = (float(xs[k]), float(ys[j]))
        assert point[0] ** 2 + point[1] ** 2 < 1.0
        points = _assert_same_targets(
            _ARC_FACE, [Probe(Point2(point[0], cy), rho)], 0.1)
        assert not (points == point).all(axis=1).any()

    def test_tiny_face(self):
        # the finest spacing the schedule floor allows: h near 1e-7, with
        # the unit circle and a probe boundary through the box
        a = 0.5
        face = Face(4e-11, [(-1, a, a + 1e-5)])
        r = 6.4e-6
        *_, h = _reference_face_targets(face, [], r)
        assert 5e-8 < h < 2e-7
        mid = a + 5e-6
        probe = Probe(Point2(0.8 * math.cos(mid), 0.8 * math.sin(mid)),
                      0.2 - 2e-6)
        points = _assert_same_targets(face, [probe], r)
        assert 0 < len(points)

    def test_empty_grid(self):
        # a spacing wider than the box leaves no grid point
        face = Face(40000.0, _ARC_FACE.arcs)
        *_, xs, _, _ = _reference_face_targets(face, [], 0.1)
        assert xs.size == 0
        points = _assert_same_targets(face, [], 0.1)
        assert points.shape == (0, 2)


def _scan_ends(xs, cx, dy2, r2):
    """First and last column of one grid row whose point passes the exact
    test, by a scan of the whole row; nx and -1 when none does."""
    dx = xs - cx
    cols = np.flatnonzero(dx * dx + dy2 <= r2)
    return (int(cols[0]), int(cols[-1])) if cols.size else (xs.size, -1)


def _tangent_circle(xs, ys, radius):
    """A circle of the given radius, centered on the middle grid column,
    whose lowest point lies on a grid row: dy*dy == R*R exactly there, so
    that row's run is one column.  Returns (cx, cy, R) and the row.  A
    power-of-two radius makes cy - y exact on most rows."""
    cx = float(xs[xs.size // 2])
    for j in range(ys.size // 2):
        cy = float(ys[j]) + radius
        dy = float(ys[j]) - cy
        if dy * dy == radius * radius:
            return (cx, cy, radius), j
    raise AssertionError("no tangent row")


class TestRunEnd:
    """``_run_end`` finds the exact end of a run from any estimate within
    one column of it, and the half-width estimate of ``_face_targets``
    is within one column of every end the grid does not clip."""

    def _check(self, xs, ys, h, circles, tangent_radius):
        """Every run of ``circles`` and of a circle with a tangent row,
        from the exact end and estimates one column off; returns how many
        runs start left of the grid, end right of it, or are empty, and
        how many ends lie inside it."""
        nx = xs.size
        (cx, cy, radius), j = _tangent_circle(xs, ys, tangent_radius)
        dy = float(ys[j]) - cy
        assert _scan_ends(xs, cx, dy * dy, radius * radius) == \
            (nx // 2, nx // 2)
        circles = circles + [(cx, cy, radius)]
        rows = {True: ([], []), False: ([], [])}
        seen = {"left": 0, "right": 0, "empty": 0, "interior": 0}
        for cx, cy, radius in circles:
            r2 = radius * radius
            for y in ys.tolist():
                dy = y - cy
                dy2 = dy * dy
                if dy2 > r2:
                    continue
                first, last = _scan_ends(xs, cx, dy2, r2)
                half = math.sqrt(r2 - dy2)
                estimate = {True: math.ceil((cx - half - xs[0]) / h),
                            False: math.floor((cx + half - xs[0]) / h)}
                if first > last:
                    seen["empty"] += 1
                seen["left"] += first == 0 and estimate[True] < 0
                seen["right"] += last == nx - 1 and estimate[False] >= nx
                for low, end in ((True, first), (False, last)):
                    # the estimate exactly and one column off either way;
                    # an empty run has no end, and any estimate finds none
                    near = end if first <= last else estimate[low]
                    if 0 < end < nx - 1:
                        seen["interior"] += 1
                        assert abs(estimate[low] - end) <= 1
                    args, want = rows[low]
                    for guess in (near - 1, near, near + 1):
                        args.append((cx, dy2, r2, guess))
                        want.append(end)
        for low, (args, want) in rows.items():
            cx, dy2, r2, guess = np.array(args).T
            got = _run_end(xs, cx, dy2, r2, guess, low)
            assert np.array_equal(got, want)
        return seen

    def test_coarse_grid(self):
        # runs that start left of the grid or end right of it, runs
        # inside it, small circles between columns and a tangent row
        h = 0.01
        xs = np.arange(-0.7 + 0.5 * h, 0.7, h)
        ys = np.arange(-0.6 + 0.5 * h, 0.6, h)
        circles = [(0.0, 0.0, 1.0), (-0.65, 0.1, 0.3), (0.6, -0.2, 0.4),
                   (0.1, 0.2, 0.25), (0.3, 0.305, 0.004),
                   (-0.2, -0.305, 0.0045)]
        seen = self._check(xs, ys, h, circles, 2.0 ** -4)
        assert all(count > 0 for count in seen.values()), seen

    def test_finest_spacing(self):
        # h = 1e-7, as in the tiniest face the schedule floor allows: the
        # unit circle and a probe boundary through the box, a tangent row
        # and circles narrower than a column
        h = 1e-7
        a = 0.5
        x0, y0 = math.cos(a) - 200 * h, math.sin(a) - 200 * h
        xs = np.arange(x0 + 0.5 * h, x0 + 400 * h, h)
        ys = np.arange(y0 + 0.5 * h, y0 + 400 * h, h)
        probe = (0.8 * math.cos(a), 0.8 * math.sin(a), 0.2 - 2e-6 + _TOL)
        small = [(float(xs[k]) + 0.5 * h, float(ys[60]), 0.45 * h)
                 for k in (50, 150)]
        seen = self._check(xs, ys, h, [(0.0, 0.0, 1.0), probe] + small,
                           2.0 ** -18)
        assert seen["left"] > 0 and seen["empty"] > 0
        assert seen["interior"] > 0

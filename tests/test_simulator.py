"""Search execution: single-POI descent, hexagonal family, find-all, the
reference tour, and the vectorized batch engine."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from marcopolo.geometry import Point2
from marcopolo.placements import (
    execution_layer,
    hexfam_layer,
    hexfam_layers,
    load_placement,
)
from marcopolo import simulator
from marcopolo.simulator import (
    _BATCH_CHUNK,
    _EPS,
    _GRID,
    _MARGIN,
    SearchState,
    World,
    _cells,
    _frame,
    _hit_table,
    find_all,
    probe,
    run_batch,
    run_single,
    tsp_reference,
)
from marcopolo.verifier import (
    distance_bound,
    probe_coefficient,
    response_bound,
)


class TestWorld:
    def test_defaults_all_active(self):
        world = World(4.0, [Point2(1.0, 0.0), Point2(-2.0, 0.0)])
        assert world.active == [True, True]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            World(4.0, [Point2(1.0, 0.0)], [False])
        with pytest.raises(ValueError):
            World(4.0, [Point2(9.0, 0.0)])

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.0 ** 53])
    def test_rejects_unresolvable_radius(self, n):
        # above 2**52 float64 cannot resolve unit distances
        with pytest.raises(ValueError, match="not finite or exceeds 2"):
            World(n, [Point2(1.0, 0.0)])

    def test_accepts_largest_resolvable_radius(self):
        assert World(2.0 ** 52, [Point2(1.0, 0.0)]).n == 2.0 ** 52

    def test_probe_semantics(self):
        world = World(8.0, [Point2(3.0, 0.0)])
        assert probe(world, Point2(0.0, 0.0), 3.0)  # boundary counts
        assert not probe(world, Point2(0.0, 0.0), 2.5)
        assert probe(world, Point2(3.0, 4.0), 4.0)
        with pytest.raises(ValueError):
            probe(world, Point2(0.0, 0.0), 0.0)


JUNCTION_DEFECT = pytest.mark.xfail(
    strict=True, raises=RuntimeError,
    reason="ROADMAP item 3: the absolute tolerance loses junction POIs")


class TestRunSingle:
    def test_trivial_world(self, layers):
        world = World(1.0, [Point2(0.4, 0.3)])
        trace = run_single(execution_layer(layers["ALG1"]), world)
        assert trace.success
        assert trace.probes == 0
        assert trace.distance == 0.0

    def test_central_poi_center_first_tour(self, layers):
        # POI at the origin, n = 2: the center probe responds immediately,
        # one probe and zero travel resolve the single layer
        world = World(2.0, [Point2(0.0, 0.0)])
        trace = run_single(execution_layer(layers["ALG1"]), world)
        assert trace.success
        assert trace.probes == 1
        assert trace.responses == 1
        assert trace.distance == pytest.approx(0.0, abs=1e-9)

    def test_bounds_respected(self, layers):
        n = 2.0 ** 10
        rng = np.random.default_rng(5)
        for aid in ("ALG1", "ALG3", "ALG5", "ALG6"):
            placement = execution_layer(layers[aid])
            c = max(probe_coefficient(layers[aid]),
                    probe_coefficient(placement))
            l_max = max(-math.log2(p.rho) for p in placement.probes)
            b = distance_bound(placement)
            c_r = response_bound(placement)
            logn = math.ceil(math.log2(n))
            for _ in range(25):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                dist = rng.uniform(0.0, n)
                world = World(n, [Point2(dist * math.cos(angle),
                                         dist * math.sin(angle))])
                trace = run_single(placement, world)
                assert trace.success
                assert trace.probes <= c * (logn + l_max) + 1e-9
                assert trace.distance <= b * n + 1e-9
                assert trace.responses <= c_r * logn + 1e-9

    def test_adversarial_worst_case(self, layers):
        # the deterministic worst case pays m - 1 probes per layer and
        # walks the full tour
        placement = execution_layer(layers["ALG3"])
        world = World(2.0 ** 6, [Point2(1.0, 0.0)])
        trace = run_single(placement, world, adversarial=True)
        assert trace.probes % (placement.m - 1) == 0
        assert trace.probes >= placement.m - 1
        assert trace.responses == trace.probes // (placement.m - 1)

    def test_deterministic(self, layers):
        n = 2.0 ** 8
        world = World(n, [Point2(37.5, -101.25)])
        placement = execution_layer(layers["ALG5"])
        t1 = run_single(placement, world)
        t2 = run_single(placement, world)
        assert (t1.probes, t1.distance, t1.responses) == \
            (t2.probes, t2.distance, t2.responses)
        assert t1.end == t2.end
        # the searcher ends at the last level's area center
        want = _absolute_run_batch(placement, n, np.array([[37.5, -101.25]]))
        assert t1.probes == want["P"][0]
        assert t1.end.x == pytest.approx(want["center"][0].real, abs=1e-9 * n)
        assert t1.end.y == pytest.approx(want["center"][0].imag, abs=1e-9 * n)

    @pytest.mark.parametrize("log2_n", [
        20,
        pytest.param(30, marks=JUNCTION_DEFECT),
        pytest.param(40, marks=JUNCTION_DEFECT),
    ])
    def test_junction_poi(self, placements_dir, log2_n):
        # (n/2, 0) lies where ALG2's probes touch.  The absolute tolerance
        # _EPS is _EPS / s in an area of radius s, below float64 resolution
        # once s passes about 1e7, so from n = 2^30 the POI falls outside
        # both touching probes and the search raises "POI escaped the
        # search area"
        placement = execution_layer(load_placement(placements_dir
                                                   / "alg2.json"))
        n = 2.0 ** log2_n
        trace = run_single(placement, World(n, [Point2(n / 2.0, 0.0)]))
        assert trace.success


class TestHexfamSearch:
    def test_response_budget(self):
        for r_max, n in ((1, 4.0), (2, 16.0), (3, 64.0)):
            rng = np.random.default_rng(r_max)
            for _ in range(10):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                dist = rng.uniform(0.0, n)
                world = World(n, [Point2(dist * math.cos(angle),
                                         dist * math.sin(angle))])
                trace = run_single(hexfam_layer(r_max, n), world)
                assert trace.success
                assert trace.responses <= r_max
                big_l = hexfam_layers(r_max, n)
                assert trace.probes <= 6 * r_max * math.comb(big_l, 2)


class TestFindAll:
    def test_single_poi(self, layers):
        world = World(2.0 ** 6, [Point2(20.0, 11.0)])
        result = find_all(execution_layer(layers["ALG3"]), world)
        assert result.all_found
        assert result.found == [0]
        assert result.gaps == []
        # termination: doubling ladder 2,4,...,128 plus the origin confirm
        assert result.termination_probes == 8

    def test_two_pois_known_gap(self, layers):
        # second POI at distance 5 from the first: doubling probes at
        # radius 2 and 4 miss, 8 responds
        world = World(2.0 ** 6, [Point2(10.0, 0.0), Point2(15.0, 0.0)])
        result = find_all(execution_layer(layers["ALG3"]), world)
        assert result.all_found
        assert sorted(result.found) == [0, 1]
        assert result.gaps == [8.0]
        assert result.termination_probes == 8

    def test_probe_accounting(self, layers):
        world = World(2.0 ** 6, [Point2(10.0, 0.0), Point2(15.0, 0.0)])
        result = find_all(execution_layer(layers["ALG3"]), world)
        per_search = sum(t.probes for t in result.traces)
        doubling = sum(int(math.log2(g)) for g in result.gaps)
        assert result.p_tot == per_search + doubling

    @pytest.mark.parametrize("log2_n", [50, 52])
    def test_large_n_finds_every_poi(self, placements_dir, log2_n):
        # in absolute coordinates the search lost random POIs here
        n = 2.0 ** log2_n
        rng = np.random.default_rng(log2_n)
        for aid in GOLDEN_DISK:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            for _ in range(40):
                k = int(rng.integers(1, 9))
                angle = rng.uniform(0.0, 2.0 * math.pi, k)
                dist = rng.uniform(1.0, n, k)
                world = World(n, [Point2(r * math.cos(a), r * math.sin(a))
                                  for a, r in zip(angle, dist)])
                result = find_all(placement, world)
                assert result.all_found, aid
                assert sorted(result.found) == list(range(k)), aid

    def test_distance_is_sum_of_traces(self, layers):
        world = World(2.0 ** 5, [Point2(4.0, 3.0), Point2(-7.0, 1.0),
                                 Point2(0.0, -9.0)])
        result = find_all(execution_layer(layers["ALG5"]), world)
        assert result.all_found
        assert result.d_tot == pytest.approx(
            sum(t.distance for t in result.traces), abs=1e-9)

    def test_ladder_matches_probing_every_rung(self, layers):
        placement = execution_layer(layers["ALG3"])
        rng = np.random.default_rng(7)
        worlds = []
        for _ in range(40):
            n = 2.0 ** int(rng.integers(4, 31))
            k = int(rng.integers(1, 9))
            angle = rng.uniform(0.0, 2.0 * math.pi, k)
            dist = rng.uniform(1.0, n, k)
            worlds.append(World(n, [Point2(r * math.cos(a), r * math.sin(a))
                                    for a, r in zip(angle, dist)]))
        # a second POI at 2**k and at 2**k + _EPS from where the search
        # for the first one ends, each up to an ulp either way: the rungs
        # 2**k and 2**(k+1) must both answer first
        n = 2.0 ** 12
        first = Point2(100.0, 37.0)
        end = run_single(placement, World(n, [first])).end
        gaps = set()
        for k in range(1, 11):
            for target in (2.0 ** k, 2.0 ** k + _EPS):
                x0 = end.x + target
                for x in (np.nextafter(x0, -math.inf), x0,
                          np.nextafter(x0, math.inf)):
                    world = World(n, [first, Point2(float(x), end.y)])
                    worlds.append(world)
                    gaps.add((k, find_all(placement, world).gaps[0]))
        assert gaps == {(k, 2.0 ** j) for k in range(1, 11)
                        for j in (k, k + 1)}
        for world in worlds:
            result = find_all(placement, world)
            assert (result.p_tot, result.gaps, result.termination_probes,
                    result.found) == _reference_find_all(placement, world)


def _reference_find_all(placement, world):
    """``find_all`` with a doubling ladder that probes every rung:
    ``(p_tot, gaps, termination_probes, found)``."""
    work = World(world.n, list(world.pois), list(world.active))
    trace = run_single(placement, work)
    p_tot, gaps, found = trace.probes, [], [trace.found_poi]
    while True:
        work.active[found[-1]] = False
        rungs, radius = 1, 2.0
        while not probe(work, trace.end, radius):
            if radius >= 2.0 * world.n:
                assert not probe(work, Point2(0.0, 0.0), 2.0 * world.n)
                return p_tot, gaps, rungs + 1, found
            rungs += 1
            radius *= 2.0
        p_tot += rungs
        gaps.append(radius)
        trace = run_single(placement, work,
                           SearchState(trace.end, radius, trace.end))
        p_tot += trace.probes
        found.append(trace.found_poi)


class TestTspReference:
    def test_collinear(self):
        length = tsp_reference([Point2(0.0, 0.0), Point2(2.0, 0.0)])
        assert length == pytest.approx(4.0, abs=1e-12)

    def test_unit_square(self):
        pts = [Point2(0.0, 0.0), Point2(1.0, 0.0),
               Point2(1.0, 1.0), Point2(0.0, 1.0)]
        assert tsp_reference(pts) == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pts = [Point2(x, y) for x, y in rng.uniform(-5.0, 5.0, (8, 2))]
        tour = tsp_reference(pts)
        best = math.inf
        for perm in itertools.permutations(range(1, 8)):
            order = (0,) + perm
            length = sum(pts[order[i]].dist(pts[order[(i + 1) % 8]])
                         for i in range(8))
            best = min(best, length)
        assert tour == pytest.approx(best, abs=1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            tsp_reference([Point2(0.0, 0.0)])

    def test_rejects_more_than_twelve_points(self):
        pts = [Point2(float(i), 0.0) for i in range(13)]
        assert tsp_reference(pts[:12]) == pytest.approx(22.0, abs=1e-12)
        with pytest.raises(ValueError):
            tsp_reference(pts)


class TestRunBatch:
    def test_matches_run_single(self, layers):
        n = 2.0 ** 12
        rng = np.random.default_rng(9)
        angle = rng.uniform(0.0, 2.0 * math.pi, 40)
        dist = rng.uniform(0.0, n, 40)
        poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)], axis=1)
        for aid in ("ALG1", "ALG3", "ALG5"):
            placement = execution_layer(layers[aid])
            out = run_batch(placement, n, poi)
            assert out["success"].all()
            assert not out["lost"].any()
            for i in range(poi.shape[0]):
                world = World(n, [Point2(poi[i, 0], poi[i, 1])])
                trace = run_single(placement, world)
                assert out["P"][i] == trace.probes
                assert out["R"][i] == trace.responses
                assert out["D"][i] == pytest.approx(trace.distance, abs=1e-6)

    @pytest.mark.parametrize("log2_n", [10, 12, 20, 30, 40, 48, 52])
    def test_agrees_with_run_single(self, placements_dir, log2_n):
        # both kernels round alike, so they agree trial for trial up to
        # 2^52; at 2^12 and 2^20 the origin and points on probe circles,
        # where the searcher restarts from an area's center, are included
        n = 2.0 ** log2_n
        rng = np.random.default_rng(log2_n)
        angle = rng.uniform(0.0, 2.0 * math.pi, 150)
        dist = rng.uniform(0.0, n, 150)
        random_poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)],
                              axis=1)
        for aid in GOLDEN:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            poi = random_poi
            if log2_n in (12, 20):
                poi = np.concatenate([poi, _circle_points(placement, n)])
            out = run_batch(placement, n, poi)
            for i in range(poi.shape[0]):
                trace = run_single(placement,
                                   World(n, [Point2(poi[i, 0], poi[i, 1])]))
                where = (aid, i)
                assert out["P"][i] == trace.probes, where
                assert out["R"][i] == trace.responses, where
                assert out["success"][i] == trace.success, where
                assert out["lost"][i] == trace.containment_lost, where
                assert out["D"][i] == pytest.approx(trace.distance,
                                                    rel=1e-12), where

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.0 ** 60, 0.5])
    def test_rejects_radius_world_rejects(self, layers, monkeypatch, n):
        # nan and inf never finished the descent; 2^60 answered beyond
        # float64 resolution
        def descend(*args):
            raise AssertionError("the descent ran")

        monkeypatch.setattr(simulator, "_descend", descend)
        poi = np.array([[0.2, 0.1]])
        with pytest.raises(ValueError, match="search radius"):
            run_batch(execution_layer(layers["ALG1"]), n, poi)
        with pytest.raises(ValueError, match="search radius"):
            World(n, [Point2(0.2, 0.1)])

    def test_trivial_radius(self, layers):
        poi = np.array([[0.2, 0.1]])
        out = run_batch(execution_layer(layers["ALG1"]), 1.0, poi)
        assert out["P"][0] == 0
        assert out["D"][0] == 0.0
        assert out["success"][0]

    def test_matches_absolute_kernel(self, layers):
        # more than two slices of POIs; rows sit on both sides of each
        # slice boundary, and the origin plus points on probe circles
        # (the searcher then restarts from an area's center) are included
        n = 2.0 ** 20
        t = 2 * _BATCH_CHUNK + 1500
        rng = np.random.default_rng(11)
        angle = rng.uniform(0.0, 2.0 * math.pi, t)
        dist = rng.uniform(0.0, n, t)
        poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)], axis=1)
        poi[0] = 0.0
        poi[_BATCH_CHUNK - 1] = (0.5 * n, 0.0)
        poi[_BATCH_CHUNK] = (0.0, -0.25 * n)
        poi[2 * _BATCH_CHUNK] = (-n, 0.0)
        for aid in ("ALG1", "ALG2", "ALG3", "ALG4", "ALG5", "ALG6"):
            placement = execution_layer(layers[aid])
            got = run_batch(placement, n, poi)
            want = _absolute_run_batch(placement, n, poi)
            for key in ("P", "R", "success", "lost"):
                assert np.array_equal(got[key], want[key]), (aid, key)
            assert got["D"] == pytest.approx(want["D"], rel=1e-12)

    @pytest.mark.parametrize("log2_n", [50, 52])
    def test_large_n_keeps_the_poi(self, layers, log2_n):
        # absolute coordinates lost hundreds of these POIs at 2^52
        n = 2.0 ** log2_n
        rng = np.random.default_rng(log2_n)
        angle = rng.uniform(0.0, 2.0 * math.pi, 20_000)
        dist = rng.uniform(0.0, n, 20_000)
        poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)], axis=1)
        for aid in ("ALG1", "ALG2", "ALG3", "ALG5", "ALG6"):
            out = run_batch(execution_layer(layers[aid]), n, poi)
            assert not out["lost"].any(), aid
            assert out["success"].all(), aid


class TestFirstHitTable:
    """``_hit_table`` against the exact disk test: every decided cell gets
    the table's first hit at the points of the cell nearest to and farthest
    from each disk the table's answer depends on."""

    @staticmethod
    def _first_hit(pts, z, reach, tol):
        """The exact test of the kernels, at tolerance ``tol``."""
        inside = np.abs(pts[..., None] - z) <= reach + tol
        return inside.argmax(axis=-1)

    def _check(self, placement):
        frame = _frame(placement)
        z, reach = np.array(frame.z), np.array(frame.reach)
        side = _GRID + 2
        table = _hit_table(z, reach).reshape(side, side)
        ring = np.ones((side, side), dtype=bool)
        ring[1:-1, 1:-1] = False
        assert (table[ring] == -1).all()
        i, j = np.nonzero(table >= 0)
        k = table[i, j]
        # the table decides most of the disk, so the checks below bite
        assert k.size > 0.9 * _GRID * _GRID * math.pi / 4
        h = 2.0 / _GRID
        x0, x1 = -1.0 + (i - 1) * h, -1.0 + i * h
        y0, y1 = -1.0 + (j - 1) * h, -1.0 + j * h
        # the cells' corners and centres, then for each disk up to k the
        # cell's points nearest to and farthest from its centre
        pts = [x0 + 1j * y0, x0 + 1j * y1, x1 + 1j * y0, x1 + 1j * y1,
               0.5 * (x0 + x1) + 0.5j * (y0 + y1)]
        for p in range(int(k.max()) + 1):
            zx, zy = z[p].real, z[p].imag
            near = np.clip(zx, x0, x1) + 1j * np.clip(zy, y0, y1)
            far = (np.where(zx - x0 > x1 - zx, x0, x1)
                   + 1j * np.where(zy - y0 > y1 - zy, y0, y1))
            sel = k < p  # disks past the table's answer are never tested
            pts += [np.where(sel, pts[4], near), np.where(sel, pts[4], far)]
        for tol in (0.0, _EPS):
            for col in pts:
                assert np.array_equal(self._first_hit(col, z, reach, tol), k)
        # each cell's centre maps to that cell
        assert np.array_equal(_cells(pts[4]), i * side + j)

    def test_generated_layers(self, layers):
        for aid in sorted(layers):
            self._check(execution_layer(layers[aid]))

    def test_golden_layers(self, placements_dir):
        for aid in GOLDEN:
            self._check(execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json")))

    def test_margin_above_every_tolerance(self):
        assert _MARGIN > _EPS

    def test_outside_points_land_in_the_border(self):
        side = _GRID + 2
        q = np.array([1.0 + 0j, complex(-1.0 - 1e-12, 0.3), 1.5 + 0.2j,
                      -0.3 - 7.0j, 2.0 ** 60 + 0j])
        i, j = np.divmod(_cells(q), side)
        assert ((i == 0) | (i == side - 1) | (j == 0) | (j == side - 1)).all()

    def test_corner_within_tolerance_stays_undecided(self):
        # disk 0 misses the cell's corner nearest to it by _EPS / 2: the
        # exact test answers 0 at tolerance _EPS and 1 at tolerance 0
        h = 2.0 / _GRID
        i, j = 70, 40
        corner = complex(-1.0 + (i - 1) * h, -1.0 + (j - 1) * h)
        r = 0.3
        z = np.array([corner - (r + _EPS / 2) * (1 + 1j) * math.sqrt(0.5),
                      0j])
        reach = np.array([r, math.inf])
        assert r < abs(corner - z[0]) < r + _EPS
        corner_pt = np.array([corner])
        assert self._first_hit(corner_pt, z, reach, _EPS)[0] == 0
        assert self._first_hit(corner_pt, z, reach, 0.0)[0] == 1
        table = _hit_table(z, reach)
        assert table[i * (_GRID + 2) + j] == -1


GOLDEN = ("alg1", "alg2", "alg3", "alg4", "alg5", "alg6", "alg7", "alg8")
GOLDEN_DISK = ("alg1", "alg2", "alg3", "alg5", "alg6", "alg7", "alg8")


def _circle_points(placement, n):
    """The origin, and points of each probe circle scaled to radius n that
    lie in the search region."""
    pts = [(0.0, 0.0), (0.5 * n, 0.0), (0.0, -0.25 * n), (-n, 0.0)]
    for p in placement.probes:
        for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            x = n * (p.center.x + p.rho * math.cos(a))
            y = n * (p.center.y + p.rho * math.sin(a))
            if math.hypot(x, y) <= n:
                pts.append((x, y))
    return np.array(pts)


def _absolute_run_batch(placement, n, poi_xy):
    """The batch kernel as it was in absolute coordinates, kept as the
    reference for ``run_batch``."""
    pz = np.array([complex(p.center.x, p.center.y) for p in placement.probes])
    pr = np.array([p.rho for p in placement.probes])
    m = placement.m
    d1 = abs(pz[0])
    poi = poi_xy[:, 0] + 1j * poi_xy[:, 1]
    t = poi.shape[0]

    center = np.zeros(t, dtype=complex)
    radius = np.full(t, float(n))
    delta = np.zeros(t, dtype=complex)
    P = np.zeros(t, dtype=np.int64)
    D = np.zeros(t)
    R = np.zeros(t, dtype=np.int64)
    lost = np.zeros(t, dtype=bool)

    active = radius > 1.0
    while active.any():
        idx = np.flatnonzero(active)
        c0, r0, dl = center[idx], radius[idx], delta[idx]
        off = dl - c0
        if d1 < _EPS:
            rot = np.ones(idx.size, dtype=complex)
        else:
            mag = np.abs(off)
            safe = np.where(mag < _EPS, 1.0, mag)
            rot = np.where(mag < _EPS, 1.0 + 0j,
                           off / safe / (pz[0] / d1))
        # first-hit index per trial (m-1 executed probes, else omitted)
        hit = np.full(idx.size, m - 1, dtype=np.int64)
        for k in range(m - 2, -1, -1):
            centers_k = c0 + r0 * pz[k] * rot
            inside = np.abs(poi[idx] - centers_k) <= r0 * pr[k] + _EPS
            hit = np.where(inside, k, hit)
        # travel legs: delta -> probe1 -> ... -> probe_{min(hit+1, m-1)}
        pos = dl
        legs = np.zeros(idx.size)
        stop = np.minimum(hit, m - 2)
        for k in range(m - 1):
            centers_k = c0 + r0 * pz[k] * rot
            step = np.abs(centers_k - pos)
            walk = stop >= k
            legs += np.where(walk, step, 0.0)
            pos = np.where(walk, centers_k, pos)
        D[idx] += legs
        delta[idx] = pos
        P[idx] += stop + 1
        R[idx] += (hit < m - 1).astype(np.int64)
        new_center = c0 + r0 * pz[hit] * rot
        new_radius = r0 * pr[hit]
        lost[idx] |= np.abs(poi[idx] - new_center) > new_radius + _EPS
        center[idx] = new_center
        radius[idx] = new_radius
        active = radius > 1.0

    D += np.abs(center - delta)
    success = np.abs(poi - center) <= 1.0 + _EPS
    return {"P": P, "D": D, "R": R, "success": success, "lost": lost,
            "center": center}

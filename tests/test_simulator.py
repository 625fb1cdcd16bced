"""Search execution: single-POI descent, hexagonal family, find-all, the
reference tour, and the vectorized batch engine."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from marcopolo.geometry import Point2
from marcopolo.placements import execution_layer, hexfam_layer, hexfam_layers
from marcopolo.simulator import (
    _BATCH_CHUNK,
    _EPS,
    SearchState,
    World,
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
        world = World(2.0 ** 8, [Point2(37.5, -101.25)])
        placement = execution_layer(layers["ALG5"])
        t1 = run_single(placement, world)
        t2 = run_single(placement, world)
        assert (t1.probes, t1.distance, t1.responses) == \
            (t2.probes, t2.distance, t2.responses)
        assert t1.path == t2.path


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

    def test_distance_is_sum_of_traces(self, layers):
        world = World(2.0 ** 5, [Point2(4.0, 3.0), Point2(-7.0, 1.0),
                                 Point2(0.0, -9.0)])
        result = find_all(execution_layer(layers["ALG5"]), world)
        assert result.all_found
        assert result.d_tot == pytest.approx(
            sum(t.distance for t in result.traces), abs=1e-9)


class TestTspReference:
    def test_collinear(self):
        tour = tsp_reference([Point2(0.0, 0.0), Point2(2.0, 0.0)])
        assert tour.exact
        assert tour.length == pytest.approx(4.0, abs=1e-12)

    def test_unit_square(self):
        pts = [Point2(0.0, 0.0), Point2(1.0, 0.0),
               Point2(1.0, 1.0), Point2(0.0, 1.0)]
        tour = tsp_reference(pts)
        assert tour.exact
        assert tour.length == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pts = [Point2(x, y) for x, y in rng.uniform(-5.0, 5.0, (8, 2))]
        tour = tsp_reference(pts)
        assert tour.exact
        best = math.inf
        for perm in itertools.permutations(range(1, 8)):
            order = (0,) + perm
            length = sum(pts[order[i]].dist(pts[order[(i + 1) % 8]])
                         for i in range(8))
            best = min(best, length)
        assert tour.length == pytest.approx(best, abs=1e-9)

    def test_heuristic_beyond_held_karp(self):
        rng = np.random.default_rng(4)
        pts = [Point2(x, y) for x, y in rng.uniform(-5.0, 5.0, (15, 2))]
        tour = tsp_reference(pts)
        assert not tour.exact
        assert tour.length > 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            tsp_reference([Point2(0.0, 0.0)])


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
    return {"P": P, "D": D, "R": R, "success": success, "lost": lost}

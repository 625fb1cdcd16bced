"""Search execution: single-POI descent, hexagonal family, find-all, the
reference tour, and the vectorized batch engine."""
from __future__ import annotations

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from marcopolo import geometry, optimizer
from marcopolo.geometry import (
    _TOL,
    Point2,
    Probe,
    certify_coverage,
    uncovered_faces,
)
from marcopolo.optimizer import OptimizerConfig, alg7_layer, evolve_initial
from marcopolo.placements import (
    LayerPlacement,
    construct_layer,
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
    _ROW,
    FindAllResult,
    SearchTrace,
    World,
    _cells,
    _frame,
    _hit_table,
    _rescue,
    find_all,
    run_batch,
    run_single,
)
from marcopolo.verifier import (
    distance_bound,
    probe_coefficient,
    response_bound,
)

GOLDEN = ("alg1", "alg2", "alg3", "alg4", "alg5", "alg6", "alg7", "alg8")
GOLDEN_DISK = ("alg1", "alg2", "alg3", "alg5", "alg6", "alg7", "alg8")


def probe(world, center, d):
    """True iff a POI lies within closed distance d of center: the
    reference find-all's oracle for a doubling rung."""
    if d <= 0:
        raise ValueError("probe radius must be positive")
    return any(math.hypot(p.x - center.x, p.y - center.y) <= d + _EPS
               for p in world.pois)


class TestWorld:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one POI"):
            World(4.0, [])
        with pytest.raises(ValueError, match="outside the search region"):
            World(4.0, [Point2(9.0, 0.0)])

    def test_poi_on_the_boundary_circle(self):
        assert World(4.0, [Point2(4.0, 0.0)]).pois == [Point2(4.0, 0.0)]
        with pytest.raises(ValueError, match="outside the search region"):
            World(4.0, [Point2(4.0 + 2.0 * _EPS, 0.0)])

    def test_rejects_a_poi_outside_among_pois_inside(self):
        with pytest.raises(ValueError, match="outside the search region"):
            World(4.0, [Point2(1.0, 0.0), Point2(0.0, -9.0)])

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

    @pytest.mark.parametrize("log2_n", [20, 30, 40, 48, 52])
    def test_junction_poi(self, placements_dir, log2_n):
        # (n/2, 0) lies where ALG2's probes touch.  The absolute tolerance
        # _EPS is _EPS / s in an area of radius s, below float64 resolution
        # once s passes about 1e7; without _rescue, from n = 2^30 the POI
        # fell outside both touching probes and the search raised "POI
        # escaped the search area"
        placement = execution_layer(load_placement(placements_dir
                                                   / "alg2.json"))
        n = 2.0 ** log2_n
        trace = run_single(placement, World(n, [Point2(n / 2.0, 0.0)]))
        assert trace.success
        assert not trace.containment_lost

    @pytest.mark.parametrize("log2_n", [20, 40])
    def test_poi_just_outside_the_first_probe(self, placements_dir, log2_n):
        # the POI misses ALG1's first probe by 1.5 * 2^-41 of the area, far
        # more than _EPS, and lies in the omitted last probe: both kernels
        # trace it as the level loop without _rescue does
        placement = execution_layer(load_placement(placements_dir
                                                   / "alg1.json"))
        first, omitted = placement.probes[0], placement.probes[-1]
        n = 2.0 ** log2_n
        q = (complex(omitted.center.x, omitted.center.y)
             - complex(first.center.x, first.center.y))
        q = (complex(first.center.x, first.center.y)
             + q / abs(q) * (first.rho + 1.5 * 2.0 ** -41))
        world = World(n, [Point2(n * q.real, n * q.imag)])
        trace = run_single(placement, world)
        assert trace == _reference_run_single(placement, world)
        assert trace.success and not trace.containment_lost
        out = run_batch(placement, n, np.array([[n * q.real, n * q.imag]]))
        assert (out["P"][0], out["R"][0], out["D"][0], out["success"][0],
                out["lost"][0]) == (trace.probes, trace.responses,
                                    trace.distance, True, False)

    @pytest.mark.parametrize("log2_n", [24, 30, 40, 52])
    def test_probe_circle_crossings(self, placements_dir, log2_n):
        # every point where two probe circles of a golden layer cross inside
        # the unit disk, as a POI: each kernel finds it, and their disk
        # tests, which fall within an ulp there, decide alike
        n = 2.0 ** log2_n
        for aid in GOLDEN:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            pts = _crossings(placement)
            assert pts, aid
            poi = np.array([[n * p.real, n * p.imag] for p in pts])
            out = run_batch(placement, n, poi)
            assert out["success"].all() and not out["lost"].any(), aid
            for i, (x, y) in enumerate(poi):
                trace = run_single(placement, World(n, [Point2(x, y)]))
                assert trace.success and not trace.containment_lost, aid
                assert (out["P"][i], out["R"][i], out["D"][i]) == (
                    trace.probes, trace.responses, trace.distance), (aid, i)


def _crossings(placement):
    """The points inside the unit disk where two probe circles cross."""
    pts = []
    for a, b in itertools.combinations(placement.probes, 2):
        za = complex(a.center.x, a.center.y)
        zb = complex(b.center.x, b.center.y)
        d = abs(zb - za)
        if not abs(a.rho - b.rho) <= d <= a.rho + b.rho or d == 0.0:
            continue
        x = (d * d + a.rho * a.rho - b.rho * b.rho) / (2.0 * d)
        h = math.sqrt(max(a.rho * a.rho - x * x, 0.0))
        u = (zb - za) / d
        pts += [p for p in (za + u * (x + 1j * h), za + u * (x - 1j * h))
                if abs(p) <= 1.0]
    return pts


class TestRescue:
    def test_slack_is_the_distance_outside_plus_the_floor(self):
        z = [0j, 0.5 + 0j]
        rho = [0.5, 0.5]
        q = np.array([
            1.001 + 0j,  # 1e-3 outside the disk and the second probe
            1.001 + 0.3j,  # 0.045 outside the disk, 0.084 outside the second
            0.25 + 0.1j,  # inside the first
            -0.5 - _TOL / 2,  # in the disk, just outside the first
            -0.5 - 2.0 * _TOL,  # in the disk, beyond the floor
        ])
        assert _rescue(z, rho, q).tolist() == [1, -1, 0, 0, -1]

    def test_escape_check_fires_on_a_junction(self, placements_dir,
                                              monkeypatch):
        # ALG2's junction POI at 2^52 tests outside both touching probes:
        # its level's escape check fires and calls _rescue
        calls = []

        def rescue(*args):
            calls.append(args)
            return _rescue(*args)

        monkeypatch.setattr(simulator, "_rescue", rescue)
        placement = execution_layer(load_placement(placements_dir
                                                   / "alg2.json"))
        n = 2.0 ** 52
        trace = run_single(placement, World(n, [Point2(n / 2.0, 0.0)]))
        assert trace.success and not trace.containment_lost
        assert calls


def _exact_face_points(probes, monkeypatch) -> tuple[np.ndarray, np.ndarray]:
    """One point of each face that the undilated probe disks leave
    uncovered, the mean of the midpoints of the face's arcs, and its
    distance outside the nearest undilated probe disk."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "_TOL", 0.0)
        faces = uncovered_faces(probes)[2]
    z = np.array([complex(p.center.x, p.center.y) for p in probes])
    rho = np.array([p.rho for p in probes])
    # circle -1, the unit circle, is the last entry
    zc, rc = np.append(z, 0j), np.append(rho, 1.0)
    points = np.array([np.mean([zc[c] + rc[c] * np.exp(0.5j * (a + b))
                                for c, a, b in face.arcs])
                       for face in faces], dtype=complex)
    return points, (np.abs(points[:, None] - z) - rho).min(axis=1)


# structured individuals of the optimizer whose greedy fills cover the
# disk with 14, 12, 9 and 17 probes, each other than evolve_initial's
_FILLED = (0, 2, 3, 5)


def _filled_individual(k: int) -> LayerPlacement:
    """The optimizer's greedy fill of its structured individual k."""
    vector = optimizer._structured_individuals()[k]
    fitness, probes = optimizer._fitness(vector)
    return LayerPlacement("ALG8", tuple(probes), float(vector[0]),
                          fitness < optimizer._PENALTY)


class TestCertifiedMeansSearchable:
    """A certified layer covers the disk to within the coverage tolerance,
    which is also the least slack of the search's rescue: a POI in a gap
    that the exact probe disks leave, as the optimizer's chord probes do,
    is found by both kernels at any resolvable n."""

    @staticmethod
    def _search_face_points(layer, points):
        for n in (2.0 ** 20, 2.0 ** 40, 2.0 ** 52):
            poi = np.stack([n * points.real, n * points.imag], axis=1)
            out = run_batch(layer, n, poi)
            assert out["success"].all() and not out["lost"].any(), n
            for x, y in poi:
                trace = run_single(layer, World(n, [Point2(x, y)]))
                assert trace.success and not trace.containment_lost, (n, x, y)

    def _search_fill_gaps(self, layer, monkeypatch):
        assert layer.certified
        points, gap = _exact_face_points(layer.probes, monkeypatch)
        # the fill leaves real gaps: every point lies in the disk and
        # outside every exact probe disk, though within the coverage
        # tolerance of one
        assert points.size and (np.abs(points) <= 1.0).all()
        assert (gap > 0.0).all() and (gap <= _TOL).all()
        self._search_face_points(execution_layer(layer), points)

    @pytest.mark.parametrize("seed", [None, 0])
    def test_optimized_layers(self, seed, monkeypatch):
        # alg7_layer(), or one generation of evolve_initial at seed 0,
        # whose layer the other seeds give too
        layer = alg7_layer() if seed is None else evolve_initial(
            OptimizerConfig(seed=seed, generations=1))
        self._search_fill_gaps(layer, monkeypatch)

    @pytest.mark.parametrize("k", _FILLED)
    def test_filled_individuals(self, k, monkeypatch):
        self._search_fill_gaps(_filled_individual(k), monkeypatch)

    def test_optimized_layers_differ(self):
        layers = [alg7_layer(),
                  evolve_initial(OptimizerConfig(seed=0, generations=1))]
        layers += [_filled_individual(k) for k in _FILLED]
        probes = [layer.probes for layer in layers]
        assert len(set(probes)) == len(probes)

    @pytest.mark.parametrize("aid", GOLDEN_DISK)
    def test_golden_layers(self, placements_dir, aid, monkeypatch):
        # the golden layers' exact disks leave no gap, at most tangencies:
        # faces whose point lies on a probe circle up to rounding
        layer = load_placement(placements_dir / f"{aid}.json")
        points, gap = _exact_face_points(layer.probes, monkeypatch)
        assert (np.abs(gap) <= 1e-15).all()
        self._search_face_points(execution_layer(layer), points)


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
        # termination: the ladder 2, 4, ..., 256, whose last rung is twice
        # the least power of two at least 2n = 128
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
                world = _random_world(rng, n, k)
                result = find_all(placement, world)
                assert result.all_found, aid
                assert sorted(result.found) == list(range(k)), aid

    @pytest.mark.parametrize("n", [2.0 ** 10, 2.0 ** 20, 2.0 ** 52, 1000.0])
    def test_antipodal_pois_on_the_boundary_circle(self, placements_dir, n):
        # the second POI lies up to 2n + 1 from where the first search
        # ends; a ladder ending at 2n missed it at a power-of-two n
        unchecked = 0
        for aid in GOLDEN_DISK:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            for degrees in range(0, 360, 3):
                world = World(n, [_on_circle(n, degrees),
                                  _on_circle(n, degrees + 180)])
                result = find_all(placement, world)
                assert result.all_found, (aid, degrees)
                assert sorted(result.found) == [0, 1], (aid, degrees)
                try:
                    want = _reference_find_all(placement, world)
                except RuntimeError:
                    # the reference has no _rescue: at 2^52 rounding takes
                    # a few boundary POIs outside a level's area
                    unchecked += 1
                    continue
                assert result == want, (aid, degrees)
        assert unchecked <= (5 if n == 2.0 ** 52 else 0)

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
            worlds.append(_random_world(rng, n, int(rng.integers(1, 9))))
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
            assert find_all(placement, world) == _reference_find_all(
                placement, world)


def _on_circle(n, degrees):
    """The point at ``degrees`` on the circle of radius ``n`` about the
    origin, moved toward the origin by ulps until it lies within n."""
    x = n * math.cos(math.radians(degrees))
    y = n * math.sin(math.radians(degrees))
    while math.hypot(x, y) > n:
        x, y = math.nextafter(x, 0.0), math.nextafter(y, 0.0)
    return Point2(x, y)


def _reference_find_all(placement, world):
    """``find_all`` with a doubling ladder that probes every rung up to
    twice the least power of two at least 2n, each rung a ``probe`` of the
    POIs not yet found, on ``_reference_search``."""
    last = 2.0
    while last < 4.0 * world.n:
        last *= 2.0
    left = list(range(len(world.pois)))
    result = FindAllResult(0, 0.0, 0, [], [], [])
    center, radius = Point2(0.0, 0.0), world.n
    while True:
        target = min(left, key=lambda i: (world.pois[i].dist(center), i))
        trace = _reference_search(placement, world.pois[target], center,
                                  radius)
        assert trace.success
        trace.found_poi = target
        result.p_tot += trace.probes
        result.d_tot += trace.distance
        result.traces.append(trace)
        result.found.append(target)
        left.remove(target)
        center, rungs, radius = trace.end, 1, 2.0
        rest = World(world.n, [world.pois[i] for i in left]) if left else None
        while not (rest and probe(rest, center, radius)):
            if radius >= last:
                result.termination_probes = rungs
                return result
            rungs += 1
            radius *= 2.0
        result.p_tot += rungs
        result.gaps.append(radius)


def _reference_run_single(placement, world, adversarial=False):
    """``run_single`` on ``_reference_search``, for the POI nearest the
    origin (the first on ties)."""
    origin = Point2(0.0, 0.0)
    if adversarial:
        return _reference_search(placement, None, origin, world.n)
    target = min(range(len(world.pois)),
                 key=lambda i: (world.pois[i].dist(origin), i))
    trace = _reference_search(placement, world.pois[target], origin, world.n)
    if trace.success:
        trace.found_poi = target
    return trace


def _reference_search(placement, poi, center, s):
    """The descent of ``run_single`` for ``poi`` (None for the adversarial
    worst case) in the area of radius ``s`` about ``center``, the searcher
    at its center, as one level loop that reads each column of the
    ``_levels`` table by index and divides out the tolerance at each use,
    without ``_rescue``: the reference for the kernel's per-probe records
    wherever no level's tests leave the POI outside its area."""
    levels = _frame(placement).levels
    z, rho, reach, face = levels.z, levels.rho, levels.reach, levels.face
    mags, turns, legs = levels.mag, levels.turn, levels.leg
    m = len(z)
    adversarial = poi is None
    c = complex(center.x, center.y)
    q = 0j
    if not adversarial:
        q = (complex(poi.x, poi.y) - c) * (1.0 / s)
    mag, turn, leg = mags[m], turns[m], legs[m]
    o = 1.0 + 0j
    last = m - 2
    probes = responses = 0
    distance = 0.0
    lost = False
    while s > 1.0:
        if face is not None:
            if mag < _EPS / s:
                turn, o = o, 1.0 + 0j
            else:
                o = o * turn.conjugate()
            q = q * turn
        if adversarial:
            hit = last
        else:
            tol = _EPS / s
            hit = 0
            while abs(q - z[hit]) > reach[hit] + tol:
                hit += 1
        stop = hit if hit < last else last
        distance += s * (leg + levels.walk[hit])
        probes += stop + 1
        responses += hit <= last
        c += s * o * z[hit]
        q = (q - z[hit]) * (1.0 / rho[hit])
        s = s * rho[hit]
        mag, turn, leg = mags[hit], turns[hit], legs[hit]
        if not adversarial and abs(q) > 1.0 + _EPS / s:
            if placement.coverage != "perimeter":
                raise RuntimeError("POI escaped the search area")
            lost = True
    trace = SearchTrace(probes, distance + s * mag, responses,
                        end=Point2(c.real, c.imag), containment_lost=lost)
    if not adversarial:
        trace.success = s * abs(q) <= 1.0 + _EPS
    return trace


def _random_world(rng, n, k):
    """k POIs at uniform angle and uniform distance in [1, n]."""
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    dist = rng.uniform(1.0, n, k)
    return World(n, [Point2(r * math.cos(a), r * math.sin(a))
                     for a, r in zip(angle, dist)])


class TestScalarKernelOracle:
    """``run_single`` and ``find_all`` against ``_reference_run_single``
    and ``_reference_find_all``, field for field."""

    @pytest.mark.parametrize("log2_n", [10, 20, 30, 40, 48, 52])
    def test_run_single(self, placements_dir, log2_n):
        n = 2.0 ** log2_n
        rng = np.random.default_rng(100 + log2_n)
        for aid in GOLDEN:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            for _ in range(8):
                world = _random_world(rng, n, 3)
                for adversarial in (False, True):
                    got = run_single(placement, world, adversarial)
                    want = _reference_run_single(placement, world,
                                                 adversarial)
                    assert got == want, (aid, adversarial)

    @pytest.mark.parametrize("log2_n", [10, 24, 40, 52])
    def test_find_all(self, placements_dir, log2_n):
        n = 2.0 ** log2_n
        rng = np.random.default_rng(200 + log2_n)
        for aid in GOLDEN_DISK:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            for _ in range(6):
                world = _random_world(rng, n, int(rng.integers(1, 7)))
                assert find_all(placement, world) == _reference_find_all(
                    placement, world), aid

    def test_nearest_tie_goes_to_first_index(self, layers):
        # POIs 1 and 2 coincide, so the follow-up search after POI 0 ties;
        # it targets the first index
        placement = execution_layer(layers["ALG3"])
        world = World(2.0 ** 12, [Point2(100.0, 37.0), Point2(900.0, -4.0),
                                  Point2(900.0, -4.0)])
        result = find_all(placement, world)
        assert result.found == [0, 1, 2]
        assert result == _reference_find_all(placement, world)


class TestFrameCache:
    """``_frame`` is built once per placement object and kept on it."""

    def test_same_object_same_frame(self, layers):
        placement = execution_layer(layers["ALG3"])
        assert _frame(placement) is _frame(placement)

    def test_equal_placements_equal_results(self, layers):
        a = execution_layer(layers["ALG5"])
        b = dataclasses.replace(a)
        assert a is not b and a == b
        assert _frame(a) == _frame(b)
        world = World(2.0 ** 16, [Point2(1234.5, -987.25),
                                  Point2(-3000.0, 17.0)])
        assert run_single(a, world) == run_single(b, world)
        assert find_all(a, world) == find_all(b, world)

    def test_frame_is_not_part_of_the_value(self, layers):
        a = execution_layer(layers["ALG4"])
        b = dataclasses.replace(a)
        _frame(a)
        assert a._frame is not None and b._frame is None
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        # a placement built from another does not inherit its frame
        assert dataclasses.replace(a)._frame is None

    def test_hexfam_layer_runs(self):
        n = 2.0 ** 10
        layer = hexfam_layer(2, n)
        world = World(n, [Point2(300.0, -200.0)])
        trace = run_single(layer, world)
        assert trace.success
        assert trace.responses <= 2
        assert _frame(layer) is _frame(layer)
        assert run_single(layer, world) == trace


class TestTspReference:
    def test_collinear(self, tsp_reference):
        length = tsp_reference([Point2(0.0, 0.0), Point2(2.0, 0.0)])
        assert length == pytest.approx(4.0, abs=1e-12)

    def test_unit_square(self, tsp_reference):
        pts = [Point2(0.0, 0.0), Point2(1.0, 0.0),
               Point2(1.0, 1.0), Point2(0.0, 1.0)]
        assert tsp_reference(pts) == pytest.approx(4.0, abs=1e-12)

    def test_matches_brute_force(self, tsp_reference):
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

    def test_needs_two_points(self, tsp_reference):
        with pytest.raises(ValueError):
            tsp_reference([Point2(0.0, 0.0)])

    def test_rejects_more_than_twelve_points(self, tsp_reference):
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
        # 2^52, also at the origin and on probe circles, where the searcher
        # restarts from an area's center and disk tests fall within an ulp
        n = 2.0 ** log2_n
        rng = np.random.default_rng(log2_n)
        angle = rng.uniform(0.0, 2.0 * math.pi, 150)
        dist = rng.uniform(0.0, n, 150)
        random_poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)],
                              axis=1)
        for aid in GOLDEN:
            placement = execution_layer(load_placement(placements_dir
                                                       / f"{aid}.json"))
            poi = np.concatenate([random_poi, _circle_points(placement, n)])
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

    @pytest.mark.parametrize("log2_n", [10, 20])
    def test_searcher_within_tolerance_of_the_center(self, placements_dir,
                                                     log2_n):
        # the omitted probe sits 1e-10 from the last issued one, so a
        # searcher it leaves lies off its area's center by less than _EPS:
        # whether the layer turns for it depends on the area's radius, and
        # the batch kernel decides that from s, as run_single does
        alg3 = execution_layer(load_placement(placements_dir / "alg3.json"))
        *issued, omitted = alg3.probes
        last = issued[-1].center
        probes = (*issued, Probe(Point2(last.x + 1e-10, last.y), omitted.rho))
        placement = LayerPlacement("near", probes, None, False, "perimeter")
        levels = _frame(placement).levels
        assert levels.face is not None and 0.0 < levels.mag[-2] < _EPS
        n = 2.0 ** log2_n
        rng = np.random.default_rng(log2_n)
        angle = rng.uniform(0.0, 2.0 * math.pi, 400)
        dist = rng.uniform(0.0, n, 400)
        poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)], axis=1)
        poi = np.concatenate([poi, _circle_points(placement, n)])
        out = run_batch(placement, n, poi)
        for i, (x, y) in enumerate(poi):
            trace = run_single(placement, World(n, [Point2(x, y)]))
            assert (out["P"][i], out["R"][i], out["D"][i], out["success"][i],
                    out["lost"][i]) == (trace.probes, trace.responses,
                                        trace.distance, trace.success,
                                        trace.containment_lost), i

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.0 ** 60, 0.5,
                                   -4.0])
    def test_rejects_radius_world_rejects(self, layers, monkeypatch, n):
        # nan and inf never finished the descent; 2^60 answered beyond
        # float64 resolution; hexfam_layer applies the same rule, with the
        # same message naming n
        def descend(*args):
            raise AssertionError("the descent ran")

        monkeypatch.setattr(simulator, "_descend", descend)
        poi = np.array([[0.2, 0.1]])
        messages = set()
        for call in (
                lambda: run_batch(execution_layer(layers["ALG1"]), n, poi),
                lambda: World(n, [Point2(0.2, 0.1)]),
                lambda: hexfam_layer(1, n), lambda: hexfam_layer(2, n)):
            with pytest.raises(ValueError, match="search radius "
                               + re.escape(str(n))) as error:
                call()
            messages.add(str(error.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("x", [3000.0, 1024.0 + 2.0 * _EPS, -math.inf,
                                   math.nan])
    def test_rejects_poi_world_rejects(self, layers, monkeypatch, x):
        # the rows a World rejects are refused before any descent
        def descend(*args):
            raise AssertionError("the descent ran")

        monkeypatch.setattr(simulator, "_descend", descend)
        poi = np.array([[0.2, 0.1], [x, 0.0]])
        with pytest.raises(ValueError, match="not finite or lies outside"):
            run_batch(execution_layer(layers["ALG1"]), 1024.0, poi)
        with pytest.raises(ValueError):
            World(1024.0, [Point2(0.2, 0.1), Point2(x, 0.0)])

    @pytest.mark.parametrize("poi", [np.array([0.2, 0.1]),
                                     np.zeros((1, 3))])
    def test_rejects_poi_shape(self, layers, poi):
        with pytest.raises(ValueError, match=r"not \(t, 2\)"):
            run_batch(execution_layer(layers["ALG1"]), 1024.0, poi)

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
        t = 3 * _BATCH_CHUNK + 424
        rows = _slice_rows(t)
        assert rows < t / 2
        poi = _random_poi(t, n, 11)
        poi[0] = 0.0
        poi[rows - 1] = (0.5 * n, 0.0)
        poi[rows] = (0.0, -0.25 * n)
        poi[2 * rows] = (-n, 0.0)
        for aid in ("ALG1", "ALG2", "ALG3", "ALG4", "ALG5", "ALG6"):
            placement = execution_layer(layers[aid])
            got = run_batch(placement, n, poi)
            want = _absolute_run_batch(placement, n, poi)
            for key in ("P", "R", "success", "lost"):
                assert np.array_equal(got[key], want[key]), (aid, key)
            assert got["D"] == pytest.approx(want["D"], rel=1e-12)

    @pytest.mark.parametrize("t, sizes", [
        (25_000, [8334, 8334, 8332]),
        (100_000, [8334] * 11 + [8326]),
        (1, [1]),
        (8193, [8193]),
    ])
    def test_equal_slices(self, layers, monkeypatch, t, sizes):
        # no slice is left short: each level of a slice's descent pays a
        # fixed cost however few rows the slice holds
        seen = []
        descend = simulator._descend

        def record(batch, n, poi, out):
            seen.append(poi.size)
            descend(batch, n, poi, out)

        monkeypatch.setattr(simulator, "_descend", record)
        n = 2.0 ** 10
        run_batch(execution_layer(layers["ALG1"]), n, _random_poi(t, n, t))
        assert seen == sizes
        assert max(seen) == _slice_rows(t)

    def test_slicing_changes_no_output(self, layers, monkeypatch):
        # trials are independent: two slices of 10000 rows give what one
        # slice of all 20000 gives, bit for bit
        n = 2.0 ** 20
        t = 20_000
        poi = _random_poi(t, n, 12)
        for aid in ("ALG1", "ALG3", "ALG5"):
            placement = execution_layer(layers[aid])
            sliced = run_batch(placement, n, poi)
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_BATCH_CHUNK", t + 1)
                whole = run_batch(placement, n, poi)
            for key in ("P", "D", "R", "success", "lost"):
                assert np.array_equal(sliced[key], whole[key]), (aid, key)

    @pytest.mark.parametrize("log2_n", [20, 30, 40, 48, 52])
    def test_junction_poi(self, placements_dir, log2_n):
        # TestRunSingle::test_junction_poi for the batch kernel
        placement = execution_layer(load_placement(placements_dir
                                                   / "alg2.json"))
        n = 2.0 ** log2_n
        out = run_batch(placement, n, np.array([[n / 2.0, 0.0]]))
        assert out["success"][0]
        assert not out["lost"][0]
        trace = run_single(placement, World(n, [Point2(n / 2.0, 0.0)]))
        assert (out["P"][0], out["R"][0]) == (trace.probes, trace.responses)

    def test_lost_in_a_perimeter_gap(self, layers):
        # ALG4 certifies only the unit circle: one interior face of area
        # 1.5e-4 stays uncovered, and the points of an 801 x 801 grid in it
        # are lost by every kernel, alike
        placement = execution_layer(layers["ALG4"])
        z = np.array([complex(p.center.x, p.center.y)
                      for p in placement.probes])
        rho = np.array([p.rho for p in placement.probes])
        g = np.linspace(-1.0, 1.0, 801)
        pts = (g[:, None] + 1j * g).ravel()
        pts = pts[(np.abs(pts[:, None] - z) > rho).all(axis=1)
                  & (np.abs(pts) <= 1.0)]
        assert pts.size == 25
        n = 2.0 ** 20
        poi = np.stack([n * pts.real, n * pts.imag], axis=1)
        out = run_batch(placement, n, poi)
        want = _absolute_run_batch(placement, n, poi)
        assert out["lost"].all() and want["lost"].all()
        for key in ("P", "R"):
            assert np.array_equal(out[key], want[key]), key
        assert out["D"] == pytest.approx(want["D"], rel=1e-12)
        for i, (x, y) in enumerate(poi):
            trace = run_single(placement, World(n, [Point2(x, y)]))
            assert trace.containment_lost, i
            assert (out["P"][i], out["R"][i], out["D"][i]) == (
                trace.probes, trace.responses, trace.distance), i

    def test_lost_in_a_hole_wider_than_a_cell(self):
        # six probes of radius 0.55 about 0.8 e^(i k pi / 3) cover the unit
        # circle and leave a hole of radius 0.25 about the center, many
        # table cells wide: a POI there misses every probe, the omitted
        # last one too, so the kernel tests it and reports it lost
        probes = tuple(Probe(Point2(0.8 * math.cos(a), 0.8 * math.sin(a)),
                             0.55)
                       for a in np.arange(6) * math.pi / 3)
        placement = LayerPlacement("ring", probes, None, False, "perimeter")
        n = 2.0 ** 20
        poi = np.array([[0.0, 0.0], [0.1 * n, -0.05 * n]])
        out = run_batch(placement, n, poi)
        assert out["lost"].all()
        for i, (x, y) in enumerate(poi):
            trace = run_single(placement, World(n, [Point2(x, y)]))
            assert (out["P"][i], out["R"][i], out["D"][i], out["lost"][i]) == (
                trace.probes, trace.responses, trace.distance,
                trace.containment_lost), i

    @pytest.mark.parametrize("log2_n", [10, 20, 40, 52])
    def test_uncertified_layers_lose_alike(self, log2_n):
        # ALG3 below its minimal base and ALG4 below its own leave gaps in
        # the disk: both kernels report a POI in one as lost, whatever the
        # layer's coverage label
        layers = [construct_layer("ALG3", r) for r in (0.80, 0.83, 0.843)]
        layers.append(construct_layer("ALG4", 0.78))
        n = 2.0 ** log2_n
        rng = np.random.default_rng(log2_n)
        lost = 0
        for layer in layers:
            assert not certify_coverage(layer.probes).certified_covered
            angle = rng.uniform(0.0, 2.0 * math.pi, 300)
            dist = n * np.sqrt(rng.uniform(0.0, 1.0, 300))
            poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)],
                           axis=1)
            out = run_batch(layer, n, poi)
            for i, (x, y) in enumerate(poi):
                trace = run_single(layer, World(n, [Point2(x, y)]))
                where = (layer.rho1, i)
                assert (trace.probes, trace.responses, trace.success,
                        trace.containment_lost) == (
                    out["P"][i], out["R"][i], out["success"][i],
                    out["lost"][i]), where
                assert trace.distance == pytest.approx(out["D"][i],
                                                       rel=1e-12), where
            lost += int(out["lost"].sum())
        assert lost > 0

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
    from each disk the table's answer depends on, and lies inside its own
    disk by ``_MARGIN``."""

    @staticmethod
    def _first_hit(pts, z, reach, tol):
        """The exact test of the kernels, at tolerance ``tol``."""
        inside = np.abs(pts[..., None] - z) <= reach + tol
        return inside.argmax(axis=-1)

    @staticmethod
    def _grid(table):
        """The table as a (_GRID + 2) x (_GRID + 2) array indexed [i, j];
        the entries past column _GRID + 1 of each row are never read."""
        side = _GRID + 2
        rows = table.reshape(side, _ROW)
        assert (rows[:, side:] == -1).all()
        return rows[:, :side].T

    def _check(self, placement):
        levels = _frame(placement).levels
        z, rho = np.array(levels.z), np.array(levels.rho)
        reach = np.array(levels.reach)
        side = _GRID + 2
        table = self._grid(_hit_table(z, rho))
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
        # every checked point lies inside disk k by the margin, so a POI
        # there stays inside its next area
        for col in pts:
            assert (np.abs(col - z[k]) <= rho[k] - _MARGIN).all()
        # each cell's centre maps to that cell
        assert np.array_equal(_cells(pts[4]), i + _ROW * j)
        return np.count_nonzero(k == z.size - 1)

    def test_generated_layers(self, layers):
        # the checks cover cells decided as the omitted last probe
        for aid in sorted(layers):
            assert self._check(execution_layer(layers[aid])) > 0, aid

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
        j, i = np.divmod(_cells(q), _ROW)
        assert ((i == 0) | (i == side - 1) | (j == 0) | (j == side - 1)).all()

    def test_cells_match_clip(self):
        # _cells clamps with np.maximum and np.minimum: the entries of
        # np.clip, on frame points, cell edges, +-1, just outside +-1,
        # +-inf and 2^60, in either coordinate
        h = 2.0 / _GRID
        special = np.concatenate([
            -1.0 + np.arange(_GRID + 1) * h,
            [-1.0, 1.0], np.nextafter([-1.0, 1.0], [-2.0, 2.0]),
            [math.inf, -math.inf, 2.0 ** 60, -2.0 ** 60]])
        rng = np.random.default_rng(5)
        x, y = rng.uniform(-1.0, 1.0, (2, 5000))
        # built from the parts, as 1j * inf would put nan in the real part
        re = np.concatenate([np.repeat(special, special.size), x, x,
                             rng.choice(special, y.size)])
        im = np.concatenate([np.tile(special, special.size), y,
                             rng.choice(special, x.size), y])
        q = np.column_stack([re, im]).view(complex).ravel()
        assert not np.isnan(q.view(float)).any()
        clip = np.clip(q.view(float) * (_GRID / 2) + (_GRID / 2 + 1), 0,
                       _GRID + 1)
        assert np.array_equal(_cells(q), clip.astype(np.uint8).view("<u2"))

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
        table = _hit_table(z, np.array([r, 2.0]))
        assert table[i + _ROW * j] == -1

    def test_cell_across_the_last_circle_stays_undecided(self):
        # the cell misses the one issued disk and straddles the omitted
        # last probe's circle: a POI there may lie outside every disk, as
        # in a perimeter layer's gap, so the kernel must test it
        h = 2.0 / _GRID
        i, j = 90, 70
        centre = complex(-1.0 + (i - 0.5) * h, -1.0 + (j - 0.5) * h)
        z = np.array([-0.5 + 0j, 0j])
        rho = np.array([0.3, abs(centre)])
        assert abs(centre - z[0]) - h > rho[0]
        table = _hit_table(z, rho)
        assert table[i + _ROW * j] == -1
        # cells well inside the last disk are decided as it
        assert table[(_GRID // 2) + _ROW * (_GRID // 2 + 20)] == 1


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


def _slice_rows(t):
    """The rows of ``run_batch``'s longest slice of t POIs."""
    return -(-t // max(1, round(t / _BATCH_CHUNK)))


def _random_poi(t, n, seed):
    """t POIs uniform in angle and in distance from the center, within n."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi, t)
    dist = rng.uniform(0.0, n, t)
    return np.stack([dist * np.cos(angle), dist * np.sin(angle)], axis=1)


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

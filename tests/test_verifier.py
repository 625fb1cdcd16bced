"""Worst-case coefficient computations, minimal schedule bases, and the
lower-bound constant."""
from __future__ import annotations

import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marcopolo.geometry import Point2, Probe
from marcopolo.placements import (
    ALG3_RHO1,
    ALG4_RHO1,
    ALG5_RHO1,
    ALG6_RHO1,
    LayerPlacement,
    execution_layer,
    load_placement,
)
from marcopolo.optimizer import alg7_layer
from marcopolo.simulator import World, run_single
from marcopolo.verifier import (
    _LB_RHO_TOL,
    BoundsReport,
    _chord_arcs_close,
    _level_rates,
    bounds_report,
    distance_bound,
    lower_bound_constant,
    minimal_rho1,
    probe_coefficient,
    response_bound,
)


def _chain(rhos, spacing=0.1):
    """Probes along the x axis with the given radii."""
    return [Probe(Point2(spacing * (i + 1), 0.0), r)
            for i, r in enumerate(rhos)]


# probe 1 lies 0.1 from the omitted probe's center, inside the d1 * rho_m
# = 0.48 that the next layer's first probe sits from it
_NEAR_LAST = [Probe(Point2(0.6, 0.0), 0.5), Probe(Point2(0.5, 0.0), 0.8)]
_COINCIDENT = [Probe(Point2(0.3, 0.0), 0.5), Probe(Point2(0.3, 0.0), 0.5)]


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
        for aid, c in (("ALG1", 6.0), ("ALG2", 5.0)):
            assert probe_coefficient(layers[aid]) == pytest.approx(c, abs=1e-9)


class TestDistanceBound:
    def test_single_central_probe(self):
        # a lone probe is the omitted last one, so no probe is executed:
        # no layer, as LayerPlacement also holds
        probes = [Probe(Point2(0.0, 0.0), 0.5)]
        for bound in (distance_bound, probe_coefficient, response_bound,
                      bounds_report):
            with pytest.raises(ValueError, match="at least two probes"):
                bound(probes)

    def test_two_collinear_probes(self):
        probes = [Probe(Point2(0.5, 0.0), 0.5),
                  Probe(Point2(-0.5, 0.0), 0.5)]
        # leg 1: 0.5 travel, shrink 1/2 -> rate 1.0
        # leg 2 (omitted): 1.5 travel minus the 2*d1*rho_m = 0.5 round
        # trip -> 1.0 / 0.5 = 2.0
        assert distance_bound(probes) == pytest.approx(2.0, abs=1e-12)

    def test_omitted_probe_near_the_last(self):
        # the level ending in probe 2 walks 0.6 + 0.1 to probe 2's center,
        # less the 2 * 0.1 it overcounts, over 1 - 0.8
        assert distance_bound(_NEAR_LAST) == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("log2_n", [40, 52])
    def test_bounds_the_walk_of_a_layer_that_does_not_turn(self, log2_n):
        # the first probe lies within _EPS of the center, so the search
        # frame never turns; a POI at (-0.75 n, 0) stays in the omitted
        # probe's disk on every level, whose leg from the last issued
        # probe the bound must charge as the kernel walks it
        layer = LayerPlacement("TEST", (
            Probe(Point2(1e-10, 0.0), 0.5), Probe(Point2(0.0, 0.7), 0.5),
            Probe(Point2(-0.3, 0.0), 0.6)), None, False)
        n = 2.0 ** log2_n
        trace = run_single(layer, World(n, [Point2(-0.75 * n, 0.0)]))
        assert trace.success
        assert trace.distance / n <= distance_bound(layer) + 1e-12

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


@st.composite
def _random_probes(draw):
    """Two to eight probes centred in the unit disk; the first at its
    center or at least 1e-3 from it, since the search frame does not turn
    below ``_EPS``."""
    rho = st.floats(0.05, 0.95, exclude_min=True, exclude_max=True)
    angle = st.floats(0.0, 2.0 * math.pi)
    radii = [0.0 if draw(st.booleans()) else draw(st.floats(1e-3, 1.0))]
    radii += draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=7))
    return [Probe(Point2(r * math.cos(t), r * math.sin(t)), draw(rho))
            for r, t in ((r, draw(angle)) for r in radii)]


def _probe_rates(probes):
    """Reference: probes paid per halving of the area when the search ends
    at probe k = 1..m, walked over the probes; the last entry is the
    all-negative case."""
    rhos = [p.rho for p in probes]
    m = len(rhos)
    rates = [k / -math.log2(rhos[k - 1]) for k in range(1, m)]
    rates.append((m - 1) / -math.log2(rhos[m - 1]))
    return rates


def _distance_rates(probes):
    """Reference: travel paid per unit of remaining radius when the search
    ends at probe k = 1..m, walked over the probes: the accumulated legs
    from the center over 1 - rho_k.  The level that ends in the omitted
    last probe walks on to its center, ``gap`` from the last issued one,
    and the next layer's first probe lies d1 * rho_m from that center,
    turned toward the searcher: the level is charged its legs minus
    2 * min(gap, d1 * rho_m)."""
    d1 = math.hypot(probes[0].center.x, probes[0].center.y)
    cum = 0.0
    cx = cy = 0.0
    rates = []
    for i, p in enumerate(probes):
        leg = math.hypot(p.center.x - cx, p.center.y - cy)
        cum += leg
        if i == len(probes) - 1:
            cum -= 2.0 * min(leg, d1 * p.rho)
        rates.append(cum / (1.0 - p.rho))
        cx, cy = p.center.x, p.center.y
    return rates


def _walked(probes):
    """Per k, the reference's walk from the center to probe k over
    1 - rho_k, before the last level's rebate: it bounds every term that
    either sum adds or subtracts."""
    points = [(0.0, 0.0)] + [(p.center.x, p.center.y) for p in probes]
    legs = [math.hypot(bx - ax, by - ay)
            for (ax, ay), (bx, by) in zip(points, points[1:])]
    return [walk / (1.0 - p.rho) for walk, p in zip(accumulate(legs),
                                                     probes)]


class TestRatesMatchTheSearchFrame:
    """The verifier's rates, read from the search's per-level cost table
    (``simulator._levels``), against the reference walks over the probes
    above, per probe k that a level ends in.  The probe rates are equal.
    The travel rates agree within 4 ulps of the walk they are summed
    from: the table sums a level's walk from the first probe and not from
    the center, and charges the last level as rho_m * (leg_m - d1) with
    the leg the kernels walk, which in a layer that turns is the
    reference's -2 * min(gap, d1 * rho_m) with gap = rho_m * mag_m, and
    both cancel where the last level's rebate nears its walk.  The table
    takes mag as the kernels do, from the squared coordinates of the
    searcher's exit, so an exit shorter than 2^-511 reads mag = 0 and is
    not turned toward, and an absolute 2^-500 bounds what that loses."""

    @staticmethod
    def _check(layer, name=""):
        rates, travel, rhos = _level_rates(layer)
        assert rates == _probe_rates(layer.probes), name
        assert rhos == [p.rho for p in layer.probes], name
        for k, (got, want, walked) in enumerate(zip(
                travel, _distance_rates(layer.probes),
                _walked(layer.probes))):
            assert abs(got - want) <= 4 * math.ulp(walked) + 2.0 ** -500, \
                (name, k)

    def test_golden_layers(self, placements_dir):
        for name, layer in _golden_orders(placements_dir):
            self._check(layer, name)

    def test_built_layers(self, layers):
        for aid, layer in layers.items():
            self._check(layer, aid)
            self._check(execution_layer(layer), f"{aid} executed")
        self._check(alg7_layer(), "alg7_layer")

    @pytest.mark.parametrize("probes", [_NEAR_LAST, _COINCIDENT],
                             ids=["near-last", "coincident"])
    def test_last_probe_near_the_omitted_one(self, probes):
        self._check(LayerPlacement("TEST", tuple(probes), None, False))

    @given(_random_probes())
    @settings(max_examples=300, deadline=None)
    def test_random_layers(self, probes):
        self._check(LayerPlacement("TEST", tuple(probes), None, False))


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

    def test_threshold_is_a_bracket(self):
        # the chord series grows with rho, so the bisection's result
        # closes the circle and a base one tolerance below it does not
        _, rho_lb = lower_bound_constant()
        assert _chord_arcs_close(rho_lb)
        assert not _chord_arcs_close(rho_lb - _LB_RHO_TOL)

    def test_below_every_achieved_coefficient(self, layers, placements_dir):
        c_lb, _ = lower_bound_constant()
        golden = sorted(placements_dir.glob("alg*.json"))
        assert len(golden) == 8
        for layer in [*layers.values(), *map(load_placement, golden)]:
            assert c_lb < probe_coefficient(layer)

"""Acceptance suite: one test per release criterion, each emitting a single
PASS/FAIL line.

Criteria (tolerances inline):
1. exact coefficients for the hexagonal layers, minimal schedule bases,
   and the lower-bound constant;
2. certified coverage and probe coefficients for the progressive layers;
3. distance coefficients of all six layers as executed;
4. optimized layers beat the progressive constructions;
5. full Monte Carlo campaign reproduces the published averages;
6. response-limited family respects its probe/response budgets;
7. find-all accounting over random multi-POI worlds;
8. certified placements leave no uncovered point and never lose the POI.
"""
from __future__ import annotations

import math
import time

import numpy as np

from marcopolo.experiments import ExperimentConfig, monte_carlo
from marcopolo.geometry import Point2, certify_coverage
from marcopolo.optimizer import OptimizerConfig, alg7_layer, evolve_initial
from marcopolo.placements import (
    execution_layer,
    hexfam_layer,
    hexfam_layers,
    load_placement,
)
from marcopolo.simulator import World, find_all, run_batch, run_single
from marcopolo.verifier import (
    distance_bound,
    lower_bound_constant,
    minimal_rho1,
    probe_coefficient,
)

_ALGS = ("ALG1", "ALG2", "ALG3", "ALG4", "ALG5", "ALG6")


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_exact_constants(layers, capsys):
    t0 = time.perf_counter()
    checks = []
    c1 = probe_coefficient(layers["ALG1"])
    c2 = probe_coefficient(layers["ALG2"])
    checks.append(abs(c1 - 6.00) < 1e-9)
    checks.append(abs(c2 - 5.00) < 1e-9)
    r3 = minimal_rho1("ALG3")
    checks.append(abs(r3 - 0.844) <= 0.002)
    rp = minimal_rho1("PERIMETER_ONLY", tol=1e-5)
    checks.append(abs(rp - 0.74915) <= 0.0005)
    c_lb, rho_lb = lower_bound_constant()
    checks.append(abs(c_lb - 2.40001) <= 1e-4)
    checks.append(abs(rho_lb - 0.74915) <= 1e-4)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 60.0)
    ok = all(checks)
    _report(capsys, 1, ok,
            f"c1={c1:.2f} c2={c2:.2f} rho3*={r3:.4f} rhoP*={rp:.5f} "
            f"lb=({c_lb:.5f},{rho_lb:.5f}) in {elapsed:.1f}s")
    assert ok, checks


def test_criterion_2_progressive_coefficients(layers, capsys):
    t0 = time.perf_counter()
    published = {"ALG3": 4.08, "ALG4": 3.54, "ALG5": 3.83, "ALG6": 3.34}
    checks = []
    values = {}
    for aid, target in published.items():
        layer = layers[aid]
        checks.append(layer.certified)
        c = probe_coefficient(layer)
        values[aid] = c
        checks.append(c <= target + 0.02)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 300.0)
    ok = all(checks)
    _report(capsys, 2, ok,
            "c = " + " ".join(f"{a}:{values[a]:.4f}" for a in published)
            + f" in {elapsed:.1f}s")
    assert ok, (checks, values)


def test_criterion_3_distance_coefficients(layers, capsys):
    published = {"ALG1": 10.39, "ALG2": 8.81, "ALG3": 6.95,
                 "ALG4": 9.31, "ALG5": 6.72, "ALG6": 6.02}
    checks = []
    values = {}
    for aid, target in published.items():
        b = distance_bound(execution_layer(layers[aid]))
        values[aid] = b
        checks.append(abs(b - target) <= 0.05)
    ok = all(checks)
    _report(capsys, 3, ok,
            "b = " + " ".join(f"{a}:{values[a]:.4f}" for a in published))
    assert ok, (checks, values)


def test_criterion_4_optimized_layers(capsys):
    t0 = time.perf_counter()
    checks = []
    seven = alg7_layer()
    c7 = probe_coefficient(seven)
    checks.append(seven.certified)
    checks.append(certify_coverage(seven.probes).certified_covered)
    checks.append(c7 <= 3.10)
    eight = evolve_initial(OptimizerConfig())
    c8 = probe_coefficient(eight)
    checks.append(eight.certified)
    checks.append(certify_coverage(eight.probes).certified_covered)
    checks.append(c8 <= 2.75)
    # evolution beats its warm-start seed, the 0.772 base
    checks.append(c8 < -1.0 / math.log2(0.772))
    checks.append(max(c7, c8) < 3.54)  # beats the best progressive layer
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1800.0)
    ok = all(checks)
    _report(capsys, 4, ok,
            f"c7={c7:.4f} ({seven.m} probes) c8={c8:.4f} "
            f"({eight.m} probes, rho1={eight.rho1:.5f}) in {elapsed:.0f}s")
    assert ok, checks


def test_criterion_5_monte_carlo_campaign(capsys):
    t0 = time.perf_counter()
    published = {
        "P": [3.24, 2.93, 4.13, 3.52, 3.87, 3.41],
        "D": [3.35, 2.65, 5.46, 5.38, 1.92, 1.96],
        "R": [0.89, 1.11, 1.99, 1.94, 2.49, 1.96],
    }
    rel_tol = {"P": 0.05, "D": 0.10, "R": 0.05}
    rows, _ = monte_carlo(ExperimentConfig())  # n=2^20, 1e5 trials, ALG1-6
    by_key = {(r.algorithm, r.metric): r for r in rows}
    checks = []
    worst = -math.inf
    for metric, targets in published.items():
        for aid, target in zip(_ALGS, targets):
            row = by_key[(aid, metric)]
            rel = abs(row.avg - target) / target
            worst = max(worst, rel - rel_tol[metric])
            checks.append(rel <= rel_tol[metric])
            # observed extremes stay within the bound plus documented slack
            checks.append(row.max <= row.bound + row.slack + 1e-9)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 600.0)
    ok = all(checks)
    _report(capsys, 5, ok,
            f"18 averages within tolerance (worst margin {worst:+.3f}), "
            f"all maxima bounded, in {elapsed:.0f}s")
    assert ok, checks


def test_criterion_6_response_limited_family(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    checks = []
    for r_max in (1, 2, 3):
        for n in (4.0, 16.0, 64.0):
            # the budget cannot exceed the number of halvings available;
            # a larger allowance is simply not spent
            eff = min(r_max, math.ceil(math.log2(n)))
            big_l = hexfam_layers(eff, n)
            budget = 6 * eff * math.comb(big_l, 2)
            layer = hexfam_layer(eff, n)
            for _ in range(5):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                dist = rng.uniform(0.0, n)
                world = World(n, [Point2(dist * math.cos(angle),
                                         dist * math.sin(angle))])
                trace = run_single(layer, world)
                checks.append(trace.success)
                checks.append(trace.responses <= r_max)
                checks.append(trace.probes <= budget)
                if eff == 1:
                    checks.append(trace.probes <= 4 * n * n / 3 + 6 * n + 6)
                elif eff == 2:
                    checks.append(trace.probes
                                  <= 8 * n / 3 + 12 * math.sqrt(n) + 12)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 60.0)
    ok = all(checks)
    _report(capsys, 6, ok,
            f"9 (R_max, n) combinations x 5 searches in {elapsed:.1f}s")
    assert ok, checks


def test_criterion_7_find_all_accounting(layers, tsp_reference, capsys):
    t0 = time.perf_counter()
    n = 2.0 ** 10
    placement = execution_layer(layers["ALG3"])
    c = probe_coefficient(placement)
    d = distance_bound(placement)
    l_max = max(-math.log2(p.rho) for p in placement.probes)
    logn = math.ceil(math.log2(n))
    rng = np.random.default_rng(23)
    checks = []
    trials = 1000
    for _ in range(trials):
        k = int(rng.integers(2, 9))
        angles = rng.uniform(0.0, 2.0 * math.pi, k)
        dists = rng.uniform(1.0, n, k)
        pois = [Point2(r * math.cos(a), r * math.sin(a))
                for a, r in zip(angles, dists)]
        world = World(n, pois)
        result = find_all(placement, world)
        checks.append(result.all_found)
        checks.append(sorted(result.found) == list(range(k)))
        # probe total: one full-range search plus k-1 localized searches
        # of mean radius e-bar, plus the finite-layer overshoot allowance
        # of one partial layer (c * L_max) per search
        e_bar = sum(result.gaps) / (k - 1)
        p_bound = (c * logn + (c + 1.0) * (k - 1) * math.ceil(math.log2(e_bar))
                   + k * c * l_max)
        checks.append(result.p_tot <= p_bound + 1e-9)
        # distance: one full descent plus the inter-POI legs, each leg
        # walked at most once out and once localizing
        order = [world.pois[i] for i in result.found]
        e_total = sum(order[i].dist(order[i + 1]) for i in range(k - 1))
        checks.append(result.d_tot <= d * n + 2.0 * d * e_total + 1e-9)
        # competitiveness of the discovery order against the optimal tour
        opt = tsp_reference(pois)
        checks.append(e_total < opt * (math.ceil(math.log2(k)) + 1.0) + 1e-9)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 300.0)
    ok = all(checks)
    _report(capsys, 7, ok,
            f"{trials} worlds (k in 2..8, n=2^10): all POIs found, probe, "
            f"distance and tour bounds hold, in {elapsed:.0f}s")
    assert ok


def test_criterion_8_coverage_and_containment(placements_dir, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    checks = []
    worst_uncovered = 0
    files = sorted(placements_dir.glob("alg*.json"))
    checks.append(len(files) == 8)
    for path in files:
        layer = load_placement(path)  # re-certifies on load
        checks.append(layer.certified)
        if layer.coverage == "perimeter":
            theta = rng.uniform(0.0, 2.0 * math.pi, 1_000_000)
            pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            xy = rng.uniform(-1.0, 1.0, (1_400_000, 2))
            pts = xy[np.hypot(xy[:, 0], xy[:, 1]) <= 1.0][:1_000_000]
        covered = np.zeros(len(pts), dtype=bool)
        for p in layer.probes:
            covered |= (np.hypot(pts[:, 0] - p.center.x,
                                 pts[:, 1] - p.center.y) <= p.rho + 1e-9)
        uncovered = int((~covered).sum())
        worst_uncovered = max(worst_uncovered, uncovered)
        checks.append(uncovered == 0)
        # containment: random searches never lose the POI
        if layer.coverage == "disk":
            n = 2.0 ** 12
            angle = rng.uniform(0.0, 2.0 * math.pi, 2000)
            dist = rng.uniform(0.0, n, 2000)
            poi = np.stack([dist * np.cos(angle), dist * np.sin(angle)],
                           axis=1)
            out = run_batch(execution_layer(layer), n, poi)
            checks.append(bool(out["success"].all()))
            checks.append(not bool(out["lost"].any()))
    elapsed = time.perf_counter() - t0
    ok = all(checks)
    _report(capsys, 8, ok,
            f"8 golden placements x 1e6 points: {worst_uncovered} uncovered, "
            f"containment held, in {elapsed:.0f}s")
    assert ok, checks

"""Computer-assisted layer construction.

Two placement searches that trade travel distance for probe count: a
greedy hull-chord gap filler that extends a partial layer with probes of
geometrically shrinking radius, and a differential-evolution search over
the first six probes whose residual gaps are closed by the same greedy
filler.  Both return certified layer placements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point2, Probe, certify_coverage, _cells_hull
from .placements import CertificationError, LayerPlacement, construct_layer
from .verifier import probe_coefficient

__all__ = [
    "OptimizerConfig",
    "greedy_fill",
    "evolve_initial",
    "alg7_layer",
    "ALG7_RHO1",
]

# schedule base of the reproduced darting construction: the four leading
# probes of the perimeter-tiling layer plus greedy fills certify down to
# this value, matching the published coefficient 2.93
ALG7_RHO1 = 0.789

_FINAL_MIN_CELL = 1e-6
_SEARCH_MIN_CELL = 1e-3
# fitness-mode resolution tiers: coarse residual measurement for the
# population, and the floor of the in-fitness greedy filler
_FITNESS_MIN_CELL = 8e-3
_FITNESS_FLOOR = 2e-3
_CELL_BUDGET = 2e5
_FITNESS_CELL_BUDGET = 2e4
_FITNESS_STOP_AREA = 1e-3
_PENALTY = 100.0
# probes a greedy-filled layer may reach
_GREEDY_MAX_PROBES = 45
# chord search: hull-point pairs per block, and elements of the
# (candidates, cells) scoring temporaries
_PAIR_BLOCK = 4096
_SCORE_CHUNK = 1 << 16


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters of the placement evolution."""

    population: int = 16
    generations: int = 40
    mutation_factor: float = 0.7
    crossover_rate: float = 0.9
    seed: int = 0
    rho1_bounds: tuple[float, float] = (0.76, 0.80)
    greedy_max_probes: int = _GREEDY_MAX_PROBES

    def __post_init__(self) -> None:
        if self.population < 8:
            raise ValueError("population must be at least 8")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if not 0.0 < self.mutation_factor < 2.0:
            raise ValueError("mutation factor must lie in (0, 2)")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover rate must lie in [0, 1]")
        lo, hi = self.rho1_bounds
        if not 0.0 < lo < hi < 1.0:
            raise ValueError("rho1 bounds must satisfy 0 < lo < hi < 1")
        if self.greedy_max_probes < 7:
            raise ValueError("greedy probe budget must exceed the six seeds")


# ---------------------------------------------------------------------------
# Greedy hull-chord gap filling
# ---------------------------------------------------------------------------

def _schedule_capacity(rho1: float, m: int) -> float:
    """Total area of all probes the schedule can still provide after m."""
    return math.pi * rho1 ** (2 * (m + 1)) / (1.0 - rho1 * rho1)


def _densify_hull(hull: np.ndarray, spacing: float, cap: int = 96) -> np.ndarray:
    """Points along the hull boundary, at most ``spacing`` apart.

    The spacing is widened to perimeter / cap, which aims at about ``cap``
    points; the output is not capped, since every hull edge contributes
    at least its start point.
    """
    n = len(hull)
    perimeter = sum(math.hypot(*(hull[(i + 1) % n] - hull[i]))
                    for i in range(n))
    spacing = max(spacing, perimeter / cap)
    pts = []
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        steps = max(1, int(math.ceil(math.hypot(*(b - a)) / spacing)))
        for t in range(steps):
            pts.append(a + (b - a) * (t / steps))
    return np.array(pts)


def _best_chord_probe(regions: list[np.ndarray], r: float,
                      hull_cap: int = 96) -> tuple[float, float] | None:
    """Center of the radius-r circle through two points of the largest
    region's hull that removes the most uncovered cell area, or None.

    Candidates are the two centers of each hull-point pair (i, j), i < j,
    taken in (i, j, +/-) order; the first one to beat the best score so
    far by more than 1e-15 wins, so ties go to the earliest candidate.
    A score is the row sum, in cell order, of the weights of the cells
    inside the candidate's closed disk.

    Most cells lie far from any one candidate, so each candidate is first
    scored only against the cells near it: candidates are grouped in
    square tiles of side r/2, and a tile's candidates against the cells
    in the box of their centers widened by r plus a margin, which holds
    every cell the exact test accepts.  Such a pruned score adds the same
    weights as the row sum in another order, so it may differ from it in
    the last bits.  Only the contenders, whose pruned score comes within
    a rounding guard of every earlier one, can beat all earlier
    candidates on row sums; they alone are scored with row sums and
    scanned, which picks the same winner as scanning every row sum.
    """
    pts = _densify_hull(_cells_hull(regions[0]), r / 2.0, hull_cap)
    score_cells = np.concatenate(regions)
    if len(score_cells) > 4000:
        score_cells = score_cells[::int(math.ceil(len(score_cells) / 4000))]
    weight = (2.0 * score_cells[:, 2]) ** 2
    sx, sy = score_cells[:, 0], score_cells[:, 1]
    by_x = np.argsort(sx, kind="stable")
    bx, by, bw = sx[by_x], sy[by_x], weight[by_x]
    # a cell the exact test accepts lies within r of the center, up to
    # rounding far below this margin
    reach = r + 1e-9
    # each sum of the same N weights lies within (N - 1) * 2**-53 * W of
    # their exact sum (W the total weight), so a pruned score and its row
    # sum differ by less than N * 2**-52 * W, and a candidate that beats
    # every earlier row sum has a pruned score above every earlier pruned
    # score minus twice that
    guard = 2.0 * sx.size * 2.0 ** -52 * float(weight.sum())
    tile = 0.5 * r

    best, best_score = None, 0.0
    pair_i, pair_j = np.triu_indices(len(pts), 1)
    for start in range(0, pair_i.size, _PAIR_BLOCK):
        i = pair_i[start:start + _PAIR_BLOCK]
        j = pair_j[start:start + _PAIR_BLOCK]
        dx = pts[j, 0] - pts[i, 0]
        dy = pts[j, 1] - pts[i, 1]
        d2 = dx ** 2 + dy ** 2
        ok = (d2 <= 4.0 * r * r) & (d2 >= 1e-18)
        if not ok.any():
            continue
        i, j, dx, dy, d2 = i[ok], j[ok], dx[ok], dy[ok], d2[ok]
        lift = np.sqrt(r * r - 0.25 * d2)
        norm = np.sqrt(d2)
        # rows are pairs, columns the two sides: raveling keeps scan order
        side = np.array([1.0, -1.0]) * lift[:, None]
        cx = ((0.5 * (pts[i, 0] + pts[j, 0]))[:, None]
              - side * (dy / norm)[:, None]).ravel()
        cy = ((0.5 * (pts[i, 1] + pts[j, 1]))[:, None]
              + side * (dx / norm)[:, None]).ravel()
        tx = np.floor(cx / tile)
        ty = np.floor(cy / tile)
        order = np.lexsort((ty, tx))
        cut = np.flatnonzero((np.diff(tx[order]) != 0)
                             | (np.diff(ty[order]) != 0)) + 1
        scores = np.empty(cx.size)
        for group in np.split(order, cut):
            gx, gy = cx[group], cy[group]
            lo, hi = np.searchsorted(bx, (gx.min() - reach,
                                          gx.max() + reach))
            near = (by[lo:hi] >= gy.min() - reach) \
                & (by[lo:hi] <= gy.max() + reach)
            scores[group] = _removed_area(bx[lo:hi][near], by[lo:hi][near],
                                          bw[lo:hi][near], gx, gy, r)
        # a winner removes some area and beats every earlier candidate
        prior = np.maximum.accumulate(
            np.concatenate(([best_score], scores[:-1])))
        contenders = np.flatnonzero((scores > prior - guard) & (scores > 0.0))
        exact = _removed_area(sx, sy, weight, cx[contenders],
                              cy[contenders], r)
        # every earlier row sum is at most best_score + 1e-15, so a winner
        # beats best_score and each earlier contender's row sum: the
        # sequential first-best scan need not visit anything else
        prior = np.maximum.accumulate(
            np.concatenate(([best_score], exact[:-1])))
        for k in np.flatnonzero(exact > prior).tolist():
            if exact[k] > best_score + 1e-15:
                best_score = float(exact[k])
                c = contenders[k]
                best = (float(cx[c]), float(cy[c]))
    return best


def _removed_area(sx: np.ndarray, sy: np.ndarray, weight: np.ndarray,
                  cx: np.ndarray, cy: np.ndarray, r: float) -> np.ndarray:
    """Per closed disk (cx, cy, r), the row sum of the weights of the
    cells (sx, sy) inside it; the (disks, cells) temporaries stay near
    _SCORE_CHUNK elements."""
    out = np.empty(cx.size)
    rows = max(1, _SCORE_CHUNK // max(1, sx.size))
    for k in range(0, cx.size, rows):
        inside = ((sx - cx[k:k + rows, None]) ** 2
                  + (sy - cy[k:k + rows, None]) ** 2) <= r * r
        out[k:k + rows] = (weight * inside).sum(axis=1)
    return out


def _greedy_core(probes: list[Probe], rho1: float, max_probes: int,
                 floor: float, hull_cap: int = 96,
                 cell_budget: float = _CELL_BUDGET,
                 stop_area: float = 0.0) -> tuple[list[Probe], bool, float]:
    """Shared filling loop; resolution tracks the next probe radius.

    The uncovered-area bound is monotone at any fixed resolution since
    every accepted probe removes a positive amount of uncovered cell
    area; the loop stops once the schedule provably lacks the capacity
    (or probe size) to close the remaining gaps.
    """
    probes = list(probes)
    area_prev = math.inf
    while True:
        m = len(probes)
        r_next = rho1 ** (m + 1)
        min_cell = max(floor, min(_SEARCH_MIN_CELL, r_next / 8.0))
        if math.isfinite(area_prev):
            min_cell = max(min_cell, math.sqrt(area_prev / cell_budget))
        report = certify_coverage(probes, min_cell, refine_uncovered=True)
        if report.certified_covered:
            return probes, True, 0.0
        area = report.uncovered_area_upper_bound
        if area <= stop_area:
            # close enough for a heuristic fitness verdict; real
            # certification happens in greedy_fill
            return probes, True, area
        if (m >= max_probes
                or _schedule_capacity(rho1, m) < 0.5 * area
                or r_next < 4.0 * floor):
            return probes, False, area
        regions = sorted(report.uncovered_regions,
                         key=lambda c: -float(((2.0 * c[:, 2]) ** 2).sum()))
        if r_next < regions[0][:, 2].max():
            return probes, False, area
        center = _best_chord_probe(regions, r_next, hull_cap)
        if center is None:
            return probes, False, area
        probes.append(Probe(Point2(center[0], center[1]), r_next))
        area_prev = area


def greedy_fill(initial: LayerPlacement,
                max_probes: int | None = None) -> LayerPlacement:
    """Extend a partial geometric-schedule layer to a certified cover.

    Repeatedly certifies the current probes, takes the largest uncovered
    region, and adds the next schedule probe (radius rho1^(m+1)) through
    the pair of points on the region's convex hull that removes the most
    uncovered area.  Raises :class:`CertificationError` when the
    remaining schedule cannot close the gaps; the partial placement is
    attached to the error as ``placement``.
    """
    if initial.rho1 is None:
        raise ValueError("greedy_fill needs a geometric-schedule placement")
    rho1 = initial.rho1
    budget = max_probes if max_probes is not None else _GREEDY_MAX_PROBES
    if certify_coverage(list(initial.probes), _FINAL_MIN_CELL).certified_covered:
        return LayerPlacement(initial.algorithm_id, tuple(initial.probes),
                              rho1, True, "disk")
    probes, ok, _ = _greedy_core(list(initial.probes), rho1, budget,
                                 _FINAL_MIN_CELL)
    if ok and certify_coverage(probes, _FINAL_MIN_CELL).certified_covered:
        return LayerPlacement(initial.algorithm_id, tuple(probes), rho1,
                              True, "disk")
    err = CertificationError(
        f"greedy fill stalled at {len(probes)} probes for rho1 = {rho1}")
    err.placement = LayerPlacement(initial.algorithm_id, tuple(probes),
                                   rho1, False, "disk")
    raise err


def alg7_layer() -> LayerPlacement:
    """The reproduced darting layer: the perimeter-tiling construction at
    base ALG7_RHO1 minus its final probe, completed by ``greedy_fill``."""
    seed = construct_layer("ALG4", ALG7_RHO1)
    partial = LayerPlacement("ALG7", seed.probes[:4], ALG7_RHO1, False, "disk")
    return greedy_fill(partial)


# ---------------------------------------------------------------------------
# Differential evolution over the six leading probes
# ---------------------------------------------------------------------------

def _decode(vector: np.ndarray) -> tuple[float, list[Probe]]:
    rho1 = float(vector[0])
    probes = []
    for i in range(6):
        angle = float(vector[2 * i + 1])
        dist = float(vector[2 * i + 2])
        probes.append(Probe(Point2(dist * math.cos(angle),
                                   dist * math.sin(angle)), rho1 ** (i + 1)))
    return rho1, probes


def _fitness(vector: np.ndarray, config: OptimizerConfig) -> float:
    """Probe coefficient after greedy filling, penalized when uncovered.

    The residual of the six seed probes is measured coarsely first; the
    greedy filler only runs when the remaining schedule capacity can
    plausibly close the gaps, which keeps hopeless individuals cheap.
    """
    rho1, probes = _decode(vector)
    c = -1.0 / math.log2(rho1)
    report = certify_coverage(probes, _FITNESS_MIN_CELL, refine_uncovered=True)
    if report.certified_covered:
        return c
    area = report.uncovered_area_upper_bound
    capacity = _schedule_capacity(rho1, 6)
    if area > capacity:
        return _PENALTY + c + (area - capacity)
    filled, ok, residual = _greedy_core(probes, rho1,
                                        config.greedy_max_probes,
                                        _FITNESS_FLOOR, hull_cap=32,
                                        cell_budget=_FITNESS_CELL_BUDGET,
                                        stop_area=_FITNESS_STOP_AREA)
    if not ok:
        return _PENALTY + c + residual
    return c


# warm-start arrangement for the six leading probes, found by earlier
# (longer) evolution runs: one large probe offset from the center plus
# five boundary probes; (angle, distance) pairs, rotation-normalized so
# the first probe sits on the positive x-axis
_WARM_START = (
    (0.0, 0.407), (2.720, 0.700), (4.754, 0.818),
    (3.856, 0.773), (1.710, 0.866), (1.209, 0.905),
)


def _structured_individuals(config: OptimizerConfig) -> list[np.ndarray]:
    """Deterministic heuristic seeds: the warm-start arrangement at
    several bases, a central probe surrounded by a ring of boundary
    probes, and an all-boundary ring."""
    lo, hi = config.rho1_bounds
    seeds = []
    for rho1 in (0.777, 0.772, 0.5 * (lo + hi), hi):
        if lo <= rho1 <= hi:
            seeds.append(np.array(
                [rho1] + [v for pair in _WARM_START for v in pair]))
    for rho1 in (hi, 0.5 * (lo + hi)):
        central = [rho1, 0.0, 0.0]
        ring = []
        angle = 0.0
        for k in range(2, 7):
            r = rho1 ** k
            width = math.asin(min(1.0, r))
            angle += width
            ring += [angle, math.sqrt(max(0.0, 1.0 - r * r))]
            angle += width
        seeds.append(np.array(central + ring))
        spread = [rho1]
        angle = 0.0
        for k in range(1, 7):
            r = rho1 ** k
            width = math.asin(min(1.0, r))
            angle += width
            spread += [angle, math.sqrt(max(0.0, 1.0 - r * r))]
            angle += width
        seeds.append(np.array(spread))
    return seeds


def evolve_initial(config: OptimizerConfig | None = None) -> LayerPlacement:
    """Differential evolution (rand/1/bin) over the first six probes.

    The 13-dimensional genome is the schedule base rho1 followed by an
    (angle, radial distance) pair per probe; radii are pinned to the
    geometric schedule rho1^k.  Fitness is the probe coefficient of the
    greedy-filled layer with a +100 penalty for uncovered results.  The
    best individuals are refilled at full resolution and certified; the
    run is bit-reproducible for a fixed seed.
    """
    config = config or OptimizerConfig()
    rng = np.random.default_rng(config.seed)
    lo = np.array([config.rho1_bounds[0]] + [0.0, 0.0] * 6)
    hi = np.array([config.rho1_bounds[1]] + [2.0 * math.pi, 1.0] * 6)
    dim = lo.size

    population = [np.clip(s, lo, hi) for s in _structured_individuals(config)]
    while len(population) < config.population:
        population.append(lo + (hi - lo) * rng.random(dim))
    population = population[:config.population]
    fitness = [_fitness(ind, config) for ind in population]
    # keep the pristine heuristic seeds aside: evolution replaces slots in
    # place, and a mutant can win the coarse fitness yet fail the final
    # full-resolution certification
    archive = [(fitness[i], population[i].copy())
               for i in range(len(population)) if fitness[i] < _PENALTY]

    f, cr = config.mutation_factor, config.crossover_rate
    for _ in range(config.generations):
        for i in range(config.population):
            choices = [j for j in range(config.population) if j != i]
            r1, r2, r3 = rng.choice(choices, size=3, replace=False)
            mutant = np.clip(population[r1]
                             + f * (population[r2] - population[r3]), lo, hi)
            cross = rng.random(dim) < cr
            cross[rng.integers(dim)] = True
            trial = np.where(cross, mutant, population[i])
            trial_fit = _fitness(trial, config)
            if trial_fit <= fitness[i]:
                population[i] = trial
                fitness[i] = trial_fit

    # candidate order: the three best evolved individuals, then the whole
    # archive -- evolved mutants can win the coarse fitness yet stall at
    # full resolution, while archived seeds are known-good fallbacks
    evolved = sorted(((fitness[i], population[i])
                      for i in range(config.population)),
                     key=lambda pair: pair[0])[:3]
    candidates = sorted(evolved + archive, key=lambda pair: pair[0])
    tried: list[np.ndarray] = []
    for fit, vector in candidates:
        if fit >= _PENALTY:
            break
        if any(np.array_equal(vector, seen) for seen in tried):
            continue
        tried.append(vector)
        rho1, probes = _decode(vector)
        partial = LayerPlacement("ALG8", tuple(probes), rho1, False, "disk")
        try:
            final = greedy_fill(partial, config.greedy_max_probes)
        except CertificationError:
            continue
        assert probe_coefficient(final) <= -1.0 / math.log2(rho1) + 1e-9
        return final
    err = CertificationError(
        "no certified individual after all generations")
    rho1, probes = _decode(candidates[0][1])
    err.placement = LayerPlacement("ALG8", tuple(probes), rho1, False, "disk")
    raise err

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
from typing import Sequence

import numpy as np

from ._fork import fork_map
from .geometry import (
    Face,
    Point2,
    Probe,
    uncovered_faces,
    _TOL,
    _convex_hull,
)
from .placements import CertificationError, LayerPlacement, construct_layer

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

# the greedy filler adds no probe of radius below 4 * floor
_FINAL_FLOOR = 1e-6
# added to the fitness of an individual whose fill stalls
_PENALTY = 100.0
# probes a greedy-filled layer may reach
_GREEDY_MAX_PROBES = 45
# chord hull sampling: points r/2 apart, spread out to about this many
_HULL_CAP = 96
# chord search: hull-point pairs per block, and elements of each of the
# two (candidates, points) scoring buffers
_PAIR_BLOCK = 4096
_SCORE_CHUNK = 1 << 16
# scoring grid: about this many points in the largest face, and at most
# this many in the box they are drawn from
_FACE_POINTS = 4000
_BOX_POINTS = 65536


# differential evolution: population size, mutation factor, crossover
# rate, and the range of the schedule base rho1
_POPULATION = 16
_MUTATION = 0.7
_CROSSOVER = 0.9
_RHO1_BOUNDS = (0.76, 0.80)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of one placement evolution."""

    generations: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 0:
            raise ValueError("generations must be non-negative")


# ---------------------------------------------------------------------------
# Greedy hull-chord gap filling
# ---------------------------------------------------------------------------

def _schedule_capacity(rho1: float, m: int) -> float:
    """Total area of all probes the schedule can still provide after m."""
    return math.pi * rho1 ** (2 * (m + 1)) / (1.0 - rho1 * rho1)


def _densify_hull(hull: np.ndarray, spacing: float) -> np.ndarray:
    """Points along the hull boundary, at most ``spacing`` apart.

    The spacing is widened to perimeter / _HULL_CAP, which aims at about
    _HULL_CAP points; the output is not capped, since every hull edge
    contributes at least its start point.
    """
    edge = np.roll(hull, -1, axis=0) - hull
    length = [math.hypot(dx, dy) for dx, dy in edge.tolist()]
    spacing = max(spacing, sum(length) / _HULL_CAP)
    steps = np.maximum(1, np.ceil(np.array(length) / spacing)).astype(np.intp)
    # edge i from a to b gives a + (b - a) * (t / steps), t < steps
    start = np.cumsum(steps) - steps
    t = np.arange(steps.sum()) - np.repeat(start, steps)
    frac = t / np.repeat(steps, steps)
    a = np.repeat(hull, steps, axis=0)
    return a + np.repeat(edge, steps, axis=0) * frac[:, None]


def _best_chord_probe(hull: np.ndarray, points: np.ndarray,
                      r: float) -> tuple[float, float] | None:
    """Center of the radius-r circle through two points along ``hull``
    whose closed disk holds the most scoring ``points``, or None when no
    such disk holds one.

    Candidates are the two centers of each pair (i, j), i < j, of points
    along the hull, taken in (i, j, +/-) order; the first one with the
    highest count wins.  A count is an integer, so it comes out the same
    whatever order its points are added in.

    Most points lie far from any one candidate, so each candidate is
    counted only against the points near it: candidates are grouped in
    square tiles of side r/2, and a tile's candidates against the points
    in the box of their centers widened by r plus a margin, which holds
    every point the exact test accepts.

    A tile's bound, the number of its near points, caps every count in
    it, so within a block of pairs the tiles are scored in descending
    order of bound, up to the first whose bound is at most the best
    count of earlier blocks or below the best count scored in this
    block: no candidate there or in a later tile can be the first with
    the highest count.  Counts are exact, so a tie is scored, and a
    candidate beaten by a later one in scan order is rightly skipped.
    """
    pts = _densify_hull(hull, r / 2.0)
    # row-major points, as _face_targets gives them, are already in y order
    by_y = np.argsort(points[:, 1], kind="stable")
    bx, by = points[by_y, 0], points[by_y, 1]
    # a point the exact test accepts lies within r of the center, up to
    # rounding far below this margin
    reach = r + 1e-9
    tile = 0.5 * r
    buf = tuple(np.empty(max(_SCORE_CHUNK, bx.size)) for _ in range(2))

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
        # tile t holds the candidates order[first[t]:stop[t]]; its box of
        # centers, widened by reach, bounds its near points: those with
        # x_lo <= x < x_hi and y_lo <= y <= y_hi, taken from the slab of
        # rows between y_lo and y_hi
        first = np.concatenate([[0], cut])
        stop = np.append(cut, order.size).tolist()
        sx, sy = cx[order], cy[order]
        x_lo = (np.minimum.reduceat(sx, first) - reach).tolist()
        x_hi = (np.maximum.reduceat(sx, first) + reach).tolist()
        y_lo = np.searchsorted(by, np.minimum.reduceat(sy, first) - reach)
        y_hi = np.searchsorted(by, np.maximum.reduceat(sy, first) + reach,
                               side="right")
        spans = []
        bound = np.empty(first.size)
        for t, (lo, hi) in enumerate(zip(y_lo.tolist(), y_hi.tolist())):
            near = (bx[lo:hi] >= x_lo[t]) & (bx[lo:hi] < x_hi[t])
            spans.append((lo, hi, near))
            bound[t] = np.count_nonzero(near)
        # skipped candidates score -inf
        scores = np.full(cx.size, -np.inf)
        top = -np.inf
        for t in np.argsort(-bound, kind="stable").tolist():
            if bound[t] <= best_score or bound[t] < top:
                break
            group = order[first[t]:stop[t]]
            lo, hi, near = spans[t]
            got = _near_scores(bx[lo:hi][near], by[lo:hi][near],
                               cx[group], cy[group], r, buf)
            scores[group] = got
            top = max(top, got.max())
        # the first candidate with the highest count was never skipped,
        # and every candidate before it counts less
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = float(scores[k])
            best = (float(cx[k]), float(cy[k]))
    return best


def _near_scores(sx: np.ndarray, sy: np.ndarray, cx: np.ndarray,
                 cy: np.ndarray, r: float,
                 buf: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per closed disk (cx, cy, r), the number of points (sx, sy) inside
    it, counted in chunks held by the two ``buf`` arrays."""
    n = sx.size
    out = np.empty(cx.size)
    rows = max(1, buf[0].size // max(1, n))
    for k in range(0, cx.size, rows):
        m = min(rows, cx.size - k)
        a = buf[0][:m * n].reshape(m, n)
        b = buf[1][:m * n].reshape(m, n)
        np.subtract(sx, cx[k:k + m, None], out=a)
        np.multiply(a, a, out=a)
        np.subtract(sy, cy[k:k + m, None], out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        np.less_equal(a, r * r, out=a)
        a.sum(axis=1, out=out[k:k + m])
    return out


def _face_targets(face: Face, probes: list[Probe],
                  r: float) -> tuple[np.ndarray, np.ndarray]:
    """The chord hull of ``face`` for a probe of radius r, and the
    scoring points.

    The hull is that of points r/4 apart along the face's arcs.  The
    scoring points are the points of a square grid that lie in the unit
    disk and in no probe disk dilated by the coverage tolerance ``_TOL``,
    within the hull's box widened by 2r, the reach of any candidate disk.
    The grid spacing gives the face about _FACE_POINTS points and the box
    at most _BOX_POINTS.  The points come in row-major order.

    The grid is never built whole.  A point (x, y) lies in the circle
    (cx, cy, R) when (x - cx)**2 + (y - cy)**2 <= R**2, evaluated in
    float64 as written; each rounding step is monotone, so the test is
    monotone in |x - cx| and the points a circle holds on one grid row
    form one run of columns.  The half-width sqrt(R**2 - dy**2) puts each
    end of a run within one column of the exact end, and ``_run_end``
    fixes it by the exact test on the estimated column and its two
    neighbours.  One column of slack suffices: the exact test's bound on
    |x - cx| exceeds the half-width by at most sqrt(ulp(R**2) / 2), under
    1.5e-8 for R <= 1 + _TOL, while the spacing is at least 2r/256, the
    box being at least 2r wide and tall: 3.1e-8 at the filler's floor
    r >= 4e-6.  The rest of the column arithmetic rounds by far less,
    though it can tip an estimate that falls on a column to the next.
    The kept points are the gaps between the removed runs (the probes'
    runs and the columns outside the unit disk's run), merged over the
    whole grid.
    """
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
    xs = np.arange(x_lo + 0.5 * h, x_hi, h)
    ys = np.arange(y_lo + 0.5 * h, y_hi, h)
    nx, ny = xs.size, ys.size
    if not nx or not ny:
        return hull, np.empty((0, 2))
    # the unit disk first, then the probes that reach the box
    circles = [(0.0, 0.0, 1.0)]
    for p in probes:
        reach = p.rho + _TOL
        if not (p.center.x + reach < x_lo or p.center.x - reach > x_hi
                or p.center.y + reach < y_lo or p.center.y - reach > y_hi):
            circles.append((p.center.x, p.center.y, reach))
    cx, cy, reach = np.array(circles).T
    r2 = reach * reach
    dy = ys - cy[:, None]
    dy2 = dy * dy
    # (circle, row) pairs whose run may hold a column: with dy2 > R**2 the
    # rounded sum exceeds R**2 whatever dx is
    circle, row = np.nonzero(dy2 <= r2[:, None])
    dy2 = dy2[circle, row]
    cx, r2 = cx[circle], r2[circle]
    half = np.sqrt(r2 - dy2)
    first = _run_end(xs, cx, dy2, r2, np.ceil((cx - half - xs[0]) / h), True)
    last = _run_end(xs, cx, dy2, r2, np.floor((cx + half - xs[0]) / h), False)
    # removed runs in global columns row * (nx + 1) + col, inclusive; a
    # run with last < first is empty.  Column nx of each row is removed
    # as outside the unit disk, so no gap crosses into the next row
    stride = nx + 1
    base = row * stride
    # the unit disk removes the columns before its first and after its
    # last; when its run is empty, last < first and the two cover the row
    disk, probe = circle == 0, circle > 0
    d_first = np.full(ny, nx)
    d_last = np.full(ny, -1)
    d_first[row[disk]] = first[disk]
    d_last[row[disk]] = last[disk]
    d_base = np.arange(ny) * stride
    lo = np.concatenate([d_base, d_base + d_last + 1,
                         base[probe] + first[probe]])
    hi = np.concatenate([d_base + d_first - 1, d_base + nx,
                         base[probe] + last[probe]])
    # an empty run must not end before the column left of its start, or
    # the gaps on either side of it would overlap
    hi = np.maximum(hi, lo - 1)
    order = np.argsort(lo)
    lo = np.append(lo[order], ny * stride)
    hi = np.maximum.accumulate(hi[order])
    # kept points: the gaps between the running end and the next start
    gap_lo = np.concatenate([[0], hi + 1])
    size = np.maximum(lo - gap_lo, 0)
    at = (np.repeat(gap_lo - np.cumsum(size) + size, size)
          + np.arange(size.sum()))
    rows, cols = np.divmod(at, stride)
    return hull, np.column_stack([xs[cols], ys[rows]])


def _run_end(xs: np.ndarray, cx: np.ndarray, dy2: np.ndarray,
             r2: np.ndarray, guess: np.ndarray, low: bool) -> np.ndarray:
    """Per run, the first (``low``) or last of the columns guess - 1,
    guess and guess + 1, clipped to the grid, whose point passes the
    exact test dx*dx + dy2 <= r2; nx (first) or -1 (last) where none does.

    The test is monotone in |dx|, so this is the run's exact end within
    the grid whenever ``guess`` lies within one column of the end on the
    unclipped grid, which ``_face_targets`` shows its estimate does.
    """
    nx = xs.size
    cols = np.clip(guess.astype(np.intp)[:, None] + np.arange(-1, 2),
                   0, nx - 1)
    dx = xs[cols] - cx[:, None]
    inside = dx * dx + dy2[:, None] <= r2[:, None]
    if low:
        return np.where(inside, cols, nx).min(axis=1)
    return np.where(inside, cols, -1).max(axis=1)


def _greedy_core(probes: Sequence[Probe],
                 rho1: float) -> tuple[list[Probe], bool, float]:
    """The filling loop: each pass adds the next schedule probe at the
    best chord of the largest uncovered face.

    Returns the probes, whether they cover the disk, and the uncovered
    area.  The loop stops once the probes the schedule can still add
    have less total area than the gap, or would fall below the floor or
    the budget, or no chord reaches an uncovered scoring point.
    """
    probes = list(probes)
    while True:
        m = len(probes)
        r_next = rho1 ** (m + 1)
        covered, area, faces = uncovered_faces(probes)
        if covered:
            return probes, True, 0.0
        if (m >= _GREEDY_MAX_PROBES or not faces
                or _schedule_capacity(rho1, m) < area
                or r_next < 4.0 * _FINAL_FLOOR):
            return probes, False, area
        center = _best_chord_probe(*_face_targets(faces[0], probes, r_next),
                                   r_next)
        if center is None:
            return probes, False, area
        probes.append(Probe(Point2(center[0], center[1]), r_next))


def greedy_fill(initial: LayerPlacement) -> LayerPlacement:
    """Extend a partial geometric-schedule layer to a certified cover.

    Repeatedly measures the uncovered faces of the current probes, takes
    the largest, and adds the next schedule probe (radius rho1^(m+1))
    through the pair of points on the face's convex hull whose disk holds
    the most uncovered grid points, until ``uncovered_faces``, whose
    verdict is that of ``certify_coverage``, finds the disk covered.
    Raises :class:`CertificationError` when the remaining schedule cannot
    close the gaps; the partial placement is attached to the error as
    ``placement``.
    """
    if initial.rho1 is None:
        raise ValueError("greedy_fill needs a geometric-schedule placement")
    rho1 = initial.rho1
    probes, ok, _ = _greedy_core(initial.probes, rho1)
    if ok:
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


def _base_coefficient(vector: np.ndarray) -> float:
    """Probe coefficient of a covering geometric schedule: a lower bound
    on the fitness of ``vector``."""
    return -1.0 / math.log2(float(vector[0]))


def _fitness(vector: np.ndarray) -> tuple[float, list[Probe]]:
    """The greedy fill of the six decoded probes, with its fitness: the
    probe coefficient when the fill covers the disk, else that plus
    _PENALTY plus the uncovered area.

    This is the fill ``greedy_fill`` runs, so a fitness below _PENALTY
    means the filled probes cover the disk.
    """
    rho1, probes = _decode(vector)
    c = _base_coefficient(vector)
    filled, covered, residual = _greedy_core(probes, rho1)
    if covered:
        return c, filled
    return _PENALTY + c + residual, filled


# warm-start arrangement for the six leading probes, found by earlier
# (longer) evolution runs: one large probe offset from the center plus
# five boundary probes; (angle, distance) pairs, rotation-normalized so
# the first probe sits on the positive x-axis
_WARM_START = (
    (0.0, 0.407), (2.720, 0.700), (4.754, 0.818),
    (3.856, 0.773), (1.710, 0.866), (1.209, 0.905),
)


def _chord_ring(rho1: float, ks: range) -> list[float]:
    """(angle, distance) genes of chord probes rho1^k, k in ``ks``, placed
    counterclockwise with abutting perimeter arcs."""
    genes = []
    angle = 0.0
    for k in ks:
        r = rho1 ** k
        width = math.asin(min(1.0, r))
        angle += width
        genes += [angle, math.sqrt(max(0.0, 1.0 - r * r))]
        angle += width
    return genes


def _structured_individuals() -> list[np.ndarray]:
    """Deterministic heuristic seeds: the warm-start arrangement at
    several bases, a central probe surrounded by a ring of boundary
    probes, and an all-boundary ring."""
    lo, hi = _RHO1_BOUNDS
    seeds = [np.array([rho1] + [v for pair in _WARM_START for v in pair])
             for rho1 in (0.777, 0.772, 0.5 * (lo + hi), hi)]
    for rho1 in (hi, 0.5 * (lo + hi)):
        seeds.append(np.array([rho1, 0.0, 0.0]
                              + _chord_ring(rho1, range(2, 7))))
        seeds.append(np.array([rho1] + _chord_ring(rho1, range(1, 7))))
    return seeds


def evolve_initial(config: OptimizerConfig | None = None) -> LayerPlacement:
    """Differential evolution (rand/1/bin) over the first six probes.

    The 13-dimensional genome is the schedule base rho1 followed by an
    (angle, radial distance) pair per probe; radii are pinned to the
    geometric schedule rho1^k.  Fitness is the probe coefficient of the
    greedy-filled layer with a +100 penalty for uncovered results.  Each
    slot keeps its filled probes, and the best slot's are returned: a
    fitness below the penalty means the fill's own coverage pass found
    them covering the disk.  The run is bit-reproducible for a fixed
    seed.  Raises :class:`CertificationError` with the best slot's
    placement attached as ``placement`` when no slot covers the disk.

    The initial population is scored by ``_fork.fork_map``: in up to one
    process per usable CPU, or in-process where a fork is not safe (off
    Linux, or with other threads running).  ``_fitness`` draws no random
    numbers, so the scores do not depend on the process count.  The
    generations stay serial, as each trial reads slots that earlier
    trials may have replaced.
    """
    config = config or OptimizerConfig()
    rng = np.random.default_rng(config.seed)
    lo = np.array([_RHO1_BOUNDS[0]] + [0.0, 0.0] * 6)
    hi = np.array([_RHO1_BOUNDS[1]] + [2.0 * math.pi, 1.0] * 6)
    dim = lo.size

    population = [np.clip(s, lo, hi) for s in _structured_individuals()]
    while len(population) < _POPULATION:
        population.append(lo + (hi - lo) * rng.random(dim))
    scored = fork_map(_fitness, population)
    fitness = [fit for fit, _ in scored]
    filled = [probes for _, probes in scored]

    for _ in range(config.generations):
        for i in range(_POPULATION):
            choices = [j for j in range(_POPULATION) if j != i]
            r1, r2, r3 = rng.choice(choices, size=3, replace=False)
            mutant = np.clip(population[r1] + _MUTATION
                             * (population[r2] - population[r3]), lo, hi)
            cross = rng.random(dim) < _CROSSOVER
            cross[rng.integers(dim)] = True
            trial = np.where(cross, mutant, population[i])
            # no fitness falls below the base coefficient, and _fitness
            # draws no random numbers: a trial that cannot be accepted
            # need not be scored
            if _base_coefficient(trial) > fitness[i]:
                continue
            trial_fit, trial_filled = _fitness(trial)
            if trial_fit <= fitness[i]:
                population[i] = trial
                fitness[i] = trial_fit
                filled[i] = trial_filled

    best = min(range(_POPULATION), key=fitness.__getitem__)
    rho1, probes = float(population[best][0]), tuple(filled[best])
    if fitness[best] < _PENALTY:
        return LayerPlacement("ALG8", probes, rho1, True, "disk")
    err = CertificationError(
        f"no certified individual after all generations; the best stalled "
        f"at {len(probes)} probes for rho1 = {rho1}")
    err.placement = LayerPlacement("ALG8", probes, rho1, False, "disk")
    raise err

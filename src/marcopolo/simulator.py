"""Search execution against hidden worlds.

Implements the single-POI recursive descent (with last-probe omission and
rotation of each layer toward the searcher), the memoryless find-all
protocol with doubling re-probes, a reference TSP value for competitive
checks, and a vectorized batch of single-POI descents for Monte Carlo
campaigns.  The response-limited hexagonal family runs through
``run_single`` on a ``hexfam_layer``.

Each layer placement lives on the unit disk and is scaled/rotated into the
current search area.  ``run_single`` keeps positions absolute; ``run_batch``
keeps each trial in its current area's frame, so it resolves large n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Point2, Probe
from .placements import LayerPlacement

_EPS = 1e-9
_BATCH_CHUNK = 4096  # POIs per slice of run_batch


@dataclass
class World:
    """Hidden ground truth: search radius and POI positions."""

    n: float
    pois: list[Point2]
    active: list[bool] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("search radius must be at least 1")
        if not self.active:
            self.active = [True] * len(self.pois)
        if not any(self.active):
            raise ValueError("world needs at least one active POI")
        if all(math.hypot(p.x, p.y) > self.n + _EPS
               for p, a in zip(self.pois, self.active) if a):
            raise ValueError("no active POI inside the search region")


@dataclass
class SearchState:
    area_center: Point2
    area_radius: float
    delta_pos: Point2
    rotation: float = 0.0


@dataclass
class SearchTrace:
    probes: int = 0
    distance: float = 0.0
    responses: int = 0
    path: list[Point2] = field(default_factory=list)
    success: bool = False
    found_poi: int = -1
    containment_lost: bool = False


def probe(world: World, center: Point2, d: float) -> bool:
    """True iff an active POI lies within closed distance d of center."""
    if d <= 0:
        raise ValueError("probe radius must be positive")
    return any(a and math.hypot(p.x - center.x, p.y - center.y) <= d + _EPS
               for p, a in zip(world.pois, world.active))


def _rotation_toward(placement: LayerPlacement, state: SearchState) -> float:
    """Rotation angle placing the first probe center nearest the searcher."""
    first = placement.probes[0].center
    d1 = math.hypot(first.x, first.y)
    dx = state.delta_pos.x - state.area_center.x
    dy = state.delta_pos.y - state.area_center.y
    if d1 < _EPS or math.hypot(dx, dy) < _EPS:
        return 0.0
    return math.atan2(dy, dx) - math.atan2(first.y, first.x)


def _abs_probe(p: Probe, state: SearchState) -> tuple[Point2, float]:
    c, s = math.cos(state.rotation), math.sin(state.rotation)
    x = state.area_center.x + state.area_radius * (c * p.center.x - s * p.center.y)
    y = state.area_center.y + state.area_radius * (s * p.center.x + c * p.center.y)
    return Point2(x, y), state.area_radius * p.rho


def _target_poi(world: World, state: SearchState) -> int:
    best, best_d = -1, math.inf
    for i, (p, a) in enumerate(zip(world.pois, world.active)):
        if not a:
            continue
        d = math.hypot(p.x - state.area_center.x, p.y - state.area_center.y)
        if d <= state.area_radius + _EPS and d < best_d:
            best, best_d = i, d
    return best


def run_single(placement: LayerPlacement, world: World,
               start: SearchState | None = None,
               adversarial: bool = False) -> SearchTrace:
    """Recursive single-POI descent with last-probe omission.

    Probes 1..m-1 are issued in order (the searcher walks the straight legs
    between probe centers); on the first positive response the search
    recurses into that probe's disk, otherwise into the omitted last
    probe's disk without visiting its center.  Each layer is rotated so
    its first probe center faces the searcher's current position.

    ``adversarial`` replaces the world's responses with the deterministic
    worst case (the POI is always found in the last executed probe).
    Containment of the target POI is asserted at every step; placements
    that only certify perimeter coverage may lose containment through an
    interior gap, which is reported via ``containment_lost`` instead.
    """
    state = start or SearchState(Point2(0.0, 0.0), world.n, Point2(0.0, 0.0))
    trace = SearchTrace(path=[state.delta_pos])
    target = _target_poi(world, state)
    if target < 0 and not adversarial:
        raise ValueError("no active POI inside the start area")

    while state.area_radius > 1.0:
        state.rotation = _rotation_toward(placement, state)
        m = placement.m
        hit = -1
        for k in range(m - 1):
            center, radius = _abs_probe(placement.probes[k], state)
            trace.distance += math.hypot(center.x - state.delta_pos.x,
                                         center.y - state.delta_pos.y)
            state.delta_pos = center
            trace.path.append(center)
            trace.probes += 1
            if adversarial:
                positive = k == m - 2
            else:
                p = world.pois[target]
                positive = math.hypot(p.x - center.x, p.y - center.y) \
                    <= radius + _EPS
            if positive:
                trace.responses += 1
                hit = k
                break
        if hit < 0:
            hit = m - 1  # omitted probe: inferred, not issued, no response
        center, radius = _abs_probe(placement.probes[hit], state)
        state = SearchState(center, radius, state.delta_pos)
        if not adversarial:
            p = world.pois[target]
            if math.hypot(p.x - center.x, p.y - center.y) > radius + _EPS:
                if placement.coverage == "perimeter":
                    trace.containment_lost = True
                else:
                    raise RuntimeError(
                        "POI escaped the search area: geometry bug")

    trace.distance += math.hypot(state.area_center.x - state.delta_pos.x,
                                 state.area_center.y - state.delta_pos.y)
    state.delta_pos = state.area_center
    trace.path.append(state.delta_pos)
    if not adversarial:
        p = world.pois[target]
        trace.success = math.hypot(p.x - state.delta_pos.x,
                                   p.y - state.delta_pos.y) <= 1.0 + _EPS
        trace.found_poi = target if trace.success else -1
    return trace


# ---------------------------------------------------------------------------
# Memoryless find-all
# ---------------------------------------------------------------------------

@dataclass
class FindAllResult:
    p_tot: int  # probes excluding termination probes
    d_tot: float
    termination_probes: int
    gaps: list[float]  # localized search radii 2^ceil(log2 e_i)
    traces: list[SearchTrace]
    found: list[int]

    @property
    def all_found(self) -> bool:
        return all(t.success for t in self.traces)


def find_all(placement: LayerPlacement, world: World) -> FindAllResult:
    """Find every active POI: single-POI search, shut off, then doubling
    probes from the searcher's position until the next POI responds.

    Termination (the paper leaves it open): once a doubling probe of radius
    at least 2n is negative, a final radius-2n probe at the original origin
    confirms no active POI remains; these probes are counted separately.
    """
    work = World(world.n, list(world.pois), list(world.active))
    trace0 = run_single(placement, work)
    if not trace0.success:
        raise RuntimeError("initial single-POI search failed")
    result = FindAllResult(trace0.probes, trace0.distance, 0, [], [trace0],
                           [trace0.found_poi])
    delta = trace0.path[-1]
    while True:
        work.active[result.found[-1]] = False
        radius = 2.0
        responded = False
        while True:
            if probe(work, delta, radius):
                responded = True
                break
            if radius >= 2.0 * world.n:
                break
            result.p_tot += 1  # counted below when a POI follows
            radius *= 2.0
        if not responded:
            # the failed doubling ladder becomes termination overhead
            result.p_tot -= int(math.log2(radius / 2.0))
            result.termination_probes += int(math.log2(radius / 2.0)) + 1
            if probe(work, Point2(0.0, 0.0), 2.0 * world.n):
                raise RuntimeError("termination check missed an active POI")
            result.termination_probes += 1
            return result
        result.p_tot += 1  # the positive doubling probe
        result.gaps.append(radius)
        trace = run_single(placement, work,
                           SearchState(delta, radius, delta))
        if not trace.success:
            raise RuntimeError("follow-up single-POI search failed")
        result.p_tot += trace.probes
        result.d_tot += trace.distance
        result.traces.append(trace)
        result.found.append(trace.found_poi)
        delta = trace.path[-1]


# ---------------------------------------------------------------------------
# Reference tour length
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TourLength:
    length: float
    exact: bool


def tsp_reference(pois: list[Point2]) -> TourLength:
    """Closed-tour length over the POIs: exact Held-Karp dynamic program
    for up to 12 points, nearest-neighbor plus 2-opt beyond (approximate)."""
    k = len(pois)
    if k < 2:
        raise ValueError("need at least two POIs")
    pts = np.array([[p.x, p.y] for p in pois])
    dist = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                    pts[:, None, 1] - pts[None, :, 1])
    if k <= 12:
        return TourLength(_held_karp(dist), True)
    return TourLength(_two_opt(dist), False)


def _held_karp(dist: np.ndarray) -> float:
    k = dist.shape[0]
    full = 1 << (k - 1)  # subsets of cities 1..k-1; city 0 is the anchor
    dp = np.full((full, k - 1), np.inf)
    for j in range(k - 1):
        dp[1 << j, j] = dist[0, j + 1]
    for mask in range(1, full):
        for j in range(k - 1):
            if not mask & (1 << j) or not np.isfinite(dp[mask, j]):
                continue
            base = dp[mask, j]
            for nxt in range(k - 1):
                if mask & (1 << nxt):
                    continue
                new = base + dist[j + 1, nxt + 1]
                nm = mask | (1 << nxt)
                if new < dp[nm, nxt]:
                    dp[nm, nxt] = new
    return float(min(dp[full - 1, j] + dist[j + 1, 0] for j in range(k - 1)))


def _two_opt(dist: np.ndarray) -> float:
    k = dist.shape[0]
    tour = [0]
    left = set(range(1, k))
    while left:
        last = tour[-1]
        nxt = min(left, key=lambda j: dist[last, j])
        tour.append(nxt)
        left.remove(nxt)
    improved = True
    while improved:
        improved = False
        for i in range(1, k - 1):
            for j in range(i + 1, k):
                a, b = tour[i - 1], tour[i]
                c, d = tour[j], tour[(j + 1) % k]
                if dist[a, c] + dist[b, d] < dist[a, b] + dist[c, d] - 1e-12:
                    tour[i:j + 1] = tour[i:j + 1][::-1]
                    improved = True
    return float(sum(dist[tour[i], tour[(i + 1) % k]] for i in range(k)))


# ---------------------------------------------------------------------------
# Vectorized batch engine (Monte Carlo)
# ---------------------------------------------------------------------------

def run_batch(placement: LayerPlacement, n: float,
              poi_xy: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized single-POI searches for a batch of POI positions.

    Equivalent to ``run_single`` per row of ``poi_xy`` (shape (t, 2));
    returns arrays P (probes), D (distance), R (responses), success, lost.
    POIs are searched in slices of ``_BATCH_CHUNK`` rows.
    """
    z = np.array([complex(p.center.x, p.center.y) for p in placement.probes])
    rho = np.array([p.rho for p in placement.probes])
    t = poi_xy.shape[0]
    out = {"P": np.zeros(t, dtype=np.int64), "D": np.zeros(t),
           "R": np.zeros(t, dtype=np.int64),
           "success": np.zeros(t, dtype=bool), "lost": np.zeros(t, dtype=bool)}
    for lo in range(0, t, _BATCH_CHUNK):
        chunk = poi_xy[lo:lo + _BATCH_CHUNK]
        part = {k: v[lo:lo + _BATCH_CHUNK] for k, v in out.items()}
        _descend(z, rho, float(n), chunk[:, 0] + 1j * chunk[:, 1], part)
    return out


def _descend(z: np.ndarray, rho: np.ndarray, n: float, poi: np.ndarray,
             out: dict[str, np.ndarray]) -> None:
    """``run_batch`` on one slice of POIs, writing into the views ``out``.

    Each trial lives in the frame of its current search area, whose
    center is 0 and radius 1: ``q`` is the POI and ``w`` the searcher in
    that frame, ``s`` the area's absolute radius and ``o`` the frame's
    absolute rotation.  A level turns the frame so the first probe faces
    the searcher (``q <- q * turn``), then moves into the first probe
    holding the POI: ``q <- (q - z[hit]) / rho[hit]``, ``s <- s *
    rho[hit]``.  The tolerance is the absolute ``_EPS``, ``_EPS / s`` in
    frame units.  Finished trials are written out and dropped.
    """
    m = z.size
    d1 = abs(z[0])
    # the first probe's direction; the frame turns it toward the searcher
    face = z[0] / d1 if d1 >= _EPS else None
    # the omitted last probe holds every POI the issued ones miss
    reach = np.append(rho[:m - 1], np.inf)
    # walk from the first issued probe to probe k
    cum = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(z[:m - 1])))))
    idx = np.arange(poi.size)
    q = poi / n
    w = np.zeros(poi.size, dtype=complex)
    o = np.ones(poi.size, dtype=complex)
    s = np.full(poi.size, n)
    P = np.zeros(poi.size, dtype=np.int64)
    D = np.zeros(poi.size)
    R = np.zeros(poi.size, dtype=np.int64)
    lost = np.zeros(poi.size, dtype=bool)

    while True:
        done = s <= 1.0
        if done.any():
            i = idx[done]
            out["P"][i] = P[done]
            out["R"][i] = R[done]
            # the last leg walks to the final area's center
            out["D"][i] = D[done] + s[done] * np.abs(w[done])
            out["success"][i] = s[done] * np.abs(q[done]) <= 1.0 + _EPS
            out["lost"][i] = lost[done]
            keep = ~done
            idx, q, w, o, s = idx[keep], q[keep], w[keep], o[keep], s[keep]
            P, D, R, lost = P[keep], D[keep], R[keep], lost[keep]
        if idx.size == 0:
            return
        if face is not None:
            # a searcher at the area's center keeps absolute rotation 0
            mag = np.abs(w)
            centred = mag < _EPS / s
            turn = np.where(centred, o,
                            face * np.conj(w) / np.where(centred, 1.0, mag))
            o = np.where(centred, 1.0 + 0j, o * np.conj(turn))
            q = q * turn
            w = w * turn
        inside = np.abs(q[:, None] - z) <= reach + (_EPS / s)[:, None]
        hit = inside.argmax(axis=1)
        stop = np.minimum(hit, m - 2)
        D += s * (np.abs(z[0] - w) + cum[stop])
        P += stop + 1
        R += hit < m - 1
        w = (z[stop] - z[hit]) / rho[hit]
        q = (q - z[hit]) / rho[hit]
        s = s * rho[hit]
        lost |= np.abs(q) > 1.0 + _EPS / s

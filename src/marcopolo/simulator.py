"""Search execution against hidden worlds.

Implements the single-POI recursive descent (with last-probe omission and
rotation of each layer toward the searcher), the memoryless find-all
protocol with doubling re-probes, a reference TSP value for competitive
checks, and a vectorized batch of single-POI descents for Monte Carlo
campaigns.  The response-limited hexagonal family runs through
``run_single`` on a ``hexfam_layer``.

Each layer placement lives on the unit disk.  Both kernels, ``run_single``
and ``run_batch``, keep a search in the frame of its current area: the
area scaled to the unit disk and turned so the first probe faces the
searcher.  Positions stay relative to the area, so float64 resolves them
up to n = 2**52.  The kernels read the same per-layer constants
(``_frame``, built once per layer object) and round alike, so they agree
trial for trial, except on a POI whose disk test falls within an ulp:
NumPy's complex absolute value rounds apart from Python's.

A level's disk tests allow the absolute tolerance ``_EPS``.  In an area
larger than about 1e7 that is below the rounding of frame coordinates, and
a POI on a probe junction can test outside every probe; such a level is
decided again with a slack floored at ``_TOL_FLOOR`` (``_rescue``).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .geometry import Point2
from .placements import LayerPlacement

_EPS = 1e-9
# least slack of _rescue in frame units, far above the rounding of frame
# coordinates and of the stored probes
_TOL_FLOOR = 2.0 ** -40
_BATCH_CHUNK = 8192  # POIs per slice of run_batch
# run_batch's first-hit table: _GRID cells per side over [-1, 1]^2; a cell
# is decided only with this margin on every disk test, far above float64
# rounding and above every descent tolerance (_EPS / s < _EPS)
_GRID = 128
_MARGIN = 1e-7
# largest search radius: above 2**52 adjacent float64 values lie more than
# 1 apart, the unit localization radius
_MAX_N = 2.0 ** 52


@dataclass
class World:
    """Hidden ground truth: the search radius n and the POIs, each within
    n of the region's center, the origin."""

    n: float
    pois: list[Point2]

    def __post_init__(self) -> None:
        _check_radius(self.n)
        if not self.pois:
            raise ValueError("world needs at least one POI")
        for p in self.pois:
            if math.hypot(p.x, p.y) > self.n + _EPS:
                raise ValueError(f"POI ({p.x}, {p.y}) lies outside the "
                                 f"search region of radius {self.n}")


def _check_resolvable(n: float) -> None:
    """Reject a search radius float64 cannot resolve to unit distances."""
    if not math.isfinite(n) or n > _MAX_N:
        raise ValueError(f"search radius {n} is not finite or exceeds "
                         f"2**52, beyond unit float64 resolution")


def _check_radius(n: float) -> None:
    """Reject a search radius no search can run at."""
    _check_resolvable(n)
    if n < 1:
        raise ValueError("search radius must be at least 1")


@dataclass
class SearchTrace:
    probes: int = 0
    distance: float = 0.0
    responses: int = 0
    end: Point2 = Point2(0.0, 0.0)  # the searcher's final position
    success: bool = False
    found_poi: int = -1
    containment_lost: bool = False


def probe(world: World, center: Point2, d: float) -> bool:
    """True iff a POI lies within closed distance d of center."""
    if d <= 0:
        raise ValueError("probe radius must be positive")
    return any(math.hypot(p.x - center.x, p.y - center.y) <= d + _EPS
               for p in world.pois)


class _Frame(NamedTuple):
    """Per-layer constants of the frame-relative descent.

    A level ends in probe k, the first issued probe that holds the POI, or
    the omitted last probe when none does; the next area is that probe's
    disk.  ``mag``, ``turn`` and ``leg`` describe the searcher as the next
    level finds it, indexed by k; their last entry, m, describes a searcher
    at the area's center.  Both kernels read the same values, so they round
    alike: ``run_single`` as Python lists, which are cheaper to index one
    probe at a time, and ``run_batch`` as NumPy arrays.
    """

    z: Sequence[complex]  # probe centers
    rho: Sequence[float]  # probe radii
    reach: Sequence[float]  # rho, with inf for the omitted last probe
    cum: Sequence[float]  # walk from the first issued probe to probe k
    face: complex | None  # the first probe's direction; None if centred
    mag: Sequence[float]  # the searcher's distance from the area's center
    turn: Sequence[complex]  # the frame turn that faces the first probe
    leg: Sequence[float]  # the turned searcher's walk to the first probe
    # per k, all that run_single's level ending in probe k reads, with
    # j = min(k, m - 2) its last issued probe: (z[k], 1 / rho[k], rho[k],
    # cum[j], j + 1 probes, k <= m - 2 answered, mag[k], turn[k], leg[k],
    # conj(turn[k]))
    hits: Sequence[tuple]


def _facing(face: complex | None, z0: complex,
            w: complex) -> tuple[float, complex, float]:
    """``(mag, turn, leg)`` of a searcher at ``w`` in an area's frame."""
    mag = math.sqrt(w.real * w.real + w.imag * w.imag)
    if face is None or mag == 0.0:
        return mag, 1.0 + 0j, abs(z0 - w)
    turn = face * w.conjugate() * (1.0 / mag)
    return mag, turn, abs(z0 - w * turn)


def _frame(placement: LayerPlacement) -> _Frame:
    """The ``_Frame`` of a layer, as Python lists, built on first use and
    kept on the placement object for its lifetime."""
    frame = placement._frame
    if frame is None:
        frame = _build_frame(placement)
        object.__setattr__(placement, "_frame", frame)
    return frame


def _build_frame(placement: LayerPlacement) -> _Frame:
    z = [complex(p.center.x, p.center.y) for p in placement.probes]
    rho = [p.rho for p in placement.probes]
    m = len(z)
    reach = rho[:m - 1] + [math.inf]
    cum = [0.0, *accumulate(abs(b - a) for a, b in zip(z, z[1:m - 1]))]
    d1 = abs(z[0])
    face = z[0] * (1.0 / d1) if d1 >= _EPS else None
    # a level leaves the searcher at its last issued probe, z[min(k, m-2)];
    # NumPy divides a complex by a real through the reciprocal, so we do too
    exits = [(z[min(k, m - 2)] - z[k]) * (1.0 / rho[k]) for k in range(m)]
    facing = [_facing(face, z[0], w) for w in exits + [0j]]
    mag, turn, leg = map(list, zip(*facing))
    hits = [(z[k], 1.0 / rho[k], rho[k], cum[j], j + 1, k <= m - 2,
             mag[k], turn[k], leg[k], turn[k].conjugate())
            for k, j in ((k, min(k, m - 2)) for k in range(m))]
    return _Frame(z, rho, reach, cum, face, mag, turn, leg, hits)


def _rescue(z: Sequence[complex], rho: Sequence[float],
            q: np.ndarray) -> np.ndarray:
    """For each frame point ``q`` of a level whose disk tests left it
    outside its area, the first probe, the omitted one included, that holds
    it within a slack, or -1 where none does.

    The slack is ``q``'s distance outside the unit disk plus
    ``_TOL_FLOOR``.  The probes cover the disk, so the probe that holds the
    disk's point nearest ``q`` holds ``q`` within that distance; the floor
    takes up rounding.  The next level sees the POI at most the slack over
    ``rho`` outside its area and, should its tests miss again, grants that
    much.  Both kernels call this one function, so they agree.
    """
    slack = np.maximum(np.abs(q) - 1.0, 0.0) + _TOL_FLOOR
    inside = np.abs(q[:, None] - np.asarray(z)) <= (np.asarray(rho)
                                                     + slack[:, None])
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def _nearest(pois: Sequence[Point2], indices: Iterable[int],
             at: Point2) -> tuple[float, int]:
    """The distance from ``at`` to the nearest ``pois[i]``, i in
    ``indices``, and that i, the first on ties; ``(inf, -1)`` for none."""
    x, y = at.x, at.y
    nearest, target = math.inf, -1
    for i in indices:
        p = pois[i]
        d = math.hypot(p.x - x, p.y - y)
        if d < nearest:
            nearest, target = d, i
    return nearest, target


def run_single(placement: LayerPlacement, world: World,
               adversarial: bool = False) -> SearchTrace:
    """Recursive single-POI descent with last-probe omission, over the
    whole region from its center, for the POI nearest that center.

    Probes 1..m-1 are issued in order (the searcher walks the straight legs
    between probe centers); on the first positive response the search
    recurses into that probe's disk, otherwise into the omitted last
    probe's disk without visiting its center.  Each layer is rotated so
    its first probe center faces the searcher's current position.  The
    searcher ends at the last area's center, ``SearchTrace.end``.

    ``adversarial`` replaces the world's responses with the deterministic
    worst case (the POI is always found in the last executed probe).
    Containment of the target POI is asserted at every step; placements
    that only certify perimeter coverage may lose containment through an
    interior gap, which is reported via ``containment_lost`` instead.
    """
    origin = Point2(0.0, 0.0)
    frame = _frame(placement)
    if adversarial:
        return _run_single(placement, frame, None, origin, world.n)
    target = _nearest(world.pois, range(len(world.pois)), origin)[1]
    trace = _run_single(placement, frame, world.pois[target], origin, world.n)
    if trace.success:
        trace.found_poi = target
    return trace


def _run_single(placement: LayerPlacement, frame: _Frame, poi: Point2 | None,
                center: Point2, s: float) -> SearchTrace:
    """The descent of ``run_single`` on the ``_frame`` of ``placement``,
    for ``poi`` (None for the adversarial worst case), in the area of
    radius ``s`` about ``center`` with the searcher at its center.  The
    trace leaves ``found_poi`` to the caller.

    The search lives in the frame of its current area, as in
    ``_descend``: ``q`` is the POI in that frame, ``s`` the area's
    absolute radius, ``tol`` the tolerance ``_EPS / s`` in frame units,
    ``o`` the frame's absolute rotation and ``c`` the area's absolute
    center, which only ``SearchTrace.end`` reads.  A level whose tests
    leave the POI outside its next area is decided by ``_rescue``.
    """
    z, reach, face, hits = frame.z, frame.reach, frame.face, frame.hits
    last = len(z) - 2  # the last issued probe
    adversarial = poi is None
    c = complex(center.x, center.y)
    # divide as NumPy does, see _frame
    q = 0j if adversarial else (complex(poi.x, poi.y) - c) * (1.0 / s)
    # the searcher starts at the area's center: the frame's last entry
    mag, turn, leg = frame.mag[-1], frame.turn[-1], frame.leg[-1]
    turn_c = turn.conjugate()
    o = 1.0 + 0j
    probes = responses = 0
    distance = 0.0
    lost = False
    tol = _EPS / s

    while s > 1.0:
        if face is not None:
            if mag < tol:
                # a searcher at the area's center keeps absolute rotation 0
                turn, o = o, 1.0 + 0j
            else:
                o = o * turn_c
            q = q * turn
        if adversarial:
            hit = last
        else:
            hit = 0
            while abs(q - z[hit]) > reach[hit] + tol:
                hit += 1
        zk, inv_rho, rho_k, cum, issued, answered, mag, turn, next_leg, \
            turn_c = hits[hit]
        q_next = (q - zk) * inv_rho
        tol = _EPS / (s * rho_k)
        if not adversarial and abs(q_next) > 1.0 + tol:
            k = int(_rescue(z, frame.rho, np.array([q]))[0])
            if k >= 0:
                zk, inv_rho, rho_k, cum, issued, answered, mag, turn, \
                    next_leg, turn_c = hits[k]
                q_next = (q - zk) * inv_rho
                tol = _EPS / (s * rho_k)
            elif placement.coverage != "perimeter":
                raise RuntimeError("POI escaped the search area: geometry bug")
            else:
                lost = True
        distance += s * (leg + cum)
        leg = next_leg
        probes += issued
        responses += answered
        c += s * o * zk
        q = q_next
        s = s * rho_k

    # the last leg walks to the final area's center
    trace = SearchTrace(probes, distance + s * mag, responses,
                        end=Point2(c.real, c.imag), containment_lost=lost)
    if not adversarial:
        trace.success = s * abs(q) <= 1.0 + _EPS
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
    """Find every POI, memorylessly: a single-POI search over the region
    from its center; then, from the searcher's position delta after each
    POI, probes of radius 2, 4, 8, ... until one answers, and a single-POI
    search in that probe's disk, with the searcher at its center.

    Termination (the paper leaves it open): the ladder's last rung is
    twice the least power of two at least 2n, so at least 4n.  A search
    ends within 1 of the POI it found, and every POI lies within n of the
    region's center, so a POI left lies within 2n + 1, plus rounding, of
    delta: inside that rung.  When the last rung misses, no POI is left,
    and the failed rungs count as ``termination_probes``.
    """
    frame = _frame(placement)
    # the ladder's last rung
    frac, e = math.frexp(2.0 * world.n)
    top = math.ldexp(1.0 if frac == 0.5 else 2.0, e)
    left = list(range(len(world.pois)))
    result = FindAllResult(0, 0.0, 0, [], [], [])
    # the first search covers the region
    delta, radius = Point2(0.0, 0.0), world.n
    while True:
        # probe(world, delta, radius) on the POIs left answers iff the
        # nearest lies within radius + _EPS, so one scan finds the first
        # rung that answers and the POI the next search targets
        nearest, target = _nearest(world.pois, left, delta)
        if result.traces:
            # every rung 2**j below the greatest power of two at most
            # nearest misses, as 2**j + _EPS < 2**(j + 1); start there
            radius = min(top, max(2.0, math.ldexp(0.5,
                                                  math.frexp(nearest)[1])))
            while nearest > radius + _EPS and radius < top:
                radius *= 2.0
            rungs = math.frexp(radius)[1] - 1  # radius = 2**rungs
            if nearest > radius + _EPS:
                result.termination_probes = rungs
                return result
            result.p_tot += rungs  # the failed rungs and the positive one
            result.gaps.append(radius)
        trace = _run_single(placement, frame, world.pois[target], delta,
                            radius)
        if not trace.success:
            raise RuntimeError("single-POI search failed")
        trace.found_poi = target
        result.p_tot += trace.probes
        result.d_tot += trace.distance
        result.traces.append(trace)
        result.found.append(target)
        left.remove(target)
        delta = trace.end


# ---------------------------------------------------------------------------
# Reference tour length
# ---------------------------------------------------------------------------

def tsp_reference(pois: list[Point2]) -> float:
    """Closed-tour length over 2 to 12 POIs, by the exact Held-Karp
    dynamic program."""
    k = len(pois)
    if not 2 <= k <= 12:
        raise ValueError("need two to twelve POIs")
    pts = np.array([[p.x, p.y] for p in pois])
    dist = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                    pts[:, None, 1] - pts[None, :, 1])
    return _held_karp(dist)


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
    _check_radius(n)
    lists = _frame(placement)
    # the fields _descend reads, as arrays
    frame = lists._replace(**{f: np.array(getattr(lists, f)) for f in (
        "z", "rho", "reach", "cum", "mag", "turn", "leg")})
    table = _hit_table(frame.z, frame.reach)
    t = poi_xy.shape[0]
    out = {"P": np.zeros(t, dtype=np.int64), "D": np.zeros(t),
           "R": np.zeros(t, dtype=np.int64),
           "success": np.zeros(t, dtype=bool), "lost": np.zeros(t, dtype=bool)}
    for lo in range(0, t, _BATCH_CHUNK):
        chunk = poi_xy[lo:lo + _BATCH_CHUNK]
        part = {k: v[lo:lo + _BATCH_CHUNK] for k, v in out.items()}
        _descend(frame, table, float(n), chunk[:, 0] + 1j * chunk[:, 1], part)
    return out


def _hit_table(z: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """First-hit table of the disks ``z``, ``reach``, flattened.

    Row i, column j of the (_GRID + 2) x (_GRID + 2) table is the cell
    [-1 + (i - 1) h, -1 + i h] x [-1 + (j - 1) h, -1 + j h], h = 2 / _GRID.
    A cell holds k when disk k contains the whole cell and every earlier
    disk misses it, each by ``_MARGIN``; every other cell, the border ring
    among them, holds -1.  A cell leaves the scan at its first disk that
    does not miss it, so each disk costs only the cells still open.
    """
    h = 2.0 / _GRID
    side = _GRID + 2
    table = np.full(side * side, -1, dtype=np.intp)
    inner = np.arange(1, _GRID + 1)
    cells = (inner[:, None] * side + inner).ravel()
    mid = -1.0 + (inner - 0.5) * h
    c = (mid[:, None] + 1j * mid).ravel()
    half = h * math.sqrt(0.5)  # half the cell's diagonal
    for k in range(z.size):
        d = np.abs(c - z[k])
        table[cells[d + half + _MARGIN < reach[k]]] = k
        open_ = d - half - _MARGIN > reach[k]
        cells, c = cells[open_], c[open_]
    return table


def _cells(q: np.ndarray) -> np.ndarray:
    """Index of the ``_hit_table`` cell of each frame point ``q``; points
    outside [-1, 1]^2 land in the border ring."""
    w = q * (_GRID / 2) + (_GRID / 2 + 1) * (1 + 1j)
    i = np.clip(w.real, 0, _GRID + 1).astype(np.intp)
    j = np.clip(w.imag, 0, _GRID + 1).astype(np.intp)
    return i * (_GRID + 2) + j


def _descend(frame: _Frame, table: np.ndarray, n: float, poi: np.ndarray,
             out: dict[str, np.ndarray]) -> None:
    """``run_batch`` on one slice of POIs, writing into the views ``out``.

    Each trial lives in the frame of its current search area, whose
    center is 0 and radius 1: ``q`` is the POI in that frame, ``s`` the
    area's absolute radius, ``o`` the frame's absolute rotation and ``at``
    the ``frame`` entry that describes the searcher.  A level turns the
    frame so the first probe faces the searcher (``q <- q * turn``), then
    moves into the first probe holding the POI: ``q <- (q - z[hit]) /
    rho[hit]``, ``s <- s * rho[hit]``.  The tolerance is the absolute
    ``_EPS``, ``_EPS / s`` in frame units.  A level reads that probe from
    the layer's first-hit ``table`` (``_hit_table``) at ``q``'s cell; only
    trials in undecided cells run the exact disk tests, which the table's
    margin guarantees it agrees with.  Trials that the tests leave outside
    their next area are decided by ``_rescue``, as in ``_run_single``.
    Finished trials are written out and dropped.
    """
    z, rho, reach, cum, face, mags, turns, legs, _ = frame
    m = z.size
    idx = np.arange(poi.size)
    q = poi / n
    at = np.full(poi.size, m)  # the searcher starts at the area's center
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
            out["D"][i] = D[done] + s[done] * mags[at[done]]
            out["success"][i] = s[done] * np.abs(q[done]) <= 1.0 + _EPS
            out["lost"][i] = lost[done]
            keep = ~done
            idx, q, at, o, s = idx[keep], q[keep], at[keep], o[keep], s[keep]
            P, D, R, lost = P[keep], D[keep], R[keep], lost[keep]
        if idx.size == 0:
            return
        if face is not None:
            # a searcher at the area's center keeps absolute rotation 0
            centred = mags[at] < _EPS / s
            turn = np.where(centred, o, turns[at])
            o = np.where(centred, 1.0 + 0j, _cmul(o, np.conj(turn)))
            q = _cmul(q, turn)
        hit = table[_cells(q)]
        open_ = np.flatnonzero(hit < 0)
        if open_.size:
            inside = (np.abs(q[open_, None] - z)
                      <= reach + (_EPS / s[open_])[:, None])
            hit[open_] = inside.argmax(axis=1)
        q_next = (q - z[hit]) / rho[hit]
        s_next = s * rho[hit]
        escaped = np.abs(q_next) > 1.0 + _EPS / s_next
        if escaped.any():
            e = np.flatnonzero(escaped)
            k = _rescue(z, rho, q[e])
            e, k = e[k >= 0], k[k >= 0]
            hit[e] = k
            q_next[e] = (q[e] - z[k]) / rho[k]
            s_next[e] = s[e] * rho[k]
            escaped[e] = False
        lost |= escaped
        stop = np.minimum(hit, m - 2)
        D += s * (legs[at] + cum[stop])
        P += stop + 1
        R += hit < m - 1
        at, q, s = hit, q_next, s_next
        # drop the second names, which would hold the unfiltered arrays
        # through the next level's filtering of finished trials
        del q_next, s_next


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` rounded as Python's complex product rounds it.  NumPy's
    own complex product may fuse a multiply into the add; written out, the
    frame turns of ``_descend`` and ``_run_single`` round alike."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out

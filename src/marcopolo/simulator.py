"""Search execution against hidden worlds.

Implements the single-POI recursive descent (with last-probe omission and
rotation of each layer toward the searcher), the memoryless find-all
protocol with doubling re-probes, and a vectorized batch of single-POI
descents for Monte Carlo campaigns.  The response-limited hexagonal
family runs through ``run_single`` on a ``hexfam_layer``.

Each layer placement lives on the unit disk.  Both kernels, ``run_single``
and ``run_batch``, keep a search in the frame of its current area: the
area scaled to the unit disk and turned so the first probe faces the
searcher.  Positions stay relative to the area, so float64 resolves them
up to n = 2**52.  The kernels read the same per-layer constants
(``_frame``, built once per layer object) and round alike, so they agree
trial for trial.

A level's disk tests allow the absolute tolerance ``_EPS``.  In an area
larger than about 1e7 that is below the rounding of frame coordinates, and
a POI on a probe junction can test outside every probe; such a level is
decided again with a slack floored at the coverage tolerance that certifies
the layer, ``geometry._TOL`` (``_rescue``).
Each kernel skips that escape check where it cannot fire.  ``run_batch``
skips it for a POI in a decided cell of its first-hit table.
``run_single`` skips it where the POI lies no farther than ``rho * (1 -
2**-45)`` from its probe's center: the move into the probe's disk and its
length round by less than 2**-50, relative, so the POI stays inside.  A
searcher at its area's center whose frame is not turned (rotation exactly
1) is not turned again, in either kernel.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .geometry import Point2, _TOL
from .placements import LayerPlacement

_EPS = 1e-9
# relative margin under a probe's radius within which run_single's escape
# check cannot fire (see _run_single)
_SURE = 2.0 ** -45
# run_batch's slices hold about this many POIs: t POIs go in k = max(1,
# round(t / _BATCH_CHUNK)) slices of ceil(t / k) rows, as each level of a
# slice's descent pays a fixed NumPy cost however few rows it holds
_BATCH_CHUNK = 8192
# run_batch's first-hit table: _GRID cells per side over [-1, 1]^2; a cell
# is decided only with this margin on every disk test, far above float64
# rounding and above every descent tolerance (_EPS / s < _EPS)
_GRID = 128
_MARGIN = 1e-7
# the table's cell (i, j) is entry i + _ROW * j: read as a little-endian
# uint16, the bytes i and j of _cells are that index (so _GRID + 1 < _ROW)
_ROW = 256
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


class _Frame(NamedTuple):
    """Per-layer constants of the frame-relative descent.

    A level ends in probe k, the first issued probe that holds the POI, or
    the omitted last probe when none does; the next area is that probe's
    disk.  ``mag``, ``turn`` and ``leg`` describe the searcher as the next
    level finds it, indexed by k; their last entry, m, describes a searcher
    at the area's center.  Both kernels read the same values, so they round
    alike: ``run_single`` as Python lists, which are cheaper to index one
    probe at a time, and ``run_batch`` as the NumPy tables of ``_Batch``,
    among them the first-hit table that decides most of its levels with
    neither disk tests nor an escape check.
    """

    z: Sequence[complex]  # probe centers
    rho: Sequence[float]  # probe radii
    reach: Sequence[float]  # rho, with inf for the omitted last probe
    margin: Sequence[float]  # rho * (1 - _SURE), see _run_single
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
    margin = [r * (1.0 - _SURE) for r in rho]
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
    return _Frame(z, rho, reach, margin, cum, face, mag, turn, leg, hits)


def _rescue(z: Sequence[complex], rho: Sequence[float],
            q: np.ndarray) -> np.ndarray:
    """For each frame point ``q`` of a level whose disk tests left it
    outside its area, the first probe, the omitted one included, that holds
    it within a slack, or -1 where none does.

    The slack is ``q``'s distance outside the unit disk plus the
    coverage tolerance ``_TOL``.  A certified layer covers the disk to
    within ``_TOL`` (see ``geometry.certify_coverage``), so the probe that
    holds the disk's point nearest ``q`` within ``_TOL`` holds ``q``
    within the slack: no search on a certified layer escapes.  The next
    level sees the POI at most the slack over ``rho`` outside its area
    and, should its tests miss again, grants that much.  Both kernels call
    this one function, so they agree.
    """
    slack = np.maximum(np.abs(q) - 1.0, 0.0) + _TOL
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

    ``adversarial`` replaces the world's responses with a fixed sequence:
    the last issued probe always answers.  That is not the worst case; a
    random campaign can cost more probes, distance and responses (item 4
    of ROADMAP.md plans the exact worst case).
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
    for ``poi`` (None for the adversarial responses), in the area of
    radius ``s`` about ``center`` with the searcher at its center.  The
    trace leaves ``found_poi`` to the caller.

    The search lives in the frame of its current area, as in
    ``_descend``: ``q`` is the POI in that frame, ``s`` the area's
    absolute radius, ``tol`` the tolerance ``_EPS / s`` in frame units,
    ``o`` the frame's absolute rotation and ``c`` the area's absolute
    center, which only ``SearchTrace.end`` reads.  A searcher at its
    area's center with ``o`` exactly 1 is not turned: ``q * 1`` could
    differ from ``q`` only in the sign of a zero part, which no test sees.

    A level moves into probe k as ``q <- w / rho[k]``, with ``w = q -
    z[k]`` and its length ``d`` kept from the last disk test.  The escape
    check, whether the move left the POI outside the next area, runs only
    where ``d`` exceeds ``margin[k] = rho[k] * (1 - 2**-45)``.  Below it
    the check cannot fire: the move and ``abs`` round by less than 2**-50,
    relative, so ``abs(q) <= (d / rho[k]) * (1 + 2**-50) < 1``.  A level
    whose check fires is decided by ``_rescue``.
    """
    z, reach, margin, face, hits = (frame.z, frame.reach, frame.margin,
                                    frame.face, frame.hits)
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
            if mag >= tol:
                o = o * turn_c
                q = q * turn
            elif o != 1.0:
                # a searcher at the area's center keeps absolute rotation 0
                q = q * o
                o = 1.0 + 0j
        if adversarial:
            # the POI is never read: d = 0 skips the escape check
            hit, w, d = last, 0j, 0.0
        else:
            hit = 0
            while (d := abs(w := q - z[hit])) > reach[hit] + tol:
                hit += 1
        zk, inv_rho, rho_k, cum, issued, answered, mag, turn, next_leg, \
            turn_c = hits[hit]
        s_next = s * rho_k
        tol = _EPS / s_next
        q_next = w * inv_rho
        if d > margin[hit] and abs(q_next) > 1.0 + tol:
            k = int(_rescue(z, frame.rho, np.array([q]))[0])
            if k >= 0:
                zk, inv_rho, rho_k, cum, issued, answered, mag, turn, \
                    next_leg, turn_c = hits[k]
                s_next = s * rho_k
                tol = _EPS / s_next
                q_next = (q - zk) * inv_rho
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
        s = s_next

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
        # a rung of radius r at delta answers iff the nearest POI left
        # lies within r + _EPS, so one scan finds the first rung that
        # answers and the POI the next search targets
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
# Vectorized batch engine (Monte Carlo)
# ---------------------------------------------------------------------------

def run_batch(placement: LayerPlacement, n: float,
              poi_xy: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized single-POI searches for a batch of POI positions.

    Equivalent to ``run_single`` per row of ``poi_xy`` (shape (t, 2));
    returns arrays P (probes), D (distance), R (responses), success, lost.
    The t POIs are searched in k = max(1, round(t / _BATCH_CHUNK)) slices
    of ceil(t / k) rows, the last one shorter by less than k: each level
    of a slice's descent pays a fixed NumPy cost however few rows it
    holds, so a short last slice would cost a whole descent for a few
    trials.  Trials are independent, so the slicing changes no output.
    Rows a ``World`` would reject raise ValueError.
    """
    _check_radius(n)
    if poi_xy.ndim != 2 or poi_xy.shape[1] != 2:
        raise ValueError(f"POIs of shape {poi_xy.shape}, not (t, 2)")
    bad = np.flatnonzero(~(np.hypot(poi_xy[:, 0], poi_xy[:, 1]) <= n + _EPS))
    if bad.size:
        x, y = poi_xy[bad[0]]
        raise ValueError(f"POI ({x}, {y}) is not finite or lies outside "
                         f"the search region of radius {n}")
    batch = _batch(_frame(placement))
    t = poi_xy.shape[0]
    out = {"P": np.zeros(t, dtype=np.int64), "D": np.zeros(t),
           "R": np.zeros(t, dtype=np.int64),
           "success": np.zeros(t, dtype=bool), "lost": np.zeros(t, dtype=bool)}
    slices = max(1, round(t / _BATCH_CHUNK))
    rows = max(1, -(-t // slices))  # 0 POIs still step
    for lo in range(0, t, rows):
        chunk = poi_xy[lo:lo + rows]
        part = {k: v[lo:lo + rows] for k, v in out.items()}
        _descend(batch, float(n), chunk[:, 0] + 1j * chunk[:, 1], part)
    return out


class _Batch(NamedTuple):
    """Per-layer arrays of ``_descend``, built by ``_batch`` from a layer's
    ``_Frame`` once per ``run_batch`` call.  ``at`` indexes the searcher
    as in ``_Frame``: the previous level's probe, or m at the center."""

    table: np.ndarray  # the first-hit table of the probes' disks
    z: np.ndarray  # probe centers
    reach: np.ndarray  # rho, with inf for the omitted last probe
    rho: np.ndarray  # probe radii
    inv_rho: np.ndarray  # 1 / rho: NumPy divides a complex by a real so
    rotates: bool  # the layer turns toward the searcher (face is not None)
    # per at, whether the searcher sits at its area's center (mag == 0);
    # None when some mag lies in (0, _EPS), where the test needs s
    centred: np.ndarray | None
    mag: np.ndarray  # per at
    turn: np.ndarray  # per at
    leg: np.ndarray  # per at
    cum: np.ndarray  # per hit: the walk to its last issued probe
    counts: np.ndarray  # per hit: probes issued + (responses << 32)


def _batch(frame: _Frame) -> _Batch:
    z, rho, mag = np.array(frame.z), np.array(frame.rho), np.array(frame.mag)
    m = z.size
    stop = np.minimum(np.arange(m), m - 2)
    counts = stop + 1 + ((np.arange(m) < m - 1).astype(np.int64) << 32)
    exact = ((mag > 0.0) & (mag < _EPS)).any()
    return _Batch(_hit_table(z, rho), z, np.array(frame.reach), rho,
                  1.0 / rho, frame.face is not None,
                  None if exact else mag == 0.0, mag, np.array(frame.turn),
                  np.array(frame.leg), np.array(frame.cum)[stop], counts)


def _hit_table(z: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """First-hit table of the disks ``z``, ``rho``.

    Entry i + _ROW * j, for i and j in 0.._GRID + 1, is the cell [-1 +
    (i - 1) h, -1 + i h] x [-1 + (j - 1) h, -1 + j h], h = 2 / _GRID.  A
    cell holds k when disk k contains the whole cell and every earlier disk
    misses it, each by ``_MARGIN``; every other entry, the border ring
    among them, holds -1.  Built from every probe's real radius, the
    omitted last one's included, a decided cell lies inside its disk by
    ``_MARGIN``: a POI there stays inside its next area, so ``_descend``
    runs neither the disk tests nor the escape check for it, and a cell
    outside every disk, such as a perimeter layer's gap, stays undecided.
    A cell leaves the scan at its first disk that does not miss it, so
    each disk costs only the cells still open.
    """
    h = 2.0 / _GRID
    table = np.full(_ROW * (_GRID + 2), -1, dtype=np.intp)
    inner = np.arange(1, _GRID + 1)
    cells = (inner[:, None] + _ROW * inner).ravel()
    mid = -1.0 + (inner - 0.5) * h
    c = (mid[:, None] + 1j * mid).ravel()
    half = h * math.sqrt(0.5)  # half the cell's diagonal
    for k in range(z.size):
        d = np.abs(c - z[k])
        table[cells[d + half + _MARGIN < rho[k]]] = k
        open_ = d - half - _MARGIN > rho[k]
        cells, c = cells[open_], c[open_]
    return table


def _cells(q: np.ndarray) -> np.ndarray:
    """The ``_hit_table`` entry of each frame point ``q``; points outside
    [-1, 1]^2 land in the border ring."""
    w = q.view(float) * (_GRID / 2) + (_GRID / 2 + 1)
    # np.clip(w, 0, _GRID + 1), without the wrapper's cost per call
    np.maximum(w, 0, out=w)
    np.minimum(w, _GRID + 1, out=w)
    return w.astype(np.uint8).view("<u2")


def _abs(d: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``abs(d)`` of complex ``d``, rounded as Python's ``abs`` rounds it
    wherever that could change the comparison with ``bound``.

    ``np.abs`` is fast but may round two ulps away from ``math.hypot``,
    which Python's ``abs`` is; only the entries within 2**-49 of
    ``bound``, relative, are taken again from ``np.hypot``.
    """
    a = np.abs(d)
    near = (np.abs(a - bound) <= a * 2.0 ** -49).nonzero()
    if near[0].size:
        a[near] = np.hypot(d.real[near], d.imag[near])
    return a


def _first_hit(batch: _Batch, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The first probe whose disk test holds, at tolerance ``_EPS / s``,
    for each frame point ``q`` of an area of radius ``s``: the omitted
    last probe where no issued one does."""
    bound = batch.reach + (_EPS / s)[:, None]
    return (_abs(q[:, None] - batch.z, bound) <= bound).argmax(axis=1)


def _into(batch: _Batch, q: np.ndarray, s: np.ndarray,
          k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each frame point ``q`` and area radius ``s`` in probe k's disk:
    ``(q - z[k]) / rho[k]``, rounded as NumPy divides, and ``s * rho[k]``."""
    q_k = q - batch.z.take(k)
    q_k *= batch.inv_rho.take(k)
    return q_k, s * batch.rho.take(k)


def _descend(batch: _Batch, n: float, poi: np.ndarray,
             out: dict[str, np.ndarray]) -> None:
    """``run_batch`` on one slice of POIs, writing into the views ``out``.

    Each trial lives in the frame of its current search area, whose
    center is 0 and radius 1: ``q`` is the POI in that frame, ``s`` the
    area's absolute radius, ``o`` the frame's absolute rotation and ``at``
    the ``batch`` entry that describes the searcher.  A level turns the
    frame so the first probe faces the searcher (``q <- q * turn``), then
    moves into the first probe holding the POI: ``q <- (q - z[hit]) /
    rho[hit]``, ``s <- s * rho[hit]``.  It reads that probe from the
    layer's first-hit ``table`` (``_hit_table``) at ``q``'s cell, and its
    walk and counts from per-layer tables.  A trial in a decided cell runs
    neither the disk tests nor the escape check: the cell lies inside its
    probe's disk by ``_MARGIN``.  Only trials in undecided cells run the
    exact disk tests, at the tolerance ``_EPS / s``, and the escape check;
    those the tests leave outside their next area are decided by
    ``_rescue``, as in ``_run_single``.  Distances in these tests round as
    Python's ``abs``, so the kernels agree.  Finished trials are written
    out and dropped.
    """
    idx = np.arange(poi.size)
    q = poi / n
    # the searcher starts at the area's center
    at = np.full(poi.size, batch.z.size)
    o = np.ones(poi.size, dtype=complex)
    s = np.full(poi.size, n)
    PR = np.zeros(poi.size, dtype=np.int64)  # probes + (responses << 32)
    D = np.zeros(poi.size)

    while True:
        done = s <= 1.0
        f = done.nonzero()[0]
        if f.size:
            i = idx.take(f)
            pr, s_f, q_f = PR.take(f), s.take(f), q.take(f)
            out["P"][i] = pr & 0xFFFFFFFF
            out["R"][i] = pr >> 32
            # the last leg walks to the final area's center
            out["D"][i] = D.take(f) + s_f * batch.mag.take(at.take(f))
            out["success"][i] = (s_f * np.hypot(q_f.real, q_f.imag)
                                 <= 1.0 + _EPS)
            keep = (~done).nonzero()[0]
            idx, q, at, o, s, PR, D = (
                v.take(keep) for v in (idx, q, at, o, s, PR, D))
        if idx.size == 0:
            return
        if batch.rotates:
            # a searcher at the area's center turns by o and goes back to
            # absolute rotation 0; one with o == 1 there needs no turn, as
            # q * 1 is q
            if batch.centred is None:
                centred = batch.mag.take(at) < _EPS / s
            else:
                centred = batch.centred.take(at)
            r = (~centred | (o != 1.0)).nonzero()[0]
            if r.size:
                c, o_r = centred.take(r), o.take(r)
                turn = np.where(c, o_r, batch.turn.take(at.take(r)))
                o[r] = np.where(c, 1.0 + 0j, _cmul(o_r, np.conj(turn)))
                q[r] = _cmul(q.take(r), turn)
        hit = batch.table.take(_cells(q))
        u = (hit < 0).nonzero()[0]
        if u.size:
            hit[u] = _first_hit(batch, q.take(u), s.take(u))
        q_next, s_next = _into(batch, q, s, hit)
        if u.size:
            # only a trial in an undecided cell can leave its next area
            q_u = q_next.take(u)
            e = u[np.hypot(q_u.real, q_u.imag) > 1.0 + _EPS / s_next.take(u)]
            if e.size:
                k = _rescue(batch.z, batch.rho, q[e])
                out["lost"][idx[e[k < 0]]] = True
                e, k = e[k >= 0], k[k >= 0]
                hit[e] = k
                q_next[e], s_next[e] = _into(batch, q[e], s[e], k)
        # s * (leg + cum), bit for bit: IEEE products commute
        walk = batch.leg.take(at)
        walk += batch.cum.take(hit)
        walk *= s
        D += walk
        PR += batch.counts.take(hit)
        at, q, s = hit, q_next, s_next
        # drop the second names, which would hold the unfiltered arrays
        # through the next level's filtering of finished trials
        del q_next, s_next, walk


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b``, of equal shapes, rounded as Python's complex product
    rounds it.  NumPy's own complex product may fuse a multiply into the
    add; written out, the frame turns of ``_descend`` and ``_run_single``
    round alike."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out

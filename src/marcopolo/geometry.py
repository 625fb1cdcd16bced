"""Planar primitives for probe-search placements on the unit disk.

Everything here works in the "unit-disk frame": the current search area is
the closed disk of radius 1 centered at the origin, and probe radii are
proportional (0 < rho <= 1).  The module provides the circumscribed
probes of hexagonal lattices, chord probe placement, and the coverage
model: an exact probe-circle arc test decides whether a
union of probe disks covers the unit disk, and the same arcs, closed into
loops, give the exact area and the faces of what they leave uncovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point2",
    "Probe",
    "CoverageReport",
    "Face",
    "hex_lattice",
    "chord_probe",
    "certify_coverage",
    "uncovered_faces",
]

# Ring-1 neighbor angles for a flat-top hexagonal lattice (centers at
# distance sqrt(3)*side), counterclockwise starting at 30 degrees.
_RING_ANGLES = [math.radians(30 + 60 * i) for i in range(6)]

# the coverage tolerance, the one slack by which "covered" is decided: the
# certifier counts every probe disk as dilated by this much, so that probes
# meeting tangentially still certify, and a search's rescue
# (simulator._rescue) grants it as its least slack.  A certified layer thus
# covers the unit disk to within _TOL, so no search on it can escape its
# area.  2**-40 lies far above the rounding of frame coordinates and of the
# stored probes.
_TOL = 2.0 ** -40
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite coordinates")

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    @staticmethod
    def polar(r: float, angle: float) -> "Point2":
        return Point2(r * math.cos(angle), r * math.sin(angle))


@dataclass(frozen=True)
class Probe:
    """A probe disk: closed disk of radius ``rho`` about ``center``."""

    center: Point2
    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0 + 1e-12):
            raise ValueError(f"probe radius {self.rho} outside (0, 1]")
        # the probe must be relevant to the unit-disk search area
        if math.hypot(self.center.x, self.center.y) > 1.0 + self.rho + 1e-12:
            raise ValueError("probe disk does not intersect the unit disk")


@dataclass
class CoverageReport:
    # (circle, start, end) per uncovered arc, counterclockwise angles in
    # radians about the circle's center with 0 <= start < 2*pi and
    # start < end; circle -1 is the unit circle and k the circle of probe
    # k dilated by _TOL
    uncovered_arcs: list

    @property
    def certified_covered(self) -> bool:
        return not self.uncovered_arcs


@dataclass(frozen=True)
class Face:
    """A connected part of the unit disk that the probes leave uncovered:
    its area and its boundary arcs in loop order, each in the convention
    of ``CoverageReport.uncovered_arcs``."""

    area: float
    arcs: list


def hex_lattice(layers: int) -> list[Probe]:
    """Probes circumscribing the L-layer flat-top hexagonal lattice of side
    2/(3L-2) that covers the unit disk: each probe's radius is the side.

    Enumerated ring by ring counterclockwise, center hexagon last.  Of the
    1 + 6*C(L,2) hexagons, those entirely outside the unit disk (corners
    of lattices from L = 8) cover nothing and are skipped.  L >= 2: the one
    hexagon of L = 1 has side 2, which is no probe of the unit disk.
    """
    if layers < 2:
        raise ValueError("layers must be >= 2")
    s = 2.0 / (3 * layers - 2)
    step = math.sqrt(3) * s
    probes: list[Probe] = []
    for ring in range(1, layers):
        # walk the ring: start at the 30-degree corner, take `ring` steps
        # along each of the 6 counterclockwise edge directions
        corner = Point2.polar(ring * step, _RING_ANGLES[0])
        cx, cy = corner.x, corner.y
        for edge in range(6):
            # edge direction: toward the next corner, counterclockwise
            ang = _RING_ANGLES[(edge + 2) % 6]
            dx = step * math.cos(ang)
            dy = step * math.sin(ang)
            for _ in range(ring):
                if math.hypot(cx, cy) - s <= 1.0:
                    probes.append(Probe(Point2(cx, cy), s))
                cx += dx
                cy += dy
    probes.append(Probe(Point2(0.0, 0.0), s))
    return probes


def chord_probe(rho_k: float, angle: float = 0.0) -> Probe:
    """Probe whose diameter is a chord of the unit circle.

    The center sits at distance sqrt(1 - rho_k^2) from the origin in the
    given angular direction; the probe covers the perimeter arc of
    half-angle arcsin(rho_k) around that direction.
    """
    if not (0.0 < rho_k <= 1.0):
        raise ValueError(f"chord probe radius {rho_k} outside (0, 1]")
    d = math.sqrt(max(0.0, 1.0 - rho_k * rho_k))
    return Probe(Point2.polar(d, angle), rho_k)


def _probe_arrays(probes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    px = np.array([p.center.x for p in probes])
    py = np.array([p.center.y for p in probes])
    pr = np.array([p.rho for p in probes])
    return px, py, pr


def certify_coverage(placement, min_cell: float = 1e-4) -> CoverageReport:
    """Whether the probes cover the closed unit disk, and where they do not.

    The decision is exact up to the coverage tolerance ``_TOL``: it
    certifies iff the probe disks, each dilated by ``_TOL``, cover the
    closed unit disk.  A certified layer thus covers the disk to within
    ``_TOL``, the least slack of a search's rescue, so no search on it can
    escape its area.  By the criterion of Huang and Tseng (WSNA 2003),
    closed disks cover a convex region iff they cover its boundary and,
    for each disk, the other disks cover the arc of its circle that lies
    inside the region; ``_uncovered_arcs`` tests exactly that, so closed
    probe disks that meet tangentially, as in the hexagonal lattices,
    still certify.  Identical probes do not count as covering each other's
    circles.  The report lists the uncovered arcs; ``uncovered_faces``
    measures the gaps they bound.  ``min_cell`` is accepted for older
    callers and ignored.

    ``placement`` is either a sequence of probes or an object with a
    ``probes`` attribute.
    """
    return CoverageReport(_uncovered_arcs(*_probe_arrays(
        _probe_list(placement))))


def uncovered_faces(placement) -> tuple[bool, float, list[Face]]:
    """Whether the probes cover the closed unit disk, the exact area they
    leave uncovered, and the uncovered faces, largest first.

    The verdict is that of ``certify_coverage``: covered iff no arc is
    uncovered.  The uncovered arcs bound the uncovered set; identical
    probes each report the same arcs, so only the first of them counts.
    Each arc runs with the gap on its left: a unit-circle arc from start
    to end, a probe arc from end back to start.  Green's theorem then
    gives the area as a sum over the arcs, as in the union-of-disks area
    of Avis, Bhattacharya and Imai (The Visual Computer 1988): a
    unit-circle arc (a, b) adds (b - a) / 2, and an arc (a, b) of the
    dilated circle of radius r about (x, y) subtracts
    [r^2 (b - a) + r (x (sin b - sin a) - y (cos b - cos a))] / 2.
    Linking each arc's end to the nearest arc start closes the arcs into
    loops.  A loop of positive area bounds a face; one of negative area
    is a hole, a probe disk inside a face, which counts in the total but
    is not a face.
    """
    px, py, pr = _probe_arrays(_probe_list(placement))
    arcs = _uncovered_arcs(px, py, pr)
    if not arcs:
        return True, 0.0, []
    keys = list(zip(px.tolist(), py.tolist(), pr.tolist()))
    first: dict[tuple[float, float, float], int] = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    arcs = [arc for arc in arcs
            if arc[0] < 0 or first[keys[arc[0]]] == arc[0]]
    circle = np.array([arc[0] for arc in arcs])
    a = np.array([arc[1] for arc in arcs])
    b = np.array([arc[2] for arc in arcs])
    unit = circle < 0
    x = np.where(unit, 0.0, px[circle])
    y = np.where(unit, 0.0, py[circle])
    r = np.where(unit, 1.0, pr[circle] + _TOL)
    sign = np.where(unit, 0.5, -0.5)
    area = sign * (r * r * (b - a) + r * (x * (np.sin(b) - np.sin(a))
                                          - y * (np.cos(b) - np.cos(a))))
    begin = np.where(unit, a, b)
    finish = np.where(unit, b, a)
    ends = np.column_stack([x + r * np.cos(finish), y + r * np.sin(finish)])
    starts = np.column_stack([x + r * np.cos(begin), y + r * np.sin(begin)])
    gap = ((ends[:, None, :] - starts[None, :, :]) ** 2).sum(axis=2)
    following = np.argmin(gap, axis=1).tolist()
    faces = []
    seen = [False] * len(arcs)
    for start in range(len(arcs)):
        if seen[start]:
            continue
        loop, k = [], start
        while not seen[k]:
            seen[k] = True
            loop.append(k)
            k = following[k]
        loop_area = float(area[loop].sum())
        if loop_area > 0.0:
            faces.append(Face(loop_area, [arcs[i] for i in loop]))
    faces.sort(key=lambda face: -face.area)
    return False, float(area.sum()), faces


def _probe_list(placement):
    probes = getattr(placement, "probes", placement)
    if len(probes) == 0:
        raise ValueError("empty placement")
    return probes


def _uncovered_arcs(px: np.ndarray, py: np.ndarray,
                    pr: np.ndarray) -> list[tuple[int, float, float]]:
    """Arcs that break the Huang-Tseng coverage criterion for the probe
    disks dilated by ``_TOL``, as (circle, start, end) in the convention
    of ``CoverageReport.uncovered_arcs``; empty iff they cover the closed
    unit disk.

    All m + 1 circles go through one pass: row 0 is the unit circle, which
    the probe disks must cover, and row k + 1 the dilated circle of probe
    k, which the other probe disks must cover inside the open unit disk.
    """
    r = pr + _TOL
    cx = np.concatenate(([0.0], px))
    cy = np.concatenate(([0.0], py))
    cr = np.concatenate(([1.0], r))
    # the last column is the unit disk itself
    center, half = _covered_arcs(cx, cy, cr, np.append(px, 0.0),
                                 np.append(py, 0.0), np.append(r, 1.0))
    # a probe covers neither its own circle nor an identical probe's
    same = (px == cx[:, None]) & (py == cy[:, None]) & (r == cr[:, None])
    same[0] = False
    half[:, :-1][same] = 0.0
    # the part of a probe circle outside the open unit disk needs no
    # cover: the complement of the arc the unit disk covers, which is
    # empty for the unit circle
    half[:, -1] = math.pi - half[:, -1]
    center[:, -1] += math.pi
    row, col = np.nonzero(half > 0.0)
    h = half[row, col]
    circle, start, end = _circle_gaps(
        row, (center[row, col] - h) % _TWO_PI, 2.0 * h, half.shape[0])
    begin = start % _TWO_PI
    return sorted((c - 1, a0, a0 + (b - a)) for c, a0, a, b in
                  zip(circle.tolist(), begin.tolist(), start.tolist(),
                      end.tolist()))


def _covered_arcs(cx: np.ndarray, cy: np.ndarray, cr: np.ndarray,
                  px: np.ndarray, py: np.ndarray,
                  r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The arc of each circle (cx, cy, cr) that each closed disk
    (px, py, r) covers, as (circles, disks) arrays of the arc's center
    angle and half-width; a half-width of 0 means no arc, pi the whole
    circle."""
    dx = px - cx[:, None]
    dy = py - cy[:, None]
    d = np.hypot(dx, dy)
    rc = cr[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_half = (rc * rc + d * d - r * r) / (2.0 * rc * d)
    half = np.arccos(np.maximum(np.minimum(cos_half, 1.0), -1.0))
    half[d + rc <= r] = math.pi
    return np.arctan2(dy, dx), half


def _circle_gaps(circle: np.ndarray, start: np.ndarray, length: np.ndarray,
                 n_circles: int) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
    """Uncovered parts of circles 0 .. n_circles - 1, given closed arcs.

    Arc k covers the angles start[k] .. start[k] + length[k] of circle
    circle[k], with 0 <= start <= 2*pi and 0 <= length <= 2*pi.  Returns
    the open gaps as arrays (circle, from, to), ordered by circle and,
    within a circle, counterclockwise from its first arc start, so the
    last gap of a circle may end past 2*pi; a circle without arcs is one
    gap (c, 0, 2*pi).

    One sort by (circle, start) and one running maximum do the whole
    merge: offsetting circle c by c * 8*pi keeps the ends of earlier
    circles below the starts of later ones.  An arc that ends past 2*pi
    also covers its circle's first angles again, up to its end - 2*pi.
    """
    bare = np.flatnonzero(np.bincount(circle, minlength=n_circles) == 0)
    if circle.size == 0:
        return bare, np.zeros(bare.size), np.full(bare.size, _TWO_PI)
    order = np.lexsort((start, circle))
    c = circle[order]
    s = start[order]
    span = length[order]
    offset = c * (4.0 * _TWO_PI)
    reach = np.maximum.accumulate(offset + s + span) - offset
    new = np.ones(c.size, dtype=bool)
    np.not_equal(c[1:], c[:-1], out=new[1:])
    first = np.flatnonzero(new)
    own = np.cumsum(new) - 1  # position of each arc's circle in ``first``
    top = np.maximum.reduceat(reach, first)
    before = np.concatenate(([-np.inf], reach[:-1]))
    np.maximum(before, top[own] - _TWO_PI, out=before)
    # a circle with a whole-circle arc has no gap, rounding aside
    open_circle = np.maximum.reduceat(span, first) < _TWO_PI
    inner = (s > before) & ~new & open_circle[own]
    closing = (top < s[first] + _TWO_PI) & open_circle
    gap_c = np.concatenate([c[inner], c[first][closing], bare])
    gap_a = np.concatenate([before[inner], top[closing],
                            np.zeros(bare.size)])
    gap_b = np.concatenate([s[inner], s[first][closing] + _TWO_PI,
                            np.full(bare.size, _TWO_PI)])
    by_circle = np.argsort(gap_c, kind="stable")
    return gap_c[by_circle], gap_a[by_circle], gap_b[by_circle]


def _convex_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Convex hull of the points (x, y); CCW vertices without repetition.

    Andrew's plain monotone chain over the points in (x, y) order.  A
    repeated point or one on a hull edge is popped like any other that
    makes no left turn, so only when every point is the same does the
    chain need a guard: the hull is then that one point.
    """
    order = np.lexsort((y, x))
    pts = np.column_stack([x[order], y[order]])
    if pts.shape[0] <= 1 or (pts[0] == pts[-1]).all():
        return pts[:1]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    seq = pts.tolist()
    lower = half(seq)
    upper = half(seq[::-1])
    return np.array(lower[:-1] + upper[:-1])

"""Planar primitives for probe-search placements on the unit disk.

Everything here works in the "unit-disk frame": the current search area is
the closed disk of radius 1 centered at the origin, and probe radii are
proportional (0 < rho <= 1).  The module provides hexagonal lattices and
their circumscribed probes, chord and balanced probe placement math, and
the coverage certifier: an exact probe-circle arc test decides whether a
union of probe disks covers the unit disk, and a quadtree maps the
uncovered cells when a caller needs to see the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Point2",
    "Probe",
    "Hexagon",
    "CoverageReport",
    "hex_lattice",
    "circumscribe",
    "chord_probe",
    "balanced_probe_center",
    "certify_coverage",
]

# Ring-1 neighbor angles for a flat-top hexagonal lattice (centers at
# distance sqrt(3)*side), counterclockwise starting at 30 degrees.
_RING_ANGLES = [math.radians(30 + 60 * i) for i in range(6)]

# boundary tolerance of the coverage certifier: probe disks count as
# dilated by this much, so that probes meeting tangentially still certify
_TOL = 1e-9
_TWO_PI = 2.0 * math.pi
# elements of a (probes, cells) comparison block of the refine quadtree
_QUAD_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class Hexagon:
    """Flat-top regular hexagon (horizontal edges at top and bottom)."""

    center: Point2
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("hexagon side must be positive")

    def vertices(self) -> list[Point2]:
        return [
            Point2(
                self.center.x + self.side * math.cos(i * math.pi / 3),
                self.center.y + self.side * math.sin(i * math.pi / 3),
            )
            for i in range(6)
        ]

    def contains(self, p: Point2, tol: float = 1e-12) -> bool:
        qx = abs(p.x - self.center.x)
        qy = abs(p.y - self.center.y)
        s = self.side
        return (
            qy <= math.sqrt(3) / 2 * s + tol
            and math.sqrt(3) * qx + qy <= math.sqrt(3) * s + tol
        )


@dataclass
class CoverageReport:
    certified_covered: bool
    # decide mode measures no area: an uncovered placement reports pi,
    # the area of the whole disk
    uncovered_area_upper_bound: float
    # refine mode: one (n, 3) array [x, y, half_side] of uncovered cells
    # per cluster, largest cluster first
    uncovered_regions: list
    # refine mode: smallest cell side visited; decide mode visits no cells
    # and reports 0.0
    min_cell_size_reached: float
    # decide mode: (circle, start, end) per uncovered arc, counterclockwise
    # angles in radians about the circle's center with 0 <= start < 2*pi
    # and start < end; circle -1 is the unit circle and k the circle of
    # probe k dilated by the 1e-9 tolerance
    uncovered_arcs: list = field(default_factory=list)

    def __post_init__(self):
        if self.certified_covered:
            assert self.uncovered_area_upper_bound == 0.0
            assert not self.uncovered_regions
            assert not self.uncovered_arcs


def hex_lattice(layers: int, r: float) -> list[Hexagon]:
    """L-layer hexagonal lattice of side 2r/(3L-2) covering the radius-r disk.

    Returns 1 + 6*C(L,2) flat-top hexagons, enumerated ring by ring
    counterclockwise, center hexagon last.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if r <= 0:
        raise ValueError("disk radius must be positive")
    s = 2.0 * r / (3 * layers - 2)
    step = math.sqrt(3) * s
    hexes: list[Hexagon] = []
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
                hexes.append(Hexagon(Point2(cx, cy), s))
                cx += dx
                cy += dy
    hexes.append(Hexagon(Point2(0.0, 0.0), s))
    return hexes


def circumscribe(hexagon: Hexagon) -> Probe:
    """Circumscribed circle of a regular hexagon: radius equals the side."""
    return Probe(hexagon.center, hexagon.side)


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


def balanced_probe_center(r1: float, rk: float) -> tuple[float, float]:
    """Angular step and center distance for an annulus-bridging probe.

    The probe of radius ``rk`` is positioned so that it spans the annulus
    between the central circle of radius ``r1`` and the unit circle, and the
    chords it cuts on both circles subtend the same angle at the origin:
    its boundary passes through collinear points at radii r1 and 1.

    Returns ``(theta, center_distance)`` where ``theta`` is the half-angle
    subtended by the probe on either circle and ``center_distance`` is
    ``sqrt(r1 + rk^2)``, the distance of the probe center from the origin.
    """
    w = (1.0 - r1) / 2.0
    if rk < w - 1e-15:
        raise ValueError(
            f"probe radius {rk} too small to bridge annulus of half-width {w}"
        )
    h = math.sqrt(max(0.0, rk * rk - w * w))
    theta = math.atan2(h, 1.0 - w)
    center_distance = math.sqrt(r1 + rk * rk)
    return theta, center_distance


def _probe_arrays(probes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    px = np.array([p.center.x for p in probes])
    py = np.array([p.center.y for p in probes])
    pr = np.array([p.rho for p in probes])
    return px, py, pr


def certify_coverage(placement, min_cell: float = 1e-4,
                     refine_uncovered: bool = False) -> CoverageReport:
    """Whether the probes cover the closed unit disk, and where they do not.

    Decide mode (the default) is exact up to the fixed 1e-9 tolerance: it
    certifies iff the probe disks, each dilated by 1e-9, cover the closed
    unit disk.  By the criterion of Huang and Tseng (WSNA 2003), closed
    disks cover a convex region iff they cover its boundary and, for each
    disk, the other disks cover the arc of its circle that lies inside the
    region; ``_uncovered_arcs`` tests exactly that, so closed probe disks
    that meet tangentially, as in the hexagonal lattices, still certify.
    Identical probes do not count as covering each other's circles.  The
    report lists the uncovered arcs; decide mode ignores ``min_cell``.

    With ``refine_uncovered`` a conservative quadtree maps the gaps
    instead.  The disk is split into a core disk of radius 1 - delta and
    the remaining boundary annulus (exact 1-D angular-interval analysis: a
    radial segment lies inside a convex probe disk iff both endpoints do).
    A square cell of the core is certified when it lies wholly outside the
    core disk or wholly inside a single dilated probe disk (farthest corner
    within the radius).  Cells that cannot be certified are subdivided
    until their side drops below ``min_cell``; the survivors, clustered,
    are the report's uncovered regions.  This mode is sound but
    incomplete: it may leave thin covered slivers unresolved.

    ``placement`` is either a sequence of probes or an object with a
    ``probes`` attribute.
    """
    probes = getattr(placement, "probes", placement)
    if len(probes) == 0:
        raise ValueError("empty placement")
    px, py, pr = _probe_arrays(probes)
    if not refine_uncovered:
        arcs = _uncovered_arcs(px, py, pr)
        if not arcs:
            return CoverageReport(True, 0.0, [], 0.0)
        return CoverageReport(False, math.pi, [], 0.0, arcs)
    if min_cell <= 0:
        raise ValueError("min_cell must be positive")
    pr2 = (pr + _TOL) ** 2

    # a probe containing the whole unit disk certifies everything at once
    if np.any(np.hypot(px, py) + 1.0 <= pr + 1e-12):
        return CoverageReport(True, 0.0, [], 2.0)

    # boundary annulus 1 - delta < |z| <= 1, certified by exact arc
    # intervals, at the working resolution so that gap extents are seen;
    # the quadtree below covers the core disk |z| <= 1 - delta
    delta = min(1e-2, max(1e-4, 4.0 * min_cell))
    # chain of delta-sized flagged cells along each uncovered arc, merged
    # with the core quadtree result below
    gap_cells: list[np.ndarray] = []
    for a, b in _annulus_gaps(px, py, pr, delta):
        steps = max(1, int(math.ceil((b - a) * (1.0 - 0.5 * delta)
                                     / delta)))
        ang = a + (b - a) * (np.arange(steps) + 0.5) / steps
        gap_cells.append(np.column_stack([
            np.cos(ang) * (1.0 - 0.5 * delta),
            np.sin(ang) * (1.0 - 0.5 * delta),
            np.full(steps, 0.5 * delta),
            np.ones(steps),
        ]))
    r_core = 1.0 - delta
    unc, min_side_seen = _core_cells(px, py, pr2, r_core, min_cell)
    unc.extend(gap_cells)
    if not unc:
        return CoverageReport(True, 0.0, [], min_side_seen)

    cells = np.concatenate(unc)
    # clusters of merely-unresolved cells (no provably uncovered point) can
    # still be certified when they sit at an exact probe-circle junction
    clusters = [c for c in _cluster_cells(cells)
                if c[:, 3].any() or not _junction_certified(c, px, py, pr)]
    if not clusters:
        return CoverageReport(True, 0.0, [], min_side_seen)
    area = float(sum(np.sum((2.0 * c[:, 2]) ** 2) for c in clusters))
    return CoverageReport(False, area, [c[:, :3] for c in clusters],
                          min_side_seen)


def _core_cells(px: np.ndarray, py: np.ndarray, pr2: np.ndarray,
                r_core: float, min_cell: float
                ) -> tuple[list[np.ndarray], float]:
    """The refine-mode quadtree over the core disk |z| <= r_core.

    Returns (n, 4) blocks [x, y, half, bad] of the cells that are neither
    wholly outside the core disk nor wholly inside one probe disk of
    squared radius pr2, refined until their side drops below ``min_cell``
    (``bad`` marks the cells whose center is provably uncovered), and the
    smallest cell side visited.
    """
    cx = np.array([0.0])
    cy = np.array([0.0])
    half = 1.0  # all cells at one subdivision level share their size
    min_side_seen = 2.0
    unc: list[np.ndarray] = []  # (n, 4) blocks of [x, y, half, bad]

    while cx.size:
        side = 2.0 * half
        min_side_seen = min(min_side_seen, side)
        # irrelevant: wholly outside the closed core disk
        nx = np.maximum(np.abs(cx) - half, 0.0)
        ny = np.maximum(np.abs(cy) - half, 0.0)
        alive = nx * nx + ny * ny <= r_core * r_core
        # open: not wholly inside any single probe disk
        open_idx = np.flatnonzero(alive)
        open_idx = open_idx[~_inside_any(cx[open_idx], cy[open_idx], half,
                                         px, py, pr2)]
        if open_idx.size == 0:
            break
        ox, oy = cx[open_idx], cy[open_idx]
        # exact disproof: a cell center inside the core disk but outside
        # every probe disk is a genuine uncovered point
        bad = ((ox * ox + oy * oy <= r_core * r_core)
               & ~_inside_any(ox, oy, 0.0, px, py, pr2))
        # provably uncovered cells stop refining at min_cell, like the
        # merely unresolved ones, so callers measuring gaps see true sizes
        if side / 2.0 < min_cell:
            unc.append(np.column_stack([ox, oy, np.full(ox.size, half),
                                        bad.astype(float)]))
            break
        cx, cy = ox, oy
        half /= 2.0
        n_open = cx.size
        cx = np.repeat(cx, 4) + np.tile([-half, -half, half, half], n_open)
        cy = np.repeat(cy, 4) + np.tile([-half, half, -half, half], n_open)
    return unc, min_side_seen


def _inside_any(cx: np.ndarray, cy: np.ndarray, half: float,
                px: np.ndarray, py: np.ndarray, pr2: np.ndarray) -> np.ndarray:
    """Whether each square cell (cx, cy) of half-side ``half`` lies wholly
    inside some closed disk (px, py) of squared radius pr2: its farthest
    corner is within the radius; half = 0 tests the points (cx, cy).  The
    (disks, cells) comparisons run in blocks of about _QUAD_CHUNK."""
    out = np.empty(cx.size, dtype=bool)
    cols = max(1, _QUAD_CHUNK // px.size)
    # disks along the first axis: reducing over it is an elementwise OR
    # of cell rows, fast also for a handful of disks
    for k in range(0, cx.size, cols):
        fx = np.abs(cx[k:k + cols] - px[:, None]) + half
        fy = np.abs(cy[k:k + cols] - py[:, None]) + half
        out[k:k + cols] = (fx * fx + fy * fy <= pr2[:, None]).any(axis=0)
    return out


def _uncovered_arcs(px: np.ndarray, py: np.ndarray, pr: np.ndarray,
                    probe_circles: bool = True
                    ) -> list[tuple[int, float, float]]:
    """Arcs that break the Huang-Tseng coverage criterion for the probe
    disks dilated by the 1e-9 tolerance, as (circle, start, end) in the
    convention of ``CoverageReport.uncovered_arcs``; empty iff they cover
    the closed unit disk.

    All m + 1 circles go through one pass: row 0 is the unit circle, which
    the probe disks must cover, and row k + 1 the dilated circle of probe
    k, which the other probe disks must cover inside the open unit disk.
    Without ``probe_circles`` only the unit circle is checked.
    """
    r = pr + _TOL
    if not probe_circles:
        center, half = _covered_arcs(np.zeros(1), np.zeros(1), np.ones(1),
                                     px, py, r)
    else:
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


def _junction_certified(cluster: np.ndarray, px: np.ndarray, py: np.ndarray,
                        pr: np.ndarray) -> bool:
    """Certify a cluster of unresolved cells that surrounds an exact
    junction of probe circles.

    If a point V lies on (within the fixed 1e-9 tolerance) the boundary
    circles of several probes whose inward normals at V positively span the
    plane with angular gaps of at most 2*acos(mu), every point within
    mu * r_min / 2 of V lies in one of those closed probes (dilated by the
    tolerance): pick the probe whose inward normal is within acos(mu) of
    the displacement direction; its linear margin dominates the curvature
    correction on that ball.  The cluster is certified when it fits inside
    the ball.
    """
    z0x = float(cluster[:, 0].mean())
    z0y = float(cluster[:, 1].mean())
    reach = float(np.max(np.hypot(cluster[:, 0] - z0x, cluster[:, 1] - z0y)
                         + cluster[:, 2] * math.sqrt(2.0)))
    dist0 = np.hypot(px - z0x, py - z0y)
    near = np.flatnonzero(np.abs(dist0 - pr) <= reach + 1e-6)
    if near.size < 2:
        return False
    for i_pos in range(near.size):
        for j_pos in range(i_pos + 1, near.size):
            i, j = int(near[i_pos]), int(near[j_pos])
            for vx, vy in _circle_intersections(px[i], py[i], pr[i],
                                                px[j], py[j], pr[j]):
                if math.hypot(vx - z0x, vy - z0y) > 4.0 * reach + 1e-6:
                    continue
                dv = np.hypot(px - vx, py - vy)
                on = np.abs(dv - pr) <= _TOL
                if int(on.sum()) < 2:
                    continue
                angles = np.sort(np.arctan2(vy - py[on], vx - px[on]))
                gap = float(np.max(np.diff(np.concatenate(
                    [angles, angles[:1] + 2.0 * math.pi]))))
                mu = math.cos(0.5 * gap)
                if mu <= 0.05:
                    continue
                r_safe = 0.5 * mu * float(pr[on].min())
                fits = np.hypot(cluster[:, 0] - vx, cluster[:, 1] - vy) \
                    + cluster[:, 2] * math.sqrt(2.0) <= r_safe
                if bool(fits.all()):
                    return True
    return False


def _circle_intersections(x1: float, y1: float, r1: float, x2: float,
                          y2: float, r2: float) -> list[tuple[float, float]]:
    """Intersection points of two circles (empty when disjoint or nested)."""
    dx, dy = x2 - x1, y2 - y1
    d = math.hypot(dx, dy)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(max(0.0, h2))
    mx, my = x1 + a * dx / d, y1 + a * dy / d
    return [(mx + h * dy / d, my - h * dx / d),
            (mx - h * dy / d, my + h * dx / d)]


def _annulus_gaps(px: np.ndarray, py: np.ndarray, pr: np.ndarray,
                  delta: float) -> list[tuple[float, float]]:
    """Angular intervals of the annulus 1 - delta < |z| <= 1 not certified
    covered.  A probe covers the full radial segment at angle theta iff it
    contains both segment endpoints (probe disks are convex).  Scalar math
    keeps the refine-mode gap cells bit-stable: NumPy's vectorized arccos
    and arctan2 may round differently from ``math``."""
    starts, lengths = [], []
    for x, y, r in zip(px, py, pr):
        d = math.hypot(x, y)
        r_tol = r + _TOL
        half = math.pi
        for t in (1.0 - delta, 1.0):
            if d + t <= r_tol:
                continue  # probe contains the whole circle of radius t
            if d == 0.0 or t > d + r_tol:
                half = -1.0
                break
            c = (t * t + d * d - r_tol * r_tol) / (2.0 * t * d)
            if c > 1.0:
                half = -1.0
                break
            half = min(half, math.acos(max(-1.0, c)))
        if half >= 0.0:
            starts.append((math.atan2(y, x) - half) % _TWO_PI)
            lengths.append(2.0 * half)
    _, a, b = _circle_gaps(np.zeros(len(starts), dtype=np.int64),
                           np.array(starts, dtype=float),
                           np.array(lengths, dtype=float), 1)
    return list(zip(a.tolist(), b.tolist()))


def _cluster_cells(cells: np.ndarray) -> list[np.ndarray]:
    """Group cells into 8-neighbor connected components.

    Cells may have mixed sizes; adjacency is judged on the grid of the
    coarsest cell so touching cells of different depths merge.  Clusters
    are ordered by area, largest first, ties by their first cell; each
    lists its cells in input order.
    """
    grid = 2.0 * float(cells[:, 2].max())
    ix = _dense_rank(np.floor(cells[:, 0] / grid))
    iy = _dense_rank(np.floor(cells[:, 1] / grid))
    # one integer key per grid bucket, with a free row on either side of
    # the iy range so that neighbor keys never wrap into another column
    width = int(iy.max()) + 3
    keys, bucket = np.unique(ix * width + iy + 1, return_inverse=True)
    # neighboring bucket pairs; the other four offsets are their mirrors
    src, dst = [], []
    for offset in (width - 1, width, width + 1, 1):
        pos = np.minimum(np.searchsorted(keys, keys + offset), keys.size - 1)
        hit = np.flatnonzero(keys[pos] == keys + offset)
        src.append(hit)
        dst.append(pos[hit])
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    # label propagation: hook each root onto the smallest root it meets
    # along an edge, then compress every pointer chain to its root
    root = np.arange(keys.size)
    while True:
        a, b = root[src], root[dst]
        apart = a != b
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(a, b)[apart],
                      np.minimum(a, b)[apart])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    label = root[bucket]
    # clusters in order of their first cell, members in input order
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    groups = np.split(order, starts[1:])
    groups.sort(key=lambda g: g[0])
    clusters = [cells[g] for g in groups]
    clusters.sort(key=lambda c: -float(np.sum(c[:, 2] ** 2)))
    return clusters


def _dense_rank(v: np.ndarray) -> np.ndarray:
    """Small integer coordinates for grid indices: neighbors stay one
    apart and any wider gap becomes two, so bucket keys cannot overflow
    however sparse and fine the grid is."""
    values, inverse = np.unique(v, return_inverse=True)
    steps = np.minimum(np.diff(values), 2.0).astype(np.int64)
    return np.concatenate(([0], np.cumsum(steps)))[inverse]


def _cells_hull(cells: np.ndarray) -> np.ndarray:
    """Convex hull of the corners of square cells given as [x, y, half]."""
    x, y, h = cells[:, 0], cells[:, 1], cells[:, 2]
    # each cell puts a vertical edge from y - h to y + h at x - h and x + h
    return _convex_hull(np.concatenate([x - h, x + h]),
                        np.concatenate([y - h, y - h]),
                        np.concatenate([y + h, y + h]))


def _convex_hull(x: np.ndarray, low: np.ndarray,
                 high: np.ndarray) -> np.ndarray:
    """Convex hull of the vertical segments (x, low)-(x, high), a point
    where low == high; CCW vertices without repetition.

    Only the lowest and the highest point of each x column can be a
    vertex, so Andrew's monotone chain walks at most two points per
    column.
    """
    order = np.argsort(x)
    x = x[order]
    first = np.flatnonzero(np.diff(x, prepend=-np.inf))
    low = np.minimum.reduceat(low[order], first)
    high = np.maximum.reduceat(high[order], first)
    ends = np.stack([np.column_stack([x[first], low]),
                     np.column_stack([x[first], high])], axis=1)
    pts = ends[np.column_stack([np.ones(first.size, dtype=bool),
                                high > low])]
    if pts.shape[0] <= 2:
        return pts

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

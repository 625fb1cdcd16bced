"""Deterministic per-layer probe placements for the search algorithms.

Generators for the fixed layer placements of Algorithms 1-6, the
response-limited hexagonal family, and the shell binary-search baseline,
plus JSON serialization of placements (used for the optimizer outputs,
Algorithms 7-8).

All placements are expressed on the closed unit disk; the simulator scales
them to the current search radius.  Probes are listed in issue order; for
the omission-based schemes the final probe is part of the placement (it is
required for coverage) but is never executed at runtime.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import (
    Point2,
    Probe,
    certify_coverage,
    chord_probe,
    hex_lattice,
    circumscribe,
    _probe_arrays,
    _uncovered_arcs,
)

SCHEMA_VERSION = 1
TOOL_VERSION = "marcopolo 0.1.0"

# Frozen schedule bases.  Each value is the minimal rho1 (to the 1e-4
# bisection tolerance of verifier.minimal_rho1) at which the corresponding
# construction certifies; regenerating them requires no search.
ALG3_RHO1 = 0.8439
ALG4_RHO1 = 0.8209
ALG5_RHO1 = 0.8333
ALG6_RHO1 = 0.8135

# Angular overlap margin (radians) left at each junction of the abutting
# chord construction so that the junction points are covered with positive
# margin rather than by tangency.
ABUT_MARGIN = 1e-3

# ALG4 counterclockwise spatial order of the probes around the circle
# (probes indexed 1..5 in issue order): the two largest are interleaved
# with the next two on either side, the smallest closes the ring.
ALG4_SPATIAL_ORDER = (1, 4, 2, 3, 5)

# ALG6 radial center distances of the 11 outer probes (radii rho1^2..rho1^12),
# optimized offline by dynamic programming over pairwise junction angles and
# frozen here for reproducibility.
ALG6_DISTANCES = (
    0.7365, 0.8425, 0.8990, 0.9345, 0.9560, 0.9250,
    0.9275, 0.9095, 0.9150, 0.9055, 0.9875,
)

PROGRESSIVE_IDS = ("ALG3", "ALG4", "ALG5", "ALG6", "ALG7", "ALG8")
GENERATED_IDS = ("ALG1", "ALG2", "ALG3", "ALG4", "ALG5", "ALG6")


class CertificationError(RuntimeError):
    """Raised when a placement fails its coverage certification."""


@dataclass(frozen=True)
class LayerPlacement:
    """One layer's probe sequence on the unit disk.

    ``coverage`` records which region the placement provably covers:
    ``"disk"`` for the closed unit disk, ``"perimeter"`` for the unit
    circle boundary only (Algorithm 4's arrangement leaves pinhole gaps in
    the disk interior; see ``perimeter_covered``).
    """

    algorithm_id: str
    probes: tuple[Probe, ...]
    rho1: float | None
    certified: bool
    coverage: str = "disk"

    def __post_init__(self) -> None:
        if len(self.probes) < 2:
            raise ValueError("a layer placement needs at least two probes")
        if self.rho1 is not None and self.algorithm_id in PROGRESSIVE_IDS:
            for k, probe in enumerate(self.probes, start=1):
                expected = self.rho1 ** k
                if abs(probe.rho - expected) > 1e-12 * max(1.0, expected):
                    raise ValueError(
                        f"probe {k} violates the geometric schedule: "
                        f"rho={probe.rho} expected {expected}"
                    )

    @property
    def m(self) -> int:
        return len(self.probes)

    def radii(self) -> tuple[float, ...]:
        return tuple(p.rho for p in self.probes)


# ---------------------------------------------------------------------------
# Perimeter (boundary arc) certification
# ---------------------------------------------------------------------------

def perimeter_covered(probes: Sequence[Probe]) -> bool:
    """Exact test that the union of probes, each dilated by the 1e-9
    tolerance, covers the unit circle boundary: the unit-circle half of
    the coverage certifier."""
    return not _uncovered_arcs(*_probe_arrays(probes), probe_circles=False)


def _covers(probes: Sequence[Probe], coverage: str) -> bool:
    """Whether ``probes`` cover the region ``coverage`` names: the unit
    circle for ``"perimeter"``, the closed unit disk otherwise."""
    if coverage == "perimeter":
        return perimeter_covered(probes)
    return certify_coverage(probes).certified_covered


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _rotated(probe: Probe, angle: float) -> Probe:
    c, s = math.cos(angle), math.sin(angle)
    x, y = probe.center.x, probe.center.y
    return Probe(Point2(c * x - s * y, s * x + c * y), probe.rho)


def _alg1_probes() -> tuple[Probe, ...]:
    """Six probes of rho = 1/2 over the outer hexagons of the L=2 lattice,
    counterclockwise, plus the omitted center probe appended last."""
    hexes = hex_lattice(2, 1.0)
    ring = [circumscribe(h) for h in hexes[:-1]]
    center = circumscribe(hexes[-1])
    return tuple(ring) + (center,)


def _alg2_probes() -> tuple[Probe, ...]:
    """Two rho = 1/sqrt(2) probes over the upper quadrants, then the lower
    hexagons of the L=2 lattice; the 270-degree hexagon is the omitted last."""
    big = 1.0 / math.sqrt(2.0)
    hexes = {round(math.degrees(math.atan2(c.center.y, c.center.x))) % 360: c
             for c in (circumscribe(h) for h in hex_lattice(2, 1.0)[:-1])}
    center = circumscribe(hex_lattice(2, 1.0)[-1])
    return (
        Probe(Point2(-0.5, 0.5), big),
        Probe(Point2(0.5, 0.5), big),
        hexes[330],
        center,
        hexes[210],
        hexes[270],
    )


def _abutting_chords(rho1: float, m: int, margin: float) -> tuple[Probe, ...]:
    """Chord probes rho1^k placed counterclockwise in decreasing size with
    consecutive perimeter arcs abutting (overlapping by ``margin`` radians);
    the leftover slack sits at the closing junction."""
    radii = [rho1 ** k for k in range(1, m + 1)]
    probes = [chord_probe(radii[0], 0.0)]
    angle = 0.0
    for k in range(1, m):
        angle += math.asin(radii[k - 1]) + math.asin(radii[k]) - margin
        probes.append(chord_probe(radii[k], angle))
    return tuple(probes)


def _alg4_probes(rho1: float) -> tuple[Probe, ...]:
    """Five chord probes with abutting perimeter arcs in the interleaved
    spatial order, scaled so the arcs exactly close the full turn."""
    radii = [rho1 ** k for k in range(1, 6)]
    halves = [math.asin(r) for r in radii]
    total = 2.0 * sum(halves)
    scale = 2.0 * math.pi / total if total > 2.0 * math.pi else 1.0
    angles = {}
    a = 0.0
    for idx in ALG4_SPATIAL_ORDER:
        angles[idx] = a + halves[idx - 1] * scale
        a += 2.0 * halves[idx - 1] * scale
    return tuple(chord_probe(radii[k], angles[k + 1]) for k in range(5))


def _min_pair_advance(rho1: float, d_a: float, r_a: float,
                      d_b: float, r_b: float, samples: int = 600) -> float:
    """Angular advance between two outer probes such that they jointly cover
    the annulus rho1 <= t <= 1: the minimum over t of the sum of the two
    probes' angular half-widths at radius t."""
    t = np.linspace(rho1, 1.0, samples)

    def half_width(d: float, r: float) -> np.ndarray:
        return np.arccos(np.clip((d * d + t * t - r * r) / (2.0 * d * t),
                                 -1.0, 1.0))

    return float(np.min(half_width(d_a, r_a) + half_width(d_b, r_b)))


def _central_ring(rho1: float, distances: Sequence[float],
                  ks: Sequence[int]) -> tuple[Probe, ...]:
    """Central probe of radius rho1 plus outer probes at the given center
    distances, advancing counterclockwise with junction angles scaled so the
    full turn closes exactly."""
    radii = [rho1 ** k for k in ks]
    n = len(ks)
    adv = [_min_pair_advance(rho1, distances[i], radii[i],
                             distances[(i + 1) % n], radii[(i + 1) % n])
           for i in range(n)]
    total = sum(adv)
    if total < 2.0 * math.pi:
        raise CertificationError(
            f"ring construction cannot close the turn at rho1={rho1}"
        )
    scale = 2.0 * math.pi / total
    probes = [Probe(Point2(0.0, 0.0), rho1)]
    angle = 0.0
    for i in range(n):
        probes.append(Probe(Point2(distances[i] * math.cos(angle),
                                   distances[i] * math.sin(angle)), radii[i]))
        angle += adv[i] * scale
    return tuple(probes)


def _alg5_probes(rho1: float) -> tuple[Probe, ...]:
    ks = range(2, 9)
    distances = [math.sqrt(max(0.0, 1.0 - rho1 ** (2 * k))) for k in ks]
    return _central_ring(rho1, distances, list(ks))


def _alg6_probes(rho1: float) -> tuple[Probe, ...]:
    return _central_ring(rho1, ALG6_DISTANCES, list(range(2, 13)))


def alg2_travel_tour() -> tuple[Probe, ...]:
    """Center-first probe tour of the ALG2 layer.

    Starting with the zero-travel center probe shortens the worst-case tour
    (distance coefficient 8.81 instead of 9.13) at the price of a worse
    worst-case probe coefficient (6 instead of 5, since a response on the
    second quadrant probe then costs three probes per half-level).  The
    published distance figure for the algorithm corresponds to this tour;
    ``generate_layer`` keeps the probe-optimal issue order.
    """
    probes = _alg2_probes()
    return (probes[3], probes[0], probes[1], probes[2], probes[5], probes[4])


def alg1_travel_tour() -> tuple[Probe, ...]:
    """Center-first probe tour of the ALG1 layer.

    Probing the center hexagon first costs the searcher nothing (it already
    stands there), so a POI that keeps landing centrally is resolved with a
    single probe and zero travel per level.  The worst-case coefficients are
    unchanged (six executed probes, distance coefficient 10.39);
    ``generate_layer`` keeps the ring-first issue order in which the center
    hexagon is the omitted last probe.
    """
    probes = _alg1_probes()
    return (probes[6],) + probes[:6]


def execution_layer(placement: LayerPlacement) -> LayerPlacement:
    """The layer as the searcher actually executes it.

    For the hexagonal algorithms the runtime issue order starts at the
    center hexagon (see ``alg1_travel_tour`` / ``alg2_travel_tour``); all
    other placements are executed exactly as constructed.
    """
    tours = {"ALG1": alg1_travel_tour, "ALG2": alg2_travel_tour}
    if placement.algorithm_id not in tours:
        return placement
    return LayerPlacement(placement.algorithm_id, tours[placement.algorithm_id](),
                          placement.rho1, placement.certified, placement.coverage)


# per construction: the builder of its probes from a schedule base, its
# frozen base (None for the fixed lattices, whose builders take none) and
# the region it certifies
_CONSTRUCTIONS: dict[str, tuple[Callable[[float | None], tuple[Probe, ...]],
                                float | None, str]] = {
    "ALG1": (lambda _: _alg1_probes(), None, "disk"),
    "ALG2": (lambda _: _alg2_probes(), None, "disk"),
    "ALG3": (lambda r: _abutting_chords(r, 5, ABUT_MARGIN), ALG3_RHO1, "disk"),
    "ALG4": (_alg4_probes, ALG4_RHO1, "perimeter"),
    "ALG5": (_alg5_probes, ALG5_RHO1, "disk"),
    "ALG6": (_alg6_probes, ALG6_RHO1, "disk"),
}


def construct_layer(algorithm_id: str, rho1: float | None = None) -> LayerPlacement:
    """Build a layer placement without certification (used by searches)."""
    if algorithm_id not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {algorithm_id!r}")
    builder, base, coverage = _CONSTRUCTIONS[algorithm_id]
    if rho1 is not None:
        if base is None:
            raise ValueError(f"{algorithm_id} has no schedule base")
        base = rho1
    return LayerPlacement(algorithm_id, builder(base), base, certified=False,
                          coverage=coverage)


def generate_layer(algorithm_id: str) -> LayerPlacement:
    """Certified layer placement for one of Algorithms 1-6.

    The placement includes the omitted last probe; certification covers the
    union of all probes.  Algorithm 4 is certified on the unit circle
    boundary (its interior retains pinhole gaps at any schedule base
    compatible with its probe coefficient; the uncovered interior area is
    below 3e-4).
    """
    layer = construct_layer(algorithm_id)
    if not _covers(layer.probes, layer.coverage):
        raise CertificationError(f"{algorithm_id} placement failed certification")
    return LayerPlacement(layer.algorithm_id, layer.probes, layer.rho1,
                          certified=True, coverage=layer.coverage)


# ---------------------------------------------------------------------------
# Response-limited hexagonal family
# ---------------------------------------------------------------------------

def hexfam_layers(r_max: int, n: float) -> int:
    """Lattice layer count L for a response budget R_max and radius n."""
    return math.ceil((2.0 * n ** (1.0 / r_max) + 2.0) / 3.0)


def hexfam_layer(r_max: int, n: float) -> LayerPlacement:
    """Hexagonal-lattice layer for the response-limited family.

    Probes are the circumscribed circles of all hexagons of the L-layer
    lattice over the unit disk, ring by ring counterclockwise with the
    center hexagon last; the per-layer shrink factor is (3L - 2) / 2.
    """
    if r_max < 1 or (n > 1 and r_max > math.ceil(math.log2(n))):
        raise ValueError(f"R_max={r_max} outside [1, ceil(log2 n)]")
    layers = hexfam_layers(r_max, n)
    # corner hexagons of deep lattices lie entirely outside the unit disk;
    # they cover nothing and are skipped (the count stays 1 + 6*C(L,2)
    # for shallow lattices)
    probes = tuple(circumscribe(h) for h in hex_lattice(layers, 1.0)
                   if math.hypot(h.center.x, h.center.y) - h.side <= 1.0)
    return LayerPlacement("HEXFAM", probes, None, certified=True,
                          coverage="disk")


# ---------------------------------------------------------------------------
# Shell binary-search baseline
# ---------------------------------------------------------------------------

@dataclass
class ShellTrace:
    probes: int
    final_center: Point2
    success: bool


def shell_baseline(n: float) -> "ShellSearch":
    """Procedural two-phase binary-search baseline for a single POI.

    Phase 1 bisects the probe radius from the center to localize the POI to
    a width-1 shell; phase 2 bisects along the shell to a unit-size cell.
    The probe count constant is fixed by this implementation and asserted
    in a golden test.
    """
    return ShellSearch(n)


@dataclass
class ShellSearch:
    n: float

    def run(self, poi: Point2) -> ShellTrace:
        dist = math.hypot(poi.x, poi.y)
        if dist > self.n:
            raise ValueError("POI outside the search region")
        if self.n <= 1.0:
            return ShellTrace(0, Point2(0.0, 0.0), True)
        probes = 0
        lo, hi = 0.0, self.n
        while hi - lo > 1.0:
            mid = 0.5 * (lo + hi)
            probes += 1
            if dist <= mid:
                hi = mid
            else:
                lo = mid
        # Phase 2: bisect the angular interval [a0, a1] along the shell
        # lo <= r <= hi (the POI angle has a representative in [a0, a1]
        # modulo 2*pi).  Each probe is a disk centered on the shell
        # mid-radius covering the lower quarter of the remaining arc; the
        # exact covered half-angle per shell radius gives a sound update
        # on either response (largest half-angle bounds a positive,
        # smallest bounds a negative).
        a0, a1 = 0.0, 2.0 * math.pi
        while hi * (a1 - a0) > 1.0:
            rm = 0.5 * (lo + hi)
            span = a1 - a0
            full = span >= 2.0 * math.pi - 1e-12
            gamma = min(0.25 * span, 0.5 * math.pi)
            beta = a0 + gamma
            radius = math.sqrt(max(0.0, hi * hi + rm * rm
                                   - 2.0 * hi * rm * math.cos(gamma)))
            radius *= 1.0 + 1e-12
            pos = _shell_alpha_max(lo, hi, rm, radius)
            # guards: a positive response must shrink the arc, and the
            # covered arc must not wrap around into the interval's far end
            limit = math.pi if full else min(0.75 * span,
                                             math.pi - 0.5 * span)
            if pos >= limit - 1e-12:
                # A thick shell at small radius: a positive response would
                # not narrow the arc, so refine the shell radially instead.
                probes += 1
                if dist <= rm:
                    hi = rm
                else:
                    lo = rm
                continue
            center = Point2(rm * math.cos(beta), rm * math.sin(beta))
            probes += 1
            if math.hypot(poi.x - center.x, poi.y - center.y) <= radius:
                if full:
                    a0, a1 = beta - pos, beta + pos
                else:
                    a1 = beta + pos
            else:
                neg = min(_shell_alpha(lo, rm, radius),
                          _shell_alpha(hi, rm, radius))
                a0, a1 = beta + neg, min(a1, beta - neg + 2.0 * math.pi)
        r_mid = 0.5 * (lo + hi)
        a_mid = 0.5 * (a0 + a1)
        final = Point2(r_mid * math.cos(a_mid), r_mid * math.sin(a_mid))
        success = math.hypot(final.x - poi.x, final.y - poi.y) <= 1.0
        return ShellTrace(probes, final, success)


def _shell_alpha(r: float, d: float, radius: float) -> float:
    """Half-angle of the arc of the radius-r circle covered by a disk of
    the given radius centered at distance d from the origin."""
    if r < 1e-12:
        return math.pi if radius >= d else 0.0
    v = (r * r + d * d - radius * radius) / (2.0 * r * d)
    return math.acos(min(1.0, max(-1.0, v)))


def _shell_alpha_max(lo: float, hi: float, d: float, radius: float) -> float:
    """Largest covered half-angle over shell radii lo <= r <= hi (the
    covered region bulges at r = sqrt(d^2 - radius^2) when interior)."""
    best = max(_shell_alpha(lo, d, radius), _shell_alpha(hi, d, radius))
    bulge = d * d - radius * radius
    if bulge > 0.0:
        r_star = math.sqrt(bulge)
        if lo < r_star < hi:
            best = max(best, _shell_alpha(r_star, d, radius))
    return best


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@dataclass
class PlacementFile:
    """Serializable placement with provenance; round-trips losslessly."""

    algorithm_id: str
    rho1: float | None
    probes: tuple[Probe, ...]
    coverage: str = "disk"
    provenance: dict = field(default_factory=lambda: {
        "kind": "constructed", "seed": None, "tool": TOOL_VERSION})
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_layer(cls, layer: LayerPlacement,
                   provenance: dict | None = None) -> "PlacementFile":
        return cls(layer.algorithm_id, layer.rho1, layer.probes,
                   layer.coverage,
                   provenance or {"kind": "constructed", "seed": None,
                                  "tool": TOOL_VERSION})

    def to_layer(self, certified: bool) -> LayerPlacement:
        return LayerPlacement(self.algorithm_id, self.probes, self.rho1,
                              certified=certified, coverage=self.coverage)

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "algorithm_id": self.algorithm_id,
            "rho1": self.rho1,
            "coverage": self.coverage,
            "probes": [{"x": p.center.x, "y": p.center.y, "rho": p.rho}
                       for p in self.probes],
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PlacementFile":
        payload = json.loads(text)
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {version!r}")
        probes = tuple(Probe(Point2(p["x"], p["y"]), p["rho"])
                       for p in payload["probes"])
        return cls(payload["algorithm_id"], payload["rho1"], probes,
                   payload.get("coverage", "disk"), payload["provenance"],
                   version)


def save_placement(placement_file: PlacementFile, path: str | Path) -> None:
    Path(path).write_text(placement_file.to_json())


def load_placement(path: str | Path,
                   allow_uncertified: bool = False) -> LayerPlacement:
    """Load a placement and re-run its coverage certification.

    Uncertified files are refused unless ``allow_uncertified`` is set (the
    returned placement then carries ``certified=False``).
    """
    pf = PlacementFile.from_json(Path(path).read_text())
    ok = _covers(pf.probes, pf.coverage)
    if not ok and not allow_uncertified:
        raise CertificationError(f"placement {path} failed certification")
    return pf.to_layer(certified=ok)

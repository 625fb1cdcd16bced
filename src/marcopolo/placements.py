"""Deterministic per-layer probe placements for the search algorithms.

Generators for the fixed layer placements of Algorithms 1-6 and the
response-limited hexagonal family, plus JSON serialization of placements
(used for the optimizer outputs, Algorithms 7-8).

All placements are expressed on the closed unit disk; the simulator scales
them to the current search radius.  Probes are listed in analysis order;
for the omission-based schemes the final probe is part of the placement (it
is required for coverage) but is never executed at runtime.  The searcher
issues them in that order except where a construction gives its own issue
order (see ``execution_layer``).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .geometry import (
    Point2,
    Probe,
    _check_radius,
    certify_coverage,
    chord_probe,
    hex_lattice,
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
    # the simulator's per-layer search constants, built on first use
    _frame: object = field(default=None, init=False, compare=False,
                           repr=False)

    def __post_init__(self) -> None:
        if len(self.probes) < 2:
            raise ValueError("a layer placement needs at least two probes")
        if self.rho1 is not None and self.algorithm_id in PROGRESSIVE_IDS:
            for k, probe in enumerate(self.probes, start=1):
                expected = self.rho1 ** k
                # a NaN or infinite base fails isclose
                if not math.isclose(probe.rho, expected, rel_tol=1e-12,
                                    abs_tol=1e-12):
                    raise ValueError(
                        f"probe {k} violates the geometric schedule: "
                        f"rho={probe.rho} expected {expected}"
                    )

    @property
    def m(self) -> int:
        return len(self.probes)


# ---------------------------------------------------------------------------
# Coverage of the region a coverage label names
# ---------------------------------------------------------------------------

def uncovered_arcs(probes: Sequence[Probe], coverage: str) -> list:
    """The uncovered arcs of ``certify_coverage`` that lie in the region
    ``coverage`` names: those of the unit circle (circle -1) for
    ``"perimeter"``, all of them for the closed unit disk otherwise.  The
    list is empty iff the probes, each dilated by the coverage tolerance
    ``geometry._TOL``, cover that region."""
    arcs = certify_coverage(probes).uncovered_arcs
    if coverage == "perimeter":
        return [arc for arc in arcs if arc[0] < 0]
    return arcs


def perimeter_covered(probes: Sequence[Probe]) -> bool:
    """Exact test that the probes cover the unit circle boundary to within
    ``_TOL`` (``uncovered_arcs``).  The interior of a perimeter-covering
    layer may keep gaps, where a search loses its POI
    (``SearchTrace.containment_lost``) rather than failing."""
    return not uncovered_arcs(probes, "perimeter")


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _alg1_probes() -> tuple[Probe, ...]:
    """Six probes of rho = 1/2 over the outer hexagons of the L=2 lattice,
    counterclockwise, plus the omitted center probe appended last."""
    return tuple(hex_lattice(2))


def _alg2_probes() -> tuple[Probe, ...]:
    """Two rho = 1/sqrt(2) probes over the upper quadrants, then the lower
    hexagons of the L=2 lattice; the 270-degree hexagon is the omitted last."""
    big = 1.0 / math.sqrt(2.0)
    *ring, center = hex_lattice(2)
    hexes = {round(math.degrees(math.atan2(c.center.y, c.center.x))) % 360: c
             for c in ring}
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


# per construction: the builder of its probes from a schedule base, its
# frozen base (None for the fixed lattices, whose builders take none), the
# region it certifies, and the issue order in which the searcher executes
# its probes (None: as constructed).
#
# The hexagonal layers are issued center first.  The searcher already
# stands at the center, so that probe costs no travel.  For ALG1 the
# worst-case coefficients are unchanged (six executed probes, distance
# coefficient 10.39).  For ALG2 the worst-case tour shortens (distance
# coefficient 8.81, the published figure, instead of 9.13) at the price of
# a worse worst-case probe coefficient (6 instead of 5: a response on the
# second quadrant probe then costs three probes per half-level).  The
# constructions keep the analysis order, in which the last probe is the
# omitted one.
_CONSTRUCTIONS: dict[str, tuple[Callable[[float | None], tuple[Probe, ...]],
                                float | None, str,
                                tuple[int, ...] | None]] = {
    "ALG1": (lambda _: _alg1_probes(), None, "disk", (6, 0, 1, 2, 3, 4, 5)),
    "ALG2": (lambda _: _alg2_probes(), None, "disk", (3, 0, 1, 2, 5, 4)),
    "ALG3": (lambda r: _abutting_chords(r, 5, ABUT_MARGIN), ALG3_RHO1, "disk",
             None),
    "ALG4": (_alg4_probes, ALG4_RHO1, "perimeter", None),
    "ALG5": (_alg5_probes, ALG5_RHO1, "disk", None),
    "ALG6": (_alg6_probes, ALG6_RHO1, "disk", None),
}


def execution_layer(placement: LayerPlacement) -> LayerPlacement:
    """The layer as the searcher executes it: the placement's own probes
    permuted by its construction's issue order.  Placements without one
    are executed as listed."""
    entry = _CONSTRUCTIONS.get(placement.algorithm_id)
    order = entry[3] if entry else None
    if order is None:
        return placement
    if len(placement.probes) != len(order):
        raise ValueError(
            f"{placement.algorithm_id} placement has {placement.m} probes; "
            f"its issue order needs {len(order)}")
    return LayerPlacement(placement.algorithm_id,
                          tuple(placement.probes[i] for i in order),
                          placement.rho1, placement.certified,
                          placement.coverage)


def construct_layer(algorithm_id: str,
                    rho1: float | None = None) -> LayerPlacement:
    """Build a layer placement without certification (used by searches)."""
    if algorithm_id not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {algorithm_id!r}")
    builder, base, coverage, _ = _CONSTRUCTIONS[algorithm_id]
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
    if uncovered_arcs(layer.probes, layer.coverage):
        raise CertificationError(
            f"{algorithm_id} placement failed certification")
    return LayerPlacement(layer.algorithm_id, layer.probes, layer.rho1,
                          certified=True, coverage=layer.coverage)


# ---------------------------------------------------------------------------
# Response-limited hexagonal family
# ---------------------------------------------------------------------------

# most hexagons a hexfam_layer lattice may have
_HEXFAM_MAX = 2 ** 20


def hexfam_layers(r_max: int, n: float) -> int:
    """Lattice layer count L for a response budget R_max and radius n."""
    return math.ceil((2.0 * n ** (1.0 / r_max) + 2.0) / 3.0)


def hexfam_layer(r_max: int, n: float) -> LayerPlacement:
    """Hexagonal-lattice layer for the response-limited family.

    Probes are the circumscribed circles of the hexagons of the L-layer
    lattice over the unit disk (``hex_lattice``), ring by ring
    counterclockwise with the center hexagon last; the per-layer shrink
    factor is (3L - 2) / 2.  A lattice of more than ``_HEXFAM_MAX``
    hexagons is rejected before it is built, as is an ``n`` no search
    can run at (``geometry._check_radius``).
    """
    _check_radius(n)
    if r_max < 1 or (n > 1 and r_max > math.ceil(math.log2(n))):
        raise ValueError(f"R_max={r_max} outside [1, ceil(log2 n)]")
    big_l = hexfam_layers(r_max, n)
    count = 1 + 3 * big_l * (big_l - 1)
    if count > _HEXFAM_MAX:
        raise ValueError(f"R_max={r_max} at n={n} needs a lattice of {count} "
                         f"hexagons, above the limit of {_HEXFAM_MAX}")
    probes = tuple(hex_lattice(big_l))
    return LayerPlacement("HEXFAM", probes, None, certified=True,
                          coverage="disk")


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

    @classmethod
    def from_layer(cls, layer: LayerPlacement,
                   provenance: dict | None = None) -> "PlacementFile":
        if provenance is not None and not isinstance(provenance, dict):
            raise TypeError("provenance is not a dict")
        pf = cls(layer.algorithm_id, layer.rho1, layer.probes, layer.coverage)
        if provenance:
            pf.provenance = provenance
        return pf

    def to_layer(self, certified: bool) -> LayerPlacement:
        return LayerPlacement(self.algorithm_id, self.probes, self.rho1,
                              certified=certified, coverage=self.coverage)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
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
        """Parse a placement file; a malformed one raises ValueError
        naming its problem."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("placement file is not a JSON object")
        version = payload.get("schema_version")
        # true and 1.0 equal 1 in Python, but neither is schema version 1
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {version!r}")
        for key in ("algorithm_id", "rho1", "probes", "provenance"):
            if key not in payload:
                raise ValueError(f"placement file lacks {key!r}")
        if not isinstance(payload["algorithm_id"], str):
            raise ValueError("algorithm_id is not a string")
        rho1 = payload["rho1"]
        if rho1 is not None and not (_is_number(rho1) and _is_finite(rho1)):
            raise ValueError("rho1 is neither a finite number nor null")
        if not isinstance(payload["provenance"], dict):
            raise ValueError("provenance is not a JSON object")
        coverage = payload.get("coverage", "disk")
        if coverage not in ("disk", "perimeter"):
            raise ValueError(f"unknown coverage {coverage!r}")
        if not isinstance(payload["probes"], list):
            raise ValueError("probes is not a list")
        if len(payload["probes"]) < 2:
            raise ValueError(f"a layer placement needs at least two probes; "
                             f"the file has {len(payload['probes'])}")
        probes = []
        for k, p in enumerate(payload["probes"], start=1):
            if not (isinstance(p, dict)
                    and all(_is_number(p.get(c)) for c in ("x", "y", "rho"))):
                raise ValueError(f"probe {k} lacks a numeric x, y or rho")
            for c in ("x", "y", "rho"):
                if not _is_finite(p[c]):
                    raise ValueError(f"probe {k} {c} is not a finite number")
            try:
                probes.append(Probe(Point2(p["x"], p["y"]), p["rho"]))
            except ValueError as exc:
                raise ValueError(f"probe {k}: {exc}") from None
        return cls(payload["algorithm_id"], payload["rho1"], tuple(probes),
                   coverage, payload["provenance"])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(number) -> bool:
    """Whether float64 holds ``number`` finitely."""
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer beyond float64's range
        return False


def save_placement(placement_file: PlacementFile, path: str | Path) -> None:
    Path(path).write_text(placement_file.to_json())


def load_placement(path: str | Path,
                   allow_uncertified: bool = False) -> LayerPlacement:
    """Load a placement and re-run its coverage certification.

    Uncertified files are refused unless ``allow_uncertified`` is set (the
    returned placement then carries ``certified=False``).
    """
    pf = PlacementFile.from_json(Path(path).read_text())
    ok = not uncovered_arcs(pf.probes, pf.coverage)
    if not ok and not allow_uncertified:
        raise CertificationError(f"placement {path} failed certification")
    return pf.to_layer(certified=ok)

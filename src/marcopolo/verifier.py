"""Worst-case analysis of layer placements.

Computes the coefficients of the three search metrics for a placement that
is reused recursively with shrink factors equal to the probe radii:

* ``probe_coefficient``   -- c in P(n) = c * ceil(log2 n)
* ``distance_bound``      -- b in D(n) = b * n
* ``response_bound``      -- c_R in R_max = c_R * ceil(log2 n)

plus the minimal-schedule-base search for the progressive constructions and
the analytic lower-bound constant for progressive-shrinking strategies.
All logarithms are base 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .geometry import Probe
from . import placements as _placements

_BISECT_TOL = 1e-4
_LB_TOL = 1e-7


@dataclass(frozen=True)
class BoundsReport:
    c_probes: float
    b_distance: float
    c_responses: float
    worst_probe_index: dict[str, int]

    def __post_init__(self) -> None:
        if min(self.c_probes, self.b_distance, self.c_responses) < 0:
            raise ValueError("coefficients must be non-negative")
        if self.c_responses > self.c_probes + 1e-12:
            raise ValueError("response coefficient cannot exceed probe coefficient")


def _layer_probes(placement) -> Sequence[Probe]:
    """The probes of ``placement``, a LayerPlacement or a probe sequence;
    a layer needs two, as ``LayerPlacement`` requires: with one there is
    no executed probe before the omitted last."""
    probes = getattr(placement, "probes", placement)
    if len(probes) < 2:
        raise ValueError("a layer placement needs at least two probes")
    return probes


def probe_coefficient(placement) -> float:
    """Worst-case probe coefficient c with last-probe omission.

    Responding at probe k < m costs k probes for a shrink of rho_k; when
    all m-1 executed probes are negative the search paid m-1 probes and
    still shrinks by rho_m: c = max(max_{k<m} k/(-log2 rho_k),
    (m-1)/(-log2 rho_m)).
    """
    return max(_probe_rates(_layer_probes(placement)))


def _probe_rates(probes: Sequence[Probe]) -> list[float]:
    """Probes paid per halving of the area when the search ends at probe
    k = 1..m; the last entry is the all-negative case."""
    rhos = [p.rho for p in probes]
    if any(r >= 1.0 for r in rhos):
        raise ValueError("probe of radius 1 gives an infinite coefficient")
    m = len(rhos)
    rates = [k / -math.log2(rhos[k - 1]) for k in range(1, m)]
    rates.append((m - 1) / -math.log2(rhos[m - 1]))
    return rates


def _worst_index(values: Sequence[float]) -> int:
    return int(max(range(len(values)), key=values.__getitem__)) + 1


def distance_bound(placement) -> float:
    """Distance coefficient b: travel legs accumulated from the area center
    through the probe sequence, per unit of remaining radius.

    A level that ends in the omitted last probe m leaves the searcher at
    probe m - 1, ``gap`` from probe m's center.  The accumulated legs walk
    on to that center, and the next level walks d1 * rho_m from it to its
    first probe; but the next layer is rotated so that probe faces the
    searcher, who walks only |gap - d1 * rho_m|.  So the level is charged
    its legs minus 2 * min(gap, d1 * rho_m), the walk the search makes.
    """
    return max(_distance_rates(_layer_probes(placement)))


def _distance_rates(probes: Sequence[Probe]) -> list[float]:
    """Travel paid per unit of remaining radius when the search ends at
    probe k = 1..m: the accumulated legs over 1 - rho_k, the last level
    charged as ``distance_bound`` says."""
    d1 = math.hypot(probes[0].center.x, probes[0].center.y)
    cum = 0.0
    cx = cy = 0.0
    rates = []
    for i, p in enumerate(probes):
        if p.rho >= 1.0:
            raise ValueError("probe of radius 1 gives an unbounded distance")
        leg = math.hypot(p.center.x - cx, p.center.y - cy)
        cum += leg
        if i == len(probes) - 1:
            cum -= 2.0 * min(leg, d1 * p.rho)
        rates.append(cum / (1.0 - p.rho))
        cx, cy = p.center.x, p.center.y
    return rates


def response_bound(placement) -> float:
    """Response coefficient c_R = -1/log2(rho_max): every response shrinks
    the area by at least the largest probe's factor."""
    rho_max = max(p.rho for p in _layer_probes(placement))
    if rho_max >= 1.0:
        raise ValueError("probe of radius 1 gives an unbounded response count")
    return -1.0 / math.log2(rho_max)


def bounds_report(placement) -> BoundsReport:
    probes = _layer_probes(placement)
    p_rates = _probe_rates(probes)
    d_rates = _distance_rates(probes)
    rhos = [p.rho for p in probes]
    return BoundsReport(
        c_probes=max(p_rates),
        b_distance=max(d_rates),
        c_responses=response_bound(placement),
        worst_probe_index={
            "probes": _worst_index(p_rates),
            "distance": _worst_index(d_rates),
            "responses": _worst_index(rhos),
        },
    )


# ---------------------------------------------------------------------------
# Minimal schedule base
# ---------------------------------------------------------------------------

def _chord_arcs_close(rho: float, term_tol: float = 5e-15) -> bool:
    """Whether the infinite chord schedule rho^k, k = 1, 2, ..., covers the
    perimeter: its arc half-widths asin(rho^k) sum to pi.  The series is
    cut at the first term below ``term_tol``."""
    total = 0.0
    rk = rho
    while True:
        term = math.asin(rk)
        total += term
        if total >= math.pi:
            return True
        if term < term_tol:
            return False
        rk *= rho


def minimal_rho1(scheme: str, tol: float = _BISECT_TOL) -> float:
    """Bisection for the minimal schedule base rho1 of a construction.

    ``scheme`` is one of ALG3, ALG4, ALG5, ALG6 or PERIMETER_ONLY.  The
    disk constructions use the coverage certifier as predicate (ALG4 its
    exact perimeter-arc predicate; PERIMETER_ONLY the closed-form arc-width
    sum for the infinite chord schedule).
    """
    if scheme == "PERIMETER_ONLY":
        predicate: Callable[[float], bool] = _chord_arcs_close
        lo, hi = 0.5, 0.999
    elif scheme in ("ALG3", "ALG4", "ALG5", "ALG6"):

        def predicate(rho1: float) -> bool:
            try:
                layer = _placements.construct_layer(scheme, rho1)
            except (_placements.CertificationError, ValueError):
                return False
            return _placements._covers(layer.probes, layer.coverage)

        lo, hi = 0.5, 0.99
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not predicate(hi):
        raise RuntimeError(f"scheme {scheme} never certifies")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Lower bound for progressive-shrinking strategies
# ---------------------------------------------------------------------------

def lower_bound_constant(term_threshold: float = 1e-12) -> tuple[float, float]:
    """Constant c_lb solving sum_k asin(2^(-k/c)) = pi, with the matching
    first-probe radius rho_lb = 2^(-1/c_lb).

    Any progressive-shrinking strategy needs at least c_lb * ceil(log2 n)
    probes: the chord arcs of the schedule must cover the perimeter.
    """

    lo, hi = 1.0, 4.0
    while hi - lo > _LB_TOL:
        mid = 0.5 * (lo + hi)
        if _chord_arcs_close(2.0 ** (-1.0 / mid), term_threshold):
            hi = mid
        else:
            lo = mid
    c_lb = 0.5 * (lo + hi)
    return c_lb, 2.0 ** (-1.0 / c_lb)

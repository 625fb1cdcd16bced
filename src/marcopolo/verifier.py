"""Worst-case analysis of layer placements.

Computes the coefficients of the three search metrics for a placement that
is reused recursively with shrink factors equal to the probe radii, from
the per-level cost table the search kernels read (``simulator._levels``):

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
from typing import Callable

from . import placements as _placements
from .simulator import _levels

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
            raise ValueError(
                "response coefficient cannot exceed probe coefficient")


def _level_rates(placement) -> tuple[list[float], list[float],
                                      list[float]]:
    """Per probe k that a level ends in, read from the layer's cost table
    (``simulator._levels``): the probes the level pays per halving of the
    area, the travel it pays per unit of remaining radius, and its shrink
    rho_k.  ``placement`` is a LayerPlacement or a probe sequence; a layer
    needs two probes, as ``LayerPlacement`` requires: with one there is no
    executed probe before the omitted last."""
    probes = getattr(placement, "probes", placement)
    if len(probes) < 2:
        raise ValueError("a layer placement needs at least two probes")
    table = _levels(probes)
    if max(table.rho) >= 1.0:
        raise ValueError("a probe of radius 1 gives unbounded coefficients")
    d1 = abs(table.z[0])
    rates = [n / -math.log2(r) for n, r in zip(table.issued, table.rho)]
    travel = [(d1 + w + r * (leg - d1)) / (1.0 - r)
              for w, r, leg in zip(table.walk, table.rho, table.leg)]
    return rates, travel, table.rho


def probe_coefficient(placement) -> float:
    """Worst-case probe coefficient c with last-probe omission.

    Responding at probe k < m costs k probes for a shrink of rho_k; when
    all m-1 executed probes are negative the search paid m-1 probes and
    still shrinks by rho_m: c = max(max_{k<m} k/(-log2 rho_k),
    (m-1)/(-log2 rho_m)).
    """
    return bounds_report(placement).c_probes


def distance_bound(placement) -> float:
    """Distance coefficient b: the travel of a search whose every level
    ends in the same probe k, per unit of starting radius, at its worst k.

    Its first level walks d1, the first probe's distance from the center,
    and then ``walk_k`` to its last issued probe; a later level walks
    ``leg_k`` to its first probe and ``walk_k``, in an area rho_k times
    smaller.  A level that ends in an issued probe leaves the searcher at
    the center, leg_k = d1.  One that ends in the omitted last probe m
    leaves the searcher off the next area's center, and ``leg_m`` is its
    walk to the next first probe as the search kernels make it: |d1 -
    mag_m| where the next layer turns its first probe toward the
    searcher, and the plain distance in a layer whose first probe lies
    within ``simulator._EPS`` of the center, which does not turn.  Each
    leg_k is read from the kernels' table (``simulator._levels``).
    Summed: b = max_k (d1 + walk_k + rho_k (leg_k - d1)) / (1 - rho_k).
    """
    return bounds_report(placement).b_distance


def response_bound(placement) -> float:
    """Response coefficient c_R = -1/log2(rho_max): every response shrinks
    the area by at least the largest probe's factor."""
    return bounds_report(placement).c_responses


def bounds_report(placement) -> BoundsReport:
    """c, b and c_R, each with the first probe k that attains it."""
    rates, travel, rhos = _level_rates(placement)
    c, b, rho_max = max(rates), max(travel), max(rhos)
    return BoundsReport(c, b, -1.0 / math.log2(rho_max), {
        "probes": rates.index(c) + 1, "distance": travel.index(b) + 1,
        "responses": rhos.index(rho_max) + 1})


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
            return not _placements.uncovered_arcs(layer.probes,
                                                  layer.coverage)

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

"""Shared fixtures: the certified layer placements of the six generated
algorithms (each certified by the exact arc test of
``geometry.certify_coverage``), built once per session and shared across
test modules, the golden placements directory, and an exact reference
tour length for the find-all competitiveness checks."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from marcopolo.geometry import Point2
from marcopolo.placements import generate_layer

GENERATED = ("ALG1", "ALG2", "ALG3", "ALG4", "ALG5", "ALG6")
PLACEMENTS_DIR = Path(__file__).resolve().parent.parent / "placements"


@pytest.fixture(scope="session")
def layers():
    """Certified layer placements for the six generated algorithms."""
    return {a: generate_layer(a) for a in GENERATED}


@pytest.fixture(scope="session")
def placements_dir():
    if not PLACEMENTS_DIR.is_dir():
        pytest.skip("golden placements directory not present")
    return PLACEMENTS_DIR


@pytest.fixture(scope="session")
def tsp_reference():
    """The closed-tour length function over 2 to 12 POIs."""
    return _tsp_reference


def _tsp_reference(pois: list[Point2]) -> float:
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

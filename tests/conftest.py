"""Shared fixtures: the certified layer placements of the six generated
algorithms (each certified by the exact arc test of
``geometry.certify_coverage``), built once per session and shared across
test modules, and the golden placements directory."""
from __future__ import annotations

from pathlib import Path

import pytest

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

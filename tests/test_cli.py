"""Command-line entry points (the optimizer subcommand is covered by the
acceptance suite; everything here is fast)."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import marcopolo

from marcopolo.cli import main
from marcopolo.placements import (
    PlacementFile,
    construct_layer,
    save_placement,
)


@pytest.fixture()
def alg3_file(tmp_path, layers):
    path = tmp_path / "alg3.json"
    save_placement(PlacementFile.from_layer(layers["ALG3"], "constructed"),
                   path)
    return path


class TestVerify:
    def test_report(self, alg3_file, capsys):
        assert main(["verify", str(alg3_file)]) == 0
        out = capsys.readouterr().out
        assert "ALG3" in out
        assert "4.08" in out

    def test_uncovered_arcs_listed(self, tmp_path, capsys):
        # ALG3 below its minimal base leaves arcs uncovered
        path = tmp_path / "alg3_082.json"
        save_placement(PlacementFile.from_layer(
            construct_layer("ALG3", rho1=0.82)), path)
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "certified:       False (disk)" in out
        lines = out.splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("uncovered arcs:"))
        count = int(lines[head].split()[2])
        rows = [line.split() for line in lines[head + 1:]]
        assert count == len(rows) > 0
        assert rows[0][:2] == ["unit", "circle"]
        for row in rows:
            start, end = float(row[-3]), float(row[-1])
            assert 0.0 <= start < 360.0 and start < end <= start + 360.0

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestLowerbound:
    def test_constants_printed(self, capsys):
        assert main(["lowerbound"]) == 0
        out = capsys.readouterr().out
        assert "2.40001" in out
        assert "0.74915" in out


class TestSimulate:
    def test_single_search(self, alg3_file, capsys):
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "1024", "--poi", "100,200"]) == 0
        out = capsys.readouterr().out
        assert "success:    True" in out

    def test_largest_resolvable_radius(self, alg3_file, capsys):
        # n = 2^52; in absolute coordinates this search raised "POI escaped
        # the search area"
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "4503599627370496",
                     "--poi", "1530989364606032,2115026113840132"]) == 0
        out = capsys.readouterr().out
        assert "success:    True" in out

    def test_poi_outside_region(self, alg3_file, capsys):
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "4", "--poi", "100,200"]) == 1
        assert "error:" in capsys.readouterr().err


class TestMontecarlo:
    def test_small_campaign(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert main(["montecarlo", "--n", "256", "--trials", "50",
                     "--algs", "1,3", "--out", str(out_dir)]) == 0
        assert (out_dir / "table.csv").exists()
        assert (out_dir / "hist_P.csv").exists()

    def test_unknown_algorithm(self, tmp_path, capsys):
        assert main(["montecarlo", "--n", "256", "--trials", "5",
                     "--algs", "9", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    # the package is NumPy-only; SciPy would add to every start-up
    src = str(Path(marcopolo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, marcopolo.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

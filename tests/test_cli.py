"""Command-line entry points (the optimizer subcommand is covered by the
acceptance suite; everything here is fast)."""
from __future__ import annotations

import csv
import json
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

    @pytest.mark.parametrize("change, message", [
        (lambda doc: [1, 2], "not a JSON object"),
        (lambda doc: _without(doc, "algorithm_id"), "lacks 'algorithm_id'"),
        (lambda doc: _without(doc, "rho1"), "lacks 'rho1'"),
        (lambda doc: _without(doc, "probes"), "lacks 'probes'"),
        (lambda doc: _without(doc, "provenance"), "lacks 'provenance'"),
        (lambda doc: {**doc, "probes": doc["probes"][:1]
                      + [_without(doc["probes"][1], "rho")]},
         "probe 2 lacks"),
        (lambda doc: {**doc, "probes": [{**doc["probes"][0], "y": "0.5"}]
                      + doc["probes"][1:]},
         "probe 1 lacks"),
        (lambda doc: {**doc, "coverage": "annulus"}, "unknown coverage"),
    ], ids=["not-object", "no-algorithm-id", "no-rho1", "no-probes",
            "no-provenance", "probe-without-rho", "string-coordinate",
            "unknown-coverage"])
    def test_malformed_file(self, alg3_file, tmp_path, capsys, change,
                            message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(json.loads(alg3_file.read_text()))))
        assert main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


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

    def test_poi_on_and_just_outside_the_boundary(self, alg3_file, capsys):
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "1024", "--poi", "0,-1024"]) == 0
        assert "success:    True" in capsys.readouterr().out
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "1024", "--poi", "0,-1024.000001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "outside the search region" in err

    @pytest.mark.parametrize("poi", ["100", "a,b", "1,2,3"])
    def test_malformed_poi(self, alg3_file, capsys, poi):
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "1024", "--poi", poi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--poi" in err and "X,Y" in err

    def test_probe_count_off_issue_order(self, tmp_path, layers, capsys):
        # a covering ALG1 file with one probe too many has no issue order
        layer = layers["ALG1"]
        path = tmp_path / "alg1.json"
        save_placement(PlacementFile("ALG1", None,
                                     layer.probes + layer.probes[:1]), path)
        assert main(["simulate", "--placement", str(path),
                     "--n", "1024", "--poi", "100,200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "issue order" in err


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

    def test_placement_file_overrides(self, tmp_path, placements_dir):
        out_dir = tmp_path / "report"
        assert main(["montecarlo", "--n", "256", "--trials", "200",
                     "--algs", "7,8", "--out", str(out_dir),
                     "--placement-file",
                     f"ALG7={placements_dir / 'alg7.json'}",
                     "--placement-file",
                     f"ALG8={placements_dir / 'alg8.json'}"]) == 0
        with (out_dir / "table.csv").open(newline="") as fh:
            rows = [row["algorithm"] for row in csv.DictReader(fh)]
        assert rows == ["ALG7", "ALG8"]

    def test_placement_file_of_another_algorithm(self, tmp_path,
                                                 placements_dir, capsys):
        assert main(["montecarlo", "--n", "256", "--trials", "5",
                     "--algs", "1", "--out", str(tmp_path),
                     "--placement-file",
                     f"ALG1={placements_dir / 'alg3.json'}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ALG1" in err and "ALG3" in err
        assert not (tmp_path / "table.csv").exists()

    def test_placement_file_without_algorithm(self, tmp_path, capsys):
        assert main(["montecarlo", "--n", "256", "--trials", "5",
                     "--algs", "8", "--out", str(tmp_path),
                     "--placement-file", "alg8.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ALG=PATH" in err

    def test_placement_file_for_unselected_algorithm(self, tmp_path, capsys):
        assert main(["montecarlo", "--n", "256", "--trials", "5",
                     "--algs", "1", "--out", str(tmp_path),
                     "--placement-file", "ALG3=/nonexistent.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ALG3" in err


def test_cli_import_leaves_scipy_out():
    # the package is NumPy-only; SciPy would add to every start-up
    src = str(Path(marcopolo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, marcopolo.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

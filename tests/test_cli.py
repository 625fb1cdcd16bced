"""Command-line entry points (of the optimizer subcommand, only the
deterministic ALG7 layer runs here; the acceptance suite builds ALG8)."""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marcopolo

from marcopolo import placements
from marcopolo.cli import main
from marcopolo.geometry import Point2, Probe, certify_coverage
from marcopolo.placements import (
    PlacementFile,
    construct_layer,
    load_placement,
    save_placement,
)

DATA = Path(__file__).resolve().parent / "data"
# the full output of ``marcopolo verify`` on each golden placement, and
# an uncertified placement with its transcript
TRANSCRIPTS = DATA / "verify"


@pytest.fixture()
def alg3_file(tmp_path, layers):
    path = tmp_path / "alg3.json"
    save_placement(PlacementFile.from_layer(layers["ALG3"]), path)
    return path


class TestVerify:
    def test_report(self, alg3_file, capsys):
        assert main(["verify", str(alg3_file)]) == 0
        out = capsys.readouterr().out
        assert "ALG3" in out
        assert "4.08" in out

    def test_omitted_probe_near_the_last(self, tmp_path, capsys):
        # probe 1 lies 0.1 from the omitted probe's center, inside the
        # d1 * rho_m = 0.48 that the next layer's first probe sits from it:
        # the level walks 0.7 - 2 * 0.1 = 0.5 over 1 - 0.8, so b = 2.5
        path = tmp_path / "two.json"
        save_placement(PlacementFile("TWO", None, (
            Probe(Point2(0.6, 0.0), 0.5), Probe(Point2(0.5, 0.0), 0.8))),
            path)
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "certified:       False (disk)" in out
        assert "distance coeff:  2.5000" in out
        assert "warning" not in out

    def test_uncovered_arcs_listed(self, capsys):
        # ALG3 below its minimal base leaves arcs uncovered; the committed
        # file is that layer, and CI diffs its transcript too
        path = TRANSCRIPTS / "alg3_082.json"
        assert PlacementFile.from_json(path.read_text()) == \
            PlacementFile.from_layer(construct_layer("ALG3", rho1=0.82))
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == (TRANSCRIPTS
                                           / "alg3_082.txt").read_text()

    def test_uncovered_perimeter_arcs_listed(self, placements_dir, tmp_path,
                                             capsys):
        # ALG4 without its last probe leaves a gap on the unit circle
        doc = json.loads((placements_dir / "alg4.json").read_text())
        doc["probes"] = doc["probes"][:-1]
        path = tmp_path / "alg4_short.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "certified:       False (perimeter)" in out
        lines = out.splitlines()
        head = next(i for i, line in enumerate(lines)
                    if line.startswith("uncovered arcs:"))
        rows = [line.split() for line in lines[head + 1:]]
        assert int(lines[head].split()[2]) == len(rows) > 0
        # only the unit circle, the region such a layer must cover
        assert all(row[:2] == ["unit", "circle"] for row in rows)

    @pytest.mark.parametrize("name", [f"alg{k}" for k in range(1, 9)])
    def test_golden_transcript(self, placements_dir, name, capsys):
        # the transcripts CI diffs the installed entry point against
        assert main(["verify", str(placements_dir / f"{name}.json")]) == 0
        assert capsys.readouterr().out == (TRANSCRIPTS
                                           / f"{name}.txt").read_text()

    def test_uncertified_file_certified_once(self, monkeypatch, capsys):
        # the arcs the file is certified by are the arcs listed
        calls = []

        def spy(probes, *args):
            calls.append(probes)
            return certify_coverage(probes, *args)

        monkeypatch.setattr(placements, "certify_coverage", spy)
        assert main(["verify", str(TRANSCRIPTS / "alg3_082.json")]) == 0
        assert "uncovered arcs:  8" in capsys.readouterr().out
        assert len(calls) == 1

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
        (lambda doc: {**doc, "provenance": "constructed"},
         "provenance is not a JSON object"),
        (lambda doc: {**doc, "rho1": math.nan}, "rho1 is neither"),
        (lambda doc: {**doc, "rho1": math.inf}, "rho1 is neither"),
        # float64 cannot hold a 401-digit integer
        (lambda doc: {**doc, "rho1": 10 ** 400}, "rho1 is neither"),
        (lambda doc: {**doc, "probes": [{**doc["probes"][0], "x": 10 ** 400}]
                      + doc["probes"][1:]},
         "probe 1 x is not a finite number"),
        (lambda doc: {**doc, "algorithm_id": []},
         "algorithm_id is not a string"),
        (lambda doc: {**doc, "probes": {}}, "probes is not a list"),
        (lambda doc: {**doc, "probes": []},
         "needs at least two probes; the file has 0"),
        (lambda doc: {**doc, "probes": doc["probes"][:1]},
         "needs at least two probes; the file has 1"),
        (lambda doc: {**doc, "probes": [{**doc["probes"][0], "rho": 0}]
                      + doc["probes"][1:]},
         "probe 1: probe radius 0 outside (0, 1]"),
        (lambda doc: {**doc, "probes": doc["probes"][:1]
                      + [{"x": 3.0, "y": 0.0, "rho": 0.5}]},
         "probe 2: probe disk does not intersect the unit disk"),
        # both equal 1 in Python
        (lambda doc: {**doc, "schema_version": True},
         "unsupported schema version True"),
        (lambda doc: {**doc, "schema_version": 1.0},
         "unsupported schema version 1.0"),
    ], ids=["not-object", "no-algorithm-id", "no-rho1", "no-probes",
            "no-provenance", "probe-without-rho", "string-coordinate",
            "unknown-coverage", "string-provenance", "nan-rho1",
            "infinite-rho1", "huge-rho1", "huge-coordinate",
            "list-algorithm-id", "probes-not-a-list", "no-probe",
            "one-probe", "zero-radius", "probe-off-the-disk",
            "bool-schema-version", "float-schema-version"])
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
        # the transcript CI diffs the installed entry point against
        assert main(["lowerbound"]) == 0
        assert capsys.readouterr().out == (
            DATA / "lowerbound.txt").read_text()


class TestOptimize:
    def test_alg7_layer_written(self, tmp_path, capsys):
        path = tmp_path / "alg7.json"
        assert main(["optimize", "--algorithm", "7", "--out",
                     str(path)]) == 0
        assert capsys.readouterr().out == (
            f"ALG7: 18 probes, rho1 = 0.789, c = 2.9248 -> {path}\n")
        assert load_placement(path).certified
        provenance = json.loads(path.read_text())["provenance"]
        assert {k: provenance[k] for k in ("kind", "seed")} == {
            "kind": "optimized", "seed": None}


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

    def test_malformed_file(self, alg3_file, tmp_path, capsys):
        # an id that is not a string is refused before any search
        path = tmp_path / "bad.json"
        doc = json.loads(alg3_file.read_text())
        path.write_text(json.dumps({**doc, "algorithm_id": []}))
        assert main(["simulate", "--placement", str(path),
                     "--n", "1024", "--poi", "100,200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "algorithm_id is not a string" in err

    def test_one_probe_file(self, alg3_file, tmp_path, capsys):
        # refused as malformed, as verify refuses it, not as uncertified
        path = tmp_path / "one.json"
        doc = json.loads(alg3_file.read_text())
        path.write_text(json.dumps({**doc, "probes": doc["probes"][:1]}))
        assert main(["simulate", "--placement", str(path),
                     "--n", "1024", "--poi", "100,200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "needs at least two probes" in err
        assert "certification" not in err

    @pytest.mark.parametrize("poi", ["100", "a,b", "1,2,3"])
    def test_malformed_poi(self, alg3_file, capsys, poi):
        assert main(["simulate", "--placement", str(alg3_file),
                     "--n", "1024", "--poi", poi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--poi" in err and "X,Y" in err

    def test_adversarial_has_no_success(self, alg3_file, capsys):
        # the adversarial responses follow no POI: success does not apply
        assert main(["simulate", "--placement", str(alg3_file), "--n", "1024",
                     "--poi", "100,200", "--adversarial"]) == 0
        out = capsys.readouterr().out
        assert "success:    n/a (adversarial responses)" in out
        assert "False" not in out and "True" not in out
        assert "warning" not in out

    def test_containment_lost_in_a_pinhole(self, placements_dir, capsys):
        # the POI lies in one of ALG4's interior pinhole faces, which its
        # perimeter-only certification leaves uncovered
        assert main(["simulate", "--placement",
                     str(placements_dir / "alg4.json"), "--n", "1024",
                     "--poi", "481.28,-348.16"]) == 0
        out = capsys.readouterr().out
        assert "warning: containment lost through an uncovered gap" in out

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

    def test_first_failing_algorithm_reported(self, tmp_path, monkeypatch,
                                              placements_dir, capsys):
        # enough trials and CPUs for ALG2 to fail in a worker process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["montecarlo", "--n", "256", "--trials", "10000",
                     "--algs", "1,2", "--out", str(tmp_path),
                     "--placement-file",
                     f"ALG1={placements_dir / 'alg3.json'}",
                     "--placement-file",
                     f"ALG2={placements_dir / 'alg4.json'}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "holds ALG3, not ALG1" in err
        assert "ALG4" not in err
        assert not (tmp_path / "table.csv").exists()

    def test_repeated_algorithm(self, tmp_path, capsys):
        assert main(["montecarlo", "--n", "256", "--trials", "5",
                     "--algs", "1,1", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'ALG1' is selected twice" in err
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


@pytest.mark.parametrize("argv", [["verify", "alg1.json"], ["lowerbound"]])
def test_reader_closing_stdout_early(placements_dir, argv):
    # a reader that stops reading, as `| grep -q` may, is no failure: the
    # command exits 0 and writes nothing on stderr
    src = str(Path(marcopolo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [str(placements_dir / a) if a.endswith(".json") else a
            for a in argv]
    read, write = os.pipe()
    os.close(read)  # closed before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "marcopolo.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")

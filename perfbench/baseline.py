"""Record a baseline: every workload on several seeds, plus traced runs.

    python3 perfbench/baseline.py

Runs run.py untraced once per seed (1-10) and traced once (seed 1), for
each workload BENCHMARK.json names, with the run length it fixes.
Writes perfbench/baseline/<workload>.json holding every run's full result
(inputs included) and, for each end-to-end metric, the median and the
spread: the interquartile range of the per-seed values over their median,
with quartiles as statistics.quantiles(values, n=4) gives them.  Prints
the same summary.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=180)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "spread": (q3 - q1) / median,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    (HERE / "baseline").mkdir(exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, s, seconds, 0) for s in SEEDS]
        traced = run(workload, SEEDS[0], seconds, 1)
        stats = summary(runs)
        (HERE / "baseline" / f"{workload}.json").write_text(json.dumps(
            {"run_seconds": seconds, "summary": stats, "runs": runs,
             "traced": traced}, indent=1) + "\n")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} seeds, {failed} of {attempted} "
              "operations failed")
        for name, s in stats.items():
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

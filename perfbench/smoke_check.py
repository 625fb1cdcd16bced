"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_check.py

Runs every workload at its smallest size (--seconds 1: one operation for
the long ones), once untraced and twice traced, all with seed SEED.  Checks
that the last output line holds exactly the keys correct, attempted,
failed and metrics; that every metric BENCHMARK.json names is printed with
its unit; that the workload-specific report lines are printed; and that
the per-layer counts repeat exactly between the two traced runs.  Exits
non-zero on the first problem.  Takes about two minutes.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
REPORT_LINES = {
    "montecarlo": ["mc_trials_per_s = ", "campaign_p50_s = "],
    "descent": ["descent_worlds_per_s = ", "descent_world_p50_ms = ",
                "descent_world_p99_ms = "],
    "optimize": ["optimize_s = ", "opt_c7 = ", "opt_c8 = "],
    "certify": ["certify_per_s = ", "certify_p50_ms = ", "certify_p99_ms = "],
}
COMMON_LINES = ["failed_frac = "]


class SmokeFailure(Exception):
    pass


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SmokeFailure(f"{workload} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stdout}")
    return lines, json.loads(lines[-1])


def check_line(result: dict, expected: dict[str, str], what: str) -> None:
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        raise SmokeFailure(f"{what}: result keys {sorted(keys)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise SmokeFailure(f"{what}: correct={result['correct']} "
                           f"attempted={result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise SmokeFailure(f"{what}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SmokeFailure(f"{what}: {name} = {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        lines, result = run(name, 0)
        check_line(result, e2e, f"{name} trace 0")
        for prefix in REPORT_LINES[name] + COMMON_LINES:
            if not any(line.startswith(prefix) for line in lines):
                raise SmokeFailure(f"{name}: no '{prefix.strip()}' line")
        counts = []
        for _ in range(2):
            _, result = run(name, 1)
            check_line(result, layer, f"{name} trace 1")
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if m["unit"] == "count"})
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1][k]}
            raise SmokeFailure(f"{name}: counts differ between runs {diff}")
        print(f"ok {name}: {len(e2e)} end-to-end and {len(layer)} per-layer "
              f"metrics, {len(counts[0])} counts repeat exactly")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)

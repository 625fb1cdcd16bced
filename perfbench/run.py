"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (montecarlo, descent, optimize or certify; see
README.md) in a child process, worker.py, with one OpenMP/BLAS thread.
With --trace 0 it first starts SETUP_RUNS set-up-only children, so that
``setup_s`` is the median of several cold set-ups, and reports the
end-to-end metrics.  With --trace 1 it reports the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the full result, with the
inputs it was measured on, goes to .perfbench_out/ in the checkout.

Exits non-zero, without that line, when the workload cannot run, for
example when no marcopolo sources sit next to perfbench/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 8  # set-up-only children; the measuring child adds one more
DEADLINE_S = 170.0  # whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
         "op_p50_ms": "ms", "op_tail_ms": "ms"}


def _child(args: argparse.Namespace, deadline: float, extra=()) -> dict:
    """Run worker.py, pass its report lines on, return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=deadline - time.monotonic())
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout; git is kept from looking above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def inputs(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "commit": _git_commit(),
        "threads": {v: "1" for v in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("montecarlo", "descent", "optimize",
                                 "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            result = _child(args, deadline)
            metrics = result.pop("layer")
        else:
            setups = [_child(args, deadline, ["--setup-only"])
                      for _ in range(SETUP_RUNS)]
            result = _child(args, deadline)
            setups.append({k: result.pop(k)
                           for k in ("setup_s", "setup_raw_s")})
            values = dict(result.pop("metrics"), setup_s=statistics.median(
                s["setup_s"] for s in setups))
            result["setup_runs"] = setups
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in UNITS.items()}
            print(f"setup_s = {values['setup_s']:.4f} s (median of "
                  f"{len(setups)} cold set-ups, each scaled by a "
                  "calibration snippet run right after it)")
            print(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    except subprocess.TimeoutExpired:
        print(f"error: run did not finish within {DEADLINE_S:.0f} s",
              file=sys.stderr)
        return 1
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"inputs": inputs(args), **result, "metrics": metrics}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run, in its own process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only]

Imports marcopolo from the ``src/`` directory next to ``perfbench/``, sets
the workload up, and drives its operations in a closed loop: the next
operation starts when the previous one and its output check are done.
Prints report lines for people and, as its last line, one JSON object for
run.py.

--trace 0 measures end to end for about S seconds.  --trace 1 installs the
tracer before set-up, runs one fixed window of operations traced (so that
counts repeat exactly for a seed), then runs the same window untraced and
traced in turn while time remains, to measure the tracing overhead.
--setup-only sets up once and reports only the set-up time.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TAIL_MIN_SAMPLES = 1000  # p99 needs at least 10 samples beyond it
RATE_CHUNKS = 5
CAL_PERIOD_S = 0.2
CAL_WINDOW_S = 1.0
# snippet times on the nominal machine: round values inside the range of
# per-run medians seen on the machine the committed baseline was measured
# on (2-vCPU Intel Xeon, Python 3.11, NumPy 2.4): 1.9-3.3 ms for the whole
# snippet, about two thirds of it in the interpreter part
CAL_NOMINAL_PY_S = 0.0016
CAL_NOMINAL_NP_S = 0.0009
SETUP_CAL_SAMPLES = 9  # interpreter-loop snippets that scale one set-up


class Calibration:
    """Samples the machine's speed while a run measures.

    The machine is shared: its speed drifts by tens of percent over
    seconds, for the program and for any fixed piece of work alike.  A
    timer signal runs a fixed snippet every CAL_PERIOD_S between the
    program's bytecodes: an interpreter loop, plus small-array NumPy calls
    when ``numpy_part`` is set.  ``factor(t0, t1)``, nominal over the
    median snippet time within CAL_WINDOW_S of the interval, scales a time
    measured then to the nominal machine.  ``spent`` is the time the
    snippets took, which run_ops subtracts from the operation each one
    interrupted.
    """

    def __init__(self, numpy_part: bool = True) -> None:
        import numpy
        self._hypot = numpy.hypot
        self._array = numpy.linspace(0.0, 1.0, 4096)
        self.numpy_part = numpy_part
        self.nominal = CAL_NOMINAL_PY_S + numpy_part * CAL_NOMINAL_NP_S
        self.at: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0

    def _snippet(self) -> float:
        s = 0
        for i in range(20_000):
            s += i * i % 7
        if self.numpy_part:
            for _ in range(20):
                s += float(self._hypot(self._array, self._array).sum())
        return s

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self._snippet()
        dt = time.perf_counter() - t0
        self.at.append(t0)
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Calibration":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float | None = None, t1: float | None = None
               ) -> float:
        """Speed factor around [t0, t1]; over the whole run by default."""
        near = self.samples
        if t0 is not None:
            lo = bisect.bisect_left(self.at, t0 - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.at, t1 + CAL_WINDOW_S)
            near = self.samples[lo:hi] or self.samples
        return self.nominal / statistics.median(near)


def setup_factor() -> float:
    """Speed factor for a set-up, from snippets run right after it.

    Set-up is mostly importing, which is interpreter work, so only the
    interpreter loop runs; the machine's speed drifts between set-ups as it
    does during a run.
    """
    calibration = Calibration(numpy_part=False)
    for _ in range(SETUP_CAL_SAMPLES):
        calibration.sample()
    return calibration.factor()


@dataclass
class Record:
    start: float
    seconds: float
    units: float
    error: str | None = None  # raised by the program
    wrong: str | None = None  # returned, but failed its output check

    @property
    def ok(self) -> bool:
        return self.error is None and self.wrong is None


def _import_program():
    if not (ROOT / "src" / "marcopolo" / "__init__.py").is_file():
        raise SystemExit(f"marcopolo sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def run_ops(workload, seconds: float | None, count: int | None,
            tracer=None, calibration: Calibration | None = None
            ) -> list[Record]:
    """Operations 0, 1, ... in a closed loop: ``count`` of them, or as many
    as fit in ``seconds`` (the next starts only if a typical operation
    still fits, and at least one always runs).  An operation's time leaves
    out calibration snippets that ran inside it."""
    quiet = tracer.suspended if tracer else contextlib.nullcontext

    def spent() -> float:
        return calibration.spent if calibration else 0.0

    records: list[Record] = []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if count is None and records:
            typical = statistics.median(r.seconds for r in records)
            if time.perf_counter() - start + typical > seconds:
                break
        with quiet():
            op = workload.prepare(i)
        s0, t0 = spent(), time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a raised error is a failed operation
            dt = time.perf_counter() - t0 - (spent() - s0)
            records.append(Record(t0, dt, op.units,
                                  error=f"{type(exc).__name__}: {exc}"))
        else:
            dt = time.perf_counter() - t0 - (spent() - s0)
            with quiet():
                reason = op.check(result)
            records.append(Record(t0, dt, op.units, wrong=reason))
        i += 1
    return records


def _chunked_rate(records: list[Record], scaled: list[float]) -> float:
    """Work per second: the median over RATE_CHUNKS consecutive chunks of
    the run, so that one disturbed stretch does not move it."""
    k = min(RATE_CHUNKS, len(records))
    rates = []
    for c in range(k):
        lo, hi = c * len(records) // k, (c + 1) * len(records) // k
        units = sum(r.units for r in records[lo:hi] if r.ok)
        rates.append(units / sum(scaled[lo:hi]))
    return statistics.median(rates)


def end_to_end(records: list[Record],
               calibration: Calibration) -> tuple[dict, dict]:
    """The end-to-end metrics, each operation's time scaled to the nominal
    machine by the speed factor around it, plus the facts behind them."""
    scaled = [r.seconds * calibration.factor(r.start, r.start + r.seconds)
              for r in records]
    ok = [t for t, r in zip(scaled, records) if r.ok]
    lat = sorted(t * 1e3 for t in ok) or [0.0]
    p50 = statistics.median(lat)
    if len(lat) >= TAIL_MIN_SAMPLES:
        tail, tail_kind = statistics.quantiles(lat, n=100)[98], "p99"
    else:
        tail, tail_kind = p50, "p50"
    metrics = {
        "ops_per_s": _chunked_rate(records, scaled),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    facts = {"samples": len(ok), "tail": tail_kind,
             "beyond_tail": sum(1 for v in lat if v > tail),
             "speed_factor": calibration.factor(),
             "calibration_samples": len(calibration.samples),
             "measured_busy_s": sum(r.seconds for r in records)}
    return metrics, facts


def report_lines(workload, metrics: dict, facts: dict) -> list[str]:
    """Report lines under the workload-specific names of the metrics."""
    n = f"n={facts['samples']} {workload.op_name}s"
    tail = (f"p99, {facts['beyond_tail']} beyond" if facts["tail"] == "p99"
            else f"p50: fewer than {TAIL_MIN_SAMPLES} samples")
    lines = {
        "montecarlo": [
            f"mc_trials_per_s = {metrics['ops_per_s']:.1f} trials/s ({n})",
            f"campaign_p50_s = {metrics['op_p50_ms'] / 1e3:.4f} s ({n})"],
        "descent": [
            f"descent_worlds_per_s = {metrics['ops_per_s']:.2f} worlds/s",
            f"descent_world_p50_ms = {metrics['op_p50_ms']:.4f} ms ({n})",
            f"descent_world_p99_ms = {metrics['op_tail_ms']:.4f} ms "
            f"({tail}; {n})"],
        "optimize": [
            f"optimize_s = {metrics['op_p50_ms'] / 1e3:.4f} s ({n})"],
        "certify": [
            f"certify_per_s = {metrics['ops_per_s']:.2f} placements/s",
            f"certify_p50_ms = {metrics['op_p50_ms']:.4f} ms ({n})",
            f"certify_p99_ms = {metrics['op_tail_ms']:.4f} ms ({tail}; {n})"],
    }[workload.name]
    for key in ("c7", "c8"):
        if key in workload.extras:
            lines.append(f"opt_{key} = "
                         f"{statistics.median(workload.extras[key]):.5f} "
                         "coefficient")
    return lines


def summarize(records: list[Record], workload) -> dict:
    failures = ([r.error or r.wrong for r in records if not r.ok]
                + list(workload.setup_failures))
    attempted = len(records) + len(workload.setup_failures)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "correct": (not workload.setup_failures
                    and not any(r.wrong for r in records)),
        "failures": failures[:20],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    workloads = _import_program()
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        t1 = time.perf_counter()
        workload.setup()
        setup_raw_s = import_s + time.perf_counter() - t1
        setup_s = setup_raw_s * setup_factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "setup_raw_s": setup_raw_s}))
            return 0
        if tracer is None:
            with Calibration(workload.calibrate_numpy) as calibration:
                records = run_ops(workload, args.seconds, None,
                                  calibration=calibration)
            metrics, facts = end_to_end(records, calibration)
            for line in report_lines(workload, metrics, facts):
                print(line)
            print(f"speed_factor = {facts['speed_factor']:.4f} (nominal "
                  f"{calibration.nominal * 1e3:.2f} ms over the median of "
                  f"{len(calibration.samples)} calibration snippets; times "
                  "above are measured times scaled by the factor around "
                  "each operation)")
            out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                   "metrics": metrics, "facts": facts}
        else:
            out = traced_run(workload, tracer, args)
            records = out.pop("records")
        out.update(summarize(records, workload))
        print(f"failed_frac = {out['failed_frac']:.6f} "
              f"({out['failed']} of {out['attempted']} operations)")
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_run(workload, tracer, args) -> dict:
    start = time.perf_counter()
    records = run_ops(workload, None, workload.window, tracer)
    layer = tracer.metrics()
    for key in ("c7", "c8"):
        values = workload.extras.get(key)
        layer[f"optimizer.{key}"] = (values[0] if values else 0.0,
                                     "coefficient")
    spans = tracer.spans_json(start)
    traced = [sum(r.seconds for r in records)]
    untraced: list[float] = []
    while True:
        tracer.uninstall()
        untraced.append(sum(r.seconds
                            for r in run_ops(workload, None, workload.window)))
        pair = traced[-1] + untraced[-1]
        if time.perf_counter() - start + pair > args.seconds:
            break
        tracer.reset()
        tracer.install()
        traced.append(sum(r.seconds for r in
                          run_ops(workload, None, workload.window, tracer)))
    layer["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ratio")
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(spans))
    print(f"spans: {len(spans['spans'])} written to {path.relative_to(ROOT)}")
    print(f"tracing overhead: {layer['trace.overhead_frac'][0]:+.4f} "
          f"({len(traced)} traced and {len(untraced)} untraced windows of "
          f"{workload.window} {workload.op_name}s)")
    return {"records": records,
            "layer": {k: {"value": v, "unit": u}
                      for k, (v, u) in layer.items()}}


if __name__ == "__main__":
    sys.exit(main())

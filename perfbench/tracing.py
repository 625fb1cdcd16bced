"""Timing wrappers around the public functions of marcopolo's modules.

``Tracer.install`` replaces every public module-level function of the
traced modules by a wrapper, in every module namespace that binds it: a
call made through ``from .geometry import certify_coverage`` inside
``placements`` is seen as well as one made through ``geometry``.  A
wrapper records a span -- name, start, end, parent span -- for an ordinary
call.  The functions in ``HOT`` run too often for a span each; they get a
call count and a total time instead.  Spans stay in memory until the run
writes them out.

A span's self time is its duration minus the time its direct children
(spans and hot calls) cover; a module's self time is the sum of the self
times of its own spans and hot calls.  Nothing under ``src/`` is edited:
``uninstall`` puts the original functions back.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("cli", "experiments", "simulator", "optimizer", "verifier",
           "placements", "geometry")
HOT = frozenset({"experiments.sample_poi", "simulator.probe"})

# span fields
_NAME, _START, _END, _PARENT, _CHILD, _ERROR = range(6)


def _observe(counts: Counter, name: str, result) -> None:
    """Per-layer counts read from return values."""
    if name == "geometry.certify_coverage":
        counts["geometry.certified"] += bool(result.certified_covered)
    elif name == "simulator.run_batch":
        counts["simulator.batch_trials"] += int(result["P"].size)
        counts["simulator.probes_issued"] += int(result["P"].sum())
        counts["simulator.responses"] += int(result["R"].sum())
        counts["simulator.containment_lost"] += int(result["lost"].sum())
    elif name == "simulator.run_single":
        counts["simulator.probes_issued"] += result.probes
        counts["simulator.responses"] += result.responses
        counts["simulator.containment_lost"] += bool(result.containment_lost)
    elif name == "simulator.probe":
        counts["simulator.probes_issued"] += 1
        counts["simulator.responses"] += bool(result)


class Tracer:
    """Installs the wrappers and turns the spans into per-layer metrics."""

    def __init__(self) -> None:
        self.modules = {m: importlib.import_module(f"marcopolo.{m}")
                        for m in MODULES}
        self.enabled = True
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far."""
        self.spans: list[list] = []
        self._open: list[int] = []
        self.hot = {name: [0, 0.0] for name in HOT}
        self.counts: Counter = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod_name, module in self.modules.items():
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                originals[fn] = self._wrap(f"{mod_name}.{attr}", fn)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(value) if callable(value) else None
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    @contextmanager
    def suspended(self):
        """Calls made inside the block go through unrecorded."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        if name in HOT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    slot = tracer.hot[name]
                    slot[0] += 1
                    slot[1] += dt
                    if tracer._open:
                        tracer.spans[tracer._open[-1]][_CHILD] += dt
                _observe(tracer.counts, name, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, clock(), 0.0, parent, 0.0, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERROR] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span[_END] = clock()
                tracer._open.pop()
                if parent >= 0:
                    tracer.spans[parent][_CHILD] += span[_END] - span[_START]
            _observe(tracer.counts, name, result)
            return result
        return spanned

    # -- reporting ----------------------------------------------------------

    def _durations(self, name: str) -> list[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def _self_time(self, module: str) -> float:
        prefix = module + "."
        total = sum(s[_END] - s[_START] - s[_CHILD] for s in self.spans
                    if s[_NAME].startswith(prefix))
        return total + sum(t for name, (_, t) in self.hot.items()
                           if name.startswith(prefix))

    def _outer_time(self, module: str) -> float:
        """Time in spans of ``module`` not nested in another of its spans."""
        prefix = module + "."
        total = 0.0
        for s in self.spans:
            if not s[_NAME].startswith(prefix):
                continue
            p = s[_PARENT]
            while p >= 0 and not self.spans[p][_NAME].startswith(prefix):
                p = self.spans[p][_PARENT]
            if p < 0:
                total += s[_END] - s[_START]
        return total

    def _find_all_self(self) -> float:
        return sum(s[_END] - s[_START] - s[_CHILD] for s in self.spans
                   if s[_NAME] == "simulator.find_all")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as name -> (value, unit)."""
        c = self.counts
        certify = self._durations("geometry.certify_coverage")
        batch_s = sum(self._durations("simulator.run_batch"))
        trials = c["simulator.batch_trials"]
        single = [s for s in self.spans if s[_NAME] == "simulator.run_single"]
        escapes = sum(1 for s in single
                      if s[_ERROR] and "escaped" in s[_ERROR])
        verifier_calls = sum(1 for s in self.spans
                             if s[_NAME].startswith("verifier."))
        probe_calls, probe_s = self.hot["simulator.probe"]
        poi_calls, _ = self.hot["experiments.sample_poi"]

        def pct(values: list[float], q: int) -> float:
            if len(values) < 2:
                return values[0] * 1e3 if values else 0.0
            return statistics.quantiles(values, n=100)[q - 1] * 1e3

        metrics = {
            "cli.self_s": (self._self_time("cli"), "s"),
            "experiments.self_s": (self._self_time("experiments"), "s"),
            "experiments.sample_poi_calls": (poi_calls, "count"),
            "experiments.emit_report_s":
                (sum(self._durations("experiments.emit_report")), "s"),
            "simulator.run_batch_s": (batch_s, "s"),
            "simulator.run_batch_us_per_trial":
                (batch_s / trials * 1e6 if trials else 0.0, "us"),
            "simulator.containment_lost": (c["simulator.containment_lost"],
                                           "count"),
            "simulator.run_single_calls": (len(single), "count"),
            "simulator.run_single_s":
                (sum(s[_END] - s[_START] for s in single), "s"),
            "simulator.probe_calls": (probe_calls, "count"),
            "simulator.probe_s": (probe_s, "s"),
            "simulator.find_all_self_s": (self._find_all_self(), "s"),
            "simulator.probes_issued": (c["simulator.probes_issued"], "count"),
            "simulator.responses": (c["simulator.responses"], "count"),
            "simulator.escape_errors": (escapes, "count"),
            "optimizer.self_s": (self._self_time("optimizer"), "s"),
            "optimizer.greedy_fill_calls":
                (len(self._durations("optimizer.greedy_fill")), "count"),
            "optimizer.greedy_fill_s":
                (sum(self._durations("optimizer.greedy_fill")), "s"),
            "geometry.certify_calls": (len(certify), "count"),
            "geometry.certify_s": (sum(certify), "s"),
            "geometry.certify_p50_ms": (pct(certify, 50), "ms"),
            "geometry.certify_p99_ms": (pct(certify, 99), "ms"),
            "geometry.certified_ratio":
                (c["geometry.certified"] / len(certify) if certify else 0.0,
                 "ratio"),
            "placements.generate_s":
                (sum(self._durations("placements.generate_layer")), "s"),
            "placements.load_s":
                (sum(self._durations("placements.load_placement")), "s"),
            "placements.construct_s":
                (sum(self._durations("placements.construct_layer")), "s"),
            "placements.perimeter_s":
                (sum(self._durations("placements.perimeter_covered")), "s"),
            "verifier.calls": (verifier_calls, "count"),
            "verifier.s": (self._outer_time("verifier"), "s"),
        }
        return {name: (int(v) if unit == "count" else float(v), unit)
                for name, (v, unit) in metrics.items()}

    def spans_json(self, origin: float) -> dict:
        """Spans and hot-call totals, times in seconds from ``origin``."""
        return {
            "spans": [{"name": s[_NAME], "start": s[_START] - origin,
                       "end": s[_END] - origin, "parent": s[_PARENT],
                       **({"error": s[_ERROR]} if s[_ERROR] else {})}
                      for s in self.spans],
            "hot": {name: {"calls": n, "s": t}
                    for name, (n, t) in self.hot.items()},
        }

"""Monte Carlo harness and report emission.

Runs batches of single-POI searches against randomly drawn worlds,
aggregates the three normalized cost metrics (P / ceil(log2 n), D / n,
R / ceil(log2 n)) into summary rows mirroring the published comparison
table, and writes CSV table plus histogram plot data.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._fork import fork_map
from .geometry import _check_resolvable
from .placements import (
    LayerPlacement,
    execution_layer,
    generate_layer,
    load_placement,
)
from .simulator import _BATCH_CHUNK, run_batch
from .verifier import bounds_report

__all__ = [
    "ExperimentConfig",
    "StatsRow",
    "monte_carlo",
    "emit_report",
    "run_experiment",
]

_KNOWN = tuple(f"ALG{i}" for i in range(1, 9))
_METRICS = ("P", "D", "R")
_SUMMARY_SLACK = 1e-9  # rounding allowed in a row's ordering and bound
_HIST_BINS = 64
_POI_BLOCK = 4096  # trials per spawned random stream


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Monte Carlo campaign."""

    n: float = 2.0 ** 20
    trials: int = 100_000
    algorithms: tuple[str, ...] = tuple(f"ALG{i}" for i in range(1, 7))
    seed: int = 0
    placement_files: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_resolvable(self.n)
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not self.algorithms:
            raise ValueError("no algorithms selected")
        for i, a in enumerate(self.algorithms):
            if a not in _KNOWN:
                raise ValueError(f"unknown algorithm {a!r}")
            if a in self.algorithms[:i]:
                raise ValueError(f"algorithm {a!r} is selected twice")
        for a in self.placement_files:
            if a not in self.algorithms:
                raise ValueError(
                    f"placement file given for {a!r}, which is not among "
                    f"the selected algorithms")


@dataclass(frozen=True)
class StatsRow:
    """One summary line: an algorithm crossed with one normalized metric.

    ``slack`` is the documented allowance above the asymptotic bound for
    the probe metric (a final partial layer can issue up to m - 2 extra
    probes, and the executed tour may locally exceed the analysis
    coefficient).
    """

    algorithm: str
    metric: str
    min: float
    avg: float
    max: float
    stddev: float
    bound: float
    slack: float = 0.0

    def __post_init__(self) -> None:
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not (self.min <= self.avg + _SUMMARY_SLACK
                and self.avg <= self.max + _SUMMARY_SLACK):
            raise ValueError("summary ordering violated: min <= avg <= max")
        if self.max > self.bound + self.slack + _SUMMARY_SLACK:
            raise ValueError(
                f"{self.algorithm} {self.metric}: observed max {self.max} "
                f"exceeds bound {self.bound} + slack {self.slack}")


def _poi_array(seed: int, trials: int, n: float) -> np.ndarray:
    """Per-trial POIs, uniform in angle and in distance from the center
    (the radial coordinate, not the area, is uniform).

    Trials come in blocks of ``_POI_BLOCK``: block b draws all its rows
    from the generator spawned at key (b,), even when fewer trials are
    needed, so trial i's POI depends only on (seed, n, i) and serial and
    parallel runs agree.
    """
    blocks = -(-trials // _POI_BLOCK)
    root = np.random.SeedSequence(entropy=seed)
    u = np.concatenate([np.random.default_rng(ss).random((_POI_BLOCK, 2))
                        for ss in root.spawn(blocks)])[:trials]
    angle = 2.0 * math.pi * u[:, 0]
    dist = n * u[:, 1]
    return np.stack([dist * np.cos(angle), dist * np.sin(angle)], axis=1)


def _placement_for(algorithm: str,
                   config: ExperimentConfig) -> LayerPlacement:
    if algorithm in config.placement_files:
        path = config.placement_files[algorithm]
        placement = load_placement(path)
        if placement.algorithm_id != algorithm:
            raise ValueError(
                f"placement file {path} holds {placement.algorithm_id}, "
                f"not {algorithm}")
        return placement
    if algorithm in ("ALG7", "ALG8"):
        raise ValueError(
            f"{algorithm} placements are produced by the optimizer; "
            "pass a placement file")
    return generate_layer(algorithm)


def _rows_for(algorithm: str, placement: LayerPlacement,
              executed: LayerPlacement, n: float,
              samples: Mapping[tuple[str, str], np.ndarray]) -> list[StatsRow]:
    """Summary rows of ``placement``, searched as ``executed``."""
    logn = math.ceil(math.log2(n))
    table, tour = bounds_report(placement), bounds_report(executed)
    c_table, c_resp = table.c_probes, table.c_responses
    # finite-n allowance: every layer satisfies probes <= c * levels, and
    # the level total overshoots log2 n by at most one layer's largest
    # drop, so P <= c_eff * (log2 n + L_max) with c_eff the worse of the
    # analysis and executed-tour coefficients
    c_eff = max(c_table, tour.c_probes)
    l_max = max(-math.log2(p.rho) for p in executed.probes)
    bounds = {"P": c_table, "D": tour.b_distance, "R": c_resp}
    # responses overshoot the same way: the level total of the responding
    # layers can exceed log2 n by one layer's largest drop
    slacks = {"P": c_eff * (1.0 + l_max / logn) - c_table,
              "D": 0.0, "R": c_resp * l_max / logn}
    rows = []
    for metric in _METRICS:
        vals = samples[(algorithm, metric)]
        rows.append(StatsRow(
            algorithm=algorithm,
            metric=metric,
            min=float(vals.min()),
            avg=float(vals.mean()),
            max=float(vals.max()),
            stddev=float(vals.std()),
            bound=bounds[metric],
            slack=slacks[metric],
        ))
    return rows


def _search(algorithm: str, config: ExperimentConfig, poi: np.ndarray
            ) -> tuple[LayerPlacement, LayerPlacement, dict[str, np.ndarray]]:
    """One algorithm's campaign: its placement, the layer as searched, and
    the normalized per-trial samples keyed by metric."""
    placement = _placement_for(algorithm, config)
    executed = execution_layer(placement)
    out = run_batch(executed, config.n, poi)
    if placement.coverage == "disk":
        if out["lost"].any() or not out["success"].all():
            raise RuntimeError(
                f"{algorithm}: search failed on a certified placement")
    logn = math.ceil(math.log2(config.n))
    return placement, executed, {"P": out["P"] / logn,
                                 "D": out["D"] / config.n,
                                 "R": out["R"] / logn}


def monte_carlo(config: ExperimentConfig
                ) -> tuple[list[StatsRow], dict[tuple[str, str], np.ndarray]]:
    """Summary rows for every configured algorithm, and the normalized
    per-trial samples keyed by (algorithm, metric).

    Each trial places one POI drawn by ``_poi_array`` and runs the
    single-POI search (vectorized); all algorithms see the same worlds.
    Placements must be certified.

    The algorithms' searches (``_search``) are independent, so
    ``_fork.fork_map`` runs them in up to one process per usable CPU,
    and the workers inherit the POIs.  A campaign stays in-process with
    one usable CPU or one algorithm, off Linux, in a process with other
    threads, and below one ``run_batch`` slice of trials, where a fork
    costs about as much as it saves.  Rows are built in
    ``config.algorithms`` order from the same per-algorithm results
    either way, so rows and samples do not depend on the process count,
    and a failure raises the exception of the first failing algorithm in
    that order, as a serial loop would.
    """
    poi = _poi_array(config.seed, config.trials, config.n)
    outcomes = fork_map(lambda algorithm: _search(algorithm, config, poi),
                        config.algorithms, names=config.algorithms,
                        small=config.trials < _BATCH_CHUNK)
    rows: list[StatsRow] = []
    samples: dict[tuple[str, str], np.ndarray] = {}
    for algorithm, (placement, executed, normalized) in zip(
            config.algorithms, outcomes):
        samples.update({(algorithm, metric): values
                        for metric, values in normalized.items()})
        rows.extend(_rows_for(algorithm, placement, executed, config.n,
                              samples))
    return rows, samples


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = (
    ("P", "min"), ("P", "avg"), ("P", "max"), ("P", "bound"),
    ("D", "min"), ("D", "avg"), ("D", "max"), ("D", "bound"),
    ("R", "avg"), ("R", "max"), ("R", "bound"),
)


def bold_best(rows: Sequence[StatsRow]) -> set[tuple[str, str, str]]:
    """(algorithm, metric, stat) of the best (lowest) value per table
    column, mirroring the published bold highlighting."""
    best: set[tuple[str, str, str]] = set()
    for metric, stat in _TABLE_COLUMNS:
        cells = [(r.algorithm, getattr(r, stat)) for r in rows
                 if r.metric == metric]
        if not cells:
            continue
        low = min(v for _, v in cells)
        for alg, v in cells:
            if abs(v - low) <= 0.005:
                best.add((alg, metric, stat))
    return best


def emit_report(rows: Sequence[StatsRow], output_dir: str | Path,
                samples: Mapping[tuple[str, str], np.ndarray]) -> list[Path]:
    """Write ``table.csv`` (comparison-table layout, best cells wrapped
    in ``**``) and, from the per-trial samples, one histogram CSV per
    metric with per-bin counts plus mean and stddev footer rows."""
    if not rows:
        raise ValueError("no rows to report")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    algorithms = list(dict.fromkeys(r.algorithm for r in rows))
    by_key = {(r.algorithm, r.metric): r for r in rows}
    best = bold_best(rows)

    table = out / "table.csv"
    with table.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm"] +
                        [f"{m}_{s}" for m, s in _TABLE_COLUMNS])
        for alg in algorithms:
            line: list[str] = [alg]
            for metric, stat in _TABLE_COLUMNS:
                row = by_key[(alg, metric)]
                text = f"{getattr(row, stat):.4f}"
                if (alg, metric, stat) in best:
                    text = f"**{text}**"
                line.append(text)
            writer.writerow(line)
    written.append(table)

    for metric in _METRICS:
        hi = max(max(float(samples[(a, metric)].max()),
                     by_key[(a, metric)].bound) for a in algorithms)
        edges = np.linspace(0.0, hi * (1.0 + 1e-12), _HIST_BINS + 1)
        counts = {a: np.histogram(samples[(a, metric)], bins=edges)[0]
                  for a in algorithms}
        path = out / f"hist_{metric}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi"] + algorithms)
            for b in range(_HIST_BINS):
                writer.writerow(
                    [f"{edges[b]:.6f}", f"{edges[b + 1]:.6f}"]
                    + [int(counts[a][b]) for a in algorithms])
            writer.writerow(["mean", ""] +
                            [f"{samples[(a, metric)].mean():.6f}"
                             for a in algorithms])
            writer.writerow(["stddev", ""] +
                            [f"{samples[(a, metric)].std():.6f}"
                             for a in algorithms])
        written.append(path)
    return written


def run_experiment(config: ExperimentConfig,
                   output_dir: str | Path) -> list[Path]:
    """Full campaign: Monte Carlo plus report files in ``output_dir``."""
    rows, samples = monte_carlo(config)
    return emit_report(rows, output_dir, samples)

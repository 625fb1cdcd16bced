"""Monte Carlo campaigns and report emission."""
from __future__ import annotations

import csv
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from marcopolo import experiments
from marcopolo._fork import share_count
from marcopolo.experiments import (
    _POI_BLOCK,
    ExperimentConfig,
    StatsRow,
    bold_best,
    emit_report,
    monte_carlo,
    _poi_array,
    run_experiment,
)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.n == 2.0 ** 20
        assert config.trials == 100_000
        assert config.algorithms == tuple(f"ALG{i}" for i in range(1, 7))

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), 2.0 ** 53])
    def test_rejects_unresolvable_n(self, n):
        with pytest.raises(ValueError, match="not finite or exceeds 2"):
            ExperimentConfig(n=n)

    def test_accepts_largest_resolvable_n(self):
        assert ExperimentConfig(n=2.0 ** 52).n == 2.0 ** 52

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("ALG9",))
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=())
        with pytest.raises(ValueError, match="not among"):
            ExperimentConfig(algorithms=("ALG1",),
                             placement_files={"ALG3": "alg3.json"})

    def test_rejects_repeated_algorithm(self):
        # a repeated algorithm was searched twice for one table row
        with pytest.raises(ValueError, match="'ALG1' is selected twice"):
            ExperimentConfig(algorithms=("ALG1", "ALG3", "ALG1"))


class TestStatsRow:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            StatsRow("ALG1", "P", min=2.0, avg=1.0, max=3.0,
                     stddev=0.1, bound=6.0)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            StatsRow("ALG1", "P", min=1.0, avg=2.0, max=7.0,
                     stddev=0.1, bound=6.0)
        # slack admits the overshoot
        StatsRow("ALG1", "P", min=1.0, avg=2.0, max=7.0,
                 stddev=0.1, bound=6.0, slack=1.5)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            StatsRow("ALG1", "Q", min=0.0, avg=0.0, max=0.0,
                     stddev=0.0, bound=1.0)


class TestPoiArray:
    def test_within_disk(self):
        poi = _poi_array(0, 5000, 10.0)
        assert poi.shape == (5000, 2)
        assert (np.hypot(poi[:, 0], poi[:, 1]) <= 10.0 + 1e-12).all()

    def test_radial_uniform_mean(self):
        # the radial coordinate is uniform, so its mean is n/2
        n = 100.0
        poi = _poi_array(1, 100_000, n)
        radii = np.hypot(poi[:, 0], poi[:, 1])
        assert radii.mean() == pytest.approx(n / 2.0, rel=0.01)

    def test_seed_reproducibility(self):
        a = _poi_array(42, 300, 8.0)
        assert np.array_equal(a, _poi_array(42, 300, 8.0))
        assert not np.array_equal(a, _poi_array(43, 300, 8.0))

    def test_prefix_stable(self):
        # trial i's POI does not depend on the number of trials, also
        # past the first block boundary
        assert _POI_BLOCK < 5000
        assert np.array_equal(_poi_array(7, 9000, 64.0)[:5000],
                              _poi_array(7, 5000, 64.0))


class TestMonteCarlo:
    def test_small_campaign(self):
        config = ExperimentConfig(n=2.0 ** 8, trials=200,
                                  algorithms=("ALG1", "ALG3"))
        rows, _ = monte_carlo(config)
        assert len(rows) == 6  # two algorithms x three metrics
        for row in rows:
            assert row.min <= row.avg <= row.max
            assert row.max <= row.bound + row.slack + 1e-9

    def test_single_trial_degenerate_stats(self):
        config = ExperimentConfig(n=2.0 ** 6, trials=1,
                                  algorithms=("ALG3",))
        rows, _ = monte_carlo(config)
        for row in rows:
            assert row.min == row.avg == row.max
            assert row.stddev == 0.0

    def test_seed_determinism(self):
        config = ExperimentConfig(n=2.0 ** 8, trials=100,
                                  algorithms=("ALG5",), seed=3)
        r1, s1 = monte_carlo(config)
        r2, s2 = monte_carlo(config)
        assert [(r.avg, r.max) for r in r1] == [(r.avg, r.max) for r in r2]
        assert s1.keys() == s2.keys()
        assert all(np.array_equal(s1[k], s2[k]) for k in s1)

    def test_optimized_algorithms_need_files(self):
        config = ExperimentConfig(n=2.0 ** 8, trials=10,
                                  algorithms=("ALG7",))
        with pytest.raises(ValueError):
            monte_carlo(config)

    def test_collects_samples(self):
        config = ExperimentConfig(n=2.0 ** 8, trials=50,
                                  algorithms=("ALG1",))
        rows, samples = monte_carlo(config)
        for metric in ("P", "D", "R"):
            arr = samples[("ALG1", metric)]
            assert arr.shape == (50,)
            row = next(r for r in rows if r.metric == metric)
            assert row.avg == pytest.approx(float(arr.mean()), abs=1e-12)


def _cpus(monkeypatch, count: int) -> None:
    """Make ``count`` CPUs look usable to a campaign."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="campaigns fork worker processes only on Linux")
class TestParallelCampaign:
    ALL = tuple(f"ALG{i}" for i in range(1, 7))

    @pytest.mark.parametrize("seed, cpus", [(1, 2), (2, 2), (3, 2), (1, 4)])
    def test_outputs_do_not_depend_on_cpu_count(self, monkeypatch, seed,
                                                cpus):
        config = ExperimentConfig(n=2.0 ** 20, trials=20_000, seed=seed)
        _cpus(monkeypatch, cpus)
        assert share_count(len(config.algorithms)) == cpus
        threads = threading.active_count()
        rows, samples = monte_carlo(config)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        _cpus(monkeypatch, 1)
        assert share_count(len(config.algorithms)) == 1
        serial_rows, serial_samples = monte_carlo(config)
        assert rows == serial_rows
        assert [r.algorithm for r in rows[::3]] == list(self.ALL)
        assert list(samples) == list(serial_samples)
        for key, values in samples.items():
            assert values.dtype == serial_samples[key].dtype
            assert np.array_equal(values, serial_samples[key])

    def test_stays_in_process_when_a_fork_gains_nothing(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert share_count(6) == 2
        assert share_count(6, small=True) == 1
        assert share_count(1) == 1
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert share_count(6) == 1
        monkeypatch.undo()
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert share_count(6) == 1

    def test_campaign_below_one_slice_is_small(self, monkeypatch):
        flags = []
        fork_map = experiments.fork_map

        def spy(function, items, names=None, small=False):
            flags.append(small)
            return fork_map(function, items, names, small)

        monkeypatch.setattr(experiments, "fork_map", spy)
        for trials in (experiments._BATCH_CHUNK - 1,
                       experiments._BATCH_CHUNK):
            monte_carlo(ExperimentConfig(n=2.0 ** 8, trials=trials,
                                         algorithms=("ALG1", "ALG3")))
        assert flags == [True, False]

    @staticmethod
    def _failing_search(monkeypatch, fail):
        """Patch ``_search`` so that ``fail(algorithm)`` runs first; forked
        workers inherit the patch."""
        search = experiments._search

        def patched(algorithm, config, poi):
            fail(algorithm)
            return search(algorithm, config, poi)

        monkeypatch.setattr(experiments, "_search", patched)

    def test_first_failure_in_algorithm_order_wins(self, monkeypatch):
        # shares [ALG1, ALG3, ALG5] and [ALG2, ALG4, ALG6]: the calling
        # process fails on ALG3, the worker on ALG4, and ALG3 comes first
        def fail(algorithm):
            if algorithm in ("ALG3", "ALG4"):
                raise ValueError(f"{algorithm} refused")

        self._failing_search(monkeypatch, fail)
        _cpus(monkeypatch, 2)
        config = ExperimentConfig(trials=10_000)
        with pytest.raises(ValueError, match="^ALG3 refused$"):
            monte_carlo(config)

        def fail_early(algorithm):
            if algorithm in ("ALG2", "ALG3"):
                raise RuntimeError(f"{algorithm} refused")

        self._failing_search(monkeypatch, fail_early)
        with pytest.raises(RuntimeError, match="^ALG2 refused$"):
            monte_carlo(config)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_a_failure(self, monkeypatch):
        parent = os.getpid()

        def die(algorithm):
            if algorithm == "ALG4" and os.getpid() != parent:
                os._exit(3)

        self._failing_search(monkeypatch, die)
        _cpus(monkeypatch, 2)
        # the worker sends nothing before its whole share is searched
        with pytest.raises(RuntimeError, match="ALG2, ALG4, ALG6 exited "
                           "with code 3 before sending ALG2's result"):
            monte_carlo(ExperimentConfig(trials=10_000))
        assert multiprocessing.active_children() == []

    def test_interrupted_campaign_stops_its_workers(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        parent = os.getpid()

        def interrupt(algorithm):
            if algorithm == "ALG1" and os.getpid() == parent:
                raise Interrupt

        self._failing_search(monkeypatch, interrupt)
        _cpus(monkeypatch, 2)
        threads = threading.active_count()
        with pytest.raises(Interrupt):
            monte_carlo(ExperimentConfig(trials=100_000))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


class TestBoldBest:
    def test_synthetic_winner(self):
        rows = [
            StatsRow("ALG1", "P", 1.0, 2.0, 3.0, 0.1, 6.0),
            StatsRow("ALG3", "P", 0.5, 1.5, 2.5, 0.1, 6.0),
            StatsRow("ALG1", "D", 0.0, 1.0, 2.0, 0.1, 11.0),
            StatsRow("ALG3", "D", 0.0, 2.0, 3.0, 0.1, 11.0),
            StatsRow("ALG1", "R", 0.0, 1.0, 2.0, 0.1, 6.0),
            StatsRow("ALG3", "R", 0.0, 1.0, 2.0, 0.1, 6.0),
        ]
        best = bold_best(rows)
        assert ("ALG3", "P", "avg") in best
        assert ("ALG1", "P", "avg") not in best
        assert ("ALG1", "D", "avg") in best
        # ties within the resolution are bolded jointly
        assert ("ALG1", "R", "avg") in best and ("ALG3", "R", "avg") in best


class TestEmitReport:
    def test_table_and_histograms(self, tmp_path):
        config = ExperimentConfig(n=2.0 ** 8, trials=100,
                                  algorithms=("ALG1", "ALG3"))
        rows, samples = monte_carlo(config)
        written = emit_report(rows, tmp_path, samples)
        names = {p.name for p in written}
        assert names == {"table.csv", "hist_P.csv", "hist_D.csv",
                         "hist_R.csv"}

        with (tmp_path / "table.csv").open() as fh:
            table = list(csv.reader(fh))
        assert table[0][0] == "algorithm"
        assert [r[0] for r in table[1:]] == ["ALG1", "ALG3"]
        assert any("**" in cell for row in table[1:] for cell in row)

        with (tmp_path / "hist_P.csv").open() as fh:
            hist = list(csv.reader(fh))
        body = hist[1:-2]
        assert len(body) == 64
        for col, alg in enumerate(("ALG1", "ALG3"), start=2):
            assert sum(int(r[col]) for r in body) == 100  # all mass binned
        assert hist[-2][0] == "mean"
        assert hist[-1][0] == "stddev"

    def test_requires_rows(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path, {})


class TestRunExperiment:
    def test_end_to_end(self, tmp_path):
        config = ExperimentConfig(n=2.0 ** 8, trials=60,
                                  algorithms=("ALG5",))
        written = run_experiment(config, tmp_path / "out")
        assert all(p.exists() for p in written)

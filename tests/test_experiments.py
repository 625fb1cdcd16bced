"""Monte Carlo campaigns and report emission."""
from __future__ import annotations

import csv

import numpy as np
import pytest

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

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("ALG9",))
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=())
        with pytest.raises(ValueError):
            ExperimentConfig(poi_distribution="uniform-area")


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
        rows = monte_carlo(config)
        assert len(rows) == 6  # two algorithms x three metrics
        for row in rows:
            assert row.min <= row.avg <= row.max
            assert row.max <= row.bound + row.slack + 1e-9

    def test_single_trial_degenerate_stats(self):
        config = ExperimentConfig(n=2.0 ** 6, trials=1,
                                  algorithms=("ALG3",))
        rows = monte_carlo(config)
        for row in rows:
            assert row.min == row.avg == row.max
            assert row.stddev == 0.0

    def test_seed_determinism(self):
        config = ExperimentConfig(n=2.0 ** 8, trials=100,
                                  algorithms=("ALG5",), seed=3)
        r1 = monte_carlo(config)
        r2 = monte_carlo(config)
        assert [(r.avg, r.max) for r in r1] == [(r.avg, r.max) for r in r2]

    def test_optimized_algorithms_need_files(self):
        config = ExperimentConfig(n=2.0 ** 8, trials=10,
                                  algorithms=("ALG7",))
        with pytest.raises(ValueError):
            monte_carlo(config)

    def test_collects_samples(self):
        samples: dict = {}
        config = ExperimentConfig(n=2.0 ** 8, trials=50,
                                  algorithms=("ALG1",))
        rows = monte_carlo(config, collect_samples=samples)
        for metric in ("P", "D", "R"):
            arr = samples[("ALG1", metric)]
            assert arr.shape == (50,)
            row = next(r for r in rows if r.metric == metric)
            assert row.avg == pytest.approx(float(arr.mean()), abs=1e-12)


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
        samples: dict = {}
        config = ExperimentConfig(n=2.0 ** 8, trials=100,
                                  algorithms=("ALG1", "ALG3"))
        rows = monte_carlo(config, collect_samples=samples)
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
            emit_report([], tmp_path)


class TestRunExperiment:
    def test_end_to_end(self, tmp_path):
        config = ExperimentConfig(n=2.0 ** 8, trials=60,
                                  algorithms=("ALG5",),
                                  output_dir=str(tmp_path / "out"))
        written = run_experiment(config)
        assert all(p.exists() for p in written)

    def test_requires_output_dir(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(trials=1, n=4.0))

import numpy as np
import pytest

from vcpde.uncertainty import (
    BootstrapCI,
    bootstrap_median_ci,
    coefficient_seed,
    ensemble_bootstrap_cis,
)

from test_gibbs import synthetic_ensemble


class TestBootstrapMedianCi:
    def test_identical_draws_zero_width(self):
        ci = bootstrap_median_ci(np.full(100, 3.25), seed=1)
        assert ci.lower == ci.point == ci.upper == 3.25
        assert ci.width == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal(200)
        a = bootstrap_median_ci(draws, seed=9)
        b = bootstrap_median_ci(draws, seed=9)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_nesting_of_levels(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal(300)
        narrow = bootstrap_median_ci(draws, level=0.90, seed=4)
        wide = bootstrap_median_ci(draws, level=0.95, seed=4)
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_contains_sample_median_almost_always(self):
        rng = np.random.default_rng(5)
        hits = 0
        trials = 200
        for k in range(trials):
            draws = rng.standard_normal(120)
            ci = bootstrap_median_ci(draws, n_resamples=400, seed=k)
            hits += ci.lower <= np.median(draws) <= ci.upper
        assert hits / trials >= 0.99

    def test_emulated_chain_ci_width_order(self):
        # draws mimicking the benchmark posterior histogram: the published 95%
        # interval has width ~4.5e-5, reproducible only in order of magnitude
        rng = np.random.default_rng(6)
        draws = 0.100116 + 2.6e-4 * rng.standard_normal(800)
        ci = bootstrap_median_ci(draws, seed=7)
        published_width = 0.10013647 - 0.10009149
        assert published_width / 10 <= ci.width <= published_width * 10
        assert abs(ci.point - 0.100116) < 5e-5

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci(np.ones(10))

    def test_too_few_resamples_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci(np.ones(100), n_resamples=50)

    def test_interval_must_bracket_point(self):
        with pytest.raises(ValueError):
            BootstrapCI(point=1.0, lower=1.1, upper=1.2, level=0.95, n_resamples=500, seed=0)


class TestPerCoefficientSeeds:
    def test_deterministic_and_distinct(self):
        assert coefficient_seed(1, 2, 3) == coefficient_seed(1, 2, 3)
        assert coefficient_seed(1, 2, 3) != coefficient_seed(1, 3, 2)

    def test_ensemble_cis_cover_active_groups(self):
        rng = np.random.default_rng(8)
        beta = np.zeros((120, 3, 2))
        beta[:, :, 0] = 2.0 + 0.05 * rng.standard_normal((120, 3))
        ens = synthetic_ensemble(beta, spike=np.tile([False, True], (120, 1)))
        cis = ensemble_bootstrap_cis(ens, base_seed=11)
        assert set(cis) == {"g0"}
        assert len(cis["g0"]) == 3
        for ci in cis["g0"]:
            assert 1.9 <= ci.point <= 2.1


class TestReportIntegration:
    def test_bootstrap_cis_and_trace_dump(self, tmp_path):
        import numpy as np

        from vcpde.gibbs import BglssConfig, dump_ensemble
        from vcpde.tbglss import ThresholdSpec, run_tbglss
        from conftest import random_grouped_system

        rng = np.random.default_rng(14)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        report = run_tbglss(system, ThresholdSpec(t_rms=0.05, t_ge=0.5),
                            BglssConfig(n_iterations=200, n_burnin=60, lam=1.0, seed=6),
                            keep_final_ensemble=True, bootstrap_ci=True)
        assert report.final_ensemble is not None
        assert set(report.bootstrap_cis["intervals"]) == set(report.selected)
        for name in report.selected:
            intervals = np.asarray(report.bootstrap_cis["intervals"][name])
            traj = report.trajectories.group(name)
            assert np.all(intervals[:, 0] <= traj + 1e-12)
            assert np.all(traj <= intervals[:, 1] + 1e-12)
        assert '"bootstrap_cis"' in report.to_json()

        npz = tmp_path / "trace.npz"
        dump_ensemble(report.final_ensemble, npz)
        loaded = np.load(npz)
        np.testing.assert_array_equal(loaded["beta"], report.final_ensemble.beta)

        csv_path = tmp_path / "trace.csv"
        dump_ensemble(report.final_ensemble, csv_path, fmt="csv")
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("draw,sigma2,pi0")

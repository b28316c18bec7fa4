import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcpde.criteria import ZeroNormGroupError, group_error_bar, rms_criterion
from vcpde import tbglss
from vcpde.gibbs import BglssConfig
from vcpde.library import CHUNK_STEPS
from vcpde.tbglss import DiscoveryReport, TbglssConfig, ThresholdSpec, run_tbglss

from conftest import random_grouped_system


class TestThresholdSpec:
    def test_requires_one_threshold(self):
        with pytest.raises(ValueError):
            ThresholdSpec()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ThresholdSpec(t_rms=-0.1)

    @pytest.mark.parametrize("field", ["t_rms", "t_ge"])
    def test_rejects_nan_accepts_inf(self, field):
        with pytest.raises(ValueError, match=f"{field} must be nonnegative, got nan"):
            ThresholdSpec(**{field: float("nan")})
        assert getattr(ThresholdSpec(**{field: float("inf")}), field) == float("inf")


class TestTbglssConfig:
    def test_count_bounds(self):
        # the CLI tests reject counts below the bounds; these are the bounds themselves
        TbglssConfig(ThresholdSpec(t_rms=0.1), update_iterations=1, update_burnin=0,
                     final_chains=1)
        with pytest.raises(ValueError, match="^update_burnin must be at least 0 and below"):
            TbglssConfig(ThresholdSpec(t_rms=0.1), update_iterations=40, update_burnin=40)


class TestRmsCriterion:
    def test_zero_vector(self):
        assert rms_criterion(np.zeros(5)) == 0.0

    def test_three_four(self):
        assert rms_criterion(np.array([3.0, 4.0])) == pytest.approx(5.0 / np.sqrt(2.0))

    def test_constant_trajectory(self):
        assert rms_criterion(np.full(17, -2.5)) == pytest.approx(2.5)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            rms_criterion(np.array([]))


class TestGroupErrorBar:
    def test_zero_variance(self):
        assert group_error_bar(np.array([1.0, 2.0]), np.zeros(2)) == 0.0

    def test_hand_computed(self):
        assert group_error_bar(np.array([1.0, 1.0]), np.array([0.02, 0.02])) == pytest.approx(0.02)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(min_value=0.01, max_value=100.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_scale_invariance(self, c, sign):
        beta = np.array([0.5, -1.5, 2.0])
        s2 = np.array([0.1, 0.2, 0.05])
        base = group_error_bar(beta, s2)
        scaled = group_error_bar(sign * c * beta, c**2 * s2)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_zero_norm_signals_excluded(self):
        with pytest.raises(ZeroNormGroupError):
            group_error_bar(np.zeros(3), np.ones(3))


class TestLoopProperties:
    """Randomized toy systems: termination, monotone removal, determinism."""

    @pytest.mark.parametrize("seed", range(6))
    def test_loop_contract(self, seed):
        rng = np.random.default_rng(seed)
        system, _, active_truth = random_grouped_system(rng, n_steps=4, n_rows=12, n_groups=5)
        config = BglssConfig(n_iterations=300, n_burnin=80, lam=1.0, seed=seed)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5), bglss=config, update_iterations=120,
            update_burnin=30))
        g = system.n_groups
        assert report.n_updates <= g + 1
        # every committed update except the last removes at least one group
        for record in report.update_history[:-1]:
            assert len(record.removed) >= 1
        # monotone exclusion: support sizes strictly decrease, removed never return
        sizes = [len(r.support_before) for r in report.update_history]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        removed_all = set()
        for record in report.update_history:
            assert not (removed_all & set(record.support_before))
            removed_all |= set(record.removed)

    @pytest.mark.parametrize("seed", range(3))
    def test_determinism(self, seed):
        rng = np.random.default_rng(seed + 50)
        system, _, _ = random_grouped_system(rng)
        config = BglssConfig(n_iterations=200, n_burnin=60, lam=1.0, seed=7)
        a = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5), bglss=config))
        b = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5), bglss=config))
        np.testing.assert_array_equal(a.trajectories.values, b.trajectories.values)
        np.testing.assert_array_equal(a.stdev, b.stdev)
        assert a.selected == b.selected

    @pytest.mark.parametrize("seed", range(4))
    def test_criterion_conformance_on_final_ensemble(self, seed):
        rng = np.random.default_rng(seed + 11)
        system, _, _ = random_grouped_system(rng)
        thresholds = ThresholdSpec(t_rms=0.05, t_ge=0.5)
        report = run_tbglss(system, TbglssConfig(
            thresholds=thresholds,
            bglss=BglssConfig(n_iterations=300, n_burnin=80, lam=1.0, seed=seed)))
        for name in report.selected:
            crit = report.criteria[name]
            assert crit["rms"] >= thresholds.t_rms
            assert crit["group_error_bar"] <= thresholds.t_ge

    def test_true_support_recovered_on_toys(self):
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(seed + 200)
            system, _, active_truth = random_grouped_system(rng, n_rows=24)
            report = run_tbglss(system, TbglssConfig(
                thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
                bglss=BglssConfig(n_iterations=300, n_burnin=80, lam=1.0, seed=seed)))
            expected = {f"g{i}" for i in sorted(active_truth)}
            hits += set(report.selected) == expected
        assert hits >= 4

    def test_zero_rms_threshold_terminates_quickly(self):
        rng = np.random.default_rng(3)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.0),
            bglss=BglssConfig(n_iterations=200, n_burnin=60, lam=1.0, seed=1)))
        assert report.n_updates <= 2

    def test_all_groups_removed_flagged(self):
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng)
        # a threshold above every group's scale removes everything
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=1e6),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=2)))
        assert report.empty_model
        assert report.selected == ()
        assert np.all(report.trajectories.values == 0.0)


class TestChainSummary:
    @pytest.mark.parametrize("n_draws", [30, 31])  # np.median averages two middle draws at even n
    def test_chunked_summary_bitwise_equals_whole_array(self, n_draws):
        rng = np.random.default_rng(n_draws)
        beta = rng.standard_normal((n_draws, 2 * CHUNK_STEPS + 5, 3))
        beta[:, :, 1] = 0.0
        median, variance = tbglss._summarize(beta)
        assert median.tobytes() == np.median(beta, axis=0).tobytes()
        assert variance.tobytes() == np.var(beta, axis=0, ddof=1).tobytes()
        assert not median.flags.writeable and not variance.flags.writeable

    @pytest.mark.parametrize("n_draws", [2, 3, 7, 8, 31, 32])
    def test_median_matches_numpy_on_ties_and_zeros(self, n_draws, monkeypatch):
        rng = np.random.default_rng(n_draws)
        beta = rng.integers(-2, 3, (n_draws, CHUNK_STEPS + 3, 6)).astype(float)
        beta[rng.random(beta.shape) < 0.3] = -0.0  # signed zeros tie with zeros
        beta[:, :, 1] = 0.0
        beta[:, :, 2] = -0.0
        beta[:, :, 3] *= 1e150
        expected = np.median(beta, axis=0)
        monkeypatch.setattr(np, "median", None)  # finite draws never reach np.median
        median, _ = tbglss._summarize(beta)
        assert median.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_draws_get_numpy_median(self):
        rng = np.random.default_rng(3)
        beta = rng.standard_normal((30, 2 * CHUNK_STEPS, 3))
        beta[4, 1, 0] = np.nan
        beta[:3, CHUNK_STEPS + 2, 1] = np.inf
        beta[3:6, CHUNK_STEPS + 2, 2] = -np.inf
        median, _ = tbglss._summarize(beta)
        expected = np.median(beta, axis=0)
        assert np.isnan(median[1, 0])
        assert median.tobytes() == expected.tobytes()

    def test_pickled_summary_stays_read_only(self):
        beta = np.random.default_rng(4).standard_normal((20, 3, 2))
        summary = tbglss.ChainSummary(*tbglss._summarize(beta))
        copy = pickle.loads(pickle.dumps(summary))
        assert copy.median.tobytes() == summary.median.tobytes()
        assert not copy.median.flags.writeable and not copy.variance.flags.writeable


class TestReportSerialization:
    def test_json_round_trip_fields(self, tmp_path):
        rng = np.random.default_rng(8)
        system, _, _ = random_grouped_system(rng)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=3)))
        path = tmp_path / "report.json"
        report.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["method"] == "tbglss"
        assert doc["provenance"] == {"seed": 3}
        assert doc["thresholds"] == {"t_rms": 0.05, "t_ge": 0.5}
        assert len(doc["trajectories"]) == system.n_steps
        assert doc["selected"] == list(report.selected)
        assert doc["update_history"][0]["support_before"]

    def test_rendered_equation(self):
        rng = np.random.default_rng(9)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=3)))
        eq = report.rendered_equation()
        assert eq.startswith("u_t = ")
        for i, name in enumerate(report.selected):
            assert f"a_{i+1}(t)*{name}" in eq


class TestMultiChainMode:
    def test_chain_medians_recorded(self):
        rng = np.random.default_rng(12)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=3), final_chains=3))
        assert report.chain_medians is not None
        assert report.chain_medians.shape[0] == 3
        active = report.trajectories.active
        spread = report.chain_medians[:, :, active].std(axis=0)
        assert np.isfinite(spread).all()

    def test_extra_chains_round_trip(self, monkeypatch):
        rng = np.random.default_rng(12)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        seeds = []
        sample = tbglss.sample_posterior

        def recording(system, config, groups):
            seeds.append(config.seed)
            return sample(system, config, groups)

        monkeypatch.setattr(tbglss, "sample_posterior", recording)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=3), final_chains=3))
        medians = report.chain_medians
        active = report.trajectories.active
        assert medians.shape == (3, system.n_steps, system.n_groups)
        assert active.any() and not active.all()
        assert np.all(medians[:, :, ~active] == 0.0)
        np.testing.assert_array_equal(medians[0], report.trajectories.values)
        # the confirming chain, then one chain per extra seed
        assert len(set(seeds[-3:])) == 3
        for c in (1, 2):
            assert not np.array_equal(medians[c][:, active], medians[0][:, active])
        doc = json.loads(report.to_json())
        np.testing.assert_array_equal(np.array(doc["chain_medians"]), medians)

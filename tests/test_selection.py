from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcpde import selection
from vcpde.baselines import GroupLassoConfig, group_lasso, group_lasso_null_threshold
from vcpde.criteria import aic_loss, coefficient_mse, empty_model_scores, total_error_bar
from vcpde.gibbs import BglssConfig
from vcpde.library import CoefficientTrajectories, GroupedLinearSystem, normalize_columns
from vcpde.selection import MethodConfig, SelectionCurve, default_grid, fit, sweep
from vcpde.solvers import TrueCoefficients
from vcpde.tbglss import ThresholdSpec

from conftest import random_grouped_system
from helpers import lstsq_trajectories


def perfect_fit_system(seed=0, n_steps=3, n_rows=8, n_groups=4):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n_steps, n_rows, n_groups))
    beta = np.zeros((n_steps, n_groups))
    beta[:, 2] = 1.7
    target = np.einsum("mng,mg->mn", blocks, beta)
    system = normalize_columns(GroupedLinearSystem(
        blocks, target, tuple("abcd"), "time", np.arange(float(n_steps))))
    return system, beta * system.scales  # normalized-scale coefficients


class TestAicLoss:
    def test_perfect_fit_floor(self):
        system, beta_norm = perfect_fit_system()
        n_obs = system.n_observations
        loss = aic_loss(system, beta_norm, k=0, epsilon=1e-6)
        assert loss == pytest.approx(n_obs * np.log(1e-6), rel=1e-9)

    def test_k_additivity(self):
        system, beta_norm = perfect_fit_system()
        m = system.n_steps
        base = aic_loss(system, beta_norm, k=m)
        bigger = aic_loss(system, beta_norm, k=2 * m)
        assert bigger - base == pytest.approx(2 * m)

    @settings(max_examples=25, deadline=None)
    @given(eps1=st.floats(1e-8, 1e-2), eps2=st.floats(1e-8, 1e-2))
    def test_epsilon_decomposition(self, eps1, eps2):
        system, beta_norm = perfect_fit_system(seed=3)
        beta = 0.5 * beta_norm  # imperfect fit
        n_obs = system.n_observations
        rss = system.residual_norm_sq(beta) / float((system.target**2).sum())
        l1 = aic_loss(system, beta, k=0, epsilon=eps1)
        l2 = aic_loss(system, beta, k=0, epsilon=eps2)
        expected = n_obs * (np.log(rss / n_obs + eps1) - np.log(rss / n_obs + eps2))
        assert l1 - l2 == pytest.approx(expected, rel=1e-9)

    def test_true_support_beats_supersets_on_clean_burgers(self, burgers_system, library20):
        m = burgers_system.n_steps
        true_idx = [library20.descriptors.index(n) for n in ("u*u_x", "u_xx")]
        losses = {}
        for extra in (None, "u", "u_xxx", "u^2*u_xx"):
            idx = list(true_idx)
            if extra is not None:
                idx.append(library20.descriptors.index(extra))
            sub = burgers_system.subsystem(np.array(sorted(idx)))
            beta_sub = lstsq_trajectories(sub)
            beta = np.zeros((m, burgers_system.n_groups))
            beta[:, sorted(idx)] = beta_sub
            losses[extra] = aic_loss(burgers_system, beta, k=len(idx) * m)
        assert all(losses[None] < v for k, v in losses.items() if k is not None)

    def test_epsilon_positive_required(self):
        system, beta_norm = perfect_fit_system()
        with pytest.raises(ValueError):
            aic_loss(system, beta_norm, k=0, epsilon=0.0)


class TestTotalErrorBar:
    def test_empty_model_zero(self):
        assert total_error_bar(np.zeros((4, 3)), np.ones((4, 3))) == 0.0

    def test_two_groups_additivity(self):
        beta = np.ones((2, 2))
        s2 = np.full((2, 2), 0.02)
        assert total_error_bar(beta, s2) == pytest.approx(0.04)

    def test_disjoint_additivity(self):
        rng = np.random.default_rng(0)
        beta = rng.standard_normal((3, 4))
        s2 = rng.random((3, 4))
        left = np.array([True, True, False, False])
        right = ~left
        total = total_error_bar(beta, s2, np.ones(4, dtype=bool))
        assert total == pytest.approx(
            total_error_bar(beta, s2, left) + total_error_bar(beta, s2, right))

    def test_active_zero_norm_rejected(self):
        beta = np.zeros((3, 2))
        beta[:, 0] = 1.0
        with pytest.raises(ValueError):
            total_error_bar(beta, np.ones((3, 2)), np.array([True, True]))


def make_trajectories(values, coords=None):
    values = np.asarray(values, dtype=float)
    active = ~np.all(values == 0.0, axis=0)
    coords = np.arange(float(values.shape[0])) if coords is None else coords
    return CoefficientTrajectories(values, active,
                                   tuple(f"g{i}" for i in range(values.shape[1])), coords, "time")


def make_truth(values, coords=None):
    values = np.asarray(values, dtype=float)
    coords = np.arange(float(values.shape[0])) if coords is None else coords
    return TrueCoefficients(values, tuple(f"g{i}" for i in range(values.shape[1])), coords, "time")


class TestCoefficientMse:
    def test_identical_zero(self):
        est = make_trajectories([[1.0, 0.0], [2.0, 0.0]])
        truth = make_truth([[1.0, 0.0], [2.0, 0.0]])
        assert coefficient_mse(est, truth) == 0.0

    def test_includes_absent_terms(self):
        est = make_trajectories([[1.0, 0.0], [1.0, 0.0]])
        truth = make_truth([[0.0, 1.0], [0.0, 1.0]])
        assert coefficient_mse(est, truth) == pytest.approx(1.0)

    def test_symmetry(self):
        a = [[1.0, 0.5], [2.0, 0.0]]
        b = [[0.5, 1.0], [0.0, 2.0]]
        forward = coefficient_mse(make_trajectories(a), make_truth(b))
        backward = coefficient_mse(make_trajectories(b), make_truth(a))
        assert forward == pytest.approx(backward)

    def test_grid_mismatch_rejected(self):
        est = make_trajectories([[1.0], [2.0]], coords=np.array([0.0, 1.0]))
        truth = make_truth([[1.0], [2.0]], coords=np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="grids"):
            coefficient_mse(est, truth)


class TestFit:
    def test_baselines_need_a_fixed_parameter(self):
        system, _ = perfect_fit_system(seed=10)
        with pytest.raises(ValueError, match="sgtr_threshold"):
            fit(system, MethodConfig(method="sgtr"))
        with pytest.raises(ValueError, match="lasso_lam"):
            fit(system, MethodConfig(method="group_lasso"))

    def test_loss_counts_active_groups_times_steps(self):
        system, _ = perfect_fit_system(seed=11)
        report = fit(system, MethodConfig(method="sgtr", sgtr_threshold=0.01))
        assert report.selected == ("c",)
        beta = report.trajectories.values * system.scales
        assert report.loss == aic_loss(system, beta, system.n_steps)

    def test_tbglss_loss_scores_the_normalized_median(self):
        rng = np.random.default_rng(12)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        report = fit(system, MethodConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=0)))
        k = len(report.selected) * system.n_steps
        assert report.selected
        assert report.loss == aic_loss(system, report.beta_normalized, k)

    def test_group_lasso_report_certifies_the_fit(self):
        rng = np.random.default_rng(13)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        lam = 0.3 * group_lasso_null_threshold(system)
        hyper = fit(system, MethodConfig(method="group_lasso", lasso_lam=lam)).hyperparameters
        assert hyper["converged"] and hyper["admm_iterations"] >= 1
        assert 0.0 <= hyper["kkt_residual"] <= 10 * GroupLassoConfig(lam=lam).tolerance / lam

    def test_unconverged_lasso_fit_is_reported_unscored(self, monkeypatch):
        def unconverged(system, config):
            return replace(group_lasso(system, config), converged=False, n_sweeps=config.max_sweeps)

        monkeypatch.setattr(selection, "group_lasso", unconverged)
        rng = np.random.default_rng(13)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        lam = 0.3 * group_lasso_null_threshold(system)
        report = fit(system, MethodConfig(method="group_lasso", lasso_lam=lam))
        assert report.selected and report.hyperparameters["converged"] is False
        assert report.loss is None
        assert report.unscored == "NotConverged: group lasso did not converge in 10000 sweeps"


class TestSweep:
    def test_single_point_grid(self):
        rng = np.random.default_rng(1)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        base = MethodConfig(thresholds=ThresholdSpec(t_ge=0.5),
                            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=0))
        curve = sweep(system, "t_rms", np.array([0.05]), base)
        assert len(curve.points) == 1
        assert curve.argmin["loss"] == 0.05

    def test_constant_support_loss_varies_only_with_fit(self):
        rng = np.random.default_rng(2)
        system, _, active_truth = random_grouped_system(rng, n_rows=24)
        grid = np.array([0.02, 0.05])  # both below every true group's scale
        base = MethodConfig(thresholds=ThresholdSpec(t_ge=10.0),
                            bglss=BglssConfig(n_iterations=200, n_burnin=60, lam=1.0, seed=1))
        curve = sweep(system, "t_rms", grid, base)
        supports = {p.selected for p in curve.points}
        assert len(supports) == 1

    def test_axis_method_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        system, _, _ = random_grouped_system(rng)
        with pytest.raises(ValueError, match="group_lasso"):
            sweep(system, "lambda", np.array([0.5, 1.0]),
                  MethodConfig(thresholds=ThresholdSpec(t_rms=0.1)))

    def test_point_failures_recorded_not_fatal(self):
        # duplicated columns + zero ridge make every sgtr point singular
        rng = np.random.default_rng(3)
        col = rng.standard_normal((3, 8, 1))
        blocks = np.concatenate([col, col], axis=2)
        system = normalize_columns(GroupedLinearSystem(
            blocks, col[:, :, 0] * 2.0, ("a", "b"), "time", np.arange(3.0)))
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 0.1]),
                      MethodConfig(method="sgtr", sgtr_ridge=0.0))
        assert all(p.error is not None for p in curve.points)
        assert curve.argmin == {}

    def test_undocumented_point_error_propagates(self, monkeypatch):
        def broken(system, config):
            raise KeyError("a fault, not a documented point failure")

        monkeypatch.setattr(selection, "sgtr", broken)
        system, _ = perfect_fit_system(seed=8)
        with pytest.raises(KeyError, match="a fault"):
            sweep(system, "sgtr_threshold", np.array([0.01, 0.1]), MethodConfig(method="sgtr"))

    def test_unconverged_lasso_point_is_flagged_not_chosen(self, monkeypatch):
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        grid = default_grid("lambda", system)[::4]
        base = MethodConfig(method="group_lasso")
        chosen = sweep(system, "lambda", grid, base).argmin["loss"]

        def unconverged_at_chosen(system, config):
            result = group_lasso(system, config)
            if config.lam != chosen:
                return result
            return replace(result, converged=False, n_sweeps=config.max_sweeps)

        monkeypatch.setattr(selection, "group_lasso", unconverged_at_chosen)
        curve = sweep(system, "lambda", grid, base)
        point = curve.point_at(chosen)
        assert point.loss is None and point.report is None
        assert point.error == "NotConverged: group lasso did not converge in 10000 sweeps"
        assert curve.argmin["loss"] != chosen
        assert curve.summary()["n_failed"] == 1

    def test_empty_tbglss_point_scores_as_zero_fit(self):
        rng = np.random.default_rng(9)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        base = MethodConfig(thresholds=ThresholdSpec(t_rms=1e6),
                            bglss=BglssConfig(n_iterations=120, n_burnin=30, lam=1.0, seed=0))
        point = sweep(system, "t_rms", np.array([1e6]), base).points[0]
        assert point.selected == ()
        assert (point.loss, point.total_error_bar) == empty_model_scores(system)
        assert point.report.loss is None

    def test_lambda_sweep_records_loss(self):
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        grid = default_grid("lambda", system)[::5]
        curve = sweep(system, "lambda", grid, MethodConfig(method="group_lasso"))
        ok = [p for p in curve.points if p.error is None]
        assert ok and all(p.loss is not None for p in ok)
        assert all(p.total_error_bar is None for p in ok)

    def test_sgtr_threshold_sweep(self):
        system, beta_norm = perfect_fit_system(seed=5)
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 1e6]), MethodConfig(method="sgtr"))
        assert curve.points[0].selected == ("c",)
        assert curve.points[1].selected == ()

    def test_grid_must_increase(self):
        rng = np.random.default_rng(6)
        system, _, _ = random_grouped_system(rng)
        with pytest.raises(ValueError):
            sweep(system, "t_rms", np.array([0.2, 0.1]),
                  MethodConfig(thresholds=ThresholdSpec(t_ge=0.5)))

    def test_csv_and_json_outputs(self, tmp_path):
        system, _ = perfect_fit_system(seed=7)
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 0.5]), MethodConfig(method="sgtr"))
        curve.to_csv(tmp_path / "curve.csv")
        curve.to_json(tmp_path / "curve.json")
        text = (tmp_path / "curve.csv").read_text()
        assert "sgtr_threshold" in text.splitlines()[0]
        assert (tmp_path / "curve.json").exists()

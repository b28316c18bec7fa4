from dataclasses import replace

import numpy as np
import pytest

from vcpde import baselines
from vcpde.baselines import (
    GroupLassoConfig,
    SgtrConfig,
    group_lasso,
    group_lasso_null_threshold,
    sgtr,
)
from vcpde.library import GroupedLinearSystem, lstsq_trajectories, normalize_columns

from conftest import random_grouped_system


def noiseless_system(seed=0, n_steps=4, n_rows=16, n_groups=6):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n_steps, n_rows, n_groups))
    beta_true = np.zeros((n_steps, n_groups))
    beta_true[:, 1] = 2.0 + np.sin(np.arange(n_steps))
    beta_true[:, 4] = -1.5
    target = np.einsum("mng,mg->mn", blocks, beta_true)
    system = GroupedLinearSystem(blocks, target, tuple(f"g{i}" for i in range(n_groups)),
                                 "time", np.arange(float(n_steps)))
    return normalize_columns(system), beta_true


def collinear_system(seed, collinearity, second_weight):
    """Groups 0 and 1 at the given collinearity; the target is 2 g0 + w g1 - g3 + noise."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((4, 30, 5))
    blocks[:, :, 1] = blocks[:, :, 0] + collinearity * rng.standard_normal((4, 30))
    target = 2.0 * blocks[:, :, 0] + second_weight * blocks[:, :, 1] - blocks[:, :, 3]
    target += 0.01 * rng.standard_normal((4, 30))
    return normalize_columns(GroupedLinearSystem(
        blocks, target, tuple(f"g{i}" for i in range(5)), "time", np.arange(4.0)))


def assert_group_lasso_kkt(system, beta, lam, tol):
    """Criterion 7: per-group stationarity within 10 tol, zero groups within lam."""
    residual = system.target - system.matvec(beta)
    grad = np.einsum("mng,mn->mg", system.blocks, residual)  # X_g^T r per step
    for g in range(system.n_groups):
        norm_g = np.linalg.norm(beta[:, g])
        if norm_g > 0:
            stationarity = grad[:, g] - lam * beta[:, g] / norm_g
            assert np.linalg.norm(stationarity) <= 10 * tol
        else:
            assert np.linalg.norm(grad[:, g]) <= lam * (1 + 1e-6)


class TestSgtr:
    def test_exact_support_recovery(self):
        system, beta_true = noiseless_system()
        # threshold below the smallest true group rms (normalized scale)
        trajectories = sgtr(system, SgtrConfig(threshold=0.05, ridge=1e-10))
        assert trajectories.selected == ("g1", "g4")
        np.testing.assert_allclose(trajectories.values, beta_true, atol=1e-6)

    def test_threshold_above_everything_empties_model(self):
        system, _ = noiseless_system()
        trajectories = sgtr(system, SgtrConfig(threshold=1e9))
        assert not trajectories.active.any()
        assert np.all(trajectories.values == 0.0)

    def test_fixed_point(self):
        system, _ = noiseless_system()
        config = SgtrConfig(threshold=0.05)
        first = sgtr(system, config)
        again = sgtr(system.subsystem(np.flatnonzero(first.active)), config)
        np.testing.assert_allclose(again.values, first.values[:, first.active], atol=1e-10)

    def test_singular_gram_suggests_ridge(self):
        # duplicated columns make the per-step Gram exactly singular
        rng = np.random.default_rng(1)
        col = rng.standard_normal((3, 8, 1))
        blocks = np.concatenate([col, col], axis=2)
        target = col[:, :, 0] * 2.0
        system = normalize_columns(GroupedLinearSystem(
            blocks, target, ("a", "b"), "time", np.arange(3.0)))
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            sgtr(system, SgtrConfig(threshold=0.01, ridge=0.0))

    def test_normalizes_raw_system(self):
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((3, 10, 4))
        target = 3.0 * blocks[:, :, 2]
        raw = GroupedLinearSystem(blocks, target, ("a", "b", "c", "d"), "time", np.arange(3.0))
        trajectories = sgtr(raw, SgtrConfig(threshold=0.05))
        assert trajectories.selected == ("c",)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgtrConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SgtrConfig(threshold=0.1, ridge=-1.0)


class TestGroupLasso:
    def test_null_model_at_large_penalty(self):
        system, _ = noiseless_system()
        lam_max = group_lasso_null_threshold(system)
        result = group_lasso(system, GroupLassoConfig(lam=lam_max * 1.001))
        assert not result.trajectories.active.any()

    def test_least_squares_limit(self):
        system, beta_true = noiseless_system()
        result = group_lasso(system, GroupLassoConfig(lam=1e-8, tolerance=1e-12))
        ls = lstsq_trajectories(system) / system.scales
        assert np.linalg.norm(result.trajectories.values - ls) <= 1e-4 * max(np.linalg.norm(ls), 1)

    def test_objective_monotone(self):
        rng = np.random.default_rng(3)
        system, _, _ = random_grouped_system(rng, n_rows=12)
        result = group_lasso(system, GroupLassoConfig(lam=0.5))
        diffs = np.diff(result.objective_history)
        assert np.all(diffs <= 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_kkt_conditions(self, seed):
        rng = np.random.default_rng(seed)
        system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=10, n_groups=5)
        lam = 0.3 * group_lasso_null_threshold(system)
        tol = 1e-8
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol))
        assert_group_lasso_kkt(system, result.beta_normalized, lam, tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_block_descent_from_zero(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=10, n_groups=5)
        config = GroupLassoConfig(lam=0.3 * group_lasso_null_threshold(system), tolerance=1e-8)
        result = group_lasso(system, config)
        monkeypatch.setattr(baselines, "_admm_start",
                            lambda gram, cty, lam: (np.zeros_like(cty), 0))
        reference = group_lasso(system, replace(config, tolerance=1e-12))
        assert reference.admm_iterations == 0 and reference.converged
        np.testing.assert_array_equal(result.trajectories.active, reference.trajectories.active)
        np.testing.assert_allclose(result.beta_normalized, reference.beta_normalized, atol=1e-6)

    def test_ill_conditioned_system_converges(self):
        # nearly collinear active groups: block descent from zero needs
        # about 12,700 sweeps, from the ADMM start one
        system = collinear_system(0, collinearity=0.03, second_weight=1.0)
        lam = 0.02 * group_lasso_null_threshold(system)
        tol = 1e-8
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol, max_sweeps=200))
        assert result.converged and result.admm_iterations < baselines.ADMM_MAX_ITERATIONS
        assert_group_lasso_kkt(system, result.beta_normalized, lam, tol)
        assert np.all(np.diff(result.objective_history) <= 1e-9)

    def test_stalled_admm_start_falls_back_to_zero(self):
        # group 1 is zero at the optimum but 1e-3 collinear with group 0: ADMM
        # stalls, and descent from its last iterate would not converge in
        # 100,000 sweeps; from zero it needs 10
        system = collinear_system(21, collinearity=1e-3, second_weight=0.0)
        lam = 0.01 * group_lasso_null_threshold(system)
        tol = 1e-8
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol, max_sweeps=200))
        assert result.admm_iterations == baselines.ADMM_MAX_ITERATIONS
        assert result.converged
        assert result.trajectories.selected == ("g0", "g3")
        assert_group_lasso_kkt(system, result.beta_normalized, lam, tol)

    def test_nonconvergence_warns(self):
        rng = np.random.default_rng(9)
        system, _, _ = random_grouped_system(rng)
        with pytest.warns(RuntimeWarning, match="converge"):
            group_lasso(system, GroupLassoConfig(lam=0.01, tolerance=1e-14, max_sweeps=2))

    def test_requires_normalized(self):
        rng = np.random.default_rng(2)
        raw = GroupedLinearSystem(rng.standard_normal((3, 8, 2)), rng.standard_normal((3, 8)),
                                  ("a", "b"), "time", np.arange(3.0))
        with pytest.raises(ValueError, match="normalized"):
            group_lasso(raw, GroupLassoConfig(lam=1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GroupLassoConfig(lam=0.0)
        with pytest.raises(ValueError):
            GroupLassoConfig(lam=1.0, tolerance=0.0)


class TestBaselinesOnCleanBurgers:
    """Loss-selected baseline models on the clean benchmark dataset."""

    def test_sgtr_selects_true_pair(self, burgers_dataset, burgers_system):
        from vcpde.pipeline import MethodConfig, discover

        report = discover(burgers_dataset, MethodConfig(method="sgtr", thresholds=None),
                          system=burgers_system)
        assert set(report.selected) == {"u*u_x", "u_xx"}

    def test_group_lasso_keeps_near_zero_spurious_groups(self, burgers_dataset, burgers_system):
        from vcpde.pipeline import MethodConfig, discover

        report = discover(burgers_dataset, MethodConfig(method="group_lasso", thresholds=None),
                          system=burgers_system)
        selected = set(report.selected)
        assert {"u*u_x", "u_xx"} <= selected
        spurious = selected - {"u*u_x", "u_xx"}
        assert spurious  # fails to exclude everything
        traj = report.trajectories
        m = burgers_system.n_steps
        for name in spurious:
            rms = np.linalg.norm(traj.group(name)) / np.sqrt(m)
            assert rms < 0.01  # constantly close to zero

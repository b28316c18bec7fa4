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
from vcpde.library import normalize_columns
from vcpde.selection import fit

from conftest import random_grouped_system
from helpers import lstsq_trajectories, subsystem


def noiseless_system(seed=0, n_steps=4, n_rows=16, n_groups=6):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n_steps, n_rows, n_groups))
    beta_true = np.zeros((n_steps, n_groups))
    beta_true[:, 1] = 2.0 + np.sin(np.arange(n_steps))
    beta_true[:, 4] = -1.5
    target = np.einsum("mng,mg->mn", blocks, beta_true)
    system = normalize_columns(blocks, target, tuple(f"g{i}" for i in range(n_groups)),
                               "time", np.arange(float(n_steps)))
    return system, beta_true


def collinear_system(seed, collinearity, second_weight):
    """Groups 0 and 1 at the given collinearity; the target is 2 g0 + w g1 - g3 + noise."""
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((4, 30, 5))
    blocks[:, :, 1] = blocks[:, :, 0] + collinearity * rng.standard_normal((4, 30))
    target = 2.0 * blocks[:, :, 0] + second_weight * blocks[:, :, 1] - blocks[:, :, 3]
    target += 0.01 * rng.standard_normal((4, 30))
    return normalize_columns(blocks, target, tuple(f"g{i}" for i in range(5)), "time",
                             np.arange(4.0))


def zero_start(gram, gram_eigh, cty, lam):
    """An `_admm_start` stand-in: block descent from zero."""
    return np.zeros_like(cty), 0, "zero"


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
        again = sgtr(subsystem(system, np.flatnonzero(first.active)), config)
        np.testing.assert_allclose(again.values, first.values[:, first.active], atol=1e-10)

    def test_singular_gram_suggests_ridge(self):
        # duplicated columns make the per-step Gram exactly singular
        rng = np.random.default_rng(1)
        col = rng.standard_normal((3, 8, 1))
        blocks = np.concatenate([col, col], axis=2)
        target = col[:, :, 0] * 2.0
        system = normalize_columns(blocks, target, ("a", "b"), "time", np.arange(3.0))
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            sgtr(system, SgtrConfig(threshold=0.01, ridge=0.0))

    def test_single_true_group_selected(self):
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((3, 10, 4))
        target = 3.0 * blocks[:, :, 2]
        system = normalize_columns(blocks, target, ("a", "b", "c", "d"), "time", np.arange(3.0))
        assert sgtr(system, SgtrConfig(threshold=0.05)).selected == ("c",)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgtrConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SgtrConfig(threshold=0.1, ridge=-1.0)
        for value in ("nan", "inf"):
            with pytest.raises(ValueError,
                               match=f"threshold must be positive and finite, got {value}"):
                SgtrConfig(threshold=float(value))
            with pytest.raises(ValueError,
                               match=f"ridge penalty must be nonnegative and finite, got {value}"):
                SgtrConfig(threshold=0.1, ridge=float(value))


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
    def test_polished_start_is_accepted(self, seed):
        rng = np.random.default_rng(seed)
        system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=10, n_groups=5)
        lam = 0.3 * group_lasso_null_threshold(system)
        gram, cty = system.gram(), system.design_target()
        beta, iterations, start = baselines._admm_start(gram, system.gram_eigh(), cty, lam)
        assert start == "polished" and iterations < baselines.ADMM_MAX_ITERATIONS
        assert baselines._kkt_residual(gram, cty, beta, lam) <= baselines.ADMM_RTOL
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=1e-8))
        assert result.start == "polished" and result.converged and result.n_sweeps == 1
        np.testing.assert_array_equal(result.trajectories.active, np.any(beta != 0.0, axis=0))

    @pytest.mark.parametrize("seed", range(4))
    def test_admm_start_when_no_polish_is_accepted(self, seed, monkeypatch):
        # with every polish refused, ADMM runs to its own stopping rule and block descent
        # starts from its iterate
        monkeypatch.setattr(baselines, "_polish", lambda gram, cty, z, lam: None)
        rng = np.random.default_rng(seed)
        system, _, _ = random_grouped_system(rng)
        lam = 0.3 * group_lasso_null_threshold(system)
        tol = 1e-8
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol))
        assert result.start == "admm" and result.converged and result.n_sweeps <= 5
        assert result.admm_iterations < baselines.ADMM_MAX_ITERATIONS
        assert result.kkt_residual <= 1e-9
        assert_group_lasso_kkt(system, result.beta_normalized, lam, tol)

    def test_kkt_residual_matches_the_residual_form(self):
        # the products form X^T y - Gram beta against the residual form X^T (y - X beta)
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=10, n_groups=5)
        beta = rng.standard_normal((4, 5))
        beta[:, 2] = 0.0
        lam = 0.3 * group_lasso_null_threshold(system)
        grad = np.einsum("mng,mn->mg", system.blocks, system.target - system.matvec(beta))
        norms = np.linalg.norm(beta, axis=0)
        expected = max(
            max(np.linalg.norm(grad[:, g] - lam * beta[:, g] / norms[g]) for g in (0, 1, 3, 4)),
            max(np.linalg.norm(grad[:, 2]) - lam, 0.0),
        ) / lam
        kkt = baselines._kkt_residual(system.gram(), system.design_target(), beta, lam)
        assert kkt == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_block_descent_from_zero(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=10, n_groups=5)
        config = GroupLassoConfig(lam=0.3 * group_lasso_null_threshold(system), tolerance=1e-8)
        result = group_lasso(system, config)
        monkeypatch.setattr(baselines, "_admm_start", zero_start)
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
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol))
        assert result.converged and result.n_sweeps <= 200
        assert result.admm_iterations < baselines.ADMM_MAX_ITERATIONS
        assert_group_lasso_kkt(system, result.beta_normalized, lam, tol)
        assert np.all(np.diff(result.objective_history) <= 1e-9)

    def test_stalled_admm_start_falls_back_to_zero(self):
        # group 1 is zero at the optimum but 1e-3 collinear with group 0: ADMM
        # stalls after 18 iterations, and descent from its last iterate would not
        # converge in 100,000 sweeps; from zero it needs 10
        system = collinear_system(21, collinearity=1e-3, second_weight=0.0)
        lam = 0.01 * group_lasso_null_threshold(system)
        tol = 1e-8
        result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol))
        assert result.admm_iterations == 18 + baselines.ADMM_STALL_ITERATIONS
        assert result.admm_iterations < baselines.ADMM_MAX_ITERATIONS // 4
        assert result.start == "zero" and result.converged and result.n_sweeps <= 200
        assert result.trajectories.selected == ("g0", "g3")
        assert_group_lasso_kkt(system, result.beta_normalized, lam, tol)

    def test_nonconvergence_warns(self, monkeypatch):
        # from the polished start two sweeps meet even 1e-14, so descend from zero
        rng = np.random.default_rng(9)
        system, _, _ = random_grouped_system(rng)
        monkeypatch.setattr(baselines, "_admm_start", zero_start)
        monkeypatch.setattr(baselines, "MAX_SWEEPS", 2)
        with pytest.warns(RuntimeWarning, match="^group lasso did not converge in 2 sweeps$"):
            result = group_lasso(system, GroupLassoConfig(lam=0.01, tolerance=1e-14))
        assert not result.converged and result.n_sweeps == 2
        assert len(result.objective_history) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GroupLassoConfig(lam=0.0)
        with pytest.raises(ValueError):
            GroupLassoConfig(lam=1.0, tolerance=0.0)
        for value in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"lam must be positive and finite, got {value}"):
                GroupLassoConfig(lam=float(value))
            with pytest.raises(ValueError,
                               match=f"tolerance must be positive and finite, got {value}"):
                GroupLassoConfig(lam=1.0, tolerance=float(value))


def test_solvers_refuse_an_unset_parameter():
    system, _, _ = random_grouped_system(np.random.default_rng(0))
    with pytest.raises(ValueError, match="^sgtr needs a threshold: selection.fit chooses"):
        sgtr(system, SgtrConfig())
    with pytest.raises(ValueError, match="^group_lasso needs a penalty lam: selection.fit chooses"):
        group_lasso(system, GroupLassoConfig())


class TestBaselinesOnCleanBurgers:
    """Loss-selected baseline models on the clean benchmark dataset."""

    def test_sgtr_selects_true_pair(self, burgers_system):
        report = fit(burgers_system, SgtrConfig())
        assert set(report.selected) == {"u*u_x", "u_xx"}

    def test_group_lasso_keeps_near_zero_spurious_groups(self, burgers_system):
        report = fit(burgers_system, GroupLassoConfig())
        selected = set(report.selected)
        assert {"u*u_x", "u_xx"} <= selected
        spurious = selected - {"u*u_x", "u_xx"}
        assert spurious  # fails to exclude everything
        traj = report.trajectories
        m = burgers_system.n_steps
        for name in spurious:
            rms = np.linalg.norm(traj.group(name)) / np.sqrt(m)
            assert rms < 0.01  # constantly close to zero


class TestKsLambdaPath:
    """The default lambda path on KS 0.01% (noise seed 2), the `baselines` benchmark cell."""

    # every point's selected terms and the loss argmin, as ADMM without polishing found them
    ALL_TERMS = ("1", "u", "u^2", "u^3", "u_x", "u*u_x", "u^2*u_x", "u^3*u_x", "u_xx", "u*u_xx",
                 "u^2*u_xx", "u^3*u_xx", "u_xxx", "u*u_xxx", "u^2*u_xxx", "u^3*u_xxx", "u_xxxx",
                 "u*u_xxxx", "u^2*u_xxxx", "u^3*u_xxxx")
    SELECTED = 8 * [ALL_TERMS] + 2 * [
        ("1", "u", "u^2", "u^3", "u_x", "u*u_x", "u^2*u_x", "u^3*u_x", "u_xx", "u*u_xx",
         "u^3*u_xx", "u_xxx", "u*u_xxx", "u^2*u_xxx", "u^3*u_xxx", "u_xxxx", "u*u_xxxx",
         "u^2*u_xxxx", "u^3*u_xxxx"),
    ] + 2 * [
        ("1", "u", "u^2", "u^3", "u_x", "u*u_x", "u^2*u_x", "u^3*u_x", "u_xx", "u*u_xx",
         "u_xxx", "u*u_xxx", "u^2*u_xxx", "u^3*u_xxx", "u_xxxx", "u*u_xxxx", "u^2*u_xxxx",
         "u^3*u_xxxx"),
    ] + [
        ("1", "u", "u^2", "u^3", "u_x", "u*u_x", "u^3*u_x", "u_xx", "u_xxx", "u*u_xxx",
         "u^2*u_xxx", "u^3*u_xxx", "u_xxxx", "u*u_xxxx", "u^2*u_xxxx", "u^3*u_xxxx"),
        ("1", "u", "u^2", "u_x", "u*u_x", "u_xx", "u*u_xx", "u_xxx", "u*u_xxx", "u^2*u_xxx",
         "u^3*u_xxx", "u_xxxx", "u*u_xxxx"),
        ("1", "u", "u_x", "u*u_x", "u^2*u_x", "u_xx", "u^2*u_xx", "u*u_xxx", "u_xxxx"),
        ("1", "u", "u_x", "u*u_x", "u^2*u_x", "u_xx", "u^2*u_xx", "u_xxxx"),
        ("u", "u_x", "u*u_x", "u^3*u_x", "u_xxxx"),
        ("u_x", "u*u_x", "u^3*u_x", "u_xxxx"),
        ("u_x", "u*u_x"),
        ("u*u_x",),
    ]
    LOSS_ARGMIN = 0  # index into the grid: the smallest penalty
    # ADMM without polishing took 11,164 iterations over this path
    MAX_ADMM_ITERATIONS = 4000

    def test_path_selects_the_same_terms_in_fewer_admm_iterations(self, ks_clean):
        from vcpde.pipeline import build_system, noisy_dataset
        from vcpde.selection import default_grid, sweep

        system = build_system(noisy_dataset(ks_clean, 0.0001, seed=2))
        grid = default_grid("lambda", system)
        curve = sweep(system, "lambda", grid, GroupLassoConfig())
        assert [p.error for p in curve.points] == [None] * 20
        assert [p.selected for p in curve.points] == self.SELECTED
        assert curve.argmin["loss"] == grid[self.LOSS_ARGMIN]
        hypers = [p.report.hyperparameters for p in curve.points]
        assert all(h["converged"] and h["sweeps"] == 1 for h in hypers)
        assert sum(h["admm_iterations"] for h in hypers) <= self.MAX_ADMM_ITERATIONS

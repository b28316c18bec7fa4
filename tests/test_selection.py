import re
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from vcpde import baselines, criteria, pool, selection, tbglss
from vcpde.baselines import GroupLassoConfig, SgtrConfig, group_lasso, group_lasso_null_threshold
from vcpde.criteria import aic_loss, coefficient_mse, total_error_bar
from vcpde.dataio import save_sweep
from vcpde.gibbs import BglssConfig
from vcpde.library import CoefficientTrajectories, normalize_columns
from vcpde.pipeline import build_system, noisy_dataset
from vcpde.selection import SWEEP_AXES, SelectionCurve, default_grid, fit, sweep
from vcpde.tbglss import TbglssConfig, ThresholdSpec, run_tbglss

from conftest import random_grouped_system
from helpers import lstsq_trajectories, report_json, subsystem


def perfect_fit_system(seed=0, n_steps=3, n_rows=8, n_groups=4):
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((n_steps, n_rows, n_groups))
    beta = np.zeros((n_steps, n_groups))
    beta[:, 2] = 1.7
    target = np.einsum("mng,mg->mn", blocks, beta)
    system = normalize_columns(blocks, target, tuple("abcd"), "time", np.arange(float(n_steps)))
    return system, beta * system.scales  # normalized-scale coefficients


class TestAicLoss:
    def test_perfect_fit_floor(self):
        system, beta_norm = perfect_fit_system()
        n_obs = system.n_observations
        loss = aic_loss(system, beta_norm, k=0)
        assert loss == pytest.approx(n_obs * np.log(criteria.EPSILON), rel=1e-9)

    def test_k_additivity(self):
        system, beta_norm = perfect_fit_system()
        m = system.n_steps
        base = aic_loss(system, beta_norm, k=m)
        bigger = aic_loss(system, beta_norm, k=2 * m)
        assert bigger - base == pytest.approx(2 * m)

    def test_imperfect_fit_value(self):
        system, beta_norm = perfect_fit_system(seed=3)
        beta = 0.5 * beta_norm
        n_obs = system.n_observations
        rss = system.residual_norm_sq(beta) / float((system.target**2).sum())
        expected = n_obs * np.log(rss / n_obs + criteria.EPSILON)
        assert aic_loss(system, beta, k=0) == pytest.approx(expected, rel=1e-12)

    def test_true_support_beats_supersets_on_clean_burgers(self, burgers_system, library20):
        m = burgers_system.n_steps
        true_idx = [library20.descriptors.index(n) for n in ("u*u_x", "u_xx")]
        losses = {}
        for extra in (None, "u", "u_xxx", "u^2*u_xx"):
            idx = list(true_idx)
            if extra is not None:
                idx.append(library20.descriptors.index(extra))
            sub = subsystem(burgers_system, np.array(sorted(idx)))
            beta_sub = lstsq_trajectories(sub)
            beta = np.zeros((m, burgers_system.n_groups))
            beta[:, sorted(idx)] = beta_sub
            losses[extra] = aic_loss(burgers_system, beta, k=len(idx) * m)
        assert all(losses[None] < v for k, v in losses.items() if k is not None)

    def test_beta_of_another_shape_rejected(self):
        system, beta_norm = perfect_fit_system()
        with pytest.raises(ValueError, match="^beta shape does not match the system$"):
            aic_loss(system, beta_norm[:, :-1], k=0)


class TestTotalErrorBar:
    def test_empty_model_zero(self):
        assert total_error_bar(np.zeros((4, 3)), np.ones((4, 3))) == 0.0

    def test_two_groups_additivity(self):
        beta = np.ones((2, 2))
        s2 = np.full((2, 2), 0.02)
        assert total_error_bar(beta, s2) == pytest.approx(0.04)

    def test_disjoint_additivity(self):
        # zeroed columns leave a group out of the sum
        rng = np.random.default_rng(0)
        beta = rng.standard_normal((3, 4))
        s2 = rng.random((3, 4))
        left, right = beta.copy(), beta.copy()
        left[:, 2:] = 0.0
        right[:, :2] = 0.0
        assert total_error_bar(beta, s2) == pytest.approx(
            total_error_bar(left, s2) + total_error_bar(right, s2))

    def test_variances_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="^beta and s2 shapes differ$"):
            total_error_bar(np.ones((4, 3)), np.ones((4, 2)))


def make_trajectories(values, coords=None):
    values = np.asarray(values, dtype=float)
    active = ~np.all(values == 0.0, axis=0)
    coords = np.arange(float(values.shape[0])) if coords is None else coords
    return CoefficientTrajectories(values, active,
                                   tuple(f"g{i}" for i in range(values.shape[1])), coords, "time")


class TestCoefficientMse:
    def test_identical_zero(self):
        est = make_trajectories([[1.0, 0.0], [2.0, 0.0]])
        truth = make_trajectories([[1.0, 0.0], [2.0, 0.0]])
        assert coefficient_mse(est, truth) == 0.0

    def test_includes_absent_terms(self):
        est = make_trajectories([[1.0, 0.0], [1.0, 0.0]])
        truth = make_trajectories([[0.0, 1.0], [0.0, 1.0]])
        assert coefficient_mse(est, truth) == pytest.approx(1.0)

    def test_symmetry(self):
        a = [[1.0, 0.5], [2.0, 0.0]]
        b = [[0.5, 1.0], [0.0, 2.0]]
        forward = coefficient_mse(make_trajectories(a), make_trajectories(b))
        backward = coefficient_mse(make_trajectories(b), make_trajectories(a))
        assert forward == pytest.approx(backward)

    def test_grid_mismatch_rejected(self):
        est = make_trajectories([[1.0], [2.0]], coords=np.array([0.0, 1.0]))
        truth = make_trajectories([[1.0], [2.0]], coords=np.array([0.0, 2.0]))
        with pytest.raises(ValueError, match="grids"):
            coefficient_mse(est, truth)

    def test_library_mismatch_rejected(self):
        est = make_trajectories([[1.0, 0.0], [2.0, 0.0]])
        truth = replace(est, descriptors=("g0", "other"))
        with pytest.raises(ValueError, match="^term libraries differ between estimate and truth$"):
            coefficient_mse(est, truth)


class TestFit:
    @pytest.mark.parametrize("axis, config", [("sgtr_threshold", SgtrConfig()),
                                              ("lambda", GroupLassoConfig())],
                             ids=["sgtr", "group_lasso"])
    def test_baseline_parameter_left_unset_is_chosen_on_its_grid(self, axis, config):
        system, _ = perfect_fit_system(seed=10)
        curve = sweep(system, axis, default_grid(axis, system), config)
        chosen = curve.point_at(curve.argmin["loss"]).report
        report = fit(system, config)
        assert report.provenance == {**chosen.provenance,
                                     "selected_by": f"lowest loss over {axis} grid"}
        assert report_json(replace(report, provenance=chosen.provenance)) == report_json(chosen)
        assert report.beta_normalized.tobytes() == chosen.beta_normalized.tobytes()

    def test_loss_counts_active_groups_times_steps(self):
        system, _ = perfect_fit_system(seed=11)
        report = fit(system, SgtrConfig(threshold=0.01))
        assert report.selected == ("c",)
        beta = report.trajectories.values * system.scales
        assert report.loss == aic_loss(system, beta, system.n_steps)

    def test_tbglss_loss_scores_the_normalized_median(self):
        rng = np.random.default_rng(12)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        report = fit(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=0)))
        k = len(report.selected) * system.n_steps
        assert report.selected
        assert report.loss == aic_loss(system, report.beta_normalized, k)

    def test_tbglss_fit_keeping_no_group_scores_the_zero_fit(self):
        rng = np.random.default_rng(12)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        report = fit(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=1e6),
            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=0)))
        assert report.empty_model and report.unscored is None
        assert report.loss == aic_loss(system, np.zeros((system.n_steps, system.n_groups)), 0)
        assert report.total_error_bar is None

    def test_group_lasso_report_certifies_the_fit(self):
        rng = np.random.default_rng(13)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        lam = 0.3 * group_lasso_null_threshold(system)
        hyper = fit(system, GroupLassoConfig(lam=lam)).hyperparameters
        assert hyper["converged"] and hyper["admm_iterations"] >= 1
        assert hyper["start"] == "polished"
        assert 0.0 <= hyper["kkt_residual"] <= 10 * GroupLassoConfig(lam=lam).tolerance / lam

    def test_unconverged_lasso_fit_is_reported_unscored(self, monkeypatch):
        def unconverged(system, config):
            return replace(group_lasso(system, config), converged=False,
                           n_sweeps=baselines.MAX_SWEEPS)

        monkeypatch.setattr(selection, "group_lasso", unconverged)
        rng = np.random.default_rng(13)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        lam = 0.3 * group_lasso_null_threshold(system)
        report = fit(system, GroupLassoConfig(lam=lam))
        assert report.selected and report.hyperparameters["converged"] is False
        assert report.loss is None
        assert report.unscored == "NotConverged: group lasso did not converge in 10000 sweeps"


class TestSweep:
    def test_single_point_grid(self):
        rng = np.random.default_rng(1)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        base = TbglssConfig(thresholds=ThresholdSpec(t_ge=0.5),
                            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=0))
        curve = sweep(system, "t_rms", np.array([0.05]), base)
        assert len(curve.points) == 1
        assert curve.argmin["loss"] == 0.05

    def test_constant_support_loss_varies_only_with_fit(self):
        rng = np.random.default_rng(2)
        system, _, active_truth = random_grouped_system(rng, n_rows=24)
        grid = np.array([0.02, 0.05])  # both below every true group's scale
        base = TbglssConfig(thresholds=ThresholdSpec(t_ge=10.0),
                            bglss=BglssConfig(n_iterations=200, n_burnin=60, lam=1.0, seed=1))
        curve = sweep(system, "t_rms", grid, base)
        supports = {p.selected for p in curve.points}
        assert len(supports) == 1

    def test_axis_method_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        system, _, _ = random_grouped_system(rng)
        with pytest.raises(ValueError, match="group_lasso"):
            sweep(system, "lambda", np.array([0.5, 1.0]),
                  TbglssConfig(thresholds=ThresholdSpec(t_rms=0.1)))

    @pytest.mark.parametrize("field", ["with_ci", "keep_final_ensemble"])
    def test_a_config_asking_for_draws_is_rejected_by_name(self, monkeypatch, field):
        system, _, _ = random_grouped_system(np.random.default_rng(3))
        monkeypatch.setattr(tbglss, "sample_posterior", None)  # rejected before any chain
        base = TbglssConfig(thresholds=ThresholdSpec(t_rms=0.1), **{field: True})
        with pytest.raises(ValueError, match=f"^a sweep keeps no posterior draws: set {field} "):
            sweep(system, "t_ge", np.array([0.1, 0.2]), base)

    def test_point_failures_recorded_not_fatal(self):
        # duplicated columns + zero ridge make every sgtr point singular
        rng = np.random.default_rng(3)
        col = rng.standard_normal((3, 8, 1))
        blocks = np.concatenate([col, col], axis=2)
        system = normalize_columns(blocks, col[:, :, 0] * 2.0, ("a", "b"), "time",
                                   np.arange(3.0))
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 0.1]),
                      SgtrConfig(ridge=0.0))
        assert all(p.error is not None for p in curve.points)
        assert curve.argmin == {}

    def test_undocumented_point_error_propagates(self, monkeypatch, pooled):
        # an SGTR grid runs here, a lambda path's points on two workers
        def broken(*args):
            raise KeyError("a fault, not a documented point failure")

        monkeypatch.setattr(selection, "sgtr", broken)
        monkeypatch.setattr(selection, "group_lasso", broken)
        system, _ = perfect_fit_system(seed=8)
        with pytest.raises(KeyError, match="a fault"):
            sweep(system, "sgtr_threshold", np.array([0.01, 0.1]), SgtrConfig())
        with pytest.raises(KeyError, match="a fault") as raised:
            sweep(system, "lambda", default_grid("lambda", system)[::10],
                  GroupLassoConfig())
        assert "raised in a worker process" in raised.value.__notes__[-1]

    def test_unconverged_lasso_point_is_flagged_not_chosen(self, monkeypatch):
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        grid = default_grid("lambda", system)[::4]
        base = GroupLassoConfig()
        chosen = sweep(system, "lambda", grid, base).argmin["loss"]

        def unconverged_at_chosen(system, config):
            result = group_lasso(system, config)
            if config.lam != chosen:
                return result
            return replace(result, converged=False, n_sweeps=baselines.MAX_SWEEPS)

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
        base = TbglssConfig(thresholds=ThresholdSpec(t_rms=1e6),
                            bglss=BglssConfig(n_iterations=120, n_burnin=30, lam=1.0, seed=0))
        point = sweep(system, "t_rms", np.array([1e6]), base).points[0]
        assert point.selected == ()
        zero_fit = aic_loss(system, np.zeros((system.n_steps, system.n_groups)), 0)
        assert point.loss == point.report.loss == zero_fit
        assert point.total_error_bar is None and point.error is None

    def test_a_grid_reaching_the_empty_model_never_chooses_it(self, tmp_path):
        rng = np.random.default_rng(5)
        system, beta_true, _ = random_grouped_system(rng, n_rows=24)
        base = TbglssConfig(thresholds=ThresholdSpec(t_rms=0.05),
                            bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=0))
        curve = sweep(system, "t_rms", np.array([0.05, 1e6]), base,
                      truth=make_trajectories(beta_true))
        kept, empty = curve.points
        assert kept.selected and empty.selected == ()
        assert empty.total_error_bar is None and empty.loss is not None
        assert set(curve.argmin) == {"loss", "total_error_bar", "coefficient_mse"}
        assert set(curve.argmin.values()) == {0.05}
        save_sweep(curve, tmp_path / "curve")
        empty_row = (tmp_path / "curve.csv").read_text().splitlines()[2].split(",")
        assert empty_row[2] == "" and empty_row[1] == repr(empty.loss)

    def test_lambda_sweep_records_loss(self):
        rng = np.random.default_rng(4)
        system, _, _ = random_grouped_system(rng, n_rows=16)
        grid = default_grid("lambda", system)[::5]
        curve = sweep(system, "lambda", grid, GroupLassoConfig())
        ok = [p for p in curve.points if p.error is None]
        assert ok and all(p.loss is not None for p in ok)
        assert all(p.total_error_bar is None for p in ok)

    def test_lambda_path_decomposes_the_gram_once(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 1)
        system, _, _ = random_grouped_system(np.random.default_rng(4), n_rows=16)
        base = GroupLassoConfig()
        eigh, decomposed = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: decomposed.append(a.shape) or eigh(a))
        curve = sweep(system, "lambda", default_grid("lambda", system), base)
        assert len(curve.points) == 20 and decomposed == [system.gram().shape]
        for point in curve.points:
            alone = fit(replace(system), replace(base, lam=point.value))  # a fresh cache
            assert point.error == alone.unscored
            if point.report is not None:
                assert report_json(point.report) == report_json(alone)
                assert point.report.beta_normalized.tobytes() == alone.beta_normalized.tobytes()
        assert len(decomposed) == 21

    def test_sgtr_threshold_sweep(self):
        system, beta_norm = perfect_fit_system(seed=5)
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 1e6]), SgtrConfig())
        assert curve.points[0].selected == ("c",)
        assert curve.points[1].selected == ()

    def test_grid_must_increase(self):
        rng = np.random.default_rng(6)
        system, _, _ = random_grouped_system(rng)
        with pytest.raises(ValueError):
            sweep(system, "t_rms", np.array([0.2, 0.1]),
                  TbglssConfig(thresholds=ThresholdSpec(t_ge=0.5)))

    @pytest.mark.parametrize("grid", [[np.nan, 0.1], [0.1, np.inf], [np.nan] * 3, [-np.inf, 0.1]])
    def test_grid_must_be_finite(self, grid):
        system, _ = perfect_fit_system(seed=6)
        with pytest.raises(ValueError, match="must be finite"):
            sweep(system, "sgtr_threshold", np.array(grid), SgtrConfig())

    @pytest.mark.parametrize("axis,grid,message", [
        ("sgtr_threshold", [], "sweep grid must be nonempty"),
        ("threshold", [0.1, 0.2], f"axis must be one of {SWEEP_AXES}"),
    ], ids=["empty-grid", "unknown-axis"])
    def test_grid_and_axis_rejected(self, axis, grid, message):
        system, _ = perfect_fit_system(seed=6)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(system, axis, np.array(grid), SgtrConfig())

    # each axis's default grid: its size and ends, lambda's times the system's null threshold
    DEFAULT_GRIDS = {"t_rms": (20, 1e-3, 1.0), "t_ge": (11, 0.02, 0.22),
                     "lambda": (20, 1e-4, 1.0), "sgtr_threshold": (20, 1e-3, 1.0)}

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_default_grid(self, axis):
        size, low, high = self.DEFAULT_GRIDS[axis]
        system, _ = perfect_fit_system(seed=6)
        grid = default_grid(axis, system)
        scale = group_lasso_null_threshold(system) if axis == "lambda" else 1.0
        assert grid.size == size and np.all(np.diff(grid) > 0)
        assert (grid[0], grid[-1]) == pytest.approx((low * scale, high * scale), rel=1e-12)
        if axis != "lambda":
            assert default_grid(axis).tolist() == grid.tolist()  # needs no system

    @pytest.mark.parametrize("axis,message", [
        ("lambda", "lambda grid needs the system for its null threshold"),
        ("threshold", "unknown axis 'threshold'"),
    ])
    def test_default_grid_rejections(self, axis, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_grid(axis)

    def test_point_at_a_value_off_the_curve_raises(self):
        system, _ = perfect_fit_system(seed=7)
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 0.5]), SgtrConfig())
        with pytest.raises(KeyError, match="no sweep point at 0.2"):
            curve.point_at(0.2)

    @pytest.mark.parametrize("axis,grid,base,message", [
        ("sgtr_threshold", [0.0, 0.1], SgtrConfig(),
         "threshold must be positive and finite, got 0.0"),
        ("lambda", [0.0, 0.1], GroupLassoConfig(), "lam must be positive and finite, got 0.0"),
        ("t_rms", [-0.1, 0.1], TbglssConfig(thresholds=ThresholdSpec(t_ge=0.1)),
         "t_rms must be nonnegative and finite, got -0.1"),
    ], ids=["sgtr", "lambda", "t_rms"])
    def test_a_value_its_config_rejects_raises_before_any_fit(self, monkeypatch, axis, grid,
                                                              base, message):
        for module, name in ((selection, "sgtr"), (selection, "group_lasso"),
                             (tbglss, "sample_posterior")):
            monkeypatch.setattr(module, name, None)  # a fit would raise TypeError
        system, _ = perfect_fit_system(seed=6)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(system, axis, np.array(grid), base)

    def test_csv_and_json_outputs(self, tmp_path):
        system, _ = perfect_fit_system(seed=7)
        curve = sweep(system, "sgtr_threshold", np.array([0.01, 0.5]), SgtrConfig())
        save_sweep(curve, tmp_path / "curve")
        text = (tmp_path / "curve.csv").read_text()
        assert "sgtr_threshold" in text.splitlines()[0]
        assert (tmp_path / "curve.json").exists()


@pytest.fixture(scope="module")
def burgers_one_percent(small_burgers_clean):
    return build_system(noisy_dataset(small_burgers_clean, 0.01, seed=3))


@pytest.fixture
def pooled(monkeypatch):
    """Drives of two or more loops use two worker processes, however many CPUs this machine
    has; one of one loop, like `run_tbglss`, runs here."""
    monkeypatch.setattr(pool, "worker_count", lambda n_tasks: min(2, n_tasks))


@pytest.fixture
def sampled(monkeypatch, pooled):
    """The key of each task `pool.drive` submits, in order: a chain run here by a standalone
    run, or dispatched to a worker by a sweep."""
    keys, submit = [], pool.Workers.submit
    monkeypatch.setattr(pool.Workers, "submit",
                        lambda workers, key: keys.append(key) or submit(workers, key))
    return keys


class TestSweepSharesChains:
    """A sweep samples each distinct chain once; every point still reports what `fit` reports."""

    BASE = TbglssConfig(thresholds=ThresholdSpec(t_rms=0.01, t_ge=0.1),
                        bglss=BglssConfig(n_iterations=300, n_burnin=100, seed=4),
                        update_iterations=120, update_burnin=40)

    @pytest.mark.parametrize("axis,grid,base", [
        ("t_ge", np.linspace(0.02, 0.22, 6), BASE),
        ("t_rms", np.logspace(-3, 0, 6), BASE),
        ("t_ge", np.linspace(0.02, 0.22, 4), replace(BASE, final_chains=2)),
        ("sgtr_threshold", default_grid("sgtr_threshold"), SgtrConfig()),
    ], ids=["t_ge", "t_rms", "t_ge-two-chains", "sgtr"])
    def test_every_point_matches_a_standalone_fit(self, burgers_one_percent, sampled,
                                                  axis, grid, base):
        curve = sweep(burgers_one_percent, axis, grid, base)
        shared = len(sampled)
        sampled.clear()
        supports = set()
        tbglss_base = isinstance(base, TbglssConfig)
        for point in curve.points:
            alone = fit(burgers_one_percent,
                        selection._point_config(base, axis, point.value) if tbglss_base
                        else replace(base, threshold=point.value))
            assert report_json(point.report) == report_json(alone)
            supports.add(point.selected)
        assert len(supports) > 1  # the grid crosses support changes
        if tbglss_base:
            assert len(set(sampled)) == shared < len(sampled)

    def test_sgtr_grid_fits_each_active_set_and_scores_each_support_once(
            self, burgers_one_percent, monkeypatch):
        fitted, scored = [], []
        ridge_fit, loss = baselines._ridge_fit, selection.aic_loss

        def counted_fit(system, active, ridge):
            fitted.append((tuple(active.tolist()), ridge))
            return ridge_fit(system, active, ridge)

        def counted_loss(system, beta, k):
            scored.append(tuple(np.flatnonzero(beta.any(axis=0)).tolist()))
            return loss(system, beta, k)

        monkeypatch.setattr(baselines, "_ridge_fit", counted_fit)
        monkeypatch.setattr(selection, "aic_loss", counted_loss)
        system = burgers_one_percent
        curve = sweep(system, "sgtr_threshold", default_grid("sgtr_threshold"),
                      SgtrConfig())
        full = (tuple(range(system.n_groups)), SgtrConfig.ridge)
        assert fitted[0] == full and len(fitted) == len(set(fitted))
        supports = {tuple(np.flatnonzero(p.report.trajectories.active).tolist())
                    for p in curve.points}
        assert sorted(scored) == sorted(supports)
        assert len(curve.points) == 20 and 1 < len(supports) <= len(fitted) < 20

    def test_singular_active_set_fails_each_point_reaching_it(self, monkeypatch):
        system, _ = perfect_fit_system(seed=5)
        fitted, ridge_fit = [], baselines._ridge_fit

        def singular_on_c(system, active, ridge):
            fitted.append(tuple(active.tolist()))
            if fitted[-1] == (2,):
                raise np.linalg.LinAlgError("singular per-step Gram")
            return ridge_fit(system, active, ridge)

        monkeypatch.setattr(baselines, "_ridge_fit", singular_on_c)
        curve = sweep(system, "sgtr_threshold", np.array([1e-12, 0.01, 0.1, 1e6]),
                      SgtrConfig())
        assert [p.error for p in curve.points] == [
            None, "LinAlgError: singular per-step Gram", "LinAlgError: singular per-step Gram",
            None]
        assert [p.selected for p in curve.points] == [("a", "b", "c", "d"), (), (), ()]
        assert fitted == [(0, 1, 2, 3), (2,), (2,)]  # a failed fit is tried again, not reused
        assert curve.argmin["loss"] == 1e-12

    def test_runs_sharing_a_memo_keep_same_size_supports_apart(self, burgers_one_percent):
        """Two runs, sharing their chains through the driver, whose first updates remove as
        many groups but not the same ones."""
        system, base = burgers_one_percent, self.BASE
        probe = run_tbglss(system,
                           replace(base, thresholds=ThresholdSpec(t_ge=np.finfo(float).max)))
        crit = probe.update_history[0].criteria
        live = [name for name, c in crit.items() if not c["median_zero"]]
        rms = sorted(crit[name]["rms"] for name in live)
        ge = sorted((crit[name]["group_error_bar"] for name in live), reverse=True)
        k = next(k for k in range(1, len(live))
                 if {n for n in live if crit[n]["rms"] < rms[k]}
                 != {n for n in live if crit[n]["group_error_bar"] > ge[k]})
        configs = [replace(base, thresholds=spec)
                   for spec in (ThresholdSpec(t_rms=(rms[k - 1] + rms[k]) / 2),
                                ThresholdSpec(t_ge=(ge[k - 1] + ge[k]) / 2))]
        shared = pool.drive([tbglss.threshold_loop(system, config) for config in configs],
                            partial(tbglss._chain, system))
        first, second = (r.update_history[0].removed for r in shared)
        assert len(first) == len(second) and set(first) != set(second)
        for config, report in zip(configs, shared):
            assert report_json(report) == report_json(run_tbglss(system, config))

    def test_a_run_never_asks_for_a_key_twice(self, burgers_one_percent, monkeypatch):
        # each chain's seed derives from its update's index, so run_tbglss needs no memo; the
        # keys are those the loop asks for, as `pool.drive` would answer a repeat from its own
        asked, loop = [], tbglss.threshold_loop

        def asking_loop(system, config):
            run = loop(system, config)
            key = next(run)
            while True:
                asked.append(key)
                try:
                    key = run.send((yield key))
                except StopIteration as done:
                    return done.value

        monkeypatch.setattr(tbglss, "threshold_loop", asking_loop)
        report = run_tbglss(burgers_one_percent,
                            replace(self.BASE, final_chains=2, with_ci=True))
        assert report.chain_medians.shape[0] == 2 and report.bootstrap_cis is not None
        assert report.n_updates > 1 and len(asked) == len(set(asked)) > report.n_updates

    def test_back_to_back_sweeps_share_nothing(self, burgers_one_percent, sampled):
        grid = np.linspace(0.02, 0.22, 4)
        first = sweep(burgers_one_percent, "t_ge", grid, self.BASE)
        once = list(sampled)
        second = sweep(burgers_one_percent, "t_ge", grid, self.BASE)
        assert once  # workers finish in any order, so the keys are compared as multisets
        assert Counter(sampled) == Counter(once + once)
        assert [report_json(p.report) for p in first.points] == [
            report_json(p.report) for p in second.points]


def sweep_outputs(curve: SelectionCurve, tmp_path) -> list:
    """Every byte a sweep reports: each point's report, and the curve's CSV and summary."""
    save_sweep(curve, tmp_path / "curve")
    return ([None if p.report is None else report_json(p.report) for p in curve.points]
            + [(tmp_path / name).read_bytes() for name in ("curve.csv", "curve.json")])


class TestParallelSweep:
    """Worker processes change no report, and what a worker raises reaches the parent."""

    BASE = TestSweepSharesChains.BASE

    def test_points_needing_one_key_together_sample_it_once(self, burgers_one_percent, sampled):
        curve = sweep(burgers_one_percent, "t_ge", np.array([0.05, 0.15]), self.BASE)
        full = tuple(range(burgers_one_percent.n_groups))
        assert [p.report.update_history[0].support_before for p in curve.points] == [
            burgers_one_percent.descriptors] * 2
        assert sum(key[0] == full for key in sampled) == 1
        assert set(Counter(sampled).values()) == {1}

    @pytest.mark.parametrize("axis,grid,base", [
        ("t_ge", np.linspace(0.02, 0.22, 5), BASE),
        ("t_ge", np.linspace(0.02, 0.22, 3), replace(BASE, final_chains=2)),
        ("sgtr_threshold", np.logspace(-3, 0, 6), SgtrConfig()),
        ("lambda", None, GroupLassoConfig()),
    ], ids=["t_ge", "t_ge-two-chains", "sgtr", "lambda"])
    def test_inline_and_pooled_sweeps_report_the_same_bytes(self, burgers_one_percent, monkeypatch,
                                                            tmp_path, axis, grid, base):
        system = burgers_one_percent
        grid = default_grid(axis, system)[::4] if grid is None else grid
        curves = {}
        for workers in (1, 2):
            monkeypatch.setattr(pool, "worker_count", lambda n_tasks: min(workers, n_tasks))
            curves[workers] = sweep(system, axis, grid, base)
            (tmp_path / str(workers)).mkdir()
        assert (sweep_outputs(curves[1], tmp_path / "1")
                == sweep_outputs(curves[2], tmp_path / "2"))

    def test_sgtr_runs_open_no_worker_process(self, burgers_one_percent, monkeypatch, pooled):
        # counted as each drive closes its workers, which fork at the first task: an SGTR
        # grid asks for none, and a lone run_tbglss loop samples its chains here
        forked, close = [], pool.Workers.__exit__

        def counted(workers, *fault):
            forked.append(len(workers.processes))
            close(workers, *fault)

        monkeypatch.setattr(pool.Workers, "__exit__", counted)
        system = burgers_one_percent
        run_tbglss(system, self.BASE)
        sweep(system, "sgtr_threshold", default_grid("sgtr_threshold"), SgtrConfig())
        assert fit(system, SgtrConfig()).provenance["selected_by"]
        assert forked == [0, 0, 0]
        sweep(system, "lambda", default_grid("lambda", system)[::10], GroupLassoConfig())
        sweep(system, "t_ge", np.array([0.05, 0.15, 0.25]), self.BASE)
        assert forked == [0, 0, 0, 2, 2]  # min(CPUs, points), on two CPUs

    def test_worker_warnings_are_raised_again_here(self, monkeypatch, pooled):
        # the lambda path's points run on two workers; an SGTR grid runs here
        def warning_lasso(system, config):
            warnings.warn(f"lasso at {config.lam!r}", UserWarning)
            return selection_lasso(system, config)

        def warning_sgtr(system, config, fits=None):
            warnings.warn(f"sgtr at {config.threshold!r}", UserWarning)
            return selection_sgtr(system, config, fits)

        selection_lasso, selection_sgtr = selection.group_lasso, selection.sgtr
        monkeypatch.setattr(selection, "group_lasso", warning_lasso)
        monkeypatch.setattr(selection, "sgtr", warning_sgtr)
        system, _ = perfect_fit_system(seed=5)
        for axis, name, grid, base in (
                ("lambda", "lasso", default_grid("lambda", system)[::5],
                 GroupLassoConfig()),
                ("sgtr_threshold", "sgtr", np.array([0.01, 0.1, 1e6]), SgtrConfig())):
            with pytest.warns(UserWarning, match=f"{name} at") as caught:
                sweep(system, axis, grid, base)
            assert sorted(str(w.message) for w in caught) == sorted(
                f"{name} at {v!r}" for v in grid.tolist())
            assert {w.filename for w in caught} == {__file__}
            message = re.escape(f"{name} at {grid.tolist()[1]!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                warnings.filterwarnings("error", message)
                with pytest.raises(UserWarning, match=message):
                    sweep(system, axis, grid, base)

    def test_worker_point_error_is_recorded_on_its_point(self, monkeypatch, pooled):
        # the lambda path's points run on two workers; an SGTR grid runs here
        system, _ = perfect_fit_system(seed=5)
        lams = default_grid("lambda", system)[::5]

        def singular_lasso_at_one(system, config):
            if config.lam == lams[1]:
                raise np.linalg.LinAlgError("singular per-step Gram")
            return selection_lasso(system, config)

        def singular_sgtr_at_one(system, config, fits=None):
            if config.threshold == 0.1:
                raise np.linalg.LinAlgError("singular per-step Gram")
            return selection_sgtr(system, config, fits)

        selection_lasso, selection_sgtr = selection.group_lasso, selection.sgtr
        monkeypatch.setattr(selection, "group_lasso", singular_lasso_at_one)
        monkeypatch.setattr(selection, "sgtr", singular_sgtr_at_one)
        for axis, grid, base in (("lambda", lams, GroupLassoConfig()),
                                 ("sgtr_threshold", np.array([0.01, 0.1, 1e6]),
                                  SgtrConfig())):
            curve = sweep(system, axis, grid, base)
            errors = [p.error for p in curve.points]
            assert errors[1] == "LinAlgError: singular per-step Gram"
            assert errors[:1] + errors[2:] == [None] * (len(grid) - 1)
            assert curve.points[0].selected == ("c",)

from dataclasses import replace

import numpy as np
import pytest

from vcpde import pool, selection, solvers
from vcpde.baselines import group_lasso
from vcpde.filters import FilterSpec
from vcpde.gibbs import BglssConfig
from vcpde.library import GroupedLinearSystem, normalize_columns
from vcpde.pipeline import (
    DifferentiationSpec,
    MethodConfig,
    build_system,
    discover,
    filter_dataset,
    noisy_dataset,
    simulate_dataset,
    stage_seed,
)
from vcpde.selection import SweepFailedError, default_grid
from vcpde.solvers import burgers_scenario, ks_scenario
from vcpde.tbglss import ThresholdSpec

from conftest import random_grouped_system


@pytest.fixture(scope="module")
def small_noisy_dataset(small_burgers_clean):
    return noisy_dataset(small_burgers_clean, noise_level=0.02, seed=9)


class TestSeeds:
    def test_stage_seeds_distinct_and_stable(self):
        assert stage_seed(1, "noise") == stage_seed(1, "noise")
        assert stage_seed(1, "noise") != stage_seed(1, "gibbs")
        assert stage_seed(1, "noise") != stage_seed(2, "noise")

    def test_simulation_deterministic(self):
        scenario = burgers_scenario(n_x=64, n_t=32)
        a = simulate_dataset(scenario, 0.05, seed=4)
        b = simulate_dataset(scenario, 0.05, seed=4)
        np.testing.assert_array_equal(a.field.values, b.field.values)
        assert a.dataset_id() == b.dataset_id()

    @pytest.mark.parametrize("level", [-0.05, float("nan")])
    def test_noise_level_below_zero_rejected(self, burgers_dataset, level):
        with pytest.raises(ValueError, match="noise level must be nonnegative"):
            noisy_dataset(burgers_dataset, level, seed=1)

    @pytest.mark.parametrize("level", [-0.05, float("nan")])
    def test_bad_noise_level_rejected_before_the_solve(self, monkeypatch, level):
        solved = []
        factory, solver = solvers.FAMILIES["burgers"]
        monkeypatch.setitem(solvers.FAMILIES, "burgers",
                            (factory, lambda scenario: solved.append(scenario) or solver(scenario)))
        with pytest.raises(ValueError, match="noise level must be nonnegative"):
            simulate_dataset(burgers_scenario(n_x=64, n_t=32), level, seed=1)
        assert solved == []


class TestDifferentiationPolicy:
    def test_clean_uses_finite_differences(self):
        spec = DifferentiationSpec().resolve(0.0)
        assert spec.method == "finite_difference"

    def test_tiny_noise_uses_narrow_poly(self):
        spec = DifferentiationSpec().resolve(0.0001)
        assert spec.method == "poly_fit"
        assert spec.prefilter_time is None
        assert spec.space_width == 9

    def test_noisy_tier_prefilters(self):
        spec = DifferentiationSpec().resolve(0.02)
        assert spec.method == "poly_fit"
        assert spec.prefilter_time is not None
        assert spec.space_width > 9

    def test_filtered_data_skips_prefilter(self):
        spec = DifferentiationSpec().resolve(0.05, filtered=True)
        assert spec.prefilter_time is None
        assert spec.space_width == 19

    def test_explicit_method_untouched(self):
        spec = DifferentiationSpec(method="poly_fit", space_width=11).resolve(0.05)
        assert spec.space_width == 11


class TestBuildSystem:
    def test_varying_axis_orientation(self, small_burgers_clean):
        burgers = noisy_dataset(small_burgers_clean, 0.0, seed=0)
        system = build_system(burgers)
        assert system.varying_axis == "time"
        assert system.n_steps == 46  # 48 minus one time trim per side

    def test_ks_retained_window(self):
        scenario = ks_scenario(n_x=64, n_t=64, t_span=(0.0, 40.0), retain_t_from=20.0)
        ds = simulate_dataset(scenario, 0.0, seed=0)
        system = build_system(ds)
        assert system.varying_axis == "space"
        # steps index space; rows are the retained time samples only
        assert np.all(ds.field.t_coords[ds.field.t_coords >= 20.0][:system.n_rows] >= 20.0)
        assert system.n_rows < 40

    def test_filtered_metadata_feeds_policy(self, small_noisy_dataset):
        filtered = filter_dataset(small_noisy_dataset, FilterSpec.of("moving_average", 5))
        system_f = build_system(filtered)
        system_n = build_system(small_noisy_dataset)
        # prefilter tier trims more of the grid than the filtered tier
        assert system_f.n_steps != system_n.n_steps or system_f.n_rows != system_n.n_rows


class TestDiscover:
    def test_tbglss_report_provenance(self, small_noisy_dataset):
        mc = MethodConfig(method="tbglss", thresholds=ThresholdSpec(0.05, 0.5),
                          bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=2),
                          update_iterations=80, update_burnin=20)
        report = discover(small_noisy_dataset, mc)
        assert report.provenance["dataset_id"] == small_noisy_dataset.dataset_id()
        assert report.provenance["dataset"]["family"] == "burgers"
        # noise >= 2% doubles the chains
        assert report.hyperparameters["final_iterations"] == 300
        assert report.hyperparameters["update_iterations"] == 160

    def test_sgtr_auto_selection_records_choice(self, small_noisy_dataset):
        report = discover(small_noisy_dataset, MethodConfig(method="sgtr", thresholds=None))
        assert report.method == "sgtr"
        assert "threshold" in report.hyperparameters
        assert report.loss is not None

    def test_group_lasso_fixed_penalty(self, small_noisy_dataset):
        report = discover(small_noisy_dataset,
                          MethodConfig(method="group_lasso", thresholds=None, lasso_lam=0.5))
        assert report.hyperparameters["lam"] == 0.5

    def test_grid_choice_reuses_the_point_fit(self, small_noisy_dataset, monkeypatch):
        # the points run on two workers: count each fit here and each point dispatched to them
        thresholds = []
        original, submit = selection.sgtr, pool.Workers.submit

        def counted(system, config):
            thresholds.append(config.threshold)
            return original(system, config)

        def dispatched(workers, task):
            (_, config), _ = task
            thresholds.append(config.sgtr_threshold)
            return submit(workers, task)

        monkeypatch.setattr(selection, "sgtr", counted)
        monkeypatch.setattr(pool.Workers, "submit", dispatched)
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 2)
        report = discover(small_noisy_dataset, MethodConfig(method="sgtr"))
        assert len(thresholds) == len(default_grid("sgtr_threshold"))  # no refit
        assert report.hyperparameters["threshold"] in thresholds
        assert report.provenance["selected_by"] == "lowest loss over sgtr_threshold grid"

    def test_every_grid_point_failing_raises_typed_error(self, small_noisy_dataset):
        # duplicated columns + zero ridge make every sgtr point singular
        col = np.random.default_rng(3).standard_normal((3, 8, 1))
        system = normalize_columns(GroupedLinearSystem(
            np.concatenate([col, col], axis=2), col[:, :, 0] * 2.0, ("a", "b"), "time",
            np.arange(3.0)))
        with pytest.raises(SweepFailedError, match="LinAlgError"):
            discover(small_noisy_dataset, MethodConfig(method="sgtr", sgtr_ridge=0.0), system=system)

    def test_every_grid_point_unconverged_raises_typed_error(self, small_noisy_dataset, monkeypatch):
        def unconverged(system, config):
            return replace(group_lasso(system, config), converged=False, n_sweeps=config.max_sweeps)

        monkeypatch.setattr(selection, "group_lasso", unconverged)
        system, _, _ = random_grouped_system(np.random.default_rng(4), n_rows=16)
        with pytest.raises(SweepFailedError, match="did not converge in 10000 sweeps"):
            discover(small_noisy_dataset, MethodConfig(method="group_lasso"), system=system)

    def test_supplied_system_records_no_differentiation(self, small_noisy_dataset):
        mc = MethodConfig(method="group_lasso", lasso_lam=0.5)
        supplied = discover(small_noisy_dataset, mc, system=build_system(small_noisy_dataset))
        assert supplied.provenance["differentiation"] is None
        built = discover(small_noisy_dataset, mc)
        assert built.provenance["differentiation"]["method"] == "poly_fit"

    def test_tbglss_requires_thresholds(self):
        with pytest.raises(ValueError):
            MethodConfig(method="tbglss", thresholds=None)

import inspect
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from vcpde import baselines, library, pipeline, pool, selection, solvers
from vcpde.baselines import GroupLassoConfig, SgtrConfig, group_lasso
from vcpde.filters import FilterSpec
from vcpde.gibbs import BglssConfig
from vcpde.library import normalize_columns
from vcpde.pipeline import (
    DifferentiationSpec,
    build_system,
    discover,
    filter_dataset,
    noisy_dataset,
    simulate_dataset,
    stage_seed,
)
from vcpde.selection import SweepFailedError, default_grid
from vcpde.solvers import make_scenario
from vcpde.tbglss import TbglssConfig, ThresholdSpec

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
        scenario = make_scenario("burgers", n_x=64, n_t=32)
        a = noisy_dataset(simulate_dataset(scenario, seed=4), 0.05, seed=4)
        b = noisy_dataset(simulate_dataset(scenario, seed=4), 0.05, seed=4)
        np.testing.assert_array_equal(a.field.values, b.field.values)
        assert a.dataset_id() == b.dataset_id()

    @pytest.mark.parametrize("level", [-0.05, float("nan")])
    def test_noise_level_below_zero_rejected(self, burgers_dataset, level):
        with pytest.raises(ValueError, match="noise level must be nonnegative"):
            noisy_dataset(burgers_dataset, level, seed=1)

    @pytest.mark.parametrize("level", [-0.05, float("nan")])
    def test_bad_noise_level_rejected_before_the_solve(self, monkeypatch, level):
        # noise is added by noisy_dataset alone: simulate_dataset takes no level to spend a
        # solve on
        solved = []
        solver = solvers._solve_etdrk4
        monkeypatch.setattr(solvers, "_solve_etdrk4",
                            lambda scenario: solved.append(scenario) or solver(scenario))
        with pytest.raises(TypeError, match="noise_level"):
            simulate_dataset(make_scenario("burgers", n_x=64, n_t=32), noise_level=level, seed=1)
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

    @pytest.mark.parametrize("noise, filtered, expected", [
        (0.0, False, ("finite_difference", None, None, None, None, None, None)),
        (0.0001, False, ("poly_fit", 9, 4, 5, 3, None, None)),
        (0.01, False, ("poly_fit", 17, 4, 9, 3, (21, 3), (9, 4))),
        (0.05, True, ("poly_fit", 19, 4, 5, 3, None, None)),
    ], ids=["clean", "trace", "smoothing", "filtered"])
    def test_unset_fields_take_the_tier(self, noise, filtered, expected):
        # every field resolved, as the reports have recorded it
        spec = DifferentiationSpec().resolve(noise, filtered)
        assert tuple(vars(spec).values()) == expected
        assert spec.resolve(noise, filtered) == spec

    def test_finite_differences_record_no_poly_fit_setting(self):
        # a finite-difference run reads no width or degree, given with auto or from the defaults
        for spec, noise in ((DifferentiationSpec(method="finite_difference"), 0.01),
                            (DifferentiationSpec(space_width=13, time_degree=2), 0.0)):
            resolved = spec.resolve(noise)
            assert resolved.method == "finite_difference"
            assert (resolved.space_width, resolved.space_degree, resolved.time_width,
                    resolved.time_degree) == (None, None, None, None)

    @pytest.mark.parametrize("name", ["space_width", "space_degree", "time_width",
                                      "time_degree"])
    def test_finite_differences_reject_a_poly_fit_setting(self, name):
        with pytest.raises(ValueError, match=f"^finite differences read no {name}$"):
            DifferentiationSpec(method="finite_difference", **{name: 5})

    def test_finite_differences_keep_a_prefilter(self, small_burgers_clean):
        # the prefilter smooths the field before any differentiation method
        spec = DifferentiationSpec(method="finite_difference", prefilter_time=(9, 3))
        assert spec.resolve(0.0).prefilter_time == (9, 3)
        plain = build_system(small_burgers_clean, diff=replace(spec, prefilter_time=None))
        assert not np.array_equal(build_system(small_burgers_clean, diff=spec).target,
                                  plain.target)

    @pytest.mark.parametrize("noise, filtered", [(0.01, False), (0.05, True)],
                             ids=["smoothing", "filtered"])
    def test_fields_given_with_auto_survive_the_tier(self, noise, filtered):
        tier = DifferentiationSpec().resolve(noise, filtered)
        for given in ({"space_width": 13}, {"space_degree": 3}, {"time_width": 7},
                      {"time_degree": 2}, {"space_width": 13, "time_degree": 2}):
            spec = DifferentiationSpec(**given).resolve(noise, filtered)
            assert spec == replace(tier, **given)
        assert DifferentiationSpec(space_width=13).resolve(0.01).prefilter_time == (21, 3)
        assert DifferentiationSpec(space_width=13).resolve(0.01).prefilter_space == (9, 4)


class TestBuildSystem:
    def test_varying_axis_orientation(self, small_burgers_clean):
        burgers = noisy_dataset(small_burgers_clean, 0.0, seed=0)
        system = build_system(burgers)
        assert system.varying_axis == "time"
        assert system.n_steps == 46  # 48 minus one time trim per side

    def test_ks_retained_window(self):
        scenario = make_scenario("ks", n_x=64, n_t=64, t_span=(0.0, 40.0), retain_t_from=20.0)
        ds = simulate_dataset(scenario, seed=0)
        system = build_system(ds)
        assert system.varying_axis == "space"
        # steps index space; rows are the retained time samples only
        assert np.all(ds.field.t_coords[ds.field.t_coords >= 20.0][:system.n_rows] >= 20.0)
        assert system.n_rows < 40

    @pytest.mark.parametrize("name,axis", [("burgers", "time"), ("ad_prefiltered", "space")])
    def test_target_is_laid_out_like_the_blocks(self, monkeypatch, small_build_datasets, name,
                                                axis):
        # the pointwise u_t (n_x, n_t) is transposed when time varies, so steps index time
        stacks = []

        def recording(*args, **kwargs):
            stacks.append(original(*args, **kwargs))
            return stacks[-1]

        original = pipeline.build_derivative_stack
        monkeypatch.setattr(pipeline, "build_derivative_stack", recording)
        system = build_system(small_build_datasets[name])
        (stack,) = stacks
        assert system.varying_axis == axis and system.target.flags.c_contiguous
        if axis == "time":
            np.testing.assert_array_equal(system.target, stack.u_t.T)
            np.testing.assert_array_equal(system.step_coords, stack.t_coords)
        else:
            np.testing.assert_array_equal(system.target, stack.u_t)
            np.testing.assert_array_equal(system.step_coords, stack.x_coords)

    @pytest.mark.parametrize("name", ["burgers", "ad_prefiltered"])
    def test_build_holds_one_copy_of_the_design(self, small_build_datasets, name):
        # the design is the largest array of a run: the build allocates it once, in its final
        # layout, and normalizes it in place
        tracemalloc.start()
        try:
            system = build_system(small_build_datasets[name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * system.blocks.nbytes

    def test_build_never_calls_the_public_normalize_columns(self, monkeypatch,
                                                            small_build_datasets):
        # normalize_columns copies the blocks; and perfbench's library.system_s adds its spans
        # to assemble_grouped_system's, so a call nested in the build would count twice
        calls = []
        original = library.normalize_columns

        def recording(*args):
            calls.append(args)
            return original(*args)

        for module in (library, pipeline):
            monkeypatch.setattr(module, "normalize_columns", recording, raising=False)
        for dataset in small_build_datasets.values():
            build_system(dataset)
        assert calls == []

    def test_filtered_metadata_feeds_policy(self, small_noisy_dataset):
        filtered = filter_dataset(small_noisy_dataset, FilterSpec.of("moving_average", 5))
        system_f = build_system(filtered)
        system_n = build_system(small_noisy_dataset)
        # prefilter tier trims more of the grid than the filtered tier
        assert system_f.n_steps != system_n.n_steps or system_f.n_rows != system_n.n_rows


class TestDiscover:
    def test_tbglss_report_provenance(self, small_noisy_dataset):
        config = TbglssConfig(thresholds=ThresholdSpec(0.05, 0.5),
                              bglss=BglssConfig(n_iterations=150, n_burnin=40, lam=1.0, seed=2),
                              update_iterations=80, update_burnin=20)
        report = discover(small_noisy_dataset, config)
        assert report.provenance["dataset_id"] == small_noisy_dataset.dataset_id()
        assert report.provenance["dataset"]["family"] == "burgers"
        # noise >= 2% doubles the chains
        assert report.hyperparameters["final_iterations"] == 300
        assert report.hyperparameters["update_iterations"] == 160

    def test_sgtr_auto_selection_records_choice(self, small_noisy_dataset):
        report = discover(small_noisy_dataset, SgtrConfig())
        assert report.method == "sgtr"
        assert "threshold" in report.hyperparameters
        assert report.loss is not None

    def test_group_lasso_fixed_penalty(self, small_noisy_dataset):
        report = discover(small_noisy_dataset, GroupLassoConfig(lam=0.5))
        assert report.hyperparameters["lam"] == 0.5

    def test_grid_choice_reuses_the_point_fit(self, small_noisy_dataset, monkeypatch):
        # SGTR's grid runs here and the lambda path's points on two workers: count each fit
        # here and each point (keyed by its config) dispatched to them
        fitted = {"sgtr": [], "group_lasso": []}
        original_sgtr, original_lasso, submit = selection.sgtr, selection.group_lasso, \
            pool.Workers.submit

        def counted_sgtr(system, config, fits=None):
            fitted["sgtr"].append(config.threshold)
            return original_sgtr(system, config, fits)

        def counted_lasso(system, config):
            fitted["group_lasso"].append(config.lam)
            return original_lasso(system, config)

        def dispatched(workers, config):
            fitted["group_lasso"].append(config.lam)
            return submit(workers, config)

        monkeypatch.setattr(selection, "sgtr", counted_sgtr)
        monkeypatch.setattr(selection, "group_lasso", counted_lasso)
        monkeypatch.setattr(pool.Workers, "submit", dispatched)
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: min(2, n_tasks))
        sgtr_report = discover(small_noisy_dataset, SgtrConfig())
        lasso_report = discover(small_noisy_dataset, GroupLassoConfig())
        assert fitted["sgtr"] == default_grid("sgtr_threshold").tolist()  # here, no refit
        assert sgtr_report.hyperparameters["threshold"] in fitted["sgtr"]
        assert len(fitted["group_lasso"]) == 20  # dispatched, no refit
        assert lasso_report.hyperparameters["lam"] in fitted["group_lasso"]
        for axis, report in (("sgtr_threshold", sgtr_report), ("lambda", lasso_report)):
            assert report.provenance["selected_by"] == f"lowest loss over {axis} grid"

    def test_every_grid_point_failing_raises_typed_error(self):
        # duplicated columns + zero ridge make every sgtr point singular
        col = np.random.default_rng(3).standard_normal((3, 8, 1))
        system = normalize_columns(np.concatenate([col, col], axis=2), col[:, :, 0] * 2.0,
                                   ("a", "b"), "time", np.arange(3.0))
        with pytest.raises(SweepFailedError, match="LinAlgError"):
            selection.fit(system, SgtrConfig(ridge=0.0))

    def test_every_grid_point_unconverged_raises_typed_error(self, monkeypatch):
        def unconverged(system, config):
            return replace(group_lasso(system, config), converged=False,
                           n_sweeps=baselines.MAX_SWEEPS)

        monkeypatch.setattr(selection, "group_lasso", unconverged)
        system, _, _ = random_grouped_system(np.random.default_rng(4), n_rows=16)
        with pytest.raises(SweepFailedError, match="did not converge in 10000 sweeps"):
            selection.fit(system, GroupLassoConfig())

    def test_takes_no_system(self):
        # discover always builds the system it fits from the dataset, so that its report
        # records how the derivatives were made
        assert "system" not in inspect.signature(discover).parameters

    def test_every_method_records_the_resolved_differentiation(self, small_noisy_dataset):
        resolved = asdict(DifferentiationSpec().resolve(small_noisy_dataset.noise_level))
        assert resolved["method"] == "poly_fit"
        configs = (TbglssConfig(thresholds=ThresholdSpec(0.05, 0.5),
                                bglss=BglssConfig(n_iterations=150, n_burnin=40, seed=2),
                                update_iterations=80, update_burnin=20),
                   SgtrConfig(threshold=0.1), GroupLassoConfig(lam=0.5))
        for config in configs:
            assert discover(small_noisy_dataset, config).provenance["differentiation"] == resolved

    def test_tbglss_requires_thresholds(self):
        with pytest.raises(TypeError, match="thresholds"):
            TbglssConfig()

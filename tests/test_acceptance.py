"""Acceptance suite: one test per criterion, each printing a PASS line.

These run the full benchmark scenarios end to end; expect a few minutes.
"""

import math
import time

import numpy as np
import pytest

from vcpde.baselines import GroupLassoConfig, group_lasso, group_lasso_null_threshold
from vcpde.criteria import aic_loss, coefficient_mse, group_error_bar, rms_criterion, total_error_bar
from vcpde.filters import FilterSpec, data_mse, filter_sweep
from vcpde.gibbs import BglssConfig, sample_posterior
from vcpde.library import LibrarySpec, normalize_columns
from vcpde.pipeline import (
    build_system,
    discover,
    filter_dataset,
    noisy_dataset,
)
from vcpde.selection import METHODS, sweep
from vcpde.solvers import true_coefficients
from vcpde.tbglss import TbglssConfig, ThresholdSpec, run_tbglss

from conftest import random_grouped_system
from helpers import reference_chain

LIB = LibrarySpec.standard()


def _rel(estimate, truth):
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def _trajectory_errors(report, truth, names):
    per = {}
    for name in names:
        g = LIB.descriptors.index(name)
        per[name] = _rel(report.trajectories.values[:, g], truth.values[:, g])
    idx = [LIB.descriptors.index(n) for n in names]
    stacked = _rel(report.trajectories.values[:, idx], truth.values[:, idx])
    return per, stacked


class TestCriterion1BurgersClean:
    def test_clean_burgers_recovery(self, burgers_dataset, burgers_scenario_full):
        started = time.time()
        system = build_system(burgers_dataset)
        report = discover(
            burgers_dataset,
            TbglssConfig(thresholds=ThresholdSpec(t_rms=0.02, t_ge=0.1),
                         bglss=BglssConfig(seed=11, lam=1.0)),
        )
        elapsed = time.time() - started
        truth = true_coefficients(burgers_scenario_full, LIB, step_coords=system.step_coords)
        per, _ = _trajectory_errors(report, truth, ("u*u_x", "u_xx"))
        assert set(report.selected) == {"u*u_x", "u_xx"}
        assert per["u*u_x"] <= 0.05
        assert per["u_xx"] <= 0.05
        assert elapsed <= 600.0
        print(f"\n[criterion 1] PASS: selected {report.selected}, "
              f"rel errors u*u_x={per['u*u_x']:.4f} u_xx={per['u_xx']:.4f}")


class TestCriterion2AdvectionDiffusion:
    @pytest.mark.parametrize("noise,seed", [(0.0, 3), (0.01, 0)])
    def test_ad_recovery(self, ad_scenario, ad_clean, noise, seed):
        dataset = noisy_dataset(ad_clean, noise, seed=seed)
        system = build_system(dataset)
        report = discover(
            dataset,
            TbglssConfig(thresholds=ThresholdSpec(t_rms=0.02, t_ge=0.08),
                         bglss=BglssConfig(seed=5, lam=1.0)),
        )
        truth = true_coefficients(ad_scenario, LIB, step_coords=system.step_coords)
        names = ("u", "u_x", "u_xx")
        per, stacked = _trajectory_errors(report, truth, names)
        assert set(report.selected) == set(names)
        # collective phrasing (contrast with criterion 1's explicit per-trajectory
        # bounds): stacked relative L2 over the three named trajectories
        assert stacked <= 0.10
        print(f"\n[criterion 2] PASS (noise {noise:.0%}): support {report.selected}, "
              f"stacked rel={stacked:.4f}, per-trajectory "
              f"{ {k: round(v, 3) for k, v in per.items()} }")


class TestCriterion3RobustnessOrdering:
    def test_two_percent_noise_ten_seeds(self, ad_clean):
        true_support = {"u", "u_x", "u_xx"}
        tbglss_hits = 0
        sgtr_fails = 0
        lasso_fails = 0
        for seed in range(10):
            dataset = noisy_dataset(ad_clean, 0.02, seed=seed)
            report = discover(
                dataset,
                TbglssConfig(thresholds=ThresholdSpec(t_rms=0.01, t_ge=0.08),
                             bglss=BglssConfig(seed=100 + seed, lam=1.0)),
            )
            tbglss_hits += set(report.selected) == true_support
            for method, bump in (("sgtr", 0), ("group_lasso", 0)):
                got = set(discover(dataset, METHODS[method]()).selected)
                failed = ("u_xx" not in got) or bool(got - true_support)
                if method == "sgtr":
                    sgtr_fails += failed
                else:
                    lasso_fails += failed
        assert tbglss_hits >= 7
        assert sgtr_fails >= 5
        assert lasso_fails >= 5
        print(f"\n[criterion 3] PASS: tbglss exact support {tbglss_hits}/10, "
              f"sgtr failures {sgtr_fails}/10, group lasso failures {lasso_fails}/10")


class TestCriterion4KuramotoSivashinsky:
    def test_ks_recovery(self, ks_clean):
        dataset = noisy_dataset(ks_clean, 0.0001, seed=2)
        system = build_system(dataset)
        # discovery sees only the chaotic window t >= 100
        assert system.step_coords.size <= 256 - 4  # steps index space
        assert system.n_rows <= 128
        report = discover(
            dataset,
            TbglssConfig(thresholds=ThresholdSpec(t_rms=0.1, t_ge=0.05),
                         bglss=BglssConfig(seed=7, lam=1.0)),
        )
        assert set(report.selected) == {"u*u_x", "u_xx", "u_xxxx"}
        print(f"\n[criterion 4] PASS: selected {report.selected} from the t>=100 window "
              f"({system.n_rows} retained time rows)")

    def test_ks_one_percent_completes_gracefully(self, ks_clean):
        # at 1% noise no method recovers the stiff equation; the run must
        # still finish and produce a report
        dataset = noisy_dataset(ks_clean, 0.01, seed=2)
        report = discover(
            dataset,
            TbglssConfig(thresholds=ThresholdSpec(t_rms=0.1, t_ge=0.05),
                         bglss=BglssConfig(seed=7, lam=1.0)),
        )
        assert report.to_json()  # serializable report regardless of outcome
        assert set(report.selected) != {"u*u_x", "u_xx", "u_xxxx"}
        print(f"\n[criterion 4 supplement] PASS: 1% noise run completed; selected "
              f"{report.selected or '(none)'} (expected failure, documented)")


FILTER_STUDY_SEEDS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def burgers_5pct(burgers_clean, burgers_dataset):
    noisy = {s: noisy_dataset(burgers_clean, 0.05, seed=s)
             for s in FILTER_STUDY_SEEDS}
    return noisy, burgers_dataset


class TestCriterion5FilterStudy:
    SEEDS = FILTER_STUDY_SEEDS

    def test_noisy_data_mse(self, burgers_5pct):
        noisy, clean = burgers_5pct
        mse = data_mse(noisy[1].field, clean.field)
        assert 8.099e-5 / 1.25 <= mse <= 8.099e-5 * 1.25
        print(f"\n[criterion 5a] PASS: 5% data MSE {mse:.4e} (reported 8.099e-5)")

    def test_filter_parameter_sweeps(self, burgers_5pct):
        noisy, clean = burgers_5pct
        ma = filter_sweep(noisy[1].field, clean.field, "moving_average", range(5, 23, 2))
        assert abs(ma.argmin - 13) <= 2
        assert 7.683e-6 / 1.5 <= ma.min_mse <= 7.683e-6 * 1.5
        sg = filter_sweep(noisy[1].field, clean.field, "savitzky_golay", range(5, 63, 2))
        assert abs(sg.argmin - 37) <= 4
        assert 6.504e-6 / 1.5 <= sg.min_mse <= 6.504e-6 * 1.5
        zp = filter_sweep(noisy[1].field, clean.field, "zero_phase_lowpass",
                          np.arange(0.02, 0.2001, 0.0025))
        assert abs(zp.argmin - 0.0725) <= 0.01
        assert 7.435e-6 / 1.5 <= zp.min_mse <= 7.435e-6 * 1.5
        print(f"\n[criterion 5b] PASS: argmins MA={ma.argmin:g} (13), SG={sg.argmin:g} (37), "
              f"lowpass={zp.argmin:.4f} (0.0725); min MSEs {ma.min_mse:.3e}/{sg.min_mse:.3e}/"
              f"{zp.min_mse:.3e}")

    def test_filtering_restores_discovery(self, burgers_5pct, burgers_scenario_full):
        noisy, _ = burgers_5pct
        config = TbglssConfig(thresholds=ThresholdSpec(t_rms=0.01, t_ge=0.1),
                              bglss=BglssConfig(seed=13, lam=1.0))
        unfiltered_mse = []
        filtered_mse = []
        ratios = []
        for seed in self.SEEDS:
            rep_noisy = discover(noisy[seed], config)
            truth = true_coefficients(burgers_scenario_full, LIB,
                                      step_coords=rep_noisy.trajectories.step_coords)
            mse_noisy = coefficient_mse(rep_noisy.trajectories, truth)
            smoothed = filter_dataset(noisy[seed], FilterSpec.of("moving_average", 13))
            rep_smooth = discover(smoothed, config)
            truth_s = true_coefficients(burgers_scenario_full, LIB,
                                        step_coords=rep_smooth.trajectories.step_coords)
            mse_smooth = coefficient_mse(rep_smooth.trajectories, truth_s)
            unfiltered_mse.append(mse_noisy)
            filtered_mse.append(mse_smooth)
            ratios.append(mse_noisy / mse_smooth)
        med_unf = float(np.median(unfiltered_mse))
        med_f = float(np.median(filtered_mse))
        assert all(r >= 100.0 for r in ratios)
        # reported values, reproduced as seed medians
        assert 0.04244 / 2 <= med_unf <= 0.04244 * 2
        assert 7.361e-5 / 2 <= med_f <= 7.361e-5 * 2
        print(f"\n[criterion 5c] PASS: coefficient MSE unfiltered {med_unf:.4e} (0.04244), "
              f"filtered {med_f:.4e} (7.361e-5), per-seed improvement "
              f"{[f'{r:.0f}x' for r in ratios]}")


class TestCriterion6SamplerCorrectness:
    # signal sized so the analytic spike probability is mid-range (informative)
    BETA_LS = np.array([0.45, -0.30, 0.19, 0.35])
    N_ROWS = 8
    TAU2 = 1.0
    SIGMA2 = 0.8
    PI0 = 0.5

    def orthonormal_single_group(self):
        # group columns of norm sqrt(n) before normalization: Gram = n I
        rng = np.random.default_rng(7)
        m = len(self.BETA_LS)
        cols = rng.standard_normal((m, self.N_ROWS))
        cols *= np.sqrt(self.N_ROWS) / np.linalg.norm(cols, axis=1, keepdims=True)
        target = cols * self.BETA_LS[:, None]
        return normalize_columns(cols[:, :, None], target, ("u",), "time",
                                 np.arange(m, dtype=float))

    def test_group_conditional_matches_analytic(self):
        system = self.orthonormal_single_group()
        # the sampler's group update, run by the reference kernel (bit-identical to it) with
        # the variances held still
        ens = reference_chain(system, BglssConfig(n_iterations=40050, n_burnin=50, lam=1.0,
                                                  pi0=self.PI0, seed=3),
                              fixed_tau2=self.TAU2, fixed_sigma2=self.SIGMA2)
        m, n = len(self.BETA_LS), self.N_ROWS
        shrink = 1.0 / (1.0 + self.TAU2)  # B_{g,n}
        l_spike = 1.0 / (1.0 + (1 - self.PI0) / self.PI0 * shrink ** (m / 2) * math.exp(
            (1 - shrink) * n * float(self.BETA_LS @ self.BETA_LS) / (2 * self.SIGMA2)))

        freq = float(ens.spike.mean())
        se_freq = math.sqrt(l_spike * (1 - l_spike) / ens.n_draws)
        assert abs(freq - l_spike) <= 3 * se_freq

        slab_phys = ens.beta[~ens.spike[:, 0], :, 0] / ens.scales[None, :, 0]
        slab_mean = (1 - shrink) * self.BETA_LS
        slab_var = self.SIGMA2 / n * (1 - shrink)
        n_slab = slab_phys.shape[0]
        z_mean = (slab_phys.mean(axis=0) - slab_mean) / math.sqrt(slab_var / n_slab)
        z_var = (slab_phys.var(axis=0, ddof=1) - slab_var) / (
            slab_var * math.sqrt(2.0 / (n_slab - 1)))
        assert np.all(np.abs(z_mean) <= 3.0)
        assert np.all(np.abs(z_var) <= 3.0)
        print(f"\n[criterion 6] PASS: spike freq {freq:.4f} vs analytic {l_spike:.4f} "
              f"(z={(freq - l_spike) / se_freq:+.2f}); slab mean z={np.round(z_mean, 2)}, "
              f"var z={np.round(z_var, 2)}")

    def test_pi0_one_null_model(self):
        system = self.orthonormal_single_group()
        ens = sample_posterior(system, BglssConfig(n_iterations=300, n_burnin=50,
                                                   lam=1.0, pi0=1.0, seed=0))
        assert np.all(ens.beta == 0.0)
        print("\n[criterion 6] PASS: pi0=1 forces the null model exactly")


class TestCriterion7GroupLassoKkt:
    def test_fifty_random_systems(self):
        checked = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=40, n_groups=5)
            lam = 0.3 * group_lasso_null_threshold(system)
            tol = 1e-8
            result = group_lasso(system, GroupLassoConfig(lam=lam, tolerance=tol))
            beta = result.beta_normalized
            grad = np.einsum("mng,mn->mg", system.blocks, system.target - system.matvec(beta))
            for g in range(system.n_groups):
                norm_g = np.linalg.norm(beta[:, g])
                if norm_g > 0:
                    assert np.linalg.norm(grad[:, g] - lam * beta[:, g] / norm_g) <= 10 * tol
                else:
                    assert np.linalg.norm(grad[:, g]) <= lam * (1 + 1e-6)
            assert np.all(np.diff(result.objective_history) <= 1e-9)
            checked += 1
        assert checked == 50
        print("\n[criterion 7] PASS: KKT + monotone objective on 50 random systems")


class TestCriterion8LoopProperties:
    def test_randomized_toy_loops(self):
        for seed in range(10):
            rng = np.random.default_rng(2000 + seed)
            system, _, _ = random_grouped_system(rng, n_steps=4, n_rows=12, n_groups=5)
            config = BglssConfig(n_iterations=300, n_burnin=80, lam=1.0, seed=seed)
            report = run_tbglss(system, TbglssConfig(
                thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5), bglss=config,
                update_iterations=120, update_burnin=30))
            assert report.n_updates <= system.n_groups + 1
            for record in report.update_history[:-1]:
                assert len(record.removed) >= 1
            removed = set()
            for record in report.update_history:
                assert not (removed & set(record.support_before))
                removed |= set(record.removed)
            if seed < 3:
                again = run_tbglss(system, TbglssConfig(
                    thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5), bglss=config,
                    update_iterations=120, update_burnin=30))
                assert again.selected == report.selected
                np.testing.assert_array_equal(again.trajectories.values,
                                              report.trajectories.values)
        print("\n[criterion 8] PASS: termination <= G+1 updates, monotone removal, "
              "determinism on 10 randomized toys")


class TestCriterion9CriterionFormulas:
    def test_hand_computed_fixtures(self):
        # rms of a 3-element group
        assert abs(rms_criterion(np.array([1.0, 2.0, 2.0])) - 3.0 / math.sqrt(3.0)) <= 1e-12
        # group error bar
        ge = group_error_bar(np.array([1.0, 1.0, 1.0]), np.array([0.01, 0.02, 0.03]))
        assert abs(ge - 0.02) <= 1e-12
        # total error bar over two 3-element groups
        beta = np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 0.0]])
        s2 = np.array([[0.01, 0.08], [0.02, 0.0], [0.03, 0.0]])
        expected = 0.06 / 3.0 + 0.08 / 4.0
        assert abs(total_error_bar(beta, s2) - expected) <= 1e-12
        # AIC-like loss on a 3-row single-step system
        block = np.array([[1.0], [0.0], [0.0]])[None, :, :]
        target = np.array([[2.0, 1.0, 0.0]])
        system = normalize_columns(block, target, ("u",), "time", np.array([0.0]))
        beta_norm = np.array([[1.0]])
        loss = aic_loss(system, beta_norm, k=3, epsilon=1e-6)
        expected_loss = 3.0 * math.log(2.0 / (5.0 * 3.0) + 1e-6) + 6.0
        assert abs(loss - expected_loss) <= 1e-12
        print("\n[criterion 9] PASS: rms / group error bar / total error bar / loss match "
              "hand-computed values to 1e-12")


class TestCriterion10ModelSelectionSweep:
    def test_tge_sweep_trend_and_argmins(self, ad_scenario, ad_clean):
        dataset = noisy_dataset(ad_clean, 0.02, seed=3)
        system = build_system(dataset)
        truth = true_coefficients(ad_scenario, LIB, step_coords=system.step_coords)
        grid = np.linspace(0.02, 0.22, 11)
        base = TbglssConfig(thresholds=ThresholdSpec(t_rms=0.01), bglss=BglssConfig(seed=4, lam=1.0))
        curve = sweep(system, "t_ge", grid, base, truth=truth)
        teb = {p.value: p.total_error_bar for p in curve.points}
        assert teb[0.22] > teb[0.02]
        true_support = ("u", "u_x", "u_xx")
        loss_point = curve.point_at(curve.argmin["loss"])
        mse_point = curve.point_at(curve.argmin["coefficient_mse"])
        assert loss_point.selected == true_support
        assert mse_point.selected == true_support
        print(f"\n[criterion 10] PASS: total error bar rises {teb[0.02]:.4g} -> {teb[0.22]:.4g}; "
              f"loss argmin {curve.argmin['loss']:.2f} and MSE argmin "
              f"{curve.argmin['coefficient_mse']:.2f} both select {true_support}")

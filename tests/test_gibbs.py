import numpy as np
import pytest

from vcpde.gibbs import (
    BglssConfig,
    PosteriorEnsemble,
    estimate_hyperparams,
    posterior_median,
    sample_posterior,
)
from vcpde.library import GroupedLinearSystem, normalize_columns

from helpers import posterior_variance


def single_group_system(beta_ls, n_rows=8, seed=7):
    """One group, orthonormal columns: X~^T y equals beta_ls exactly."""
    rng = np.random.default_rng(seed)
    m = len(beta_ls)
    cols = rng.standard_normal((m, n_rows))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    target = cols * np.asarray(beta_ls)[:, None]
    system = GroupedLinearSystem(cols[:, :, None], target, ("u",), "time",
                                 np.arange(m, dtype=float))
    return normalize_columns(system)


def synthetic_ensemble(beta, spike=None, scales=None):
    beta = np.asarray(beta, dtype=float)
    n, m, g = beta.shape
    if spike is None:
        spike = np.all(beta == 0.0, axis=1)
    return PosteriorEnsemble(
        beta=beta,
        tau2=np.ones((n, g)),
        sigma2=np.ones(n),
        pi0=np.full(n, 0.5),
        spike=spike,
        scales=np.ones((m, g)) if scales is None else scales,
        descriptors=tuple(f"g{i}" for i in range(g)),
        step_coords=np.arange(m, dtype=float),
        varying_axis="time",
        lam_used=1.0,
        seed=0,
    )


BETA_LS = np.array([1.2, -0.8, 0.5, 0.9])
TAU2, SIGMA2, PI0 = 1.0, 0.8, 0.5


@pytest.fixture(scope="module")
def fixed_variance_chain():
    system = single_group_system(BETA_LS)
    config = BglssConfig(n_iterations=20050, n_burnin=50, lam=1.0, pi0=PI0,
                         fixed_tau2=TAU2, fixed_sigma2=SIGMA2, seed=3)
    return sample_posterior(system, config)


class TestGroupConditionalOracle:
    """The sampler's group update against the analytic spike/slab conditional."""

    def analytic(self):
        m = len(BETA_LS)
        shrink = 1.0 / (1.0 + TAU2)  # B_{g,n} for the normalized design
        c_sq = float(BETA_LS @ BETA_LS)
        odds = (1 - PI0) / PI0 * (1 - shrink) ** 0 * shrink ** (m / 2) * np.exp(
            (1 - shrink) * c_sq / (2 * SIGMA2)
        )
        l_spike = 1.0 / (1.0 + odds)
        return l_spike, (1 - shrink) * BETA_LS, SIGMA2 * (1 - shrink)

    def test_spike_frequency(self, fixed_variance_chain):
        l_spike, _, _ = self.analytic()
        freq = fixed_variance_chain.spike.mean()
        se = np.sqrt(l_spike * (1 - l_spike) / fixed_variance_chain.n_draws)
        assert abs(freq - l_spike) <= 3 * se

    def test_slab_mean(self, fixed_variance_chain):
        _, mean, var = self.analytic()
        slab = fixed_variance_chain.beta[~fixed_variance_chain.spike[:, 0], :, 0]
        se = np.sqrt(var / slab.shape[0])
        assert np.all(np.abs(slab.mean(axis=0) - mean) <= 3.5 * se)

    def test_slab_variance(self, fixed_variance_chain):
        _, _, var = self.analytic()
        slab = fixed_variance_chain.beta[~fixed_variance_chain.spike[:, 0], :, 0]
        emp = slab.var(axis=0, ddof=1)
        se = var * np.sqrt(2.0 / (slab.shape[0] - 1))
        assert np.all(np.abs(emp - var) <= 3.5 * se)

    def test_within_group_draws_uncorrelated(self, fixed_variance_chain):
        slab = fixed_variance_chain.beta[~fixed_variance_chain.spike[:, 0], :, 0]
        corr = np.corrcoef(slab.T)
        off = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.abs(off).max() <= 3.5 / np.sqrt(slab.shape[0])


class TestSamplerLimits:
    def test_pi0_one_forces_null_model(self):
        system = single_group_system(BETA_LS)
        ens = sample_posterior(system, BglssConfig(n_iterations=200, n_burnin=50,
                                                   lam=1.0, pi0=1.0, seed=0))
        assert np.all(ens.beta == 0.0)
        assert np.all(ens.spike)

    def test_least_squares_limit(self):
        # pi0 = 0 and lam -> 0: the posterior median approaches least squares
        system = single_group_system(BETA_LS)
        ens = sample_posterior(system, BglssConfig(n_iterations=2000, n_burnin=500,
                                                   lam=1e-6, pi0=0.0, seed=0))
        median = np.median(ens.beta[:, :, 0], axis=0)
        assert np.linalg.norm(median - BETA_LS) / np.linalg.norm(BETA_LS) <= 1e-2

    def test_determinism(self):
        system = single_group_system(BETA_LS)
        config = BglssConfig(n_iterations=300, n_burnin=100, lam=1.0, pi0=0.5, seed=42)
        a = sample_posterior(system, config)
        b = sample_posterior(system, config)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.sigma2, b.sigma2)

    def test_requires_normalized_system(self):
        rng = np.random.default_rng(0)
        system = GroupedLinearSystem(rng.standard_normal((3, 5, 2)), rng.standard_normal((3, 5)),
                                     ("a", "b"), "time", np.arange(3.0))
        with pytest.raises(ValueError, match="normalized"):
            sample_posterior(system, BglssConfig(n_iterations=60, n_burnin=10, lam=1.0))

    def test_requires_numeric_lam(self):
        system = single_group_system(BETA_LS)
        with pytest.raises(ValueError, match="numeric lam"):
            sample_posterior(system, BglssConfig(n_iterations=60, n_burnin=10,
                                                 lam="estimate_mc_em"))


class TestSpikeSlabExclusivity:
    def test_every_draw_is_all_or_nothing(self):
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((4, 12, 5))
        target = blocks[:, :, 0] * 2.0 + 0.05 * rng.standard_normal((4, 12))
        system = normalize_columns(GroupedLinearSystem(
            blocks, target, tuple("abcde"), "time", np.arange(4.0)))
        ens = sample_posterior(system, BglssConfig(n_iterations=400, n_burnin=100,
                                                   lam=1.0, seed=9))
        zero_groups = np.all(ens.beta == 0.0, axis=1)
        np.testing.assert_array_equal(zero_groups, ens.spike)
        slab_draws = ens.beta[~ens.spike[:, 0], :, 0]
        assert np.all(np.any(slab_draws != 0.0, axis=1))


class TestPosteriorSummaries:
    def test_median_spike_majority_excluded(self):
        beta = np.zeros((100, 3, 2))
        beta[:49, :, 0] = 1.0  # 51% of draws in the spike for group 0
        beta[:, :, 1] = 2.0
        ens = synthetic_ensemble(beta)
        med = posterior_median(ens)
        assert not med.active[0] and med.active[1]
        assert np.all(med.values[:, 0] == 0.0)

    def test_median_midpoint_tie_convention(self):
        a = 1.3
        beta = np.empty((40, 2, 1))
        beta[::2, :, 0] = a
        beta[1::2, :, 0] = -a
        ens = synthetic_ensemble(beta)
        med = posterior_median(ens)
        assert np.all(med.values == 0.0)

    def test_variance_two_point_formula(self):
        k = 50
        beta = np.zeros((2 * k, 1, 1))
        beta[:k, 0, 0] = 2.0
        ens = synthetic_ensemble(beta)
        s2 = posterior_variance(ens)
        assert s2[0, 0] == pytest.approx(2 * k / (2 * k - 1))

    def test_variance_identical_draws_zero(self):
        beta = np.full((60, 2, 1), 3.0)
        ens = synthetic_ensemble(beta)
        np.testing.assert_array_equal(posterior_variance(ens), 0.0)

    def test_minimum_draw_count_enforced(self):
        beta = np.full((10, 2, 1), 3.0)
        ens = synthetic_ensemble(beta)
        with pytest.raises(ValueError, match="at least"):
            posterior_median(ens)

    def test_physical_denormalization(self):
        beta = np.full((60, 2, 1), 3.0)
        scales = np.full((2, 1), 2.0)
        ens = synthetic_ensemble(beta, scales=scales)
        med = posterior_median(ens)
        np.testing.assert_allclose(med.values, 1.5)
        np.testing.assert_allclose(posterior_variance(ens), 0.0)

    def test_slab_variance_matches_analytic(self):
        system = single_group_system(BETA_LS)
        ens = sample_posterior(system, BglssConfig(n_iterations=6050, n_burnin=50, lam=1.0,
                                                   pi0=0.0, fixed_tau2=TAU2,
                                                   fixed_sigma2=SIGMA2, seed=1))
        shrink = 1.0 / (1.0 + TAU2)
        expected = SIGMA2 * (1 - shrink)  # normalized scale
        s2 = np.var(ens.beta, axis=0, ddof=1)
        assert np.all(np.abs(s2 / expected - 1.0) < 0.10)


class TestPosteriorContraction:
    def test_median_converges_with_rows(self):
        spreads = []
        errors = []
        for n_rows in (32, 64, 128):
            rng = np.random.default_rng(100 + n_rows)
            m = 6
            blocks = rng.standard_normal((m, n_rows, 3))
            target = blocks[:, :, 1] * 2.0 + 1e-4 * rng.standard_normal((m, n_rows))
            system = normalize_columns(GroupedLinearSystem(
                blocks, target, ("a", "u", "c"), "time", np.arange(float(m))))
            ens = sample_posterior(system, BglssConfig(n_iterations=500, n_burnin=150,
                                                       lam=1.0, seed=2))
            med = posterior_median(ens)
            errors.append(np.abs(med.group("u") - 2.0).max())
            spreads.append(posterior_variance(ens)[:, 1].mean())
        assert errors[-1] < 5e-3
        assert spreads[0] > spreads[1] > spreads[2]


class TestHyperparamEstimation:
    def test_fixed_values_pass_through(self):
        system = single_group_system(BETA_LS)
        est = estimate_hyperparams(system, BglssConfig(lam=2.5, pi0=0.3))
        assert (est.lam, est.pi0) == (2.5, 0.3)
        assert est.converged and est.n_rounds == 0

    @pytest.mark.filterwarnings("ignore:Monte Carlo EM")
    def test_pure_noise_high_spike_weight(self):
        rng = np.random.default_rng(17)
        m, n, g = 6, 24, 20
        blocks = rng.standard_normal((m, n, g))
        target = rng.standard_normal((m, n))  # no signal at all
        system = normalize_columns(GroupedLinearSystem(
            blocks, target, tuple(f"g{i}" for i in range(g)), "time", np.arange(float(m))))
        est = estimate_hyperparams(system, BglssConfig(seed=3, lam="estimate_mc_em"))
        assert est.pi0 >= 0.9
        assert est.lam > 0

    @pytest.mark.filterwarnings("ignore:Monte Carlo EM")
    def test_known_sparsity_band(self):
        rng = np.random.default_rng(23)
        m, n, g = 6, 24, 20
        blocks = rng.standard_normal((m, n, g))
        target = 3.0 * blocks[:, :, 4] - 2.0 * blocks[:, :, 11]
        target = target + 0.01 * rng.standard_normal((m, n))
        system = normalize_columns(GroupedLinearSystem(
            blocks, target, tuple(f"g{i}" for i in range(g)), "time", np.arange(float(m))))
        est = estimate_hyperparams(system, BglssConfig(seed=5, lam="estimate_mc_em"))
        assert 0.8 <= est.pi0 <= 0.95


class TestBurgersMedianTracksTruth:
    def test_thresholded_median_tracks_coefficient(self, burgers_system,
                                                   burgers_scenario_full, library20):
        # the benchmark panel comes from the thresholded run: its final-chain
        # posterior median follows the oscillating advective coefficient
        from vcpde.solvers import true_coefficients
        from vcpde.tbglss import ThresholdSpec, run_tbglss

        report = run_tbglss(burgers_system, ThresholdSpec(t_rms=0.02, t_ge=0.1),
                            BglssConfig(n_iterations=600, n_burnin=150, lam=1.0, seed=21))
        truth = true_coefficients(burgers_scenario_full, library20,
                                  step_coords=burgers_system.step_coords)
        g = library20.descriptors.index("u*u_x")
        rel = np.linalg.norm(report.trajectories.values[:, g] - truth.values[:, g]) / np.linalg.norm(
            truth.values[:, g])
        assert rel <= 0.05

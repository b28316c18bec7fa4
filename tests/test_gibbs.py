import math
import re
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest

from vcpde import tbglss
from vcpde.gibbs import BglssConfig, PosteriorEnsemble, sample_posterior
from vcpde.library import normalize_columns
from vcpde.tbglss import TbglssConfig, ThresholdSpec, run_tbglss
from vcpde.uncertainty import ensemble_bootstrap_cis

from conftest import random_grouped_system
from helpers import posterior_variance, reference_chain, subsystem


def single_group_system(beta_ls, n_rows=8, seed=7):
    """One group, orthonormal columns: X~^T y equals beta_ls exactly."""
    rng = np.random.default_rng(seed)
    m = len(beta_ls)
    cols = rng.standard_normal((m, n_rows))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    target = cols * np.asarray(beta_ls)[:, None]
    return normalize_columns(cols[:, :, None], target, ("u",), "time", np.arange(m, dtype=float))


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
    config = BglssConfig(n_iterations=20050, n_burnin=50, lam=1.0, pi0=PI0, seed=3)
    return reference_chain(system, config, fixed_tau2=TAU2, fixed_sigma2=SIGMA2)


class TestGroupConditionalOracle:
    """The sampler's group update against the analytic spike/slab conditional, run by the
    reference kernel, which draws what the sampler draws and can hold the variances still."""

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
        se = np.sqrt(l_spike * (1 - l_spike) / fixed_variance_chain.beta.shape[0])
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

    @pytest.mark.parametrize("field", ["lam"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_or_nan_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {value}"):
            BglssConfig(**{field: value})

    def test_requires_numeric_lam(self):
        # lam has no string form: the sampler never estimates it
        with pytest.raises(TypeError):
            BglssConfig(lam="estimate_mc_em")

    @pytest.mark.parametrize("settings,message", [
        # a negative burn-in would leave kept draws unfilled
        ({"n_iterations": 10, "n_burnin": -5},
         "n_burnin must be at least 0 and below n_iterations (10), got -5"),
        ({"n_burnin": -1}, "n_burnin must be at least 0 and below n_iterations (1000), got -1"),
        ({"n_iterations": 10, "n_burnin": 10},
         "n_burnin must be at least 0 and below n_iterations (10), got 10"),
        ({"pi0": "fixed"}, "pi0 must be a probability or 'estimate'"),
        ({"pi0": 1.5}, "fixed pi0 must lie in [0, 1]"),
        ({"pi0": -0.1}, "fixed pi0 must lie in [0, 1]"),
    ], ids=["burnin-negative", "burnin-minus-one", "burnin-whole-chain", "pi0-name",
            "pi0-above-one", "pi0-negative"])
    def test_invalid_setting_rejected(self, settings, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BglssConfig(**settings)

    def test_zero_burnin_keeps_every_draw(self):
        ens = sample_posterior(single_group_system(BETA_LS), BglssConfig(n_iterations=10,
                                                                         n_burnin=0))
        assert ens.beta.shape[0] == 10 and np.isfinite(ens.beta).all()


class TestSupportSampling:
    """`sample_posterior(root, config, groups)` samples the subsystem of `groups` without it."""

    FIELDS = ("beta", "tau2", "sigma2", "pi0", "spike", "scales", "step_coords")

    @pytest.fixture(scope="class")
    def supports(self, burgers_system):
        rng = np.random.default_rng(4)
        g = burgers_system.n_groups
        supports = [[0], [7], [g - 1], list(range(g))]
        supports += [sorted(rng.choice(g, size=rng.integers(2, g), replace=False).tolist())
                     for _ in range(18)]
        return supports

    @pytest.mark.parametrize("settings", [{}, {"pi0": 0.3}], ids=["estimated_pi0", "fixed_pi0"])
    def test_draws_equal_the_subsystems_bit_for_bit(self, burgers_system, supports, settings):
        config = BglssConfig(n_iterations=30, n_burnin=10, seed=5, **settings)
        for support in supports:
            got = sample_posterior(burgers_system, config, groups=support)
            want = sample_posterior(subsystem(burgers_system, support), config)
            for name in self.FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, (support, name)
                assert a.tobytes() == b.tobytes(), (support, name)
                # as the subsystem path's copy was: save_trace's npz records the layout
                assert a.flags.c_contiguous, (support, name)
            assert got.descriptors == want.descriptors
            assert (got.varying_axis, got.lam_used, got.seed) == (
                want.varying_axis, want.lam_used, want.seed)

    def test_none_means_every_group(self, burgers_system):
        config = BglssConfig(n_iterations=30, n_burnin=10, seed=5)
        every = sample_posterior(burgers_system, config, groups=range(burgers_system.n_groups))
        default = sample_posterior(burgers_system, config)
        for name in self.FIELDS:
            assert getattr(every, name).tobytes() == getattr(default, name).tobytes(), name
        assert default.descriptors == burgers_system.descriptors

    @pytest.mark.parametrize("groups", [[0, 0], [5, 20], [-1], [[0, 1]]],
                             ids=["repeated", "too_large", "negative", "two_dimensional"])
    def test_groups_must_be_distinct_indices(self, burgers_system, groups):
        with pytest.raises(ValueError, match="distinct indices below 20"):
            sample_posterior(burgers_system, BglssConfig(n_iterations=30, n_burnin=10), groups)

    @pytest.mark.parametrize("support", [
        list(range(20)), [0, 2, 3, 5, 8, 9, 11, 12, 14, 15, 17, 19]], ids=["20_groups", "12_groups"])
    def test_chain_copies_no_blocks(self, burgers_system, support):
        """One chain of the threshold loop allocates the draws it keeps and less than one copy
        of its support's blocks besides."""
        config = BglssConfig(n_iterations=60, n_burnin=10, seed=2)
        m, n, _ = burgers_system.blocks.shape
        k, n_keep = len(support), config.n_iterations - config.n_burnin
        kept_draws = n_keep * (m * k * 8 + k * 8 + 2 * 8 + k)  # beta, tau2, sigma2 and pi0, spike
        block_copy = m * n * k * 8
        burgers_system.gram()  # the root's products are computed once per system, not per chain
        tracemalloc.start()
        try:
            tbglss._chain(burgers_system, (tuple(support), config, False))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kept_draws + block_copy


class TestSpikeBookkeeping:
    """`PosteriorEnsemble` checks that a group is spiked in exactly the draws where it is zero."""

    def test_signed_zero_rows_are_zero_and_nan_rows_are_not(self):
        beta = np.ones((3, 4, 2))
        beta[0, :, 0] = -0.0
        beta[1, :, 0] = [0.0, -0.0, 0.0, -0.0]
        beta[2, :, 1] = [0.0, np.nan, 0.0, 0.0]
        spike = np.array([[True, False], [True, False], [False, False]])
        assert synthetic_ensemble(beta, spike=spike).spike.tobytes() == spike.tobytes()
        for draw, group in ((0, 0), (2, 1)):  # a spike must match a zero row, and only one
            wrong = spike.copy()
            wrong[draw, group] = not wrong[draw, group]
            with pytest.raises(ValueError, match="spike bookkeeping"):
                synthetic_ensemble(beta, spike=wrong)

    @pytest.mark.parametrize("name", ["sigma2", "tau2"])
    def test_nonpositive_variance_draw_rejected(self, name):
        ensemble = synthetic_ensemble(np.ones((3, 4, 2)))
        values = getattr(ensemble, name).copy()
        values[1] = 0.0
        with pytest.raises(ValueError, match="^variance draws must be strictly positive$"):
            replace(ensemble, **{name: values})

    def test_check_allocates_nothing_the_size_of_the_draws(self):
        beta = np.ones((200, 240, 12))
        beta[:, :, 3] = 0.0
        spike = np.zeros((200, 12), dtype=bool)
        spike[:, 3] = True
        tracemalloc.start()
        try:
            synthetic_ensemble(beta, spike=spike)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < beta.size  # one byte per draw: a boolean array of the draws


class TestSpikeSlabExclusivity:
    def test_every_draw_is_all_or_nothing(self):
        rng = np.random.default_rng(5)
        blocks = rng.standard_normal((4, 12, 5))
        target = blocks[:, :, 0] * 2.0 + 0.05 * rng.standard_normal((4, 12))
        system = normalize_columns(blocks, target, tuple("abcde"), "time", np.arange(4.0))
        ens = sample_posterior(system, BglssConfig(n_iterations=400, n_burnin=100,
                                                   lam=1.0, seed=9))
        zero_groups = np.all(ens.beta == 0.0, axis=1)
        np.testing.assert_array_equal(zero_groups, ens.spike)
        slab_draws = ens.beta[~ens.spike[:, 0], :, 0]
        assert np.all(np.any(slab_draws != 0.0, axis=1))


def run_on_draws(monkeypatch, system, draws):
    """`run_tbglss` on `system` with each chain's draws `draws(subsystem)` instead of sampled,
    the subsystem being the chain's groups; t_rms = 0 removes only the groups whose median is
    exactly zero."""
    def sample(root, config, groups):
        sub = subsystem(root, groups)
        return synthetic_ensemble(draws(sub), scales=sub.scales)

    monkeypatch.setattr(tbglss, "sample_posterior", sample)
    return run_tbglss(system, TbglssConfig(
        thresholds=ThresholdSpec(t_rms=0.0), bglss=BglssConfig(n_iterations=200, n_burnin=60)))


class TestPosteriorSummaries:
    """The chain summary `tbglss._summarize` and what a report makes of it."""

    def test_median_spike_majority_excluded(self, monkeypatch):
        rng = np.random.default_rng(2)
        system, _, _ = random_grouped_system(rng, n_steps=3, n_rows=10, n_groups=2)

        def draws(sub):
            beta = 2.0 + 0.1 * rng.standard_normal((100, sub.n_steps, sub.n_groups))
            if "g0" in sub.descriptors:
                beta[49:, :, 0] = 0.0  # 51% of draws in the spike for group 0
            return beta

        beta = draws(system)
        median, _ = tbglss._summarize(beta)
        assert median[:, 0].tobytes() == np.zeros(3).tobytes()  # exact, unsigned zeros
        report = run_on_draws(monkeypatch, system, draws)
        assert report.update_history[0].removed == ("g0",)
        assert report.update_history[0].criteria["g0"]["median_zero"]
        assert report.trajectories.active.tolist() == [False, True]
        assert np.all(report.trajectories.values[:, 0] == 0.0)

    def test_median_midpoint_tie_convention(self):
        a = 1.3
        for n_draws in (40, 41):
            beta = np.full((n_draws, 2, 3), a)
            beta[n_draws // 2:] = -a
            if n_draws % 2:
                beta[-1] = -0.0  # the middle draw is a signed zero
            median, variance = tbglss._summarize(beta)
            assert median.tobytes() == np.median(beta, axis=0).tobytes()
            assert variance.tobytes() == np.var(beta, axis=0, ddof=1).tobytes()
            assert np.all(median == 0.0) and not np.signbit(median).any()

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
            ensemble_bootstrap_cis(ens)

    def test_physical_denormalization(self, monkeypatch):
        rng = np.random.default_rng(5)
        system, _, _ = random_grouped_system(rng, n_steps=3, n_rows=10, n_groups=2)
        report = run_on_draws(monkeypatch, system,
                              lambda sub: np.full((60, sub.n_steps, sub.n_groups), 3.0))
        assert report.trajectories.values.tobytes() == (3.0 / system.scales).tobytes()
        np.testing.assert_array_equal(report.stdev, 0.0)
        np.testing.assert_array_equal(report.beta_normalized, 3.0)

    def test_slab_variance_matches_analytic(self):
        system = single_group_system(BETA_LS)
        ens = reference_chain(system, BglssConfig(n_iterations=6050, n_burnin=50, lam=1.0,
                                                  pi0=0.0, seed=1),
                              fixed_tau2=TAU2, fixed_sigma2=SIGMA2)
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
            system = normalize_columns(blocks, target, ("a", "u", "c"), "time",
                                       np.arange(float(m)))
            ens = sample_posterior(system, BglssConfig(n_iterations=500, n_burnin=150,
                                                       lam=1.0, seed=2))
            median_u = np.median(ens.beta[:, :, 1], axis=0) / ens.scales[:, 1]
            errors.append(np.abs(median_u - 2.0).max())
            spreads.append(posterior_variance(ens)[:, 1].mean())
        assert errors[-1] < 5e-3
        assert spreads[0] > spreads[1] > spreads[2]


class TestBurgersMedianTracksTruth:
    def test_thresholded_median_tracks_coefficient(self, burgers_system,
                                                   burgers_scenario_full, library20):
        # the benchmark panel comes from the thresholded run: its final-chain
        # posterior median follows the oscillating advective coefficient
        from vcpde.solvers import true_coefficients

        report = run_tbglss(burgers_system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.02, t_ge=0.1),
            bglss=BglssConfig(n_iterations=600, n_burnin=150, lam=1.0, seed=21)))
        truth = true_coefficients(burgers_scenario_full, library20,
                                  step_coords=burgers_system.step_coords)
        g = library20.descriptors.index("u*u_x")
        rel = np.linalg.norm(report.trajectories.values[:, g] - truth.values[:, g]) / np.linalg.norm(
            truth.values[:, g])
        assert rel <= 0.05


# Settings that steer the kernel down each of its branches: pi0 drawn or fixed (at 0 and 1
# the prior odds are infinite).  The default setting also takes the branch where the slab
# odds overflow exp (test_default_setting_overflows_the_odds).
ORACLE_SETTINGS = {
    "estimated_pi0": {},
    "fixed_pi0": {"pi0": 0.3},
    "pi0_zero": {"pi0": 0.0},
    "pi0_one": {"pi0": 1.0},
}


class TestKernelMatchesReference:
    """The sampler's kernel draws bit for bit what the reference kernel draws."""

    @pytest.fixture(scope="class", params=[20, 3], ids=["20_groups", "3_groups"])
    def system(self, request, burgers_system):
        if request.param == 20:
            return burgers_system
        names = ("u", "u*u_x", "u_xx")
        return subsystem(burgers_system, [burgers_system.descriptors.index(d) for d in names])

    @staticmethod
    def assert_same_draws(got: PosteriorEnsemble, want: PosteriorEnsemble):
        for name in ("beta", "tau2", "sigma2", "pi0", "spike"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("settings", list(ORACLE_SETTINGS.values()), ids=list(ORACLE_SETTINGS))
    def test_bit_identical_draws(self, system, settings):
        config = BglssConfig(n_iterations=40, n_burnin=10, seed=3, **settings)
        self.assert_same_draws(sample_posterior(system, config), reference_chain(system, config))

    def test_default_setting_overflows_the_odds(self, burgers_system, monkeypatch):
        """The default setting of `test_bit_identical_draws` reaches the kernel's OverflowError
        branch (log odds above ~709.78), so the bit-identity check covers it."""
        overflows, real_exp = [], math.exp

        def exp(x):
            try:
                return real_exp(x)
            except OverflowError:
                overflows.append(x)
                raise

        monkeypatch.setattr(math, "exp", exp)
        sample_posterior(burgers_system, BglssConfig(n_iterations=40, n_burnin=10, seed=3,
                                                     **ORACLE_SETTINGS["estimated_pi0"]))
        assert overflows

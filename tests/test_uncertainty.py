import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom  # the oracle of the binomial-law tests only

from vcpde import uncertainty
from vcpde.gibbs import MIN_RETAINED_DRAWS
from vcpde.uncertainty import (
    WEIGHT_FLOOR,
    BootstrapCI,
    bootstrap_median_ci,
    ensemble_bootstrap_cis,
    median_rank_weights,
)

from helpers import monte_carlo_median_ci
from test_gibbs import synthetic_ensemble


def spiky_draws(rng, n):
    """Draws with a tied block of spike zeros near the median, as a mostly-slab group gives."""
    return np.where(rng.random(n) < 0.48, 0.0, 1.0 + 0.3 * rng.standard_normal(n))


def exact_rank_counts(n, floor):
    """{(a, b): how many of the n**n resamples of the ranks 0..n-1 have np.median's middle
    pair (a, b)}, in integers, for every pair counted more than `floor` times."""
    k = (n + 1) // 2  # the median is the k-th smallest resampled rank, or its mean with the next
    choose = [math.comb(n, i) for i in range(n + 1)]
    below = []  # resamples whose k-th smallest rank is below j: at least k ranks are below j
    for j in range(n + 1):
        total, q_power = 0, 1
        for i in range(n, k - 1, -1):  # sum of choose[i] j**i (n-j)**(n-i), by Horner's rule
            total = total * j + choose[i] * q_power
            q_power *= n - j
        below.append(total * j**k)
    kth = [hi - lo for lo, hi in zip(below, below[1:])]
    if n % 2:
        return {(a, a): c for a, c in enumerate(kth) if c > floor}
    # a < b: k ranks are <= a, a among them, and the other n - k are >= b, b among them
    low = [choose[k] * ((a + 1)**k - a**k) for a in range(n)]
    high = [(n - b)**(n - k) - (n - b - 1)**(n - k) for b in range(n)]
    counts = {(a, a): kth[a] - low[a] * (n - a - 1)**(n - k) for a in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if low[a] * high[b] <= floor:
                break  # high falls as b grows, so every later pair is lighter
            counts[a, b] = low[a] * high[b]
    return {pair: c for pair, c in counts.items() if c > floor}


class TestMedianRankWeights:
    @pytest.mark.parametrize("n", [30, 31, 800, 801])
    def test_weights_sum_to_one(self, n):
        a, b, w = median_rank_weights(n)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(a <= b) and np.all(w >= 0.0)
        if n % 2:
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [30, 31, 256, 257, 1000, 1001, 4000, 4001])
    def test_binomial_law_matches_scipy_stats(self, n):
        k, p = (n + 1) // 2, np.arange(n + 1) / n
        np.testing.assert_allclose(uncertainty._binom_cdf(k - 1, n, p), binom.cdf(k - 1, n, p),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(uncertainty._binom_logpmf(k, n, p), binom.logpmf(k, n, p),
                                   rtol=1e-11)

    @pytest.mark.parametrize("p", [0.35, [0.0, 0.5, 1.0 / 3.0]])
    def test_binom_cdf_rejects_p_off_the_grid(self, p):
        with pytest.raises(ValueError, match="grid"):
            uncertainty._binom_cdf(4, 10, np.asarray(p))

    @pytest.mark.parametrize("n", [30, 31, 200, 201, 400, 401])
    def test_weights_match_the_exact_law(self, n):
        # each exact weight is an integer count over n**n, rounded once by the int division
        total = n**n
        exact = exact_rank_counts(n, math.floor(Fraction(WEIGHT_FLOOR) * total))
        a, b, w = median_rank_weights(n)
        pairs = list(zip(a.tolist(), b.tolist()))
        for pair, weight in zip(pairs, w.tolist()):
            assert abs(weight - exact.get(pair, 0) / total) <= 1.5e-15, pair
        assert sum(exact[pair] for pair in exact.keys() - pairs) / total < 1e-15

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_weights_match_every_resample(self, n):
        # each of the n**n resamples of the ranks 0..n-1, with np.median's middle pair
        resamples = np.sort(np.indices((n,) * n).reshape(n, -1).T, axis=1)
        pairs, counts = np.unique(resamples[:, [(n - 1) // 2, n // 2]], axis=0,
                                  return_counts=True)
        a, b, w = median_rank_weights(n)
        got = {(int(i), int(j)): p for i, j, p in zip(a, b, w)}
        assert set(got) == {(int(i), int(j)) for i, j in pairs}
        for (i, j), count in zip(pairs, counts):
            assert got[int(i), int(j)] == pytest.approx(count / n**n, rel=1e-12)


class TestBootstrapMedianCi:
    def test_identical_draws_zero_width(self):
        ci = bootstrap_median_ci(np.full(100, 3.25))
        assert ci.lower == ci.point == ci.upper == 3.25

    def test_determinism(self):
        # the interval depends on the draws' values only, not on their order
        rng = np.random.default_rng(2)
        draws = rng.standard_normal(200)
        a = bootstrap_median_ci(draws)
        b = bootstrap_median_ci(rng.permutation(draws))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    @pytest.mark.parametrize("n", [800, 801])
    @pytest.mark.parametrize("kind", ["normal", "spike"])
    def test_matches_monte_carlo_oracle(self, n, kind):
        rng = np.random.default_rng(n)
        draws = rng.standard_normal(n) if kind == "normal" else spiky_draws(rng, n)
        ci = bootstrap_median_ci(draws)
        lo, hi = monte_carlo_median_ci(draws, level=0.95, n_resamples=20_000, seed=1)
        assert abs(ci.lower - lo) <= 0.03 * (hi - lo)
        assert abs(ci.upper - hi) <= 0.03 * (hi - lo)

    @pytest.mark.parametrize("n", [200, 201])
    def test_ends_are_quantiles_of_the_exact_law(self, n):
        rng = np.random.default_rng(n)
        draws = rng.standard_normal(n)
        a, b, w = median_rank_weights(n)
        ordered = np.sort(draws)
        medians = (ordered[a] + ordered[b]) / 2
        for level in (0.5, 0.9, 0.95):
            ci = bootstrap_median_ci(draws, level=level)
            for end, q in ((ci.lower, (1 - level) / 2), (ci.upper, (1 + level) / 2)):
                assert w[medians < end].sum() < q <= w[medians <= end].sum()

    def test_ends_match_those_of_scipy_stats_weights(self, monkeypatch):
        # the weights only pick which draw values become the ends, so their last bits do not
        rng = np.random.default_rng(19)
        kinds = (rng.standard_normal, rng.standard_cauchy, lambda n: spiky_draws(rng, n),
                 lambda n: np.round(rng.standard_normal(n), 2))
        sets = [kind(n) for n in (30, 31, 800, 801) for kind in kinds for _ in range(63)]
        ends = [(ci.lower, ci.upper) for ci in map(bootstrap_median_ci, sets)]
        monkeypatch.setattr(uncertainty, "_binom_cdf", binom.cdf)
        monkeypatch.setattr(uncertainty, "_binom_logpmf", binom.logpmf)
        oracle = {n: median_rank_weights.__wrapped__(n) for n in (30, 31, 800, 801)}
        monkeypatch.setattr(uncertainty, "median_rank_weights", oracle.__getitem__)
        for draws, got in zip(sets, ends):
            ci = bootstrap_median_ci(draws)
            assert got == (ci.lower, ci.upper)

    def test_nesting_of_levels(self):
        rng = np.random.default_rng(3)
        for draws in (rng.standard_normal(300), rng.standard_normal(301), spiky_draws(rng, 300)):
            narrow = bootstrap_median_ci(draws, level=0.90)
            wide = bootstrap_median_ci(draws, level=0.95)
            assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper

    def test_contains_sample_median_almost_always(self):
        # the ends are clamped, so every interval brackets its point, ties and all
        rng = np.random.default_rng(5)
        for n in range(MIN_RETAINED_DRAWS, MIN_RETAINED_DRAWS + 40):
            for draws in (rng.standard_normal(n), spiky_draws(rng, n), rng.integers(0, 3, n)):
                ci = bootstrap_median_ci(draws, level=0.5)
                assert ci.point == np.median(draws)
                assert ci.lower <= ci.point <= ci.upper

    def test_emulated_chain_ci_width_order(self):
        # draws mimicking the benchmark posterior histogram: the published 95%
        # interval has width ~4.5e-5, reproducible only in order of magnitude
        rng = np.random.default_rng(6)
        draws = 0.100116 + 2.6e-4 * rng.standard_normal(800)
        ci = bootstrap_median_ci(draws)
        published_width = 0.10013647 - 0.10009149
        assert published_width / 10 <= ci.upper - ci.lower <= published_width * 10
        assert abs(ci.point - 0.100116) < 5e-5

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci(np.ones(MIN_RETAINED_DRAWS - 1))

    def test_interval_must_bracket_point(self):
        with pytest.raises(ValueError):
            BootstrapCI(point=1.0, lower=1.1, upper=1.2, level=0.95)


class TestEnsembleBootstrapCis:
    def test_ensemble_cis_cover_active_groups(self):
        # a report's ensemble is its final chain on the active groups only, so each gets CIs
        rng = np.random.default_rng(8)
        beta = np.zeros((120, 3, 2))
        beta[:, :, 0] = 2.0 + 0.05 * rng.standard_normal((120, 3))
        beta[:, :, 1] = -1.0 + 0.05 * rng.standard_normal((120, 3))
        cis = ensemble_bootstrap_cis(synthetic_ensemble(beta))
        assert cis["level"] == 0.95
        assert set(cis["intervals"]) == {"g0", "g1"}
        for g, center in enumerate((2.0, -1.0)):
            intervals = cis["intervals"][f"g{g}"]
            assert len(intervals) == 3
            for (lower, upper), point in zip(intervals, np.median(beta[:, :, g], axis=0)):
                assert center - 0.1 <= lower <= point <= upper <= center + 0.1


class TestReportIntegration:
    def test_bootstrap_cis_and_trace_dump(self, tmp_path):
        import numpy as np

        from vcpde.gibbs import BglssConfig, dump_ensemble
        from vcpde.tbglss import TbglssConfig, ThresholdSpec, run_tbglss
        from conftest import random_grouped_system

        rng = np.random.default_rng(14)
        system, _, _ = random_grouped_system(rng, n_rows=24)
        report = run_tbglss(system, TbglssConfig(
            thresholds=ThresholdSpec(t_rms=0.05, t_ge=0.5),
            bglss=BglssConfig(n_iterations=200, n_burnin=60, lam=1.0, seed=6),
            keep_final_ensemble=True, with_ci=True))
        assert report.final_ensemble is not None
        assert set(report.bootstrap_cis["intervals"]) == set(report.selected)
        for name in report.selected:
            intervals = np.asarray(report.bootstrap_cis["intervals"][name])
            traj = report.trajectories.group(name)
            assert np.all(intervals[:, 0] <= traj + 1e-12)
            assert np.all(traj <= intervals[:, 1] + 1e-12)
        assert '"bootstrap_cis"' in report.to_json()

        npz = tmp_path / "trace.npz"
        dump_ensemble(report.final_ensemble, npz)
        loaded = np.load(npz)
        np.testing.assert_array_equal(loaded["beta"], report.final_ensemble.beta)

        csv_path = tmp_path / "trace.csv"
        dump_ensemble(report.final_ensemble, csv_path, fmt="csv")
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("draw,sigma2,pi0")

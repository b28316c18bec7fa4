"""Exact percentile-bootstrap confidence intervals for posterior-median coefficients.

The bootstrap law of a median depends only on ranks (Maritz & Jarrett 1978;
Efron 1982), so an interval is one sort of the draws and a weighted quantile,
with no resamples and no seed.  The draws are treated as iid, as in the paper.
The binomial law behind the weights is written with `scipy.special`: its CDF as
a regularized incomplete beta function and its log pmf as `scipy.stats.binom`
computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaincc, gammaln, xlog1py, xlogy

from .gibbs import MIN_RETAINED_DRAWS, PosteriorEnsemble

CI_LEVEL = 0.95  # level of the intervals a report carries
WEIGHT_FLOOR = 1e-18  # rank pairs lighter than this are left out of the bootstrap law


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile bootstrap confidence interval for a median estimator."""

    point: float
    lower: float
    upper: float
    level: float

    def __post_init__(self):
        if not self.lower <= self.point <= self.upper:
            raise ValueError("confidence interval must bracket the point estimate")


def _log_top_attained(c: np.ndarray, power: int) -> np.ndarray:
    """log(1 - ((c-1)/c)^power): `power` uniform draws from c ranks include the top one."""
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(power * np.log1p(-1.0 / c)))


def _binom_cdf(k: int, n: int, p: np.ndarray) -> np.ndarray:
    """P(Binomial(n, p) <= k), within about 3e-15 of `scipy.stats.binom.cdf(k, n, p)`."""
    return betaincc(k + 1, n - k, p)


def _binom_logpmf(k: int, n: int, p: np.ndarray) -> np.ndarray:
    """log P(Binomial(n, p) = k), bit for bit `scipy.stats.binom.logpmf(k, n, p)`."""
    return gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1)) + xlogy(k, p) + xlog1py(n - k, -p)


@lru_cache(maxsize=8)
def median_rank_weights(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based rank pairs (a, b), a <= b, and the probability that the median of a resample
    of n sorted draws x is (x[a] + x[b]) / 2, as `np.median` takes it (a == b for odd n).
    Pairs lighter than WEIGHT_FLOOR are left out; the arrays are shared and read-only."""
    k = (n + 1) // 2  # the median is the k-th smallest resampled draw, or its mean with the next
    below = _binom_cdf(k - 1, n, np.arange(n + 1) / n)  # P(fewer than k resampled ranks < j)
    kth = below[:-1] - below[1:]  # P(the k-th smallest is rank j)
    band = np.flatnonzero(kth > WEIGHT_FLOOR)
    pairs = [(band, band, kth[band])]
    if n % 2 == 0:
        # A pair a < b: exactly k resampled ranks are <= a, with a among them, and the
        # other n - k are >= b, with b among them.  A tie a == b takes the rest of P(A = a).
        log_low = _binom_logpmf(k, n, (band + 1) / n) + _log_top_attained(band + 1, k)
        pairs = [(band, band, np.clip(kth[band] - np.exp(log_low), 0.0, None))]
        for gap in range(1, n):
            a = band[band + gap < n]
            high = n - a - gap  # the ranks b..n-1
            w = np.exp(log_low[: a.size] + (n - k) * np.log(high / (n - 1 - a))
                       + _log_top_attained(high, n - k))
            keep = w > WEIGHT_FLOOR
            if not keep.any():
                break
            pairs.append((a[keep], a[keep] + gap, w[keep]))
    a, b, w = (np.concatenate(part) for part in zip(*pairs))
    for array in (a, b, w):
        array.flags.writeable = False
    return a, b, w


def bootstrap_median_ci(draws: np.ndarray, level: float = CI_LEVEL) -> BootstrapCI:
    """Exact percentile bootstrap interval of the median: the smallest resample medians whose
    cumulative probability reaches (1 -/+ level) / 2, widened if need be to bracket the median."""
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.size < MIN_RETAINED_DRAWS:
        raise ValueError(f"need at least {MIN_RETAINED_DRAWS} draws, got {draws.size}")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    ordered = np.sort(draws)
    a, b, w = median_rank_weights(draws.size)
    values = (ordered[a] + ordered[b]) / 2
    order = np.argsort(values)
    ends = np.searchsorted(np.cumsum(w[order]), [(1.0 - level) / 2, (1.0 + level) / 2])
    lo, hi = values[order[np.minimum(ends, order.size - 1)]]
    point = float(np.median(draws))
    return BootstrapCI(point, min(float(lo), point), max(float(hi), point), level)


def ensemble_bootstrap_cis(ensemble: PosteriorEnsemble) -> dict:
    """A report's CIs: level, and per-step [lower, upper] in physical units for each group of
    the ensemble."""
    intervals = {}
    for g, name in enumerate(ensemble.descriptors):
        draws_g = ensemble.beta[:, :, g] / ensemble.scales[None, :, g]
        intervals[name] = [[ci.lower, ci.upper] for ci in map(bootstrap_median_ci, draws_g.T)]
    return {"level": CI_LEVEL, "intervals": intervals}

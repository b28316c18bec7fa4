"""Exact percentile-bootstrap confidence intervals for posterior-median coefficients.

The bootstrap law of a median depends only on ranks (Maritz & Jarrett 1978;
Efron 1982), so an interval is one sort of the draws and a weighted quantile,
with no resamples and no seed.  The draws are treated as iid, as in the paper.
The binomial law behind the weights is written in numpy and the math module.
Its log pmf is `scipy.stats.binom.logpmf` bit for bit: Cephes' `lgam` and
`log1p` (Moshier 1989), as `scipy.special.gammaln` and `xlog1py` evaluate them,
and the C library's `log`, as `xlogy` calls it.  Its CDF, on the grid of rank
probabilities j/n only, sums the pmf's terms outward from the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


# Cephes' lgam: a rational fit B/C of log Gamma on [2, 3], Stirling's series A above 13.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
           -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
           -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6)
_LOG_SQRT_2PI = 0.91893853320467274178
# Cephes' log1p: log(1 + x) = x - x^2/2 + x^3 LP(x)/LQ(x) for 1/sqrt(2) <= 1 + x <= sqrt(2).
_LOG1P_P = (4.5270000862445199635215E-5, 4.9854102823193375972212E-1, 6.5787325942061044846969E0,
            2.9911919328553073277375E1, 6.0949667980987787057556E1, 5.7112963590585538103336E1,
            2.0039553499201281259648E1)
_LOG1P_Q = (1.5062909083469192043167E1, 8.3047565967967209469434E1, 2.2176239823732856465394E2,
            3.0909872225312059774938E2, 2.1642788614495947685003E2, 6.0118660497603843919306E1)


def _polevl(x: float, coefficients) -> float:
    """Horner's rule, highest power first (Cephes' polevl)."""
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _p1evl(x: float, coefficients) -> float:
    """Horner's rule with an implicit leading coefficient 1 (Cephes' p1evl)."""
    value = x + coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _log(x: float) -> float:
    """The C library's log(x), with log(0) = -inf and NaN below 0, where `math.log` raises."""
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


def _lgam(x: float) -> float:
    """log Gamma(x) for x > 0, bit for bit `scipy.special.gammaln(x)` (Cephes' lgam)."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _log1p(x: float) -> float:
    """log(1 + x) for x >= -1, bit for bit `scipy.special.xlog1py(1, x)` (Cephes' log1p)."""
    z = 1.0 + x
    if z < math.sqrt(0.5) or z > math.sqrt(2.0):
        return _log(z)
    z = x * x
    z = -0.5 * z + x * (z * _polevl(x, _LOG1P_P) / _p1evl(x, _LOG1P_Q))
    return x + z


def _binom_cdf(k: int, n: int, p: np.ndarray) -> np.ndarray:
    """P(Binomial(n, p) <= k) for each p on the grid j/n, j = 0..n, within about 4e-15 of
    `scipy.stats.binom.cdf(k, n, p)`.

    The law at p = j/n has its mode at j.  Its terms run outward from the mode, 1 there, by
    the exact ratio pmf(i+1)/pmf(i) = ((n-i) j) / ((i+1) (n-j)) and are normalized by their
    total; the smaller tail is summed directly and the CDF is it or one minus it.  A term
    more than `width` from the mode is below 1e-40 of the mode's (Hoeffding's inequality,
    with pmf(mode) >= 1/(n+1)) and is left out, so a law whose mode is that far from k has
    CDF 0 or 1.  The others are evaluated a block of j at a time."""
    p = np.asarray(p, dtype=float)
    j = np.rint(p * n)
    if not np.array_equal(j / n, p):
        raise ValueError(f"p must lie on the grid j/{n}, j = 0..{n}")
    width = min(n, math.ceil(math.sqrt(n / 2 * (math.log(n + 1) + 40 * math.log(10)))))
    d = np.arange(width, dtype=float)[:, None]

    def ratios(a, b):
        """The ratio of the term d + 1 steps from the mode to the one d steps from it, up
        from the mode for (a, b) = (j, n - j) and down from it for (n - j, j)."""
        r = np.maximum(b - d, 0.0)
        r *= a
        r /= (a + 1 + d) * b
        return r

    table = (np.arange(n + 1) <= k).astype(float)
    offsets = np.arange(-width, width + 1.0)[:, None]  # each term's i - j
    first, last = max(1, k - width + 1), min(n - 1, k + width)
    columns = max(1, 2**15 // (2 * width + 1))
    for start in range(first, last + 1, columns):
        a = np.arange(start, min(start + columns, last + 1), dtype=float)
        terms = np.empty((2 * width + 1, a.size))
        terms[width] = 1.0
        np.cumprod(ratios(a, n - a), axis=0, out=terms[width + 1:])
        np.cumprod(ratios(n - a, a), axis=0, out=terms[width - 1::-1])
        low = offsets <= k - a
        lower = np.where(low, terms, 0.0).sum(axis=0)
        upper = np.where(low, 0.0, terms).sum(axis=0)
        total = lower + upper
        table[start:start + a.size] = np.where(lower <= upper, lower / total,
                                               1.0 - upper / total)
    return table[j.astype(np.intp)]


def _binom_logpmf(k: int, n: int, p: np.ndarray) -> np.ndarray:
    """log P(Binomial(n, p) = k), bit for bit `scipy.stats.binom.logpmf(k, n, p)`: its
    gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1)) + xlogy(k, p) + xlog1py(n - k, -p)."""
    p = np.asarray(p, dtype=float)
    flat = p.ravel().tolist()
    # xlogy and xlog1py take 0 * log(.) as 0 unless the argument is NaN (v != v)
    log_p = np.array([0.0 if k == 0 and v == v else k * _log(v) for v in flat])
    log_q = np.array([0.0 if n - k == 0 and v == v else (n - k) * _log1p(-v) for v in flat])
    log_choose = _lgam(n + 1) - (_lgam(k + 1) + _lgam(n - k + 1))
    return (log_choose + log_p + log_q).reshape(p.shape)


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

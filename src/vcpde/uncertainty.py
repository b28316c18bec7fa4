"""Bootstrap confidence intervals for posterior-median coefficients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gibbs import MIN_RETAINED_DRAWS, PosteriorEnsemble, posterior_median

MIN_RESAMPLES = 200
# level and resample count of the intervals a report carries
CI_LEVEL = 0.95
CI_RESAMPLES = 1000


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile bootstrap confidence interval for a median estimator."""

    point: float
    lower: float
    upper: float
    level: float
    n_resamples: int
    seed: int

    def __post_init__(self):
        if not self.lower <= self.point <= self.upper:
            raise ValueError("confidence interval must bracket the point estimate")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def bootstrap_median_ci(
    draws: np.ndarray,
    level: float = CI_LEVEL,
    n_resamples: int = CI_RESAMPLES,
    seed: int = 0,
) -> BootstrapCI:
    """Resample with replacement, re-take the median, read off percentiles."""
    draws = np.asarray(draws, dtype=float).ravel()
    if draws.size < MIN_RETAINED_DRAWS:
        raise ValueError(f"need at least {MIN_RETAINED_DRAWS} draws, got {draws.size}")
    if n_resamples < MIN_RESAMPLES:
        raise ValueError(f"need at least {MIN_RESAMPLES} resamples")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, draws.size, size=(n_resamples, draws.size))
    medians = np.median(draws[idx], axis=1)
    lo, hi = np.percentile(medians, [50.0 * (1.0 - level), 50.0 * (1.0 + level)])
    point = float(np.median(draws))
    return BootstrapCI(
        point=point,
        lower=min(float(lo), point),
        upper=max(float(hi), point),
        level=level,
        n_resamples=n_resamples,
        seed=seed,
    )


def coefficient_seed(base_seed: int, group: int, step: int) -> int:
    """Deterministic per-coefficient seed for parallel resampling."""
    return int(np.random.SeedSequence((base_seed, group, step)).generate_state(1)[0])


def ensemble_bootstrap_cis(ensemble: PosteriorEnsemble, base_seed: int = 0) -> dict:
    """Bootstrap CIs, in physical units, for every coefficient of every active group."""
    med = posterior_median(ensemble)
    out: dict = {}
    for g in np.flatnonzero(med.active):
        name = ensemble.descriptors[g]
        draws_g = ensemble.beta[:, :, g] / ensemble.scales[None, :, g]
        out[name] = [
            bootstrap_median_ci(draws_g[:, i], seed=coefficient_seed(base_seed, int(g), i))
            for i in range(draws_g.shape[1])
        ]
    return out

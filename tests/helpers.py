"""Dense, least-squares and Monte Carlo oracles that the tests check the package against."""

import numpy as np

from vcpde.gibbs import PosteriorEnsemble
from vcpde.library import GroupedLinearSystem


def dense(system: GroupedLinearSystem) -> np.ndarray:
    """Materialize the block-diagonal design, (m * n, m * G)."""
    m, n, g = system.blocks.shape
    out = np.zeros((m * n, m * g))
    for i in range(m):
        out[i * n : (i + 1) * n, i * g : (i + 1) * g] = system.blocks[i]
    return out


def lstsq_trajectories(system: GroupedLinearSystem) -> np.ndarray:
    """Per-step least squares, returned in the system's own column scaling (m, G)."""
    m = system.n_steps
    beta = np.empty((m, system.n_groups))
    for i in range(m):
        beta[i], *_ = np.linalg.lstsq(system.blocks[i], system.target[i], rcond=None)
    return beta


def posterior_variance(ensemble: PosteriorEnsemble) -> np.ndarray:
    """Unbiased per-coefficient sample variance of the retained draws, physical units."""
    return np.var(ensemble.beta, axis=0, ddof=1) / ensemble.scales**2


def monte_carlo_median_ci(draws: np.ndarray, level: float, n_resamples: int,
                          seed: int) -> tuple[float, float]:
    """Percentile bootstrap interval of the median from `n_resamples` seeded resamples."""
    draws = np.asarray(draws, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    medians = []
    for start in range(0, n_resamples, 1000):  # 1000 resamples at a time bounds the memory
        idx = rng.integers(0, draws.size, size=(min(1000, n_resamples - start), draws.size))
        medians.append(np.median(draws[idx], axis=1))
    lo, hi = np.percentile(np.concatenate(medians), [50.0 * (1.0 - level), 50.0 * (1.0 + level)])
    return float(lo), float(hi)

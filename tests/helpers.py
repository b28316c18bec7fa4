"""Dense and least-squares oracles that the tests check the package against."""

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

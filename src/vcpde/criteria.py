"""The selection criteria: group RMS, group error bar, total error bar, AIC loss.

Groups are scored on normalized-scale coefficients.  RMS and the group error
bar decide which groups the thresholding loop removes; the AIC-inspired loss,
the total error bar and, when ground truth is available, the coefficient MSE
score a whole model.  This module depends on no method module, so every method
and the sweeps share one definition of each criterion.
"""

from __future__ import annotations

import numpy as np

from .library import CoefficientTrajectories, GroupedLinearSystem

EPSILON = 1e-6  # keeps the log finite at a perfect fit


class ZeroNormGroupError(ValueError):
    """The group is already excluded (zero norm); criteria do not apply."""


def rms_criterion(beta_g: np.ndarray) -> float:
    """Root mean square of one group's trajectory: ||beta_g|| / sqrt(m_g)."""
    beta_g = np.asarray(beta_g, dtype=float)
    if beta_g.size == 0:
        raise ValueError("empty group")
    return float(np.linalg.norm(beta_g) / np.sqrt(beta_g.size))


def group_error_bar(beta_g: np.ndarray, s2_g: np.ndarray) -> float:
    """Summed coefficient variances normalized by the group's squared norm."""
    beta_g = np.asarray(beta_g, dtype=float)
    s2_g = np.asarray(s2_g, dtype=float)
    norm_sq = float(beta_g @ beta_g)
    if norm_sq == 0.0:
        raise ZeroNormGroupError("zero-norm group is already excluded")
    return float(s2_g.sum() / norm_sq)


def total_error_bar(beta: np.ndarray, s2: np.ndarray) -> float:
    """Sum of group error bars over the nonzero groups; lower is more confident."""
    beta = np.asarray(beta, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if beta.shape != s2.shape:
        raise ValueError("beta and s2 shapes differ")
    total = 0.0
    for g in np.flatnonzero(~np.all(beta == 0.0, axis=0)):
        total += group_error_bar(beta[:, g], s2[:, g])
    return float(total)


def aic_loss(system: GroupedLinearSystem, beta: np.ndarray, k: int) -> float:
    """N * ln(mean squared residual of the fully normalized system + eps) + 2k.

    `beta` is in the normalized column scaling of `system`; the target is
    additionally scaled by its global L2 norm inside the loss only, k counts
    nonzero coefficients (active groups x steps), and N is the row count of
    the assembled system.
    """
    if beta.shape != (system.n_steps, system.n_groups):
        raise ValueError("beta shape does not match the system")
    n_obs = system.n_observations
    rss = system.residual_norm_sq(beta)
    yty = float((system.target**2).sum())
    return float(n_obs * np.log(rss / (yty * n_obs) + EPSILON) + 2 * k)


def coefficient_mse(estimated: CoefficientTrajectories, truth: CoefficientTrajectories) -> float:
    """Mean squared coefficient error over every (term, step) pair."""
    if estimated.descriptors != truth.descriptors:
        raise ValueError("term libraries differ between estimate and truth")
    if estimated.step_coords.shape != truth.step_coords.shape or not np.allclose(
        estimated.step_coords, truth.step_coords, rtol=0, atol=1e-9
    ):
        raise ValueError("step grids differ between estimate and truth")
    return float(np.mean((estimated.values - truth.values) ** 2))

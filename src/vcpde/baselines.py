"""Reference methods for comparison: sequential grouped threshold ridge
regression and group lasso by block coordinate descent.

Both reuse the block-diagonal per-step decomposition: ridge solves batch over
steps, and on the normalized system every group's Gram is the identity so the
group-lasso block update is the exact closed-form soft threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .criteria import rms_criterion
from .library import CoefficientTrajectories, GroupedLinearSystem, normalize_columns


@dataclass(frozen=True)
class SgtrConfig:
    """Ridge penalty, group-rms threshold and iteration cap."""

    threshold: float
    ridge: float = 1e-5
    max_iterations: int = 50
    normalize: bool = True

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.ridge < 0:
            raise ValueError("ridge penalty must be nonnegative")


@dataclass(frozen=True)
class GroupLassoConfig:
    """Penalty and block-coordinate-descent stopping rule."""

    lam: float
    tolerance: float = 1e-6
    max_sweeps: int = 10000

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def _ridge_fit(system: GroupedLinearSystem, active: np.ndarray, ridge: float) -> np.ndarray:
    """Batched per-step ridge solve on the active columns; (m, len(active))."""
    sub = system.subsystem(active)
    gram = sub.gram()
    cty = sub.design_target()
    k = active.size
    lhs = gram + ridge * np.eye(k)[None, :, :]
    try:
        return np.linalg.solve(lhs, cty[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular per-step Gram ({exc}); increase the ridge penalty above 0"
        ) from exc


def sgtr(system: GroupedLinearSystem, config: SgtrConfig) -> CoefficientTrajectories:
    """Per-step ridge fits with iterative group-rms thresholding to a fixed point."""
    if config.normalize and not system.normalized:
        system = normalize_columns(system)
    if not system.normalized:
        raise ValueError("sgtr requires a normalized system (or normalize=True)")

    n_groups = system.n_groups
    active = np.arange(n_groups)
    beta_active = _ridge_fit(system, active, config.ridge)
    for _ in range(config.max_iterations):
        rms = np.array([rms_criterion(beta_active[:, j]) for j in range(active.size)])
        keep = rms >= config.threshold
        if keep.all():
            break
        active = active[keep]
        if active.size == 0:
            break
        beta_active = _ridge_fit(system, active, config.ridge)

    values = np.zeros((system.n_steps, n_groups))
    mask = np.zeros(n_groups, dtype=bool)
    if active.size:
        values[:, active] = beta_active / system.scales[:, active]
        mask[active] = True
    return CoefficientTrajectories(
        values, mask, system.descriptors, system.step_coords, system.varying_axis
    )


@dataclass(frozen=True)
class GroupLassoResult:
    trajectories: CoefficientTrajectories
    beta_normalized: np.ndarray  # (n_steps, n_groups)
    objective_history: np.ndarray
    converged: bool
    n_sweeps: int


def group_lasso(system: GroupedLinearSystem, config: GroupLassoConfig) -> GroupLassoResult:
    """Minimize 0.5 ||y - X beta||^2 + lam * sum_g ||beta_g|| by block descent.

    On the normalized block-diagonal system each block minimization is exact:
    beta_g <- max(0, 1 - lam/||c_g||) c_g with c_g the group's residual
    correlation, so the objective never increases.
    """
    if not system.normalized:
        raise ValueError("group_lasso requires a column-normalized system")
    m, _, n_groups = system.blocks.shape
    gram = system.gram()
    cty = system.design_target()
    yty = float((system.target**2).sum())

    beta = np.zeros((m, n_groups))
    v_cache = np.zeros((m, n_groups))
    objective = []
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        max_change = 0.0
        for g in range(n_groups):
            c = cty[:, g] - v_cache[:, g] + beta[:, g]
            norm_c = float(np.linalg.norm(c))
            new = np.zeros(m) if norm_c <= config.lam else (1.0 - config.lam / norm_c) * c
            delta = new - beta[:, g]
            change = float(np.linalg.norm(delta))
            if change > 0.0:
                v_cache += gram[:, :, g] * delta[:, None]
                beta[:, g] = new
                max_change = max(max_change, change)
        rss = max(yty - 2.0 * float((beta * cty).sum()) + float((beta * v_cache).sum()), 0.0)
        penalty = config.lam * float(np.sqrt(np.einsum("mg,mg->g", beta, beta)).sum())
        objective.append(0.5 * rss + penalty)
        if max_change < config.tolerance:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"group lasso did not converge in {config.max_sweeps} sweeps", RuntimeWarning
        )

    active = ~np.all(beta == 0.0, axis=0)
    values = np.where(active[None, :], beta / system.scales, 0.0)
    trajectories = CoefficientTrajectories(
        values, active, system.descriptors, system.step_coords, system.varying_axis
    )
    return GroupLassoResult(trajectories, beta.copy(), np.asarray(objective), converged, sweeps)


def group_lasso_null_threshold(system: GroupedLinearSystem) -> float:
    """Smallest penalty that zeroes every group: max_g ||X_g^T y||."""
    if not system.normalized:
        raise ValueError("requires a normalized system")
    cty = system.design_target()
    return float(np.max(np.sqrt(np.einsum("mg,mg->g", cty, cty))))

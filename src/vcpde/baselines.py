"""Reference methods for comparison: sequential grouped threshold ridge
regression and group lasso.

Both reuse the block-diagonal per-step decomposition.  Ridge solves batch over
steps.  Group lasso starts from a batched ADMM solve, whose per-step linear
systems share one eigendecomposition of each step's Gram, and finishes with
block coordinate descent, which alone decides convergence.  A group's block
X_g^T X_g is the identity on the normalized system (each column has unit norm
and a group holds one column per step), so the descent's block update is the
exact closed-form group soft threshold.
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


# The ADMM start (Boyd et al. 2011).  Residual balancing (section 3.4.1) scales
# rho by ADMM_RHO_STEP whenever the primal and dual residuals differ by more than
# a factor ADMM_RHO_BALANCE; 3 took fewer iterations than the book's 10 on the
# KS, advection-diffusion and Burgers lambda paths.  ADMM stops once both
# residuals are at most ADMM_RTOL x lam.  The default lambda paths of those
# cells took at most 2,514 iterations, so ADMM_MAX_ITERATIONS is about twice
# that.  A start that has not met the rule by then is replaced by zero: with
# two groups at 1e-3 collinearity, one of them zero at the optimum, ADMM
# stalls splitting weight between them, and block descent from its last
# iterate stays unconverged after 100,000 sweeps where from zero it converges
# in 10 (`test_stalled_admm_start_falls_back_to_zero`).
ADMM_RHO_BALANCE = 3.0
ADMM_RHO_STEP = 2.0
ADMM_RTOL = 1e-8
ADMM_MAX_ITERATIONS = 5000


@dataclass(frozen=True)
class GroupLassoResult:
    trajectories: CoefficientTrajectories
    beta_normalized: np.ndarray  # (n_steps, n_groups)
    objective_history: np.ndarray  # one value per block-descent sweep
    converged: bool
    n_sweeps: int  # block-descent sweeps
    admm_iterations: int
    kkt_residual: float


def group_lasso(system: GroupedLinearSystem, config: GroupLassoConfig) -> GroupLassoResult:
    """Minimize 0.5 ||y - X beta||^2 + lam * sum_g ||beta_g|| on a normalized system.

    ADMM supplies the starting point (`_admm_start`).  Block coordinate descent
    then sweeps the groups from there: each block minimization is exact,
    beta_g <- max(0, 1 - lam/||c_g||) c_g with c_g the group's residual
    correlation, so the objective never increases.  The fit has converged when
    one sweep moves no group by `tolerance` or more; otherwise it stops after
    `max_sweeps` and warns.  `kkt_residual` certifies the result: its largest
    group stationarity violation relative to lam (`_kkt_residual`).
    """
    if not system.normalized:
        raise ValueError("group_lasso requires a column-normalized system")
    m, _, n_groups = system.blocks.shape
    gram = system.gram()
    cty = system.design_target()
    yty = float((system.target**2).sum())

    beta, admm_iterations = _admm_start(gram, cty, config.lam)
    v_cache = np.matmul(gram, beta[:, :, None])[:, :, 0]
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
    return GroupLassoResult(trajectories, beta.copy(), np.asarray(objective), converged, sweeps,
                            admm_iterations, _kkt_residual(system, beta, config.lam))


def _admm_start(gram: np.ndarray, cty: np.ndarray, lam: float) -> tuple[np.ndarray, int]:
    """Scaled-form ADMM on beta = z with residual-balancing rho; returns (start, iterations).

    The beta update solves (Gram_i + rho I) beta_i = X_i^T y_i + rho (z_i - u_i)
    for every step at once.  The inverses come from one eigendecomposition
    Gram_i = Q_i diag(w_i) Q_i^T, so a new rho costs a batched product, no
    factorization.  The z update is the group soft threshold at lam/rho, so
    the start z is exactly group-sparse; it is zero if ADMM did not converge.
    """
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvecs_t = eigvecs.transpose(0, 2, 1)

    def inverse(rho: float) -> np.ndarray:
        return np.matmul(eigvecs / (eigvals + rho)[:, None, :], eigvecs_t)

    rho = 1.0
    solve = inverse(rho)
    z = np.zeros_like(cty)
    u = np.zeros_like(cty)
    for iterations in range(1, ADMM_MAX_ITERATIONS + 1):
        beta = np.matmul(solve, (cty + rho * (z - u))[:, :, None])[:, :, 0]
        v = beta + u
        norms = np.sqrt(np.einsum("mg,mg->g", v, v))
        kappa = lam / rho
        z_new = v * (1.0 - kappa / np.maximum(norms, kappa))
        u = v - z_new
        primal = float(np.linalg.norm(beta - z_new))
        dual = rho * float(np.linalg.norm(z_new - z))
        z = z_new
        if max(primal, dual) <= ADMM_RTOL * lam:
            return z, iterations
        if primal > ADMM_RHO_BALANCE * dual:
            step = ADMM_RHO_STEP
        elif dual > ADMM_RHO_BALANCE * primal:
            step = 1.0 / ADMM_RHO_STEP
        else:
            continue
        rho *= step
        u /= step
        solve = inverse(rho)
    return np.zeros_like(cty), ADMM_MAX_ITERATIONS


def _kkt_residual(system: GroupedLinearSystem, beta: np.ndarray, lam: float) -> float:
    """Largest group stationarity violation of `beta` relative to lam.

    An active group contributes ||X_g^T r - lam beta_g/||beta_g|| || / lam, a
    zero group max(||X_g^T r|| - lam, 0) / lam, with r = y - X beta.
    """
    grad = np.einsum("mng,mn->mg", system.blocks, system.target - system.matvec(beta))
    norms = np.sqrt(np.einsum("mg,mg->g", beta, beta))
    active = norms > 0
    violation = np.maximum(np.sqrt(np.einsum("mg,mg->g", grad, grad)) - lam, 0.0)
    stationarity = grad[:, active] - lam * beta[:, active] / norms[active]
    violation[active] = np.sqrt(np.einsum("mg,mg->g", stationarity, stationarity))
    return float(violation.max() / lam)


def group_lasso_null_threshold(system: GroupedLinearSystem) -> float:
    """Smallest penalty that zeroes every group: max_g ||X_g^T y||."""
    if not system.normalized:
        raise ValueError("requires a normalized system")
    cty = system.design_target()
    return float(np.max(np.sqrt(np.einsum("mg,mg->g", cty, cty))))

"""Reference methods for comparison: sequential grouped threshold ridge
regression and group lasso.

Both reuse the block-diagonal per-step decomposition.  Ridge solves batch over
steps, and SGTR runs at several thresholds can share one memo of them: a
threshold grid solves each active set it reaches once, in the calling process,
since those few solves cost less than forking workers for the grid.  Group
lasso starts from a batched ADMM solve, whose per-step linear systems share
one eigendecomposition of each step's Gram; once ADMM's support has settled, a
Newton solve of the problem restricted to that support replaces ADMM's slow
linear tail.  It finishes with block coordinate descent, which alone decides
convergence.  A group's block X_g^T X_g is the identity on the normalized
system (each column has unit norm and a group holds one column per step), so
the descent's block update is the exact closed-form group soft threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .criteria import rms_criterion
from .library import CoefficientTrajectories, GroupedLinearSystem

@dataclass(frozen=True)
class SgtrConfig:
    """Group-rms threshold and ridge penalty."""

    threshold: float | None = None  # None: `selection.fit` chooses it by loss on a grid
    ridge: float = 1e-5

    def __post_init__(self):
        # negated comparisons, so that NaN fails them too
        if self.threshold is not None and not 0 < self.threshold < np.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge penalty must be nonnegative and finite, got {self.ridge}")


@dataclass(frozen=True)
class GroupLassoConfig:
    """Penalty and block-coordinate-descent tolerance (`group_lasso` stops after MAX_SWEEPS)."""

    lam: float | None = None  # None: `selection.fit` chooses it by loss on a grid
    tolerance: float = 1e-6

    def __post_init__(self):
        # negated comparisons, so that NaN fails them too
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


def _ridge_fit(system: GroupedLinearSystem, active: np.ndarray, ridge: float) -> np.ndarray:
    """Batched per-step ridge solve on the active columns; (m, len(active))."""
    gram, cty = system.group_products(active)
    k = active.size
    lhs = gram + ridge * np.eye(k)[None, :, :]
    try:
        return np.linalg.solve(lhs, cty[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular per-step Gram ({exc}); increase the ridge penalty above 0"
        ) from exc


def sgtr(system: GroupedLinearSystem, config: SgtrConfig,
         fits: dict | None = None) -> CoefficientTrajectories:
    """Per-step ridge fits with iterative group-rms thresholding to a fixed point, on a
    normalized system.

    Each refit that does not stop removes at least one group, so the loop ends within
    n_groups refits.  `fits` memoizes each ridge fit and its group rms values, keyed by
    (active groups, ridge): SGTR runs at several thresholds that share one memo solve each
    active set they reach once (`selection` passes one per threshold grid).  A fit that
    raises is not memoized, so every run that reaches it raises its own error.
    """
    if config.threshold is None:
        raise ValueError("sgtr needs a threshold: selection.fit chooses one left None")
    fits = {} if fits is None else fits
    active = np.arange(system.n_groups)
    while active.size:
        key = (tuple(active.tolist()), config.ridge)
        if key not in fits:
            beta = _ridge_fit(system, active, config.ridge)
            fits[key] = beta, np.array([rms_criterion(beta[:, j]) for j in range(active.size)])
        beta_active, rms = fits[key]
        keep = rms >= config.threshold
        if keep.all():
            break
        active = active[keep]

    beta = np.zeros((system.n_steps, system.n_groups))
    if active.size:
        beta[:, active] = beta_active
    return system.trajectories(beta)


# The ADMM start (Boyd et al. 2011).  Residual balancing (section 3.4.1) scales
# rho by ADMM_RHO_STEP whenever the primal and dual residuals differ by more than
# a factor ADMM_RHO_BALANCE; 3 took fewer iterations than the book's 10 on the
# KS, advection-diffusion and Burgers lambda paths.  ADMM converges linearly,
# but its support settles long before its residuals reach ADMM_RTOL x lam, so
# once max(primal, dual) is at most ADMM_POLISH_FROM x lam, and again at every
# further decade, the start is polished: the group lasso restricted to the
# support of z is solved exactly (`_polish`, the support polish of Stellato et
# al. 2020, OSQP, section 4).  A polished point is taken only if its KKT
# residual is at most ADMM_RTOL; otherwise ADMM goes on from where it stopped,
# and stops once both residuals are at most ADMM_RTOL x lam.  On the default
# lambda paths of the eight reproduce-paper cells and the benchmark's KS cell,
# every point took a polish, after at most 603 iterations (2,338 when ADMM ran
# to its own stop), so ADMM_MAX_ITERATIONS leaves room for points that never
# polish.  A start that has met neither rule by then is replaced by zero, and
# so is one whose residual has gone ADMM_STALL_ITERATIONS iterations without
# falling to a tenth of where it last did (on those paths the longest such run
# was 297 iterations): with two groups at 1e-3 collinearity, one of them zero
# at the optimum, ADMM stalls splitting weight between them after 18
# iterations, so every polish keeps the wrong group and fails, and block
# descent from ADMM's last iterate stays unconverged after 100,000 sweeps where
# from zero it converges in 10 (`test_stalled_admm_start_falls_back_to_zero`).
ADMM_RHO_BALANCE = 3.0
ADMM_RHO_STEP = 2.0
ADMM_RTOL = 1e-8
ADMM_POLISH_FROM = 1e-2
ADMM_MAX_ITERATIONS = 5000
ADMM_STALL_ITERATIONS = 1000
POLISH_NEWTON_STEPS = 20
POLISH_TOL = 1e-12  # Newton's stop: each active group's stationarity violation relative to lam
MAX_SWEEPS = 10000  # block-descent sweeps before `group_lasso` stops unconverged and warns


@dataclass(frozen=True)
class GroupLassoResult:
    trajectories: CoefficientTrajectories
    beta_normalized: np.ndarray  # (n_steps, n_groups)
    objective_history: np.ndarray  # one value per block-descent sweep
    converged: bool
    n_sweeps: int  # block-descent sweeps
    admm_iterations: int
    start: str  # the descent's start: "polished", "admm" or "zero" (see `_admm_start`)
    kkt_residual: float


def group_lasso(system: GroupedLinearSystem, config: GroupLassoConfig) -> GroupLassoResult:
    """Minimize 0.5 ||y - X beta||^2 + lam * sum_g ||beta_g|| on a normalized system.

    ADMM, polished on its support, supplies the starting point (`_admm_start`).
    Block coordinate descent then sweeps the groups from there: each block
    minimization is exact, beta_g <- max(0, 1 - lam/||c_g||) c_g with c_g the
    group's residual correlation, so the objective never increases.  The fit
    has converged when one sweep moves no group by `tolerance` or more;
    otherwise it stops after MAX_SWEEPS and warns.  `kkt_residual` certifies
    the result: its largest group stationarity violation relative to lam
    (`_kkt_residual`).
    """
    if config.lam is None:
        raise ValueError("group_lasso needs a penalty lam: selection.fit chooses one left None")
    m, _, n_groups = system.blocks.shape
    gram = system.gram()
    cty = system.design_target()
    yty = float((system.target**2).sum())

    beta, admm_iterations, start = _admm_start(gram, system.gram_eigh(), cty, config.lam)
    v_cache = np.matmul(gram, beta[:, :, None])[:, :, 0]
    objective = []
    converged = False
    for sweeps in range(1, MAX_SWEEPS + 1):
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
            f"group lasso did not converge in {MAX_SWEEPS} sweeps", RuntimeWarning
        )

    return GroupLassoResult(system.trajectories(beta), beta, np.asarray(objective), converged,
                            sweeps, admm_iterations, start,
                            _kkt_residual(gram, cty, beta, config.lam))


def _admm_start(gram: np.ndarray, gram_eigh: tuple[np.ndarray, np.ndarray], cty: np.ndarray,
                lam: float) -> tuple[np.ndarray, int, str]:
    """Scaled-form ADMM on beta = z with residual-balancing rho and support polishing.

    Returns (beta, iterations, start).  The beta update solves
    (Gram_i + rho I) beta_i = X_i^T y_i + rho (z_i - u_i) for every step at
    once.  The inverses come from the eigendecomposition
    Gram_i = Q_i diag(w_i) Q_i^T that the system computes once for its whole
    lambda path (`gram_eigh`), so a new rho costs a batched product, no
    factorization.  The z update is the group soft threshold at lam/rho, so z
    is exactly group-sparse.  beta is the first accepted polish of z (start
    "polished"), else z once ADMM meets its own stopping rule ("admm"), else
    zero ("zero") once ADMM stalls or reaches ADMM_MAX_ITERATIONS.
    """
    eigvals, eigvecs = gram_eigh
    eigvecs_t = eigvecs.transpose(0, 2, 1)

    def inverse(rho: float) -> np.ndarray:
        return np.matmul(eigvecs / (eigvals + rho)[:, None, :], eigvecs_t)

    rho = 1.0
    solve = inverse(rho)
    z = np.zeros_like(cty)
    u = np.zeros_like(cty)
    polish_at = ADMM_POLISH_FROM * lam
    next_decade, reached_at = np.inf, 0  # a tenth of the residual when it last got there
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
        residual = max(primal, dual)
        if residual <= ADMM_RTOL * lam:
            return z, iterations, "admm"
        if residual <= polish_at:
            polished = _polish(gram, cty, z, lam)
            if polished is not None:
                return polished, iterations, "polished"
            while polish_at >= residual:
                polish_at /= 10.0
        if residual <= next_decade:
            next_decade, reached_at = residual / 10.0, iterations
        elif iterations - reached_at >= ADMM_STALL_ITERATIONS:
            break
        if primal > ADMM_RHO_BALANCE * dual:
            step = ADMM_RHO_STEP
        elif dual > ADMM_RHO_BALANCE * primal:
            step = 1.0 / ADMM_RHO_STEP
        else:
            continue
        rho *= step
        u /= step
        solve = inverse(rho)
    return np.zeros_like(cty), iterations, "zero"


def _polish(gram: np.ndarray, cty: np.ndarray, z: np.ndarray, lam: float) -> np.ndarray | None:
    """The group lasso solved exactly on the support of `z`, or None if that fails KKT.

    On the support A the optimum satisfies, at every step i,
    (Gram_i,AA + lam diag(1/n)) beta_i = c_i,A with n_g = ||beta_g||, so the
    group norms n solve F(n) = ||beta_g(n)|| - n_g = 0.  Newton's method on F
    starts from the norms of z; its Jacobian needs
    d||beta_g||/dn_h = lam / (||beta_g|| n_h^2) sum_i beta_ig (M_i^-1)_gh beta_ih
    with M_i = Gram_i,AA + lam diag(1/n).  A step is cut so that no norm
    falls by more than half, which keeps n > 0.  The active groups' stationarity
    violation relative to lam is |F_g| / n_g, so Newton stops once that is
    at most POLISH_TOL.  The result, zero off A, is returned only if its
    `_kkt_residual` is at most ADMM_RTOL.
    """
    norms = np.sqrt(np.einsum("mg,mg->g", z, z))
    support = np.flatnonzero(norms)
    gram_aa = gram[:, support[:, None], support]
    c = cty[:, support, None]
    n = norms[support]
    eye = np.eye(support.size)
    for _ in range(POLISH_NEWTON_STEPS):
        inv = np.linalg.inv(gram_aa + lam * eye / n)
        beta_a = np.matmul(inv, c)[:, :, 0]
        beta_norms = np.sqrt(np.einsum("mg,mg->g", beta_a, beta_a))
        f = beta_norms - n
        if np.all(np.abs(f) <= POLISH_TOL * n) or not np.all(beta_norms > 0):
            break
        jac = np.einsum("mg,mgh,mh->gh", beta_a, inv, beta_a)
        jac *= lam / (beta_norms[:, None] * n[None, :] ** 2)
        try:
            step = np.linalg.solve(jac - eye, -f)
        except np.linalg.LinAlgError:
            return None
        shrinking = step < 0
        if shrinking.any():
            step *= min(1.0, 0.5 * float(np.min(n[shrinking] / -step[shrinking])))
        n = n + step
    beta = np.zeros_like(z)
    beta[:, support] = beta_a
    return beta if _kkt_residual(gram, cty, beta, lam) <= ADMM_RTOL else None


def _kkt_residual(gram: np.ndarray, cty: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Largest group stationarity violation of `beta` relative to lam.

    An active group contributes ||X_g^T r - lam beta_g/||beta_g|| || / lam, a
    zero group max(||X_g^T r|| - lam, 0) / lam, with X^T r = X^T y - Gram beta
    computed from the system's products.
    """
    grad = cty - np.matmul(gram, beta[:, :, None])[:, :, 0]
    norms = np.sqrt(np.einsum("mg,mg->g", beta, beta))
    active = norms > 0
    violation = np.maximum(np.sqrt(np.einsum("mg,mg->g", grad, grad)) - lam, 0.0)
    stationarity = grad[:, active] - lam * beta[:, active] / norms[active]
    violation[active] = np.sqrt(np.einsum("mg,mg->g", stationarity, stationarity))
    return float(violation.max() / lam)


def group_lasso_null_threshold(system: GroupedLinearSystem) -> float:
    """Smallest penalty that zeroes every group: max_g ||X_g^T y||."""
    cty = system.design_target()
    return float(np.max(np.sqrt(np.einsum("mg,mg->g", cty, cty))))

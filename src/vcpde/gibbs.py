"""Block Gibbs sampler for Bayesian group lasso with spike-and-slab priors.

The model, per group g of size m (one coefficient per step of the varying
axis):

    y | X, beta, sigma2          ~ N(X beta, sigma2 I)
    beta_g | sigma2, tau2_g      ~ (1 - pi0) N(0, sigma2 tau2_g I) + pi0 delta_0
    tau2_g                       ~ Gamma((m + 1)/2, lambda^2 / 2)
    sigma2                       ~ InverseGamma(alpha, gamma)
    pi0                          ~ Uniform(0, 1)  (when estimated)

On the normalized block-diagonal system every group's Gram matrix is exactly
the identity (columns of one group live on disjoint rows and have unit norm),
so all full conditionals reduce to scalar arithmetic per coefficient:

    beta_g | rest ~ l_g delta_0 + (1 - l_g) N(c_g / w, (sigma2 / w) I)

with w = 1 + 1/tau2_g, c_g = X_g^T (y - X beta_{-g}), and slab:spike odds
(1-pi0)/pi0 * (1 + tau2_g)^(-m/2) * exp(||c_g||^2 / (2 sigma2 w)).  The
remaining conditionals are inverse-Gaussian for 1/tau2_g (slab), the Gamma
prior for tau2_g (spike), inverse-gamma for sigma2 and a Beta law for pi0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .library import GroupedLinearSystem

ESTIMATE = "estimate"

MIN_RETAINED_DRAWS = 30

# Inverse-gamma (alpha, gamma) prior of the noise variance sigma2.
SIGMA2_PRIOR = (1e-2, 1e-2)


class SamplerError(RuntimeError):
    """The chain reached a numerically invalid state."""


@dataclass(frozen=True)
class BglssConfig:
    """Chain lengths and hyperparameter policy."""

    n_iterations: int = 1000
    n_burnin: int = 200
    lam: float = 1.0
    pi0: Union[float, str] = ESTIMATE
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_burnin < self.n_iterations:
            raise ValueError(f"n_burnin must be at least 0 and below n_iterations "
                             f"({self.n_iterations}), got {self.n_burnin}")
        if not 0 < self.lam < math.inf:  # also rejects NaN
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if isinstance(self.pi0, str):
            if self.pi0 != ESTIMATE:
                raise ValueError(f"pi0 must be a probability or {ESTIMATE!r}")
        elif not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("fixed pi0 must lie in [0, 1]")


@dataclass(frozen=True)
class PosteriorEnsemble:
    """Retained draws, in the normalized column scaling of the sampled system."""

    beta: np.ndarray  # (n_draws, n_steps, n_groups)
    tau2: np.ndarray  # (n_draws, n_groups)
    sigma2: np.ndarray  # (n_draws,)
    pi0: np.ndarray  # (n_draws,)
    spike: np.ndarray  # (n_draws, n_groups) bool
    scales: np.ndarray  # (n_steps, n_groups) column norms of the sampled system
    descriptors: tuple[str, ...]
    step_coords: np.ndarray
    varying_axis: str
    lam_used: float
    seed: int

    def __post_init__(self):
        zero_groups = ~np.any(self.beta, axis=1)  # no temporary the size of the draws
        if not np.array_equal(zero_groups, self.spike):
            raise ValueError("spike bookkeeping disagrees with exact-zero group draws")
        if np.any(self.sigma2 <= 0) or np.any(self.tau2 <= 0):
            raise ValueError("variance draws must be strictly positive")


def sample_posterior(system: GroupedLinearSystem, config: BglssConfig,
                     groups=None) -> PosteriorEnsemble:
    """Run the block Gibbs sampler on a normalized grouped system, on its groups `groups` alone
    (every group when None).  The draws are bit for bit those of a system of those groups'
    blocks alone, but no block is copied: the sampler reads `system.group_products(groups)`."""
    groups = np.arange(system.n_groups) if groups is None else np.asarray(groups, dtype=int)
    if groups.ndim != 1 or len(set(groups.tolist()) & set(range(system.n_groups))) != groups.size:
        raise ValueError(f"groups must be distinct indices below {system.n_groups}, got {groups}")
    return _run_chain(system, config, groups)


def _log_prior_odds(pi0: float) -> float:
    """log((1 - pi0) / pi0): +inf at pi0 = 0 and -inf at pi0 = 1."""
    if pi0 <= 0.0:
        return math.inf
    if pi0 >= 1.0:
        return -math.inf
    return float(np.log1p(-pi0) - np.log(pi0))


def _run_chain(system: GroupedLinearSystem, config: BglssConfig,
               groups: np.ndarray) -> PosteriorEnsemble:
    """One chain on the groups `groups` of `system`.  Its draws and random stream are
    bit-identical to those of the plain step-major kernel the tests keep as reference, run on
    a system of those groups' blocks alone: every value below is computed by the same
    floating-point operations, in the same order, only into buffers."""
    m, n = system.target.shape
    n_groups = groups.size
    gram, cty = system.group_products(groups)
    yty = float((system.target**2).sum())
    n_obs = m * n
    alpha_prior, gamma_prior = SIGMA2_PRIOR
    lam = float(config.lam)
    lam2 = lam**2
    estimate_pi0 = isinstance(config.pi0, str)

    # The group sweep keeps its state group-major, row g holding column g of the
    # step-major (m, G) arrays, so every read and write in it is contiguous:
    # gram_t[g, h, i] = Gram_i[h, g], cty_t = cty.T, beta_t = beta.T and v_t = v_cache.T,
    # with v_cache the per-step Gram_i @ beta_i.
    gram_t = np.ascontiguousarray(gram.transpose(2, 1, 0))
    cty_t = np.ascontiguousarray(cty.T)
    beta_t = np.zeros((n_groups, m))
    v_t = np.zeros((n_groups, m))

    rng = np.random.default_rng(config.seed)
    spike = np.ones(n_groups, dtype=bool)
    tau2 = np.ones(n_groups)
    sigma2 = max(float(system.target.var()), 1e-12)
    pi0 = 0.5 if estimate_pi0 else float(config.pi0)
    log_prior_odds = _log_prior_odds(pi0)

    n_keep = config.n_iterations - config.n_burnin
    kept_beta = np.empty((n_keep, m, n_groups))
    kept_tau2 = np.empty((n_keep, n_groups))
    kept_sigma2 = np.empty(n_keep)
    kept_pi0 = np.empty(n_keep)
    kept_spike = np.empty((n_keep, n_groups), dtype=bool)

    # buffers of the group update, and each group's rows of the group-major state
    c = np.empty(m)
    delta = np.empty(m)
    noise = np.empty(m)
    product_t = np.empty((n_groups, m))
    product = np.empty((m, n_groups))
    rows = list(enumerate(zip(gram_t, cty_t, beta_t, v_t)))

    for it in range(config.n_iterations):
        # tau2 and sigma2 hold still during the sweep.  np.log1p, as math.log1p
        # differs from it in the last bit on some inputs.
        tau2_list = tau2.tolist()
        log1p_tau2 = np.log1p(tau2).tolist()
        for g, (gram_g, cty_g, beta_g, v_g) in rows:
            np.subtract(cty_g, v_g, c)
            np.add(c, beta_g, c)
            w = 1.0 + 1.0 / tau2_list[g]
            log_odds = log_prior_odds - 0.5 * m * log1p_tau2[g] + c.dot(c) / (2.0 * sigma2 * w)
            try:
                p_spike = 1.0 / (1.0 + math.exp(log_odds))  # = expit(-log_odds)
            except OverflowError:  # log_odds above ~709.78, where expit(-log_odds) is 0
                p_spike = 0.0
            if rng.random() < p_spike:
                if spike[g]:
                    continue
                np.subtract(0.0, beta_g, delta)
                beta_g.fill(0.0)
                spike[g] = True
            else:
                np.divide(c, w, c)
                rng.standard_normal(out=noise)
                np.multiply(noise, math.sqrt(sigma2 / w), noise)
                np.add(c, noise, c)
                np.subtract(c, beta_g, delta)
                np.copyto(beta_g, c)
                spike[g] = False
            np.copyto(product_t, delta)
            np.multiply(product_t, gram_g, product_t)
            np.add(v_t, product_t, v_t)

        beta = np.ascontiguousarray(beta_t.T)
        active = (~spike).nonzero()[0]
        if active.size:
            # summed over the active columns only: indexing all columns' sums rounds differently
            beta_active = beta[:, active]
            norms_sq = np.einsum("mg,mg->g", beta_active, beta_active)
            mean_inv = lam * math.sqrt(sigma2) / np.maximum(np.sqrt(norms_sq), 1e-300)
            # one scalar draw per group takes the array call's stream without its argument checks
            for g, mean_g in zip(active.tolist(), mean_inv.tolist()):
                tau2[g] = 1.0 / max(rng.wald(mean_g, lam2), 1e-300)
        spiked = spike.nonzero()[0]
        if spiked.size:
            tau2[spiked] = rng.gamma((m + 1) / 2.0, 2.0 / lam2, size=spiked.size)

        # both sums run over C-ordered (m, G) products, the order the rss is defined in
        np.multiply(beta, cty, out=product)
        rss = yty - 2.0 * float(product.sum())
        np.multiply(beta, v_t.T, out=product)
        rss = max(rss + float(product.sum()), 0.0)
        shrink = float((norms_sq / tau2[active]).sum()) if active.size else 0.0
        shape = alpha_prior + 0.5 * n_obs + 0.5 * m * active.size
        rate = gamma_prior + 0.5 * rss + 0.5 * shrink
        sigma2 = 1.0 / rng.gamma(shape, 1.0 / rate)
        if not 0.0 < sigma2 < math.inf:
            raise SamplerError(f"sigma2 diverged at iteration {it}")

        if estimate_pi0:
            n_spike = n_groups - active.size
            pi0 = rng.beta(1.0 + n_spike, 1.0 + n_groups - n_spike)
            log_prior_odds = _log_prior_odds(pi0)

        k = it - config.n_burnin
        if k >= 0:
            kept_beta[k] = beta
            kept_tau2[k] = tau2
            kept_sigma2[k] = sigma2
            kept_pi0[k] = pi0
            kept_spike[k] = spike

    return PosteriorEnsemble(
        beta=kept_beta,
        tau2=kept_tau2,
        sigma2=kept_sigma2,
        pi0=kept_pi0,
        spike=kept_spike,
        scales=np.ascontiguousarray(system.scales[:, groups]),
        descriptors=tuple(system.descriptors[g] for g in groups),
        step_coords=system.step_coords,
        varying_axis=system.varying_axis,
        lam_used=lam,
        seed=config.seed,
    )


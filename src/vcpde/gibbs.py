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

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np
from scipy.special import expit

from .library import CoefficientTrajectories, GroupedLinearSystem

ESTIMATE_MC_EM = "estimate_mc_em"
ESTIMATE = "estimate"

MIN_RETAINED_DRAWS = 30

# Inverse-gamma (alpha, gamma) prior of the noise variance sigma2.
SIGMA2_PRIOR = (1e-2, 1e-2)

# Monte Carlo EM: chain length and burn-in of each round, the round cap and
# the relative change in lambda that counts as converged.
EM_ITERATIONS = 100
EM_BURNIN = 30
EM_MAX_ROUNDS = 20
EM_RTOL = 1e-3


class SamplerError(RuntimeError):
    """The chain reached a numerically invalid state."""


@dataclass(frozen=True)
class BglssConfig:
    """Chain lengths and hyperparameter policy."""

    n_iterations: int = 1000
    n_burnin: int = 200
    lam: Union[float, str] = 1.0  # or ESTIMATE_MC_EM, which run_tbglss resolves
    pi0: Union[float, str] = ESTIMATE
    seed: int = 0
    # diagnostic knobs: hold variance parameters fixed to validate the group
    # update against its analytic conditional
    fixed_tau2: float | None = None
    fixed_sigma2: float | None = None

    def __post_init__(self):
        if self.n_burnin >= self.n_iterations:
            raise ValueError("n_burnin must be smaller than n_iterations")
        if isinstance(self.lam, str):
            if self.lam != ESTIMATE_MC_EM:
                raise ValueError(f"lam must be positive or {ESTIMATE_MC_EM!r}")
        elif self.lam <= 0:
            raise ValueError("lam must be positive")
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
        zero_groups = np.all(self.beta == 0.0, axis=1)
        if not np.array_equal(zero_groups, self.spike):
            raise ValueError("spike bookkeeping disagrees with exact-zero group draws")
        if np.any(self.sigma2 <= 0) or np.any(self.tau2 <= 0):
            raise ValueError("variance draws must be strictly positive")

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]


def posterior_median(ensemble: PosteriorEnsemble) -> CoefficientTrajectories:
    """Per-coefficient sample median in physical units; spike-majority groups are exactly zero."""
    if ensemble.n_draws < MIN_RETAINED_DRAWS:
        raise ValueError(f"need at least {MIN_RETAINED_DRAWS} retained draws")
    med = np.median(ensemble.beta, axis=0) / ensemble.scales
    active = ~np.all(med == 0.0, axis=0)
    med[:, ~active] = 0.0
    return CoefficientTrajectories(
        med, active, ensemble.descriptors, ensemble.step_coords, ensemble.varying_axis
    )


def sample_posterior(system: GroupedLinearSystem, config: BglssConfig) -> PosteriorEnsemble:
    """Run the block Gibbs sampler on a normalized grouped system."""
    if not system.normalized:
        raise ValueError("sample_posterior requires a column-normalized system")
    if isinstance(config.lam, str):
        raise ValueError("sample_posterior needs a numeric lam; estimate_hyperparams estimates one")
    return _run_chain(system, config)


def _run_chain(
    system: GroupedLinearSystem, config: BglssConfig, pi0_init: float | None = None
) -> PosteriorEnsemble:
    m, n, n_groups = system.blocks.shape
    gram = system.gram()
    cty = system.design_target()
    yty = float((system.target**2).sum())
    n_obs = m * n
    alpha_prior, gamma_prior = SIGMA2_PRIOR
    lam = float(config.lam)
    estimate_pi0 = isinstance(config.pi0, str)

    rng = np.random.default_rng(config.seed)
    beta = np.zeros((m, n_groups))
    v_cache = np.zeros((m, n_groups))  # per step: Gram_i @ beta_i
    spike = np.ones(n_groups, dtype=bool)
    tau2 = np.full(n_groups, config.fixed_tau2 if config.fixed_tau2 is not None else 1.0)
    if config.fixed_sigma2 is not None:
        sigma2 = float(config.fixed_sigma2)
    else:
        sigma2 = max(float(system.target.var()), 1e-12)
    if estimate_pi0:
        pi0 = 0.5 if pi0_init is None else min(max(float(pi0_init), 1e-6), 1 - 1e-6)
    else:
        pi0 = float(config.pi0)

    n_keep = config.n_iterations - config.n_burnin
    kept_beta = np.empty((n_keep, m, n_groups))
    kept_tau2 = np.empty((n_keep, n_groups))
    kept_sigma2 = np.empty(n_keep)
    kept_pi0 = np.empty(n_keep)
    kept_spike = np.empty((n_keep, n_groups), dtype=bool)

    with np.errstate(divide="ignore"):
        log_prior_odds = np.log1p(-pi0) - np.log(pi0)

    for it in range(config.n_iterations):
        for g in range(n_groups):
            c = cty[:, g] - v_cache[:, g] + beta[:, g]
            w = 1.0 + 1.0 / tau2[g]
            log_odds = log_prior_odds - 0.5 * m * np.log1p(tau2[g]) + (c @ c) / (2.0 * sigma2 * w)
            p_spike = float(expit(-log_odds))
            if rng.random() < p_spike:
                new = np.zeros(m)
                now_spike = True
            else:
                new = c / w + np.sqrt(sigma2 / w) * rng.standard_normal(m)
                now_spike = False
            if not (now_spike and spike[g]):
                v_cache += gram[:, :, g] * (new - beta[:, g])[:, None]
                beta[:, g] = new
            spike[g] = now_spike

        if config.fixed_tau2 is None:
            active = np.flatnonzero(~spike)
            if active.size:
                norms = np.sqrt(np.einsum("mg,mg->g", beta[:, active], beta[:, active]))
                mean_inv = lam * np.sqrt(sigma2) / np.maximum(norms, 1e-300)
                inv_tau2 = rng.wald(mean_inv, lam**2)
                tau2[active] = 1.0 / np.maximum(inv_tau2, 1e-300)
            spiked = np.flatnonzero(spike)
            if spiked.size:
                tau2[spiked] = rng.gamma((m + 1) / 2.0, 2.0 / lam**2, size=spiked.size)

        rss = max(yty - 2.0 * float((beta * cty).sum()) + float((beta * v_cache).sum()), 0.0)
        if config.fixed_sigma2 is None:
            active = ~spike
            shrink = 0.0
            if active.any():
                norms_sq = np.einsum("mg,mg->g", beta[:, active], beta[:, active])
                shrink = float((norms_sq / tau2[active]).sum())
            shape = alpha_prior + 0.5 * n_obs + 0.5 * m * int(active.sum())
            rate = gamma_prior + 0.5 * rss + 0.5 * shrink
            sigma2 = 1.0 / rng.gamma(shape, 1.0 / rate)
            if not np.isfinite(sigma2) or sigma2 <= 0:
                raise SamplerError(f"sigma2 diverged at iteration {it}")

        if estimate_pi0:
            n_spike = int(spike.sum())
            pi0 = rng.beta(1.0 + n_spike, 1.0 + n_groups - n_spike)
            with np.errstate(divide="ignore"):
                log_prior_odds = np.log1p(-pi0) - np.log(pi0)

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
        scales=system.scales.copy(),
        descriptors=system.descriptors,
        step_coords=system.step_coords,
        varying_axis=system.varying_axis,
        lam_used=lam,
        seed=config.seed,
    )


def dump_ensemble(ensemble: PosteriorEnsemble, path, fmt: str = "npz") -> None:
    """Write the retained draws for external diagnostics (binary or CSV)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "npz":
        np.savez_compressed(
            path,
            beta=ensemble.beta,
            tau2=ensemble.tau2,
            sigma2=ensemble.sigma2,
            pi0=ensemble.pi0,
            spike=ensemble.spike,
            scales=ensemble.scales,
            step_coords=ensemble.step_coords,
            descriptors=np.array(ensemble.descriptors),
            lam_used=ensemble.lam_used,
            seed=ensemble.seed,
        )
        return
    if fmt == "csv":
        n, m, g = ensemble.beta.shape
        header = ["draw", "sigma2", "pi0"] + [
            f"{d}@{i}" for d in ensemble.descriptors for i in range(m)
        ]
        flat = ensemble.beta.transpose(0, 2, 1).reshape(n, m * g)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for k in range(n):
                row = [str(k), repr(float(ensemble.sigma2[k])), repr(float(ensemble.pi0[k]))]
                row += [repr(float(v)) for v in flat[k]]
                fh.write(",".join(row) + "\n")
        return
    raise ValueError("fmt must be 'npz' or 'csv'")


@dataclass(frozen=True)
class HyperparamEstimate:
    lam: float
    pi0: float
    converged: bool
    n_rounds: int


def estimate_hyperparams(system: GroupedLinearSystem, config: BglssConfig) -> HyperparamEstimate:
    """Monte Carlo EM for the group-lasso rate lambda plus the mixing weight pi0.

    Each round runs a short chain at the current lambda and applies the
    Gamma((m_g + 1)/2, lambda^2/2) stationarity update
    lambda^2 <- sum_g (m_g + 1) / sum_g E[tau2_g].
    """
    fixed_lam = not isinstance(config.lam, str)
    fixed_pi0 = not isinstance(config.pi0, str)
    if fixed_lam and fixed_pi0:
        return HyperparamEstimate(float(config.lam), float(config.pi0), True, 0)

    m = system.n_steps
    n_groups = system.n_groups
    lam = float(config.lam) if fixed_lam else 1.0
    pi0_hat = float(config.pi0) if fixed_pi0 else 0.5
    converged = False
    rounds = 0
    for rounds in range(1, EM_MAX_ROUNDS + 1):
        seed = int(np.random.SeedSequence((config.seed, 0xE3, rounds)).generate_state(1)[0])
        chain_cfg = replace(
            config, lam=lam, n_iterations=EM_ITERATIONS, n_burnin=EM_BURNIN, seed=seed
        )
        ens = _run_chain(system, chain_cfg, pi0_init=None if fixed_pi0 else pi0_hat)
        if not fixed_pi0:
            pi0_hat = float(ens.pi0.mean())
        if fixed_lam:
            converged = True
            break
        expected_tau2_total = float(ens.tau2.sum(axis=1).mean())
        new_lam = float(np.sqrt(n_groups * (m + 1) / expected_tau2_total))
        if abs(new_lam - lam) <= EM_RTOL * lam:
            lam = new_lam
            converged = True
            break
        lam = new_lam
    if not converged and not fixed_lam:
        warnings.warn(
            f"Monte Carlo EM did not converge in {EM_MAX_ROUNDS} rounds; using lambda={lam:g}",
            RuntimeWarning,
        )
    return HyperparamEstimate(lam, pi0_hat, converged, rounds)

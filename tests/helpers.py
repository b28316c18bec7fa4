"""Dense, subsystem, least-squares, Monte Carlo and reference-sampler oracles that the tests
check the package against, and a driver for the thresholding loop."""

from dataclasses import replace

import numpy as np
from scipy.special import expit

from vcpde import tbglss
from vcpde.gibbs import SIGMA2_PRIOR, BglssConfig, PosteriorEnsemble, SamplerError
from vcpde.library import GroupedLinearSystem


def dense(system: GroupedLinearSystem) -> np.ndarray:
    """Materialize the block-diagonal design, (m * n, m * G)."""
    m, n, g = system.blocks.shape
    out = np.zeros((m * n, m * g))
    for i in range(m):
        out[i * n : (i + 1) * n, i * g : (i + 1) * g] = system.blocks[i]
    return out


def subsystem(system: GroupedLinearSystem, indices) -> GroupedLinearSystem:
    """The groups `indices` of `system` as a system of their own: blocks, descriptors and
    scales indexed out of `system`'s.  It computes its own Gram and Theta^T y from those
    blocks, the independent computation that `system.group_products(indices)` must equal."""
    indices = np.asarray(indices, dtype=int)
    return replace(
        system,
        blocks=system.blocks[:, :, indices],
        descriptors=tuple(system.descriptors[i] for i in indices),
        scales=system.scales[:, indices],
    )


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


def reference_chain(system: GroupedLinearSystem, config: BglssConfig,
                    fixed_tau2: float | None = None,
                    fixed_sigma2: float | None = None) -> PosteriorEnsemble:
    """The block Gibbs sampler as first written, step-major with one temporary per operation:
    the oracle that `gibbs._run_chain` must match bit for bit, draws and RNG stream alike.

    `fixed_tau2` and `fixed_sigma2` hold those variances still instead of drawing them, so
    the group update can be checked against its analytic conditional."""
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
    tau2 = np.full(n_groups, fixed_tau2 if fixed_tau2 is not None else 1.0)
    if fixed_sigma2 is not None:
        sigma2 = float(fixed_sigma2)
    else:
        sigma2 = max(float(system.target.var()), 1e-12)
    pi0 = 0.5 if estimate_pi0 else float(config.pi0)

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

        if fixed_tau2 is None:
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
        if fixed_sigma2 is None:
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


def run_threshold_loop(system: GroupedLinearSystem, config: tbglss.TbglssConfig, chains: dict):
    """`tbglss.threshold_loop` run to its report here, each chain it asks for computed in this
    process and kept in the memo `chains`: `run_tbglss` with a memo that outlives the run."""
    loop = tbglss.threshold_loop(system, config, chains)
    try:
        request = next(loop)
        while True:
            request = loop.send(tbglss._chain(system, *request))
    except StopIteration as done:
        return done.value

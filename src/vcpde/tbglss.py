"""Sequential thresholding around the spike-and-slab group sampler.

Each update samples the posterior on the surviving groups, estimates the
coefficients by their posterior medians, and removes every group that fails an
active criterion: root-mean-square below t_rms (insignificant scale) or group
error bar above t_ge (not enough posterior confidence).  Groups whose median
is already exactly zero (spike-majority) go regardless of thresholds.  The
loop stops when an update removes nothing; that final update is re-run with a
long chain and its statistics are reported.

Criteria are evaluated on normalized-scale coefficients so thresholds stay
unitless across heterogeneous terms; reported trajectories and error bands are
mapped back to physical units.  `TbglssConfig` holds every setting the loop
reads; `selection.fit` runs it and scores the report like the baselines'.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .criteria import group_error_bar, rms_criterion, total_error_bar
from .gibbs import MIN_RETAINED_DRAWS, BglssConfig, PosteriorEnsemble, sample_posterior
from .library import CHUNK_STEPS, CoefficientTrajectories, GroupedLinearSystem
from .pool import drive
from .uncertainty import ensemble_bootstrap_cis


@dataclass(frozen=True)
class ThresholdSpec:
    """Removal thresholds; at least one criterion must be active."""

    t_rms: float | None = None
    t_ge: float | None = None

    def __post_init__(self):
        if self.t_rms is None and self.t_ge is None:
            raise ValueError("at least one threshold must be given")
        # negated comparisons, so that NaN fails them too (it would never remove a group)
        if self.t_rms is not None and not 0 <= self.t_rms < np.inf:
            raise ValueError(f"t_rms must be nonnegative and finite, got {self.t_rms}")
        if self.t_ge is not None and not 0 <= self.t_ge < np.inf:
            raise ValueError(f"t_ge must be nonnegative and finite, got {self.t_ge}")


@dataclass(frozen=True)
class TbglssConfig:
    """Everything the thresholding loop (`run_tbglss`) reads."""

    thresholds: ThresholdSpec
    bglss: BglssConfig = field(default_factory=BglssConfig)  # the final chain
    update_iterations: int = 200  # screening chains
    update_burnin: int = 50
    final_chains: int = 1
    with_ci: bool = False  # bootstrap intervals of the posterior medians in the report
    keep_final_ensemble: bool = False

    def __post_init__(self):
        if self.final_chains < 1:
            raise ValueError(f"final_chains must be at least 1, got {self.final_chains}")
        if not 0 <= self.update_burnin < self.update_iterations:
            raise ValueError(f"update_burnin must be at least 0 and below update_iterations "
                             f"({self.update_iterations}), got {self.update_burnin}")
        # a chain's summary takes the ddof=1 variance of its retained draws (`_summarize`)
        for fields, n_iterations, n_burnin in (
                ("update_iterations - update_burnin", self.update_iterations, self.update_burnin),
                ("bglss.n_iterations - bglss.n_burnin", self.bglss.n_iterations,
                 self.bglss.n_burnin)):
            if n_iterations - n_burnin < 2:
                raise ValueError(f"a chain keeps at least 2 retained draws: {fields} is "
                                 f"{n_iterations} - {n_burnin}")
        if self.with_ci and self.bglss.n_iterations - self.bglss.n_burnin < MIN_RETAINED_DRAWS:
            raise ValueError(f"with_ci bootstraps at least {MIN_RETAINED_DRAWS} retained draws: "
                             f"bglss.n_iterations - bglss.n_burnin is "
                             f"{self.bglss.n_iterations} - {self.bglss.n_burnin}")


@dataclass(frozen=True)
class UpdateRecord:
    """One committed thresholding update."""

    support_before: tuple[str, ...]
    removed: tuple[str, ...]
    criteria: dict  # descriptor -> {"rms": float, "group_error_bar": float | None}
    n_iterations: int


@dataclass(frozen=True)
class DiscoveryReport:
    """Everything one run produced, plus the provenance to reproduce it."""

    trajectories: CoefficientTrajectories  # physical units, full library width
    stdev: np.ndarray  # (n_steps, n_groups) physical posterior stdevs, 0 for excluded
    method: str
    hyperparameters: dict
    # final normalized rms / group error bar per surviving descriptor
    criteria: dict = field(default_factory=dict)
    update_history: tuple[UpdateRecord, ...] = ()
    thresholds: ThresholdSpec | None = None
    total_error_bar: float | None = None
    loss: float | None = None
    provenance: dict = field(default_factory=dict)
    chain_medians: np.ndarray | None = None  # (n_chains, n_steps, n_groups), multi-chain mode
    bootstrap_cis: dict | None = None  # level, and descriptor -> per-step [low, high]
    final_ensemble: PosteriorEnsemble | None = field(default=None, repr=False, compare=False)
    # (n_steps, n_groups) coefficients in the system's normalized scaling, the ones the loss scores
    beta_normalized: np.ndarray | None = field(default=None, repr=False, compare=False)
    # why the fit has no loss although it has a model, e.g. an unconverged solver;
    # a sweep records it as the point's error
    unscored: str | None = None

    @property
    def selected(self) -> tuple[str, ...]:
        return self.trajectories.selected

    @property
    def empty_model(self) -> bool:
        return not self.trajectories.active.any()

    @property
    def n_updates(self) -> int:
        return len(self.update_history)

    def rendered_equation(self) -> str:
        """Human-readable form like 'u_t = a_1(t)*u*u_x + a_2(t)*u_xx'."""
        if not self.selected:
            return "u_t = 0  (no terms selected)"
        arg = "t" if self.trajectories.varying_axis == "time" else "x"
        parts = [f"a_{i + 1}({arg})*{d}" for i, d in enumerate(self.selected)]
        return "u_t = " + " + ".join(parts)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "selected": list(self.selected),
            "equation": self.rendered_equation(),
            "empty_model": self.empty_model,
            "varying_axis": self.trajectories.varying_axis,
            "descriptors": list(self.trajectories.descriptors),
            "step_coords": self.trajectories.step_coords.tolist(),
            "trajectories": self.trajectories.values.tolist(),
            "stdev": self.stdev.tolist(),
            "criteria": self.criteria,
            "loss": self.loss,
            "total_error_bar": self.total_error_bar,
            "thresholds": None if self.thresholds is None else asdict(self.thresholds),
            # direction convention: rms removes below its threshold, the group
            # error bar removes above (uncertainty: larger is worse)
            "threshold_convention": {"rms": "remove_below", "group_error_bar": "remove_above"},
            "bootstrap_cis": self.bootstrap_cis,
            "update_history": [asdict(u) for u in self.update_history],
            "hyperparameters": self.hyperparameters,
            "provenance": self.provenance,
            "chain_medians": None if self.chain_medians is None else self.chain_medians.tolist(),
        }


def _evaluate_criteria(
    median: np.ndarray, variance: np.ndarray, descriptors: tuple[str, ...], thresholds: ThresholdSpec
) -> tuple[dict, list[int]]:
    """Normalized-scale criteria per group and the indices failing any of them."""
    criteria: dict = {}
    failing: list[int] = []
    for g, name in enumerate(descriptors):
        rms = rms_criterion(median[:, g])
        if rms == 0.0:
            criteria[name] = {"rms": 0.0, "group_error_bar": None, "median_zero": True}
            failing.append(g)
            continue
        ge = group_error_bar(median[:, g], variance[:, g])
        criteria[name] = {"rms": rms, "group_error_bar": ge, "median_zero": False}
        fails = False
        if thresholds.t_rms is not None and rms < thresholds.t_rms:
            fails = True
        if thresholds.t_ge is not None and ge > thresholds.t_ge:
            fails = True
        if fails:
            failing.append(g)
    return criteria, failing


@dataclass(frozen=True)
class ChainSummary:
    """What the loop keeps of one chain: its normalized posterior median and variance (read-only),
    and the draws only when the run reports them."""

    median: np.ndarray  # (n_steps, n_active)
    variance: np.ndarray  # (n_steps, n_active), ddof=1
    ensemble: PosteriorEnsemble | None = None

    def __post_init__(self):
        self.median.flags.writeable = self.variance.flags.writeable = False

    def __reduce__(self):
        # through the constructor, so a summary a sweep's worker sends back stays read-only
        return ChainSummary, (self.median, self.variance, self.ensemble)


def _chain(system: GroupedLinearSystem, key: tuple) -> ChainSummary:
    """The `ChainSummary` of the chain `key` = (support, config, keep_draws) names on `system`:
    its draws depend only on the system, the support and the config; it keeps them if asked."""
    support, config, keep_draws = key
    ensemble = sample_posterior(system, config, support)
    return ChainSummary(*_summarize(ensemble.beta), ensemble if keep_draws else None)


def _median(draws: np.ndarray) -> np.ndarray:
    """`np.median(draws, axis=0)` bit for bit, for finite draws, from one partition.

    np.median partitions at both middle ranks and averages them with
    `np.mean`, which sums from 0.0 (so a -0.0 median reads 0.0).  The lower
    middle rank is the largest value below the upper one, so one partition
    and a max over the lower half give the same operands and the same sum.
    """
    half = draws.shape[0] // 2
    part = np.partition(draws, half, axis=0)
    if draws.shape[0] % 2:
        return 0.0 + part[half]
    return (0.0 + part[:half].max(axis=0) + part[half]) / 2


def _summarize(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-coefficient median and ddof=1 variance of draws (n_draws, n_steps, k), read-only.

    Each step's statistics take the same arithmetic whole or in chunks, so
    CHUNK_STEPS steps at a time gives the same bits without temporaries the
    size of all the draws.  A chunk with a non-finite draw has a non-finite
    variance and takes `np.median` itself, which is NaN wherever a draw is.
    """
    median = np.empty(beta.shape[1:])
    variance = np.empty(beta.shape[1:])
    for start in range(0, beta.shape[1], CHUNK_STEPS):
        steps = slice(start, start + CHUNK_STEPS)
        variance[steps] = np.var(beta[:, steps], axis=0, ddof=1)
        finite = np.isfinite(variance[steps]).all()
        median[steps] = _median(beta[:, steps]) if finite else np.median(beta[:, steps], axis=0)
    median.flags.writeable = variance.flags.writeable = False
    return median, variance


def run_tbglss(system: GroupedLinearSystem, config: TbglssConfig) -> DiscoveryReport:
    """Threshold the spike-and-slab sampler until the sparsity pattern is stable.

    `config.bglss` describes the final (reported) chain; intermediate screening
    updates use the shorter `config.update_iterations`/`config.update_burnin` chain.
    When a screening update removes nothing, the same support is re-run at the
    final length; only that confirmed update is committed, so every committed
    update except the last removes at least one group.  The report's loss is
    left to `selection.fit`, which scores every method alike.  `threshold_loop`
    is the one loop `pool.drive` runs, so each chain is sampled in this process;
    its seed derives from its update, so none repeats.
    """
    return drive([threshold_loop(system, config)], partial(_chain, system))[0]


def threshold_loop(system: GroupedLinearSystem, config: TbglssConfig):
    """`run_tbglss` as a loop for `pool.drive`, which does the sampling.

    For each chain it yields the chain's key and expects `_chain(system, key)`
    sent back; it returns the report.  Only the confirming chain keeps its
    draws, and only for `with_ci` or `keep_final_ensemble`, which
    `selection.sweep` rejects: a sweep drives many such loops on one system,
    so each distinct key is sampled once.
    """
    bglss = config.bglss
    hyper = {"pi0": bglss.pi0, "lam": float(bglss.lam), "final_iterations": bglss.n_iterations,
             "final_burnin": bglss.n_burnin, "update_iterations": config.update_iterations,
             "update_burnin": config.update_burnin}

    active = np.arange(system.n_groups)
    history: list[UpdateRecord] = []
    update_idx = 0
    long_run = False
    keep_draws = config.keep_final_ensemble or config.with_ci

    while active.size:
        n_it, n_burn = ((bglss.n_iterations, bglss.n_burnin) if long_run
                        else (config.update_iterations, config.update_burnin))
        seed = int(np.random.SeedSequence((bglss.seed, update_idx)).generate_state(1)[0])
        chain_config = replace(bglss, n_iterations=n_it, n_burnin=n_burn, seed=seed)
        summary = yield (tuple(active.tolist()), chain_config, keep_draws and long_run)
        descriptors = tuple(system.descriptors[g] for g in active)
        criteria, failing = _evaluate_criteria(summary.median, summary.variance, descriptors,
                                               config.thresholds)
        update_idx += 1
        if failing:
            removed = tuple(descriptors[g] for g in failing)
            history.append(UpdateRecord(descriptors, removed, criteria, n_it))
            keep = np.setdiff1d(np.arange(active.size), failing)
            active = active[keep]
            long_run = False
            continue
        if long_run:
            history.append(UpdateRecord(descriptors, (), criteria, n_it))
            break
        # screening update stabilized: confirm with the long chain on the same support
        long_run = True

    # The loop stops on a support only once a final-length update removed nothing, and every
    # group whose median is all zero fails, so each group left in `active` has a nonzero median
    # and `system.trajectories` keeps it.
    shape = (system.n_steps, system.n_groups)
    stdev, beta_full_norm = np.zeros(shape), np.zeros(shape)
    final_criteria: dict = {}
    chain_medians = total_eb = ensemble = None

    if active.size:
        ensemble = summary.ensemble
        sub_scales = system.scales[:, active]
        stdev[:, active] = np.sqrt(summary.variance) / sub_scales
        beta_full_norm[:, active] = summary.median
        final_criteria = history[-1].criteria
        # on the columns `final_criteria` scored, so it sums their group error bars bit for bit
        total_eb = total_error_bar(summary.median, summary.variance)

        if config.final_chains > 1:
            medians = [summary.median]
            for c in range(1, config.final_chains):
                seed = int(
                    np.random.SeedSequence((bglss.seed, update_idx, c)).generate_state(1)[0]
                )
                extra = yield (tuple(active.tolist()), replace(bglss, seed=seed), False)
                medians.append(extra.median)
            chain_medians = np.zeros((config.final_chains, *shape))
            chain_medians[:, :, active] = np.stack(medians) / sub_scales

    return DiscoveryReport(
        trajectories=system.trajectories(beta_full_norm),
        stdev=stdev,
        criteria=final_criteria,
        total_error_bar=total_eb,
        update_history=tuple(history),
        thresholds=config.thresholds,
        method="tbglss",
        hyperparameters=hyper,
        provenance={"seed": bglss.seed},
        chain_medians=chain_medians,
        bootstrap_cis=ensemble_bootstrap_cis(ensemble) if config.with_ci and ensemble is not None
        else None,
        final_ensemble=ensemble if config.keep_final_ensemble else None,
        beta_normalized=beta_full_norm,
    )

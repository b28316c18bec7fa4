"""One method dispatch, and the parameter sweeps built on it.

Each method has its own config type (`METHODS`), and the type says which
method runs.  `fit` runs tbglss, SGTR or group lasso on a grouped system and
scores the result with the AIC-inspired loss; a baseline's parameter left None
is chosen by the lowest loss over its default grid.  `sweep` fits once per
value of one parameter and records every criterion (see `criteria`), keeping
each point's report so a parameter chosen on a grid needs no second fit.  Every
point is a loop on `pool.drive`: a tbglss or lambda sweep runs its tasks on
worker processes forked from this one, one per CPU it may use and at most one
per point, while an SGTR point asks for no task and fits in this process,
sharing the sweep's ridge fits and losses with the other thresholds, so an
SGTR sweep forks nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .baselines import GroupLassoConfig, SgtrConfig, group_lasso, group_lasso_null_threshold, sgtr
from .criteria import aic_loss, coefficient_mse
from .gibbs import SamplerError
from .library import CoefficientTrajectories, GroupedLinearSystem
from .pool import drive
from .tbglss import DiscoveryReport, TbglssConfig, _chain, run_tbglss, threshold_loop

# Each method's config type: a config's type is the method it runs.
METHODS = {"tbglss": TbglssConfig, "sgtr": SgtrConfig, "group_lasso": GroupLassoConfig}
# Each sweep axis is a parameter of one method.
AXIS_METHODS = {"t_rms": "tbglss", "t_ge": "tbglss", "lambda": "group_lasso", "sgtr_threshold": "sgtr"}
SWEEP_AXES = tuple(AXIS_METHODS)

# Failures a sweep records on the point instead of raising: validation errors
# (GridError, ZeroColumnError and ZeroNormGroupError are ValueErrors) and
# numerical ones.  Anything else is a fault and propagates.
POINT_ERRORS = (ValueError, SamplerError, np.linalg.LinAlgError, FloatingPointError)


class SweepFailedError(RuntimeError):
    """Every point of a sweep failed, so no parameter value can be chosen."""


def fit(system: GroupedLinearSystem,
        config: TbglssConfig | SgtrConfig | GroupLassoConfig) -> DiscoveryReport:
    """Run the method `config`'s type names and score it.

    The loss is `aic_loss` of the normalized-scale coefficients with k =
    active groups x steps (`_scored`), for every method: a fit that keeps no
    group has the zero fit's loss.  Only a group-lasso fit that stopped
    unconverged has no loss, and says so in `unscored`.  An
    SGTR threshold or group-lasso penalty left None is chosen by the lowest
    loss over its default grid: the report is that grid point's, and its
    provenance's `selected_by` says so.
    """
    if isinstance(config, TbglssConfig):
        return _scored(system, run_tbglss(system, config))
    axis, value = (("sgtr_threshold", config.threshold) if isinstance(config, SgtrConfig)
                   else ("lambda", config.lam))
    if value is None:
        curve = sweep(system, axis, default_grid(axis, system), config)
        if "loss" not in curve.argmin:
            raise SweepFailedError(
                f"every point of the {axis} grid failed; the first with {curve.points[0].error}"
            )
        report = curve.point_at(curve.argmin["loss"]).report
        return replace(report, provenance={**report.provenance,
                                           "selected_by": f"lowest loss over {axis} grid"})
    if isinstance(config, SgtrConfig):
        return _sgtr_report(system, config, {}, {})
    result = group_lasso(system, config)
    report = DiscoveryReport(
        result.trajectories, np.zeros_like(result.trajectories.values), "group_lasso",
        {"lam": config.lam, "converged": result.converged, "sweeps": result.n_sweeps,
         "admm_iterations": result.admm_iterations, "start": result.start,
         "kkt_residual": result.kkt_residual}, beta_normalized=result.beta_normalized)
    if not result.converged:
        return replace(report, unscored=f"NotConverged: group lasso did not converge "
                                        f"in {result.n_sweeps} sweeps")
    return _scored(system, report)


def _sgtr_report(system: GroupedLinearSystem, config: SgtrConfig, fits: dict,
                 losses: dict) -> DiscoveryReport:
    """SGTR fitted at `config`'s threshold and scored.

    `fits` is `sgtr`'s memo of ridge fits, so each distinct active set is solved
    once, and `losses` holds one loss per final support: the same support has the
    same coefficients, so the same `aic_loss`.  A sweep shares both between its
    thresholds.
    """
    trajectories = sgtr(system, config, fits)
    report = DiscoveryReport(trajectories, np.zeros_like(trajectories.values), "sgtr",
                             {"threshold": config.threshold, "ridge": config.ridge},
                             beta_normalized=trajectories.values * system.scales)
    support = tuple(np.flatnonzero(trajectories.active).tolist())
    if support not in losses:
        losses[support] = _scored(system, report).loss
    return replace(report, loss=losses[support])


def _scored(system: GroupedLinearSystem, report: DiscoveryReport) -> DiscoveryReport:
    """`report` with its loss, the one scoring rule of every method (a model with no term
    gets the zero fit's)."""
    k = int(report.trajectories.active.sum()) * system.n_steps
    return replace(report, loss=aic_loss(system, report.beta_normalized, k))


@dataclass(frozen=True)
class SweepPoint:
    value: float
    loss: float | None
    total_error_bar: float | None
    coefficient_mse: float | None
    selected: tuple[str, ...]
    error: str | None = None
    report: DiscoveryReport | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SelectionCurve:
    axis: str
    points: tuple[SweepPoint, ...]
    argmin: dict  # criterion name -> swept value

    def summary(self) -> dict:
        return {
            "axis": self.axis,
            "grid": [p.value for p in self.points],
            "argmin": self.argmin,
            "n_failed": sum(1 for p in self.points if p.error),
        }

    def point_at(self, value: float) -> SweepPoint:
        for p in self.points:
            if p.value == value:
                return p
        raise KeyError(f"no sweep point at {value!r}")


def sweep(
    system: GroupedLinearSystem,
    axis: str,
    grid: np.ndarray,
    base: TbglssConfig | SgtrConfig | GroupLassoConfig,
    truth: CoefficientTrajectories | None = None,
) -> SelectionCurve:
    """Fit `base` once per grid value of `axis` and record all criteria.

    The axis implies the method, whose config type `base` must have; `base` holds
    the parameters that are not swept, e.g. t_rms while sweeping t_ge.  Each
    point's config is built before any fit, so a grid value its config rejects
    (a threshold or lambda <= 0, say) raises that ValueError.  The points are
    loops on `pool.drive`, which runs each distinct task once, so a chain that
    several threshold values run (the screening chains on the full support,
    say) is sampled once and every point's report is the same as a standalone
    `fit`'s.  A point failing with one of POINT_ERRORS, or whose report is
    `unscored`, is recorded on the curve as failed and no argmin uses it.  Every
    other point takes its scores from its report, so a model with no term has no
    total error bar and is never the total-error-bar argmin.

    An SGTR point asks for no task: it fits here, on the sweep's memos of ridge
    fits and losses (`_sgtr_report`), and `drive` forks its workers at the first
    task, so an SGTR sweep forks none.  Other sweeps fork them once: each
    distinct tbglss chain is one task, and so is each group-lasso point, keyed
    by its config.  Points come back in grid order, warnings raised in a worker
    are raised again here, and every report is the same as when run in this
    process.  A sweep keeps no posterior draws, so a tbglss `base` must leave
    `with_ci` and `keep_final_ensemble` unset.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid must be nonempty")
    if not np.isfinite(grid).all():
        raise ValueError(f"sweep grid values must be finite, got {grid.tolist()}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("sweep grid must be strictly increasing")
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    if not isinstance(base, METHODS[AXIS_METHODS[axis]]):
        raise ValueError(f"axis {axis!r} applies to the {AXIS_METHODS[axis]} method")
    for name in ("with_ci", "keep_final_ensemble"):
        if getattr(base, name, False):
            raise ValueError(f"a sweep keeps no posterior draws: set {name} only for fit "
                             f"or run_tbglss")
    fits, losses = {}, {}  # the SGTR points' memos, shared by the sweep
    loops = [_point_loop(system, _point_config(base, axis, v), v, truth, fits, losses)
             for v in grid.tolist()]
    system.gram()  # cached before the workers fork, so each inherits it
    points = drive(loops, partial(_work, system))
    argmin = {}
    for crit in ("loss", "total_error_bar", "coefficient_mse"):
        best = [(getattr(p, crit), p.value) for p in points if getattr(p, crit) is not None]
        if best:
            argmin[crit] = min(best)[1]
    return SelectionCurve(axis, tuple(points), argmin)


def _point_loop(system: GroupedLinearSystem,
                config: TbglssConfig | SgtrConfig | GroupLassoConfig, value: float,
                truth: CoefficientTrajectories | None, fits: dict, losses: dict):
    """One sweep point as a loop for `pool.drive`: yields the key of each task it needs and
    returns its SweepPoint, failed if the point raised one of POINT_ERRORS.  A tbglss point
    asks for its chains, a group-lasso point for its config's report; an SGTR point fits
    here, on the sweep's memos, and asks for nothing."""
    try:
        if isinstance(config, SgtrConfig):
            report = _sgtr_report(system, config, fits, losses)
        elif isinstance(config, GroupLassoConfig):
            report = yield config
        else:
            report = _scored(system, (yield from threshold_loop(system, config)))
        return _sweep_point(report, value, truth)
    except POINT_ERRORS as exc:
        return _failed_point(value, exc)


def _failed_point(value: float, error: Exception) -> SweepPoint:
    return SweepPoint(value, None, None, None, (), error=f"{type(error).__name__}: {error}")


def _sweep_point(report: DiscoveryReport, value: float,
                 truth: CoefficientTrajectories | None) -> SweepPoint:
    if report.unscored:
        return SweepPoint(value, None, None, None, (), error=report.unscored)
    mse = None if truth is None else coefficient_mse(report.trajectories, truth)
    return SweepPoint(value, report.loss, report.total_error_bar, mse, report.selected,
                      report=report)


def _work(system: GroupedLinearSystem, key):
    """One task: a group-lasso point's report (key = its config), or a tbglss chain."""
    if isinstance(key, GroupLassoConfig):
        return fit(system, key)
    return _chain(system, key)


def _point_config(base: TbglssConfig | SgtrConfig | GroupLassoConfig, axis: str,
                  value: float) -> TbglssConfig | SgtrConfig | GroupLassoConfig:
    """`base` with the swept parameter set to `value`."""
    if axis == "lambda":
        return replace(base, lam=value)
    if axis == "sgtr_threshold":
        return replace(base, threshold=value)
    return replace(base, thresholds=replace(base.thresholds, **{axis: value}))


def default_grid(axis: str, system: GroupedLinearSystem | None = None) -> np.ndarray:
    """Built-in sweep grids used when a run does not supply its own."""
    if axis == "t_rms":
        return np.logspace(-3, 0, 20)
    if axis == "t_ge":
        return np.linspace(0.02, 0.22, 11)
    if axis == "lambda":
        if system is None:
            raise ValueError("lambda grid needs the system for its null threshold")
        lam_max = group_lasso_null_threshold(system)
        return np.logspace(np.log10(lam_max) - 4, np.log10(lam_max), 20)
    if axis == "sgtr_threshold":
        return np.logspace(-3, 0, 20)
    raise ValueError(f"unknown axis {axis!r}")

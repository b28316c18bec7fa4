"""One method dispatch, and the parameter sweeps built on it.

Each method has its own config type (`METHODS`), and the type says which
method runs.  `fit` runs tbglss, SGTR or group lasso on a grouped system and
scores the result with the AIC-inspired loss; a baseline's parameter left None
is chosen by the lowest loss over its default grid.  `sweep` fits once per
value of one parameter and records every criterion (see `criteria`), keeping
each point's report so a parameter chosen on a grid needs no second fit.  A
tbglss or lambda sweep runs its work on worker processes forked from this one,
one per CPU it may use.  An SGTR threshold grid is one path in this process,
sharing its ridge fits and losses between thresholds; a fixed-threshold SGTR
`fit` is that path with one threshold.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import GroupLassoConfig, SgtrConfig, group_lasso, group_lasso_null_threshold, sgtr
from .criteria import aic_loss, coefficient_mse, empty_model_scores
from .gibbs import SamplerError
from .library import CoefficientTrajectories, GroupedLinearSystem
from .pool import Workers
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
    active groups x steps.  A tbglss run that keeps no group has no loss;
    SGTR and group lasso report the zero fit's.  A group-lasso fit that
    stopped unconverged has no loss either, and says so in `unscored`.  An
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
        [(report, error)] = _sgtr_path(system, [value], config.ridge)
        if error is not None:
            raise error
        return report
    result = group_lasso(system, config)
    report = _baseline_report(result.trajectories, result.beta_normalized, "group_lasso",
                              {"lam": config.lam, "converged": result.converged,
                               "sweeps": result.n_sweeps,
                               "admm_iterations": result.admm_iterations,
                               "start": result.start,
                               "kkt_residual": result.kkt_residual})
    if not result.converged:
        return replace(report, unscored=f"NotConverged: group lasso did not converge "
                                        f"in {result.n_sweeps} sweeps")
    return _scored(system, report)


def _sgtr_path(system: GroupedLinearSystem, thresholds: list, ridge: float,
               outcome=lambda threshold, report: report) -> list:
    """SGTR fitted and scored at each threshold: (outcome(threshold, report), None), or
    (None, error) where the fit or `outcome` raised one of POINT_ERRORS.

    The thresholds share one memo of ridge fits (`sgtr`'s `fits`), so each distinct
    active set is solved once, and one loss per final support: the same support has the
    same coefficients, so the same `aic_loss`.  Both memos live for this call only.
    """
    fits: dict = {}
    losses: dict = {}
    results = []
    for threshold in thresholds:
        try:
            trajectories = sgtr(system, SgtrConfig(threshold=threshold, ridge=ridge), fits)
            report = _baseline_report(trajectories, trajectories.values * system.scales, "sgtr",
                                      {"threshold": threshold, "ridge": ridge})
            support = tuple(np.flatnonzero(trajectories.active).tolist())
            if support not in losses:
                losses[support] = _scored(system, report).loss
            results.append((outcome(threshold, replace(report, loss=losses[support])), None))
        except POINT_ERRORS as exc:
            results.append((None, exc))
    return results


def _scored(system: GroupedLinearSystem, report: DiscoveryReport) -> DiscoveryReport:
    """`report` with its loss, unless it is a tbglss run that kept no group."""
    if report.method == "tbglss" and report.empty_model:
        return report
    k = int(report.trajectories.active.sum()) * system.n_steps
    return replace(report, loss=aic_loss(system, report.beta_normalized, k))


def _baseline_report(trajectories: CoefficientTrajectories, beta_normalized: np.ndarray,
                     method: str, hyperparameters: dict) -> DiscoveryReport:
    return DiscoveryReport(
        trajectories=trajectories,
        stdev=np.zeros_like(trajectories.values),
        criteria={},
        loss=None,
        total_error_bar=None,
        update_history=(),
        thresholds=None,
        method=method,
        hyperparameters=hyperparameters,
        provenance={},
        beta_normalized=beta_normalized,
    )


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

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [self.axis, "loss", "total_error_bar", "coefficient_mse", "selected", "error"]
            )
            for p in self.points:
                writer.writerow(
                    [
                        repr(p.value),
                        "" if p.loss is None else repr(p.loss),
                        "" if p.total_error_bar is None else repr(p.total_error_bar),
                        "" if p.coefficient_mse is None else repr(p.coefficient_mse),
                        "+".join(p.selected),
                        p.error or "",
                    ]
                )

    def summary(self) -> dict:
        return {
            "axis": self.axis,
            "grid": [p.value for p in self.points],
            "argmin": self.argmin,
            "n_failed": sum(1 for p in self.points if p.error),
        }

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2, sort_keys=True))

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
    the parameters that are not swept, e.g. t_rms while sweeping t_ge.  The
    tbglss points share one memo of chains, so a chain that several threshold
    values run (the screening chains on the full support, say) is sampled once
    and every point's report is the same as a standalone `fit`'s.  A point
    failing with one of POINT_ERRORS, or whose report is `unscored`, is
    recorded on the curve as failed and no argmin uses it.  A point whose
    tbglss run keeps no group scores as the empty model.

    An SGTR threshold grid runs here as one path (`_sgtr_path`): each
    distinct ridge fit and each distinct final support's loss is computed
    once.  Those few fits take less time than forking workers and sending the
    reports back would.  Other sweeps run on worker processes forked once per
    sweep (`pool.Workers`): each distinct tbglss chain is one task, and so is
    each group-lasso point.  Points come back in grid order, warnings raised
    in a worker are raised again here, and every report is the same as when
    run in this process.
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
    values = [float(v) for v in grid]
    if axis == "sgtr_threshold":
        path = _sgtr_path(system, values, base.ridge,
                          lambda v, report: _sweep_point(system, report, v, truth))
        points = [point if error is None else _failed_point(v, error)
                  for v, (point, error) in zip(values, path)]
    else:
        chains: dict = {}
        loops = [_point_loop(system, _point_config(base, axis, v), v, truth, chains)
                 for v in values]
        system.gram()  # cached before the workers fork, so each inherits it
        with Workers(partial(_work, system, truth), len(values)) as workers:
            points = _drive(loops, workers)
    argmin = {}
    for crit in ("loss", "total_error_bar", "coefficient_mse"):
        best = [(getattr(p, crit), p.value) for p in points if getattr(p, crit) is not None]
        if best:
            argmin[crit] = min(best)[1]
    return SelectionCurve(axis, tuple(points), argmin)


def _point_loop(system: GroupedLinearSystem, config: TbglssConfig | GroupLassoConfig,
                value: float, truth: CoefficientTrajectories | None, chains: dict):
    """One sweep point as a generator: yields (key, keep_ensemble) for the work it needs and
    returns its SweepPoint, failed if the point raised one of POINT_ERRORS.  A tbglss point
    asks for its chains; a group-lasso point is one task."""
    try:
        if isinstance(config, GroupLassoConfig):
            return (yield (value, config), False)
        report = yield from threshold_loop(system, config, chains)
        return _sweep_point(system, _scored(system, report), value, truth)
    except POINT_ERRORS as exc:
        return _failed_point(value, exc)


def _failed_point(value: float, error: Exception) -> SweepPoint:
    return SweepPoint(value, None, None, None, (), error=f"{type(error).__name__}: {error}")


def _sweep_point(system: GroupedLinearSystem, report: DiscoveryReport, value: float,
                 truth: CoefficientTrajectories | None) -> SweepPoint:
    if report.unscored:
        return SweepPoint(value, None, None, None, (), error=report.unscored)
    loss, teb = report.loss, report.total_error_bar
    if loss is None:
        loss, teb = empty_model_scores(system)
    mse = None if truth is None else coefficient_mse(report.trajectories, truth)
    return SweepPoint(value, loss, teb, mse, report.selected, report=report)


def _work(system: GroupedLinearSystem, truth: CoefficientTrajectories | None, task: tuple):
    """One task (key, keep_ensemble): a tbglss memo entry, or a whole group-lasso point
    (key = (value, config))."""
    key, keep_ensemble = task
    if isinstance(key[1], GroupLassoConfig):
        value, config = key
        return _sweep_point(system, fit(system, config), value, truth)
    return _chain(system, key, keep_ensemble)


def _drive(loops: list, workers: Workers) -> list:
    """Run every point's loop (`_point_loop`) to its SweepPoint, in this thread.

    A key in flight is submitted once; every loop waiting on it resumes when
    it completes, in the order they asked.  A task's point error is raised in
    each of them; any other error of a task is raised here.
    """
    points: list = [None] * len(loops)
    waiting: dict = {}  # key in flight -> [(loop index, keep_ensemble)]

    def resume(index, value=None, error=None):
        loop = loops[index]
        try:
            key, keep = loop.send(value) if error is None else loop.throw(error)
        except StopIteration as done:
            points[index] = done.value
            return
        wait_on(index, key, keep)

    def wait_on(index, key, keep):
        if key not in waiting:
            waiting[key] = []
            workers.submit((key, keep))
        waiting[key].append((index, keep))

    for index in range(len(loops)):
        resume(index)
    while waiting:
        for (key, _), value, error in workers.collect():
            if error is not None and not isinstance(error, POINT_ERRORS):
                raise error
            for index, keep in waiting.pop(key):
                if keep and error is None and value.ensemble is None:
                    wait_on(index, key, keep)  # it joined a chain submitted without its draws
                else:
                    resume(index, value, error)
    return points


def _point_config(base: TbglssConfig | GroupLassoConfig, axis: str,
                  value: float) -> TbglssConfig | GroupLassoConfig:
    """`base` with the swept parameter set to `value`."""
    if axis == "lambda":
        return replace(base, lam=value)
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

"""Output checks: every job's files must satisfy what the acceptance suite asserts.

A check returns a list of problems; an empty list means the job's outputs are
correct.  `self_test` confirms that the accounting catches both a wrong
expected support and a non-zero exit, so a silent checker cannot pass a run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from vcpde.cli import make_scenario
from vcpde.dataio import load_dataset
from vcpde.library import LibrarySpec
from vcpde.solvers import true_coefficients

from workloads import Discover, Simulate, Sweep


def _rel(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def _truth(family: str, step_coords: np.ndarray) -> np.ndarray:
    return true_coefficients(make_scenario(family), LibrarySpec.standard(),
                             step_coords=step_coords).values


def _check_dataset(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    values = load_dataset(path).field.values
    return [] if np.isfinite(values).all() else [f"{path.name} has non-finite values"]


def _check_report(job: Discover, path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    report = json.loads(path.read_text())
    problems = []
    values = np.asarray(report["trajectories"], dtype=float)
    descriptors = report["descriptors"]
    selected = tuple(report["selected"])
    if not np.isfinite(values).all():
        problems.append("non-finite trajectories")
    excluded = [g for g, name in enumerate(descriptors) if name not in selected]
    if np.any(values[:, excluded] != 0.0):
        problems.append("an excluded group has non-zero coefficients")
    if report["loss"] is None or not math.isfinite(report["loss"]):
        problems.append(f"loss is {report['loss']!r}")

    if job.support is not None and set(selected) != set(job.support):
        problems.append(f"selected {selected}, expected {job.support}")
    elif job.bound is not None:
        kind, limit = job.bound
        truth = _truth(job.data.family, np.asarray(report["step_coords"], dtype=float))
        idx = [descriptors.index(name) for name in job.support]
        if kind == "per_term":
            errors = [_rel(values[:, g], truth[:, g]) for g in idx]
        else:
            errors = [_rel(values[:, idx], truth[:, idx])]
        if max(errors) > limit:
            problems.append(f"{kind} relative L2 error {max(errors):.4f} > {limit}")

    if job.method != "tbglss":
        chosen = report["hyperparameters"].get("threshold" if job.method == "sgtr" else "lam")
        if not report["provenance"].get("selected_by") or chosen is None or not chosen > 0:
            problems.append(f"no grid-chosen parameter (got {chosen!r})")

    if job.with_ci:
        cis = (report.get("bootstrap_cis") or {}).get("intervals", {})
        if set(cis) != set(selected):
            problems.append(f"CIs for {sorted(cis)}, selected {sorted(selected)}")
        for name, intervals in cis.items():
            coef = values[:, descriptors.index(name)]
            bounds = np.asarray(intervals, dtype=float)
            if bounds.shape != (coef.size, 2) or not np.isfinite(bounds).all():
                problems.append(f"malformed CIs for {name}")
            elif np.any(bounds[:, 0] > coef) or np.any(coef > bounds[:, 1]):
                problems.append(f"a CI for {name} does not bracket its coefficient")
    return problems


def _check_sweep(job: Sweep, curve_path: Path, summary_path: Path) -> list[str]:
    if not curve_path.is_file() or not summary_path.is_file():
        return ["sweep curve or summary missing"]
    with open(curve_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads(summary_path.read_text())
    problems = []
    if len(rows) != job.grid[2] or summary["n_failed"] or any(r["error"] for r in rows):
        problems.append(f"{summary['n_failed']} of {len(rows)} sweep points failed")
        return problems
    numbers = np.array([[float(r[k]) for k in ("loss", "total_error_bar", "coefficient_mse")]
                        for r in rows])
    if not np.isfinite(numbers).all():
        problems.append("non-finite sweep criteria")
    if not numbers[-1, 1] > numbers[0, 1]:
        problems.append(f"total error bar does not rise: {numbers[0, 1]:.4g} -> {numbers[-1, 1]:.4g}")
    for criterion in ("loss", "coefficient_mse"):
        best = min(rows, key=lambda r: float(r[criterion]))
        if float(best["t_ge"]) != summary["argmin"].get(criterion):
            problems.append(f"{criterion} argmin disagrees between curve and summary")
        picked = tuple(best["selected"].split("+")) if best["selected"] else ()
        if set(picked) != set(job.support):
            problems.append(f"{criterion} argmin selects {picked}, expected {job.support}")
    return problems


def check_job(job, out: Path) -> list[str]:
    """Problems with the files a finished job wrote under `out`.

    A check that raises on a malformed output, such as a missing key or an
    unparsable number, reports that as the job's problem.
    """
    try:
        return _check_outputs(job, out)
    except Exception as exc:  # the run goes on and counts the job as failed
        return [f"output check raised {type(exc).__name__}: {exc}"]


def _check_outputs(job, out: Path) -> list[str]:
    paths = job.outputs(out)
    if isinstance(job, Simulate):
        return [p for path in paths.values() for p in _check_dataset(path)]
    if isinstance(job, Discover):
        return _check_report(job, paths["report"])
    return _check_sweep(job, paths["curve"], paths["summary"])


def failed(exit_code, problems: list[str]) -> bool:
    """A job fails on an exception (exit_code None), a non-zero exit or any problem."""
    return exit_code != 0 or bool(problems)


def self_test(jobs: list, out: Path, run_job) -> list[str]:
    """Inject a wrong expected support and a non-zero exit; both must count as failures.

    The non-zero exit is real: `run_job` runs a copy of a job whose dataset
    does not exist, which the CLI reports with exit code 1.
    """
    problems = []
    target = next(j for j in jobs if not isinstance(j, Simulate))
    if not failed(0, check_job(replace(target, support=("u^3",)), out)):
        problems.append(f"self-test: a wrong expected support passed on {target.kind}")
    missing = replace(target, data=replace(target.data, seed=target.data.seed + 10**6))
    if not failed(run_job(missing, out)["exit_code"], []):
        problems.append("self-test: a job with a missing dataset passed")
    return problems

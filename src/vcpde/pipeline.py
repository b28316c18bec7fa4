"""End-to-end wiring: dataset -> derivatives -> grouped system -> discovery.

A Dataset bundles the field with the provenance needed to reproduce it
(scenario metadata, noise level, seeds, any filtering applied).  Randomness is
derived, never shared: the dataset's noise stream comes from
stage_seed(root, "noise"), and the sampler derives one child seed per
thresholding update from its own config seed, so partial re-runs of a pipeline
stay consistent with full runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .differentiation import build_derivative_stack
from .fields import SpatioTemporalField
from .filters import FilterSpec, apply_filter
from .library import (
    GroupedLinearSystem,
    LibrarySpec,
    assemble_grouped_system,
    evaluate_terms,
    normalize_columns,
)
from .selection import MethodConfig, SweepFailedError, default_grid, fit, sweep
from .solvers import PdeScenario, add_noise, check_noise_level, solve
from .tbglss import DiscoveryReport

NOISE_DOUBLING_LEVEL = 0.02  # chain lengths double at and above this noise level


def stage_seed(root_seed: int, stage: str) -> int:
    """Deterministic per-stage seed derivation from the root seed."""
    digest = hashlib.sha256(stage.encode()).digest()
    salt = int.from_bytes(digest[:4], "big")
    return int(np.random.SeedSequence((root_seed, salt)).generate_state(1)[0])


@dataclass(frozen=True)
class Dataset:
    field: SpatioTemporalField
    metadata: dict

    @property
    def noise_level(self) -> float:
        return float(self.metadata.get("noise_level", 0.0))

    @property
    def varying_axis(self) -> str:
        return self.metadata.get("varying_axis", "time")

    @property
    def retain_t_from(self) -> float | None:
        return self.metadata.get("retain_t_from")

    def dataset_id(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.field.values).tobytes())
        h.update(np.ascontiguousarray(self.field.x_coords).tobytes())
        h.update(np.ascontiguousarray(self.field.t_coords).tobytes())
        return h.hexdigest()[:16]


def noisy_dataset(clean: Dataset, noise_level: float, seed: int) -> Dataset:
    """`clean` plus white noise from the seed's noise stream; the one writer of noise metadata.

    At level 0 the field stays clean and only the metadata changes: that is the
    clean twin of the noisy dataset made with the same seed.  A level below 0 is an error.
    """
    field = add_noise(clean.field, noise_level, stage_seed(seed, "noise"))
    return Dataset(field, {**clean.metadata, "noise_level": noise_level, "seed": seed})


def simulate_dataset(scenario: PdeScenario, noise_level: float = 0.0, seed: int = 0) -> Dataset:
    """Solve the scenario and optionally add white noise (seed-derived)."""
    check_noise_level(noise_level)
    return noisy_dataset(Dataset(solve(scenario), scenario.metadata()), noise_level, seed)


def filter_dataset(dataset: Dataset, spec: FilterSpec) -> Dataset:
    filtered = apply_filter(dataset.field, spec)
    metadata = dict(dataset.metadata)
    metadata.setdefault("filters", [])
    metadata["filters"] = list(metadata["filters"]) + [spec.to_dict()]
    return Dataset(filtered, metadata)


SMOOTHING_NOISE_LEVEL = 0.005  # heavy-smoothing tier starts here


@dataclass(frozen=True)
class DifferentiationSpec:
    """How derivatives are estimated; 'auto' picks a tier by noise level.

    Tiers: clean data uses centered finite differences; barely-noisy data
    (below 0.5% of sigma_u) uses narrow local polynomial fits; noisier data
    additionally smooths the field along both axes first and widens the fit
    windows.
    """

    method: str = "auto"  # auto | finite_difference | poly_fit
    space_width: int = 9
    space_degree: int = 4
    time_width: int = 5
    time_degree: int = 3
    prefilter_time: tuple[int, int] | None = None  # (window, degree) SG along time
    prefilter_space: tuple[int, int] | None = None

    def resolve(self, noise_level: float, filtered: bool = False) -> "DifferentiationSpec":
        if self.method != "auto":
            return self
        if noise_level == 0:
            return replace(self, method="finite_difference")
        if filtered:
            # data already denoised upstream: widen the fit slightly, no prefilter
            return replace(self, method="poly_fit", space_width=19, space_degree=4)
        if noise_level < SMOOTHING_NOISE_LEVEL:
            return replace(self, method="poly_fit")
        return replace(
            self,
            method="poly_fit",
            space_width=17,
            space_degree=4,
            time_width=9,
            time_degree=3,
            prefilter_time=(21, 3),
            prefilter_space=(9, 4),
        )


def build_system(
    dataset: Dataset,
    library: LibrarySpec | None = None,
    diff: DifferentiationSpec | None = None,
) -> GroupedLinearSystem:
    """Differentiate, evaluate the library, assemble and normalize the system."""
    library = library or LibrarySpec.standard()
    already_filtered = bool(dataset.metadata.get("filters"))
    diff = (diff or DifferentiationSpec()).resolve(dataset.noise_level, already_filtered)
    field_used = dataset.field
    if diff.prefilter_time is not None:
        w, d = diff.prefilter_time
        field_used = apply_filter(field_used, FilterSpec.of("savitzky_golay", w, d, axis="time"))
    if diff.prefilter_space is not None:
        w, d = diff.prefilter_space
        field_used = apply_filter(field_used, FilterSpec.of("savitzky_golay", w, d, axis="space"))
    stack = build_derivative_stack(
        field_used,
        max_space_order=library.max_derivative,
        method=diff.method,
        space_width=diff.space_width,
        space_degree=diff.space_degree,
        time_width=diff.time_width,
        time_degree=diff.time_degree,
    )
    u_t = stack.u_t
    x_coords, t_coords = stack.x_coords, stack.t_coords
    term_values = evaluate_terms(stack, library)

    retain = dataset.retain_t_from
    if retain is not None:
        keep = t_coords >= retain - 1e-12
        term_values = term_values[:, keep, :]
        u_t = u_t[:, keep]
        t_coords = t_coords[keep]

    varying = dataset.varying_axis
    step_coords = t_coords if varying == "time" else x_coords
    system = assemble_grouped_system(term_values, u_t, varying, step_coords, library.descriptors)
    return normalize_columns(system)


def discover(dataset: Dataset, method_config: MethodConfig, system: GroupedLinearSystem | None = None,
             library: LibrarySpec | None = None, diff: DifferentiationSpec | None = None) -> DiscoveryReport:
    """Fit one method to a dataset and record the provenance to reproduce it.

    tbglss chains double in length at and above NOISE_DOUBLING_LEVEL.  An SGTR
    threshold or group-lasso penalty left as None is chosen by the lowest loss
    over its default grid, and the report fitted at that grid point is
    returned.  The differentiation spec is recorded only when the system is
    built here from the dataset.
    """
    resolved_diff = None
    if system is None:
        resolved_diff = (diff or DifferentiationSpec()).resolve(
            dataset.noise_level, bool(dataset.metadata.get("filters"))
        )
        system = build_system(dataset, library=library, diff=resolved_diff)
    provenance = {
        "dataset_id": dataset.dataset_id(),
        "dataset": dataset.metadata,
        "n_steps": system.n_steps,
        "n_rows": system.n_rows,
        "differentiation": None if resolved_diff is None else asdict(resolved_diff),
    }

    mc = method_config
    if mc.method == "tbglss" and dataset.noise_level >= NOISE_DOUBLING_LEVEL:
        bglss = replace(mc.bglss, n_iterations=2 * mc.bglss.n_iterations,
                        n_burnin=2 * mc.bglss.n_burnin)
        mc = replace(mc, bglss=bglss, update_iterations=2 * mc.update_iterations,
                     update_burnin=2 * mc.update_burnin)
    axis = None
    if mc.method == "sgtr" and mc.sgtr_threshold is None:
        axis = "sgtr_threshold"
    elif mc.method == "group_lasso" and mc.lasso_lam is None:
        axis = "lambda"
    if axis is None:
        report = fit(system, mc)
    else:
        curve = sweep(system, axis, default_grid(axis, system), mc)
        if "loss" not in curve.argmin:
            raise SweepFailedError(
                f"every point of the {axis} grid failed; the first with {curve.points[0].error}"
            )
        report = curve.point_at(curve.argmin["loss"]).report
        provenance["selected_by"] = f"lowest loss over {axis} grid"
    return replace(report, provenance={**provenance, **report.provenance})

"""End-to-end wiring: dataset -> derivatives -> grouped system -> discovery.

`discover` builds the system, doubles tbglss's chains on noisy data and
records provenance; `selection.fit`, the one method dispatch, runs the method
its config's type names and chooses a baseline parameter left None.

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

from .differentiation import POLY_FIT_DEFAULTS, build_derivative_stack
from .fields import SpatioTemporalField
from .filters import FilterSpec, apply_filter
from .library import (
    GroupedLinearSystem,
    LibrarySpec,
    assemble_grouped_system,
    evaluate_terms,
)
from .baselines import GroupLassoConfig, SgtrConfig
from .selection import fit
from .solvers import PdeScenario, add_noise, solve
from .tbglss import DiscoveryReport, TbglssConfig

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


def simulate_dataset(scenario: PdeScenario, seed: int = 0) -> Dataset:
    """Solve the scenario into its clean dataset, recorded at noise level 0 with `seed`."""
    return noisy_dataset(Dataset(solve(scenario), scenario.metadata()), 0.0, seed)


def filter_dataset(dataset: Dataset, spec: FilterSpec) -> Dataset:
    filtered = apply_filter(dataset.field, spec)
    metadata = dict(dataset.metadata)
    metadata.setdefault("filters", [])
    metadata["filters"] = list(metadata["filters"]) + [spec.to_dict()]
    return Dataset(filtered, metadata)


SMOOTHING_NOISE_LEVEL = 0.005  # heavy-smoothing tier starts here


def _tier(noise_level: float, filtered: bool) -> dict:
    """The `auto` method's settings for data at `noise_level`, `filtered` if already denoised."""
    if noise_level == 0:
        return {"method": "finite_difference"}
    if filtered:
        # data already denoised upstream: widen the fit slightly, no prefilter
        return {"method": "poly_fit", "space_width": 19, "space_degree": 4}
    if noise_level < SMOOTHING_NOISE_LEVEL:
        return {"method": "poly_fit"}
    return {"method": "poly_fit", "space_width": 17, "space_degree": 4, "time_width": 9,
            "time_degree": 3, "prefilter_time": (21, 3), "prefilter_space": (9, 4)}


@dataclass(frozen=True)
class DifferentiationSpec:
    """How derivatives are estimated; 'auto' picks a tier by noise level.

    Tiers: clean data uses centered finite differences; barely-noisy data
    (below 0.5% of sigma_u) uses narrow local polynomial fits; noisier data
    additionally smooths the field along both axes first and widens the fit
    windows.  A field left as None is set by `resolve`.  Finite differences
    read no poly-fit width or degree, so setting one with that method is a
    ValueError; a prefilter smooths the field before either method.
    """

    method: str = "auto"  # auto | finite_difference | poly_fit
    space_width: int | None = None
    space_degree: int | None = None
    time_width: int | None = None
    time_degree: int | None = None
    prefilter_time: tuple[int, int] | None = None  # (window, degree) SG along time
    prefilter_space: tuple[int, int] | None = None

    def __post_init__(self):
        if self.method == "finite_difference":
            unread = [name for name in POLY_FIT_DEFAULTS if getattr(self, name) is not None]
            if unread:
                raise ValueError(f"finite differences read no {' or '.join(unread)}")

    def resolve(self, noise_level: float, filtered: bool = False) -> "DifferentiationSpec":
        """Every field set: POLY_FIT_DEFAULTS, overridden by the tier of the data (for the
        `auto` method only), overridden by the fields set here.  Finite differences read no
        poly-fit width or degree, so those stay None."""
        given = {name: value for name, value in asdict(self).items()
                 if value is not None and name != "method"}
        tier = _tier(noise_level, filtered) if self.method == "auto" else {"method": self.method}
        resolved = {**POLY_FIT_DEFAULTS, **tier, **given}
        if resolved["method"] == "finite_difference":
            resolved.update(dict.fromkeys(POLY_FIT_DEFAULTS))
        return DifferentiationSpec(**resolved)


def _resolved_differentiation(dataset: Dataset,
                              diff: DifferentiationSpec | None) -> DifferentiationSpec:
    """`diff` (all automatic when None) resolved for the dataset's noise level and filtering."""
    return (diff or DifferentiationSpec()).resolve(dataset.noise_level,
                                                   bool(dataset.metadata.get("filters")))


def build_system(
    dataset: Dataset,
    library: LibrarySpec | None = None,
    diff: DifferentiationSpec | None = None,
) -> GroupedLinearSystem:
    """Differentiate, evaluate the library, assemble and normalize the system.

    The design is allocated once, step-major, and normalized in place.
    """
    library = library or LibrarySpec.standard()
    diff = _resolved_differentiation(dataset, diff)
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
    del field_used  # a prefiltered copy is not needed past the derivatives
    retain = dataset.retain_t_from
    if retain is not None:
        # t is increasing, so the samples at or after `retain` are a suffix: views, no copies
        first = int(np.searchsorted(stack.t_coords, retain - 1e-12))
        if first == stack.t_coords.size:
            raise ValueError(
                f"retain_t_from={retain!r} keeps no time samples: the data's last time is "
                f"{float(dataset.field.t_coords[-1])!r} (the last with derivatives "
                f"{float(stack.t_coords[-1])!r})"
            )
        stack = replace(
            stack,
            u=stack.u[:, first:],
            u_t=stack.u_t[:, first:],
            space={q: values[:, first:] for q, values in stack.space.items()},
            t_coords=stack.t_coords[first:],
            valid_t=(stack.valid_t[0] + first, stack.valid_t[1]),
        )

    varying = dataset.varying_axis
    step_coords = stack.t_coords if varying == "time" else stack.x_coords
    blocks = evaluate_terms(stack, library, varying)
    return assemble_grouped_system(blocks, stack.u_t, varying, step_coords, library.descriptors)


def discover(dataset: Dataset, config: TbglssConfig | SgtrConfig | GroupLassoConfig,
             system: GroupedLinearSystem | None = None, library: LibrarySpec | None = None,
             diff: DifferentiationSpec | None = None) -> DiscoveryReport:
    """Fit the method `config`'s type names (`selection.fit`) to a dataset and record the
    provenance to reproduce it.

    tbglss chains double in length at and above NOISE_DOUBLING_LEVEL.  An SGTR
    threshold or group-lasso penalty left as None is chosen by `fit`, on its
    default grid.  The differentiation spec is recorded only when the system
    is built here from the dataset.
    """
    resolved_diff = None
    if system is None:
        resolved_diff = _resolved_differentiation(dataset, diff)
        system = build_system(dataset, library=library, diff=resolved_diff)
    provenance = {
        "dataset_id": dataset.dataset_id(),
        "dataset": dataset.metadata,
        "n_steps": system.n_steps,
        "n_rows": system.n_rows,
        "differentiation": None if resolved_diff is None else asdict(resolved_diff),
    }

    if isinstance(config, TbglssConfig) and dataset.noise_level >= NOISE_DOUBLING_LEVEL:
        bglss = replace(config.bglss, n_iterations=2 * config.bglss.n_iterations,
                        n_burnin=2 * config.bglss.n_burnin)
        config = replace(config, bglss=bglss, update_iterations=2 * config.update_iterations,
                         update_burnin=2 * config.update_burnin)
    report = fit(system, config)
    return replace(report, provenance={**provenance, **report.provenance})

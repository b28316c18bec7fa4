"""End-to-end wiring: dataset -> derivatives -> grouped system -> discovery.

`discover` builds the system, doubles tbglss's chains on noisy data and
records provenance; `selection.fit`, the one method dispatch, runs the method
its config's type names and chooses a baseline parameter left None.
`paper_grid` runs the paper's benchmark grid (PAPER_CELLS) on worker
processes and returns its outputs.

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
from functools import partial

import numpy as np

from .differentiation import POLY_FIT_DEFAULTS, build_derivative_stack
from .fields import SpatioTemporalField
from .filters import FILTER_KINDS, FilterSpec, apply_filter, data_mse, filter_sweep
from .gibbs import BglssConfig
from .library import (CoefficientTrajectories, GroupedLinearSystem, LibrarySpec,
                      assemble_grouped_system, evaluate_terms)
from .baselines import GroupLassoConfig, SgtrConfig
from .pool import drive
from .selection import METHODS, default_grid, fit, sweep
from .solvers import (PdeScenario, add_noise, make_scenario, scenario_from_metadata, solve,
                      true_coefficients)
from .tbglss import DiscoveryReport, TbglssConfig, ThresholdSpec

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
             library: LibrarySpec | None = None,
             diff: DifferentiationSpec | None = None) -> DiscoveryReport:
    """Build the dataset's system, fit the method `config`'s type names to it
    (`selection.fit`) and record the provenance to reproduce it.

    tbglss chains double in length at and above NOISE_DOUBLING_LEVEL.  An SGTR
    threshold or group-lasso penalty left as None is chosen by `fit`, on its
    default grid.  The provenance records the resolved differentiation spec the
    system was built with.
    """
    diff = _resolved_differentiation(dataset, diff)
    system = build_system(dataset, library=library, diff=diff)
    provenance = {
        "dataset_id": dataset.dataset_id(),
        "dataset": dataset.metadata,
        "n_steps": system.n_steps,
        "n_rows": system.n_rows,
        "differentiation": asdict(diff),
    }

    if isinstance(config, TbglssConfig) and dataset.noise_level >= NOISE_DOUBLING_LEVEL:
        bglss = replace(config.bglss, n_iterations=2 * config.bglss.n_iterations,
                        n_burnin=2 * config.bglss.n_burnin)
        config = replace(config, bglss=bglss, update_iterations=2 * config.update_iterations,
                         update_burnin=2 * config.update_burnin)
    report = fit(system, config)
    return replace(report, provenance={**provenance, **report.provenance})


def truth_on(dataset: Dataset, library: LibrarySpec, system: GroupedLinearSystem
             ) -> CoefficientTrajectories:
    """The built-in ground truth of the scenario `dataset` records, on `system`'s steps."""
    return true_coefficients(scenario_from_metadata(dataset.metadata), library,
                             step_coords=system.step_coords)


# The paper's grid: each family's noise levels, and tbglss's (t_rms, t_ge) at each.
PAPER_CELLS = {
    "burgers": {"noises": (0.0, 0.01, 0.05), "thresholds": {0.0: (0.02, 0.1), 0.01: (0.02, 0.1), 0.05: (0.01, 0.1)}},
    "advection_diffusion": {"noises": (0.0, 0.01, 0.02), "thresholds": {0.0: (0.02, 0.08), 0.01: (0.02, 0.08), 0.02: (0.01, 0.08)}},
    "kuramoto_sivashinsky": {"noises": (0.0, 0.0001), "thresholds": {0.0: (0.1, 0.05), 0.0001: (0.1, 0.05)}},
}


def paper_grid(seed: int, only: str | None = None) -> list:
    """(cell, name, result) of each output of the cells whose name contains `only` (all
    when None), in print order; `seed` seeds every dataset's noise and tbglss sampler.

    The cells are each PAPER_CELLS family x noise level x method (a report named
    after its cell), `ad_tge_sweep` (the t_ge sweep on 2% advection-diffusion, a
    SelectionCurve) and `burgers_filter_study` on 5% Burgers, whose outputs are
    named `burgers_<part>_<label>`: the data MSE (a float), each filter kind's
    sweep (a FilterSweepCurve), and the tbglss report on the data unfiltered and
    moving-averaged over 13 points.  Each family the cells need is solved once,
    here; each distinct task runs once on worker processes (`pool.drive`), so
    the unfiltered arm is the `burgers_noise0.05_tbglss` report itself.
    """
    fits = [(f"{family}_noise{noise:g}_{method}", ("fit", family, noise, method, None))
            for family, cells in PAPER_CELLS.items() for noise in cells["noises"]
            for method in METHODS]
    rows = [(cell, cell, key) for cell, key in fits]  # (cell, output name, task key)
    rows.append(("ad_tge_sweep", "ad_tge_sweep", ("t_ge sweep", "advection_diffusion", 0.02)))
    study = "burgers_filter_study"
    rows.append((study, "burgers_5pct_data_mse", ("data mse", "burgers", 0.05)))
    rows += [(study, f"burgers_filter_{kind}", ("filter sweep", "burgers", 0.05, kind))
             for kind in FILTER_KINDS]
    rows += [(study, f"burgers_5pct_{tag}", ("fit", "burgers", 0.05, "tbglss", denoiser))
             for tag, denoiser in (("unfiltered", None),
                                   ("moving_average_13", FilterSpec.of("moving_average", 13)))]
    rows = [row for row in rows if only is None or only in row[0]]
    solved = {family: simulate_dataset(make_scenario(family), seed=seed)
              for family in dict.fromkeys(key[1] for _, _, key in rows)}
    keys = [key for _, _, key in rows]
    results = drive([_ask(key) for key in keys], partial(_paper_task, solved, seed),
                    len(set(keys)))
    return [(cell, name, result) for (cell, name, _), result in zip(rows, results)]


def _ask(key: tuple):
    """A loop for `pool.drive` that needs the one task `key` and returns its result."""
    return (yield key)


def _paper_task(solved: dict, seed: int, key: tuple):
    """One task of `paper_grid`: key = (task, family, noise level, *its arguments)."""
    task, family, noise, *arguments = key
    dataset = noisy_dataset(solved[family], noise, seed)
    t_rms, t_ge = PAPER_CELLS[family]["thresholds"][noise]
    if task == "fit":
        method, denoiser = arguments
        if denoiser is not None:
            dataset = filter_dataset(dataset, denoiser)
        return discover(dataset, TbglssConfig(ThresholdSpec(t_rms, t_ge), BglssConfig(seed=seed))
                        if method == "tbglss" else METHODS[method]())
    if task == "t_ge sweep":
        system = build_system(dataset)
        base = TbglssConfig(ThresholdSpec(t_rms=t_rms), BglssConfig(seed=seed))
        return sweep(system, "t_ge", default_grid("t_ge"), base,
                     truth=truth_on(dataset, LibrarySpec.standard(), system))
    clean = solved[family].field
    if task == "data mse":
        return data_mse(dataset.field, clean)
    return filter_sweep(dataset.field, clean, *arguments)

"""End-to-end wiring: dataset -> derivatives -> grouped system -> discovery.

`build_system` resolves the dataset's `DifferentiationSpec` and runs its
prefilters.  `discover` builds the system, doubles tbglss's chains on noisy
data and records provenance; `selection.fit`, the one method dispatch, runs
the method its config's type names and chooses a baseline parameter left None.
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

from .differentiation import DifferentiationSpec, build_derivative_stack
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
    metadata["filters"] = list(metadata["filters"]) + [asdict(spec)]
    return Dataset(filtered, metadata)


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

    The design is allocated once, step-major, and normalized in place.  The
    pointwise target u_t (n_x, n_t) is laid out like it: transposed when time
    varies, so steps index time, and as it is when space varies.
    """
    library = library or LibrarySpec.standard()
    diff = _resolved_differentiation(dataset, diff)
    field_used = dataset.field
    for axis, prefilter in (("time", diff.prefilter_time), ("space", diff.prefilter_space)):
        if prefilter is not None:  # (window, degree)
            field_used = apply_filter(field_used, FilterSpec.of("savitzky_golay", *prefilter,
                                                                axis=axis))
    stack = build_derivative_stack(field_used, diff, library.max_derivative,
                                   dataset.metadata.get("retain_t_from"))
    del field_used  # a prefiltered copy is not needed past the derivatives

    varying = dataset.varying_axis
    target, step_coords = ((stack.u_t.T, stack.t_coords) if varying == "time"
                           else (stack.u_t, stack.x_coords))
    return assemble_grouped_system(evaluate_terms(stack, library, varying),
                                   np.ascontiguousarray(target), library.descriptors, varying,
                                   step_coords)


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
    results = drive([_ask(key) for _, _, key in rows], partial(_paper_task, solved, seed))
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

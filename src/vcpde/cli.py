"""Command-line interface: simulate, filter, discover, sweep, reproduce-paper.

Configuration precedence is command line > --config file > built-in defaults;
the config file is a flat JSON object whose keys are the long option names
with dashes replaced by underscores, and a key that no subcommand declares is
a validation error.  Every output embeds the options and seeds needed to
reproduce it bit-for-bit.  Exit codes: 0 success (including documented
expected-failure scenarios), 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dataio import load_dataset, save_dataset, save_report
from .fields import GridError
from .filters import FilterSpec, data_mse, filter_sweep
from .gibbs import ESTIMATE, BglssConfig, SamplerError, dump_ensemble
from .library import LibrarySpec, ZeroColumnError
from .pipeline import (
    Dataset,
    DifferentiationSpec,
    build_system,
    discover,
    filter_dataset,
    simulate_dataset,
)
from .selection import AXIS_METHODS, SWEEP_AXES, MethodConfig, SweepFailedError, default_grid, sweep
from .solvers import (
    SolverBlowupError,
    advection_diffusion_scenario,
    burgers_scenario,
    ks_scenario,
    solve,
    true_coefficients,
)
from .tbglss import ThresholdSpec

OUTPUT_ROOT_ENV = "VCPDE_OUTPUT_ROOT"

FAMILY_ALIASES = {
    "burgers": "burgers",
    "advection_diffusion": "advection_diffusion",
    "advection-diffusion": "advection_diffusion",
    "ad": "advection_diffusion",
    "kuramoto_sivashinsky": "kuramoto_sivashinsky",
    "kuramoto-sivashinsky": "kuramoto_sivashinsky",
    "ks": "kuramoto_sivashinsky",
}

_FACTORIES = {
    "burgers": burgers_scenario,
    "advection_diffusion": advection_diffusion_scenario,
    "kuramoto_sivashinsky": ks_scenario,
}


def make_scenario(family: str, n_x: int | None = None, n_t: int | None = None,
                  x_span=None, t_span=None):
    family = FAMILY_ALIASES.get(family.lower())
    if family is None:
        raise ValueError(f"unknown family; choose one of {sorted(set(FAMILY_ALIASES))}")
    kwargs = {}
    if n_x is not None:
        kwargs["n_x"] = n_x
    if n_t is not None:
        kwargs["n_t"] = n_t
    if x_span is not None:
        kwargs["x_span"] = x_span
    if t_span is not None:
        kwargs["t_span"] = t_span
    return _FACTORIES[family](**kwargs)


def scenario_from_metadata(metadata: dict):
    """Rebuild a built-in scenario from dataset metadata (for ground truth)."""
    family = metadata.get("family")
    if family not in _FACTORIES:
        raise ValueError(f"cannot rebuild scenario for family {family!r}")
    reference = _FACTORIES[family]()
    if metadata.get("coefficients") != reference.coefficient_formulas or (
        metadata.get("initial_condition") != reference.ic_formula
    ):
        raise ValueError("ground truth is only available for the built-in scenario coefficients")
    return _FACTORIES[family](
        x_span=tuple(metadata["x_span"]),
        t_span=tuple(metadata["t_span"]),
        n_x=metadata["n_x"],
        n_t=metadata["n_t"],
    )


def _out_root(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


def _parse_span(text: str) -> tuple[float, float]:
    lo, hi = text.split(":")
    return (float(lo), float(hi))


def _parse_range(text: str, log: bool = False) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def _parse_int_range(text: str) -> list[int]:
    parts = [int(p) for p in text.split(":")]
    if len(parts) == 3:
        return list(range(parts[0], parts[1] + 1, parts[2]))
    raise ValueError("window range must be start:stop:step")


def _dataset_stem(metadata: dict) -> str:
    noise = metadata.get("noise_level", 0.0)
    return f"{metadata['family']}_noise{noise:g}_seed{metadata.get('seed', 0)}"


def _filter_spec_from_args(args) -> FilterSpec:
    kind = args.kind.replace("-", "_")
    if kind == "moving_average":
        return FilterSpec.moving_average(args.window, axis=args.axis)
    if kind == "savitzky_golay":
        return FilterSpec.savitzky_golay(args.window, args.polyorder, axis=args.axis)
    if kind == "zero_phase_lowpass":
        if args.cutoff is None:
            raise ValueError("zero_phase_lowpass needs --cutoff")
        return FilterSpec.zero_phase_lowpass(args.cutoff, args.order, axis=args.axis)
    raise ValueError(f"unknown filter kind {args.kind!r}")


def _diff_spec_from_args(args) -> DifferentiationSpec:
    return DifferentiationSpec(
        method=args.diff_method,
        space_width=args.space_width,
        space_degree=args.space_degree,
        time_width=args.time_width,
        time_degree=args.time_degree,
    )


def _library_from_args(args) -> LibrarySpec:
    return LibrarySpec.standard(args.max_power, args.max_derivative)


# Sampler and SGTR options that discover and sweep share: flag, type, default, help.
SAMPLER_OPTIONS = (
    ("--t-rms", float, None, "group RMS threshold"),
    ("--t-ge", float, None, "group error bar threshold"),
    ("--lam", float, None, "group-lasso rate (default 1.0)"),
    ("--pi0", float, None, "fixed spike weight (default: estimate)"),
    ("--iterations", int, 1000, "final chain length"),
    ("--burnin", int, 200, None),
    ("--seed", int, 0, "sampler seed"),
    ("--sgtr-ridge", float, 1e-5, None),
)
SAMPLER_DEFAULTS = {flag[2:].replace("-", "_"): default for flag, _, default, _ in SAMPLER_OPTIONS}


def _method_config(options, method: str, thresholds: ThresholdSpec | None = None,
                   **fields) -> MethodConfig:
    """The MethodConfig of every command: `options` holds the SAMPLER_OPTIONS values."""
    bglss = BglssConfig(
        n_iterations=options.iterations,
        n_burnin=options.burnin,
        lam=1.0 if options.lam is None else options.lam,
        pi0=ESTIMATE if options.pi0 is None else options.pi0,
        seed=options.seed,
    )
    return MethodConfig(method=method, thresholds=thresholds, bglss=bglss,
                        sgtr_ridge=options.sgtr_ridge, **fields)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"--{name} is required (on the command line or in --config)")
    return value


def cmd_simulate(args) -> int:
    _require(args.family, "family")
    scenario = make_scenario(args.family, args.nx, args.nt,
                             _parse_span(args.x_span) if args.x_span else None,
                             _parse_span(args.t_span) if args.t_span else None)
    dataset = simulate_dataset(scenario, args.noise, args.seed)
    outdir = _out_root(args.output)
    stem = _dataset_stem(dataset.metadata)
    ext = ".json" if args.format == "json" else ""
    path = save_dataset(dataset, outdir / f"{stem}{ext}", fmt=args.format)
    print(f"wrote {path}")
    if args.noise > 0:
        clean = Dataset(solve(scenario), {**dataset.metadata, "noise_level": 0.0})
        mse = data_mse(dataset.field, clean.field)
        print(f"data MSE vs clean: {mse!r}")
        if args.write_clean:
            clean_path = save_dataset(clean, outdir / f"{stem}_clean{ext}", fmt=args.format)
            print(f"wrote {clean_path}")
    return 0


def cmd_filter(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    _require(args.kind, "kind")
    spec = _filter_spec_from_args(args)
    filtered = filter_dataset(dataset, spec)
    if spec.kind == "zero_phase_lowpass":
        tag = f"{spec.kind}{spec.cutoff:g}"
    else:
        tag = f"{spec.kind}{spec.window}"
    ext = ".json" if args.format == "json" else ""
    out = _out_root(args.output) / f"{_dataset_stem(dataset.metadata)}_{tag}{ext}"
    path = save_dataset(filtered, out, fmt=args.format)
    print(f"wrote {path}")
    if args.clean:
        clean = load_dataset(args.clean)
        print(f"data MSE vs clean: {data_mse(filtered.field, clean.field)!r}")
    return 0


def cmd_discover(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    method_config = _method_config(
        args,
        args.method,
        ThresholdSpec(t_rms=args.t_rms, t_ge=args.t_ge) if args.method == "tbglss" else None,
        update_iterations=args.update_iterations,
        update_burnin=args.update_burnin,
        final_chains=args.final_chains,
        with_ci=args.with_ci,
        keep_final_ensemble=bool(args.dump_trace),
        sgtr_threshold=args.sgtr_threshold,
        lasso_lam=args.lasso_lam,
    )
    report = discover(
        dataset,
        method_config,
        library=_library_from_args(args),
        diff=_diff_spec_from_args(args),
    )
    outdir = _out_root(args.output)
    paths = save_report(report, outdir, stem=f"{report.method}_{_dataset_stem(dataset.metadata)}")
    print(f"wrote {paths['json']}")
    if args.dump_trace and report.final_ensemble is not None:
        trace_path = outdir / args.dump_trace
        dump_ensemble(report.final_ensemble, trace_path,
                      fmt="csv" if str(trace_path).endswith(".csv") else "npz")
        print(f"wrote {trace_path}")
    print(report.rendered_equation())
    if report.empty_model:
        print("status: no terms selected")
    return 0


def cmd_sweep(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    outdir = _out_root(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.filter:
        if not args.clean:
            raise ValueError("filter sweeps need --clean for the reference field")
        clean = load_dataset(args.clean)
        kind = args.filter.replace("-", "_")
        if kind in ("moving_average", "savitzky_golay"):
            if not args.windows:
                raise ValueError("window-based filter sweeps need --windows start:stop:step")
            grid = _parse_int_range(args.windows)
        else:
            grid = _parse_range(args.cutoffs) if args.cutoffs else np.arange(0.02, 0.2001, 0.0025)
        curve = filter_sweep(dataset.field, clean.field, kind, grid,
                             polyorder=args.polyorder, butterworth_order=args.order, axis=args.axis)
        stem = outdir / f"filter_sweep_{kind}"
        curve.to_csv(f"{stem}.csv")
        Path(f"{stem}.json").write_text(json.dumps(
            {"kind": kind, "axis": curve.axis, "argmin": curve.argmin, "min_mse": curve.min_mse},
            indent=2, sort_keys=True))
        print(f"wrote {stem}.csv")
        print(f"argmin: {curve.argmin!r}  min data MSE: {curve.min_mse!r}")
        return 0

    axis = args.axis_name
    if axis not in SWEEP_AXES:
        raise ValueError(f"--axis must be one of {SWEEP_AXES} (or use --filter)")
    system = build_system(dataset, library=_library_from_args(args), diff=_diff_spec_from_args(args))
    grid = _parse_range(args.range, log=args.log) if args.range else default_grid(axis, system)
    truth = None
    if args.with_truth:
        scenario = scenario_from_metadata(dataset.metadata)
        truth = true_coefficients(scenario, _library_from_args(args), step_coords=system.step_coords)
    method = AXIS_METHODS[axis]
    thresholds = None
    if method == "tbglss":  # sweep sets the swept threshold at each point; 0.0 holds its place
        thresholds = ThresholdSpec(**{"t_rms": args.t_rms, "t_ge": args.t_ge, axis: 0.0})
    curve = sweep(system, axis, grid, _method_config(args, method, thresholds), truth=truth)
    stem = outdir / f"sweep_{axis}_{_dataset_stem(dataset.metadata)}"
    curve.to_csv(f"{stem}.csv")
    curve.to_json(f"{stem}.json")
    n_ok = sum(1 for p in curve.points if p.error is None)
    print(f"wrote {stem}.csv ({n_ok}/{len(curve.points)} points succeeded)")
    print(f"argmin: {curve.argmin!r}")
    return 0 if n_ok else 2


BENCHMARK_CELLS = {
    "burgers": {"noises": (0.0, 0.01, 0.05), "thresholds": {0.0: (0.02, 0.1), 0.01: (0.02, 0.1), 0.05: (0.01, 0.1)}},
    "advection_diffusion": {"noises": (0.0, 0.01, 0.02), "thresholds": {0.0: (0.02, 0.08), 0.01: (0.02, 0.08), 0.02: (0.01, 0.08)}},
    "kuramoto_sivashinsky": {"noises": (0.0, 0.0001), "thresholds": {0.0: (0.1, 0.05), 0.0001: (0.1, 0.05)}},
}


def cmd_reproduce(args) -> int:
    """Run the benchmark grid: three equations x noise levels x three methods,
    the t_GE model-selection sweep, and the 5% Burgers filter study."""
    options = argparse.Namespace(**{**SAMPLER_DEFAULTS, "seed": args.seed})
    outdir = _out_root(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    done = []

    def wanted(cell: str) -> bool:
        return args.only is None or args.only in cell

    for family, spec in BENCHMARK_CELLS.items():
        for noise in spec["noises"]:
            cell_data = None
            for method in ("tbglss", "sgtr", "group_lasso"):
                cell = f"{family}_noise{noise:g}_{method}"
                if not wanted(cell):
                    continue
                if cell_data is None:
                    scenario = make_scenario(family)
                    cell_data = simulate_dataset(scenario, noise, seed=args.seed)
                t_rms, t_ge = spec["thresholds"][noise]
                thresholds = ThresholdSpec(t_rms, t_ge) if method == "tbglss" else None
                report = discover(cell_data, _method_config(options, method, thresholds))
                save_report(report, outdir / cell)
                done.append(cell)
                print(f"[{cell}] {report.rendered_equation()}")

    if wanted("ad_tge_sweep"):
        scenario = make_scenario("advection_diffusion")
        dataset = simulate_dataset(scenario, 0.02, seed=args.seed)
        system = build_system(dataset)
        truth = true_coefficients(scenario, LibrarySpec.standard(), step_coords=system.step_coords)
        base = _method_config(options, "tbglss", ThresholdSpec(t_rms=0.01))
        curve = sweep(system, "t_ge", np.linspace(0.02, 0.22, 11), base, truth=truth)
        curve.to_csv(outdir / "ad_tge_sweep.csv")
        curve.to_json(outdir / "ad_tge_sweep.json")
        done.append("ad_tge_sweep")
        print(f"[ad_tge_sweep] argmin {curve.argmin!r}")

    if wanted("burgers_filter_study"):
        scenario = make_scenario("burgers")
        clean = Dataset(solve(scenario), {**scenario.metadata(), "noise_level": 0.0, "seed": args.seed})
        noisy = simulate_dataset(scenario, 0.05, seed=args.seed)
        print(f"[burgers_filter_study] 5% data MSE {data_mse(noisy.field, clean.field)!r}")
        sweeps = {
            "moving_average": range(5, 23, 2),
            "savitzky_golay": range(5, 63, 2),
            "zero_phase_lowpass": np.arange(0.02, 0.2001, 0.0025),
        }
        for kind, grid in sweeps.items():
            curve = filter_sweep(noisy.field, clean.field, kind, grid)
            curve.to_csv(outdir / f"burgers_filter_{kind}.csv")
            print(f"[burgers_filter_study] {kind}: argmin {curve.argmin!r} min {curve.min_mse!r}")
        mc = _method_config(options, "tbglss", ThresholdSpec(0.01, 0.1))
        filtered = filter_dataset(noisy, FilterSpec.moving_average(13))
        for tag, ds in (("unfiltered", noisy), ("moving_average_13", filtered)):
            report = discover(ds, mc)
            save_report(report, outdir / f"burgers_5pct_{tag}")
            print(f"[burgers_filter_study] {tag}: {report.rendered_equation()}")
        done.append("burgers_filter_study")

    if not done:
        raise ValueError(f"--only {args.only!r} matched no cells")
    print(f"completed {len(done)} cells under {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcpde",
        description="Discover PDEs with time- or space-varying coefficients from gridded data.",
    )
    parser.add_argument("--config", help="JSON file of default option values (CLI overrides it)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", default=None,
                       help=f"output directory (default: ${OUTPUT_ROOT_ENV} or '.')")

    def add_sampler_options(p):
        for flag, kind, default, text in SAMPLER_OPTIONS:
            p.add_argument(flag, type=kind, default=default, help=text)

    def add_method_options(p):
        p.add_argument("--method", default="tbglss", choices=("tbglss", "sgtr", "group_lasso"))
        add_sampler_options(p)
        p.add_argument("--update-iterations", type=int, default=200, help="screening chain length")
        p.add_argument("--update-burnin", type=int, default=50)
        p.add_argument("--final-chains", type=int, default=1)
        p.add_argument("--sgtr-threshold", type=float, default=None)
        p.add_argument("--lasso-lam", type=float, default=None)
        add_diff_options(p)
        add_library_options(p)

    def add_diff_options(p):
        p.add_argument("--diff-method", default="auto",
                       choices=("auto", "finite_difference", "poly_fit"))
        p.add_argument("--space-width", type=int, default=9)
        p.add_argument("--space-degree", type=int, default=4)
        p.add_argument("--time-width", type=int, default=5)
        p.add_argument("--time-degree", type=int, default=3)

    def add_library_options(p):
        p.add_argument("--max-power", type=int, default=3, help="highest power of u")
        p.add_argument("--max-derivative", type=int, default=4, help="highest x-derivative order")

    p = sub.add_parser("simulate", help="solve a scenario and write a dataset archive")
    p.add_argument("--family", default=None)
    p.add_argument("--noise", type=float, default=0.0, help="white noise level as a fraction of sigma_u")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--nt", type=int, default=None)
    p.add_argument("--x-span", default=None, help="lo:hi")
    p.add_argument("--t-span", default=None, help="lo:hi")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--write-clean", action=argparse.BooleanOptionalAction, default=True,
                   help="also write the clean twin when noise > 0")
    add_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="denoise a dataset with one of the preprocessing filters")
    p.add_argument("--dataset", default=None)
    p.add_argument("--kind", default=None,
                   choices=("moving_average", "savitzky_golay", "zero_phase_lowpass"))
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--polyorder", type=int, default=3)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--order", type=int, default=4, help="butterworth order")
    p.add_argument("--axis", default="time", choices=("time", "space"))
    p.add_argument("--clean", default=None, help="clean dataset for the data-MSE printout")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    add_output(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("discover", help="run one discovery method on a dataset")
    p.add_argument("--dataset", default=None)
    p.add_argument("--with-ci", action="store_true",
                   help="embed bootstrap confidence intervals in the report")
    p.add_argument("--dump-trace", default=None, metavar="FILE",
                   help="also dump the final chain's retained draws (.npz or .csv)")
    add_method_options(p)
    add_output(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("sweep", help="sweep a threshold/penalty or a filter parameter")
    p.add_argument("--dataset", default=None)
    p.add_argument("--axis", dest="axis_name", default=None,
                   help=f"one of {', '.join(SWEEP_AXES)}")
    p.add_argument("--range", default=None, help="lo:hi:count")
    p.add_argument("--log", action="store_true", help="logarithmic range spacing")
    p.add_argument("--with-truth", action="store_true",
                   help="also record coefficient MSE against the built-in scenario truth")
    add_sampler_options(p)
    p.add_argument("--filter", default=None,
                   choices=("moving_average", "savitzky_golay", "zero_phase_lowpass"),
                   help="sweep a filter parameter instead of a method parameter")
    p.add_argument("--windows", default=None, help="start:stop:step (odd windows)")
    p.add_argument("--cutoffs", default=None, help="lo:hi:count for the lowpass cutoff")
    p.add_argument("--polyorder", type=int, default=3)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--clean", default=None)
    p.add_argument("--axis-direction", dest="axis", default="time", choices=("time", "space"),
                   help="grid axis the filter runs along")
    add_diff_options(p)
    add_library_options(p)
    add_output(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce-paper",
                       help="run the full benchmark grid and the filter study")
    p.add_argument("--only", default=None, help="substring filter for cells, e.g. burgers_noise0")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=cmd_reproduce)

    parser.subcommand_parsers = dict(sub.choices)
    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the --config file's values the defaults of every subcommand that declares them."""
    try:
        overrides = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    declared = {name: {action.dest for action in sub._actions}
                for name, sub in parser.subcommand_parsers.items()}
    unknown = sorted(set(overrides).difference(*declared.values()))
    if unknown:
        raise ValueError(f"config file {path} has keys no command declares: {', '.join(unknown)}")
    for name, sub in parser.subcommand_parsers.items():
        sub.set_defaults(**{k: v for k, v in overrides.items() if k in declared[name]})


def main(argv=None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    try:
        if args.config:
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        elif remaining:
            parser.error(f"unrecognized arguments: {' '.join(remaining)}")
        return args.func(args)
    except (ValueError, GridError, ZeroColumnError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverBlowupError, SamplerError, SweepFailedError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

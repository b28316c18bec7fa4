"""Command-line interface: simulate, filter, discover, sweep, reproduce-paper.

The commands parse options, call the library and print; the library holds the
decisions.  Configuration precedence is command line > --config file >
built-in defaults; the sampler, method, differentiation, library and filter
options default to BglssConfig, MethodConfig, DifferentiationSpec,
LibrarySpec.standard and FilterSpec.of.  The config file is a flat JSON
object whose keys are the long option names with dashes replaced by
underscores, and a key that no subcommand declares is a validation error.
Every output embeds the options and seeds needed to reproduce it bit-for-bit.
Exit codes: 0 success (including documented expected-failure scenarios and
--help), 1 validation error (including a usage error, which also prints the
usage line, and a path that cannot be read), 2 numerical failure.
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
from .filters import FILTER_KINDS, FilterSpec, data_mse, filter_sweep, parameter_name
from .gibbs import BglssConfig, SamplerError, dump_ensemble
from .library import LibrarySpec, ZeroColumnError
from .pipeline import (
    DifferentiationSpec,
    build_system,
    discover,
    filter_dataset,
    noisy_dataset,
    simulate_dataset,
)
from .selection import (AXIS_METHODS, METHODS, SWEEP_AXES, MethodConfig, SweepFailedError,
                        default_grid, sweep)
from .solvers import (
    SolverBlowupError,
    check_noise_level,
    make_scenario,
    scenario_from_metadata,
    true_coefficients,
)
from .tbglss import ThresholdSpec

OUTPUT_ROOT_ENV = "VCPDE_OUTPUT_ROOT"


def _out_root(value: str | None) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


def _split(text: str, option: str, form: str, *types) -> list:
    """The ':'-separated fields of `text`, one per type in `types`, for `option` of `form`."""
    fields = text.split(":")
    try:
        if len(fields) == len(types):
            return [kind(field) for kind, field in zip(types, fields)]
    except ValueError:
        pass
    raise ValueError(f"{option} expects {form}, got {text!r}")


def _parse_span(text: str, option: str) -> tuple[float, float]:
    return tuple(_split(text, option, "lo:hi", float, float))


def _parse_range(text: str, option: str, log: bool = False) -> np.ndarray:
    lo, hi, count = _split(text, option, "lo:hi:count", float, float, int)
    if log:
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def _parse_int_range(text: str, option: str) -> list[int]:
    start, stop, step = _split(text, option, "start:stop:step", int, int, int)
    return list(range(start, stop + 1, step))


def _dataset_stem(metadata: dict) -> str:
    noise = metadata.get("noise_level", 0.0)
    return f"{metadata['family']}_noise{noise:g}_seed{metadata.get('seed', 0)}"


# Options whose default is the library's: option dest -> the field it sets.
BGLSS_OPTIONS = {"iterations": "n_iterations", "burnin": "n_burnin", "lam": "lam", "pi0": "pi0",
                 "seed": "seed"}
METHOD_OPTIONS = {name: name for name in ("update_iterations", "update_burnin", "final_chains",
                                          "with_ci", "sgtr_threshold", "sgtr_ridge", "lasso_lam")}
DIFF_OPTIONS = {"diff_method": "method", "space_width": "space_width",
                "space_degree": "space_degree", "time_width": "time_width",
                "time_degree": "time_degree"}
LIBRARY_OPTIONS = {"max_power": "max_poly_power", "max_derivative": "max_deriv_order"}
FILTER_OPTIONS = {"polyorder": "polyorder", "order": "butterworth_order", "axis": "axis"}


def _given(args, options: dict) -> dict:
    """The fields set by the options in `args` that have a value; unset ones keep their default."""
    return {field: getattr(args, dest) for dest, field in options.items()
            if getattr(args, dest, None) is not None}


def _diff_spec_from_args(args) -> DifferentiationSpec:
    return DifferentiationSpec(**_given(args, DIFF_OPTIONS))


def _library_from_args(args) -> LibrarySpec:
    return LibrarySpec.standard(**_given(args, LIBRARY_OPTIONS))


# Sampler and SGTR options that discover and sweep share: flag, type, help.
SAMPLER_OPTIONS = (
    ("--t-rms", float, "group RMS threshold"),
    ("--t-ge", float, "group error bar threshold"),
    ("--lam", float, f"group-lasso rate (default {BglssConfig.lam})"),
    ("--pi0", float, f"fixed spike weight (default: {BglssConfig.pi0})"),
    ("--iterations", int, "final chain length"),
    ("--burnin", int, None),
    ("--seed", int, "sampler seed"),
    ("--sgtr-ridge", float, None),
)


def _method_config(args, method: str, thresholds: ThresholdSpec | None = None,
                   **fields) -> MethodConfig:
    """The MethodConfig of every command, from the BGLSS_OPTIONS and METHOD_OPTIONS `args` sets."""
    return MethodConfig(method=method, thresholds=thresholds,
                        bglss=BglssConfig(**_given(args, BGLSS_OPTIONS)),
                        **_given(args, METHOD_OPTIONS), **fields)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"--{name} is required (on the command line or in --config)")
    return value


def cmd_simulate(args) -> int:
    _require(args.family, "family")
    check_noise_level(args.noise)
    scenario = make_scenario(args.family, args.nx, args.nt,
                             _parse_span(args.x_span, "--x-span") if args.x_span else None,
                             _parse_span(args.t_span, "--t-span") if args.t_span else None)
    clean = simulate_dataset(scenario, seed=args.seed)
    dataset = noisy_dataset(clean, args.noise, args.seed)
    outdir = _out_root(args.output)
    stem = _dataset_stem(dataset.metadata)
    ext = ".json" if args.format == "json" else ""
    path = save_dataset(dataset, outdir / f"{stem}{ext}", fmt=args.format)
    print(f"wrote {path}")
    if args.noise > 0:
        print(f"data MSE vs clean: {data_mse(dataset.field, clean.field)!r}")
        if args.write_clean:
            clean_path = save_dataset(clean, outdir / f"{stem}_clean{ext}", fmt=args.format)
            print(f"wrote {clean_path}")
    return 0


def cmd_filter(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    name = parameter_name(_require(args.kind, "kind"))
    spec = FilterSpec.of(args.kind, _require(getattr(args, name), name), **_given(args, FILTER_OPTIONS))
    filtered = filter_dataset(dataset, spec)
    ext = ".json" if args.format == "json" else ""
    tag = f"{spec.kind}{spec.parameter:g}"
    out = _out_root(args.output) / f"{_dataset_stem(dataset.metadata)}_{tag}{ext}"
    path = save_dataset(filtered, out, fmt=args.format)
    print(f"wrote {path}")
    if args.clean:
        clean = load_dataset(args.clean)
        print(f"data MSE vs clean: {data_mse(filtered.field, clean.field)!r}")
    return 0


def cmd_discover(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    method = args.method or MethodConfig.method
    wants_thresholds = method == "tbglss" or args.t_rms is not None or args.t_ge is not None
    thresholds = ThresholdSpec(t_rms=args.t_rms, t_ge=args.t_ge) if wants_thresholds else None
    if args.dump_trace and method != "tbglss":
        raise ValueError(f"--dump-trace needs the tbglss method: {method} samples no draws")
    method_config = _method_config(args, method, thresholds,
                                   keep_final_ensemble=bool(args.dump_trace))
    report = discover(
        dataset,
        method_config,
        library=_library_from_args(args),
        diff=_diff_spec_from_args(args),
    )
    outdir = _out_root(args.output)
    paths = save_report(report, outdir, stem=f"{report.method}_{_dataset_stem(dataset.metadata)}")
    print(f"wrote {paths['json']}")
    if args.dump_trace and report.final_ensemble is None:
        print("no trace written: no terms selected")
    elif args.dump_trace:
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
        kind = args.filter
        if parameter_name(kind) == "cutoff":
            grid = _parse_range(args.cutoffs, "--cutoffs") if args.cutoffs else None
        else:
            grid = _parse_int_range(args.windows, "--windows") if args.windows else None
        curve = filter_sweep(dataset.field, clean.field, kind, grid, **_given(args, FILTER_OPTIONS))
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
    grid = _parse_range(args.range, "--range", log=args.log) if args.range else None
    system = build_system(dataset, library=_library_from_args(args), diff=_diff_spec_from_args(args))
    grid = default_grid(axis, system) if grid is None else grid
    truth = None
    if args.with_truth:
        truth = true_coefficients(scenario_from_metadata(dataset.metadata),
                                  _library_from_args(args), step_coords=system.step_coords)
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
    the t_GE model-selection sweep, and the 5% Burgers filter study.  Each
    family is solved once; every dataset of it adds its noise to that solve."""
    outdir = _out_root(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    done = []
    solved = {}

    def wanted(cell: str) -> bool:
        return args.only is None or args.only in cell

    def data(family: str, noise: float):
        if family not in solved:
            solved[family] = simulate_dataset(make_scenario(family), seed=args.seed)
        return noisy_dataset(solved[family], noise, args.seed)

    for family, spec in BENCHMARK_CELLS.items():
        for noise in spec["noises"]:
            for method in METHODS:
                cell = f"{family}_noise{noise:g}_{method}"
                if not wanted(cell):
                    continue
                t_rms, t_ge = spec["thresholds"][noise]
                thresholds = ThresholdSpec(t_rms, t_ge) if method == "tbglss" else None
                report = discover(data(family, noise), _method_config(args, method, thresholds))
                save_report(report, outdir / cell)
                done.append(cell)
                print(f"[{cell}] {report.rendered_equation()}")

    if wanted("ad_tge_sweep"):
        system = build_system(data("advection_diffusion", 0.02))
        truth = true_coefficients(make_scenario("advection_diffusion"), LibrarySpec.standard(),
                                  step_coords=system.step_coords)
        base = _method_config(args, "tbglss", ThresholdSpec(t_rms=0.01))
        curve = sweep(system, "t_ge", default_grid("t_ge"), base, truth=truth)
        curve.to_csv(outdir / "ad_tge_sweep.csv")
        curve.to_json(outdir / "ad_tge_sweep.json")
        done.append("ad_tge_sweep")
        print(f"[ad_tge_sweep] argmin {curve.argmin!r}")

    if wanted("burgers_filter_study"):
        clean, noisy = data("burgers", 0.0), data("burgers", 0.05)
        print(f"[burgers_filter_study] 5% data MSE {data_mse(noisy.field, clean.field)!r}")
        for kind in FILTER_KINDS:
            curve = filter_sweep(noisy.field, clean.field, kind)
            curve.to_csv(outdir / f"burgers_filter_{kind}.csv")
            print(f"[burgers_filter_study] {kind}: argmin {curve.argmin!r} min {curve.min_mse!r}")
        mc = _method_config(args, "tbglss", ThresholdSpec(0.01, 0.1))
        filtered = filter_dataset(noisy, FilterSpec.of("moving_average", 13))
        for tag, ds in (("unfiltered", noisy), ("moving_average_13", filtered)):
            report = discover(ds, mc)
            save_report(report, outdir / f"burgers_5pct_{tag}")
            print(f"[burgers_filter_study] {tag}: {report.rendered_equation()}")
        done.append("burgers_filter_study")

    if not done:
        raise ValueError(f"--only {args.only!r} matched no cells")
    print(f"completed {len(done)} cells under {outdir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors (argparse exits 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vcpde",
        description="Discover PDEs with time- or space-varying coefficients from gridded data.",
    )
    parser.add_argument("--config", help="JSON file of default option values (CLI overrides it)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", default=None,
                       help=f"output directory (default: ${OUTPUT_ROOT_ENV} or '.')")

    def add_sampler_options(p):
        for flag, kind, text in SAMPLER_OPTIONS:
            p.add_argument(flag, type=kind, default=None, help=text)

    def add_method_options(p):
        p.add_argument("--method", default=None, choices=METHODS)
        add_sampler_options(p)
        p.add_argument("--update-iterations", type=int, default=None, help="screening chain length")
        p.add_argument("--update-burnin", type=int, default=None)
        p.add_argument("--final-chains", type=int, default=None)
        p.add_argument("--sgtr-threshold", type=float, default=None)
        p.add_argument("--lasso-lam", type=float, default=None)
        add_diff_options(p)
        add_library_options(p)

    def add_diff_options(p):
        p.add_argument("--diff-method", default=None,
                       choices=("auto", "finite_difference", "poly_fit"))
        p.add_argument("--space-width", type=int, default=None)
        p.add_argument("--space-degree", type=int, default=None)
        p.add_argument("--time-width", type=int, default=None)
        p.add_argument("--time-degree", type=int, default=None)

    def add_library_options(p):
        p.add_argument("--max-power", type=int, default=None, help="highest power of u")
        p.add_argument("--max-derivative", type=int, default=None,
                       help="highest x-derivative order")

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
    p.add_argument("--kind", default=None, choices=FILTER_KINDS)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--polyorder", type=int, default=None)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--order", type=int, default=None, help="butterworth order")
    p.add_argument("--axis", default=None, choices=("time", "space"))
    p.add_argument("--clean", default=None, help="clean dataset for the data-MSE printout")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    add_output(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("discover", help="run one discovery method on a dataset")
    p.add_argument("--dataset", default=None)
    p.add_argument("--with-ci", action="store_true",
                   help="embed bootstrap confidence intervals in the report")
    p.add_argument("--dump-trace", default=None, metavar="FILE",
                   help="also dump the final chain's retained draws (.npz or .csv); "
                        "nothing is written when no term is selected")
    add_method_options(p)
    add_output(p)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("sweep", help="sweep a threshold/penalty or a filter parameter")
    p.add_argument("--dataset", default=None)
    p.add_argument("--axis", dest="axis_name", default=None,
                   help=f"one of {', '.join(SWEEP_AXES)}")
    p.add_argument("--range", default=None,
                   help="lo:hi:count; write --range=lo:hi:count when lo is negative")
    p.add_argument("--log", action="store_true", help="logarithmic range spacing")
    p.add_argument("--with-truth", action="store_true",
                   help="also record coefficient MSE against the built-in scenario truth")
    add_sampler_options(p)
    p.add_argument("--filter", default=None, choices=FILTER_KINDS,
                   help="sweep a filter parameter instead of a method parameter")
    p.add_argument("--windows", default=None,
                   help="start:stop:step (odd windows; default: the kind's built-in grid)")
    p.add_argument("--cutoffs", default=None,
                   help="lo:hi:count for the lowpass cutoff (default: the built-in grid); "
                        "write --cutoffs=lo:hi:count when lo is negative")
    p.add_argument("--polyorder", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--clean", default=None)
    p.add_argument("--axis-direction", dest="axis", default=None, choices=("time", "space"),
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
    declared = {action.dest for sub in parser.subcommand_parsers.values()
                for action in sub._actions}
    unknown = sorted(set(overrides) - declared)
    if unknown:
        raise ValueError(f"config file {path} has keys no command declares: {', '.join(unknown)}")
    for sub in parser.subcommand_parsers.values():
        sub.set_defaults(**{action.dest: _config_value(action, overrides[action.dest], path)
                            for action in sub._actions if action.dest in overrides})


def _config_value(action: argparse.Action, value, path: str):
    """A config file's `value` for `action`, checked and converted as the command line would."""
    if value is None:  # null leaves the option at its built-in default
        return None
    try:
        if action.nargs == 0:  # a flag: the file says whether it is set
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            return value
        if action.type is None and not isinstance(value, str):
            raise ValueError("expected a string")
        parsed = value if action.type is None else action.type(str(value))
        if action.choices is not None and parsed not in action.choices:
            raise ValueError(f"expected one of {', '.join(map(str, action.choices))}")
        return parsed
    except ValueError as exc:
        raise ValueError(f"config file {path} sets {action.dest} to {value!r}: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, remaining = parser.parse_known_args(argv)
        if args.config:
            _apply_config(parser, args.config)
            args = parser.parse_args(argv)
        elif remaining:
            parser.error(f"unrecognized arguments: {' '.join(remaining)}")
        return args.func(args)
    except (ValueError, GridError, ZeroColumnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverBlowupError, SamplerError, SweepFailedError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: simulate, filter, discover, sweep, reproduce-paper.

The commands parse options, call the library, print what it returns and write
it through `dataio`, which formats every file; the library holds the decisions
(reproduce-paper's grid is pipeline.paper_grid, written once all of it has
run).  Every option is one entry of OPTIONS, which names the commands that
declare it, the config field it sets and the modes that read it (a method, a
--diff-method, a filter kind, or a filter sweep); each command's parser is
built from that table.
Configuration precedence is command line > --config file > built-in defaults;
the sampler, method, differentiation, library and filter options default to
BglssConfig, the method's own config (selection.METHODS), DifferentiationSpec,
LibrarySpec.standard and FilterSpec.of.  An option that the path a command
takes does not read is a validation error naming its flag, except that every
method accepts --seed, which only tbglss reads.  `filter` filters with one
value of its kind's parameter (--window or --cutoff) and sweeps the parameter
over a range, or over the kind's default grid when --clean is given without
it.  The config file is a flat JSON object whose keys are the long option
names with dashes replaced by underscores, and a key that no command declares
is a validation error.
Datasets and reports embed the settings and seeds that made them; sweep files do not.
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
from typing import NamedTuple

import numpy as np

from .dataio import (load_dataset, save_dataset, save_filter_sweep, save_report, save_sweep,
                     save_trace)
from .differentiation import DIFF_METHODS, POLY_FIT_METHODS, DifferentiationSpec
from .filters import (FILTER_KINDS, FilterSpec, FilterSweepCurve, data_mse, filter_sweep,
                      parameter_name)
from .gibbs import BglssConfig, SamplerError
from .library import LibrarySpec
from .pipeline import (Dataset, _resolved_differentiation, build_system, discover,
                       filter_dataset, noisy_dataset, paper_grid, simulate_dataset, truth_on)
from .selection import (AXIS_METHODS, METHODS, SWEEP_AXES, SelectionCurve, SweepFailedError,
                        default_grid, sweep)
from .solvers import SolverBlowupError, check_noise_level, make_scenario
from .tbglss import DiscoveryReport, TbglssConfig, ThresholdSpec

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


def _parse_range(text: str, option: str, log: bool = False) -> np.ndarray:
    lo, hi, count = _split(text, option, "lo:hi:count", float, float, int)
    if count < 1 or not np.isfinite([lo, hi]).all():  # no config sees the grid first
        raise ValueError(f"{option} expects finite bounds and a positive count, got {text!r}")
    if log:
        if not (lo > 0 and hi > 0):
            raise ValueError(f"{option} with --log expects positive bounds, got {text!r}")
        return np.logspace(np.log10(lo), np.log10(hi), count)
    return np.linspace(lo, hi, count)


def _parse_int_range(text: str, option: str) -> list[int]:
    start, stop, step = _split(text, option, "start:stop:step", int, int, int)
    if step < 1 or stop < start:
        raise ValueError(f"{option} expects start <= stop and a positive step, got {text!r}")
    return list(range(start, stop + 1, step))


def _dataset_stem(dataset: Dataset) -> str:
    metadata = dataset.metadata
    return f"{metadata['family']}_noise{dataset.noise_level:g}_seed{metadata.get('seed', 0)}"


FILTER_MODES = ("filter", "filter sweep")  # `filter` with one parameter value, or a sweep


class Option(NamedTuple):
    """One command-line option.

    `field` is the config field it sets as "<config>.<field>" (None: the command reads it
    itself).  `readers` are the modes of one kind (METHODS, DIFF_METHODS, FILTER_KINDS or
    FILTER_MODES) that read it; a path in another mode of that kind rejects it, and a
    command with no mode of that kind, like every command when `readers` is empty, reads it.
    """

    flag: str
    commands: tuple[str, ...]
    field: str | None
    readers: tuple[str, ...]
    settings: dict  # add_argument's keywords

    @property
    def dest(self) -> str:
        return self.settings.get("dest", self.flag[2:].replace("-", "_"))


def _option(flag: str, commands: str, field: str | None = None, readers: tuple = (),
            **settings) -> Option:
    return Option(flag, tuple(commands.split()), field, readers, {"default": None, **settings})


FIT = "discover sweep"
TBGLSS = ("tbglss",)
OPTIONS = (
    _option("--family", "simulate", help="burgers | ad | ks"),
    _option("--noise", "simulate", type=float, default=0.0,
            help="white noise level as a fraction of sigma_u"),
    _option("--seed", "simulate reproduce-paper", type=int, default=0,
            help="the data (noise) seed; reproduce-paper also seeds the tbglss sampler with it"),
    _option("--nx", "simulate", "scenario.n_x", type=int),
    _option("--nt", "simulate", "scenario.n_t", type=int),
    _option("--x-span", "simulate", "scenario.x_span", help="lo:hi"),
    _option("--t-span", "simulate", "scenario.t_span", help="lo:hi"),
    _option("--write-clean", "simulate", action=argparse.BooleanOptionalAction,
            help="write the clean twin beside the noisy dataset (default: yes); needs --noise > 0"),
    _option("--dataset", "filter discover sweep"),
    _option("--kind", "filter", choices=FILTER_KINDS),
    # type=str, so that a config file may give a number
    _option("--window", "filter", readers=("moving_average", "savitzky_golay"), type=str,
            help="odd window width, or start:stop:step to sweep those widths"),
    _option("--cutoff", "filter", readers=("zero_phase_lowpass",), type=str,
            help="normalized lowpass cutoff, or lo:hi:count to sweep that grid (write "
                 "--cutoff=lo:hi:count when lo is negative)"),
    _option("--polyorder", "filter", "filter.polyorder", ("savitzky_golay",), type=int),
    _option("--order", "filter", "filter.butterworth_order", ("zero_phase_lowpass",), type=int,
            help="butterworth order"),
    _option("--axis", "filter", "filter.axis", choices=("time", "space"),
            help="grid axis the filter runs along"),
    _option("--clean", "filter", help="clean dataset: the data-MSE printout of one filter, and "
                                      "the reference a sweep scores against"),
    _option("--format", "simulate filter", readers=("filter",), choices=("json", "csv"),
            help="dataset archive format (default: json)"),
    _option("--method", "discover", choices=METHODS),
    _option("--axis", "sweep", dest="axis_name", choices=SWEEP_AXES,
            help="the method parameter to sweep"),
    _option("--range", "sweep", help="lo:hi:count (default: the axis's built-in grid); write "
                                     "--range=lo:hi:count when lo is negative"),
    _option("--log", "sweep", action="store_true", help="logarithmic --range spacing"),
    _option("--with-truth", "sweep", action="store_true",
            help="also record coefficient MSE against the built-in scenario truth"),
    _option("--t-rms", FIT, "thresholds.t_rms", TBGLSS, type=float, help="group RMS threshold"),
    _option("--t-ge", FIT, "thresholds.t_ge", TBGLSS, type=float,
            help="group error bar threshold"),
    _option("--lam", FIT, "bglss.lam", TBGLSS, type=float,
            help=f"group-lasso rate (default {BglssConfig.lam})"),
    _option("--pi0", FIT, "bglss.pi0", TBGLSS, type=float,
            help=f"fixed spike weight (default: {BglssConfig.pi0})"),
    _option("--iterations", FIT, "bglss.n_iterations", TBGLSS, type=int,
            help="final chain length"),
    _option("--burnin", FIT, "bglss.n_burnin", TBGLSS, type=int),
    # Every method accepts --seed and only tbglss reads it: perfbench passes it to each job.
    _option("--seed", FIT, "bglss.seed", type=int, help="sampler seed"),
    _option("--update-iterations", "discover", "tbglss.update_iterations", TBGLSS, type=int,
            help="screening chain length"),
    _option("--update-burnin", "discover", "tbglss.update_burnin", TBGLSS, type=int),
    _option("--final-chains", "discover", "tbglss.final_chains", TBGLSS, type=int),
    _option("--with-ci", "discover", "tbglss.with_ci", TBGLSS, action="store_true",
            help="embed bootstrap intervals of each posterior median: its Monte Carlo "
                 "error, not a band for the true coefficient (that is stdev)"),
    _option("--dump-trace", "discover", None, TBGLSS, metavar="FILE",
            help="also dump the final chain's retained draws: a CSV for a .csv name, else an "
                 ".npz archive (.npz is appended if missing); nothing is written when no "
                 "term is selected"),
    _option("--sgtr-threshold", "discover", "sgtr.threshold", ("sgtr",), type=float),
    _option("--sgtr-ridge", FIT, "sgtr.ridge", ("sgtr",), type=float),
    _option("--lasso-lam", "discover", "group_lasso.lam", ("group_lasso",), type=float),
    _option("--diff-method", FIT, "diff.method", choices=DIFF_METHODS),
    _option("--space-width", FIT, "diff.space_width", POLY_FIT_METHODS, type=int),
    _option("--space-degree", FIT, "diff.space_degree", POLY_FIT_METHODS, type=int),
    _option("--time-width", FIT, "diff.time_width", POLY_FIT_METHODS, type=int),
    _option("--time-degree", FIT, "diff.time_degree", POLY_FIT_METHODS, type=int),
    _option("--max-power", FIT, "library.max_poly_power", type=int, help="highest power of u"),
    _option("--max-derivative", FIT, "library.max_deriv_order", type=int,
            help="highest x-derivative order"),
    _option("--only", "reproduce-paper", help="substring filter for cells, e.g. burgers_noise0"),
    _option("--output", "simulate filter discover sweep reproduce-paper",
            help=f"output directory (default: ${OUTPUT_ROOT_ENV} or '.')"),
)


def _declared(args) -> list[Option]:
    """The options of the command `args` was parsed for."""
    return [option for option in OPTIONS if args.command in option.commands]


def _given(args, config: str) -> dict:
    """The fields of `config` set by the options in `args` that have a value; unset ones keep
    their default."""
    return {option.field.partition(".")[2]: getattr(args, option.dest)
            for option in _declared(args) if option.field
            and option.field.partition(".")[0] == config and getattr(args, option.dest) is not None}


def _reject(args, mode: str, modes: tuple, reader: str | None = None) -> None:
    """Each option `args` sets that some of `modes` read but `mode` does not is an error that
    names its flag and says `reader` (default `mode`) does not use it."""
    unused = [option.flag for option in _declared(args)
              if option.readers and set(option.readers) <= set(modes)
              and mode not in option.readers and getattr(args, option.dest) is not None]
    if unused:
        raise ValueError(f"{reader or mode} does not use {' or '.join(unused)}")


def _diff_spec_from_args(args, dataset: Dataset) -> DifferentiationSpec:
    """The differentiation spec `args` sets.  An option its method does not read is an error
    naming its flag, and so is one the method `auto` picks for `dataset` does not read."""
    method = args.diff_method or "auto"
    _reject(args, method, DIFF_METHODS, f"--diff-method {method}")
    spec = DifferentiationSpec(**_given(args, "diff"))
    picked = _resolved_differentiation(dataset, spec).method
    _reject(args, picked, DIFF_METHODS,
            f"--diff-method auto, which picks {picked} at noise level {dataset.noise_level:g},")
    return spec


def _library_from_args(args) -> LibrarySpec:
    return LibrarySpec.standard(**_given(args, "library"))


def _method_config(args, method: str, swept: str | None = None, **fields):
    """`method`'s config (selection.METHODS) from the options `args` sets, plus `fields`; an
    option `method` does not read is an error.  On a sweep of the threshold `swept`, 0.0
    holds its place: --range, not its option, sets it."""
    _reject(args, method, tuple(METHODS))
    if method != "tbglss":
        return METHODS[method](**_given(args, method), **fields)
    thresholds = _given(args, "thresholds")
    if swept in ("t_rms", "t_ge"):
        if swept in thresholds:
            raise ValueError(f"--axis {swept} sweeps {swept}: give its values with --range, "
                             f"not --{swept.replace('_', '-')}")
        thresholds[swept] = 0.0
    if not thresholds:
        raise ValueError("at least one threshold must be given: --t-rms or --t-ge")
    return TbglssConfig(ThresholdSpec(**thresholds), BglssConfig(**_given(args, "bglss")),
                        **_given(args, "tbglss"), **fields)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"--{name} is required (on the command line or in --config)")
    return value


def cmd_simulate(args) -> int:
    _require(args.family, "family")
    check_noise_level(args.noise)
    if args.noise == 0 and args.write_clean is not None:
        raise ValueError("--write-clean and --no-write-clean need --noise > 0: "
                         "a clean dataset has no clean twin")
    grid = _given(args, "scenario")
    for name in ("x_span", "t_span"):
        if name in grid:
            flag = "--" + name.replace("_", "-")
            grid[name] = tuple(_split(grid[name], flag, "lo:hi", float, float))
    clean = simulate_dataset(make_scenario(args.family, **grid), seed=args.seed)
    dataset = noisy_dataset(clean, args.noise, args.seed)
    outdir = _out_root(args.output)
    stem = _dataset_stem(dataset)
    fmt = args.format or "json"
    ext = ".json" if fmt == "json" else ""
    path = save_dataset(dataset, outdir / f"{stem}{ext}", fmt=fmt)
    print(f"wrote {path}")
    if args.noise > 0:
        print(f"data MSE vs clean: {data_mse(dataset.field, clean.field)!r}")
        if args.write_clean is not False:
            clean_path = save_dataset(clean, outdir / f"{stem}_clean{ext}", fmt=fmt)
            print(f"wrote {clean_path}")
    return 0


def cmd_filter(args) -> int:
    """Filter with one value of the kind's parameter, or sweep it over a range (the kind's
    default grid when --clean is given without it)."""
    dataset = load_dataset(_require(args.dataset, "dataset"))
    kind = _require(args.kind, "kind")
    name = parameter_name(kind)
    flag, text = "--" + name, getattr(args, name)
    if not args.clean:
        _require(text, name)
    _reject(args, kind, FILTER_KINDS, f"a {kind} filter")
    options = _given(args, "filter")
    clean = load_dataset(args.clean) if args.clean else None
    if text is not None and ":" not in text:
        value, = _split(text, flag, "one value or a range", int if name == "window" else float)
        spec = FilterSpec.of(kind, value, **options)
        filtered = filter_dataset(dataset, spec)
        fmt = args.format or "json"
        ext = ".json" if fmt == "json" else ""
        tag = f"{spec.kind}{spec.parameter:g}"
        out = _out_root(args.output) / f"{_dataset_stem(dataset)}_{tag}{ext}"
        path = save_dataset(filtered, out, fmt=fmt)
        print(f"wrote {path}")
        if clean is not None:
            print(f"data MSE vs clean: {data_mse(filtered.field, clean.field)!r}")
        return 0

    _reject(args, "filter sweep", FILTER_MODES, "a filter sweep")
    if clean is None:
        raise ValueError("a filter sweep needs --clean for the reference field")
    grid = None if text is None else (
        _parse_range(text, flag) if name == "cutoff" else _parse_int_range(text, flag))
    curve = filter_sweep(dataset.field, clean.field, kind, grid, **options)
    paths = save_filter_sweep(curve, _out_root(args.output) / f"filter_sweep_{kind}")
    print(f"wrote {paths['csv']}")
    print(f"argmin: {curve.argmin!r}  min data MSE: {curve.min_mse!r}")
    return 0


def cmd_discover(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    fields = {"keep_final_ensemble": True} if args.dump_trace else {}
    report = discover(
        dataset,
        _method_config(args, args.method or "tbglss", **fields),
        library=_library_from_args(args),
        diff=_diff_spec_from_args(args, dataset),
    )
    outdir = _out_root(args.output)
    paths = save_report(report, outdir, stem=f"{report.method}_{_dataset_stem(dataset)}")
    print(f"wrote {paths['json']}")
    if args.dump_trace and report.final_ensemble is None:
        print("no trace written: no terms selected")
    elif args.dump_trace:
        print(f"wrote {save_trace(report.final_ensemble, outdir / args.dump_trace)}")
    print(report.rendered_equation())
    if report.empty_model:
        print("status: no terms selected")
    return 0


def cmd_sweep(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    axis = _require(args.axis_name, "axis")
    if args.log and not args.range:
        raise ValueError("--log spaces --range: give --range with it")
    grid = _parse_range(args.range, "--range", log=args.log) if args.range else None
    method_config = _method_config(args, AXIS_METHODS[axis], swept=axis)
    system = build_system(dataset, library=_library_from_args(args),
                          diff=_diff_spec_from_args(args, dataset))
    grid = default_grid(axis, system) if grid is None else grid
    truth = truth_on(dataset, _library_from_args(args), system) if args.with_truth else None
    curve = sweep(system, axis, grid, method_config, truth=truth)
    paths = save_sweep(curve,
                       _out_root(args.output) / f"sweep_{axis}_{_dataset_stem(dataset)}")
    n_ok = sum(1 for p in curve.points if p.error is None)
    print(f"wrote {paths['csv']} ({n_ok}/{len(curve.points)} points succeeded)")
    print(f"argmin: {curve.argmin!r}")
    return 0 if n_ok else 2


def cmd_reproduce(args) -> int:
    """Run the paper's grid (`pipeline.paper_grid`), then write and print each output."""
    outdir = _out_root(args.output)
    results = paper_grid(args.seed, args.only)
    if not results:
        raise ValueError(f"--only {args.only!r} matched no cells")
    for cell, name, result in results:
        # an output of the filter study, burgers_<part>_<label>, prints its label
        label = f"[{cell}]" if name == cell else f"[{cell}] {name.split('_', 2)[2]}:"
        if isinstance(result, DiscoveryReport):
            save_report(result, outdir / name)
            print(f"{label} {result.rendered_equation()}")
        elif isinstance(result, SelectionCurve):
            save_sweep(result, outdir / name)
            print(f"{label} argmin {result.argmin!r}")
        elif isinstance(result, FilterSweepCurve):
            save_filter_sweep(result, outdir / name)
            print(f"{label} argmin {result.argmin!r} min {result.min_mse!r}")
        else:
            print(f"[{cell}] 5% data MSE {result!r}")
    print(f"completed {len(dict.fromkeys(cell for cell, _, _ in results))} cells under {outdir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors (argparse exits 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


COMMANDS = {  # name: (function, help)
    "simulate": (cmd_simulate, "solve a scenario and write a dataset archive"),
    "filter": (cmd_filter, "denoise a dataset with one of the preprocessing filters; a range "
                           "for --window or --cutoff, or --clean without either, sweeps the "
                           "parameter against the clean field instead"),
    "discover": (cmd_discover, "run one discovery method on a dataset"),
    "sweep": (cmd_sweep, "sweep a threshold or penalty of one method"),
    "reproduce-paper": (cmd_reproduce, "run the full benchmark grid and the filter study"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vcpde",
        description="Discover PDEs with time- or space-varying coefficients from gridded data.",
    )
    parser.add_argument("--config", help="JSON file of default option values (CLI overrides it)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        for option in OPTIONS:
            if name in option.commands:
                p.add_argument(option.flag, **option.settings)
        p.set_defaults(func=func)
    parser.subcommand_parsers = dict(sub.choices)
    return parser


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Make the --config file's values the defaults of every command that declares them."""
    try:
        overrides = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(overrides) - {option.dest for option in OPTIONS})
    if unknown:
        raise ValueError(f"config file {path} has keys no command declares: {', '.join(unknown)}")
    for option in OPTIONS:
        value = _config_value(option, overrides.get(option.dest), path)
        if value is not None:  # null leaves the option at its built-in default
            for command in option.commands:
                parser.subcommand_parsers[command].set_defaults(**{option.dest: value})


def _config_value(option: Option, value, path: str):
    """A config file's `value` for `option`, checked and converted as the command line would."""
    if value is None:
        return None
    settings = option.settings
    try:
        if "action" in settings:  # a flag: the file says whether it is set
            if not isinstance(value, bool):
                raise ValueError("expected true or false")
            # false is --no-... for a flag that has that form, and a store_true flag not given
            return value if value or settings["action"] != "store_true" else None
        if "type" not in settings and not isinstance(value, str):
            raise ValueError("expected a string")
        parsed = settings.get("type", str)(str(value))
        if "choices" in settings and parsed not in settings["choices"]:
            raise ValueError(f"expected one of {', '.join(map(str, settings['choices']))}")
        return parsed
    except ValueError as exc:
        raise ValueError(f"config file {path} sets {option.dest} to {value!r}: {exc}") from None


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverBlowupError, SamplerError, SweepFailedError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: simulate, filter, discover, sweep, reproduce-paper.

The commands parse options, call the library and print; the library holds the
decisions.  Every option is one entry of OPTIONS, which names the commands
that declare it, the config field it sets and the modes that read it (a
method, a --diff-method, a filter kind, or a filter sweep); each command's
parser is built from that table.  Configuration precedence is command line >
--config file > built-in defaults; the sampler, method, differentiation,
library and filter options default to BglssConfig, the method's own config
(selection.METHODS), DifferentiationSpec, LibrarySpec.standard and
FilterSpec.of.  An option that the path a command takes does not read is a
validation error naming its flag, except that every method accepts --seed,
which only tbglss reads.  `filter` filters with one value of its kind's
parameter (--window or --cutoff) and sweeps the parameter over a range, or
over the kind's default grid when --clean is given without it.  The config
file is a flat JSON object whose keys are the long option names with dashes
replaced by underscores, and a key that no command declares is a validation
error.
Every output embeds the options and seeds needed to reproduce it bit-for-bit.
Exit codes: 0 success (including documented expected-failure scenarios and
--help), 1 validation error (including a usage error, which also prints the
usage line, and a path that cannot be read), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

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
from .selection import AXIS_METHODS, METHODS, SWEEP_AXES, SweepFailedError, default_grid, sweep
from .solvers import (
    SolverBlowupError,
    check_noise_level,
    make_scenario,
    scenario_from_metadata,
    true_coefficients,
)
from .tbglss import TbglssConfig, ThresholdSpec

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
    if count < 1:
        raise ValueError(f"{option} expects a positive count, got {text!r}")
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


def _dataset_stem(metadata: dict) -> str:
    noise = metadata.get("noise_level", 0.0)
    return f"{metadata['family']}_noise{noise:g}_seed{metadata.get('seed', 0)}"


DIFF_METHODS = ("auto", "finite_difference", "poly_fit")
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
TBGLSS, POLY_FIT = ("tbglss",), ("auto", "poly_fit")
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
    _option("--write-clean", "simulate", action=argparse.BooleanOptionalAction, default=True,
            help="also write the clean twin when noise > 0"),
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
            help="also dump the final chain's retained draws (.npz or .csv); "
                 "nothing is written when no term is selected"),
    _option("--sgtr-threshold", "discover", "sgtr.threshold", ("sgtr",), type=float),
    _option("--sgtr-ridge", FIT, "sgtr.ridge", ("sgtr",), type=float),
    _option("--lasso-lam", "discover", "group_lasso.lam", ("group_lasso",), type=float),
    _option("--diff-method", FIT, "diff.method", choices=DIFF_METHODS),
    _option("--space-width", FIT, "diff.space_width", POLY_FIT, type=int),
    _option("--space-degree", FIT, "diff.space_degree", POLY_FIT, type=int),
    _option("--time-width", FIT, "diff.time_width", POLY_FIT, type=int),
    _option("--time-degree", FIT, "diff.time_degree", POLY_FIT, type=int),
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


def _diff_spec_from_args(args) -> DifferentiationSpec:
    method = args.diff_method or "auto"
    _reject(args, method, DIFF_METHODS, f"--diff-method {method}")
    return DifferentiationSpec(**_given(args, "diff"))


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
    return TbglssConfig(ThresholdSpec(**thresholds), BglssConfig(**_given(args, "bglss")),
                        **_given(args, "tbglss"), **fields)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"--{name} is required (on the command line or in --config)")
    return value


def cmd_simulate(args) -> int:
    _require(args.family, "family")
    check_noise_level(args.noise)
    grid = _given(args, "scenario")
    for name in ("x_span", "t_span"):
        if name in grid:
            grid[name] = _parse_span(grid[name], "--" + name.replace("_", "-"))
    scenario = make_scenario(args.family, **grid)
    if scenario.retain_t_from is not None and scenario.t_span[1] < scenario.retain_t_from:
        raise ValueError(f"--t-span ends at {scenario.t_span[1]!r}, before the {scenario.family} "
                         f"scenario's retain_t_from={scenario.retain_t_from!r}: discovery "
                         f"would keep no time samples")
    clean = simulate_dataset(scenario, seed=args.seed)
    dataset = noisy_dataset(clean, args.noise, args.seed)
    outdir = _out_root(args.output)
    stem = _dataset_stem(dataset.metadata)
    fmt = args.format or "json"
    ext = ".json" if fmt == "json" else ""
    path = save_dataset(dataset, outdir / f"{stem}{ext}", fmt=fmt)
    print(f"wrote {path}")
    if args.noise > 0:
        print(f"data MSE vs clean: {data_mse(dataset.field, clean.field)!r}")
        if args.write_clean:
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
        out = _out_root(args.output) / f"{_dataset_stem(dataset.metadata)}_{tag}{ext}"
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
    outdir = _out_root(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = outdir / f"filter_sweep_{kind}"
    curve.to_csv(f"{stem}.csv")
    Path(f"{stem}.json").write_text(json.dumps(
        {"kind": kind, "axis": curve.axis, "argmin": curve.argmin, "min_mse": curve.min_mse},
        indent=2, sort_keys=True))
    print(f"wrote {stem}.csv")
    print(f"argmin: {curve.argmin!r}  min data MSE: {curve.min_mse!r}")
    return 0


def cmd_discover(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    fields = {"keep_final_ensemble": True} if args.dump_trace else {}
    report = discover(
        dataset,
        _method_config(args, args.method or "tbglss", **fields),
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


def _truth(dataset, library: LibrarySpec, system):
    """The built-in ground truth of the scenario `dataset` records, on `system`'s steps."""
    return true_coefficients(scenario_from_metadata(dataset.metadata), library,
                             step_coords=system.step_coords)


def cmd_sweep(args) -> int:
    dataset = load_dataset(_require(args.dataset, "dataset"))
    outdir = _out_root(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    axis = _require(args.axis_name, "axis")
    if args.log and not args.range:
        raise ValueError("--log spaces --range: give --range with it")
    grid = _parse_range(args.range, "--range", log=args.log) if args.range else None
    method_config = _method_config(args, AXIS_METHODS[axis], swept=axis)
    system = build_system(dataset, library=_library_from_args(args), diff=_diff_spec_from_args(args))
    grid = default_grid(axis, system) if grid is None else grid
    truth = _truth(dataset, _library_from_args(args), system) if args.with_truth else None
    curve = sweep(system, axis, grid, method_config, truth=truth)
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
    family is solved once; every dataset of it adds its noise to that solve.
    Each (dataset, method) is fitted once: the study's unfiltered arm is the
    5% Burgers tbglss cell."""
    outdir = _out_root(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    done = []

    def wanted(cell: str) -> bool:
        return args.only is None or args.only in cell

    @functools.cache
    def solved(family: str):
        return simulate_dataset(make_scenario(family), seed=args.seed)

    def data(family: str, noise: float):
        return noisy_dataset(solved(family), noise, args.seed)

    @functools.cache
    def fitted(family: str, noise: float, method: str, denoiser: FilterSpec | None):
        """The report of `method` on the cell's data, filtered by `denoiser` unless None."""
        dataset = data(family, noise)
        dataset = dataset if denoiser is None else filter_dataset(dataset, denoiser)
        thresholds = ThresholdSpec(*BENCHMARK_CELLS[family]["thresholds"][noise])
        return discover(dataset, TbglssConfig(thresholds, BglssConfig(seed=args.seed))
                        if method == "tbglss" else METHODS[method]())

    for family, spec in BENCHMARK_CELLS.items():
        for noise in spec["noises"]:
            for method in METHODS:
                cell = f"{family}_noise{noise:g}_{method}"
                if not wanted(cell):
                    continue
                report = fitted(family, noise, method, None)
                save_report(report, outdir / cell)
                done.append(cell)
                print(f"[{cell}] {report.rendered_equation()}")

    if wanted("ad_tge_sweep"):
        dataset = data("advection_diffusion", 0.02)
        system = build_system(dataset)
        truth = _truth(dataset, LibrarySpec.standard(), system)
        t_rms, _ = BENCHMARK_CELLS["advection_diffusion"]["thresholds"][0.02]
        base = TbglssConfig(ThresholdSpec(t_rms=t_rms), BglssConfig(seed=args.seed))
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
        for tag, denoiser in (("unfiltered", None),
                              ("moving_average_13", FilterSpec.of("moving_average", 13))):
            report = fitted("burgers", 0.05, "tbglss", denoiser)
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
            return value
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
    except (ValueError, GridError, ZeroColumnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverBlowupError, SamplerError, SweepFailedError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

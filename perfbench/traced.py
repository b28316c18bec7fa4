"""Traced run: the workload's own `vcpde.cli.main(argv)` jobs, with spans around every module.

While a traced pass runs, every public function of the modules in LAYERS, and
the `GroupedLinearSystem.gram` method, is replaced by a wrapper that records a
span named `<module>.<function>`.  The wrapper is installed under every name
the package binds the function to, so calls made through `from .x import f`
are traced too; the originals are restored when the pass ends.  Each job sits
in a `cli.<kind>` span.  Because the jobs are the same CLI calls, the traced
run writes the same files as the untraced one.

Counts are taken from the real calls: their arguments (a chain's length and
group count, a Gram's shape) and their return values (a lasso fit's sweeps, a
sweep's points, the files written).  A chain is named by a digest of its
system and its configuration, so `tbglss.chains_distinct` counts chains whose
inputs differ.  Counting runs in `trace.count` spans, which are left out of
every layer and job time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Modules of src/vcpde whose public functions are traced; `cli` is the job layer.
LAYERS = ("solvers", "filters", "differentiation", "library", "gibbs", "tbglss",
          "uncertainty", "selection", "baselines", "dataio", "pipeline")
# Layers whose self time is glue around the modules, reported as trace.unattributed_s.
GLUE = ("cli", "pipeline")


class Tracer:
    """In-memory spans: name, start, end, parent span index and job index."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None, "job": self.job}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def span_cost(repeats: int = 5000) -> float:
    """Seconds one traced call adds around a call that does nothing."""
    scratch = Tracer()
    noop = _wrap(scratch, "x", int, None, None)
    start = perf_counter()
    for _ in range(repeats):
        noop()
    return (perf_counter() - start) / repeats


def _chain_key(system, config) -> tuple:
    digest = hashlib.sha256(system.blocks.tobytes())
    digest.update(system.target.tobytes())
    return digest.hexdigest(), system.descriptors, repr(config)


def _count_chain(counts: Counter, distinct: set, call: dict, result) -> None:
    system, config = call["system"], call["config"]
    counts["chains"] += 1
    counts["group_updates"] += config.n_iterations * system.n_groups
    distinct.add(_chain_key(system, config))


def _count_gram(counts: Counter, distinct: set, call: dict, result) -> None:
    m, n, groups = call["self"].blocks.shape
    counts["gram_calls"] += 1
    counts["gram_madds"] += m * n * groups**2


def _count_lasso(counts: Counter, distinct: set, call: dict, result) -> None:
    counts["lasso_fits"] += 1
    counts["lasso_sweeps"] += result.n_sweeps
    counts["lasso_unconverged"] += not result.converged


def _count_points(counts: Counter, distinct: set, call: dict, result) -> None:
    counts["points"] += len(result.points)
    counts["failed_points"] += sum(p.error is not None for p in result.points)


def _count_bytes(counts: Counter, distinct: set, call: dict, result) -> None:
    paths = result.values() if isinstance(result, dict) else [result]
    counts["bytes_written"] += sum(Path(p).stat().st_size for p in paths)


COUNTERS = {
    "gibbs.sample_posterior": _count_chain,
    "library.gram": _count_gram,
    "baselines.group_lasso": _count_lasso,
    "selection.sweep": _count_points,
    "solvers.solve": lambda counts, distinct, call, result: counts.update(["solves"]),
    "uncertainty.bootstrap_median_ci":
        lambda counts, distinct, call, result: counts.update(["ci_coefficients"]),
    "dataio.save_dataset": _count_bytes,
    "dataio.save_report": _count_bytes,
}


def _wrap(tracer: Tracer, name: str, fn, counter, state):
    signature = inspect.signature(fn) if counter else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter:
            with tracer.span("trace.count"):
                counter(*state, signature.bind(*args, **kwargs).arguments, result)
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer, counts: Counter, distinct: set):
    """Trace every public function of LAYERS wherever the package binds it."""
    import vcpde
    import vcpde.cli
    from vcpde.library import GroupedLinearSystem

    modules = {layer: importlib.import_module(f"vcpde.{layer}") for layer in LAYERS}
    namespaces = [vcpde, vcpde.cli, *modules.values()]
    state = (counts, distinct)
    saved = [(GroupedLinearSystem, "gram", GroupedLinearSystem.gram)]
    GroupedLinearSystem.gram = _wrap(tracer, "library.gram", GroupedLinearSystem.gram,
                                     COUNTERS["library.gram"], state)
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = _wrap(tracer, name, fn, COUNTERS.get(name), state)
            for namespace in namespaces:
                for bound, value in list(vars(namespace).items()):
                    if value is fn:
                        saved.append((namespace, bound, fn))
                        setattr(namespace, bound, wrapper)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def run_pass(jobs: list, out: Path, run_job) -> dict:
    """Run every job with `run_job` under the tracer; job results, spans and per-layer metrics."""
    tracer, counts, distinct = Tracer(), Counter(), set()
    results = []
    with instrumented(tracer, counts, distinct):
        start = perf_counter()
        for index, job in enumerate(jobs):
            tracer.job = index
            with tracer.span(f"cli.{job.kind}"):
                results.append(run_job(job, out))
        wall = perf_counter() - start
    tracer.job = None
    metrics = layer_metrics(tracer, counts, len(distinct), wall, span_cost())
    spans = [dict(s, start=s["start"] - start, end=s["end"] - start) for s in tracer.spans]
    return {"jobs": results, "metrics": metrics, "spans": spans, "counts": dict(counts)}


def layer_metrics(t: Tracer, n: Counter, chains_distinct: int, wall: float, per_span: float) -> dict:
    spans = t.spans
    durations = [s["end"] - s["start"] for s in spans]
    counted = [0.0] * len(spans)  # trace.count time beneath each span
    for index, span in enumerate(spans):
        if span["name"] == "trace.count":
            parent = span["parent"]
            while parent is not None:
                counted[parent] += durations[index]
                parent = spans[parent]["parent"]

    total, self_by_layer, calls, job_time = defaultdict(float), defaultdict(float), Counter(), defaultdict(float)
    for index, (span, own) in enumerate(zip(spans, t.self_times())):
        name, seconds = span["name"], durations[index] - counted[index]
        total[name] += seconds
        self_by_layer[name.split(".")[0]] += own
        calls[name] += 1
        if span["parent"] is None:
            job_time[name] += seconds
    count_s = total["trace.count"]
    traced_wall = wall - count_s
    module_s = sum(v for layer, v in self_by_layer.items() if layer not in (*GLUE, "trace"))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "solvers.solve_s": total["solvers.solve"],
        "solvers.solves": n["solves"],
        "filters.prefilter_s": total["filters.apply_filter"],
        "differentiation.stack_s": total["differentiation.build_derivative_stack"],
        "library.terms_s": total["library.evaluate_terms"],
        "library.system_s": total["library.assemble_grouped_system"] + total["library.normalize_columns"],
        "library.gram_s": total["library.gram"],
        "library.gram_calls": n["gram_calls"],
        "library.gram_madds": n["gram_madds"],
        "library.ns_per_gram_madd": ratio(total["library.gram"], n["gram_madds"], 1e9),
        "gibbs.sample_s": total["gibbs.sample_posterior"],
        "gibbs.chains": n["chains"],
        "gibbs.group_updates": n["group_updates"],
        "gibbs.us_per_group_update": ratio(total["gibbs.sample_posterior"], n["group_updates"], 1e6),
        # The CLI runs the --with-ci bootstrap inside run_tbglss.
        "tbglss.s": total["tbglss.run_tbglss"] - total["uncertainty.ensemble_bootstrap_cis"],
        "tbglss.chains_distinct": chains_distinct,
        "tbglss.distinct_ratio": ratio(chains_distinct, n["chains"]),
        "uncertainty.bootstrap_s": total["uncertainty.ensemble_bootstrap_cis"],
        "uncertainty.coefficients": n["ci_coefficients"],
        "uncertainty.ms_per_coefficient":
            ratio(total["uncertainty.ensemble_bootstrap_cis"], n["ci_coefficients"], 1e3),
        "selection.points": n["points"],
        "selection.failed_points": n["failed_points"],
        "selection.s": self_by_layer["selection"],
        "baselines.lasso_s": total["baselines.group_lasso"],
        "baselines.lasso_fits": n["lasso_fits"],
        "baselines.lasso_sweeps": n["lasso_sweeps"],
        "baselines.lasso_unconverged": n["lasso_unconverged"],
        "baselines.us_per_lasso_sweep": ratio(total["baselines.group_lasso"], n["lasso_sweeps"], 1e6),
        "baselines.sgtr_s": total["baselines.sgtr"],
        "dataio.load_s": total["dataio.load_dataset"],
        "dataio.save_s": total["dataio.save_dataset"] + total["dataio.save_report"],
        "dataio.bytes_written": n["bytes_written"],
        "cli.simulate_s": job_time["cli.simulate"],
        "cli.discover_s": job_time["cli.discover"],
        "cli.ci_s": job_time["cli.ci"],
        "cli.sweep_s": job_time["cli.sweep"],
        "cli.baseline_s": job_time["cli.baseline"],
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - module_s,
        "trace.overhead_s": per_span * (len(spans) - calls["trace.count"]) + count_s,
    }

"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload discover --seed 0 --seconds 5 --trace 0

Run from the repository root; the program is imported from ./src.  Each job
of the workload is one `vcpde.cli.main(argv)` call made in this process;
with --trace 1 the same calls run with every vcpde module traced (traced.py).
The job list is repeated until --seconds have passed, at least once; timings
are medians over these passes.  Every job's outputs are checked, and a job
that raises, exits non-zero or writes a wrong output counts as failed.
Outputs, hashes and spans go to .perfbench-out/<workload>/.
"""

from __future__ import annotations

import os
import sys

# At most two BLAS threads, fixed before numpy loads.
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback
import warnings
from pathlib import Path

from workloads import WORKLOADS, jobs_for

ROOT = Path.cwd()
OUT_ROOT = Path(".perfbench-out")
SETUP_RUNS = 3
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "from vcpde.cli import make_scenario\n"
    "for family in ('burgers', 'ad', 'ks'):\n"
    "    make_scenario(family)\n"
)


def time_setup() -> float:
    """Seconds from a fresh interpreter to vcpde imported and the scenarios built."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_cli_job(job, out: Path) -> dict:
    from vcpde import cli

    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(job.argv(out))
    except (Exception, SystemExit):  # argparse exits on a bad argv; both count as failures
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return {"kind": job.kind, "exit_code": code, "seconds": seconds, "error": error,
            "log": captured.getvalue() if code != 0 else ""}


def cli_pass(jobs: list, out: Path) -> dict:
    start = time.perf_counter()
    results = [run_cli_job(job, out) for job in jobs]
    wall = time.perf_counter() - start
    by_kind = {}
    for r in results:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0.0) + r["seconds"]
    metrics = {"wall_s": wall, "methods_s": wall - by_kind["simulate"]}
    return {"jobs": results, "metrics": metrics, "by_kind": by_kind}


def file_hashes(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def median_metrics(passes: list[dict]) -> dict:
    return {name: statistics.median(p["metrics"][name] for p in passes)
            for name in passes[0]["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "vcpde" / "cli.py").is_file():
        print(f"error: no src/vcpde under {ROOT}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else [time_setup() for _ in range(SETUP_RUNS)]
    import checks
    import traced

    jobs = jobs_for(args.workload, args.seed)
    out = OUT_ROOT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    passes, hashes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = traced.run_pass(jobs, out, run_cli_job) if args.trace else cli_pass(jobs, out)
        for job, record in zip(jobs, result["jobs"]):
            record["problems"] = checks.check_job(job, out) if record["exit_code"] == 0 else []
        passes.append(result)
        hashes.append(file_hashes(out))

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(checks.failed(r["exit_code"], r["problems"]) for p in passes for r in p["jobs"])
    problems = checks.self_test(jobs, out, run_cli_job)
    if any(h != hashes[0] for h in hashes[1:]):
        problems.append("outputs differ between passes of the same jobs")

    metrics = median_metrics(passes)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(json.dumps(hashes[0], sort_keys=True).encode()).hexdigest()
    (out / "run.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setup_s": setup,
         "passes": passes, "hashes": hashes[0], "outputs_sha256": digest,
         "attempted": attempted, "failed": failed, "self_test": problems},
        indent=1, sort_keys=True))

    for p in passes:
        for job, r in zip(jobs, p["jobs"]):
            status = "FAILED" if checks.failed(r["exit_code"], r["problems"]) else "ok"
            timing = f"{r['seconds']:8.3f} s"
            detail = "; ".join(r["problems"]) or r["error"] or ""
            print(f"{timing}  {status:6s} {' '.join(job.argv(out)[:-2])} {detail}".rstrip())
    print(f"outputs sha256 {digest} over {len(hashes[0])} files; passes {len(passes)}")
    print(f"failed_ops {failed}/{attempted}; self-test {'; '.join(problems) or 'ok'}")
    if args.trace:
        print(f"counts {json.dumps(passes[0]['counts'], sort_keys=True)}; chains_distinct "
              f"{metrics['tbglss.chains_distinct']} of {metrics['gibbs.chains']} chains")
    else:
        print("seconds by job kind: "
              + ", ".join(f"{k} {v:.3f}" for k, v in passes[0]["by_kind"].items()))

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

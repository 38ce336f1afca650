"""simhom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass of the workload is answered by a fresh interpreter
(``worker.py``), one query at a time, until ``--seconds`` of passes have
run (never fewer than the workload's minimum).  Every answer is checked by
``oracle.py``.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones: that run alternates untraced and
traced passes, and its spans are written to ``.perfbench/traces/``.  The
line before the result holds the run metadata.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import WHY, Workload  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
# Set-up is probed in bursts spread over the run, so that a slow spell of
# the host moves few of the samples whose median is reported.
PROBES = 4  # before and after the passes; 2 more after every pass
PROCESS_TIMEOUT = 120


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # bytecode caching as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_probe():
    """Seconds from starting an interpreter until simhom.cli is imported."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import time, simhom, simhom.cli; print(repr(time.monotonic()))"],
        env=child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT, check=True,
    )
    return float(done.stdout) - start


def run_worker(workload, pass_no, workdir, traced):
    passdir = os.path.join(workdir, f"pass{pass_no}")
    queries = workload.make_pass(pass_no, passdir)
    spec = {
        "src": SRC,
        "pass": pass_no,
        "passdir": passdir,
        "queries": queries,
        "trace": traced,
        "result_out": os.path.join(workdir, f"pass{pass_no}.json"),
        "spans_out": os.path.join(OUT, "traces", f"{workload.name}-seed{workload.seed}-pass{pass_no}.jsonl.gz"),
    }
    spec_path = os.path.join(workdir, f"pass{pass_no}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=child_env(), timeout=PROCESS_TIMEOUT, check=True,
    )
    with open(spec["result_out"]) as fh:
        result = json.load(fh)
    failures = []
    for query, record in zip(queries, result["records"]):
        reason = oracle.check(query, record, passdir)
        if reason:
            failures.append(f"{query['key']}: {reason}")
    if len(result["records"]) != len(queries):
        failures.append("worker answered too few queries")
    shutil.rmtree(passdir)
    return queries, result, failures


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1], len(ordered) - rank


def pass_wall(result):
    return sum(r["latency_s"] or 0.0 for r in result["records"])


def git_revision():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload, seconds, trace, setup):
    """Run passes until the time is up; return the passes and the failures.

    Set-up times probed after every pass are appended to ``setup``.
    """
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    modes = ["untraced", "traced"] if trace else ["timed"]
    min_rounds = 1 if trace else workload.min_passes
    passes = []  # (mode, queries, result)
    failures = []
    durations = []
    try:
        start = time.monotonic()
        while True:
            for mode in modes:
                t0 = time.monotonic()
                queries, result, failed = run_worker(workload, len(passes), workdir, mode == "traced")
                passes.append((mode, queries, result))
                failures.extend(failed)
                setup += [setup_probe() for _ in range(2)]
                durations.append(time.monotonic() - t0)
            rounds = len(passes) // len(modes)
            next_round = statistics.median(durations) * len(modes)
            if rounds >= min_rounds and time.monotonic() - start + next_round > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, failures


def end_to_end(workload, passes, setup):
    by_key = {}
    latencies = []
    for _, queries, result in passes:
        for query, record in zip(queries, result["records"]):
            if record["latency_s"] is not None:
                by_key.setdefault(query["key"], []).append(record["latency_s"])
                latencies.append(record["latency_s"])
    tail, beyond = nearest_rank(latencies, workload.tail_percentile)
    # each query of the list at its median over the run's passes
    per_query = [statistics.median(v) for v in by_key.values()]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(per_query), "s"),
        "latency_p50_ms": (statistics.median(per_query) * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for _, _, r in passes) / 1024.0, "MB"),
    }
    return metrics, beyond


def per_layer(passes):
    traced = [r for mode, _, r in passes if mode == "traced"]
    untraced = [pass_wall(r) for mode, _, r in passes if mode == "untraced"]
    layers = {k: statistics.fmean(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    wall_traced = statistics.fmean(pass_wall(r) for r in traced)
    wall_untraced = statistics.fmean(untraced)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}_calls"] = (layers[f"{name}_calls"], "count")
        metrics[f"{name}_self_s"] = (layers[f"{name}_self_s"], "s")
    for key in ("chains.boundary_nnz", "exactlin.reduce_rows", "exactlin.reduce_cols",
                "exactlin.reduce_nnz_in", "homology.kronecker_calls", "verify.checks"):
        metrics[key] = (layers[key], "count")
    metrics["exactlin.lp_feasible_ratio"] = (ratio(layers["exactlin.lp_feasible"], layers["exactlin.lp_calls"]), "ratio")
    metrics["products.cup_basis_miss_ratio"] = (
        ratio(layers["products.cup_basis_misses"], layers["products.cup_basis_calls"]), "ratio")
    metrics["lefschetz.witness_found_ratio"] = (
        ratio(layers["lefschetz.witness_found"], layers["lefschetz.witness_calls"]), "ratio")
    for suite in tracer.SUITES:
        metrics[f"verify.suite.{suite}_s"] = (layers[f"verify.suite.{suite}_s"], "s")
    metrics["trace.spans"] = (layers["spans"], "count")
    metrics["trace.self_total_s"] = (layers["self_total_s"], "s")
    metrics["trace.wall_traced_s"] = (wall_traced, "s")
    metrics["trace.wall_untraced_s"] = (wall_untraced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    return metrics


def run_workload(name, seed, seconds, trace):
    """Measure one workload; print its metrics and metadata, return the result."""
    workload = Workload(name, seed)
    setup_probe()  # warm-up: bytecode caches, file system
    setup = [setup_probe() for _ in range(PROBES)]
    passes, failures = measure(workload, seconds, bool(trace), setup)
    setup += [setup_probe() for _ in range(PROBES)]

    attempted = sum(len(q) for _, q, _ in passes)
    metrics, beyond = end_to_end(workload, passes, setup)
    if trace:
        metrics = per_layer(passes)
    meta = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "queries_per_pass": workload.queries_per_pass,
        "queries": attempted,
        "tail_percentile": round(workload.tail_percentile, 2),
        "tail_queries_beyond": beyond,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    for metric, (value, unit) in metrics.items():
        print(f"{name:16s} {metric:36s} {value:14.6f} {unit}")
    print(json.dumps({"meta": meta}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "simhom", "__init__.py")):
        print(f"error: no simhom source tree under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # every workload in turn; the result line prefixes each metric with its workload
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in WHY}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

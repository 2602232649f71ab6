#!/usr/bin/env python3
"""seqmp benchmark: time, cost and success of planner runs, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload transport_a --seed 1 --seconds 55 --trace 0

Each run happens in a child process that imports seqmp from ``src`` with BLAS
pinned to one thread. ``--trace 0`` prints the end-to-end metrics, with
planner run times scaled to the speed probe's reference speed (probe.py).
``--trace 1`` runs the first half of the jobs both untraced and traced and
prints the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Full per-run
records (and, when traced, the spans) go to ``.perfbench_out/``. NOTES.md
describes the workloads and the metrics.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 6  # extra set-up timings in fresh processes, besides the worker's own
TIME_LIMIT_S = 170.0
# Probe time (probe.py) that defines the reference speed timings are scaled to:
# about its median on the 2-core x86 VM the baseline was measured on.
PROBE_REF_S = 0.001
CHILD_ENV = {
    "PYTHONPATH": "src",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child(args, deadline):
    """Run worker.py with ``args``; returns its parsed last stdout line."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def lines_of_code(root):
    total = 0
    for dirpath, _, files in os.walk(root):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def end_to_end(result, setup_times):
    records = result["records"]
    # each run's wall time at the probe's reference speed (probe.py)
    walls = [w * PROBE_REF_S / p for r in records for w, p in zip(r["wall_s"], r["probe_s"])]
    costs = [r["cost"] for r in records if r["ok"]]
    return {
        "plan_s_p50": (statistics.median(walls), "s"),
        "samples_per_s": (result["samples_per_run"] * len(walls) / sum(walls), "1/s"),
        "cost_mean": (statistics.fmean(costs) if costs else 0.0, "length"),
        "success_rate": (len(costs) / len(records), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, workload, problems):
    records = result["records"]
    metrics = {name: tuple(v) for name, v in result["layers"].items()}
    untraced = sum(r["wall_s"][0] for r in records)
    metrics["trace_overhead_ratio"] = (sum(r["traced_wall_s"] for r in records) / untraced, "ratio")
    for layer in workload.required_layers:
        if not sum(v for k, (v, _) in metrics.items() if k.startswith(layer + ".") and k.endswith(".calls")):
            problems.append(f"layer {layer!r} recorded no calls")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "seqmp", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root; src/seqmp not found\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]

    setup_times = []
    if not args.trace:
        setup_times = [child(["--setup", args.workload], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    result = child([args.workload, str(args.seed), str(args.seconds), str(args.trace), OUT_DIR], deadline)
    setup_times.append(result["setup_s"])
    records = result["records"]
    problems = list(result["problems"])
    if args.trace:
        metrics = per_layer(result, workload, problems)
    else:
        metrics = end_to_end(result, setup_times)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "loc_src_seqmp": lines_of_code(os.path.join("src", "seqmp")),
    }
    failed = sum(1 for r in records if not r["ok"])
    samples = sum(len(r["wall_s"]) for r in records)

    print("env " + json.dumps(env))
    for r in records:
        cost = "-" if r["cost"] is None else f"{r['cost']:.4f}"
        print(f"run {r['planner']:>11} seed {r['seed']:>10}  {'ok' if r['ok'] else 'FAILED':6}"
              f"  wall {statistics.median(r['wall_s']):7.3f} s  cost {cost:>8}  sha256 {r['digest']}")
        if r["error"]:
            print("  error: " + r["error"].strip().splitlines()[-1])
        if r["violations"]:
            print("  violations: " + "; ".join(r["violations"][:3]))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "plan_s_p50":
            raw = statistics.median(w for r in records for w in r["wall_s"])
            probe = statistics.median(p for r in records for p in r["probe_s"])
            note = (f"  ({len(records)} runs, {samples} timing samples; unscaled wall median {raw:.4f} s,"
                    f" probe median {probe * 1e3:.4f} ms)")
        print(f"metric {name} = {value:.6g} {unit}{note}")
    for p in problems:
        print("PROBLEM " + p)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"env": env, "setup_times": setup_times, **result}, f, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

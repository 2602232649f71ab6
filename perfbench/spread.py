#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root, one benchmark process at a time:

    python3 perfbench/spread.py --workloads point_planners transport_a --seeds 1-10 --out summary.json

For every end-to-end metric (or, with ``--trace 1``, every per-layer metric)
it reports the median, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (third minus first quartile, as a share of the median) next to the
bound in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_over_bound": spread / bound if bound else None, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"env": None, "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            elapsed = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary["env"] = json.loads(next(x for x in lines if x.startswith("env "))[4:])
            runs.append({"seed": seed, "elapsed_s": elapsed, **result})
            print(workload, seed, f"{elapsed:.1f}s", result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items() if bounds.get(k)}, flush=True)
        names = runs[0]["metrics"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": {n: summarise([r["metrics"][n]["value"] for r in runs], bounds.get(n)) for n in names},
        }
        for n, s in summary["workloads"][workload]["metrics"].items():
            if s["bound"] is not None:
                print(f"{workload:>15} {n:>14}  median {s['median']:.5g}  spread {s['spread']:.4f}"
                      f"  bound {s['bound']}  ({s['spread_over_bound']:.2f} of bound)")
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

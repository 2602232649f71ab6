#!/usr/bin/env python3
"""Run the full planner comparison table: every scene x planner over N seeds.

Writes per-run records as CSV and prints an aggregate table comparable to the
benchmark numbers in the README.
"""
import argparse
import os

from seqmp import bench
from seqmp.planner import PLANNERS
from seqmp.scene import available_scenes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenes", nargs="*", default=available_scenes())
    ap.add_argument("--planners", nargs="*", default=sorted(PLANNERS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--m", type=int, default=None, help="override samples per manifold")
    ap.add_argument("--out", default="results", help="output directory for CSV records")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    all_records = []
    print(f"{'scene':>22} {'planner':>12} {'success':>8} {'mean':>8} {'std':>7} {'time[s]':>8}")
    for scene in args.scenes:
        task = bench.resolve_task(scene)
        overrides = {"m": args.m} if args.m is not None else None
        params = bench.params_with_overrides(task, overrides)
        for planner in args.planners:
            records = bench.batch(scene, planner, range(args.seeds), params=params, jobs=args.jobs)
            all_records.extend(records)
            agg = bench.aggregate(records)
            mean = "-" if agg["mean_cost"] is None else f"{agg['mean_cost']:.2f}"
            std = "-" if agg["std_cost"] is None else f"{agg['std_cost']:.2f}"
            print(f"{scene:>22} {planner:>12} {agg['successes']:>5}/{agg['n']:<2} "
                  f"{mean:>8} {std:>7} {agg['mean_wall_time']:>8.2f}")
    out_csv = os.path.join(args.out, "benchmark_records.csv")
    bench.write_records_csv(all_records, out_csv)
    print(f"\nwrote {len(all_records)} records to {out_csv}")


if __name__ == "__main__":
    main()

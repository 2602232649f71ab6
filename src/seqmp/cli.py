"""Command-line interface for planning, sweeps, path validation, and scene export."""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench
from .planner import PLANNERS, validate_solution
from .scene import available_scenes, export_scene_json


def _load_overrides(path):
    if path is None:
        return None
    with open(path) as f:
        return json.load(f)


def _parse_values(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def cmd_plan(args):
    task = bench.resolve_task(args.scene)
    params = bench.params_with_overrides(task, _load_overrides(args.params), seed=args.seed)
    record, path = bench.run(task, args.planner, params)
    if record.success:
        print(f"scene={record.scene} planner={record.planner} seed={record.seed} "
              f"cost={record.cost:.4f} vertices={record.n_vertices} time={record.wall_time:.2f}s")
        violations = validate_solution(task, path, params)
        if violations:
            print("WARNING: solution failed validation:", file=sys.stderr)
            for v in violations:
                print(f"  {v}", file=sys.stderr)
    else:
        print(f"scene={record.scene} planner={record.planner} seed={record.seed} "
              f"FAILED in phase {record.failure_phase} time={record.wall_time:.2f}s")
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "result.json"), "w") as f:
            json.dump(record.to_dict(), f, indent=2)
        if path is not None:
            bench.write_path_csv(path, os.path.join(args.out, "path.csv"))
    return 0 if record.success else 1


def cmd_sweep(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    task = bench.resolve_task(args.scene)
    base = bench.params_with_overrides(task, _load_overrides(args.params))
    values = _parse_values(args.values)
    if not values:
        raise ValueError(f"--values must name at least one value, got {args.values!r}")
    seeds = list(range(args.seeds))
    results = bench.sweep(task, args.planner, args.param, values, seeds,
                          base_params=base, jobs=args.jobs)
    print(f"{args.param:>8}  success  mean_cost  std_cost")
    for res in results:
        agg = res["aggregate"]
        mean = "-" if agg["mean_cost"] is None else f"{agg['mean_cost']:.4f}"
        std = "-" if agg["std_cost"] is None else f"{agg['std_cost']:.4f}"
        print(f"{res['value']:>8g}  {agg['successes']}/{agg['n']:<5}  {mean:>9}  {std:>8}")
    if args.out is not None:
        records = [r for res in results for r in res["records"]]
        bench.write_records_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_validate(args):
    violations = bench.validate_path_file(args.path, args.scene, _load_overrides(args.params))
    if violations:
        print(f"INVALID ({len(violations)} violations):")
        for v in violations:
            print(f"  {v}")
        return 1
    print("VALID")
    return 0


def cmd_export_scene(args):
    text = export_scene_json(args.scene)
    if args.out is not None:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="seqmp",
                                     description="Sampling-based planning over sequenced constraint manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run one planner on one scene")
    p.add_argument("--scene", required=True,
                   help=f"scene id ({', '.join(available_scenes())}) or scene JSON file")
    p.add_argument("--planner", required=True, choices=sorted(PLANNERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", default=None, help="JSON file with planner parameter overrides")
    p.add_argument("--out", default=None, help="directory for result.json and path.csv")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("sweep", help="sweep one planner parameter over seeds")
    p.add_argument("--scene", required=True)
    p.add_argument("--planner", default="psm", choices=sorted(PLANNERS))
    p.add_argument("--param", required=True, choices=["rho", "m"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds (0..N-1)")
    p.add_argument("--params", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV file for the per-run records")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check a stored path against a scene")
    p.add_argument("--path", required=True, help="path CSV produced by plan")
    p.add_argument("--scene", required=True)
    p.add_argument("--params", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-scene", help="print a scene as JSON")
    p.add_argument("scene")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_scene)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Paired wall-time ratios of two seqmp checkouts, timed in one process.

    python3 scripts/ab_time.py OLD_ROOT NEW_ROOT --workload point_planners --reps 8
    python3 scripts/ab_time.py OLD_ROOT NEW_ROOT --scene transport_b_mini --planners psm \
        --m 300 --seeds-per-planner 3 --reps 4

Loads ``OLD_ROOT/src/seqmp`` and ``NEW_ROOT/src/seqmp`` side by side (as the
packages ``seqmp_old`` and ``seqmp_new``) and runs the planner jobs of one
``perfbench/workloads.py`` workload, or of an ad-hoc ``workloads.Workload``
built from ``--scene``, ``--planners``, ``--m`` and ``--seeds-per-planner``
(its planner seeds derive from ``--seed`` as a named workload's do), through
both, job by job, flipping which
side goes first on every job. Prints the ratio new/old of each repetition's
summed wall time (median and quartiles), the median new/old ratio of each
planner's summed wall time per repetition, each side's success count and
mean path cost over the jobs, and checks that both sides return the same path
digest for every job; exits 1 if any digest differs. For each job whose digest
differs it prints both path costs and their difference, both vertex counts,
and the largest coordinate difference of the two paths when their vertex
counts match. A change that moves paths only in the last bits then reads as
equal counts with a difference at rounding level; a structural move (another
vertex count, or a large difference) stands out.

This is for sizing a change only. It skips what the benchmark does to make
timings comparable across runs (a fresh process per run, the speed probe,
the set-up timings), so claimed gains come from ``perfbench/run.py``. It
reads ``perfbench/`` and does not change it.
"""
import argparse
import importlib
import importlib.util
import os
import statistics
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # as perfbench pins BLAS; must precede the numpy import

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
import numpy as np  # noqa: E402
from workloads import WORKLOADS, Workload, job_groups  # noqa: E402
from worker import digest, run_job  # noqa: E402


def load_bench(root, name):
    """``seqmp.bench`` of the checkout at ``root``, imported as package ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "seqmp")
    spec = importlib.util.spec_from_file_location(name, os.path.join(pkg, "__init__.py"),
                                                  submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.bench")


def _describe(side, path):
    return f"{side} no path" if path is None else f"{side} cost {path.total_cost:.17g}, {len(path.configs)} vertices"


def _path_change(old, new):
    """Both sides' cost and vertex count for one job, and how far their paths lie apart."""
    text = f"{_describe('old', old)}; {_describe('new', new)}"
    if old is not None and new is not None:
        text += f"; new-old cost {new.total_cost - old.total_cost:.3g}"
        if old.configs.shape == new.configs.shape:
            text += f"; largest coordinate difference {np.abs(new.configs - old.configs).max():.3g}"
    return text


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--scene", help="scene of an ad-hoc workload: a built-in scene id or a scene JSON file")
    ap.add_argument("--planners", help="ad-hoc workload: comma-separated planners (default psm)")
    ap.add_argument("--m", type=int, help="ad-hoc workload: samples per phase (default: the scene profile's)")
    ap.add_argument("--seeds-per-planner", type=int, help="ad-hoc workload (default 2)")
    ap.add_argument("--reps", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args()
    if args.reps < 2:
        ap.error("--reps must be at least 2 to give quartiles")

    ad_hoc = (args.planners, args.m, args.seeds_per_planner)
    if args.workload:
        if ad_hoc != (None, None, None):
            ap.error("--planners, --m and --seeds-per-planner go with --scene, not --workload")
        workload = WORKLOADS[args.workload]
        label = args.workload
    else:
        planners = args.planners or "psm"
        seeds = 2 if args.seeds_per_planner is None else args.seeds_per_planner
        if seeds < 1:
            ap.error("--seeds-per-planner must be at least 1")
        workload = Workload(scene=args.scene, planners=tuple(planners.split(",")), seeds_per_planner=seeds,
                            overrides={} if args.m is None else {"m": args.m})
        label = f"{args.scene} ({planners}, m={'default' if args.m is None else args.m})"
    sides = []
    for root, name in ((args.old_root, "seqmp_old"), (args.new_root, "seqmp_new")):
        bench = load_bench(root, name)
        task = bench.resolve_task(workload.scene)
        sides.append((bench, task, bench.params_with_overrides(task, workload.overrides)))
    jobs = [job for group in job_groups(workload, args.seed) for job in group]

    ratios, mismatches = [], set()
    planner_ratios = {planner: [] for planner in workload.planners}
    paths = ({}, {})  # per side: job -> path, None for no path
    for rep in range(args.reps):
        wall = [0.0, 0.0]
        planner_wall = {planner: [0.0, 0.0] for planner in workload.planners}
        for j, (planner, seed) in enumerate(jobs):
            digests = [None, None]
            for s in ((0, 1) if (rep + j) % 2 == 0 else (1, 0)):
                path, seconds, error = run_job(*sides[s], planner, seed)
                if error:
                    print(f"{('old', 'new')[s]} {planner} seed {seed}: {error.strip().splitlines()[-1]}")
                wall[s] += seconds
                planner_wall[planner][s] += seconds
                digests[s] = digest(path)
                paths[s][planner, seed] = path
            if digests[0] != digests[1]:
                mismatches.add((planner, seed))
        ratios.append(wall[1] / wall[0])
        for planner, (old, new) in planner_wall.items():
            planner_ratios[planner].append(new / old)
        print(f"rep {rep}: old {wall[0]:.3f} s  new {wall[1]:.3f} s  new/old {ratios[-1]:.3f}", flush=True)

    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{label}: {len(jobs)} jobs x {args.reps} reps; new/old median {median:.3f} "
          f"(quartiles {q1:.3f}-{q3:.3f})")
    for planner, planner_ratio in planner_ratios.items():
        print(f"  {planner}: new/old median {statistics.median(planner_ratio):.3f}")
    for side, side_paths in zip(("old", "new"), paths):
        found = [p.total_cost for p in side_paths.values() if p is not None]
        mean = f"{statistics.fmean(found):.6f}" if found else "-"
        print(f"{side}: success {len(found)}/{len(side_paths)} jobs, mean cost {mean}")
    for job in sorted(mismatches):
        old, new = paths[0][job], paths[1][job]
        print(f"DIGEST DIFFERS: {job[0]} seed {job[1]}: {_path_change(old, new)}")
    print(f"digests: {len(jobs) - len(mismatches)}/{len(jobs)} jobs equal")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

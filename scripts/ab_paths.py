#!/usr/bin/env python3
"""Paths of two seqmp checkouts side by side: every built-in scene x planner at seeds 0-9.

    python3 scripts/ab_paths.py OLD_ROOT NEW_ROOT --out ab.json

Loads ``OLD_ROOT/src/seqmp`` and ``NEW_ROOT/src/seqmp`` in one process
(``ab_time.load_bench``) and runs every built-in scene x planner at each seed
through both, flipping which side goes first from seed to seed. Robot scenes
run at m=300 (the acceptance setting), point scenes at their profile defaults.
Per scene x planner it reports:

- each side's success count, mean and median cost;
- over the seeds both sides solve, the mean cost difference new - old with a
  paired bootstrap 95% interval (fixed bootstrap seed), how many paths are
  byte-identical, how many have equal vertex counts, and the largest cost
  move;
- how many returned paths the new checkout's ``validate_solution`` rejects,
  on each side;
- on ``plane_cylinder_point``, each side's mean gap to the analytic optimum
  J* (the formula of ``tests/test_acceptance.py``'s oracle test);
- each side's summed wall time.

It prints one line per scene x planner and writes everything, per-seed costs
included, as JSON to ``--out``. Use it to judge a change that moves paths; it
changes no program file.
"""
import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_time import load_bench  # noqa: E402  (pins BLAS to one thread, as perfbench does)
import numpy as np  # noqa: E402

ROBOT_M = 300
SEEDS = range(10)
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 0
ORACLE_SCENE = "plane_cylinder_point"


def j_star():
    """The analytic optimum of ``plane_cylinder_point``, as the acceptance oracle test computes it."""
    theta = np.arange(-2 * np.pi, 2 * np.pi, 1e-4)
    return float(np.min(np.hypot(-2.0 - np.cos(theta), np.sin(theta)) + np.sqrt(theta ** 2 + 4.0)))


def bootstrap_interval(diffs):
    """95% interval of the mean of paired differences by the percentile bootstrap; None below two pairs."""
    if len(diffs) < 2:
        return None
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    d = np.asarray(diffs)
    means = d[rng.integers(0, len(d), size=(BOOTSTRAP_RESAMPLES, len(d)))].mean(axis=1)
    return [float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))]


def _side_summary(costs, invalid, wall, optimum):
    found = [c for c in costs if c is not None]
    out = {"success": len(found), "mean_cost": statistics.fmean(found) if found else None,
           "median_cost": statistics.median(found) if found else None, "invalid": invalid, "wall_s": wall}
    if optimum is not None:
        out["mean_gap_to_j_star"] = out["mean_cost"] - optimum if found else None
    return out


def compare(sides, scene, planner, seeds, optimum):
    """Run one scene x planner through both sides; returns its JSON row."""
    tasks = [bench.resolve_task(scene) for bench in sides]
    overrides = {"m": ROBOT_M} if tasks[1].profile == "robot" else None
    validate = sys.modules["seqmp_new.planner"].validate_solution
    costs, configs = ([], []), ([], [])
    invalid, wall = [0, 0], [0.0, 0.0]
    for seed in seeds:
        params = [bench.params_with_overrides(task, overrides, seed=seed) for bench, task in zip(sides, tasks)]
        for s in ((0, 1) if seed % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            _, path = sides[s].run(tasks[s], planner, params[s])
            wall[s] += time.perf_counter() - t0
            costs[s].append(None if path is None else float(path.total_cost))
            configs[s].append(None if path is None else np.asarray(path.configs, dtype=np.float64))
            # the new checkout's validator judges both sides' paths, against the new task
            if path is not None and validate(tasks[1], path, params[1]):
                invalid[s] += 1
    both = [k for k in range(len(seeds)) if costs[0][k] is not None and costs[1][k] is not None]
    diffs = [costs[1][k] - costs[0][k] for k in both]
    same_vertices = [k for k in both if configs[0][k].shape == configs[1][k].shape]
    identical = sum(configs[0][k].tobytes() == configs[1][k].tobytes() for k in same_vertices)
    return {
        "scene": scene, "planner": planner,
        "old": _side_summary(costs[0], invalid[0], wall[0], optimum),
        "new": _side_summary(costs[1], invalid[1], wall[1], optimum),
        "paired": len(both),
        "mean_diff": statistics.fmean(diffs) if diffs else None,
        "diff_ci95": bootstrap_interval(diffs),
        "identical_paths": identical,
        "equal_vertex_counts": len(same_vertices),
        "largest_cost_move": max(map(abs, diffs)) if diffs else None,
        "costs": {"old": costs[0], "new": costs[1]},
    }


def _fmt(x, spec=".4f"):
    return "-" if x is None else format(x, spec)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    sides = [load_bench(args.old_root, "seqmp_old"), load_bench(args.new_root, "seqmp_new")]
    scenes = sys.modules["seqmp_new.scene"].available_scenes()
    planners = sorted(sys.modules["seqmp_new.planner"].PLANNERS)
    optimum = j_star()
    rows = []
    print(f"{'scene':>20} {'planner':>11} {'success':>7} {'mean cost old/new':>19} "
          f"{'new-old [95% CI]':>34} {'same':>4} {'verts':>5} {'invalid':>7} {'wall s':>13}")
    for scene in scenes:
        for planner in planners:
            row = compare(sides, scene, planner, SEEDS, optimum if scene == ORACLE_SCENE else None)
            rows.append(row)
            old, new = row["old"], row["new"]
            ci = row["diff_ci95"]
            ci_text = "-" if ci is None else f"[{ci[0]:.2e}, {ci[1]:.2e}]"
            print(f"{scene:>20} {planner:>11} {old['success']:>3}/{new['success']:<3} "
                  f"{_fmt(old['mean_cost']):>9}/{_fmt(new['mean_cost']):<9} "
                  f"{_fmt(row['mean_diff'], '.2e'):>9} {ci_text:>24} {row['identical_paths']:>4} "
                  f"{row['equal_vertex_counts']:>5} "
                  f"{old['invalid']:>3}/{new['invalid']:<3} {old['wall_s']:>6.2f}/{new['wall_s']:<6.2f}", flush=True)
    out = {
        "seeds": list(SEEDS), "robot_m": ROBOT_M,
        "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES, "seed": BOOTSTRAP_SEED, "level": 0.95},
        "j_star": {"scene": ORACLE_SCENE, "value": optimum},
        "rows": rows,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, allow_nan=False)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the sha256 of the path of every built-in scene x planner x seed.

A change meant to keep behaviour must leave every line unchanged: run this
on two checkouts and diff the outputs.

    PYTHONPATH=src python3 scripts/path_digests.py > digests.txt
    PYTHONPATH=src python3 scripts/path_digests.py --scene transport_a_mini --planner psm --seeds 0 1

Robot scenes run at the acceptance m=300, point scenes at their profile
defaults. Each line is "scene planner seed digest", where the digest hashes
the path configurations as float64 bytes and is FAILED for a run that found
no path. ``--scene``, ``--planner`` (both repeatable) and ``--seeds`` pick a
subset; by default every built-in scene x planner runs at seeds 0-2 (60 lines).
"""
import argparse
import hashlib

import numpy as np

from seqmp import bench
from seqmp.planner import PLANNERS
from seqmp.scene import available_scenes

ROBOT_M = 300
SEEDS = range(3)


def digest(path):
    if path is None:
        return "FAILED"
    return hashlib.sha256(np.ascontiguousarray(path.configs, dtype=np.float64).tobytes()).hexdigest()


def jobs(scenes=None, planners=None, seeds=SEEDS):
    """(scene, planner, seed, task, params) of each job; None picks every scene or planner."""
    for scene in scenes or available_scenes():
        task = bench.resolve_task(scene)
        overrides = {"m": ROBOT_M} if task.profile == "robot" else None
        for planner in planners or sorted(PLANNERS):
            for seed in seeds:
                yield scene, planner, seed, task, bench.params_with_overrides(task, overrides, seed=seed)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scene", action="append", choices=available_scenes(), help="default: every built-in scene")
    ap.add_argument("--planner", action="append", choices=sorted(PLANNERS), help="default: every planner")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS), help="default: 0 1 2")
    args = ap.parse_args()
    for scene, planner, seed, task, params in jobs(args.scene, args.planner, args.seeds):
        _, path = bench.run(task, planner, params)
        print(f"{scene} {planner} {seed} {digest(path)}", flush=True)


if __name__ == "__main__":
    main()

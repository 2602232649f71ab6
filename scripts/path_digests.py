#!/usr/bin/env python3
"""Print the sha256 of the path of every built-in scene x planner x seed.

A change meant to keep behaviour must leave every line unchanged: run this
on two checkouts and diff the outputs.

    PYTHONPATH=src python3 scripts/path_digests.py > digests.txt

Robot scenes run at the acceptance m=300, point scenes at their profile
defaults. Each line is "scene planner seed digest", where the digest hashes
the path configurations as float64 bytes and is FAILED for a run that found
no path.
"""
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


def main():
    for scene in available_scenes():
        task = bench.resolve_task(scene)
        overrides = {"m": ROBOT_M} if task.profile == "robot" else None
        for planner in sorted(PLANNERS):
            for seed in SEEDS:
                params = bench.params_with_overrides(task, overrides, seed=seed)
                _, path = bench.run(task, planner, params)
                print(f"{scene} {planner} {seed} {digest(path)}", flush=True)


if __name__ == "__main__":
    main()

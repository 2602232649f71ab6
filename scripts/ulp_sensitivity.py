#!/usr/bin/env python3
"""Which ``scripts/path_digests.py`` jobs move when the tree's distances round differently.

    PYTHONPATH=src python3 scripts/ulp_sensitivity.py

Runs every job of ``path_digests.py`` (every built-in scene x planner at seeds
0-2, robot scenes at m=300), then runs each job that found a path again with
``Tree._distances`` summing the squares in reverse coordinate order, which
moves a distance in its last bits only. Prints "scene planner seed cost
reversed_cost" for each job whose cost moves by more than 1e-9 (reversed_cost
is FAILED when the second run finds no path), then how many of the jobs that
succeeded moved, and exits 1 if any job moved. A job that moves has a decision
that rests on a rounding-level tie. It changes no program file.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from path_digests import jobs  # noqa: E402
import numpy as np  # noqa: E402

from seqmp import bench  # noqa: E402
from seqmp.planner import Tree  # noqa: E402

COST_TOL = 1e-9


def reversed_distances(self, q, ids=None):
    """``Tree._distances`` with the squares summed in reverse coordinate order."""
    d = self._cols[:, :len(self.parent)] if ids is None else self._cols[:, ids]
    d = d - np.asarray(q)[:, None]
    d *= d
    dist = d[-1]
    for k in range(self.dim - 2, -1, -1):
        dist += d[k]
    return np.sqrt(dist, out=dist)


def main():
    forward = Tree._distances
    succeeded = moved = 0
    for scene, planner, seed, task, params in jobs():
        _, path = bench.run(task, planner, params)
        if path is None:
            continue
        succeeded += 1
        Tree._distances = reversed_distances
        try:
            _, other = bench.run(task, planner, params)
        finally:
            Tree._distances = forward
        if other is None or abs(other.total_cost - path.total_cost) > COST_TOL:
            moved += 1
            print(f"{scene} {planner} {seed} {path.total_cost!r} {'FAILED' if other is None else repr(other.total_cost)}",
                  flush=True)
    print(f"{moved} of {succeeded} jobs that found a path moved by more than {COST_TOL:g} in cost")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print the size, roots and duplicate nodes of every tree a planner builds.

    PYTHONPATH=src python3 scripts/tree_stats.py --scene transport_a_mini --planner psm
    PYTHONPATH=src python3 scripts/tree_stats.py --scene point3d_obstacles --seeds 0 1 2

For each scene x planner x seed it runs the planner once, observing its
trees through a recording ``Tree`` patched into ``seqmp.planner``, and prints
one line per tree: the node count, the roots (nodes added with no parent: the
start, or the seeds of a subtree, which are |V_goal| of the phase before for
``psm``), the nodes within 1e-9 of an earlier node of the tree, and the nodes
within ``DUPLICATE_TOL * eps`` of one, which ``rrt_star_extend`` never
inserts. Robot scenes run at the acceptance m=300, point scenes at their
profile defaults, as in ``scripts/path_digests.py``. A run that found no path
is marked FAILED; the trees it built are printed all the same.
"""
import argparse

import numpy as np

from seqmp import bench, planner
from seqmp.scene import available_scenes

ROBOT_M = 300
TWIN_DIST = 1e-9


class RecordingTree(planner.Tree):
    """A Tree that appends itself to ``made`` and counts the roots added to it."""

    made = None

    def __init__(self, dim):
        super().__init__(dim)
        self.roots = 0
        self.made.append(self)

    def add(self, config, parent, cost, **kw):
        self.roots += parent < 0
        return super().add(config, parent, cost, **kw)


def twins(configs, tol):
    """How many configurations lie within ``tol`` of an earlier one."""
    return sum(np.linalg.norm(configs[:i] - configs[i], axis=1).min() <= tol for i in range(1, len(configs)))


def run_trees(task, name, params):
    """(path or None, the trees the run built)."""
    trees, tree_cls = [], planner.Tree
    RecordingTree.made = trees
    planner.Tree = RecordingTree
    try:
        _, path = bench.run(task, name, params)
    finally:
        planner.Tree = tree_cls
    return path, trees


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scene", action="append", choices=available_scenes(), help="default: every built-in scene")
    ap.add_argument("--planner", action="append", choices=sorted(planner.PLANNERS), help="default: every planner")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="default: 0 1 2")
    args = ap.parse_args()
    print(f"{'scene':<20} {'planner':<11} {'seed':>4} {'tree':>4} {'nodes':>6} {'roots':>5} "
          f"{'twins<=1e-9':>11} {'twins<=tol':>10}  status")
    for scene in args.scene or available_scenes():
        task = bench.resolve_task(scene)
        overrides = {"m": ROBOT_M} if task.profile == "robot" else None
        for name in args.planner or sorted(planner.PLANNERS):
            for seed in args.seeds:
                params = bench.params_with_overrides(task, overrides, seed=seed)
                tol = planner.DUPLICATE_TOL * params.eps
                path, trees = run_trees(task, name, params)
                status = "ok" if path is not None else "FAILED"
                for t, tree in enumerate(trees):
                    configs = tree.configs
                    print(f"{scene:<20} {name:<11} {seed:>4} {t:>4} {len(tree):>6} {tree.roots:>5} "
                          f"{twins(configs, TWIN_DIST):>11} {twins(configs, tol):>10}  {status}", flush=True)


if __name__ == "__main__":
    main()

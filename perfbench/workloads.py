"""Workload definitions: which scene, planners, parameters and seeds to run.

A workload seed expands deterministically into planner seeds, so the same
workload seed always gives the same list of planner runs (jobs).
"""
from __future__ import annotations

from dataclasses import dataclass, field

LAYERS = ("planner", "steering", "manifolds", "kinematics", "scene")


@dataclass(frozen=True)
class Workload:
    scene: str
    planners: tuple
    seeds_per_planner: int
    overrides: dict = field(default_factory=dict)
    # layers whose traced call count must be nonzero; a rename that stops a
    # wrapper from seeing its calls then fails the run instead of reading 0
    required_layers: tuple = ()


WORKLOADS = {
    "point_planners": Workload(
        scene="point3d_obstacles",
        planners=("psm", "psm-greedy", "psm-single", "rrtstar-ik"),
        seeds_per_planner=2,
        required_layers=("planner", "steering", "manifolds", "scene"),
    ),
    "transport_a": Workload(
        scene="transport_a_mini",
        planners=("psm",),
        seeds_per_planner=6,
        overrides={"m": 300},
        required_layers=LAYERS,
    ),
}


def planner_seeds(workload_seed, count):
    """Planner seeds derived from the workload seed."""
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(workload_seed).generate_state(count) >> 1]


def job_groups(workload, workload_seed, traced=False):
    """Jobs grouped by planner seed: one list of (planner, planner seed) per seed.

    Every group holds one job per planner, so timing whole groups keeps the
    planners in equal shares. A traced run times each job twice (untraced,
    then traced), so it takes the groups of the first half of the seeds only.
    """
    seeds = planner_seeds(workload_seed, workload.seeds_per_planner)
    if traced:
        seeds = seeds[: (len(seeds) + 1) // 2]
    return [[(planner, s) for planner in workload.planners] for s in seeds]

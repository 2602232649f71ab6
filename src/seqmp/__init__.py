"""Sampling-based motion planning over sequences of constraint manifolds."""

from .manifolds import (
    AffinePlane,
    Cylinder,
    FunctionManifold,
    Intersection,
    Manifold,
    Paraboloid,
    PointGoal,
    evaluate,
    fd_jacobian,
    project,
    tangent_nullspace,
)
from .steering import SteerParams, psm_steer, steer_constraint, steer_point
from .planner import (
    PLANNERS,
    PlannerParams,
    PlanningFailure,
    SolutionPath,
    psm_star,
    psm_star_greedy,
    psm_star_single_tree,
    rrt_star_ik,
    validate_solution,
)
from .scene import (
    FreeSpaceState,
    ObstacleAABB,
    Task,
    TransitionRule,
    available_scenes,
    build_benchmark_scene,
    export_scene_json,
    load_task,
)
from .bench import RunRecord, aggregate, batch, default_params, run, sweep

__version__ = "0.1.0"

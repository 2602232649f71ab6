"""Benchmark harness: single runs, seed batches, parameter sweeps, and I/O.

Run records capture everything needed to reproduce a run (scene, planner,
seed, parameters) plus the outcome. Aggregation uses the sample standard
deviation; a single record aggregates to a standard deviation of zero.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .planner import PLANNERS, PlannerParams, PlanningFailure, SolutionPath, polyline_length, validate_solution
from .scene import build_benchmark_scene, load_task

# planner parameter defaults per scene profile
PROFILE_DEFAULTS = {
    "point": PlannerParams(alpha=1.0, beta=0.1, eps=0.01, rho=0.1, r=1.5, m=1200),
    "robot": PlannerParams(alpha=1.0, beta=0.3, eps=1e-5, rho=0.5, r=0.5, m=2000),
}


@dataclass(frozen=True)
class RunRecord:
    scene: str
    planner: str
    seed: int
    success: bool
    cost: float = None
    n_vertices: int = 0
    failure_phase: int = None
    wall_time: float = 0.0
    params: dict = None

    def to_dict(self):
        return dataclasses.asdict(self)


def default_params(task, seed=0):
    return replace(PROFILE_DEFAULTS[task.profile], seed=seed)


def params_with_overrides(task, overrides=None, seed=None):
    """Profile defaults for a task, updated from an override mapping."""
    if overrides is not None and not isinstance(overrides, dict):
        raise ValueError(f"planner parameter overrides must be a JSON object, got {overrides!r}")
    params = default_params(task)
    if overrides:
        unknown = set(overrides) - {f.name for f in dataclasses.fields(PlannerParams)}
        if unknown:
            raise ValueError(f"unknown planner parameters: {sorted(unknown)}")
        params = replace(params, **overrides)
    if seed is not None:
        params = replace(params, seed=seed)
    return params


def resolve_task(scene):
    """A Task from a built-in scene id, a JSON file path, or a Task itself."""
    if hasattr(scene, "manifolds"):
        return scene
    if isinstance(scene, str) and scene.endswith(".json"):
        return load_task(scene)
    return build_benchmark_scene(scene)


def run(task, planner, params):
    """One planner run. Returns (RunRecord, SolutionPath or None)."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; choose from {sorted(PLANNERS)}")
    t0 = time.perf_counter()
    path = None
    failure_phase = None
    try:
        path = PLANNERS[planner](task, params)
    except PlanningFailure as exc:
        failure_phase = exc.phase
    wall = time.perf_counter() - t0
    record = RunRecord(
        scene=task.name,
        planner=planner,
        seed=params.seed,
        success=path is not None,
        cost=None if path is None else path.total_cost,
        n_vertices=0 if path is None else len(path.configs),
        failure_phase=failure_phase,
        wall_time=wall,
        params=dataclasses.asdict(params),
    )
    return record, path


def _run_one(args):
    return run(*args)[0]


def batch(scene, planner, seeds, params=None, jobs=1):
    """Run one planner over several seeds; returns records in seed order.

    The Task is resolved once. ``jobs`` > 1 runs the seeds in worker
    processes, at most one per run, each sent its own pickled copy of it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    task = resolve_task(scene)
    base = params if params is not None else default_params(task)
    work = [(task, planner, replace(base, seed=s)) for s in seeds]
    workers = min(jobs, len(work))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, work))
    return [_run_one(w) for w in work]


def aggregate(records):
    """Success rate and cost statistics over the successful runs."""
    costs = np.array([r.cost for r in records if r.success], dtype=float)
    out = {
        "n": len(records),
        "successes": int(costs.size),
        "success_rate": float(costs.size) / len(records) if records else 0.0,
        "mean_cost": float(np.mean(costs)) if costs.size else None,
        "std_cost": float(np.std(costs, ddof=1)) if costs.size > 1 else (0.0 if costs.size == 1 else None),
        "min_cost": float(np.min(costs)) if costs.size else None,
        "max_cost": float(np.max(costs)) if costs.size else None,
        "mean_wall_time": float(np.mean([r.wall_time for r in records])) if records else None,
    }
    return out


def sweep(scene, planner, param_name, values, seeds, base_params=None, jobs=1):
    """Vary one planner parameter over a grid; each grid point runs all seeds.

    Returns a list of dicts: {value, aggregate, records}.
    """
    task = resolve_task(scene)
    base = base_params if base_params is not None else default_params(task)
    results = []
    for value in values:
        if param_name == "m":
            value = int(value)
        params = replace(base, **{param_name: value})
        records = batch(task, planner, seeds, params=params, jobs=jobs)
        results.append({"value": value, "aggregate": aggregate(records), "records": records})
    return results


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

RECORD_FIELDS = ["scene", "planner", "seed", "success", "cost", "n_vertices",
                 "failure_phase", "wall_time"]


def write_records_csv(records, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(RECORD_FIELDS)
        for r in records:
            d = r.to_dict()
            w.writerow([d[k] for k in RECORD_FIELDS])


def write_records_jsonl(records, path):
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r.to_dict()) + "\n")


def write_path_csv(path_obj, file_path):
    """Path vertices as CSV: segment index, then one column per coordinate.

    Boundary vertices are written once, under the earlier segment's index.
    Floats use repr so the file is bit-stable across identical runs.
    """
    dim = path_obj.configs.shape[1]
    seg_of = np.zeros(len(path_obj.configs), dtype=int)
    for b in path_obj.segment_bounds:
        seg_of[b + 1:] += 1
    with open(file_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["segment"] + [f"q{i}" for i in range(dim)])
        for seg, q in zip(seg_of, path_obj.configs):
            w.writerow([int(seg)] + [repr(float(x)) for x in q])


def read_path_csv(file_path):
    """Inverse of write_path_csv; returns a SolutionPath."""
    with open(file_path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][:1] != ["segment"]:
        raise ValueError(f"path file {file_path} lacks its header row 'segment,q0,...'")
    header, body = rows[0], rows[1:]
    if not body:
        raise ValueError("path file has no vertices")
    for k, r in enumerate(body, start=2):
        if len(r) != len(header):
            raise ValueError(f"path file {file_path}: row {k} has {len(r)} fields, its header {len(header)}")
    segs = [int(r[0]) for r in body]
    configs = np.array([[float(x) for x in r[1:]] for r in body])
    bounds = [i - 1 for i in range(1, len(segs)) if segs[i] > segs[i - 1]]
    return SolutionPath(configs=configs, segment_bounds=bounds, total_cost=polyline_length(configs))


def validate_path_file(file_path, scene, overrides=None):
    """Validate a stored path against a scene; returns the violation list."""
    task = resolve_task(scene)
    params = params_with_overrides(task, overrides)
    path = read_path_csv(file_path)
    if path.configs.shape[1] != task.ambient_dim:
        raise ValueError(f"path has {path.configs.shape[1]} coordinates per vertex, "
                         f"scene {task.name!r} has {task.ambient_dim}")
    return validate_solution(task, path, params)

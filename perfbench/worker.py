"""One benchmark run of one workload, in its own process.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUTDIR
       python3 perfbench/worker.py --setup WORKLOAD

Imports seqmp from ``src``, runs the workload's planner jobs through
``seqmp.bench.run``, validates every path and prints one JSON line with the
raw results. ``--setup`` only times the import and the scene set-up.
"""
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace

from workloads import WORKLOADS, job_groups


def set_up(workload):
    """Import seqmp and build the scene and params; returns (bench, task, params, seconds)."""
    t0 = time.perf_counter()
    from seqmp import bench

    task = bench.resolve_task(workload.scene)
    params = bench.params_with_overrides(task, workload.overrides)
    return bench, task, params, time.perf_counter() - t0


def digest(path):
    """sha256 of the path's configurations as float64 bytes; None for no path."""
    if path is None:
        return None
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(path.configs, dtype=np.float64).tobytes()).hexdigest()


def run_job(bench, task, params, planner, seed):
    """One planner run; returns (path or None, wall seconds, error text or None).

    ``bench.run`` catches only PlanningFailure; any other exception is
    recorded here as the job's error instead of ending the benchmark.
    """
    t0 = time.perf_counter()
    try:
        record, path = bench.run(task, planner, replace(params, seed=seed))
        error = None if path is not None else f"PlanningFailure in phase {record.failure_phase}"
    except Exception:
        path, error = None, traceback.format_exc(limit=3)
    return path, time.perf_counter() - t0, error


def probed_job(probe, *job):
    """run_job while the speed probe samples; returns (path, wall, error, mean probe seconds).

    The wall time excludes the probe's own time inside the run.
    """
    with probe:
        path, wall, error = run_job(*job)
    return path, wall - probe.inside_s, error, statistics.fmean(probe.times)


def traced_job(tracer, run_id, *job):
    tracer.run_id = run_id
    tracer.install()
    try:
        return run_job(*job)
    finally:
        tracer.restore()


def main(argv):
    if argv[0] == "--setup":
        print(json.dumps({"setup_s": set_up(WORKLOADS[argv[1]])[3]}))
        return 0
    name, seed, seconds, trace, outdir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    workload = WORKLOADS[name]
    bench, task, params, setup_s = set_up(workload)
    import numpy as np
    from seqmp.planner import validate_solution

    job_list = [job for group in job_groups(workload, seed, traced=trace) for job in group]
    tracer = probe = None
    if trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    else:
        from probe import SpeedProbe  # imported after set_up, which times the numpy import too

        probe = SpeedProbe()
    t_start = time.perf_counter()
    first, traced = [], []
    for i, (planner, pseed) in enumerate(job_list):
        job = (bench, task, params, planner, pseed)
        if tracer is None:
            first.append(probed_job(probe, *job))
        elif i % 2 == 0:  # alternate the order so drift in machine speed cancels
            first.append((*run_job(*job), None))
            traced.append(traced_job(tracer, i, *job))
        else:
            traced.append(traced_job(tracer, i, *job))
            first.append((*run_job(*job), None))
    records = []
    for (planner, pseed), (path, wall, error, probe_s) in zip(job_list, first):
        violations = None if path is None else validate_solution(task, path, replace(params, seed=pseed))
        records.append({
            "planner": planner, "seed": pseed, "ok": path is not None and not violations,
            "error": error, "violations": violations, "digest": digest(path),
            "cost": None if path is None else path.total_cost, "wall_s": [wall], "probe_s": [probe_s],
        })
    problems = []
    out = {}
    if trace:
        for rec, (path, wall, _) in zip(records, traced):
            rec["traced_wall_s"] = wall
            if digest(path) != rec["digest"]:
                problems.append(f"traced path digest differs: {rec['planner']} seed {rec['seed']}")
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.start)
        tracer.save(os.path.join(outdir, f"spans-{name}-seed{seed}.npz"))
    else:
        # Repeat the groups round-robin for more timing samples while the
        # next group, timed by its previous run, still fits in the run; a
        # faster program gets more samples, not other jobs. Repeats must
        # reproduce every digest.
        size = len(workload.planners)
        group_recs = [records[i:i + size] for i in range(0, len(records), size)]
        k = 0
        while True:
            recs = group_recs[k % len(group_recs)]
            if time.perf_counter() - t_start + sum(r["wall_s"][-1] for r in recs) > seconds:
                break
            for rec in recs:
                path, wall, _, probe_s = probed_job(probe, bench, task, params, rec["planner"], rec["seed"])
                rec["wall_s"].append(wall)
                rec["probe_s"].append(probe_s)
                if digest(path) != rec["digest"]:
                    problems.append(f"repeated run digest differs: {rec['planner']} seed {rec['seed']}")
            k += 1
    for rec in records:
        if rec["violations"]:
            problems.append(f"invalid path: {rec['planner']} seed {rec['seed']}: {rec['violations'][:3]}")
    out.update({
        "setup_s": setup_s,
        "records": records,
        "problems": problems,
        "samples_per_run": params.m * task.n_phases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

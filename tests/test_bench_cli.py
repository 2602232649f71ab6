"""Benchmark harness, result/path files, and the command-line interface."""
import contextlib
import copy
import functools
import io
import json
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmp import bench
from seqmp.cli import main
from seqmp.planner import PLANNERS, PlannerParams
from seqmp.scene import available_scenes

FAST = PlannerParams(m=300, seed=0)


def _in_process_pool(started):
    """A stand-in for ProcessPoolExecutor that records its pool size and runs
    each item in this process after a pickle round trip, as a worker process
    receives it; no process is started."""

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, (pickle.loads(pickle.dumps(item)) for item in items))

    return InProcessPool


class TestAggregate:
    def _rec(self, cost, success=True, seed=0):
        return bench.RunRecord(scene="s", planner="psm", seed=seed, success=success, cost=cost)

    def test_single_record_std_zero(self):
        agg = bench.aggregate([self._rec(10.0)])
        assert agg["std_cost"] == 0.0
        assert agg["mean_cost"] == 10.0
        assert agg["success_rate"] == 1.0

    def test_hand_built_three_records(self):
        agg = bench.aggregate([self._rec(c, seed=i) for i, c in enumerate((10.0, 12.0, 14.0))])
        assert agg["mean_cost"] == pytest.approx(12.0)
        assert agg["std_cost"] == pytest.approx(2.0)  # sample standard deviation

    def test_failures_excluded_from_cost_stats(self):
        agg = bench.aggregate([self._rec(10.0), self._rec(None, success=False, seed=1)])
        assert agg["successes"] == 1
        assert agg["success_rate"] == 0.5
        assert agg["mean_cost"] == 10.0


class TestRunAndBatch:
    def test_run_point3d_in_table_band(self):
        task = bench.resolve_task("point3d_free")
        record, path = bench.run(task, "psm", bench.default_params(task, seed=0))
        assert record.success
        assert 14.3 <= record.cost <= 15.3
        assert path is not None and record.n_vertices == len(path.configs)

    def test_failure_record(self):
        task = bench.resolve_task("point3d_free")
        record, path = bench.run(task, "psm", PlannerParams(m=1, seed=0))
        assert not record.success
        assert record.cost is None and path is None
        assert record.failure_phase == 0

    def test_unknown_planner(self):
        with pytest.raises(ValueError):
            bench.run(bench.resolve_task("point3d_free"), "nope", FAST)

    def test_batch_seed_order_and_determinism(self):
        recs = bench.batch("point3d_free", "psm", [0, 1], params=FAST)
        assert [r.seed for r in recs] == [0, 1]
        again = bench.batch("point3d_free", "psm", [0, 1], params=FAST)
        assert [r.cost for r in recs] == [r.cost for r in again]

    @pytest.mark.parametrize("jobs, runs, workers", [(64, 2, 2), (2, 3, 2), (10**6, 3, 3), (4, 1, None)])
    def test_batch_starts_at_most_one_worker_per_run(self, monkeypatch, jobs, runs, workers):
        started = []
        monkeypatch.setattr(bench, "ProcessPoolExecutor", _in_process_pool(started))
        recs = bench.batch("point3d_free", "psm", list(range(runs)), params=FAST, jobs=jobs)
        assert [r.seed for r in recs] == list(range(runs))
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("scene", ["point3d_free", "transport_a_mini"])
    def test_batch_of_a_task_object_starts_a_pool(self, monkeypatch, scene):
        # a Task, robot Tasks included, is pickled to the workers whole
        task = bench.resolve_task(scene)
        params = bench.params_with_overrides(task, {"m": 100})
        serial = bench.batch(task, "psm", [0, 1], params=params)
        started = []
        monkeypatch.setattr(bench, "ProcessPoolExecutor", _in_process_pool(started))
        pooled = bench.batch(task, "psm", [0, 1], params=params, jobs=2)
        assert started == [2]
        assert [(r.seed, r.success, r.cost) for r in pooled] == [(r.seed, r.success, r.cost) for r in serial]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_batch_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            bench.batch("point3d_free", "psm", [0, 1], params=FAST, jobs=jobs)

    def test_single_value_sweep_degenerates_to_aggregate(self):
        res = bench.sweep("point3d_free", "psm", "m", [300], [0, 1])
        recs = bench.batch("point3d_free", "psm", [0, 1], params=PlannerParams(m=300))
        a, b = res[0]["aggregate"], bench.aggregate(recs)
        a.pop("mean_wall_time"), b.pop("mean_wall_time")
        assert a == b

    def test_params_overrides_validated(self):
        task = bench.resolve_task("point3d_free")
        with pytest.raises(ValueError):
            bench.params_with_overrides(task, {"bogus": 1})
        p = bench.params_with_overrides(task, {"m": 42}, seed=7)
        assert p.m == 42 and p.seed == 7


class TestPathFiles:
    @pytest.mark.parametrize("planner", sorted(PLANNERS))
    def test_round_trip(self, planner, tmp_path):
        task = bench.resolve_task("point3d_free")
        _, path = bench.run(task, planner, FAST)
        f = tmp_path / "path.csv"
        bench.write_path_csv(path, f)
        back = bench.read_path_csv(f)
        assert np.array_equal(back.configs, path.configs)
        assert back.segment_bounds == path.segment_bounds
        assert back.total_cost == pytest.approx(path.total_cost)

    def test_validate_path_file(self, tmp_path):
        task = bench.resolve_task("point3d_free")
        _, path = bench.run(task, "psm", FAST)
        f = tmp_path / "path.csv"
        bench.write_path_csv(path, f)
        assert bench.validate_path_file(f, "point3d_free", {"m": 300}) == []

    def test_records_csv(self, tmp_path):
        recs = bench.batch("point3d_free", "psm", [0], params=FAST)
        bench.write_records_csv(recs, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["scene", "planner", "seed"]
        assert len(lines) == 2


class TestCli:
    def _params_file(self, tmp_path, **kw):
        f = tmp_path / "params.json"
        f.write_text(json.dumps(kw))
        return str(f)

    def test_plan_writes_result_and_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["plan", "--scene", "point3d_free", "--planner", "psm", "--seed", "0",
                   "--params", self._params_file(tmp_path, m=300), "--out", str(out)])
        assert rc == 0
        assert "cost=" in capsys.readouterr().out
        result = json.loads((out / "result.json").read_text())
        assert result["success"] and result["params"]["m"] == 300
        assert (out / "path.csv").exists()

    def test_plan_failure_no_path_file(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["plan", "--scene", "point3d_free", "--planner", "psm", "--seed", "0",
                   "--params", self._params_file(tmp_path, m=1), "--out", str(out)])
        assert rc == 1
        assert not json.loads((out / "result.json").read_text())["success"]
        assert not (out / "path.csv").exists()

    def test_unknown_scene_lists_available(self, tmp_path, capsys):
        rc = main(["plan", "--scene", "bogus", "--planner", "psm"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in available_scenes():
            assert name in err

    def test_end_to_end_determinism(self, tmp_path):
        params = self._params_file(tmp_path, m=300)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["plan", "--scene", "point3d_free", "--planner", "psm", "--seed", "5",
                         "--params", params, "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "path.csv").read_bytes() == (outs[1] / "path.csv").read_bytes()
        # result files are identical except the hardware-dependent wall time
        results = []
        for out in outs:
            d = json.loads((out / "result.json").read_text())
            d.pop("wall_time")
            results.append(d)
        assert results[0] == results[1]

    def test_validate_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        params = self._params_file(tmp_path, m=300)
        main(["plan", "--scene", "point3d_obstacles", "--planner", "psm", "--seed", "0",
              "--params", params, "--out", str(out)])
        rc = main(["validate", "--path", str(out / "path.csv"), "--scene", "point3d_obstacles",
                   "--params", params])
        assert rc == 0
        assert "VALID" in capsys.readouterr().out

    def test_validate_catches_teleport(self, tmp_path, capsys):
        out = tmp_path / "out"
        params = self._params_file(tmp_path, m=300)
        main(["plan", "--scene", "point3d_free", "--planner", "psm", "--seed", "0",
              "--params", params, "--out", str(out)])
        lines = (out / "path.csv").read_text().splitlines()
        broken = lines[:3] + lines[10:]  # remove vertices to create a long jump
        (out / "bad.csv").write_text("\n".join(broken) + "\n")
        rc = main(["validate", "--path", str(out / "bad.csv"), "--scene", "point3d_free",
                   "--params", params])
        assert rc == 1

    def test_validate_catches_a_vertex_that_is_not_finite(self, tmp_path, capsys):
        out = tmp_path / "out"
        params = self._params_file(tmp_path, m=300)
        main(["plan", "--scene", "point3d_free", "--planner", "psm", "--seed", "0",
              "--params", params, "--out", str(out)])
        lines = (out / "path.csv").read_text().splitlines()
        mid = len(lines) // 2  # a vertex row: line 0 is the header
        lines[mid] = lines[mid].split(",")[0] + ",nan,nan,nan"
        (out / "nan.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["validate", "--path", str(out / "nan.csv"), "--scene", "point3d_free",
                   "--params", params])
        assert rc == 1
        printed = capsys.readouterr().out
        assert printed.startswith("INVALID") and f"vertex {mid - 1}: not finite" in printed

    @pytest.mark.parametrize("text, message", [
        ("", "lacks its header row"),
        ("0,3.5,3.5,4.45\n", "lacks its header row"),
        ("segment,q0,q1,q2\n0,3.5,3.5,4.45\n0,3.5\n", "row 3 has 2 fields, its header 4"),
        ("segment,q0,q1\n0,3.5,3.5\n1,0.0,0.0\n", "path has 2 coordinates per vertex, scene 'point3d_free' has 3"),
        # {f} stands for the file's path
        ("segment,q0,q1,q2\n0,3.5,3.5,4.45\nx,3.5,3.5,4.45\n",
         "path file {f}: row 3 has a field that is not a number (invalid literal for int() with base 10: 'x')"),
        ("segment,q0,q1,q2\n0,3.5,3.5,4.45\n0,3.5,a,4.45\n",
         "path file {f}: row 3 has a field that is not a number (could not convert string to float: 'a')"),
        ("segment,q0,q1,q2\n", "path file {f} has no vertices"),
    ])
    def test_validate_malformed_path_file_exits_2(self, tmp_path, capsys, text, message):
        f = tmp_path / "path.csv"
        f.write_text(text)
        rc = main(["validate", "--path", str(f), "--scene", "point3d_free"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message.format(f=f) in err

    @pytest.mark.parametrize("labels", [(5, 6, 7), (0, 2, 4)])
    def test_validate_rejects_segment_labels_that_do_not_count_up_from_0(self, tmp_path, capsys, labels):
        out = tmp_path / "out"
        main(["plan", "--scene", "point3d_free", "--planner", "psm", "--seed", "0",
              "--params", self._params_file(tmp_path, m=300), "--out", str(out)])
        header, *rows = (out / "path.csv").read_text().splitlines()
        segs = [int(row.split(",", 1)[0]) for row in rows]
        f = out / "relabelled.csv"
        f.write_text("\n".join([header] + [f"{labels[s]},{row.split(',', 1)[1]}" for s, row in zip(segs, rows)]))
        capsys.readouterr()
        rc = main(["validate", "--path", str(f), "--scene", "point3d_free"])
        assert rc == 2
        k = 0 if labels[0] else segs.index(1)  # the first row whose label is wrong
        assert f"path file {f}: row {k + 2} has segment label {labels[segs[k]]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "validate"])
    def test_params_that_are_not_an_object_exit_2(self, tmp_path, capsys, command):
        f = tmp_path / "params.json"
        f.write_text("5")
        args = ["--planner", "psm"] if command == "plan" else ["--path", str(tmp_path / "path.csv")]
        rc = main([command, "--scene", "point3d_free", "--params", str(f)] + args)
        assert rc == 2
        assert "planner parameter overrides must be a JSON object, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["scene_is_a_directory", "params_is_a_directory",
                                      "path_is_a_directory", "out_is_a_file"])
    def test_os_error_exits_2_with_a_message(self, tmp_path, capsys, case):
        target = tmp_path / "target.json"
        if case == "out_is_a_file":  # os.makedirs raises FileExistsError once the run is over
            target.write_text("")
            args = ["plan", "--scene", "point3d_free", "--planner", "psm",
                    "--params", self._params_file(tmp_path, m=1), "--out", str(target)]
        else:
            target.mkdir()
            args = {"scene_is_a_directory": ["plan", "--scene", str(target), "--planner", "psm"],
                    "params_is_a_directory": ["plan", "--scene", "point3d_free", "--planner", "psm",
                                              "--params", str(target)],
                    "path_is_a_directory": ["validate", "--path", str(target), "--scene", "point3d_free"]}[case]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_sweep_subcommand(self, tmp_path, capsys):
        rc = main(["sweep", "--scene", "point3d_free", "--planner", "psm", "--param", "m",
                   "--values", "100,300", "--seeds", "2",
                   "--params", self._params_file(tmp_path, m=100),
                   "--out", str(tmp_path / "sweep.csv")])
        assert rc == 0
        assert (tmp_path / "sweep.csv").read_text().count("\n") == 5  # header + 4 runs

    def test_sweep_loads_a_scene_file_once(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "scene.json"
        assert main(["export-scene", "point3d_free", "--out", str(f)]) == 0
        calls, load = [], bench.load_task
        monkeypatch.setattr(bench, "load_task", lambda path: calls.append(path) or load(path))
        rc = main(["sweep", "--scene", str(f), "--param", "m", "--values", "20", "--seeds", "1",
                   "--params", self._params_file(tmp_path)])
        assert rc == 0
        assert calls == [str(f)]

    def test_sweep_with_jobs_below_one_exits_2(self, tmp_path, capsys):
        rc = main(["sweep", "--scene", "point3d_free", "--param", "m", "--values", "100", "--seeds", "2",
                   "--jobs", "0", "--params", self._params_file(tmp_path, m=100)])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", [0, -3])
    def test_sweep_with_seeds_below_one_exits_2(self, tmp_path, capsys, seeds):
        rc = main(["sweep", "--scene", "point3d_free", "--param", "m", "--values", "100",
                   "--seeds", str(seeds), "--params", self._params_file(tmp_path, m=100)])
        assert rc == 2
        assert f"--seeds must be >= 1, got {seeds}" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [",", " , ,"])
    def test_sweep_with_no_values_exits_2(self, tmp_path, capsys, values):
        rc = main(["sweep", "--scene", "point3d_free", "--param", "m", "--values", values,
                   "--seeds", "2", "--params", self._params_file(tmp_path, m=100)])
        assert rc == 2
        out = capsys.readouterr()
        assert f"--values must name at least one value, got {values!r}" in out.err
        assert out.out == ""

    def test_sweep_with_a_fractional_m_exits_2(self, tmp_path, capsys, monkeypatch):
        # no grid point runs, not even the whole value listed before the fraction
        monkeypatch.setattr(bench, "batch", lambda *a, **k: pytest.fail("a grid point ran"))
        rc = main(["sweep", "--scene", "point3d_free", "--param", "m", "--values", "100,2.7",
                   "--seeds", "2", "--params", self._params_file(tmp_path, m=100)])
        assert rc == 2
        assert "m values must be whole numbers, got 2.7" in capsys.readouterr().err

    def test_export_scene_round_trip_via_cli(self, tmp_path, capsys):
        f = tmp_path / "scene.json"
        assert main(["export-scene", "point3d_obstacles", "--out", str(f)]) == 0
        rc = main(["plan", "--scene", str(f), "--planner", "psm", "--seed", "0",
                   "--params", self._params_file(tmp_path, m=300)])
        assert rc == 0


# malformed scenes whose error must name the entry: case -> texts the message holds
_NAMED_ENTRY_CASES = {
    "system_not_an_object": ("'system'", "5"),
    "obstacle_min_not_numeric": ("obstacle 0", "'a'"),
    "joint_type_unknown": ("system chain 0", "joint 1", "'helical'"),
    "manifolds_not_a_list": ("manifold entries", "5"),
    "profile_unknown": ("'profile'", "'fast'"),
    "collision_step_not_numeric": ("'collision_step'", "'x'"),
    "collision_step_nan": ("'collision_step'", "nan"),
    "collision_step_zero": ("'collision_step'", "0.0"),
    "effect_not_an_object": ("transition 0", "effect", "5"),
    "effect_type_unknown": ("transition 0", "'teleport'"),
    "attach_body_not_a_chain_index": ("transition 0", "body 3"),
    "bounds_reversed": ("bounds entry 0", "[6.0, -6.0]"),
    "bounds_infinite": ("bounds entry 0", "inf"),
    "bounds_nan": ("bounds entry 0", "nan"),
    "bounds_below_joint_limits": ("bounds entry 1", "[-2.5, 2.2]", "joint limits [-2.2, 2.2]"),
    "bounds_above_joint_limits": ("bounds entry 0", "[-3.0, 3.5]", "joint limits"),
    "trigger_out_of_range": ("transition 1", "trigger 7"),
    "trigger_repeated": ("transition 1", "trigger 0", "transition 0"),
    "trigger_not_an_integer": ("transition 1", "trigger '1'"),
    "attach_unknown_object": ("transition 0", "'zzz'"),
    "detach_not_attached": ("transition 1", "'pillar'", "not attached"),
    "object_id_not_hashable": ("transition 0", "unhashable"),
    "start_entry_null": ("start entry 0", "None"),
    "start_entry_text": ("start entry 0", "'a'"),
    "start_entry_bool": ("start entry 0", "True"),
    "system_dof_differs_from_manifolds": ("'system' has 4 joints", "3 configuration coordinates"),
    "start_outside_bounds": ("start entry 0", "7.0", "bounds entry 0"),
    "obstacle_two_dimensional": ("obstacle 0", "min", "3 finite numbers"),
    "obstacle_corner_nan": ("obstacle 1", "max", "nan"),
    "goal_point_target_nan": ("manifold 3", "'goal_point'", "target", "nan"),
    "robot_obstacle_two_dimensional": ("obstacle 0", "min", "3 finite numbers"),
    "chain_base_two_entries": ("system chain 0", "base", "3 finite numbers"),
    "chain_tool_two_entries": ("system chain 0", "tool", "3 finite numbers"),
    "joint_origin_two_entries": ("system chain 0", "joint 1", "origin", "3 finite numbers"),
}


def _bad_scene_files():
    from seqmp.scene import export_scene_json

    point = json.loads(export_scene_json("point3d_free"))
    robot = json.loads(export_scene_json("transport_a_mini"))
    out = {}
    for key in ("manifolds", "start", "bounds"):
        d = dict(point)
        del d[key]
        out[f"missing_{key}"] = d
    for kind, params in (("pick", {"chain": 0, "target": [0.3, 0.0, 0.3]}),
                         ("handover", {"chain1": 0, "chain2": 1}),
                         ("orientation", {"chain": 0})):
        d = {k: v for k, v in robot.items() if k != "system"}
        d["manifolds"] = [{"type": kind, "name": kind, "params": params}] + robot["manifolds"][1:]
        out[f"{kind}_without_system"] = d
    for entry, key in (("obstacles", "min"), ("transitions", "trigger")):
        d = copy.deepcopy(robot)
        del d[entry][0][key]
        out[f"{entry}_entry_without_{key}"] = d
    d = copy.deepcopy(robot)
    del d["system"]["chains"][0]["joints"]
    out["chain_without_joints"] = d
    for entry in ("manifolds", "obstacles", "transitions"):
        d = copy.deepcopy(robot)
        d[entry][0] = [1.0, 2.0]
        out[f"{entry}_entry_not_an_object"] = d
    d = copy.deepcopy(point)
    d["manifolds"][0]["params"] = [0.1, 2.0]
    out["params_not_an_object"] = d
    for key in ("start", "bounds"):
        d = copy.deepcopy(point)
        d[key] = d[key][:-1]
        out[f"{key}_too_short"] = d
        d = copy.deepcopy(robot)
        d[key] = d[key] + d[key][-1:]
        out[f"{key}_too_long"] = d
    d = copy.deepcopy(point)
    d["manifolds"][-1]["params"]["target"] = [1.0, 2.0]
    out["goal_point_target_wrong_length"] = d
    d = copy.deepcopy(robot)
    d["manifolds"][0]["params"]["target"] = [0.3, 0.0, 0.3, 0.0]
    out["pick_target_wrong_length"] = d
    d = copy.deepcopy(robot)
    d["system"] = 5
    out["system_not_an_object"] = d
    d = copy.deepcopy(robot)
    d["obstacles"][0]["min"] = ["a", 0.0, 0.0]
    out["obstacle_min_not_numeric"] = d
    d = copy.deepcopy(robot)
    d["system"]["chains"][0]["joints"][1]["type"] = "helical"
    out["joint_type_unknown"] = d
    d = copy.deepcopy(point)
    d["manifolds"] = 5
    out["manifolds_not_a_list"] = d
    for case, key, bad in (("profile_unknown", "profile", "fast"),
                           ("collision_step_not_numeric", "collision_step", "x"),
                           ("collision_step_nan", "collision_step", float("nan")),
                           ("collision_step_zero", "collision_step", 0.0)):
        d = copy.deepcopy(point)
        d[key] = bad
        out[case] = d
    for case, effect in (("effect_not_an_object", 5), ("effect_type_unknown", {"type": "teleport"}),
                         ("attach_body_not_a_chain_index", {"type": "attach", "object": "obj1", "body": 3})):
        d = copy.deepcopy(robot)
        d["transitions"][0]["effect"] = effect
        out[case] = d
    for case, bad in (("bounds_reversed", [6.0, -6.0]), ("bounds_infinite", [-6.0, float("inf")]),
                      ("bounds_nan", [float("nan"), 6.0])):
        d = copy.deepcopy(point)
        d["bounds"][0] = bad
        out[case] = d
    for case, j, bad in (("bounds_below_joint_limits", 1, [-2.5, 2.2]),
                         ("bounds_above_joint_limits", 0, [-3.0, 3.5])):
        d = copy.deepcopy(robot)
        d["bounds"][j] = bad
        out[case] = d
    for case, trigger in (("trigger_out_of_range", 7), ("trigger_repeated", 0), ("trigger_not_an_integer", "1")):
        d = copy.deepcopy(robot)
        d["transitions"][1]["trigger"] = trigger
        out[case] = d
    for case, k, obj in (("attach_unknown_object", 0, "zzz"), ("detach_not_attached", 1, "pillar")):
        d = copy.deepcopy(robot)
        d["transitions"][k]["effect"]["object"] = obj
        out[case] = d
    d = copy.deepcopy(robot)
    d["obstacles"][0]["name"] = d["transitions"][0]["effect"]["object"] = ["obj1"]
    out["object_id_not_hashable"] = d
    # a 4-joint system under 3-coordinate manifolds; bounds and start kept inside the joint limits
    d = json.loads(export_scene_json("point3d_obstacles"))
    d.update(system=robot["system"], bounds=[[-2.0, 2.0]] * 3, start=[1.0, 1.0, 2.2])
    out["system_dof_differs_from_manifolds"] = d
    for case, bad in (("start_entry_null", None), ("start_entry_text", "a"), ("start_entry_bool", True)):
        d = json.loads(export_scene_json("plane_cylinder_point"))
        d["start"][0] = bad
        out[case] = d
    d = copy.deepcopy(point)
    d["start"] = [7.0, 7.0, 11.8]  # on the first paraboloid, outside the bounds [-6, 6]
    out["start_outside_bounds"] = d
    obstacles = json.loads(export_scene_json("point3d_obstacles"))
    d = copy.deepcopy(obstacles)
    d["obstacles"][0].update(min=[0.0, 0.0], max=[1.0, 1.0])
    out["obstacle_two_dimensional"] = d
    d = copy.deepcopy(obstacles)
    d["obstacles"][1]["max"][2] = float("nan")
    out["obstacle_corner_nan"] = d
    d = copy.deepcopy(point)
    d["manifolds"][3]["params"]["target"][1] = float("nan")
    out["goal_point_target_nan"] = d
    d = copy.deepcopy(robot)
    d["obstacles"][0].update(min=[0.0, 0.0], max=[1.0, 1.0])
    out["robot_obstacle_two_dimensional"] = d
    for case, c, key in (("chain_base_two_entries", 0, "base"), ("chain_tool_two_entries", 0, "tool")):
        d = copy.deepcopy(robot)
        d["system"]["chains"][c][key] = [0.0, 0.0]
        out[case] = d
    d = copy.deepcopy(robot)
    d["system"]["chains"][0]["joints"][1]["origin"] = [0.0, 0.3]
    out["joint_origin_two_entries"] = d
    return out


@pytest.mark.parametrize("case", sorted(_bad_scene_files()))
def test_plan_on_malformed_scene_exits_2_with_message(case, tmp_path, capsys):
    f = tmp_path / "scene.json"
    f.write_text(json.dumps(_bad_scene_files()[case]))
    rc = main(["plan", "--scene", str(f), "--planner", "psm"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(text in err for text in _NAMED_ENTRY_CASES.get(case, ()))


@pytest.mark.parametrize("case", sorted(_bad_scene_files()))
def test_malformed_scene_rejected_by_loader(case):
    from seqmp.scene import task_from_dict

    with pytest.raises(ValueError) as err:
        task_from_dict(_bad_scene_files()[case])
    assert all(text in str(err.value) for text in _NAMED_ENTRY_CASES.get(case, ()))


@pytest.mark.parametrize("override", [{"eps": float("nan")}, {"alpha": -1.0}, {"r": 0.0},
                                      {"alpha": "x"}, {"m": True}, {"max_project_iters": 0}])
def test_plan_with_bad_params_exits_2(override, tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps(override))
    rc = main(["plan", "--scene", "point3d_free", "--planner", "psm", "--params", str(f)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(override)) in err


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_beta_outside_unit_interval_exits_2_for_every_planner(planner, tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"beta": 5}))
    rc = main(["plan", "--scene", "point3d_free", "--planner", planner, "--params", str(f)])
    assert rc == 2
    assert "beta must lie in [0, 1]" in capsys.readouterr().err


@functools.lru_cache(maxsize=None)
def _exported_scenes():
    from seqmp.scene import export_scene_json

    return {name: export_scene_json(name) for name in available_scenes()}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_missing_manifold_param_is_named_and_plan_exits_2(data):
    # every params key a built-in scene exports is required; drop any one of them
    from seqmp.scene import task_from_dict

    text = _exported_scenes()[data.draw(st.sampled_from(sorted(_exported_scenes())))]
    d = json.loads(text)
    md = data.draw(st.sampled_from(d["manifolds"]))
    key = data.draw(st.sampled_from(sorted(md["params"])))
    del md["params"][key]
    with pytest.raises(ValueError, match=key) as err:
        task_from_dict(d)
    assert repr(md.get("name", md["type"])) in str(err.value)
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "scene.json")
        with open(f, "w") as fh:
            json.dump(d, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main(["plan", "--scene", f, "--planner", "psm"])
    assert rc == 2
    assert stderr.getvalue().startswith("error: ") and key in stderr.getvalue()


def _corruptions(d):
    """For every field of the scene dict ``d`` the loader checks, and each way
    of corrupting it: (text the error must contain, function that corrupts a
    copy of ``d`` in place)."""
    not_object = [3, "x", None, [1.0, 2.0]]
    out = []
    for entry, what in (("manifolds", "manifold"), ("obstacles", "obstacle"), ("transitions", "transition")):
        for k in range(len(d.get(entry, ()))):
            out += [(f"{what} {k} ", lambda c, e=entry, k=k, b=bad: c[e].__setitem__(k, b)) for bad in not_object]
    for k, md in enumerate(d["manifolds"]):
        name = repr(md.get("name", md["type"]))
        out += [(name, lambda c, k=k, b=bad: c["manifolds"][k].__setitem__("params", b)) for bad in not_object]
        if md["type"] in ("goal_point", "pick"):
            out += [(name, lambda c, k=k, cut=cut: _resize(c["manifolds"][k]["params"], "target", cut))
                    for cut in (-1, 1)]
    for key in ("start", "bounds"):
        out += [(repr(key), lambda c, key=key, cut=cut: _resize(c, key, cut)) for cut in (-1, 1)]
    return out


def _resize(d, key, cut):
    """Drop the last entry of the list ``d[key]`` (cut -1) or repeat it (cut +1)."""
    d[key] = d[key][:-1] if cut < 0 else d[key] + d[key][-1:]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corrupted_scene_field_is_named_and_plan_exits_2(data):
    # one field of any exported built-in scene made malformed: an entry or a
    # params that is not an object, or a start, bounds or target of the wrong length
    from seqmp.scene import task_from_dict

    d = json.loads(_exported_scenes()[data.draw(st.sampled_from(sorted(_exported_scenes())))])
    named, corrupt = data.draw(st.sampled_from(_corruptions(d)))
    corrupt(d)
    with pytest.raises(ValueError) as err:
        task_from_dict(d)
    assert named in str(err.value)
    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "scene.json")
        with open(f, "w") as fh:
            json.dump(d, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main(["plan", "--scene", f, "--planner", "psm"])
    assert rc == 2
    assert stderr.getvalue().startswith("error: ") and named in stderr.getvalue()

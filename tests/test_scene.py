"""Obstacles, collision checking, free-space transitions, the scene loader and the built-in scenes."""
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqmp import kinematics as kin
from seqmp.manifolds import evaluate
from seqmp.scene import (
    FreeSpaceState,
    ObstacleAABB,
    TransitionRule,
    apply_transition,
    available_scenes,
    build_benchmark_scene,
    collision_free_segment,
    collision_points,
    export_scene_json,
    point_free,
    task_from_dict,
)

RNG = np.random.default_rng(42)


class TestObstacleAABB:
    def test_invariant(self):
        with pytest.raises(ValueError):
            ObstacleAABB((1.0, 0.0), (0.0, 1.0))

    def test_strict_interior(self):
        box = ObstacleAABB((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        assert box.contains(np.array([[0.0, 0.0, 0.0]]))[0]
        assert not box.contains(np.array([[1.0, 0.0, 0.0]]))[0]  # boundary is free


class TestCollisionFreeSegment:
    def test_segment_pierces_box(self):
        fs = FreeSpaceState(obstacles=(ObstacleAABB((-0.1,) * 3, (0.1,) * 3),))
        assert not collision_free_segment((-1, 0, 0), (1, 0, 0), fs)

    def test_segment_misses_box(self):
        fs = FreeSpaceState(obstacles=(ObstacleAABB((0.4,) * 3, (0.6,) * 3),))
        assert collision_free_segment((-1, 0, 0), (1, 0, 0), fs)

    def test_agrees_with_dense_oracle(self):
        step = 0.05
        for _ in range(200):
            center = RNG.uniform(-1, 1, 3)
            half = RNG.uniform(0.3, 0.8, 3)
            fs = FreeSpaceState(obstacles=(ObstacleAABB(tuple(center - half), tuple(center + half)),))
            qa, qb = RNG.uniform(-2, 2, 3), RNG.uniform(-2, 2, 3)
            got = collision_free_segment(qa, qb, fs, step=step)
            n = max(1, int(np.ceil(np.linalg.norm(qb - qa) / (step / 100))))
            ts = np.linspace(0, 1, n + 1)
            dense = not np.any(fs.obstacles[0].contains(qa[None] + ts[:, None] * (qb - qa)[None]))
            if got != dense:
                # only a clip shorter than the dense spacing may escape the dense oracle
                assert dense and not got
                assert self._max_penetration(qa, qb, fs.obstacles[0]) < step / 100

    @staticmethod
    def _max_penetration(qa, qb, box):
        ts = np.linspace(0, 1, 20001)
        pts = qa[None] + ts[:, None] * (qb - qa)[None]
        inside = box.contains(pts)
        return float(np.sum(inside)) / len(ts) * np.linalg.norm(qb - qa)

    def test_touching_a_face_an_edge_or_a_corner_is_free(self):
        fs = FreeSpaceState(obstacles=(ObstacleAABB((0.0,) * 3, (1.0,) * 3),))
        assert collision_free_segment((1, 0.5, 0.5), (2, 0.5, 0.5), fs)  # from a face outward
        assert collision_free_segment((-1, 0.5, 0), (2, 0.5, 0), fs)  # along a face
        assert collision_free_segment((-1, 0, 0), (2, 0, 0), fs)  # along an edge
        assert collision_free_segment((-1, 1, 0.5), (1, -1, 0.5), fs)  # across an edge
        assert collision_free_segment((-1, -1, -1), (0, 0, 0), fs)  # to a corner
        assert not collision_free_segment((1, 0.5, 0.5), (0.9, 0.5, 0.5), fs)  # from a face inward
        assert not collision_free_segment((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), fs)  # a point inside

    def test_a_clip_between_sampled_points_is_not_free(self):
        # the diagonal is inside the box for x in (1.001, 1.009), between the
        # points 0.05 apart that a sampled test would check
        fs = FreeSpaceState(obstacles=(ObstacleAABB((1.001, -5.0, -1.0), (5.0, 1.009, 1.0)),))
        ts = np.linspace(0.0, 1.0, 58)
        assert point_free(ts[:, None] * np.array([2.0, 2.0, 0.0]), fs)
        assert not collision_free_segment((0.0, 0.0, 0.0), (2.0, 2.0, 0.0), fs)

    def test_symmetric(self):
        fs = FreeSpaceState(obstacles=(ObstacleAABB((-0.2,) * 3, (0.3,) * 3),))
        for _ in range(50):
            qa, qb = RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 3)
            assert collision_free_segment(qa, qb, fs) == collision_free_segment(qb, qa, fs)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            collision_free_segment((0, 0, 0), (1, 0, 0), FreeSpaceState(), step=0.0)


# a dyadic grid: every slab bound is a ratio of small integers, which float
# division rounds without reordering any two of them
_GRID = st.integers(-12, 12).map(lambda k: k / 4)
_FLOAT = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def _boxes_and_segment(draw, coord):
    """1-3 boxes and a segment in 1-3 dimensions with coordinates drawn from
    ``coord``. An endpoint coordinate may be a face coordinate of some box on
    its axis, so endpoints sit on faces, edges and corners, and qb may keep
    qa's coordinate on any axis (no motion along it), or on all of them."""
    d = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(coord, min_size=d, max_size=d)), draw(st.lists(coord, min_size=d, max_size=d))
        boxes.append(ObstacleAABB(tuple(map(min, a, b)), tuple(map(max, a, b))))
    axis = [st.one_of(coord, st.sampled_from([c for box in boxes for c in (box.min_corner[j], box.max_corner[j])]))
            for j in range(d)]
    qa = np.array([draw(a) for a in axis])
    qb = np.array([x if draw(st.booleans()) else draw(a) for x, a in zip(qa.tolist(), axis)])
    return FreeSpaceState(obstacles=tuple(boxes)), qa, qb


def _slab_oracle(a, b, fs):
    """Whether the segment from a to b misses every box's open interior, in
    rational arithmetic: along each axis it moves on, the t with
    lo < a + t (b - a) < hi form an open interval, and the segment meets the
    box where all of them and [0, 1] share a t."""
    for ob in fs.obstacles:
        lower, upper, inside = [], [], True
        for x, y, lo, hi in zip(*([Fraction(v) for v in vs] for vs in (a, b, ob.min_corner, ob.max_corner))):
            if x == y:
                inside = inside and lo < x < hi
            else:
                ends = sorted(((lo - x) / (y - x), (hi - x) / (y - x)))
                lower.append(ends[0])
                upper.append(ends[1])
        if inside and (not lower or max(lower) < min(upper) and max(lower) < 1 and min(upper) > 0):
            return False
    return True


@settings(max_examples=500, deadline=None)
@given(case=_boxes_and_segment(_GRID))
def test_point_segment_test_matches_a_rational_oracle(case):
    fs, qa, qb = case
    assert collision_free_segment(qa, qb, fs) == _slab_oracle(qa.tolist(), qb.tolist(), fs)


@settings(max_examples=300, deadline=None)
@given(case=_boxes_and_segment(_FLOAT))
def test_a_segment_with_a_sampled_point_inside_a_box_is_not_free(case):
    # the points a + k/n (b - a) computed in floats only pick the candidates;
    # rounding can put a point near a face on its wrong side, so each
    # candidate is then tested in rational arithmetic
    fs, qa, qb = case
    n = 1000
    ts = np.linspace(0.0, 1.0, n + 1)[:, None]
    pts = (1.0 - ts) * qa + ts * qb
    lo, hi = fs.corners
    candidates = ((pts > lo) & (pts < hi)).all(axis=2).any(axis=0)
    a, b = [Fraction(x) for x in qa.tolist()], [Fraction(x) for x in qb.tolist()]
    for k in np.flatnonzero(candidates).tolist():
        p = [x + Fraction(k, n) * (y - x) for x, y in zip(a, b)]
        if any(all(l < x < h for x, l, h in zip(p, map(Fraction, ob.min_corner), map(Fraction, ob.max_corner)))
               for ob in fs.obstacles):
            assert not collision_free_segment(qa, qb, fs)
            return


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_boxes_and_segment(_GRID), _boxes_and_segment(_FLOAT)))
def test_swapped_endpoints_give_the_same_verdict(case):
    fs, qa, qb = case
    assert collision_free_segment(qa, qb, fs) == collision_free_segment(qb, qa, fs)


@pytest.mark.parametrize("name", ["point3d_obstacles", "transport_a_mini"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_endpoint_is_not_free(name, bad):
    task = build_benchmark_scene(name)
    qa = task.start()
    qb = qa.copy()
    qb[1] = bad
    assert task.segment_free(qa, qa, task.free_space)
    assert not task.segment_free(qa, qb, task.free_space)
    assert not task.segment_free(qb, qa, task.free_space)


def _contains_oracle(points, fs):
    """point_free as one ObstacleAABB.contains test per obstacle."""
    return not any(np.any(ob.contains(points)) for ob in fs.obstacles)


class TestPointFree:
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_per_obstacle_contains(self, data):
        coord = st.integers(-8, 8).map(lambda v: 0.25 * v)  # a grid, so points often sit on faces
        d = data.draw(st.integers(1, 4))
        boxes = []
        for _ in range(data.draw(st.integers(1, 4))):
            lo = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
            size = np.array(data.draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))) * 0.25
            boxes.append(ObstacleAABB(tuple(lo), tuple(lo + size)))
        fs = FreeSpaceState(obstacles=tuple(boxes))
        pts = np.array(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=12)))
        # a point on a face of some box counts as free
        ob = data.draw(st.sampled_from(boxes))
        face = 0.5 * (np.asarray(ob.min_corner) + np.asarray(ob.max_corner))
        axis = data.draw(st.integers(0, d - 1))
        face[axis] = data.draw(st.sampled_from([ob.min_corner[axis], ob.max_corner[axis]]))
        pts = np.vstack([pts, face])
        assert point_free(pts, fs) == _contains_oracle(pts, fs)
        for p in pts:
            assert point_free(p, fs) == _contains_oracle(p, fs)

    def test_face_points_are_free(self):
        fs = FreeSpaceState(obstacles=(ObstacleAABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),))
        assert point_free(np.array([[1.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]), fs) is True
        assert point_free(np.array([[1.0, 0.5, 0.5], [0.5, 0.5, 0.5]]), fs) is False

    def test_no_obstacles(self):
        assert point_free(RNG.uniform(-1, 1, (5, 3)), FreeSpaceState()) is True

    @pytest.mark.parametrize("name", ["transport_a_mini", "transport_b_mini"])
    def test_kinematic_point_batches(self, name):
        task = build_benchmark_scene(name)
        fs = apply_transition(task.free_space, task.transitions[0], task.start(), task.system)
        # a box around the carried object's centre at the start, so some batches collide
        center = collision_points(task.start(), fs, task.system)[-1]
        probe = ObstacleAABB(tuple(center - 0.1), tuple(center + 0.1), name="probe")
        fs = FreeSpaceState(obstacles=fs.obstacles + (probe,), attachments=fs.attachments)
        verdicts = []
        for _ in range(40):
            qs = task.start() + RNG.uniform(-0.3, 0.3, (int(RNG.integers(1, 8)), task.ambient_dim))
            pts = collision_points(qs, fs, task.system)
            verdicts.append(point_free(pts, fs))
            assert verdicts[-1] == _contains_oracle(pts, fs)
        assert any(verdicts) and not all(verdicts)


class TestPackedCorners:
    def test_equality_hash_and_pickle_unchanged(self):
        fs = build_benchmark_scene("point3d_obstacles").free_space
        same = FreeSpaceState(obstacles=fs.obstacles)
        fs.corners
        assert fs == same and hash(fs) == hash(same)
        assert repr(fs) == repr(same)
        clone = pickle.loads(pickle.dumps(fs))
        assert clone == same and hash(clone) == hash(same)
        for a, b in zip(clone.corners, same.corners):
            assert np.array_equal(a, b)

    def test_transitions_repack_their_obstacles(self):
        task = build_benchmark_scene("transport_a_mini")
        fs = task.free_space
        states = [fs]
        for rule, q in zip(task.transitions, (task.start(), np.array([0.2, 0.5, -0.8, 0.1]))):
            fs.corners  # packed before the transition; the new state must pack its own
            fs = apply_transition(fs, rule, q, task.system)
            states.append(fs)
        assert [len(s.obstacles) for s in states] == [2, 1, 2]
        for s in states:
            lo, hi = s.corners
            assert lo.shape == hi.shape == (len(s.obstacles), 1, 3)
            assert np.array_equal(lo[:, 0], [ob.min_corner for ob in s.obstacles])
            assert np.array_equal(hi[:, 0], [ob.max_corner for ob in s.obstacles])


class TestKinematicSegmentCheck:
    @staticmethod
    def _reference(qa, qb, fs, system, step):
        """Per-point loop: scalar FK of each interpolation point, attachments from tool_point."""
        n = max(1, int(np.ceil(np.linalg.norm(qb - qa) / step)))
        for t in np.linspace(0.0, 1.0, n + 1):
            q = qa + t * (qb - qa)
            pts = []
            for c, chain in enumerate(system.chains):
                frames = chain.fk_frames(system.chain_config(q, c))[0]
                pts += [frames, 0.5 * (frames[:-1] + frames[1:])]
            for rec in fs.attachments:
                pts.append(kin.tool_point(system, rec.body, q) + np.asarray(rec.offset))
            pts = np.vstack(pts)
            if any(np.any(ob.contains(pts)) for ob in fs.obstacles):
                return False
        return True

    @pytest.mark.parametrize("name", ["transport_a_mini", "transport_b_mini"])
    @pytest.mark.parametrize("attached", [False, True])
    def test_matches_per_point_reference(self, name, attached):
        task = build_benchmark_scene(name)
        fs = task.free_space
        if attached:
            fs = apply_transition(fs, task.transitions[0], task.start(), task.system)
            # a box around the carried object's centre at the start, clear of every body point
            rec = fs.attachments[0]
            center = kin.tool_point(task.system, rec.body, task.start()) + np.asarray(rec.offset)
            box = ObstacleAABB(tuple(center - 0.03), tuple(center + 0.03), name="probe")
            fs = FreeSpaceState(obstacles=fs.obstacles + (box,), attachments=fs.attachments)
            q0 = task.start()
            assert not collision_free_segment(q0, q0, fs, system=task.system)
            assert collision_free_segment(q0, q0, FreeSpaceState(obstacles=fs.obstacles), system=task.system)
        lim = task.bounds_array()
        verdicts = []
        for _ in range(60):
            qa = task.start() + RNG.uniform(-0.6, 0.6, task.ambient_dim)
            qb = np.clip(qa + RNG.uniform(-0.8, 0.8, task.ambient_dim), lim[:, 0], lim[:, 1])
            got = collision_free_segment(qa, qb, fs, task.collision_step, system=task.system)
            assert got == self._reference(qa, qb, fs, task.system, task.collision_step)
            verdicts.append(got)
        assert any(verdicts) and not all(verdicts)


class TestApplyTransition:
    def _setup(self):
        task = build_benchmark_scene("transport_a_mini")
        return task, task.free_space

    def test_none_effect_is_identity(self):
        task, fs = self._setup()
        out = apply_transition(fs, TransitionRule(0, {"type": "none"}), task.start(), task.system)
        assert out == fs

    def test_attach_moves_object_to_attachments(self):
        task, fs = self._setup()
        rule = task.transitions[0]
        out = apply_transition(fs, rule, task.start(), task.system)
        assert "obj1" not in [o.name for o in out.obstacles]
        assert [a.object_id for a in out.attachments] == ["obj1"]
        assert len(out.obstacles) + len(out.attachments) == len(fs.obstacles) + len(fs.attachments)

    def test_detach_places_object_at_fk_pose(self):
        task, fs = self._setup()
        attached = apply_transition(fs, task.transitions[0], task.start(), task.system)
        rec = attached.attachments[0]
        q_end = np.array([0.2, 0.5, -0.8, 0.1])
        out = apply_transition(attached, task.transitions[1], q_end, task.system)
        assert not out.attachments
        box = [o for o in out.obstacles if o.name == "obj1"][0]
        # oracle: world pose implied by FK at q_end plus the stored offset
        expected = kin.tool_point(task.system, rec.body, q_end) + np.asarray(rec.offset)
        assert box.center() == pytest.approx(expected, abs=1e-12)
        assert len(out.obstacles) + len(out.attachments) == len(fs.obstacles) + len(fs.attachments)

    def test_attach_unknown_object_raises(self):
        task, fs = self._setup()
        with pytest.raises(ValueError, match="'nope', which is neither an obstacle nor attached at phase 0"):
            apply_transition(fs, TransitionRule(0, {"type": "attach", "object": "nope", "body": 0}),
                             task.start(), task.system)

    def test_input_state_unchanged(self):
        task, fs = self._setup()
        n_obs = len(fs.obstacles)
        apply_transition(fs, task.transitions[0], task.start(), task.system)
        assert len(fs.obstacles) == n_obs


class TestBenchmarkScenes:
    def test_point3d_free_structure(self):
        task = build_benchmark_scene("point3d_free")
        assert len(task.manifolds) == 4
        goal = np.array([-3.5, -3.5, -4.45])
        assert evaluate(task.manifolds[3], goal) == pytest.approx(np.zeros(3))
        # start lies exactly on the first constraint: 0.1*3.5^2*2 + 2 = 4.45
        assert np.linalg.norm(evaluate(task.manifolds[0], task.start())) == pytest.approx(0.0, abs=1e-12)
        assert task.bounds_array() == pytest.approx(np.tile([-6.0, 6.0], (3, 1)))

    def test_point3d_obstacles_adds_four_boxes(self):
        task = build_benchmark_scene("point3d_obstacles")
        assert len(task.free_space.obstacles) == 4
        assert task.config_free(task.start(), task.free_space)

    def test_transport_a_structure(self):
        task = build_benchmark_scene("transport_a_mini")
        assert len(task.manifolds) == 3
        assert np.linalg.norm(evaluate(task.manifolds[0], task.start())) <= 1e-9
        assert task.config_free(task.start(), task.free_space)

    def test_transport_b_structure(self):
        task = build_benchmark_scene("transport_b_mini")
        assert len(task.manifolds) == 5
        assert task.ambient_dim == 8
        assert np.linalg.norm(evaluate(task.manifolds[0], task.start())) <= 1e-9
        assert task.config_free(task.start(), task.free_space)

    @pytest.mark.parametrize("name", ["transport_a_mini", "transport_b_mini"])
    def test_pick_target_and_obj1_sit_at_the_start_tool_point(self, name):
        # stored numbers the geometry defines: the pick target is the chain-0 tool
        # point at the start, and obj1 sits 2 cm plus its half-extent below it
        task = build_benchmark_scene(name)
        tool = kin.tool_point(task.system, 0, task.start())
        pick = json.loads(export_scene_json(name))["manifolds"][0]
        assert pick["name"] == "pick"
        assert np.max(np.abs(np.asarray(pick["params"]["target"]) - tool)) <= 1e-12
        obj = next(ob for ob in task.free_space.obstacles if ob.name == "obj1")
        below = tool - np.array([0.0, 0.0, 0.02 + obj.half_extents()[2]])
        assert np.max(np.abs(obj.center() - below)) <= 1e-12

    def test_every_profile_has_planner_defaults(self):
        from seqmp.bench import PROFILE_DEFAULTS
        from seqmp.scene import PROFILES

        assert set(PROFILE_DEFAULTS) == set(PROFILES)

    def test_unknown_scene_lists_available(self):
        with pytest.raises(ValueError) as err:
            build_benchmark_scene("nope")
        for name in available_scenes():
            assert name in str(err.value)

    @pytest.mark.parametrize("name", available_scenes())
    def test_pickled_task_plans_the_same_path(self, name):
        from seqmp import bench

        task = build_benchmark_scene(name)
        if task.system is not None:  # warm a chain's FK cache before the copy
            evaluate(task.manifolds[0], task.start())
        clone = pickle.loads(pickle.dumps(task))
        if task.system is not None:
            chains = clone.system.chains
            assert all(len(c._fk_cache) == 0 for c in chains)
            # the constraints act on the system's own chain objects, as in the task pickled
            used = [getattr(m, key) for m in clone.manifolds for key in ("c", "c1", "c2") if hasattr(m, key)]
            assert used and all(any(c is chain for chain in chains) for c in used)
            assert clone.manifolds[0].c is chains[0]
        params = bench.params_with_overrides(task, {"m": 300} if task.profile == "robot" else None, seed=0)
        paths = [bench.run(t, "psm", params)[1] for t in (task, clone)]
        assert paths[0] is not None
        assert paths[1].configs.tobytes() == paths[0].configs.tobytes()


class TestSceneJson:
    @pytest.mark.parametrize("name", ["point3d_obstacles", "plane_cylinder_point",
                                      "transport_a_mini", "transport_b_mini"])
    def test_round_trip_preserves_residuals(self, name):
        task = build_benchmark_scene(name)
        clone = task_from_dict(json.loads(export_scene_json(name)))
        assert clone.ambient_dim == task.ambient_dim
        assert len(clone.manifolds) == len(task.manifolds)
        assert [m.name for m in clone.manifolds] == [m.name for m in task.manifolds]
        assert clone.q_start == pytest.approx(task.q_start)
        for _ in range(10):
            q = RNG.uniform(-1.5, 1.5, task.ambient_dim)
            for m_a, m_b in zip(task.manifolds, clone.manifolds):
                assert evaluate(m_b, q) == pytest.approx(evaluate(m_a, q), abs=1e-12)
        assert len(clone.free_space.obstacles) == len(task.free_space.obstacles)
        assert len(clone.transitions) == len(task.transitions)

    @pytest.mark.parametrize("key", ["manifolds", "start", "bounds"])
    def test_missing_required_key_is_named(self, key):
        d = json.loads(export_scene_json("point3d_free"))
        del d[key]
        with pytest.raises(ValueError, match=key):
            task_from_dict(d)

    @pytest.mark.parametrize("kind", ["pick", "handover", "orientation"])
    def test_kinematic_manifold_without_system(self, kind):
        d = json.loads(export_scene_json("transport_b_mini"))
        del d["system"]
        d["manifolds"] = [m for m in d["manifolds"] if m["type"] == kind]
        with pytest.raises(ValueError, match="system"):
            task_from_dict(d)

    def test_chain_index_out_of_range(self):
        d = json.loads(export_scene_json("transport_a_mini"))
        d["manifolds"][0]["params"]["chain"] = 3
        with pytest.raises(ValueError, match="chain"):
            task_from_dict(d)

    def test_exported_and_loaded_dicts_are_copies(self):
        # editing an exported dict, the dict a task was loaded from, or a loaded
        # task's effect must change neither that task nor the built-in scene
        before = export_scene_json("transport_a_mini")
        d = json.loads(before)
        task = task_from_dict(d)
        q = task.start()
        residual = evaluate(task.manifolds[0], q)
        effects = [dict(rule.effect) for rule in task.transitions]
        d["manifolds"][0]["params"]["target"] = [9.0, 9.0, 9.0]
        d["transitions"][0]["effect"]["object"] = "zzz"
        d["transitions"][1]["effect"]["type"] = "none"
        assert np.array_equal(evaluate(task.manifolds[0], q), residual)
        assert [rule.effect for rule in task.transitions] == effects
        build_benchmark_scene("transport_a_mini").transitions[0].effect["object"] = "zzz"
        assert export_scene_json("transport_a_mini") == before
        assert build_benchmark_scene("transport_a_mini").transitions[0].effect["object"] == "obj1"

    def test_transitions_listed_out_of_trigger_order_load(self):
        d = json.loads(export_scene_json("transport_a_mini"))
        d["transitions"].reverse()  # the detach at phase 1 comes first
        task = task_from_dict(d)
        assert [task.rule_for_phase(t).effect["type"] for t in (0, 1)] == ["attach", "detach"]

    def test_a_reattach_from_another_body_loads(self):
        # transport_b_mini hands obj1 from arm 1 (body 0) to the tray (body 2)
        task = task_from_dict(json.loads(export_scene_json("transport_b_mini")))
        fs = task.advance_free_space(task.free_space, 0, task.start())
        fs = task.advance_free_space(fs, 1, task.start())
        assert [(a.object_id, a.body) for a in fs.attachments] == [("obj1", 2)]

    def test_schema_keys(self):
        d = json.loads(export_scene_json("point3d_obstacles"))
        for key in ("ambient_dim", "bounds", "manifolds", "start", "obstacles", "transitions"):
            assert key in d
        assert {"type", "params"} <= set(d["manifolds"][0])
        assert {"min", "max"} <= set(d["obstacles"][0])


def test_attachment_ids_unique():
    from seqmp.scene import AttachmentRecord

    recs = tuple(AttachmentRecord("obj", i, (0, 0, 0), (0.1, 0.1, 0.1)) for i in range(2))
    with pytest.raises(ValueError):
        FreeSpaceState(attachments=recs)


def _free_spaces(task):
    """The free space of every phase of ``task`` and the one after its last
    transition, each rule applied at the start configuration."""
    out = [task.free_space]
    for i in range(task.n_phases):
        out.append(task.advance_free_space(out[-1], i, task.start()))
    return out


@st.composite
def _scene_free_space_config(draw):
    """(task, free space, configuration within the bounds) over every built-in
    robot scene and phase; only robot scenes have safety certificates."""
    task = build_benchmark_scene(draw(st.sampled_from(["transport_a_mini", "transport_b_mini"])))
    fs = draw(st.sampled_from(_free_spaces(task)))
    q = np.array([draw(st.floats(lo, hi)) for lo, hi in task.bounds])
    return task, fs, q


def _toward(data, task, q, length):
    """q moved ``length`` along a drawn direction, then clipped into the bounds
    (which only brings it closer to q)."""
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(q), max_size=len(q))))
    assume(np.linalg.norm(u) > 1e-3)
    b = task.bounds_array()
    return np.clip(q + length * u / np.linalg.norm(u), b[:, 0], b[:, 1])


@settings(max_examples=300, deadline=None)
@given(case=_scene_free_space_config(), data=st.data())
def test_every_configuration_within_the_clearance_is_free(case, data):
    task, fs, q = case
    r = task.clearance(q, fs)
    assert r >= 0.0
    if r == 0.0:
        return
    if not fs.obstacles:
        assert r == np.inf
        return
    assert task.config_free(q, fs)
    t = data.draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    assert task.config_free(_toward(data, task, q, t * r), fs)


@settings(max_examples=300, deadline=None)
@given(case=_scene_free_space_config(), data=st.data())
def test_a_certified_segment_passes_the_sampled_test(case, data):
    task, fs, qa = case
    r_a = task.clearance(qa, fs)
    length = data.draw(st.floats(0.0, 1.0)) * (2.0 * r_a if 0.0 < r_a < np.inf else 1.0)
    qb = _toward(data, task, qa, length)
    if np.linalg.norm(qb - qa) < r_a + task.clearance(qb, fs):
        assert task.segment_free(qa, qb, fs)


@pytest.mark.parametrize("name", ["transport_a_mini", "transport_b_mini"])
def test_robot_clearance_counts_the_carried_object(name):
    # obj1, attached at the start, gets a small box 1 cm beside its centre: the
    # radius is at most that gap over the bound of the tool it moves with
    task = build_benchmark_scene(name)
    q, carried = task.start(), _free_spaces(task)[1]
    rec = carried.attachments[0]
    centre = kin.tool_point(task.system, rec.body, q) + np.asarray(rec.offset)
    near = ObstacleAABB(tuple(centre + [0.01, -0.001, -0.001]), tuple(centre + [0.012, 0.001, 0.001]))
    fs = FreeSpaceState(obstacles=carried.obstacles + (near,), attachments=carried.attachments)
    assert task.config_free(q, fs)
    assert 0.0 < task.clearance(q, fs) <= 0.01 / task.system.speed_bounds[task.system.tool_rows[rec.body]]

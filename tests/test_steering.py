"""Steering directions and the projected steering dispatcher."""
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmp import bench, steering
from seqmp.manifolds import (SV_TOL, AffinePlane, Cylinder, Intersection, Paraboloid, PointGoal, evaluate, project,
                             tangent_nullspace)
from seqmp.planner import PlannerParams
from seqmp.steering import psm_steer, steer_constraint, steer_point
from sphere import Sphere

RNG = np.random.default_rng(99)

PLANE_Z = AffinePlane([[0.0, 0.0, 1.0]], [0.0])
PLANE_X1 = AffinePlane([[1.0, 0.0, 0.0]], [1.0])


class TestSteerParams:
    def test_ranges(self):
        # the steering parameters psm_steer reads from PlannerParams
        with pytest.raises(ValueError):
            PlannerParams(alpha=0.0)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            PlannerParams(beta=1.5)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            PlannerParams(beta=-0.1)
        with pytest.raises(ValueError):
            PlannerParams(r=-1.0)
        with pytest.raises(ValueError):
            PlannerParams(eps=0.0)


class TestSteerPoint:
    def test_normal_component_removed_on_cylinder(self):
        m = Cylinder(0.25, 1.0)  # radius-2 circle cross-section
        d = steer_point((2.0, 0.0, 0.0), (3.0, 1.0, 1.0), m)
        assert d == pytest.approx([0.0, 1.0, 1.0], abs=1e-10)

    def test_zero_for_coincident_points(self):
        q = np.array([2.0, 0.0, 0.0])
        assert steer_point(q, q, Cylinder(0.25, 1.0)) == pytest.approx(np.zeros(3))

    def test_tangency_and_contraction(self):
        m = Paraboloid(0.1, 2.0)
        for _ in range(50):
            q_near = project(RNG.uniform(-4, 4, 3), m, eps=1e-10)
            q_rand = RNG.uniform(-6, 6, 3)
            d = steer_point(q_near, q_rand, m)
            assert abs(m.jacobian(q_near) @ d) <= 1e-8
            assert np.linalg.norm(d) <= np.linalg.norm(q_rand - q_near) + 1e-12

    def test_idempotent_projection(self):
        m = Paraboloid(0.1, 2.0)
        q_near = project(np.array([1.0, -2.0, 0.0]), m, eps=1e-10)
        x = RNG.uniform(-3, 3, 3)
        once = steer_point(q_near, q_near + x, m)
        twice = steer_point(q_near, q_near + once, m)
        assert twice == pytest.approx(once, abs=1e-10)


class TestSteerConstraint:
    def test_axis_aligned_planes(self):
        d = steer_constraint((0.0, 0.0, 0.0), PLANE_Z, PLANE_X1)
        d = d / np.linalg.norm(d)
        assert d == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)

    def test_zero_when_already_on_next(self):
        d = steer_constraint((1.0, 0.0, 0.0), PLANE_Z, PLANE_X1)
        assert np.linalg.norm(d) <= 1e-12

    def test_cylinder_to_paraboloid_descent(self):
        m_i = Cylinder(0.25, 1.0)
        m_next = Paraboloid(0.1, 2.0)
        for _ in range(25):
            q0 = RNG.uniform(-4, 4, 3)
            q_near = project(q0, m_i, eps=1e-10)
            if q_near is None or np.linalg.norm(evaluate(m_next, q_near)) < 1e-6:
                continue
            d = steer_constraint(q_near, m_i, m_next)
            assert abs(m_i.jacobian(q_near) @ d) <= 1e-8
            h = evaluate(m_next, q_near)
            assert float(h @ (m_next.jacobian(q_near) @ d)) <= 1e-12
            # first-order decrease, and near-optimal among tangent directions
            t = 1e-4
            dn = d / np.linalg.norm(d)
            drop = np.linalg.norm(h) - np.linalg.norm(evaluate(m_next, q_near + t * dn))
            assert drop > 0.0
            B = tangent_nullspace(m_i, q_near)
            best = -np.inf
            for phi in np.linspace(0, 2 * np.pi, 721):
                v = B @ np.array([np.cos(phi), np.sin(phi)])
                best = max(best, np.linalg.norm(h) - np.linalg.norm(evaluate(m_next, q_near + t * v)))
            assert drop >= best - 1e-9


@st.composite
def one_row_manifolds(draw):
    """A paraboloid, cylinder, plane or sphere in R^3 with drawn parameters."""
    kind = draw(st.sampled_from(["paraboloid", "cylinder", "plane", "sphere"]))
    num = st.floats(-2.0, 2.0)
    if kind == "paraboloid":
        return Paraboloid(draw(num), draw(num))
    if kind == "cylinder":
        return Cylinder(draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 3.0)))
    if kind == "plane":
        return AffinePlane([draw(st.lists(num, min_size=3, max_size=3))], [draw(num)])
    return Sphere(draw(st.floats(0.5, 2.0)), center=draw(st.lists(num, min_size=3, max_size=3)))


def _length(v):
    """|v| without overflow or underflow in the squares."""
    return math.hypot(*v)


def _basis_solve(q, m_i, m_next):
    """The constraint steer through the tangent basis and least squares: the oracle."""
    B = tangent_nullspace(m_i, q)
    z, *_ = np.linalg.lstsq(m_next.jacobian(q) @ B, -evaluate(m_next, q), rcond=SV_TOL)
    return B @ z


class TestOneRowConstraintSteer:
    @settings(max_examples=300, deadline=None)
    @given(m_i=one_row_manifolds(), m_next=one_row_manifolds(),
           q=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
    def test_closed_form_is_the_basis_solve(self, m_i, m_next, q):
        q = np.array(q)
        g, a = m_i.jacobian(q)[0], m_next.jacobian(q)[0]
        h = evaluate(m_next, q)[0]
        got = steer_constraint(q, m_i, m_next)
        assert got.shape == (3,)
        # the part of a orthogonal to g; the steer is ill-conditioned by |a| / |Pa|
        pa = a - g * (g @ a) / (g @ g) if g @ g else a
        if _length(pa) <= 1e-4 * _length(a):
            return
        assert np.isfinite(got).all()
        if min(g @ g, pa @ pa) < sys.float_info.min:
            # below the normal floats g.g = 0 takes P = I and Pa.Pa = 0 the zero vector,
            # where the SVD, which scales, still finds the tangent space and a direction
            return
        want = _basis_solve(q, m_i, m_next)
        assert _length(got - want) <= 1e-9 * _length(want)
        assert abs(g @ got) <= 1e-10 * _length(g) * _length(got)
        assert abs(a @ got + h) <= 1e-10 * max(abs(h), _length(a) * _length(got))

    def test_zero_gradient_of_m_i_steers_along_the_next_gradient(self):
        # on the cylinder's axis its gradient vanishes: the tangent space is all of R^3
        q = np.array([0.0, 0.0, 0.5])
        m_next = AffinePlane([[1.0, 2.0, 2.0]], [3.0])
        got = steer_constraint(q, Cylinder(0.25, 1.0), m_next)
        assert got == pytest.approx(_basis_solve(q, Cylinder(0.25, 1.0), m_next), abs=1e-15)
        assert got == pytest.approx([2.0 / 9.0, 4.0 / 9.0, 4.0 / 9.0], abs=1e-15)

    def test_parallel_gradients_give_the_zero_vector(self):
        got = steer_constraint((0.3, -0.2, 0.0), PLANE_Z, AffinePlane([[0.0, 0.0, 2.0]], [1.0]))
        assert got.tolist() == [0.0, 0.0, 0.0]

    def test_multi_row_next_and_a_passed_basis_keep_the_basis_solve(self, monkeypatch):
        m_i, q = Paraboloid(0.1, 2.0), np.array([1.0, 0.5, 2.125])
        goal, basis = PointGoal((-3.5, -3.5, -4.45)), tangent_nullspace(m_i, q)
        assert steer_constraint(q, m_i, goal).tobytes() == _basis_solve(q, m_i, goal).tobytes()
        calls, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
        steer_constraint(q, m_i, Cylinder(0.25, 1.0), basis)
        assert calls == [1]


def record_calls(monkeypatch, name):
    """Replace ``steering.<name>`` with a wrapper that appends each call's
    positional arguments to the returned list, then calls the original."""
    calls, original = [], getattr(steering, name)

    def recorder(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(steering, name, recorder)
    return calls


class TestPsmSteer:
    def test_deterministic_plane_case(self):
        params = PlannerParams(alpha=0.5, beta=1.0, r=1.5, eps=1e-9)
        rng = np.random.default_rng(0)
        q = psm_steer(params, (0.0, 0.0, 0.0), (9.0, 9.0, 9.0), PLANE_Z, PLANE_X1, rng)
        assert q == pytest.approx([0.5, 0.0, 0.0], abs=1e-9)

    def test_postcondition_residuals(self, monkeypatch):
        m_i = Paraboloid(0.1, 2.0)
        m_next = Cylinder(0.25, 1.0)
        params = PlannerParams(alpha=1.0, beta=0.1, r=1.5, eps=0.01)
        rng = np.random.default_rng(3)
        q_near = project(np.array([3.5, 3.5, 4.45]), m_i, eps=1e-9)
        projections = record_calls(monkeypatch, "project")
        for _ in range(200):
            projections.clear()
            q = psm_steer(params, q_near, rng.uniform(-6, 6, 3), m_i, m_next, rng)
            if q is None:
                continue
            (_, target, *_), = projections
            if isinstance(target, Intersection):
                assert np.linalg.norm(np.concatenate([evaluate(m_i, q), evaluate(m_next, q)])) <= 0.01
            else:
                assert np.linalg.norm(evaluate(m_i, q)) <= 0.01
            q_near = q

    def test_step_length_is_alpha_exactly(self, monkeypatch):
        m_i = Paraboloid(0.1, 2.0)
        m_next = Cylinder(0.25, 1.0)
        params = PlannerParams(alpha=0.7, beta=0.2, r=1.5, eps=0.01)
        rng = np.random.default_rng(5)
        q_near = project(np.array([1.0, 1.0, 0.0]), m_i, eps=1e-10)
        projections = record_calls(monkeypatch, "project")
        for _ in range(50):
            psm_steer(params, q_near, rng.uniform(-6, 6, 3), m_i, m_next, rng)
        assert projections
        for q_step, *_ in projections:  # project receives the configuration one step from q_near
            assert np.linalg.norm(q_step - q_near) == pytest.approx(0.7, abs=1e-12)

    def test_beta_zero_never_uses_constraint_steer(self, monkeypatch):
        params = PlannerParams(alpha=1.0, beta=0.0, r=1.5, eps=0.01)
        rng = np.random.default_rng(11)
        m_i = Paraboloid(0.1, 2.0)
        m_next = Cylinder(0.25, 1.0)
        q_near = project(np.array([1.0, 1.0, 0.0]), m_i, eps=1e-10)
        constraint_steers = record_calls(monkeypatch, "steer_constraint")
        projections = record_calls(monkeypatch, "project")
        for _ in range(200):
            psm_steer(params, q_near, rng.uniform(-6, 6, 3), m_i, m_next, rng)
        assert projections and not constraint_steers

    def test_zero_direction_discarded(self):
        params = PlannerParams(alpha=1.0, beta=0.0, r=1.5, eps=1e-9)
        rng = np.random.default_rng(0)
        q = np.array([0.0, 0.0, 0.0])
        assert psm_steer(params, q, q, PLANE_Z, PLANE_X1, rng) is None

    def test_intersection_projection_frequency(self, monkeypatch):
        # after the step, the point sits at distance c from the next plane; the
        # intersection projection fires iff the Uniform(0, r) draw exceeds c
        alpha, r = 1.0, 1.5
        x0 = 1.6  # c = |alpha - x0| = 0.6
        c = abs(alpha - x0)
        m_next = AffinePlane([[1.0, 0.0, 0.0]], [x0])
        params = PlannerParams(alpha=alpha, beta=0.0, r=r, eps=1e-9)
        rng = np.random.default_rng(2024)
        projections = record_calls(monkeypatch, "project")
        n = 10_000
        for _ in range(n):
            psm_steer(params, (0.0, 0.0, 0.0), (5.0, 0.0, 0.0), PLANE_Z, m_next, rng)
        assert len(projections) == n
        hits = sum(isinstance(target, Intersection) for _, target, *_ in projections)
        p = (r - c) / r
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sigma

    def test_rng_draws_always_consumed(self):
        # identical rng streams stay aligned whether or not branches fire
        params = PlannerParams(alpha=1.0, beta=0.5, r=1.5, eps=1e-9)
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        for _ in range(100):
            psm_steer(params, (0.0, 0.0, 0.0), tuple(RNG.uniform(-3, 3, 3)), PLANE_Z, PLANE_X1, rng_a)
        for _ in range(100):
            rng_b.random()
            rng_b.uniform(0.0, params.r)
        assert rng_a.random() == rng_b.random()


def _memo_free_psm_steer(params, q_near, q_rand, m_i, m_next, rng):
    """psm_steer without a memo, as one expression per step; returns (q, constraint steer?, onto m_i ∩ m_next?)."""
    use_constraint = rng.random() < params.beta
    threshold = rng.uniform(0.0, params.r)
    d = steer_constraint(q_near, m_i, m_next) if use_constraint else steer_point(q_near, q_rand, m_i)
    d_norm = np.linalg.norm(d)
    if d_norm < steering.ZERO_DIRECTION_TOL:
        return None, use_constraint, None
    q_new = q_near + params.alpha * d / d_norm
    onto_next = bool(np.linalg.norm(evaluate(m_next, q_new)) < threshold)
    target = Intersection(m_i, m_next) if onto_next else m_i
    return project(q_new, target, params.eps), use_constraint, onto_next


def _hand_out_once(want, keys):
    """The memo-free results ``want`` as a memo hands them out, each (step key, target) once:
    a result is None when its step key (``keys``, None for a step no memo keeps) and its
    target came before."""
    tried, out = set(), []
    for (q, _, onto_next), key in zip(want, keys):
        out.append(None if key is not None and (key, onto_next) in tried else q)
        tried.add((key, onto_next))
    return out


def _same_bytes(q, q_want):
    return (q is None) == (q_want is None) and (q is None or q.tobytes() == q_want.tobytes())


class TestSteerMemo:
    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_repeated_constraint_steer_is_memoised(self, monkeypatch, beta):
        # r spans the step's m_next residual, so the draw picks both targets
        m_i, m_next = Paraboloid(0.1, 2.0), Cylinder(0.25, 1.0)
        params = PlannerParams(alpha=1.0, beta=beta, r=40.0, eps=0.01)
        q_near = project(np.array([3.5, 3.5, 4.45]), m_i, eps=1e-9)
        targets = np.random.default_rng(4).uniform(-6, 6, (60, 3))
        ref_rng = np.random.default_rng(8)
        want = [_memo_free_psm_steer(params, q_near, q_rand, m_i, m_next, ref_rng) for q_rand in targets]
        constraint_targets = {onto for _, constraint, onto in want if constraint}
        assert constraint_targets == {False, True}
        point_steers = sum(not constraint for _, constraint, _ in want)

        handed_out = _hand_out_once(want, ["constraint" if constraint else None for _, constraint, _ in want])
        assert sum(q is None for q in handed_out) > sum(q is None for q, _, _ in want)
        constraint_steers = record_calls(monkeypatch, "steer_constraint")
        projections = record_calls(monkeypatch, "project")
        rng, memo = np.random.default_rng(8), {}
        for q_rand, q_want in zip(targets, handed_out):
            assert _same_bytes(psm_steer(params, q_near, q_rand, m_i, m_next, rng, memo), q_want)
        # one constraint step and one projection per target; every point steer projects
        assert len(constraint_steers) == 1
        assert len(projections) == point_steers + 2
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_memo_hit_does_not_project(self, monkeypatch):
        params = PlannerParams(alpha=0.5, beta=1.0, r=1.5, eps=1e-9)
        memo = {}
        first = psm_steer(params, (0.0, 0.0, 0.0), (9.0, 9.0, 9.0), PLANE_Z, PLANE_X1,
                          np.random.default_rng(0), memo)
        assert first is not None

        def no_projection(*args):
            raise AssertionError("a memoised constraint steer projected again")

        monkeypatch.setattr(steering, "project", no_projection)
        monkeypatch.setattr(steering, "steer_constraint", no_projection)
        again = psm_steer(params, (0.0, 0.0, 0.0), (-9.0, 0.0, 0.0), PLANE_Z, PLANE_X1,
                          np.random.default_rng(0), memo)
        assert again is None


# the 4-DOF arm of transport_a_mini: its pick manifold (3 rows) is a curve
TRANSPORT_A = bench.resolve_task("transport_a_mini")
PICK, CARRY = TRANSPORT_A.manifolds[:2]
ARM_START = TRANSPORT_A.start()
ARM_BOUNDS = TRANSPORT_A.bounds_array()


class TestCurveSteer:
    """On a curve every steer goes along +b or -b, b the unit tangent."""

    @settings(max_examples=40, deadline=None)
    @given(q_rands=st.lists(st.tuples(*(st.floats(lo, hi) for lo, hi in ARM_BOUNDS)), min_size=1, max_size=30),
           beta=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_memo_free_steer_with_at_most_four_projections(self, q_rands, beta, seed):
        params = PlannerParams(alpha=1.0, beta=beta, r=0.5, eps=1e-5)
        ref_rng = np.random.default_rng(seed)
        want = [_memo_free_psm_steer(params, ARM_START, np.array(q_rand), PICK, CARRY, ref_rng)
                for q_rand in q_rands]
        # a step's key is its side of the curve, the sign of b.d
        (b,) = tangent_nullspace(PICK, ARM_START).T
        d_constraint = steer_constraint(ARM_START, PICK, CARRY)
        sides = [float(np.sign(b @ (d_constraint if constraint else np.array(q_rand) - ARM_START)))
                 for q_rand, (_, constraint, _) in zip(q_rands, want)]
        with pytest.MonkeyPatch.context() as mp:
            projections = record_calls(mp, "project")
            constraint_steers = record_calls(mp, "steer_constraint")
            rng, memo = np.random.default_rng(seed), {}
            for q_rand, q_want in zip(q_rands, _hand_out_once(want, sides)):
                q = psm_steer(params, ARM_START, np.array(q_rand), PICK, CARRY, rng, memo)
                assert (q is None) == (q_want is None)
                if q is not None:
                    assert np.abs(q - q_want).max() <= 1e-12
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # two signs x two targets, and one constraint steer per node
        assert len(projections) <= 4
        assert len({(q.tobytes(), type(m)) for q, m, *_ in projections}) == len(projections)
        assert len(constraint_steers) <= 1

    def test_point_and_constraint_steers_share_a_step(self, monkeypatch):
        # the same seed gives both steers the same threshold draw, so the same target:
        # the point steer on the constraint steer's side repeats its (step, target)
        params = PlannerParams(alpha=1.0, beta=1.0, r=0.5, eps=1e-5)
        memo = {}
        q_c = psm_steer(params, ARM_START, ARM_START, PICK, CARRY, np.random.default_rng(0), memo)
        assert q_c is not None
        (b,) = tangent_nullspace(PICK, ARM_START).T
        toward = ARM_START + 3.0 * np.sign(b @ steer_constraint(ARM_START, PICK, CARRY)) * b
        projections = record_calls(monkeypatch, "project")
        q_p = psm_steer(dataclasses.replace(params, beta=0.0), ARM_START, toward, PICK, CARRY,
                        np.random.default_rng(0), memo)
        assert q_p is None and not projections

    def test_q_rand_orthogonal_to_the_curve_returns_none(self, monkeypatch):
        params = PlannerParams(alpha=1.0, beta=0.0, r=0.5, eps=1e-5)
        (b,) = tangent_nullspace(PICK, ARM_START).T
        projections = record_calls(monkeypatch, "project")
        for v in RNG.normal(0.0, 1.0, (20, 4)):
            normal = v - b * (b @ v)
            assert abs(b @ normal) < steering.ZERO_DIRECTION_TOL
            assert psm_steer(params, ARM_START, ARM_START + normal, PICK, CARRY, RNG, {}) is None
        assert not projections

    def test_zero_constraint_direction_returns_none(self, monkeypatch):
        # the x axis of R^3 (two rows) already meets the plane x = 0 at the origin
        line = AffinePlane([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0])
        plane = AffinePlane([[1.0, 0.0, 0.0]], [0.0])
        params = PlannerParams(alpha=0.5, beta=1.0, r=1.5, eps=1e-9)
        constraint_steers = record_calls(monkeypatch, "steer_constraint")
        projections = record_calls(monkeypatch, "project")
        memo = {}
        for _ in range(5):
            assert psm_steer(params, np.zeros(3), (9.0, 9.0, 9.0), line, plane, RNG, memo) is None
        assert len(constraint_steers) == 1 and not projections


class TestTwoDimensionalTangentSpace:
    def test_keeps_the_memo_free_bytes_with_one_basis_per_node(self, monkeypatch):
        # a sphere cut by a hyperplane in R^4: two rows, a 2-D tangent space
        m_i = Intersection(Sphere(2.0, dim=4), AffinePlane([[0.0, 0.0, 0.0, 1.0]], [0.5]))
        m_next = AffinePlane([[1.0, 1.0, 0.0, 0.0]], [1.0])
        params = PlannerParams(alpha=0.8, beta=0.5, r=3.0, eps=1e-9)
        q_near = project(np.array([1.5, -1.0, 0.5, 0.5]), m_i, eps=1e-12)
        assert tangent_nullspace(m_i, q_near).shape == (4, 2)
        targets = np.random.default_rng(6).uniform(-3, 3, (60, 4))
        ref_rng = np.random.default_rng(9)
        want = [_memo_free_psm_steer(params, q_near, q_rand, m_i, m_next, ref_rng) for q_rand in targets]
        assert {onto for _, constraint, onto in want if constraint} == {False, True}

        handed_out = _hand_out_once(want, ["constraint" if constraint else None for _, constraint, _ in want])
        bases = record_calls(monkeypatch, "tangent_nullspace")
        projections = record_calls(monkeypatch, "project")
        rng, memo = np.random.default_rng(9), {}
        for q_rand, q_want in zip(targets, handed_out):
            assert _same_bytes(psm_steer(params, q_near, q_rand, m_i, m_next, rng, memo), q_want)
        assert len(bases) == 1
        # one projection per target for the constraint step; every point steer projects
        assert len(projections) == sum(not constraint for _, constraint, _ in want) + 2
        assert rng.bit_generator.state == ref_rng.bit_generator.state

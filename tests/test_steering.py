"""Steering directions and the projected steering dispatcher."""
import numpy as np
import pytest

from seqmp.manifolds import AffinePlane, Cylinder, Paraboloid, evaluate, project, tangent_nullspace
from seqmp.planner import PlannerParams
from seqmp.steering import psm_steer, steer_constraint, steer_point

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


class TestPsmSteer:
    def test_deterministic_plane_case(self):
        params = PlannerParams(alpha=0.5, beta=1.0, r=1.5, eps=1e-9)
        rng = np.random.default_rng(0)
        q = psm_steer(params, (0.0, 0.0, 0.0), (9.0, 9.0, 9.0), PLANE_Z, PLANE_X1, rng)
        assert q == pytest.approx([0.5, 0.0, 0.0], abs=1e-9)

    def test_postcondition_residuals(self):
        m_i = Paraboloid(0.1, 2.0)
        m_next = Cylinder(0.25, 1.0)
        params = PlannerParams(alpha=1.0, beta=0.1, r=1.5, eps=0.01)
        rng = np.random.default_rng(3)
        q_near = project(np.array([3.5, 3.5, 4.45]), m_i, eps=1e-9)
        for _ in range(200):
            info = {}
            q = psm_steer(params, q_near, rng.uniform(-6, 6, 3), m_i, m_next, rng, info=info)
            if q is None:
                continue
            if info["projected_intersection"]:
                assert np.linalg.norm(np.concatenate([evaluate(m_i, q), evaluate(m_next, q)])) <= 0.01
            else:
                assert np.linalg.norm(evaluate(m_i, q)) <= 0.01
            q_near = q

    def test_step_length_is_alpha_exactly(self):
        m_i = Paraboloid(0.1, 2.0)
        m_next = Cylinder(0.25, 1.0)
        params = PlannerParams(alpha=0.7, beta=0.2, r=1.5, eps=0.01)
        rng = np.random.default_rng(5)
        q_near = project(np.array([1.0, 1.0, 0.0]), m_i, eps=1e-10)
        for _ in range(50):
            info = {}
            psm_steer(params, q_near, rng.uniform(-6, 6, 3), m_i, m_next, rng, info=info)
            if "q_before_projection" in info:
                step = np.linalg.norm(info["q_before_projection"] - q_near)
                assert step == pytest.approx(0.7, abs=1e-12)

    def test_beta_zero_never_uses_constraint_steer(self):
        params = PlannerParams(alpha=1.0, beta=0.0, r=1.5, eps=0.01)
        rng = np.random.default_rng(11)
        m_i = Paraboloid(0.1, 2.0)
        m_next = Cylinder(0.25, 1.0)
        q_near = project(np.array([1.0, 1.0, 0.0]), m_i, eps=1e-10)
        for _ in range(200):
            info = {}
            psm_steer(params, q_near, rng.uniform(-6, 6, 3), m_i, m_next, rng, info=info)
            assert not info["used_constraint_steer"]

    def test_zero_direction_discarded(self):
        params = PlannerParams(alpha=1.0, beta=0.0, r=1.5, eps=1e-9)
        rng = np.random.default_rng(0)
        q = np.array([0.0, 0.0, 0.0])
        assert psm_steer(params, q, q, PLANE_Z, PLANE_X1, rng) is None

    def test_intersection_projection_frequency(self):
        # after the step, the point sits at distance c from the next plane; the
        # intersection projection fires iff the Uniform(0, r) draw exceeds c
        alpha, r = 1.0, 1.5
        x0 = 1.6  # c = |alpha - x0| = 0.6
        c = abs(alpha - x0)
        m_next = AffinePlane([[1.0, 0.0, 0.0]], [x0])
        params = PlannerParams(alpha=alpha, beta=0.0, r=r, eps=1e-9)
        rng = np.random.default_rng(2024)
        n, hits = 10_000, 0
        for _ in range(n):
            info = {}
            psm_steer(params, (0.0, 0.0, 0.0), (5.0, 0.0, 0.0), PLANE_Z, m_next, rng, info=info)
            hits += bool(info["projected_intersection"])
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

"""Constraint evaluation, projection, tangent bases, and finite differences."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqmp.manifolds import (
    GRAM_TOL,
    SV_TOL,
    AffinePlane,
    Cylinder,
    Intersection,
    Manifold,
    Paraboloid,
    PointGoal,
    _float_step,
    dot,
    evaluate,
    fd_jacobian,
    newton_step,
    norm,
    project,
    tangent_nullspace,
)
from seqmp import kinematics as kin
from seqmp.steering import steer_constraint, steer_point
from seqmp.scene import build_benchmark_scene
from sphere import Sphere

RNG = np.random.default_rng(1234)


def builtin_manifolds():
    return [
        Paraboloid(0.1, 2.0),
        Paraboloid(-0.1, -2.0),
        Cylinder(0.25, 1.0),
        Sphere(1.0),
        PointGoal((-3.5, -3.5, -4.45)),
        AffinePlane([[0.0, 0.0, 1.0]], [0.0]),
    ]


class TestEvaluate:
    def test_unit_sphere_on_manifold(self):
        assert evaluate(Sphere(1.0), np.array([1.0, 0.0, 0.0])) == pytest.approx([0.0])

    def test_paraboloid_at_origin(self):
        m = Paraboloid(0.1, 2.0)
        assert evaluate(m, np.zeros(3)) == pytest.approx([2.0])

    def test_cylinder_on_radius_two_circle(self):
        m = Cylinder(0.25, 1.0)
        assert evaluate(m, np.array([2.0, 0.0, 0.0])) == pytest.approx([0.0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate(Sphere(1.0), np.zeros(4))


class TestProject:
    def test_sphere_radial_single_step(self):
        q = project(np.array([2.0, 0.0, 0.0]), Sphere(1.0), eps=1e-9)
        assert q == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)

    def test_paraboloid_exact_newton_step(self):
        q = project(np.zeros(3), Paraboloid(0.1, 2.0), eps=1e-9)
        assert q == pytest.approx([0.0, 0.0, 2.0], abs=1e-9)

    def test_cylinder_radial_direction_vs_brute_force(self):
        # oracle: 1D brute force over radial scaling of the start point
        m = Cylinder(0.25, 1.0)
        q0 = np.array([1.5, 1.5, 0.0])
        q = project(q0, m, eps=1e-8)
        assert q is not None
        scales = np.linspace(0.0, 3.0, 200001)
        residuals = np.abs([m.h(s * q0)[0] for s in scales])
        s_best = scales[np.argmin(residuals)]
        assert q == pytest.approx(s_best * q0, abs=1e-4)
        assert np.linalg.norm(evaluate(m, q)) <= 1e-8
        # direction preserved: projected point is a positive scaling of q0
        assert np.cross(q, q0)[2] == pytest.approx(0.0, abs=1e-9)

    def test_already_on_manifold_returns_immediately(self):
        q0 = np.array([1.0, 0.0, 0.0])
        q = project(q0, Sphere(1.0), eps=1e-6)
        assert np.array_equal(q, q0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_newton_step_fails_without_a_warning(self):
        # the gradient 2 c q is 5e-161 here, so the quotient h / (g.g) overflows
        assert project(np.array([1e-160, 0.0, 0.0]), Cylinder(0.25, 1.0), eps=1e-9) is None

    def test_zero_jacobian_point_fails(self):
        # the sphere center has a zero gradient; projection cannot progress
        assert project(np.zeros(3), Sphere(1.0), eps=1e-9) is None

    def test_success_implies_residual_below_eps(self):
        for m in builtin_manifolds():
            for _ in range(20):
                q0 = RNG.uniform(-5, 5, size=3)
                q = project(q0, m, eps=1e-6)
                if q is not None:
                    assert np.linalg.norm(evaluate(m, q)) <= 1e-6

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            project(np.zeros(3), Sphere(1.0), eps=0.0)


class TestTangentNullspace:
    def test_cylinder_axis_aligned(self):
        B = tangent_nullspace(Cylinder(0.25, 1.0), np.array([2.0, 0.0, 0.0]))
        assert B.shape == (3, 2)
        # spans {e2, e3}: projection of e1 onto the basis is zero
        assert np.linalg.norm(B.T @ np.array([1.0, 0.0, 0.0])) <= 1e-12

    def test_plane_spans_e1_e2(self):
        B = tangent_nullspace(AffinePlane([[0.0, 0.0, 1.0]], [0.0]), RNG.uniform(-1, 1, 3))
        assert B.shape == (3, 2)
        assert np.linalg.norm(B.T @ np.array([0.0, 0.0, 1.0])) <= 1e-12

    def test_paraboloid_basis_properties(self):
        m = Paraboloid(0.1, 2.0)
        q = np.array([1.0, 1.0, 2.2])
        B = tangent_nullspace(m, q)
        J = m.jacobian(q)
        assert np.max(np.abs(J @ B)) <= 1e-10
        assert B.T @ B == pytest.approx(np.eye(B.shape[1]), abs=1e-12)

    def test_zero_jacobian_gives_identity(self):
        assert np.array_equal(tangent_nullspace(Sphere(1.0), np.zeros(3)), np.eye(3))

    def test_orthonormal_and_annihilated_at_random_points(self):
        for m in builtin_manifolds():
            for _ in range(10):
                q = RNG.uniform(-4, 4, size=3)
                J = np.asarray(m.jacobian(q))
                if np.linalg.norm(J) < 1e-9:
                    continue
                B = tangent_nullspace(m, q)
                if B.shape[1] == 0:
                    continue
                assert B.T @ B == pytest.approx(np.eye(B.shape[1]), abs=1e-10)
                assert np.max(np.abs(J @ B)) <= 1e-8


class TestFdJacobian:
    def test_linear_constraint_exact(self):
        A = RNG.uniform(-2, 2, size=(2, 3))
        m = AffinePlane(A, np.zeros(2))
        J = fd_jacobian(m, RNG.uniform(-1, 1, 3), step=1e-5)
        assert J == pytest.approx(A, abs=1e-9)

    def test_paraboloid_analytic_value(self):
        J = fd_jacobian(Paraboloid(0.1, 2.0), np.array([1.0, 2.0, 0.0]), step=1e-5)
        assert J == pytest.approx(np.array([[0.2, 0.4, -1.0]]), abs=1e-6)

    def test_sphere_gradient(self):
        J = fd_jacobian(Sphere(1.0), np.array([0.6, 0.8, 0.0]), step=1e-5)
        assert J == pytest.approx(np.array([[0.6, 0.8, 0.0]]), abs=1e-6)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            fd_jacobian(Sphere(1.0), np.zeros(3), step=0.0)

    def test_analytic_jacobians_match_fd_on_100_points(self):
        for m in builtin_manifolds():
            for _ in range(100):
                q = RNG.uniform(-5, 5, size=3)
                if isinstance(m, Sphere) and np.linalg.norm(q) < 0.5:
                    continue  # fd is inaccurate near the gradient singularity
                J = np.asarray(m.jacobian(q))
                J_fd = fd_jacobian(m, q, step=1e-5)
                assert np.max(np.abs(J - J_fd)) <= 1e-5


class TestIntersection:
    def test_stacks_residuals_and_jacobians(self):
        m = Intersection(Paraboloid(0.1, 2.0), Cylinder(0.25, 1.0))
        q = np.array([2.0, 0.0, 2.4])
        assert evaluate(m, q) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert m.jacobian(q).shape == (2, 3)

    def test_overdetermined_stack_allowed(self):
        m = Intersection(Cylinder(0.25, 1.0), PointGoal((2.0, 0.0, 0.0)))
        assert m.codim == 4
        assert evaluate(m, np.array([2.0, 0.0, 0.0])) == pytest.approx(np.zeros(4))

    def test_mismatched_dims_raise(self):
        with pytest.raises(ValueError):
            Intersection(Sphere(1.0, dim=3), Sphere(1.0, dim=2))


@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
@settings(max_examples=50, deadline=None)
def test_projection_residual_property(x, y, z):
    m = Paraboloid(0.1, 2.0)
    q = project(np.array([x, y, z]), m, eps=1e-8)
    assert q is not None
    assert np.linalg.norm(evaluate(m, q)) <= 1e-8



@st.composite
def jacobian_and_rhs(draw, rows=(1, 6)):
    """(J, h, d): an l x k Jacobian (l in ``rows``, 1..6 by default, k = 3..8, so also
    l > k) that may be zero, have a repeated or a zero row, or have small-integer
    entries (often rank deficient), with a right-hand side h (l,) and a direction d (k,)."""
    l, k = draw(st.integers(*rows)), draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "zero", "repeated_row", "zero_row"]))
    if kind == "integer":
        J = rng.integers(-2, 3, size=(l, k)).astype(float)
    else:
        J = rng.normal(size=(l, k)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if kind == "zero":
        J[:] = 0.0
    elif kind == "repeated_row" and l > 1:
        J[draw(st.integers(1, l - 1))] = J[0]
    elif kind == "zero_row":
        J[draw(st.integers(0, l - 1))] = 0.0
    return J, rng.normal(size=l), rng.normal(size=k)


def _close(got, want, rel=1e-9):
    return np.linalg.norm(got - want) <= rel * np.linalg.norm(want) or np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(jacobian_and_rhs(rows=(2, 6)))
def test_newton_step_is_the_pseudo_inverse_step(case):
    J, h, _ = case
    want = np.linalg.pinv(J, rcond=SV_TOL) @ h
    got = newton_step(J, h)
    assert got.shape == want.shape
    assert _close(got, want)


@settings(max_examples=300, deadline=None)
@given(jacobian_and_rhs(rows=(1, 1)))
def test_one_row_projection_takes_the_pseudo_inverse_step(case):
    # onto a plane g.q = b the float Newton step lands in one step; with eps above
    # that step's rounding, project returns q minus the pseudo-inverse step
    J, h, q = case
    plane = AffinePlane(J, J[0] @ q - h)
    scale = np.abs(J[0]).sum() * np.abs(q).max() + abs(h[0])
    got = project(q, plane, eps=1e-12 * scale)
    if not J.any():  # no gradient, no step: project fails unless q is on the plane
        assert got is None or np.array_equal(got, q)
        return
    assert got is not None
    assert _close(got, q - np.linalg.pinv(J, rcond=SV_TOL) @ h)


@settings(max_examples=300, deadline=None)
@given(jacobian_and_rhs(rows=(1, 1)))
def test_one_row_steer_point_is_the_basis_projection(case):
    J, _, d = case
    g = J[0]
    plane = AffinePlane(J, [0.0])
    origin = np.zeros(g.size)
    B = tangent_nullspace(plane, origin)
    got = steer_point(origin, d, plane)
    assert _close(got, B @ (B.T @ d))
    assert abs(g @ got) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(d)
    assert _close(steer_point(origin, got, plane), got)


def _project_pinv(q, m, eps, max_iters=200, patience=10):
    """Newton projection as it was with an explicit pseudo-inverse per step: the oracle."""
    q = np.array(q, dtype=float)
    res = evaluate(m, q)
    norm = np.linalg.norm(res)
    if norm <= eps:
        return q
    increases = 0
    for _ in range(max_iters):
        q = q - np.linalg.pinv(np.asarray(m.jacobian(q), dtype=float), rcond=SV_TOL) @ res
        if not np.all(np.isfinite(q)):
            return None
        res = evaluate(m, q)
        new_norm = np.linalg.norm(res)
        if not np.isfinite(new_norm):
            return None
        if new_norm <= eps:
            return q
        increases = increases + 1 if new_norm >= norm else 0
        if increases >= patience:
            return None
        norm = new_norm
    return None


def _point_scene_manifolds():
    """Every manifold of the built-in point scenes and each pair of consecutive ones intersected."""
    out = []
    for name in ("point3d_free", "plane_cylinder_point"):
        ms = build_benchmark_scene(name).manifolds
        out += list(ms) + [Intersection(a, b) for a, b in zip(ms, ms[1:])]
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.lists(st.floats(-6, 6), min_size=3, max_size=3),
       st.sampled_from([1e-2, 1e-5, 1e-9]))
def test_project_converges_wherever_the_pseudo_inverse_projection_did(index, q, eps):
    # a start near an axis diverges past 1e200; project must end it without a warning
    ms = _point_scene_manifolds()
    m = ms[index % len(ms)]
    with np.errstate(all="ignore"):  # the oracle's np.linalg.norm warns when it overflows
        old = _project_pinv(q, m, eps)
    new = project(q, m, eps)
    if old is not None:
        assert new is not None, m.name
        assert np.linalg.norm(evaluate(m, new)) <= eps


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
def test_norm_is_numpy_norm_bit_for_bit(v):
    v = np.array(v, dtype=float)
    got = norm(v)  # inf without a warning when v.v overflows
    with np.errstate(all="ignore"):  # np.linalg.norm warns then
        expected = np.linalg.norm(v)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class _Returns(Manifold):
    def __init__(self, out, codim):
        super().__init__(2, codim)
        self.out = out

    def h(self, q):
        return self.out


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(0, 3), max_size=2), dtype=st.sampled_from([np.int64, np.float32, np.float64]),
       as_list=st.booleans(), codim=st.integers(1, 3))
def test_evaluate_converts_outputs_and_rejects_wrong_shapes(shape, dtype, as_list, codim):
    raw = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
    out = raw.tolist() if as_list else raw
    expected = np.atleast_1d(np.asarray(out, dtype=float))
    m = _Returns(out, codim)
    if expected.shape != (codim,):
        with pytest.raises(ValueError, match="returned shape"):
            evaluate(m, np.zeros(2))
        return
    got = evaluate(m, np.zeros(2))
    assert got.dtype == np.float64 and got.shape == (codim,)
    assert np.array_equal(got, expected)


class TestAnalyticJacobianRequired:
    def test_base_class_has_no_jacobian(self):
        with pytest.raises(NotImplementedError):
            _Returns(np.zeros(1), 1).jacobian(np.zeros(2))


# --- bit identity with the forms the kinematic constraints and Intersection had before ---

_KINEMATIC = (kin.Pick, kin.Handover, kin.Orientation)


def _old_function_h(m, q):
    """The value through the conversion of the constraint wrapper the kinematic constraints had."""
    return np.atleast_1d(np.asarray(type(m).h(m, q), dtype=float))


def _old_function_jacobian(m, q):
    J = np.asarray(type(m).jacobian(m, q), dtype=float)
    assert J.shape == (m.codim, m.ambient_dim)  # the wrapper raised on any other shape
    return J


def _old_intersection_h(m, q):
    return np.concatenate([np.atleast_1d(m.first.h(q)), np.atleast_1d(m.second.h(q))])


def _old_intersection_jacobian(m, q):
    return np.vstack([np.atleast_2d(m.first.jacobian(q)), np.atleast_2d(m.second.jacobian(q))])


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _constraint_layer():
    """Every manifold the planners build: the point-scene ones, the kinematic
    constraints of both transport scenes (Pick, Handover, Orientation), and each pair of
    consecutive ones intersected, once nested."""
    point, robot = [], []
    for name in ("point3d_free", "point3d_obstacles", "plane_cylinder_point"):
        point += build_benchmark_scene(name).manifolds
    for name in ("transport_a_mini", "transport_b_mini"):
        ms = build_benchmark_scene(name).manifolds
        sys = build_benchmark_scene(name).system
        robot.append(list(ms) + [kin.Orientation(sys, 0, e_z=(0.6, 0.0, 0.8))])
    out = []
    for ms in [point] + robot:
        pairs = [Intersection(a, b) for a, b in zip(ms, ms[1:])]
        out += ms + pairs + [Intersection(pairs[0], ms[-1])]
    return out


_LAYER = _constraint_layer()


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, len(_LAYER) - 1), data=st.data())
def test_constraint_layer_bit_identical_to_stacked_forms(index, data):
    m = _LAYER[index]
    q = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=m.ambient_dim, max_size=m.ambient_dim)))
    if isinstance(m, Intersection):
        old_h, old_jacobian = _old_intersection_h, _old_intersection_jacobian
    elif isinstance(m, _KINEMATIC):
        old_h, old_jacobian = _old_function_h, _old_function_jacobian
    else:
        old_h, old_jacobian = type(m).h, type(m).jacobian
    assert _same(m.h(q), old_h(m, q)), m.name
    assert _same(m.jacobian(q), old_jacobian(m, q)), m.name


# --- the float kernels of Paraboloid and Cylinder against their numpy-scalar forms ---


def _numpy_scalar_h(m, q, square):
    """h on the numpy scalars ``q[i]``, as it was computed, with ``square`` for the squares."""
    s = square(q[0]) + square(q[1])
    if isinstance(m, Paraboloid):
        return np.array([m.coeff * s + m.offset - q[2]])
    return np.array([m.coeff * s - m.rhs])


def _numpy_scalar_jacobian(m, q):
    return np.array([[2.0 * m.coeff * q[0], 2.0 * m.coeff * q[1], -1.0 if isinstance(m, Paraboloid) else 0.0]])


_QUADRICS = (st.builds(Paraboloid, st.floats(-10, 10), st.floats(-10, 10))
             | st.builds(Cylinder, st.floats(-10, 10), st.floats(-10, 10)))


@settings(max_examples=300, deadline=None)
@given(m=_QUADRICS, q=st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3))
def test_quadric_kernels_agree_with_their_numpy_scalar_forms(m, q):
    q = np.array(q)
    assert _same(m.jacobian(q), _numpy_scalar_jacobian(m, q))
    # the forms differ in the squares alone: x * x is correctly rounded, and
    # numpy's x ** 2 (libm pow) is within 1 ulp of it
    assert _same(m.h(q), _numpy_scalar_h(m, q, lambda x: x * x))
    for x in q[:2]:
        assert abs(x ** 2 - x * x) <= np.spacing(x * x)
    if all(x ** 2 == x * x for x in q[:2]):
        assert _same(m.h(q), _numpy_scalar_h(m, q, lambda x: x ** 2))


@settings(max_examples=200, deadline=None)
@given(m=_QUADRICS.filter(lambda m: m.coeff != 0.0), big=st.floats(1e155, 1e300), sign=st.sampled_from([-1.0, 1.0]),
       axis=st.integers(0, 1), others=st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=2))
def test_quadric_kernels_overflow_to_inf_without_a_warning(m, big, sign, axis, others):
    q = np.array(others[:axis] + [sign * big] + others[axis:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, J = m.h(q), m.jacobian(q)
    assert h[0] == math.copysign(math.inf, m.coeff)
    with np.errstate(over="ignore"):
        assert _same(J, _numpy_scalar_jacobian(m, q))


# --- the one-row float kernels: residual_gradient and the float Newton loop ---


def _one_row_manifolds():
    """One of each one-row kind: the quadrics on their native kernels, and on the default
    kernel a plane, a sphere, the transport scenes' carry_upright and one tilted orientation."""
    out = [Paraboloid(0.1, 2.0), Paraboloid(-0.1, -2.0), Cylinder(0.25, 1.0),
           AffinePlane([[0.3, -1.2, 0.5]], [0.7]), Sphere(1.0, center=(0.5, -0.2, 0.1))]
    for name in ("transport_a_mini", "transport_b_mini"):
        scene = build_benchmark_scene(name)
        out += [m for m in scene.manifolds if m.codim == 1]
        out.append(kin.Orientation(scene.system, len(scene.system.chains) - 1, e_z=(0.6, 0.0, 0.8)))
    return out


_ONE_ROW = _one_row_manifolds()


def _numpy_form(m, q):
    """(h, J row, magnitude of the terms) of a native quadric kernel's formula in numpy vector form.

    The kernel sums a paraboloid's terms left to right, coeff (x^2 + y^2) + offset - z,
    so it rounds through |offset| and |z| separately, not through |offset - z|."""
    xy = q[:2]
    if isinstance(m, Paraboloid):
        last, scale = (m.offset - q[2], -1.0), abs(m.offset) + abs(q[2])
    else:
        last, scale = (-m.rhs, 0.0), abs(m.rhs)
    h = m.coeff * (xy @ xy) + last[0]
    return h, np.append(2.0 * m.coeff * xy, last[1]), abs(m.coeff) * (xy @ xy) + scale


_MAX_ONE_ROW_DIM = max(m.ambient_dim for m in _ONE_ROW)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(_ONE_ROW) - 1),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=_MAX_ONE_ROW_DIM, max_size=_MAX_ONE_ROW_DIM))
# Paraboloid(-0.1, -2.0): the kernel gives -0.006250000000000089, the numpy form -0.00625
@example(index=1, xs=[0.0, 0.25, -2.0] + [0.0] * (_MAX_ONE_ROW_DIM - 3))
def test_residual_gradient_agrees_with_numpy_forms_and_finite_differences(index, xs):
    m = _ONE_ROW[index]
    q = np.array(xs[:m.ambient_dim])
    h, g = m.residual_gradient(q.tolist())
    assert type(h) is float and len(g) == m.ambient_dim and all(type(x) is float for x in g)
    value = m.residual(q.tolist())
    assert type(value) is float and value == h
    # h and jacobian read the kernel (FloatRow), or the default kernel reads them
    assert _same(np.array([h]), evaluate(m, q)) and _same(np.array([g]), np.asarray(m.jacobian(q), dtype=float))
    if isinstance(m, (Paraboloid, Cylinder)):
        h_np, g_np, scale = _numpy_form(m, q)
        assert abs(h - h_np) <= 1e-14 * scale
        assert np.abs(np.array(g) - g_np).max() <= 1e-14 * max(1.0, np.abs(g_np).max()), m.name
    if not (isinstance(m, Sphere) and np.linalg.norm(q - m.center) < 1e-3):  # the sphere's kink
        assert np.abs(fd_jacobian(m, q)[0] - g).max() <= 1e-6 * max(1.0, np.abs(g).max()), m.name


def _project_numpy(q, m, eps):
    """``project`` as it ran every row count on numpy: the oracle. One row took the
    closed-form step g h / (g.g) on arrays, zero when g = 0, all inf where the
    quotient overflowed; more rows least squares."""
    q = np.array(q, dtype=float)
    res = evaluate(m, q)
    res_norm = np.linalg.norm(res)
    if res_norm <= eps:
        return q
    increases = 0
    for _ in range(200):
        J = np.asarray(m.jacobian(q), dtype=float)
        if J.shape[0] == 1:
            g = J[0]
            gg = float(g @ g)
            s = float(res[0]) / gg if gg != 0.0 else 0.0
            step = g * s if math.isfinite(s) else np.full_like(g, math.inf)
        else:
            step = np.linalg.lstsq(J, res, rcond=SV_TOL)[0]
        q = q - step
        if not np.isfinite(q).all():
            return None
        res = evaluate(m, q)
        new_norm = np.linalg.norm(res)
        if not math.isfinite(new_norm):
            return None
        if new_norm <= eps:
            return q
        increases = increases + 1 if new_norm >= res_norm else 0
        if increases >= 10:
            return None
        res_norm = new_norm
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(index=st.integers(0, len(_ONE_ROW) - 1), scale=st.sampled_from([1.0, 10.0, 1e3]),
       eps=st.sampled_from([1e-2, 1e-5, 1e-9]), data=st.data())
def test_float_projection_converges_wherever_the_numpy_loop_did(index, scale, eps, data):
    m = _ONE_ROW[index]
    q = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=m.ambient_dim, max_size=m.ambient_dim)))
    with np.errstate(all="ignore"):  # the oracle's numpy arithmetic warns where it overflows
        old = _project_numpy(q, m, eps)
    new = project(q, m, eps)
    if old is not None:
        assert new is not None, m.name
        assert abs(evaluate(m, new)[0]) <= eps


# --- two-row crossings: the closed-form Gram step and the float projection ---


@st.composite
def two_gradient_rows(draw):
    """(g1, g2, h): two gradient rows of k = 3..8 floats each and two residuals, where g2
    is general, nearly or exactly parallel to g1, far shorter than g1, or zero."""
    k = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g1 = rng.normal(size=k) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    g2 = rng.normal(size=k) * np.linalg.norm(g1)
    kind = draw(st.sampled_from(["general", "nearly_parallel", "parallel", "short", "zero"]))
    if kind == "nearly_parallel":
        g2 = rng.normal() * g1 + draw(st.sampled_from([1e-12, 1e-6, 1e-3, 1e-2])) * g2
    elif kind == "parallel":
        g2 = draw(st.sampled_from([-2.0, 0.5, 1.0])) * g1
    elif kind == "short":
        g2 = g2 * draw(st.sampled_from([1e-12, 1e-4, 1e-2]))
    elif kind == "zero":
        g2[:] = 0.0
    return g1.tolist(), g2.tolist(), rng.normal(size=2).tolist()


def _closed_form_branch(g1, g2):
    """Whether ``_float_step`` takes Cramer's rule for the rows g1, g2: its own test, on its own sums."""
    a11, a12, a22 = dot(g1, g1), dot(g1, g2), dot(g2, g2)
    return a11 * a22 - a12 * a12 > GRAM_TOL * (a11 + a22) * (a11 + a22)


@settings(max_examples=400, deadline=None)
@given(two_gradient_rows())
@example(([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, -1.0]))  # exactly parallel: newton_step's cut
@example(([1.0, 0.0, 0.0], [1.0, 1e-9, 0.0], [0.5, -1.0]))  # nearly parallel: newton_step keeps both rows
@example(([1.0, 2.0, 3.0], [0.0, 1.0, -1.0], [0.5, -1.0]))  # transversal: Cramer's rule
def test_two_row_float_step_is_the_newton_step(case):
    g1, g2, h = case
    J = np.array([g1, g2])
    want = newton_step(J, np.array(h))
    got = np.array(_float_step([g1, g2], h))
    if not _closed_form_branch(g1, g2):
        assert got.tobytes() == want.tobytes()
        return
    # Cramer's rule loses u cond(J)^2, at most u / GRAM_TOL relative to the step bound |J^+| |h|
    bound = np.linalg.norm(np.linalg.pinv(J), 2) * np.linalg.norm(h)
    assert np.linalg.norm(got - want) <= 1e-8 * bound
    assert np.abs(J @ got - h).max() <= 1e-8 * np.abs(J).max() * bound


def test_both_two_row_branches_are_reachable():
    assert _closed_form_branch([1.0, 2.0, 3.0], [0.0, 1.0, -1.0])
    assert not _closed_form_branch([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert not _closed_form_branch([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_pair_projection_fails_without_a_warning():
    # transversal planes x = 0 and x + y = 0 at x = 1e308: the closed-form coefficient
    # (h1 a22 - h2 a12) / det = (2e308 - 1e308) / 1 overflows on the way
    pair = Intersection(AffinePlane([[1.0, 0.0, 0.0]], [0.0]), AffinePlane([[1.0, 1.0, 0.0]], [0.0]))
    assert _closed_form_branch([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert project(np.array([1e308, 0.0, 0.0]), pair, eps=1e-9) is None


def _count_linalg_calls(monkeypatch):
    """Wrap every function of ``np.linalg`` with a counter; returns the dict of counts."""
    counts = {}
    for name in dir(np.linalg):
        f = getattr(np.linalg, name)
        if name.startswith("_") or not callable(f) or isinstance(f, type):
            continue

        def counted(*args, _f=f, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_a_one_row_constraint_steer_makes_no_linear_algebra_call(monkeypatch):
    counts = _count_linalg_calls(monkeypatch)
    d = steer_constraint(np.array([1.0, 0.5, 2.125]), Paraboloid(0.1, 2.0), Cylinder(0.25, 1.0))
    assert counts == {}
    assert np.isfinite(d).all() and d.any()


def test_a_transversal_crossing_projects_without_linear_algebra_calls(monkeypatch):
    pair = Intersection(Paraboloid(0.1, 2.0), Cylinder(0.25, 1.0))
    counts = _count_linalg_calls(monkeypatch)
    q = project(np.array([1.5, 1.2, 2.9]), pair, eps=1e-9)
    assert counts == {}
    assert q is not None and np.abs(evaluate(pair, q)).max() <= 1e-9
    project(np.array([1.5, 1.2, 2.9]), Intersection(Paraboloid(0.1, 2.0), PointGoal((2.0, 0.0, 2.4))), eps=1e-9)
    assert counts.get("lstsq", 0) > 0  # the counter sees a four-row system's least squares

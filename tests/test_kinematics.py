"""Forward kinematics and the pick/handover/orientation constraint constructors."""
import copy
import pickle
import sys as _sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmp import kinematics as kin
from seqmp.manifolds import evaluate, fd_jacobian, project
from seqmp.scene import build_benchmark_scene

RNG = np.random.default_rng(7)
TRANSPORT_SCENES = ["transport_a_mini", "transport_b_mini"]


def _system(scene):
    return build_benchmark_scene(scene).system


def planar_two_link(base=(0.0, 0.0, 0.0)):
    """Two revolute z-joints with unit links; tool at the second link tip."""
    return kin.SerialChain(
        joints=(
            kin.Joint((0.0, 0.0, 1.0), kin.REVOLUTE, (0.0, 0.0, 0.0)),
            kin.Joint((0.0, 0.0, 1.0), kin.REVOLUTE, (1.0, 0.0, 0.0)),
        ),
        base=base,
        tool=(1.0, 0.0, 0.0),
    )


def _oracle_fk(chain, q):
    """Independent FK via homogeneous transforms."""
    def rot_h(axis, angle):
        T = np.eye(4)
        T[:3, :3] = _rodrigues(axis, angle)
        return T

    def trans_h(v):
        T = np.eye(4)
        T[:3, 3] = v
        return T

    def _rodrigues(axis, angle):
        a = np.asarray(axis, dtype=float)
        K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K

    T = trans_h(chain.base)
    for joint, qi in zip(chain.joints, q):
        T = T @ trans_h(joint.origin)
        if joint.type == kin.REVOLUTE:
            T = T @ rot_h(joint.axis, qi)
        else:
            T = T @ trans_h(np.asarray(joint.axis) * qi)
    T = T @ trans_h(chain.tool)
    return T[:3, 3]


class TestForwardKinematics:
    def test_stretched_out_pose(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        assert kin.tool_point(sys, 0, np.zeros(2)) == pytest.approx([2.0, 0.0, 0.0])

    def test_quarter_turn(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        p = kin.tool_point(sys, 0, np.array([np.pi / 2, 0.0]))
        assert p == pytest.approx([0.0, 2.0, 0.0], abs=1e-12)

    def test_matches_homogeneous_transform_oracle(self):
        for sys in map(_system, TRANSPORT_SCENES):
            for chain_idx, chain in enumerate(sys.chains):
                for _ in range(20):
                    q_full = RNG.uniform(-1.5, 1.5, size=sys.dof)
                    q = sys.chain_config(q_full, chain_idx)
                    p = kin.tool_point(sys, chain_idx, q_full)
                    assert p == pytest.approx(_oracle_fk(chain, q), abs=1e-10)

    def test_invalid_chain_index(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        with pytest.raises(IndexError):
            sys.chain_config(np.zeros(2), 3)
        for chain in (1, -1):
            with pytest.raises(IndexError):
                kin.Pick(sys, chain, (0.0, 0.0, 0.0))
            with pytest.raises(IndexError):
                kin.Orientation(sys, chain)
            with pytest.raises(IndexError):
                kin.Handover(sys, 0, chain)

    def test_prismatic_joint(self):
        chain = kin.SerialChain(
            joints=(kin.Joint((1.0, 0.0, 0.0), kin.PRISMATIC, (0.0, 0.0, 0.0)),),
            tool=(0.0, 0.0, 0.5),
        )
        sys = kin.MultiRobotSystem(chains=(chain,))
        assert kin.tool_point(sys, 0, np.array([0.7])) == pytest.approx([0.7, 0.0, 0.5])

    def test_joint_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            kin.Joint((1.0, 1.0, 0.0), kin.REVOLUTE)

    def test_joint_limits(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        assert np.array_equal(sys.joint_limits(), [[-np.pi, np.pi]] * 2)
        limited = kin.SerialChain(planar_two_link().joints, limits=((-1.0, 1.0), (0.0, 2.0)))
        sys = kin.MultiRobotSystem(chains=(planar_two_link(), limited))
        assert np.array_equal(sys.joint_limits(), [[-np.pi, np.pi]] * 2 + [[-1.0, 1.0], [0.0, 2.0]])


class TestPickConstraint:
    def test_zero_residual_at_target(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        q = np.array([0.3, -0.4])
        x_g = kin.tool_point(sys, 0, q)
        m = kin.Pick(sys, 0, x_g)
        assert evaluate(m, q) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_definitional_residual(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        x_g = np.array([1.0, 0.5, 0.0])
        m = kin.Pick(sys, 0, x_g)
        for _ in range(10):
            q = RNG.uniform(-2, 2, size=2)
            expected = x_g - kin.tool_point(sys, 0, q)
            assert evaluate(m, q) == pytest.approx(expected, abs=1e-12)

    def test_projection_reaches_target(self):
        sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
        x_g = np.array([1.2, 0.7, 0.0])
        m = kin.Pick(sys, 0, x_g)
        hits = 0
        for _ in range(10):
            q = project(RNG.uniform(-2, 2, size=2), m, eps=1e-6)
            if q is not None:
                hits += 1
                assert np.linalg.norm(x_g - kin.tool_point(sys, 0, q)) <= 1e-6
        assert hits >= 5


class TestHandoverConstraint:
    def _mirrored(self):
        return kin.MultiRobotSystem(chains=(
            planar_two_link(base=(-2.0, 0.0, 0.0)),
            planar_two_link(base=(2.0, 0.0, 0.0)),
        ))

    def test_symmetric_meeting_at_midpoint(self):
        sys = self._mirrored()
        # both arms folded onto the x axis, tips meeting at the origin
        q = np.array([0.0, 0.0, np.pi, 0.0])
        m = kin.Handover(sys, 0, 1)
        assert evaluate(m, q) == pytest.approx(np.zeros(3), abs=1e-12)

    def test_antisymmetric_under_role_swap(self):
        sys = self._mirrored()
        m12 = kin.Handover(sys, 0, 1)
        m21 = kin.Handover(sys, 1, 0)
        for _ in range(10):
            q = RNG.uniform(-2, 2, size=4)
            assert evaluate(m12, q) == pytest.approx(-evaluate(m21, q), abs=1e-12)

    def test_projection_coincidence(self):
        sys = self._mirrored()
        m = kin.Handover(sys, 0, 1)
        hits = 0
        for _ in range(10):
            q = project(RNG.uniform(-2, 2, size=4), m, eps=1e-6)
            if q is not None:
                hits += 1
                p1 = kin.tool_point(sys, 0, q)
                p2 = kin.tool_point(sys, 1, q)
                assert np.linalg.norm(p1 - p2) <= 1e-6
        assert hits >= 5


class TestOrientationConstraint:
    def _tilting(self):
        # one pitch joint; tool z-axis tilts by the joint angle
        chain = kin.SerialChain(
            joints=(kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.0, 0.0, 0.0)),),
            tool=(0.0, 0.0, 0.0),
        )
        return kin.MultiRobotSystem(chains=(chain,))

    def test_identity_orientation(self):
        m = kin.Orientation(self._tilting(), 0)
        assert evaluate(m, np.zeros(1)) == pytest.approx([0.0], abs=1e-12)

    def test_quarter_turn_residual(self):
        m = kin.Orientation(self._tilting(), 0)
        assert evaluate(m, np.array([np.pi / 2])) == pytest.approx([-1.0], abs=1e-12)

    def test_residual_is_cos_theta_minus_one(self):
        m = kin.Orientation(self._tilting(), 0)
        for theta in RNG.uniform(-np.pi, np.pi, size=20):
            assert evaluate(m, np.array([theta])) == pytest.approx([np.cos(theta) - 1.0], abs=1e-12)

    def test_residual_range(self):
        sys = _system("transport_a_mini")
        m = kin.Orientation(sys, 0)
        for _ in range(50):
            q = RNG.uniform(-2.2, 2.2, size=sys.dof)
            r = evaluate(m, q)[0]
            assert -2.0 - 1e-12 <= r <= 1e-12


def test_fk_smoothness_smoke():
    sys = _system("transport_a_mini")
    delta = 1e-4
    for _ in range(20):
        q = RNG.uniform(-2, 2, size=sys.dof)
        dq = RNG.normal(size=sys.dof)
        dq *= delta / np.linalg.norm(dq)
        move = np.linalg.norm(
            kin.tool_point(sys, 0, q + dq) - kin.tool_point(sys, 0, q)
        )
        assert move <= 5.0 * delta  # total link length bounds the FK Lipschitz constant


def _kinematic_constraints(sys):
    """Every pick, orientation and handover constraint a system supports."""
    n = len(sys.chains)
    out = [kin.Pick(sys, c, (0.3, -0.2, 0.4)) for c in range(n)]
    out += [kin.Orientation(sys, c) for c in range(n)]
    out += [kin.Orientation(sys, c, e_z=(0.6, 0.0, 0.8)) for c in range(n)]
    out += [kin.Handover(sys, a, b) for a in range(n) for b in range(n) if a != b]
    return out


@pytest.mark.parametrize("scene", TRANSPORT_SCENES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_analytic_jacobians_match_finite_differences(scene, data):
    # transport_b has prismatic joints (the mobile tray) and handovers between chains
    sys = _system(scene)
    q = np.array(data.draw(st.lists(st.floats(-2.5, 2.5), min_size=sys.dof, max_size=sys.dof)))
    for m in _kinematic_constraints(sys):
        J = m.jacobian(q)
        assert J.shape == (m.codim, sys.dof)
        assert J == pytest.approx(fd_jacobian(m, q, 1e-6), abs=1e-6), m.name


class TestBodyPoints:
    @pytest.mark.parametrize("scene", TRANSPORT_SCENES)
    def test_batch_equals_stacked_single_configurations(self, scene):
        # reference: the scalar fk_frames positions of each configuration plus link midpoints
        sys = _system(scene)
        Q = RNG.uniform(-2.0, 2.0, size=(9, sys.dof))
        stacked = []
        for q in Q:
            rows = []
            for c, chain in enumerate(sys.chains):
                frames = chain.fk_frames(sys.chain_config(q, c))[0]
                rows += [frames, 0.5 * (frames[:-1] + frames[1:])]
            stacked.append(np.vstack(rows))
        stacked = np.stack(stacked)
        batch = sys.body_points(Q)
        assert batch.shape == stacked.shape
        assert np.allclose(batch, stacked, rtol=0.0, atol=1e-12)
        single = np.stack([sys.body_points(q) for q in Q])
        assert single.shape == stacked.shape
        assert np.allclose(single, stacked, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scene", TRANSPORT_SCENES)
    def test_tool_rows_hold_the_tool_points(self, scene):
        sys = _system(scene)
        for q in RNG.uniform(-2.0, 2.0, size=(5, sys.dof)):
            pts = sys.body_points(q)
            for c in range(len(sys.chains)):
                assert pts[sys.tool_rows[c]] == pytest.approx(kin.tool_point(sys, c, q), abs=1e-12)


def _memo_chains():
    """Chains of equal dof with different geometry: one configuration fits them all."""
    mobile = _fresh_copy(_system("transport_b_mini").chains[2])  # two prismatic joints; the loader ran FK on it
    return (planar_two_link(), planar_two_link(base=(0.5, -1.0, 0.25)), mobile)


def _fresh_copy(chain):
    return kin.SerialChain(chain.joints, chain.base, chain.tool, chain.limits)


class TestFkMemo:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_results_equal_a_memo_free_computation(self, data):
        # more distinct configurations than a small cache holds, called on
        # interleaved chains: the cache keeps each chain's last `size` passes
        size = data.draw(st.integers(2, 3))
        chains = _memo_chains()
        coord = st.sampled_from([0.0, -0.0, 0.5, -1.25]) | st.floats(-3.0, 3.0)
        configs = data.draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=1, max_size=6))
        calls = data.draw(st.lists(st.tuples(st.integers(0, len(chains) - 1),
                                             st.integers(0, len(configs) - 1)), min_size=1, max_size=24))
        kept = [{} for _ in chains]  # per chain, key -> result, in insertion order: the cache's model
        q = np.empty(2)  # one buffer written in place: the cache must key on values, not identity
        with mock.patch.object(kin, "FK_CACHE_SIZE", size):
            for c, k in calls:
                chain = chains[c]
                q[:] = configs[k]
                key = q.tobytes()
                got = chain.fk_frames(q)
                if key in kept[c]:
                    assert got is kept[c][key]
                else:
                    kept[c][key] = got
                    if len(kept[c]) > size:
                        del kept[c][next(iter(kept[c]))]
                assert list(chain._fk_cache) == list(kept[c])
                want = _fresh_copy(chain).fk_frames(q.copy())
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                    assert not a.flags.writeable
                assert np.allclose(got[0], chain.fk_frames_batch(q[None])[0], rtol=0.0, atol=1e-12)
                assert got[0][-1] == pytest.approx(_oracle_fk(chain, q), abs=1e-12)

    def test_cache_holds_at_most_its_bound(self):
        chain = planar_two_link()
        first = chain.fk_frames(np.zeros(2))
        for x in np.linspace(0.01, 1.0, kin.FK_CACHE_SIZE + 10):
            chain.fk_frames(np.array([x, -x]))
        assert len(chain._fk_cache) == kin.FK_CACHE_SIZE
        again = chain.fk_frames(np.zeros(2))  # evicted, so computed anew
        assert again is not first
        for a, b in zip(again, first):
            assert np.array_equal(a, b)

    def test_memoised_chain_pickles_and_compares_equal(self):
        chain = planar_two_link()
        q = np.array([0.3, -0.2])
        chain.fk_frames(q)
        clone = pickle.loads(pickle.dumps(chain))
        assert clone == chain == planar_two_link()
        assert hash(chain) == hash(planar_two_link())
        assert np.array_equal(clone.fk_frames(q)[0], chain.fk_frames(q)[0])
        assert np.array_equal(clone.fk_frames(-q)[0], planar_two_link().fk_frames(-q)[0])

    @pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy])
    def test_a_clone_starts_with_an_empty_cache(self, clone):
        chain = _fresh_copy(_system("transport_b_mini").chains[2])  # the loader ran FK on it
        for q in ([0.3, -0.2], [0.1, 0.4]):
            chain.fk_frames(np.array(q))
        twin = clone(chain)
        assert len(chain._fk_cache) == 2 and len(twin._fk_cache) == 0
        assert twin._fk_cache is not chain._fk_cache
        got = twin.fk_frames(np.array([0.3, -0.2]))
        assert len(chain._fk_cache) == 2 and len(twin._fk_cache) == 1
        for a, b in zip(got, chain.fk_frames(np.array([0.3, -0.2]))):
            assert np.array_equal(a, b)

    def test_two_threads_share_one_chain(self):
        # each thread cycles through its own configurations on one chain whose
        # cache of 3 entries is smaller than either set, so both threads insert
        # and evict at once; every result must still be the uncached one
        chain = _system("transport_a_mini").chains[0]
        rng = np.random.default_rng(11)
        sets = [rng.uniform(-2.0, 2.0, size=(5, chain.dof)) for _ in range(2)]
        want = [[_fresh_copy(chain).fk_frames(q) for q in qs] for qs in sets]
        bad = []

        def work(t):
            for i in range(3000):
                k = (i * 7 + t) % 5
                got = chain.fk_frames(sets[t][k])
                if not all(np.array_equal(a, b) for a, b in zip(got, want[t][k])):
                    bad.append((t, i))

        interval = _sys.getswitchinterval()
        _sys.setswitchinterval(1e-6)  # switch threads often
        try:
            with mock.patch.object(kin, "FK_CACHE_SIZE", 3):
                threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=120)
        finally:
            _sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == []
        assert len(chain._fk_cache) <= 3


# --- agreement with the forms FK and the constraints had before -------------
# Each reference below is a copy of an earlier form of a kinematics path. The
# fast paths must give the same floats, not merely close ones, except scalar
# FK, which runs on Python floats and agrees with the numpy forms to rounding.

_AXES = ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8), (0.0, -0.8, 0.6))


@st.composite
def _mixed_chains(draw):
    """Random chains of revolute and prismatic joints, in any order."""
    coord = st.floats(-1.0, 1.0)
    point = st.tuples(coord, coord, coord)

    def axis():
        v = draw(st.tuples(coord, coord, coord).filter(lambda v: np.linalg.norm(v) > 1e-3))
        return tuple((np.array(v) / np.linalg.norm(v)).tolist())

    joints = tuple(kin.Joint(draw(st.sampled_from(_AXES)) if draw(st.booleans()) else axis(),
                             draw(st.sampled_from((kin.REVOLUTE, kin.PRISMATIC))), draw(point))
                   for _ in range(draw(st.integers(1, 6))))
    return kin.SerialChain(joints, base=draw(point), tool=draw(point))


def _bit_test_chains():
    """Every chain of both transport systems, and one whose first joint is prismatic."""
    prismatic_first = kin.SerialChain((kin.Joint((1.0, 0.0, 0.0), kin.PRISMATIC, (0.1, 0.0, 0.2)),
                                       kin.Joint((0.0, 0.0, 1.0), kin.REVOLUTE, (0.0, 0.3, 0.0)),
                                       kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.4, 0.0, 0.0))),
                                      base=(0.2, -0.1, 0.0), tool=(0.3, 0.0, 0.1))
    return _system("transport_a_mini").chains + _system("transport_b_mini").chains + (prismatic_first,)


def _configs(data, dof, n):
    rows = st.lists(st.floats(-4.0, 4.0), min_size=dof, max_size=dof)
    return np.array(data.draw(st.lists(rows, min_size=n, max_size=n))).reshape(n, dof)


def _fk_frames_batch_rebuilding_terms(chain, Q):
    """fk_frames_batch with the Rodrigues terms I, [a]x and a a^T rebuilt at every joint of every call."""
    n = Q.shape[0]
    p = np.broadcast_to(np.asarray(chain.base, dtype=float), (n, 3))
    R = np.broadcast_to(np.eye(3), (n, 3, 3))
    pts = [p]
    for j, joint in enumerate(chain.joints):
        axis = np.asarray(joint.axis, dtype=float)
        p = p + R @ np.asarray(joint.origin, dtype=float)
        if joint.type == kin.REVOLUTE:
            x, y, z = axis
            K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            c, s = np.cos(Q[:, j])[:, None, None], np.sin(Q[:, j])[:, None, None]
            R = R @ ((c * np.eye(3) + s * K) + (1.0 - c) * np.outer(axis, axis))
        else:
            p = p + R @ axis * Q[:, j, None]
        pts.append(p)
    pts.append(p + R @ np.asarray(chain.tool, dtype=float))
    return np.stack(pts, axis=1)


def _rotation_numpy_scalars(axis, angle):
    """Rodrigues rotation from numpy float64 scalars, as fk_frames built it before."""
    x, y, z = np.asarray(axis, dtype=float)
    c, s = np.cos(np.float64(angle)), np.sin(np.float64(angle))
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


@settings(deadline=None)
@given(v=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 1e-3),
       angle=st.floats(-20.0, 20.0))
def test_rotation_from_python_floats_bit_identical_to_numpy_scalars(v, angle):
    # _rotation gives the nine entries row by row as Python floats
    axis = np.array(v) / np.linalg.norm(v)
    got = kin._rotation(tuple(axis.tolist()), angle)
    assert len(got) == 9 and all(type(x) is float for x in got)
    assert np.array(got).tobytes() == _rotation_numpy_scalars(axis, angle).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_fk_bit_identical_to_rebuilt_rodrigues_terms(data):
    # one broadcast builds every joint rotation from terms stacked once per
    # chain, and the pass starts at the first joint; the arithmetic must not
    # change by a bit from the per-joint loop from the identity base frame
    chains = _bit_test_chains() + (planar_two_link(), kin.SerialChain(
        (kin.Joint((0.6, 0.0, 0.8), kin.REVOLUTE, (0.1, 0.2, 0.3)),), tool=(0.5, 0.0, 0.0)))
    chain = data.draw(st.sampled_from(chains) | _mixed_chains())
    Q = _configs(data, chain.dof, data.draw(st.integers(1, 64)))
    want = _fk_frames_batch_rebuilding_terms(chain, Q)
    assert np.array_equal(chain.fk_frames_batch(Q), want)
    # body points of two copies of the chain, the second at the configurations in reverse order
    sys = kin.MultiRobotSystem(chains=(chain, chain))
    rows = [want, 0.5 * (want[:, :-1] + want[:, 1:])]
    rows += [r[::-1] for r in rows]
    assert np.array_equal(sys.body_points(np.hstack([Q, Q[::-1]])), np.concatenate(rows, axis=1))


def _fk_frames_identity_base(chain, q):
    """Scalar FK from the identity base frame: every joint multiplies by R, the first by I."""
    p = np.asarray(chain.base, dtype=float)
    R = np.eye(3)
    pts, axes = [p], []
    for joint, qi in zip(chain.joints, np.asarray(q, dtype=float).tolist()):
        axis = np.asarray(joint.axis, dtype=float)
        p = p + R @ np.asarray(joint.origin, dtype=float)
        axes.append(R @ axis)
        if joint.type == kin.REVOLUTE:
            R = R @ np.reshape(kin._rotation(tuple(axis.tolist()), qi), (3, 3))
        else:
            p = p + R @ (axis * qi)
        pts.append(p)
    pts.append(p + R @ np.asarray(chain.tool, dtype=float))
    return np.array(pts), R, np.array(axes).reshape(chain.dof, 3)


# scalar FK against the numpy forms: at most this many times the larger of 1
# and the largest entry of the reference apart, entry by entry
FK_AGREEMENT = 1e-14


def _agree(got, want):
    return np.abs(got - want).max(initial=0.0) <= FK_AGREEMENT * max(1.0, np.abs(want).max(initial=0.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scalar_fk_agrees_with_identity_base_products_and_the_batch(data):
    chain = data.draw(st.sampled_from(_bit_test_chains()) | _mixed_chains())
    Q = _configs(data, chain.dof, data.draw(st.integers(1, 4)))
    for q, batch in zip(Q, chain.fk_frames_batch(Q)):
        got = _fresh_copy(chain).fk_frames(q)
        assert [a.shape for a in got] == [(chain.dof + 2, 3), (3, 3), (chain.dof, 3)]
        assert all(a.dtype == float and not a.flags.writeable for a in got)
        for a, b in zip(got, _fk_frames_identity_base(chain, q)):
            assert _agree(a, b)
        assert _agree(got[0], batch)


def _old_tool_jacobian(sys, chain, q):
    """The tool Jacobian as it was built from chain_config."""
    c = sys.chains[chain]
    frames, _, axes = c.fk_frames(sys.chain_config(q, chain))
    J = np.zeros((3, sys.dof))
    lo = sys.offsets[chain]
    w = axes.T
    J[:, lo:lo + c.dof] = np.where(c._revolute, kin._cross(w, (frames[-1] - frames[1:-1]).T), w)
    return J


def _old_tool_axis(sys, chain, q, local_axis=(0.0, 0.0, 1.0)):
    """The tool axis as fk_tool_axis gave it: R times the local axis."""
    _, R, _ = sys.chains[chain].fk_frames(sys.chain_config(q, chain))
    return R @ np.asarray(local_axis, dtype=float)


def _old_fk_position(sys, chain, q):
    """The tool point as fk_position gave it: the tool frame's origin plus R times a zero local point."""
    pts, R, _ = sys.chains[chain].fk_frames(sys.chain_config(q, chain))
    return pts[-1] + R @ np.zeros(3)


def _old_constraint(kind, sys, args, q):
    """(h, J) of a pick, handover or orientation constraint, built from fk_position,
    the tool axis and chain_config."""
    if kind == "pick":
        chain, x_g = args
        return (x_g - _old_fk_position(sys, chain, q), -_old_tool_jacobian(sys, chain, q))
    if kind == "handover":
        a, b = args
        return (_old_fk_position(sys, a, q) - _old_fk_position(sys, b, q),
                _old_tool_jacobian(sys, a, q) - _old_tool_jacobian(sys, b, q))
    chain, e_z = args
    c, lo = sys.chains[chain], sys.offsets[chain]
    _, R, axes = c.fk_frames(sys.chain_config(q, chain))
    J = np.zeros((1, sys.dof))
    J[0, lo:lo + c.dof] = np.where(c._revolute, axes @ kin._cross(R[:, 2], e_z), 0.0)
    return np.array([_old_tool_axis(sys, chain, q) @ e_z - 1.0]), J


@st.composite
def _constraint_cases(draw):
    """A system (a transport system, or one to three random chains) and one
    pick, handover or orientation constraint on it."""
    if draw(st.booleans()):
        sys = _system(draw(st.sampled_from(TRANSPORT_SCENES)))
    else:
        sys = kin.MultiRobotSystem(chains=tuple(draw(st.lists(_mixed_chains(), min_size=1, max_size=3))))
    n = len(sys.chains)
    kind = draw(st.sampled_from(("pick", "handover", "orientation")))
    coord = st.floats(-1.0, 1.0)
    if kind == "pick":
        args = (draw(st.integers(0, n - 1)), np.array(draw(st.tuples(coord, coord, coord))))
        m = kin.Pick(sys, *args)
    elif kind == "handover":
        args = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))  # one chain may meet itself
        m = kin.Handover(sys, *args)
    else:
        e_z = draw(st.sampled_from(((0.0, 0.0, 1.0), (0.6, 0.0, 0.8))) | st.tuples(coord, coord, coord))
        args = (draw(st.integers(0, n - 1)), np.asarray(e_z, dtype=float))
        m = kin.Orientation(sys, *args)
    return sys, kind, args, m


@settings(max_examples=80, deadline=None)
@given(case=_constraint_cases(), data=st.data())
def test_constraints_bit_identical_to_fk_position_forms(case, data):
    sys, kind, args, m = case
    for q in _configs(data, sys.dof, data.draw(st.integers(1, 3))):
        h, J = m.h(q), m.jacobian(q)
        # fresh chains, so the reference runs its own FK passes, not the memo
        fresh = kin.MultiRobotSystem(chains=tuple(map(_fresh_copy, sys.chains)))
        h_old, J_old = _old_constraint(kind, fresh, args, q)
        assert np.array_equal(h, h_old) and np.array_equal(J, J_old)


def _tool_jacobian_where_and_zeros(sys, c, cols, q):
    """The tool Jacobian as it was: np.where over every column and a zero array the block is written into."""
    frames, _, axes = c.fk_frames(q[cols])
    J = np.zeros((3, sys.dof))
    w = axes.T
    J[:, cols] = np.where(c._revolute, kin._cross(w, (frames[-1] - frames[1:-1]).T), w)
    return J


@settings(max_examples=80, deadline=None)
@given(chains=st.lists(st.sampled_from(_bit_test_chains() + (planar_two_link(),)) | _mixed_chains(),
                       min_size=1, max_size=3), data=st.data())
def test_tool_jacobian_bit_identical_to_where_and_zeros_form(chains, data):
    # an all-revolute chain skips np.where, and a chain that spans every column
    # returns its block without the zero array; neither may change a bit
    sys = kin.MultiRobotSystem(chains=tuple(map(_fresh_copy, chains)))
    for q in _configs(data, sys.dof, data.draw(st.integers(1, 3))):
        for chain in range(len(sys.chains)):
            c, cols = kin._chain_columns(sys, chain)
            got = kin._tool_jacobian(sys, c, cols, q)
            want = _tool_jacobian_where_and_zeros(sys, c, cols, q)
            assert got.shape == want.shape == (3, sys.dof)
            assert got.tobytes() == want.tobytes()


def _telescoping_arm():
    """A revolute base, then a prismatic joint between two revolute ones: the
    base joint turns the telescope, whose travel makes most of its reach."""
    return kin.MultiRobotSystem(chains=(kin.SerialChain(
        joints=(kin.Joint((0.0, 0.0, 1.0), kin.REVOLUTE, (0.0, 0.0, 0.2)),
                kin.Joint((1.0, 0.0, 0.0), kin.PRISMATIC, (0.0, 0.0, 0.0)),
                kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.1, 0.0, 0.0))),
        tool=(0.1, 0.0, 0.0), limits=((-np.pi, np.pi), (-1.0, 1.5), (-2.0, 2.0))),))


_SPEED_SYSTEMS = {"transport_a_mini": lambda: _system("transport_a_mini"),
                  "transport_b_mini": lambda: _system("transport_b_mini"),  # arms and the prismatic tray
                  "telescoping_arm": _telescoping_arm}


@pytest.mark.parametrize("name", sorted(_SPEED_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_speed_bounds_bound_the_fd_jacobian_of_every_body_point(name, data):
    sys = _SPEED_SYSTEMS[name]()
    q = np.array([data.draw(st.floats(lo, hi)) for lo, hi in sys.joint_limits()])
    h = 1e-6
    J = np.empty(sys.body_points(q).shape + (sys.dof,))  # (P, 3, dof)
    for j in range(sys.dof):
        dq = np.zeros(sys.dof)
        dq[j] = h
        J[..., j] = (sys.body_points(q + dq) - sys.body_points(q - dq)) / (2.0 * h)
    assert sys.speed_bounds.shape == (len(J),)
    assert (np.linalg.norm(J, ord=2, axis=(1, 2)) <= sys.speed_bounds * (1.0 + 1e-6) + 1e-6).all()


def test_speed_bound_of_a_stretched_planar_arm_is_its_jacobian_norm():
    # at q = 0 the tool Jacobian columns are (0, 2, 0) and (0, 1, 0): norm sqrt(5), the bound
    sys = kin.MultiRobotSystem(chains=(planar_two_link(),))
    tool = sys.tool_rows[0]
    assert sys.speed_bounds[tool] == pytest.approx(np.sqrt(5.0))
    assert sys.speed_bounds[0] == sys.speed_bounds[1] == 0.0  # the base and the first pivot never move


@pytest.mark.parametrize("scene", TRANSPORT_SCENES)
def test_frame_map_of_the_cached_frames_gives_the_body_points(scene):
    sys = _system(scene)
    for q in RNG.uniform(-2.0, 2.0, size=(5, sys.dof)):
        assert np.allclose(sys.frame_map @ sys.cached_frames(q), sys.body_points(q), rtol=0.0, atol=1e-14)

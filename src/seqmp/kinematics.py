"""Serial-chain forward kinematics and the task constraints ``Pick``,
``Handover`` and ``Orientation``, each a ``Manifold`` on one system.

Chains are lists of revolute/prismatic joints given by an axis and a fixed
origin offset. A MultiRobotSystem stacks several chains into one
configuration vector. Constraint Jacobians are analytic: the geometric
Jacobian built from the joint positions and world joint axes of a single
forward-kinematics pass (Siciliano et al., Robotics: Modelling, Planning and
Control, ch. 3). Each chain caches its last ``FK_CACHE_SIZE`` FK passes, so
the value and the Jacobian of a constraint at one configuration share one
pass, and a configuration evaluated again (a node steered from twice, a
projection that lands on a node) costs a lookup; the constraints read the
tool point, R and the joint axes straight from that pass. Collision
sample points of a batch of configurations come from one batched pass over
all of them, which builds every joint rotation of the batch in one broadcast.
Both passes start at the first joint instead of multiplying by the identity
base frame, which gives the same values. Each system also keeps, per
collision sample point, a bound on how fast it moves with q, which the
scene's safety certificates (``Task.clearance``) divide distances by.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields

import numpy as np

from .manifolds import Manifold

REVOLUTE = "revolute"
PRISMATIC = "prismatic"

# FK passes each chain keeps, oldest evicted first; about 0.9 KB an entry
FK_CACHE_SIZE = 512


def _rotation(axis, angle):
    """Rotation matrix about a unit axis (Rodrigues); ``axis`` is a tuple of
    three floats and ``angle`` a float, so every entry is Python float arithmetic."""
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


_I3 = np.eye(3)
_I3.flags.writeable = False


def _cross_matrix(axis):
    """[a]x, the matrix of v -> a x v."""
    x, y, z = axis
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _cross(a, b):
    """Cross product along the first axis of (3, ...) arrays.

    np.cross costs several times more than this for the few vectors of one chain.
    """
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


@dataclass(frozen=True)
class Joint:
    axis: tuple
    type: str = REVOLUTE
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        if not np.isclose(np.linalg.norm(a), 1.0):
            raise ValueError("joint axis must be unit-norm")
        if self.type not in (REVOLUTE, PRISMATIC):
            raise ValueError(f"unknown joint type {self.type!r}")


@dataclass(frozen=True)
class SerialChain:
    """Kinematic chain of joints with a base position and a tool offset."""

    joints: tuple
    base: tuple = (0.0, 0.0, 0.0)
    tool: tuple = (0.0, 0.0, 0.0)
    limits: tuple = None  # per-joint (lo, hi); defaults to (-pi, pi)

    def __post_init__(self):
        if self.limits is not None:
            if len(self.limits) != len(self.joints):
                raise ValueError("limits must match the number of joints")
            for lo, hi in self.limits:
                if lo > hi:
                    raise ValueError("joint limit lo must be <= hi")
        # float arrays of the geometry, converted once instead of on every FK pass
        object.__setattr__(self, "_base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "_tool", np.asarray(self.tool, dtype=float))
        object.__setattr__(self, "_revolute", np.array([j.type == REVOLUTE for j in self.joints], dtype=bool))
        object.__setattr__(self, "_all_revolute", bool(self._revolute.all()))
        rev = np.flatnonzero(self._revolute)
        axes = [np.asarray(j.axis, dtype=float) for j in self.joints]
        # per joint (origin, axis, axis as floats for _rotation, index of its
        # rotation among the revolute joints or None for a prismatic joint)
        index = dict(zip(rev.tolist(), range(len(rev))))
        object.__setattr__(self, "_terms", tuple(
            (np.asarray(j.origin, dtype=float), a, tuple(a.tolist()), index.get(i))
            for i, (j, a) in enumerate(zip(self.joints, axes))))
        # for the batched pass: the revolute columns of Q and their angle-free
        # Rodrigues terms [a]x and a a^T, stacked (r, 3, 3), built once
        object.__setattr__(self, "_rev_cols", rev)
        object.__setattr__(self, "_K", np.array([_cross_matrix(axes[j]) for j in rev]).reshape(-1, 3, 3))
        object.__setattr__(self, "_aa", np.array([np.outer(axes[j], axes[j]) for j in rev]).reshape(-1, 3, 3))
        # configuration bytes -> fk_frames result, in insertion order; each
        # operation on it is one atomic dict operation, so threads may share it
        object.__setattr__(self, "_fk_cache", OrderedDict())

    def __reduce__(self):
        # rebuilt from the fields, so a clone starts with an empty cache
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dof(self):
        return len(self.joints)

    def joint_limits(self):
        if self.limits is not None:
            return np.asarray(self.limits, dtype=float)
        return np.tile([-np.pi, np.pi], (self.dof, 1))

    def speed_bounds(self):
        """Bounds Λ_k >= |∂p_k/∂q|₂ on this chain's collision sample points,
        over every configuration within the joint limits; shape (2 dof + 3,),
        in the row order of ``MultiRobotSystem.body_points``: the dof + 2
        frames, then the dof + 1 link midpoints.

        Link i joins frame i to frame i + 1 (the last link is the tool) and is
        at most its fixed offset long, plus the travel of a prismatic joint i.
        A revolute joint j turns the frames beyond frame j + 1 about it, so
        their Jacobian column j is at most the links in between long; a
        prismatic joint slides frame j + 1 and every one beyond along a unit
        axis. A midpoint's column is the mean of its two frames' columns.
        sqrt(Σ_j bound_j²) bounds the Frobenius norm, hence the 2-norm.
        """
        dof = self.dof
        travel = np.where(self._revolute, 0.0, np.abs(self.joint_limits()).max(axis=1))
        link = np.array([np.linalg.norm(origin) for origin, *_ in self._terms] + [np.linalg.norm(self._tool)])
        link[:dof] += travel
        col = np.zeros((dof, dof + 2))  # bound on column j of each frame's Jacobian
        for j in range(dof):
            if self._revolute[j]:
                col[j, j + 2:] = np.cumsum(link[j + 1:])
            else:
                col[j, j + 1:] = 1.0
        col = np.hstack([col, 0.5 * (col[:, :-1] + col[:, 1:])])
        return np.sqrt((col * col).sum(axis=0))

    def fk_frames(self, q):
        """World positions of the base, each joint frame, and the tool point.

        Returns (positions, R, axes): positions has shape (dof + 2, 3), R is
        the orientation of the tool frame, and axes (dof, 3) holds each
        joint's world axis w_j = R_{j-1} axis_j, the rotation or sliding
        direction the geometric Jacobian needs.

        Results are cached per chain, keyed on the bytes of q, for the last
        ``FK_CACHE_SIZE`` configurations, so evaluating a constraint and its
        Jacobian at one q runs FK once. The returned arrays are the cached
        ones and are read-only.
        """
        q = np.asarray(q, dtype=float)
        key = q.tobytes()
        cache = self._fk_cache
        out = cache.get(key)
        if out is not None:
            return out
        pts = np.empty((self.dof + 2, 3))
        axes = np.empty((self.dof, 3))
        p = pts[0] = self._base
        R = None  # the base frame, the identity, until the first revolute joint
        for j, ((origin, axis, unit, k), qi) in enumerate(zip(self._terms, q.tolist())):
            if R is None:  # a product by the identity gives the same values: skip it
                p = p + origin
                axes[j] = axis
                if k is None:
                    p = p + axis * qi
                else:
                    R = _rotation(unit, qi)
            else:
                p = p + R @ origin
                axes[j] = R @ axis
                if k is None:
                    p = p + R @ (axis * qi)
                else:
                    R = R @ _rotation(unit, qi)
            pts[j + 1] = p
        pts[-1] = p + (self._tool if R is None else R @ self._tool)
        out = (pts, _I3 if R is None else R, axes)
        for a in out:
            a.flags.writeable = False
        cache[key] = out
        if len(cache) > FK_CACHE_SIZE:
            try:
                cache.popitem(last=False)
            except KeyError:  # another thread emptied it first
                pass
        return out

    def fk_frames_batch(self, Q):
        """Frame positions for a batch of configurations Q (n, dof), shape (n, dof + 2, 3).

        The batched form of the positions of ``fk_frames``: the cos and sin
        of every revolute column in one call each, every joint rotation
        c*I + s*[a]x + (1 - c)*a a^T in one broadcast, then one matmul per
        joint for the whole batch, written into one array.
        """
        Q = np.asarray(Q, dtype=float)
        angles = Q[:, self._rev_cols]
        c, s = np.cos(angles)[:, :, None, None], np.sin(angles)[:, :, None, None]
        rot = (c * _I3 + s * self._K) + (1.0 - c) * self._aa
        out = np.empty((Q.shape[0], self.dof + 2, 3))
        p = out[:, 0] = self._base
        R = None  # the identity, until the first revolute joint
        for j, (origin, axis, _, k) in enumerate(self._terms):
            if R is None:  # a product by the identity gives the same values: skip it
                p = p + origin
                if k is None:
                    p = p + axis * Q[:, j, None]
                else:
                    R = rot[:, k]
            else:
                p = p + R @ origin
                if k is None:
                    p = p + (R @ axis) * Q[:, j, None]
                else:
                    R = R @ rot[:, k]
            out[:, j + 1] = p
        out[:, -1] = p + (self._tool if R is None else R @ self._tool)
        return out


@dataclass(frozen=True)
class MultiRobotSystem:
    """Several chains sharing one stacked configuration vector."""

    chains: tuple
    offsets: tuple = field(init=False, default=None)

    def __post_init__(self):
        offs, tool_rows, total, rows = [], [], 0, 0
        for c in self.chains:
            offs.append(total)
            total += c.dof
            tool_rows.append(rows + c.dof + 1)
            rows += 2 * c.dof + 3  # dof + 2 frames, then dof + 1 link midpoints
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "dof", total)
        # row of each chain's tool point in the output of body_points
        object.__setattr__(self, "tool_rows", tuple(tool_rows))
        # per row of body_points, a bound Λ_k on |∂p_k/∂q|₂ (SerialChain.speed_bounds),
        # and the map from the stacked frames of cached_frames to those rows
        speed = np.concatenate([c.speed_bounds() for c in self.chains]) if self.chains else np.zeros(0)
        frame_map = np.zeros((len(speed), sum(c.dof + 2 for c in self.chains)))
        row = col = 0
        for c in self.chains:
            n = c.dof + 2
            frame_map[row:row + n, col:col + n] = np.eye(n)
            for i in range(n - 1):
                frame_map[row + n + i, col + i:col + i + 2] = 0.5
            row, col = row + 2 * n - 1, col + n
        for a in (speed, frame_map):
            a.flags.writeable = False
        object.__setattr__(self, "speed_bounds", speed)
        object.__setattr__(self, "frame_map", frame_map)

    def chain_config(self, q, chain):
        q = np.asarray(q, dtype=float)
        if not 0 <= chain < len(self.chains):
            raise IndexError(f"chain index {chain} out of range")
        lo = self.offsets[chain]
        return q[..., lo:lo + self.chains[chain].dof]

    def joint_limits(self):
        return np.vstack([c.joint_limits() for c in self.chains])

    def body_points(self, q):
        """Collision sample points: every joint frame plus link midpoints.

        For one configuration q (k,) the shape is (P, 3); for a batch q
        (n, k) it is (n, P, 3), computed by one batched FK pass per chain.
        Per chain the rows are its dof + 2 frames (base, joints, tool; the
        tool at ``tool_rows[chain]``) followed by its dof + 1 link midpoints.
        """
        q = np.asarray(q, dtype=float)
        Q = np.atleast_2d(q)
        pts = []
        for chain, lo in zip(self.chains, self.offsets):
            frames = chain.fk_frames_batch(Q[:, lo:lo + chain.dof])
            pts.append(frames)
            pts.append(0.5 * (frames[:, :-1] + frames[:, 1:]))
        out = np.concatenate(pts, axis=1)
        return out[0] if q.ndim == 1 else out

    def cached_frames(self, q):
        """Every chain's frame positions at one configuration q (k,), stacked
        in chain order, from the chains' cached scalar ``fk_frames`` passes.
        ``frame_map @ cached_frames(q)`` is ``body_points(q)`` to rounding."""
        return np.concatenate([c.fk_frames(q[lo:lo + c.dof])[0] for c, lo in zip(self.chains, self.offsets)])


def tool_point(sys, chain, q):
    """World position of one chain's tool point at the stacked configuration
    q, read (read-only) from the chain's cached FK pass."""
    return sys.chains[chain].fk_frames(sys.chain_config(q, chain))[0][-1]


def _chain_columns(sys, chain):
    """One chain of ``sys`` and the slice of its columns in the stacked configuration."""
    if not 0 <= chain < len(sys.chains):
        raise IndexError(f"chain index {chain} out of range")
    c = sys.chains[chain]
    lo = sys.offsets[chain]
    return c, slice(lo, lo + c.dof)


def _in_columns(sys, cols, block):
    """``block`` in the columns ``cols`` of an (l, sys.dof) array of zeros, or
    ``block`` itself when those columns are all of them."""
    if block.shape[1] == sys.dof:
        return block
    J = np.zeros((block.shape[0], sys.dof))
    J[:, cols] = block
    return J


def _tool_jacobian(sys, c, cols, q):
    """Geometric Jacobian of chain c's tool point, in its columns ``cols`` of a (3, sys.dof) array.

    Revolute column w_j x (p_tool - o_j), prismatic column w_j, from one FK pass.
    """
    frames, _, axes = c.fk_frames(q[cols])
    w = axes.T
    block = _cross(w, (frames[-1] - frames[1:-1]).T)
    if not c._all_revolute:
        block = np.where(c._revolute, block, w)
    return _in_columns(sys, cols, block)


class Pick(Manifold):
    """Constraint pinning the end effector of one chain to a world point x_g."""

    def __init__(self, sys, chain, x_g, name=None):
        super().__init__(sys.dof, 3, f"pick[{chain}]" if name is None else name)
        self.sys, self.x_g = sys, np.asarray(x_g, dtype=float)
        self.c, self.cols = _chain_columns(sys, chain)

    def h(self, q):
        return self.x_g - self.c.fk_frames(q[self.cols])[0][-1]

    def jacobian(self, q):
        return -_tool_jacobian(self.sys, self.c, self.cols, q)


class Handover(Manifold):
    """Constraint that two end effectors coincide."""

    def __init__(self, sys, chain1, chain2, name=None):
        super().__init__(sys.dof, 3, f"handover[{chain1},{chain2}]" if name is None else name)
        self.sys = sys
        self.c1, self.cols1 = _chain_columns(sys, chain1)
        self.c2, self.cols2 = _chain_columns(sys, chain2)

    def h(self, q):
        return self.c1.fk_frames(q[self.cols1])[0][-1] - self.c2.fk_frames(q[self.cols2])[0][-1]

    def jacobian(self, q):
        return _tool_jacobian(self.sys, self.c1, self.cols1, q) - _tool_jacobian(self.sys, self.c2, self.cols2, q)


class Orientation(Manifold):
    """Alignment constraint: tool z-axis dotted with e_z equals 1 (residual in [-2, 0])."""

    def __init__(self, sys, chain, e_z=(0.0, 0.0, 1.0), name=None):
        super().__init__(sys.dof, 1, f"upright[{chain}]" if name is None else name)
        self.sys, self.e_z = sys, np.asarray(e_z, dtype=float)
        self.c, self.cols = _chain_columns(sys, chain)

    def h(self, q):
        _, R, _ = self.c.fk_frames(q[self.cols])
        return np.array([R[:, 2] @ self.e_z - 1.0])

    def jacobian(self, q):
        # d(R e_z')/dq_j = w_j x (R e_z') for a revolute joint, and
        # (w_j x a) . e_z = w_j . (a x e_z); a prismatic joint does not rotate
        c = self.c
        _, R, axes = c.fk_frames(q[self.cols])
        row = axes @ _cross(R[:, 2], self.e_z)
        if not c._all_revolute:
            row = np.where(c._revolute, row, 0.0)
        return _in_columns(self.sys, self.cols, row[None])

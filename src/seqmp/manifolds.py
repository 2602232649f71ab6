"""Implicit constraint manifolds: evaluation, Jacobians, projection, tangent bases.

A manifold is the zero level set of a smooth map h: R^k -> R^l with l <= k.
All operations are pure functions on immutable manifold objects, so they are
safe to share between planner runs.
"""
from __future__ import annotations

import math

import numpy as np

# singular values at or below SV_TOL times the largest count as zero
SV_TOL = 1e-9
MAX_PROJECT_ITERS = 200
DIVERGENCE_PATIENCE = 10


class Manifold:
    """Base class for an implicit constraint h(q) = 0.

    Subclasses must set ``ambient_dim`` and ``codim`` and implement ``h``
    and its analytic ``jacobian``; ``fd_jacobian`` is the finite-difference
    check of the latter.
    """

    name = "manifold"

    def __init__(self, ambient_dim, codim, name=None):
        # Stacked constraints (intersections) may be overdetermined, so codim
        # is only required to be positive, not bounded by the ambient dim.
        if codim < 1 or ambient_dim < 1:
            raise ValueError(f"need k >= 1 and l >= 1, got l={codim}, k={ambient_dim}")
        self.ambient_dim = int(ambient_dim)
        self.codim = int(codim)
        if name is not None:
            self.name = name

    def h(self, q):
        raise NotImplementedError

    def jacobian(self, q):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(k={self.ambient_dim}, l={self.codim}, name={self.name!r})"


def norm(v):
    """Euclidean norm of a 1-D real vector, equal bit for bit to
    ``np.linalg.norm(v)``, which takes the same ``sqrt(v.dot(v))``."""
    return math.sqrt(v.dot(v))


def evaluate(m, q):
    """Evaluate the constraint residual h(q), shape (l,)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (m.ambient_dim,):
        raise ValueError(f"configuration has shape {q.shape}, expected ({m.ambient_dim},)")
    out = m.h(q)
    if type(out) is not np.ndarray or out.dtype != np.float64 or out.ndim != 1:
        out = np.atleast_1d(np.asarray(out, dtype=float))
    if out.shape != (m.codim,):
        raise ValueError(f"constraint {m.name} returned shape {out.shape}, expected ({m.codim},)")
    return out


def fd_jacobian(m, q, step=1e-5):
    """Central finite-difference Jacobian of ``m.h`` at ``q``, shape (l, k)."""
    q = np.asarray(q, dtype=float)
    if step <= 0:
        raise ValueError("step must be positive")
    J = np.empty((m.codim, m.ambient_dim))
    for j in range(m.ambient_dim):
        dq = np.zeros_like(q)
        dq[j] = step
        J[:, j] = (np.atleast_1d(m.h(q + dq)) - np.atleast_1d(m.h(q - dq))) / (2.0 * step)
    return J


def newton_step(J, h):
    """Minimum-norm solution s of J s = h, the step ``pinv(J, rcond=SV_TOL) @ h``.

    A one-row J = g^T gives the closed form g (g.h) / (g.g), and zero when
    g = 0. More rows go to LAPACK's least squares (gelsd), which drops the
    singular values <= SV_TOL times the largest, the cut-off pinv uses, so
    overdetermined stacks and singular poses take the same step.
    """
    if J.shape[0] == 1:
        g = J[0]
        gg = g @ g
        if gg == 0.0:
            return np.zeros_like(g)
        return g * (h[0] / gg)
    return np.linalg.lstsq(J, h, rcond=SV_TOL)[0]


def tangent_component(g, d):
    """Projection of d onto the tangent space null(g^T) of a one-row constraint.

    Returns d - g (g.d) / (g.g), or d itself when g = 0: the vector B B^T d
    that the basis B of ``tangent_nullspace`` gives, without building B.
    """
    gg = g @ g
    if gg == 0.0:
        return d
    return d - g * ((g @ d) / gg)


def project(q, m, eps):
    """Newton-style projection of ``q`` onto the manifold ``m``.

    Iterates q <- q - s with s the minimum-norm solution of J(q) s = h(q)
    (``newton_step``: closed form for one row, least squares otherwise)
    until ||h(q)|| <= eps, for at most ``MAX_PROJECT_ITERS`` steps. Returns
    the projected configuration, or None when the iteration does not
    converge (the caller discards the sample).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = np.array(q, dtype=float)
    res = evaluate(m, q)
    res_norm = norm(res)
    if res_norm <= eps:
        return q
    increases = 0
    for _ in range(MAX_PROJECT_ITERS):
        J = np.asarray(m.jacobian(q), dtype=float)
        try:
            step = newton_step(J, res)
        except np.linalg.LinAlgError:
            return None
        q = q - step
        if not np.all(np.isfinite(q)):
            return None
        res = evaluate(m, q)
        new_norm = norm(res)
        if not math.isfinite(new_norm):
            return None
        if new_norm <= eps:
            return q
        if new_norm >= res_norm:
            increases += 1
            if increases >= DIVERGENCE_PATIENCE:
                return None
        else:
            increases = 0
        res_norm = new_norm
    return None


def tangent_nullspace(m, q):
    """Orthonormal basis of the tangent space null(J(q)), shape (k, k - rank).

    Rank is the number of singular values above ``SV_TOL`` times the largest.
    A zero Jacobian yields the full identity basis. This takes a full SVD;
    a one-row constraint that only needs B B^T d has ``tangent_component``.
    """
    J = np.asarray(m.jacobian(q), dtype=float)
    _, s, Vt = np.linalg.svd(J, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(m.ambient_dim)
    rank = int(np.sum(s > SV_TOL * s[0]))
    return Vt[rank:].T


class Paraboloid(Manifold):
    """h(q) = coeff * (q1^2 + q2^2) + offset - q3 in R^3."""

    def __init__(self, coeff, offset, name="paraboloid"):
        super().__init__(3, 1, name)
        self.coeff = float(coeff)
        self.offset = float(offset)

    def h(self, q):
        return np.array([self.coeff * (q[0] ** 2 + q[1] ** 2) + self.offset - q[2]])

    def jacobian(self, q):
        return np.array([[2.0 * self.coeff * q[0], 2.0 * self.coeff * q[1], -1.0]])


class Cylinder(Manifold):
    """h(q) = coeff * (q1^2 + q2^2) - rhs in R^3 (axis-aligned with z)."""

    def __init__(self, coeff, rhs, name="cylinder"):
        super().__init__(3, 1, name)
        self.coeff = float(coeff)
        self.rhs = float(rhs)

    def h(self, q):
        return np.array([self.coeff * (q[0] ** 2 + q[1] ** 2) - self.rhs])

    def jacobian(self, q):
        return np.array([[2.0 * self.coeff * q[0], 2.0 * self.coeff * q[1], 0.0]])


class PointGoal(Manifold):
    """h(q) = q - target; the goal manifold for a fixed configuration."""

    def __init__(self, target, name="goal_point"):
        target = np.asarray(target, dtype=float)
        super().__init__(target.size, target.size, name)
        self.target = target

    def h(self, q):
        return q - self.target

    def jacobian(self, q):
        return np.eye(self.ambient_dim)


class AffinePlane(Manifold):
    """Linear constraint h(q) = A q - b."""

    def __init__(self, A, b, name="plane"):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        super().__init__(A.shape[1], A.shape[0], name)
        self.A = A
        self.b = b

    def h(self, q):
        return self.A @ q - self.b

    def jacobian(self, q):
        return self.A


class Intersection(Manifold):
    """Stack of two constraints: h = [h1; h2], the manifold M1 ∩ M2.

    Each part's ``h`` returns an (l_i,) and its ``jacobian`` an (l_i, k) array.
    """

    def __init__(self, first, second, name=None):
        if first.ambient_dim != second.ambient_dim:
            raise ValueError("intersecting manifolds must share the ambient dimension")
        if name is None:
            name = f"{first.name}&{second.name}"
        super().__init__(first.ambient_dim, first.codim + second.codim, name)
        self.first = first
        self.second = second

    def h(self, q):
        return np.concatenate((self.first.h(q), self.second.h(q)))

    def jacobian(self, q):
        return np.concatenate((self.first.jacobian(q), self.second.jacobian(q)))

"""Implicit constraint manifolds: evaluation, Jacobians, projection, tangent bases.

A manifold is the zero level set of a smooth map h: R^k -> R^l with l <= k.
All operations are pure functions on immutable manifold objects, so they are
safe to share between planner runs. Projection and steering run a one-row
constraint on Python floats through its ``residual`` and ``residual_gradient``,
since on a short vector numpy's per-call overhead costs more than the arithmetic;
so does the projection onto a crossing of two one-row constraints, whose Newton
step solves the 2x2 Gram system in closed form.
"""
from __future__ import annotations

import math
import operator

import numpy as np

# singular values at or below SV_TOL times the largest count as zero
SV_TOL = 1e-9
MAX_PROJECT_ITERS = 200
DIVERGENCE_PATIENCE = 10
# a two-row float Newton step takes Cramer's rule on G = J J^T while det G > GRAM_TOL (tr G)^2:
# then J's squared singular value ratio exceeds GRAM_TOL, far above SV_TOL's cut (1e-18)
GRAM_TOL = 1e-6


class Manifold:
    """Base class for an implicit constraint h(q) = 0.

    Subclasses must set ``ambient_dim`` and ``codim`` and implement ``h`` and its analytic
    ``jacobian`` (``fd_jacobian`` is the finite-difference check of the latter); a one-row
    subclass of ``FloatRow`` implements ``residual_gradient`` instead.
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

    def residual(self, xs):
        """h of a one-row constraint at the k floats ``xs``, as a float; here read from ``h``."""
        return float(evaluate(self, np.array(xs, dtype=float))[0])

    def residual_gradient(self, xs):
        """(h, g) of a one-row constraint at the k floats ``xs``, as floats; here read from ``h`` and ``jacobian``."""
        q = np.array(xs, dtype=float)
        return float(evaluate(self, q)[0]), np.asarray(self.jacobian(q), dtype=float)[0].tolist()

    def __repr__(self):
        return f"{type(self).__name__}(k={self.ambient_dim}, l={self.codim}, name={self.name!r})"


def norm(v):
    """Euclidean norm of a 1-D real vector, equal bit for bit to
    ``np.linalg.norm(v)``, which takes the same BLAS dot, ``sqrt(v.dot(v))``.
    ``np.vdot`` raises no floating-point warning: past the float range the
    norm is inf, silently."""
    return math.sqrt(np.vdot(v, v))


def dot(a, b):
    """a.b of two sequences of floats, summed on Python floats by the built-in ``sum``."""
    return sum(map(operator.mul, a, b))


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

    LAPACK's least squares (gelsd) drops the singular values <= SV_TOL times
    the largest, the cut-off pinv uses, so overdetermined stacks and singular
    poses take the same step.
    """
    return np.linalg.lstsq(J, h, rcond=SV_TOL)[0]


def _float_rows(m):
    """The one-row constraints ``project`` runs m on as Python floats: (m,) for one row,
    the parts of an ``Intersection`` of two one-row constraints; else None."""
    if m.codim == 1:
        return (m,)
    return (m.first, m.second) if m.codim == 2 and isinstance(m, Intersection) and m.first.codim == 1 else None


def _residual(m, x, rows):
    """||h|| at x and h itself: a list of floats for float rows (x a list), else an array."""
    if rows is None:
        res = evaluate(m, x)
        return norm(res), res
    h = [r.residual(x) for r in rows]
    return (abs(h[0]) if len(h) == 1 else math.sqrt(dot(h, h))), h  # |h| is what sqrt(h h) rounds to


def residual_norm(m, q):
    """||h(q)|| of a configuration array q, on floats for float rows (``_residual``)."""
    rows = _float_rows(m)
    return _residual(m, q if rows is None else q.tolist(), rows)[0]


def _float_step(gs, h):
    """The Newton step of one or two gradient rows gs (lists of floats) at the residuals h:
    g h / (g.g), zero when g = 0; or y1 g1 + y2 g2 with the Gram system [g_i.g_j] y = h solved
    by Cramer's rule, ``newton_step``'s below ``GRAM_TOL``. An overflow gives inf, not a warning."""
    if len(gs) == 1:
        gg = dot(gs[0], gs[0])
        y = h[0] / gg if gg else 0.0
        return [gi * y for gi in gs[0]]
    g1, g2 = gs
    a11, a12, a22 = dot(g1, g1), dot(g1, g2), dot(g2, g2)
    det = a11 * a22 - a12 * a12
    if not det > GRAM_TOL * (a11 + a22) * (a11 + a22):
        return newton_step(np.array(gs), np.array(h)).tolist()
    y1, y2 = (h[0] * a22 - h[1] * a12) / det, (h[1] * a11 - h[0] * a12) / det
    return [y1 * u + y2 * v for u, v in zip(g1, g2)]


def _newton(m, x, res, rows):
    """The Newton iterate after x, None off the finite floats: ``_float_step`` of the
    ``residual_gradient`` rows for float rows, else ``newton_step``."""
    try:
        if rows is None:
            x = x - newton_step(np.asarray(m.jacobian(x), dtype=float), res)
            return x if np.isfinite(x).all() else None
        s = _float_step([r.residual_gradient(x)[1] for r in rows], res)
    except np.linalg.LinAlgError:
        return None
    x = [xi - si for xi, si in zip(x, s)]
    return x if all(map(math.isfinite, x)) else None


def project(q, m, eps):
    """Newton-style projection of ``q`` onto the manifold ``m``.

    Iterates q <- q - s with s the minimum-norm solution of J(q) s = h(q)
    until ||h(q)|| <= eps, for at most ``MAX_PROJECT_ITERS`` steps, giving up
    after ``DIVERGENCE_PATIENCE`` steps in a row that do not lower the
    residual. One row, and a crossing of two one-row constraints, run on Python
    floats (``residual``, ``residual_gradient``, ``_float_step``); other systems
    take ``newton_step``. Returns the projected configuration as a
    new array, or None when the iteration does not converge (the caller
    discards the sample); an iterate or residual that leaves the finite
    floats ends as None without a floating-point warning.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = np.array(q, dtype=float)
    if q.shape != (m.ambient_dim,):
        raise ValueError(f"configuration has shape {q.shape}, expected ({m.ambient_dim},)")
    rows = _float_rows(m)
    x = q if rows is None else q.tolist()
    res_norm, res = _residual(m, x, rows)
    if res_norm <= eps:
        return q
    increases = 0
    for _ in range(MAX_PROJECT_ITERS):
        x = _newton(m, x, res, rows)
        if x is None:
            return None
        new_norm, res = _residual(m, x, rows)
        if not math.isfinite(new_norm):
            return None
        if new_norm <= eps:
            return np.asarray(x, dtype=float)
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
    ``steering.steer_point`` takes B B^T d of a one-row constraint without it.
    """
    J = np.asarray(m.jacobian(q), dtype=float)
    _, s, Vt = np.linalg.svd(J, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(m.ambient_dim)
    rank = int(np.sum(s > SV_TOL * s[0]))
    return Vt[rank:].T


class FloatRow(Manifold):
    """A one-row constraint whose ``h`` and ``jacobian`` are read from its Python-float ``residual_gradient``."""

    def h(self, q):
        return np.array([self.residual_gradient(q.tolist())[0]])

    def jacobian(self, q):
        return np.array([self.residual_gradient(q.tolist())[1]])

    def residual(self, xs):
        return self.residual_gradient(xs)[0]


class Paraboloid(FloatRow):
    """h(q) = coeff * (q1^2 + q2^2) + offset - q3 in R^3.

    A square is ``x * x``, the correctly rounded square, which gives inf past
    the float range where ``x ** 2`` raises OverflowError.
    """

    def __init__(self, coeff, offset, name="paraboloid"):
        super().__init__(3, 1, name)
        self.coeff = float(coeff)
        self.offset = float(offset)

    def residual_gradient(self, xs):
        x, y, z = xs
        return self.coeff * (x * x + y * y) + self.offset - z, [2.0 * self.coeff * x, 2.0 * self.coeff * y, -1.0]


class Cylinder(FloatRow):
    """h(q) = coeff * (q1^2 + q2^2) - rhs in R^3 (axis-aligned with z)."""

    def __init__(self, coeff, rhs, name="cylinder"):
        super().__init__(3, 1, name)
        self.coeff = float(coeff)
        self.rhs = float(rhs)

    def residual_gradient(self, xs):
        x, y, _ = xs
        return self.coeff * (x * x + y * y) - self.rhs, [2.0 * self.coeff * x, 2.0 * self.coeff * y, 0.0]


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

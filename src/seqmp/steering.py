"""Tree extension directions on a constraint manifold.

Two strategies: steer toward a sampled target while staying tangent to the
current manifold, or steer toward the intersection with the next manifold
by descending its residual inside the current tangent space. The dispatcher
takes a fixed-length step and projects either back onto the current
manifold or onto the intersection, with a randomized closeness threshold.

What depends on the tree node alone is memoised per node by the planner's
tree: the tangent basis of a manifold with two or more rows, the constraint
step, and which targets each kept step was tried on: each (node, step,
target) is tried once. On a curve (a one-column basis b) every step goes
along +b or -b, so a point steer and a constraint steer share at most two
steps per node, each projected at most once per target.
"""
from __future__ import annotations

import numpy as np

from .manifolds import SV_TOL, Intersection, dot, evaluate, norm, project, residual_norm, tangent_nullspace

ZERO_DIRECTION_TOL = 1e-12


def steer_point(q_near, q_rand, m, basis=None):
    """Orthogonal projection of d = q_rand - q_near onto the tangent space at q_near.

    A one-row constraint takes the closed form d - g (g.d) / (g.g), d itself
    when g = 0, on Python floats from the gradient g of its
    ``residual_gradient``; more rows take B B^T d with ``basis``, the tangent
    basis B at q_near, which defaults to the one ``tangent_nullspace`` computes.
    """
    q_near = np.asarray(q_near, dtype=float)
    d = np.asarray(q_rand, dtype=float) - q_near
    if m.codim == 1:
        (_, g), ds = m.residual_gradient(q_near.tolist()), d.tolist()
        gg = dot(g, g)
        s = dot(g, ds) / gg if gg else 0.0
        return np.array([di - gi * s for di, gi in zip(ds, g)])
    B = tangent_nullspace(m, q_near) if basis is None else basis
    return B @ (B.T @ d)


def steer_constraint(q_near, m_i, m_next, basis=None):
    """Descent direction toward the next manifold inside the tangent space of m_i.

    Solves min ||h_next + J_next d||^2 subject to J_i d = 0 via the tangent
    basis B of m_i at q_near (``basis``, which defaults to the one
    ``tangent_nullspace`` computes); a rank-deficient system falls back to
    least squares.
    """
    q_near = np.asarray(q_near, dtype=float)
    B = tangent_nullspace(m_i, q_near) if basis is None else basis
    if B.shape[1] == 0:
        return np.zeros_like(q_near)
    h_next = evaluate(m_next, q_near)
    J_next = np.asarray(m_next.jacobian(q_near), dtype=float)
    z, *_ = np.linalg.lstsq(J_next @ B, -h_next, rcond=SV_TOL)
    return B @ z


def _alpha_step(params, q_near, d, m_next):
    """The configuration ``alpha`` from q_near along d, built on Python floats, with
    its m_next ``residual_norm``; None when d is (numerically) zero."""
    d_norm = norm(d)
    if d_norm < ZERO_DIRECTION_TOL:
        return None
    q_new = np.array([x + params.alpha * di / d_norm for x, di in zip(q_near.tolist(), d.tolist())])
    return q_new, residual_norm(m_next, q_new)


def _side(b, d):
    """1.0 or -1.0, the sign of b.d; None when |b.d| is (numerically) zero."""
    dot = float(b @ d)
    if abs(dot) < ZERO_DIRECTION_TOL:
        return None
    return 1.0 if dot > 0.0 else -1.0


def psm_steer(params, q_near, q_rand, m_i, m_next, rng, memo=None):
    """One steering attempt from a tree node on m_i, with the ``alpha``,
    ``beta``, ``r`` and ``eps`` of ``params`` (a ``PlannerParams``).

    With probability beta uses constraint-directed steering, otherwise steers
    toward q_rand. Takes a step of length exactly alpha, then projects onto
    the intersection m_i ∩ m_next when the residual of m_next falls below a
    Uniform(0, r) draw, else back onto m_i, to eps. Returns the projected
    configuration or None (sample discarded). Both RNG draws are always
    consumed so that seed streams stay reproducible.

    ``memo`` is the dict the planner's tree keeps for the node q_near (a fresh
    one when None). It holds what depends on the node alone:

    - ``"basis"``: the tangent basis B of m_i at q_near, when m_i has two or
      more rows (one SVD per node, not one per steer);
    - on a curve (B has one column b): a point steer goes along
      ``sign(b.(q_rand - q_near)) b`` and a constraint steer along
      ``sign(b.d) b``, d from ``steer_constraint``, whose sign is kept under
      ``"side"``; a zero dot product returns None. Both kinds share the step
      kept under its sign (1.0 or -1.0) with its m_next residual;
    - off curves: the constraint step with its m_next residual under
      ``"constraint"``; a point steer depends on q_rand and keeps nothing;
    - ``(step key, onto_next)`` once a kept step has been tried on its target
      (onto_next True: m_i ∩ m_next).

    Each (node, step, target) is tried once: a repeat returns None, since its
    projection was inserted the first time (so it is now a twin), or was
    None, a twin, out of bounds or collided from this node, and each of
    those holds again. On a curve that is at most four projections per node
    over any number of steers.
    """
    q_near = np.asarray(q_near, dtype=float)
    use_constraint = rng.random() < params.beta
    threshold = rng.uniform(0.0, params.r)
    if memo is None:
        memo = {}
    if m_i.codim > 1 and "basis" not in memo:
        memo["basis"] = tangent_nullspace(m_i, q_near)
    B = memo.get("basis")
    if B is not None and B.shape[1] == 1:  # a curve: every step goes along +b or -b
        b = B[:, 0]
        if use_constraint and "side" not in memo:
            memo["side"] = _side(b, steer_constraint(q_near, m_i, m_next, B))
        key = memo["side"] if use_constraint else _side(b, np.asarray(q_rand, dtype=float) - q_near)
        if key is None:
            return None
        if key not in memo:
            memo[key] = _alpha_step(params, q_near, key * b, m_next)
    elif use_constraint:
        key = "constraint"
        if key not in memo:
            memo[key] = _alpha_step(params, q_near, steer_constraint(q_near, m_i, m_next, B), m_next)
    else:  # a point steer off a curve depends on q_rand: its step and mark last one call
        key, memo = "point", {"point": _alpha_step(params, q_near, steer_point(q_near, q_rand, m_i, B), m_next)}
    step = memo[key]
    if step is None:
        return None
    onto_next = step[1] < threshold
    if (key, onto_next) in memo:
        return None
    memo[key, onto_next] = True
    return project(step[0], Intersection(m_i, m_next) if onto_next else m_i, params.eps)

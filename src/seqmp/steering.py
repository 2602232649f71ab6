"""Tree extension directions on a constraint manifold.

Two strategies: steer toward a sampled target while staying tangent to the
current manifold, or steer toward the intersection with the next manifold
by descending its residual inside the current tangent space. The dispatcher
takes a fixed-length step and projects either back onto the current
manifold or onto the intersection, with a randomized closeness threshold.
"""
from __future__ import annotations

import numpy as np

from .manifolds import Intersection, evaluate, norm, project, tangent_component, tangent_nullspace

ZERO_DIRECTION_TOL = 1e-12
KKT_RCOND = 1e-9


def steer_point(q_near, q_rand, m):
    """Orthogonal projection of (q_rand - q_near) onto the tangent space at q_near.

    A one-row constraint takes the closed form of ``tangent_component``;
    more rows take B B^T d with the basis B of ``tangent_nullspace``.
    """
    q_near = np.asarray(q_near, dtype=float)
    d = np.asarray(q_rand, dtype=float) - q_near
    if m.codim == 1:
        return tangent_component(np.asarray(m.jacobian(q_near), dtype=float)[0], d)
    B = tangent_nullspace(m, q_near)
    return B @ (B.T @ d)


def steer_constraint(q_near, m_i, m_next):
    """Descent direction toward the next manifold inside the tangent space of m_i.

    Solves min ||h_next + J_next d||^2 subject to J_i d = 0 via the tangent
    basis of m_i; a rank-deficient system falls back to least squares.
    """
    q_near = np.asarray(q_near, dtype=float)
    B = tangent_nullspace(m_i, q_near)
    if B.shape[1] == 0:
        return np.zeros_like(q_near)
    h_next = evaluate(m_next, q_near)
    J_next = np.asarray(m_next.jacobian(q_near), dtype=float)
    z, *_ = np.linalg.lstsq(J_next @ B, -h_next, rcond=KKT_RCOND)
    return B @ z


def psm_steer(params, q_near, q_rand, m_i, m_next, rng, info=None):
    """One steering attempt from a tree node on m_i, with the ``alpha``,
    ``beta``, ``r``, ``eps`` and ``max_project_iters`` of ``params`` (a
    ``PlannerParams``).

    With probability beta uses constraint-directed steering, otherwise steers
    toward q_rand. Takes a step of length exactly alpha, then projects onto
    the intersection m_i ∩ m_next when the residual of m_next falls below a
    Uniform(0, r) draw, else back onto m_i, to eps. Returns the projected
    configuration or None (sample discarded). Both RNG draws are always
    consumed so that seed streams stay reproducible.
    """
    q_near = np.asarray(q_near, dtype=float)
    use_constraint = rng.random() < params.beta
    threshold = rng.uniform(0.0, params.r)
    if use_constraint:
        d = steer_constraint(q_near, m_i, m_next)
    else:
        d = steer_point(q_near, q_rand, m_i)
    if info is not None:
        info["used_constraint_steer"] = use_constraint
        info["threshold"] = threshold
    d_norm = norm(d)
    if d_norm < ZERO_DIRECTION_TOL:
        return None
    q_new = q_near + params.alpha * d / d_norm
    to_intersection = norm(evaluate(m_next, q_new)) < threshold
    if info is not None:
        info["projected_intersection"] = to_intersection
        info["q_before_projection"] = q_new.copy()
    if to_intersection:
        return project(q_new, Intersection(m_i, m_next), params.eps, params.max_project_iters)
    return project(q_new, m_i, params.eps, params.max_project_iters)

"""Planners over a fixed sequence of constraint manifolds.

The four planners share one core: ``_Run`` holds a run's set-up (start
check, RNG, sampling bounds, RRT* gamma), ``_Run.extend`` is the one RRT*
step every tree grows by (nearest -> steer -> in-bounds check ->
``rrt_star_extend``), and ``_stitch`` builds every ``SolutionPath``. An
extend skips the work whose outcome is already fixed:

- each tree keeps a steer memo per node (``Tree.memo``) of what its steers
  compute from the node alone: for ``psm_steer`` the tangent basis on a
  manifold with two or more rows, the constraint step, and on a curve the
  steps along +b and -b that every steer there takes, each step with its
  projections; for ``rrtstar-ik`` the step toward its IK goal. A repeat
  costs no projection; the memos die with their tree;
- a result a node's memo keeps reaches ``rrt_star_extend`` once: a repeat
  is a twin, out of bounds or collides again (``_handed_out_before``);
- ``rrt_star_extend`` drops a q_new that duplicates a node of the tree
  before its first segment check, on the one distance pass
  (``Tree._distances``) that also gives the neighbours and the costs through
  them, and checks each (node, q_new) segment at most once;
- a robot segment shorter than the sum of its endpoints' clearance radii
  (``Task.clearance``, computed once per configuration and free space) is
  free without the sampled test (``_CertifiedCheck``).

A planner is a choice of policies on top of that core:

- sampler: uniform, or biased toward a fixed IK goal (``rrtstar-ik``);
- steer: ``psm_steer``, or one tangent step plus projection (``rrtstar-ik``);
- node label: each node's phase (manifold index), plus for the single tree
  the manifolds it lies on, since that tree joins only nodes sharing one;
- goal and seeding: the intersection nodes kept ``rho`` (the intersection
  spacing) apart all seed the next subtree (``psm``) or only the cheapest
  does (``psm-greedy``), the goal-manifold nodes of one tree over the whole
  sequence (``psm-single``), or the cheapest connection to the IK goal
  (``rrtstar-ik``). PSM*'s "cheapest" (``_cheapest``) is the lowest id among
  costs a few ulps apart, so their last bits do not pick the node.

Every planner is deterministic for a fixed (task, params, seed).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .manifolds import Intersection, evaluate, norm, project, residual_norm
from .steering import ZERO_DIRECTION_TOL, psm_steer, steer_point

IK_RETRIES = 100
IK_GOAL_BIAS = 0.1
# a q_new within DUPLICATE_TOL * eps of a node of its tree is that node again
DUPLICATE_TOL = 1e-6
# the steer-memo key under which ``_Run.extend`` marks the kept results it has handed out
_HANDED_OUT = "handed_out"
# goal and seed costs this many ulps of the least or fewer above it tie with it (``_cheapest``)
COST_TIE_ULPS = 4


@dataclass(frozen=True)
class PlannerParams:
    alpha: float = 1.0
    beta: float = 0.1
    eps: float = 0.01
    rho: float = 0.1
    r: float = 1.5
    m: int = 1200
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "eps", "rho", "r"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("m", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")


class PlanningFailure(Exception):
    """Raised when a planner run ends without reaching the goal manifold."""

    def __init__(self, phase, message=None):
        self.phase = phase
        super().__init__(message or f"no intersection node found in phase {phase}")


@dataclass
class SolutionPath:
    """Ordered configurations with per-manifold segment boundaries."""

    configs: np.ndarray  # (N, k)
    segment_bounds: list  # vertex indices where the manifold index increments
    total_cost: float

    def segments(self):
        """Vertex index ranges (start, stop inclusive) of each manifold segment."""
        starts = [0] + list(self.segment_bounds)
        stops = list(self.segment_bounds) + [len(self.configs) - 1]
        return list(zip(starts, stops))

    def polyline_length(self):
        return polyline_length(self.configs)


def polyline_length(configs):
    """Summed Euclidean length of the edges between consecutive configurations."""
    return float(np.sum(np.linalg.norm(np.diff(configs, axis=0), axis=1)))


class Tree:
    """Search forest with parent links and costs-to-root.

    A node with parent -1 is a root: the start, or an intersection seed of a
    new subtree, which keeps the cost it had in the tree before.
    """

    def __init__(self, dim):
        self.dim = dim
        # the configurations column-major, (dim, capacity), so a query's
        # distance pass runs over contiguous rows
        self._cols = np.empty((dim, 0))
        self.parent = []
        self.cost = []
        self.children = []
        self.phase = []  # manifold index a node lives on
        self.on = []     # tuple of manifold indices the node satisfies
        self.memo = []   # the steer memo dict of a node, None until a steer stores something

    def __len__(self):
        return len(self.parent)

    @property
    def configs(self):
        return self._cols[:, :len(self.parent)].T

    def config(self, i):
        return self._cols[:, i]

    def add(self, config, parent, cost, phase=0, on=()):
        i = len(self.parent)
        if i == self._cols.shape[1]:
            cols = np.empty((self.dim, max(64, 2 * i)))
            cols[:, :i] = self._cols[:, :i]
            self._cols = cols
        self._cols[:, i] = config
        self.parent.append(parent)
        self.cost.append(cost)
        self.children.append([])
        self.phase.append(phase)
        self.on.append(tuple(on))
        self.memo.append(None)
        if parent >= 0:
            self.children[parent].append(i)
        return i

    def _distances(self, q, ids=None):
        """Distance from q to every node, or to the nodes ``ids`` only.

        The one distance the planner compares. The squares are summed in
        coordinate order, ((d0^2 + d1^2) + d2^2) + ..., an order that depends
        neither on the CPU's SIMD width nor on a BLAS kernel, so the distance
        to a node is the same bits whichever nodes a pass covers.
        """
        d = self._cols[:, :len(self.parent)] if ids is None else self._cols[:, ids]
        d = d - np.asarray(q)[:, None]
        d *= d
        dist = d[0]
        for k in range(1, self.dim):
            dist += d[k]
        return np.sqrt(dist, out=dist)

    def nearest(self, q):
        if not self.parent:
            raise ValueError("nearest query on an empty tree")
        return int(self._distances(q).argmin())

    def near(self, q, radius):
        if radius <= 0:
            return []
        return (self._distances(q) <= radius).nonzero()[0].tolist()

    def reparent(self, node, new_parent, new_cost):
        old = self.parent[node]
        if old >= 0:
            self.children[old].remove(node)
        self.parent[node] = new_parent
        self.children[new_parent].append(node)
        delta = new_cost - self.cost[node]
        stack = [node]
        while stack:
            i = stack.pop()
            self.cost[i] += delta
            stack.extend(self.children[i])

    def path_to_root(self, node):
        """Node ids from this node up to (inclusive) its root."""
        chain = [node]
        while self.parent[chain[-1]] >= 0:
            chain.append(self.parent[chain[-1]])
        return chain


def rewiring_radius(gamma, n_nodes, dim, alpha):
    if n_nodes <= 1:
        return 0.0
    return min(gamma * (math.log(n_nodes) / n_nodes) ** (1.0 / dim), alpha)


def rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma, phase=0, on=()):
    """Insert q_new with minimum-cost parent choice and rewiring.

    ``segment_free(a_id, q)`` checks the straight segment, and answers False
    for a node q may not be joined to. Returns the new node id, or None when
    q_new duplicates a node (lies within ``DUPLICATE_TOL * params.eps`` of
    one) or the initial segment collides.

    One distance pass over the tree (``Tree._distances``) gives the duplicate
    test, the neighbours and the distances that cost q_new through each of
    them and ``near_id``; no distance is measured twice. The neighbour
    bookkeeping runs on Python floats: a neighbour list is short, so list work
    beats a dozen small numpy calls. The duplicate test comes first, so a twin
    is dropped with no segment check at all. The parent search checks
    collisions lazily, as OMPL's RRTstar does: the neighbours that would beat
    ``near_id`` are tried in order of (cost through them, id), and the first
    free one is the parent: the cheapest free neighbour, lowest id on ties,
    found with no more segment checks than checking every improving neighbour
    in id order. Rewiring then checks, in id order, the neighbours that q_new
    makes cheaper, except ``near_id``, whose segment is known to be free. No
    other segment of the parent search comes up again: the parent is not
    rewired, and a neighbour tried before it costs at most c_min through
    q_new, so c_min plus its distance to q_new exceeds its cost. So no (node,
    q_new) segment is checked twice.
    """
    q_new = np.asarray(q_new, dtype=float)
    to_nodes = tree._distances(q_new)
    if to_nodes.min() <= DUPLICATE_TOL * params.eps:
        return None
    if not segment_free(near_id, q_new):
        return None
    radius = rewiring_radius(gamma, len(tree), tree.dim, params.alpha)
    neighbors = (to_nodes <= radius).nonzero()[0].tolist() if radius > 0 else []
    dist = to_nodes[neighbors].tolist()
    cost = tree.cost
    q_min, c_min = near_id, cost[near_id] + float(to_nodes[near_id])
    via = [(cost[i] + d, i) for i, d in zip(neighbors, dist)]
    for c, i in sorted(v for v in via if v[0] < c_min and v[1] != near_id):
        if segment_free(i, q_new):
            q_min, c_min = i, c
            break
    new_id = tree.add(q_new, parent=q_min, cost=c_min, phase=phase, on=on)
    for i, d in zip(neighbors, dist):  # cost[i] is live: an earlier rewire may have lowered it
        c = c_min + d
        if c < cost[i] and i != q_min and (i == near_id or segment_free(i, q_new)):
            tree.reparent(i, new_id, c)
    return new_id


def _in_bounds(q, bounds):
    """Whether lo <= q_j <= hi for every coordinate; ``bounds`` is a list of (lo, hi) floats."""
    for x, (lo, hi) in zip(q.tolist(), bounds):
        if not lo <= x <= hi:
            return False
    return True


def _handed_out_before(memo, q_new):
    """Whether ``q_new`` is a result the steer memo ``memo`` keeps and has
    handed out before; the first time, it is marked as handed out.

    Such a repeat from the same node is dropped before ``rrt_star_extend``:
    the first time it was inserted (so it is now a twin), or it was a twin,
    out of bounds, or its segment from the node collided, and each of those
    holds again. The marks are the ids of kept objects, which the memo keeps
    alive, so no other object can carry one.
    """
    if not any(v is q_new for v in memo.values()):
        return False
    handed = memo.setdefault(_HANDED_OUT, set())
    if id(q_new) in handed:
        return True
    handed.add(id(q_new))
    return False


class _Run:
    """What every planner run starts from: the start check, the RNG, the
    sampling bounds and the RRT* gamma. ``extend`` is the one RRT* step all
    planners grow their trees with."""

    def __init__(self, task, params):
        res = norm(evaluate(task.manifolds[0], task.start()))
        if not res <= params.eps:  # a NaN residual fails too
            raise ValueError(f"start configuration violates the first constraint (residual {res:.3g})")
        self.task, self.params = task, params
        self.rng = np.random.default_rng(params.seed)
        bounds = task.bounds_array()
        lo, hi = bounds[:, 0], bounds[:, 1]
        if not (np.isfinite(bounds).all() and (lo <= hi).all()):
            raise ValueError(f"sampling bounds must be finite with lo <= hi, got {task.bounds!r}")
        self.lo, self.span = lo, hi - lo
        self.bounds = bounds.tolist()  # (lo, hi) pairs of floats, as _in_bounds takes them
        self.gamma = 2.0 * task.span()

    def uniform(self):
        # the doubles and the RNG stream of rng.uniform(lo, hi), without its overhead
        return self.lo + self.span * self.rng.random(len(self.lo))

    def extend(self, tree, q_rand, steer, segment_free, label=None):
        """Extend ``tree`` toward ``q_rand`` on the manifold of its nearest node.

        ``steer(q_near, q_rand, m_i, m_next, memo)`` proposes ``q_new``;
        ``memo`` is the dict the tree keeps for the nearest node, where the
        steer stores what it computes from that node alone (steps, their
        projections, a tangent basis). A ``q_new``
        outside the bounds is dropped and the rest goes to
        ``rrt_star_extend``. Every steer projects onto ``m_i``, or onto an
        intersection whose first rows are ``m_i``'s, so ``q_new`` already lies
        on ``m_i`` to eps. ``label(i, q_new)`` gives the new node's
        ``(phase, on)`` (default ``(i, ())``), and ``segment_free(a_id, q,
        on)`` checks the segment from node ``a_id`` to it. Returns the new
        node id, or None for a dropped sample, including a ``q_new`` that
        duplicates a node (see ``rrt_star_extend``).
        """
        near_id = tree.nearest(q_rand)
        i = tree.phase[near_id]
        m_i, m_next = self.task.manifolds[i], self.task.manifolds[i + 1]
        memo = tree.memo[near_id] or {}
        q_new = steer(tree.config(near_id), q_rand, m_i, m_next, memo)
        if memo:  # a node on a one-row manifold that only point-steered stores nothing
            tree.memo[near_id] = memo
        if q_new is None or _handed_out_before(memo, q_new) or not _in_bounds(q_new, self.bounds):
            return None
        phase, on = (i, ()) if label is None else label(i, q_new)
        return rrt_star_extend(tree, near_id, q_new, lambda a_id, q: segment_free(a_id, q, on),
                               self.params, self.gamma, phase=phase, on=on)


def _psm_steering(run):
    """Steer policy of the PSM* planners: ``psm_steer`` with the run's RNG."""
    return lambda q_near, q_rand, m_i, m_next, memo: psm_steer(run.params, q_near, q_rand, m_i, m_next,
                                                               run.rng, memo)


class _CertifiedCheck:
    """The segment check of one free space ``fs``. A point segment goes
    straight to the exact test. A robot segment skips the sampled test where
    the endpoints' safety certificates (``Task.clearance``) prove it free:
    every point of a segment shorter than r_a + r_b lies within r_a of a or
    within r_b of b. The certificate answers "free" only where the sampled
    test does too, so every verdict is the sampled test's. Each radius is
    computed once, keyed on the configuration's bytes, so a q_new's radius
    serves it again once it is a node."""

    def __init__(self, task, fs):
        self.task, self.fs, self.radius = task, fs, {}

    def clearance(self, q):
        key = q.tobytes()
        r = self.radius.get(key)
        if r is None:
            r = self.radius[key] = self.task.clearance(q, self.fs)
        return r

    def __call__(self, qa, qb):
        if self.task.system is not None:
            d = norm(qb - qa)
            r_a = self.clearance(qa)
            if d < r_a or d < r_a + self.clearance(qb):  # b's radius only when a's does not cover it
                return True
        return self.task.segment_free(qa, qb, self.fs)


def _segment_free_in(check, tree):
    """Segment check of a tree whose edges all lie in the free space of ``check``."""
    return lambda a_id, q, on: check(tree.config(a_id), q)


def _stitch(segments):
    """One SolutionPath from per-manifold vertex lists; each segment after
    the first starts at the last vertex of the one before, which is kept once."""
    configs = list(segments[0])
    bounds = []
    for seg in segments[1:]:
        bounds.append(len(configs) - 1)
        configs.extend(seg[1:])
    configs = np.array(configs)
    return SolutionPath(configs=configs, segment_bounds=bounds, total_cost=polyline_length(configs))


def _cheapest(tree, ids):
    """The lowest id of ``ids`` whose cost is at most ``COST_TIE_ULPS`` ulps above their least."""
    best = min(tree.cost[g] for g in ids)
    return min(g for g in ids if tree.cost[g] <= best + COST_TIE_ULPS * math.ulp(best))


def _psm_run(task, params, greedy):
    run = _Run(task, params)
    steer = _psm_steering(run)
    n = task.n_phases
    fs = task.free_space
    trees = []
    sources = []  # per tree >0: node id -> source node id in previous tree
    tree = Tree(task.ambient_dim)
    tree.add(task.start(), parent=-1, cost=0.0)

    for i in range(n):
        m_next = task.manifolds[i + 1]
        segment_free = _segment_free_in(_CertifiedCheck(task, fs), tree)
        V_goal = []
        for _ in range(params.m):
            new_id = run.extend(tree, run.uniform(), steer, segment_free)
            if new_id is None:
                continue
            q_new = tree.config(new_id)
            if residual_norm(m_next, q_new) < params.eps and (
                    tree._distances(q_new, V_goal) >= params.rho).all():
                V_goal.append(new_id)
        if not V_goal:
            raise PlanningFailure(phase=i)
        fs = task.advance_free_space(fs, i, tree.config(V_goal[0]))
        trees.append(tree)
        if i < n - 1:
            seeds = [_cheapest(tree, V_goal)] if greedy else V_goal
            next_tree, src = Tree(task.ambient_dim), {}
            for g in seeds:
                src[next_tree.add(tree.config(g), parent=-1, cost=tree.cost[g], phase=i + 1)] = g
            sources.append(src)
            tree = next_tree

    # walk back from the cheapest goal node, tree by tree, through each subtree's seed (a root)
    nid = _cheapest(tree, V_goal)
    segments = []
    for t in reversed(range(n)):
        chain = trees[t].path_to_root(nid)
        segments.append([trees[t].config(j) for j in reversed(chain)])
        if t > 0:
            nid = sources[t - 1][chain[-1]]
    return _stitch(segments[::-1])


def psm_star(task, params):
    """Subtree-per-manifold planner keeping all intersection nodes."""
    return _psm_run(task, params, greedy=False)


def psm_star_greedy(task, params):
    """Variant seeding each next subtree with only the cheapest intersection node."""
    return _psm_run(task, params, greedy=True)


def _shares_manifold(on_a, on_b):
    """Whether two single-tree labels share a manifold. A label is a sorted
    tuple of one or two manifold indices, so its ends are all its entries."""
    return on_a[0] in on_b or on_a[-1] in on_b


def _last_shared_manifold(on_a, on_b):
    """The highest manifold index two labels that share one have in common."""
    return on_a[-1] if on_a[-1] in on_b else on_a[0]


def _edge_manifold(on_a, on_b, n):
    """The manifold a single-tree edge lies on and is checked in: the last one
    its end labels share, the goal's crossing counted as phase n - 1."""
    return min(_last_shared_manifold(on_a, on_b), n - 1)


def _single_tree_path(tree, goal, n):
    """The path from the root to ``goal`` in a single tree over n phases,
    cut where the manifold of its edges rises.

    Node phases do not give the cuts: a node on manifold p may hang from a
    p/p+1 crossing node labelled p + 1, so along a path the phase can rise
    at that crossing, fall and rise again, while the edges stay on p.
    """
    chain = tree.path_to_root(goal)[::-1]
    edges = [_edge_manifold(tree.on[a], tree.on[b], n) for a, b in zip(chain, chain[1:])]
    cuts = [k for k in range(1, len(edges)) if edges[k] > edges[k - 1]]
    return _stitch([[tree.config(v) for v in chain[a:b + 1]]
                    for a, b in zip([0] + cuts, cuts + [len(chain) - 1])])


def psm_star_single_tree(task, params):
    """Single tree grown over the whole manifold sequence; every node it
    inserts on the goal manifold is a goal, with no ``rho`` spacing."""
    run = _Run(task, params)
    steer = _psm_steering(run)
    n = task.n_phases
    # the segment check in the free space of each phase, set once the phase is first reached
    checks = [_CertifiedCheck(task, task.free_space)] + [None] * n
    tree = Tree(task.ambient_dim)
    tree.add(task.start(), parent=-1, cost=0.0, phase=0, on=(0,))
    goals = []

    def label(i, q_new):
        # a node also on the next manifold belongs to the next phase (the goal has none)
        if residual_norm(task.manifolds[i + 1], q_new) < params.eps:
            return min(i + 1, n - 1), (i, i + 1)
        return i, (i,)

    def segment_free(a_id, q, on_new):
        # an edge joins only two nodes that share a manifold
        on_a = tree.on[a_id]
        return _shares_manifold(on_a, on_new) and checks[_edge_manifold(on_a, on_new, n)](tree.config(a_id), q)

    for _ in range(n * params.m):
        new_id = run.extend(tree, run.uniform(), steer, segment_free, label)
        if new_id is not None and len(tree.on[new_id]) == 2:
            i, j = tree.on[new_id]
            if checks[j] is None:
                checks[j] = _CertifiedCheck(task, task.advance_free_space(checks[i].fs, i, tree.config(new_id)))
            if j == n:
                goals.append(new_id)
    if not goals:
        raise PlanningFailure(phase=n - 1, message="goal manifold never reached")
    return _single_tree_path(tree, _cheapest(tree, goals), n)


def _goal_links(tree, goal, alpha, check):
    """[(``Tree._distances`` to goal, node)] for each node within alpha of ``goal``
    whose step to it is free, in insertion order with the root last."""
    to_goal = tree._distances(goal).tolist()
    return [(to_goal[j], j) for j in [*range(1, len(tree)), 0]
            if to_goal[j] <= alpha and check(tree.config(j), goal)]


def rrt_star_ik(task, params):
    """Per-manifold baseline: fix an intersection goal by random-sample IK,
    then run goal-directed RRT* on the current manifold toward it."""
    run = _Run(task, params)

    def tangent_step(q_near, q_target, m_i):  # a tangent step of at most alpha, projected back onto m_i
        d = steer_point(q_near, q_target, m_i)
        nd = norm(d)
        if nd < ZERO_DIRECTION_TOL:
            return None
        return project(q_near + min(params.alpha, nd) * d / nd, m_i, params.eps)

    def steer(q_near, q_rand, m_i, m_next, memo):
        # the step toward this phase's IK goal depends on the node alone; each
        # phase grows a new tree, whose memos die with it, so none outlives its goal
        if q_rand is not goal:
            return tangent_step(q_near, q_rand, m_i)
        if "goal" not in memo:
            memo["goal"] = tangent_step(q_near, goal, m_i)
        return memo["goal"]

    fs = task.free_space
    q_seg_start = task.start()
    segments = []
    for i in range(task.n_phases):
        inter = Intersection(task.manifolds[i], task.manifolds[i + 1])
        for _ in range(IK_RETRIES):
            goal = project(run.uniform(), inter, params.eps)
            if goal is not None and _in_bounds(goal, run.bounds) and task.config_free(goal, fs):
                break
        else:
            raise PlanningFailure(phase=i, message=f"IK goal generation failed in phase {i}")

        tree = Tree(task.ambient_dim)
        tree.add(q_seg_start, parent=-1, cost=0.0, phase=i)
        check = _CertifiedCheck(task, fs)
        segment_free = _segment_free_in(check, tree)

        for _ in range(params.m):
            q_rand = goal if run.rng.random() < IK_GOAL_BIAS else run.uniform()
            run.extend(tree, q_rand, steer, segment_free)
        links = _goal_links(tree, goal, params.alpha, check)  # the start itself may already connect
        if not links:
            raise PlanningFailure(phase=i, message=f"no path to the IK goal in phase {i}")
        # links are costed once the tree is grown, since rewiring lowers costs; first of equal costs
        chain = tree.path_to_root(min(links, key=lambda link: tree.cost[link[1]] + link[0])[1])
        segments.append([tree.config(j) for j in reversed(chain)] + [goal])
        fs = task.advance_free_space(fs, i, goal)
        q_seg_start = goal
    return _stitch(segments)


PLANNERS = {
    "psm": psm_star,
    "psm-greedy": psm_star_greedy,
    "psm-single": psm_star_single_tree,
    "rrtstar-ik": rrt_star_ik,
}


def validate_solution(task, path, params):
    """Independent check of a solution path against the task definition.

    Verifies per-segment constraint residuals, boundary continuity, bounded
    step lengths, joint limits, collision freedom under the per-segment free
    space, and cost bookkeeping. Returns a list of violation strings (empty
    if valid). A path with a non-finite vertex gets only the "not finite"
    violations: a NaN makes every later comparison come out False, so each
    of those tests would pass it.

    Edges are checked with the planner's ``Task.segment_free``: exact on
    point scenes, but on robot scenes still the sampled test, which accepts
    an edge that crosses a box between two sampled configurations.
    """
    violations = []
    eps = params.eps * (1.0 + 1e-9) + 1e-12
    # steering steps are alpha long before projection; the projection displacement
    # is not bounded by r (r gates a task-space residual), so allow generous slack
    max_step = params.alpha + params.r + 0.5 * (params.alpha + params.r)
    segs = path.segments()
    if len(segs) != task.n_phases:
        violations.append(f"expected {task.n_phases} segments, got {len(segs)}")
        return violations
    for v in np.flatnonzero(~np.isfinite(path.configs).all(axis=1)):
        violations.append(f"vertex {v}: not finite")
    if violations:
        return violations
    if not np.allclose(path.configs[0], task.start()):
        violations.append("path does not start at the task start configuration")
    if task.system is not None:
        lim = task.system.joint_limits()
        for v in np.flatnonzero(((path.configs < lim[:, 0]) | (path.configs > lim[:, 1])).any(axis=1)):
            violations.append(f"vertex {v}: outside the joint limits")
    fs = task.free_space
    for j, (a, b) in enumerate(segs):
        m = task.manifolds[j]
        for v in range(a, b + 1):
            res = np.linalg.norm(evaluate(m, path.configs[v]))
            if res > eps:
                violations.append(f"segment {j} vertex {v}: residual {res:.3g} > eps")
        for v in range(a, b):
            step = np.linalg.norm(path.configs[v + 1] - path.configs[v])
            if step > max_step:
                violations.append(f"segment {j} edge {v}: step {step:.3g} > {max_step:.3g}")
            if not task.segment_free(path.configs[v], path.configs[v + 1], fs):
                violations.append(f"segment {j} edge {v}: collides")
        fs = task.advance_free_space(fs, j, path.configs[b])
    goal_res = np.linalg.norm(evaluate(task.manifolds[-1], path.configs[-1]))
    if goal_res > eps:
        violations.append(f"endpoint off the goal manifold (residual {goal_res:.3g})")
    if abs(path.polyline_length() - path.total_cost) > 1e-6:
        violations.append("total_cost does not match the polyline length")
    return violations

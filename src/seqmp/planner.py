"""Planners over a fixed sequence of constraint manifolds.

The four planners share one core: ``_Run`` holds a run's set-up (start
check, RNG, sampling bounds, RRT* gamma), ``_Run.extend`` is the one RRT*
step every tree grows by (nearest -> steer -> in-bounds check -> residual
<= eps on the nearest node's manifold -> ``rrt_star_extend``), and
``_stitch`` builds every ``SolutionPath``. A planner is a choice of policies
on top of that core:

- sampler: uniform, or biased toward a fixed IK goal (``rrtstar-ik``);
- steer: ``psm_steer``, or one tangent step plus projection (``rrtstar-ik``);
- node label: each node's phase (manifold index), plus for the single tree
  the manifolds it lies on, since that tree joins only nodes sharing one;
- goal and seeding: the intersection nodes kept ``rho`` apart all seed the
  next subtree (``psm``) or only the cheapest does (``psm-greedy``), the
  goal-manifold nodes of one tree over the whole sequence (``psm-single``),
  or the cheapest connection to the IK goal (``rrtstar-ik``).

Every planner is deterministic for a fixed (task, params, seed).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .manifolds import Intersection, evaluate, norm, project
from .steering import ZERO_DIRECTION_TOL, psm_steer, steer_point

IK_RETRIES = 100
IK_GOAL_BIAS = 0.1


@dataclass(frozen=True)
class PlannerParams:
    alpha: float = 1.0
    beta: float = 0.1
    eps: float = 0.01
    rho: float = 0.1
    r: float = 1.5
    m: int = 1200
    gamma_rrt: float = None  # defaults to 2 * span of the sampling bounds
    seed: int = 0
    max_project_iters: int = 200

    def __post_init__(self):
        for name in ("alpha", "beta", "eps", "rho", "r", "gamma_rrt"):
            value = getattr(self, name)
            if value is None and name == "gamma_rrt":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("m", "seed", "max_project_iters"):
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
        if self.gamma_rrt is not None and self.gamma_rrt <= 0:
            raise ValueError("gamma_rrt must be positive")


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
        self._configs = np.empty((0, dim))
        # the same configurations column-major, (dim, capacity), so a query's
        # distance pass runs over contiguous rows
        self._cols = np.empty((dim, 0))
        self.parent = []
        self.cost = []
        self.children = []
        self.phase = []  # manifold index a node lives on
        self.on = []     # tuple of manifold indices the node satisfies

    def __len__(self):
        return len(self.parent)

    @property
    def configs(self):
        return self._configs[: len(self.parent)]

    def config(self, i):
        return self._configs[i]

    def add(self, config, parent, cost, phase=0, on=()):
        i = len(self.parent)
        if i == self._configs.shape[0]:
            capacity = max(64, 2 * i)
            grow = np.empty((capacity, self.dim))
            grow[:i] = self._configs[:i]
            self._configs = grow
            cols = np.empty((self.dim, capacity))
            cols[:, :i] = self._cols[:, :i]
            self._cols = cols
        self._configs[i] = config
        self._cols[:, i] = self._configs[i]
        self.parent.append(parent)
        self.cost.append(cost)
        self.children.append([])
        self.phase.append(phase)
        self.on.append(tuple(on))
        if parent >= 0:
            self.children[parent].append(i)
        return i

    def _distances(self, q):
        """Distance from q to every node.

        The squares are summed in coordinate order, ((d0^2 + d1^2) + d2^2) + ...,
        an order that does not depend on the CPU's SIMD width.
        """
        d = self._cols[:, :len(self.parent)] - np.asarray(q)[:, None]
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


def row_norms(d):
    """Euclidean norm of each row of ``d`` (n, k), equal bit for bit to
    ``np.linalg.norm`` of that row.

    A stack of 1 x k by k x 1 products sums in the same order as the dot
    product ``norm`` takes; ``einsum`` and summed squares differ from it in
    the last bit on some rows, which can change a parent choice or a rewire.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma,
                    phase=0, on=(), edge_ok=None):
    """Insert q_new with minimum-cost parent choice and rewiring.

    ``segment_free(a_id, q)`` checks the straight segment; ``edge_ok``
    optionally restricts which node pairs may be connected (single-tree
    variant). Returns the new node id, or None when the initial segment
    collides.

    The distances from q_new to the neighbours and ``near_id`` and the costs
    through them come from one batched pass. The parent search checks
    collisions lazily, as OMPL's RRTstar does: the neighbours that would beat
    ``near_id`` are tried in order of (cost through them, id), and the first
    free one is the parent: the cheapest free neighbour, lowest id on ties,
    found with no more segment checks than checking every improving
    neighbour in id order. Rewiring then checks, in id order, the neighbours
    that q_new makes cheaper.
    """
    q_new = np.asarray(q_new, dtype=float)
    if not segment_free(near_id, q_new):
        return None
    radius = rewiring_radius(gamma, len(tree), tree.dim, params.alpha)
    neighbors = tree.near(q_new, radius)
    if edge_ok is not None:
        neighbors = [i for i in neighbors if edge_ok(i, on)]
    ids = neighbors + [near_id]
    dist = row_norms(q_new - tree.configs[ids])
    cost = np.fromiter(map(tree.cost.__getitem__, ids), dtype=float, count=len(ids))
    via = cost + dist  # cost of q_new through each node; near_id's is last
    nbr = np.array(neighbors, dtype=np.intp)
    q_min, c_min = near_id, float(via[-1])
    better = ((via[:-1] < c_min) & (nbr != near_id)).nonzero()[0]
    for k in better[np.lexsort((nbr[better], via[better]))].tolist():
        if segment_free(neighbors[k], q_new):
            q_min, c_min = neighbors[k], float(via[k])
            break
    new_id = tree.add(q_new, parent=q_min, cost=c_min, phase=phase, on=on)
    # rewiring only lowers costs, so a neighbour q_new does not improve on
    # the costs before it is never rewired; the rest are tested again
    through_new = c_min + dist[:-1]
    for k in ((through_new < cost[:-1]) & (nbr != q_min)).nonzero()[0].tolist():
        i, c = neighbors[k], float(through_new[k])
        if c < tree.cost[i] and segment_free(i, q_new):
            tree.reparent(i, new_id, c)
    return new_id


def _in_bounds(q, bounds):
    """Whether lo <= q_j <= hi for every coordinate; ``bounds`` is a list of (lo, hi) floats."""
    for x, (lo, hi) in zip(q.tolist(), bounds):
        if not lo <= x <= hi:
            return False
    return True


class _Run:
    """What every planner run starts from: the start check, the RNG, the
    sampling bounds and the RRT* gamma. ``extend`` is the one RRT* step all
    planners grow their trees with."""

    def __init__(self, task, params):
        res = norm(evaluate(task.manifolds[0], task.start()))
        if res > params.eps:
            raise ValueError(f"start configuration violates the first constraint (residual {res:.3g})")
        self.task, self.params = task, params
        self.rng = np.random.default_rng(params.seed)
        bounds = task.bounds_array()
        lo, hi = bounds[:, 0], bounds[:, 1]
        if not (np.isfinite(bounds).all() and (lo <= hi).all()):
            raise ValueError(f"sampling bounds must be finite with lo <= hi, got {task.bounds!r}")
        self.lo, self.span = lo, hi - lo
        self.bounds = bounds.tolist()  # (lo, hi) pairs of floats, as _in_bounds takes them
        self.gamma = params.gamma_rrt if params.gamma_rrt is not None else 2.0 * task.span()

    def uniform(self):
        # the doubles and the RNG stream of rng.uniform(lo, hi), without its overhead
        return self.lo + self.span * self.rng.random(len(self.lo))

    def extend(self, tree, q_rand, steer, segment_free, label=None, edge_ok=None):
        """Extend ``tree`` toward ``q_rand`` on the manifold of its nearest node.

        ``steer(q_near, q_rand, m_i, m_next)`` proposes ``q_new``; one outside
        the bounds or off ``m_i`` by more than eps is dropped, the rest goes
        to ``rrt_star_extend``. ``label(i, q_new)`` gives the new node's
        ``(phase, on)`` (default ``(i, ())``), and ``segment_free(a_id, q,
        on)`` checks the segment from node ``a_id`` to it. Returns the new
        node id or None.
        """
        near_id = tree.nearest(q_rand)
        i = tree.phase[near_id]
        m_i, m_next = self.task.manifolds[i], self.task.manifolds[i + 1]
        q_new = steer(tree.config(near_id), q_rand, m_i, m_next)
        if q_new is None or not _in_bounds(q_new, self.bounds):
            return None
        if norm(evaluate(m_i, q_new)) > self.params.eps:
            return None
        phase, on = (i, ()) if label is None else label(i, q_new)
        return rrt_star_extend(tree, near_id, q_new, lambda a_id, q: segment_free(a_id, q, on),
                               self.params, self.gamma, phase=phase, on=on, edge_ok=edge_ok)


def _psm_steering(run):
    """Steer policy of the PSM* planners: ``psm_steer`` with the run's RNG."""
    return lambda q_near, q_rand, m_i, m_next: psm_steer(run.params, q_near, q_rand, m_i, m_next, run.rng)


def _segment_free_in(task, tree, fs):
    """Segment check of a tree whose edges all lie in the free space ``fs``."""
    return lambda a_id, q, on: task.segment_free(tree.config(a_id), q, fs)


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


def _psm_run(task, params, greedy, debug=None):
    run = _Run(task, params)
    steer = _psm_steering(run)
    n = task.n_phases
    fs = task.free_space
    trees = []
    sources = []  # per tree >0: node id -> source node id in previous tree
    tree = Tree(task.ambient_dim)
    tree.add(task.start(), parent=-1, cost=0.0)
    trace = [] if debug is not None else None

    for i in range(n):
        m_next = task.manifolds[i + 1]
        segment_free = _segment_free_in(task, tree, fs)
        V_goal = []
        for _ in range(params.m):
            new_id = run.extend(tree, run.uniform(), steer, segment_free)
            if new_id is None:
                continue
            q_new = tree.config(new_id)
            if norm(evaluate(m_next, q_new)) < params.eps and np.all(
                    row_norms(q_new - tree.configs[V_goal]) >= params.rho):
                V_goal.append(new_id)
            if trace is not None and i == n - 1 and V_goal:
                trace.append(min(tree.cost[g] for g in V_goal))
        if not V_goal:
            raise PlanningFailure(phase=i)
        if debug is not None:
            debug.setdefault("v_goal_per_phase", []).append(list(V_goal))
        fs = task.advance_free_space(fs, i, tree.config(V_goal[0]))
        trees.append(tree)
        if i < n - 1:
            seeds = [min(V_goal, key=lambda g: (tree.cost[g], g))] if greedy else V_goal
            next_tree, src = Tree(task.ambient_dim), {}
            for g in seeds:
                src[next_tree.add(tree.config(g), parent=-1, cost=tree.cost[g], phase=i + 1)] = g
            sources.append(src)
            tree = next_tree

    # walk back from the cheapest goal node, tree by tree, through each subtree's seed (a root)
    nid = min(V_goal, key=lambda g: (tree.cost[g], g))
    segments = []
    for t in reversed(range(n)):
        chain = trees[t].path_to_root(nid)
        segments.append([trees[t].config(j) for j in reversed(chain)])
        if t > 0:
            nid = sources[t - 1][chain[-1]]
    if debug is not None:
        debug["trees"] = trees
        debug["sources"] = sources
        debug["best_cost_trace"] = trace
    return _stitch(segments[::-1])


def psm_star(task, params, debug=None):
    """Subtree-per-manifold planner keeping all intersection nodes."""
    return _psm_run(task, params, greedy=False, debug=debug)


def psm_star_greedy(task, params, debug=None):
    """Variant seeding each next subtree with only the cheapest intersection node."""
    return _psm_run(task, params, greedy=True, debug=debug)


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


def psm_star_single_tree(task, params, debug=None):
    """Single tree grown over the whole manifold sequence (duplicate threshold 0)."""
    run = _Run(task, params)
    steer = _psm_steering(run)
    n = task.n_phases
    fs_list = [task.free_space] + [None] * n  # free space of each phase, set once first reached
    tree = Tree(task.ambient_dim)
    tree.add(task.start(), parent=-1, cost=0.0, phase=0, on=(0,))
    goals = []

    def label(i, q_new):
        # a node also on the next manifold belongs to the next phase (the goal has none)
        if norm(evaluate(task.manifolds[i + 1], q_new)) < params.eps:
            return min(i + 1, n - 1), (i, i + 1)
        return i, (i,)

    def edge_ok(node_id, on_new):
        return _shares_manifold(tree.on[node_id], on_new)

    def segment_free(a_id, q, on_new):
        return task.segment_free(tree.config(a_id), q, fs_list[_edge_manifold(tree.on[a_id], on_new, n)])

    for _ in range(n * params.m):
        new_id = run.extend(tree, run.uniform(), steer, segment_free, label, edge_ok)
        if new_id is not None and len(tree.on[new_id]) == 2:
            i, j = tree.on[new_id]
            if fs_list[j] is None:
                fs_list[j] = task.advance_free_space(fs_list[i], i, tree.config(new_id))
            if j == n:
                goals.append(new_id)
    if not goals:
        raise PlanningFailure(phase=n - 1, message="goal manifold never reached")
    if debug is not None:
        debug["tree"] = tree
    return _single_tree_path(tree, min(goals, key=lambda g: (tree.cost[g], g)), n)


def rrt_star_ik(task, params, debug=None):
    """Per-manifold baseline: fix an intersection goal by random-sample IK,
    then run goal-directed RRT* on the current manifold toward it."""
    run = _Run(task, params)

    def steer(q_near, q_rand, m_i, m_next):  # a tangent step of at most alpha, projected back onto m_i
        d = steer_point(q_near, q_rand, m_i)
        nd = norm(d)
        if nd < ZERO_DIRECTION_TOL:
            return None
        return project(q_near + min(params.alpha, nd) * d / nd, m_i, params.eps, params.max_project_iters)

    fs = task.free_space
    q_seg_start = task.start()
    segments = []
    for i in range(task.n_phases):
        inter = Intersection(task.manifolds[i], task.manifolds[i + 1])
        for _ in range(IK_RETRIES):
            goal = project(run.uniform(), inter, params.eps, params.max_project_iters)
            if goal is not None and _in_bounds(goal, run.bounds) and task.config_free(goal, fs):
                break
        else:
            raise PlanningFailure(phase=i, message=f"IK goal generation failed in phase {i}")

        tree = Tree(task.ambient_dim)
        tree.add(q_seg_start, parent=-1, cost=0.0, phase=i)
        segment_free = _segment_free_in(task, tree, fs)

        def goal_link(node):
            """[(distance to the goal, node)] if node is a free step from it, else []."""
            gd = norm(tree.config(node) - goal)
            if gd <= params.alpha and task.segment_free(tree.config(node), goal, fs):
                return [(gd, node)]
            return []

        links = []
        for _ in range(params.m):
            q_rand = goal if run.rng.random() < IK_GOAL_BIAS else run.uniform()
            new_id = run.extend(tree, q_rand, steer, segment_free)
            if new_id is not None:
                links += goal_link(new_id)
        links += goal_link(0)  # the start itself may already connect to the goal
        if not links:
            raise PlanningFailure(phase=i, message=f"no path to the IK goal in phase {i}")
        # rewiring lowers node costs after they are linked, so cost the links now; first of equal costs
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
    if valid).
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

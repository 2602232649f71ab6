"""Planners over a fixed sequence of constraint manifolds.

Contains the subtree-per-manifold planner and its greedy seeding variant,
the single-tree variant, and a per-segment RRT*+IK baseline. All planners
share the same steering and rewiring machinery and are deterministic for a
fixed (task, params, seed).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .manifolds import Intersection, evaluate, project
from .steering import SteerParams, psm_steer, steer_point

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

    def steer(self):
        return SteerParams(self.alpha, self.beta, self.r)


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
        return float(np.sum(np.linalg.norm(np.diff(self.configs, axis=0), axis=1)))


class Tree:
    """Search tree with parent links, costs-to-root, and synthetic roots.

    Synthetic roots bind the intersection seeds of a new subtree together;
    they are excluded from nearest/near queries and never gain a parent.
    """

    def __init__(self, dim):
        self.dim = dim
        self._configs = np.empty((0, dim))
        self.parent = []
        self.cost = []
        self.synthetic = []
        self._synthetic_ids = []  # kept by add() so queries need not scan ``synthetic``
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

    def add(self, config, parent, cost, synthetic=False, phase=0, on=()):
        i = len(self.parent)
        if i == self._configs.shape[0]:
            grow = np.empty((max(64, 2 * i), self.dim))
            grow[:i] = self._configs[:i]
            self._configs = grow
        self._configs[i] = 0.0 if config is None else config
        self.parent.append(parent)
        self.cost.append(cost)
        self.synthetic.append(synthetic)
        if synthetic:
            self._synthetic_ids.append(i)
        self.children.append([])
        self.phase.append(phase)
        self.on.append(tuple(on))
        if parent >= 0:
            self.children[parent].append(i)
        return i

    def real_count(self):
        return len(self.parent) - len(self._synthetic_ids)

    def _distances(self, q):
        d = self.configs - np.asarray(q)
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        if self._synthetic_ids:
            dist[self._synthetic_ids] = np.inf
        return dist

    def nearest(self, q):
        if self.real_count() == 0:
            raise ValueError("nearest query on a tree without real nodes")
        return int(np.argmin(self._distances(q)))

    def near(self, q, radius):
        if radius <= 0:
            return []
        dist = self._distances(q)
        return [int(i) for i in np.nonzero(dist <= radius)[0]]

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

    def path_to_subroot(self, node):
        """Node ids from this node up to (inclusive) the first node whose
        parent is a root (synthetic or absent)."""
        chain = [node]
        while self.parent[chain[-1]] >= 0 and not self.synthetic[self.parent[chain[-1]]]:
            chain.append(self.parent[chain[-1]])
        return chain


def nearest(tree, q):
    """Exact Euclidean nearest tree node (synthetic roots excluded)."""
    return tree.nearest(q)


def near(tree, q, radius):
    """All tree nodes within ``radius`` of q (synthetic roots excluded)."""
    return tree.near(q, radius)


def rewiring_radius(gamma, n_nodes, dim, alpha):
    if n_nodes <= 1:
        return 0.0
    return min(gamma * (np.log(n_nodes) / n_nodes) ** (1.0 / dim), alpha)


def rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma,
                    phase=0, on=(), edge_ok=None):
    """Insert q_new with minimum-cost parent choice and rewiring.

    ``segment_free(a_id, q)`` checks the straight segment; ``edge_ok``
    optionally restricts which node pairs may be connected (single-tree
    variant). Returns the new node id, or None when the initial segment
    collides.

    The parent search checks collisions lazily, as OMPL's RRTstar does: the
    neighbours that would beat ``near_id`` are tried in order of (cost
    through them, id), and the first free one is the parent: the cheapest
    free neighbour, lowest id on ties, found with no more segment checks than
    checking every improving neighbour in id order.
    """
    q_new = np.asarray(q_new, dtype=float)
    if not segment_free(near_id, q_new):
        return None
    radius = rewiring_radius(gamma, tree.real_count(), tree.dim, params.alpha)
    neighbors = tree.near(q_new, radius)
    if edge_ok is not None:
        neighbors = [i for i in neighbors if edge_ok(i, on)]
    q_min = near_id
    c_min = tree.cost[near_id] + float(np.linalg.norm(q_new - tree.config(near_id)))
    candidates = []
    for i in neighbors:
        if i == near_id:
            continue
        c = tree.cost[i] + float(np.linalg.norm(q_new - tree.config(i)))
        if c < c_min:
            candidates.append((c, i))
    for c, i in sorted(candidates):
        if segment_free(i, q_new):
            q_min, c_min = i, c
            break
    new_id = tree.add(q_new, parent=q_min, cost=c_min, phase=phase, on=on)
    for i in neighbors:
        if i == q_min:
            continue
        c = c_min + float(np.linalg.norm(q_new - tree.config(i)))
        if c < tree.cost[i] and segment_free(i, q_new):
            tree.reparent(i, new_id, c)
    return new_id


def _check_start(task, params):
    res = np.linalg.norm(evaluate(task.manifolds[0], task.start()))
    if res > params.eps:
        raise ValueError(f"start configuration violates the first constraint (residual {res:.3g})")


def _gamma(task, params):
    return params.gamma_rrt if params.gamma_rrt is not None else 2.0 * task.span()


def _in_bounds(q, bounds):
    return bool(np.all(q >= bounds[:, 0]) and np.all(q <= bounds[:, 1]))


def _psm_run(task, params, greedy, debug=None):
    _check_start(task, params)
    rng = np.random.default_rng(params.seed)
    steer_params = params.steer()
    bounds = task.bounds_array()
    gamma = _gamma(task, params)
    n = task.n_phases
    dim = task.ambient_dim

    fs = task.free_space
    fs_per_phase = [fs]
    trees = []
    sources = []  # per tree >0: node id -> source node id in previous tree

    tree = Tree(dim)
    tree.add(task.start(), parent=-1, cost=0.0)
    trace = [] if debug is not None else None

    final_goals = None
    for i in range(n):
        m_i, m_next = task.manifolds[i], task.manifolds[i + 1]
        fs_i = fs

        def segment_free(a_id, q):
            return task.segment_free(tree.config(a_id), q, fs_i)

        V_goal = []
        for _ in range(params.m):
            q_rand = rng.uniform(bounds[:, 0], bounds[:, 1])
            near_id = tree.nearest(q_rand)
            q_new = psm_steer(steer_params, tree.config(near_id), q_rand, m_i, m_next,
                              rng, params.eps, params.max_project_iters)
            if q_new is None or not _in_bounds(q_new, bounds):
                continue
            if np.linalg.norm(evaluate(m_i, q_new)) > params.eps:
                continue
            new_id = rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma, phase=i)
            if new_id is None:
                continue
            if np.linalg.norm(evaluate(m_next, q_new)) < params.eps:
                if not V_goal or min(
                    np.linalg.norm(q_new - tree.config(g)) for g in V_goal
                ) >= params.rho:
                    V_goal.append(new_id)
            if trace is not None and i == n - 1 and V_goal:
                trace.append(min(tree.cost[g] for g in V_goal))
        if not V_goal:
            raise PlanningFailure(phase=i)
        if debug is not None:
            debug.setdefault("v_goal_per_phase", []).append(list(V_goal))
        fs = task.advance_free_space(fs, i, tree.config(V_goal[0]))
        fs_per_phase.append(fs)
        if i < n - 1:
            seeds = [min(V_goal, key=lambda g: (tree.cost[g], g))] if greedy else V_goal
            next_tree = Tree(dim)
            synth = next_tree.add(None, parent=-1, cost=0.0, synthetic=True)
            src = {}
            for g in seeds:
                nid = next_tree.add(tree.config(g), parent=synth, cost=tree.cost[g], phase=i + 1)
                src[nid] = g
            trees.append(tree)
            sources.append(src)
            tree = next_tree
        else:
            final_goals = V_goal
    trees.append(tree)

    best = min(final_goals, key=lambda g: (tree.cost[g], g))
    path = _extract_path(trees, sources, best)
    if debug is not None:
        debug["trees"] = trees
        debug["sources"] = sources
        debug["fs_per_phase"] = fs_per_phase
        debug["best_cost_trace"] = trace
    return path


def _extract_path(trees, sources, best):
    t = len(trees) - 1
    nid = best
    segments = []
    while True:
        tree = trees[t]
        chain = tree.path_to_subroot(nid)
        segments.append([tree.config(i) for i in reversed(chain)])
        top = chain[-1]
        if t == 0:
            break
        nid = sources[t - 1][top]
        t -= 1
    segments.reverse()
    configs = list(segments[0])
    bounds = []
    for seg in segments[1:]:
        bounds.append(len(configs) - 1)
        configs.extend(seg[1:])  # boundary vertex shared with previous segment
    configs = np.array(configs)
    total = float(np.sum(np.linalg.norm(np.diff(configs, axis=0), axis=1)))
    return SolutionPath(configs=configs, segment_bounds=bounds, total_cost=total)


def psm_star(task, params, debug=None):
    """Subtree-per-manifold planner keeping all intersection nodes."""
    return _psm_run(task, params, greedy=False, debug=debug)


def psm_star_greedy(task, params, debug=None):
    """Variant seeding each next subtree with only the cheapest intersection node."""
    return _psm_run(task, params, greedy=True, debug=debug)


def psm_star_single_tree(task, params, debug=None):
    """Single tree grown over the whole manifold sequence (duplicate threshold 0)."""
    _check_start(task, params)
    rng = np.random.default_rng(params.seed)
    steer_params = params.steer()
    bounds = task.bounds_array()
    gamma = _gamma(task, params)
    n = task.n_phases
    dim = task.ambient_dim

    fs_list = [None] * (n + 1)
    fs_list[0] = task.free_space
    tree = Tree(dim)
    tree.add(task.start(), parent=-1, cost=0.0, phase=0, on=(0,))
    goals = []

    def edge_ok(node_id, on_new):
        return bool(set(tree.on[node_id]) & set(on_new))

    def make_segment_free(on_new):
        def segment_free(a_id, q):
            common = set(tree.on[a_id]) & set(on_new)
            j = min(max(common), n - 1)
            return task.segment_free(tree.config(a_id), q, fs_list[j])
        return segment_free

    for _ in range(n * params.m):
        q_rand = rng.uniform(bounds[:, 0], bounds[:, 1])
        near_id = tree.nearest(q_rand)
        i = tree.phase[near_id]
        m_i, m_next = task.manifolds[i], task.manifolds[i + 1]
        q_new = psm_steer(steer_params, tree.config(near_id), q_rand, m_i, m_next,
                          rng, params.eps, params.max_project_iters)
        if q_new is None or not _in_bounds(q_new, bounds):
            continue
        if np.linalg.norm(evaluate(m_i, q_new)) > params.eps:
            continue
        on_new = (i,)
        if np.linalg.norm(evaluate(m_next, q_new)) < params.eps:
            on_new = (i, i + 1)
        phase_new = i + 1 if (len(on_new) == 2 and i + 1 <= n - 1) else i
        new_id = rrt_star_extend(tree, near_id, q_new, make_segment_free(on_new), params, gamma,
                                 phase=phase_new, on=on_new, edge_ok=edge_ok)
        if new_id is None:
            continue
        if len(on_new) == 2:
            j = i + 1
            if fs_list[j] is None:
                fs_list[j] = task.advance_free_space(fs_list[i], i, q_new)
            if j == n:
                goals.append(new_id)
    if not goals:
        raise PlanningFailure(phase=n - 1, message="goal manifold never reached")
    best = min(goals, key=lambda g: (tree.cost[g], g))
    chain = tree.path_to_subroot(best)
    configs = np.array([tree.config(i) for i in reversed(chain)])
    phases = [tree.phase[i] for i in reversed(chain)]
    bounds_idx = [k for k in range(1, len(phases)) if phases[k] > phases[k - 1]]
    total = float(np.sum(np.linalg.norm(np.diff(configs, axis=0), axis=1)))
    if debug is not None:
        debug["tree"] = tree
        debug["fs_list"] = fs_list
    return SolutionPath(configs=configs, segment_bounds=bounds_idx, total_cost=total)


def rrt_star_ik(task, params, debug=None):
    """Per-manifold baseline: fix an intersection goal by random-sample IK,
    then run goal-directed RRT* on the current manifold toward it."""
    _check_start(task, params)
    rng = np.random.default_rng(params.seed)
    bounds = task.bounds_array()
    gamma = _gamma(task, params)
    n = task.n_phases
    dim = task.ambient_dim

    fs = task.free_space
    q_seg_start = task.start()
    all_segments = []
    for i in range(n):
        m_i, m_next = task.manifolds[i], task.manifolds[i + 1]
        inter = Intersection(m_i, m_next)
        goal = None
        for _ in range(IK_RETRIES):
            q = rng.uniform(bounds[:, 0], bounds[:, 1])
            p = project(q, inter, params.eps, params.max_project_iters)
            if p is not None and _in_bounds(p, bounds) and task.config_free(p, fs):
                goal = p
                break
        if goal is None:
            raise PlanningFailure(phase=i, message=f"IK goal generation failed in phase {i}")

        fs_i = fs
        tree = Tree(dim)
        tree.add(q_seg_start, parent=-1, cost=0.0, phase=i)

        def segment_free(a_id, q):
            return task.segment_free(tree.config(a_id), q, fs_i)

        best_conn = None  # (cost, node id)
        for _ in range(params.m):
            if rng.random() < IK_GOAL_BIAS:
                q_rand = goal
            else:
                q_rand = rng.uniform(bounds[:, 0], bounds[:, 1])
            near_id = tree.nearest(q_rand)
            d = steer_point(tree.config(near_id), q_rand, m_i)
            nd = np.linalg.norm(d)
            if nd < 1e-12:
                continue
            step = min(params.alpha, nd)
            q_new = project(tree.config(near_id) + step * d / nd, m_i,
                            params.eps, params.max_project_iters)
            if q_new is None or not _in_bounds(q_new, bounds):
                continue
            if np.linalg.norm(evaluate(m_i, q_new)) > params.eps:
                continue
            new_id = rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma, phase=i)
            if new_id is None:
                continue
            gd = float(np.linalg.norm(q_new - goal))
            if gd <= params.alpha and task.segment_free(q_new, goal, fs_i):
                c = tree.cost[new_id] + gd
                if best_conn is None or c < best_conn[0]:
                    best_conn = (c, new_id)
        # the start itself may already connect to the goal
        gd0 = float(np.linalg.norm(q_seg_start - goal))
        if gd0 <= params.alpha and task.segment_free(q_seg_start, goal, fs_i):
            if best_conn is None or gd0 < best_conn[0]:
                best_conn = (gd0, 0)
        if best_conn is None:
            raise PlanningFailure(phase=i, message=f"no path to the IK goal in phase {i}")
        _, node = best_conn
        chain = tree.path_to_subroot(node)
        seg = [tree.config(j) for j in reversed(chain)] + [goal]
        all_segments.append(seg)
        fs = task.advance_free_space(fs, i, goal)
        q_seg_start = goal

    configs = list(all_segments[0])
    bounds_idx = []
    for seg in all_segments[1:]:
        bounds_idx.append(len(configs) - 1)
        configs.extend(seg[1:])
    configs = np.array(configs)
    total = float(np.sum(np.linalg.norm(np.diff(configs, axis=0), axis=1)))
    return SolutionPath(configs=configs, segment_bounds=bounds_idx, total_cost=total)


PLANNERS = {
    "psm": psm_star,
    "psm-greedy": psm_star_greedy,
    "psm-single": psm_star_single_tree,
    "rrtstar-ik": rrt_star_ik,
}


def validate_solution(task, path, params, step_slack=None):
    """Independent check of a solution path against the task definition.

    Verifies per-segment constraint residuals, boundary continuity, bounded
    step lengths, collision freedom under the per-segment free space, and
    cost bookkeeping. Returns a list of violation strings (empty if valid).
    """
    violations = []
    eps = params.eps * (1.0 + 1e-9) + 1e-12
    # steering steps are alpha long before projection; the projection displacement
    # is not bounded by r (r gates a task-space residual), so allow generous slack
    if step_slack is None:
        step_slack = 0.5 * (params.alpha + params.r)
    max_step = params.alpha + params.r + step_slack
    segs = path.segments()
    if len(segs) != task.n_phases:
        violations.append(f"expected {task.n_phases} segments, got {len(segs)}")
        return violations
    if not np.allclose(path.configs[0], task.start()):
        violations.append("path does not start at the task start configuration")
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

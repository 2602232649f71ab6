"""Tree machinery, the four planners, and path extraction/validation."""
import collections
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmp import bench
from seqmp import kinematics as kin
from seqmp import planner, steering
from seqmp.manifolds import AffinePlane, PointGoal, evaluate
from seqmp.planner import (
    PlannerParams,
    PlanningFailure,
    Tree,
    psm_star,
    psm_star_greedy,
    psm_star_single_tree,
    polyline_length,
    rewiring_radius,
    rrt_star_ik,
    rrt_star_extend,
    validate_solution,
)
from seqmp.scene import FreeSpaceState, ObstacleAABB, Task, build_benchmark_scene
from sphere import Sphere
from test_steering import record_calls

RNG = np.random.default_rng(2718)
FREE = lambda a, q: True


def line_point_task():
    """M1: plane y=0 in R^2, M2: point (2,0); optimal cost 2."""
    return Task(
        name="line_point",
        manifolds=(AffinePlane([[0.0, 1.0]], [0.0]), PointGoal((2.0, 0.0))),
        q_start=(0.0, 0.0),
        bounds=((-4.0, 4.0), (-4.0, 4.0)),
    )


def two_segment_task():
    """Plane y=0 -> line x=2 -> point (2,3); forced corner at (2,0), cost 5."""
    return Task(
        name="two_segment",
        manifolds=(
            AffinePlane([[0.0, 1.0]], [0.0]),
            AffinePlane([[1.0, 0.0]], [2.0]),
            PointGoal((2.0, 3.0)),
        ),
        q_start=(0.0, 0.0),
        bounds=((-4.0, 4.0), (-4.0, 4.0)),
    )


def infeasible_task():
    """First intersection is empty: plane z=0 never meets a sphere at height 5."""
    return Task(
        name="infeasible",
        manifolds=(
            AffinePlane([[0.0, 0.0, 1.0]], [0.0]),
            Sphere(1.0, center=(0.0, 0.0, 5.0)),
            PointGoal((0.0, 0.0, 5.0)),
        ),
        q_start=(0.0, 0.0, 0.0),
        bounds=((-4.0, 4.0),) * 3,
    )


SMALL = PlannerParams(alpha=0.5, beta=0.1, eps=1e-3, rho=0.1, r=0.5, m=300, seed=0)


class TestTreeQueries:
    def test_single_node_tree(self):
        t = Tree(2)
        t.add(np.array([1.0, 1.0]), parent=-1, cost=0.0)
        assert t.nearest(np.array([5.0, 5.0])) == 0

    def test_radius_zero_empty(self):
        t = Tree(2)
        t.add(np.array([1.0, 1.0]), parent=-1, cost=0.0)
        assert t.near(np.array([1.0, 1.0]), 0.0) == []

    def test_matches_linear_scan_oracle(self):
        t = Tree(3)
        pts = RNG.uniform(-5, 5, size=(200, 3))
        for p in pts:
            t.add(p, parent=-1, cost=0.0)
        for _ in range(50):
            q = RNG.uniform(-5, 5, 3)
            dists = np.linalg.norm(pts - q, axis=1)
            assert t.nearest(q) == int(np.argmin(dists))
            radius = RNG.uniform(0.5, 4.0)
            assert t.near(q, radius) == sorted(np.nonzero(dists <= radius)[0])

    def test_seed_roots_answer_queries(self):
        # two seeds of a subtree are roots that keep their costs; a child hangs from the second
        t = Tree(2)
        t.add(np.array([3.0, 3.0]), parent=-1, cost=4.0)
        t.add(np.array([-1.0, 0.0]), parent=-1, cost=2.5)
        t.add(np.array([0.5, 0.0]), parent=1, cost=4.0)
        assert len(t) == 3
        assert t.nearest(np.array([0.0, 0.0])) == 2
        assert t.near(np.array([0.0, 0.0]), 100.0) == [0, 1, 2]
        assert t.path_to_root(2) == [2, 1] and t.path_to_root(0) == [0]

    def test_several_roots_match_linear_scan(self):
        t = Tree(2)
        pts = RNG.uniform(-3, 3, size=(40, 2))
        for i, p in enumerate(pts):
            t.add(p, parent=-1 if i % 7 == 0 else i - 1, cost=0.0)  # a root, then a chain of six
        assert len(t) == len(pts)
        for i in range(len(pts)):
            assert t.path_to_root(i)[-1] == i - i % 7
        for _ in range(20):
            q = RNG.uniform(-3, 3, 2)
            dists = np.linalg.norm(pts - q, axis=1)
            assert t.nearest(q) == int(np.argmin(dists))
            assert t.near(q, 2.0) == np.nonzero(dists <= 2.0)[0].tolist()

    def test_empty_tree_raises(self):
        with pytest.raises(ValueError):
            Tree(2).nearest(np.zeros(2))


def _ordered_distance(x, q):
    """Plain-Python distance, squares summed in coordinate order."""
    total = (x[0] - q[0]) * (x[0] - q[0])
    for a, b in zip(x[1:], q[1:]):
        total += (a - b) * (a - b)
    return math.sqrt(total)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3, 4, 8]), data=st.data())
def test_tree_queries_match_plain_python_oracle(dim, data):
    # grid points make duplicate nodes, exact distance ties and nodes at exactly
    # the radius likely; sizes reach past the 64- and 128-row capacity steps
    coord = st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]) | st.floats(-2.0, 2.0)
    point = st.lists(coord, min_size=dim, max_size=dim)
    pool = data.draw(st.lists(point, min_size=1, max_size=12))
    n = data.draw(st.integers(1, 140) | st.sampled_from([64, 65, 128, 129]))
    # a forest: each node is a root (a subtree seed) with probability 1/10, else hangs from an earlier node
    tree, nodes = Tree(dim), []
    for k in range(n):
        root = k == 0 or data.draw(st.integers(0, 9)) == 0
        config = data.draw(st.sampled_from(pool))
        nodes.append(config)
        tree.add(np.array(config), parent=-1 if root else data.draw(st.integers(0, k - 1)), cost=0.0)
    q = data.draw(st.sampled_from(pool) | point)
    want = [_ordered_distance(x, q) for x in nodes]
    assert tree._distances(np.array(q)).tolist() == want  # bit for bit
    ids = range(n)
    assert tree.nearest(np.array(q)) == min(ids, key=lambda i: (want[i], i))  # lowest id of exact ties
    radius = data.draw(st.sampled_from(want) | st.floats(0.0, 5.0))
    got = tree.near(np.array(q), radius)
    assert got == ([i for i in ids if want[i] <= radius] if radius > 0 else [])
    leaf = data.draw(st.sampled_from(ids))
    chain = tree.path_to_root(leaf)
    assert chain[0] == leaf and tree.parent[chain[-1]] == -1
    assert all(tree.parent[a] == b for a, b in zip(chain, chain[1:]))


class TestRrtStarExtend:
    def test_empty_neighborhood_insert(self):
        t = Tree(2)
        t.add(np.zeros(2), parent=-1, cost=0.0)
        params = PlannerParams(alpha=1.0)
        nid = rrt_star_extend(t, 0, np.array([1.0, 0.0]), FREE, params, gamma=1e-6)
        assert nid == 1
        assert t.parent[1] == 0
        assert t.cost[1] == pytest.approx(1.0)

    def test_colliding_segment_leaves_tree_unchanged(self):
        t = Tree(2)
        t.add(np.zeros(2), parent=-1, cost=0.0)
        blocked = lambda a, q: False
        assert rrt_star_extend(t, 0, np.array([1.0, 0.0]), blocked, PlannerParams(), gamma=4.0) is None
        assert len(t) == 1

    def test_diamond_rewiring_matches_dijkstra(self):
        # root -> two detours; inserting the middle point rewires the far node
        import scipy.sparse.csgraph as csgraph
        from scipy.sparse import csr_matrix

        t = Tree(2)
        t.add(np.array([0.0, 0.0]), parent=-1, cost=0.0)
        params = PlannerParams(alpha=2.0)
        g = 100.0
        rrt_star_extend(t, 0, np.array([1.0, 1.2]), FREE, params, gamma=g)   # node 1
        rrt_star_extend(t, 1, np.array([2.0, 0.1]), FREE, params, gamma=g)   # node 2, via detour
        rrt_star_extend(t, 0, np.array([1.0, 0.0]), FREE, params, gamma=g)   # node 3 rewires node 2
        n = len(t)
        configs = t.configs
        radius = 2.0  # every pair within alpha-capped radius here
        rows, cols, vals = [], [], []
        for i in range(n):
            for j in range(n):
                d = np.linalg.norm(configs[i] - configs[j])
                if i != j and d <= radius:
                    rows.append(i)
                    cols.append(j)
                    vals.append(d)
        dist = csgraph.dijkstra(csr_matrix((vals, (rows, cols)), shape=(n, n)), indices=0)
        assert t.cost == pytest.approx(dist, abs=1e-9)
        assert t.parent[2] == 3  # the rewiring actually happened

    def test_rewiring_propagates_to_descendants(self):
        t = Tree(1)
        t.add(np.array([0.0]), parent=-1, cost=0.0)
        a = t.add(np.array([3.0]), parent=0, cost=3.0)
        b = t.add(np.array([4.0]), parent=a, cost=4.0)
        t.reparent(a, 0, 1.5)
        assert t.cost[a] == pytest.approx(1.5)
        assert t.cost[b] == pytest.approx(2.5)

    def test_radius_formula(self):
        assert rewiring_radius(10.0, 1, 3, 1.0) == 0.0
        assert rewiring_radius(10.0, 100, 3, 1.0) == pytest.approx(
            min(10.0 * (np.log(100) / 100) ** (1 / 3), 1.0))

    def test_radius_equals_numpy_log_form_bit_for_bit(self):
        for dim in (2, 3, 4, 8):
            for n in range(2, 5000):
                assert rewiring_radius(7.3, n, dim, 50.0) == min(7.3 * (np.log(n) / n) ** (1.0 / dim), 50.0)


class TestSmallRewrites:
    """The scalar forms on the extend path against the expressions they replace."""

    @settings(deadline=None)
    @given(data=st.data())
    def test_in_bounds_matches_numpy_form(self, data):
        special = st.sampled_from([math.nan, 0.0, -0.0, 1.5, -1.5, math.inf, -math.inf])
        value = special | st.floats(-3.0, 3.0)
        k = data.draw(st.integers(1, 4))
        bounds = np.array(data.draw(st.lists(st.tuples(value, value), min_size=k, max_size=k)))
        q = np.array(data.draw(st.lists(special | st.sampled_from(bounds.ravel().tolist()) | value,
                                        min_size=k, max_size=k)))
        old = bool((q >= bounds[:, 0]).all() and (q <= bounds[:, 1]).all())
        assert planner._in_bounds(q, bounds.tolist()) is old

    def test_single_tree_label_predicates_match_set_forms(self):
        for n in range(1, 5):
            labels = [(i,) for i in range(n + 1)] + [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
            for a in labels:
                for b in labels:
                    shared = set(a) & set(b)
                    assert planner._shares_manifold(a, b) is bool(shared)
                    if shared:
                        assert planner._last_shared_manifold(a, b) == max(shared)


def test_single_tree_path_cuts_where_the_edge_manifold_rises():
    # a node on the plane (manifold 0) hangs from a plane/cylinder crossing
    # labelled phase 1, and the path meets the cylinder again at a second crossing
    task = build_benchmark_scene("plane_cylinder_point")
    nodes = [((-2.0, 0.0, 0.0), 0, (0,)),    # start, on the plane
             ((-1.0, 0.0, 0.0), 1, (0, 1)),  # crossing, labelled phase 1
             ((-0.3, -0.8, 0.0), 0, (0,)),   # on the plane only, child of the crossing
             ((0.0, -1.0, 0.0), 1, (0, 1)),  # second crossing
             ((0.6, -0.8, 1.0), 1, (1,)),    # up the cylinder
             ((1.0, 0.0, 2.0), 1, (1, 2))]   # the goal point
    tree = Tree(task.ambient_dim)
    for i, (q, phase, on) in enumerate(nodes):
        tree.add(np.array(q), parent=i - 1, cost=0.0, phase=phase, on=on)
    params = PlannerParams()
    path = planner._single_tree_path(tree, len(nodes) - 1, task.n_phases)
    assert path.segment_bounds == [3]
    assert np.array_equal(path.configs, np.array([q for q, _, _ in nodes]))
    assert validate_solution(task, path, params) == []
    # cutting where the node phase rises splits the plane segment at the first crossing
    phases = [phase for _, phase, _ in nodes]
    cuts = [k for k in range(1, len(nodes)) if phases[k] > phases[k - 1]]
    assert cuts == [1, 3]
    by_phase = planner._stitch([[tree.config(v) for v in range(a, b + 1)]
                                for a, b in zip([0] + cuts, cuts + [len(nodes) - 1])])
    assert validate_solution(task, by_phase, params) == ["expected 2 segments, got 3"]


def test_validator_reports_vertices_outside_the_joint_limits():
    # a two-link arm that holds q0 = 0 and turns its second joint to the goal
    # q1 = 1.5; every vertex is on its manifold and within bounds
    def task(limits):
        chain = kin.SerialChain((kin.Joint((0.0, 0.0, 1.0)), kin.Joint((0.0, 0.0, 1.0), origin=(1.0, 0.0, 0.0))),
                                tool=(1.0, 0.0, 0.0), limits=limits)
        return Task(name="arm", manifolds=(AffinePlane([[1.0, 0.0]], [0.0]), PointGoal((0.0, 1.5))),
                    q_start=(0.0, 0.0), bounds=((-3.0, 3.0),) * 2, system=kin.MultiRobotSystem(chains=(chain,)))

    configs = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.0, 1.5]])
    path = planner.SolutionPath(configs, [], polyline_length(configs))
    params = PlannerParams()
    assert validate_solution(task(((-1.0, 1.0), (-2.0, 2.0))), path, params) == []
    assert validate_solution(task(((-1.0, 1.0), (-0.75, 0.75))), path, params) == [
        "vertex 2: outside the joint limits", "vertex 3: outside the joint limits"]
    assert validate_solution(task(((0.0, 1.0), (-2.0, 2.0))), path, params) == []  # a limit is inclusive


def test_validator_rejects_a_point_edge_that_clips_a_box_between_sampled_points():
    # the edge from the start to the goal runs inside the box for x in
    # (1.001, 1.009), between the configurations 0.05 apart that a sampled test checks
    box = ObstacleAABB((1.001, -5.0, -1.0), (5.0, 1.009, 1.0))
    task = Task(name="clip", manifolds=(AffinePlane([[0.0, 0.0, 1.0]], [0.0]), PointGoal((2.0, 2.0, 0.0))),
                q_start=(0.0, 0.0, 0.0), bounds=((-4.0, 4.0),) * 3, free_space=FreeSpaceState(obstacles=(box,)))
    configs = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
    path = planner.SolutionPath(configs, [], polyline_length(configs))
    assert validate_solution(task, path, PlannerParams()) == ["segment 0 edge 0: collides"]


def _old_parent_search(tree, near_id, q_new, neighbors, free):
    """The eager parent search: check every neighbour that beats the running minimum, in id order.

    Returns (parent, number of segment checks).
    """
    q_min = near_id
    c_min = tree.cost[near_id] + float(np.linalg.norm(q_new - tree.config(near_id)))
    checks = 0
    for i in neighbors:
        if i == near_id:
            continue
        c = tree.cost[i] + float(np.linalg.norm(q_new - tree.config(i)))
        if c < c_min:
            checks += 1
            if free[i]:
                q_min, c_min = i, c
    return q_min, checks


def _duplicates_a_node(tree, near_id, q_new, neighbors, params):
    """Whether q_new lies within DUPLICATE_TOL * eps of near_id or a neighbour, by scalar norms."""
    return any(np.linalg.norm(q_new - tree.config(i)) <= planner.DUPLICATE_TOL * params.eps
               for i in neighbors + [near_id])


def _old_rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma):
    """rrt_star_extend as one loop per neighbour, each distance a scalar np.linalg.norm.

    A duplicate is dropped before the first segment check."""
    q_new = np.asarray(q_new, dtype=float)
    radius = rewiring_radius(gamma, len(tree), tree.dim, params.alpha)
    neighbors = tree.near(q_new, radius)
    if _duplicates_a_node(tree, near_id, q_new, neighbors, params):
        return None
    if not segment_free(near_id, q_new):
        return None
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
    new_id = tree.add(q_new, parent=q_min, cost=c_min)
    for i in neighbors:
        if i == q_min:
            continue
        c = c_min + float(np.linalg.norm(q_new - tree.config(i)))
        if c < tree.cost[i] and segment_free(i, q_new):
            tree.reparent(i, new_id, c)
    return new_id


def _draw_forest_nodes(data, point, n):
    """n (configuration, parent, root cost) triples: node 0 is a root, and each
    later node hangs from an earlier one or, one time in five, is another root,
    as a subtree seed is, with a cost of its own on a half grid."""
    nodes = [(data.draw(point), -1, 0.0)]
    for k in range(1, n):
        root = data.draw(st.integers(0, 4)) == 0
        nodes.append((data.draw(point), -1 if root else data.draw(st.integers(0, k - 1)),
                      0.5 * data.draw(st.integers(0, 6))))
    return nodes


def _forest(nodes):
    """The Tree of ``_draw_forest_nodes`` triples; a node with a parent costs its parent's cost plus the edge."""
    tree = Tree(len(nodes[0][0]))
    for q, parent, root_cost in nodes:
        cost = root_cost if parent < 0 else tree.cost[parent] + float(np.linalg.norm(q - tree.config(parent)))
        tree.add(q, parent=parent, cost=cost)
    return tree


def _points(dim):
    """Configurations of ``dim`` arbitrary floats, off any grid, so that two
    distance formulas would part in the last bit on some of them."""
    return st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim).map(np.array)


class TestOneDistanceRule:
    """``Tree._distances`` is the one distance ``rrt_star_extend`` compares."""

    @settings(deadline=None)
    @given(dim=st.integers(1, 8), data=st.data())
    def test_distances_to_some_nodes_are_the_full_pass_bytes(self, dim, data):
        n = data.draw(st.integers(1, 140))
        tree = _forest(_draw_forest_nodes(data, _points(dim), n))
        q = data.draw(_points(dim))
        ids = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
        assert tree._distances(q, ids).tobytes() == tree._distances(q)[ids].tobytes()

    @settings(deadline=None)
    @given(dim=st.integers(1, 8), data=st.data())
    def test_a_new_node_costs_its_parent_cost_plus_the_pass_distance(self, dim, data):
        n = data.draw(st.integers(1, 25))
        tree = _forest(_draw_forest_nodes(data, _points(dim), n))
        near_id = data.draw(st.integers(0, n - 1))
        q_new = data.draw(_points(dim))
        free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        free[near_id] = True
        to_nodes, cost = tree._distances(q_new), list(tree.cost)
        # a rewiring radius past the sampling box makes every node a neighbour,
        # so the parent is often one other than near_id
        params = PlannerParams(alpha=100.0)
        new_id = rrt_star_extend(tree, near_id, q_new, lambda i, q: free[i], params, 1e3)
        if new_id is None:  # a twin
            assert to_nodes.min() <= planner.DUPLICATE_TOL * params.eps
            return
        parent = tree.parent[new_id]
        assert tree.cost[new_id] == cost[parent] + float(to_nodes[parent])  # exact float equality

    @settings(deadline=None)
    @given(dim=st.integers(1, 8), data=st.data())
    def test_a_twin_is_dropped_exactly_when_the_pass_puts_it_within_tol(self, dim, data):
        params = PlannerParams()
        tol = planner.DUPLICATE_TOL * params.eps
        n = data.draw(st.integers(1, 25))
        tree = _forest(_draw_forest_nodes(data, _points(dim), n))
        # an offset of up to tol per coordinate puts q_new on either side of tol
        offset = data.draw(st.lists(st.floats(-tol, tol), min_size=dim, max_size=dim))
        q_new = tree.config(data.draw(st.integers(0, n - 1))) + np.array(offset)
        twin = tree._distances(q_new).min() <= tol
        checks = []
        new_id = rrt_star_extend(tree, tree.nearest(q_new), q_new, lambda i, q: checks.append(i) or True,
                                 params, 100.0)
        assert (new_id is None) == twin
        if twin:
            assert checks == [] and len(tree) == n

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_a_node_exactly_tol_away_is_a_twin(self, dim):
        params = PlannerParams()
        tol = planner.DUPLICATE_TOL * params.eps
        for offset, twin in ((tol, True), (np.nextafter(tol, 1.0), False)):
            tree = Tree(dim)
            tree.add(np.zeros(dim), parent=-1, cost=0.0)
            q_new = np.zeros(dim)
            q_new[-1] = offset
            assert (rrt_star_extend(tree, 0, q_new, FREE, params, 100.0) is None) == twin


class TestDelayedParentCheck:
    @settings(deadline=None)
    @given(data=st.data())
    def test_cheapest_free_parent_with_no_more_checks(self, data):
        # grid coordinates make equal costs through different neighbours likely
        point = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: 0.5 * np.array(p, dtype=float))
        n = data.draw(st.integers(1, 25))
        tree = _forest(_draw_forest_nodes(data, point, n))
        near_id = data.draw(st.integers(0, n - 1))
        q_new = data.draw(point)
        free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        free[near_id] = True
        params = PlannerParams(alpha=2.0)
        gamma = 100.0
        neighbors = tree.near(q_new, rewiring_radius(gamma, len(tree), 2, params.alpha))
        parent_checks = []

        def segment_free(i, q):
            if len(tree) == n:  # the new node is not in yet: parent search
                parent_checks.append(i)
            return free[i]

        # brute force, before rewiring changes any cost
        cost_via = {i: tree.cost[i] + float(np.linalg.norm(q_new - tree.config(i)))
                    for i in set(neighbors) | {near_id}}
        c_best = min(c for i, c in cost_via.items() if free[i])
        # near_id wins a tie; otherwise the lowest id among the cheapest free neighbours
        want = near_id if cost_via[near_id] == c_best else min(
            i for i, c in cost_via.items() if free[i] and c == c_best)
        old_parent, old_checks = _old_parent_search(tree, near_id, q_new, neighbors, free)
        assert old_parent == want

        duplicate = _duplicates_a_node(tree, near_id, q_new, neighbors, params)
        new_id = rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma)
        if duplicate:  # q_new is a node again: dropped before any segment check
            assert new_id is None and len(tree) == n
            assert parent_checks == []
            return
        assert tree.parent[new_id] == want
        assert tree.cost[new_id] == c_best
        assert len(parent_checks) - 1 <= old_checks  # the first check is near_id's

    @staticmethod
    def _extend_both(build, near_id, q_new, free, params, gamma):
        """Run the per-neighbour reference and rrt_star_extend on two copies of
        the tree ``build()`` makes; returns (tree, segment checks) of each."""
        out = []
        for extend in (_old_rrt_star_extend, rrt_star_extend):
            tree, checks = build(), []

            def segment_free(i, q):
                checks.append(i)
                return free[i]

            extend(tree, near_id, q_new, segment_free, params, gamma)
            out.append((tree, checks))
        return out

    @staticmethod
    def _assert_same_tree(a, b):
        assert a.parent == b.parent
        assert a.cost == b.cost  # exact: the same float operations in the same order
        assert a.children == b.children
        assert np.array_equal(a.configs, b.configs)

    @settings(deadline=None)
    @given(data=st.data())
    def test_same_parent_rewires_and_costs_as_per_neighbour_loop(self, data):
        # grid coordinates make ties likely; random parents make neighbours that
        # hang below other neighbours, whose costs fall when those are rewired
        point = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: 0.5 * np.array(p, dtype=float))
        n = data.draw(st.integers(1, 25))
        nodes = _draw_forest_nodes(data, point, n)
        build = functools.partial(_forest, nodes)

        near_id = data.draw(st.integers(0, n - 1))
        free = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        q_new = data.draw(point)
        (old, old_checks), (new, new_checks) = self._extend_both(
            build, near_id, q_new, free, PlannerParams(alpha=2.0), gamma=100.0)
        # the reference checks a (node, q_new) segment again when rewiring; rrt_star_extend reuses the verdict
        assert new_checks == list(dict.fromkeys(old_checks))
        self._assert_same_tree(old, new)

    def test_near_id_is_not_checked_again_when_rewired(self):
        # root 0 at x=0; near_id 1, a root of cost 10 at x=5; q_new at x=4 hangs
        # from 0 (cost 4) and rewires 1 (cost 5) on near_id's verdict
        def build():
            tree = Tree(1)
            tree.add(np.array([0.0]), parent=-1, cost=0.0)
            tree.add(np.array([5.0]), parent=-1, cost=10.0)
            return tree

        (old, old_checks), (new, new_checks) = self._extend_both(
            build, 1, np.array([4.0]), [True] * 2, PlannerParams(alpha=10.0), gamma=100.0)
        assert old_checks == [1, 0, 1]
        assert new_checks == [1, 0]
        self._assert_same_tree(old, new)
        assert new.parent == [-1, 2, 0] and new.cost == [0.0, 5.0, 4.0]

    def test_neighbour_below_a_rewired_neighbour_is_tested_at_its_lowered_cost(self):
        # root 0 -> detour 1 (x=5) -> a 2 (x=3) -> b 3 (x=3.5); q_new at x=1 rewires a,
        # which lowers b's cost to exactly its cost through q_new: b must not be checked
        def build():
            tree = Tree(1)
            tree.add(np.array([0.0]), parent=-1, cost=0.0)
            tree.add(np.array([5.0]), parent=0, cost=5.0)
            tree.add(np.array([3.0]), parent=1, cost=7.0)
            tree.add(np.array([3.5]), parent=2, cost=7.5)
            return tree

        (old, old_checks), (new, new_checks) = self._extend_both(
            build, 0, np.array([1.0]), [True] * 4, PlannerParams(alpha=10.0), gamma=100.0)
        assert new_checks == old_checks == [0, 2]
        self._assert_same_tree(old, new)
        assert new.parent[2] == 4 and new.parent[3] == 2
        assert new.cost == [0.0, 5.0, 3.0, 3.5, 1.0]


class TestDuplicateRule:
    EPS = 0.01

    @staticmethod
    def _build():
        # root 0 at the origin, 1 and 2 one step away, 3 below 1
        tree = Tree(2)
        tree.add(np.array([0.0, 0.0]), parent=-1, cost=0.0)
        tree.add(np.array([1.0, 0.0]), parent=0, cost=1.0)
        tree.add(np.array([0.0, 1.0]), parent=0, cost=1.0)
        tree.add(np.array([1.0, 1.0]), parent=1, cost=2.0)
        return tree

    def _extend(self, q_new, near_id=2):
        """(tree, new id, segment checks) of one rrt_star_extend on a fresh ``_build()`` tree."""
        tree, checks = self._build(), []

        def segment_free(i, q):
            checks.append(i)
            return True

        params = PlannerParams(alpha=2.0, eps=self.EPS)
        return tree, rrt_star_extend(tree, near_id, np.asarray(q_new), segment_free, params, gamma=100.0), checks

    @pytest.mark.parametrize("node", [0, 1, 3])
    def test_exact_twin_of_a_node_other_than_near_id_is_dropped(self, node):
        want = self._build()
        tree, new_id, checks = self._extend(want.config(node).copy())
        assert new_id is None
        assert checks == []  # not even near_id's
        TestDelayedParentCheck._assert_same_tree(tree, want)

    @pytest.mark.parametrize("scale, dropped", [(0.999, True), (1.001, False)])
    def test_tolerance_is_duplicate_tol_times_eps(self, scale, dropped):
        offset = scale * planner.DUPLICATE_TOL * self.EPS
        tree, new_id, _ = self._extend([1.0, offset])  # node 1 plus offset
        assert new_id == (None if dropped else 4)
        assert len(tree) == (4 if dropped else 5)


    def test_twin_is_dropped_before_any_segment_check(self):
        # the first segment of this twin would collide: it is dropped all the same, with no check
        tree, checks = self._build(), []

        def blocked(i, q):
            checks.append(i)
            return False

        params = PlannerParams(alpha=2.0, eps=self.EPS)
        assert rrt_star_extend(tree, 2, tree.config(1).copy(), blocked, params, gamma=100.0) is None
        assert checks == []


class TestSteerMemo:
    def test_each_tree_node_has_its_own_memo(self):
        # two trees with the same root: node 0 of each gets a memo of its own,
        # kept across extends once the steer has stored a step in it
        run = planner._Run(line_point_task(), SMALL)
        trees = [Tree(2), Tree(2)]
        for tree in trees:
            tree.add(np.zeros(2), parent=-1, cost=0.0)
        seen = []

        def steer(q_near, q_rand, m_i, m_next, memo):
            seen.append(memo)
            memo["step"] = None
            return None

        for tree in trees + trees:
            run.extend(tree, np.array([1.0, 0.0]), steer, lambda a_id, q, on: True)
        assert seen[0] is seen[2] and seen[1] is seen[3] and seen[0] is not seen[1]

    def test_ik_goal_steer_is_memoised_per_node_and_phase(self, monkeypatch, recorded_trees):
        # a node steers toward its phase's IK goal once; each phase grows a new
        # tree, so no step toward an earlier phase's goal reaches a later tree.
        # Every sample is the goal, so the first extend of each phase steers its root
        monkeypatch.setattr(planner, "IK_GOAL_BIAS", 1.0)
        calls = []

        def recorder(q_near, q_rand, m):
            calls.append((np.asarray(q_near).tobytes(), np.asarray(q_rand).tobytes()))
            return steering.steer_point(q_near, q_rand, m)

        monkeypatch.setattr(planner, "steer_point", recorder)
        task = two_segment_task()
        path = rrt_star_ik(task, SMALL)
        goals = [path.configs[b] for b in path.segment_bounds] + [path.configs[-1]]
        assert len(recorded_trees) == len(goals) == 2
        for phase, (tree, goal) in enumerate(zip(recorded_trees, goals)):
            toward = [q for q, target in calls if target == goal.tobytes()]
            assert toward and len(toward) == len(set(toward))
            assert all(np.linalg.norm(evaluate(task.manifolds[phase], q)) <= SMALL.eps for q in tree.configs)

    def test_no_phase_0_node_of_transport_a_mini_projects_more_than_four_times(self, monkeypatch):
        # phase 0's pick manifold is a curve: every steer from a node goes along
        # +b or -b, and each of those two steps is projected once per target
        task = bench.resolve_task("transport_a_mini")
        projections = record_calls(monkeypatch, "project")
        per_node = collections.Counter()
        psm_steer = planner.psm_steer

        def recorder(params, q_near, q_rand, m_i, *rest):
            before = len(projections)
            q_new = psm_steer(params, q_near, q_rand, m_i, *rest)
            if m_i is task.manifolds[0]:
                per_node[np.asarray(q_near).tobytes()] += len(projections) - before
            return q_new

        monkeypatch.setattr(planner, "psm_steer", recorder)
        psm_star(task, bench.params_with_overrides(task, {"m": 60}, seed=1))
        assert len(per_node) > 1
        assert max(per_node.values()) <= 4


def _record_extends(monkeypatch):
    """Each rrt_star_extend call's (tree, near_id, q_new bytes)."""
    calls, extend = [], planner.rrt_star_extend

    def recorder(tree, near_id, q_new, *rest, **kw):
        calls.append((id(tree), near_id, np.asarray(q_new).tobytes()))
        return extend(tree, near_id, q_new, *rest, **kw)

    monkeypatch.setattr(planner, "rrt_star_extend", recorder)
    return calls


class TestHandOutOnce:
    """A steer result a node's memo keeps reaches rrt_star_extend once: a
    repeat would be a twin, out of bounds, or collide on the same segment."""

    def test_psm_on_transport_a_mini(self, monkeypatch):
        task = bench.resolve_task("transport_a_mini")
        params = bench.params_with_overrides(task, {"m": 60}, seed=1)
        want = psm_star(task, params)
        calls = _record_extends(monkeypatch)
        got = psm_star(task, params)
        assert len(calls) == len(set(calls)) > 0
        assert got.configs.tobytes() == want.configs.tobytes()

    def test_rrtstar_ik_goal_step(self, monkeypatch):
        # every sample is the IK goal (2, 0), behind a wall across y = 0: the root's
        # kept step reaches (0.5, 0), whose kept step collides, once
        monkeypatch.setattr(planner, "IK_GOAL_BIAS", 1.0)
        calls = _record_extends(monkeypatch)
        wall = FreeSpaceState(obstacles=(ObstacleAABB((0.8, -1.0), (1.2, 1.0)),))
        task = dataclasses.replace(two_segment_task(), free_space=wall)
        with pytest.raises(PlanningFailure, match="no path to the IK goal in phase 0"):
            rrt_star_ik(task, SMALL)
        assert [near_id for _, near_id, _ in calls] == [0, 1]

    def test_a_fresh_steer_result_is_not_marked(self):
        memo = {"kept": np.zeros(2)}
        assert not planner._handed_out_before(memo, np.zeros(2))
        assert not planner._handed_out_before(memo, memo["kept"])
        assert planner._handed_out_before(memo, memo["kept"])


def test_each_radius_is_computed_once_per_free_space(monkeypatch):
    # psm-single checks edges in the free space of each phase it has reached
    task = bench.resolve_task("transport_a_mini")
    calls, clearance = [], Task.clearance

    def recorder(self, q, fs):
        calls.append((np.asarray(q).tobytes(), id(fs)))
        return clearance(self, q, fs)

    monkeypatch.setattr(Task, "clearance", recorder)
    psm_star_single_tree(task, bench.params_with_overrides(task, {"m": 60}, seed=0))
    assert len({fs for _, fs in calls}) > 1
    assert len(calls) == len(set(calls))


class TestDegenerateTasks:
    def test_line_point_converges_to_two(self):
        path = psm_star(line_point_task(), SMALL)
        assert 2.0 - 1e-9 <= path.total_cost <= 2.2
        assert len(path.segments()) == 1

    def test_two_segment_forced_corner(self):
        for planner in (psm_star, psm_star_greedy, psm_star_single_tree, rrt_star_ik):
            path = planner(two_segment_task(), SMALL)
            assert 5.0 - 1e-9 <= path.total_cost <= 5.4, planner.__name__
            assert len(path.segments()) == 2
            # the forced intersection point is visited
            b = path.segment_bounds[0]
            assert path.configs[b] == pytest.approx([2.0, 0.0], abs=2e-3)

    def test_greedy_equals_psm_on_unique_intersection(self):
        a = psm_star(two_segment_task(), SMALL)
        b = psm_star_greedy(two_segment_task(), SMALL)
        assert b.total_cost == pytest.approx(a.total_cost, abs=0.3)

    def test_failure_reports_phase(self):
        with pytest.raises(PlanningFailure) as err:
            psm_star(infeasible_task(), PlannerParams(m=50, seed=0))
        assert err.value.phase == 0

    def test_start_off_manifold_rejected(self):
        task = Task(
            name="bad_start",
            manifolds=(AffinePlane([[0.0, 1.0]], [0.0]), PointGoal((2.0, 0.0))),
            q_start=(0.0, 1.0),
            bounds=((-4.0, 4.0), (-4.0, 4.0)),
        )
        with pytest.raises(ValueError):
            psm_star(task, SMALL)

    @pytest.mark.parametrize("name", sorted(planner.PLANNERS))
    def test_start_with_a_nan_coordinate_rejected(self, name):
        task = dataclasses.replace(line_point_task(), q_start=(0.0, float("nan")))
        with pytest.raises(ValueError, match="violates the first constraint"):
            planner.PLANNERS[name](task, SMALL)


class RecordingTree(Tree):
    """A Tree that records what the planner does to it: each ``add``'s parent
    and cost, every edge it makes (parent, child), and each ``reparent`` as
    (node, cost before, cost after)."""

    made = None  # the list every new RecordingTree is appended to

    def __init__(self, dim):
        super().__init__(dim)
        self.added, self.edges, self.rewires = [], [], []
        self.made.append(self)

    def add(self, config, parent, cost, **kw):
        i = super().add(config, parent, cost, **kw)
        self.added.append((parent, cost))
        if parent >= 0:
            self.edges.append((parent, i))
        return i

    def reparent(self, node, new_parent, new_cost):
        self.edges.append((new_parent, node))
        self.rewires.append((node, self.cost[node], new_cost))
        super().reparent(node, new_parent, new_cost)


@pytest.fixture
def recorded_trees(monkeypatch):
    """The trees a planner builds, in order, each a ``RecordingTree``."""
    trees = []
    monkeypatch.setattr(RecordingTree, "made", trees)
    monkeypatch.setattr(planner, "Tree", RecordingTree)
    return trees


def _seeds(tree):
    """Ids of the nodes added as roots (parent -1)."""
    return [i for i, (parent, _) in enumerate(tree.added) if parent == -1]


def _twins(tree, tol):
    """Ids of the nodes that lie within ``tol`` of an earlier node of ``tree``."""
    return [i for i in range(1, len(tree)) if tree._distances(tree.config(i))[:i].min() <= tol]


class TestInvariants:
    @pytest.fixture
    def psm_run(self, recorded_trees):
        """(task, params, path, trees) of one psm run on point3d_free."""
        task = build_benchmark_scene("point3d_free")
        params = PlannerParams(m=150, seed=0)
        path = psm_star(task, params)
        assert len(recorded_trees) == task.n_phases
        return task, params, path, recorded_trees

    def test_cost_consistency_and_residual_guard(self, psm_run):
        task, params, _, trees = psm_run
        for phase, tree in enumerate(trees):
            m = task.manifolds[phase]
            for i in range(len(tree)):
                assert np.linalg.norm(evaluate(m, tree.config(i))) <= params.eps * (1 + 1e-9)
                p = tree.parent[i]
                if p >= 0:
                    edge = np.linalg.norm(tree.config(i) - tree.config(p))
                    assert tree.cost[i] == pytest.approx(tree.cost[p] + edge, abs=1e-9)

    def test_tree_costs_match_dijkstra_on_final_edges(self, psm_run):
        import scipy.sparse.csgraph as csgraph
        from scipy.sparse import csr_matrix

        for tree in psm_run[3]:
            # a source node n reaches each root r by an edge of cost[r] + 1 (an edge of 0 would be
            # no edge), so a node's distance from it, less 1, is its cheapest cost over the forest
            n = len(tree)
            rows, cols, vals = [], [], []
            for i in range(n):
                p = tree.parent[i]
                d = tree.cost[i] + 1.0 if p < 0 else np.linalg.norm(tree.config(i) - tree.config(p))
                p = n if p < 0 else p
                rows += [i, p]
                cols += [p, i]
                vals += [d, d]
            dist = csgraph.dijkstra(csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)), indices=n)
            assert tree.cost == pytest.approx(dist[:n] - 1.0, abs=1e-9)

    def test_goal_set_separation_and_membership(self, psm_run):
        # V_goal of phases 0..n-2 is the set of seeds of the next tree
        task, params, _, trees = psm_run
        for phase, tree in enumerate(trees[1:]):
            pts = np.array([tree.config(i) for i in _seeds(tree)])
            m_next = task.manifolds[phase + 1]
            for p in pts:
                assert np.linalg.norm(evaluate(m_next, p)) <= params.eps
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert np.linalg.norm(pts[i] - pts[j]) >= params.rho

    def test_seeds_preserve_costs_across_subtrees(self, psm_run):
        trees = psm_run[3]
        assert _seeds(trees[0]) == [0]  # the start
        for prev, tree in zip(trees, trees[1:]):
            seeds = _seeds(tree)
            # every root of a subtree is one of its seeds; rewiring may hang a seed below another node
            roots = [i for i, p in enumerate(tree.parent) if p < 0]
            assert roots and set(roots) <= set(seeds)
            for nid in seeds:
                # a seed is a node of the previous tree, added at that node's final cost
                q, cost = tree.config(nid), tree.added[nid][1]
                assert any(np.array_equal(q, prev.config(j)) and cost == prev.cost[j] for j in range(len(prev)))
                # later rewiring may only lower it
                assert tree.cost[nid] <= cost

    def test_every_rewire_lowers_a_cost(self, psm_run):
        rewires = [r for tree in psm_run[3] for r in tree.rewires]
        assert rewires
        assert all(after < before for _, before, after in rewires)

    def test_no_node_duplicates_an_earlier_one(self, psm_run):
        _, params, _, trees = psm_run
        for tree in trees:
            assert _twins(tree, planner.DUPLICATE_TOL * params.eps) == []

    def test_no_node_duplicates_an_earlier_one_on_transport_a_mini(self, recorded_trees):
        # the pick/carry intersection of phase 0 is a few isolated poses, which
        # every projection onto it after the first lands on again
        task = build_benchmark_scene("transport_a_mini")
        params = bench.params_with_overrides(task, {"m": 60}, seed=1)
        psm_star(task, params)
        assert len(recorded_trees) == task.n_phases
        for tree in recorded_trees:
            assert _twins(tree, planner.DUPLICATE_TOL * params.eps) == []

    def test_extracted_path_validates(self, psm_run):
        task, params, path, _ = psm_run
        assert validate_solution(task, path, params) == []
        assert path.total_cost == pytest.approx(path.polyline_length())

    def test_single_tree_node_budget(self, recorded_trees):
        task = build_benchmark_scene("point3d_free")
        params = PlannerParams(m=100, seed=1)
        psm_star_single_tree(task, params)
        (tree,) = recorded_trees
        assert len(tree) <= task.n_phases * params.m + 1

    def test_single_tree_edges_share_a_manifold(self, recorded_trees):
        # every edge the single tree ever makes, at an add or a rewire, joins
        # two nodes that lie on one manifold
        psm_star_single_tree(build_benchmark_scene("point3d_free"), PlannerParams(m=300, seed=0))
        (tree,) = recorded_trees
        assert tree.edges and tree.rewires
        assert any(len(on) == 2 for on in tree.on)  # the tree crossed between manifolds
        for parent, child in tree.edges:
            assert planner._shares_manifold(tree.on[parent], tree.on[child])

    def test_determinism_bit_for_bit(self):
        task = build_benchmark_scene("point3d_free")
        a = psm_star(task, PlannerParams(m=200, seed=3))
        b = psm_star(task, PlannerParams(m=200, seed=3))
        assert np.array_equal(a.configs, b.configs)
        assert a.segment_bounds == b.segment_bounds
        assert a.total_cost == b.total_cost
        c = psm_star(task, PlannerParams(m=200, seed=4))
        assert not np.array_equal(a.configs, c.configs)


class TestThetaTaskComparisons:
    def test_greedy_never_beats_psm_on_matched_seeds(self):
        task = build_benchmark_scene("plane_cylinder_point")
        for seed in range(5):
            p = PlannerParams(m=600, seed=seed)
            assert psm_star_greedy(task, p).total_cost >= psm_star(task, p).total_cost - 1e-9

    def test_ik_baseline_noisier_and_worse(self):
        task = build_benchmark_scene("plane_cylinder_point")
        psm_costs, ik_costs = [], []
        for seed in range(6):
            p = PlannerParams(m=600, seed=seed)
            psm_costs.append(psm_star(task, p).total_cost)
            try:
                ik_costs.append(rrt_star_ik(task, p).total_cost)
            except PlanningFailure:
                pass
        assert len(ik_costs) >= 3
        assert np.mean(ik_costs) >= np.mean(psm_costs)


def test_ik_goal_connection_is_cheapest_after_rewiring(recorded_trees):
    # rewiring lowers the cost of nodes already linked to the IK goal; the
    # chosen connection must be the cheapest at the end of the phase
    task = build_benchmark_scene("point3d_free")  # no obstacles: every link within alpha is free
    params = PlannerParams(m=600, seed=0)
    path = rrt_star_ik(task, params)
    assert len(recorded_trees) == task.n_phases
    stale = 0
    for tree, (a, b) in zip(recorded_trees, path.segments()):
        goal = path.configs[b]
        links = [(float(np.linalg.norm(tree.config(j) - goal)), j) for j in range(len(tree))]
        links = [(gd, j) for gd, j in links if gd <= params.alpha]
        assert polyline_length(path.configs[a:b + 1]) == pytest.approx(
            min(tree.cost[j] + gd for gd, j in links), abs=1e-9)
        stale += sum(tree.cost[j] < tree.added[j][1] for _, j in links)
    assert stale  # some linked node did get cheaper after it was linked


def test_ik_goal_links_measure_with_the_tree_distance():
    # node 1 lies at a distance from the goal that the BLAS norm rounds one
    # ulp apart: the link carries the coordinate-order sum, as every distance
    # the planner compares
    rng = np.random.default_rng(5)
    goal = np.zeros(3)
    q = next(v for v in rng.uniform(-0.5, 0.5, (2000, 3))
             if np.linalg.norm(v) != math.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2]))
    tree = Tree(3)
    tree.add(np.full(3, 0.1), parent=-1, cost=0.0)
    tree.add(q, parent=0, cost=1.0)
    tree.add(np.full(3, 2.0), parent=0, cost=1.0)  # farther than alpha
    links = planner._goal_links(tree, goal, 1.0, lambda a, b: True)
    assert [j for _, j in links] == [1, 0]  # the root last
    assert links[0][0] == tree._distances(goal, [1])[0] != np.linalg.norm(q - goal)
    assert planner._goal_links(tree, goal, 1.0, lambda a, b: b is not goal) == []


def test_cheapest_takes_the_lowest_id_among_costs_a_few_ulps_apart():
    # node 2 is one ulp cheaper than node 1, so a plain (cost, id) minimum
    # takes node 2; costs that close tie, and the lower id wins
    tree = Tree(1)
    tree.add(np.zeros(1), parent=-1, cost=0.0)
    for cost in (math.nextafter(4.5, 5.0), 4.5, 4.5 + 1e-9, 4.4):
        tree.add(np.zeros(1), parent=0, cost=cost)
    assert min([1, 2], key=lambda g: (tree.cost[g], g)) == 2
    assert planner._cheapest(tree, [1, 2]) == planner._cheapest(tree, [2, 1]) == 1
    assert planner._cheapest(tree, [2, 3]) == 2  # 1e-9 is far more than a few ulps
    assert planner._cheapest(tree, [1, 2, 3, 4]) == 4  # a clearly cheaper node still wins
    far = 4.5 + (planner.COST_TIE_ULPS + 1) * math.ulp(4.5)
    tree.cost[1] = far
    assert planner._cheapest(tree, [1, 2]) == 2


class TestPlannerParamsValidation:
    @given(name=st.sampled_from(["alpha", "beta", "eps", "rho", "r"]),
           value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    @given(name=st.sampled_from(["alpha", "r", "eps"]),
           value=st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_non_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    @given(value=st.floats(max_value=0.0, exclude_max=True, allow_nan=False))
    def test_rejects_negative_rho(self, value):
        with pytest.raises(ValueError, match="rho"):
            PlannerParams(rho=value)

    @given(name=st.sampled_from(["alpha", "beta", "eps", "rho", "r"]),
           value=st.text() | st.booleans() | st.lists(st.floats(), max_size=2) | st.complex_numbers())
    def test_rejects_non_real(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    @given(name=st.sampled_from(["m", "seed"]),
           value=st.text() | st.booleans() | st.floats() | st.none())
    def test_rejects_non_integer(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    def test_fields_are_the_psm_star_parameters_and_the_seed(self):
        assert {f.name for f in dataclasses.fields(PlannerParams)} == {"alpha", "beta", "eps", "rho", "r", "m", "seed"}

    @given(alpha=st.floats(1e-6, 1e6), r=st.floats(1e-6, 1e6), rho=st.floats(0.0, 1e6))
    def test_accepts_finite_in_range(self, alpha, r, rho):
        p = PlannerParams(alpha=alpha, r=r, rho=rho)
        assert (p.alpha, p.r, p.rho) == (alpha, r, rho)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 5),
       bounds=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), min_size=1, max_size=6))
def test_run_uniform_is_generator_uniform(seed, draws, bounds):
    k = len(bounds)
    bounds = tuple((lo, lo + width) for lo, width in bounds)
    task = Task(name="uniform", manifolds=(AffinePlane([[1.0] + [0.0] * (k - 1)], [0.0]), PointGoal((0.0,) * k)),
                q_start=(0.0,) * k, bounds=bounds)
    run = planner._Run(task, PlannerParams(seed=seed))
    rng = np.random.default_rng(seed)
    lo, hi = np.array(bounds).T
    for _ in range(draws):
        assert run.uniform().tobytes() == rng.uniform(lo, hi).tobytes()
    assert run.rng.random() == rng.random()  # the same stream position afterwards


@pytest.mark.parametrize("bad", [(4.0, -4.0), (-4.0, np.inf), (np.nan, 4.0)])
def test_run_rejects_reversed_or_non_finite_bounds(bad):
    task = dataclasses.replace(line_point_task(), bounds=(bad, (-4.0, 4.0)))
    with pytest.raises(ValueError, match="bounds"):
        planner._Run(task, SMALL)

"""Tree machinery, the four planners, and path extraction/validation."""
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmp import kinematics as kin
from seqmp import planner
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
    row_norms,
    rrt_star_ik,
    rrt_star_extend,
    validate_solution,
)
from seqmp.scene import Task, build_benchmark_scene
from sphere import Sphere

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
        params = PlannerParams(alpha=2.0, gamma_rrt=100.0)
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


def _old_rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma):
    """rrt_star_extend as one loop per neighbour, each distance a scalar np.linalg.norm."""
    q_new = np.asarray(q_new, dtype=float)
    if not segment_free(near_id, q_new):
        return None
    radius = rewiring_radius(gamma, len(tree), tree.dim, params.alpha)
    neighbors = tree.near(q_new, radius)
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


@settings(deadline=None)
@given(k=st.integers(1, 8), data=st.data())
def test_row_norms_equal_scalar_norms_bit_for_bit(k, data):
    value = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-150, 150))
    d = np.array(data.draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=1, max_size=30)))
    want = np.array([np.linalg.norm(row) for row in d])
    assert row_norms(d).tobytes() == want.tobytes()


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
    tree = Tree(2)
    for q, parent, root_cost in nodes:
        cost = root_cost if parent < 0 else tree.cost[parent] + float(np.linalg.norm(q - tree.config(parent)))
        tree.add(q, parent=parent, cost=cost)
    return tree


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

        new_id = rrt_star_extend(tree, near_id, q_new, segment_free, params, gamma)
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
        assert new_checks == old_checks
        self._assert_same_tree(old, new)

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


class TestInvariants:
    def _run_debug(self, planner=psm_star, m=150, seed=0):
        task = build_benchmark_scene("point3d_free")
        params = PlannerParams(m=m, seed=seed)
        debug = {}
        path = planner(task, params, debug=debug)
        return task, params, path, debug

    def test_cost_consistency_and_residual_guard(self):
        task, params, _, debug = self._run_debug()
        for phase, tree in enumerate(debug["trees"]):
            m = task.manifolds[phase]
            for i in range(len(tree)):
                assert np.linalg.norm(evaluate(m, tree.config(i))) <= params.eps * (1 + 1e-9)
                p = tree.parent[i]
                if p >= 0:
                    edge = np.linalg.norm(tree.config(i) - tree.config(p))
                    assert tree.cost[i] == pytest.approx(tree.cost[p] + edge, abs=1e-9)

    def test_tree_costs_match_dijkstra_on_final_edges(self):
        import scipy.sparse.csgraph as csgraph
        from scipy.sparse import csr_matrix

        _, _, _, debug = self._run_debug()
        for tree in debug["trees"]:
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

    def test_goal_set_separation_and_membership(self):
        task, params, _, debug = self._run_debug()
        for phase, (tree, ids) in enumerate(zip(debug["trees"], debug["v_goal_per_phase"])):
            pts = np.array([tree.config(i) for i in ids])
            m_next = task.manifolds[phase + 1]
            for p in pts:
                assert np.linalg.norm(evaluate(m_next, p)) <= params.eps
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert np.linalg.norm(pts[i] - pts[j]) >= params.rho

    def test_seeds_preserve_costs_across_subtrees(self):
        _, _, _, debug = self._run_debug()
        trees, sources = debug["trees"], debug["sources"]
        for t in range(1, len(trees)):
            # every root of a subtree is one of its seeds; rewiring may hang a seed below another node
            roots = [i for i, p in enumerate(trees[t].parent) if p < 0]
            assert roots and set(roots) <= set(sources[t - 1])
            for nid, src in sources[t - 1].items():
                assert np.array_equal(trees[t].config(nid), trees[t - 1].config(src))
                # seed cost preserved at creation; later rewiring may only lower it
                assert trees[t].cost[nid] <= trees[t - 1].cost[src] + 1e-9

    def test_best_cost_trace_non_increasing(self):
        _, _, _, debug = self._run_debug()
        trace = debug["best_cost_trace"]
        assert trace, "goal manifold was reached"
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_extracted_path_validates(self):
        task, params, path, _ = self._run_debug()
        assert validate_solution(task, path, params) == []
        assert path.total_cost == pytest.approx(path.polyline_length())

    def test_single_tree_node_budget(self):
        task = build_benchmark_scene("point3d_free")
        params = PlannerParams(m=100, seed=1)
        debug = {}
        psm_star_single_tree(task, params, debug=debug)
        assert len(debug["tree"]) <= task.n_phases * params.m + 1

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


def test_ik_goal_connection_is_cheapest_after_rewiring(monkeypatch):
    # rewiring lowers the cost of nodes already linked to the IK goal; the
    # chosen connection must be the cheapest at the end of the phase
    trees = []

    class RecordingTree(Tree):
        def __init__(self, dim):
            super().__init__(dim)
            self.cost_at_add = []
            trees.append(self)

        def add(self, config, parent, cost, **kw):
            self.cost_at_add.append(cost)
            return super().add(config, parent, cost, **kw)

    monkeypatch.setattr(planner, "Tree", RecordingTree)
    task = build_benchmark_scene("point3d_free")  # no obstacles: every link within alpha is free
    params = PlannerParams(m=600, seed=0)
    path = rrt_star_ik(task, params)
    assert len(trees) == task.n_phases
    stale = 0
    for tree, (a, b) in zip(trees, path.segments()):
        goal = path.configs[b]
        links = [(float(np.linalg.norm(tree.config(j) - goal)), j) for j in range(len(tree))]
        links = [(gd, j) for gd, j in links if gd <= params.alpha]
        assert polyline_length(path.configs[a:b + 1]) == pytest.approx(
            min(tree.cost[j] + gd for gd, j in links), abs=1e-9)
        stale += sum(tree.cost[j] < tree.cost_at_add[j] for _, j in links)
    assert stale  # some linked node did get cheaper after it was linked


class TestPlannerParamsValidation:
    @given(name=st.sampled_from(["alpha", "beta", "eps", "rho", "r", "gamma_rrt"]),
           value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    @given(name=st.sampled_from(["alpha", "r", "eps", "gamma_rrt"]),
           value=st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_non_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    @given(value=st.floats(max_value=0.0, exclude_max=True, allow_nan=False))
    def test_rejects_negative_rho(self, value):
        with pytest.raises(ValueError, match="rho"):
            PlannerParams(rho=value)

    @given(name=st.sampled_from(["alpha", "beta", "eps", "rho", "r", "gamma_rrt"]),
           value=st.text() | st.booleans() | st.lists(st.floats(), max_size=2) | st.complex_numbers())
    def test_rejects_non_real(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

    @given(name=st.sampled_from(["m", "seed", "max_project_iters"]),
           value=st.text() | st.booleans() | st.floats() | st.none())
    def test_rejects_non_integer(self, name, value):
        with pytest.raises(ValueError, match=name):
            PlannerParams(**{name: value})

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

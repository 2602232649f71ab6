"""Obstacles, collision checking, free-space transitions, the scene loader
and the built-in scenes.

The free configuration space is represented by a set of axis-aligned boxes
plus attachment records for objects currently carried by a robot body. A
TransitionRule describes how the free space changes when a manifold
intersection is reached (attach/detach of objects). FreeSpaceState is an
immutable value; transitions return new states. A point segment's check is
exact; a robot segment's is sampled, and ``Task.clearance`` gives a robot
configuration's safety certificate: a radius within which every configuration
is free, so a segment covered by its endpoints' radii needs no sampled test.

Every Task is built by one loader, ``task_from_dict``, from a scene
description dict (the JSON schema of scene files). The built-in scenes are
such dicts, stored in ``SCENES``: ``build_benchmark_scene`` loads one and
``export_scene_json`` prints it unchanged.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from operator import lt, sub

import numpy as np

from . import kinematics as kin
from .manifolds import AffinePlane, Cylinder, Paraboloid, PointGoal, norm

DEFAULT_COLLISION_STEP = 0.05
PROFILES = ("point", "robot")  # which planner defaults a scene runs with
# ``Task.clearance`` shrinks every radius by this much, in configuration
# units: far more than the rounding that separates the points the sampled
# test builds (interpolation, the batched FK pass) and the box distances from
# exact arithmetic, at coordinates and link lengths up to about 1e3
CLEARANCE_MARGIN = 1e-9
# the bound given a sample point no joint moves (Λ = 0); any positive value is
# still a bound, and the point's distance over it stays finite
FIXED_POINT_SPEED = 1e-6


@dataclass(frozen=True)
class ObstacleAABB:
    """Axis-aligned box obstacle in workspace coordinates."""

    min_corner: tuple
    max_corner: tuple
    name: str = ""

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=float)
        hi = np.asarray(self.max_corner, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("AABB requires min_corner <= max_corner componentwise")
        object.__setattr__(self, "min_corner", tuple(lo))
        object.__setattr__(self, "max_corner", tuple(hi))

    def center(self):
        return 0.5 * (np.asarray(self.min_corner) + np.asarray(self.max_corner))

    def half_extents(self):
        return 0.5 * (np.asarray(self.max_corner) - np.asarray(self.min_corner))

    def contains(self, points):
        """Strict interior test for an array of points, shape (n, d)."""
        pts = np.atleast_2d(points)
        lo = np.asarray(self.min_corner)
        hi = np.asarray(self.max_corner)
        return np.all((pts > lo) & (pts < hi), axis=1)


@dataclass(frozen=True)
class AttachmentRecord:
    """An object carried by a robot body: world-frame offset from its tool point."""

    object_id: str
    body: int
    offset: tuple
    half_extents: tuple


@dataclass(frozen=True)
class FreeSpaceState:
    obstacles: tuple = ()
    attachments: tuple = ()

    def __post_init__(self):
        ids = [a.object_id for a in self.attachments]
        if len(ids) != len(set(ids)):
            raise ValueError("attachment object ids must be unique")

    @cached_property
    def corners(self):
        """The obstacles' (min, max) corners packed once, as two
        (n_obstacles, 1, d) arrays that broadcast against (P, d) points."""
        lo = np.array([ob.min_corner for ob in self.obstacles], dtype=float)
        hi = np.array([ob.max_corner for ob in self.obstacles], dtype=float)
        return lo[:, None, :], hi[:, None, :]

    @cached_property
    def boxes(self):
        """The obstacles' (min, max) corners as tuples of Python floats, for
        the exact point-scene segment test of ``collision_free_segment``."""
        return tuple((tuple(map(float, ob.min_corner)), tuple(map(float, ob.max_corner)))
                     for ob in self.obstacles)


@dataclass(frozen=True)
class TransitionRule:
    """Free-space update triggered when a manifold intersection is reached.

    ``effect`` is one of {"type": "none"}, {"type": "attach", "object": id,
    "body": chain_index}, {"type": "detach", "object": id}.
    """

    trigger: int
    effect: dict


def _attachment_center(record, q_end, system):
    anchor = kin.tool_point(system, record.body, q_end)
    return anchor + np.asarray(record.offset)


def apply_transition(fs, rule, q_end, system=None):
    """Apply a transition effect at configuration ``q_end``; returns a new state."""
    effect = rule.effect
    kind = effect.get("type", "none")
    if kind == "none":
        return fs
    if kind == "attach":
        obj, body = effect["object"], effect["body"]
        if system is None:
            raise ValueError("attach/detach transitions require a kinematic system")
        anchor = kin.tool_point(system, body, q_end)
        for rec in fs.attachments:
            if rec.object_id == obj:
                # re-attach from another body, preserving the object's world pose
                center = _attachment_center(rec, q_end, system)
                new_rec = AttachmentRecord(obj, body, tuple(center - anchor), rec.half_extents)
                rest = tuple(a for a in fs.attachments if a.object_id != obj)
                return replace(fs, attachments=rest + (new_rec,))
        for ob in fs.obstacles:
            if ob.name == obj:
                rec = AttachmentRecord(obj, body, tuple(ob.center() - anchor), tuple(ob.half_extents()))
                rest = tuple(o for o in fs.obstacles if o.name != obj)
                return FreeSpaceState(obstacles=rest, attachments=fs.attachments + (rec,))
        raise ValueError(f"attach names object {obj!r}, which is neither an obstacle nor attached "
                         f"at phase {rule.trigger}")
    if kind == "detach":
        obj = effect["object"]
        for rec in fs.attachments:
            if rec.object_id == obj:
                center = _attachment_center(rec, np.asarray(q_end, dtype=float), system)
                half = np.asarray(rec.half_extents)
                box = ObstacleAABB(tuple(center - half), tuple(center + half), name=obj)
                rest = tuple(a for a in fs.attachments if a.object_id != obj)
                return FreeSpaceState(obstacles=fs.obstacles + (box,), attachments=rest)
        raise ValueError(f"detach names object {obj!r}, which is not attached at phase {rule.trigger}")
    raise ValueError(f"unknown transition effect {kind!r}")


def collision_points(q, fs, system=None):
    """Workspace points checked against obstacles for a configuration ``q`` (k,)
    or a batch of configurations (n, k), stacked into one (P, d) array.

    Point tasks check the configuration itself; kinematic tasks check all
    chain joint frames, link midpoints, and attached-object centers. Each
    center is its body's tool point, taken from the same FK pass, plus the
    stored offset.
    """
    if system is None:
        return np.atleast_2d(q)
    body = system.body_points(q)
    pts = [body.reshape(-1, 3)]
    for rec in fs.attachments:
        pts.append((body[..., system.tool_rows[rec.body], :] + np.asarray(rec.offset)).reshape(-1, 3))
    return np.vstack(pts)


def point_free(points, fs):
    """True when no point (d,) or (P, d) lies strictly inside an obstacle;
    one broadcast test over every point and box."""
    if not fs.obstacles:
        return True
    lo, hi = fs.corners
    pts = np.atleast_2d(points)
    return not ((pts > lo) & (pts < hi)).all(axis=2).any()


def _squared_box_distances(points, fs):
    """Squared Euclidean distance from each point of (P, d) to each obstacle
    of ``fs``, shape (n_obstacles, P); 0 for a point inside or on a box."""
    lo, hi = fs.corners
    gap = np.maximum(lo - points, points - hi)
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    return gap.sum(axis=2)


def _segment_free_of_boxes(a, b, boxes):
    """Whether the segment from ``a`` to ``b`` (lists of floats) misses the open
    interior of every box of ``boxes`` (``FreeSpaceState.boxes``), by the slab
    test (Williams et al., JGT 2005): along each axis, the t with a + t (b - a)
    in a box's slab form an open interval, and the segment meets the box where
    they and [0, 1] share a t. Touching a face, edge or corner is free, as for
    ``point_free``; a non-finite endpoint is not. The endpoints are sorted
    first, so the verdict is the same bits either way round: the planner checks
    a rewired edge child first, ``validate_solution`` parent first."""
    a, b = sorted((a, b))
    d = list(map(sub, b, a))
    if not math.isfinite(sum(d)):
        return False
    for lo, hi in boxes:
        t_in, t_out = 0.0, 1.0
        for x, dx, l, h in zip(a, d, lo, hi):
            if dx == 0.0:
                if not l < x < h:
                    break
                continue
            t0, t1 = ((l - x) / dx, (h - x) / dx) if dx > 0.0 else ((h - x) / dx, (l - x) / dx)
            if t0 > t_in:
                t_in = t0
            if t1 < t_out:
                t_out = t1
            if t_in >= t_out:
                break
        else:
            return False
        # rounding keeps each bound of a slab holding b on its side of t = 1: a hit at b is missed only at t_in == 1
        if t_in == 1.0 and all(map(lt, lo, b)) and all(map(lt, b, hi)):
            return False
    return True


def collision_free_segment(qa, qb, fs, step=DEFAULT_COLLISION_STEP, system=None):
    """Whether the straight segment from ``qa`` to ``qb`` is free in ``fs``:
    exactly for a point (``system`` None; ``step`` unused), and for a robot at
    configurations interpolated at spacing <= step, a set symmetric in (qa, qb).
    A segment of non-finite length is not free."""
    if step <= 0:
        raise ValueError("step must be positive")
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    if qa.shape != qb.shape:
        raise ValueError("segment endpoints must have the same dimension")
    if system is None:
        return _segment_free_of_boxes(qa.tolist(), qb.tolist(), fs.boxes)
    if not all(map(math.isfinite, qa.tolist() + qb.tolist())):  # inf - inf would warn in the subtraction
        return False
    dist = norm(qb - qa)
    if not math.isfinite(dist):
        return False
    if not fs.obstacles:
        return True
    n = max(1, int(np.ceil(dist / step)))
    ts = np.arange(n + 1) * (1.0 / n)  # np.linspace(0, 1, n + 1), without its overhead
    ts[-1] = 1.0
    qs = qa[None, :] + ts[:, None] * (qb - qa)[None, :]
    return point_free(collision_points(qs, fs, system), fs)


@dataclass(frozen=True)
class Task:
    """A sequenced-manifold planning problem instance."""

    name: str
    manifolds: tuple
    q_start: tuple
    bounds: tuple  # ((lo, hi), ...) per ambient dimension
    free_space: FreeSpaceState = FreeSpaceState()
    transitions: tuple = ()
    collision_step: float = DEFAULT_COLLISION_STEP
    system: object = None
    profile: str = "point"

    @property
    def ambient_dim(self):
        return len(self.q_start)

    @property
    def n_phases(self):
        return len(self.manifolds) - 1

    def start(self):
        return np.asarray(self.q_start, dtype=float)

    def bounds_array(self):
        return np.asarray(self.bounds, dtype=float)

    def span(self):
        b = self.bounds_array()
        return float(np.max(b[:, 1] - b[:, 0]))

    def rule_for_phase(self, phase):
        for rule in self.transitions:
            if rule.trigger == phase:
                return rule
        return None

    def advance_free_space(self, fs, phase, q_end):
        rule = self.rule_for_phase(phase)
        if rule is None:
            return fs
        return apply_transition(fs, rule, q_end, system=self.system)

    def segment_free(self, qa, qb, fs):
        return collision_free_segment(qa, qb, fs, self.collision_step, system=self.system)

    def config_free(self, q, fs):
        return point_free(collision_points(q, fs, self.system), fs)

    def clearance(self, q, fs):
        """A safety certificate of q in ``fs``, robot scenes only: a radius r
        such that every configuration within r of q (and within the joint
        limits) keeps all the points ``collision_free_segment`` samples
        outside every obstacle. So a segment shorter than the sum of its
        endpoints' radii is free, and the sampled test would find it free
        (Bialkowski et al., "Efficient collision checking in sampling-based
        motion planning via safety certificates", IJRR 2016).

        r is the minimum over the sample points p_k (joint frames, link
        midpoints and carried-object centres, from the chains' cached FK
        passes) of p_k's distance to the nearest box over Λ_k, the system's
        bound on |∂p_k/∂q|₂, shrunk by ``CLEARANCE_MARGIN``, and never
        negative; it is infinite when ``fs`` holds no obstacle, and 0 for a q
        that is not finite. A point scene has no certificate: ValueError.
        """
        if self.system is None:
            raise ValueError(f"clearance is defined for robot scenes only, not the point scene {self.name!r}")
        q = np.asarray(q, dtype=float)
        if not math.isfinite(sum(q.tolist())):
            return 0.0
        if not fs.obstacles:
            return math.inf
        frame_map, offsets, weights = self._sample_map(fs.attachments)
        points = frame_map @ self.system.cached_frames(q)
        points += offsets
        r = math.sqrt((_squared_box_distances(points, fs) * weights).min())
        return max(0.0, r - CLEARANCE_MARGIN)

    @cached_property
    def _sample_maps(self):
        return {}  # attachments -> the result of _sample_map

    def _sample_map(self, attachments):
        """(frame_map, offsets, weights) of a robot's sample points in a free
        space carrying ``attachments``: the points at q are frame_map @
        ``system.cached_frames(q)`` + offsets, the rows of ``body_points``
        followed by one carried-object centre per attachment, and weights_k is
        1 / Λ_k², a centre moving as its body's tool point (a point no joint
        moves gets Λ = ``FIXED_POINT_SPEED``). Built once per attachments."""
        out = self._sample_maps.get(attachments)
        if out is None:
            system = self.system
            rows = list(range(len(system.speed_bounds))) + [system.tool_rows[rec.body] for rec in attachments]
            offsets = np.array([(0.0, 0.0, 0.0)] * len(system.speed_bounds) + [rec.offset for rec in attachments])
            speed = np.maximum(system.speed_bounds[rows], FIXED_POINT_SPEED)
            out = self._sample_maps[attachments] = (system.frame_map[rows], offsets, 1.0 / (speed * speed))
        return out


# ---------------------------------------------------------------------------
# Scene description files (JSON)
# ---------------------------------------------------------------------------

def _from_entries(what, entries, build):
    """``build`` of each entry; an entry that is not an object, lacks a key or
    holds a bad value ends in a ValueError naming it."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what} entries must be a list, got {entries!r}")
    out = []
    for k, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"{what} {k} must be an object, got {e!r}")
        try:
            out.append(build(e))
        except KeyError as err:
            raise ValueError(f"{what} {k} lacks key {err.args[0]!r}") from None
        except (TypeError, ValueError) as err:
            raise ValueError(f"{what} {k}: {err}") from None
    return tuple(out)


def _system_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError(f"scene 'system' must be an object, got {d!r}")
    if "chains" not in d:
        raise ValueError("scene 'system' lacks key 'chains'")
    return kin.MultiRobotSystem(chains=_from_entries("system chain", d["chains"], lambda cd: kin.SerialChain(
        joints=_from_entries("joint", cd["joints"], lambda j: kin.Joint(
            _finite_numbers("axis", j["axis"], 3), j["type"], _finite_numbers("origin", j["origin"], 3))),
        base=_finite_numbers("base", cd["base"], 3),
        tool=_finite_numbers("tool", cd["tool"], 3),
        limits=tuple(tuple(l) for l in cd["limits"]),
    )))


def _check_chain_index(what, value, system):
    n = 0 if system is None else len(system.chains)
    if not (isinstance(value, int) and 0 <= value < n):
        raise ValueError(f"{what} {value!r} is not a chain index of the {n}-chain system")


def _manifold_from_dict(d, system):
    t, p = d.get("type"), d.get("params", {})
    named = {"name": d["name"]} if "name" in d else {}
    if not isinstance(p, dict):
        raise ValueError(f"{t} manifold {d.get('name', t)!r}: params must be an object, got {p!r}")
    try:
        if t == "paraboloid":
            return Paraboloid(p["coeff"], p["offset"], **named)
        if t == "cylinder":
            return Cylinder(p["coeff"], p["rhs"], **named)
        if t == "goal_point":
            return PointGoal(_finite_numbers(f"goal_point manifold {d.get('name', t)!r}: target", p["target"]), **named)
        if t == "plane":
            return AffinePlane(p["A"], p["b"], **named)
        if t in ("pick", "handover", "orientation"):
            if system is None:
                raise ValueError(f"{t} manifold {d.get('name', t)!r} needs a kinematic 'system' in the scene file")
            for key in ("chain", "chain1", "chain2"):
                if key in p:
                    _check_chain_index(f"{t} manifold {d.get('name', t)!r}: {key}", p[key], system)
        if t == "pick":
            return kin.Pick(system, p["chain"], _finite_numbers(f"pick manifold {d.get('name', t)!r}: target",
                                                                p["target"], 3), name=d.get("name", "pick"))
        if t == "handover":
            return kin.Handover(system, p["chain1"], p["chain2"], name=d.get("name", "handover"))
        if t == "orientation":
            return kin.Orientation(system, p["chain"], p.get("e_z", (0.0, 0.0, 1.0)),
                                   name=d.get("name", "orientation"))
    except KeyError as e:
        raise ValueError(f"{t} manifold {d.get('name', t)!r} lacks params key {e.args[0]!r}") from None
    raise ValueError(f"unknown manifold type {t!r}")


# the keys each transition effect type holds besides "type"
_EFFECT_KEYS = {"none": (), "attach": ("object", "body"), "detach": ("object",)}


def _transition_from_dict(r, system):
    """A TransitionRule whose effect is a new dict of the checked keys only."""
    e = r["effect"]
    if not isinstance(e, dict):
        raise ValueError(f"effect must be an object, got {e!r}")
    kind = e.get("type", "none")
    if kind not in _EFFECT_KEYS:
        raise ValueError(f"unknown effect type {kind!r}; choose from {', '.join(_EFFECT_KEYS)}")
    effect = {"type": kind, **{key: e[key] for key in _EFFECT_KEYS[kind]}}
    if kind == "attach":
        _check_chain_index("attach body", effect["body"], system)
    return TransitionRule(r["trigger"], effect)


def _is_finite_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _finite_numbers(what, value, n=None):
    """``value`` as a tuple if it is a list of finite numbers (``n`` unless None), else a ValueError."""
    if not (isinstance(value, (list, tuple)) and (n is None or len(value) == n) and all(map(_is_finite_real, value))):
        raise ValueError(f"{what} must be a list of {'' if n is None else f'{n} '}finite numbers, got {value!r}")
    return tuple(value)


def _check_transitions(transitions, n_phases, obstacles, start, system):
    """Each trigger is a distinct phase index, and ``apply_transition``, which
    the planners apply the rules with, accepts every effect when the rules
    are replayed in trigger order from the scene's obstacles. The replay runs
    at the start configuration: the configuration moves where an object
    goes, never whether an effect applies."""
    at = {}  # trigger -> transition index
    for k, rule in enumerate(transitions):
        t = rule.trigger
        if isinstance(t, bool) or not isinstance(t, numbers.Integral) or not 0 <= t < n_phases:
            raise ValueError(f"transition {k}: trigger {t!r} is not a phase index 0..{n_phases - 1}")
        if t in at:
            raise ValueError(f"transition {k}: trigger {t} repeats the trigger of transition {at[t]}")
        at[t] = k
    fs, q = FreeSpaceState(obstacles=obstacles), np.asarray(start, dtype=float)
    for _, k in sorted(at.items()):
        try:
            fs = apply_transition(fs, transitions[k], q, system)
        except (TypeError, ValueError) as err:  # TypeError: an unhashable object id that names an obstacle
            raise ValueError(f"transition {k}: {err}") from None


def task_from_dict(d):
    """Build a Task from the scene description schema.

    Raises ValueError naming the problem when a required key (manifold
    params included) is missing, an entry is not an object, a kinematic
    manifold or an attach effect has no system to act on, the manifolds,
    ``start``, ``bounds`` and the system's joints disagree on the number of
    configuration coordinates, a ``bounds`` entry is not a finite [lo, hi]
    pair with lo <= hi or leaves its joint's limits, a ``start`` entry is not
    a finite number in its pair, a point (an obstacle corner, a target, a
    chain's base or tool, a joint's axis or origin) is not finite or has the
    wrong length, ``profile``, ``collision_step`` or a transition effect holds a
    value outside its allowed set, two transitions share a trigger or one's
    trigger is not a phase index, or an attach or detach names an object
    that is not there to take at its phase.
    """
    if not isinstance(d, dict):
        raise ValueError("a scene description must be a JSON object")
    missing = [key for key in ("manifolds", "start", "bounds") if key not in d]
    if missing:
        raise ValueError(f"scene description lacks required key(s): {', '.join(missing)}")
    system = _system_from_dict(d["system"]) if "system" in d else None
    manifolds = _from_entries("manifold", d["manifolds"], lambda md: _manifold_from_dict(md, system))
    if len(manifolds) < 2:
        raise ValueError(f"a scene needs at least two manifolds, got {len(manifolds)}")
    k = manifolds[0].ambient_dim
    for j, m in enumerate(manifolds):
        if m.ambient_dim != k:
            raise ValueError(f"manifold {j} ({m.name!r}) has {m.ambient_dim} configuration coordinates, "
                             f"manifold 0 ({manifolds[0].name!r}) has {k}")
    if system is not None and system.dof != k:
        raise ValueError(f"scene 'system' has {system.dof} joints, but the manifolds have {k} "
                         f"configuration coordinates")
    for key in ("start", "bounds"):
        if not isinstance(d[key], (list, tuple)) or len(d[key]) != k:
            raise ValueError(f"scene {key!r} must have one entry per configuration coordinate ({k}), got {d[key]!r}")
    for j, x in enumerate(d["start"]):
        if not _is_finite_real(x):
            raise ValueError(f"start entry {j} must be a finite number, got {x!r}")
    for j, b in enumerate(d["bounds"]):
        if not (isinstance(b, (list, tuple)) and len(b) == 2 and all(map(_is_finite_real, b)) and b[0] <= b[1]):
            raise ValueError(f"bounds entry {j} must be a [lo, hi] pair of finite numbers with lo <= hi, got {b!r}")
    for j, (x, (lo, hi)) in enumerate(zip(d["start"], d["bounds"])):
        if not lo <= x <= hi:
            raise ValueError(f"start entry {j} {x!r} lies outside bounds entry {j} [{lo!r}, {hi!r}]")
    if system is not None:
        for j, (b, (lo, hi)) in enumerate(zip(d["bounds"], system.joint_limits().tolist())):
            if b[0] < lo or b[1] > hi:
                raise ValueError(f"bounds entry {j} {b!r} leaves the joint limits [{lo!r}, {hi!r}] of its joint")
    workspace_dim = k if system is None else 3  # a point scene's configuration is its workspace point
    obstacles = _from_entries("obstacle", d.get("obstacles", ()), lambda o: ObstacleAABB(
        _finite_numbers("min", o["min"], workspace_dim), _finite_numbers("max", o["max"], workspace_dim),
        name=o.get("name", "")))
    transitions = _from_entries("transition", d.get("transitions", ()), lambda r: _transition_from_dict(r, system))
    _check_transitions(transitions, len(manifolds) - 1, obstacles, d["start"], system)
    step = d.get("collision_step", DEFAULT_COLLISION_STEP)
    if not (_is_finite_real(step) and step > 0):
        raise ValueError(f"scene 'collision_step' must be a positive finite number, got {step!r}")
    profile = d.get("profile", "point")
    if profile not in PROFILES:
        raise ValueError(f"scene 'profile' must be one of {', '.join(PROFILES)}, got {profile!r}")
    return Task(
        name=d.get("name", "scene"),
        manifolds=manifolds,
        q_start=tuple(d["start"]),
        bounds=tuple(tuple(b) for b in d["bounds"]),
        free_space=FreeSpaceState(obstacles=obstacles),
        transitions=transitions,
        collision_step=step,
        system=system,
        profile=profile,
    )


def load_task(path):
    with open(path) as f:
        return task_from_dict(json.load(f))


# ---------------------------------------------------------------------------
# Built-in benchmark scenes, stored in the scene description schema
# ---------------------------------------------------------------------------

SCENES = {}  # built-in scene id -> scene description

SCENES["point3d_free"] = {
    "name": "point3d_free",
    "ambient_dim": 3,
    "bounds": [[-6.0, 6.0], [-6.0, 6.0], [-6.0, 6.0]],
    "start": [3.5, 3.5, 4.45],  # on the first paraboloid: 0.1 * 3.5^2 * 2 + 2 = 4.45
    "obstacles": [],
    "transitions": [],
    "profile": "point",
    "manifolds": [
        {"type": "paraboloid", "name": "paraboloid_up", "params": {"coeff": 0.1, "offset": 2.0}},
        {"type": "cylinder", "name": "cylinder_r2", "params": {"coeff": 0.25, "rhs": 1.0}},
        {"type": "paraboloid", "name": "paraboloid_down", "params": {"coeff": -0.1, "offset": -2.0}},
        {"type": "goal_point", "name": "goal_point", "params": {"target": [-3.5, -3.5, -4.45]}},
    ],
}

# Box layout for the obstacle variant: boxes centered on the upper (z=2.4)
# and lower (z=-2.4) intersection circles at azimuths 45 and 225 degrees,
# i.e. at x = y = +-2 cos(pi/4), with half-extents (1.4, 1.4, 1.0).
# The xy half-width of 1.4 covers almost a full quadrant of each circle, so
# the straight-down crossings are blocked and paths must detour around the
# cylinder. Held fixed for the acceptance runs.
SCENES["point3d_obstacles"] = {
    **SCENES["point3d_free"],
    "name": "point3d_obstacles",
    "obstacles": [
        {"min": [0.014213562373095234, 0.014213562373095234, 1.4],
         "max": [2.8142135623730953, 2.8142135623730953, 3.4], "name": "box0"},
        {"min": [-2.8142135623730953, -2.8142135623730953, 1.4],
         "max": [-0.014213562373095234, -0.014213562373095234, 3.4], "name": "box1"},
        {"min": [-2.8142135623730953, -2.8142135623730953, -3.4],
         "max": [-0.014213562373095234, -0.014213562373095234, -1.4], "name": "box2"},
        {"min": [0.014213562373095234, 0.014213562373095234, -3.4],
         "max": [2.8142135623730953, 2.8142135623730953, -1.4], "name": "box3"},
    ],
}

SCENES["plane_cylinder_point"] = {
    "name": "plane_cylinder_point",
    "ambient_dim": 3,
    "bounds": [[-3.0, 3.0], [-3.0, 3.0], [-3.0, 3.0]],
    "start": [-2.0, 0.0, 0.0],
    "obstacles": [],
    "transitions": [],
    "profile": "point",
    "manifolds": [
        {"type": "plane", "name": "plane_z0", "params": {"A": [[0.0, 0.0, 1.0]], "b": [0.0]}},
        {"type": "cylinder", "name": "unit_cylinder", "params": {"coeff": 1.0, "rhs": 1.0}},
        {"type": "goal_point", "name": "goal_point", "params": {"target": [1.0, 0.0, 2.0]}},
    ],
}

SCENES["transport_a_mini"] = {
    "name": "transport_a_mini",
    "ambient_dim": 4,
    "bounds": [[-np.pi, np.pi], [-2.2, 2.2], [-2.2, 2.2], [-2.2, 2.2]],
    "start": [0.6, 0.8, -1.0, 0.0],
    "obstacles": [
        # obj1: half-extent 0.05, its centre 2 cm plus that half-extent below the pick target
        {"min": [0.6653370551533117, 0.43938840980113175, 0.012259162117227593],
         "max": [0.7653370551533117, 0.5393884098011318, 0.1122591621172276], "name": "obj1"},
        # centre (-0.40, 0.69, 0.25), half-extents (0.08, 0.08, 0.25)
        {"min": [-0.48000000000000004, 0.61, 0.0], "max": [-0.32, 0.7699999999999999, 0.5], "name": "pillar"},
    ],
    "transitions": [
        {"trigger": 0, "effect": {"type": "attach", "object": "obj1", "body": 0}},
        {"trigger": 1, "effect": {"type": "detach", "object": "obj1"}},
    ],
    "collision_step": 0.05,
    "profile": "robot",
    "system": {"chains": [{
        "joints": [
            {"axis": [0.0, 0.0, 1.0], "type": "revolute", "origin": [0.0, 0.0, 0.2]},
            {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.0, 0.0, 0.1]},
            {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.4, 0.0, 0.0]},
            {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.4, 0.0, 0.0]},
        ],
        "base": [0.0, 0.0, 0.0],
        "tool": [0.2, 0.0, 0.0],
        "limits": [[-np.pi, np.pi], [-2.2, 2.2], [-2.2, 2.2], [-2.2, 2.2]],
    }]},
    "manifolds": [
        # the pick target is the chain-0 tool point at the start configuration
        {"type": "pick", "name": "pick",
         "params": {"chain": 0, "target": [0.7153370551533117, 0.48938840980113174, 0.1322591621172276]}},
        {"type": "orientation", "name": "carry_upright", "params": {"chain": 0}},
        {"type": "pick", "name": "place", "params": {"chain": 0, "target": [-0.7, -0.35, 0.25]}},
    ],
}

SCENES["transport_b_mini"] = {
    "name": "transport_b_mini",
    "ambient_dim": 8,
    "bounds": [[-np.pi, np.pi], [-2.2, 2.2], [-2.2, 2.2],
               [-np.pi, np.pi], [-2.2, 2.2], [-2.2, 2.2], [-1.0, 1.0], [-1.0, 1.0]],
    # arm1, arm2, tray. arm1 starts upright, its tool at the grasp of the object
    # with zero tilt; the elbow-flipped (0.5, 0.0, -0.6) reaches the same point
    # with a link inside obj1.
    "start": [0.5, -0.6, 0.6, 2.5, 0.4, 0.4, 0.5, -0.5],
    "obstacles": [
        # obj1: half-extent 0.04, its centre 2 cm plus that half-extent below the pick target
        {"min": [0.05075308209686972, 0.3100450041246027, 0.3258569893580142],
         "max": [0.13075308209686973, 0.39004500412460263, 0.4058569893580142], "name": "obj1"},
    ],
    "transitions": [
        {"trigger": 0, "effect": {"type": "attach", "object": "obj1", "body": 0}},
        {"trigger": 1, "effect": {"type": "attach", "object": "obj1", "body": 2}},
        {"trigger": 2, "effect": {"type": "attach", "object": "obj1", "body": 1}},
        {"trigger": 3, "effect": {"type": "detach", "object": "obj1"}},
    ],
    "collision_step": 0.05,
    "profile": "robot",
    "system": {"chains": [
        {
            "joints": [
                {"axis": [0.0, 0.0, 1.0], "type": "revolute", "origin": [0.0, 0.0, 0.2]},
                {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.0, 0.0, 0.0]},
                {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.4, 0.0, 0.0]},
            ],
            "base": [-0.55, 0.0, 0.0],
            "tool": [0.4, 0.0, 0.0],
            "limits": [[-np.pi, np.pi], [-2.2, 2.2], [-2.2, 2.2]],
        },
        {
            "joints": [
                {"axis": [0.0, 0.0, 1.0], "type": "revolute", "origin": [0.0, 0.0, 0.2]},
                {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.0, 0.0, 0.0]},
                {"axis": [0.0, 1.0, 0.0], "type": "revolute", "origin": [0.4, 0.0, 0.0]},
            ],
            "base": [0.55, 0.0, 0.0],
            "tool": [0.4, 0.0, 0.0],
            "limits": [[-np.pi, np.pi], [-2.2, 2.2], [-2.2, 2.2]],
        },
        {  # the mobile tray
            "joints": [
                {"axis": [1.0, 0.0, 0.0], "type": "prismatic", "origin": [0.0, 0.0, 0.0]},
                {"axis": [0.0, 1.0, 0.0], "type": "prismatic", "origin": [0.0, 0.0, 0.0]},
            ],
            "base": [0.0, 0.0, 0.0],
            "tool": [0.0, 0.0, 0.35],
            "limits": [[-1.0, 1.0], [-1.0, 1.0]],
        },
    ]},
    "manifolds": [
        # the pick target is the chain-0 tool point at the start configuration
        {"type": "pick", "name": "pick",
         "params": {"chain": 0, "target": [0.09075308209686972, 0.35004500412460265, 0.4258569893580142]}},
        {"type": "orientation", "name": "carry_upright", "params": {"chain": 0}},
        {"type": "handover", "name": "arm1_to_tray", "params": {"chain1": 0, "chain2": 2}},
        {"type": "handover", "name": "arm2_from_tray", "params": {"chain1": 1, "chain2": 2}},
        {"type": "pick", "name": "place", "params": {"chain": 1, "target": [0.9, -0.35, 0.35]}},
    ],
}


def available_scenes():
    return sorted(SCENES)


def _scene(name):
    try:
        return SCENES[name]
    except KeyError:
        raise ValueError(f"unknown scene {name!r}; available: {', '.join(available_scenes())}") from None


def build_benchmark_scene(name):
    """Construct a built-in scene by identifier."""
    return task_from_dict(_scene(name))


def export_scene_json(name):
    """A built-in scene as the JSON text of its scene description."""
    return json.dumps(_scene(name), indent=2)

"""Obstacles, collision checking, free-space transitions, benchmark scenes.

The free configuration space is represented by a set of axis-aligned boxes
plus attachment records for objects currently carried by a robot body. A
TransitionRule describes how the free space changes when a manifold
intersection is reached (attach/detach of objects). FreeSpaceState is an
immutable value; transitions return new states.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import kinematics as kin
from .manifolds import (AffinePlane, Cylinder, Paraboloid, PointGoal)

DEFAULT_COLLISION_STEP = 0.05


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

    def object_count(self):
        return len(self.obstacles) + len(self.attachments)

    @cached_property
    def corners(self):
        """The obstacles' (min, max) corners packed once, as two
        (n_obstacles, 1, d) arrays that broadcast against (P, d) points."""
        lo = np.array([ob.min_corner for ob in self.obstacles], dtype=float)
        hi = np.array([ob.max_corner for ob in self.obstacles], dtype=float)
        return lo[:, None, :], hi[:, None, :]


@dataclass(frozen=True)
class TransitionRule:
    """Free-space update triggered when a manifold intersection is reached.

    ``effect`` is one of {"type": "none"}, {"type": "attach", "object": id,
    "body": chain_index}, {"type": "detach", "object": id}.
    """

    trigger: int
    effect: dict


def _attachment_center(record, q_end, system):
    anchor = kin.fk_position(system, record.body, (0.0, 0.0, 0.0), q_end)
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
        anchor = kin.fk_position(system, body, (0.0, 0.0, 0.0), np.asarray(q_end, dtype=float))
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
        raise ValueError(f"unknown object id {obj!r}")
    if kind == "detach":
        obj = effect["object"]
        for rec in fs.attachments:
            if rec.object_id == obj:
                center = _attachment_center(rec, np.asarray(q_end, dtype=float), system)
                half = np.asarray(rec.half_extents)
                box = ObstacleAABB(tuple(center - half), tuple(center + half), name=obj)
                rest = tuple(a for a in fs.attachments if a.object_id != obj)
                return FreeSpaceState(obstacles=fs.obstacles + (box,), attachments=rest)
        raise ValueError(f"object {obj!r} is not attached")
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


def collision_free_segment(qa, qb, fs, step=DEFAULT_COLLISION_STEP, system=None):
    """Straight-line ambient segment check at interpolation spacing <= step.

    The interpolation set is symmetric in (qa, qb), so the check commutes.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    if qa.shape != qb.shape:
        raise ValueError("segment endpoints must have the same dimension")
    if not fs.obstacles:
        return True
    dist = float(np.linalg.norm(qb - qa))
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


# ---------------------------------------------------------------------------
# Built-in benchmark scenes
# ---------------------------------------------------------------------------

POINT3D_START = (3.5, 3.5, 4.45)
POINT3D_GOAL = (-3.5, -3.5, -4.45)

# Box layout for the obstacle variant: boxes centered on the upper (z=2.4)
# and lower (z=-2.4) intersection circles at azimuths 45 and 225 degrees.
# The xy half-width of 1.4 covers almost a full quadrant of each circle, so
# the straight-down crossings are blocked and paths must detour around the
# cylinder. Held fixed for the acceptance runs.
_C = 2.0 * np.cos(np.pi / 4.0)
POINT3D_BOXES = (
    (( _C,  _C,  2.4), (1.4, 1.4, 1.0)),
    ((-_C, -_C,  2.4), (1.4, 1.4, 1.0)),
    ((-_C, -_C, -2.4), (1.4, 1.4, 1.0)),
    (( _C,  _C, -2.4), (1.4, 1.4, 1.0)),
)


def _point3d_manifolds():
    return (
        Paraboloid(0.1, 2.0, name="paraboloid_up"),
        Cylinder(0.25, 1.0, name="cylinder_r2"),
        Paraboloid(-0.1, -2.0, name="paraboloid_down"),
        PointGoal(POINT3D_GOAL),
    )


def _box(center, half, name=""):
    c = np.asarray(center, dtype=float)
    h = np.broadcast_to(np.asarray(half, dtype=float), c.shape)
    return ObstacleAABB(tuple(c - h), tuple(c + h), name=name)


def _build_point3d(with_obstacles):
    obstacles = ()
    if with_obstacles:
        obstacles = tuple(_box(c, h, name=f"box{i}") for i, (c, h) in enumerate(POINT3D_BOXES))
    return Task(
        name="point3d_obstacles" if with_obstacles else "point3d_free",
        manifolds=_point3d_manifolds(),
        q_start=POINT3D_START,
        bounds=((-6.0, 6.0),) * 3,
        free_space=FreeSpaceState(obstacles=obstacles),
        profile="point",
    )


def _build_plane_cylinder_point():
    manifolds = (
        AffinePlane([[0.0, 0.0, 1.0]], [0.0], name="plane_z0"),
        Cylinder(1.0, 1.0, name="unit_cylinder"),
        PointGoal((1.0, 0.0, 2.0)),
    )
    return Task(
        name="plane_cylinder_point",
        manifolds=manifolds,
        q_start=(-2.0, 0.0, 0.0),
        bounds=((-3.0, 3.0),) * 3,
        profile="point",
    )


def _transport_a_system():
    arm = kin.SerialChain(
        joints=(
            kin.Joint((0.0, 0.0, 1.0), kin.REVOLUTE, (0.0, 0.0, 0.2)),
            kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.0, 0.0, 0.1)),
            kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.4, 0.0, 0.0)),
            kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.4, 0.0, 0.0)),
        ),
        base=(0.0, 0.0, 0.0),
        tool=(0.2, 0.0, 0.0),
        limits=((-np.pi, np.pi), (-2.2, 2.2), (-2.2, 2.2), (-2.2, 2.2)),
    )
    return kin.MultiRobotSystem(chains=(arm,))


def _build_transport_a():
    system = _transport_a_system()
    q_start = np.array([0.6, 0.8, -1.0, 0.0])
    x_obj = kin.fk_position(system, 0, (0.0, 0.0, 0.0), q_start)
    x_place = np.array([-0.7, -0.35, 0.25])
    manifolds = (
        kin.pick_constraint(system, 0, x_obj, name="pick"),
        kin.orientation_constraint(system, 0, name="carry_upright"),
        kin.pick_constraint(system, 0, x_place, name="place"),
    )
    manifolds[0].scene_spec = {"type": "pick", "name": "pick", "params": {"chain": 0, "target": list(x_obj)}}
    manifolds[1].scene_spec = {"type": "orientation", "name": "carry_upright", "params": {"chain": 0}}
    manifolds[2].scene_spec = {"type": "pick", "name": "place", "params": {"chain": 0, "target": list(x_place)}}
    obj_half = np.array([0.05, 0.05, 0.05])
    obj_center = x_obj - np.array([0.0, 0.0, 0.02 + obj_half[2]])
    obstacles = (
        _box(obj_center, obj_half, name="obj1"),
        _box((-0.40, 0.69, 0.25), (0.08, 0.08, 0.25), name="pillar"),
    )
    transitions = (
        TransitionRule(0, {"type": "attach", "object": "obj1", "body": 0}),
        TransitionRule(1, {"type": "detach", "object": "obj1"}),
    )
    return Task(
        name="transport_a_mini",
        manifolds=manifolds,
        q_start=tuple(q_start),
        bounds=tuple(map(tuple, system.joint_limits())),
        free_space=FreeSpaceState(obstacles=obstacles),
        transitions=transitions,
        system=system,
        profile="robot",
    )


def _transport_b_system():
    def arm(base_x):
        return kin.SerialChain(
            joints=(
                kin.Joint((0.0, 0.0, 1.0), kin.REVOLUTE, (0.0, 0.0, 0.2)),
                kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.0, 0.0, 0.0)),
                kin.Joint((0.0, 1.0, 0.0), kin.REVOLUTE, (0.4, 0.0, 0.0)),
            ),
            base=(base_x, 0.0, 0.0),
            tool=(0.4, 0.0, 0.0),
            limits=((-np.pi, np.pi), (-2.2, 2.2), (-2.2, 2.2)),
        )

    mobile = kin.SerialChain(
        joints=(
            kin.Joint((1.0, 0.0, 0.0), kin.PRISMATIC, (0.0, 0.0, 0.0)),
            kin.Joint((0.0, 1.0, 0.0), kin.PRISMATIC, (0.0, 0.0, 0.0)),
        ),
        base=(0.0, 0.0, 0.0),
        tool=(0.0, 0.0, 0.35),
        limits=((-1.0, 1.0), (-1.0, 1.0)),
    )
    return kin.MultiRobotSystem(chains=(arm(-0.55), arm(0.55), mobile))


def _build_transport_b():
    system = _transport_b_system()
    # arm1 starts at the elbow-flipped grasp of the object; the upright
    # solution (0.5, -0.6, 0.6) reaches the same point with zero tilt.
    q_arm1 = np.array([0.5, 0.0, -0.6])
    q_arm2 = np.array([2.5, 0.4, 0.4])
    q_base = np.array([0.5, -0.5])
    q_start = np.concatenate([q_arm1, q_arm2, q_base])
    x_obj = kin.fk_position(system, 0, (0.0, 0.0, 0.0), q_start)
    x_goal = np.array([0.9, -0.35, 0.35])
    manifolds = (
        kin.pick_constraint(system, 0, x_obj, name="pick"),
        kin.orientation_constraint(system, 0, name="carry_upright"),
        kin.handover_constraint(system, 0, 2, name="arm1_to_tray"),
        kin.handover_constraint(system, 1, 2, name="arm2_from_tray"),
        kin.pick_constraint(system, 1, x_goal, name="place"),
    )
    manifolds[0].scene_spec = {"type": "pick", "name": "pick", "params": {"chain": 0, "target": list(x_obj)}}
    manifolds[1].scene_spec = {"type": "orientation", "name": "carry_upright", "params": {"chain": 0}}
    manifolds[2].scene_spec = {"type": "handover", "name": "arm1_to_tray", "params": {"chain1": 0, "chain2": 2}}
    manifolds[3].scene_spec = {"type": "handover", "name": "arm2_from_tray", "params": {"chain1": 1, "chain2": 2}}
    manifolds[4].scene_spec = {"type": "pick", "name": "place", "params": {"chain": 1, "target": list(x_goal)}}
    obj_half = np.array([0.04, 0.04, 0.04])
    obj_center = x_obj - np.array([0.0, 0.0, 0.02 + obj_half[2]])
    obstacles = (_box(obj_center, obj_half, name="obj1"),)
    transitions = (
        TransitionRule(0, {"type": "attach", "object": "obj1", "body": 0}),
        TransitionRule(1, {"type": "attach", "object": "obj1", "body": 2}),
        TransitionRule(2, {"type": "attach", "object": "obj1", "body": 1}),
        TransitionRule(3, {"type": "detach", "object": "obj1"}),
    )
    return Task(
        name="transport_b_mini",
        manifolds=manifolds,
        q_start=tuple(q_start),
        bounds=tuple(map(tuple, system.joint_limits())),
        free_space=FreeSpaceState(obstacles=obstacles),
        transitions=transitions,
        system=system,
        profile="robot",
    )


_BUILDERS = {
    "point3d_free": lambda: _build_point3d(False),
    "point3d_obstacles": lambda: _build_point3d(True),
    "plane_cylinder_point": _build_plane_cylinder_point,
    "transport_a_mini": _build_transport_a,
    "transport_b_mini": _build_transport_b,
}


def available_scenes():
    return sorted(_BUILDERS)


def build_benchmark_scene(name):
    """Construct a built-in scene by identifier."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown scene {name!r}; available: {', '.join(available_scenes())}") from None
    return builder()


# ---------------------------------------------------------------------------
# Scene description files (JSON)
# ---------------------------------------------------------------------------

def _manifold_to_dict(m):
    if isinstance(m, Paraboloid):
        t, p = "paraboloid", {"coeff": m.coeff, "offset": m.offset}
    elif isinstance(m, Cylinder):
        t, p = "cylinder", {"coeff": m.coeff, "rhs": m.rhs}
    elif isinstance(m, PointGoal):
        t, p = "goal_point", {"target": list(m.target)}
    elif isinstance(m, AffinePlane):
        t, p = "plane", {"A": m.A.tolist(), "b": m.b.tolist()}
    else:
        raise ValueError(f"manifold {m.name!r} has no scene-file representation")
    return {"type": t, "name": m.name, "params": p}


def _system_to_dict(system):
    chains = []
    for c in system.chains:
        chains.append({
            "joints": [{"axis": list(j.axis), "type": j.type, "origin": list(j.origin)} for j in c.joints],
            "base": list(c.base),
            "tool": list(c.tool),
            "limits": [list(l) for l in c.joint_limits()],
        })
    return {"chains": chains}


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
        joints=_from_entries("joint", cd["joints"], lambda j: kin.Joint(tuple(j["axis"]), j["type"],
                                                                        tuple(j["origin"]))),
        base=tuple(cd["base"]),
        tool=tuple(cd["tool"]),
        limits=tuple(tuple(l) for l in cd["limits"]),
    )))


def task_to_dict(task):
    """Serialize a task to the scene description schema."""
    d = {
        "name": task.name,
        "ambient_dim": task.ambient_dim,
        "bounds": [list(b) for b in task.bounds],
        "start": list(task.q_start),
        "obstacles": [
            {"min": list(o.min_corner), "max": list(o.max_corner), "name": o.name}
            for o in task.free_space.obstacles
        ],
        "transitions": [{"trigger": r.trigger, "effect": dict(r.effect)} for r in task.transitions],
        "collision_step": task.collision_step,
        "profile": task.profile,
    }
    if task.system is None:
        d["manifolds"] = [_manifold_to_dict(m) for m in task.manifolds]
    else:
        d["system"] = _system_to_dict(task.system)
        manifolds = []
        for m in task.manifolds:
            desc = getattr(m, "scene_spec", None)
            if desc is None:
                raise ValueError(f"kinematic manifold {m.name!r} lacks a scene_spec")
            manifolds.append(copy.deepcopy(desc))
        d["manifolds"] = manifolds
    return d


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
            return PointGoal(p["target"], **named)
        if t == "plane":
            return AffinePlane(p["A"], p["b"], **named)
        if t in ("pick", "handover", "orientation"):
            if system is None:
                raise ValueError(f"{t} manifold {d.get('name', t)!r} needs a kinematic 'system' in the scene file")
            for key in ("chain", "chain1", "chain2"):
                if key in p and not (isinstance(p[key], int) and 0 <= p[key] < len(system.chains)):
                    raise ValueError(f"{t} manifold {d.get('name', t)!r}: {key} {p[key]!r} is not a chain index "
                                     f"of the {len(system.chains)}-chain system")
            if t == "pick" and np.shape(p["target"]) != (3,):
                raise ValueError(f"pick manifold {d.get('name', t)!r}: target must be a workspace point "
                                 f"of 3 coordinates, got {p['target']!r}")
        if t == "pick":
            m = kin.pick_constraint(system, p["chain"], p["target"], name=d.get("name", "pick"))
        elif t == "handover":
            m = kin.handover_constraint(system, p["chain1"], p["chain2"], name=d.get("name", "handover"))
        elif t == "orientation":
            m = kin.orientation_constraint(system, p["chain"], p.get("e_z", (0.0, 0.0, 1.0)), name=d.get("name", "orientation"))
        else:
            raise ValueError(f"unknown manifold type {t!r}")
    except KeyError as e:
        raise ValueError(f"{t} manifold {d.get('name', t)!r} lacks params key {e.args[0]!r}") from None
    m.scene_spec = copy.deepcopy(d)
    return m


def task_from_dict(d):
    """Build a Task from the scene description schema.

    Raises ValueError naming the problem when a required key (manifold
    params included) is missing, an entry is not an object, a kinematic
    manifold has no system to act on, or the manifolds, ``start`` and
    ``bounds`` disagree on the number of configuration coordinates.
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
    for key in ("start", "bounds"):
        if not isinstance(d[key], (list, tuple)) or len(d[key]) != k:
            raise ValueError(f"scene {key!r} must have one entry per configuration coordinate ({k}), got {d[key]!r}")
    for j, b in enumerate(d["bounds"]):
        if not isinstance(b, (list, tuple)) or len(b) != 2:
            raise ValueError(f"bounds entry {j} must be a [lo, hi] pair, got {b!r}")
    obstacles = _from_entries("obstacle", d.get("obstacles", ()), lambda o: ObstacleAABB(
        tuple(o["min"]), tuple(o["max"]), name=o.get("name", "")))
    transitions = _from_entries("transition", d.get("transitions", ()),
                                lambda r: TransitionRule(r["trigger"], r["effect"]))
    return Task(
        name=d.get("name", "scene"),
        manifolds=manifolds,
        q_start=tuple(d["start"]),
        bounds=tuple(tuple(b) for b in d["bounds"]),
        free_space=FreeSpaceState(obstacles=obstacles),
        transitions=transitions,
        collision_step=d.get("collision_step", DEFAULT_COLLISION_STEP),
        system=system,
        profile=d.get("profile", "point"),
    )


def load_task(path):
    with open(path) as f:
        return task_from_dict(json.load(f))


def export_scene_json(name_or_task, indent=2):
    task = name_or_task if isinstance(name_or_task, Task) else build_benchmark_scene(name_or_task)
    return json.dumps(task_to_dict(task), indent=indent)

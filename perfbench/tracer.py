"""Span tracer that wraps seqmp's public functions from the outside.

Each wrapped call records one span (name, start, end, parent span, run id)
in flat in-memory arrays; nothing is written until the caller saves the
spans. Wrappers draw no random numbers and change no arguments, so a traced
planner run must return the same path as an untraced one.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


def _manifold_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in out if "jacobian" in c.__dict__]


class Tracer:
    """Records spans for wrapped functions while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()  # outcome counters, keyed "<span>.<outcome>"
        self.run_id = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, outcome=None):
        """A wrapper around ``fn`` that records a span named ``name``.

        ``outcome(args, result)`` returns a dict of counter increments.
        """
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if outcome is not None:
                for key, inc in outcome(args, result).items():
                    counts[f"{name}.{key}"] += inc
            return result

        return traced

    def patch(self, owner, attr, name, outcome=None):
        """Replace ``owner.attr`` with a traced wrapper until ``restore``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, outcome))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap every layer boundary at the name its callers look it up by."""
        from seqmp import kinematics, manifolds, planner, scene, steering

        self.patch(planner, "rrt_star_extend", "planner.rrt_star_extend",
                   lambda a, r: {"accepted": r is not None})
        self.patch(planner.Tree, "nearest", "planner.tree_nearest")
        self.patch(planner.Tree, "near", "planner.tree_near", lambda a, r: {"size": len(r)})
        self.patch(planner.Tree, "reparent", "planner.tree_reparent")

        self.patch(planner, "psm_steer", "steering.psm_steer", lambda a, r: {"useful": r is not None})
        self.patch(planner, "steer_point", "steering.steer_point")
        self.patch(steering, "steer_point", "steering.steer_point")
        self.patch(steering, "steer_constraint", "steering.steer_constraint")

        converged = lambda a, r: {"converged": r is not None}
        for module in (planner, steering):
            self.patch(module, "project", "manifolds.project", converged)
            self.patch(module, "evaluate", "manifolds.evaluate")
        self.patch(steering, "tangent_nullspace", "manifolds.tangent_nullspace")
        self.patch(manifolds, "evaluate", "manifolds.evaluate")
        self.patch(manifolds, "fd_jacobian", "manifolds.fd_jacobian")
        for cls in _manifold_classes(manifolds.Manifold):
            self.patch(cls, "jacobian", "manifolds.jacobian")

        self.patch(kinematics.SerialChain, "fk_frames", "kinematics.fk_frames")
        self.patch(kinematics.MultiRobotSystem, "body_points", "kinematics.body_points")

        self.patch(scene, "collision_free_segment", "scene.collision_free_segment",
                   lambda a, r: {"free": bool(r)})
        self.patch(scene, "point_free", "scene.point_free",
                   lambda a, r: {"points": len(np.atleast_2d(a[0]))})

    def spans(self):
        """The spans as numpy columns, with each span's self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "parent": parent,
            "run": np.frombuffer(self.run, dtype=np.int64),
            "start": start,
            "end": end,
            "self": duration - covered,
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


# spans reported as <name>.calls and <name>.self_s, and spans reported as calls only
TIMED = (
    "planner.rrt_star_extend", "planner.tree_nearest", "planner.tree_near",
    "steering.psm_steer",
    "manifolds.project", "manifolds.jacobian", "manifolds.fd_jacobian",
    "manifolds.tangent_nullspace", "manifolds.evaluate",
    "kinematics.fk_frames", "kinematics.body_points",
    "scene.collision_free_segment",
)
COUNTED = ("planner.tree_reparent", "steering.steer_point", "steering.steer_constraint",
           "scene.point_free")


def layer_metrics(tracer):
    """Per-layer metrics of every span recorded since ``install``: {name: (value, unit)}."""
    spans = tracer.spans()
    name_id = spans["name_id"]
    ids = {name: i for i, name in enumerate(tracer.names)}
    n_calls = np.bincount(name_id, minlength=len(ids))
    self_s = np.bincount(name_id, weights=spans["self"], minlength=len(ids))
    calls = {name: int(n_calls[i]) for name, i in ids.items()}
    c = tracer.counts

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (float(self_s[ids[name]]), "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (calls[name], "count")
    extend, project = calls["planner.rrt_star_extend"], calls["manifolds.project"]
    segments = calls["scene.collision_free_segment"]
    # Jacobians called directly by project: one per Newton iteration
    is_project = np.append(name_id == ids["manifolds.project"], False)  # parent -1 indexes False
    newton = np.count_nonzero((name_id == ids["manifolds.jacobian"]) & is_project[spans["parent"]])
    out["planner.rrt_star_extend.accept_ratio"] = (ratio(c["planner.rrt_star_extend.accepted"], extend), "ratio")
    out["planner.tree_near.mean_size"] = (ratio(c["planner.tree_near.size"], calls["planner.tree_near"]), "count")
    out["steering.psm_steer.useful_ratio"] = (ratio(c["steering.psm_steer.useful"], calls["steering.psm_steer"]), "ratio")
    out["manifolds.project.converged_ratio"] = (ratio(c["manifolds.project.converged"], project), "ratio")
    out["manifolds.project.jacobians_per_call"] = (ratio(newton, project), "count")
    out["scene.collision_free_segment.free_ratio"] = (ratio(c["scene.collision_free_segment.free"], segments), "ratio")
    out["scene.point_free.points"] = (c["scene.point_free.points"], "count")
    out["scene.segment_checks_per_extend"] = (ratio(segments, extend), "count")
    return out

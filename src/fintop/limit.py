"""Threads of the inverse sequence: elements of the limit space.

A thread is a choice of one payload per level, compatible under the
bonding maps.  The canonical thread of a point x collects, at level n, the
images under the bondings of the nearest-point sets of x at every deeper
level; in a finite tower the union runs to the top level and a
stabilization flag records whether the last level contributed anything
new.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import metric as M
from .tower import NearestPointTower, Tower, TowerError, nearest_point_set


@dataclass
class Thread:
    """Payloads per level (1-based level n stored at index n-1)."""
    levels: list[frozenset]
    point: Optional[object] = None      # the approximated point, if known
    stabilized: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.levels)


def canonical_thread(tower: Tower, x, tol: float = 1e-9) -> Thread:
    """The minimal thread through x: unions of bonded nearest-point sets.

    Level n uses contributions from every deeper level of the finite
    tower; stabilized[n-1] is True when the top level added nothing new at
    level n, which certifies that deeper levels would not either.
    """
    depth = len(tower)
    if depth < 2:
        raise TowerError("canonical threads need at least two levels")
    nearest = [nearest_point_set(tower.term(m).sample, x, tol)
               for m in range(1, depth + 1)]
    levels = []
    stabilized = []
    for n in range(1, depth):
        acc: set = set()
        last_new = True
        for m in range(n + 1, depth + 1):
            contribution = tower.bond(n, m, nearest[m - 1])
            before = len(acc)
            acc |= contribution
            last_new = len(acc) > before
        levels.append(frozenset(acc))
        stabilized.append(not last_new)
    return Thread(levels=levels, point=x, stabilized=stabilized)


def is_thread(tower: Tower, thread: Thread, tol: float = 1e-9) -> bool:
    """Compatibility: each bonding sends a level exactly onto the one below."""
    for n in range(1, len(thread)):
        if tower.bond(n, n + 1, thread.levels[n]) != thread.levels[n - 1]:
            return False
    return all(tower.term(n).is_element(thread.levels[n - 1], tol)
               for n in range(1, len(thread) + 1))


@dataclass
class ThreadReport:
    compatible: bool
    element_levels: list[bool]          # payload passes the diameter bound
    convergence: list[float]            # d_H({x}, C_n), bounded by 2 eps_n
    convergence_ok: bool
    ball_bound_ok: bool                 # C_n inside the open 2 eps_n ball at x
    inter_level_ok: bool                # d_H(C_n, C_m) < 2 eps_n - gamma_n / 2
    stabilized: list[bool]


def _level_points(tower: Tower, n: int, payload: frozenset) -> list:
    pts = tower.term(n).sample.points
    return [pts[i] for i in sorted(payload)]


def verify_thread(tower: Tower, thread: Thread, x=None,
                  tol: float = 1e-9) -> ThreadReport:
    """All certified properties of a thread against its tower."""
    if x is None:
        x = thread.point
    if x is None:
        raise TowerError("verification needs the approximated point")
    ctx = tower.term(1).sample.context
    compatible = all(
        tower.bond(n, n + 1, thread.levels[n]) == thread.levels[n - 1]
        for n in range(1, len(thread)))
    element_levels = [tower.term(n).is_element(thread.levels[n - 1], tol)
                      for n in range(1, len(thread) + 1)]
    convergence = []
    conv_ok = ball_ok = True
    for n in range(1, len(thread) + 1):
        pts = _level_points(tower, n, thread.levels[n - 1])
        dh = M.hausdorff_distance(ctx, [x], pts)
        convergence.append(dh)
        bound = 2 * tower.epsilon(n)
        conv_ok &= M.below(dh, bound, tol)
        ball = M.ball_images(tower.term(n).sample, [x], bound, tol)[0]
        ball_ok &= thread.levels[n - 1] <= ball
    inter_ok = True
    for n in range(1, len(thread) + 1):
        gamma = tower.term(n).sample.gamma
        if gamma is None:
            continue
        bound = 2 * tower.epsilon(n) - gamma / 2
        pn = _level_points(tower, n, thread.levels[n - 1])
        for m in range(n + 1, len(thread) + 1):
            pm = _level_points(tower, m, thread.levels[m - 1])
            inter_ok &= M.below(M.hausdorff_distance(ctx, pn, pm), bound, tol)
    return ThreadReport(compatible=compatible, element_levels=element_levels,
                        convergence=convergence, convergence_ok=conv_ok,
                        ball_bound_ok=ball_ok, inter_level_ok=inter_ok,
                        stabilized=list(thread.stabilized))


def threads_disjoint_levels(tower: Tower, tx: Thread, ty: Thread,
                            x, y) -> list[int]:
    """Levels where separated points must have disjoint thread payloads.

    Returns the levels n with d(x, y) > 16 eps_n at which the payloads
    intersect, i.e. violations; an empty list certifies the separation
    property over the computed range.
    """
    ctx = tower.term(1).sample.context
    d = M.distance(ctx, x, y)
    bad = []
    for n in range(1, min(len(tx), len(ty)) + 1):
        if d > 16 * tower.epsilon(n):
            if tx.levels[n - 1] & ty.levels[n - 1]:
                bad.append(n)
    return bad


def minimality_violations(tower: Tower, canonical: Thread, other: Thread) -> list[int]:
    """Levels where the canonical thread is not inside the other thread."""
    return [n for n in range(1, min(len(canonical), len(other)) + 1)
            if not canonical.levels[n - 1] <= other.levels[n - 1]]


def thread_to_dict(tower: Tower, thread: Thread) -> dict:
    out = {
        "point": (np.atleast_1d(thread.point).tolist()
                  if thread.point is not None else None),
        "levels": [sorted(p) for p in thread.levels],
        "stabilized": list(thread.stabilized),
        "epsilons": [tower.epsilon(n) for n in range(1, len(thread) + 1)],
    }
    return out


def thread_from_dict(data: dict) -> Thread:
    return Thread(levels=[frozenset(p) for p in data["levels"]],
                  point=(np.asarray(data["point"])
                         if data.get("point") is not None else None),
                  stabilized=list(data.get("stabilized", [])))

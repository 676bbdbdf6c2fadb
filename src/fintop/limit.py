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

from . import metric as M
from .tower import Tower, TowerError, nearest_point_set


@dataclass
class Thread:
    """Payloads per level (1-based level n stored at index n-1)."""
    levels: list[frozenset]
    point: object                       # the approximated point
    stabilized: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.levels)


def canonical_thread(tower: Tower, x) -> Thread:
    """The minimal thread through x: unions of bonded nearest-point sets.

    Level n uses contributions from every deeper level of the finite
    tower; stabilized[n-1] is True when the top level added nothing new at
    level n, which certifies that deeper levels would not either.  Nearest
    points are tied within the tower's tolerance.
    """
    depth = len(tower)
    if depth < 2:
        raise TowerError("canonical threads need at least two levels")
    nearest = [nearest_point_set(tower.term(m).sample, x, tower.tol)
               for m in range(1, depth + 1)]
    levels = []
    stabilized = []
    for n in range(1, depth):
        parts = [tower.bond(n, m, nearest[m - 1])
                 for m in range(n + 1, depth + 1)]
        earlier = frozenset().union(*parts[:-1])
        levels.append(earlier | parts[-1])
        stabilized.append(parts[-1] <= earlier)
    return Thread(levels=levels, point=x, stabilized=stabilized)


@dataclass
class ThreadReport:
    compatible: bool
    element_levels: list[bool]          # payload passes the diameter bound
    convergence: list[float]            # d_H({x}, C_n), bounded by 2 eps_n
    convergence_ok: bool
    ball_bound_ok: bool                 # C_n inside the open 2 eps_n ball at x
    inter_level_ok: bool                # d_H(C_n, C_m) < 2 eps_n - gamma_n / 2


def verify_thread(tower: Tower, thread: Thread) -> ThreadReport:
    """All certified properties of a thread through its point, against its
    tower and within the tower's tolerance.

    compatible: each bonding sends a level exactly onto the one below.  An
    empty level fails the convergence, ball and inter-level checks, with an
    infinite distance.  d_H({x}, C_n) = max_c d(x, c) and `below` is
    monotone, so the ball check is the convergence check.
    """
    x, tol = thread.point, tower.tol
    ctx = tower.term(1).sample.context
    compatible = all(
        tower.bond(n, n + 1, thread.levels[n]) == thread.levels[n - 1]
        for n in range(1, len(thread)))
    terms = [tower.term(n) for n in range(1, len(thread) + 1)]
    element_levels = [t.is_element(c, tol)
                      for t, c in zip(terms, thread.levels)]
    pts = [t.sample.points[sorted(c)] for t, c in zip(terms, thread.levels)]
    convergence = [M.hausdorff_distance(ctx, [x], p) for p in pts]
    conv_ok = all(M.below(d, 2 * t.sample.epsilon, tol)
                  for t, d in zip(terms, convergence))
    inter_ok = all(thread.levels)
    for n, t in enumerate(terms):
        if t.sample.gamma is not None:
            bound = 2 * t.sample.epsilon - t.sample.gamma / 2
            inter_ok &= all(M.below(M.hausdorff_distance(ctx, pts[n], p),
                                    bound, tol) for p in pts[n + 1:])
    return ThreadReport(compatible=compatible, element_levels=element_levels,
                        convergence=convergence, convergence_ok=conv_ok,
                        ball_bound_ok=conv_ok, inter_level_ok=inter_ok)


def threads_disjoint_levels(tower: Tower, tx: Thread, ty: Thread,
                            x, y) -> list[int]:
    """Levels where separated points must have disjoint thread payloads.

    Returns the levels n with d(x, y) > 16 eps_n (outside the closed ball,
    by `metric.below` at the tower's tolerance) at which the payloads
    intersect, i.e. violations; an empty list certifies the separation
    property over the computed range.
    """
    ctx = tower.term(1).sample.context
    d = M.hausdorff_distance(ctx, [x], [y])
    bad = []
    for n in range(1, min(len(tx), len(ty)) + 1):
        if not M.below(d, 16 * tower.epsilon(n), tower.tol, closed=True):
            if tx.levels[n - 1] & ty.levels[n - 1]:
                bad.append(n)
    return bad

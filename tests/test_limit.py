import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintop import limit as L
from fintop import metric as M
from fintop import tower as T


def circle_tower(depth=4):
    return T.build_tower("circle", depth, max_dim=3, k_max=1)


def holds_as_thread(tower, thread):
    """Compatible under the bondings, with every payload an element."""
    rep = L.verify_thread(tower, thread)
    return rep.compatible and all(rep.element_levels)


def test_canonical_thread_values_on_grid_point():
    tw = circle_tower(4)
    x = 2 * math.pi * 5 / 256          # a grid point of the deepest level
    th = L.canonical_thread(tw, x)
    assert [sorted(p) for p in th.levels] == [[0], [0, 1], [0, 1]]
    assert th.stabilized[:2] == [True, True]


def test_canonical_thread_generic_point():
    tw = circle_tower(4)
    th = L.canonical_thread(tw, math.pi / 5)
    assert [sorted(p) for p in th.levels] == [[0], [0, 1], [3, 4]]


def test_thread_properties_certified():
    tw = circle_tower(4)
    for x in (0.0, math.pi / 5, 2.0, 2 * math.pi * 5 / 256):
        th = L.canonical_thread(tw, x)
        rep = L.verify_thread(tw, th)
        assert rep.compatible
        assert all(rep.element_levels)
        assert rep.convergence_ok and rep.ball_bound_ok and rep.inter_level_ok
        for n, dh in enumerate(rep.convergence, start=1):
            assert dh < 2 * tw.epsilon(n)


@functools.lru_cache(maxsize=None)
def shared_circle_tower():
    return circle_tower(4)


@settings(max_examples=40, deadline=None)
@given(st.floats(-20.0, 20.0))
def test_thread_of_an_angle_is_the_thread_of_its_remainder(x):
    tw = shared_circle_tower()
    th = L.canonical_thread(tw, x)
    ref = L.canonical_thread(tw, np.mod(x, 2 * math.pi))
    assert (th.levels, th.stabilized) == (ref.levels, ref.stabilized)
    assert L.verify_thread(tw, th) == L.verify_thread(tw, ref)


def test_is_thread_and_broken_thread():
    tw = circle_tower(4)
    th = L.canonical_thread(tw, math.pi / 5)
    assert holds_as_thread(tw, th)
    broken = L.Thread(levels=list(th.levels), point=th.point)
    broken.levels[0] = frozenset([0])  # already true at level 1; break level 2
    broken.levels[1] = frozenset([2])
    assert not holds_as_thread(tw, broken)


def test_minimality_against_fattened_thread():
    tw = circle_tower(4)
    x = math.pi / 5
    th = L.canonical_thread(tw, x)
    # fatten the deepest computed level by one adjacent grid point, then
    # push the result down with the bondings: still a thread, and the
    # canonical one sits inside it levelwise
    top = len(th)
    fat_top = th.levels[top - 1] | {min(th.levels[top - 1]) - 1}
    other = L.Thread(
        levels=[tw.bond(n, top, fat_top) for n in range(1, top)] + [fat_top],
        point=x)
    assert holds_as_thread(tw, other)
    assert [n for n in range(1, min(len(th), len(other)) + 1)
            if not th.levels[n - 1] <= other.levels[n - 1]] == []


def test_separated_points_have_disjoint_threads():
    tw = circle_tower(4)
    x, y = 0.0, math.pi                 # antipodal: d = pi
    tx = L.canonical_thread(tw, x)
    ty = L.canonical_thread(tw, y)
    # pi > 16 * eps_n from level 3 on (16 * eps_3 = pi at level 3 is not
    # strict, so the certified range starts at level 4); no violations
    assert L.threads_disjoint_levels(tw, tx, ty, x, y) == []
    # and the payloads really are disjoint once the scale separates them
    assert not (tx.levels[2] & ty.levels[2])


def test_thread_needs_two_levels():
    tw = circle_tower(1)
    with pytest.raises(T.TowerError):
        L.canonical_thread(tw, 0.5)


def test_interval_nearest_tower_threads():
    # threads also make sense in the nearest-point variant
    samples = [M.interval_sample(n) for n in range(1, 4)]
    tw = T.NearestPointTower(samples, mode=T.STRICT, max_dim=3, k_max=1)
    th = L.canonical_thread(tw, np.array([0.5]))
    rep = L.verify_thread(tw, th)
    assert rep.compatible and all(rep.element_levels) and rep.convergence_ok


def test_threads_use_the_tower_tolerance():
    # x is 0.4999 from point 0 and 0.5001 from point 1: both are nearest
    # within the tolerance 1e-3, only point 0 within 1e-9
    ctx = M.euclidean(1)
    tw = T.Tower([M.MetricSample(ctx, [[0.0], [1.0]], epsilon=0.2503),
                  M.MetricSample(ctx, [[0.0], [1.0]], epsilon=0.1)],
                 mode=T.RELAXED, tol=1e-3)
    x = np.array([0.4999])
    s2 = tw.term(2).sample
    assert T.nearest_point_set(s2, x, 1e-9) == frozenset([0])
    assert T.nearest_point_set(s2, x, 1e-3) == frozenset([0, 1])
    th = L.canonical_thread(tw, x)
    assert th.levels == [frozenset([0, 1])]
    # d_H({x}, C_1) = 0.5001 lies within 1e-3 of the bound 2 eps_1 = 0.5006,
    # so it is not below it, and neither point is in the open 0.5006-ball
    rep = L.verify_thread(tw, th)
    assert rep.convergence == [pytest.approx(0.5001)]
    assert (rep.compatible, rep.element_levels) == (True, [True])
    assert not rep.convergence_ok and not rep.ball_bound_ok

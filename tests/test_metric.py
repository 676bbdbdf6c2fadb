import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintop import metric as M


def test_euclidean_distance_345():
    ctx = M.euclidean(2)
    assert M.distance(ctx, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)


def test_geodesic_distance_quarter():
    ctx = M.circle_geodesic()
    assert M.distance(ctx, 0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    # wraps around the short way
    assert M.distance(ctx, 0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)


def test_explicit_matrix_validation():
    M.explicit([[0, 1], [1, 0]])
    with pytest.raises(M.MetricError):
        M.explicit([[0, 1], [2, 0]])          # asymmetric
    with pytest.raises(M.MetricError):
        M.explicit([[0, 5, 1], [5, 0, 1], [1, 1, 0]])  # triangle violation


def test_ball_query_circle_level2():
    s = M.circle_sample(2)     # angles 0, pi/2, pi, 3pi/2
    got = M.ball_query(s, math.pi / 4, math.pi / 2, mode="open")
    assert [float(s.points[i]) for i in got] == pytest.approx([0.0, math.pi / 2])
    # boundary hit resolved by mode
    edge_open = M.ball_query(s, 0.0, math.pi / 2, mode="open")
    edge_closed = M.ball_query(s, 0.0, math.pi / 2, mode="closed")
    assert edge_open == [0]
    assert sorted(edge_closed) == [0, 1, 3]


def test_ball_query_cantor_level1():
    s = M.cantor_sample(1)
    got = M.ball_query(s, np.array([0.0]), 1.0, mode="open")
    assert [float(s.points[i][0]) for i in got] == pytest.approx([0, 1 / 3, 2 / 3])


def test_circle_generator_values():
    s1 = M.circle_sample(1)
    assert len(s1) == 1 and s1.epsilon == pytest.approx(3 * math.pi)
    assert s1.gamma == pytest.approx(math.pi)
    s2 = M.circle_sample(2)
    assert len(s2) == 4 and s2.epsilon == pytest.approx(math.pi / 2)
    assert s2.gamma == pytest.approx(math.pi / 4)
    s3 = M.circle_sample(3)
    assert len(s3) == 32 and s3.epsilon == pytest.approx(math.pi / 16)


def test_cantor_generator_values():
    s1 = M.cantor_sample(1)
    assert sorted(float(p[0]) for p in s1.points) == pytest.approx([0, 1 / 3, 2 / 3, 1])
    assert s1.epsilon == pytest.approx(1.0)
    assert s1.gamma == pytest.approx(1 / 9)
    s3 = M.cantor_sample(3)
    assert len(s3) == 16 and s3.epsilon == pytest.approx(1 / 16)


def test_interval_generator_values():
    s1 = M.interval_sample(1)
    assert len(s1) == 1 and s1.epsilon == pytest.approx(2.0)
    s2 = M.interval_sample(2)
    assert len(s2) == 4 and s2.epsilon == pytest.approx(1 / 3)


def test_coverage_radius_exact_and_estimated():
    s2 = M.circle_sample(2)
    assert M.coverage_radius(s2) == pytest.approx(math.pi / 4)
    ref = M.dense_reference("circle", 2)
    est = M.coverage_radius(s2, ref)
    assert est <= math.pi / 4 + 1e-9
    assert est >= math.pi / 4 - 0.2


def test_coverage_radius_cantor_grid():
    s1 = M.cantor_sample(1)
    grid = np.array([[k / 9.0] for k in range(10) if k not in (4, 5)])  # E_2 coarse
    # deepest uncovered point of each kept interval is 1/9 from an endpoint;
    # against this E_2 endpoint grid the worst gap is exactly 1/9
    assert M.coverage_radius(s1, grid) == pytest.approx(1 / 9)


def test_hausdorff_known_value():
    ctx = M.euclidean(1)
    assert M.hausdorff_distance(ctx, [[0.0], [1.0]], [[0.5]]) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=6),
       st.lists(st.floats(-5, 5), min_size=1, max_size=6))
def test_hausdorff_symmetry_and_triangle(a, b, c):
    ctx = M.euclidean(1)
    A = [[x] for x in a]
    B = [[x] for x in b]
    C = [[x] for x in c]
    dab = M.hausdorff_distance(ctx, A, B)
    assert dab == pytest.approx(M.hausdorff_distance(ctx, B, A))
    assert dab <= M.hausdorff_distance(ctx, A, C) + M.hausdorff_distance(ctx, C, B) + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.0, 2 * math.pi))
def test_ball_monotone_in_radius(r, x):
    s = M.circle_sample(3)
    small = set(M.ball_query(s, x, r, mode="open"))
    big = set(M.ball_query(s, x, r * 1.5 + 0.01, mode="open"))
    assert small <= big


def test_two_squares_sample_net():
    s = M.two_squares_sample(2, 400, seed=7)
    assert s.context.dimension == 2
    # net separation holds
    pw = s.pairwise()
    off = pw[~np.eye(len(s), dtype=bool)]
    assert off.min() >= 0.75 * s.epsilon - 1e-12
    # and it still covers the frame within epsilon
    assert s.gamma is not None and s.gamma < s.epsilon


def test_two_squares_deterministic():
    a = M.two_squares_sample(2, 400, seed=7)
    b = M.two_squares_sample(2, 400, seed=7)
    assert np.array_equal(a.points, b.points)
    c = M.two_squares_sample(2, 400, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_points_csv_roundtrip(tmp_path):
    p = tmp_path / "pts.csv"
    pts = np.array([[0.0, 1.5], [2.25, -3.0]])
    M.save_points_csv(p, pts, header="two points")
    back = M.load_points_csv(p, dimension=2)
    assert np.allclose(back, pts)
    with pytest.raises(M.MetricError):
        M.load_points_csv(p, dimension=3)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 50.0), st.sampled_from([0.0, 1e-9, 1e-3]), st.booleans(),
       st.lists(st.floats(0.0, 100.0), max_size=6))
def test_below_resolves_ties_alike_on_scalars_and_arrays(radius, tol, closed, extra):
    slack = tol * max(1.0, radius)
    lo, hi = radius - slack, radius + slack
    planted = [radius, lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
               np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
    d = np.array(planted + extra)
    got = M.below(d, radius, tol, closed=closed)
    assert got.shape == d.shape
    assert got.tolist() == [M.below(float(v), radius, tol, closed=closed) for v in d]
    # a tie at the radius is outside an open ball and inside a closed one
    assert got[0] == closed
    if closed:
        assert got[2] and got[5] and not got[6]
    else:
        assert not got[1] and got[3] and not got[4]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.floats(1.0, 2.0), st.sampled_from([0.0, 1e-9, 1e-3]),
       st.sampled_from(["open", "closed"]), st.randoms(use_true_random=False))
def test_ball_query_matches_per_pair_loop(n, radius, tol, mode, rnd):
    # off-diagonal entries in [1, 2] always satisfy the triangle inequality
    slack = tol * max(1.0, radius)
    ties = [np.clip(t, 1.0, 2.0) for t in (radius, radius - slack, radius + slack)]
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = rnd.choice(ties) if rnd.random() < 0.5 \
                else rnd.uniform(1.0, 2.0)
    sample = M.MetricSample(M.explicit(m), np.arange(n), epsilon=1.0)
    for x in range(n):
        expected = [i for i in range(n)
                    if M.below(float(m[x, i]), radius, tol, closed=mode == "closed")]
        assert M.ball_query(sample, x, radius, mode=mode, tol=tol) == expected


def test_pairwise_of_column_circle_points_is_square():
    angles = 2 * math.pi * np.arange(5) / 5
    column = M.MetricSample(M.circle_geodesic(), angles.reshape(-1, 1), 1.0)
    flat = M.MetricSample(M.circle_geodesic(), angles, 1.0)
    assert column.pairwise().shape == (5, 5)
    assert np.array_equal(column.pairwise(), flat.pairwise())
    assert M.ball_query(column, column.points[0], 1.3, mode="open") == [0, 1, 4]

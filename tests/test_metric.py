import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fintop import metric as M

from oracles import distances_from


def test_euclidean_distance_345():
    ctx = M.euclidean(2)
    assert M.hausdorff_distance(ctx, [(0.0, 0.0)], [(3.0, 4.0)]) \
        == pytest.approx(5.0)


def test_geodesic_distance_quarter():
    ctx = M.circle_geodesic()
    assert M.hausdorff_distance(ctx, [0.0], [math.pi / 2]) \
        == pytest.approx(math.pi / 2)
    # wraps around the short way
    assert M.hausdorff_distance(ctx, [0.1], [2 * math.pi - 0.1]) \
        == pytest.approx(0.2)


def test_tiny_negative_angle_is_angle_zero():
    # np.mod(-1e-20, 2 pi) rounds up to 2 pi itself, 0.1 away from 0.1 only
    # up to rounding; the normalised angle is 0
    ctx = M.circle_geodesic()
    assert M.hausdorff_distance(ctx, [-1e-20], [0.1]) == 0.1
    s = M.MetricSample(ctx, [0.1, 1.0], epsilon=1.0)
    assert M.ball_images(s, [-1e-20], 0.1, tol=0.0, closed=True) \
        == [frozenset([0])]


def test_explicit_matrix_validation():
    M.explicit([[0, 1], [1, 0]])
    with pytest.raises(M.MetricError):
        M.explicit([[0, 1], [2, 0]])          # asymmetric
    with pytest.raises(M.MetricError):
        M.explicit([[0, 5, 1], [5, 0, 1], [1, 1, 0]])  # triangle violation


def test_explicit_matrix_is_zero_only_on_the_diagonal():
    with pytest.raises(M.MetricError, match="zero off the diagonal"):
        M.explicit([[0, 0, 1], [0, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("ctx, points", [
    (M.euclidean(2), [[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]]),
    (M.euclidean(1), [[0.0], [-0.0]]),
    (M.euclidean(2), [[1.0, -0.0], [0.0, 5.0], [1.0, 0.0]]),
    (M.circle_geodesic(), [0.0, 1.0, 2 * math.pi]),
    (M.explicit(np.ones((3, 3)) - np.eye(3)), [0, 2, 2]),
    (M.explicit(np.ones((3, 3)) - np.eye(3)), [2, 0, 1, 2]),
])
def test_sample_points_must_be_distinct(ctx, points):
    with pytest.raises(M.MetricError, match="pairwise distinct"):
        M.MetricSample(ctx, points, epsilon=1.0)


def test_distinct_sample_fills_no_distance_matrix():
    for ctx, points in ((M.euclidean(2), [[0.0, 1.0], [1.0, 0.0]]),
                        (M.circle_geodesic(), [0.0, 1.0]),
                        (M.explicit(np.ones((3, 3)) - np.eye(3)), [0, 2]),
                        (M.euclidean(1), np.zeros((0, 1)))):
        sample = M.MetricSample(ctx, points, epsilon=1.0)
        assert sample._pairwise is None
    # points are compared, not their distances: these two differ by far
    # less than the square root of the smallest float
    sample = M.MetricSample(M.euclidean(1), [[0.0], [1e-200]], epsilon=1.0)
    assert sample.pairwise()[0, 1] == 0.0


@pytest.mark.parametrize("bad", [-1, 0.5, 9, True])
def test_explicit_points_are_indices_of_the_matrix(bad):
    # an index is an integer of 0..n-1: -1 is not the last point, 0.5 is
    # not point 0, and 9 is named before it reaches the distance kernel
    ctx = M.explicit(np.ones((8, 8)) - np.eye(8))
    assert M.MetricSample(ctx, [0, 2.0, 7], 1.0).points.tolist() == [0, 2, 7]
    message = f"explicit point index {bad!r} is not an integer in 0..7"
    with pytest.raises(M.MetricError, match=re.escape(message)):
        M.MetricSample(ctx, [0, bad], 1.0)
    sample = M.MetricSample(ctx, [0, 1], 1.0)
    with pytest.raises(M.MetricError, match=re.escape(message)):
        M.ball_images(sample, [bad], 1.0)


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
    ref = 2 * math.pi * np.arange(40) / 40
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
    back = M.load_points_csv(p)
    assert np.allclose(back, pts)


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


def _planted(d: float, tol: float) -> list:
    """Radii r that put the distance d at r, at r - slack and at r + slack,
    with slack = tol * max(1, r), and the radii one ulp to either side."""
    radii = [d]
    for sign in (1, -1):
        r = d / (1 - sign * tol)
        radii.append(r if r >= 1 else d + sign * tol)
    return [max(0.0, v) for r in radii
            for v in (np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf))]


def _kernel_case(kind: str, n: int, tol: float, rnd):
    """A sample of kind with n points, and centres that hit its distances."""
    if kind == "explicit":
        # off-diagonal entries in [1, 2] always satisfy the triangle inequality
        ties = [float(np.clip(t, 1.0, 2.0)) for t in _planted(rnd.uniform(1, 2), tol)]
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = rnd.choice(ties) if rnd.random() < 0.5 \
                    else rnd.uniform(1.0, 2.0)
        sample = M.MetricSample(M.explicit(m), np.arange(n), epsilon=1.0)
        return sample, np.array([rnd.randrange(n) for _ in range(rnd.randint(1, 5))])
    if kind == "circle":
        grid = [2 * math.pi * k / 16 for k in range(16)]
        pts = rnd.sample(grid, n)
        centres = [rnd.choice(grid + [rnd.uniform(-7, 7)]) for _ in range(5)]
        return M.MetricSample(M.circle_geodesic(), pts, epsilon=1.0), np.array(centres)
    grid = [(0.25 * i, 0.25 * j) for i in range(5) for j in range(5)]
    pts = rnd.sample(grid, n)
    centres = [rnd.choice(grid + [(rnd.uniform(-1, 2), rnd.uniform(-1, 2))])
               for _ in range(rnd.randint(1, 5))]
    return M.MetricSample(M.euclidean(2), pts, epsilon=1.0), np.array(centres)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["euclidean", "circle", "explicit"]), st.integers(1, 8),
       st.sampled_from([0.0, 1e-9, 1e-3]), st.booleans(),
       st.sampled_from(["one radius", "per centre", "nearest"]),
       st.sampled_from([M.BLOCK_ENTRIES, 1]), st.randoms(use_true_random=False))
def test_ball_images_match_a_per_point_loop(kind, n, tol, closed, radius,
                                            block_entries, rnd):
    sample, centres = _kernel_case(kind, n, tol, rnd)
    rows = [distances_from(sample.context, sample.points, c) for c in centres]
    if radius == "nearest":
        radii, arg, closed = [float(d.min()) for d in rows], None, True
    else:
        radii = [rnd.choice(_planted(float(rnd.choice(d)), tol)) for d in rows]
        if radius == "one radius":
            radii = [radii[0]] * len(rows)
        arg = radii[0] if radius == "one radius" else np.array(radii)
    expected = [frozenset(i for i, v in enumerate(d)
                          if M.below(float(v), r, tol, closed=closed))
                for d, r in zip(rows, radii)]
    # a budget of one entry sweeps the centres one block per row
    with mock.patch.object(M, "BLOCK_ENTRIES", block_entries):
        assert M.ball_images(sample, centres, arg, tol, closed=closed) == expected
    if radius == "one radius":
        mode = "closed" if closed else "open"
        assert [set(M.ball_query(sample, c, arg, mode, tol))
                for c in centres] == expected


def test_pairwise_of_column_circle_points_is_square():
    angles = 2 * math.pi * np.arange(5) / 5
    column = M.MetricSample(M.circle_geodesic(), angles.reshape(-1, 1), 1.0)
    flat = M.MetricSample(M.circle_geodesic(), angles, 1.0)
    assert column.pairwise().shape == (5, 5)
    assert np.array_equal(column.pairwise(), flat.pairwise())
    assert M.ball_query(column, column.points[0], 1.3, mode="open") == [0, 1, 4]


def _broadcast_distances(A, B):
    """The earlier Euclidean kernel: one len(A) x len(B) x d difference
    array, reduced over its last axis."""
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


_COORDINATE = st.one_of(
    st.just(0.0),
    st.builds(lambda m, s: s * m, st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0])))


@st.composite
def _point_arrays(draw):
    """Two point arrays of one dimension 1..7 whose coordinates repeat."""
    dim = draw(st.integers(1, 7))
    pool = draw(st.lists(_COORDINATE, min_size=1, max_size=4))
    coordinate = st.one_of(st.sampled_from(pool), _COORDINATE)
    rows = st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                    min_size=1, max_size=6)
    A = draw(rows)
    B = draw(rows) + draw(st.lists(st.sampled_from(A), max_size=2))
    return np.array(A), np.array(B)


@settings(max_examples=200, deadline=None)
@given(_point_arrays())
def test_cross_distances_are_bitwise_the_broadcast_formula(arrays):
    A, B = arrays
    ctx = M.euclidean(A.shape[1])
    for a, b in ((A, B), (B, A), (A, A)):
        got = M.cross_distances(ctx, a, b)
        want = _broadcast_distances(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the pairwise matrix is filled in row blocks, here one row per block
    for budget in (M.BLOCK_ENTRIES, 1):
        with mock.patch.object(M, "BLOCK_ENTRIES", budget):
            got = M.points_distance_matrix(ctx, B)
        assert got.tobytes() == _broadcast_distances(B, B).tobytes()


def _net_by_loop(points: list, separation: float) -> list:
    """Farthest-point net, one pick at a time: the point farthest from the
    picks so far, lowest index first on ties, until it is closer than the
    separation."""
    def dist(p, q):
        return math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, q)))
    chosen = [0]
    gaps = [dist(p, points[0]) for p in points]
    while True:
        best = max(range(len(points)), key=lambda i: (gaps[i], -i))
        if gaps[best] < separation:
            return sorted(chosen)
        chosen.append(best)
        gaps = [min(g, dist(p, points[best])) for g, p in zip(gaps, points)]


def _net_by_sweep(points: np.ndarray, separation: float) -> np.ndarray:
    """The earlier farthest-point net: every pick sweeps all points."""
    ctx = M.euclidean(points.shape[1])
    chosen = [0]
    dist = distances_from(ctx, points, points[0])
    while True:
        i = int(np.argmax(dist))
        if dist[i] < separation:
            return np.array(sorted(chosen), dtype=int)
        chosen.append(i)
        np.minimum(dist, distances_from(ctx, points, points[i]), out=dist)


def _coverage_by_sweep(sample: M.MetricSample, reference) -> float:
    """The earlier coverage radius: every reference point sweeps all
    samples."""
    ref = M._points_array(sample.context, reference)
    return max(float(d.min(axis=1).max())
               for _, d in M._distance_blocks(sample.context, ref, sample.points))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 200), st.randoms(use_true_random=False))
def test_farthest_point_net_matches_a_per_pick_loop(dim, n, rnd):
    # grid points repeat distances and sort keys, so picks, the stopping rule
    # and the ends of each window of keys hit ties
    top = rnd.choice([3, 12])
    points = [[float(rnd.randint(0, top)) for _ in range(dim)] for _ in range(n)]
    distances = {math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
                 for p in points for q in points}
    separation = rnd.choice(sorted((distances - {0.0}) | {0.5, 10.0}))
    got = M.farthest_point_net(np.array(points), separation)
    assert got.tolist() == _net_by_loop(points, separation)


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_two_squares_sampling_matches_the_sweeps(seed):
    # the windowed net and the cell-grid coverage radius against the sweeps
    # over all points they replace: the same picks and bitwise the same gamma
    for level in range(1, 6):
        eps = 1.0 / 2 ** (2 * (level - 1))
        count = 120 * 4 ** (level - 1)      # the count build_tower draws
        raw = M.two_squares_points(count, seed + level)
        net = M.farthest_point_net(raw, 0.75 * eps)
        assert net.tolist() == _net_by_sweep(raw, 0.75 * eps).tolist()
        sample = M.two_squares_sample(level, count, seed)
        assert np.array_equal(sample.points, raw[net])
        grid = M.two_squares_grid(min(eps / 8.0, 0.05))
        assert sample.gamma == _coverage_by_sweep(sample, grid)


@st.composite
def _coverage_cases(draw):
    """A Euclidean sample of dimension 1..3 and reference points: near the
    samples, on the samples' coordinates, and far outside every cell."""
    dim = draw(st.integers(1, 3))
    epsilon = draw(st.sampled_from([0.05, 0.3, 1.0, 2.5]))
    # multiples of a third of a cell side repeat and sit on cell boundaries;
    # the other floats are rounded, so that distinct points are at a distance
    # whose square is not 0
    coordinate = st.one_of(st.integers(-9, 9).map(lambda k: k * epsilon / 3),
                           st.floats(-3, 3).map(lambda v: round(v, 6)))
    shape = draw(st.sampled_from(["scattered", "collinear", "single"]))
    size = 1 if shape == "single" else 12
    rows = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=min(size, 2),
                         max_size=size, unique=True))
    if shape == "collinear":
        # every coordinate but the first is that of the first point
        rows = list(dict.fromkeys((r[0],) + rows[0][1:] for r in rows))
    samples = np.array(rows)
    offset = st.floats(-1.2, 1.2).map(lambda t: t * epsilon)
    near = draw(st.lists(st.tuples(st.sampled_from(range(len(rows))),
                                   st.lists(offset, min_size=dim, max_size=dim)),
                         max_size=8))
    ref = [samples[i] + np.array(o) for i, o in near]
    ref += [np.array(r) for r in draw(st.lists(st.tuples(*[coordinate] * dim),
                                               max_size=4))]
    ref += [np.full(dim, v) for v in draw(st.lists(st.sampled_from([-1e3, 40.0, 1e6]),
                                                   max_size=2))]
    if not ref:
        ref = [samples[0]]
    return M.MetricSample(M.euclidean(dim), samples, epsilon), np.array(ref)


@settings(max_examples=300, deadline=None)
@given(_coverage_cases(), st.sampled_from([M.BLOCK_ENTRIES, 1]))
def test_coverage_radius_is_bitwise_the_sweep(case, block_entries):
    sample, ref = case
    want = float(M.cross_distances(sample.context, ref, sample.points)
                 .min(axis=1).max())
    # a budget of one entry gathers the candidates one reference point a block
    with mock.patch.object(M, "BLOCK_ENTRIES", block_entries):
        assert M.coverage_radius(sample, ref) == want


def test_coverage_radius_sweeps_for_points_outside_the_cells():
    sample = M.MetricSample(M.euclidean(2), [[0.0, 0.0], [1.0, 0.0]], 0.5)
    ref = np.array([[0.1, 0.2], [0.5, 0.0], [30.0, -4.0]])
    near = M._cell_distances(sample, ref)
    # the middle point is 0.5 from both samples, not settled within a cell
    assert near[0] == math.hypot(0.1, 0.2) and np.isnan(near[1:]).all()
    assert M.coverage_radius(sample, ref) == math.hypot(29.0, 4.0)


def test_farthest_point_net_breaks_ties_by_lowest_index():
    # 1, 2 and 3 are at distance 2 from 0: 1 is picked first, then 2;
    # 3 repeats 1 and is never picked; 4 is at distance 1 from the picks
    points = np.array([[0.0], [2.0], [-2.0], [2.0], [1.0]])
    assert M.farthest_point_net(points, 1.0).tolist() == [0, 1, 2, 4]
    assert M.farthest_point_net(points, 2.0).tolist() == [0, 1, 2]
    assert M.farthest_point_net(points, 2.5).tolist() == [0]
    # the points sort along y; 1 and 2 tie after the pick of 3, and 2 comes
    # first in key order, but 1 is picked, which leaves 2 within 0.2 of it
    points = np.array([[0.0, 0.0], [3.0, 0.1], [3.0, -0.1], [0.0, 10.0]])
    assert M.farthest_point_net(points, 0.5).tolist() == [0, 1, 3]


@pytest.mark.parametrize("separation", [0.0, -1.0, float("nan")])
def test_farthest_point_net_needs_a_positive_separation(separation):
    # a separation at most 0 would never end the picks: every gap is >= 0
    with pytest.raises(M.MetricError, match="separation"):
        M.farthest_point_net(np.zeros((3, 2)), separation)

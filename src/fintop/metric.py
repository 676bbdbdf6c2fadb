"""Metric contexts, point samples and generators for the example spaces.

A sample is a finite point set A together with a scale epsilon; when A is
within epsilon of every point of the model space it is an
epsilon-approximation.  The coverage radius gamma = sup_x d(x, A) controls
the strict schedule inequality used by the tower module; the generators
give it exactly, and `coverage_radius` bounds it from above over a union
of segments.
"""

from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: default relative tolerance for distance comparisons
DEFAULT_TOL = 1e-9

#: entries in one block of a distance sweep or gather: 2^15 floats, whose
#: temporaries stay in cache
BLOCK_ENTRIES = 2 ** 15

#: relative widening against rounding: of a search window, where a point kept
#: in needlessly costs time, never a result, and of the coverage radius, which
#: it makes an upper bound
_SLACK = 1e-9


class MetricError(ValueError):
    pass


def _is_number(v) -> bool:
    """Whether v is a real number: not a bool, which a JSON true reads as,
    nor a string, which numpy would read as the number it spells."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """Whether the number v is finite; an integer beyond the floats is not."""
    return abs(v) <= sys.float_info.max


def below(d, radius, tol: float, closed: bool = False):
    """Whether distance d lies in the open (or closed) ball of the radius.

    The one tie rule of the library: a distance within relative tolerance
    tol of the radius is outside an open ball and inside a closed one.
    Works elementwise on numpy arrays, with radius broadcast against d.
    """
    # a scalar radius keeps Python arithmetic, so scalar results keep their type
    scale = np.maximum(1.0, np.abs(radius)) if np.ndim(radius) \
        else max(1.0, abs(radius))
    slack = tol * scale
    return d <= radius + slack if closed else d < radius - slack


@dataclass(frozen=True)
class MetricContext:
    """Euclidean space, the geodesic circle, or an explicit distance matrix."""

    kind: str                       # "euclidean" | "circle_geodesic" | "explicit"
    dimension: int = 0              # coordinates per point: 1 unless euclidean
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "euclidean":
            if self.dimension < 1:
                raise MetricError("euclidean dimension must be positive")
        elif self.kind == "circle_geodesic":
            object.__setattr__(self, "dimension", 1)    # an angle
        elif self.kind == "explicit":
            object.__setattr__(self, "dimension", 1)    # an index
            m = self.matrix
            if m is None:
                raise MetricError("explicit context needs a matrix")
            m = np.asarray(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise MetricError("explicit matrix must be square")
            if not np.isfinite(m).all():
                raise MetricError("explicit matrix has an entry that is not "
                                  "a finite distance")
            if np.any(m < 0):
                raise MetricError("explicit matrix has negative entries")
            if np.any(np.abs(np.diag(m)) > 0):
                raise MetricError("explicit matrix diagonal must be zero")
            if np.count_nonzero(m == 0) > len(m):
                raise MetricError("explicit matrix is zero off the diagonal")
            # symmetry and the triangle inequality up to the one tie rule
            if not np.all(below(m, m.T, DEFAULT_TOL, closed=True)):
                raise MetricError("explicit matrix must be symmetric")
            # one stored distance per pair, whichever triangle reads it
            m = np.triu(m) + np.triu(m, 1).T
            for k in range(len(m)):
                via = m[:, [k]] + m[[k], :]
                if not np.all(below(m, via, DEFAULT_TOL, closed=True)):
                    raise MetricError("explicit matrix violates the triangle inequality")
            object.__setattr__(self, "matrix", m)
        else:
            raise MetricError(f"unknown metric kind {self.kind!r}")


def euclidean(dimension: int) -> MetricContext:
    return MetricContext("euclidean", dimension=dimension)


def circle_geodesic() -> MetricContext:
    return MetricContext("circle_geodesic")


def explicit(matrix) -> MetricContext:
    return MetricContext("explicit", matrix=np.asarray(matrix, dtype=float))


def _points_array(ctx: MetricContext, points, where: str = "") -> np.ndarray:
    """points as rows of ctx.dimension coordinates, a flat input read as
    consecutive points: the one shape and the one check of a point set."""
    # numpy reads a string as the number it spells and a bool as 0 or 1, so
    # only a numeric array is not checked cell by cell; explicit indices are
    # checked below
    explicit = ctx.kind == "explicit"
    numeric = not explicit and isinstance(points, np.ndarray) \
        and points.dtype.kind in "iuf"
    not_rows = f"{where}points are not rows of {ctx.dimension} numbers"
    try:
        a = np.asarray(points, dtype=float if numeric else object)
    except ValueError:                  # rows of different lengths
        raise MetricError(not_rows) from None
    if not (numeric or explicit):
        # None reads as NaN, refused below as not finite
        if not all(v is None or _is_number(v) for v in a.flat):
            raise MetricError(not_rows)
        try:
            a = a.astype(float)
        except OverflowError:           # an integer beyond the largest float
            raise MetricError(f"{where}points have a coordinate that is not "
                              "finite") from None
    if a.ndim < 2 and a.size % ctx.dimension == 0:
        a = a.reshape(-1, ctx.dimension)
    if a.ndim != 2:
        raise MetricError(f"{where}points of shape {a.shape} are not rows of "
                          f"{ctx.dimension} coordinates")
    if a.shape[1] != ctx.dimension:
        raise MetricError(f"{where}points of dimension {a.shape[1]}, the "
                          f"{ctx.kind} context has dimension {ctx.dimension}")
    # np.mod would turn an infinite angle into NaN, and NaN into angle 0
    if not explicit and not np.isfinite(a).all():
        raise MetricError(f"{where}points have a coordinate that is not finite")
    if ctx.kind == "euclidean":
        return a
    if ctx.kind == "circle_geodesic":
        # np.mod rounds a tiny negative angle up to 2 pi itself
        a = np.mod(a, TWO_PI)
        return np.where(a < TWO_PI, a, 0.0)
    # indices into the matrix: an int cast would read -1 as the last point
    # and 0.5 as point 0
    n = len(ctx.matrix)
    for v in a.ravel():
        if not (_is_number(v) and 0 <= v < n and float(v).is_integer()):
            raise MetricError(f"explicit point index {v!r} is not an integer "
                              f"in 0..{n - 1}")
    return a.astype(int)


def cross_distances(ctx: MetricContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The len(A) x len(B) matrix of distances between two point arrays.

    Euclidean squares are summed one coordinate at a time into one
    len(A) x len(B) array, in coordinate order.  That is the order of
    numpy's reduction over a last axis shorter than 8, so up to dimension 7
    every distance is bitwise that of sqrt(((A - B) ** 2).sum(axis=-1)).
    Stacks of point arrays, (..., n, d) and (..., m, d), give the (..., n, m)
    stack of their matrices, each distance bitwise the same in either order.
    """
    if ctx.kind == "euclidean":
        A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        acc = A[..., :, None, 0] - B[..., None, :, 0]
        acc *= acc
        for k in range(1, A.shape[-1]):
            d = A[..., :, None, k] - B[..., None, :, k]
            d *= d
            acc += d
        return np.sqrt(acc, out=acc)
    # angles and indices are rows of one coordinate, or a flat array
    a, b = (X[..., 0] if np.ndim(X) > 1 else np.ravel(X) for X in (A, B))
    if ctx.kind == "circle_geodesic":
        d = np.abs(a[..., :, None] - b[..., None, :])
        d %= TWO_PI
        return np.minimum(d, TWO_PI - d, out=d)
    return ctx.matrix[a[..., :, None], b[..., None, :]]


def row_blocks(count: int, entries: int):
    """Slices of range(count) whose items hold at most BLOCK_ENTRIES
    entries together, when each holds `entries`: every sweep's blocks."""
    step = max(1, BLOCK_ENTRIES // max(1, entries))
    return (slice(start, start + step) for start in range(0, count, step))


def points_distance_matrix(ctx: MetricContext, points: np.ndarray) -> np.ndarray:
    """The n x n matrix of distances within one point array, filled one row
    block at a time, so the kernel's temporaries stay within a block."""
    out = np.empty((len(points), len(points)))
    for rows in row_blocks(len(points), len(points)):
        out[rows] = cross_distances(ctx, points[rows], points)
    return out


def _projection(points: np.ndarray) -> np.ndarray:
    """Euclidean points' coordinate on (1, sqrt 2, .., sqrt d) / |.|."""
    u = np.sqrt(np.arange(1.0, points.shape[1] + 1))
    return points @ (u / np.linalg.norm(u))


def close_pairs(source, radius: float, tol: float = DEFAULT_TOL):
    """The pairs i < j of a sample or a symmetric distance matrix below
    radius (`below`, tol >= 0), in blocks of index arrays (i, j); each
    distance is the matrix entry that `cross_distances` gives.

    Euclidean points, and circle angles as points (cos, sin), whose chord
    is at most their arc, are sorted by `_projection`: a pair within radius
    lies in the window of keys within radius of its first point's, widened
    by _SLACK against rounding, and only those candidates are tested,
    BLOCK_ENTRIES at a time (Har-Peled and Mendel 2006).  An explicit
    context and a matrix scan the upper triangle in row blocks.
    """
    if not isinstance(source, MetricSample) \
            or source.context.kind == "explicit":
        n = len(source)
        for rows in row_blocks(n, n):
            block = np.asarray(source)[rows, rows.start:] \
                if not isinstance(source, MetricSample) else cross_distances(
                    source.context, source.points[rows], source.points[rows.start:])
            i, j = np.divmod(np.flatnonzero(below(block, radius, tol)),
                             block.shape[1])
            upper = i < j
            yield i[upper] + rows.start, j[upper] + rows.start
        return
    pts = source.points
    if source.context.kind == "circle_geodesic":
        pts = np.hstack([np.cos(pts), np.sin(pts)])
    key = _projection(pts)
    order = np.argsort(key)
    key, ordered = key[order], source.points[order][:, None]
    norm = float(np.linalg.norm(pts, axis=1).max(initial=0.0))
    reach = radius + _SLACK * (radius + norm)
    # the a-th point's candidates: the points after it with keys within reach
    counts = key.searchsorted(key + reach, side="right") \
        - np.arange(1, len(key) + 1)
    ends, total = np.cumsum(counts), int(counts.sum())
    for flat in row_blocks(total, 1):
        k = np.arange(flat.start, min(flat.stop, total))
        a = ends.searchsorted(k, side="right")
        b = k - ends[a] + counts[a] + a + 1
        near = below(cross_distances(source.context, ordered[a], ordered[b]),
                     radius, tol)[:, 0, 0]
        i, j = order[a[near]], order[b[near]]
        yield np.minimum(i, j), np.maximum(i, j)


@dataclass
class MetricSample:
    """A finite point set at scale epsilon, one row per point, with optional
    coverage radius: every sample's points, epsilon and gamma pass here."""

    context: MetricContext
    points: np.ndarray
    epsilon: float
    gamma: Optional[float] = None
    label: str = ""
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        name = self.label or "sample"
        self.points = _points_array(self.context, self.points, f"{name}: ")
        if not (_is_number(self.epsilon) and is_finite(self.epsilon)
                and self.epsilon > 0):
            raise MetricError(f"{name}: epsilon={self.epsilon!r} must be a "
                              "finite number above 0")
        if self.gamma is not None and not _is_number(self.gamma):
            raise MetricError(f"{name}: gamma={self.gamma!r} is not a number")
        # a negative gamma would loosen the strict bound (eps - gamma) / 2
        if self.gamma is not None and not (is_finite(self.gamma)
                                           and self.gamma >= 0):
            raise MetricError(f"{name}: gamma={self.gamma!r} must be finite "
                              "and at least 0")
        # compared after normalisation (angles mod 2 pi); distinct points are
        # at a positive distance, as the explicit matrix is 0 only on its
        # diagonal.  Sorted, equal rows are neighbours; == counts -0.0 equal
        # to 0.0, and a NaN equal to nothing
        if len(self.points) > 1:
            rows = self.points[np.lexsort(self.points.T)]
            if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
                raise MetricError("sample points must be pairwise distinct")
        if self.gamma is not None and self.gamma >= self.epsilon:
            self.warnings.append(
                f"gamma={self.gamma:.6g} is not below epsilon={self.epsilon:.6g}; "
                "sample is not certified as an epsilon-approximation"
            )

    def __len__(self) -> int:
        return len(self.points)

    def pairwise(self) -> np.ndarray:
        """The n x n distance matrix, computed on each call: the library
        reads distances from the points and never calls this."""
        return points_distance_matrix(self.context, self.points)


def ball_images(sample: MetricSample, centres, radius, tol: float = DEFAULT_TOL,
                closed: bool = False) -> list[frozenset]:
    """For each centre, the indices of the sample points in its ball.

    radius is one number, one value per centre, or None for each centre's
    distance to the sample; the closed ball of that radius is the centre's
    nearest-point set.  Centres are normalised like sample points (angles
    mod 2 pi), and membership is decided by `below`.
    """
    # a NaN radius fails every comparison, and an infinite one makes the
    # tolerance NaN: either would put no point in a ball
    if radius is not None and not np.all(np.isfinite(radius)
                                         & (np.asarray(radius) >= 0)):
        raise MetricError("radius must be finite and nonnegative")
    centres = _points_array(sample.context, centres)
    images = []
    for rows in row_blocks(len(centres), len(sample)):
        d = cross_distances(sample.context, centres[rows], sample.points)
        r = d.min(axis=1, keepdims=True) if radius is None \
            else np.broadcast_to(radius, len(centres))[rows, None]
        images.extend(frozenset(np.flatnonzero(row).tolist())
                      for row in below(d, r, tol, closed))
    return images


def ball_query(sample: MetricSample, x, radius: float, mode: str = "open",
               tol: float = DEFAULT_TOL) -> list[int]:
    """Indices of sample points within `radius` of x.

    Distances within relative tolerance of the radius are resolved by the
    mode flag: open excludes them, closed includes them.
    """
    if mode not in ("open", "closed"):
        raise MetricError(f"unknown ball mode {mode!r}")
    return sorted(ball_images(sample, [x], radius, tol, closed=mode == "closed")[0])


def hausdorff_distance(ctx: MetricContext, C: Sequence, D: Sequence) -> float:
    """max(sup_{c in C} d(c, D), sup_{d in D} d(d, C)) for finite sets, and
    inf when either is empty, so that it passes no bound."""
    C = _points_array(ctx, C)
    D = _points_array(ctx, D)
    if len(C) == 0 or len(D) == 0:
        return math.inf
    m = cross_distances(ctx, C, D)
    return float(max(m.min(axis=1).max(), m.min(axis=0).max()))


def coverage_radius(sample: MetricSample, segments) -> float:
    """sup over a union of segments of the distance to a Euclidean sample,
    rounded up to an upper bound.  The segments are one or more pairs of
    finite, distinct ends of the sample's dimension.

    On a segment a + t u (|u| = 1, 0 <= t <= L) the squared distance to a
    sample point p is the parabola (t - t_p)^2 + h_p^2.  One pass over the
    points sorted by t_p builds the parabolas' lower envelope (Felzenszwalb
    and Huttenlocher, "Distance transforms of sampled functions", 2012):
    pieces of [0, L], each nearest to one point.

    Rounding: the float breakpoints still rise from 0 to L, so every t lies
    in a piece, and as the squared distance to the piece's point is convex
    in t, it is at most the larger of its values at the piece's ends.  The
    largest end distance r thus bounds the supremum, and equals it when
    nothing rounds.  Each end distance takes a few float operations on
    coordinates at most R, the segments' largest, so it errs by well under
    2^-50 (r + R), and adding _SLACK (r + R) leaves an upper bound.
    """
    if sample.context.kind != "euclidean" or len(sample) == 0:
        raise MetricError("coverage radius needs a nonempty euclidean sample")
    dim = sample.context.dimension
    cells = np.array(segments, dtype=object)    # ragged pairs stay objects
    if cells.size == 0:
        raise MetricError("coverage radius needs at least one segment")
    if cells.shape[1:] != (2, dim):
        raise MetricError(f"segments are not pairs of ends of dimension {dim}")
    # the ends are checked as the points of a sample are
    segments = _points_array(sample.context, cells.reshape(-1, dim),
                             "segment ").reshape(-1, 2, dim)
    radius = 0.0
    for a, b in segments:
        length = float(np.linalg.norm(b - a))
        if length == 0:
            raise MetricError("segments must have a positive length")
        u = (b - a) / length
        t, c = (sample.points - a) @ u, ((sample.points - a) ** 2).sum(axis=1)
        order = np.lexsort((c, t))          # by t_p, the nearest first on ties
        order = order[np.r_[True, np.diff(t[order]) > 0]]
        ts, cs = t[order].tolist(), c[order].tolist()
        owners, starts = [], []
        for q in range(len(ts)):
            s = -math.inf
            while owners:
                # where parabola q drops below the last piece's, c = t^2 + h^2
                p = owners[-1]
                s = (cs[q] - cs[p]) / (2.0 * (ts[q] - ts[p]))
                if s > starts[-1]:
                    break
                del owners[-1], starts[-1]
            owners.append(q)
            starts.append(s)
        z = np.clip(starts + [math.inf], 0.0, length)
        piece = (z[1:] > 0) & (z[:-1] < length)
        near = sample.points[order[owners]][piece]
        for end in (z[:-1][piece], z[1:][piece]):
            radius = max(radius, float(np.linalg.norm(
                a + end[:, None] * u - near, axis=1).max()))
    return radius + _SLACK * (radius + float(np.abs(segments).max()))


# ---------------------------------------------------------------------------
# generators for the example spaces
# ---------------------------------------------------------------------------

def circle_sample(level: int) -> MetricSample:
    """Equispaced angles on the geodesic unit circle.

    Level 1 is the single point at angle 0 with epsilon = 3*pi; level n >= 2
    has 2^(3n-4) points with epsilon = pi / 2^(3n-5).  Gamma is exact
    (half the spacing; pi at level 1).
    """
    if level < 1:
        raise MetricError("level must be >= 1")
    ctx = circle_geodesic()
    if level == 1:
        return MetricSample(ctx, np.array([0.0]), epsilon=3 * math.pi,
                            gamma=math.pi, label="circle L1")
    count = 2 ** (3 * level - 4)
    angles = TWO_PI * np.arange(count) / count
    eps = math.pi / 2 ** (3 * level - 5)
    return MetricSample(ctx, angles, epsilon=eps, gamma=eps / 2,
                        label=f"circle L{level}")


def cantor_intervals(stage: int) -> list[tuple[Fraction, Fraction]]:
    """Closed intervals of the middle-thirds construction at the given stage."""
    ivals = [(Fraction(0), Fraction(1))]
    for _ in range(stage - 1):
        nxt = []
        for a, b in ivals:
            third = (b - a) / 3
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        ivals = nxt
    return ivals


def cantor_sample(level: int) -> MetricSample:
    """Endpoints of the middle-thirds stage level+1, epsilon = 1/2^(2(level-1)).

    Gamma is exact: the deepest point of each remaining interval sits at a
    third of its length from the nearest endpoint.
    """
    if level < 1:
        raise MetricError("level must be >= 1")
    pts = sorted({e for ab in cantor_intervals(level + 1) for e in ab})
    eps = 1.0 / 2 ** (2 * (level - 1))
    gamma = float(Fraction(1, 3 ** (level + 1)))
    return MetricSample(euclidean(1), np.array([float(p) for p in pts]),
                        epsilon=eps, gamma=gamma, label=f"cantor L{level}")


def interval_sample(level: int) -> MetricSample:
    """Uniform grid on [0,1]: the single point 0 at level 1, step 1/3^(2n-3) after."""
    if level < 1:
        raise MetricError("level must be >= 1")
    if level == 1:
        return MetricSample(euclidean(1), np.array([[0.0]]), epsilon=2.0,
                            gamma=1.0, label="interval L1")
    m = 3 ** (2 * level - 3)
    pts = np.arange(m + 1, dtype=float).reshape(-1, 1) / m
    eps = 1.0 / m
    return MetricSample(euclidean(1), pts, epsilon=eps, gamma=0.5 / m,
                        label=f"interval L{level}")


# the two-squares wire frame: five segments, total length 7
_TWO_SQUARES_SEGMENTS = [
    ((0.0, 0.0), (0.0, 2.0)),
    ((1.0, 0.0), (1.0, 2.0)),
    ((0.0, 0.0), (1.0, 0.0)),
    ((0.0, 1.0), (1.0, 1.0)),
    ((0.0, 2.0), (1.0, 2.0)),
]


def two_squares_points(count: int, seed: int) -> np.ndarray:
    """Seeded uniform draw on the two-squares wire frame, length-weighted."""
    rng = np.random.default_rng(seed)
    segs = np.array(_TWO_SQUARES_SEGMENTS)
    lengths = np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1)
    which = rng.choice(len(segs), size=count, p=lengths / lengths.sum())
    t = rng.random(count)
    return segs[which, 0] + t[:, None] * (segs[which, 1] - segs[which, 0])


def farthest_point_net(points: np.ndarray, separation: float) -> np.ndarray:
    """Greedy farthest-point subset: Euclidean separation-net of the points.

    Deterministic: starts from index 0, ties broken by lowest index.  The
    key of a point is its projection on (1, sqrt 2, .., sqrt d) / |.|, its
    coordinate in 1-D.  After a pick at distance rho, every distance to the
    picks is at most rho, so only the points whose key lies within rho of
    the pick's can come closer: one window of the sorted keys (Har-Peled
    and Mendel 2006).  Every distance and so every pick is the one a sweep
    over all points gives.
    """
    if not separation > 0:
        raise MetricError(f"separation={separation} must be positive")
    ctx = euclidean(points.shape[1])
    if len(points) == 0:
        return np.array([], dtype=int)
    key = _projection(points)
    order = np.argsort(key)
    pts, key = points[order], key[order]
    norm = float(np.linalg.norm(points, axis=1).max())
    chosen = [0]
    dist = cross_distances(ctx, points[:1], pts)[0]
    while True:
        j = int(dist.argmax())
        rho = float(dist[j])
        if rho < separation:
            break
        # argmax gives the first maximum in key order; a tie, looked for
        # only when a later maximum equals it, goes to the lowest index
        if dist[j + 1:].max(initial=0.0) == rho:
            ties = np.flatnonzero(dist[j:] == rho) + j
            j = int(ties[np.argmin(order[ties])])
        chosen.append(int(order[j]))
        # the slack keeps in every point a rounded distance, or a key that
        # errs by ulps of its point's norm, could bring closer
        at = float(key[j])
        reach = rho + _SLACK * (rho + norm)
        lo, hi = key.searchsorted(at - reach), key.searchsorted(at + reach)
        window = dist[lo:hi]
        np.minimum(window, cross_distances(ctx, pts[j:j + 1], pts[lo:hi])[0], out=window)
    return np.sort(chosen)


def two_squares_sample(level: int, count: int, seed: int) -> MetricSample:
    """Seeded uniform observations of the two-squares space at one level.

    epsilon_n = 1/2^(2(n-1)).  The draw is thinned to a farthest-point net
    at separation 0.75 * epsilon, which keeps the complexes at desk scale;
    gamma is the coverage radius over the frame's segments, an upper bound,
    and is checked like a given one.
    """
    if level < 1 or count < 1:
        raise MetricError("level and count must be >= 1")
    eps = 1.0 / 2 ** (2 * (level - 1))
    raw = two_squares_points(count, seed + level)
    pts = raw[farthest_point_net(raw, 0.75 * eps)]
    sample = MetricSample(euclidean(2), pts, epsilon=eps,
                          label=f"two_squares L{level} seed={seed}")
    return replace(sample, gamma=coverage_radius(sample, _TWO_SQUARES_SEGMENTS))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_points_csv(path) -> np.ndarray:
    """One point per line, decimal coordinates; '#' lines are comments."""
    rows = []
    try:
        # a byte that is not text reads as U+FFFD, a non-numeric coordinate
        with open(path, newline="", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(v) for v in line.replace(",", " ").split()])
                except ValueError:
                    raise MetricError(
                        f"non-numeric coordinate in {path}, line {lineno}") from None
    except OSError as exc:
        raise MetricError(f"cannot read {path}: {exc.strerror}") from None
    if not rows:
        raise MetricError(f"no points in {path}")
    return point_rows(rows, path)


def point_rows(rows: list, where) -> np.ndarray:
    """Points given as rows of coordinates, or as single numbers, as one
    array of rows: a single number is a point of one coordinate."""
    cells = np.array(rows, dtype=object)
    # rows of different lengths leave sequences among the cells
    if any(isinstance(v, (list, tuple)) for v in cells.ravel()):
        raise MetricError(f"inconsistent coordinate arity in {where}")
    # a third axis holds coordinates that are lists; a JSON null reads as
    # NaN, which is refused below as non-finite
    if cells.ndim > 2 or not all(v is None or _is_number(v)
                                 for v in cells.ravel()):
        raise MetricError(f"non-numeric coordinate in {where}")
    try:
        pts = np.array(rows, dtype=float)
    except OverflowError:               # an integer beyond the largest float
        raise MetricError(f"non-finite coordinate in {where}") from None
    if not np.isfinite(pts).all():
        raise MetricError(f"non-finite coordinate in {where}")
    return pts[:, None] if pts.ndim == 1 else pts


def save_points_csv(path, points: np.ndarray, header: str = "") -> None:
    """One point per line, each coordinate the shortest decimal that reads
    back as the same float."""
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        w = csv.writer(fh)
        for p in points:
            w.writerow([repr(float(v)) for v in p])


def load_matrix_csv(path) -> MetricContext:
    return explicit(load_points_csv(path))

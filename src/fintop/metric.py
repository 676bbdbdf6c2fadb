"""Metric contexts, point samples and generators for the example spaces.

A sample is a finite point set A together with a scale epsilon; when A is
within epsilon of every point of the model space it is an
epsilon-approximation.  The coverage radius gamma = sup_x d(x, A) controls
the strict schedule inequality used by the tower module.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: default relative tolerance for distance comparisons
DEFAULT_TOL = 1e-9

#: entries in one block of a distance sweep, which bounds its memory
BLOCK_ENTRIES = 2_000_000

#: relative widening of a search window against rounding; a point the window
#: keeps in needlessly costs time, never a result
_SLACK = 1e-9


class MetricError(ValueError):
    pass


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
    dimension: int = 0              # euclidean only
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "euclidean":
            if self.dimension < 1:
                raise MetricError("euclidean dimension must be positive")
        elif self.kind == "circle_geodesic":
            pass
        elif self.kind == "explicit":
            m = self.matrix
            if m is None:
                raise MetricError("explicit context needs a matrix")
            m = np.asarray(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise MetricError("explicit matrix must be square")
            if np.any(m < 0):
                raise MetricError("explicit matrix has negative entries")
            if np.any(np.abs(np.diag(m)) > 0):
                raise MetricError("explicit matrix diagonal must be zero")
            if np.count_nonzero(m == 0) > len(m):
                raise MetricError("explicit matrix is zero off the diagonal")
            if not np.allclose(m, m.T):
                raise MetricError("explicit matrix must be symmetric")
            n = m.shape[0]
            for k in range(n):
                via = m[:, [k]] + m[[k], :]
                if np.any(m > via + 1e-12):
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


def _points_array(ctx: MetricContext, points) -> np.ndarray:
    if ctx.kind == "euclidean":
        a = np.asarray(points, dtype=float)
        if a.ndim == 1:
            a = a.reshape(-1, ctx.dimension)
        if a.shape[1] != ctx.dimension:
            raise MetricError("dimension mismatch")
        return a
    if ctx.kind == "circle_geodesic":
        # np.mod rounds a tiny negative angle up to 2 pi itself
        a = np.mod(np.asarray(points, dtype=float), TWO_PI)
        return np.where(a < TWO_PI, a, 0.0)
    # indices into the matrix: an int cast would read -1 as the last point
    # and 0.5 as point 0
    values = np.asarray(points, dtype=object)
    n = len(ctx.matrix)
    for v in values.ravel():
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real) \
                or not (0 <= v < n and float(v).is_integer()):
            raise MetricError(f"explicit point index {v!r} is not an integer "
                              f"in 0..{n - 1}")
    return values.astype(int)


def cross_distances(ctx: MetricContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The len(A) x len(B) matrix of distances between two point arrays.

    Euclidean squares are summed one coordinate at a time into one
    len(A) x len(B) array, in coordinate order.  That is the order of
    numpy's reduction over a last axis shorter than 8, so up to dimension 7
    every distance is bitwise that of sqrt(((A - B) ** 2).sum(axis=-1)).
    Euclidean stacks of point arrays, (..., n, d) and (..., m, d), give
    the (..., n, m) stack of their matrices.
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
    if ctx.kind == "circle_geodesic":
        d = np.abs(np.ravel(A)[:, None] - np.ravel(B)[None, :]) % TWO_PI
        return np.minimum(d, TWO_PI - d)
    return ctx.matrix[np.ix_(np.ravel(A), np.ravel(B))]


def _distance_blocks(ctx: MetricContext, centres: np.ndarray, points: np.ndarray):
    """(rows, distances from centres[rows] to the points), in row blocks of
    at most BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // max(1, len(points)))
    for start in range(0, len(centres), step):
        rows = slice(start, start + step)
        yield rows, cross_distances(ctx, centres[rows], points)


def points_distance_matrix(ctx: MetricContext, points: np.ndarray) -> np.ndarray:
    """The n x n matrix of distances within one point array, filled one row
    block at a time, so the kernel's temporaries stay within a block."""
    out = np.empty((len(points), len(points)))
    for rows, d in _distance_blocks(ctx, points, points):
        out[rows] = d
    return out


@dataclass
class MetricSample:
    """A finite point set at scale epsilon, with optional coverage radius."""

    context: MetricContext
    points: np.ndarray
    epsilon: float
    gamma: Optional[float] = None
    gamma_exact: bool = False
    label: str = ""
    warnings: list = field(default_factory=list)
    _pairwise: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.points = _points_array(self.context, self.points)
        if self.epsilon <= 0:
            raise MetricError("epsilon must be positive")
        if self.gamma is not None and (isinstance(self.gamma, bool) or
                                       not isinstance(self.gamma, numbers.Real)):
            raise MetricError(f"{self.label or 'sample'}: "
                              f"gamma={self.gamma!r} is not a number")
        # compared after normalisation (angles mod 2 pi); distinct points are
        # at a positive distance, as the explicit matrix is 0 only on its
        # diagonal.  Sorted, equal rows are neighbours; == counts -0.0 equal
        # to 0.0, and a NaN equal to nothing
        n = len(self.points)
        if n > 1:
            rows = self.points.reshape(n, -1)
            rows = rows[np.lexsort(rows.T)]
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
        if self._pairwise is None:
            self._pairwise = points_distance_matrix(self.context, self.points)
        return self._pairwise


def ball_images(sample: MetricSample, centres, radius, tol: float = DEFAULT_TOL,
                closed: bool = False) -> list[frozenset]:
    """For each centre, the indices of the sample points in its ball.

    radius is one number, one value per centre, or None for each centre's
    distance to the sample; the closed ball of that radius is the centre's
    nearest-point set.  Centres are normalised like sample points (angles
    mod 2 pi), and membership is decided by `below`.
    """
    if radius is not None and np.any(np.asarray(radius) < 0):
        raise MetricError("radius must be nonnegative")
    centres = _points_array(sample.context, centres)
    images = []
    for rows, d in _distance_blocks(sample.context, centres, sample.points):
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


def coverage_radius(sample: MetricSample, reference=None) -> float:
    """sup over the reference points of the distance to the sample.

    Without a reference, returns the exact analytic gamma recorded by a
    generator; estimated gammas require a reference.  In a Euclidean
    context most reference points take their distance from the samples in
    the cells around them (`_cell_distances`); the rest, and every
    reference point of the other contexts, sweep all samples.
    """
    if reference is None or len(reference) == 0:
        if sample.gamma is not None and sample.gamma_exact:
            return sample.gamma
        raise MetricError("no reference points and no exact gamma available")
    ctx = sample.context
    ref = _points_array(ctx, reference)
    radius = -math.inf
    if ctx.kind == "euclidean":
        near = _cell_distances(sample, ref)
        found = ~np.isnan(near)
        radius = float(near[found].max(initial=radius))
        ref = ref[~found]
    return max([radius] + [float(d.min(axis=1).max())
                           for _, d in _distance_blocks(ctx, ref, sample.points)])


def _cell_distances(sample: MetricSample, ref: np.ndarray) -> np.ndarray:
    """Each Euclidean reference point's distance to the sample, or nan where
    the cells around it cannot settle that distance.

    The samples fall into cells of side epsilon and are sorted by cell key.
    A reference point gathers the samples of the 3^d cells around its own.
    When the nearest of them is closer than epsilon, less a margin for the
    rounding of the cell coordinates, every sample as near lies in those
    cells, so it is the nearest sample of all.  A cell outside the
    samples' range may share its key with a cell inside; that adds
    candidates and never drops one.
    """
    ctx, side = sample.context, sample.epsilon
    origin = sample.points.min(axis=0)
    cells = np.floor((sample.points - origin) / side)
    extent = cells.max(axis=0) + 1
    near = np.full(len(ref), np.nan)
    if np.prod(extent + 4) >= 2.0 ** 62:    # keys would overflow int64
        return near
    extent = extent.astype(np.int64)
    strides = np.concatenate(([1], np.cumprod(extent[:-1])))
    key = cells.astype(np.int64) @ strides
    order = np.argsort(key)
    key, pts = key[order], sample.points[order]
    # the most samples in one cell, which bounds the candidates of a cell
    crowd = np.max(np.searchsorted(key, key, "right") - np.arange(len(key)))
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=ctx.dimension)))
    settled = side - _SLACK * (side + np.ptp(pts, axis=0).max())
    step = max(1, BLOCK_ENTRIES // (len(offsets) * int(crowd)))
    for start in range(0, len(ref), step):
        r = ref[start:start + step]
        # clipped, so that the cells of far points fit int64 and lie outside
        home = np.clip(np.floor((r - origin) / side), -2, extent + 1).astype(np.int64)
        around_key = (home[:, None, :] + offsets) @ strides
        first = np.searchsorted(key, around_key, "left")
        count = (np.searchsorted(key, around_key, "right") - first).ravel()
        first = first.ravel()
        # one (reference row, sample) pair per candidate, row by row
        ends = np.cumsum(count)
        cand = np.arange(ends[-1]) + np.repeat(first - ends + count, count)
        total = count.reshape(len(r), -1).sum(axis=1)
        row = np.repeat(np.arange(len(r)), total)
        d = cross_distances(ctx, r[row, None], pts[cand, None])[:, 0, 0]
        best = np.full(len(r), np.inf)
        best[total > 0] = np.minimum.reduceat(d, (np.cumsum(total) - total)[total > 0])
        near[start:start + step] = np.where(best < settled, best, np.nan)
    return near


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
                            gamma=math.pi, gamma_exact=True, label="circle L1")
    count = 2 ** (3 * level - 4)
    angles = TWO_PI * np.arange(count) / count
    eps = math.pi / 2 ** (3 * level - 5)
    return MetricSample(ctx, angles, epsilon=eps, gamma=eps / 2,
                        gamma_exact=True, label=f"circle L{level}")


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
    return MetricSample(euclidean(1), np.array([float(p) for p in pts]).reshape(-1, 1),
                        epsilon=eps, gamma=gamma, gamma_exact=True,
                        label=f"cantor L{level}")


def interval_sample(level: int) -> MetricSample:
    """Uniform grid on [0,1]: the single point 0 at level 1, step 1/3^(2n-3) after."""
    if level < 1:
        raise MetricError("level must be >= 1")
    if level == 1:
        return MetricSample(euclidean(1), np.array([[0.0]]), epsilon=2.0,
                            gamma=1.0, gamma_exact=True, label="interval L1")
    m = 3 ** (2 * level - 3)
    pts = np.arange(m + 1, dtype=float).reshape(-1, 1) / m
    eps = 1.0 / m
    return MetricSample(euclidean(1), pts, epsilon=eps, gamma=0.5 / m,
                        gamma_exact=True, label=f"interval L{level}")


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


def two_squares_grid(step: float) -> np.ndarray:
    """Deterministic dense reference grid on the wire frame."""
    out = []
    for (a, b) in _TWO_SQUARES_SEGMENTS:
        a = np.array(a)
        b = np.array(b)
        n = max(2, int(math.ceil(np.linalg.norm(b - a) / step)) + 1)
        t = np.linspace(0.0, 1.0, n)
        out.append(a + t[:, None] * (b - a))
    return np.vstack(out)


def farthest_point_net(points: np.ndarray, separation: float) -> np.ndarray:
    """Greedy farthest-point subset: Euclidean separation-net of the points.

    Deterministic: starts from index 0, ties broken by lowest index.  The
    points are sorted along their widest coordinate.  After a pick at
    distance rho, every distance to the picks is at most rho, so only the
    points whose key lies within rho of the pick's can come closer: one
    window of the sorted keys (Har-Peled and Mendel 2006).  Every distance
    and so every pick is the one a sweep over all points gives.
    """
    if not separation > 0:
        raise MetricError(f"separation={separation} must be positive")
    ctx = euclidean(points.shape[1])
    if len(points) == 0:
        return np.array([], dtype=int)
    axis = np.argmax(np.ptp(points, axis=0))
    order = np.argsort(points[:, axis])
    pts = points[order]
    key = pts[:, axis]
    chosen = [0]
    dist = cross_distances(ctx, points[:1], pts)[0]
    while True:
        j = int(dist.argmax())
        rho = float(dist[j])
        if rho < separation:
            break
        # argmax gives the first maximum in key order; a tie goes to the
        # lowest index
        ties = np.flatnonzero(dist[j:] == rho)
        if len(ties) > 1:
            ties += j
            j = int(ties[np.argmin(order[ties])])
        chosen.append(int(order[j]))
        # the slack keeps in every point a rounded distance could bring closer
        at = float(key[j])
        reach = rho + _SLACK * (rho + abs(at))
        lo, hi = key.searchsorted(at - reach), key.searchsorted(at + reach)
        window = dist[lo:hi]
        np.minimum(window, cross_distances(ctx, pts[j:j + 1], pts[lo:hi])[0], out=window)
    return np.sort(chosen)


def two_squares_sample(level: int, count: int, seed: int) -> MetricSample:
    """Seeded uniform observations of the two-squares space at one level.

    epsilon_n = 1/2^(2(n-1)).  The draw is thinned to a farthest-point net
    at separation 0.75 * epsilon, which keeps the complexes at desk scale;
    gamma is estimated against a dense grid.
    """
    if level < 1 or count < 1:
        raise MetricError("level and count must be >= 1")
    eps = 1.0 / 2 ** (2 * (level - 1))
    raw = two_squares_points(count, seed + level)
    pts = raw[farthest_point_net(raw, 0.75 * eps)]
    sample = MetricSample(euclidean(2), pts, epsilon=eps,
                          label=f"two_squares L{level} seed={seed}")
    grid = two_squares_grid(min(eps / 8.0, 0.05))
    sample.gamma = coverage_radius(sample, grid)
    sample.gamma_exact = False
    if sample.gamma >= eps:
        sample.warnings.append(
            f"estimated gamma {sample.gamma:.6g} >= epsilon {eps:.6g}: "
            "count too small for an epsilon-approximation at this level"
        )
    return sample


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_points_csv(path) -> np.ndarray:
    """One point per line, decimal coordinates; '#' lines are comments."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(v) for v in line.replace(",", " ").split()])
            except ValueError:
                raise MetricError(
                    f"non-numeric coordinate in {path}, line {lineno}") from None
    if not rows:
        raise MetricError(f"no points in {path}")
    return point_rows(rows, path)


def point_rows(rows: list, where) -> np.ndarray:
    """Points given as rows of coordinates, or as single numbers, as one array."""
    if len({np.shape(r) for r in rows}) > 1:
        raise MetricError(f"inconsistent coordinate arity in {where}")
    # a JSON true would read as the number 1
    if any(isinstance(v, bool) for v in np.array(rows, dtype=object).ravel()):
        raise MetricError(f"non-numeric coordinate in {where}")
    try:
        pts = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise MetricError(f"non-numeric coordinate in {where}") from None
    if not np.isfinite(pts).all():
        raise MetricError(f"non-finite coordinate in {where}")
    return pts


def save_points_csv(path, points: np.ndarray, header: str = "") -> None:
    pts = np.asarray(points)
    if pts.ndim == 1:
        pts = pts[:, None]
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(f"# {header}\n")
        w = csv.writer(fh)
        for p in pts:
            w.writerow([f"{v:.12g}" for v in p])


def load_matrix_csv(path) -> MetricContext:
    return explicit(load_points_csv(path))

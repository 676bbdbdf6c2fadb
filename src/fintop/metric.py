"""Metric contexts, point samples and generators for the example spaces.

A sample is a finite point set A together with a scale epsilon; when A is
within epsilon of every point of the model space it is an
epsilon-approximation.  The coverage radius gamma = sup_x d(x, A) controls
the strict schedule inequality used by the tower module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: default relative tolerance for distance comparisons
DEFAULT_TOL = 1e-9

#: entries in one block of a distance sweep, which bounds its memory
BLOCK_ENTRIES = 2_000_000


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


def distance(ctx: MetricContext, p, q) -> float:
    """Distance between two points of the context."""
    if ctx.kind == "euclidean":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != (ctx.dimension,) or q.shape != (ctx.dimension,):
            raise MetricError("dimension mismatch")
        return float(np.linalg.norm(p - q))
    if ctx.kind == "circle_geodesic":
        a = float(np.asarray(p, dtype=float).ravel()[0])
        b = float(np.asarray(q, dtype=float).ravel()[0])
        d = abs(a - b) % TWO_PI
        return min(d, TWO_PI - d)
    # explicit
    n = ctx.matrix.shape[0]
    i, j = int(p), int(q)
    if not (0 <= i < n and 0 <= j < n):
        raise MetricError("index out of range for explicit matrix")
    return float(ctx.matrix[i, j])


def _points_array(ctx: MetricContext, points) -> np.ndarray:
    if ctx.kind == "euclidean":
        a = np.asarray(points, dtype=float)
        if a.ndim == 1:
            a = a.reshape(-1, ctx.dimension)
        if a.shape[1] != ctx.dimension:
            raise MetricError("dimension mismatch")
        return a
    if ctx.kind == "circle_geodesic":
        return np.mod(np.asarray(points, dtype=float), TWO_PI)
    return np.asarray(points, dtype=int)


def cross_distances(ctx: MetricContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The len(A) x len(B) matrix of distances between two point arrays."""
    if ctx.kind == "euclidean":
        diff = A[:, None, :] - B[None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))
    if ctx.kind == "circle_geodesic":
        d = np.abs(np.ravel(A)[:, None] - np.ravel(B)[None, :]) % TWO_PI
        return np.minimum(d, TWO_PI - d)
    return ctx.matrix[np.ix_(np.ravel(A), np.ravel(B))]


def points_distance_matrix(ctx: MetricContext, points: np.ndarray) -> np.ndarray:
    """The n x n matrix of distances within one point array."""
    return cross_distances(ctx, points, points)


def distances_from(ctx: MetricContext, points: np.ndarray, x) -> np.ndarray:
    """Distances from an external point x to each point of `points`."""
    return cross_distances(ctx, np.asarray([x]), points)[0]


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
        n = len(self.points)
        pw = self.pairwise()
        off = pw[~np.eye(n, dtype=bool)] if n > 1 else np.array([1.0])
        if n > 1 and off.min() <= 0:
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

    def point(self, i: int):
        return self.points[i]


def _distance_blocks(sample: MetricSample, centres: np.ndarray):
    """(rows, distances from centres[rows] to the sample), in row blocks of
    at most BLOCK_ENTRIES entries."""
    step = max(1, BLOCK_ENTRIES // max(1, len(sample)))
    for start in range(0, len(centres), step):
        rows = slice(start, start + step)
        yield rows, cross_distances(sample.context, centres[rows], sample.points)


def ball_images(sample: MetricSample, centres, radius, tol: float = DEFAULT_TOL,
                closed: bool = False) -> list[frozenset]:
    """For each centre, the indices of the sample points in its ball.

    radius is one number, one value per centre, or None for each centre's
    distance to the sample; the closed ball of that radius is the centre's
    nearest-point set.  Membership is decided by `below`.
    """
    if radius is not None and np.any(np.asarray(radius) < 0):
        raise MetricError("radius must be nonnegative")
    centres = np.asarray(centres)
    images = []
    for rows, d in _distance_blocks(sample, centres):
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
    """max(sup_{c in C} d(c, D), sup_{d in D} d(d, C)) for finite sets."""
    C = _points_array(ctx, C)
    D = _points_array(ctx, D)
    if len(C) == 0 or len(D) == 0:
        raise MetricError("hausdorff_distance needs nonempty sets")
    m = cross_distances(ctx, C, D)
    return float(max(m.min(axis=1).max(), m.min(axis=0).max()))


def coverage_radius(sample: MetricSample, reference=None) -> float:
    """sup over the reference points of the distance to the sample.

    Without a reference, returns the exact analytic gamma recorded by a
    generator; estimated gammas require a reference.
    """
    if reference is None or len(reference) == 0:
        if sample.gamma is not None and sample.gamma_exact:
            return sample.gamma
        raise MetricError("no reference points and no exact gamma available")
    ref = _points_array(sample.context, reference)
    return max(float(d.min(axis=1).max()) for _, d in _distance_blocks(sample, ref))


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


def farthest_point_net(points: np.ndarray, separation: float,
                       ctx: Optional[MetricContext] = None) -> np.ndarray:
    """Greedy farthest-point subset: separation-net of the input points.

    Deterministic: starts from index 0, ties broken by lowest index.
    """
    if ctx is None:
        ctx = euclidean(points.shape[1])
    n = len(points)
    if n == 0:
        return np.array([], dtype=int)
    chosen = [0]
    dist = distances_from(ctx, points, points[0])
    while True:
        i = int(np.argmax(dist))
        if dist[i] < separation:
            break
        chosen.append(i)
        dist = np.minimum(dist, distances_from(ctx, points, points[i]))
    return np.array(sorted(chosen), dtype=int)


def two_squares_sample(level: int, count: int, seed: int,
                       net_factor: float = 0.75) -> MetricSample:
    """Seeded uniform observations of the two-squares space at one level.

    epsilon_n = 1/2^(2(n-1)).  When net_factor > 0 the draw is thinned to a
    farthest-point net at separation net_factor * epsilon, which keeps the
    complexes at desk scale; gamma is estimated against a dense grid.
    """
    if level < 1 or count < 1:
        raise MetricError("level and count must be >= 1")
    eps = 1.0 / 2 ** (2 * (level - 1))
    raw = two_squares_points(count, seed + level)
    if net_factor > 0:
        keep = farthest_point_net(raw, net_factor * eps)
        pts = raw[keep]
    else:
        pts = np.unique(raw, axis=0)
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


def dense_reference(space: str, level: int, factor: int = 10) -> np.ndarray:
    """A reference sample of the model space around 10x denser than A_level."""
    if space == "circle":
        n = factor * max(4, 2 ** (3 * level - 4))
        return TWO_PI * np.arange(n) / n
    if space == "cantor":
        pts = sorted({e for ab in cantor_intervals(level + 4) for e in ab})
        return np.array([float(p) for p in pts]).reshape(-1, 1)
    if space == "interval":
        n = factor * (3 ** (2 * level - 3) if level > 1 else 3)
        return np.linspace(0.0, 1.0, n + 1).reshape(-1, 1)
    if space == "two_squares":
        eps = 1.0 / 2 ** (2 * (level - 1))
        return two_squares_grid(eps / factor)
    raise MetricError(f"unknown space {space!r}")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_points_csv(path, dimension: Optional[int] = None) -> np.ndarray:
    """One point per line, decimal coordinates; '#' lines are comments."""
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(v) for v in line.replace(",", " ").split()])
    if not rows:
        raise MetricError(f"no points in {path}")
    pts = point_rows(rows, path)
    if dimension is not None and pts.shape[1] != dimension:
        raise MetricError(f"expected dimension {dimension}, file has {pts.shape[1]}")
    return pts


def point_rows(rows: list, where) -> np.ndarray:
    """Points given as rows of coordinates, or as single numbers, as one array."""
    if len({np.shape(r) for r in rows}) > 1:
        raise MetricError(f"inconsistent coordinate arity in {where}")
    return np.array(rows, dtype=float)


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

"""Towers of finite spaces over a decreasing scale schedule.

Level n carries a finite sample A_n at scale eps_n.  The reverse-order term
at that level is the finite space of nonempty subsets of A_n of diameter
strictly below 4*eps_n, ordered by C <= D iff D is a subset of C; it is the
face poset of the Vietoris-Rips complex at threshold 4*eps_n.  The bonding
map from level n+1 down to level n sends C to the union over x in C of the
open eps_n-ball around x intersected with A_n.

The module also builds the nearest-point variant (subsets of diameter below
2*eps_n under inclusion, bonded by nearest-point sets) and the comparison
maps between the two, plus comparisons between two towers over the same
space.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metric as M
from .finite_space import FiniteSpace, face_poset
from .simplicial import (SimplicialComplex, SimplicialError, vertex_sets,
                         vietoris_rips)


class TowerError(ValueError):
    pass


class ConfigError(TowerError):
    """A setting or config value of the wrong type, shape or range."""


class ResourceCap(RuntimeError):
    pass


STRICT = "strict"
RELAXED = "relaxed"

#: hard ceiling on stored elements per level unless overridden
DEFAULT_MAX_ELEMENTS = 2_000_000


def validate_schedule(samples: list[M.MetricSample], mode: str,
                      tol: float = M.DEFAULT_TOL) -> list[str]:
    """Schedule inequalities between consecutive levels, and gamma below
    eps at every level, the last too; returns problems.

    Strict mode needs eps_{n+1} < (eps_n - gamma_n)/2 with gamma_n known;
    relaxed mode needs eps_{n+1} < eps_n / 2.
    """
    if mode not in (STRICT, RELAXED):
        raise ConfigError(f"unknown schedule mode {mode!r}")
    problems = []
    for n, sample in enumerate(samples):
        eps, gamma = sample.epsilon, sample.gamma
        nxt = samples[n + 1].epsilon if n + 1 < len(samples) else None
        if nxt is not None and mode == STRICT and gamma is None:
            problems.append(f"level {n + 1}: strict mode needs gamma")
        elif nxt is not None:
            bound = (eps - gamma) / 2 if mode == STRICT else eps / 2
            if not M.below(nxt, bound, tol):
                problems.append(f"level {n + 2}: eps={nxt:.6g} must be "
                                f"below {bound:.6g} ({mode} schedule)")
        if gamma is not None and gamma >= eps:
            problems.append(
                f"level {n + 1}: gamma={gamma:.6g} >= eps={eps:.6g}: "
                "not an epsilon-approximation")
    return problems


@dataclass
class Term:
    """One level: a sample and its Rips complex, whose simplices are the elements."""

    sample: M.MetricSample
    threshold_factor: float            # 4 for the reverse-order term, 2 for FAS
    complex: SimplicialComplex
    _space: Optional[FiniteSpace] = field(default=None, repr=False)

    @property
    def threshold(self) -> float:
        return self.threshold_factor * self.sample.epsilon

    def is_element(self, payload: frozenset, tol: float = M.DEFAULT_TOL) -> bool:
        """Diameter test, independent of the cardinality-capped enumeration."""
        return bool(payload) and bool(M.below(image_diameters(
            self.sample, [payload])[0], self.threshold, tol))

    def space(self) -> FiniteSpace:
        """Finite T0 space on the stored elements: the face poset of the
        complex, under inclusion for the nearest-point variant (threshold
        factor 2) and reversed (C <= D iff D subset C) for factor 4.
        """
        if self._space is None:
            space = face_poset(self.complex)
            self._space = space if self.threshold_factor == 2 \
                else space.opposite()
        return self._space


def build_term(sample: M.MetricSample, max_dim: int, threshold_factor: float = 4,
               tol: float = M.DEFAULT_TOL,
               max_elements: int = DEFAULT_MAX_ELEMENTS) -> Term:
    try:
        cx = vietoris_rips(sample, threshold_factor * sample.epsilon,
                           max_dim, tol, max_elements)
    except SimplicialError as exc:      # the clique cap
        raise ResourceCap(str(exc)) from exc
    return Term(sample=sample, threshold_factor=threshold_factor, complex=cx)


def check_degrees(max_dim: int, k_max: int) -> None:
    """H_k_max needs the stored (k_max+1)-simplices, or it is overcounted."""
    if k_max < 0:
        raise ConfigError(f"k_max={k_max} must be at least 0")
    if max_dim < k_max + 1:
        raise ConfigError(
            f"max_dim={max_dim} must be at least k_max + 1 = {k_max + 1}, "
            f"or H_{k_max} and the induced ranks in it are overcounted")


def check_tolerance(tol: float) -> None:
    """Distance ties within tol resolve by mode; tol < 0 would flip them."""
    if not (M.is_finite(tol) and tol >= 0):
        raise ConfigError(f"tolerance={tol} must be finite and at least 0")


@dataclass(frozen=True)
class BondingReport:
    well_defined: bool
    worst_diameter: float     # inf when an image is empty
    bound: float
    empty_images: int
    capped_images: int        # nonempty images that are not stored elements
    worst_element: int        # at level m: the first empty image, else the widest


def _image(table: list[frozenset], payload) -> frozenset:
    """The union of the vertex images table[v] over v in payload: how every
    map between levels acts on a payload."""
    acc: set = set()
    for v in payload:
        acc |= table[v]
    return frozenset(acc)


def _padded(payloads: list) -> np.ndarray:
    """Index payloads as the rows of one array, each padded to the widest
    payload's size with its first index; an empty payload's row is -1."""
    sizes = np.fromiter(map(len, payloads), dtype=np.intp, count=len(payloads))
    flat = np.fromiter(itertools.chain.from_iterable(payloads), dtype=np.intp,
                       count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    out = np.full((len(payloads), max(1, int(sizes.max(initial=0)))), -1,
                  dtype=np.intp)
    full = sizes > 0
    out[full] = flat[starts[full]][:, None]
    out[np.repeat(np.arange(len(payloads)), sizes),
        np.arange(len(flat)) - np.repeat(starts, sizes)] = flat
    return out


def _block_max(sample: M.MetricSample, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """The largest distance between the points a[i] and b[i] of the sample
    for each pair of index rows: `cross_distances` on the gathered point
    stacks, in blocks of at most BLOCK_ENTRIES distances."""
    out, pts = np.empty(len(a)), sample.points
    for rows in M.row_blocks(len(a), a.shape[1] * b.shape[1]):
        out[rows] = M.cross_distances(sample.context, pts[a[rows]],
                                      pts[b[rows]]).max(axis=(1, 2))
    return out


def image_diameters(sample: M.MetricSample, payloads: list) -> np.ndarray:
    """Diameters of nonempty index payloads of the sample.

    Each payload's indices are padded to the widest payload's size with its
    first index.  The padding only repeats pairs, each distance is bitwise
    the same in either order and 0 from a point to itself, so each maximum
    is bitwise the maximum over the pairs a < b of its payload (0.0 for a
    singleton).  The bonding reports measure only vertex images and pairs
    of them this way (`_map_report`).
    """
    idx = _padded(payloads)
    return _block_max(sample, idx, idx)


def _map_report(dst: Term, table: list[frozenset], src: SimplicialComplex,
                tol: float) -> BondingReport:
    """The element report at dst of the map with vertex table `table` on
    every simplex of src, read from vertex and edge tables: how every map
    between levels is checked, with no image built per simplex.

    An image q(C) is the union of the vertex images q({v}) over v in C, so
    it is empty when they all are, and every pair of its points lies in
    one q({u}) | q({v}) with u, v in C.  diam q(C) is therefore the largest
    diameter of the vertices and edges of C: per vertex that of its padded
    image, per edge the larger of its vertices' and the distances between
    their images, per higher simplex the largest of its faces' from the
    face table (`SimplicialComplex.faces`), which hold all its edges.
    Each maximum runs over the same distances as the image's own diameter,
    by the same kernel, so it is bitwise that value.

    The stored elements of dst are the cliques of at most dimension + 1
    vertices of the graph that the element test's tie rule (`metric.below`)
    draws, so a nonempty image is stored exactly when it is one point, or
    passes the test with at most that many points.  Image sizes are counted
    only where the vertex images' sizes add up to more.
    """
    sample, most = dst.sample, dst.complex.dimension + 1
    padded = _padded(table)
    sizes = np.fromiter(map(len, table), dtype=np.intp, count=len(table))
    void = sizes == 0
    idx = np.maximum(padded, 0)          # an empty image's entries are masked
    vertex = np.where(void, 0.0, _block_max(sample, idx, idx))
    a, b = src.rows(1).T
    edge = np.maximum(np.maximum(vertex[a], vertex[b]),
                      np.where(void[a] | void[b], 0.0,
                               _block_max(sample, idx[a], idx[b])))
    widths, empty, passed, capped = [], [], [], 0
    for d in range(src.dimension + 1):
        rows = src.rows(d)
        if d == 0:
            width = vertex[rows[:, 0]]
        elif d == 1:
            width = edge
        else:
            width = width[src.faces(d)].max(axis=1)
        hollow = void[rows].all(axis=1)
        wide = ~hollow & (width > 0)
        ok = M.below(width, dst.threshold, tol)
        capped += int(np.count_nonzero(wide & ~ok))
        unsure = rows[wide & ok & (sizes[rows].sum(axis=1) > most)]
        for blk in M.row_blocks(len(unsure), unsure.shape[1] * padded.shape[1]):
            images = padded[unsure[blk]].reshape(len(unsure[blk]), -1)
            capped += int(np.count_nonzero(
                vertex_sets(images)[1].sum(axis=1) > most))
        widths.append(width)
        empty.append(hollow)
        passed.append(ok)
    widths, empty = np.concatenate(widths), np.concatenate(empty)
    n_empty = int(np.count_nonzero(empty))
    return BondingReport(
        well_defined=not n_empty and bool(np.concatenate(passed).all()),
        worst_diameter=math.inf if n_empty else float(widths.max(initial=0.0)),
        bound=dst.threshold, empty_images=n_empty, capped_images=capped,
        worst_element=int(empty.argmax()) if n_empty
        else int(widths.argmax()) if widths.size else 0)


def _map_places(dst: SimplicialComplex, table: list[frozenset],
                src: SimplicialComplex) -> tuple:
    """Each simplex of src's image place among the stored simplices of
    dst, None when not stored, under the map with vertex table `table`.

    A simplex's image is the row of its vertices' padded images side by
    side, passed to `positions` with the other rows of its dimension and
    block, with no set or tuple per simplex.
    """
    padded = _padded(table)
    places = []
    for d in range(src.dimension + 1):
        rows = src.rows(d)
        places += [dst.positions(padded[rows[blk]].reshape(len(rows[blk]), -1))
                   for blk in M.row_blocks(len(rows), rows.shape[1] * padded.shape[1])]
    places = np.concatenate(places)
    out = places.tolist()
    for i in np.flatnonzero(places < 0).tolist():
        out[i] = None
    return tuple(out)


class Tower:
    """A finite tower of terms with composable bonding maps."""

    #: element diameters stay below threshold_factor * eps_n at level n
    threshold_factor = 4

    def __init__(self, samples: list[M.MetricSample], mode: str = STRICT,
                 max_dim: int = 3, k_max: int = 1, tol: float = M.DEFAULT_TOL,
                 max_elements: int = DEFAULT_MAX_ELEMENTS,
                 enforce_schedule: bool = True, label: str = ""):
        if not samples:
            raise TowerError("a tower needs at least one level")
        eps = [s.epsilon for s in samples]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise TowerError("epsilons must strictly decrease")
        check_degrees(max_dim, k_max)
        check_tolerance(tol)
        self.mode = mode
        self.max_dim = max_dim
        self.k_max = k_max
        self.max_elements = max_elements
        self.tol = tol
        self.label = label
        self.schedule_problems = validate_schedule(samples, mode, tol)
        if enforce_schedule and self.schedule_problems:
            raise TowerError("; ".join(self.schedule_problems))
        self.terms = [build_term(s, max_dim, self.threshold_factor, tol,
                                 max_elements)
                      for s in samples]
        # q_{n,m}({v}) for the vertices v of level m, per (n, m), filled lazily
        self._vertex_maps: dict[tuple[int, int], list[frozenset]] = {}
        # bonding reports and element places per (n, m), filled lazily: the
        # places only when bonding_element_map reads them
        self._reports: dict[tuple[int, int], BondingReport] = {}
        self._places: dict[tuple[int, int], tuple] = {}

    def __len__(self) -> int:
        return len(self.terms)

    def epsilon(self, n: int) -> float:
        return self.terms[n - 1].sample.epsilon

    def term(self, n: int) -> Term:
        """1-based level access, matching the schedule numbering."""
        return self.terms[n - 1]

    # -- bonding maps ------------------------------------------------------

    def _point_images(self, low: M.MetricSample, points) -> list[frozenset]:
        """One-step bonding images of points: their open eps_n-balls in low."""
        return M.ball_images(low, points, low.epsilon, self.tol)

    def _check_levels(self, n: int, m: int) -> None:
        if not 1 <= n <= m <= len(self):
            raise TowerError(f"bad bonding levels ({n}, {m})")

    def _vertex_images(self, n: int, m: int) -> list[frozenset]:
        """q_{n,m}({v}) for every vertex v of level m, computed once per (n, m).

        For m > n+1 the one-step images of level n are joined over the
        images q_{n+1,m}({v}): one union per vertex per step.
        """
        if (n, m) not in self._vertex_maps:
            if m == n:
                images = [frozenset((v,)) for v in range(len(self.term(m).sample))]
            elif m == n + 1:
                images = self._point_images(self.term(n).sample,
                                            self.term(m).sample.points)
            else:
                step = self._vertex_images(n, n + 1)
                images = [_image(step, img) for img in self._vertex_images(n + 1, m)]
            self._vertex_maps[(n, m)] = images
        return self._vertex_maps[(n, m)]

    def bond(self, n: int, m: int, payload: frozenset) -> frozenset:
        """q_{n,m}: payload at level m down to level n (n <= m).

        Every step down is a union over the payload's vertices, so
        q_{n,m}(C) is the union of the kept vertex images q_{n,m}({v}) over
        v in C, whatever m - n is.
        """
        self._check_levels(n, m)
        return _image(self._vertex_images(n, m), payload)

    def selection(self, n: int, m: int) -> dict[int, int]:
        """The vertex map s(v) = min q_{n,m}({v}) from level m to level n,
        read from the kept vertex images, which must all be nonempty."""
        self._check_levels(n, m)
        selection = {}
        for v, img in enumerate(self._vertex_images(n, m)):
            if not img:
                raise TowerError(f"selection from level {m} to level {n}: "
                                 f"vertex {v} of level {m} has an empty image")
            selection[v] = min(img)
        return selection

    def bonding_report(self, n: int, m: int) -> BondingReport:
        """The BondingReport of q_{n,m} on the stored elements of level m,
        computed once per (n, m) from the vertex and edge tables."""
        self._check_levels(n, m)
        if (n, m) not in self._reports:
            self._reports[(n, m)] = _map_report(
                self.term(n), self._vertex_images(n, m), self.term(m).complex,
                self.tol)
        return self._reports[(n, m)]

    def bonding_element_map(self, n: int, m: int) -> tuple[list[Optional[int]], BondingReport]:
        """Images of the stored elements of level m as indices at level n,
        with the bonding report.

        Entries are None when the image payload is not in the stored
        enumeration of level n (cardinality cap); the report counts them.
        The places are computed once per (n, m), when first read, and each
        call returns a fresh list.
        """
        report = self.bonding_report(n, m)
        if (n, m) not in self._places:
            self._places[(n, m)] = _map_places(
                self.term(n).complex, self._vertex_images(n, m),
                self.term(m).complex)
        return list(self._places[(n, m)]), report

    def verify_bondings(self) -> list[BondingReport]:
        """Well-definedness of every consecutive bonding map."""
        return [self.bonding_report(n, n + 1) for n in range(1, len(self))]

    # -- homotopy certificates ---------------------------------------------

    def projection_square_certificate(self, n: int) -> tuple[bool, float]:
        """One-step against two-step bonding from level n+2 down to n.

        bond composes one-step unions, so q_{n,n+1} o q_{n+1,n+2} equals
        q_{n,n+2} and their union map is q_{n,n+2} itself.  The certificate
        is therefore the diameter bound of bonding_report(n, n+2), the
        content of the factorization statement: (well defined, worst
        diameter), which is (False, inf) when an image is empty.
        """
        report = self.bonding_report(n, n + 2)
        return report.well_defined, report.worst_diameter


# ---------------------------------------------------------------------------
# nearest-point (inclusion-order) variant
# ---------------------------------------------------------------------------

def nearest_point_set(sample: M.MetricSample, x,
                      tol: float = M.DEFAULT_TOL) -> frozenset:
    """Indices of sample points realizing d(x, A) up to relative tolerance."""
    return M.ball_images(sample, [x], None, tol, closed=True)[0]


class NearestPointTower(Tower):
    """Terms U at threshold 2*eps under inclusion, nearest-point bondings."""

    threshold_factor = 2

    def _point_images(self, low: M.MetricSample, points) -> list[frozenset]:
        """One-step bonding images of points: their nearest-point sets in low."""
        return M.ball_images(low, points, None, self.tol, closed=True)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

@dataclass
class TwoTowerReport:
    """One level of the comparison map between towers over the same space."""
    level: int                 # n in the coarse tower
    matched_level: int         # I(n) in the fine tower
    well_defined: bool
    square_certified: bool
    worst_square_diameter: float
    bound: float


MATCH_RATIO = 16.0


def match_level(coarse: Tower, fine: Tower, n: int) -> int:
    """Least fine level l with eps_fine(l) < eps_coarse(n) / MATCH_RATIO; Tower
    makes both schedules strictly decrease, so l never decreases with n."""
    target = coarse.epsilon(n) / MATCH_RATIO
    for l in range(1, len(fine) + 1):
        if fine.epsilon(l) < target:
            return l
    raise TowerError(
        f"no level of the fine tower is below eps/{MATCH_RATIO:g} of level {n}")


def comparison_map(coarse: Tower, fine: Tower, n: int, l: int) -> list[frozenset]:
    """Vertex table of I_n: the open eps_n-balls in coarse level n of the
    points of fine level l."""
    low = coarse.term(n).sample
    return M.ball_images(low, fine.term(l).sample.points, low.epsilon, coarse.tol)


def two_tower_comparison(coarse: Tower, fine: Tower,
                         depth: int) -> list[TwoTowerReport]:
    """Level-matching maps between two towers and their square certificates.

    For each n the map I_n sends fine level I(n) into coarse level n.  The
    paths f = I_n o q_fine and g = q_coarse o I_{n+1} of the square below
    are homotopic when their union h, the map of the vertex table
    U[v] = f({v}) | g({v}), maps into coarse level n: then h <= f, h <= g.
    """
    levels = [match_level(coarse, fine, n) for n in range(1, depth + 1)]
    tables = [comparison_map(coarse, fine, n, l) for n, l in enumerate(levels, 1)]
    reports = []
    for n, l in enumerate(levels, start=1):
        dst, table = coarse.term(n), tables[n - 1]
        ok = _map_report(dst, table, fine.term(l).complex,
                         coarse.tol).well_defined
        square_ok, worst = True, 0.0
        if n < depth:
            l_next, step = levels[n], coarse._vertex_images(n, n + 1)
            union = [_image(table, a) | _image(step, b) for a, b in
                     zip(fine._vertex_images(l, l_next), tables[n])]
            rep = _map_report(dst, union, fine.term(l_next).complex,
                              coarse.tol)
            square_ok, worst = rep.well_defined, rep.worst_diameter
        reports.append(TwoTowerReport(level=n, matched_level=l,
                                      well_defined=ok, square_certified=square_ok,
                                      worst_square_diameter=worst,
                                      bound=dst.threshold))
    return reports


@dataclass
class VariantComparisonReport:
    """Consecutive-level comparison between the two order conventions."""
    level: int                          # source level m = level + 1 into level
    nearest_in_ball: bool               # p(C) subset q(C)
    gamma_in_nearest: bool              # g_n(i(C)) subset p(C)
    gamma_in_ball: bool                 # i(g_n(D)) subset q(D)  (corrected)
    literal_ball_in_gamma: bool         # q(D) subset i(g_n(D))  (printed claim)


def gamma_map(low: M.MetricSample, points,
              tol: float = M.DEFAULT_TOL) -> list[frozenset]:
    """Vertex table of g_n: the closed gamma_n-balls in low of the points."""
    if low.gamma is None:
        raise TowerError("gamma map needs a coverage radius at the lower level")
    return M.ball_images(low, points, low.gamma, tol, closed=True)


def variant_comparison(reverse: Tower, nearest: NearestPointTower,
                       n: int) -> VariantComparisonReport:
    """Compare bondings of the two variants from level n+1 down to n.

    Checks, for every stored element: the nearest-point image sits inside
    the open-ball image; the closed gamma-ball image refines the
    nearest-point image; and the gamma-ball image sits inside the open-ball
    image.  The reversed inclusion of the last pair is evaluated and
    reported but is not expected to hold.

    A map sends an element to the union of its vertices' images, and each
    vertex is a stored element, so an inclusion holds on every element
    exactly when it holds on every vertex of the samples the towers share.
    """
    reverse._check_levels(n, n + 1)
    p = nearest._vertex_images(n, n + 1)
    q = reverse._vertex_images(n, n + 1)
    pts_high = reverse.term(n + 1).sample.points
    g_p = gamma_map(nearest.term(n).sample, pts_high, nearest.tol)
    g_r = gamma_map(reverse.term(n).sample, pts_high, reverse.tol)
    within = frozenset.issubset
    return VariantComparisonReport(
        level=n, nearest_in_ball=all(map(within, p, q)),
        gamma_in_nearest=all(map(within, g_p, p)),
        gamma_in_ball=all(map(within, g_r, q)),
        literal_ball_in_gamma=all(map(within, q, g_r)))


# ---------------------------------------------------------------------------
# construction from named spaces and configs
# ---------------------------------------------------------------------------

GENERATORS = {
    "circle": M.circle_sample,
    "cantor": M.cantor_sample,
    "interval": M.interval_sample,
}


def space_samples(space: str, depth: int, seed: int = 7,
                  max_elements: int = DEFAULT_MAX_ELEMENTS
                  ) -> tuple[list[M.MetricSample], str]:
    """The samples of levels 1..depth of a named space and its default mode.

    The middle-thirds space needs the relaxed schedule from level 7 on, so
    it defaults to relaxed, as do the two-squares samples; the others
    default to strict.  Each point is a stored element: ResourceCap refuses
    the first level with more than max_elements before a deeper one is drawn.
    """
    if space not in GENERATORS and space != "two_squares":
        raise TowerError(f"unknown space {space!r}")
    samples = []
    for n in range(1, depth + 1):
        samples.append(M.two_squares_sample(n, 120 * 4 ** (n - 1), seed)
                       if space == "two_squares" else GENERATORS[space](n))
        if len(samples[-1]) > max_elements:
            raise ResourceCap(f"level {n} has {len(samples[-1])} points, above "
                              f"the cap of {max_elements} elements")
    return samples, RELAXED if space in ("cantor", "two_squares") else STRICT


def build_tower(space: str, depth: int, max_dim: int = 3, k_max: int = 1,
                mode: Optional[str] = None, seed: int = 7,
                max_elements: int = DEFAULT_MAX_ELEMENTS,
                tol: float = M.DEFAULT_TOL) -> Tower:
    """Tower over a named space, in its default mode unless one is given."""
    samples, default_mode = space_samples(space, depth, seed, max_elements)
    return Tower(samples, mode=default_mode if mode is None else mode,
                 max_dim=max_dim, k_max=k_max, tol=tol,
                 max_elements=max_elements, label=space)


def load_config(path) -> dict:
    """The JSON object in the file at path; tower_from_config checks it."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


#: numeric tower settings of a config, with their types and defaults
CONFIG_SETTINGS = {"max_dim": (int, 3), "k_max": (int, 1),
                   "tolerance": (float, M.DEFAULT_TOL),
                   "max_elements": (int, DEFAULT_MAX_ELEMENTS)}


def _config_number(table: dict, key: str, kind: Callable, default=None,
                  where: str = ""):
    """table[key] (default if absent) as kind; ConfigError names a value that
    is not a finite JSON number of that kind."""
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}{key}={value!r} is not a number")
    if not M.is_finite(value):
        raise ConfigError(f"{where}{key}={value!r} is not finite")
    if kind is int and value != int(value):
        raise ConfigError(f"{where}{key}={value!r} is not an integer")
    return kind(value)


def config_settings(cfg: dict) -> dict:
    """The CONFIG_SETTINGS of a config or of the given flags, defaults
    filled in.  ConfigError names a value that is not a number of its kind,
    an element cap below 1, and degrees or a tolerance that Tower refuses."""
    out = {key: _config_number(cfg, key, kind, default)
           for key, (kind, default) in CONFIG_SETTINGS.items()}
    if out["max_elements"] < 1:
        raise ConfigError(f"max_elements={out['max_elements']} must be at least 1")
    check_degrees(out["max_dim"], out["k_max"])
    check_tolerance(out["tolerance"])
    return out


def _known_keys(table: dict, known, where: str = "") -> None:
    """ConfigError names the first key of table that a tower does not read."""
    for key in table:
        if key not in known:
            raise ConfigError(f"{where}unknown key {key!r}")


def tower_from_config(cfg: dict, base_dir=".") -> Tower:
    """Tower from a config object; its file names are relative to base_dir.

    The one check of a config.  ConfigError names a value of the wrong
    type, shape or range; TowerError and MetricError name bad tower data.
    Levels are read in order, so an error names the first bad level.
    """
    _known_keys(cfg, {"mode", "levels", "context", "label", *CONFIG_SETTINGS})
    settings = config_settings(cfg)
    for key in ("mode", "levels"):
        if key not in cfg:
            raise ConfigError(f"config is missing {key!r}")
    if not isinstance(cfg["levels"], list):
        raise ConfigError(f"levels={cfg['levels']!r} is not a list")
    spec = cfg.get("context", {"kind": "euclidean"})
    if not isinstance(spec, dict):
        raise ConfigError(f"context={spec!r} is not an object")
    _known_keys(spec, ("kind", "matrix_file"), "context: ")
    if spec.get("kind") not in ("euclidean", "circle_geodesic", "explicit"):
        raise ConfigError(f"context={spec!r} needs a kind: euclidean, "
                          "circle_geodesic or explicit")
    # one context per config: a matrix is read once, and a euclidean
    # context takes its dimension from the first level
    ctx = None
    if spec["kind"] == "circle_geodesic":
        ctx = M.circle_geodesic()
    elif spec["kind"] == "explicit":
        if not isinstance(spec.get("matrix_file"), str):
            raise ConfigError(f"context={spec!r} needs a matrix_file")
        ctx = M.load_matrix_csv(os.path.join(base_dir, spec["matrix_file"]))
    samples = []
    for i, lvl in enumerate(cfg["levels"]):
        where = f"level {i + 1}: "
        if not isinstance(lvl, dict):
            raise ConfigError(f"{where}{lvl!r} is not an object")
        _known_keys(lvl, ("points", "points_file", "epsilon", "gamma"), where)
        if "points" in lvl and "points_file" in lvl:
            raise ConfigError(f"{where}give points or points_file, not both")
        if "points_file" in lvl:
            if not isinstance(lvl["points_file"], str):
                raise ConfigError(f"{where}points_file={lvl['points_file']!r} "
                                  "is not a string")
            pts = M.load_points_csv(os.path.join(base_dir, lvl["points_file"]))
        elif "points" in lvl:
            if not (isinstance(lvl["points"], list) and lvl["points"]):
                raise ConfigError(f"{where}points={lvl['points']!r} "
                                  "is not a non-empty list")
            pts = M.point_rows(lvl["points"], f"level {i + 1} points")
        else:
            raise TowerError(f"{where}needs points or points_file")
        if "epsilon" not in lvl:
            raise TowerError(f"{where}needs epsilon")
        eps = _config_number(lvl, "epsilon", float, where=where)
        if eps <= 0:
            raise ConfigError(f"{where}epsilon={lvl['epsilon']!r} must be above 0")
        ctx = ctx or M.euclidean(pts.shape[1])
        samples.append(M.MetricSample(ctx, pts, epsilon=eps,
                                      gamma=lvl.get("gamma"),
                                      label=f"level {i + 1}"))
    return Tower(samples, mode=cfg["mode"], max_dim=settings["max_dim"],
                 k_max=settings["k_max"], tol=settings["tolerance"],
                 max_elements=settings["max_elements"],
                 label=cfg.get("label", "config"))


def dump_tower(tower: Tower) -> dict:
    """Self-contained description: schedule, points, elements, bondings."""
    levels = []
    for n in range(1, len(tower) + 1):
        t = tower.term(n)
        entry = {
            "epsilon": t.sample.epsilon,
            "gamma": t.sample.gamma,
            "points": t.sample.points.tolist(),
            "elements": t.complex.all_simplices(),
        }
        if n > 1:
            assignment, report = tower.bonding_element_map(n - 1, n)
            entry["bonding_to_previous"] = assignment
            entry["bonding_well_defined"] = report.well_defined
            entry["bonding_capped_images"] = report.capped_images
        levels.append(entry)
    return {
        "mode": tower.mode,
        "max_dim": tower.max_dim,
        "k_max": tower.k_max,
        "threshold_factor": tower.threshold_factor,
        "label": tower.label,
        "levels": levels,
    }

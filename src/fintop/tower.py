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

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metric as M
from .finite_space import FiniteSpace
from .simplicial import SimplicialComplex, vietoris_rips


class TowerError(ValueError):
    pass


class ResourceCap(RuntimeError):
    pass


STRICT = "strict"
RELAXED = "relaxed"

#: hard ceiling on stored elements per level unless overridden
DEFAULT_MAX_ELEMENTS = 2_000_000


def validate_schedule(samples: list[M.MetricSample], mode: str,
                      tol: float = 1e-9) -> list[str]:
    """Schedule inequalities between consecutive levels; returns problems.

    Strict mode needs eps_{n+1} < (eps_n - gamma_n)/2 with gamma_n known;
    relaxed mode needs eps_{n+1} < eps_n / 2.
    """
    if mode not in (STRICT, RELAXED):
        raise TowerError(f"unknown schedule mode {mode!r}")
    problems = []
    for n in range(len(samples) - 1):
        eps, nxt = samples[n].epsilon, samples[n + 1].epsilon
        if mode == STRICT:
            gamma = samples[n].gamma
            if gamma is None:
                problems.append(f"level {n + 1}: strict mode needs gamma")
                continue
            bound = (eps - gamma) / 2
        else:
            bound = eps / 2
        if not M.below(nxt, bound, tol):
            problems.append(
                f"level {n + 2}: eps={nxt:.6g} must be below "
                f"{bound:.6g} ({mode} schedule)")
        g = samples[n].gamma
        if g is not None and g >= eps:
            problems.append(
                f"level {n + 1}: gamma={g:.6g} >= eps={eps:.6g}: "
                "not an epsilon-approximation")
    return problems


@dataclass
class Term:
    """One level: the sample, its Rips complex and the finite-space term."""

    sample: M.MetricSample
    threshold_factor: float            # 4 for the reverse-order term, 2 for FAS
    complex: SimplicialComplex
    elements: list[frozenset]          # stored enumeration, |C| <= max_dim+1
    index: dict = field(default_factory=dict)
    _space: Optional[FiniteSpace] = field(default=None, repr=False)

    @property
    def threshold(self) -> float:
        return self.threshold_factor * self.sample.epsilon

    def diameter(self, payload: frozenset) -> float:
        pw = self.sample.pairwise()
        pts = sorted(payload)
        return max((pw[a][b] for i, a in enumerate(pts) for b in pts[i + 1:]),
                   default=0.0)

    def is_element(self, payload: frozenset, tol: float = 1e-9) -> bool:
        """Diameter test, independent of the cardinality-capped enumeration."""
        return bool(payload) and M.below(self.diameter(payload),
                                         self.threshold, tol)

    def space(self) -> FiniteSpace:
        """Finite T0 space on the stored elements.

        Reverse inclusion (C <= D iff D subset C) for threshold factor 4,
        inclusion for the nearest-point variant.
        """
        if self._space is None:
            if self.threshold_factor == 2:
                leq = lambda c, d: c < d
            else:
                leq = lambda c, d: d < c
            self._space = FiniteSpace(self.elements, leq=leq)
        return self._space


def build_term(sample: M.MetricSample, max_dim: int, threshold_factor: float = 4,
               tol: float = 1e-9,
               max_elements: int = DEFAULT_MAX_ELEMENTS) -> Term:
    try:
        cx = vietoris_rips(sample.pairwise(), threshold_factor * sample.epsilon,
                           max_dim=max_dim, tol=tol,
                           max_simplices=max_elements)
    except Exception as exc:
        raise ResourceCap(str(exc)) from exc
    elements = [frozenset(s) for s in cx.all_simplices()]
    term = Term(sample=sample, threshold_factor=threshold_factor, complex=cx,
                elements=elements)
    term.index = {e: i for i, e in enumerate(elements)}
    return term


def check_degrees(max_dim: int, k_max: int) -> None:
    """H_k_max needs the stored (k_max+1)-simplices, or it is overcounted."""
    if k_max < 0:
        raise TowerError(f"k_max={k_max} must be at least 0")
    if max_dim < k_max + 1:
        raise TowerError(
            f"max_dim={max_dim} must be at least k_max + 1 = {k_max + 1}, "
            f"or H_{k_max} and the induced ranks in it are overcounted")


def check_tolerance(tol: float) -> None:
    """Distance ties within tol resolve by mode; tol < 0 would flip them."""
    if not (math.isfinite(tol) and tol >= 0):
        raise TowerError(f"tolerance={tol} must be finite and at least 0")


@dataclass
class BondingReport:
    well_defined: bool
    worst_diameter: float
    bound: float
    empty_images: int
    capped_images: int        # images outside the stored enumeration


def _union(images) -> frozenset:
    """The union of image sets: how every map between levels acts on a payload."""
    acc: set = set()
    for img in images:
        acc |= img
    return frozenset(acc)


class Tower:
    """A finite tower of terms with composable bonding maps."""

    def __init__(self, samples: list[M.MetricSample], mode: str = STRICT,
                 max_dim: int = 3, k_max: int = 1, tol: float = 1e-9,
                 threshold_factor: float = 4,
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
        self.threshold_factor = threshold_factor
        self.label = label
        self.schedule_problems = validate_schedule(samples, mode, tol)
        if enforce_schedule and self.schedule_problems:
            raise TowerError("; ".join(self.schedule_problems))
        self.terms = [build_term(s, max_dim, threshold_factor, tol, max_elements)
                      for s in samples]
        # vertex images of the bondings from level n+1 to n, filled lazily
        self._vertex_maps: dict[int, list[frozenset]] = {}

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def samples(self) -> list[M.MetricSample]:
        return [t.sample for t in self.terms]

    def epsilon(self, n: int) -> float:
        return self.terms[n - 1].sample.epsilon

    def term(self, n: int) -> Term:
        """1-based level access, matching the schedule numbering."""
        return self.terms[n - 1]

    # -- bonding maps ------------------------------------------------------

    def _point_images(self, low: M.MetricSample, points) -> list[frozenset]:
        """One-step bonding images of points: their open eps_n-balls in low."""
        return M.ball_images(low, points, low.epsilon, self.tol)

    def _vertex_images(self, n: int) -> list[frozenset]:
        """Images under the one-step bonding of the singletons of level n+1."""
        if n not in self._vertex_maps:
            self._vertex_maps[n] = self._point_images(
                self.term(n).sample, self.term(n + 1).sample.points)
        return self._vertex_maps[n]

    def bond(self, n: int, m: int, payload: frozenset) -> frozenset:
        """q_{n,m}: payload at level m down to level n (n <= m)."""
        if not 1 <= n <= m <= len(self):
            raise TowerError(f"bad bonding levels ({n}, {m})")
        current = payload
        for level in range(m - 1, n - 1, -1):
            images = self._vertex_images(level)
            current = _union(images[v] for v in current)
            if not current:
                break
        return current

    def bonding_element_map(self, n: int, m: int) -> tuple[list[Optional[int]], BondingReport]:
        """Images of the stored elements of level m as indices at level n.

        Entries are None when the image payload is not in the stored
        enumeration of level n (cardinality cap); the report counts them.
        """
        src = self.term(m)
        dst = self.term(n)
        out: list[Optional[int]] = []
        worst = 0.0
        empty = capped = 0
        ok = True
        for payload in src.elements:
            img = self.bond(n, m, payload)
            if not img:
                empty += 1
                ok = False
                out.append(None)
                continue
            d = dst.diameter(img)
            worst = max(worst, d)
            if not M.below(d, dst.threshold, self.tol):
                ok = False
            idx = dst.index.get(img)
            if idx is None:
                capped += 1
            out.append(idx)
        report = BondingReport(well_defined=ok, worst_diameter=worst,
                               bound=dst.threshold, empty_images=empty,
                               capped_images=capped)
        return out, report

    def verify_bondings(self) -> list[BondingReport]:
        """Well-definedness of every consecutive bonding map."""
        return [self.bonding_element_map(n, n + 1)[1]
                for n in range(1, len(self))]

    # -- homotopy certificates ---------------------------------------------

    def union_homotopy_certificate(self, n: int, source: list[frozenset],
                                   f: Callable[[frozenset], frozenset],
                                   g: Callable[[frozenset], frozenset]
                                   ) -> tuple[bool, float]:
        """Certify f ~ g into level n through the union map h = f v g.

        h is automatically order preserving; it is a genuine map into the
        term when every union stays below the diameter bound.  Then
        h <= f and h <= g pointwise in reverse-inclusion order, so f and g
        are homotopic.  Returns (ok, worst diameter seen).
        """
        term = self.term(n)
        worst = 0.0
        ok = True
        for c in source:
            u = f(c) | g(c)
            if not u:
                return False, float("inf")
            d = term.diameter(u)
            worst = max(worst, d)
            if not M.below(d, term.threshold, self.tol):
                ok = False
        return ok, worst

    def projection_square_certificate(self, n: int) -> tuple[bool, float]:
        """One-step against two-step bonding from level n+2 down to n.

        The composite q_{n,n+1} o q_{n+1,n+2} equals q_{n,n+2} by
        construction here, so the certificate is the union-map bound for
        the pair, which is the content of the factorization statement.
        """
        if n + 2 > len(self):
            raise TowerError("need two levels above n")
        src = self.term(n + 2).elements
        return self.union_homotopy_certificate(
            n, src,
            lambda c: self.bond(n, n + 2, c),
            lambda c: self.bond(n, n + 1, self.bond(n + 1, n + 2, c)))


# ---------------------------------------------------------------------------
# nearest-point (inclusion-order) variant
# ---------------------------------------------------------------------------

def nearest_point_set(sample: M.MetricSample, x, tol: float = 1e-9) -> frozenset:
    """Indices of sample points realizing d(x, A) up to relative tolerance."""
    return M.ball_images(sample, [x], None, tol, closed=True)[0]


class NearestPointTower(Tower):
    """Terms U at threshold 2*eps under inclusion, nearest-point bondings."""

    def __init__(self, samples: list[M.MetricSample], **kw):
        kw.setdefault("threshold_factor", 2)
        super().__init__(samples, **kw)

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


def match_level(coarse: Tower, fine: Tower, n: int, constant: float = 16.0) -> int:
    """Least fine level l with eps_fine(l) < eps_coarse(n) / constant."""
    target = coarse.epsilon(n) / constant
    for l in range(1, len(fine) + 1):
        if fine.epsilon(l) < target:
            return l
    raise TowerError(
        f"no level of the fine tower is below eps/{constant:g} of level {n}")


def comparison_map(coarse: Tower, fine: Tower, n: int, l: int,
                   payload: frozenset) -> frozenset:
    """Send a payload of fine level l into coarse level n by open eps_n-balls."""
    low = coarse.term(n).sample
    pts = fine.term(l).sample.points[list(payload)]
    return _union(M.ball_images(low, pts, low.epsilon, coarse.tol))


def two_tower_comparison(coarse: Tower, fine: Tower, depth: int,
                         constant: float = 16.0) -> list[TwoTowerReport]:
    """Level-matching maps between two towers and their square certificates.

    For each n the map I_n sends fine level I(n) into coarse level n; the
    square against the bondings is certified homotopy-commuting via the
    union-map diameter bound at level n.
    """
    reports = []
    for n in range(1, depth + 1):
        l = match_level(coarse, fine, n, constant)
        dst = coarse.term(n)
        ok = all(dst.is_element(comparison_map(coarse, fine, n, l, c), coarse.tol)
                 for c in fine.term(l).elements)
        square_ok, worst = True, 0.0
        if n < depth:
            l_next = match_level(coarse, fine, n + 1, constant)
            if l_next < l:
                raise TowerError("matched levels must be nondecreasing")
            src = fine.term(l_next).elements
            square_ok, worst = coarse.union_homotopy_certificate(
                n, src,
                lambda c: comparison_map(coarse, fine, n, l,
                                         fine.bond(l, l_next, c)),
                lambda c: coarse.bond(n, n + 1,
                                      comparison_map(coarse, fine, n + 1, l_next, c)))
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


def gamma_map(low: M.MetricSample, points, payload: frozenset,
              tol: float = 1e-9) -> frozenset:
    """Union of closed gamma_n-balls around the payload, at the lower level."""
    if low.gamma is None:
        raise TowerError("gamma map needs a coverage radius at the lower level")
    pts = np.asarray(points)[list(payload)]
    return _union(M.ball_images(low, pts, low.gamma, tol, closed=True))


def variant_comparison(reverse: Tower, nearest: NearestPointTower,
                       n: int) -> VariantComparisonReport:
    """Compare bondings of the two variants from level n+1 down to n.

    Checks, for every stored element: the nearest-point image sits inside
    the open-ball image; the closed gamma-ball image refines the
    nearest-point image; and the gamma-ball image sits inside the open-ball
    image.  The reversed inclusion of the last pair is evaluated and
    reported but is not expected to hold.
    """
    low_r = reverse.term(n).sample
    low_p = nearest.term(n).sample
    pts_high = reverse.term(n + 1).sample.points
    nearest_in_ball = gamma_in_nearest = gamma_in_ball = True
    literal = True
    for c in nearest.term(n + 1).elements:
        p_img = nearest.bond(n, n + 1, c)
        q_img = reverse.bond(n, n + 1, c)
        g_img = gamma_map(low_p, pts_high, c, nearest.tol)
        nearest_in_ball &= p_img <= q_img
        gamma_in_nearest &= g_img <= p_img
    for d in reverse.term(n + 1).elements:
        q_img = reverse.bond(n, n + 1, d)
        g_img = gamma_map(low_r, pts_high, d, reverse.tol)
        gamma_in_ball &= g_img <= q_img
        literal &= q_img <= g_img
    return VariantComparisonReport(level=n, nearest_in_ball=nearest_in_ball,
                                   gamma_in_nearest=gamma_in_nearest,
                                   gamma_in_ball=gamma_in_ball,
                                   literal_ball_in_gamma=literal)


# ---------------------------------------------------------------------------
# construction from named spaces and configs
# ---------------------------------------------------------------------------

GENERATORS = {
    "circle": M.circle_sample,
    "cantor": M.cantor_sample,
    "interval": M.interval_sample,
}


def space_samples(space: str, depth: int,
                  seed: int = 7) -> tuple[list[M.MetricSample], str]:
    """The samples of levels 1..depth of a named space and its default mode.

    The middle-thirds space needs the relaxed schedule from level 7 on, so
    it defaults to relaxed, as do the two-squares samples; the others
    default to strict.
    """
    if space in GENERATORS:
        samples = [GENERATORS[space](n) for n in range(1, depth + 1)]
        return samples, RELAXED if space == "cantor" else STRICT
    if space == "two_squares":
        return [M.two_squares_sample(n, 120 * 4 ** (n - 1), seed)
                for n in range(1, depth + 1)], RELAXED
    raise TowerError(f"unknown space {space!r}")


def build_tower(space: str, depth: int, max_dim: int = 3, k_max: int = 1,
                mode: Optional[str] = None, seed: int = 7,
                max_elements: int = DEFAULT_MAX_ELEMENTS,
                tol: float = 1e-9) -> Tower:
    """Tower over a named space, in its default mode unless one is given."""
    samples, default_mode = space_samples(space, depth, seed)
    return Tower(samples, mode=default_mode if mode is None else mode,
                 max_dim=max_dim, k_max=k_max, tol=tol,
                 max_elements=max_elements, label=space)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise TowerError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise TowerError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise TowerError(f"config {path} must be a JSON object")
    for key in ("mode", "levels"):
        if key not in cfg:
            raise TowerError(f"config is missing {key!r}")
    return cfg


#: numeric tower settings of a config, with their types and defaults
CONFIG_SETTINGS = {"max_dim": (int, 3), "k_max": (int, 1),
                   "tolerance": (float, 1e-9),
                   "max_elements": (int, DEFAULT_MAX_ELEMENTS)}


def _config_number(table: dict, key: str, kind: Callable, default=None,
                  where: str = ""):
    """table[key] (default if absent) as kind; TowerError names a bad value."""
    value = table.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise TowerError(f"{where}{key}={value!r} is not a number") from None
    if kind is int and isinstance(value, float) and number != value:
        raise TowerError(f"{where}{key}={value!r} is not an integer")
    return number


def config_settings(cfg: dict) -> dict:
    """The numbers of a config: the CONFIG_SETTINGS, defaults filled in, and
    "epsilon", each level's value or None where the level gives none."""
    out = {key: _config_number(cfg, key, kind, default)
           for key, (kind, default) in CONFIG_SETTINGS.items()}
    out["epsilon"] = [_config_number(lvl, "epsilon", float, where=f"level {i + 1}: ")
                      if "epsilon" in lvl else None
                      for i, lvl in enumerate(cfg.get("levels", []))]
    return out


def _config_context(cfg: dict, pts: np.ndarray, base_dir) -> M.MetricContext:
    spec = cfg.get("context")
    if spec is None or spec.get("kind") == "euclidean":
        return M.euclidean(pts.shape[1] if pts.ndim > 1 else 1)
    if spec["kind"] == "circle_geodesic":
        return M.circle_geodesic()
    if spec["kind"] == "explicit":
        return M.load_matrix_csv(os.path.join(base_dir, spec["matrix_file"]))
    raise TowerError(f"unknown context kind {spec.get('kind')!r}")


def tower_from_config(cfg: dict, base_dir=".") -> Tower:
    """Tower from a config; its file names are relative to base_dir."""
    settings = config_settings(cfg)
    samples = []
    for i, lvl in enumerate(cfg["levels"]):
        eps = settings["epsilon"][i]
        if "generator" in lvl:
            name, n = lvl["generator"], lvl.get("level", i + 1)
            if name not in GENERATORS:
                raise TowerError(f"unknown generator {name!r}")
            s = GENERATORS[name](n)
            if eps is not None and not np.isclose(eps, s.epsilon):
                raise TowerError(
                    f"level {i + 1}: epsilon {lvl['epsilon']} does not match "
                    f"the generator value {s.epsilon}")
        elif "points_file" in lvl or "points" in lvl:
            if eps is None:
                raise TowerError(f"level {i + 1}: needs epsilon")
            if "points_file" in lvl:
                pts = M.load_points_csv(os.path.join(base_dir, lvl["points_file"]))
            else:
                pts = M.point_rows(lvl["points"], f"level {i + 1} points")
            ctx = _config_context(cfg, pts, base_dir)
            if ctx.kind == "circle_geodesic":
                pts = pts.ravel()
            s = M.MetricSample(ctx, pts, epsilon=eps,
                               gamma=lvl.get("gamma"),
                               gamma_exact=bool(lvl.get("gamma_exact", False)))
        else:
            raise TowerError(f"level {i + 1}: needs generator, points or points_file")
        samples.append(s)
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
            "points": np.atleast_2d(t.sample.points).tolist(),
            "elements": [sorted(e) for e in t.elements],
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

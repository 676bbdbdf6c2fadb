"""Plain reference computations that only the tests use."""

import math
from itertools import combinations

import numpy as np

from fintop import homology as H
from fintop import linalg as L
from fintop import metric as M
from fintop import simplicial as S
from fintop import tower as T


def euler_characteristic(cx: S.SimplicialComplex) -> int:
    return sum((-1) ** d * n for d, n in enumerate(cx.f_vector()))


def maximal_simplices(cx: S.SimplicialComplex) -> list[tuple]:
    """Simplices of cx not contained in any larger simplex."""
    maximal = []
    for d in range(cx.dimension, -1, -1):
        for s in cx.simplices(d):
            sv = set(s)
            if not any(sv < set(m) for m in maximal):
                maximal.append(s)
    return maximal


def distances_from(ctx: M.MetricContext, points: np.ndarray, x) -> np.ndarray:
    """Distances from an external point x to each point of `points`."""
    return M.cross_distances(ctx, M._points_array(ctx, [x]), points)[0]


def induced_map_rank_three_ranks(boundary_y_k1: list, chain_map_k: list,
                                 boundary_x_k: list, rows_y_k: int,
                                 p=None) -> int:
    """rank H_k(f) over GF(p), or Q for p None, by the block identity
        rank [[dY_{k+1}, F_k], [0, dX_k]] = rank dY_{k+1} + rank dX_k + rank H_k(f),
    with the three ranks taken separately."""
    def rank(cols):
        return L.rank_q(cols) if p is None else L.rank_gfp(cols, p)

    block = [dict(c) for c in boundary_y_k1]
    for f_col, dx_col in zip(chain_map_k, boundary_x_k):
        block.append({**f_col, **{rows_y_k + r: v for r, v in dx_col.items()}})
    return rank(block) - rank(boundary_y_k1) - rank(boundary_x_k)


def _places(cx: S.SimplicialComplex) -> dict:
    """The tuple -> place dict of all_simplices()."""
    return {s: i for i, s in enumerate(cx.all_simplices())}


def boundary_columns(cx: S.SimplicialComplex, dim: int) -> list[dict]:
    """boundary_sparse(dim), one face lookup per face in a tuple dict."""
    if dim <= 0:
        return [{} for _ in cx.simplices(dim)]
    ix, start = _places(cx), sum(cx.f_vector()[:dim - 1])
    return [{ix[s[:i] + s[i + 1:]] - start: (-1) ** i for i in range(len(s))}
            for s in cx.simplices(dim)]


def coboundary_sparse(cx: S.SimplicialComplex, dim: int) -> list[dict]:
    """Coboundary C^dim -> C^{dim+1}, the transpose of the boundary of
    dim + 1, as sparse columns with both simplex orders reversed: the
    reference for the columns of `homology._pairs`.

    Column j is the dim-simplex n_dim - 1 - j, and row i is the
    (dim+1)-simplex n_{dim+1} - 1 - i: the face table of dim + 1 read
    by faces, each column's entries in the order of their cofaces.
    """
    n, m = len(cx.simplices(dim)), len(cx.simplices(dim + 1))
    out: list[dict] = [{} for _ in range(n)]
    if not (n and m):
        return out
    cols = (n - 1 - cx.faces(dim + 1)).ravel().tolist()
    rows = np.repeat(np.arange(m - 1, -1, -1), dim + 2).tolist()
    signs = [(-1) ** i for i in range(dim + 2)] * m
    for j, i, sign in zip(cols, rows, signs):
        out[j][i] = sign
    return out


def cleared_pairs(cx: S.SimplicialComplex, k: int, p=None) -> tuple[list, ...]:
    """The record (up, down, cleared, torsion) of `homology._pairs` from
    every kept column of `coboundary_sparse`, reduced by `linalg.pivot_pairs`
    mod p or `linalg.smith_pivots` over Z, with no elder rule, apparent
    pair or seeded pivot."""
    def flags(size, reversed_places):
        mask = np.zeros(size, dtype=bool)
        mask[[size - 1 - i for i in reversed_places]] = True
        return mask

    no_vertex = flags(len(cx.simplices(0)), ())
    up, down, cleared, torsion = [], [no_vertex], [no_vertex], []
    for d in range(k + 1):
        n, m = len(cx.simplices(d)), len(cx.simplices(d + 1))
        kept = np.flatnonzero(~cleared[d][::-1]).tolist()
        cols = coboundary_sparse(cx, d)
        cols = [cols[j] for j in kept]
        if p is None:
            invariants, pairs, unit_lows = L.smith_pivots(cols)
            torsion.append([v for v in invariants if v > 1])
        else:
            pairs = L.pivot_pairs(cols, p)
            unit_lows = pairs.values()
            torsion.append([])
        up.append(flags(n, [kept[j] for j in pairs]))
        down.append(flags(m, pairs.values()))
        cleared.append(flags(m, unit_lows))
    return up, down, cleared, torsion


def coboundary_columns(cx: S.SimplicialComplex, dim: int) -> list[dict]:
    """`coboundary_sparse`, one face lookup per face in a tuple dict, with
    both simplex orders reversed."""
    n, cofaces = len(cx.simplices(dim)), cx.simplices(dim + 1)
    out: list[dict] = [{} for _ in range(n)]
    ix, top = _places(cx), len(cofaces) - 1
    last = sum(cx.f_vector()[:dim]) + n - 1
    for q, s in enumerate(cofaces):
        # combinations drops the vertices last to first
        for k, face in enumerate(combinations(s, dim + 1)):
            out[last - ix[face]][top - q] = (-1) ** (dim + 1 - k)
    return out


def sort_sign(seq: tuple) -> tuple[tuple, int]:
    """Sorted tuple and the sign of the sorting permutation (0 if repeats)."""
    if len(set(seq)) != len(seq):
        return (), 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


def chain_map(src: S.SimplicialComplex, dst: S.SimplicialComplex,
              vertex_map, k: int, columns=None) -> list[dict]:
    """homology.chain_map, one sort and one `position` per simplex."""
    simplices = src.simplices(k)
    if columns is not None:
        simplices = [simplices[j] for j in columns]
    start = sum(dst.f_vector()[:k])
    cols = []
    for s in simplices:
        t, sign = sort_sign(tuple(vertex_map[v] for v in s))
        if sign == 0:
            cols.append({})
            continue
        row = dst.position(t)
        if row is None:
            raise H.HomologyError(
                f"image simplex {t} missing from the target complex")
        cols.append({row - start: sign})
    return cols


def element_report(dst: T.Term, images: list, tol: float) -> tuple:
    """Each image payload's place among the stored elements of dst (None
    when not stored), from one `positions` call over the padded images,
    and whether each is an element of dst: nonempty and of diameter
    strictly below dst.threshold within tol.  worst_element indexes
    images: the first empty one, else the widest."""
    places = dst.complex.positions(T._padded(images)).tolist()
    positions = tuple(None if p < 0 else p for p in places)
    empty = [i for i, img in enumerate(images) if not img]
    widths = T.image_diameters(dst.sample, [img for img in images if img])
    # without empty images, widths holds every image's diameter
    worst = empty[0] if empty else int(widths.argmax()) if widths.size else 0
    return positions, T.BondingReport(
        well_defined=not empty
        and bool(np.all(M.below(widths, dst.threshold, tol))),
        worst_diameter=math.inf if empty else float(widths.max(initial=0.0)),
        bound=dst.threshold, empty_images=len(empty),
        capped_images=positions.count(None) - len(empty),
        worst_element=worst)


def map_report(dst: T.Term, table: list, src: S.SimplicialComplex,
               tol: float) -> tuple:
    """The places and the report of the map with vertex table `table` on
    every simplex of src, from one union of vertex images per simplex,
    through `element_report`."""
    images = [frozenset().union(*(table[v] for v in c))
              for c in src.all_simplices()]
    return element_report(dst, images, tol)

"""Plain reference computations that only the tests use."""

import numpy as np

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


def map_report(dst: T.Term, table: list, src: S.SimplicialComplex,
               tol: float) -> tuple:
    """The places and the report of the map with vertex table `table` on
    every simplex of src, from one union of vertex images per simplex:
    each image's place by `SimplicialComplex.position`, its diameter by
    `tower.image_diameters`, through `tower.element_report`."""
    images = [frozenset().union(*(table[v] for v in c))
              for c in src.all_simplices()]
    return T.element_report(dst, images, tol)

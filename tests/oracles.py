"""Plain reference computations that only the tests use."""

import numpy as np

from fintop import metric as M
from fintop import simplicial as S


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

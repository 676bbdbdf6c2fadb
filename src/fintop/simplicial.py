"""Simplicial complexes: clique complexes (Vietoris-Rips and, through the
comparability graph, order complexes), boundary and coboundary matrices,
and elementary collapses, which only the tests use.

Simplices are stored as sorted tuples of hashable vertex ids grouped by
dimension; the vertex order of the tuple fixes the orientation used by the
boundary matrices.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from .metric import DEFAULT_TOL, below


class SimplicialError(ValueError):
    pass


class SimplicialComplex:
    """A finite abstract simplicial complex, closed under faces.

    The simplices of each dimension keep the order in which they first
    appear among the faces of the input.  A complex does not change once
    it is built.
    """

    def __init__(self, simplices: Iterable[Sequence[Hashable]] = ()):
        levels: list[dict] = []
        for simplex in simplices:
            s = tuple(sorted(set(simplex)))
            if not s:
                raise SimplicialError("empty simplex")
            levels += [{} for _ in range(len(s) - len(levels))]
            for k in range(1, len(s) + 1):
                levels[k - 1].update(dict.fromkeys(combinations(s, k)))
        self._set_levels([list(level) for level in levels])

    @classmethod
    def _closed(cls, levels: list[list[tuple]]) -> "SimplicialComplex":
        """The complex of per-dimension lists of sorted tuples, taken as
        they are: every face of a listed simplex must be listed, once."""
        cx = cls.__new__(cls)
        cx._set_levels(levels)
        return cx

    def _set_levels(self, levels: list[list[tuple]]) -> None:
        while levels and not levels[-1]:
            levels.pop()
        self._by_dim = levels
        # per dimension: tuple -> position
        self._index = [{s: i for i, s in enumerate(level)} for level in levels]

    @property
    def dimension(self) -> int:
        return len(self._by_dim) - 1

    def simplices(self, dim: int) -> list[tuple]:
        if 0 <= dim < len(self._by_dim):
            return self._by_dim[dim]
        return []

    def all_simplices(self) -> list[tuple]:
        return [s for level in self._by_dim for s in level]

    def __contains__(self, simplex) -> bool:
        s = tuple(sorted(set(simplex)))
        d = len(s) - 1
        return 0 <= d < len(self._index) and s in self._index[d]

    def __len__(self) -> int:
        return sum(len(level) for level in self._by_dim)

    def f_vector(self) -> list[int]:
        return [len(level) for level in self._by_dim]

    def index(self, simplex) -> int:
        s = tuple(sorted(set(simplex)))
        return self._index[len(s) - 1][s]

    def boundary_sparse(self, dim: int) -> list[dict]:
        """Boundary map C_dim -> C_{dim-1} as sparse columns (row -> coeff)."""
        cols = self.simplices(dim)
        if dim <= 0 or not cols:
            return [dict() for _ in cols]
        row_ix = self._index[dim - 1]
        out = []
        for s in cols:
            col = {}
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                col[row_ix[face]] = (-1) ** i
            out.append(col)
        return out

    def coboundary_sparse(self, dim: int) -> list[dict]:
        """Coboundary C^dim -> C^{dim+1}, the transpose of the boundary of
        dim + 1, as sparse columns with both simplex orders reversed.

        Column j is the dim-simplex n_dim - 1 - j, and row i is the
        (dim+1)-simplex n_{dim+1} - 1 - i.
        """
        n = len(self.simplices(dim))
        cofaces = self.simplices(dim + 1)
        out: list[dict] = [{} for _ in range(n)]
        if not (n and cofaces):
            return out
        last, top = n - 1, len(cofaces) - 1
        col_ix = self._index[dim]
        # combinations drops the vertices last to first: face k lacks
        # vertex dim + 1 - k
        signs = [(-1) ** (dim + 1 - k) for k in range(dim + 2)]
        for q, s in enumerate(cofaces):
            for face, sign in zip(combinations(s, dim + 1), signs):
                out[last - col_ix[face]][top - q] = sign
        return out

    def boundary_matrix(self, dim: int) -> np.ndarray:
        """Integer matrix of the boundary map C_dim -> C_{dim-1}."""
        rows = self.simplices(dim - 1)
        cols = self.simplices(dim)
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        if dim <= 0 or not cols:
            return mat
        row_ix = self._index[dim - 1]
        for j, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                mat[row_ix[face], j] = (-1) ** i
        return mat


# ---------------------------------------------------------------------------
# Vietoris-Rips
# ---------------------------------------------------------------------------

def rips_graph(pairwise: np.ndarray, threshold: float,
               tol: float = DEFAULT_TOL) -> list[list[int]]:
    """Neighbor lists of the graph whose edges have length below threshold.

    An edge needs d < threshold, with ties resolved outside (`metric.below`).
    Only the upper triangle of the matrix is read: the neighbors of i are
    the rows of column i above the diagonal, then the columns of row i
    right of it.
    """
    inside = below(pairwise, threshold, tol)
    return [np.flatnonzero(inside[:i, i]).tolist()
            + (i + 1 + np.flatnonzero(inside[i, i + 1:])).tolist()
            for i in range(len(inside))]


def vietoris_rips(pairwise: np.ndarray, threshold: float, max_dim: int,
                  tol: float = DEFAULT_TOL,
                  max_simplices: Optional[int] = None) -> SimplicialComplex:
    """Vietoris-Rips complex up to dimension max_dim: the clique complex of
    the threshold graph."""
    return clique_complex(rips_graph(pairwise, threshold, tol), max_dim,
                          max_simplices)


def clique_complex(neighbours: list[list[int]], max_dim: int,
                   max_simplices: Optional[int] = None) -> SimplicialComplex:
    """The cliques of a graph on 0..n-1, up to max_dim + 1 vertices.

    Built one dimension at a time: each k-clique extends a (k-1)-clique by
    a common neighbour above its last vertex (Zomorodian 2010), so every
    face of a clique is listed before it.  The cap counts the vertices,
    then each finished dimension.
    """
    n = len(neighbours)
    nbr = [set(a) for a in neighbours]
    count = 0

    def bump(k):
        nonlocal count
        count += k
        if max_simplices is not None and count > max_simplices:
            raise SimplicialError(
                f"Rips complex exceeds cap of {max_simplices} simplices")

    frontier = [(i,) for i in range(n)]
    bump(n)
    levels = [frontier]
    while frontier and len(levels) <= max_dim:
        nxt = []
        for s in frontier:
            common = nbr[s[0]]
            for v in s[1:]:
                common = common & nbr[v]
            for u in common:
                if u > s[-1]:
                    nxt.append(s + (u,))
        bump(len(nxt))
        levels.append(nxt)
        frontier = nxt
    return SimplicialComplex._closed(levels)


def connected_components(n: int, adj: list[list[int]]) -> int:
    """Component count of a graph by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for i, neigh in enumerate(adj):
        for j in neigh:
            if j > i:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    comps -= 1
    return comps


# ---------------------------------------------------------------------------
# collapses
# ---------------------------------------------------------------------------

def elementary_collapse(cx: SimplicialComplex) -> SimplicialComplex:
    """Repeatedly remove free faces; the result is homotopy equivalent.

    A face is free when it lies in exactly one strictly larger simplex.
    """
    alive: set[tuple] = set(cx.all_simplices())
    cofaces: dict[tuple, set[tuple]] = {s: set() for s in alive}
    for s in alive:
        if len(s) > 1:
            for i in range(len(s)):
                cofaces[s[:i] + s[i + 1:]].add(s)

    queue = [s for s in alive if len(cofaces[s]) == 1]

    def drop(dead: tuple) -> None:
        # dead is removed: its codim-1 faces each lose one coface
        for i in range(len(dead)):
            f = dead[:i] + dead[i + 1:]
            if f not in cofaces or f not in alive:
                continue
            cofaces[f].discard(dead)
            if len(cofaces[f]) == 1:
                queue.append(f)
            elif not cofaces[f]:
                # f became maximal: its single-coface faces become free
                for j in range(len(f)):
                    g = f[:j] + f[j + 1:]
                    if g in cofaces and g in alive and len(cofaces[g]) == 1:
                        queue.append(g)

    while queue:
        s = queue.pop()
        if s not in alive or len(cofaces[s]) != 1:
            continue
        (t,) = cofaces[s]
        # t must itself be maximal, or (s, t) is not a free pair
        if t not in alive or cofaces[t]:
            continue
        alive.discard(s)
        alive.discard(t)
        drop(t)
        drop(s)
    # the survivors are closed under faces: a removed face had one coface,
    # which was removed with it
    return SimplicialComplex._closed(
        [[s for s in level if s in alive] for level in cx._by_dim])

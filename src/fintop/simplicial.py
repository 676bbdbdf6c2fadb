"""Simplicial complexes: clique complexes (Vietoris-Rips and, through the
comparability graph, order complexes), boundary and coboundary matrices,
batch lookups of vertex sets, and elementary collapses, which only the
tests use.

Simplices are stored as sorted tuples of nonnegative integer vertex ids
grouped by dimension; the vertex order of the tuple fixes the orientation
used by the boundary matrices.  The one index of a complex is the sorted
byte keys of its vertex rows, one table per dimension: `positions` finds
vertex sets in it, and the face table (`faces`), from which the boundaries
and coboundaries are read, is one lookup of it per dimension.
"""

from __future__ import annotations

import numbers
from itertools import accumulate, chain, combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .metric import DEFAULT_TOL, close_pairs


class SimplicialError(ValueError):
    pass


class SimplicialComplex:
    """A finite abstract simplicial complex, closed under faces.

    The simplices of each dimension keep the order in which they first
    appear among the faces of the input.  A complex does not change once
    it is built.
    """

    def __init__(self, simplices: Iterable[Sequence[int]] = ()):
        levels: list[dict] = []
        for simplex in simplices:
            s = set(simplex)
            for v in s:
                if not is_vertex_id(v):
                    raise SimplicialError(f"vertex id {v!r} is not a "
                                          "nonnegative integer below 2^63")
            s = tuple(sorted(s))
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
        self._starts = list(accumulate(map(len, levels), initial=0))

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
        return self.position(simplex) is not None

    def __len__(self) -> int:
        return sum(len(level) for level in self._by_dim)

    def f_vector(self) -> list[int]:
        return [len(level) for level in self._by_dim]

    def index(self, simplex) -> int:
        """The place of a stored simplex among those of its dimension."""
        return self.position(simplex) - self._starts[len(simplex) - 1]

    def position(self, vertices) -> Optional[int]:
        """The place in all_simplices() of the simplex on a vertex set, or
        None: the `positions` lookup of its one sorted row, and None for an
        entry that is no vertex id, which `positions` reads as padding."""
        row = sorted(set(vertices))
        if not (0 < len(row) <= len(self._by_dim)
                and all(map(is_vertex_id, row))):
            return None
        place = int(self._lookup(len(row) - 1, np.array([row], np.int64))[0])
        return None if place < 0 else place

    def rows(self, dim: int) -> np.ndarray:
        """The dim-simplices as one int64 array of vertex rows, in the order
        of simplices(dim), cached on the complex."""
        cache = vars(self).setdefault("_rows_cache", {})
        if dim not in cache:
            simplices = self.simplices(dim)
            cache[dim] = np.fromiter(
                chain.from_iterable(simplices), dtype=np.int64,
                count=len(simplices) * (dim + 1)).reshape(-1, dim + 1)
        return cache[dim]

    def positions(self, rows) -> np.ndarray:
        """The batch form of position: for each row of a 2-D integer array,
        the place in all_simplices() of the simplex on the set of its
        nonnegative entries, or -1.  A row may hold its vertices in any
        order and more than once; negative entries pad it.

        The sets of each size are looked up by `_lookup` as sorted rows.
        """
        members, first = vertex_sets(np.asarray(rows, dtype=np.int64))
        size = first.sum(axis=1)
        out = np.full(len(members), -1, dtype=np.intp)
        for dim in range(min(self.dimension + 1, members.shape[1])):
            sel = np.flatnonzero(size == dim + 1)
            if len(sel):
                out[sel] = self._lookup(
                    dim, members[sel][first[sel]].reshape(-1, dim + 1))
        return out

    def _lookup(self, dim: int, rows: np.ndarray) -> np.ndarray:
        """The places in all_simplices() of the dim-simplices on increasing
        vertex rows, -1 where absent: one searchsorted of the rows' bytes
        against the sorted bytes of the stored dim-simplices, kept on the
        complex.  A byte key has no width or overflow limit."""
        cache = vars(self).setdefault("_keys_cache", {})
        if dim not in cache:
            keys = _row_keys(self.rows(dim))
            order = np.argsort(keys)
            cache[dim] = keys[order], order + self._starts[dim]
        keys, places = cache[dim]
        query = _row_keys(rows)
        at = np.searchsorted(keys, query)
        at[at == len(keys)] = 0
        return np.where(keys[at] == query, places[at], -1)

    def faces(self, dim: int) -> np.ndarray:
        """For each dim-simplex, dim >= 1, the places of its faces among the
        (dim-1)-simplices: column i is the face without vertex i, whose
        boundary sign is (-1)^i.  Cached on the complex, from one `_lookup`
        of the rows with one vertex dropped, which stay increasing."""
        cache = vars(self).setdefault("_faces_cache", {})
        if dim not in cache:
            drop = self.rows(dim)[:, list(combinations(range(dim + 1), dim))]
            places = self._lookup(dim - 1, drop[:, ::-1].reshape(-1, dim))
            cache[dim] = places.reshape(-1, dim + 1) - self._starts[dim - 1]
        return cache[dim]

    def boundary_sparse(self, dim: int,
                        columns: Optional[Iterable[int]] = None) -> list[dict]:
        """Boundary map C_dim -> C_{dim-1} as sparse columns (row -> coeff),
        only those of the dim-simplices at the given positions, in their
        order, when columns is given: the rows of the face table."""
        cols = range(len(self.simplices(dim))) if columns is None \
            else list(columns)
        if dim <= 0 or not cols:
            return [{} for _ in cols]
        signs = [(-1) ** i for i in range(dim + 1)]
        return [dict(zip(row, signs)) for row in self.faces(dim)[cols].tolist()]

    def coboundary_sparse(self, dim: int) -> list[dict]:
        """Coboundary C^dim -> C^{dim+1}, the transpose of the boundary of
        dim + 1, as sparse columns with both simplex orders reversed.

        Column j is the dim-simplex n_dim - 1 - j, and row i is the
        (dim+1)-simplex n_{dim+1} - 1 - i: the face table of dim + 1 read
        by faces, each column's entries in the order of their cofaces.
        """
        n, m = len(self.simplices(dim)), len(self.simplices(dim + 1))
        out: list[dict] = [{} for _ in range(n)]
        if not (n and m):
            return out
        cols = (n - 1 - self.faces(dim + 1)).ravel().tolist()
        rows = np.repeat(np.arange(m - 1, -1, -1), dim + 2).tolist()
        signs = [(-1) ** i for i in range(dim + 2)] * m
        for j, i, sign in zip(cols, rows, signs):
            out[j][i] = sign
        return out

    def boundary_matrix(self, dim: int) -> np.ndarray:
        """Integer matrix of the boundary map C_dim -> C_{dim-1}, the dense
        form of `boundary_sparse`."""
        mat = np.zeros((len(self.simplices(dim - 1)), len(self.simplices(dim))),
                       dtype=np.int64)
        for j, col in enumerate(self.boundary_sparse(dim)):
            for i, v in col.items():
                mat[i, j] = v
        return mat


def vertex_sets(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer rows as vertex sets: the rows sorted, and the mask of each
    nonnegative entry's first occurrence in its row.  The masked entries
    of a row are its set, in increasing order as simplices are stored."""
    members = np.sort(rows, axis=1)
    first = members >= 0
    first[:, 1:] &= members[:, 1:] != members[:, :-1]
    return members, first


def is_vertex_id(v) -> bool:
    """Whether v can be a vertex id: an integer that an int64 row holds
    and that is not negative, which `positions` reads as padding."""
    return isinstance(v, numbers.Integral) and 0 <= v < 2 ** 63


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void key per int64 row, its bytes: equal rows have equal keys,
    and numpy orders void keys, which is all that a sorted lookup needs."""
    return np.ascontiguousarray(rows).view(f"V{8 * rows.shape[1]}").ravel()


# ---------------------------------------------------------------------------
# Vietoris-Rips
# ---------------------------------------------------------------------------

def rips_graph(source, threshold: float, tol: float = DEFAULT_TOL,
               max_simplices: Optional[int] = None) -> list[list[int]]:
    """Neighbor lists of the graph whose edges have length below threshold.

    The edges of a sample or a symmetric distance matrix are the pairs
    i < j of `metric.close_pairs` (ties resolved outside, `metric.below`),
    in row order.  Each edge is appended to both its ends in that order, so
    the neighbors of i come in increasing order.  The cap counts the
    vertices and the edges as they are found, as the clique expansion does.
    """
    n = len(source)
    found, count = [(np.zeros(0, np.intp),) * 2], n
    for i, j in close_pairs(source, threshold, tol):
        count += len(i)
        _check_cap(count, max_simplices)
        found.append((i, j))
    rows, cols = map(np.concatenate, zip(*found))
    order = np.lexsort((cols, rows))
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        neighbours[i].append(j)
        neighbours[j].append(i)
    return neighbours


def vietoris_rips(source, threshold: float, max_dim: int,
                  tol: float = DEFAULT_TOL,
                  max_simplices: Optional[int] = None) -> SimplicialComplex:
    """Vietoris-Rips complex up to dimension max_dim of a sample or a
    distance matrix: the clique complex of the threshold graph."""
    graph = rips_graph(source, threshold, tol,
                       max_simplices if max_dim >= 1 else None)
    return clique_complex(graph, max_dim, max_simplices)


def _check_cap(count: int, max_simplices: Optional[int]) -> None:
    if max_simplices is not None and count > max_simplices:
        raise SimplicialError(f"Rips complex exceeds cap of {max_simplices} simplices")


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
        _check_cap(count, max_simplices)

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

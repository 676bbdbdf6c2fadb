"""Simplicial homology and induced maps.

Betti numbers come from one cleared reduction of the coboundaries per
complex, over GF(p) for 'p:P' and over Z otherwise, kept on the complex
as masks of the simplices it pairs and the torsion (`_pairs`): the
elder rule pairs delta_0, apparent pairs are read off the coface table
with numpy, and the other columns are built from it and reduced, with an
apparent pivot built only when a reduction reads its low.  One record
serves q, z and the ranks of induced maps, as the pairs over Z are those
over Q.  Vertex maps induce chain maps with the usual sorting
sign and degenerate-image-to-zero convention, computed for all the
simplices of a dimension at once (`_mapped`: one array of mapped vertex
rows, its signs and one `positions` call).  The rank of an induced
homology map comes from one sparse reduction of a block matrix
(`linalg.induced_map_rank`), cleared in both blocks by those pairs
(`induced_rank`).  Only the kept columns of the chain map and the
boundaries are built; the cleared ones would not change the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import numpy as np

from . import linalg as L
from .metric import DEFAULT_TOL
# elementary_collapse: the benchmark tracer's wrapper, dropped by ROADMAP item 1
from .simplicial import SimplicialComplex, elementary_collapse  # noqa: F401
from .simplicial import is_vertex_id


class HomologyError(ValueError):
    pass


def parse_field(spec: str) -> tuple[str, Optional[int]]:
    """'q' | 'p:PRIME' | 'z' -> a tag and the prime, None unless 'p'; the
    prime must be below 2^31, which keeps its trial division quick."""
    s = spec.lower()
    if s in ("q", "z"):
        return s, None
    if s.startswith("p:"):
        p = int(s[2:]) if s[2:].isdecimal() and len(s[2:]) <= 10 else 0
        if not (p < 2 ** 31 and L.is_prime(p)):
            raise HomologyError(f"field {spec!r}: p must be a prime below 2^31")
        return "p", p
    raise HomologyError(f"unknown field {spec!r} (use q, z, or p:PRIME)")


@dataclass
class HomologyResult:
    betti: list[int]
    torsion: Optional[list[list[int]]] = None   # per degree, integer mode only


def _flags(size: int, places) -> np.ndarray:
    """Mask of size simplices, set at the given places."""
    mask = np.zeros(size, dtype=bool)
    mask[np.fromiter(places, dtype=np.intp)] = True
    return mask


def _elder_rule(cx: SimplicialComplex) -> dict:
    """The pairs {vertex: edge} of delta_0, by places: one union-find over
    the edges in order, each root the least vertex of its component.  An
    edge that joins two components is paired with the larger of their
    roots (the elder rule; Edelsbrunner and Harer, "Computational
    Topology", 2010)."""
    parent = list(range(len(cx.simplices(0))))
    pairs = {}
    for edge, (u, v) in enumerate(zip(*cx.faces(1).T.tolist())):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            u, v = min(u, v), max(u, v)
            parent[v] = u
            pairs[v] = edge
    return pairs


def _cofaces(cx: SimplicialComplex, d: int) -> tuple[np.ndarray, ...]:
    """The coface table of the d-simplices, the transpose of faces(d + 1):
    the cofaces of the d-simplex s are the entries start[s]:start[s + 1]
    of rows and signs, in increasing order, as their rows m - 1 - coface
    in delta_d (of m cofaces) and the signs of s in their boundaries."""
    faces = cx.faces(d + 1).ravel()
    m, width = len(cx.simplices(d + 1)), d + 2
    start = np.concatenate(
        ([0], np.cumsum(np.bincount(faces, minlength=len(cx.simplices(d))))))
    rows = np.argsort(faces, kind="stable")     # face table entries, by face
    signs = 1 - 2 * (rows % width % 2).astype(np.int8)
    rows //= width                              # made rows in place
    np.subtract(m - 1, rows, out=rows)
    return start, rows, signs


def _coboundary_column(cofaces: tuple[np.ndarray, ...], s: int) -> L.SparseCol:
    """The column {row: sign} of the d-simplex s in delta_d, read off the
    coface table."""
    start, rows, signs = cofaces
    lo, hi = start[s:s + 2].tolist()
    return dict(zip(rows[lo:hi].tolist(), signs[lo:hi].tolist()))


def _apparent(cx: SimplicialComplex, d: int, cofaces: tuple[np.ndarray, ...],
              kept: np.ndarray) -> tuple[dict, list[int]]:
    """The apparent pairs {low: d-simplex} of the kept columns of delta_d,
    d >= 1, and the other kept columns that are not zero, in the order of
    the reduction (decreasing places).

    A kept column's low is its coface of least place; the pair is apparent
    when the column is that coface's kept face of greatest place."""
    start, rows, _ = cofaces
    faces = cx.faces(d + 1)
    greatest = np.where(kept[faces], faces, -1).max(axis=1, initial=-1)
    simplices = np.flatnonzero(kept & (start[1:] > start[:-1]))
    lows = rows[start[simplices]]
    apparent = greatest[len(faces) - 1 - lows] == simplices
    return (dict(zip(lows[apparent].tolist(), simplices[apparent].tolist())),
            simplices[~apparent][::-1].tolist())


def _pairs(cx: SimplicialComplex, k: int, p: Optional[int]) -> tuple[list, ...]:
    """The cleared coboundary reduction of delta_0, ..., delta_k over
    GF(p), or over Z when p is None, cached on the complex: one record
    serves the Betti numbers over Q and Z, the torsion and induced ranks.

    In the record (up, down, cleared, torsion), up[d] marks the
    d-simplices paired with a (d+1)-simplex, down[d] those paired with a
    (d-1)-simplex, and cleared[d] the unit lows of delta_{d-1}, whose
    columns delta_d skips.  Over a field such a column is a combination of
    earlier ones, as the reduced pivot with that low is a coboundary with
    a nonzero entry there; over Z, when the entry is +-1, the column is
    replaced by an integer combination with coefficient +-1 on itself,
    which keeps the Smith invariants.  Mod p every low is a unit.
    torsion[d] lists the invariants above 1 of delta_d, those of the
    boundary of dimension d + 1: the torsion of H_d.  A unimodular echelon
    has rank-many pivots, so a column left in for its non-unit low still
    reduces to zero, and the pairs are those over Q.

    delta_d has a column per d-simplex, the last one first, and a row per
    (d+1)-simplex, the last one at the top: the pivot of column j and low
    i pairs the d-simplex n_d - 1 - j with the (d+1)-simplex
    n_{d+1} - 1 - i.  A pivot pair of a reduced matrix is fixed by the
    ranks of its lower-left submatrices, and delta_d is the boundary of
    dimension d + 1 turned by a half turn, which maps those submatrices to
    each other: these are the pairs of the lowest-row reduction of that
    boundary, where the pivot column of a (d+1)-simplex has its low on the
    paired d-simplex (de Silva, Morozov and Vejdemo-Johansson, "Dualities
    in persistent (co)homology", 2011).

    So the pairs of delta_0 are those of the elder rule (`_elder_rule`),
    and every pivot of an incidence matrix is +-1.  In delta_d, d >= 1, a
    kept column whose low is an apparent pair (`_apparent`; Bauer,
    "Ripser", 2021) is a pivot as it stands: no column before it holds
    its low row, before or after reduction.  The other kept columns are
    built from the coface table and reduced in order against a table
    seeded with the apparent pivots, each built the first time a
    reduction or a Smith residue reads its low (`linalg.SeededPivots`).
    Only later columns hold that low, and its entry +-1 divides theirs,
    so the pivots are those of the full reduction, and no column that no
    elimination reads is built.
    """
    no_vertex = _flags(len(cx.simplices(0)), ())
    up, down, cleared, torsion = vars(cx).setdefault(
        "_pairs_cache", {}).setdefault(p, ([], [no_vertex], [no_vertex], []))
    for d in range(len(up), k + 1):
        n, m = len(cx.simplices(d)), len(cx.simplices(d + 1))
        invariants, pairs, unit_lows = [], {}, []
        if d == 0:
            pairs = _elder_rule(cx)
            unit_lows = pairs.values()
        elif m:
            cofaces = _cofaces(cx, d)
            seeds, rest = _apparent(cx, d, cofaces, ~cleared[d])
            cols = (_coboundary_column(cofaces, s) for s in rest)
            seeded = L.SeededPivots(seeds, partial(_coboundary_column, cofaces))
            if p is None:
                invariants, lows, units = L.smith_pivots(cols, seeded)
            else:
                lows = L.pivot_pairs(cols, p, seeded)
                units = [*seeds, *lows.values()]
            pairs = {s: m - 1 - low for low, s in seeds.items()}
            pairs.update((rest[j], m - 1 - low) for j, low in lows.items())
            unit_lows = [m - 1 - low for low in units]
            del cofaces, seeded     # before the next degree's are built
        torsion.append([v for v in invariants if v > 1])
        up.append(_flags(n, pairs))
        down.append(_flags(m, pairs.values()))
        cleared.append(_flags(m, unit_lows))
    return up, down, cleared, torsion


def betti_numbers(cx: SimplicialComplex, k_max: int, field_spec: str = "q",
                  max_simplices: Optional[int] = None) -> HomologyResult:
    """Betti numbers b_0..b_k_max of a complex, with the torsion over Z:
    b_d counts the d-simplices that the one cached reduction of `_pairs`,
    for q and z alike, leaves unpaired.  The complex must contain
    simplices up to dimension k_max + 1 wherever they exist, or the top
    Betti number would be overcounted.
    """
    _check_degree(k_max)
    if max_simplices is not None and len(cx) > max_simplices:
        raise HomologyError(
            f"complex has {len(cx)} simplices, above the cap of {max_simplices}")
    tag, p = parse_field(field_spec)
    up, down, _, torsion = _pairs(cx, k_max, p)
    return HomologyResult(
        betti=[int(np.count_nonzero(~(up[d] | down[d])))
               for d in range(k_max + 1)],
        torsion=[list(t) for t in torsion[:k_max + 1]] if tag == "z" else None)


def _check_degree(k: int) -> None:
    if k < 0:
        raise HomologyError(f"degree {k} is negative")


# ---------------------------------------------------------------------------
# chain maps induced by vertex maps
# ---------------------------------------------------------------------------

def _mapped(src: SimplicialComplex, dst: SimplicialComplex,
            vertex_map: Mapping, k: int,
            columns: Optional[Iterable[int]] = None) -> tuple[np.ndarray, ...]:
    """The images of the k-simplices of src (those at the given positions
    when columns is given) under a vertex map into dst: rows of mapped
    vertices, the signs of their sorting permutations (0 when a vertex
    repeats) and the places of their sets in dst, -1 when missing, by one
    `positions` call.  An image that is no vertex id, which a row would
    misread (-1 as padding, 0.5 as 0), is refused by its vertex, as is a
    vertex without an image."""
    vertices = src.rows(0)[:, 0].tolist()
    try:
        images = [vertex_map[v] for v in vertices]
    except KeyError as missing:
        raise HomologyError(f"vertex {missing.args[0]!r} of the source has "
                            f"no image under the vertex map") from None
    for v, x in zip(vertices, images):
        if not is_vertex_id(x):
            raise HomologyError(f"vertex {v} maps to {x!r}, which is not a "
                                f"vertex id")
    table = np.full(max(vertices, default=-1) + 1, -1, dtype=np.int64)
    table[vertices] = images
    mapped = table[src.rows(k) if columns is None
                   else src.rows(k)[list(columns)]]
    i, j = np.triu_indices(k + 1, 1)
    a, b = mapped[:, i], mapped[:, j]
    signs = np.where((a == b).any(axis=1), 0,
                     1 - 2 * ((a > b).sum(axis=1) % 2))
    return mapped, signs, dst.positions(mapped)


def chain_map(src: SimplicialComplex, dst: SimplicialComplex,
              vertex_map: Mapping, k: int,
              columns: Optional[Iterable[int]] = None) -> list[L.SparseCol]:
    """Degree-k matrix of the chain map induced by a vertex map, only its
    columns of the k-simplices at the given positions, in their order,
    when columns is given.

    Degenerate images are sent to zero.  An image simplex missing from the
    target is an error: the vertex map is not simplicial into dst.  Only
    the simplices of the built columns are checked.
    """
    _check_degree(k)
    mapped, signs, places = _mapped(src, dst, vertex_map, k, columns)
    missing = np.flatnonzero((signs != 0) & (places < 0))
    if len(missing):
        t = tuple(sorted(mapped[missing[0]].tolist()))
        raise HomologyError(
            f"image simplex {t} missing from the target complex")
    start = sum(dst.f_vector()[:k])     # the first k-simplex's position
    return [{row - start: sign} if sign else {}
            for row, sign in zip(places.tolist(), signs.tolist())]


def compose_sparse(a: list[L.SparseCol], b: list[L.SparseCol]) -> list[L.SparseCol]:
    """Matrix product a @ b of sparse column lists."""
    out = []
    for col in b:
        acc: L.SparseCol = {}
        for k, v in col.items():
            L._sub_multiple(acc, -v, a[k])
        out.append(acc)
    return out


def _check_simplicial(src: SimplicialComplex, dst: SimplicialComplex,
                      vertex_map: Mapping, k: int) -> None:
    """Raise unless the image of every k-simplex of src is in dst: the
    check of `chain_map` without building its columns, degenerate images
    included.  The error names the first k-simplex of src whose image is
    missing."""
    missing = np.flatnonzero(_mapped(src, dst, vertex_map, k)[2] < 0)
    if len(missing):
        s = src.simplices(k)[missing[0]]
        t = {vertex_map[v] for v in s}
        raise HomologyError(
            f"image simplex {tuple(sorted(t))} of the {k}-simplex {s} "
            f"missing from the target complex: the vertex map is not "
            f"simplicial in dimension {k}")


def induced_rank(src: SimplicialComplex, dst: SimplicialComplex,
                 vertex_map: Mapping, k: int, field_spec: str = "q") -> int:
    """Rank of H_k of the map induced by a vertex map, over GF(p) for
    'p:P' and over Q otherwise.

    The vertex map must be simplicial on the k- and (k+1)-simplices of
    src; otherwise HomologyError.  The block reduction of
    `linalg.induced_map_rank` runs on fewer columns, chosen by the cached
    pairs of both complexes (`_pairs`), reduced through delta_k:

    Right block.  The column [F_k; dX_k] of a k-simplex of X = src paired
    with a (k+1)-simplex is dropped.  These simplices are the set P of
    lows of the reduced boundary dX_{k+1}.  Every nonzero boundary is a
    combination of those reduced columns, whose lows differ, so its lowest
    row is in P.  Hence Z_k(X) = Z' + B_k(X), with Z' the cycles supported
    off P: a cycle loses its entries in P, highest first, by subtracting
    the reduced column with that low, and no nonzero boundary lies in Z'.
    The vertex map is simplicial in dimension k + 1, so F_k dX_{k+1} =
    dY_{k+1} F_{k+1} and F(B_k(X)) lies in B_k(Y).  So F(Z') + B_k(Y) =
    F(Z_k(X)) + B_k(Y), and the rank is read from the columns off P, whose
    dX rows reduce as those of dX_k restricted to them, with kernel Z'.

    Left block.  Only the dY_{k+1} columns of the (k+1)-simplices of Y =
    dst paired with a k-simplex are kept.  The others reduce to zero
    against the earlier columns, so they add no pivot low, and the span of
    the pivots, which is all the count of right-hand lows depends on, is
    the same.

    Only the kept columns are built: F_k and dX_k at the k-simplices off
    P, dY_{k+1} at the paired (k+1)-simplices, by `chain_map` and
    `boundary_sparse` on those positions.  The block is the one above, so
    the rank is too.  `chain_map` checks the image of each k-simplex off
    P; one in P has no column, but it is a face of a (k+1)-simplex, whose
    image the check in dimension k + 1 finds in dst with all its faces.
    """
    _check_degree(k)
    _, p = parse_field(field_spec)
    _check_simplicial(src, dst, vertex_map, k + 1)
    off_p = np.flatnonzero(~_pairs(src, k, p)[0][k]).tolist()
    paired_y = np.flatnonzero(_pairs(dst, k, p)[1][k + 1]).tolist()
    return L.induced_map_rank(dst.boundary_sparse(k + 1, paired_y),
                              chain_map(src, dst, vertex_map, k, off_p),
                              src.boundary_sparse(k, off_p),
                              rows_y_k=len(dst.simplices(k)), p=p)


def homology_basis_of(cx: SimplicialComplex, k: int) -> L.SparseHomology:
    """Sparse homology basis of a complex in one degree, cached on it."""
    cache = vars(cx).setdefault("_homology_cache", {})
    if k not in cache:
        cache[k] = L.SparseHomology(cx.boundary_sparse(k),
                                    cx.boundary_sparse(k + 1))
    return cache[k]


def induced_matrix(src: SimplicialComplex, dst: SimplicialComplex,
                   vertex_map: Mapping, k: int) -> list[list[Fraction]]:
    """Matrix of H_k of the induced map, in reduction-chosen rational bases.

    The bases are deterministic per complex and degree (and cached), so
    matrices of composable maps multiply exactly.
    """
    fk = chain_map(src, dst, vertex_map, k)
    basis_x = homology_basis_of(src, k)
    basis_y = homology_basis_of(dst, k)
    cols = [basis_y.express(compose_sparse(fk, [z])[0]) for z in basis_x.reps]
    # rows indexed by the target basis, columns by the source basis
    return [[cols[j][i] for j in range(len(cols))]
            for i in range(basis_y.betti)]


def component_count(pairwise: np.ndarray, threshold: float,
                    tol: float = DEFAULT_TOL) -> int:
    """Connected components of the threshold graph (union-find oracle)."""
    from .simplicial import connected_components, rips_graph
    adj = rips_graph(pairwise, threshold, tol)
    return connected_components(pairwise.shape[0], adj)

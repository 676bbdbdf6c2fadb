"""Simplicial homology and induced maps.

Betti numbers come from exact ranks of the coboundaries, reduced in
increasing degree with clearing: over the rationals by default, over GF(p)
on request, and over the integers (Smith invariants, reporting torsion)
for single complexes.  Vertex maps induce chain maps with the usual
sorting sign and degenerate-image-to-zero convention.  The rank of an induced homology map comes from one sparse
reduction of a block matrix, which also holds the ranks of both
boundaries (`linalg.induced_map_rank`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from . import linalg as L
from .metric import DEFAULT_TOL
# elementary_collapse: the benchmark tracer's wrapper, dropped by ROADMAP item 1
from .simplicial import SimplicialComplex, elementary_collapse  # noqa: F401


class HomologyError(ValueError):
    pass


def parse_field(spec: str) -> tuple[str, Optional[int]]:
    """'q' | 'p:PRIME' | 'z' -> a tag and the prime, None unless 'p'."""
    s = spec.lower()
    if s in ("q", "z"):
        return s, None
    if s.startswith("p:"):
        p = int(s[2:]) if s[2:].isdecimal() else 0
        if not L.is_prime(p):
            raise HomologyError(f"field {spec!r}: p must be a prime")
        return "p", p
    raise HomologyError(f"unknown field {spec!r} (use q, z, or p:PRIME)")


@dataclass
class HomologyResult:
    betti: list[int]
    torsion: Optional[list[list[int]]] = None   # per degree, integer mode only


def betti_numbers(cx: SimplicialComplex, k_max: int, field_spec: str = "q",
                  max_simplices: Optional[int] = None) -> HomologyResult:
    """Betti numbers b_0..b_k_max of a complex, with the torsion over Z.

    The complex must contain simplices up to dimension k_max + 1 wherever
    they exist, or the top Betti number would be overcounted.  The ranks
    come from the coboundaries delta_0, ..., delta_k_max (delta_d is the
    transpose of the boundary of dimension d + 1, `coboundary_sparse`),
    reduced in that order with clearing: a column of delta_d whose index
    is a pivot low of delta_{d-1} is skipped.  The reduced pivot with that
    low is a coboundary whose entry there is nonzero, so over a field the
    column is a combination of earlier ones.  Over Z only the unit lows
    clear: the column is then replaced by an integer combination with
    coefficient +-1 on itself, which keeps the Smith invariants.  Those of
    delta_d are the invariants of the boundary of dimension d + 1, and
    give the torsion of H_d.
    """
    if max_simplices is not None and len(cx) > max_simplices:
        raise HomologyError(
            f"complex has {len(cx)} simplices, above the cap of {max_simplices}")
    tag, p = parse_field(field_spec)
    ranks = [0]                       # ranks[d] = rank of the boundary of dim d
    torsion = [] if tag == "z" else None
    cleared: set[int] = set()
    for d in range(k_max + 1):
        cols = [col for j, col in enumerate(cx.coboundary_sparse(d))
                if j not in cleared]
        if tag == "z":
            invariants, lows = L.smith_pivots(cols)
            ranks.append(len(invariants))
            torsion.append([v for v in invariants if v > 1])
        else:
            lows = L.pivot_lows(cols, p)
            ranks.append(len(lows))
        cleared = set(lows)
    betti = [len(cx.simplices(d)) - ranks[d] - ranks[d + 1]
             for d in range(k_max + 1)]
    return HomologyResult(betti=betti, torsion=torsion)


# ---------------------------------------------------------------------------
# chain maps induced by vertex maps
# ---------------------------------------------------------------------------

def _sort_sign(seq: tuple) -> tuple[tuple, int]:
    """Sorted tuple and the sign of the sorting permutation (0 if repeats)."""
    if len(set(seq)) != len(seq):
        return (), 0
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


def chain_map(src: SimplicialComplex, dst: SimplicialComplex,
              vertex_map: Mapping, k: int) -> list[L.SparseCol]:
    """Degree-k matrix of the chain map induced by a vertex map.

    Degenerate images are sent to zero.  An image simplex missing from the
    target is an error: the vertex map is not simplicial into dst.
    """
    cols: list[L.SparseCol] = []
    for s in src.simplices(k):
        t, sign = _sort_sign(tuple(vertex_map[v] for v in s))
        if sign == 0:
            cols.append({})
            continue
        if t not in dst:
            raise HomologyError(
                f"image simplex {t} missing from the target complex")
        cols.append({dst.index(t): sign})
    return cols


def compose_sparse(a: list[L.SparseCol], b: list[L.SparseCol]) -> list[L.SparseCol]:
    """Matrix product a @ b of sparse column lists."""
    out = []
    for col in b:
        acc: L.SparseCol = {}
        for k, v in col.items():
            for r, w in a[k].items():
                nv = acc.get(r, 0) + v * w
                if nv:
                    acc[r] = nv
                else:
                    acc.pop(r, None)
        out.append(acc)
    return out


def induced_rank(src: SimplicialComplex, dst: SimplicialComplex,
                 vertex_map: Mapping, k: int, field_spec: str = "q") -> int:
    """Rank of H_k of the map induced by a vertex map."""
    _, p = parse_field(field_spec)
    return L.induced_map_rank(dst.boundary_sparse(k + 1),
                              chain_map(src, dst, vertex_map, k),
                              src.boundary_sparse(k),
                              rows_y_k=len(dst.simplices(k)), p=p)


def homology_basis_of(cx: SimplicialComplex, k: int) -> L.SparseHomology:
    """Sparse homology basis of a complex in one degree, cached on it."""
    cache = getattr(cx, "_homology_cache", None)
    if cache is None:
        cache = {}
        cx._homology_cache = cache
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

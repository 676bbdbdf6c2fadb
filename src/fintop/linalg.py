"""Exact linear algebra over Q, GF(p) and Z, on sparse columns.

Every rank, induced rank and homology basis comes from one column
reduction with lowest-row pivots (`_reduce`), one driver (`_echelon`) and
a field object with two methods, `entries` and `eliminate`, called once
per column or elimination, never per entry: unimodular integer column
operations for ranks over Q and for the Smith normal form, which gives
ranks and torsion over Z; mod p for GF(p); Fraction for homology bases
and coordinates in them.  No pivot is rescaled.  Where a reduction must
record its row operations, the columns carry extra rows, right of a left
block reduced first in the same pass: a block matrix gives an induced
rank (`induced_map_rank`), augmented columns give kernel bases and
coordinates (`SparseHomology`).  Only non-unit pivots go on to a dense
Smith form.  The pivots of a coboundary, as pairs {column: low}, are
what a cohomology reduction clears in the next degree: all of them mod
p (`pivot_pairs`), the unit ones over Z (`smith_pivots`), whose pairs
are also those over Q.  Both may reduce against a table seeded with unit
pivots that are built only when read (`SeededPivots`), as the apparent
pairs of a coboundary are.  That one reduction per complex
(`homology._pairs`) gives Betti numbers, torsion, and the pairs that
clear both blocks of an induced rank before `induced_map_rank`.  No
floating point is used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

SparseCol = dict  # row index -> nonzero coefficient


def to_sparse_columns(matrix: np.ndarray) -> list[SparseCol]:
    rows, cols = np.divmod(np.flatnonzero(matrix), matrix.shape[1])
    out: list[SparseCol] = [dict() for _ in range(matrix.shape[1])]
    for r, c in zip(rows.tolist(), cols.tolist()):
        out[c][r] = int(matrix[r, c])
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


def _shifted(col: SparseCol, shift: int) -> SparseCol:
    """col with every row index moved down by shift."""
    return {r + shift: v for r, v in col.items()}


def _sub_multiple(vec: SparseCol, lam, other: SparseCol) -> None:
    """vec -= lam * other, dropping entries that become zero."""
    for r, v in other.items():
        nv = vec.get(r, 0) - lam * v
        if nv:
            vec[r] = nv
        else:
            vec.pop(r, None)


class _ModP:
    """Arithmetic in GF(p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def entries(self, col: SparseCol) -> SparseCol:
        p = self.p
        return {r: v % p for r, v in col.items() if v % p}

    def eliminate(self, col: SparseCol, pivot_col: SparseCol, low: int) -> None:
        p = self.p
        factor = col[low] * pow(pivot_col[low], -1, p)
        for r, v in pivot_col.items():
            nv = (col.get(r, 0) - factor * v) % p
            if nv:
                col[r] = nv
            else:
                col.pop(r, None)


class _Rationals:
    """Fraction arithmetic, for homology bases and coordinates."""

    @staticmethod
    def entries(col: SparseCol) -> SparseCol:
        return {r: Fraction(v) for r, v in col.items()}

    @staticmethod
    def eliminate(col: SparseCol, pivot_col: SparseCol, low: int) -> None:
        _sub_multiple(col, col[low] / pivot_col[low], pivot_col)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


class _Unimodular:
    """Integer column operations of determinant +-1, for Smith invariants.

    No column is divided by its content, as that would change the
    invariants; a pivot column may be replaced in place instead.
    """

    @staticmethod
    def entries(col: SparseCol) -> SparseCol:
        return dict(col)

    @staticmethod
    def eliminate(col: SparseCol, pivot_col: SparseCol, low: int) -> None:
        """Zero col[low] against the pivot's low entry b.

        If b divides a = col[low], col -= (a // b) pivot_col.  Otherwise the
        pair (col, pivot_col) becomes ((b/g) col - (a/g) pivot_col,
        s col + t pivot_col) with s a + t b = g = gcd(a, b), a matrix of
        determinant -1, and the pivot keeps its place with low entry g.
        """
        a, b = col[low], pivot_col[low]
        if a % b == 0:
            _sub_multiple(col, a // b, pivot_col)
            return
        g, s, t = _xgcd(a, b)
        new_col = {r: (b // g) * v for r, v in col.items()}
        _sub_multiple(new_col, a // g, pivot_col)
        new_pivot = {r: s * v for r, v in col.items()}   # s != 0: b does not divide a
        _sub_multiple(new_pivot, -t, pivot_col)
        col.clear()
        col.update(new_col)
        pivot_col.clear()
        pivot_col.update(new_pivot)


def _reduce(col: SparseCol, pivots: dict, field) -> Optional[int]:
    """Reduce col in place against pivots {lowest row -> column}.

    Returns the lowest row of the reduced column, None if it vanished.
    """
    eliminate = field.eliminate
    while col:
        low = max(col)
        pivot_col = pivots.get(low)
        if pivot_col is None:
            return low
        eliminate(col, pivot_col, low)
    return None


class SeededPivots(dict):
    """A pivot table {lowest row -> column} seeded with unit pivots whose
    columns are built on demand: seeds maps each seeded low to a key, and
    build(key) makes that column the first time a reduction, or the
    clearing of a Smith residue, reads its low.

    A seeded column must be a pivot with entry +-1 at its low that no
    column reduced before its turn holds in that row, as an apparent pair
    of a coboundary is (`homology._pairs`).  Then the reduction with the
    seeds has the pivots of the one with those columns in place: only a
    later column meets the low, the column needs no elimination, and its
    unit entry divides every entry it eliminates.
    """

    def __init__(self, seeds: dict, build):
        super().__init__()
        self.seeds, self.build = seeds, build

    def __missing__(self, low):
        col = self[low] = self.build(self.seeds[low])
        return col

    def get(self, low, default=None):
        return self[low] if low in self or low in self.seeds else default


def _echelon(right: Iterable[SparseCol], field,
             left: Iterable[SparseCol] = (),
             pivots: Optional[dict] = None) -> tuple[dict, dict]:
    """Reduce copies of the left columns, then of the right ones, against
    one pivot table {lowest row -> column}, empty or a `SeededPivots`,
    that each nonzero result joins.

    Returns the table and {position among the right columns: lowest row}
    of the right-hand pivots.
    """
    pivots = {} if pivots is None else pivots
    for block in (left, right):
        lows = {}
        for j, col in enumerate(block):
            col = field.entries(col)
            low = _reduce(col, pivots, field)
            if low is not None:
                pivots[low] = col
                lows[j] = low
    return pivots, lows


def pivot_pairs(matrix: Iterable[SparseCol], p: Optional[int] = None,
                seeded: Optional[SeededPivots] = None) -> dict:
    """{column: lowest row} of the pivots of an integer matrix of sparse
    columns, reduced over GF(p), or over Q when p is None, against the
    seeded pivots when given, whose own pairs are not listed.

    Unimodular column operations keep the rank over Q, so the Smith
    reduction's field object serves there too.  They also keep the pairs:
    after the first j columns the pivots span what those input columns
    span, which fixes the set of their lows, and column j adds the low it
    ends with exactly when it adds to that span, as over Q.
    """
    return _echelon(matrix, _Unimodular if p is None else _ModP(p),
                    pivots=seeded)[1]


def rank_q(matrix: list[SparseCol]) -> int:
    """Exact rank over the rationals of an integer matrix of sparse columns,
    by the unimodular reduction that `pivot_pairs` uses over Q."""
    return len(_echelon(matrix, _Unimodular)[1])


def rank_gfp(matrix: list[SparseCol], p: int) -> int:
    """Rank over GF(p)."""
    return len(_echelon(matrix, _ModP(p))[1])


# ---------------------------------------------------------------------------
# Smith normal form (sparse unimodular reduction, dense non-unit residue)
# ---------------------------------------------------------------------------

def smith_pivots(matrix: Iterable[SparseCol],
                 seeded: Optional[SeededPivots] = None
                 ) -> tuple[list[int], dict, list[int]]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix of
    sparse columns, its pivot pairs {column: lowest row}, those over Q
    (`pivot_pairs`), and the lowest rows of its unit pivots, the only lows
    that clear a column of the next coboundary over Z (`homology._pairs`).
    With seeded pivots, the matrix is its columns and the seeded ones: the
    seeded lows are unit lows, but not listed among the pairs.
    """
    pivots, pairs = _echelon(matrix, _Unimodular, pivots=seeded)
    invariants, unit_lows = _echelon_invariants(
        pivots, {} if seeded is None else seeded.seeds)
    return invariants, pairs, unit_lows


def smith_normal_form(matrix: list[SparseCol]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix of
    sparse columns."""
    return _echelon_invariants(_echelon(matrix, _Unimodular)[0], {})[0]


def _echelon_invariants(pivots: dict,
                        seeds: dict) -> tuple[list[int], list[int]]:
    """Smith invariants of a matrix with unimodular echelon pivots {lowest
    row -> column}, the seeded unit lows among them, and the lows of the
    unit pivots.  A unit pivot splits off an invariant 1: the other pivots
    can be cleared in its row by column operations, then its own column by
    row operations.  The rest, cleared in the unit rows, is the residue
    that `_smith_dense` reduces; a seeded column is built only when a
    residue column holds its low."""
    unit_lows = [*seeds, *(low for low, col in pivots.items()
                           if low not in seeds and abs(col[low]) == 1)]
    invariants = [1] * len(unit_lows)
    residue_lows = [low for low, col in pivots.items() if abs(col[low]) != 1]
    if not residue_lows:
        return invariants, unit_lows
    unit_rows = sorted(unit_lows, reverse=True)
    residue = []
    for low in residue_lows:
        col = pivots[low]
        # descending, as clearing row r only touches rows below r
        for r in unit_rows:
            if r < low and r in col:
                _sub_multiple(col, col[r] * pivots[r][r], pivots[r])
        residue.append(col)
    rows = sorted(set().union(*residue))
    invariants += _smith_dense([[col.get(r, 0) for col in residue]
                                for r in rows])
    return invariants, unit_lows


def _smith_dense(matrix) -> list[int]:
    """Smith invariants of a dense integer matrix by row and column operations.

    Used on the non-unit residue of `_echelon_invariants`, and by the tests
    as its reference.
    """
    a = [[int(v) for v in row] for row in np.atleast_2d(np.asarray(matrix))]
    m = len(a)
    n = len(a[0]) if m else 0
    invariants = []
    top = 0
    while top < min(m, n):
        # find smallest nonzero entry in the working block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        pivot = a[top][top]
        dirty = False
        for i in range(top + 1, m):
            q = a[i][top] // pivot
            if q:
                for j in range(top, n):
                    a[i][j] -= q * a[top][j]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = a[top][j] // pivot
            if q:
                for i in range(top, m):
                    a[i][j] -= q * a[i][top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        offender = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, n):
                a[top][j] += a[offender][j]
            continue
        invariants.append(abs(pivot))
        top += 1
    return invariants


# ---------------------------------------------------------------------------
# sparse homology bases from augmented columns
# ---------------------------------------------------------------------------

class SparseHomology:
    """Basis of H_k = ker d_k / im d_{k+1} from sparse integer boundaries.

    One `_echelon` pass reduces d_{k+1}, then each column j of d_k
    augmented to [e_j; d_k e_j], with the d_k rows below the n chain rows.
    A column whose low falls among the chain rows is a kernel vector; if it
    stays nonzero, it is a class representative.  Lows only fall, so a
    column meets only augmented pivots until it is a kernel vector, and
    then only pivots of d_{k+1} and earlier representatives: the arithmetic
    of reducing all augmented columns first, the kernel vectors after.
    `express` reduces a cycle below b coordinate rows, where representative
    i carries a unit in row i.
    """

    def __init__(self, boundary_k: list[SparseCol],
                 boundary_k1: list[SparseCol]):
        n = len(boundary_k)
        augmented = [{j: 1, **_shifted(col, n)} for j, col in enumerate(boundary_k)]
        pivots, lows = _echelon(augmented, _Rationals, left=boundary_k1)
        lows = [low for low in lows.values() if low < n]
        self.reps: list[dict] = [pivots[low] for low in lows]
        b = len(lows)
        units = {low: {i: Fraction(1)} for i, low in enumerate(lows)}
        self._augmented = {low + b: {**units.get(low, {}), **_shifted(col, b)}
                           for low, col in pivots.items() if low < n}

    @property
    def betti(self) -> int:
        return len(self.reps)

    def express(self, cycle: SparseCol) -> list[Fraction]:
        """Coordinates of a cycle's class in the representative basis."""
        b = self.betti
        vec = _Rationals.entries(_shifted(cycle, b))
        # the chain rows reduce to zero exactly when cycle - sum(coordinate_i
        # * rep_i) is a boundary; the coordinate rows then hold -coordinates
        low = _reduce(vec, self._augmented, _Rationals)
        if low is not None and low >= b:
            raise ValueError("vector is not a cycle modulo boundaries")
        return [-vec.get(i, Fraction(0)) for i in range(b)]


# ---------------------------------------------------------------------------
# rank of an induced map without computing bases
# ---------------------------------------------------------------------------

def induced_map_rank(boundary_y_k1: list[SparseCol], chain_map_k: list[SparseCol],
                     boundary_x_k: list[SparseCol], rows_y_k: int,
                     p: Optional[int] = None) -> int:
    """Rank of H_k(f) over GF(p), or over Q when p is None, for a chain map
    f with degreewise matrix F_k.

    One lowest-row reduction of the block [[dY_{k+1}, F_k], [0, dX_k]],
    the dY_{k+1} columns first, gives all three ranks of the identity
        rank block = rank dY_{k+1} + rank dX_k + rank H_k(f).
    A right-hand column meets a pivot of the left block only once its dX
    rows are zero, so in those rows the right-hand columns undergo a
    reduction of dX_k alone: the right-hand pivots with low rows there
    number rank dX_k, and the others number rank H_k(f).  For any columns
    the count is dim (F(Z) + B) / B, with B the span of the left block and
    Z the cycles that the right one combines; `homology.induced_rank`
    passes fewer columns with the same B and F(Z) + B.
    """
    right = [{**col, **_shifted(dx, rows_y_k)}
             for col, dx in zip(chain_map_k, boundary_x_k)]
    _, lows = _echelon(right, _Unimodular if p is None else _ModP(p),
                       left=boundary_y_k1)
    return sum(low < rows_y_k for low in lows.values())

"""Exact linear algebra over Q, GF(p) and Z, on sparse columns.

Every rank, induced rank and homology basis comes from one column
reduction with lowest-row pivots (`_reduce`) and a field object, called
once per column or elimination, never per entry: unimodular integer
column operations for ranks over Q and for the Smith normal form, which
gives ranks and torsion over Z; mod p for GF(p); Fraction for homology
bases and coordinates in them.  Where a reduction must record its row
operations, the columns carry extra rows: a block matrix gives an induced
rank (`induced_map_rank`), augmented columns give kernel bases and
coordinates (`SparseHomology`).  Only the pivots whose low entries are
not units go on to a dense Smith form.  The lowest rows of the pivots
(`pivot_lows`, and the unit ones of `smith_pivots`) are what a cohomology
reduction clears in the next degree (`homology.betti_numbers`).  No
floating point is used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

SparseCol = dict  # row index -> nonzero coefficient


def to_sparse_columns(matrix: np.ndarray) -> list[SparseCol]:
    rows, cols = np.nonzero(matrix)
    out: list[SparseCol] = [dict() for _ in range(matrix.shape[1])]
    for r, c in zip(rows.tolist(), cols.tolist()):
        out[c][r] = int(matrix[r, c])
    return out


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, int(p ** 0.5) + 1))


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
    """Arithmetic in GF(p); pivot columns are scaled to a lowest entry 1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def entries(self, col: SparseCol) -> SparseCol:
        p = self.p
        return {r: v % p for r, v in col.items() if v % p}

    def make_pivot(self, col: SparseCol, low: int) -> None:
        p = self.p
        inv = pow(col[low], -1, p)
        for r in col:
            col[r] = col[r] * inv % p

    def eliminate(self, col: SparseCol, pivot_col: SparseCol, low: int) -> None:
        p = self.p
        factor = col[low]
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
    def make_pivot(col: SparseCol, low: int) -> None:
        """Pivot columns stay as reduced, so bases keep their coefficients."""

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
    def make_pivot(col: SparseCol, low: int) -> None:
        """Pivot columns keep their entries; their low entries may be non-units."""

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


def _extend_echelon(cols: list[SparseCol], pivots: dict, field) -> list[int]:
    """Reduce the columns in turn, adding the nonzero ones to pivots.

    Returns the lowest rows of the added columns.
    """
    lows = []
    for col in cols:
        low = _reduce(col, pivots, field)
        if low is not None:
            field.make_pivot(col, low)
            pivots[low] = col
            lows.append(low)
    return lows


def pivot_lows(matrix: list[SparseCol], p: Optional[int] = None) -> list[int]:
    """Lowest rows of the pivots of an integer matrix of sparse columns,
    reduced over GF(p), or over Q when p is None.

    Unimodular column operations keep the rank over Q, so the Smith
    reduction's field object serves there too.
    """
    field = _Unimodular if p is None else _ModP(p)
    return _extend_echelon([field.entries(c) for c in matrix], {}, field)


def rank_q(matrix: list[SparseCol]) -> int:
    """Exact rank over the rationals of an integer matrix of sparse columns."""
    return len(pivot_lows(matrix))


def rank_gfp(matrix: list[SparseCol], p: int) -> int:
    """Rank over GF(p)."""
    return len(pivot_lows(matrix, p))


# ---------------------------------------------------------------------------
# Smith normal form (sparse unimodular reduction, dense non-unit residue)
# ---------------------------------------------------------------------------

def smith_pivots(matrix: list[SparseCol]) -> tuple[list[int], list[int]]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix of
    sparse columns, and the lowest rows of its unit pivots.

    Unimodular column operations (`_Unimodular`) bring the columns to
    echelon form without changing the invariants.  A pivot whose low entry
    is a unit splits off an invariant 1: the other pivots can be cleared in
    its row by column operations, and then its own column by row
    operations.  The non-unit pivots, cleared in the unit rows, are the
    residue that `_smith_dense` reduces; usually there is none.  Only the
    unit lows may clear a column of the next coboundary over Z
    (`homology.betti_numbers`).
    """
    pivots: dict = {}
    _extend_echelon([_Unimodular.entries(c) for c in matrix], pivots, _Unimodular)
    units = {low: col for low, col in pivots.items() if abs(col[low]) == 1}
    unit_rows = sorted(units, reverse=True)
    residue = []
    for low, col in pivots.items():
        if low in units:
            continue
        # descending, as clearing row r only touches rows below r
        for r in unit_rows:
            if r < low and r in col:
                _sub_multiple(col, col[r] * units[r][r], units[r])
        residue.append(col)
    invariants = [1] * len(units)
    if residue:
        rows = sorted(set().union(*residue))
        invariants += _smith_dense([[col.get(r, 0) for col in residue]
                                    for r in rows])
    return invariants, list(units)


def smith_normal_form(matrix: list[SparseCol]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix of
    sparse columns (`smith_pivots`)."""
    return smith_pivots(matrix)[0]


def _smith_dense(matrix) -> list[int]:
    """Smith invariants of a dense integer matrix by row and column operations.

    Used on the non-unit residue of `smith_normal_form`, and by the tests
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

    Column j of d_k, augmented to [e_j; d_k e_j] with the d_k rows below
    the n chain rows, reduces to a kernel vector once its low falls among
    the chain rows.  The kernel vectors that stay independent modulo an
    echelon of d_{k+1} (and each other) are the class representatives,
    reduced as they go on that echelon.  `express` reduces a cycle below
    b coordinate rows, where representative i carries a unit in row i.
    """

    def __init__(self, boundary_k: list[SparseCol],
                 boundary_k1: list[SparseCol]):
        field = _Rationals
        echelon: dict[int, dict] = {}     # low row -> reduced column
        _extend_echelon([field.entries(c) for c in boundary_k1], echelon, field)
        n = len(boundary_k)
        pivots: dict = {}                 # pivots in the shifted d_k rows only
        kernel = []
        for j, col in enumerate(boundary_k):
            aug = field.entries({j: 1, **_shifted(col, n)})
            # never None: pivots come from earlier columns, so row j stays
            low = _reduce(aug, pivots, field)
            if low < n:
                kernel.append(aug)
            else:
                pivots[low] = aug
        lows = _extend_echelon(kernel, echelon, field)
        self.reps: list[dict] = [echelon[low] for low in lows]
        b = len(lows)
        units = {low: {i: Fraction(1)} for i, low in enumerate(lows)}
        self._augmented = {low + b: {**units.get(low, {}), **_shifted(col, b)}
                           for low, col in echelon.items()}

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
    number rank dX_k, and the others number rank H_k(f).
    """
    field = _Unimodular if p is None else _ModP(p)
    pivots: dict = {}
    _extend_echelon([field.entries(c) for c in boundary_y_k1], pivots, field)
    right = [field.entries({**col, **_shifted(dx, rows_y_k)})
             for col, dx in zip(chain_map_k, boundary_x_k)]
    return sum(low < rows_y_k for low in _extend_echelon(right, pivots, field))

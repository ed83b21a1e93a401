"""Exact linear algebra over the rationals: one incremental echelon kernel.

``Echelon`` keeps sparse rows ``{col: Fraction}`` in reduced row echelon form
and grows it one row at a time; ``rref``, ``in_span``, ``intersect_rowspaces``
and ``SpanSolver`` are views of it that speak in dense rows.  Negative
columns are passengers: they follow every row operation but never hold a
pivot, so a row can carry along what it is a combination of.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Row = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]
Vector = Union[Sequence, SparseRow]

_ZERO = Fraction(0)


def _sparse(vec: Vector) -> SparseRow:
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {k: Fraction(x) for k, x in items if x}


def _subtract(row: SparseRow, c: Fraction, other: SparseRow) -> None:
    """row -= c * other, in place; c is non-zero and rows store no zeros."""
    for k, x in other.items():
        y = row.get(k, _ZERO) - c * x
        if y:
            row[k] = y
        else:
            del row[k]


class Echelon:
    """Reduced row echelon form over Q, grown one row at a time.

    ``pivot_rows`` maps each pivot column to its row, in insertion order.  A
    row has 1 at its pivot and 0 at every other pivot column, so the rows are
    the unique RREF of the span of everything inserted so far."""

    __slots__ = ("ncols", "pivot_rows")

    def __init__(self, ncols: int, rows: Iterable[Vector] = ()):
        self.ncols = ncols
        self.pivot_rows: dict[int, SparseRow] = {}
        for r in rows:
            self.insert(r)

    def _residue(self, vec: SparseRow) -> SparseRow:
        # rows are reduced, so clearing one pivot leaves the others untouched
        out = dict(vec)
        for p, c in vec.items():
            row = self.pivot_rows.get(p)
            if row is not None:
                _subtract(out, c, row)
        return out

    def insert(self, vec: Vector) -> bool:
        """Add vec to the span; True when it brings a new pivot."""
        r = self._residue(_sparse(vec))
        p = min((k for k in r if k >= 0), default=None)
        if p is None:
            return False
        inv = r[p]
        if inv != 1:
            r = {k: x / inv for k, x in r.items()}
        for row in self.pivot_rows.values():
            c = row.get(p)
            if c:
                _subtract(row, c, r)
        self.pivot_rows[p] = r
        return True

    def reduce(self, vec: Vector) -> Row:
        """Dense residue of vec modulo the span."""
        res = self._residue(_sparse(vec))
        return tuple(res.get(k, _ZERO) for k in range(self.ncols))

    def __contains__(self, vec: Vector) -> bool:
        return all(k < 0 for k in self._residue(_sparse(vec)))

    def rows(self) -> list[Row]:
        """Dense RREF rows sorted by pivot (passengers dropped)."""
        cols = range(self.ncols)
        return [
            tuple(self.pivot_rows[p].get(k, _ZERO) for k in cols)
            for p in sorted(self.pivot_rows)
        ]


def rref(rows: Iterable[Sequence]) -> list[Row]:
    """Reduced row echelon form; zero rows dropped, rows sorted by pivot."""
    rows = list(rows)
    return Echelon(len(rows[0]), rows).rows() if rows else []


def in_span(vec: Sequence, rows: Sequence[Sequence]) -> bool:
    return vec in Echelon(len(vec), rows)


def intersect_rowspaces(rows_a: Sequence[Row], rows_b: Sequence[Row]) -> list[Row]:
    """Basis (RREF) of the intersection of two row spaces.

    Zassenhaus: reducing the rows [a | a] and [b | 0] leaves the rows whose
    pivot lies in the right half as [0 | x], with the x an RREF basis of
    A cap B."""
    if not rows_a or not rows_b:
        return []
    n = len(rows_a[0])
    ech = Echelon(2 * n)
    for a in rows_a:
        a = _sparse(a)
        ech.insert({**a, **{k + n: x for k, x in a.items()}})
    for b in rows_b:
        ech.insert(b)
    return [
        tuple(row.get(k, _ZERO) for k in range(n, 2 * n))
        for p, row in sorted(ech.pivot_rows.items())
        if p >= n
    ]


class SpanSolver(Echelon):
    """Express vectors as combinations of a fixed list of rows.  Row k
    carries passenger column -1 - k, so every stored row records which
    combination of the given rows it is."""

    __slots__ = ("nrows",)

    def __init__(self, rows: Sequence[Sequence]):
        rows = list(rows)
        super().__init__(len(rows[0]) if rows else 0)
        self.nrows = len(rows)
        for k, r in enumerate(rows):
            tagged = _sparse(r)
            tagged[-1 - k] = Fraction(1)
            self.insert(tagged)

    def coords(self, vec: Sequence) -> Optional[list[Fraction]]:
        """Coefficients over the original rows, or None if not in the span."""
        res = self._residue(_sparse(vec))
        if any(k >= 0 for k in res):
            return None
        return [-res.get(-1 - k, _ZERO) for k in range(self.nrows)]

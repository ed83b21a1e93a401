"""Exact linear algebra over the rationals on primitive integer rows: one
incremental echelon kernel.

A row is a sparse dict ``{col: int}``.  ``Echelon`` keeps its rows
canonical: each is primitive (the gcd of its entries is 1), positive at its
pivot (its least non-negative column) and zero at every other pivot column,
so ``row / row[pivot]`` is the unique RREF row.  Rows from outside (dense or
sparse, int or Fraction) have their denominators cleared once on entry;
elimination is ``a*row - c*pivot_row`` followed by division by the content,
and values become Fractions only where one is returned (``reduce``,
``SpanSolver.coords``, ``normalized``).  ``rref``, ``in_span``,
``intersect_rowspaces`` and ``SpanSolver`` are views of the kernel.

A batch of rows (``Echelon(rows)``, and so ``rref``, ``in_span`` on raw
rows and every ``GradedSubspace`` built from rows) is inserted in
descending pivot order.  A new pivot then usually lies left of every stored
row's support, and no stored row needs back-elimination.  When one does,
a column-occurrence index (column -> pivots of the stored rows nonzero
there, built on the first insert) names the rows to visit.  Entries go
stale when a row loses the column by cancellation; they are skipped, not
removed.

The kernel also owns sums and intersections of two canonical echelons.  An
echelon finds out once whether it spans unit vectors.  ``Echelon.sum``
returns the union when both sides do, and a copy of one side when the
other is empty.  When only one side does, it drops the unit columns from
the other side's rows, echelons what is left and adds the unit rows.
Otherwise it copies the larger side, sharing its rows, and inserts the
smaller one.  ``Echelon.intersect`` reads the answer off directly when both
sides are spans of unit vectors; when one side is, it re-eliminates only
the other side's rows that pivot on a unit column, with the unit columns
ordered last; otherwise it runs Zassenhaus on doubled rows.

Negative columns are passengers: they follow every row operation but never
hold a pivot, so a row can carry along what it is a combination of.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, KeysView, Optional, Sequence, Union

Row = dict[int, int]
Vector = Union[Sequence, dict]  # dense, or sparse {col: value}


def _integral(vec: Vector) -> tuple[int, Row]:
    """(den, den * vec) as a sparse integer row, den the lcm of the
    denominators of the entries of vec.  The envelope side uses it too:
    PBW straightening and envelope expansion carry integer numerators over
    one denominator."""
    sparse = isinstance(vec, dict)
    den = lcm(*[x.denominator for x in (vec.values() if sparse else vec)])
    items = vec.items() if sparse else enumerate(vec)
    if den == 1:
        return 1, {k: x.numerator for k, x in items if x}
    return den, {k: x.numerator * (den // x.denominator) for k, x in items if x}


def _subtract(row: Row, c: int, other: Row) -> None:
    """row -= c * other, in place; rows store no zeros."""
    for k, x in other.items():
        y = row.get(k, 0) - c * x
        if y:
            row[k] = y
        else:
            del row[k]


def _primitive(row: Row) -> Row:
    g = gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g != 1 else row


def pivot(row: Row) -> int:
    """The least non-negative column of a row, -1 if it has none."""
    p = min(row, default=-1)
    return p if p >= 0 else min((k for k in row if k >= 0), default=-1)


def _lead(vec: Vector) -> int:
    """Sort key of an input row: its pivot, or a column left of it when a
    sparse row stores a zero there (which costs time, not correctness)."""
    if isinstance(vec, dict):
        return pivot(vec)
    return next((k for k, x in enumerate(vec) if x), -1)


def _note(index: defaultdict[int, list[int]], q: int, cols: Iterable[int]) -> None:
    """Record in the column index that the row with pivot q is nonzero at
    the columns cols right of q."""
    for k in cols:
        if k > q:
            index[k].append(q)


def normalized(row: Row) -> dict[int, Fraction]:
    """row / row[pivot]: the RREF row of a canonical row, as Fractions."""
    a = row[pivot(row)]
    return {k: Fraction(x, a) for k, x in row.items()}


class Echelon:
    """Span of the rows inserted so far, kept as canonical integer rows.

    ``pivot_rows`` maps each pivot column to its row.  The rows are the
    unique RREF of the span, each scaled to a primitive integer row, so two
    echelons of one span (without passengers) are equal.  Rows are never
    changed after they are stored, so they may be shared; the column index
    belongs to one echelon and is never shared."""

    __slots__ = ("pivot_rows", "_index", "_unit")

    def __init__(self, rows: Iterable[Vector] = ()):
        self.pivot_rows: dict[int, Row] = {}
        # column -> pivots of the rows nonzero there, built on the first insert
        self._index: Optional[defaultdict[int, list[int]]] = None
        self._unit: Optional[bool] = None  # every row a unit vector? None: not looked yet
        self._extend(rows)

    @classmethod
    def _trusted(cls, pivot_rows: dict[int, Row], unit: Optional[bool] = None) -> "Echelon":
        """An echelon holding rows that are canonical already, keyed by
        pivot (unit: whether each is a unit vector, if known); its column
        index is built on the first insert."""
        out = object.__new__(cls)
        out.pivot_rows, out._index, out._unit = pivot_rows, None, unit
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Echelon) and self.pivot_rows == other.pivot_rows

    __hash__ = None

    def _residue(self, vec: Vector) -> tuple[int, Row]:
        """(m, m * (vec - its projection along the pivot rows)) with m > 0
        an integer making it integral.  The pivot rows are zero at each
        other's pivots, so the coefficient of each is read off vec."""
        den, vec = _integral(vec)
        rows = self.pivot_rows
        hits = [(c, rows[p], rows[p][p]) for p, c in vec.items() if p in rows]
        m = lcm(*[a // gcd(a, c) for c, _, a in hits])
        out = {k: m * x for k, x in vec.items()} if m != 1 else vec
        for c, row, a in hits:
            _subtract(out, c * m // a, row)
        return den * m, out

    def _extend(self, rows: Iterable[Vector]) -> None:
        """Insert rows in descending pivot order: each new pivot then lies
        left of every stored row's support unless the row's own pivot was
        eliminated."""
        for r in sorted(rows, key=_lead, reverse=True):
            self.insert(r)
        self._index = None  # most echelons stop growing here; rebuilt if not

    def insert(self, vec: Vector) -> bool:
        """Add vec to the span; True when it brings a new pivot."""
        r = self._residue(vec)[1]
        p = pivot(r)
        if p < 0:
            return False
        r = _primitive(r)
        if r[p] < 0:
            r = {k: -x for k, x in r.items()}
        a = r[p]
        rows, index = self.pivot_rows, self._index
        if index is None:
            index = self._index = defaultdict(list)
            for q, row in rows.items():
                _note(index, q, row)
        # the rows nonzero at p, all left of it; an entry is stale when its
        # row lost p by cancellation
        for q in index.pop(p, ()):
            old = rows[q]
            c = old.get(p)
            if c is None:
                continue
            g = gcd(a, c)
            row = {k: a // g * x for k, x in old.items()}
            _subtract(row, c // g, r)
            rows[q] = row = _primitive(row)
            _note(index, q, [k for k in r if k in row and k not in old])
        rows[p] = r
        _note(index, p, r)
        self._unit = None
        return True

    def __contains__(self, vec: Vector) -> bool:
        return all(k < 0 for k in self._residue(vec)[1])

    def rows(self) -> list[Row]:
        """The canonical rows, sorted by pivot."""
        return [self.pivot_rows[p] for p in sorted(self.pivot_rows)]

    def copy(self) -> "Echelon":
        """An echelon of the same span that may be grown; it shares the
        stored rows, which insert replaces but never changes, and builds
        its own column index."""
        return Echelon._trusted(dict(self.pivot_rows), self._unit)

    def _unit_columns(self) -> Optional[KeysView[int]]:
        """The pivots when every row is a unit vector (a span of
        coordinate vectors), else None; looked for once per echelon."""
        rows = self.pivot_rows
        if self._unit is None:  # rows are never empty
            self._unit = sum(map(len, rows.values())) == len(rows)
        return rows.keys() if self._unit else None

    def sum(self, other: "Echelon") -> "Echelon":
        """Span of both, which may be grown without changing either side."""
        if not other.pivot_rows:
            return self.copy()
        if not self.pivot_rows:
            return other.copy()
        mine, theirs = self._unit_columns(), other._unit_columns()
        if mine is not None and theirs is not None:
            return Echelon._trusted({**self.pivot_rows, **other.pivot_rows}, True)
        if mine is None and theirs is None:
            big, small = sorted((self, other), key=lambda e: len(e.pivot_rows), reverse=True)
            out = big.copy()
            out._extend(small.pivot_rows.values())
            return out
        # units + rest = units + (rest without the unit columns).  A rest
        # row that does not pivot on a unit column keeps its pivot and stays
        # zero at the other pivots; the others are eliminated again.
        unit, rest = (self, other) if mine is not None else (other, self)
        units = unit.pivot_rows
        left = [
            (q, r) for q, row in rest.pivot_rows.items()
            if (r := {k: x for k, x in row.items() if k not in units})
        ]
        if not left:
            return unit.copy()
        out = Echelon._trusted({q: _primitive(r) for q, r in left if q not in units})
        out._extend([r for q, r in left if q in units])
        out.pivot_rows.update(units)
        return out

    def intersect(self, other: "Echelon") -> "Echelon":
        """Intersection of the two spans; neither side may carry passengers.
        An empty side counts as unit rows on no column."""
        mine, theirs = self._unit_columns(), other._unit_columns()
        if mine is not None and theirs is not None:
            rows = other.pivot_rows
            return Echelon._trusted({p: rows[p] for p in mine if p in rows}, True)
        if mine is None and theirs is None:
            return _zassenhaus(self, other)
        units, rest = (mine, other) if mine is not None else (theirs, self)
        return _restrict(rest, units)


def rref(rows: Iterable[Vector]) -> list[Row]:
    """Canonical rows of the span of rows (zero rows dropped), sorted by
    pivot; ``normalized`` turns each into its RREF row."""
    return Echelon(rows).rows()


def in_span(vec: Vector, rows: Union[Echelon, Iterable[Vector]]) -> bool:
    """Is vec in the span of rows?  An Echelon is used as it is; other rows
    are reduced first."""
    return vec in (rows if isinstance(rows, Echelon) else Echelon(rows))


def intersect_rowspaces(rows_a: Iterable[Vector], rows_b: Iterable[Vector]) -> list[Row]:
    """Canonical rows of the intersection of two row spaces, sorted by pivot."""
    return Echelon(rows_a).intersect(Echelon(rows_b)).rows()


def _past_last_column(*echs: Echelon) -> int:
    return 1 + max(k for e in echs for r in e.pivot_rows.values() for k in r)


def _zassenhaus(a: Echelon, b: Echelon) -> Echelon:
    """A cap B: reducing the rows [a | a] and [b | 0] leaves the rows whose
    pivot lies in the right half as [0 | x], with the x canonical rows of
    A cap B (a primitive row stays primitive without its zero half)."""
    n = _past_last_column(a, b)
    # the doubled rows of a canonical A are canonical already
    ech = Echelon._trusted(
        {p: {**r, **{k + n: x for k, x in r.items()}} for p, r in a.pivot_rows.items()}
    )
    for r in b.pivot_rows.values():
        ech.insert(r)
    return _right_of(ech, n)


def _restrict(a: Echelon, units: set[int]) -> Echelon:
    """A cap span(e_k, k in units).  A combination of A's rows takes its
    coefficient of a row at that row's pivot, so only rows pivoting on a
    unit column can take part.  Reduce those with each unit column k moved
    to k + n, past every other column: the rows whose pivot is then at
    least n vanish off the unit columns and span the intersection.  The
    unit columns keep their order, so those rows are canonical once moved
    back."""
    n = _past_last_column(a)
    ech = Echelon()
    for p, r in a.pivot_rows.items():
        if p in units:
            ech.insert({k + n if k in units else k: x for k, x in r.items()})
    return _right_of(ech, n)


def _right_of(ech: Echelon, n: int) -> Echelon:
    """The rows of ech with pivot at least n, moved back by n."""
    return Echelon._trusted({
        p - n: {k - n: x for k, x in row.items()}
        for p, row in ech.pivot_rows.items()
        if p >= n
    })


class SpanSolver(Echelon):
    """Express vectors as combinations of a fixed list of rows.  Row k
    carries passenger column -1 - k, so every stored row records which
    combination of the given rows it is."""

    __slots__ = ("nrows",)

    def __init__(self, rows: Sequence[Vector]):
        super().__init__()
        self.nrows = len(rows)
        for k, r in enumerate(rows):
            tagged = dict(r.items() if isinstance(r, dict) else enumerate(r))
            tagged[-1 - k] = 1
            self.insert(tagged)
        self._index = None  # a solver is not grown any more

    def coords(self, vec: Vector) -> Optional[list[Fraction]]:
        """Coefficients over the original rows, or None if not in the span."""
        m, res = self._residue(vec)
        if any(k >= 0 for k in res):
            return None
        return [Fraction(-res.get(-1 - k, 0), m) for k in range(self.nrows)]

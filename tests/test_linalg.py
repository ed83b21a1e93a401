from copy import deepcopy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.lattice import hermite_normal_form, lattice_contains
from foxcalc.linalg import (
    Echelon,
    SpanSolver,
    _zassenhaus,
    in_span,
    intersect_rowspaces,
    normalized,
    rref,
)

SMALL_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# three zeros in four entries on average
SPARSE_ENTRIES = st.tuples(st.integers(0, 3), SMALL_RATIONALS).map(
    lambda t: t[1] if t[0] == 0 else Fraction(0)
)


def frac_matrix(rows, cols, entries=st.integers(-4, 4).map(Fraction), min_rows=None):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows if min_rows is None else min_rows,
        max_size=rows,
    )


def oracle_matrix(cols):
    """Dense or sparse matrices over small rationals, 1 to 5 rows."""
    return st.one_of(
        frac_matrix(5, cols, SMALL_RATIONALS, min_rows=1),
        frac_matrix(5, cols, SPARSE_ENTRIES, min_rows=1),
    )


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def dense(rows, ncols) -> list:
    """The RREF rows of canonical rows, dense."""
    return [tuple(normalized(r).get(k, Fraction(0)) for k in range(ncols)) for r in rows]


def sympy_rref(sympy, m) -> list:
    reduced, _ = sympy.Matrix(m).rref()
    rows = [
        tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
        for i in range(reduced.rows)
    ]
    return [r for r in rows if any(r)]


@given(frac_matrix(4, 3))
def test_rref_idempotent(m):
    r = rref(m)
    assert rref(list(r)) == r


@given(frac_matrix(3, 4))
def test_rows_in_own_span(m):
    r = rref(m)
    for row in m:
        assert in_span(row, r)


@given(frac_matrix(3, 4), frac_matrix(3, 4))
def test_intersection_contained_in_both(m1, m2):
    inter = intersect_rowspaces(rref(m1), rref(m2))
    for row in inter:
        assert in_span(row, rref(m1))
        assert in_span(row, rref(m2))


@given(frac_matrix(3, 4))
def test_reduce_vector_fixed_point(m):
    ech = Echelon(rref(m))
    for row in m:
        assert not ech._residue(row)[1]


@given(frac_matrix(3, 4))
def test_span_solver_coordinates(m):
    solver = SpanSolver(m)
    for row in m:
        coords = solver.coords(row)
        assert coords is not None
        rebuilt = [Fraction(0)] * 4
        for k, c in enumerate(coords):
            for i in range(4):
                rebuilt[i] += c * m[k][i]
        assert list(rebuilt) == list(map(Fraction, row))


@given(oracle_matrix(5))
def test_rref_matches_sympy(sympy, m):
    assert dense(rref(m), 5) == sympy_rref(sympy, m)


@given(oracle_matrix(4), st.randoms(use_true_random=False))
def test_echelon_rows_independent_of_insertion_order(sympy, m, rng):
    shuffled = list(m)
    rng.shuffle(shuffled)
    assert Echelon(shuffled).rows() == Echelon(m).rows()
    assert dense(Echelon(m).rows(), 4) == sympy_rref(sympy, m)


@given(oracle_matrix(4), st.lists(SMALL_RATIONALS.filter(bool), min_size=5, max_size=5))
def test_echelon_rows_are_canonical(m, scales):
    """Primitive integer rows, positive at the pivot, zero at the other
    pivots; rescaling the input changes nothing."""
    ech = Echelon(m)
    for p, row in ech.pivot_rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        assert not set(row) & (set(ech.pivot_rows) - {p})
    assert Echelon([[c * x for x in r] for c, r in zip(scales, m)]) == ech


def unit_rows(cols, ncols=4) -> list:
    return [[Fraction(int(k == c)) for k in range(ncols)] for c in sorted(cols)]


# one side of a sum or intersection: general rows, scaled unit rows on some
# columns (a span of coordinate vectors, the echelon's fast paths), or the
# empty and the full space
SIDES = st.one_of(
    oracle_matrix(4),
    st.tuples(st.sets(st.integers(0, 3)), SMALL_RATIONALS.filter(bool)).map(
        lambda t: [[t[1] * x for x in r] for r in unit_rows(t[0])]
    ),
    st.just([]),
    st.just(unit_rows(range(4))),
)


def sympy_rank(sympy, m) -> int:
    return sympy.Matrix(m).rank() if m else 0


@given(SIDES, SIDES, frac_matrix(2, 4))
def test_echelon_sum_matches_rref(sympy, m1, m2, more):
    a, b = Echelon(m1), Echelon(m2)
    before = deepcopy((a.pivot_rows, b.pivot_rows))
    total = a.sum(b)
    assert total == b.sum(a) == Echelon(m1 + m2)
    assert total.rows() == rref(m1 + m2)
    assert len(total.pivot_rows) == sympy_rank(sympy, m1 + m2)
    for row in more:  # the sum shares rows with its larger side: growing it changes neither side
        total.insert(row)
    assert (a.pivot_rows, b.pivot_rows) == before


@given(SIDES, SIDES)
def test_intersection_dimension_matches_sympy(sympy, m1, m2):
    a, b = Echelon(m1), Echelon(m2)
    inter = a.intersect(b)
    assert inter == b.intersect(a)
    assert intersect_rowspaces(m1, m2) == inter.rows()
    dim_sum = sympy_rank(sympy, m1 + m2)
    assert len(inter.pivot_rows) == len(a.pivot_rows) + len(b.pivot_rows) - dim_sum
    assert Echelon(inter.rows()) == inter  # canonical rows
    assert dense(inter.rows(), 4) == sympy_rref(sympy, dense(inter.rows(), 4))
    for row in inter.rows():
        assert row in a and row in b
    if a.pivot_rows and b.pivot_rows:  # the general path agrees with the unit-row ones
        assert inter == _zassenhaus(a, b)


def one_at_a_time(rows, ncols) -> list:
    """Dense RREF rows, sorted by pivot, from inserting one row at a time
    and back-eliminating every stored row: an oracle for the batch order
    and the column index."""
    stored = []
    for r in rows:
        v = [Fraction(r.get(k, 0)) for k in range(ncols)] if isinstance(r, dict) else list(map(Fraction, r))
        for p, s in stored:
            v = [x - v[p] * y for x, y in zip(v, s)]
        p = next((k for k, x in enumerate(v) if x), None)
        if p is None:
            continue
        v = [x / v[p] for x in v]
        stored = [(q, [x - s[p] * y for x, y in zip(s, v)]) for q, s in stored]
        stored.append((p, v))
    return [tuple(s) for _, s in sorted(stored)]


def as_dense(rows, ncols) -> list:
    return [[Fraction(r.get(k, 0)) for k in range(ncols)] if isinstance(r, dict) else r for r in rows]


# batches of up to 12 rows over 10 columns: scaled unit rows on a few
# columns, given sparse or dense, mixed with sparse rows
UNIT_HEAVY_ROWS = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 3), SMALL_RATIONALS.filter(bool)).map(lambda t: {t[0]: t[1]}),
        st.tuples(st.integers(0, 3), SMALL_RATIONALS.filter(bool)).map(
            lambda t: [t[1] if k == t[0] else Fraction(0) for k in range(10)]
        ),
        st.lists(SPARSE_ENTRIES, min_size=10, max_size=10),
    ),
    min_size=1,
    max_size=12,
)


@given(UNIT_HEAVY_ROWS)
def test_batch_matches_one_at_a_time(sympy, m):
    ech = Echelon(m)
    assert dense(ech.rows(), 10) == one_at_a_time(m, 10)
    assert len(ech.pivot_rows) == sympy_rank(sympy, as_dense(m, 10))
    grown = Echelon()
    for row in m:
        grown.insert(row)
    assert grown == ech


def test_stale_index_entry_is_skipped():
    """Row 0 loses column 3 by cancellation when the pivot 2 arrives, so
    the index still names it at column 3; the later pivot 3 must skip it."""
    ech = Echelon()
    rows = [{0: 1, 2: 1, 3: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}]
    for row in rows:
        ech.insert(row)
    assert ech.pivot_rows[0] == {0: 1} and 0 in ech._index[3]
    assert ech.insert({3: 1, 4: 2})
    rows.append({3: 1, 4: 2})
    assert ech.rows() == rref(rows)
    assert dense(ech.rows(), 5) == one_at_a_time(rows, 5)


def test_grown_copy_leaves_source_alone():
    source = Echelon()
    for row in ([1, 0, 2, 0, 1], [0, 1, 0, 3, 0], [0, 0, 1, 1, 1]):
        source.insert(row)
    probes = [[1, 1, 1, 1, 1], [0, 0, 0, 1, 0], [1, -1, 2, -3, 1]]
    before = deepcopy((source.pivot_rows, source._index))
    answers = [(source._residue(v), v in source) for v in probes]
    grown = source.copy()
    for row in ([0, 0, 0, 1, 0], [0, 0, 0, 0, 1]):
        assert grown.insert(row)
    assert len(grown.pivot_rows) == 5 and grown._index is not source._index
    assert (source.pivot_rows, source._index) == before
    assert [(source._residue(v), v in source) for v in probes] == answers


def test_unit_side_sum_never_inserts_unit_rows(monkeypatch):
    """R + N with N unit rows: only R's rows, without the unit columns,
    are eliminated (here the one pivoting on column 1); the unit rows are
    added as they are."""
    units = Echelon([{k: 1} for k in (1, 3, 4)])
    rest = Echelon([[1, 2, 0, 1, 0, 1], [0, 0, 1, 1, 1, 0], [0, 1, 0, 0, 0, 2]])
    inserted = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert", lambda self, row: inserted.append(dict(row)) or insert(self, row))
    for a, b in ((units, rest), (rest, units)):
        total = a.sum(b)
        assert 0 < len(inserted) <= len(rest.pivot_rows)
        assert not any(set(row) & {1, 3, 4} for row in inserted)
        assert total.rows() == rref(rest.rows() + units.rows())
        inserted.clear()


@given(oracle_matrix(4), st.lists(SMALL_RATIONALS, min_size=5, max_size=5))
def test_span_solver_coords_match_sympy(sympy, m, comb):
    solver = SpanSolver(m)
    vec = [sum((c * row[i] for c, row in zip(comb, m)), Fraction(0)) for i in range(4)]
    coords = solver.coords(vec)
    rebuilt = [sum((c * row[i] for c, row in zip(coords, m)), Fraction(0)) for i in range(4)]
    assert rebuilt == vec
    outside = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    in_span_by_rank = sympy.Matrix(m).rank() == sympy.Matrix(m + [outside]).rank()
    assert (solver.coords(outside) is not None) == in_span_by_rank


@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
)
def test_lattice_contains_combinations(rows, comb):
    h = hermite_normal_form(rows)
    v = [0, 0, 0]
    for c, row in zip(comb, rows):
        v = [a + c * b for a, b in zip(v, row)]
    assert lattice_contains(h, v)
    for row in rows:
        assert lattice_contains(h, row)


def test_lattice_membership_negative():
    h = hermite_normal_form([[2, 0], [0, 2]])
    assert lattice_contains(h, [4, 2])
    assert not lattice_contains(h, [1, 0])
    assert not lattice_contains(h, [2, 1])


@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=1, max_size=5),
       st.integers(1, 4))
@settings(max_examples=400)
def test_hnf_matches_sympy(sympy, rows, ncols):
    """sympy's HNF is column-style with pivots at the bottom right: reverse
    the columns, transpose, transpose back, then reverse columns and rows."""
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    rows = [r[:ncols] for r in rows]
    h = sympy_hnf(sympy.Matrix([r[::-1] for r in rows]).T).T
    want = [[int(x) for x in h.row(i)][::-1] for i in reversed(range(h.rows))]
    assert hermite_normal_form(rows) == [r for r in want if any(r)]


def test_hnf_shape():
    h = hermite_normal_form([[0, 0, 0], [3, 3, 3], [6, 0, 0]])
    pivots = [next(k for k, x in enumerate(r) if x) for r in h]
    assert pivots == sorted(pivots)
    assert all(r[p] > 0 for r, p in zip(h, pivots))

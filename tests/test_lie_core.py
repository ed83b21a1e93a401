import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foxcalc import lie_core
from foxcalc.fox_lie import commutator_subspace
from foxcalc.lincomb import sum_terms
from foxcalc.lie_core import (
    GradedSubspace,
    LieElt,
    bracket,
    expand_to_assoc,
    ideal_closure,
    leftnorm,
    lyndon_words,
    parse_lie,
    power_subspace,
    project_to_lyndon,
    standard_bracketing,
    subalgebra_closure,
    witt_dimension,
)

from conftest import coeffs, homogeneous_lie, lie_elts


def test_lyndon_counts_match_witt():
    for r in range(1, 4):
        for d in range(1, 7):
            assert len(lyndon_words(r, d)) == witt_dimension(r, d)


def test_lyndon_words_are_lex_sorted():
    for d in range(1, 6):
        ws = lyndon_words(3, d)
        assert list(ws) == sorted(ws)


@given(lie_elts(3, 3), lie_elts(3, 3), lie_elts(3, 3))
@settings(max_examples=60, deadline=None)
def test_jacobi(a, b, c):
    total = (
        bracket(a, bracket(b, c))
        + bracket(b, bracket(c, a))
        + bracket(c, bracket(a, b))
    )
    assert total.is_zero


@given(lie_elts(3, 6))
def test_expand_project_round_trip(a):
    assert project_to_lyndon(expand_to_assoc(a)) == a


@given(homogeneous_lie(3, 3), homogeneous_lie(3, 2))
def test_bracket_graded(a, b):
    c = bracket(a, b)
    assert c.is_zero or c.degrees() == [5]


def test_antisymmetry_and_bilinearity():
    a = parse_lie("y1 + [y1, y2]", 3)
    b = parse_lie("y3", 3)
    assert bracket(a, a).is_zero
    assert bracket(a, b) == -bracket(b, a)
    assert bracket(a + b, b) == bracket(a, b) + bracket(b, b)


@given(lie_elts(3, 5))
def test_format_parse_round_trip(a):
    assert parse_lie(str(a), 3) == a


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_lie("y4", 3)
    with pytest.raises(ValueError):
        parse_lie("[y1, y2", 3)


def test_standard_bracketing_examples():
    assert standard_bracketing((1,)) == 1
    assert standard_bracketing((1, 2)) == (1, 2)
    assert standard_bracketing((1, 1, 2)) == (1, (1, 2))


def test_leftnorm():
    y = [LieElt.gen(3, j) for j in (1, 2, 3)]
    assert leftnorm(y[0], [y[1], y[2]]) == bracket(bracket(y[0], y[1]), y[2])


def test_subalgebra_closure_free_factor():
    # the subalgebra on y1, y2 inside rank 3 is free of rank 2
    h = subalgebra_closure([LieElt.gen(3, 1), LieElt.gen(3, 2)], 3, 6)
    for d in range(1, 7):
        assert h.dim(d) == witt_dimension(2, d)


@pytest.mark.parametrize("rank, cutoff", [(2, 8), (3, 7), (4, 6)])
def test_closed_forms_match_closures(rank, cutoff):
    """F_K read off the Lyndon words over K, and gamma_l(F) = L_{>=l}, equal
    (with equal hashes) the bracket recurrence and iterated bracket spans.  A
    redundant bracket among the generators ([y, y] = 0 for one letter) keeps
    subalgebra_closure off the letter path."""
    y = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
    for size in range(1, rank + 1):
        for K in itertools.combinations(range(rank), size):
            letters = [y[j] for j in K]
            closed = subalgebra_closure(letters, rank, cutoff)
            extra = bracket(letters[0], letters[-1])
            closure = subalgebra_closure(letters + [extra], rank, cutoff)
            assert closed == closure and hash(closed) == hash(closure), K
            assert closed.dims() == {d: witt_dimension(size, d) for d in range(1, cutoff + 1)}
    full = GradedSubspace.full(rank, cutoff)
    chain = full
    for l in range(2, 5):
        chain = chain.bracket_span(full)
        closed = power_subspace(full, l)
        assert closed == chain and hash(closed) == hash(chain), l


def test_ideal_closure_examples():
    r = parse_lie("[y1, y3]", 3)
    big_r = ideal_closure([r], 3, 4)
    assert big_r.dim(2) == 1
    assert big_r.dim(3) == 3
    full = ideal_closure([LieElt.gen(3, 1)], 3, 3)
    # the ideal generated by y1: all Lyndon monomials involving letter 1
    assert full.dim(1) == 1
    assert full.dim(2) == 2


def test_power_subspace_dims():
    f2 = power_subspace(GradedSubspace.full(2, 6), 2)
    for d in range(1, 7):
        assert f2.dim(d) == (witt_dimension(2, d) if d >= 2 else 0)
    f22 = power_subspace(f2, 2)
    assert f22.dim(4) == 0  # the single degree-2 generator brackets to zero
    assert f22.dim(5) == 2


def test_graded_subspace_lattice_ops():
    full = GradedSubspace.full(2, 5)
    f2 = power_subspace(full, 2)
    h = subalgebra_closure([LieElt.gen(2, 1)], 2, 5)
    assert f2.sum(h) == h.sum(f2)
    assert f2.intersect(full) == f2
    assert h.intersect(f2).dim(1) == 0
    assert full.contains(f2)
    assert not f2.contains(full)
    assert not h.contains(f2) and not f2.contains(h)
    for d in range(1, 6):
        assert f2.sum(h).dim(d) + f2.intersect(h).dim(d) == f2.dim(d) + h.dim(d)


def test_bracket_span_nesting():
    full = GradedSubspace.full(2, 6)
    f2 = full.bracket_span(full)
    f3 = f2.bracket_span(full)
    assert f2.contains(f3)
    assert f2 == power_subspace(full, 2)


def envelope_bracket(a, b):
    """The bracket computed in the free associative algebra: the reference
    the Lyndon-word table is checked against."""
    pa, pb = expand_to_assoc(a), expand_to_assoc(b)
    return project_to_lyndon(pa * pb - pb * pa)


def lie_pairs(max_deg=6, max_terms=3):
    return st.integers(2, 4).flatmap(
        lambda r: st.tuples(lie_elts(r, max_deg, max_terms), lie_elts(r, max_deg, max_terms))
    )


@given(lie_pairs())
@settings(max_examples=60, deadline=None)
def test_bracket_matches_envelope(pair):
    a, b = pair
    assert bracket(a, b) == envelope_bracket(a, b)
    assert bracket(b, a) == envelope_bracket(b, a)
    assert bracket(a, a).is_zero and bracket(a + b, a) == envelope_bracket(b, a)


@given(lie_pairs(max_deg=4))
@settings(max_examples=40, deadline=None)
def test_bracket_does_not_depend_on_rank(pair):
    a, b = pair
    wide = bracket(LieElt(a.rank + 2, a.terms), LieElt(b.rank + 2, b.terms))
    assert wide.terms == envelope_bracket(a, b).terms


def test_bracket_table_is_integral():
    # every entry up to (rank, total degree) = (3, 8) and (4, 7): integers,
    # least word uv with coefficient 1, and equal to the envelope commutator
    # b(u)b(v) - b(v)b(u) (the expansion is injective on Lie elements, so
    # this is the projection round trip)
    expand = lie_core._expand_word
    pairs = set()
    for rank, top in ((3, 8), (4, 7)):
        words = sorted(w for d in range(1, top) for w in lyndon_words(rank, d))
        pairs.update((u, v) for u, v in itertools.combinations(words, 2) if len(u) + len(v) <= top)
    for u, v in pairs:
        entry = lie_core._bracket_words(u, v)
        assert all(type(k) is int and k and len(w) == len(u) + len(v) for w, k in entry)
        assert entry[0] == (u + v, 1) and list(entry) == sorted(entry)
        commutator = sum_terms(
            (m, s * c1 * c2)
            for m1, c1 in expand(u).items()
            for m2, c2 in expand(v).items()
            for m, s in ((m1 + m2, 1), (m2 + m1, -1))
        )
        assert sum_terms((m, c * k) for w, c in entry for m, k in expand(w).items()) == commutator


_WORD_CACHES = (lie_core._factor, lie_core.standard_bracketing, lie_core._expand_word, lie_core._bracket_words)


@pytest.fixture
def cleared_word_caches():
    for f in _WORD_CACHES:
        f.cache_clear()
    yield
    for f in _WORD_CACHES:
        f.cache_clear()


@pytest.mark.parametrize("shortest, match", [(3, "triangularity"), (2, "recursion")])
def test_bracket_table_swapped_factors_is_internal_error(monkeypatch, cleared_word_caches, shortest, match):
    # swapped factors flip the sign of b(u), so [b(112), b(2)] leads with
    # -b(1122); swapping degree-2 words too sends the rewriting round a
    # cycle.  Either way a broken invariant, not bad input (ValueError)
    factor = lie_core._factor
    monkeypatch.setattr(
        lie_core, "_factor", lambda w: factor(w)[::-1] if len(w) >= shortest else factor(w)
    )
    with pytest.raises(RuntimeError, match=match):
        bracket(LieElt(3, {(1, 1, 2): 1}), LieElt.gen(3, 2))


def test_bracket_table_never_expands(monkeypatch, cleared_word_caches):
    def expand(w):
        raise AssertionError(f"the bracket table expanded b{w}")

    monkeypatch.setattr(lie_core, "_expand_word", expand)
    words = sorted(w for d in range(1, 7) for w in lyndon_words(3, d))
    for u, v in itertools.combinations(words, 2):
        if len(u) + len(v) <= 7:
            lie_core._bracket_words(u, v)


def test_constructor_canonicalises_rows():
    line = GradedSubspace(2, 1, {1: [(2, 0)]})
    span = GradedSubspace.span([LieElt.gen(2, 1)], 2, 1)
    assert line == span and hash(line) == hash(span)
    assert GradedSubspace(2, 1, {1: [(1, 0), (2, 0)]}).dim(1) == 1
    assert GradedSubspace(2, 1, {1: [(0, 0)]}) == GradedSubspace.zero(2, 1)


def assert_canonical(space):
    """Every stored row is primitive, positive at its pivot and zero at the
    other pivots of its degree."""
    for ech in space.comp.values():
        for p, row in ech.pivot_rows.items():
            assert min(row) == p and row[p] > 0
            assert all(type(x) is int and x for x in row.values())
            assert gcd(*row.values()) == 1
            assert not set(row) & (set(ech.pivot_rows) - {p})


@given(
    st.lists(st.one_of(homogeneous_lie(3, 2), homogeneous_lie(3, 3), lie_elts(3, 4)), min_size=1, max_size=6),
    st.lists(coeffs(), min_size=6, max_size=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_span_independent_of_order_and_scale(elems, scales, rng):
    space = GradedSubspace.span(elems, 3, 5)
    assert_canonical(space)
    moved = [e.scale(c) for e, c in zip(elems, scales)]
    rng.shuffle(moved)
    other = GradedSubspace.span(moved, 3, 5)
    assert other == space and hash(other) == hash(space)


@given(st.lists(lie_elts(3, 4), min_size=1, max_size=4), st.lists(coeffs(), min_size=6, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_constructor_from_rescaled_rows(elems, scales, rng):
    space = GradedSubspace.span(elems, 3, 5)
    comp = {}
    for d in range(1, 6):
        comp[d] = [tuple(scales[k % 6] * x for x in row) for k, row in enumerate(space.rows(d))]
        rng.shuffle(comp[d])
    rebuilt = GradedSubspace(3, 5, comp)
    assert rebuilt == space and hash(rebuilt) == hash(space)


def left_normed(heads, gens, degree):
    """All non-zero left-normed brackets [h, g_1, .., g_k] of the given
    degree."""
    heads = [h for h in heads if not h.is_zero]
    out = [h for h in heads if h.max_degree() == degree]
    for h in heads:
        if h.max_degree() < degree:
            out += left_normed([bracket(h, g) for g in gens], gens, degree)
    return out


def oracle_rows(sympy, vectors):
    reduced, _ = sympy.Matrix(vectors).rref()
    rows = [tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i)) for i in range(reduced.rows)]
    return tuple(r for r in rows if any(r))


def oracle_intersection(sympy, a, b):
    """Vectors x.A = y.B from the null space of [A^T | -B^T]."""
    if not a or not b:
        return []
    ma, mb = sympy.Matrix(a), sympy.Matrix(b)
    null = sympy.Matrix.hstack(ma.T, -mb.T).nullspace()
    return [list((n[: ma.rows, :].T * ma).row(0)) for n in null]


@pytest.mark.parametrize(
    "rank, cutoff, relator", [(3, 5, "[y1, y3]"), (4, 4, "[y1, y4] + 2*[y2, y3]")]
)
def test_rows_match_sympy_rref(rank, cutoff, relator):
    """rows(d) of closures, power subspaces, sums and intersections against
    sympy's RREF of spanning vectors built from brackets alone."""
    sympy = pytest.importorskip("sympy")
    gens = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
    r = parse_lie(relator, rank)
    big_r = ideal_closure([r], rank, cutoff)
    h = subalgebra_closure(gens[:2], rank, cutoff)
    spaces = {
        "ideal": big_r,
        "subalgebra": h,
        "power": power_subspace(big_r, 2),
        "sum": h.sum(big_r),
        "intersection": h.intersect(big_r),
    }
    for d in range(1, cutoff + 1):
        words = lyndon_words(rank, d)

        def vecs(elements):
            return [[e.terms.get(w, 0) for w in words] for e in elements]

        span_r = vecs(left_normed([r], gens, d))
        span_h = vecs(left_normed(gens[:2], gens[:2], d))
        span_rr = vecs(
            bracket(a, b)
            for d1 in range(2, d - 1)
            for a in left_normed([r], gens, d1)
            for b in left_normed([r], gens, d - d1)
        )
        spanning = {
            "ideal": span_r,
            "subalgebra": span_h,
            "power": span_rr,
            "sum": span_r + span_h,
            "intersection": oracle_intersection(sympy, span_h, span_r),
        }
        for name, space in spaces.items():
            assert_canonical(space)
            want = oracle_rows(sympy, spanning[name]) if spanning[name] else ()
            assert space.rows(d) == want, (name, d)


def test_closures_refuse_another_rank():
    y1, y2 = LieElt.gen(2, 1), LieElt.gen(2, 2)
    rank_two = bracket(bracket(y1, y2), y2)
    for closure, elements in (
        (subalgebra_closure, [rank_two]),
        (subalgebra_closure, [LieElt.gen(5, 4)]),
        (subalgebra_closure, [LieElt.gen(3, 1), LieElt.gen(2, 2)]),
        (ideal_closure, [rank_two]),
    ):
        with pytest.raises(ValueError, match="rank mismatch"):
            closure(elements, 3, 4)


def components(exprs, rank):
    """The homogeneous components of the parsed expressions."""
    elements = [parse_lie(x, rank) for x in exprs]
    return [e.homogeneous(d) for e in elements for d in e.degrees()]


def bracket_trees(gens, cutoff):
    """Every non-zero bracket tree on homogeneous generators up to the cutoff."""
    trees = {d: [g for g in gens if g.max_degree() == d] for d in range(1, cutoff + 1)}
    for d in range(2, cutoff + 1):
        trees[d] += [
            c
            for i in range(1, d)
            for a in trees[i]
            for b in trees[d - i]
            if not (c := bracket(a, b)).is_zero
        ]
    return [t for ts in trees.values() for t in ts]


def assert_spanned_by(sympy, space, spanning):
    """space is the span of the homogeneous spanning elements: it equals
    GradedSubspace.span of them, hash included, and in every degree sympy
    finds its rows and the spanning vectors of rank dim alone."""
    want = GradedSubspace.span(spanning, space.rank, space.cutoff)
    assert space == want and hash(space) == hash(want)
    for d in range(1, space.cutoff + 1):
        words = lyndon_words(space.rank, d)
        vecs = [[e.terms.get(w, 0) for w in words] for e in spanning if e.max_degree() == d]
        rank = sympy.Matrix(vecs).rank() if vecs else 0
        assert space.dim(d) == rank, d
        if rank:
            assert sympy.Matrix(vecs + [list(r) for r in space.rows(d)]).rank() == rank, d


@pytest.mark.parametrize(
    "rank, cutoff, relator, gens, a_exprs, b_exprs",
    [
        (
            2, 6, "1/2*[y1, y2] - 2/3*[[y1, y2], y2]", ["[y1, y2]", "y1 - 1/2*y2"],
            ["y1 + 1/2*[y1, y2]", "y2 - [[y1, y2], y2]", "[[y1, y2], y1]"],
            ["y2", "3/2*[y1, y2] - [[y1, y2], y1]"],
        ),
        (
            3, 5, "[y1, y3] - 1/2*[y2, [y2, y3]]", ["[y1, y2]", "y1 + y3", "y2 - 2*y3"],
            ["y1 + 1/2*[y2, y3]", "y3 - [[y1, y2], y3]", "[y1, y2]"],
            ["y3", "[y1, y2] - 2/3*y2"],
        ),
    ],
)
def test_recurrence_matches_brute_force_spans(rank, cutoff, relator, gens, a_exprs, b_exprs):
    """ideal_closure against every left-normed [r_d, y_i1, .., y_ik],
    subalgebra_closure against every bracket tree, and bracket_span against
    every pairwise bracket of spanning sets, for A != B and for A = B."""
    sympy = pytest.importorskip("sympy")
    letters = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
    heads = components([relator], rank)
    ideal = [e for d in range(1, cutoff + 1) for e in left_normed(heads, letters, d)]
    assert_spanned_by(sympy, ideal_closure([parse_lie(relator, rank)], rank, cutoff), ideal)
    generators = [parse_lie(x, rank) for x in gens]
    trees = bracket_trees(generators, cutoff)
    assert_spanned_by(sympy, subalgebra_closure(generators, rank, cutoff), trees)
    a_span, b_span = components(a_exprs, rank), components(b_exprs, rank)
    a = GradedSubspace.span(a_span, rank, cutoff)
    b = GradedSubspace.span(b_span, rank, cutoff)
    for left, right, left_span, right_span in ((a, b, a_span, b_span), (a, a, a_span, a_span)):
        pairs = [
            bracket(x, y)
            for x in left_span
            for y in right_span
            if x.max_degree() + y.max_degree() <= cutoff
        ]
        assert_spanned_by(sympy, left.bracket_span(right), pairs)


def test_recurrence_brackets_integer_rows_once_per_pair(monkeypatch):
    """[N, N] for N = gamma_2 at rank 3 cutoff 5 brackets each unordered pair
    once: 3 pairs in degrees (2, 2) and 3 * 8 in (2, 3).  The ideal closure
    brackets canonical integer rows, never the relator's Fractions."""
    n = power_subspace(GradedSubspace.full(3, 5), 2)
    relator = parse_lie("1/2*[y1, y3] + 2/3*[[y1, y2], y3]", 3)
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(lie_core, "bracket", counting)
    commutator_subspace(n)
    assert len(calls) == 27
    calls.clear()
    ideal_closure([relator], 3, 5)
    assert calls
    assert all(type(c) is int for pair in calls for e in pair for c in e.terms.values())

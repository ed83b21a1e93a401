import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.assoc_env import (
    PBWContext,
    adapted_basis,
    ideal_context,
    is_ideal,
    reduce_mod_ideal,
)
from foxcalc.lie_core import (
    AssocPoly,
    GradedSubspace,
    LieElt,
    expand_to_assoc,
    ideal_closure,
    lie_from_vector,
    lie_vector,
    power_subspace,
    subalgebra_closure,
    witt_dimension,
)

from conftest import coeffs, lie_elts


def polys(rank, max_deg=4, max_terms=5):
    mono = st.lists(st.integers(1, rank), max_size=max_deg).map(tuple)
    pair = st.tuples(mono, coeffs())
    return st.lists(pair, max_size=max_terms).map(
        lambda ps: sum(
            (AssocPoly(rank, {m: Fraction(c)}) for m, c in ps),
            AssocPoly.zero(rank),
        )
    )


def chain_context(rank=2, cutoff=4):
    n = power_subspace(GradedSubspace.full(rank, cutoff), 2)
    return ideal_context(n), n


@given(polys(2, 4))
@settings(max_examples=50, deadline=None)
def test_rewrite_preserves_value(p):
    ctx, _ = chain_context()
    assert ctx.expand(ctx.rewrite(p.truncate(4))) == p.truncate(4)


def test_standard_monomials_span_with_pbw_dimension():
    ctx, _ = chain_context(2, 4)
    # rewriting all plain monomials of degree d yields vectors spanning a
    # space of dimension rank^d: standard monomials are a basis
    import itertools

    from foxcalc.linalg import rref

    for d in range(1, 4):
        rows = []
        for m in itertools.product((1, 2), repeat=d):
            rows.append(dict(ctx.rewrite(AssocPoly(2, {m: Fraction(1)}))))
        keys = sorted({k for r in rows for k in r})
        mat = [[r.get(k, Fraction(0)) for k in keys] for r in rows]
        assert len(rref(mat)) == 2 ** d


@given(polys(2, 3), polys(2, 3))
@settings(max_examples=40, deadline=None)
def test_reduce_mod_ideal_homomorphism(p, q):
    _, n = chain_context(2, 4)
    pq = (p * q).truncate(4)
    lhs = reduce_mod_ideal(pq, n)
    rhs = reduce_mod_ideal(
        (reduce_mod_ideal(p.truncate(4), n) * reduce_mod_ideal(q.truncate(4), n)).truncate(4), n
    )
    assert lhs == rhs


@given(lie_elts(2, 3), polys(2, 2))
@settings(max_examples=40, deadline=None)
def test_ideal_elements_reduce_to_zero(a, u):
    _, n = chain_context(2, 4)
    # strip the degree-1 part: what remains lies in N, so u * it is in N_U
    member = a - a.homogeneous(1)
    p = (u * expand_to_assoc(member)).truncate(4)
    assert reduce_mod_ideal(p, n).is_zero


def test_is_ideal():
    full = GradedSubspace.full(2, 4)
    f2 = power_subspace(full, 2)
    assert is_ideal(f2)
    h = subalgebra_closure([LieElt.gen(2, 1)], 2, 4)
    assert not is_ideal(h)


def _bracket_checked(n):
    """is_ideal on a copy of n that records nothing, so the bracket check runs."""
    copy = GradedSubspace._trusted(n.rank, n.cutoff, dict(n.comp))
    assert not copy.built_as_ideal
    return is_ideal(copy)


def test_ideal_record_agrees_with_the_bracket_check():
    """gamma_m(L) and ideal_closure record that they are ideals, and the
    bracket check agrees; subspaces built otherwise record nothing, and
    is_ideal gives the bracket check's answer for them, which is False for
    F_K and [F_K, F_K] (K a proper subset of at least two letters) and the
    span of an element of degree below the cutoff.  [F_K, F_K] for one
    letter is zero, an ideal the record does not know of."""
    rng = random.Random(21)
    seen = {True: 0, False: 0}
    for rank, cutoff in ((2, 5), (3, 4), (4, 3)):
        full = GradedSubspace.full(rank, cutoff)
        ideals = [power_subspace(full, m) for m in range(1, cutoff + 2)]
        for _ in range(3):
            d = rng.randint(1, 3)
            row = {k: rng.choice((-2, -1, 1, 3)) for k in range(witt_dimension(rank, d)) if rng.random() < 0.6}
            ideals.append(ideal_closure([lie_from_vector(rank, d, row or {0: 1})], rank, cutoff))
        for n in ideals:
            assert n.built_as_ideal and is_ideal(n) and _bracket_checked(n)
            seen[True] += 1
        K = rng.sample(range(1, rank + 1), rng.randint(min(2, rank - 1), rank - 1))
        fk = subalgebra_closure([LieElt.gen(rank, j) for j in K], rank, cutoff)
        d = rng.randint(1, cutoff - 1)
        row = {k: rng.choice((-2, -1, 1, 3)) for k in range(witt_dimension(rank, d))}
        others = [power_subspace(fk, m) for m in (1, 2)]
        others.append(GradedSubspace.span([lie_from_vector(rank, d, row)], rank, cutoff))
        others.append(_random_subspace(rng, rank, cutoff).sum(others[-1]))
        for x in others:
            want = _bracket_checked(x)
            assert not x.built_as_ideal and is_ideal(x) == want
            seen[want] += 1
        assert not any(map(_bracket_checked, others[:3] if len(K) > 1 else others[:3:2]))
    assert seen[False] >= 9 and seen[True] >= 20


def test_adapted_basis_orientations():
    cutoff = 4
    full = GradedSubspace.full(2, cutoff)
    f2 = power_subspace(full, 2)
    h = subalgebra_closure([LieElt.gen(2, 1)], 2, cutoff)
    basis = adapted_basis(f2, h, "dcba")
    blocks = [e.block for e in basis.elements]
    order = {b: i for i, b in enumerate("dcba")}
    assert [order[b] for b in blocks] == sorted(order[b] for b in blocks)


def _random_subspace(rng, rank, cutoff):
    """A power subspace, an F_K, or the subalgebra or ideal generated by
    random homogeneous elements."""
    full = GradedSubspace.full(rank, cutoff)
    kind = rng.randrange(4)
    if kind == 0:
        return power_subspace(full, rng.randint(1, 3))
    if kind == 1:
        K = rng.sample(range(1, rank + 1), rng.randint(0, rank))
        return subalgebra_closure([LieElt.gen(rank, j) for j in K], rank, cutoff)
    elements = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, 3)
        row = {k: rng.randint(-2, 2) for k in range(witt_dimension(rank, d)) if rng.random() < 0.6}
        if any(row.values()):
            elements.append(lie_from_vector(rank, d, row))
    closure = subalgebra_closure if kind == 2 else ideal_closure
    return closure(elements, rank, cutoff)


def test_adapted_basis_blocks_span_the_chain():
    """Per degree, span(a) = X cap Y, span(a, b) = X, span(a, b, c) = X + Y,
    span(a, c) = Y, and the four blocks together are a basis."""
    rng = random.Random(23)
    rank, cutoff = 3, 4

    def span(basis, blocks):
        comp = {}
        for e in basis.elements:
            if e.block in blocks:
                comp.setdefault(e.degree, []).append(lie_vector(e.value, e.degree))
        return GradedSubspace(rank, cutoff, comp)

    for _ in range(20):
        x, y = _random_subspace(rng, rank, cutoff), _random_subspace(rng, rank, cutoff)
        for orientation in ("abcd", "dcba"):
            basis = adapted_basis(x, y, orientation)
            assert span(basis, "a") == x.intersect(y)
            assert span(basis, "ab") == x
            assert span(basis, "abc") == x.sum(y)
            assert span(basis, "ac") == y
            assert span(basis, "abcd") == GradedSubspace.full(rank, cutoff)
            for d in range(1, cutoff + 1):
                assert sum(e.degree == d for e in basis.elements) == witt_dimension(rank, d)


def test_ideal_context_is_the_empty_subalgebra_context():
    from foxcalc.assoc_env import SubalgebraIdealContext

    _, n = chain_context()
    assert ideal_context(n) is SubalgebraIdealContext(n.rank, frozenset(), n).ctx


def test_adapted_basis_not_spanning_is_internal(monkeypatch):
    # the d block completes every degree; without it the span is short,
    # which is an internal fault (RuntimeError), not bad input
    import foxcalc.assoc_env as assoc_env

    zero = GradedSubspace.zero(2, 3)
    n = power_subspace(GradedSubspace.full(2, 3), 2)
    monkeypatch.setattr(assoc_env, "lyndon_words", lambda rank, d: ())
    with pytest.raises(RuntimeError, match="does not span"):
        PBWContext(adapted_basis(zero, n))


@given(polys(2, 4), polys(2, 4))
def test_parse_format_round_trip(p, q):
    """The printed form is canonical: a polynomial rebuilt from its terms in
    reverse order prints the same text, and two polynomials print alike
    only when they are equal."""
    assert str(AssocPoly(2, reversed(list(p.terms.items())))) == str(p)
    assert (str(p) == str(q)) == (p == q)


def test_parse_poly_examples():
    """Example polynomials and their printed forms, terms by degree."""
    p = AssocPoly(2, {(1, 2): 1, (2, 1): -1, (): 3})
    assert str(p) == "3 + x1*x2 - x2*x1"
    assert str(AssocPoly(2, {(): Fraction(-3, 2), (2, 1): 1})) == "- 3/2 + x2*x1"
    assert str(AssocPoly.zero(2)) == "0"


def test_poly_commutator_matches_lie_bracket():
    from foxcalc.lie_core import bracket, project_to_lyndon

    a, b = LieElt.gen(2, 1), LieElt.gen(2, 2)
    pa, pb = expand_to_assoc(a), expand_to_assoc(b)
    assert project_to_lyndon(pa * pb - pb * pa) == bracket(a, b)


# -- integer straightening against the step-by-step Fraction reference --


def _reference_rewrite(ctx, p):
    """Straightening as it ran on Fractions: every stack entry carries its
    coefficient, every swap and bracket multiplies Fractions."""
    from foxcalc.lie_core import bracket
    from foxcalc.lincomb import sum_terms

    gens = {j: ctx.coords_of_lie(LieElt.gen(ctx.rank, j)) for j in range(1, ctx.rank + 1)}

    def bracket_coords(i, j):
        b = bracket(ctx.basis.elements[i].value, ctx.basis.elements[j].value)
        return {} if b.is_zero or b.max_degree() > ctx.cutoff else ctx.coords_of_lie(b)

    stack, standard = [], []
    for word, coeff in p.terms.items():
        terms = [((), coeff)]
        for letter in word:
            terms = [(m + (k,), c * ck) for m, c in terms for k, ck in gens[letter].items()]
        stack.extend(terms)
    while stack:
        mono, coeff = stack.pop()
        bad = next((t for t in range(len(mono) - 1) if mono[t] > mono[t + 1]), None)
        if bad is None:
            standard.append((mono, coeff))
            continue
        i, j = mono[bad], mono[bad + 1]
        head, tail = mono[:bad], mono[bad + 2 :]
        stack.append((head + (j, i) + tail, coeff))
        for k, ck in bracket_coords(i, j).items():
            stack.append((head + (k,) + tail, coeff * ck))
    return sum_terms(standard)


def _random_coeff(rng):
    if rng.random() < 0.5:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([2, 3, 4, 9]))


def _random_poly(rng, rank, cutoff):
    terms = [((), _random_coeff(rng))] if rng.random() < 0.3 else []
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, cutoff)))
        terms.append((mono, _random_coeff(rng)))
    return AssocPoly(rank, terms)


# ideals whose adapted bases have bracket denominators {2, 3} and {3, 9, 27},
# and one whose generator rows have a denominator (y2 = (N - 2*y1) / 3)
_NONINTEGRAL_RELATORS = (
    "2*[y1, y2] + 3*[y1, y3]",
    "2*[y1, [y1, y2]] + 3*[y2, [y1, y3]]",
    "2*y1 + 3*y2",
)


@pytest.mark.parametrize("relator", _NONINTEGRAL_RELATORS)
@pytest.mark.parametrize("K", [frozenset(), frozenset({1, 2})])
def test_integer_rewrite_matches_fraction_reference(relator, K):
    from foxcalc.assoc_env import SubalgebraIdealContext
    from foxcalc.lie_core import parse_lie

    rank, cutoff = 3, 5
    n = ideal_closure([parse_lie(relator, rank)], rank, cutoff)
    ctx = SubalgebraIdealContext(rank, K, n).ctx
    rng = random.Random(f"{relator} {sorted(K)}")
    cases = [AssocPoly.zero(rank), AssocPoly.one(rank).scale(Fraction(-2, 3))]
    cases += [_random_poly(rng, rank, cutoff) for _ in range(40)]
    # "c" is the ideal side Y = a + c only while block a is empty
    has_a = "a" in ctx.block_of.values()
    drops = ("ac",) if has_a else ("c", "ac")
    for p in cases:
        want = _reference_rewrite(ctx, p)
        got = ctx.rewrite(p)
        assert got == want
        assert all(type(c) is Fraction and c for c in got.values())
        for drop in drops:
            assert ctx.rewrite(p, drop) == {
                m: c for m, c in want.items() if not any(ctx.block_of[k] in drop for k in m)
            }
        if has_a:
            with pytest.raises(ValueError):
                ctx.rewrite(p, "c")
        assert ctx.expand(got) == p
    # the non-integral bookkeeping was exercised, not only q = 1
    tables = ctx._bracket_rows if "[" in relator else ctx._gen_rows
    assert any(q > 1 for q, _ in tables.values())


def test_expand_to_assoc_matches_fraction_products():
    from foxcalc.lie_core import _expand_word, lyndon_words
    from foxcalc.lincomb import sum_terms

    rng = random.Random(5)
    for rank in (2, 3):
        words = [w for d in range(1, 6) for w in lyndon_words(rank, d)]
        cases = [LieElt.zero(rank)]
        cases += [
            LieElt(rank, {w: _random_coeff(rng) for w in rng.sample(words, rng.randint(1, 5))})
            for _ in range(60)
        ]
        for a in cases:
            want = sum_terms(
                (m, c * k) for w, c in a.terms.items() for m, k in _expand_word(w).items()
            )
            got = expand_to_assoc(a)
            assert got.terms == want
            assert all(type(c) is Fraction for c in got.terms.values())


# -- reduction modulo an ideal side: pruned residue against the full rewrite --


def _long_poly(rng, rank, cutoff):
    """One to three words of length 5 up to the cutoff."""
    return AssocPoly(
        rank,
        [
            (tuple(rng.randint(1, rank) for _ in range(rng.randint(5, cutoff))), _random_coeff(rng))
            for _ in range(rng.randint(1, 3))
        ],
    )


_CONTEXT_KINDS = ("ideal-gamma2", "ideal-gamma3", "ideal-rational", "K1", "K12", "dcba")


def _pbw_context(kind, cutoff):
    """(context, drop sets) for each kind of context the library builds at
    rank 3: ideal contexts, subalgebra contexts, and the "dcba" context of
    free_generating_set, which drops its side X = B."""
    from foxcalc.assoc_env import SubalgebraIdealContext
    from foxcalc.freiheit import _free_factor
    from foxcalc.lie_core import parse_lie

    rank = 3
    full = GradedSubspace.full(rank, cutoff)
    gamma2 = power_subspace(full, 2)
    if kind.startswith("ideal-"):
        n = {
            "gamma2": lambda: gamma2,
            "gamma3": lambda: power_subspace(full, 3),
            "rational": lambda: ideal_closure([parse_lie("2*[y1, y2] + 3*[y1, y3]", rank)], rank, cutoff),
        }[kind[len("ideal-"):]]()
        return ideal_context(n), ("c", "ac")
    if kind == "K1":  # F_{1} meets gamma_2 in 0: block a is empty
        return SubalgebraIdealContext(rank, frozenset({1}), gamma2).ctx, ("c", "ac")
    if kind == "K12":
        return SubalgebraIdealContext(rank, frozenset({1, 2}), gamma2).ctx, ("ac",)
    h = _free_factor(rank, None, cutoff)
    return PBWContext(adapted_basis(gamma2, h, "dcba")), ("ab",)


@pytest.mark.parametrize("cutoff", [6, 7])
@pytest.mark.parametrize("kind", _CONTEXT_KINDS)
def test_pruned_residue_matches_filtered_rewrite(kind, cutoff):
    """rewrite(p, drop) never builds a monomial holding a dropped symbol;
    it equals the full rewrite with those monomials filtered out, and the
    full rewrite equals the step-by-step Fraction reference."""
    ctx, drops = _pbw_context(kind, cutoff)
    rng = random.Random(f"{kind} {cutoff}")
    for _ in range(6):
        p = _long_poly(rng, ctx.rank, ctx.cutoff)
        want = _reference_rewrite(ctx, p)
        assert ctx.rewrite(p) == want
        for drop in drops:
            assert ctx.rewrite(p, drop) == {
                m: c for m, c in want.items() if not any(ctx.block_of[k] in drop for k in m)
            }


def test_bracket_term_with_a_c_symbol_left_of_a_b_symbol():
    """At K = {1, 2} over gamma_2, x3 x1 x1 is the monomial d b b: moving b
    past d brackets [y3, y1], a c element, into the c symbol left of the
    remaining b.  The residue drops that term as it is made; the full
    rewrite straightens it."""
    from foxcalc.assoc_env import SubalgebraIdealContext

    rank, cutoff = 3, 6
    n = power_subspace(GradedSubspace.full(rank, cutoff), 2)
    ctx = SubalgebraIdealContext(rank, frozenset({1, 2}), n).ctx
    p = AssocPoly(rank, {(3, 1, 1): Fraction(1)})
    full = ctx.rewrite(p)
    assert full == _reference_rewrite(ctx, p)
    assert any(ctx.monomial_blocks(m) in ("bc", "ac") for m in full)
    kept = {m: c for m, c in full.items() if set(ctx.monomial_blocks(m)) <= {"b", "d"}}
    assert ctx.rewrite(p, "ac") == kept
    assert ctx.rewrite(p, "ac") == {(ctx._gen_symbol[1], ctx._gen_symbol[1], ctx._gen_symbol[3]): 1}


def test_residue_refuses_a_drop_set_that_is_not_an_ideal_side():
    """Pruning is exact only for the blocks of one side of the chain that
    is an ideal of F; any other drop set raises ValueError."""
    from foxcalc.assoc_env import SubalgebraIdealContext

    rank, cutoff = 3, 5
    n = power_subspace(GradedSubspace.full(rank, cutoff), 2)
    ctx = SubalgebraIdealContext(rank, frozenset({1, 2}), n).ctx
    p = AssocPoly(rank, {(3, 1, 2): Fraction(1)})
    assert "a" in ctx.block_of.values()
    # b, d and their union name no side; c misses block a of Y; X = F_K
    # is a side but not an ideal; e names no block
    for drop in ("b", "d", "bd", "c", "ab", "abc", "e"):
        with pytest.raises(ValueError):
            ctx.rewrite(p, drop)
    assert ctx.rewrite(p, "ac") == ctx.rewrite(p, "ca")


# -- integer entry points of rewrite against the Fraction paths --


_ORACLE_CUTOFF = {3: 5, 4: 4}


def _oracle_ideal(rank, kind):
    """gamma_2, gamma_3 (the CLI's --ideal power:3) or an ideal with
    rational bracket denominators, at the rank's oracle cutoff."""
    from foxcalc.lie_core import parse_lie

    cutoff = _ORACLE_CUTOFF[rank]
    full = GradedSubspace.full(rank, cutoff)
    if kind == "rational":
        return ideal_closure([parse_lie("2*[y1, y2] + 3*[y1, y3]", rank)], rank, cutoff)
    return power_subspace(full, {"gamma2": 2, "gamma3": 3}[kind])


def _oracle_contexts(rank, kind):
    """(label, context, drop sets) for every kind of context the library
    builds over one ideal N: the ideal context, the subalgebra contexts of
    K = {1} and K = {1, 2}, and free_generating_set's "dcba" context."""
    from foxcalc.assoc_env import SubalgebraIdealContext
    from foxcalc.freiheit import _free_factor

    n = _oracle_ideal(rank, kind)
    out = [("ideal", ideal_context(n), ("c", "ac"))]
    for K in (frozenset({1}), frozenset({1, 2})):
        ctx = SubalgebraIdealContext(rank, K, n).ctx
        out.append((f"K={sorted(K)}", ctx, ("ac",) if "a" in ctx.block_of.values() else ("c", "ac")))
    h = _free_factor(rank, None, n.cutoff)
    out.append(("dcba", PBWContext(adapted_basis(n, h, "dcba")), ("ab",)))
    return out


def _filtered(ctx, coords, drop):
    return {m: c for m, c in coords.items() if not any(ctx.block_of[k] in drop for k in m)}


@pytest.mark.parametrize("kind", ["gamma2", "gamma3", "rational"])
@pytest.mark.parametrize("rank", [3, 4])
def test_integer_rewrite_entry_matches_fraction_reference(rank, kind):
    """rewrite((den, {word: n})), the entry the Lie Fox calculus uses,
    equals the step-by-step Fraction reference on p = sum n / den word,
    and its residues the filtered reference."""
    from foxcalc.linalg import _integral

    rng = random.Random(f"int-entry {rank} {kind}")
    for label, ctx, drops in _oracle_contexts(rank, kind):
        for _ in range(20):
            p = _random_poly(rng, rank, ctx.cutoff)
            want = _reference_rewrite(ctx, p)
            ints = _integral(p.terms)
            assert ctx.rewrite(ints) == want == ctx.rewrite(p), label
            for drop in drops:
                assert ctx.rewrite(ints, drop) == _filtered(ctx, want, drop), (label, drop)


def _random_parts(rng, ctx, count):
    """{j: {standard monomial: Fraction}} with every monomial of degree
    below the cutoff, so that x_j times it stays within it."""
    degree = {k: e.degree for k, e in enumerate(ctx.basis.elements)}
    symbols = list(degree)
    parts = {}
    for _ in range(count):
        mono, room = [], ctx.cutoff - 1
        while room and rng.random() < 0.75:
            fits = [k for k in symbols if degree[k] <= room]
            k = rng.choice(fits)
            mono.append(k)
            room -= degree[k]
        j = rng.randint(1, ctx.rank)
        parts.setdefault(j, {})[tuple(sorted(mono))] = _random_coeff(rng) or Fraction(1)
    return parts


@pytest.mark.parametrize("kind", ["gamma2", "gamma3", "rational"])
@pytest.mark.parametrize("rank", [3, 4])
def test_generator_products_fold_matches_expand_then_rewrite(rank, kind):
    """Putting x_j's generator row in front of standard monomials and
    straightening (the sigma slices' fold) gives what expanding the
    monomials into words, multiplying by x_j and rewriting gives."""
    rng = random.Random(f"insert {rank} {kind}")
    for label, ctx, drops in _oracle_contexts(rank, kind):
        for _ in range(12):
            parts = _random_parts(rng, ctx, rng.randint(1, 4))
            words = AssocPoly.zero(rank)
            for j, coords in parts.items():
                words = words + AssocPoly.gen(rank, j) * ctx.expand(coords)
            want = ctx.rewrite(words)
            assert ctx.rewrite(ctx.generator_products(parts)) == want, label
            for drop in drops:
                got = ctx.rewrite(ctx.generator_products(parts), drop)
                assert got == _filtered(ctx, want, drop), (label, drop)

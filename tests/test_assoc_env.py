from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.assoc_env import (
    AssocPoly,
    PBWContext,
    adapted_basis,
    format_poly,
    ideal_context,
    is_ideal,
    parse_poly,
    poly_commutator,
    reduce_mod_ideal,
)
from foxcalc.lie_core import (
    GradedSubspace,
    LieElt,
    expand_to_assoc,
    power_subspace,
    subalgebra_closure,
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


def test_adapted_basis_orientations():
    cutoff = 4
    full = GradedSubspace.full(2, cutoff)
    f2 = power_subspace(full, 2)
    h = subalgebra_closure([LieElt.gen(2, 1)], 2, cutoff)
    basis = adapted_basis((f2.intersect(h), f2, f2.sum(h)), "dcba", c_carrier=h)
    blocks = [e.block for e in basis.elements]
    order = {b: i for i, b in enumerate("dcba")}
    assert [order[b] for b in blocks] == sorted(order[b] for b in blocks)


@given(polys(2, 4))
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p), 2) == p


def test_parse_poly_examples():
    p = parse_poly("x1*x2 - x2*x1 + 3", 2)
    assert p.terms[()] == 3
    assert p.terms[(1, 2)] == 1
    assert p.terms[(2, 1)] == -1
    assert parse_poly("- 3/2 + x2*x1", 2) == AssocPoly(2, {(): Fraction(-3, 2), (2, 1): 1})
    # a sign must be followed by a term; a zero denominator is bad input
    for text in ("x1 - - x2", "x1 - + x2", "x1*x1 +", "1/0*x1"):
        with pytest.raises(ValueError):
            parse_poly(text, 2)


def test_poly_commutator_matches_lie_bracket():
    from foxcalc.lie_core import bracket, project_to_lyndon

    a, b = LieElt.gen(2, 1), LieElt.gen(2, 2)
    pc = poly_commutator(expand_to_assoc(a), expand_to_assoc(b))
    assert project_to_lyndon(pc) == bracket(a, b)

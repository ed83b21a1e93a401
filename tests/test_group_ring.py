import pytest
from hypothesis import given, strategies as st

from foxcalc.group_ring import (
    RingElt,
    abelianization_oracle,
    discrete_oracle,
    finite_index_oracle,
    free_nilpotent_oracle,
    parse_ring,
    reduce_mod,
    trivial_oracle,
)
from foxcalc.magnus import embed
from foxcalc.transversal import transversal_for
from foxcalc.words import Alphabet, invert, multiply

from conftest import FREE2, MIXED, words


def ring_elts(alphabet, max_terms=6):
    term = st.tuples(words(alphabet, 4), st.integers(-5, 5))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(
            (RingElt.from_word(w, c) for w, c in ts), RingElt.zero(alphabet)
        )
    )


@given(ring_elts(MIXED), ring_elts(MIXED))
def test_augmentation_multiplicative(a, b):
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


@given(ring_elts(MIXED), ring_elts(MIXED))
def test_reduce_mod_additive(a, b):
    q = abelianization_oracle(MIXED)
    ra, rb, rab = reduce_mod(a, q), reduce_mod(b, q), reduce_mod(a + b, q)
    merged = dict(ra)
    for k, c in rb.items():
        merged[k] = merged.get(k, 0) + c
        if not merged[k]:
            del merged[k]
    assert merged == rab


@given(ring_elts(MIXED))
def test_reduce_mod_discrete_injective(a):
    q = discrete_oracle(MIXED)
    assert reduce_mod(a, q) == {q.coset_key(w): c for w, c in a.terms.items()}
    assert (not a.is_zero) == bool(reduce_mod(a, q))


@given(words(FREE2, 6), words(FREE2, 6))
def test_nilpotent_oracle_matches_magnus(u, v):
    c = 2
    q = free_nilpotent_oracle(FREE2, c)
    same_key = q.coset_key(u) == q.coset_key(v)
    # keys agree iff uv^-1 has trivial Magnus image truncated at degree c
    w = multiply(u, invert(v))
    assert same_key == (embed(w, c) == embed(w, c).one(2, c))


@given(ring_elts(MIXED))
def test_format_parse_round_trip(a):
    assert parse_ring(str(a), MIXED) == a


def test_parse_examples():
    a = parse_ring("3*g1 g2 - 2*g2 + 1", MIXED)
    assert a.augmentation() == 2
    assert len(a.terms) == 3
    assert parse_ring("0", MIXED).is_zero or parse_ring("", MIXED).is_zero


def test_finite_index_oracle_validates_factor_orders():
    al = Alphabet(1, (3,))
    with pytest.raises(ValueError):
        # image of order 2 cannot host a generator of order 3
        finite_index_oracle(al, (2,), [(0,)], [(1,)])
    q = finite_index_oracle(al, (3,), [(0,)], [(1,)])
    assert q.finite_index


def test_trivial_oracle_everything_in_n():
    from foxcalc.words import parse_word

    q = trivial_oracle(MIXED)
    assert q.contains(parse_word("g1 a1 g2^-1", MIXED))


@given(words(MIXED, 4), ring_elts(MIXED))
def test_word_times_ring_element(w, r):
    assert w * r == RingElt.from_word(w) * r
    with pytest.raises(TypeError):
        w * 2


def test_reduce_mod_refuses_another_alphabet():
    from foxcalc.words import parse_word

    for q in (free_nilpotent_oracle(FREE2, 2), finite_index_oracle(FREE2, (2,), [(1,), (0,)])):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            reduce_mod(parse_ring("g1 - 2*g2", Alphabet(3)), q)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            q.coset_keys([parse_word("g1", FREE2), parse_word("g1", Alphabet(3))])


def test_oracle_keeps_one_transversal_per_sub_alphabet():
    q = finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])
    t1, t12, t0 = transversal_for(q, frozenset({1})), transversal_for(q, frozenset({1, 2})), transversal_for(q)
    assert t1.subalphabet == frozenset({1})
    assert t12.subalphabet == frozenset({1, 2})
    assert t0.subalphabet == frozenset()
    assert transversal_for(q, frozenset({1})) is t1 and transversal_for(q, frozenset()) is t0

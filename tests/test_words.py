import random

import pytest
from hypothesis import given, strategies as st

from foxcalc.words import (
    Alphabet,
    FactorLetter,
    FreeLetter,
    Word,
    commutator,
    conjugate,
    cyclically_reduce,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    reduce,
    shortlex_words,
    to_atomic,
    word_length,
)

from conftest import FREE2, MIXED, letter_pool, syllable_words, words


@given(st.lists(st.sampled_from(letter_pool(MIXED)), max_size=12))
def test_reduce_idempotent(letters):
    w = reduce(letters, MIXED)
    assert reduce(w.letters, MIXED) == w


@given(
    st.lists(st.sampled_from(letter_pool(MIXED)), max_size=6),
    st.lists(st.sampled_from(letter_pool(MIXED)), max_size=6),
)
def test_reduce_multiplication_compatible(ls1, ls2):
    assert reduce(ls1 + ls2, MIXED) == multiply(reduce(ls1, MIXED), reduce(ls2, MIXED))


@given(words(MIXED))
def test_inverse_laws(u):
    assert invert(invert(u)) == u
    assert multiply(u, invert(u)) == identity(MIXED)


@given(words(MIXED, 6))
def test_self_commutator_trivial(u):
    assert commutator(u, u) == identity(MIXED)


@given(words(MIXED, 5), words(MIXED, 5), words(MIXED, 5))
def test_conjugation_composes(u, s, t):
    assert conjugate(conjugate(u, s), t) == conjugate(u, multiply(s, t))


def test_factor_letter_order_relation():
    a = Word(MIXED, (FactorLetter(1, 1),))
    assert (a ** 5).is_identity
    assert a ** 4 == invert(a)


@given(words(MIXED))
def test_format_parse_round_trip(u):
    assert parse_word(format_word(u), MIXED) == u


def test_parse_examples():
    w = parse_word("g1^2 a1^3 g2^-1", MIXED)
    assert word_length(w) == 4
    assert parse_word("", MIXED).is_identity


@given(words(MIXED, 8))
def test_cyclic_reduction_decomposition(u):
    core, conj = cyclically_reduce(u)
    assert multiply(multiply(invert(conj), core), conj) == u
    atoms = to_atomic(core)
    if len(atoms) > 1:
        from foxcalc.words import letter_inverse

        assert letter_inverse(atoms[0], MIXED) != atoms[-1]


def test_shortlex_word_count():
    # reduced words of length <= 2 over a free group of rank 2
    ws = list(shortlex_words(FREE2, 2))
    assert len(ws) == 1 + 4 + 12
    lengths = [word_length(w) for w in ws]
    assert lengths == sorted(lengths)


def test_word_length_counts_syllables():
    w = parse_word("a1^4 g1^3", MIXED)
    assert word_length(w) == 4  # one factor syllable plus three free atoms


@pytest.mark.parametrize("alphabet", [FREE2, Alphabet(2, (5, 3))], ids=["free", "factors"])
def test_power_and_length_against_atoms(alphabet):
    """w ** n against |n| products by multiply, and the syllable count of
    word_length against the atomic expansion."""
    for w in syllable_words(random.Random(3), alphabet, 60):
        for n in range(-5, 6):
            step = w if n >= 0 else invert(w)
            want = identity(alphabet)
            for _ in range(abs(n)):
                want = multiply(want, step)
            assert w ** n == want
        assert word_length(w) == len(to_atomic(w))

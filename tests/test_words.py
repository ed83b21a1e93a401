import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from foxcalc.words import (
    Alphabet,
    FactorLetter,
    FreeLetter,
    Word,
    atomic_alphabet,
    commutator,
    conjugate,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    reduce,
    shortlex_key,
    shortlex_words,
    word_length,
)

from conftest import FREE2, MIXED, letter_pool, syllable_words, syllables, words
from oracles import to_atomic


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


def test_free_and_factor_letters_stay_apart():
    """Letters are tuples, so words hash them in C; a free and a factor
    syllable with the same index and exponent are still different."""
    g, a = FreeLetter(1, 2), FactorLetter(1, 2)
    assert g != a and len({g, a}) == 2
    assert (g.index, g.exp, a.index, a.exp) == (1, 2, 1, 2)
    assert Word(MIXED, (g,)) != Word(MIXED, (a,))
    back = pickle.loads(pickle.dumps(a))
    assert back == a and type(back) is FactorLetter
    assert repr(g) == "FreeLetter(index=1, exp=2)"


def test_word_hash_is_the_same_in_every_process():
    code = "from foxcalc.words import *; print(hash(parse_word('g1^2 a1^3 g2^-1', Alphabet(2, (5,)))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = {
        subprocess.run(
            [sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(out) == 1


@given(words(MIXED))
def test_format_parse_round_trip(u):
    assert parse_word(format_word(u), MIXED) == u


def test_parse_examples():
    w = parse_word("g1^2 a1^3 g2^-1", MIXED)
    assert word_length(w) == 4
    assert parse_word("", MIXED).is_identity


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


def _atomic_key(u):
    """Shortlex key by expanding u into atoms, one entry per atom."""
    idx = {a: k for k, a in enumerate(atomic_alphabet(u.alphabet))}
    atoms = to_atomic(u)
    return (len(atoms), tuple(idx[a] for a in atoms))


@pytest.mark.parametrize("alphabet", [FREE2, Alphabet(2, (5, 3))], ids=["free", "factors"])
def test_shortlex_key_orders_like_atom_expansion(alphabet):
    """The per-syllable key orders words exactly as their atom sequences:
    along the shortlex enumeration of all short words, and on products of
    a few shared heads with random tails (long runs, many equal-length
    words with common prefixes) sorted by the atom expansion."""
    rng = random.Random(11)
    heads = syllable_words(rng, alphabet, 6, max_syllables=3)
    tails = syllable_words(rng, alphabet, 40, max_syllables=3, max_exp=3)
    long_words = sorted({multiply(h, t) for h in heads for t in tails}, key=_atomic_key)
    for ws in (list(shortlex_words(alphabet, 4)), long_words):
        keys = [shortlex_key(w) for w in ws]
        # strictly increasing along a list in atom order: the orders agree on every pair
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(len(k[1]) == len(w.letters) for k, w in zip(keys, ws))  # one entry per syllable


MIXED3 = Alphabet(3, (5,))


@given(syllables(MIXED3), syllables(MIXED3), syllables(MIXED3), st.integers(0, 8))
def test_seam_multiply_matches_full_reduction(u, w, s, cut):
    """The seam-only product against reducing the concatenation.  v starts
    with the inverse of a tail of u, then w, so the seam cancels several
    syllables before it merges or stops."""
    tail = Word(MIXED3, u.letters[min(cut, len(u.letters)) :])
    v = reduce(invert(tail).letters + w.letters, MIXED3)
    for a, b in ((u, v), (u, w), (w, s), (u, invert(u)), (u, identity(MIXED3))):
        product = multiply(a, b)
        assert product == reduce(a.letters + b.letters, MIXED3)
        assert reduce(product.letters, MIXED3) == product


def test_seam_multiply_merges_factor_and_power_syllables():
    def w(text):
        return parse_word(text, MIXED3)

    assert multiply(w("g1 a1^3"), w("a1^2 g1")) == w("g1^2")
    assert multiply(w("g1 a1^3"), w("a1^4 g2")) == w("g1 a1^2 g2")
    assert multiply(w("g2 g1^3"), w("g1^-3 g2^-1 a1")) == w("a1")
    assert multiply(w("g2 g1^3"), w("g1^-1 g3")) == w("g2 g1^2 g3")


def test_multiply_refuses_another_alphabet():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        multiply(parse_word("g1", MIXED3), parse_word("g1", Alphabet(3)))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        multiply(identity(MIXED3), identity(MIXED))


@given(syllables(MIXED3), syllables(MIXED3))
def test_equal_words_hash_equal(u, v):
    by_multiply = multiply(u, v)
    by_reduce = reduce(u.letters + v.letters, MIXED3)
    fresh = Word(MIXED3, tuple(by_reduce.letters))
    assert by_multiply == by_reduce == fresh
    # the cached hash is the same before and after it is cached
    assert hash(by_multiply) == hash(by_reduce) == hash(fresh) == hash(by_multiply)
    assert {by_multiply: 1}[by_reduce] == 1
    assert len({by_multiply, by_reduce, fresh, invert(invert(by_reduce))}) == 1


@pytest.mark.parametrize("alphabet", [Alphabet(3), Alphabet(3, (5,)), Alphabet(2, (5, 3))])
def test_invert_against_reduce_of_inverse_syllables(alphabet):
    """invert writes each inverse syllable itself: it must be the reduced
    word of the reversed, negated syllables, factor exponents in 1..m-1."""
    for u in syllable_words(random.Random(8), alphabet, 200):
        inverse = [type(l)(l.index, -l.exp) for l in reversed(u.letters)]
        assert invert(u) == reduce(inverse, alphabet)

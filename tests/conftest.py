"""Shared hypothesis strategies and seeded generators: random words and Lie
elements."""
from fractions import Fraction

from hypothesis import strategies as st

from foxcalc.lie_core import LieElt, lyndon_words
from foxcalc.words import Alphabet, FactorLetter, FreeLetter, reduce

FREE2 = Alphabet(2)
FREE3 = Alphabet(3)
MIXED = Alphabet(2, (5,))  # two free generators, one cyclic factor of order 5


def letter_pool(alphabet):
    pool = []
    for i, m in enumerate(alphabet.factor_orders, start=1):
        pool.extend(FactorLetter(i, e) for e in range(1, m))
    for j in range(1, alphabet.free_rank + 1):
        pool.append(FreeLetter(j, 1))
        pool.append(FreeLetter(j, -1))
    return pool


def words(alphabet, max_len=8):
    return st.lists(
        st.sampled_from(letter_pool(alphabet)), max_size=max_len
    ).map(lambda ls: reduce(ls, alphabet))


def syllables(alphabet, max_len=8):
    """Reduced words from random syllables: free powers up to +-4 and every
    exponent of every factor, so that products merge as well as cancel."""
    slots = [
        st.builds(FactorLetter, st.just(i), st.integers(1, m - 1))
        for i, m in enumerate(alphabet.factor_orders, start=1)
    ]
    if alphabet.free_rank:
        slots.append(
            st.builds(
                FreeLetter,
                st.integers(1, alphabet.free_rank),
                st.integers(-4, 4).filter(bool),
            )
        )
    return st.lists(st.one_of(slots), max_size=max_len).map(
        lambda ls: reduce(ls, alphabet)
    )


def syllable_words(rng, alphabet, count, max_syllables=8, max_exp=4):
    """``count`` reduced words, each from up to ``max_syllables`` random
    syllables with exponents in +-1..+-max_exp, so that powers reach the
    code paths the atomic strategy above builds only by merging."""
    slots = [(FactorLetter, i) for i in range(1, alphabet.n_factors + 1)]
    slots += [(FreeLetter, j) for j in range(1, alphabet.free_rank + 1)]
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    out = []
    for _ in range(count):
        syllables = [
            kind(idx, rng.choice(exps))
            for kind, idx in (
                rng.choice(slots) for _ in range(rng.randrange(max_syllables + 1))
            )
        ]
        out.append(reduce(syllables, alphabet))
    return out


def coeffs():
    return st.fractions(
        min_value=-3, max_value=3, max_denominator=2
    ).filter(lambda c: c != 0)


def lie_elts(rank, max_deg=5, max_terms=4):
    pool = [w for d in range(1, max_deg + 1) for w in lyndon_words(rank, d)]
    pair = st.tuples(st.sampled_from(pool), coeffs())
    return st.lists(pair, max_size=max_terms).map(
        lambda ps: sum(
            (LieElt(rank, {w: Fraction(c)}) for w, c in ps), LieElt.zero(rank)
        )
    )


def homogeneous_lie(rank, degree, max_terms=4):
    pool = list(lyndon_words(rank, degree))
    pair = st.tuples(st.sampled_from(pool), coeffs())
    return st.lists(pair, max_size=max_terms).map(
        lambda ps: sum(
            (LieElt(rank, {w: Fraction(c)}) for w, c in ps), LieElt.zero(rank)
        )
    )

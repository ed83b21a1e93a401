import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.fox_group import fox_derivative, free_index
from foxcalc.magnus import (
    TruncSeries,
    _binomials,
    _syllable_times,
    embed,
    embed_ring,
    embed_words,
    gamma_weight,
)
from foxcalc.group_ring import free_nilpotent_oracle, reduce_mod
from foxcalc.words import (
    Alphabet,
    FreeLetter,
    Word,
    commutator,
    identity,
    multiply,
    parse_word,
)

from conftest import FREE2, FREE3, syllable_words, syllables, words
from oracles import ideal_weight, series_mul


@given(words(FREE2, 8), words(FREE2, 8))
@settings(max_examples=60)
def test_embed_homomorphism(u, v):
    d = 5
    assert embed(multiply(u, v), d) == series_mul(embed(u, d), embed(v, d))


@given(words(FREE2, 6))
def test_embed_inverse(u):
    d = 4
    one = embed(identity(FREE2), d)
    from foxcalc.words import invert

    assert series_mul(embed(u, d), embed(invert(u), d)) == one


@given(words(FREE2, 5), words(FREE2, 5))
@settings(max_examples=60)
def test_gamma_weight_filtration(u, v):
    d = 6
    wu, wv = gamma_weight(u, d), gamma_weight(v, d)
    wc = gamma_weight(commutator(u, v), d)
    if wu is not None and wv is not None and wu + wv <= d:
        assert wc is None or wc >= wu + wv


def left_normed_commutators(rank, weight):
    """Basic left-normed commutators [[..[g_{i1}, g_{i2}], ...], g_{in}]
    with i1 > i2 <= i3 <= ... <= in."""
    al = Alphabet(rank)
    gens = {j: Word(al, (FreeLetter(j, 1),)) for j in range(1, rank + 1)}
    if weight == 1:
        for j in gens:
            yield gens[j]
        return
    for i1, i2 in itertools.permutations(range(1, rank + 1), 2):
        if i1 <= i2:
            continue
        for rest in itertools.combinations_with_replacement(
            range(i2, rank + 1), weight - 2
        ):
            w = commutator(gens[i1], gens[i2])
            for i in rest:
                w = commutator(w, gens[i])
            yield w


def test_basic_commutator_weights():
    for n in range(2, 5):
        for w in left_normed_commutators(3, n):
            assert gamma_weight(w, n) == n


def test_fox_weight_link():
    # gamma weight n forces every derivative into the (n-1)-st ideal power,
    # with equality attained
    for n in range(2, 5):
        for w in left_normed_commutators(3, n):
            weights = [
                ideal_weight(fox_derivative(w, free_index(j)), n)
                for j in range(1, 4)
            ]
            assert all(x is None or x >= n - 1 for x in weights)
            assert any(x == n - 1 for x in weights)


def test_gamma_weight_censoring():
    w = commutator(
        Word(FREE2, (FreeLetter(1, 1),)), Word(FREE2, (FreeLetter(2, 1),))
    )
    assert gamma_weight(w, 1) is None  # beyond the cutoff: censored
    assert gamma_weight(w, 2) == 2
    assert gamma_weight(identity(FREE2), 3) is None


def test_embed_ring_and_format():
    a = embed_ring(
        fox_derivative(
            commutator(
                Word(FREE2, (FreeLetter(1, 1),)), Word(FREE2, (FreeLetter(2, 1),))
            ),
            free_index(1),
        ),
        3,
    )
    assert ideal_weight(fox_derivative(Word(FREE2, (FreeLetter(1, 1),)), free_index(1)), 3) == 0
    # D_1(g1^-1 g2^-1 g1 g2) = g2 - g1^-1 g2^-1 g1 g2, printed in degree order
    assert str(a) == "x2 - x1*x2 + x2*x1 + x1*x1*x2 - x1*x2*x1 + x2*x1*x2 - x2*x2*x1"


def test_gen_power_closed_form_against_products():
    """The binomial series for (1 + x_j)^e against |e| products of the
    images of g_j^{+-1}, themselves pinned to 1 + x_j and its inverse."""
    for rank in (1, 2, 3):
        al = Alphabet(rank)
        for cutoff in range(7):
            one = TruncSeries.one(rank, cutoff)
            for j in range(1, rank + 1):
                up = embed(Word(al, (FreeLetter(j, 1),)), cutoff)
                down = embed(Word(al, (FreeLetter(j, -1),)), cutoff)
                assert up == one + TruncSeries.gen(rank, cutoff, j)
                assert series_mul(up, down) == one and series_mul(down, up) == one
                for e in range(-7, 8):
                    want = one
                    for _ in range(abs(e)):
                        want = series_mul(want, up if e > 0 else down)
                    syllable = (FreeLetter(j, e),) if e else ()
                    assert embed(Word(al, syllable), cutoff) == want


def _closed_form(rank, cutoff, j, e):
    """(1 + x_j)^e up to the cutoff, from the generalised binomial."""
    return TruncSeries(
        rank,
        cutoff,
        {
            (j,) * k: math.comb(e, k) if e > 0 else (-1) ** k * math.comb(k - e - 1, k)
            for k in range(cutoff + 1)
        },
    )


def _product_embed(w, cutoff):
    """The generic path: closed-form syllable series multiplied left to
    right through series_mul."""
    rank = w.alphabet.free_rank
    out = TruncSeries.one(rank, cutoff)
    for letter in w.letters:
        out = series_mul(out, _closed_form(rank, cutoff, letter.index, letter.exp))
    return out


def test_syllable_product_against_generic_product():
    """(1 + x_j)^e * s by the syllable product against series_mul
    of the closed-form image, on images s of random words and on
    s = M(g_j^-e v), where the product cancels back to M(v)."""
    rng = random.Random(27)
    exps = [*range(-5, 0), *range(1, 6)]
    for rank in (1, 2, 3):
        al = Alphabet(rank)
        for cutoff in range(7):
            for v in syllable_words(rng, al, 3, max_syllables=5):
                for j in range(1, rank + 1):
                    for e in exps:
                        syllable = _closed_form(rank, cutoff, j, e)
                        undo = multiply(Word(al, (FreeLetter(j, -e),)), v)
                        for s in (embed(v, cutoff), embed(undo, cutoff)):
                            got = _syllable_times(j, _binomials(e, cutoff), s.terms, cutoff)
                            assert got == series_mul(syllable, s).terms
                        assert got == embed(v, cutoff).terms


def _shared_suffix_batch(v):
    """v, every suffix of v, and every term word of v's Fox derivatives:
    words that share v's suffixes, as reduce_mod hands them to an oracle."""
    al = v.alphabet
    batch = [v] + [Word(al, v.letters[t:]) for t in range(len(v.letters) + 1)]
    for j in range(1, al.free_rank + 1):
        batch.extend(fox_derivative(v, free_index(j)).terms)
    return batch + batch[:3]


@given(syllables(FREE3, 10), st.integers(0, 4))
@settings(max_examples=60)
def test_embed_words_matches_generic_product(v, cutoff):
    batch = _shared_suffix_batch(v)
    images = embed_words(batch, cutoff)
    assert images == [_product_embed(w, cutoff) for w in batch]
    assert images == [embed(w, cutoff) for w in batch]
    # equal words get images of their own: clearing the first image of v
    # leaves its repeat at the end of the batch alone
    images[0].terms.clear()
    assert batch[len(batch) - 3] == v
    assert images[len(batch) - 3] == _product_embed(v, cutoff)


@given(syllables(FREE3, 10), st.integers(1, 3))
@settings(max_examples=60)
def test_batch_nilpotent_keys_match_embed_word_by_word(v, nil_class):
    q = free_nilpotent_oracle(FREE3, nil_class)
    batch = _shared_suffix_batch(v)
    keys = q.coset_keys(batch)
    assert keys == [tuple(sorted(embed(w, nil_class).terms.items())) for w in batch]
    assert keys == [q.coset_key(w) for w in batch]
    a = fox_derivative(v, free_index(1))
    want: dict = {}
    for w, c in a.terms.items():
        want[q.coset_key(w)] = want.get(q.coset_key(w), 0) + c
    assert reduce_mod(a, q) == {k: c for k, c in want.items() if c}


def test_embedding_refuses_images_past_the_budget():
    """A running image past the letter budget (monomials times cutoff) is
    refused as it grows, also for one syllable at a high degree and through
    the nilpotent oracle's keys; a short word at a high class answers."""
    al = Alphabet(3)
    hostile = parse_word("g1^-1 g2^-1 g3^-1 " * 4, al)
    with pytest.raises(ValueError, match="monomials"):
        embed(hostile, 20)
    with pytest.raises(ValueError, match="monomials"):
        free_nilpotent_oracle(al, 20).coset_keys([hostile, identity(al)])
    with pytest.raises(ValueError, match="monomials"):
        embed(Word(al, (FreeLetter(1, -1),)), 5000)
    g1, g2 = (Word(al, (FreeLetter(j, 1),)) for j in (1, 2))
    assert gamma_weight(commutator(g1, g2), 20) == 2
    cube = embed(Word(al, (FreeLetter(2, 3),)), 10**5)
    assert cube.terms == {(): 1, (2,): 3, (2, 2): 3, (2, 2, 2): 1}

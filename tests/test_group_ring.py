import random
from math import gcd

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
from foxcalc.words import (
    Alphabet,
    FreeLetter,
    Word,
    identity,
    invert,
    multiply,
    reduce,
)

from conftest import FREE2, MIXED, syllable_words, words

# the alphabets of the group-criteria benchmark
F3, F3_Z5 = Alphabet(3), Alphabet(3, (5,))


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


def _product_by_reduce(a, b) -> dict:
    """a b summed by hand: each pair of words by reduce of its concatenated
    letters, zero sums dropped."""
    out: dict = {}
    for u, cu in a.terms.items():
        for v, cv in b.terms.items():
            w = reduce(u.letters + v.letters, u.alphabet)
            out[w] = out.get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c}


def _right_factors(rng, u: Word) -> list[Word]:
    """Words that meet u at the junction: its inverse (the product is 1),
    the inverse of a suffix followed by a random word (cancellation part
    way), a syllable in the slot of u's last one (merging, for a factor
    syllable mod its order), and a random word."""
    al = u.alphabet
    out = [invert(u), syllable_words(rng, al, 1)[0]]
    if u.letters:
        cut = rng.randrange(len(u.letters))
        tail = Word(al, u.letters[cut:])
        out.append(multiply(invert(tail), syllable_words(rng, al, 1)[0]))
        last = u.letters[-1]
        e = rng.randrange(1, 8)
        out.append(reduce([type(last)(last[0], e)], al))
    return out


@pytest.mark.parametrize("al", [F3, F3_Z5])
def test_product_against_reduce_of_concatenation(al):
    rng = random.Random(11)
    seen = {"identity": 0, "merged": 0, "cancelled": 0}
    for _ in range(150):
        us = syllable_words(rng, al, 3)
        vs = [v for u in us for v in _right_factors(rng, u)]
        a = RingElt(al, [(u, rng.choice((-3, -1, 1, 2))) for u in us])
        b = RingElt(al, [(v, rng.choice((-2, 1, 3))) for v in vs])
        assert (a * b).terms == _product_by_reduce(a, b)
        for v in vs:
            assert (a * v).terms == _product_by_reduce(a, RingElt.from_word(v))
        for u in us:
            for v in vs:
                w = multiply(u, v)
                seen["identity"] += w.is_identity
                seen["cancelled"] += len(w.letters) < len(u.letters) + len(v.letters) - 1
                seen["merged"] += len(w.letters) == len(u.letters) + len(v.letters) - 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("al", [F3, F3_Z5])
def test_product_drops_sums_that_cancel(al):
    """(x + y)(x^-1 w - y^-1 w): the two products equal to w cancel."""
    rng = random.Random(12)
    for _ in range(50):
        x, y, w = syllable_words(rng, al, 3)
        if len({x, y}) < 2 or w in (multiply(x, invert(y)), multiply(y, invert(x))):
            continue
        a = RingElt(al, {x: 1, y: 1})
        b = RingElt(al, [(multiply(invert(x), w), 1), (multiply(invert(y), w), -1)])
        product = a * b
        assert w not in product.terms
        assert product.terms == _product_by_reduce(a, b)


def test_products_across_alphabets_raise():
    a = RingElt.from_word(Word(F3, (FreeLetter(1, 1),)), 2)
    other = Word(F3_Z5, (FreeLetter(1, 1),))
    with pytest.raises(ValueError):
        a * other
    with pytest.raises(ValueError):
        a * RingElt.from_word(other)
    with pytest.raises(ValueError):
        other * a


def _abel_key_per_letter(w: Word, kill_factors: bool):
    """The abelianization key summed letter by letter, the reference for
    the one-pass key."""
    al = w.alphabet
    free, fac = [0] * al.free_rank, [0] * al.n_factors
    for letter in w.letters:
        if isinstance(letter, FreeLetter):
            free[letter.index - 1] += letter.exp
        else:
            fac[letter.index - 1] += letter.exp
    if kill_factors:
        return tuple(free)
    return tuple(free) + tuple(e % m for e, m in zip(fac, al.factor_orders))


def _index_key_per_letter(w: Word, orders, free_images, factor_images):
    """The finite-index key adding each letter's image coordinate by
    coordinate, the reference for the one-pass key."""
    acc = [0] * len(orders)
    for letter in w.letters:
        img = (
            free_images[letter.index - 1]
            if isinstance(letter, FreeLetter)
            else factor_images[letter.index - 1]
        )
        for k, x in enumerate(img):
            acc[k] += letter.exp * x
    return tuple(x % t for x, t in zip(acc, orders))


def _random_images(rng, al: Alphabet):
    """Target orders and generator images; a factor generator of order m
    maps to an element whose order divides m (non-zero where possible)."""
    orders = tuple(rng.choice((2, 3, 4, 5, 6, 10)) for _ in range(rng.randrange(1, 4)))
    free_images = [tuple(rng.randrange(-7, 8) for _ in orders) for _ in range(al.free_rank)]
    factor_images = [
        tuple(t // gcd(m, t) * rng.randrange(-3, 4) for t in orders)
        for m in al.factor_orders
    ]
    return orders, free_images, factor_images


@pytest.mark.parametrize("al", [F3, F3_Z5])
def test_abelian_keys_against_per_letter_sums(al):
    rng = random.Random(13)
    ws = syllable_words(rng, al, 200, max_syllables=12) + [identity(al)]
    for kill in (False, True):
        q = abelianization_oracle(al, kill)
        assert q.coset_keys(ws) == [_abel_key_per_letter(w, kill) for w in ws]
    nonzero_factor_images = 0
    for _ in range(30):
        orders, free_images, factor_images = _random_images(rng, al)
        nonzero_factor_images += any(any(v) for v in factor_images)
        q = finite_index_oracle(al, orders, free_images, factor_images)
        assert q.coset_keys(ws) == [
            _index_key_per_letter(w, orders, free_images, factor_images) for w in ws
        ]
    assert nonzero_factor_images or not al.n_factors

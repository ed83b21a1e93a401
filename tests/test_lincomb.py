"""The sparse linear-combination core shared by RingElt, TruncSeries,
AssocPoly and LieElt: key checks, summing construction, arithmetic
identities and the printed form."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.group_ring import RingElt
from foxcalc.lie_core import AssocPoly, LieElt, lyndon_words
from foxcalc.magnus import TruncSeries
from foxcalc.words import Alphabet, identity, parse_word

from conftest import MIXED, coeffs, words


def monomials(rank, max_deg):
    return st.lists(st.integers(1, rank), max_size=max_deg).map(tuple)


LYNDON3 = [w for d in range(1, 5) for w in lyndon_words(3, d)]
ELEMENTS = {
    "ring": st.dictionaries(words(MIXED, 4), st.integers(-5, 5), max_size=5).map(
        lambda d: RingElt(MIXED, d)
    ),
    "series": st.dictionaries(monomials(2, 4), st.integers(-5, 5), max_size=5).map(
        lambda d: TruncSeries(2, 3, d)
    ),
    "poly": st.dictionaries(monomials(2, 3), coeffs(), max_size=5).map(
        lambda d: AssocPoly(2, d)
    ),
    "lie": st.dictionaries(st.sampled_from(LYNDON3), coeffs(), max_size=4).map(
        lambda d: LieElt(3, d)
    ),
}


@pytest.mark.parametrize("kind", sorted(ELEMENTS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_difference_with_itself_is_zero_and_equal_elements_hash_equal(kind, data):
    a, b = data.draw(ELEMENTS[kind]), data.draw(ELEMENTS[kind])
    zero = a.scale(0)
    assert str(a - a) == "0" and a - a == zero and hash(a - a) == hash(zero)
    assert a + b == b + a and hash(a + b) == hash(b + a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert -(-a) == a and a + (-a) == zero


def test_bad_keys_from_outside_raise():
    with pytest.raises(ValueError):
        LieElt(3, {(2, 1): 1})
    with pytest.raises(ValueError):
        AssocPoly(2, {(3,): 1})
    with pytest.raises(ValueError):
        RingElt(Alphabet(2), {parse_word("g3", Alphabet(3)): 1})


def test_shapes_must_match():
    assert AssocPoly(2, {(1,): 1}) != AssocPoly(3, {(1,): 1})
    assert TruncSeries(2, 2, {(1,): 1}) != TruncSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        TruncSeries.one(2, 2) + TruncSeries.one(2, 3)
    with pytest.raises(ValueError):
        RingElt.one(Alphabet(2)) - RingElt.one(Alphabet(3))


def test_series_drops_monomials_above_the_cutoff():
    assert TruncSeries(2, 2, {(1, 1, 1): 5, (1,): 2}).terms == {(1,): 2}


@pytest.mark.parametrize(
    "make, key",
    [
        (lambda t: RingElt(MIXED, t), parse_word("g1 a1^2", MIXED)),
        (lambda t: TruncSeries(2, 3, t), (2, 1)),
        (lambda t: AssocPoly(2, t), (1, 1, 2)),
        (lambda t: LieElt(3, t), (1, 2, 3)),
    ],
)
def test_repeated_keys_sum_and_cancel(make, key):
    assert make([(key, 2), (key, 3)]) == make({key: 5})
    assert make([(key, 2), (key, 1), (key, -3)]).terms == {}


def test_printed_form():
    assert str(TruncSeries(2, 3, {(): 2, (1,): -1, (1, 2): 1})) == "2 - x1 + x1*x2"
    assert str(AssocPoly(2, {(): Fraction(-3, 2), (2, 1): 1})) == "- 3/2 + x2*x1"
    free2 = Alphabet(2)
    ring = RingElt(free2, {identity(free2): 3, parse_word("g1 g2^-1", free2): -1})
    assert str(ring) == "3 - g1 g2^-1"
    assert str(LieElt(3, {(3,): 1, (1, 2): Fraction(-3, 2)})) == "y3 - 3/2*[y1,y2]"

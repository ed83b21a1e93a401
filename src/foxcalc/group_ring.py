"""Integral group ring of a free product, and coset oracles for quotients.

Ring elements are finite Z-linear combinations of reduced words.  The
constructor checks every word's alphabet; products check the alphabet once
per product, not once per pair of words, and join each pair's letters at
the junction as words.multiply does.  A
:class:`QuotientOracle` answers "which coset of N does this word lie in"
through a hashable key; two words get the same key iff they agree modulo N.
An oracle holds the transversals that transversal.transversal_for builds
for it, so they live as long as it does.
"""
from __future__ import annotations

from operator import mul
from typing import Sequence, Union

from .lincomb import LinComb, Terms, sum_terms
from .magnus import embed_words
from .words import (
    Alphabet,
    FreeLetter,
    Word,
    identity,
    join_letters,
    format_word,
    shortlex_key,
)


class RingElt(LinComb):
    """Element of Z(F): a dict mapping reduced words to nonzero integers."""

    __slots__ = _SHAPE = ("alphabet",)
    _order = staticmethod(shortlex_key)

    def __init__(self, alphabet: Alphabet, terms: Terms = ()):
        self.alphabet = alphabet
        super().__init__(terms)

    def _admit(self, w: Word) -> bool:
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch in ring element")
        return True

    def _render(self, w: Word) -> str:
        return "" if w.is_identity else format_word(w)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "RingElt":
        return cls(alphabet, {identity(alphabet): 1})

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "RingElt":
        return cls(w.alphabet, {w: coeff})

    def __mul__(self, other: Union["RingElt", Word, int]) -> "RingElt":
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, Word):
            other = RingElt._trusted((other.alphabet,), {other: 1})
        self._check_shape(other)
        # one alphabet check for the product; every pair of words is joined
        # as words.multiply joins them
        alphabet = self.alphabet
        return self._like(
            sum_terms(
                (Word(alphabet, join_letters(alphabet, u.letters, v.letters)), cu * cv)
                for u, cu in self.terms.items()
                for v, cv in other.terms.items()
            )
        )

    def __rmul__(self, other: Union[Word, int]) -> "RingElt":
        if isinstance(other, int):
            return self.scale(other)
        return RingElt.from_word(other) * self

    def augmentation(self) -> int:
        return sum(self.terms.values())


class QuotientOracle:
    """Coset map for a normal subgroup N: ``coset_key(w)`` is a hashable key
    constant on cosets of N and separating distinct cosets.  ``keys_fn``
    maps a sequence of words to their keys in one pass, the oracle's one
    key path."""

    def __init__(self, kind: str, alphabet: Alphabet, keys_fn, finite_index: bool):
        self.kind = kind
        self.alphabet = alphabet
        self._keys_fn = keys_fn
        self.finite_index = finite_index
        # sub-alphabet -> Transversal, filled by transversal.transversal_for
        self.transversals: dict = {}

    def coset_keys(self, ws: Sequence[Word]) -> list:
        """The keys of several words, in order."""
        alphabet = self.alphabet
        for w in ws:
            if w.alphabet != alphabet:
                raise ValueError("alphabet mismatch")
        return self._keys_fn(ws)

    def coset_key(self, w: Word):
        return self.coset_keys((w,))[0]

    def contains(self, w: Word) -> bool:
        """Is w in N?"""
        return self.coset_key(w) == self.coset_key(identity(self.alphabet))

    def __repr__(self):
        return f"QuotientOracle({self.kind})"


def _each(key):
    """A one-word key function applied word by word."""
    return lambda ws: [key(w) for w in ws]


def trivial_oracle(alphabet: Alphabet) -> QuotientOracle:
    """N = F: one coset."""
    return QuotientOracle("trivial", alphabet, _each(lambda w: 0), True)


def _exponent_sums(w: Word, n: int, p: int) -> list[int]:
    """The exponent sum of each generator in w, in one pass over its
    syllables: g_1..g_n, then a_1..a_p (not reduced modulo the orders)."""
    sums = [0] * (n + p)
    for letter in w.letters:
        if type(letter) is FreeLetter:
            sums[letter[0] - 1] += letter[1]
        else:
            sums[n + letter[0] - 1] += letter[1]
    return sums


def _abel_key(alphabet: Alphabet, kill_factors: bool):
    n, p = alphabet.free_rank, alphabet.n_factors
    orders = () if kill_factors else alphabet.factor_orders

    def key(w: Word):
        sums = _exponent_sums(w, n, p)
        return tuple(sums[:n]) + tuple([e % m for e, m in zip(sums[n:], orders)])

    return key


def abelianization_oracle(alphabet: Alphabet, kill_factors: bool = False) -> QuotientOracle:
    """N = [F, F] (with the cyclic factors additionally killed on request)."""
    finite = alphabet.free_rank == 0
    return QuotientOracle(
        "abelianization", alphabet, _each(_abel_key(alphabet, kill_factors)), finite
    )


def free_nilpotent_oracle(alphabet: Alphabet, nil_class: int) -> QuotientOracle:
    """N = gamma_{c+1}(F) for free F; the key is the degree-<=c Magnus
    image, embedded for all words of a query at once so that shared
    suffixes are embedded once."""
    if alphabet.n_factors:
        raise ValueError("free-nilpotent oracle requires a free alphabet")
    if nil_class < 1:
        raise ValueError("nilpotency class must be positive")

    def keys(ws):
        return [tuple(sorted(m.terms.items())) for m in embed_words(ws, nil_class)]

    return QuotientOracle(f"free-nilpotent:{nil_class}", alphabet, keys, False)


def finite_index_oracle(
    alphabet: Alphabet,
    orders: Sequence[int],
    free_images: Sequence[Sequence[int]],
    factor_images: Sequence[Sequence[int]] = (),
) -> QuotientOracle:
    """N = kernel of the map onto the abelian group Z/orders[0] x ... given
    by the images of the generators."""
    orders = tuple(orders)
    if any(t < 1 for t in orders):
        raise ValueError("target orders must be positive")
    if len(free_images) != alphabet.free_rank:
        raise ValueError("need one image per free generator")
    if len(factor_images) != alphabet.n_factors:
        raise ValueError("need one image per factor generator")
    n, p = alphabet.free_rank, alphabet.n_factors
    images = [tuple(v) for v in (*free_images, *factor_images)]
    if any(len(v) != len(orders) for v in images):
        raise ValueError("image length mismatch")
    for v, m in zip(images[n:], alphabet.factor_orders):
        if any((m * x) % t for x, t in zip(v, orders)):
            raise ValueError("factor image order must divide the factor order")
    # the image of w is its exponent sums applied to the generator images:
    # one column of images per target coordinate
    columns = list(zip(*images))

    def key(w: Word):
        sums = _exponent_sums(w, n, p)
        return tuple([sum(map(mul, sums, col)) % t for col, t in zip(columns, orders)])

    return QuotientOracle("finite-index", alphabet, _each(key), True)


def reduce_mod(a: RingElt, q: QuotientOracle) -> dict:
    """Image of a ring element in Z(F/N): coset key -> coefficient sum.
    The oracle keys all words of a at once."""
    return sum_terms(zip(q.coset_keys(list(a.terms)), a.terms.values()))


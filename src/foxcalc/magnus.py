"""Truncated Magnus embedding g_j -> 1 + x_j into noncommutative power series.

Series are truncated at a fixed total degree; every operation discards
monomials above the cutoff.  Weights reported as ``None`` mean "greater than
the cutoff" and are not otherwise trusted.

A syllable g_j^e has the closed-form image (1 + x_j)^e = sum_k C(e, k) x_j^k,
exact for every integer e: for e = -n < 0 the generalised binomial reads
C(-n, k) = (-1)^k C(n + k - 1, k).  Multiplying a series s by it from the
left keeps s (the k = 0 term) and adds C(e, k) x_j^k m for each monomial m
of s and each k >= 1 that fits, so only monomials led by x_j change.

An image may hold at most _LETTER_BUDGET letters, counted as monomials
times the cutoff; a word whose running image passes that is refused with a
ValueError as soon as it does.
"""
from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .lincomb import Graded, Terms, sum_terms, terms_of
from .words import Word

# Most letters a running Magnus image may hold, counted as its monomials
# times the cutoff (no monomial is longer): past that, embedding refuses
# the word.  The commands and tests of this package peak below 4,000; on a
# 2-CPU Xeon a rank-3 word of 12 syllables at degree 20 reaches the budget
# in 0.2 s and 29 MB.
_LETTER_BUDGET = 10**6


def _monomial_limit(cutoff: int) -> int:
    return _LETTER_BUDGET // max(cutoff, 1)


def _too_large(cutoff: int) -> ValueError:
    return ValueError(
        f"Magnus image up to degree {cutoff} holds more than "
        f"{_monomial_limit(cutoff)} monomials ({_LETTER_BUDGET} letters)"
    )


class TruncSeries(Graded):
    """Integer series in noncommuting x_1..x_rank truncated at ``cutoff``.

    terms maps index tuples (j_1, ..., j_d) to nonzero integer coefficients;
    the empty tuple is the constant term.  Monomials above the cutoff given
    from outside are dropped; letters outside 1..rank are refused.
    """

    __slots__ = _SHAPE = ("rank", "cutoff")

    def __init__(self, rank: int, cutoff: int, terms: Terms = ()):
        self.rank = rank
        self.cutoff = cutoff
        super().__init__(terms)

    def _admit(self, mono: tuple) -> bool:
        return super()._admit(mono) and len(mono) <= self.cutoff

    @classmethod
    def one(cls, rank: int, cutoff: int) -> "TruncSeries":
        return cls(rank, cutoff, {(): 1})

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_shape(other)
        cutoff = self.cutoff
        return self._like(
            sum_terms(
                (m1 + m2, c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
                if len(m1) + len(m2) <= cutoff
            )
        )


def _binomials(exp: int, cutoff: int) -> list[int]:
    """The non-zero coefficients C(exp, k) of (1 + x)^exp up to degree
    ``cutoff``: k <= exp for exp >= 0, every k for exp < 0.  Refused when
    the image of the syllable alone would pass the budget."""
    top = min(cutoff, exp) if exp >= 0 else cutoff
    if top >= _monomial_limit(cutoff):
        raise _too_large(cutoff)
    return [
        comb(exp, k) if exp >= 0 else (-1) ** k * comb(k - exp - 1, k)
        for k in range(top + 1)
    ]


def _syllable_times(j: int, coeffs: list[int], terms: dict, cutoff: int) -> dict:
    """Terms of (1 + x_j)^e * s = s + sum_{k >= 1} C(e, k) x_j^k s, given the
    binomials of e and the terms of s: the k = 0 part is a copy of s, and
    x_j^k m extends x_j^(k-1) m by one letter.  Refused as soon as the
    product passes the budget."""
    out = dict(terms)
    lead = (j,)
    limit = _monomial_limit(cutoff)
    for m, c in terms.items():
        mono = m
        for k in range(1, min(len(coeffs), cutoff - len(m) + 1)):
            mono = lead + mono
            c2 = out.get(mono, 0) + coeffs[k] * c
            if c2:
                out[mono] = c2
            else:
                del out[mono]
        if len(out) > limit:
            raise _too_large(cutoff)
    return out


def embed_words(ws: Sequence[Word], cutoff: int) -> list[TruncSeries]:
    """Magnus images of words in a free alphabet, truncated at ``cutoff``,
    in one right-to-left pass: M(l_1 ... l_r) = M(l_1) M(l_2 ... l_r).  A
    trie local to the call holds the image of every suffix met, so words
    that share suffixes (the terms of a Fox derivative) pay one syllable
    product for each suffix not seen before.  A lone word shares nothing,
    so its suffixes are not kept.  ValueError as soon as a running image
    passes the letter budget."""
    root: tuple = ({(): 1} if cutoff >= 0 else {}, {})
    keep = len(ws) > 1
    binomials: dict = {}
    out = []
    for w in ws:
        alphabet = w.alphabet
        if alphabet.n_factors:
            raise ValueError("Magnus embedding requires a free alphabet")
        terms, children = root
        for letter in reversed(w.letters):
            node = children.get(letter)
            if node is None:
                coeffs = binomials.get(letter.exp)
                if coeffs is None:
                    coeffs = binomials[letter.exp] = _binomials(letter.exp, cutoff)
                node = (_syllable_times(letter.index, coeffs, terms, cutoff), {})
                if keep:
                    children[letter] = node
            terms, children = node
        out.append(TruncSeries._trusted((alphabet.free_rank, cutoff), dict(terms)))
    return out


def embed(w: Word, cutoff: int) -> TruncSeries:
    """Magnus image of a word in a free alphabet, truncated at ``cutoff``."""
    return embed_words((w,), cutoff)[0]


def embed_ring(a, cutoff: int) -> TruncSeries:
    """Linear extension of the embedding to group ring elements."""
    alphabet = a.alphabet
    if alphabet.n_factors:
        raise ValueError("Magnus embedding requires a free alphabet")
    images = embed_words(list(a.terms), cutoff)
    return TruncSeries(
        alphabet.free_rank,
        cutoff,
        terms_of(m.scale(c) for m, c in zip(images, a.terms.values())),
    )


def gamma_weight(w: Word, cutoff: int) -> Optional[int]:
    """The n with w in gamma_n \\ gamma_{n+1}, i.e. the minimal degree of
    embed(w) - 1.  None means the weight exceeds the cutoff."""
    diff = embed(w, cutoff) - TruncSeries.one(w.alphabet.free_rank, cutoff)
    return diff.min_degree()


def ideal_weight(a, cutoff: int) -> Optional[int]:
    """Minimal degree of the Magnus image of a ring element; 0 iff the
    augmentation is nonzero.  None means the image vanishes up to cutoff."""
    return embed_ring(a, cutoff).min_degree()

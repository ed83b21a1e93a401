"""Truncated Magnus embedding g_j -> 1 + x_j into noncommutative power series.

Series are truncated at a fixed total degree; every operation discards
monomials above the cutoff.  Weights reported as ``None`` mean "greater than
the cutoff" and are not otherwise trusted.

A syllable g_j^e has the closed-form image (1 + x_j)^e = sum_k C(e, k) x_j^k,
exact for every integer e: for e = -n < 0 the generalised binomial reads
C(-n, k) = (-1)^k C(n + k - 1, k).
"""
from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .lincomb import Graded, Terms, sum_terms, terms_of
from .words import Word


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
    """Coefficients of (1 + x)^exp up to degree ``cutoff``."""
    return [
        comb(exp, k) if exp >= 0 else (-1) ** k * comb(k - exp - 1, k)
        for k in range(cutoff + 1)
    ]


def _syllable_times(j: int, coeffs: list[int], terms: dict, cutoff: int) -> dict:
    """Terms of (1 + x_j)^e * s, given the binomials of e and the terms of
    s: each monomial m of s meets x_j^k m for every k that fits."""
    out: dict = {}
    for m, c in terms.items():
        for k in range(cutoff - len(m) + 1):
            if coeffs[k]:
                mono = (j,) * k + m
                out[mono] = out.get(mono, 0) + coeffs[k] * c
    return {m: c for m, c in out.items() if c}


def embed_words(ws: Sequence[Word], cutoff: int) -> list[TruncSeries]:
    """Magnus images of words in a free alphabet, truncated at ``cutoff``,
    in one right-to-left pass: M(l_1 ... l_r) = M(l_1) M(l_2 ... l_r).  A
    trie local to the call holds the image of every suffix met, so words
    that share suffixes (the terms of a Fox derivative) pay one syllable
    product for each suffix not seen before.  A lone word shares nothing,
    so its suffixes are not kept."""
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

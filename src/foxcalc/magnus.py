"""Truncated Magnus embedding g_j -> 1 + x_j into noncommutative power series.

Series are truncated at a fixed total degree; every operation discards
monomials above the cutoff.  Weights reported as ``None`` mean "greater than
the cutoff" and are not otherwise trusted.
"""
from __future__ import annotations

from typing import Mapping, Optional

from .words import FreeLetter, Word


class TruncSeries:
    """Integer series in noncommuting x_1..x_rank truncated at ``cutoff``.

    terms maps index tuples (j_1, ..., j_d) to nonzero integer coefficients;
    the empty tuple is the constant term.
    """

    __slots__ = ("rank", "cutoff", "terms")

    def __init__(self, rank: int, cutoff: int, terms: Mapping[tuple, int] = ()):
        self.rank = rank
        self.cutoff = cutoff
        self.terms: dict[tuple, int] = {}
        for mono, c in dict(terms).items():
            if len(mono) > cutoff or not c:
                continue
            self.terms[mono] = self.terms.get(mono, 0) + c
            if not self.terms[mono]:
                del self.terms[mono]

    @classmethod
    def zero(cls, rank: int, cutoff: int) -> "TruncSeries":
        return cls(rank, cutoff)

    @classmethod
    def one(cls, rank: int, cutoff: int) -> "TruncSeries":
        return cls(rank, cutoff, {(): 1})

    @classmethod
    def gen(cls, rank: int, cutoff: int, j: int) -> "TruncSeries":
        if not 1 <= j <= rank:
            raise ValueError(f"generator index {j} out of range")
        return cls(rank, cutoff, {(j,): 1})

    def _check(self, other: "TruncSeries") -> None:
        if self.rank != other.rank or self.cutoff != other.cutoff:
            raise ValueError("series shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.rank == other.rank
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, self.cutoff, frozenset(self.terms.items())))

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TruncSeries(self.rank, self.cutoff, out)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.rank, self.cutoff, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, k: int) -> "TruncSeries":
        return TruncSeries(self.rank, self.cutoff, {m: k * c for m, c in self.terms.items()})

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out: dict[tuple, int] = {}
        for m1, c1 in self.terms.items():
            room = self.cutoff - len(m1)
            for m2, c2 in other.terms.items():
                if len(m2) > room:
                    continue
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return TruncSeries(self.rank, self.cutoff, out)

    def min_degree(self) -> Optional[int]:
        """Smallest degree with a nonzero term, or None when empty."""
        if not self.terms:
            return None
        return min(len(m) for m in self.terms)

    def homogeneous(self, d: int) -> dict[tuple, int]:
        return {m: c for m, c in self.terms.items() if len(m) == d}

    def __str__(self) -> str:
        return format_series(self)


def _gen_power(rank: int, cutoff: int, j: int, exp: int) -> TruncSeries:
    one = TruncSeries.one(rank, cutoff)
    if exp >= 0:
        base = one + TruncSeries.gen(rank, cutoff, j)
        n = exp
    else:
        # (1+x)^-1 = 1 - x + x^2 - ...
        inv = TruncSeries(
            rank, cutoff, {(j,) * d: (-1) ** d for d in range(cutoff + 1)}
        )
        base, n = inv, -exp
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def embed(w: Word, cutoff: int) -> TruncSeries:
    """Magnus image of a word in a free alphabet, truncated at ``cutoff``."""
    alphabet = w.alphabet
    if alphabet.n_factors:
        raise ValueError("Magnus embedding requires a free alphabet")
    out = TruncSeries.one(alphabet.free_rank, cutoff)
    for letter in w.letters:
        assert isinstance(letter, FreeLetter)
        out = out * _gen_power(alphabet.free_rank, cutoff, letter.index, letter.exp)
    return out


def embed_ring(a, cutoff: int) -> TruncSeries:
    """Linear extension of the embedding to group ring elements."""
    alphabet = a.alphabet
    if alphabet.n_factors:
        raise ValueError("Magnus embedding requires a free alphabet")
    out = TruncSeries.zero(alphabet.free_rank, cutoff)
    for w, c in a.terms.items():
        out = out + embed(w, cutoff).scale(c)
    return out


def gamma_weight(w: Word, cutoff: int) -> Optional[int]:
    """The n with w in gamma_n \\ gamma_{n+1}, i.e. the minimal degree of
    embed(w) - 1.  None means the weight exceeds the cutoff."""
    diff = embed(w, cutoff) - TruncSeries.one(w.alphabet.free_rank, cutoff)
    return diff.min_degree()


def ideal_weight(a, cutoff: int) -> Optional[int]:
    """Minimal degree of the Magnus image of a ring element; 0 iff the
    augmentation is nonzero.  None means the image vanishes up to cutoff."""
    return embed_ring(a, cutoff).min_degree()


def format_series(s: TruncSeries) -> str:
    if not s.terms:
        return "0"
    parts = []
    for mono in sorted(s.terms, key=lambda m: (len(m), m)):
        c = s.terms[mono]
        body = "*".join(f"x{j}" for j in mono) if mono else "1"
        mag = abs(c)
        if mag != 1 or not mono:
            body = f"{mag}*{body}" if mono else f"{mag}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)

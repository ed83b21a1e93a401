"""Integral group ring of a free product, and coset oracles for quotients.

Ring elements are finite Z-linear combinations of reduced words.  A
:class:`QuotientOracle` answers "which coset of N does this word lie in"
through a hashable key; two words get the same key iff they agree modulo N.
"""
from __future__ import annotations

import re
from typing import Mapping, Sequence, Union

from .words import (
    Alphabet,
    FreeLetter,
    Word,
    identity,
    multiply,
    parse_word,
    format_word,
    shortlex_key,
)


class RingElt:
    """Element of Z(F): a dict mapping reduced words to nonzero integers."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, int] = ()):
        self.alphabet = alphabet
        self.terms: dict[Word, int] = {}
        for w, c in dict(terms).items():
            if w.alphabet != alphabet:
                raise ValueError("alphabet mismatch in ring element")
            if c:
                self.terms[w] = self.terms.get(w, 0) + c
                if not self.terms[w]:
                    del self.terms[w]

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "RingElt":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "RingElt":
        return cls(alphabet, {identity(alphabet): 1})

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "RingElt":
        return cls(w.alphabet, {w: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElt)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other: "RingElt") -> "RingElt":
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
            if not out[w]:
                del out[w]
        return RingElt(self.alphabet, out)

    def __neg__(self) -> "RingElt":
        return RingElt(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "RingElt") -> "RingElt":
        return self + (-other)

    def __mul__(self, other: Union["RingElt", Word, int]) -> "RingElt":
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, Word):
            other = RingElt.from_word(other)
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        out: dict[Word, int] = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = multiply(u, v)
                out[w] = out.get(w, 0) + cu * cv
                if not out[w]:
                    del out[w]
        return RingElt(self.alphabet, out)

    def __rmul__(self, other: Union[Word, int]) -> "RingElt":
        if isinstance(other, int):
            return self.scale(other)
        return RingElt.from_word(other) * self

    def scale(self, k: int) -> "RingElt":
        return RingElt(self.alphabet, {w: k * c for w, c in self.terms.items()})

    def augmentation(self) -> int:
        return sum(self.terms.values())

    def support(self) -> list[Word]:
        return sorted(self.terms, key=shortlex_key)

    def __str__(self) -> str:
        return format_ring(self)

    def __repr__(self) -> str:
        return f"RingElt({format_ring(self)!r})"


def ring_multiply(a: RingElt, b: Union[RingElt, Word]) -> RingElt:
    return a * b


def augmentation(a: RingElt) -> int:
    return a.augmentation()


class QuotientOracle:
    """Coset map for a normal subgroup N: ``coset_key(w)`` is a hashable key
    constant on cosets of N and separating distinct cosets."""

    def __init__(self, kind: str, alphabet: Alphabet, key_fn, finite_index: bool):
        self.kind = kind
        self.alphabet = alphabet
        self._key_fn = key_fn
        self.finite_index = finite_index

    def coset_key(self, w: Word):
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return self._key_fn(w)

    def contains(self, w: Word) -> bool:
        """Is w in N?"""
        return self.coset_key(w) == self.coset_key(identity(self.alphabet))

    def __repr__(self):
        return f"QuotientOracle({self.kind})"


def trivial_oracle(alphabet: Alphabet) -> QuotientOracle:
    """N = F: one coset."""
    return QuotientOracle("trivial", alphabet, lambda w: 0, True)


def discrete_oracle(alphabet: Alphabet) -> QuotientOracle:
    """N = 1: the key is the word itself, so reduce_mod is injective."""
    return QuotientOracle("discrete", alphabet, lambda w: w.letters, False)


def _abel_key(alphabet: Alphabet, kill_factors: bool):
    n, p = alphabet.free_rank, alphabet.n_factors

    def key(w: Word):
        free = [0] * n
        fac = [0] * p
        for letter in w.letters:
            if isinstance(letter, FreeLetter):
                free[letter.index - 1] += letter.exp
            else:
                fac[letter.index - 1] += letter.exp
        if kill_factors:
            return tuple(free)
        fac = [e % m for e, m in zip(fac, alphabet.factor_orders)]
        return tuple(free) + tuple(fac)

    return key


def abelianization_oracle(alphabet: Alphabet, kill_factors: bool = False) -> QuotientOracle:
    """N = [F, F] (with the cyclic factors additionally killed on request)."""
    finite = alphabet.free_rank == 0
    return QuotientOracle(
        "abelianization", alphabet, _abel_key(alphabet, kill_factors), finite
    )


def free_nilpotent_oracle(alphabet: Alphabet, nil_class: int) -> QuotientOracle:
    """N = gamma_{c+1}(F) for free F; the key is the degree-<=c Magnus image."""
    if alphabet.n_factors:
        raise ValueError("free-nilpotent oracle requires a free alphabet")
    if nil_class < 1:
        raise ValueError("nilpotency class must be positive")
    from .magnus import embed

    def key(w: Word):
        return tuple(sorted(embed(w, nil_class).terms.items()))

    return QuotientOracle(f"free-nilpotent:{nil_class}", alphabet, key, False)


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
    free_images = [tuple(v) for v in free_images]
    factor_images = [tuple(v) for v in factor_images]
    for v in list(free_images) + list(factor_images):
        if len(v) != len(orders):
            raise ValueError("image length mismatch")
    for v, m in zip(factor_images, alphabet.factor_orders):
        if any((m * x) % t for x, t in zip(v, orders)):
            raise ValueError("factor image order must divide the factor order")

    def key(w: Word):
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

    return QuotientOracle("finite-index", alphabet, key, True)


def reduce_mod(a: RingElt, q: QuotientOracle) -> dict:
    """Image of a ring element in Z(F/N): coset key -> coefficient sum."""
    out: dict = {}
    for w, c in a.terms.items():
        k = q.coset_key(w)
        out[k] = out.get(k, 0) + c
        if not out[k]:
            del out[k]
    return out


_COEFF = re.compile(r"^(-?\d+)(?:\*)?$")


def parse_ring(text: str, alphabet: Alphabet) -> RingElt:
    """Parse sums like ``"3*g1 g2 - 2*g2 + 1"`` (terms split on +/- tokens)."""
    tokens = text.split()
    if not tokens:
        return RingElt.zero(alphabet)
    out = RingElt.zero(alphabet)
    sign = 1
    group: list[str] = []

    def flush():
        nonlocal out, group
        if not group:
            if out.is_zero and sign == 1:
                return
            raise ValueError("empty term")
        coeff = 1
        first = group[0]
        if "*" in first:
            head, rest = first.split("*", 1)
            coeff = int(head)
            group = ([rest] if rest else []) + group[1:]
        elif re.fullmatch(r"-?\d+", first):
            coeff = int(first)
            group = group[1:]
        w = parse_word(" ".join(group), alphabet)
        out = out + RingElt.from_word(w, sign * coeff)
        group = []

    for tok in tokens:
        if tok in ("+", "-"):
            flush()
            sign = 1 if tok == "+" else -1
        else:
            group.append(tok)
    flush()
    return out


def format_ring(a: RingElt) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for w in a.support():
        c = a.terms[w]
        body = format_word(w) if not w.is_identity else "1"
        mag = abs(c)
        if mag != 1 or w.is_identity:
            body = f"{mag}*{body}" if not w.is_identity else f"{mag}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)

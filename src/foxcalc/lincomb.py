"""Sparse linear combinations, the representation behind RingElt,
TruncSeries, AssocPoly and LieElt.

A linear combination is a dict from key to non-zero coefficient: repeated
keys add and zeros drop.  Validation happens at the boundary only: built
from outside (a mapping or an iterable of ``(key, coeff)`` pairs, through
the constructor) every key passes the subclass's check and every
coefficient is coerced; results of arithmetic on valid elements, and sums
of ``(key, coeff)`` pairs whose keys come from valid elements or from the
library's own tables, are built directly (``_trusted``, ``_summed``,
``_like``), without checking again.  It prints as signed magnitudes in a
fixed key order.

A subclass sets its shape slots (named in ``_SHAPE``) before calling
``LinComb.__init__``, and supplies ``_admit`` (the key check), ``_render``
(how one key prints, ``""`` for the unit key) and ``_order`` (the print
order); ``_coerce`` wraps coefficients from outside.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Any, Hashable, Iterable, Mapping, Union

Terms = Union[Mapping[Hashable, Any], Iterable[tuple[Hashable, Any]]]


def sum_terms(pairs: Iterable[tuple[Hashable, Any]], out: dict | None = None) -> dict:
    """Add ``(key, coeff)`` pairs into ``out`` (a new dict by default),
    removing a key as soon as its coefficient sums to zero."""
    if out is None:
        out = {}
    for k, c in pairs:
        c = out.get(k, 0) + c
        if c:
            out[k] = c
        else:
            out.pop(k, None)
    return out


def terms_of(elements: Iterable["LinComb"]) -> Iterable[tuple[Hashable, Any]]:
    """The ``(key, coeff)`` pairs of several elements, one after another:
    handed to a constructor, they build the sum in one pass."""
    return chain.from_iterable(e.terms.items() for e in elements)


def parse_coeff(text: str) -> Fraction:
    """A rational coefficient; a zero denominator is a ValueError like any
    other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class LinComb:
    """A dict ``terms`` from key to non-zero coefficient, plus a shape."""

    __slots__ = ("terms",)
    _SHAPE: tuple[str, ...] = ()
    _coerce = None

    def __init__(self, terms: Terms = ()):
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        if self._coerce is not None:
            pairs = ((k, self._coerce(c)) for k, c in pairs)
        admit = self._admit
        self.terms: dict = sum_terms((k, c) for k, c in pairs if c and admit(k))

    def _admit(self, key) -> bool:
        """Check a key from outside: raise ValueError when it is malformed,
        return False to drop it silently."""
        return True

    @classmethod
    def _trusted(cls, shape: tuple, terms: dict):
        """An element of the given shape holding ``terms`` as they are: the
        keys must be valid and the coefficients non-zero and coerced."""
        out = object.__new__(cls)
        for name, value in zip(cls._SHAPE, shape):
            setattr(out, name, value)
        out.terms = terms
        return out

    @classmethod
    def _summed(cls, shape: tuple, pairs: Iterable[tuple[Hashable, Any]]):
        """The sum of ``(key, coeff)`` pairs as an element of the given
        shape, unchecked: the keys must be valid and the coefficients
        coerced, as in results of arithmetic on valid elements."""
        return cls._trusted(shape, sum_terms(pairs))

    def _like(self, terms: dict):
        """An element of this one's shape holding ``terms`` as they are."""
        out = object.__new__(type(self))
        for name in self._SHAPE:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _same_shape(self, other) -> bool:
        if type(other) is not type(self):
            return False
        for name in self._SHAPE:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def _check_shape(self, other: "LinComb") -> None:
        if not self._same_shape(other):
            raise ValueError(f"{type(self).__name__} shape mismatch")

    @classmethod
    def zero(cls, *shape):
        return cls(*shape)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return self._same_shape(other) and self.terms == other.terms

    def __hash__(self):
        shape = tuple([getattr(self, name) for name in self._SHAPE])
        return hash(shape + (frozenset(self.terms.items()),))

    def __add__(self, other):
        self._check_shape(other)
        return self._like(sum_terms(other.terms.items(), dict(self.terms)))

    def __sub__(self, other):
        self._check_shape(other)
        return self._like(
            sum_terms(((k, -c) for k, c in other.terms.items()), dict(self.terms))
        )

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, k):
        if self._coerce is not None:
            k = self._coerce(k)
        if not k:
            return self._like({})
        return self._like({key: k * c for key, c in self.terms.items()})

    def support(self) -> list:
        return sorted(self.terms, key=self._order)

    def __str__(self) -> str:
        return format_terms(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_terms(self)!r})"


class Graded(LinComb):
    """Linear combination of tuples of letters 1..rank, graded by length; a
    tuple prints as a monomial ``x1*x2`` unless the subclass renders it
    otherwise."""

    __slots__ = ()

    def _admit(self, key: tuple) -> bool:
        if any(not 1 <= x <= self.rank for x in key):
            raise ValueError(f"letter out of range in {key}")
        return True

    @classmethod
    def gen(cls, *shape_and_j):
        """The generator of index j: ``gen(*shape, j)``."""
        *shape, j = shape_and_j
        return cls(*shape, {(j,): 1})

    @staticmethod
    def _order(key: tuple):
        return (len(key), key)

    def _render(self, key: tuple) -> str:
        return "*".join(f"x{j}" for j in key)

    def degrees(self) -> list[int]:
        return sorted({len(k) for k in self.terms})

    def homogeneous(self, d: int):
        return self._like({k: c for k, c in self.terms.items() if len(k) == d})

    def truncate(self, cutoff: int):
        return self._like({k: c for k, c in self.terms.items() if len(k) <= cutoff})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def max_degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def min_degree(self):
        """Smallest degree with a nonzero term, or None when empty."""
        return min((len(k) for k in self.terms), default=None)


def format_terms(a: LinComb) -> str:
    """``2 - x1 + x1*x2``: signed magnitudes in the key order, a magnitude
    of 1 written only for the unit key."""
    if a.is_zero:
        return "0"
    parts = []
    for key in a.support():
        c = a.terms[key]
        body, mag = a._render(key), abs(c)
        if not body:
            body = f"{mag}"
        elif mag != 1:
            body = f"{mag}*{body}"
        if c < 0:
            parts.append(f"- {body}")
        else:
            parts.append(f"+ {body}" if parts else body)
    return " ".join(parts)

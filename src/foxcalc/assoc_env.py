"""Free associative algebra over Q (universal envelope of the free Lie
algebra), adapted PBW bases for chains of graded subspaces, and reduction
modulo the ideal generated by a graded Lie ideal.

An adapted basis for a chain S1 <= S2 <= S3 <= F has four blocks per degree:
  a: basis of S1,  b: completes S1 to S2,
  c: completes S2 to S3 (drawn from a carrier subspace when given),
  d: completes S3 to F.
Block order "abcd" or "dcba" fixes the PBW order; standard monomials are
nondecreasing products of basis elements.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .lie_core import (
    GradedSubspace,
    LieElt,
    bracket,
    expand_to_assoc,
    lie_from_vector,
    lie_vector,
    lyndon_words,
)
from .lincomb import Graded, Terms, format_terms, parse_coeff, sum_terms, terms_of
from .linalg import Echelon, SpanSolver, normalized


class AssocPoly(Graded):
    """Polynomial in noncommuting x_1..x_rank with rational coefficients."""

    __slots__ = _SHAPE = ("rank",)
    _coerce = Fraction

    def __init__(self, rank: int, terms: Terms = ()):
        self.rank = rank
        super().__init__(terms)

    @classmethod
    def one(cls, rank: int) -> "AssocPoly":
        return cls(rank, {(): Fraction(1)})

    def __mul__(self, other: "AssocPoly") -> "AssocPoly":
        self._check_shape(other)
        return self._like(
            sum_terms(
                (m1 + m2, c1 * c2)
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            )
        )


def poly_commutator(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    return a * b - b * a


@dataclass(frozen=True)
class AdaptedElement:
    value: LieElt
    block: str  # one of "a", "b", "c", "d"
    degree: int


class AdaptedBasis:
    """Homogeneous basis of the free Lie algebra (up to the cutoff) split
    into the four chain blocks, totally ordered for PBW straightening."""

    def __init__(
        self,
        rank: int,
        cutoff: int,
        elements: Sequence[AdaptedElement],
        orientation: str,
    ):
        if orientation not in ("abcd", "dcba"):
            raise ValueError("orientation must be 'abcd' or 'dcba'")
        block_rank = {b: k for k, b in enumerate(orientation)}
        self.rank = rank
        self.cutoff = cutoff
        self.orientation = orientation
        # stable sort keeps the construction order inside each block/degree
        self.elements = tuple(
            sorted(elements, key=lambda e: (block_rank[e.block], e.degree))
        )


def adapted_basis(
    chain: Sequence[GradedSubspace],
    orientation: str = "abcd",
    c_carrier: Optional[GradedSubspace] = None,
) -> AdaptedBasis:
    """Adapted basis for a chain (S1, S2, S3) of graded subspaces.  The c
    block is drawn from ``c_carrier`` when given (its sum with S2 must cover
    S3 per degree); the d block is completed with Lyndon basis vectors."""
    s1, s2, s3 = chain
    rank, cutoff = s1.rank, s1.cutoff
    for s in (s2, s3):
        if (s.rank, s.cutoff) != (rank, cutoff):
            raise ValueError("chain shape mismatch")
    if not (s2.contains(s1) and s3.contains(s2)):
        raise ValueError("not a chain of subspaces")
    elements: list[AdaptedElement] = []
    for d in range(1, cutoff + 1):
        span = Echelon()

        def extend(rows, block):
            for r in rows:
                if span.insert(r):
                    x = lie_from_vector(rank, d, normalized(r))
                    elements.append(AdaptedElement(x, block, d))

        extend(s1.echelon(d).rows(), "a")
        extend(s2.echelon(d).rows(), "b")
        extend((c_carrier if c_carrier is not None else s3).echelon(d).rows(), "c")
        if any(t not in span for t in s3.echelon(d).rows()):
            raise ValueError("carrier does not cover block c")
        extend(({k: 1} for k in range(len(lyndon_words(rank, d)))), "d")
    return AdaptedBasis(rank, cutoff, elements, orientation)


class PBWContext:
    """Rewriting of associative polynomials in the standard monomial basis
    attached to an adapted basis."""

    def __init__(self, basis: AdaptedBasis):
        self.basis = basis
        self.rank = basis.rank
        self.cutoff = basis.cutoff
        self._by_degree: dict[int, list[int]] = {}
        for k, e in enumerate(basis.elements):
            self._by_degree.setdefault(e.degree, []).append(k)
        self._solvers: dict[int, SpanSolver] = {}
        self._gen_coords: dict[int, dict[int, Fraction]] = {}
        for j in range(1, self.rank + 1):
            self._gen_coords[j] = self.coords_of_lie(LieElt.gen(self.rank, j))
        self._bracket_cache: dict[tuple[int, int], dict[int, Fraction]] = {}
        self.block_of = {k: e.block for k, e in enumerate(basis.elements)}

    def _solver(self, d: int) -> SpanSolver:
        if d not in self._solvers:
            rows = [
                lie_vector(self.basis.elements[k].value, d)
                for k in self._by_degree.get(d, [])
            ]
            self._solvers[d] = SpanSolver(rows)
        return self._solvers[d]

    def coords_of_lie(self, a: LieElt) -> dict[int, Fraction]:
        """Coordinates of a Lie element over the adapted basis."""
        out: dict[int, Fraction] = {}
        for d in a.degrees():
            if d > self.cutoff:
                raise ValueError("degree exceeds cutoff")
            coords = self._solver(d).coords(lie_vector(a, d))
            if coords is None:
                raise ValueError("adapted basis does not span this degree")
            for k, c in zip(self._by_degree[d], coords):
                if c:
                    out[k] = c
        return out

    def bracket_coords(self, i: int, j: int) -> dict[int, Fraction]:
        key = (i, j)
        if key not in self._bracket_cache:
            b = bracket(self.basis.elements[i].value, self.basis.elements[j].value)
            self._bracket_cache[key] = (
                {} if b.is_zero or b.max_degree() > self.cutoff else self.coords_of_lie(b)
            )
        return self._bracket_cache[key]

    def rewrite(self, p: AssocPoly) -> dict[tuple[int, ...], Fraction]:
        """Standard-monomial coordinates of p: maps nondecreasing index
        tuples over the adapted basis to coefficients."""
        if p.rank != self.rank:
            raise ValueError("rank mismatch")
        if p.max_degree() > self.cutoff:
            raise ValueError("degree exceeds cutoff")
        stack: list[tuple[tuple[int, ...], Fraction]] = []
        standard: list[tuple[tuple[int, ...], Fraction]] = []
        for word, coeff in p.terms.items():
            terms = [((), coeff)]
            for letter in word:
                subs = self._gen_coords[letter]
                terms = [
                    (mono + (k,), c * ck)
                    for mono, c in terms
                    for k, ck in subs.items()
                ]
            stack.extend(terms)
        while stack:
            mono, coeff = stack.pop()
            if not coeff:
                continue
            bad = None
            for t in range(len(mono) - 1):
                if mono[t] > mono[t + 1]:
                    bad = t
                    break
            if bad is None:
                standard.append((mono, coeff))
                continue
            i, j = mono[bad], mono[bad + 1]
            head, tail = mono[:bad], mono[bad + 2 :]
            stack.append((head + (j, i) + tail, coeff))
            for k, ck in self.bracket_coords(i, j).items():
                stack.append((head + (k,) + tail, coeff * ck))
        return sum_terms(standard)

    def expand_monomial(self, mono: tuple[int, ...]) -> AssocPoly:
        out = AssocPoly.one(self.rank)
        for k in mono:
            out = out * expand_to_assoc(self.basis.elements[k].value)
        return out

    def expand(self, coords: Mapping[tuple[int, ...], Fraction]) -> AssocPoly:
        return AssocPoly(
            self.rank,
            terms_of(self.expand_monomial(mono).scale(c) for mono, c in coords.items()),
        )

    def monomial_blocks(self, mono: tuple[int, ...]) -> str:
        return "".join(self.block_of[k] for k in mono)


def is_ideal(n: GradedSubspace) -> bool:
    """Is the graded subspace closed under bracketing with the generators
    (hence an ideal), as far as the cutoff can tell?"""
    gens = [LieElt.gen(n.rank, j) for j in range(1, n.rank + 1)]
    for d in sorted(n.comp):
        if d + 1 > n.cutoff:
            continue
        for e in n.basis_elements(d):
            for g in gens:
                b = bracket(e, g)
                if not b.is_zero and not n.member(b):
                    return False
    return True


_IDEAL_CTX: dict = {}


def require_ideal(n: GradedSubspace) -> None:
    """Raise ValueError unless N is an ideal.  An N with an ideal context
    passed this check when the context was built, so it is not checked
    again."""
    if (n.rank, n.cutoff, n) not in _IDEAL_CTX and not is_ideal(n):
        raise ValueError("subspace is not an ideal")


def ideal_context(n: GradedSubspace) -> PBWContext:
    """PBW context for the chain 0 <= 0 <= N: monomials containing a c
    symbol span the two-sided ideal N_U, pure-d monomials are a transversal."""
    key = (n.rank, n.cutoff, n)
    if key not in _IDEAL_CTX:
        require_ideal(n)
        zero = GradedSubspace.zero(n.rank, n.cutoff)
        _IDEAL_CTX[key] = PBWContext(adapted_basis((zero, zero, n), "abcd"))
    return _IDEAL_CTX[key]


def reduce_mod_ideal(p: AssocPoly, n: GradedSubspace) -> AssocPoly:
    """Canonical representative of p modulo the two-sided ideal N_U of the
    envelope generated by the graded Lie ideal N."""
    ctx = ideal_context(n)
    rw = ctx.rewrite(p)
    out: dict[tuple[int, ...], Fraction] = {}
    for mono, c in rw.items():
        if all(ctx.block_of[k] == "d" for k in mono):
            out[mono] = c
    return ctx.expand(out)


def parse_poly(text: str, rank: int) -> AssocPoly:
    """Parse sums like ``"x1*x2 - x2*x1 + 3"``; every sign must be followed
    by a term, and only the first term may lack one."""
    parts = re.split(r"([+-])", text)
    if parts[0].strip():
        parts.insert(0, "+")
    elif len(parts) == 1:
        return AssocPoly.zero(rank)
    else:
        del parts[0]
    return AssocPoly(
        rank, (_poly_term(sign, term) for sign, term in zip(parts[::2], parts[1::2]))
    )


def _poly_term(sign: str, term: str) -> tuple[tuple[int, ...], Fraction]:
    if not term.strip():
        raise ValueError(f"{sign!r} is not followed by a term")
    coeff = Fraction(1 if sign == "+" else -1)
    mono: list[int] = []
    for factor in term.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValueError("empty factor")
        if factor.startswith("x"):
            mono.append(int(factor[1:]))
        else:
            coeff *= parse_coeff(factor)
    return tuple(mono), coeff


format_poly = format_terms

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
from .linalg import Echelon, SpanSolver


class AssocPoly:
    """Polynomial in noncommuting x_1..x_rank with rational coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[tuple[int, ...], Fraction] = ()):
        self.rank = rank
        self.terms: dict[tuple[int, ...], Fraction] = {}
        for m, c in dict(terms).items():
            c = Fraction(c)
            if not c:
                continue
            if any(not 1 <= x <= rank for x in m):
                raise ValueError(f"letter out of range in {m}")
            self.terms[m] = self.terms.get(m, Fraction(0)) + c
            if not self.terms[m]:
                del self.terms[m]

    @classmethod
    def zero(cls, rank: int) -> "AssocPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "AssocPoly":
        return cls(rank, {(): Fraction(1)})

    @classmethod
    def gen(cls, rank: int, j: int) -> "AssocPoly":
        if not 1 <= j <= rank:
            raise ValueError(f"generator index {j} out of range")
        return cls(rank, {(j,): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AssocPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __add__(self, other: "AssocPoly") -> "AssocPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return AssocPoly(self.rank, out)

    def __neg__(self) -> "AssocPoly":
        return AssocPoly(self.rank, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AssocPoly") -> "AssocPoly":
        return self + (-other)

    def scale(self, k) -> "AssocPoly":
        k = Fraction(k)
        return AssocPoly(self.rank, {m: k * c for m, c in self.terms.items()})

    def __mul__(self, other: "AssocPoly") -> "AssocPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return AssocPoly(self.rank, out)

    def truncate(self, cutoff: int) -> "AssocPoly":
        return AssocPoly(
            self.rank, {m: c for m, c in self.terms.items() if len(m) <= cutoff}
        )

    def degrees(self) -> list[int]:
        return sorted({len(m) for m in self.terms})

    def homogeneous(self, d: int) -> "AssocPoly":
        return AssocPoly(self.rank, {m: c for m, c in self.terms.items() if len(m) == d})

    def max_degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def constant(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"AssocPoly({format_poly(self)!r})"


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
        n = len(lyndon_words(rank, d))
        span = Echelon(n, s1.rows(d))
        for r in s1.rows(d):
            elements.append(AdaptedElement(lie_from_vector(rank, d, r), "a", d))

        def extend(rows, block):
            for r in rows:
                if span.insert(r):
                    elements.append(
                        AdaptedElement(lie_from_vector(rank, d, r), block, d)
                    )

        extend(s2.rows(d), "b")
        extend(c_carrier.rows(d) if c_carrier is not None else s3.rows(d), "c")
        if any(t not in span for t in s3.rows(d)):
            raise ValueError("carrier does not cover block c")
        units = [
            tuple(Fraction(int(i == k)) for i in range(n)) for k in range(n)
        ]
        extend(units, "d")
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
        result: dict[tuple[int, ...], Fraction] = {}

        def emit(mono: tuple[int, ...], coeff: Fraction) -> None:
            result[mono] = result.get(mono, Fraction(0)) + coeff
            if not result[mono]:
                del result[mono]

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
                emit(mono, coeff)
                continue
            i, j = mono[bad], mono[bad + 1]
            head, tail = mono[:bad], mono[bad + 2 :]
            stack.append((head + (j, i) + tail, coeff))
            for k, ck in self.bracket_coords(i, j).items():
                stack.append((head + (k,) + tail, coeff * ck))
        return result

    def expand_monomial(self, mono: tuple[int, ...]) -> AssocPoly:
        out = AssocPoly.one(self.rank)
        for k in mono:
            out = out * expand_to_assoc(self.basis.elements[k].value)
        return out

    def expand(self, coords: Mapping[tuple[int, ...], Fraction]) -> AssocPoly:
        out = AssocPoly.zero(self.rank)
        for mono, c in coords.items():
            out = out + self.expand_monomial(mono).scale(c)
        return out

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


def ideal_context(n: GradedSubspace) -> PBWContext:
    """PBW context for the chain 0 <= 0 <= N: monomials containing a c
    symbol span the two-sided ideal N_U, pure-d monomials are a transversal."""
    key = (n.rank, n.cutoff, n)
    if key not in _IDEAL_CTX:
        if not is_ideal(n):
            raise ValueError("subspace is not an ideal")
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


_NUM = re.compile(r"-?\d+(/\d+)?")


def parse_poly(text: str, rank: int) -> AssocPoly:
    """Parse sums like ``"x1*x2 - x2*x1 + 3"``."""
    text = text.strip()
    if not text:
        return AssocPoly.zero(rank)
    out = AssocPoly.zero(rank)
    pos = 0
    sign = 1
    first = True
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        if text[pos] in "+-":
            sign = 1 if text[pos] == "+" else -1
            pos += 1
            continue
        if not first and sign is None:
            raise ValueError("missing sign between terms")
        # one term: factors separated by '*'
        end = pos
        while end < len(text) and text[end] not in "+-":
            end += 1
        term = text[pos:end].strip()
        pos = end
        coeff = Fraction(sign)
        mono: list[int] = []
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError("empty factor")
            if factor.startswith("x"):
                mono.append(int(factor[1:]))
            else:
                coeff *= Fraction(factor)
        out = out + AssocPoly(rank, {tuple(mono): coeff})
        sign = None
        first = False
    return out


def format_poly(p: AssocPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for mono in sorted(p.terms, key=lambda m: (len(m), m)):
        c = p.terms[mono]
        body = "*".join(f"x{j}" for j in mono) if mono else ""
        mag = abs(c)
        if mag != 1 or not mono:
            body = f"{mag}*{body}" if mono else f"{mag}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)

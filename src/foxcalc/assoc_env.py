"""Adapted PBW bases of the universal envelope of the free Lie algebra, and
reduction modulo the ideal generated by a graded Lie ideal.  Envelope
elements are lie_core's AssocPoly, next to the expansion that makes them.

Every adapted basis here belongs to a chain X cap Y <= X <= X + Y of graded
subspaces and has four blocks per degree:
  a: basis of X cap Y,  b: completes it to X,
  c: completes X to X + Y with elements of Y,  d: completes X + Y to F.
Block order "abcd" or "dcba" fixes the PBW order; standard monomials are
nondecreasing products of basis elements.

Straightening sorts each monomial in one insertion pass, pushing one
bracket term per adjacent swap.  It computes in integers, like the echelon
kernel: the generator and bracket tables hold integer numerators over one
denominator per entry, a polynomial enters as integer numerators over one
denominator, and Fractions are formed only in the result, one per standard
monomial.  One loop serves every caller: an AssocPoly is checked and
cleared of denominators first, while the Lie Fox calculus hands over its
integer words as they are, and the sigma solvers ready-made monomials
over the basis with a generator in front (generator_products).

Reduction modulo an ideal names the blocks of one side of the chain that is
an ideal of F: Y = a + c, or X = a + b.  The standard monomials holding a
symbol of that side span the two-sided ideal it generates in the envelope
(PBW), so every monomial holding one, standard or not, is dropped as soon
as it is made; the other blocks' standard monomials are the residue.

SubalgebraIdealContext(rank, K, N) takes X = F_K and Y = N, a graded ideal.
All contexts live in one cache keyed by (rank, K, N); ideal_context(N) is
the K = empty entry, whose chain is 0 <= 0 <= N since F_K = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .lie_core import (
    AssocPoly,
    GradedSubspace,
    LieElt,
    bracket,
    expand_to_assoc,
    lie_from_vector,
    lie_vector,
    lyndon_words,
    subalgebra_closure,
)
from .lincomb import sum_terms
from .linalg import Echelon, SpanSolver, _integral, normalized

# an integer table entry (q, ((k, n_k), ..)): the coordinates n_k / q over
# the adapted basis, q the lcm of their denominators
IntRow = tuple[int, tuple[tuple[int, int], ...]]


def _int_row(coords: dict[int, Fraction]) -> IntRow:
    q, row = _integral(coords)
    return q, tuple(row.items())


@dataclass(frozen=True)
class AdaptedElement:
    value: LieElt
    block: str  # one of "a", "b", "c", "d"
    degree: int


class AdaptedBasis:
    """Homogeneous basis of the free Lie algebra (up to the cutoff) split
    into the four blocks of the chain of x and y, totally ordered for PBW
    straightening."""

    def __init__(
        self,
        x: GradedSubspace,
        y: GradedSubspace,
        elements: Sequence[AdaptedElement],
        orientation: str,
    ):
        if orientation not in ("abcd", "dcba"):
            raise ValueError("orientation must be 'abcd' or 'dcba'")
        block_rank = {b: k for k, b in enumerate(orientation)}
        self.x, self.y = x, y
        self.rank = x.rank
        self.cutoff = x.cutoff
        self.orientation = orientation
        # stable sort keeps the construction order inside each block/degree
        self.elements = tuple(
            sorted(elements, key=lambda e: (block_rank[e.block], e.degree))
        )


def adapted_basis(
    x: GradedSubspace, y: GradedSubspace, orientation: str = "abcd"
) -> AdaptedBasis:
    """Adapted basis for the chain X cap Y <= X <= X + Y: per degree, the
    rows of X cap Y, then those of X and of Y that are new to the span, then
    the Lyndon basis vectors that complete it."""
    rank, cutoff = x.rank, x.cutoff
    inter = x.intersect(y)
    elements: list[AdaptedElement] = []
    for d in range(1, cutoff + 1):
        span = Echelon()

        def extend(rows, block):
            for r in rows:
                if span.insert(r):
                    elt = lie_from_vector(rank, d, normalized(r))
                    elements.append(AdaptedElement(elt, block, d))

        extend(inter.echelon(d).rows(), "a")
        extend(x.echelon(d).rows(), "b")
        extend(y.echelon(d).rows(), "c")
        extend(({k: 1} for k in range(len(lyndon_words(rank, d)))), "d")
    return AdaptedBasis(x, y, elements, orientation)


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
        # integer tables: generator y_j and bracket [e_i, e_j] over the
        # adapted basis; the bracket table fills on first use
        self._gen_rows = {
            j: _int_row(self.coords_of_lie(LieElt.gen(self.rank, j)))
            for j in range(1, self.rank + 1)
        }
        # the generators that are one basis symbol (coefficient 1)
        self._gen_symbol = {
            j: row[0][0]
            for j, (q, row) in self._gen_rows.items()
            if len(row) == 1 and row[0][1] == q
        }
        self._bracket_rows: dict[tuple[int, int], IntRow] = {}
        self.block_of = {k: e.block for k, e in enumerate(basis.elements)}
        # drop blocks -> their symbols, once checked to be an ideal side
        self._dead: dict[str, frozenset[int]] = {}

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
            if coords is None:  # the d block completes every degree
                raise RuntimeError("adapted basis does not span this degree")
            for k, c in zip(self._by_degree[d], coords):
                if c:
                    out[k] = c
        return out

    def _bracket_row(self, i: int, j: int) -> IntRow:
        """[e_i, e_j] over the adapted basis, entered in the bracket table."""
        b = bracket(self.basis.elements[i].value, self.basis.elements[j].value)
        coords = {} if b.is_zero or b.max_degree() > self.cutoff else self.coords_of_lie(b)
        row = self._bracket_rows[i, j] = _int_row(coords)
        return row

    def _dead_symbols(self, drop: str) -> frozenset[int]:
        """The symbols of the blocks in drop: none at all, or every symbol of
        one side of the chain that is an ideal of F, Y (blocks a, c) or X
        (blocks a, b); any other set raises ValueError.  Each side is
        checked once per context: a subspace with an ideal context was
        checked when that context was built, any other through is_ideal."""
        if drop in self._dead:
            return self._dead[drop]
        if not set(drop) <= set("abcd"):
            raise ValueError(f"unknown block in {drop!r}")
        dead = frozenset(k for k, b in self.block_of.items() if b in drop)
        if dead:
            for side, space in (("ac", self.basis.y), ("ab", self.basis.x)):
                if dead == {k for k, b in self.block_of.items() if b in side}:
                    break
            else:
                raise ValueError(f"blocks {drop!r} are not one side of the chain")
            cached = (space.rank, frozenset(), space) in SubalgebraIdealContext._cache
            if not (side in self._dead or cached or is_ideal(space)):
                raise ValueError(f"blocks {side!r} do not span an ideal")
            self._dead[side] = dead
        self._dead[drop] = dead
        return dead

    def rewrite(self, p, drop: str = "") -> dict[tuple[int, ...], Fraction]:
        """Standard-monomial coordinates of p: maps nondecreasing index
        tuples over the adapted basis to coefficients, without the
        monomials that hold a symbol of a block in ``drop``.

        p is an AssocPoly, whose rank and degree are checked, or integers
        the library built itself, taken as they are: a pair (den, {word:
        n}), the sum of n / den times each word, or a list of stack entries
        (mono, n, q), the sum of n / q times each monomial over the adapted
        basis (generator_products builds them).

        drop names no block, or the blocks of one side of the chain that is
        an ideal of F (see _dead_symbols).  The monomials holding one of its
        symbols span the two-sided ideal that side generates, so each
        generator expansion, stack entry and bracket term holding one is
        discarded where it is made: what remains is p modulo that ideal.

        A popped monomial is sorted in one insertion pass.  Moving e_j left
        past a greater e_i applies e_i e_j = e_j e_i + [e_i, e_j]: the
        monomial goes on sorting, and each term of the bracket is pushed in
        the pair's place.

        Arithmetic is in integers: words enter as P / den with P integral,
        and a stack entry (mono, n, q) stands for n / (q * den) times mono,
        q the product of the denominators met on its way.  Standard
        monomials collect their numerators per q; a Fraction is formed only
        in the result, once per monomial, over the lcm of those q."""
        den, words, entries = 1, {}, ()
        if isinstance(p, AssocPoly):
            if p.rank != self.rank:
                raise ValueError("rank mismatch")
            if p.max_degree() > self.cutoff:
                raise ValueError("degree exceeds cutoff")
            den, words = _integral(p.terms)
        elif isinstance(p, tuple):
            den, words = p
        else:
            entries = p
        dead = self._dead_symbols(drop)
        gen_rows, gen_symbol = self._gen_rows, self._gen_symbol
        stack = [e for e in entries if dead.isdisjoint(e[0])]
        for word, n in words.items():
            mono = tuple(map(gen_symbol.get, word))
            if None not in mono:
                if dead.isdisjoint(mono):
                    stack.append((mono, n, 1))
                continue
            terms = [((), n, 1)]
            for letter in word:
                qj, subs = gen_rows[letter]
                terms = [
                    (mono + (k,), c * nk, q * qj)
                    for mono, c, q in terms
                    for k, nk in subs
                    if k not in dead
                ]
            stack.extend(terms)
        table = self._bracket_rows
        standard: dict[int, dict[tuple[int, ...], int]] = {}  # q -> mono -> n
        while stack:
            mono, n, q = stack.pop()
            cur = list(mono)
            for t in range(1, len(cur)):
                j = cur[t]
                if cur[t - 1] <= j:
                    continue
                s = t
                while s and cur[s - 1] > j:
                    # cur[:s - 1] (i, j) cur[s + 1:]; j moves left of i
                    i = cur[s - 1]
                    qb, row = table.get((i, j)) or self._bracket_row(i, j)
                    live = [(k, nk) for k, nk in row if k not in dead]
                    if live:
                        head, tail = tuple(cur[: s - 1]), tuple(cur[s + 1 :])
                        qb *= q
                        for k, nk in live:
                            stack.append((head + (k,) + tail, n * nk, qb))
                    cur[s] = i
                    s -= 1
                cur[s] = j
            acc = standard.setdefault(q, {})
            mono = tuple(cur)
            acc[mono] = acc.get(mono, 0) + n
        q = lcm(*standard)
        if len(standard) == 1:
            (acc,) = standard.values()
        else:
            acc = sum_terms(
                (mono, n * (q // qm)) for qm, part in standard.items() for mono, n in part.items()
            )
        q *= den
        return {mono: Fraction(n, q) for mono, n in acc.items() if n}

    def generator_products(
        self, parts: Mapping[int, Mapping[tuple[int, ...], Fraction]]
    ) -> list[tuple[tuple[int, ...], int, int]]:
        """Stack entries for rewrite standing for sum_j x_j m_j, each m_j =
        parts[j] given in standard-monomial coordinates: x_j's generator
        row is put in front of each standard monomial, so straightening a
        product only has its first symbol to insert."""
        out = []
        for j, coords in parts.items():
            qj, row = self._gen_rows[j]
            for mono, c in coords.items():
                n, q = c.numerator, c.denominator * qj
                out.extend(((k,) + mono, n * nk, q) for k, nk in row)
        return out

    def expand_monomial(self, mono: tuple[int, ...]) -> AssocPoly:
        out = AssocPoly.one(self.rank)
        for k in mono:
            out = out * expand_to_assoc(self.basis.elements[k].value)
        return out

    def expand(self, coords: Mapping[tuple[int, ...], Fraction]) -> AssocPoly:
        return AssocPoly._summed(
            (self.rank,),
            (
                (m, c * k)
                for mono, c in coords.items()
                for m, k in self.expand_monomial(mono).terms.items()
            ),
        )

    def monomial_blocks(self, mono: tuple[int, ...]) -> str:
        return "".join(self.block_of[k] for k in mono)


def is_ideal(n: GradedSubspace) -> bool:
    """Is the graded subspace closed under bracketing with the generators
    (hence an ideal), as far as the cutoff can tell?  A subspace built as
    an ideal (gamma_m(L), ideal_closure) says so itself; any other is
    checked bracket by bracket."""
    if n.built_as_ideal:
        return True
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


class SubalgebraIdealContext:
    """Adapted PBW data for F_K inside F modulo a graded ideal N.  The a and
    c symbols span N, so the monomials holding one span N_U.  N is checked
    to be an ideal once, when its first context is built."""

    _cache: dict = {}

    def __new__(cls, rank: int, K: frozenset[int], n: GradedSubspace):
        key = (rank, K, n)
        if key not in cls._cache:
            if (rank, frozenset(), n) not in cls._cache and not is_ideal(n):
                raise ValueError("subspace is not an ideal")
            self = super().__new__(cls)
            fk = subalgebra_closure([LieElt.gen(rank, j) for j in sorted(K)], rank, n.cutoff)
            self.ctx = PBWContext(adapted_basis(fk, n))
            cls._cache[key] = self
        return cls._cache[key]

    def is_zero_mod(self, p: AssocPoly) -> bool:
        return not self.ctx.rewrite(p, "ac")


# one dict under two names: perfbench/tracer.py counts the ideal contexts'
# cache hits through _IDEAL_CTX and the class's through _cache
_IDEAL_CTX = SubalgebraIdealContext._cache


def ideal_context(n: GradedSubspace) -> PBWContext:
    """PBW context for the chain 0 <= 0 <= N (K empty): monomials holding a
    c symbol span the two-sided ideal N_U, pure-d monomials a transversal."""
    return SubalgebraIdealContext(n.rank, frozenset(), n).ctx


def reduce_mod_ideal(p: AssocPoly, n: GradedSubspace) -> AssocPoly:
    """Canonical representative of p modulo the two-sided ideal N_U of the
    envelope generated by the graded Lie ideal N."""
    ctx = ideal_context(n)
    return ctx.expand(ctx.rewrite(p, "c"))

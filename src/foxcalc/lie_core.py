"""Free Lie algebra over Q on y_1..y_rank, in the Lyndon word basis.

A Lyndon word is strictly smaller than all of its proper cyclic rotations;
the standard bracketing of w = uv (v the longest proper Lyndon suffix) is
[b(u), b(v)].  Expansions of these bracketings into the free associative
algebra are triangular: the lexicographically least monomial of b(w) is w,
with coefficient 1, which drives the projection back to the Lyndon basis.

Brackets come from a cached table of integer coordinates of [b(u), b(v)]
for pairs of Lyndon words u < v, extended bilinearly and filled by
Lyndon-Shirshov rewriting on the standard factorisation u = u1 u2:
[b(u), b(v)] = b(uv) when u is a letter or u2 >= v, else Jacobi.  The
envelope expansion, on the same factorisation, serves only
_expand_integral, which expand_to_assoc wraps in Fractions, and
project_to_lyndon (PBW rewriting, the Lie Fox derivatives); their envelope
elements, AssocPoly, are defined and parsed here.

A GradedSubspace keeps each degree as a linalg.Echelon of canonical integer
rows over the Lyndon coordinates; membership hands those rows to the kernel
as they are, sums and intersections are one Echelon.sum or Echelon.intersect
per degree, and only GradedSubspace.rows builds dense Fraction RREF rows, on
request.  Basis elements taken from the rows have integer coefficients: the
Lyndon basis is a Z-basis, so their brackets stay integral.

Spans, bracket spans and both closures are one recurrence in ascending
degree: degree d is spanned by the seeds of degree d and the brackets
[X_i, Y_{d-i}] of integer rows, with one rref per degree.  For [A, B],
X = A and Y = B; for a subalgebra, X = Y = the result (complete below d);
for an ideal, X = the result and Y = the letters, since the ideal is spanned
by left-normed brackets [r, y_i1, .., y_ik].  With both sides fixed,
component d reads only their components, so a bracket span can be built
in some degrees only (membership of an element with those degrees).

Three subspaces come in closed form, as spans of Lyndon words: the whole
algebra; the subalgebra F_K generated by letters y_j, j in K, spanned by the
Lyndon words over K (their standard bracketings stay in K); and the lower
central term gamma_l(L) = L_{>=l}, since L is generated in degree 1.
subalgebra_closure and power_subspace return these directly and close by
brackets only for other generators or bases.  Their echelons are unit rows,
so the kernel intersects with them by column order, without Zassenhaus
doubling.  gamma_l(L) shares the echelons of the L it is taken from, so a
series over L builds the unit rows of each degree once.

A subspace is immutable, and keeps what is known of it for as long as it
lives: its own commutator subspace [S, S], degree by degree as bracket_span
builds it, and whether it was built as an ideal of the whole algebra
(gamma_m(L) and ideal_closure).  So a session that asks about one ideal N
builds each degree of [N, N] once; [N, N]_d lies in N_d, and the stored
echelons go when N goes.  Nothing else is kept between calls.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .lincomb import Graded, Terms, parse_coeff, sum_terms
from .linalg import Echelon, Vector, _integral, in_span, normalized, pivot, rref


@lru_cache(maxsize=None)
def lyndon_words(rank: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All Lyndon words of the given length over letters 1..rank, lex order
    (Duval's generation)."""
    if rank < 1 or degree < 1:
        return ()
    out = []
    w = [1]
    while w:
        if len(w) == degree:
            out.append(tuple(w))
        # extend periodically to the target length, then increment
        w = (w * (degree // len(w) + 1))[:degree]
        while w and w[-1] == rank:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(sorted(out))


def witt_dimension(rank: int, degree: int) -> int:
    """Dimension of the degree-d component: (1/d) sum_{e|d} mu(e) r^{d/e}.
    At rank 0 or 1 the sum is 1 for r = d = 1 and 0 otherwise, which is
    returned without the sum, so any degree answers at once."""
    if degree < 1 or rank < 0:
        raise ValueError("degree must be positive and rank non-negative")
    if rank <= 1:
        return int(rank == degree == 1)
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * rank ** (degree // e)
    return total // degree


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def _factor(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Standard factorisation (u1, u2) of a Lyndon word of length >= 2: u2 is
    its longest proper Lyndon suffix."""
    for k in range(1, len(word)):
        if _is_lyndon(word[k:]):
            return word[:k], word[k:]
    raise ValueError(f"not a Lyndon word: {word}")


@lru_cache(maxsize=None)
def standard_bracketing(word: tuple[int, ...]):
    """Nested-pair form of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return word[0]
    return tuple(map(standard_bracketing, _factor(word)))


def _is_lyndon(word: tuple[int, ...]) -> bool:
    n = len(word)
    if n == 0:
        return False
    for k in range(1, n):
        if word >= word[k:] + word[:k]:
            return False
    return True


class LieElt(Graded):
    """Q-linear combination of Lyndon basis elements, graded by word length."""

    __slots__ = _SHAPE = ("rank",)
    _coerce = Fraction

    def __init__(self, rank: int, terms: Terms = ()):
        self.rank = rank
        super().__init__(terms)

    def _admit(self, w: tuple[int, ...]) -> bool:
        if not _is_lyndon(w):
            raise ValueError(f"not a Lyndon word: {w}")
        return super()._admit(w)

    def _render(self, w: tuple[int, ...]) -> str:
        return render_bracketing(standard_bracketing(w))


class LieProjectionError(ValueError):
    """Raised when an associative polynomial is not a Lie element; carries
    the non-Lie residual."""

    def __init__(self, residual):
        super().__init__(f"not a Lie element; residual {residual}")
        self.residual = residual


class AssocPoly(Graded):
    """Polynomial in noncommuting x_1..x_rank with rational coefficients:
    an element of the universal envelope, where expand_to_assoc sends Lie
    elements and project_to_lyndon brings them back."""

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


def _expand_integral(a: LieElt) -> tuple[int, dict[tuple[int, ...], int]]:
    """Expansion in the free associative algebra as (den, {word: n}): the
    sum of n / den times each word, den the lcm of a's denominators.  The
    Lie Fox calculus reads its derivatives off it without a Fraction."""
    den, ints = _integral(a.terms)
    return den, sum_terms((m, n * k) for w, n in ints.items() for m, k in _expand_word(w).items())


def expand_to_assoc(a: LieElt) -> AssocPoly:
    """Expansion in the free associative algebra: the integer expansion
    with one Fraction per word."""
    den, acc = _expand_integral(a)
    return AssocPoly._trusted((a.rank,), {m: Fraction(n, den) for m, n in acc.items()})


@lru_cache(maxsize=None)
def _expand_word(w: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """b(u1 u2) = b(u1)b(u2) - b(u2)b(u1), integer coefficients."""
    if len(w) == 1:
        return {w: 1}
    left, right = map(_expand_word, _factor(w))
    return sum_terms(
        (m, s * c1 * c2)
        for m1, c1 in left.items()
        for m2, c2 in right.items()
        for m, s in ((m1 + m2, 1), (m2 + m1, -1))
    )


def project_to_lyndon(p: AssocPoly) -> LieElt:
    """Inverse of expand_to_assoc on Lie elements; raises
    :class:`LieProjectionError` otherwise."""
    # triangular projection: take off c*b(w) for the least monomial w while w
    # is Lyndon; what stays (a constant term too) is not a Lie element
    residual, coords = dict(p.terms), {}
    while residual and _is_lyndon(w := min(residual)):
        c = coords[w] = residual[w]
        sum_terms(((m, -c * k) for m, k in _expand_word(w).items()), residual)
    if residual:
        raise LieProjectionError(AssocPoly(p.rank, residual))
    return LieElt._trusted((p.rank,), coords)


@lru_cache(maxsize=None)
def _bracket_words(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """[b(u), b(v)] for Lyndon words u < v as (Lyndon word, int) pairs, in
    word order: b(uv) when u is a letter or u = u1 u2 with u2 >= v, else
    [[u1, u2], v] = [u1, [u2, v]] - [u2, [u1, v]].  Integer coordinates,
    independent of the rank; the least word is uv, with coefficient 1."""
    if len(u) == 1 or _factor(u)[1] >= v:
        return ((u + v, 1),)
    u1, u2 = _factor(u)
    entry = sum_terms(_bracket_terms({u1: 1}, dict(_bracket_words(u2, v))))
    sum_terms(_bracket_terms({u2: -1}, dict(_bracket_words(u1, v))), entry)
    if entry.get(u + v) != 1 or min(entry) != u + v:
        raise RuntimeError(f"[b{u}, b{v}] breaks the triangularity of the Lyndon basis")
    return tuple(sorted(entry.items()))


def bracket(a: LieElt, b: LieElt) -> LieElt:
    """Bilinear extension of the cached table of Lyndon-word brackets."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    return a._like(sum_terms(_bracket_terms(a.terms, b.terms)))


def _bracket_terms(a: dict, b: dict):
    for u, cu in a.items():
        for v, cv in b.items():
            if u == v:
                continue
            c, entry = (cu * cv, _bracket_words(u, v)) if u < v else (-cu * cv, _bracket_words(v, u))
            for w, k in entry:
                yield w, c * k


def leftnorm(head: LieElt, tail: Iterable[LieElt]) -> LieElt:
    """Left-normed bracket [[..[head, t1], t2], ..]."""
    out = head
    for t in tail:
        out = bracket(out, t)
    return out


@lru_cache(maxsize=None)
def _word_index(rank: int, degree: int) -> dict[tuple[int, ...], int]:
    return {w: k for k, w in enumerate(lyndon_words(rank, degree))}


def lie_vector(a: LieElt, degree: int) -> dict[int, Fraction]:
    """Sparse coordinates of the degree-d component over lyndon_words."""
    idx = _word_index(a.rank, degree)
    return {idx[w]: c for w, c in a.terms.items() if len(w) == degree}


def lie_from_vector(rank: int, degree: int, vec: Vector) -> LieElt:
    """Inverse of lie_vector, from sparse or dense coordinates; the entries
    must be ints or Fractions (an integer row gives integer coefficients)."""
    words = lyndon_words(rank, degree)
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return LieElt._trusted((rank,), {words[k]: c for k, c in items if c})


_NONE = Echelon()  # the component of a degree a subspace misses; never grown
_ZERO = Fraction(0)


class GradedSubspace:
    """Graded subspace of the free Lie algebra up to a degree cutoff.  Each
    component is an Echelon of canonical integer rows over the Lyndon
    coordinates (primitive, positive at the pivot, zero at the other
    pivots): one form per subspace, so equal subspaces compare and hash
    equal.  Components are never grown once the subspace is built.

    ``_known`` holds what is known of the subspace without changing it
    (equality and hash ignore it): ``_known[d]``, the echelon of
    [self, self]_d once bracket_span has built it, and ``_known["ideal"]``,
    True when the subspace was built as an ideal of the whole algebra."""

    __slots__ = ("rank", "cutoff", "comp", "_hash", "_known")

    def __init__(self, rank: int, cutoff: int, comp: Mapping[int, Iterable[Vector]] = ()):
        """comp maps a degree to rows spanning that component, in any form
        Echelon accepts; they are reduced to canonical rows here."""
        self.rank, self.cutoff, self._hash, self._known = rank, cutoff, None, {}
        self.comp = {
            d: ech for d, rows in dict(comp).items() if (ech := Echelon(rows)).pivot_rows
        }

    @classmethod
    def _trusted(cls, rank: int, cutoff: int, comp: Mapping[int, Echelon]) -> "GradedSubspace":
        """A subspace holding echelons that no one grows any more."""
        out = object.__new__(cls)
        out.rank, out.cutoff, out._hash, out._known = rank, cutoff, None, {}
        out.comp = {d: ech for d, ech in comp.items() if ech.pivot_rows}
        return out

    @classmethod
    def zero(cls, rank: int, cutoff: int) -> "GradedSubspace":
        return cls(rank, cutoff)

    @classmethod
    def full(cls, rank: int, cutoff: int) -> "GradedSubspace":
        return cls._words(rank, cutoff, frozenset(range(1, rank + 1)))

    @classmethod
    def _words(cls, rank: int, cutoff: int, letters: frozenset) -> "GradedSubspace":
        """Span of b(w) over the Lyndon words w over the letters; unit rows are canonical."""
        every = letters.issuperset(range(1, rank + 1))
        comp = {}
        for d in range(1, cutoff + 1):
            words = lyndon_words(rank, d)
            comp[d] = Echelon._trusted(
                {k: {k: 1} for k, w in enumerate(words) if every or letters.issuperset(w)}, True
            )
        return cls._trusted(rank, cutoff, comp)

    @classmethod
    def span(cls, elements: Iterable[LieElt], rank: int, cutoff: int) -> "GradedSubspace":
        """Graded span of the elements' homogeneous components, which must
        lie within the cutoff."""
        return _graded_brackets(rank, cutoff, elements, None, cls.zero(rank, cutoff))

    def _check(self, other: "GradedSubspace") -> None:
        if self.rank != other.rank or self.cutoff != other.cutoff:
            raise ValueError("subspace shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSubspace)
            and self.rank == other.rank
            and self.cutoff == other.cutoff
            and self.comp == other.comp
        )

    def __hash__(self):
        if self._hash is None:
            entries = frozenset(
                (d, p, k, x)
                for d, ech in self.comp.items()
                for p, row in ech.pivot_rows.items()
                for k, x in row.items()
            )
            self._hash = hash((self.rank, self.cutoff, entries))
        return self._hash

    def echelon(self, d: int) -> Echelon:
        """The degree-d component (empty when the subspace misses d); it
        must not be grown."""
        return self.comp.get(d, _NONE)

    def dim(self, d: int) -> int:
        return len(self.echelon(d).pivot_rows)

    def dims(self) -> dict[int, int]:
        return {d: self.dim(d) for d in range(1, self.cutoff + 1)}

    def rows(self, d: int) -> tuple[tuple[Fraction, ...], ...]:
        """Dense RREF rows of the degree-d component, sorted by pivot."""
        cols = range(len(lyndon_words(self.rank, d)))
        return tuple(
            tuple(row.get(k, _ZERO) for k in cols)
            for row in map(normalized, self.echelon(d).rows())
        )

    def basis_elements(self, d: int) -> list[LieElt]:
        """The canonical rows of degree d as elements (integer coefficients)."""
        return [lie_from_vector(self.rank, d, r) for r in self.echelon(d).rows()]

    def member(self, a: LieElt) -> bool:
        if a.rank != self.rank:
            raise ValueError("rank mismatch")
        for d in a.degrees():
            if d > self.cutoff:
                raise ValueError("element degree exceeds cutoff")
            if not in_span(lie_vector(a, d), self.echelon(d)):
                return False
        return True

    def sum(self, other: "GradedSubspace") -> "GradedSubspace":
        self._check(other)
        comp = {d: self.echelon(d).sum(other.echelon(d)) for d in set(self.comp) | set(other.comp)}
        return GradedSubspace._trusted(self.rank, self.cutoff, comp)

    def intersect(self, other: "GradedSubspace") -> "GradedSubspace":
        self._check(other)
        comp = {d: self.comp[d].intersect(other.comp[d]) for d in set(self.comp) & set(other.comp)}
        return GradedSubspace._trusted(self.rank, self.cutoff, comp)

    def contains(self, other: "GradedSubspace") -> bool:
        self._check(other)
        for d, theirs in other.comp.items():
            mine = self.echelon(d)
            if any(r not in mine for r in theirs.pivot_rows.values()):
                return False
        return True

    @property
    def built_as_ideal(self) -> bool:
        """Is this subspace an ideal of the whole algebra by construction
        (gamma_m(L), ideal_closure)?  False says only that it was not
        built as one."""
        return self._known.get("ideal", False)

    def bracket_span(
        self, other: "GradedSubspace", degrees: Iterable[int] | None = None
    ) -> "GradedSubspace":
        """Graded span of [self, other] up to the cutoff; given degrees, only
        those components are built (each depends on self and other alone)
        and the others are left empty.  [self, self] is kept on self: each
        of its degrees is built once, the first time it is asked for, and
        the result shares the kept echelons."""
        self._check(other)
        if other is not self:
            return _graded_brackets(self.rank, self.cutoff, (), self, other, degrees)
        known = self._known
        wanted = range(1, self.cutoff + 1) if degrees is None else sorted(set(degrees))
        missing = [d for d in wanted if d not in known]
        if missing:
            built = _graded_brackets(self.rank, self.cutoff, (), self, self, missing)
            known.update((d, built.echelon(d)) for d in missing)
        return GradedSubspace._trusted(self.rank, self.cutoff, {d: known[d] for d in wanted})


def _graded_brackets(
    rank: int,
    cutoff: int,
    seeds: Iterable[LieElt],
    left,
    right,
    degrees: Iterable[int] | None = None,
) -> GradedSubspace:
    """Degree by degree, ascending: component d is spanned by the seeds'
    degree-d components and the brackets of the canonical rows of left in
    degree i with those of right in degree d - i.  A side given as None is
    the result built so far (complete below d), which makes this a closure.
    When both sides are one object, each unordered pair is bracketed once.
    Given degrees (both sides fixed), only those components are built."""
    rows: dict[int, list[dict]] = {}
    for e in seeds:
        if e.rank != rank:
            raise ValueError("rank mismatch")
        for d in e.degrees():
            if d > cutoff:
                raise ValueError("element degree exceeds cutoff")
            rows.setdefault(d, []).append(lie_vector(e, d))
    if degrees is None:
        degrees = range(1, cutoff + 1)
    elif left is None or right is None:
        raise ValueError("a closure needs every degree below the ones asked for")
    else:
        degrees = sorted(set(degrees))
        if degrees and degrees[-1] > cutoff:
            raise ValueError("element degree exceeds cutoff")
    out = GradedSubspace._trusted(rank, cutoff, {})
    left, right = (out if side is None else side for side in (left, right))
    same, elements = left is right, {}

    def basis(side: GradedSubspace, i: int) -> list[LieElt]:
        key = (side is right, i)  # each side's elements, built once per degree
        if key not in elements:
            elements[key] = side.basis_elements(i)
        return elements[key]

    for d in degrees:
        new = rows.get(d, [])
        for i in range(1, d // 2 + 1 if same else d):
            if left.dim(i) and right.dim(d - i):
                ys = basis(right, d - i)
                for k, x in enumerate(basis(left, i)):
                    for y in ys[k + 1 :] if same and 2 * i == d else ys:
                        new.append(lie_vector(bracket(x, y), d))
        if new and (ech := Echelon._trusted({pivot(r): r for r in rref(new)})).pivot_rows:
            out.comp[d] = ech
    return out


def subalgebra_closure(generators: Sequence[LieElt], rank: int, cutoff: int) -> GradedSubspace:
    """Graded span of the subalgebra generated by homogeneous elements: for
    letters y_j, j in K, the span of the Lyndon words over K; otherwise
    degree d is spanned by the generators of degree d and the brackets of
    the subalgebra's canonical rows in degrees i and d - i."""
    for g in generators:
        if g.rank != rank:
            raise ValueError("rank mismatch")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    if all(len(g.terms) == 1 and g.max_degree() == 1 for g in generators):
        K = frozenset(j for g in generators for (j,) in g.terms)
        return GradedSubspace._words(rank, cutoff, K)
    return _graded_brackets(rank, cutoff, [g.truncate(cutoff) for g in generators], None, None)


def ideal_closure(elements: Sequence[LieElt], rank: int, cutoff: int) -> GradedSubspace:
    """Graded span of the ideal generated by the homogeneous components of
    the given elements.  The ideal is spanned by the left-normed brackets
    [r_d, y_i1, .., y_ik], so degree d is spanned by the components of
    degree d and the brackets of the ideal's canonical rows in degree d - 1
    with the letters."""
    letters = GradedSubspace.full(rank, 1)
    out = _graded_brackets(rank, cutoff, [e.truncate(cutoff) for e in elements], None, letters)
    out._known["ideal"] = True
    return out


def power_subspace(base: GradedSubspace, power: int) -> GradedSubspace:
    """power-th term of the lower central series of the subspace: iterated
    bracket spans [[base, base], base], ...; for the whole algebra, which is
    generated in degree 1, the span of the degrees >= power, which shares
    the base's echelons (components are never grown once built) and is an
    ideal by construction."""
    if power < 1:
        raise ValueError("power must be positive")
    if all(base.dim(d) == witt_dimension(base.rank, d) for d in range(1, base.cutoff + 1)):
        out = GradedSubspace._trusted(
            base.rank, base.cutoff, {d: ech for d, ech in base.comp.items() if d >= power}
        )
        out._known["ideal"] = True
        return out
    out = base
    for _ in range(power - 1):
        out = out.bracket_span(base)
    return out


def render_bracketing(tree) -> str:
    if isinstance(tree, int):
        return f"y{tree}"
    return f"[{render_bracketing(tree[0])},{render_bracketing(tree[1])}]"


class _LieParser:
    """Recursive descent for  expr := term ((+|-) term)*;
    term := [rational *] atom;  atom := yK | '[' expr ',' expr ']'."""

    def __init__(self, text: str, rank: int):
        self.text = text
        self.pos = 0
        self.rank = rank

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> LieElt:
        out = self.expr()
        self._skip()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at {self.pos}: {self.text[self.pos:]!r}")
        return out

    def expr(self) -> LieElt:
        sign = 1
        if self._peek() in ("+", "-"):
            sign = 1 if self._peek() == "+" else -1
            self.pos += 1
        out = self.term().scale(sign)
        while self._peek() in ("+", "-"):
            sign = 1 if self._peek() == "+" else -1
            self.pos += 1
            out = out + self.term().scale(sign)
        return out

    def term(self) -> LieElt:
        coeff = Fraction(1)
        ch = self._peek()
        if ch.isdigit():
            start = self.pos
            while self._peek().isdigit() or self._peek() == "/":
                self.pos += 1
            coeff = parse_coeff(self.text[start : self.pos])
            if self._peek() != "*":
                raise ValueError("expected '*' after coefficient")
            self.pos += 1
        return self.atom().scale(coeff)

    def atom(self) -> LieElt:
        ch = self._peek()
        if ch == "y":
            self.pos += 1
            start = self.pos
            while self._peek().isdigit():
                self.pos += 1
            if start == self.pos:
                raise ValueError("expected generator index after 'y'")
            j = int(self.text[start : self.pos])
            if not 1 <= j <= self.rank:
                raise ValueError(f"generator index {j} out of range")
            return LieElt.gen(self.rank, j)
        if ch == "[":
            self.pos += 1
            left = self.expr()
            if self._peek() != ",":
                raise ValueError("expected ',' in bracket")
            self.pos += 1
            right = self.expr()
            if self._peek() != "]":
                raise ValueError("expected ']'")
            self.pos += 1
            return bracket(left, right)
        raise ValueError(f"unexpected character {ch!r} at {self.pos}")


def parse_lie(text: str, rank: int) -> LieElt:
    if text.strip() == "0":
        return LieElt.zero(rank)
    return _LieParser(text, rank).parse()

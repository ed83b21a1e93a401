"""Free Lie algebra over Q on y_1..y_rank, in the Lyndon word basis.

A Lyndon word is strictly smaller than all of its proper cyclic rotations;
the standard bracketing of w = uv (v the longest proper Lyndon suffix) is
[b(u), b(v)].  Expansions of these bracketings into the free associative
algebra are triangular: the lexicographically least monomial of b(w) is w,
with coefficient 1, which drives the projection back to the Lyndon basis.

Brackets come from a cached table of integer coordinates of [b(u), b(v)]
for pairs of Lyndon words, extended bilinearly.  The envelope expansion is
used only to fill that table and, through expand_to_assoc and
project_to_lyndon, by the PBW rewriting and the Lie Fox derivatives.

A GradedSubspace keeps each degree as a linalg.Echelon of canonical integer
rows over the Lyndon coordinates; spans, sums, intersections, membership
and both closures hand those rows to the kernel as they are, and only
GradedSubspace.rows builds dense Fraction RREF rows, on request.  Basis
elements taken from the rows have integer coefficients: the Lyndon basis is
a Z-basis, so their brackets stay integral.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .lincomb import Graded, Terms, format_terms, parse_coeff, sum_terms
from .linalg import Echelon, Vector, in_span, intersect_rowspaces, normalized, rref


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
    """Dimension of the degree-d component: (1/d) sum_{e|d} mu(e) r^{d/e}."""
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
def standard_bracketing(word: tuple[int, ...]):
    """Nested-pair form of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return word[0]
    # longest proper suffix that is Lyndon
    for k in range(1, len(word)):
        if _is_lyndon(word[k:]):
            return (standard_bracketing(word[:k]), standard_bracketing(word[k:]))
    raise ValueError(f"not a Lyndon word: {word}")


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


def expand_to_assoc(a: LieElt):
    """Expansion in the free associative algebra (an AssocPoly)."""
    from .assoc_env import AssocPoly

    return AssocPoly(
        a.rank,
        ((m, c * k) for w, c in a.terms.items() for m, k in _expand_word(w).items()),
    )


@lru_cache(maxsize=None)
def _expand_word(w: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return _expand_tree(standard_bracketing(w))


def _expand_tree(tree) -> dict[tuple[int, ...], int]:
    if isinstance(tree, int):
        return {(tree,): 1}
    return _commutator(_expand_tree(tree[0]), _expand_tree(tree[1]))


def _commutator(left: dict, right: dict) -> dict[tuple[int, ...], int]:
    """left*right - right*left of two integer associative expansions."""
    return sum_terms(
        (m, s * c1 * c2)
        for m1, c1 in left.items()
        for m2, c2 in right.items()
        for m, s in ((m1 + m2, 1), (m2 + m1, -1))
    )


def _peel_lyndon(residual: dict) -> dict:
    """Lyndon coordinates of residual by the triangular projection: take off
    c*b(w) for the least monomial w while w is a Lyndon word.  residual is
    consumed in place; what stays (a constant term too, since the empty word
    is not Lyndon) is not a Lie element."""
    coords = {}
    while residual and _is_lyndon(w := min(residual)):
        c = coords[w] = residual[w]
        sum_terms(((m, -c * k) for m, k in _expand_word(w).items()), residual)
    return coords


def project_to_lyndon(p) -> LieElt:
    """Inverse of expand_to_assoc on Lie elements; raises
    :class:`LieProjectionError` otherwise."""
    residual = dict(p.terms)
    coords = _peel_lyndon(residual)
    if residual:
        from .assoc_env import AssocPoly

        raise LieProjectionError(AssocPoly(p.rank, residual))
    return LieElt._trusted((p.rank,), coords)


@lru_cache(maxsize=None)
def _bracket_words(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """[b(u), b(v)] for Lyndon words u < v as (Lyndon word, int) pairs.

    The Lyndon basis is a Z-basis of the free Lie ring, so the coordinates
    are integers, and they do not depend on the rank."""
    residual = _commutator(_expand_word(u), _expand_word(v))
    coords = _peel_lyndon(residual)
    if residual:
        raise RuntimeError(f"[b{u}, b{v}] left a non-Lie residual")
    return tuple(coords.items())


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
    equal.  Components are never grown once the subspace is built."""

    __slots__ = ("rank", "cutoff", "comp", "_hash")

    def __init__(self, rank: int, cutoff: int, comp: Mapping[int, Iterable[Vector]] = ()):
        """comp maps a degree to rows spanning that component, in any form
        Echelon accepts; they are reduced to canonical rows here."""
        self.rank, self.cutoff, self._hash = rank, cutoff, None
        self.comp = {
            d: ech for d, rows in dict(comp).items() if (ech := Echelon(rows)).pivot_rows
        }

    @classmethod
    def _trusted(cls, rank: int, cutoff: int, comp: Mapping[int, Echelon]) -> "GradedSubspace":
        """A subspace holding echelons that no one grows any more."""
        out = object.__new__(cls)
        out.rank, out.cutoff, out._hash = rank, cutoff, None
        out.comp = {d: ech for d, ech in comp.items() if ech.pivot_rows}
        return out

    @classmethod
    def zero(cls, rank: int, cutoff: int) -> "GradedSubspace":
        return cls(rank, cutoff)

    @classmethod
    def full(cls, rank: int, cutoff: int) -> "GradedSubspace":
        comp = {
            d: Echelon._trusted({k: 1} for k in range(len(lyndon_words(rank, d))))
            for d in range(1, cutoff + 1)
        }
        return cls._trusted(rank, cutoff, comp)

    @classmethod
    def span(cls, elements: Iterable[LieElt], rank: int, cutoff: int) -> "GradedSubspace":
        by_degree: dict[int, list[dict]] = {}
        for e in elements:
            if e.rank != rank:
                raise ValueError("rank mismatch")
            for d in e.degrees():
                if d > cutoff:
                    raise ValueError("element degree exceeds cutoff")
                by_degree.setdefault(d, []).append(lie_vector(e, d))
        comp = {d: Echelon._trusted(rref(rows)) for d, rows in by_degree.items()}
        return cls._trusted(rank, cutoff, comp)

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
        comp = {}
        for d in set(self.comp) | set(other.comp):
            rows = self.echelon(d).rows() + other.echelon(d).rows()
            comp[d] = Echelon._trusted(rref(rows))
        return GradedSubspace._trusted(self.rank, self.cutoff, comp)

    def intersect(self, other: "GradedSubspace") -> "GradedSubspace":
        self._check(other)
        comp = {}
        for d in set(self.comp) & set(other.comp):
            rows = intersect_rowspaces(self.comp[d].rows(), other.comp[d].rows())
            comp[d] = Echelon._trusted(rows)
        return GradedSubspace._trusted(self.rank, self.cutoff, comp)

    def contains(self, other: "GradedSubspace") -> bool:
        self._check(other)
        for d, theirs in other.comp.items():
            mine = self.echelon(d)
            if any(r not in mine for r in theirs.pivot_rows.values()):
                return False
        return True

    def bracket_span(self, other: "GradedSubspace") -> "GradedSubspace":
        """Graded span of [self, other] up to the cutoff."""
        self._check(other)
        theirs = {d: other.basis_elements(d) for d in other.comp}
        brackets = (
            bracket(e1, e2)
            for d1 in self.comp
            for e1 in self.basis_elements(d1)
            for d2, es in theirs.items()
            if d1 + d2 <= self.cutoff
            for e2 in es
        )
        return GradedSubspace.span(brackets, self.rank, self.cutoff)


def subalgebra_closure(generators: Sequence[LieElt], rank: int, cutoff: int) -> GradedSubspace:
    """Graded span of the subalgebra generated by homogeneous elements."""
    for g in generators:
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    if all(
        g.terms == {(j,): Fraction(1)}
        for g, j in zip(generators, range(1, rank + 1))
    ) and len(generators) == rank:
        return GradedSubspace.full(rank, cutoff)
    comp: dict[int, Echelon] = {}
    elems: list[LieElt] = []
    work: list[LieElt] = []

    def add(e: LieElt) -> None:
        if e.is_zero or e.max_degree() > cutoff:
            return
        d = e.max_degree()
        if comp.setdefault(d, Echelon()).insert(lie_vector(e, d)):
            work.append(e)

    for g in generators:
        add(g)
    # worklist closure: bracket each new element against everything seen
    while work:
        e = work.pop()
        elems.append(e)
        for other in list(elems):
            if e.max_degree() + other.max_degree() <= cutoff:
                add(bracket(e, other))
    return GradedSubspace._trusted(rank, cutoff, comp)


def ideal_closure(elements: Sequence[LieElt], rank: int, cutoff: int) -> GradedSubspace:
    """Graded span of the ideal generated by the homogeneous components of
    the given elements (saturation with ad by the generators)."""
    comp: dict[int, Echelon] = {}
    queue: list[LieElt] = []

    def add(e: LieElt) -> None:
        for d in e.degrees():
            if d > cutoff:
                continue
            h = e.homogeneous(d)
            if comp.setdefault(d, Echelon()).insert(lie_vector(h, d)):
                queue.append(h)

    for e in elements:
        add(e)
    gens = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
    while queue:
        h = queue.pop()
        if h.max_degree() + 1 > cutoff:
            continue
        for g in gens:
            add(bracket(h, g))
    return GradedSubspace._trusted(rank, cutoff, comp)


def power_subspace(base: GradedSubspace, power: int) -> GradedSubspace:
    """power-th term of the lower central series of the subspace: iterated
    bracket spans [[base, base], base], ..."""
    if power < 1:
        raise ValueError("power must be positive")
    out = base
    for _ in range(power - 1):
        out = out.bracket_span(base)
    return out


def render_bracketing(tree) -> str:
    if isinstance(tree, int):
        return f"y{tree}"
    return f"[{render_bracketing(tree[0])},{render_bracketing(tree[1])}]"


format_lie = format_terms


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

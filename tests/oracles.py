"""Test oracles: checks that compute both sides of an identity the paper
states (Fox's chain and commutator rules, the head terms of derivatives on
Schreier generators, the series of an intersection with a free factor)
and compare them, with the helpers that only they use.  No command or
benchmark workload calls them; the tests, the acceptance suite among them,
do.  Each checks the library's own derivatives, products and closures
against an independent second computation."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from foxcalc.fox_group import all_indices, fox_derivative, free_index
from foxcalc.fox_lie import LieFoxVector, free_base_dims, lie_fox
from foxcalc.freiheit import SeriesSpec, _free_factor, series_components
from foxcalc.group_ring import RingElt
from foxcalc.lie_core import (
    AssocPoly,
    LieElt,
    bracket,
    expand_to_assoc,
    power_subspace,
    subalgebra_closure,
)
from foxcalc.lincomb import sum_terms, terms_of
from foxcalc.magnus import TruncSeries, embed_ring
from foxcalc.transversal import SchreierGenerator, Transversal
from foxcalc.words import FactorLetter, FreeLetter, Letter, Word, invert, multiply, reduce


# -- words and series -----------------------------------------------------


def to_atomic(u: Word) -> tuple[Letter, ...]:
    """Split syllables into single-generator letters: a free syllable g^e
    becomes |e| copies of g^{sign(e)}, a factor syllable stays atomic."""
    out: list[Letter] = []
    for letter in u.letters:
        if isinstance(letter, FactorLetter):
            out.append(letter)
        else:
            sign = 1 if letter.exp > 0 else -1
            out.extend(FreeLetter(letter.index, sign) for _ in range(abs(letter.exp)))
    return tuple(out)


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """The truncated product a b, term by term."""
    a._check_shape(b)
    cutoff = a.cutoff
    return a._like(
        sum_terms(
            (m1 + m2, c1 * c2)
            for m1, c1 in a.terms.items()
            for m2, c2 in b.terms.items()
            if len(m1) + len(m2) <= cutoff
        )
    )


def ideal_weight(a, cutoff: int) -> Optional[int]:
    """Minimal degree of the Magnus image of a ring element; 0 iff the
    augmentation is nonzero.  None means the image vanishes up to cutoff."""
    return embed_ring(a, cutoff).min_degree()


# -- group side: chain rule and head terms --------------------------------


def subgroup_fox(base: Sequence[Word], expr: Word) -> dict:
    """Derivatives with respect to a base of subgroup generators.

    ``expr`` is a word in a free alphabet with one letter per base element;
    returns the substituted word f, the formal partials of expr, and whether
    the chain rule D_j(f) = sum_k partial_k(expr)|_base * D_j(h_k) holds.
    """
    if not base:
        raise ValueError("empty base")
    image = substitution(base)
    alphabet = base[0].alphabet
    symbols = expr.alphabet
    if symbols.n_factors or symbols.free_rank != len(base):
        raise ValueError("expr must live in a free alphabet of rank len(base)")
    f = image(expr)
    partials = {k: fox_derivative(expr, free_index(k)) for k in range(1, len(base) + 1)}
    substituted = {k: substitute_ring(p, base) for k, p in partials.items()}
    checks = {}
    # with the right-sided derivation law the base derivative multiplies
    # from the left: D_j(f) = sum_k D_j(h_k) * partial_k(expr)|_base
    for k_idx in all_indices(alphabet):
        lhs = fox_derivative(f, k_idx)
        rhs = RingElt(
            alphabet,
            terms_of(
                fox_derivative(base[k - 1], k_idx) * substituted[k]
                for k in range(1, len(base) + 1)
            ),
        )
        checks[k_idx] = lhs == rhs
    return {"f": f, "partials": partials, "chain_check": all(checks.values())}


def substitution(base: Sequence[Word]):
    """The word map g_k^e -> base[k-1]^e: one reduction of the concatenated
    letters of |e| copies of base[k-1] or of its inverse."""
    alphabet = base[0].alphabet
    if any(h.alphabet != alphabet for h in base):
        raise ValueError("alphabet mismatch in base")
    images = [(h.letters, invert(h).letters) for h in base]
    return lambda w: reduce(
        (x for s in w.letters for x in images[s.index - 1][s.exp < 0] * abs(s.exp)),
        alphabet,
    )


def substitute_ring(a: RingElt, base: Sequence[Word]) -> RingElt:
    """Substitute base words for the free symbols of a ring element."""
    image = substitution(base)
    return RingElt(base[0].alphabet, ((image(w), c) for w, c in a.terms.items()))


def derivative_decomposition(t: Transversal, a: RingElt) -> dict[Word, RingElt]:
    """Write a ring element as sum_t delta_t t^-1 with t over the
    transversal and delta_t in Z(N): group the support by cosets."""
    groups: dict[Word, list] = {}
    for w, c in a.terms.items():
        rep = t.representative(invert(w))
        groups.setdefault(rep, []).append((multiply(w, rep), c))
    # w -> w t is injective, so each group's words are distinct and no
    # group sums to zero
    shape = (t.alphabet,)
    return {rep: RingElt._trusted(shape, dict(pairs)) for rep, pairs in groups.items()}


def derivative_leading_term_check(
    t: Transversal, gen0: SchreierGenerator, gen: SchreierGenerator
) -> bool:
    """Head-term shape of D_{j0} on Schreier generators, j0 the free index
    of gen0's defining letter: D_{j0}(gen0) = rep(s g_j0)^-1 + (terms over
    other representatives), while other generators defined by the same
    letter contribute no rep(s g_j0)^-1 head at all."""
    if not isinstance(gen0.letter, FreeLetter):
        raise ValueError("gen0 must be defined by a free letter")
    j0 = free_index(gen0.letter.index)
    head = t.representative(
        multiply(gen0.rep, Word(t.alphabet, (gen0.letter,)))
    )
    decomp = derivative_decomposition(t, fox_derivative(gen.value, j0))
    coeff = decomp.get(head)
    if gen == gen0:
        return coeff == RingElt.one(t.alphabet)
    return coeff is None


# -- Lie side: chain and commutator rules, free bases, series -------------


def lie_fox_reassemble(fox: LieFoxVector) -> AssocPoly:
    """constant + sum_j x_j partials[j]."""
    return AssocPoly(
        fox.rank,
        [((), fox.constant)]
        + [((j,) + m, c) for j, p in fox.partials.items() for m, c in p.terms.items()],
    )


def lie_fox_commutator_check(u: LieElt, v: LieElt) -> bool:
    """D_k([u, v]) = D_k(u) v - D_k(v) u in the envelope."""
    pu, pv = expand_to_assoc(u), expand_to_assoc(v)
    du, dv = lie_fox(pu), lie_fox(pv)
    db = lie_fox(pu * pv - pv * pu)
    for k in range(1, u.rank + 1):
        if db.partials[k] != du.partials[k] * pv - dv.partials[k] * pu:
            return False
    return True


def eval_expr(expr, base: Sequence[LieElt]) -> LieElt:
    """A bracket expression over the base: an int is a 1-based base index,
    a pair (left, right) the bracket of its two sides."""
    if isinstance(expr, int):
        return base[expr - 1]
    left, right = expr
    return bracket(eval_expr(left, base), eval_expr(right, base))


def substitute_assoc(p: AssocPoly, images: Sequence[AssocPoly]) -> AssocPoly:
    """Substitute images for the letters of p (algebra homomorphism)."""
    rank = images[0].rank

    def image(m: tuple[int, ...], c: Fraction) -> AssocPoly:
        term = AssocPoly(rank, {(): c})
        for letter in m:
            term = term * images[letter - 1]
        return term

    return AssocPoly(rank, terms_of(image(m, c) for m, c in p.terms.items()))


def lie_chain_rule_check(base: Sequence[LieElt], expr) -> bool:
    """D_j(f) = sum_k D_j(h_k) partial_k(f) for f a bracket expression in
    the base h_1..h_m (note the derivative of the base element multiplies
    from the left, unlike the group-ring chain rule)."""
    rank = base[0].rank
    m = len(base)
    f = eval_expr(expr, base)
    pf = expand_to_assoc(f)
    # formal side: the same expression over symbols of a rank-m algebra
    symbols = [LieElt.gen(m, k) for k in range(1, m + 1)]
    formal = expand_to_assoc(eval_expr(expr, symbols))
    partials = lie_fox(formal).partials
    images = [expand_to_assoc(h) for h in base]
    df = lie_fox(pf)
    for j in range(1, rank + 1):
        rhs = AssocPoly(
            rank,
            terms_of(
                lie_fox(images[k - 1]).partials[j] * substitute_assoc(partials[k], images)
                for k in range(1, m + 1)
            ),
        )
        if df.partials[j] != rhs:
            return False
    return True


def validate_free_base(base: Sequence[LieElt], rank: int, cutoff: int) -> bool:
    """Dimension test: the generated subalgebra matches a free Lie algebra
    on generators of these degrees, up to the cutoff."""
    if not base or any(not h.is_homogeneous() or h.is_zero for h in base):
        return False
    degrees = [h.max_degree() for h in base]
    sub = subalgebra_closure(list(base), rank, cutoff)
    expect = free_base_dims(degrees, cutoff)
    return all(sub.dim(d) == expect.get(d, 0) for d in range(1, cutoff + 1))


def series_intersection_check(
    spec: SeriesSpec, rank: int, cutoff: int, h_rank: Optional[int] = None
) -> bool:
    """H cap N_{kl} = (H cap N_{k1})^{(l)}: the series of the intersection
    is the intersection with the series, for free factors H."""
    h = _free_factor(rank, h_rank, cutoff)
    for k, l, term in series_components(spec, rank, cutoff):
        if l == 1:
            base = h.intersect(term)
            continue
        if h.intersect(term) != power_subspace(base, l):
            return False
    return True

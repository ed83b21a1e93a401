"""Fox partial derivatives on the group ring of a free product, and the
membership criteria built on them.

Conventions: derivatives are right-sided, D(uv) = D(u) v + eps(u) D(v), with
D_j(g_j) = 1 for a free letter and D_i(a) = a - 1 for every nontrivial
element a of the i-th cyclic factor.  The fundamental identity reads
u - eps(u) = sum_i D_i(u) + sum_j (g_j - 1) D_j(u).

Validation happens where words and ring elements come in: a derivative
builds its terms from the letters of its argument, and the fundamental
decomposition sums parts of one alphabet, so both build their results
without checking each term again.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .group_ring import QuotientOracle, RingElt
from .lincomb import sum_terms, terms_of
from .magnus import embed
from .transversal import SchreierGenerator, Transversal, lattice_membership, transversal_for
from .words import (
    Alphabet,
    FactorLetter,
    FreeLetter,
    Letter,
    Word,
    identity,
    invert,
    multiply,
    reduce,
)

# A differentiation index: ("free", j) or ("factor", i).
FoxIndex = tuple[str, int]


def free_index(j: int) -> FoxIndex:
    return ("free", j)


def factor_index(i: int) -> FoxIndex:
    return ("factor", i)


def all_indices(alphabet: Alphabet) -> list[FoxIndex]:
    return [("factor", i) for i in range(1, alphabet.n_factors + 1)] + [
        ("free", j) for j in range(1, alphabet.free_rank + 1)
    ]


def _letter_derivative(letter: Letter) -> list[tuple[tuple[Letter, ...], int]]:
    """D of a syllable with respect to its own index, as (letters, coefficient)
    pairs: D_i(a) = a - 1 for a factor syllable, D(g^e) = 1 + g + ... +
    g^(e-1) for e > 0 and -(g^e + ... + g^-1) for e < 0."""
    if isinstance(letter, FactorLetter):
        return [((letter,), 1), ((), -1)]
    e = letter.exp
    powers, sign = (range(e), 1) if e > 0 else (range(e, 0), -1)
    return [((FreeLetter(letter.index, t),) if t else (), sign) for t in powers]


_SLOTS = {"free": FreeLetter, "factor": FactorLetter}


def fox_derivative(u: Union[Word, RingElt], k: FoxIndex) -> RingElt:
    """D_k of a word (or, linearly extended, of a ring element).  An index
    kind other than "free" or "factor" is a ValueError."""
    kind, idx = k
    slot = _SLOTS.get(kind)
    if slot is None:
        raise ValueError(f"unknown Fox index kind {kind!r}")
    alphabet = u.alphabet
    # D(l_1 ... l_r) = sum_t D(l_t) * (l_{t+1} ... l_r), where D(l_t) = 0
    # unless l_t lies in k's slot.  Each word of D(l_t) is 1 or a power in
    # that slot, and l_{t+1} never shares it in a reduced word, so the
    # concatenation is already reduced.
    terms = u.terms.items() if isinstance(u, RingElt) else ((u, 1),)
    return RingElt._summed(
        (alphabet,),
        (
            (Word(alphabet, head + w.letters[t + 1 :]), coeff * c)
            for w, coeff in terms
            for t, letter in enumerate(w.letters)
            if type(letter) is slot and letter[0] == idx
            for head, c in _letter_derivative(letter)
        ),
    )


@dataclass
class FundamentalDecomposition:
    constant: int
    parts: dict[FoxIndex, RingElt]

    def reassemble(self, alphabet: Alphabet) -> RingElt:
        one = RingElt.one(alphabet)
        summands = [one.scale(self.constant)]
        for (kind, idx), part in self.parts.items():
            one._check_shape(part)
            if kind == "factor":
                summands.append(part)
            else:
                g = RingElt.from_word(Word(alphabet, (FreeLetter(idx, 1),)))
                summands.append((g - one) * part)
        # every summand is over this alphabet: sum without checking again
        return RingElt._summed((alphabet,), terms_of(summands))


def fundamental_decomposition(a: RingElt) -> FundamentalDecomposition:
    """Split a - eps(a) along the fundamental identity."""
    parts = {k: fox_derivative(a, k) for k in all_indices(a.alphabet)}
    return FundamentalDecomposition(a.augmentation(), parts)


def subgroup_fox(base: Sequence[Word], expr: Word) -> dict:
    """Derivatives with respect to a base of subgroup generators.

    ``expr`` is a word in a free alphabet with one letter per base element;
    returns the substituted word f, the formal partials of expr, and whether
    the chain rule D_j(f) = sum_k partial_k(expr)|_base * D_j(h_k) holds.
    """
    if not base:
        raise ValueError("empty base")
    image = _substitution(base)
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


def _substitution(base: Sequence[Word]):
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
    image = _substitution(base)
    return RingElt(base[0].alphabet, ((image(w), c) for w, c in a.terms.items()))


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
    decomp = t.derivative_decomposition(fox_derivative(gen.value, j0))
    coeff = decomp.get(head)
    if gen == gen0:
        return coeff == RingElt.one(t.alphabet)
    return coeff is None


@dataclass
class CriterionReport:
    holds: bool
    residues: dict = field(default_factory=dict)
    witness: Optional[Word] = None
    witness_member: Optional[bool] = None
    status: str = "decided"


def schumann_check(v: Word, q: QuotientOracle) -> CriterionReport:
    """All Fox derivatives of v vanish modulo N; for N meeting the cyclic
    factors trivially this characterises v in [N, N]."""
    report, (key_v, key_one) = _residue_report(v, q, also=(v, identity(v.alphabet)))
    if key_v != key_one:
        raise ValueError("v must lie in N")
    return report


def _residue_report(
    v: Word,
    q: QuotientOracle,
    skip: frozenset[FoxIndex] = frozenset(),
    also: Sequence[Word] = (),
) -> tuple[CriterionReport, list]:
    """D_k(v) mod N for every index k outside ``skip``; holds iff all vanish.
    The terms of every D_k(v) go to the oracle in one batch, after the words
    ``also``, whose keys come back beside the report; each residue is summed
    as reduce_mod sums it."""
    derivatives = [
        (k, fox_derivative(v, k)) for k in all_indices(v.alphabet) if k not in skip
    ]
    keys = iter(q.coset_keys([*also, *(w for _, d in derivatives for w in d.terms)]))
    also_keys = [next(keys) for _ in also]
    residues = {
        k: sum_terms((next(keys), c) for c in d.terms.values()) for k, d in derivatives
    }
    return CriterionReport(not any(residues.values()), residues), also_keys


def retraction(u: Word, keep: frozenset[FoxIndex]) -> Word:
    """Kill every letter whose index is not kept."""
    letters = [
        l
        for l in u.letters
        if (("free", l.index) if isinstance(l, FreeLetter) else ("factor", l.index))
        in keep
    ]
    return reduce(letters, u.alphabet)


def theorem1_check(
    v: Word,
    K: frozenset[FoxIndex],
    q: QuotientOracle,
) -> CriterionReport:
    """Two-sided test of: D_k(v) = 0 mod N for all k not in K  iff  there is
    vhat in F_K with v vhat^-1 in (F_K cap N)^F [N, N].

    Needs a finite-index oracle and a free alphabet.  Both sides are exact.
    The alpha/beta transversal over K's letters decides the witness: its
    alpha classes are the cosets that meet F_K, each represented by the
    shortlex-least word of F_K in it.  The witness is the retraction of v
    when that shares v's coset, else the representative of v's coset when
    it is alpha; on a beta coset no vhat exists (witness None, membership
    False).  Any two witnesses differ by an element of F_K cap N, so the
    membership side, certified through the integer lattice of N made
    abelian, does not depend on the choice.
    """
    if not q.finite_index:
        raise ValueError("theorem1_check needs a finite-index oracle")
    alphabet = v.alphabet
    if alphabet.n_factors:
        raise ValueError("theorem 1 requires a free alphabet")
    K = frozenset(K)
    if not K <= set(all_indices(alphabet)):
        raise ValueError("kept indices must lie in the alphabet")
    report, _ = _residue_report(v, q, K)
    # built once per oracle and kept, with its sub-lattice
    t = transversal_for(q, frozenset(j for _, j in K))
    vhat = retraction(v, K)
    if not q.contains(multiply(v, invert(vhat))):
        vhat = t.representative(v)
        if t.class_kind(vhat) == "beta":
            report.witness_member = False
            return report
    report.witness = vhat
    report.witness_member = lattice_membership(t, multiply(v, invert(vhat)))
    return report


@dataclass
class GammaCriterionReport:
    holds: bool
    vbar: Word
    derivative_ok: dict
    witness_weight_ok: Optional[bool] = None


def subgroup_gamma_criterion(
    v: Word, K: frozenset[FoxIndex], n: int, cutoff: int
) -> GammaCriterionReport:
    """For free F: v lies in the span of F_K and gamma_{n+1}-deep elements
    iff D_k(v) has ideal weight >= n for k outside K and D_k(v) is congruent
    to an element of Z(F_K) mod the n-th power of the augmentation ideal for
    k in K.  When it holds, vbar = retraction of v satisfies
    v vbar^-1 in gamma_{n+1}.

    The report reads the Magnus images of v and vbar up to degree n only:
    the derivative side off M(v), and the witness side as M(vbar) == M(v)
    there.  ``cutoff`` must be at least n + 1 (ValueError otherwise); above
    that it changes nothing."""
    alphabet = v.alphabet
    if alphabet.n_factors:
        raise ValueError("gamma criterion requires a free alphabet")
    if n < 0:
        raise ValueError("class must be non-negative")
    if cutoff < n + 1:
        raise ValueError("cutoff must be at least n+1")
    K = frozenset(K)
    if not K <= set(all_indices(alphabet)):
        raise ValueError("kept indices must lie in the alphabet")
    keep = {j for kind, j in K if kind == "free"}
    # M(v) = 1 + sum_j x_j M(D_j v): the monomials of M(D_j v) below degree
    # n are those of M(v) up to degree n that start with x_j, x_j stripped
    image = embed(v, n)
    led: dict = {k: [] for k in all_indices(alphabet)}
    for m in image.terms:
        if m:
            led[free_index(m[0])].append(m[1:])
    # for k outside K no such monomial may exist; for k in K each must be a
    # word in K, so that D_k(v) is congruent to Z(F_K) mod the n-th power
    derivative_ok = {
        k: all(keep.issuperset(m) for m in monos) if k in K else not monos
        for k, monos in led.items()
    }
    holds = all(derivative_ok.values())
    vbar = retraction(v, K)
    report = GammaCriterionReport(holds, vbar, derivative_ok)
    if holds:
        # truncation above degree n is a ring map, so M(v vbar^-1) = 1 mod
        # degree > n iff M(v) = M(vbar) up to degree n
        report.witness_weight_ok = embed(vbar, n) == image
    return report

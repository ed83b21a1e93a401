"""Freiheitssatz-style verifiers for one-relator quotients.

Lie side: for the polynilpotent series N_{kl} built from a root ideal, a
relator r with filtration level i is "free" from the subalgebra H on the
first n-1 generators iff r is outside H + N_{1,i+1}; then the ideal R
generated by r meets H along the series exactly as the series itself:
H cap (R + N_{kl}) = H cap N_{kl}.  The verifier builds R only up to D,
the last degree in which some series term N_{kl} is not all of L_d (D = m
for one block of length m over the whole algebra): above D every
R + N_{kl} is L_d, so both sides are H_d whatever R_d is, and up to D each
R_d is exact, since it depends only on r and on R below d.

Group side: for r in gamma_i \\ gamma_{i+1} of a free group, conjugacy of r
modulo gamma_{i+1} into the subgroup on the first n-1 generators only
depends on the degree-i Lie component of r, because conjugation acts
trivially on gamma_i / gamma_{i+1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .assoc_env import PBWContext, adapted_basis
from .fox_lie import _fox_integral, free_base_dims
from .lie_core import (
    AssocPoly,
    GradedSubspace,
    LieElt,
    ideal_closure,
    lie_from_vector,
    power_subspace,
    project_to_lyndon,
    standard_bracketing,
    subalgebra_closure,
    witt_dimension,
)
from .linalg import Echelon
from .magnus import embed, gamma_weight
from .words import Alphabet, FreeLetter, Word, commutator, identity, invert, multiply

_ONE = Fraction(1)


@dataclass(frozen=True)
class SeriesSpec:
    """Polynilpotent series data: block lengths (m_1, ..., m_s) over a root
    ideal, the full free algebra for root_power=1 or its root_power-th
    lower-central term otherwise."""

    block_lengths: tuple[int, ...]
    root_power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "block_lengths", tuple(self.block_lengths))
        if not self.block_lengths or any(m < 1 for m in self.block_lengths):
            raise ValueError("block lengths must be positive")
        if self.root_power < 1:
            raise ValueError("root power must be positive")


def series_components(
    spec: SeriesSpec, rank: int, cutoff: int
) -> list[tuple[int, int, GradedSubspace]]:
    """All terms N_{kl}, k = 1..s, l = 1..m_k+1, with N_{11} the root,
    N_{k,l+1} = [N_{kl}, N_{k1}] and N_{k+1,1} = N_{k,m_k+1}."""
    full = GradedSubspace.full(rank, cutoff)
    block_root = power_subspace(full, spec.root_power)
    out = []
    for k, m in enumerate(spec.block_lengths, start=1):
        term = block_root
        out.append((k, 1, term))
        for l in range(2, m + 2):
            # N_{1,l} = gamma_l(F) over the root F; [gamma_p, gamma_p] is not gamma_{2p}
            if k == 1 and spec.root_power == 1:
                term = power_subspace(full, l)
            else:
                term = term.bracket_span(block_root)
            out.append((k, l, term))
        block_root = term
    return out


@dataclass
class LieCriterionResult:
    level: int
    satisfied: bool


def _flatten_series(
    components: Sequence[tuple[int, int, GradedSubspace]]
) -> list[tuple[int, int, GradedSubspace]]:
    """The series as one descending chain; the duplicated joints
    N_{k,m_k+1} = N_{k+1,1} are kept once."""
    out: list[tuple[int, int, GradedSubspace]] = []
    for k, l, term in components:
        if k > 1 and l == 1:
            continue
        out.append((k, l, term))
    return out


def filtration_level(
    r: LieElt, components: Sequence[tuple[int, int, GradedSubspace]]
) -> int:
    """Largest position i (1-based, along the flattened chain) with r in the
    i-th series term."""
    chain = _flatten_series(components)
    level = 0
    for pos, (k, l, term) in enumerate(chain, start=1):
        if term.member(r):
            level = pos
    if level == 0:
        raise ValueError("r is not in the root ideal")
    if level == len(chain):
        raise ValueError(
            "filtration level of r exceeds the computed series depth"
        )
    return level


def _free_factor(rank: int, h_rank: Optional[int], cutoff: int) -> GradedSubspace:
    """Graded span of H, the subalgebra on the first h_rank generators
    (default rank - 1): the span of the Lyndon words over those letters,
    which subalgebra_closure returns for letter generators; the letters are
    built directly, being valid Lyndon words."""
    top = _h_top(rank, h_rank)
    letters = [LieElt._trusted((rank,), {(j,): _ONE}) for j in range(1, top + 1)]
    return subalgebra_closure(letters, rank, cutoff)


def _h_top(rank: int, h_rank: Optional[int]) -> int:
    """The last letter of H: h_rank, by default rank - 1."""
    top = rank - 1 if h_rank is None else h_rank
    if not 0 <= top <= rank:
        raise ValueError(f"h_rank must lie in 0..{rank}, got {top}")
    return top


def _criterion(r: LieElt, comps: list, h: GradedSubspace) -> LieCriterionResult:
    """lie_criterion over an already computed series and H.  Membership of r
    reads only r's degrees, so H + N_next is built in those alone."""
    i = filtration_level(r, comps)
    n_next = _flatten_series(comps)[i][2]
    span = GradedSubspace._trusted(
        r.rank, h.cutoff, {d: h.echelon(d).sum(n_next.echelon(d)) for d in r.degrees()}
    )
    return LieCriterionResult(i, not span.member(r))


def lie_criterion(
    r: LieElt,
    spec: SeriesSpec,
    cutoff: int,
    h_rank: Optional[int] = None,
) -> LieCriterionResult:
    """r notin H + (next series term after the filtration level of r)."""
    comps = series_components(spec, r.rank, cutoff)
    return _criterion(r, comps, _free_factor(r.rank, h_rank, cutoff))


@dataclass
class FreiheitEntry:
    k: int
    l: int
    degree: int
    dim_with_relator: int
    dim_series: int

    @property
    def equal(self) -> bool:
        return self.dim_with_relator == self.dim_series


@dataclass
class FreiheitReport:
    criterion: LieCriterionResult
    entries: list[FreiheitEntry]
    all_equal: bool
    consistent: bool


def lie_freiheitssatz_verify(
    r: LieElt,
    spec: SeriesSpec,
    cutoff: int,
    h_rank: Optional[int] = None,
) -> FreiheitReport:
    """Compare dim (H cap (R + N_{kl}))_d with dim (H cap N_{kl})_d for all
    series terms and degrees up to the cutoff; with the criterion satisfied
    they must agree everywhere.

    R is closed up to D only, the last degree d <= cutoff in which some term
    has dim N_{kl,d} < dim L_d, read off the terms themselves (so multi-block
    specs and a power root need no special case; they usually give
    D = cutoff).  Above D, R + N_{kl} is L_d for every term and both sides
    are dim H_d; up to D, R_d is exact because it depends only on the degrees
    below d.

    r must be homogeneous (ValueError otherwise): ideal_closure closes the
    homogeneous components of r, which for an inhomogeneous r span a larger
    ideal than r does.  The filtered ideal that case needs is not built."""
    if not r.is_homogeneous():
        raise ValueError(
            "the relator must be homogeneous: the ideal of an inhomogeneous "
            "relator is not implemented"
        )
    comps = series_components(spec, r.rank, cutoff)
    h = _free_factor(r.rank, h_rank, cutoff)
    crit = _criterion(r, comps, h)
    top = 0
    for d in range(1, cutoff + 1):
        witt = witt_dimension(r.rank, d)
        if any(t.dim(d) < witt for _, _, t in comps):
            top = d
    big_r = ideal_closure([r], r.rank, top)
    # up to D, one pair of intersections per distinct component echelon:
    # gamma_l(L) shares L's echelons, and the joint N_{k,m_k+1} = N_{k+1,1}
    # is one object; echelons are not hashable, so they are keyed by identity
    dims: dict[tuple[int, int], tuple[int, int]] = {}
    for d in range(1, top + 1):
        h_d, r_d = h.echelon(d), big_r.echelon(d)
        for _, _, term in comps:
            n_d = term.echelon(d)
            if (d, id(n_d)) not in dims:
                lhs, rhs = h_d.intersect(r_d.sum(n_d)), h_d.intersect(n_d)
                dims[d, id(n_d)] = len(lhs.pivot_rows), len(rhs.pivot_rows)
    entries = []
    for k, l, term in comps:
        for d in range(1, cutoff + 1):
            # above D, R + N_kl and N_kl are both L_d: both sides are H_d
            lhs, rhs = dims[d, id(term.echelon(d))] if d <= top else (h.dim(d), h.dim(d))
            entries.append(FreiheitEntry(k, l, d, lhs, rhs))
    all_equal = all(e.equal for e in entries)
    consistent = all_equal == crit.satisfied if crit.satisfied else True
    return FreiheitReport(crit, entries, all_equal, consistent)


@dataclass(frozen=True)
class DistinguishedGenerator:
    """Free generator of B with its separating tag: the standard monomial
    M appears in D_j of this generator only."""

    value: LieElt
    monomial: tuple[int, ...]
    j: int
    case: int


def free_generating_set(
    b: GradedSubspace,
    cutoff: int,
    h_rank: Optional[int] = None,
) -> list[DistinguishedGenerator]:
    """Homogeneous free generating set of the graded ideal B, each member
    tagged by a pair (M, j): M a standard monomial over the adapted basis
    (blocks d < c < b < a for the chain B cap H <= B <= B + H) appearing in
    the residue of D_j modulo B_U with coefficient 1, and in no other
    generator's D_j residue.  Case 1 generators show up in D_n, case 2 in
    some D_j, j < n, on a monomial involving a block-d symbol, case 3 on
    pure block-c monomials (these lie in H cap B modulo [B, B])."""
    rank = n = b.rank
    h = _free_factor(rank, h_rank, cutoff)
    ctx = PBWContext(adapted_basis(b, h, "dcba"))

    def columns_of(x: LieElt) -> dict:
        den, parts = _fox_integral(x)
        return {
            (j, m): c for j, part in parts.items() for m, c in ctx.rewrite((den, part), "ab").items()
        }

    # degree-by-degree completion of the decomposables to B: the generators
    # below degree d generate B below d, hence exactly [B, B] in degree d
    produced: list[DistinguishedGenerator] = []
    lower = b.bracket_span(b)
    for d in range(1, cutoff + 1):
        span = lower.echelon(d).copy()
        new = [row for row in b.echelon(d).rows() if span.insert(row)]
        if not new:
            continue
        # separate the tags inside the degree by row reduction over the
        # columns ordered: (D_n, any S), then (D_j, S with a d symbol),
        # then (D_j, pure c monomials); each row carries its generator's
        # Lyndon coordinates as passengers, so reduced rows are generators
        vecs = [columns_of(lie_from_vector(rank, d, row)) for row in new]
        keys = sorted(
            {k for v in vecs for k in v},
            key=lambda k: (_tag_case(k, n, ctx), k[0], len(k[1]), k[1]),
        )
        col = {k: i for i, k in enumerate(keys)}
        tags = Echelon()
        for lyndon_row, vec in zip(new, vecs):
            row = {col[k]: c for k, c in vec.items()}
            row.update((-1 - i, c) for i, c in lyndon_row.items())
            if not tags.insert(row):
                raise RuntimeError("free generator with vanishing derivatives")
        for p, row in tags.pivot_rows.items():
            x = lie_from_vector(
                rank, d, {-1 - i: Fraction(c, row[p]) for i, c in row.items() if i < 0}
            )
            j, mono = keys[p]
            produced.append(DistinguishedGenerator(x, mono, j, _tag_case(keys[p], n, ctx)))
    # freeness sanity: dimensions must match the free Lie algebra on
    # generators of these degrees
    degrees = [g.value.max_degree() for g in produced]
    expect = free_base_dims(degrees, cutoff)
    actual = subalgebra_closure([g.value for g in produced], rank, cutoff)
    for d in range(1, cutoff + 1):
        if actual.dim(d) != expect.get(d, 0) or actual.dim(d) != b.dim(d):
            raise RuntimeError("generating set is not free or does not span")
    return produced


def _tag_case(key: tuple[int, tuple[int, ...]], n: int, ctx: PBWContext) -> int:
    """Case of the tag (j, M): 1 for j = n, 2 for M with a block-d symbol,
    3 for a pure block-c M."""
    j, mono = key
    if j == n:
        return 1
    return 2 if "d" in ctx.monomial_blocks(mono) else 3


@dataclass
class ConjugacyReport:
    conjugate_found: bool
    witness: Optional[tuple[Word, Word]] = None  # (conjugator u, target h)
    # a Lyndon word of the component with a letter outside H, and its coefficient
    certificate: Optional[tuple[tuple[int, ...], Fraction]] = None


def conjugacy_criterion(
    r: Word,
    level: Optional[int] = None,
    h_rank: Optional[int] = None,
) -> ConjugacyReport:
    """Is r conjugate modulo gamma_{level+1} to a word in g_1..g_{n-1}?

    Conjugation is trivial on gamma_i / gamma_{i+1}, so this holds iff the
    degree-level Lie component of r lies in H, the span of the Lyndon words
    over the first h_rank letters (default n - 1).  A negative answer
    carries the least Lyndon word of the component with a letter above
    h_rank, and its coefficient.  A positive answer carries (1, h), h the
    product of the group bracketings of the component's Lyndon words,
    checked by gamma_weight(r h^-1) > level (RuntimeError otherwise).
    """
    alphabet = r.alphabet
    if alphabet.n_factors:
        raise ValueError("free alphabets only")
    rank = alphabet.free_rank
    top = _h_top(rank, h_rank)
    probe = gamma_weight(r, (level or 1) + 2 if level else 8)
    if level is None:
        if probe is None:
            raise ValueError("could not determine the gamma weight of r")
        level = probe
    elif probe is None or probe != level:
        raise ValueError(f"r is not in gamma_{level} \\ gamma_{level + 1}")
    comp = project_to_lyndon(AssocPoly(rank, embed(r, level).homogeneous(level).terms))
    outside = [w for w in comp.support() if max(w) > top]
    if outside:
        w = min(outside)
        return ConjugacyReport(False, certificate=(w, comp.terms[w]))
    # integer Lyndon coordinates of the component give h directly
    hw = identity(alphabet)
    for w in comp.support():
        c = comp.terms[w]
        if c.denominator != 1:
            raise RuntimeError("non-integral Lie component")
        hw = multiply(hw, _group_bracketing(standard_bracketing(w), alphabet) ** int(c))
    diff_weight = gamma_weight(multiply(r, invert(hw)), level)
    if not (diff_weight is None or diff_weight > level):
        raise RuntimeError("reconstructed witness does not match r")
    return ConjugacyReport(True, (identity(alphabet), hw))


def _group_bracketing(tree, alphabet: Alphabet) -> Word:
    if isinstance(tree, int):
        return Word(alphabet, (FreeLetter(tree, 1),))
    return commutator(
        _group_bracketing(tree[0], alphabet), _group_bracketing(tree[1], alphabet)
    )

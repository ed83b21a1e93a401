"""Fox derivatives in the universal envelope of the free Lie algebra.

Every element u of the free associative algebra decomposes uniquely as
u = eps(u) + sum_j x_j D_j(u); D_j strips the leading letter.  For a graded
Lie ideal N the congruences D_j(v) = u_j mod N_U admit constructive
solutions: rewrite in an adapted PBW basis and fold the standard monomials
back into left-normed brackets.

The criteria and solvers work in integers until a residue is returned:
the D_j(v) are split by first letter off v's integer expansion, numerators
over one denominator, and handed to PBWContext.rewrite as they are.
The sigma solvers split each u_j modulo N_U into block-d slices of
standard b-monomials (one slice, the empty d part, for u_j in U(F_K)); a
slice is folded by putting x_j's basis coordinates in front of each of its
monomials, which are standard already, so only the new first symbol has to
be inserted (PBW coordinates are unique).  The check of a solution reads
D_j(v) off v's own expansion, never off the fold.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .assoc_env import SubalgebraIdealContext, ideal_context
from .lincomb import sum_terms, terms_of
from .linalg import _integral
from .lie_core import (
    AssocPoly,
    GradedSubspace,
    LieElt,
    _expand_integral,
    _mobius,
    bracket,
    expand_to_assoc,
    leftnorm,
    subalgebra_closure,
)


@dataclass
class LieFoxVector:
    """The decomposition u = constant + sum_j x_j partials[j]."""

    rank: int
    constant: Fraction
    partials: dict[int, AssocPoly]

    def reassemble(self) -> AssocPoly:
        return AssocPoly(
            self.rank,
            [((), self.constant)]
            + [((j,) + m, c) for j, p in self.partials.items() for m, c in p.terms.items()],
        )


def lie_fox(u: AssocPoly) -> LieFoxVector:
    partials = {j: {} for j in range(1, u.rank + 1)}
    constant = Fraction(0)
    for m, c in u.terms.items():
        if not m:
            constant = c
            continue
        partials[m[0]][m[1:]] = c
    return LieFoxVector(
        u.rank,
        constant,
        {j: AssocPoly._trusted((u.rank,), t) for j, t in partials.items()},
    )


# (den, {word: n}): the sum of n / den times each word of the envelope
IntPoly = tuple[int, dict[tuple[int, ...], int]]


def _fox_integral(a: LieElt) -> tuple[int, dict[int, dict[tuple[int, ...], int]]]:
    """The Lie Fox derivatives of a in integers, split off its integer
    expansion by first letter: (den, {j: {tail: n}}), D_j(a) the sum of
    n / den times each tail.  A j with D_j(a) = 0 has no entry."""
    den, words = _expand_integral(a)
    parts: dict[int, dict[tuple[int, ...], int]] = {}
    for m, n in words.items():
        parts.setdefault(m[0], {})[m[1:]] = n
    return den, parts


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


def free_base_dims(degrees: Sequence[int], cutoff: int) -> dict[int, int]:
    """Component dimensions of a free Lie algebra on homogeneous generators
    of the given degrees: PBW gives prod_d (1-t^d)^{-l_d} = 1/(1 - h(t)),
    h(t) = sum_i t^{d_i}.  Every degree must be at least 1."""
    if any(d < 1 for d in degrees):
        raise ValueError("generator degrees must be at least 1")
    h = [0] * (cutoff + 1)
    for d in degrees:
        if d <= cutoff:
            h[d] += 1
    # p_m = sum_{e | m} e l_e are the power sums of log 1/(1 - h), by
    # Newton's identity p_m = m h_m + sum_{i < m} h_i p_{m-i}; Moebius
    # inversion then gives m l_m = sum_{e | m} mu(m/e) p_e
    p = [0] * (cutoff + 1)
    dims: dict[int, int] = {}
    for m in range(1, cutoff + 1):
        p[m] = m * h[m] + sum(h[i] * p[m - i] for i in range(1, m))
        total = sum(_mobius(m // e) * p[e] for e in range(1, m + 1) if m % e == 0)
        if total % m:
            raise ArithmeticError("non-integral free Lie dimension")
        dims[m] = total // m
    return dims


def validate_free_base(base: Sequence[LieElt], rank: int, cutoff: int) -> bool:
    """Dimension test: the generated subalgebra matches a free Lie algebra
    on generators of these degrees, up to the cutoff."""
    if not base or any(not h.is_homogeneous() or h.is_zero for h in base):
        return False
    degrees = [h.max_degree() for h in base]
    sub = subalgebra_closure(list(base), rank, cutoff)
    expect = free_base_dims(degrees, cutoff)
    return all(sub.dim(d) == expect.get(d, 0) for d in range(1, cutoff + 1))


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


class SigmaError(ValueError):
    """Input congruence fails; carries the nonzero residue."""

    def __init__(self, message, residue=None):
        super().__init__(message)
        self.residue = residue


def _integral_u(
    u: Mapping[int, AssocPoly], K: frozenset[int], rank: int, cutoff: int
) -> dict[int, IntPoly]:
    """The given u_j, j in K, in integers.  D_j(v) has degree below the
    cutoff for v within it, so a u_j of that degree, or of another rank,
    raises ValueError."""
    out = {}
    for j in sorted(K):
        p = u.get(j)
        if p is None:
            continue
        if p.rank != rank:
            raise ValueError("rank mismatch")
        if p.max_degree() >= cutoff:
            raise ValueError("degree exceeds cutoff")
        out[j] = _integral(p.terms)
    return out


def solve_sigma_zero(
    u: Mapping[int, AssocPoly],
    K: frozenset[int],
    n: GradedSubspace,
    rank: int,
) -> LieElt:
    """Given u_j in U(F_K), j in K, with sum_j x_j u_j = 0 mod N_U, build
    v in F_K cap N with D_j(v) = u_j mod N_U for all j in K.

    The proof is followed verbatim: rewrite sigma in the adapted basis
    (blocks ordered a < b < c < d), where it is a combination of standard
    monomials n w_1 ... w_z headed by a block-a element, and fold each into
    the left-normed bracket [[..[n, w_1], ..], w_z]."""
    K = frozenset(K)
    env = SubalgebraIdealContext(rank, K, n)
    iu = _integral_u(u, K, rank, n.cutoff)
    for j, (_, words) in iu.items():
        if any(not set(m) <= K for m in words):
            raise ValueError(f"u_{j} is not supported on the subalgebra letters")
    # u_j in U(F_K) has standard monomials over a and b symbols only: one
    # slice, with the empty d part
    return _solve_ideal(iu, K, env, rank, "solve_sigma_zero")


def _fold_slice(
    parts: Mapping[int, Mapping[tuple[int, ...], Fraction]], env: SubalgebraIdealContext, rank: int
) -> LieElt:
    """The plain solver's construction on one d-slice of
    solve_sigma_zero_ideal, u_j given as standard b-monomials: sigma is
    straightened by putting x_j in front of each (generator_products).  A
    monomial of a and b symbols with an a symbol becomes its left-normed
    bracket, one with another a or c symbol lies in N_U, and any other
    means sigma is not 0 mod N_U (SigmaError)."""
    ctx = env.ctx
    folded = []
    bad = {}
    for mono, c in ctx.rewrite(ctx.generator_products(parts)).items():
        blocks = ctx.monomial_blocks(mono)
        if "a" in blocks and set(blocks) <= {"a", "b"}:
            # block order puts the a symbol first: n w_1 ... w_z
            elems = [ctx.basis.elements[k].value for k in mono]
            folded.append(leftnorm(elems[0], elems[1:]).scale(c))
        elif "a" in blocks or "c" in blocks:
            continue  # inside N_U; absent for inputs meeting the premise
        else:
            bad[mono] = c
    v = LieElt._summed((rank,), terms_of(folded))
    if bad:
        raise SigmaError("sigma is not 0 mod N_U", ctx.expand(bad))
    return v


def _verify_solution(
    caller: str,
    v: LieElt,
    u: Mapping[int, IntPoly],
    K: frozenset[int],
    env: SubalgebraIdealContext,
) -> None:
    """Raise RuntimeError unless D_j(v) = u_j mod N_U for every j in K.
    D_j(v) is read off v's own expansion, never off the fold that built v;
    u_j is subtracted in integers over the lcm of the two denominators."""
    den, parts = _fox_integral(v)
    for j in sorted(K):
        du, wu = u.get(j, (1, {}))
        q = lcm(den, du)
        sv, su = q // den, q // du
        diff = {m: n * sv for m, n in parts.get(j, {}).items()}
        sum_terms(((m, -n * su) for m, n in wu.items()), diff)
        if env.ctx.rewrite((q, diff), "ac"):
            raise RuntimeError(f"{caller}: constructed v fails D_j(v) = u_j mod N_U")


def solve_sigma_zero_ideal(
    u: Mapping[int, AssocPoly],
    K: frozenset[int],
    n: GradedSubspace,
    rank: int,
) -> LieElt:
    """Like solve_sigma_zero but with u_j in all of U(F): produces v in the
    ideal generated by F_K cap N.  Each u_j is split modulo N_U as
    sum_l u_{jl} f_l with f_l a pure block-d monomial and u_{jl} in U(F_K);
    the plain solver's construction handles each f_l slice and the d
    letters are folded back on the right.  Only the summed v is checked."""
    K = frozenset(K)
    env = SubalgebraIdealContext(rank, K, n)
    return _solve_ideal(_integral_u(u, K, rank, n.cutoff), K, env, rank)


def _solve_ideal(
    u: Mapping[int, IntPoly],
    K: frozenset[int],
    env: SubalgebraIdealContext,
    rank: int,
    caller: str = "solve_sigma_zero_ideal",
) -> LieElt:
    """solve_sigma_zero_ideal on u_j in integers; a failed check names the
    caller."""
    ctx = env.ctx
    slices: dict[tuple[int, ...], dict[int, dict]] = {}
    for j, p in u.items():
        for mono, c in ctx.rewrite(p, "ac").items():
            blocks = ctx.monomial_blocks(mono)
            split = len(blocks) - len(blocks.lstrip("b"))
            bpart, dpart = mono[:split], mono[split:]
            if set(blocks[split:]) - {"d"}:
                # b and d symbols only, in abcd order: always b*d*
                raise RuntimeError("unexpected monomial shape in the residue")
            slices.setdefault(dpart, {}).setdefault(j, {})[bpart] = c
    elements = ctx.basis.elements
    v = LieElt._summed(
        (rank,),
        terms_of(
            leftnorm(_fold_slice(slices[dpart], env, rank), [elements[k].value for k in dpart])
            for dpart in sorted(slices)
        ),
    )
    _verify_solution(caller, v, u, K, env)
    return v


def commutator_subspace(
    n: GradedSubspace, degrees: Optional[Iterable[int]] = None
) -> GradedSubspace:
    """Graded span of [N, N]; given degrees, only those components are
    returned and the others are left empty, which is enough for membership
    of an element with those degrees ([N, N]_d depends only on N).  N keeps
    [N, N] degree by degree, so each degree is built once per N, the first
    time any call asks for it.  A degree above the cutoff raises ValueError
    and builds nothing."""
    return n.bracket_span(n, degrees)


@dataclass
class DecompositionReport:
    holds: bool
    residues: dict = field(default_factory=dict)
    v0: Optional[LieElt] = None
    v1: Optional[LieElt] = None
    certified: Optional[bool] = None


def theorem_decomposition(
    v: LieElt, K: frozenset[int], n: GradedSubspace
) -> DecompositionReport:
    """D_k(v) = 0 mod N_U for all k outside K  iff  v = v0 + v1 mod [N, N]
    with v0 in F_K and v1 in the ideal generated by F_K cap N; the
    decomposition is produced constructively when the criterion holds.  Its
    certificate, v - v0 - v1 in [N, N], reads [N, N] in that element's
    degrees, which N keeps once built."""
    rank = v.rank
    K = frozenset(K)
    if not K <= set(range(1, rank + 1)):
        raise ValueError(f"kept generators must lie in 1..{rank}")
    if v.max_degree() > n.cutoff:
        raise ValueError("cutoff too small for v")
    if rank != n.rank:
        raise ValueError("rank mismatch")
    den, parts = _fox_integral(v)
    residues = {}
    outside = [k for k in range(1, rank + 1) if k not in K]
    if outside:
        ctx = ideal_context(n)
        for k in outside:
            residues[k] = ctx.expand(ctx.rewrite((den, parts.get(k, {})), "c"))
    if any(r.terms for r in residues.values()):
        return DecompositionReport(False, residues)
    env = SubalgebraIdealContext(rank, K, n)
    coords = env.ctx.coords_of_lie(v)
    elements = [(env.ctx.basis.elements[k], c) for k, c in coords.items()]
    if any(e.block == "d" for e, _ in elements):
        raise RuntimeError("criterion holds but v is not in F_K + N")
    v0 = LieElt._summed(
        (rank,), terms_of(e.value.scale(c) for e, c in elements if e.block == "b")
    )
    w = v - v0
    den, parts = _fox_integral(w)
    v1 = _solve_ideal({j: (den, parts[j]) for j in sorted(K) if j in parts}, K, env, rank)
    w2 = w - v1
    certified = w2.is_zero or commutator_subspace(n, w2.degrees()).member(w2)
    return DecompositionReport(True, residues, v0, v1, certified)


def kharlampovich_check(v: LieElt, n: GradedSubspace) -> bool:
    """All D_j(v) = 0 mod N_U  iff  v in [N, N]; both sides are computed and
    compared, a mismatch raises.  [N, N] is read in v's degrees only; N
    keeps each degree once built, so a session on one N builds it once."""
    if not n.member(v):
        raise ValueError("v must lie in N")
    den, parts = _fox_integral(v)
    ctx = ideal_context(n)
    verdict_fox = not any(ctx.rewrite((den, parts[j]), "c") for j in sorted(parts))
    verdict_span = commutator_subspace(n, v.degrees()).member(v)
    if verdict_fox != verdict_span:
        raise RuntimeError(
            f"criterion mismatch: derivatives say {verdict_fox}, "
            f"[N,N] membership says {verdict_span}"
        )
    return verdict_fox

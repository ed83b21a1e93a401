import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.assoc_env import reduce_mod_ideal
from foxcalc.fox_lie import (
    SigmaError,
    SubalgebraIdealContext,
    commutator_subspace,
    free_base_dims,
    kharlampovich_check,
    lie_fox,
    solve_sigma_zero,
    solve_sigma_zero_ideal,
    theorem_decomposition,
)
from foxcalc.lie_core import (
    AssocPoly,
    GradedSubspace,
    LieElt,
    bracket,
    expand_to_assoc,
    ideal_closure,
    leftnorm,
    lyndon_words,
    parse_lie,
    power_subspace,
    subalgebra_closure,
    witt_dimension,
)

from conftest import lie_elts
from oracles import (
    lie_chain_rule_check,
    lie_fox_commutator_check,
    lie_fox_reassemble,
    validate_free_base,
)


@given(lie_elts(3, 5))
def test_reassembly(a):
    fox = lie_fox(expand_to_assoc(a))
    assert lie_fox_reassemble(fox) == expand_to_assoc(a)
    assert fox.constant == 0


@given(lie_elts(2, 3), lie_elts(2, 3))
@settings(max_examples=50, deadline=None)
def test_commutator_rule(u, v):
    assert lie_fox_commutator_check(u, v)


def random_expr(rng, size, base_len):
    if size <= 1:
        return rng.randrange(1, base_len + 1)
    cut = rng.randrange(1, size)
    return (random_expr(rng, cut, base_len), random_expr(rng, size - cut, base_len))


def test_chain_rule_random():
    rng = random.Random(7)
    bases = [
        [LieElt.gen(3, 1), bracket(LieElt.gen(3, 1), LieElt.gen(3, 2))],
        [LieElt.gen(3, 2), LieElt.gen(3, 3)],
        [bracket(LieElt.gen(3, 1), LieElt.gen(3, 3)), LieElt.gen(3, 2)],
    ]
    for _ in range(50):
        base = rng.choice(bases)
        expr = random_expr(rng, rng.randrange(2, 5), len(base))
        assert lie_chain_rule_check(base, expr)


@given(lie_elts(2, 3), lie_elts(2, 2))
@settings(max_examples=40, deadline=None)
def test_ideal_congruence_rule(a, u):
    """D_k([n, u]) = D_k(n) u mod N_U for n in the graded ideal."""
    cutoff = 4
    nspace = power_subspace(GradedSubspace.full(2, cutoff), 2)
    n_elt = a - a.homogeneous(1)
    b = bracket(n_elt, u)
    if b.is_zero or b.max_degree() > cutoff:
        return
    dn = lie_fox(expand_to_assoc(n_elt))
    db = lie_fox(expand_to_assoc(b))
    pu = expand_to_assoc(u)
    for k in range(1, 3):
        diff = (db.partials[k] - dn.partials[k] * pu).truncate(cutoff - 1)
        assert reduce_mod_ideal(diff, nspace).is_zero


def test_free_base_dims_unit_generators():
    dims = free_base_dims([1, 1, 1], 6)
    for d in range(1, 7):
        assert dims[d] == witt_dimension(3, d)


def test_free_base_dims_weighted():
    # one generator of degree 2: an abelian (one-dimensional) algebra
    dims = free_base_dims([2], 6)
    assert dims == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}
    # degrees 2 and 3: free of rank 2 on those weights
    dims = free_base_dims([2, 3], 8)
    assert dims[5] == 1 and dims[2] == 1 and dims[3] == 1 and dims[4] == 0


def test_free_base_dims_witt_for_unit_generators():
    for rank in range(5):
        dims = free_base_dims([1] * rank, 10)
        assert dims == {d: witt_dimension(rank, d) for d in range(1, 11)}


@pytest.mark.parametrize("degrees", [[-1], [0], [1, 0, 2], [2, -3]])
def test_free_base_dims_refuses_degrees_below_one(degrees):
    # a negative degree used to index h from the end, a zero one was dropped
    for cutoff in (0, 3):
        with pytest.raises(ValueError):
            free_base_dims(degrees, cutoff)


def test_free_base_dims_against_pbw_product():
    # prod_n (1 - t^n)^(-l_n) = 1/(1 - h(t)) as integer series to the cutoff
    rng = random.Random(11)
    for _ in range(60):
        cutoff = rng.randrange(0, 11)
        degrees = [rng.randrange(1, 8) for _ in range(rng.randrange(0, 6))]
        dims = free_base_dims(degrees, cutoff)
        assert sorted(dims) == list(range(1, cutoff + 1))
        assert all(l >= 0 for l in dims.values())
        h = [sum(1 for d in degrees if d == m) for m in range(cutoff + 1)]
        geometric = [1] + [0] * cutoff
        for m in range(1, cutoff + 1):
            geometric[m] = sum(h[i] * geometric[m - i] for i in range(1, m + 1))
        product = [1] + [0] * cutoff
        for n, l in dims.items():
            # (1 - t^n)^(-l) = sum_k C(l + k - 1, k) t^(nk)
            factor = [0] * (cutoff + 1)
            for k in range(cutoff // n + 1):
                factor[n * k] = math.comb(l + k - 1, k) if l else int(k == 0)
            product = [
                sum(product[i] * factor[m - i] for i in range(m + 1))
                for m in range(cutoff + 1)
            ]
        assert product == geometric


def test_free_base_dims_non_integral_is_refused(monkeypatch):
    import foxcalc.fox_lie as fl

    monkeypatch.setattr(fl, "_mobius", lambda n: 1)
    with pytest.raises(ArithmeticError):
        free_base_dims([1], 3)


def test_validate_free_base():
    y = [LieElt.gen(2, 1), LieElt.gen(2, 2)]
    assert validate_free_base(y, 2, 5)
    assert not validate_free_base([y[0], y[0]], 2, 5)


def _random_member(rng, space, max_deg):
    """Random element of a graded subspace up to max_deg."""
    out = LieElt.zero(space.rank)
    for d in range(1, max_deg + 1):
        for row in space.rows(d):
            if rng.random() < 0.4:
                c = Fraction(rng.randrange(-2, 3))
                if c:
                    from foxcalc.lie_core import lie_from_vector

                    out = out + lie_from_vector(space.rank, d, row).scale(c)
    return out


def sigma_setup(rank=3, power=2, cutoff=5, K=frozenset({1, 2})):
    n = power_subspace(GradedSubspace.full(rank, cutoff), power)
    fk = subalgebra_closure(
        [LieElt.gen(rank, j) for j in sorted(K)], rank, cutoff
    )
    return n, fk


def test_solve_sigma_zero_round_trip():
    rng = random.Random(11)
    rank, K = 3, frozenset({1, 2})
    n, fk = sigma_setup()
    env = SubalgebraIdealContext(rank, K, n)
    inter = fk.intersect(n)
    for _ in range(20):
        v = _random_member(rng, inter, 5)
        if v.is_zero:
            continue
        fox = lie_fox(expand_to_assoc(v))
        u = {j: fox.partials[j] for j in sorted(K)}
        got = solve_sigma_zero(u, K, n, rank)
        gfox = lie_fox(expand_to_assoc(got))
        for j in sorted(K):
            assert env.is_zero_mod(gfox.partials[j] - u[j])


@pytest.mark.parametrize(
    "rank,power,cutoff,K",
    [(3, 2, 5, frozenset({1, 2})), (3, 3, 5, frozenset({1, 2})), (4, 2, 4, frozenset({1, 3}))],
)
def test_solve_sigma_zero_lies_in_f_k_cap_n(rank, power, cutoff, K):
    """The solution lies in F_K cap N, also when each u_j carries an N_U
    part inside U(F_K) that the congruences do not see."""
    rng = random.Random(f"sigma {rank} {power} {sorted(K)}")
    n, fk = sigma_setup(rank, power, cutoff, K)
    env = SubalgebraIdealContext(rank, K, n)
    inter = fk.intersect(n)
    ends = [expand_to_assoc(LieElt.gen(rank, j)) for j in sorted(K)]
    for _ in range(30):
        v = _random_member(rng, inter, cutoff)
        fox = lie_fox(expand_to_assoc(v))
        u = {}
        for j in sorted(K):
            a = _random_member(rng, inter, cutoff - 2)
            u[j] = fox.partials[j] + expand_to_assoc(a) * rng.choice(ends)
        got = solve_sigma_zero(u, K, n, rank)
        assert inter.member(got)
        gfox = lie_fox(expand_to_assoc(got))
        for j in sorted(K):
            assert env.is_zero_mod(gfox.partials[j] - u[j])


def test_solve_sigma_zero_rejects_bad_input():
    rank, K = 3, frozenset({1, 2})
    n, _ = sigma_setup()
    u = {1: AssocPoly.gen(3, 2), 2: AssocPoly.zero(3)}
    with pytest.raises(SigmaError) as exc:
        solve_sigma_zero(u, K, n, rank)
    assert not exc.value.residue.is_zero


def test_solve_sigma_zero_validates_support():
    rank, K = 3, frozenset({1})
    n, _ = sigma_setup(K=frozenset({1}))
    with pytest.raises(ValueError):
        solve_sigma_zero({1: AssocPoly.gen(3, 2)}, K, n, rank)


def test_solve_sigma_zero_broken_construction_raises(monkeypatch):
    # a constructed v that fails its own congruence check is an internal
    # fault, reported apart from SigmaError (bad input)
    import foxcalc.fox_lie as fox_lie

    rank, K = 3, frozenset({1, 2})
    n, fk = sigma_setup()
    v = fk.intersect(n).basis_elements(2)[0]
    fox = lie_fox(expand_to_assoc(v))
    u = {j: fox.partials[j] for j in sorted(K)}
    monkeypatch.setattr(
        fox_lie, "leftnorm", lambda head, tail: leftnorm(head, tail).scale(2)
    )
    with pytest.raises(RuntimeError, match="solve_sigma_zero"):
        solve_sigma_zero(u, K, n, rank)


def test_solve_sigma_zero_ideal_residue_shape_is_internal(monkeypatch):
    # a residue monomial is b*d* in abcd order; any other shape is an
    # internal fault, reported apart from SigmaError (bad input)
    from foxcalc.assoc_env import PBWContext

    rank, K = 3, frozenset({1, 2})
    n, fk = sigma_setup()
    v = bracket(fk.intersect(n).basis_elements(2)[0], LieElt.gen(rank, 3))
    fox = lie_fox(expand_to_assoc(v))
    u = {j: fox.partials[j] for j in sorted(K)}
    blocks = PBWContext.monomial_blocks
    monkeypatch.setattr(
        PBWContext, "monomial_blocks", lambda self, mono: blocks(self, mono).replace("d", "c")
    )
    with pytest.raises(RuntimeError, match="unexpected monomial shape"):
        solve_sigma_zero_ideal(u, K, n, rank)


def test_solve_sigma_zero_ideal_checks_the_summed_solution(monkeypatch):
    # slices are folded without a check of their own, so a slice fold that
    # goes wrong must still be caught by the one check of the summed v
    import foxcalc.fox_lie as fox_lie

    rank, K = 3, frozenset({1, 2})
    n, fk = sigma_setup()
    v = bracket(fk.intersect(n).basis_elements(2)[0], LieElt.gen(rank, 3))
    fox = lie_fox(expand_to_assoc(v))
    u = {j: fox.partials[j] for j in sorted(K)}
    assert not solve_sigma_zero_ideal(u, K, n, rank).is_zero
    fold = fox_lie._fold_slice
    monkeypatch.setattr(
        fox_lie, "_fold_slice", lambda *args: fold(*args) + LieElt.gen(rank, 1)
    )
    with pytest.raises(RuntimeError, match="solve_sigma_zero_ideal"):
        solve_sigma_zero_ideal(u, K, n, rank)


def test_is_zero_mod_agrees_with_reduce_mod_ideal():
    """For every K the a and c symbols span N, so the monomials holding one
    span N_U: each context decides p in N_U as reduce_mod_ideal does."""
    rng = random.Random(29)
    rank, cutoff = 3, 4

    def word(length):
        return AssocPoly(rank, {tuple(rng.randint(1, rank) for _ in range(length)): 1})

    for power in (2, 3):
        n = power_subspace(GradedSubspace.full(rank, cutoff), power)
        members = [e for d in range(power, cutoff + 1) for e in n.basis_elements(d)]
        polys = []
        for _ in range(30):
            m = rng.choice(members)
            room = cutoff - m.max_degree()
            left = rng.randint(0, room)
            p = word(left) * expand_to_assoc(m) * word(rng.randint(0, room - left))
            if rng.random() < 0.5:
                p = p + word(rng.randint(0, cutoff)).scale(Fraction(rng.randint(1, 3)))
            polys.append(p)
        in_ideal = [reduce_mod_ideal(p, n).is_zero for p in polys]
        assert 0 < sum(in_ideal) < len(polys)
        for K in (frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3})):
            env = SubalgebraIdealContext(rank, K, n)
            assert [env.is_zero_mod(p) for p in polys] == in_ideal


def test_solve_sigma_zero_ideal_round_trip():
    rng = random.Random(13)
    rank, K = 3, frozenset({1, 2})
    n, fk = sigma_setup()
    env = SubalgebraIdealContext(rank, K, n)
    inter = fk.intersect(n)
    gens = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
    for _ in range(15):
        seed = _random_member(rng, inter, 3)
        if seed.is_zero:
            continue
        v = leftnorm(seed, [rng.choice(gens) for _ in range(rng.randrange(0, 2))])
        if v.is_zero or v.max_degree() > 5:
            continue
        fox = lie_fox(expand_to_assoc(v))
        u = {j: fox.partials[j] for j in sorted(K)}
        got = solve_sigma_zero_ideal(u, K, n, rank)
        gfox = lie_fox(expand_to_assoc(got))
        for j in sorted(K):
            assert env.is_zero_mod(gfox.partials[j] - u[j])


def test_theorem_decomposition_round_trip():
    rng = random.Random(17)
    rank, K, cutoff = 3, frozenset({1, 2}), 5
    n, fk = sigma_setup(cutoff=cutoff)
    inter = fk.intersect(n)
    comm = commutator_subspace(n)
    for _ in range(10):
        v0 = _random_member(rng, fk, 3)
        v1 = bracket(_random_member(rng, inter, 3), LieElt.gen(rank, 3))
        w = _random_member(rng, comm, cutoff)
        v = v0 + v1 + w
        if v.is_zero or v.max_degree() > cutoff:
            continue
        rep = theorem_decomposition(v, K, n)
        assert rep.holds and rep.certified


def test_theorem_decomposition_negative():
    rank, K = 3, frozenset({1, 2})
    n, _ = sigma_setup()
    rep = theorem_decomposition(LieElt.gen(rank, 3), K, n)
    assert not rep.holds
    assert any(not r.is_zero for r in rep.residues.values())


@pytest.mark.parametrize("K", [{1, 5}, {0, 1}])
def test_theorem_decomposition_rejects_out_of_range_keep(K):
    # the residues of [[y1,y3],y2] are nonzero, so the early return would
    # otherwise answer before any index is looked at
    n = power_subspace(GradedSubspace.full(3, 4), 2)
    with pytest.raises(ValueError, match="kept generators"):
        theorem_decomposition(parse_lie("[[y1,y3],y2]", 3), frozenset(K), n)


def test_subalgebra_ideal_context_rejects_non_ideal():
    # F_{1,3} is a subalgebra, not an ideal: with K = all letters no residue
    # is computed, so only the context itself can refuse the premise
    rank, K = 3, frozenset({1, 2, 3})
    n = subalgebra_closure([LieElt.gen(rank, 1), LieElt.gen(rank, 3)], rank, 4)
    u = lie_fox(expand_to_assoc(parse_lie("[y1, y3]", rank))).partials
    with pytest.raises(ValueError, match="not an ideal"):
        solve_sigma_zero(u, K, n, rank)
    with pytest.raises(ValueError, match="not an ideal"):
        theorem_decomposition(parse_lie("[[y1,y3],y2]", rank), K, n)


def test_kharlampovich_examples():
    n = power_subspace(GradedSubspace.full(3, 5), 2)
    c = bracket(LieElt.gen(3, 1), LieElt.gen(3, 2))
    d = bracket(LieElt.gen(3, 1), LieElt.gen(3, 3))
    assert kharlampovich_check(bracket(c, d), n)
    assert not kharlampovich_check(c, n)
    with pytest.raises(ValueError):
        kharlampovich_check(LieElt.gen(3, 1), n)


def test_kharlampovich_sweep_small():
    """Derivative verdict agrees with [N, N] membership on a basis of the
    degree <= 4 components of N = F_(2), rank 2 (self-compared inside)."""
    n = power_subspace(GradedSubspace.full(2, 4), 2)
    for d in range(2, 5):
        for w in lyndon_words(2, d):
            kharlampovich_check(LieElt(2, {w: Fraction(1)}), n)


def test_cold_decomposition_checks_the_ideal_once(monkeypatch):
    """reduce_mod_ideal and SubalgebraIdealContext both need N to be an
    ideal; on a cold start N is checked once, by whichever comes first."""
    import foxcalc.assoc_env as assoc_env
    from foxcalc.cli import main

    checked = []
    is_ideal = assoc_env.is_ideal
    monkeypatch.setattr(assoc_env, "is_ideal", lambda n: checked.append(n) or is_ideal(n))
    monkeypatch.setattr(SubalgebraIdealContext, "_cache", {})
    argv = ["lie", "decompose", "--rank", "3", "--expr", "y1 + [y1, y2]", "--keep", "1,2",
            "--cutoff", "6"]
    assert main(argv) == 0
    assert len(checked) == 1


def _commutator_cases():
    """(label, N) at rank 3 cutoff 6 and rank 4 cutoff 5: N = power:2,
    power:3 and the ideal of a seeded random homogeneous relator."""
    rng = random.Random(41)
    for rank, cutoff in ((3, 6), (4, 5)):
        full = GradedSubspace.full(rank, cutoff)
        yield f"r{rank}c{cutoff}-power:2", power_subspace(full, 2)
        yield f"r{rank}c{cutoff}-power:3", power_subspace(full, 3)
        words = rng.sample(lyndon_words(rank, 2), 2)
        relator = LieElt(rank, {w: Fraction(rng.choice((-2, -1, 1, 3))) for w in words})
        yield f"r{rank}c{cutoff}-ideal", ideal_closure([relator], rank, cutoff)


@pytest.mark.parametrize("label,n", [pytest.param(*case, id=case[0]) for case in _commutator_cases()])
def test_commutator_subspace_in_given_degrees_matches_full_span(label, n):
    """[N, N] built in a set of degrees equals the full [N, N] there and is
    empty elsewhere; Kharlampovich verdicts on random elements of N are
    those of membership in the full [N, N]; a degree above the cutoff
    raises.  The oracle is the full [N, N] of a fresh copy of N, since N
    keeps the degrees it has built."""
    rng = random.Random(label)
    fresh = GradedSubspace._trusted(n.rank, n.cutoff, dict(n.comp))
    full = fresh.bracket_span(fresh)
    degrees = range(1, n.cutoff + 1)
    for _ in range(6):
        ds = set(rng.sample(degrees, rng.randint(0, n.cutoff)))
        part = commutator_subspace(n, ds)
        assert (part.rank, part.cutoff) == (n.rank, n.cutoff)
        for d in degrees:
            want = full.echelon(d).pivot_rows if d in ds else {}
            assert part.echelon(d).pivot_rows == want
    verdicts = set()
    for k in range(6):
        # even k: an element of [N, N] (when it is not empty), odd k: of N
        v = _random_member(rng, full if k % 2 == 0 else n, n.cutoff)
        if v.is_zero:
            continue
        got = kharlampovich_check(v, n)
        assert got == full.member(v)
        verdicts.add(got)
    assert False in verdicts and (True in verdicts or not full.comp)
    with pytest.raises(ValueError, match="exceeds cutoff"):
        commutator_subspace(n, {2, n.cutoff + 1})
    small = GradedSubspace._trusted(n.rank, n.cutoff - 1, {d: n.echelon(d) for d in range(1, n.cutoff)})
    top = n.basis_elements(n.cutoff)
    if top:
        with pytest.raises(ValueError, match="exceeds cutoff"):
            kharlampovich_check(top[0], small)


def _fresh_commutator(n, degrees):
    """[N, N] in the given degrees, built from scratch on a copy of N."""
    copy = GradedSubspace._trusted(n.rank, n.cutoff, dict(n.comp))
    return copy.bracket_span(copy, degrees)


@pytest.mark.parametrize("label,n", [pytest.param(*case, id=case[0]) for case in _commutator_cases()])
def test_commutator_session_matches_fresh_copies(label, n):
    """One N through a session of shuffled, overlapping and empty degree
    sets, with kharlampovich_check, theorem_decomposition and
    commutator_subspace interleaved: every [N, N] answer equals the one a
    fresh copy of N builds, and the verdicts are those of membership in it."""
    rng = random.Random("session-" + label)
    degrees = list(range(1, n.cutoff + 1))
    K = frozenset(range(1, n.rank))
    for step in range(12):
        ds = rng.sample(degrees, rng.randint(0, len(degrees)))
        ds += rng.sample(degrees, rng.randint(0, 2))  # overlaps, in any order
        part = commutator_subspace(n, ds)
        assert part == _fresh_commutator(n, ds)
        assert {d for d in part.comp} <= set(ds)
        v = _random_member(rng, n if step % 2 else _fresh_commutator(n, None), n.cutoff)
        if v.is_zero:
            continue
        if step % 3 == 2:
            rep = theorem_decomposition(v, K, n)
            assert not rep.holds or rep.certified is True
        else:
            assert kharlampovich_check(v, n) == _fresh_commutator(n, v.degrees()).member(v)
    assert commutator_subspace(n, ()) == GradedSubspace.zero(n.rank, n.cutoff)
    assert commutator_subspace(n) == _fresh_commutator(n, None)


def test_commutator_repeat_builds_nothing(monkeypatch):
    """A degree of [N, N] asked for again takes no bracket; the answers
    share N's kept echelons, and a degree set and its complement fill the
    rest without rebuilding the first."""
    import foxcalc.lie_core as lie_core

    calls = []
    raw = lie_core.bracket
    monkeypatch.setattr(lie_core, "bracket", lambda a, b: calls.append(1) or raw(a, b))
    n = power_subspace(GradedSubspace.full(3, 6), 2)
    first = commutator_subspace(n, {4, 6})
    assert calls
    calls.clear()
    again = commutator_subspace(n, [6, 4, 4])
    assert not calls and again == first
    whole = commutator_subspace(n)
    assert calls and whole == _fresh_commutator(n, None)
    assert all(x.echelon(d) is first.echelon(d) for x in (again, whole) for d in (4, 6))
    calls.clear()
    assert commutator_subspace(n) == whole and n.bracket_span(n, range(1, 7)) == whole
    assert kharlampovich_check(whole.basis_elements(6)[0], n)
    assert not calls


def test_commutator_above_cutoff_keeps_the_stored_degrees():
    n = power_subspace(GradedSubspace.full(3, 5), 2)
    commutator_subspace(n, {4})
    kept = dict(n._known)
    for ds in ({6}, {3, 6}, {2, 4, 5, 9}):
        with pytest.raises(ValueError, match="exceeds cutoff"):
            commutator_subspace(n, ds)
        assert n._known == kept and all(n._known[d] is kept[d] for d in kept)


def test_commutator_store_leaves_hash_and_equality():
    """Filling [N, N] changes neither N's hash nor what it equals; two equal
    but distinct N each build their own [N, N]."""
    full = GradedSubspace.full(3, 5)
    a, b = power_subspace(full, 2), power_subspace(full, 2)
    before = hash(a)
    assert a == b and a is not b
    commutator_subspace(a)
    assert hash(a) == before == hash(b) and a == b
    assert a == GradedSubspace._trusted(3, 5, dict(a.comp))
    assert not any(d in b._known for d in range(1, 6))
    assert commutator_subspace(b, {5}) == commutator_subspace(a, {5})
    assert b._known[5] is not a._known[5]


def test_closures_take_no_degree_set():
    # a closure's component d reads the result below d, so it cannot be
    # built in some degrees only
    from foxcalc.lie_core import _graded_brackets

    n = power_subspace(GradedSubspace.full(3, 4), 2)
    with pytest.raises(ValueError, match="closure"):
        _graded_brackets(3, 4, [], None, n, {3})


def _rebuilt_poly(p):
    return AssocPoly(p.rank, p.terms)


def _rebuilt_lie(v):
    return LieElt(v.rank, v.terms)


@given(lie_elts(3, 5))
@settings(max_examples=60, deadline=None)
def test_trusted_expansions_and_partials_pass_the_checked_constructors(a):
    """expand_to_assoc and lie_fox build their results without checking the
    keys; rebuilt through the checked constructors they must come out the
    same (a bad key raises, a zero coefficient would be dropped)."""
    p = expand_to_assoc(a)
    assert _rebuilt_poly(p) == p
    for q in lie_fox(p).partials.values():
        assert _rebuilt_poly(q) == q


def test_trusted_solver_results_pass_the_checked_constructors():
    """PBWContext.expand, both sigma solvers and theorem_decomposition build
    their results without checking the keys; rebuilt through the checked
    constructors they must come out the same."""
    rng = random.Random(43)
    rank, K, cutoff = 3, frozenset({1, 2}), 5
    n, fk = sigma_setup(cutoff=cutoff)
    inter = fk.intersect(n)
    env = SubalgebraIdealContext(rank, K, n)
    gens = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
    comm = commutator_subspace(n)
    seen = 0
    for _ in range(12):
        v = _random_member(rng, inter, 4)
        if v.is_zero:
            continue
        p = expand_to_assoc(leftnorm(v, [rng.choice(gens)]))
        coords = env.ctx.rewrite(p)
        assert _rebuilt_poly(env.ctx.expand(coords)) == env.ctx.expand(coords) == p
        fox = lie_fox(expand_to_assoc(v))
        u = {j: fox.partials[j] for j in sorted(K)}
        got = solve_sigma_zero(u, K, n, rank)
        assert _rebuilt_lie(got) == got
        w = leftnorm(v, [rng.choice(gens)])
        if w.is_zero or w.max_degree() > cutoff:
            continue
        fox = lie_fox(expand_to_assoc(w))
        got = solve_sigma_zero_ideal({j: fox.partials[j] for j in sorted(K)}, K, n, rank)
        assert _rebuilt_lie(got) == got
        x = _random_member(rng, fk, 3) + bracket(v, gens[2]).truncate(cutoff)
        x = x + _random_member(rng, comm, cutoff)
        if x.is_zero:
            continue
        rep = theorem_decomposition(x, K, n)
        assert rep.holds and rep.certified
        assert _rebuilt_lie(rep.v0) == rep.v0 and _rebuilt_lie(rep.v1) == rep.v1
        for r in rep.residues.values():
            assert _rebuilt_poly(r) == r
        seen += 1
    assert seen >= 5


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("rank", [3, 4])
def test_integer_fox_partials_match_lie_fox(rank, power):
    """The D_j split off the integer expansion equal lie_fox's partials of
    expand_to_assoc, and reduce as they do modulo N_U in the ideal context
    and in the contexts of K = {1} and K = {1, 2}."""
    from foxcalc.assoc_env import ideal_context
    from foxcalc.fox_lie import _fox_integral

    cutoff = {3: 5, 4: 4}[rank]
    n = power_subspace(GradedSubspace.full(rank, cutoff), power)
    contexts = [(ideal_context(n), "c")]
    contexts += [(SubalgebraIdealContext(rank, K, n).ctx, "ac") for K in (frozenset({1}), frozenset({1, 2}))]
    words = [w for d in range(1, cutoff + 1) for w in lyndon_words(rank, d)]
    rng = random.Random(f"fox ints {rank} {power}")
    cases = [LieElt.zero(rank)]
    cases += [
        LieElt(rank, {
            w: Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([1, 2, 3, 4, 9]))
            for w in rng.sample(words, rng.randint(1, 5))
        })
        for _ in range(25)
    ]
    for v in cases:
        den, parts = _fox_integral(v)
        want = lie_fox(expand_to_assoc(v)).partials
        for j in range(1, rank + 1):
            got = {m: Fraction(c, den) for m, c in parts.get(j, {}).items()}
            assert got == want[j].terms
            for ctx, drop in contexts:
                assert ctx.rewrite((den, parts.get(j, {})), drop) == ctx.rewrite(want[j], drop)
        assert all(parts.values()) and set(parts) <= set(range(1, rank + 1))

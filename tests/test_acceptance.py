"""Acceptance suite: ten exact criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced.  Every check is exact (integer / rational arithmetic); a
criterion passes only with zero mismatches.
"""
import itertools
import random
import time
from fractions import Fraction

from foxcalc.fox_group import (
    all_indices,
    fox_derivative,
    free_index,
    fundamental_decomposition,
    theorem1_check,
)
from foxcalc.fox_lie import (
    SigmaError,
    SubalgebraIdealContext,
    kharlampovich_check,
    lie_fox,
    solve_sigma_zero,
    solve_sigma_zero_ideal,
)
from foxcalc.freiheit import (
    SeriesSpec,
    conjugacy_criterion,
    lie_freiheitssatz_verify,
)
from foxcalc.group_ring import RingElt, finite_index_oracle
from foxcalc.lie_core import (
    AssocPoly,
    GradedSubspace,
    LieElt,
    bracket,
    expand_to_assoc,
    leftnorm,
    lie_from_vector,
    lyndon_words,
    parse_lie,
    power_subspace,
    project_to_lyndon,
    subalgebra_closure,
    witt_dimension,
)
from foxcalc.magnus import gamma_weight
from foxcalc.transversal import Transversal
from foxcalc.words import (
    Alphabet,
    FactorLetter,
    FreeLetter,
    Word,
    commutator,
    conjugate,
    identity,
    invert,
    multiply,
    parse_word,
    reduce,
    shortlex_words,
)

from oracles import (
    derivative_leading_term_check,
    ideal_weight,
    lie_chain_rule_check,
    subgroup_fox,
)

FREE2 = Alphabet(2)
FREE3 = Alphabet(3)


def report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def random_word(rng, alphabet, max_len):
    pool = []
    for i, m in enumerate(alphabet.factor_orders, start=1):
        pool.extend(FactorLetter(i, e) for e in range(1, m))
    for j in range(1, alphabet.free_rank + 1):
        pool.append(FreeLetter(j, 1))
        pool.append(FreeLetter(j, -1))
    n = rng.randrange(0, max_len + 1)
    return reduce([rng.choice(pool) for _ in range(n)], alphabet)


def test_criterion_1_fox_identities():
    rng = random.Random(1)
    al = Alphabet(3, (5,))
    start = time.perf_counter()
    ok = True
    pairs = [(random_word(rng, al, 8), random_word(rng, al, 8)) for _ in range(500)]
    for u, v in pairs:
        for k in all_indices(al):
            du, dv = fox_derivative(u, k), fox_derivative(v, k)
            if fox_derivative(multiply(u, v), k) != du * v + dv:
                ok = False
            if fox_derivative(invert(u), k) != (du * invert(u)).scale(-1):
                ok = False
        a = RingElt.from_word(u) - RingElt.from_word(v, 2)
        if fundamental_decomposition(a).reassemble(al) != a:
            ok = False
    elapsed = time.perf_counter() - start
    report(1, f"fox identity suite on 1000 words ({elapsed:.1f}s)", ok and elapsed < 10)


def left_normed_commutators(rank, weight):
    al = Alphabet(rank)
    gens = {j: Word(al, (FreeLetter(j, 1),)) for j in range(1, rank + 1)}
    for i1, i2 in itertools.permutations(range(1, rank + 1), 2):
        if i1 <= i2:
            continue
        for rest in itertools.combinations_with_replacement(
            range(i2, rank + 1), weight - 2
        ):
            w = commutator(gens[i1], gens[i2])
            for i in rest:
                w = commutator(w, gens[i])
            yield w


def test_criterion_2_commutator_weights():
    ok = True
    for n in range(2, 6):
        for w in left_normed_commutators(3, n):
            if gamma_weight(w, n) != n:
                ok = False
            weights = [
                ideal_weight(fox_derivative(w, free_index(j)), n)
                for j in range(1, 4)
            ]
            finite = [x for x in weights if x is not None]
            if not finite or max(finite) != n - 1 or any(x < n - 1 for x in finite):
                ok = False
    report(2, "basic commutator gamma and ideal weights (n <= 5)", ok)


def test_criterion_3_theorem1_equivalence():
    start = time.perf_counter()
    q = finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])
    K = frozenset({free_index(1)})
    ok = True
    checked = 0
    for v in shortlex_words(FREE2, 6):
        if not q.contains(v):
            continue
        rep = theorem1_check(v, K, q)
        if rep.status != "decided" or rep.holds != rep.witness_member:
            ok = False
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        f"theorem-1 equivalence, {checked} words of length <= 6 ({elapsed:.1f}s)",
        ok and checked > 300 and elapsed < 60,
    )


def test_criterion_4_schreier_derivative_heads():
    t = Transversal(finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)]))
    gens = t.schreier_generators()
    ok = True
    for g0 in gens:
        for g in gens:
            if g0.letter != g.letter:
                continue
            if not derivative_leading_term_check(t, g0, g):
                ok = False
    report(4, "schreier generator derivative head terms (index 4)", ok)


def random_expr(rng, size, base_len):
    if size <= 1:
        return rng.randrange(1, base_len + 1)
    cut = rng.randrange(1, size)
    return (random_expr(rng, cut, base_len), random_expr(rng, size - cut, base_len))


def test_criterion_5_chain_rules():
    rng = random.Random(5)
    ok = True
    # group side: random bases of nontrivial words, random expressions
    for _ in range(500):
        rank = rng.choice((2, 3))
        al = Alphabet(rank)
        base = []
        while len(base) < rng.choice((2, 3)):
            w = random_word(rng, al, 3)
            if not w.is_identity:
                base.append(w)
        symbols = Alphabet(len(base))
        expr = random_word(rng, symbols, 6)
        if not subgroup_fox(base, expr)["chain_check"]:
            ok = False
    # lie side: random bases of generators and brackets
    gens3 = [LieElt.gen(3, j) for j in (1, 2, 3)]
    candidates = gens3 + [
        bracket(gens3[0], gens3[1]),
        bracket(gens3[0], gens3[2]),
        bracket(gens3[1], gens3[2]),
    ]
    for _ in range(500):
        base = rng.sample(candidates, rng.choice((2, 3)))
        expr = random_expr(rng, rng.randrange(1, 5), len(base))
        if not lie_chain_rule_check(base, expr):
            ok = False
    report(5, "group and lie chain rules, 500 random instances each", ok)


def test_criterion_6_pbw_lyndon_suite():
    ok = True
    for r in range(1, 5):
        for d in range(1, 9):
            if len(lyndon_words(r, d)) != witt_dimension(r, d):
                ok = False
    rng = random.Random(6)

    def random_homogeneous(degree):
        words = lyndon_words(3, degree)
        coords = {}
        for _ in range(rng.randrange(1, 5)):
            coords[rng.choice(words)] = Fraction(rng.randrange(-3, 4))
        return LieElt(3, {w: c for w, c in coords.items() if c})

    for _ in range(1000):
        a = random_homogeneous(rng.randrange(1, 8))
        if project_to_lyndon(expand_to_assoc(a)) != a:
            ok = False
    for _ in range(200):
        da = rng.randrange(1, 4)
        db = rng.randrange(1, 4)
        dc = rng.randrange(1, 8 - da - db) if da + db < 7 else 1
        a, b, c = (random_homogeneous(d) for d in (da, db, dc))
        s = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        if not s.is_zero:
            ok = False
    report(6, "lyndon/witt counts, jacobi, expand/project round trips", ok)


def _random_member(rng, space, max_deg):
    out = LieElt.zero(space.rank)
    for d in range(1, max_deg + 1):
        rows = space.rows(d)
        if not rows:
            continue
        row = rng.choice(list(rows))
        c = Fraction(rng.randrange(-2, 3))
        if c:
            out = out + lie_from_vector(space.rank, d, row).scale(c)
    return out


def test_criterion_7_sigma_solvers():
    rng = random.Random(7)
    rank, K, cutoff = 3, frozenset({1, 2}), 6
    ok = True
    for power in (2, 3):
        n = power_subspace(GradedSubspace.full(rank, cutoff), power)
        fk = subalgebra_closure(
            [LieElt.gen(rank, j) for j in sorted(K)], rank, cutoff
        )
        inter = fk.intersect(n)
        env = SubalgebraIdealContext(rank, K, n)
        gens = [LieElt.gen(rank, j) for j in range(1, rank + 1)]
        solved = 0
        while solved < 100:
            v = _random_member(rng, inter, 5)
            if v.is_zero:
                continue
            fox = lie_fox(expand_to_assoc(v))
            u = {j: fox.partials[j] for j in sorted(K)}
            got = lie_fox(expand_to_assoc(solve_sigma_zero(u, K, n, rank)))
            if not all(env.is_zero_mod(got.partials[j] - u[j]) for j in sorted(K)):
                ok = False
            solved += 1
        solved = 0
        while solved < 100:
            seed = _random_member(rng, inter, 4)
            if seed.is_zero:
                continue
            v = leftnorm(seed, [rng.choice(gens) for _ in range(rng.randrange(0, 2))])
            if v.is_zero or v.max_degree() > cutoff:
                continue
            fox = lie_fox(expand_to_assoc(v))
            u = {j: fox.partials[j] for j in sorted(K)}
            got = lie_fox(expand_to_assoc(solve_sigma_zero_ideal(u, K, n, rank)))
            if not all(env.is_zero_mod(got.partials[j] - u[j]) for j in sorted(K)):
                ok = False
            solved += 1
        # invalid input: sigma = x1 x2 is nonzero modulo N_U
        try:
            solve_sigma_zero(
                {1: AssocPoly.gen(rank, 2), 2: AssocPoly.zero(rank)}, K, n, rank
            )
            ok = False
        except SigmaError as e:
            if e.residue is None or e.residue.is_zero:
                ok = False
    report(7, "sigma solvers, 200 valid + invalid inputs per ideal", ok)


def test_criterion_8_kharlampovich_equivalence():
    n = power_subspace(GradedSubspace.full(3, 6), 2)
    ok = True
    checked = 0
    for d in range(2, 7):
        for w in lyndon_words(3, d):
            try:
                kharlampovich_check(LieElt(3, {w: Fraction(1)}), n)
            except RuntimeError:
                ok = False
            checked += 1
    report(8, f"kharlampovich equivalence on {checked} basis elements", ok)


def test_criterion_9_lie_freiheitssatz():
    start = time.perf_counter()
    ok = True
    r = parse_lie("[y1, y3]", 3)
    for spec in (SeriesSpec((6,)), SeriesSpec((1, 2))):
        rep = lie_freiheitssatz_verify(r, spec, 6)
        if not (rep.criterion.satisfied and rep.all_equal and rep.consistent):
            ok = False
    rep = lie_freiheitssatz_verify(parse_lie("[y1, y2]", 3), SeriesSpec((6,)), 6)
    if rep.criterion.satisfied or rep.all_equal or not rep.consistent:
        ok = False
    if not any(
        e.l == 3 and e.degree == 2 and e.dim_with_relator > e.dim_series
        for e in rep.entries
    ):
        ok = False
    elapsed = time.perf_counter() - start
    report(9, f"lie freedom theorem verifier ({elapsed:.1f}s)", ok and elapsed < 120)


def test_criterion_10_group_criterion():
    ok = True
    rep = conjugacy_criterion(parse_word("g1 g3 g1^-1 g3^-1", FREE3), level=2)
    if rep.conjugate_found:
        ok = False
    r = parse_word("g1 g2 g1^-1 g2^-1", FREE3)
    rep = conjugacy_criterion(r, level=2)
    # the graded witness: u the identity, h the group bracketing of [y1, y2]
    if rep.witness != (parse_word("", FREE3), parse_word("g1^-1 g2^-1 g1 g2", FREE3)):
        ok = False
    rep = conjugacy_criterion(conjugate(r, parse_word("g3", FREE3)), level=2)
    if not (rep.conjugate_found and rep.witness is not None):
        ok = False
    report(10, "group conjugacy criterion with witnesses", ok)

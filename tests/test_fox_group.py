import random

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.fox_group import (
    _residue_report,
    all_indices,
    fox_derivative,
    free_index,
    fundamental_decomposition,
    retraction,
    schumann_check,
    subgroup_fox,
    subgroup_gamma_criterion,
    substitute_ring,
    theorem1_check,
)
from foxcalc.group_ring import (
    RingElt,
    abelianization_oracle,
    finite_index_oracle,
    free_nilpotent_oracle,
    reduce_mod,
    trivial_oracle,
)
from foxcalc.magnus import embed, embed_ring, gamma_weight, ideal_weight
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
    to_atomic,
    word_length,
)

from conftest import FREE2, FREE3, MIXED, syllable_words, words


def index4_oracle():
    return finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])


@given(words(MIXED, 8), words(MIXED, 8))
@settings(max_examples=80)
def test_derivation_law(u, v):
    for k in all_indices(MIXED):
        assert fox_derivative(multiply(u, v), k) == fox_derivative(u, k) * v + fox_derivative(v, k)


@given(words(MIXED, 8))
def test_inverse_law(u):
    for k in all_indices(MIXED):
        assert fox_derivative(invert(u), k) == (fox_derivative(u, k) * invert(u)).scale(-1)


@given(st.lists(st.tuples(words(MIXED, 4), st.integers(-4, 4)), max_size=5))
def test_fundamental_identity(terms):
    a = sum((RingElt.from_word(w, c) for w, c in terms), RingElt.zero(MIXED))
    dec = fundamental_decomposition(a)
    assert dec.reassemble(MIXED) == a


@given(words(FREE2, 5), words(FREE2, 5))
@settings(max_examples=40)
def test_conjugation_congruence(n, f):
    """For n in N, the derivatives of f^-1 n f agree with D(n) f mod N."""
    q = index4_oracle()
    if not q.contains(n):
        n = multiply(n, n)  # squares land in the kernel of the 2-torsion map
    assert q.contains(n)
    for k in all_indices(FREE2):
        lhs = reduce_mod(fox_derivative(conjugate(n, f), k), q)
        rhs = reduce_mod(fox_derivative(n, k) * f, q)
        assert lhs == rhs


@pytest.mark.parametrize("e", [-7, -1, 1, 7])
def test_letter_power_derivative(e):
    """D_1(g1^e) is 1 + g + ... + g^(e-1), or -(g^-1 + ... + g^e) for e < 0,
    against powers built by repeated multiplication."""
    step = Word(FREE2, (FreeLetter(1, 1 if e > 0 else -1),))
    powers = [Word(FREE2, ())]
    for _ in range(abs(e)):
        powers.append(multiply(powers[-1], step))
    want = {p: 1 for p in powers[:-1]} if e > 0 else {p: -1 for p in powers[1:]}
    power = Word(FREE2, (FreeLetter(1, e),))
    assert fox_derivative(power, free_index(1)) == RingElt(FREE2, want)
    assert fox_derivative(power, free_index(2)).is_zero


def test_schumann_examples():
    q = index4_oracle()
    c = commutator(
        Word(FREE2, (FreeLetter(1, 1),)), Word(FREE2, (FreeLetter(2, 1),))
    )
    cc = commutator(c, conjugate(c, Word(FREE2, (FreeLetter(1, 1),))))
    assert schumann_check(cc, q).holds  # element of [N, N]
    assert not schumann_check(c, q).holds  # in N but not [N, N]
    with pytest.raises(ValueError):
        schumann_check(Word(FREE2, (FreeLetter(1, 1),)), q)


def test_residue_report_batch_against_reduce_mod():
    """The one-batch residue report against reduce_mod of each derivative
    on its own, and the keys of the extra words against coset_key, over
    trivial, abel, abel:kill on a factor alphabet, nilpotent:1..3 and index
    oracles; schumann_check refuses exactly the words outside N."""
    rng = random.Random(28)
    oracles = [
        trivial_oracle(FREE3),
        abelianization_oracle(FREE3),
        abelianization_oracle(MIXED),
        abelianization_oracle(MIXED, kill_factors=True),
        *(free_nilpotent_oracle(FREE3, c) for c in (1, 2, 3)),
        index4_oracle(),
        finite_index_oracle(MIXED, (2, 5), [(1, 0), (0, 2)], [(0, 1)]),
    ]
    verdicts = set()
    for q in oracles:
        al = q.alphabet
        one = identity(al)
        cases = syllable_words(rng, al, 12, max_syllables=8)
        cases += [commutator(u, w) for u, w in zip(cases[:6], cases[6:])]
        for v in cases:
            indices = all_indices(al)
            want = {k: reduce_mod(fox_derivative(v, k), q) for k in indices}
            skip = frozenset(k for k in indices if rng.random() < 0.3)
            report, keys = _residue_report(v, q, skip, also=(v, one))
            assert report.residues == {k: r for k, r in want.items() if k not in skip}
            assert report.holds == (not any(report.residues.values()))
            assert keys == [q.coset_key(v), q.coset_key(one)]
            if q.contains(v):
                rep = schumann_check(v, q)
                assert rep.residues == want
                verdicts.add(rep.holds)
            else:
                with pytest.raises(ValueError):
                    schumann_check(v, q)
    assert verdicts == {True, False}


def test_theorem1_examples():
    q = index4_oracle()
    g1, g2 = parse_word("g1", FREE2), parse_word("g2", FREE2)
    rep = theorem1_check(g1 ** 2, frozenset({free_index(1)}), q)
    assert rep.holds and rep.witness == g1 ** 2 and rep.witness_member
    rep = theorem1_check(g2 ** 2, frozenset({free_index(1)}), q)
    assert not rep.holds and rep.witness_member is False


def test_theorem1_witness_from_the_search():
    """The retraction of g2 onto F_{g1} is 1, which misses g2's coset of
    N = ker(g1, g2 -> 1 in Z/2): the witness is g1, the alpha
    representative of that coset."""
    q = finite_index_oracle(FREE2, (2,), [(1,), (1,)])
    rep = theorem1_check(parse_word("g2", FREE2), frozenset({free_index(1)}), q)
    assert rep.witness == parse_word("g1", FREE2)
    assert (rep.holds, rep.witness_member, rep.status) == (False, False, "decided")


def test_theorem1_without_a_witness_is_decided_false():
    """N = ker(g1 -> 0, g2 -> 1 in Z/2): F_{g1} lies in N, so no word of
    F_{g1} shares g2's coset (a beta class) and no vhat exists."""
    q = finite_index_oracle(FREE2, (2,), [(0,), (1,)])
    rep = theorem1_check(parse_word("g2", FREE2), frozenset({free_index(1)}), q)
    assert (rep.holds, rep.witness_member, rep.status) == (False, False, "decided")
    assert rep.witness is None


def test_theorem1_witness_beyond_any_short_search():
    """N = ker(g1 -> 1, g2 -> 30 in Z/60): the least word of F_{g1} in g2's
    coset is g1^30."""
    q = finite_index_oracle(FREE2, (60,), [(1,), (30,)])
    rep = theorem1_check(parse_word("g2", FREE2), frozenset({free_index(1)}), q)
    assert rep.witness == parse_word("g1^30", FREE2)
    assert (rep.holds, rep.witness_member, rep.status) == (False, False, "decided")


def test_theorem1_refuses_a_factor_alphabet():
    al = Alphabet(1, (3,))
    q = finite_index_oracle(al, (3,), [(0,)], [(1,)])
    # g1 is its own witness; no word of F_{g1} shares a1's coset
    for word in ("g1", "a1"):
        with pytest.raises(ValueError, match="free alphabet"):
            theorem1_check(parse_word(word, al), frozenset({free_index(1)}), q)


@st.composite
def abelian_quotients(draw):
    """A finite abelian quotient of F2 or F3 (orders and the image of each
    generator) and a set of kept free indices."""
    alphabet = draw(st.sampled_from([FREE2, FREE3]))
    orders = draw(st.sampled_from([(2, 2), (6,), (2, 4), (3,), (4,), (2, 2, 2)]))
    images = [
        tuple(draw(st.integers(0, o - 1)) for o in orders) for _ in range(alphabet.free_rank)
    ]
    keep = draw(st.sets(st.integers(1, alphabet.free_rank), max_size=alphabet.free_rank))
    return alphabet, orders, images, frozenset(keep)


def _image(v, orders, images):
    """phi(v) in the finite abelian group."""
    out = [0] * len(orders)
    for x in v.letters:
        out = [(a + x.exp * b) % o for a, b, o in zip(out, images[x.index - 1], orders)]
    return tuple(out)


def _generated(orders, gens):
    """The subgroup the gens generate, by closure under adding a generator."""
    zero = tuple(0 for _ in orders)
    seen, frontier = {zero}, [zero]
    while frontier:
        grown = [tuple((a + b) % o for a, b, o in zip(x, g, orders)) for x in frontier for g in gens]
        frontier = [x for x in grown if x not in seen]
        seen.update(frontier)
    return seen


@given(abelian_quotients(), st.data())
@settings(max_examples=40, deadline=None)
def test_theorem1_is_exact_on_random_abelian_quotients(quotient, data):
    """Every report is decided and agrees with its certificate; the witness
    is the retraction when that shares v's coset, else the first word of
    F_K in v's coset in shortlex order, and there is none exactly when
    phi(v) lies outside the subgroup the phi(g_j), j in K, generate."""
    alphabet, orders, images, keep = quotient
    q = finite_index_oracle(alphabet, orders, images)
    K = frozenset(free_index(j) for j in keep)
    reached = _generated(orders, [images[j - 1] for j in keep])
    for _ in range(6):
        v = data.draw(words(alphabet, 8))
        rep = theorem1_check(v, K, q)
        assert rep.status == "decided" and rep.holds == rep.witness_member
        assert (rep.witness is None) == (_image(v, orders, images) not in reached)
        key = q.coset_key(v)
        if q.coset_key(retraction(v, K)) == key:
            assert rep.witness == retraction(v, K)
        elif rep.witness is not None:
            # a coset of F_K cap N in F_K has a word of length < |reached|
            first = next(
                w
                for w in shortlex_words(alphabet, len(reached))
                if keep.issuperset(x.index for x in w.letters) and q.coset_key(w) == key
            )
            assert rep.witness == first


def test_theorem1_equivalence_sweep_short():
    """Criterion verdict == lattice-membership verdict for all v in N with
    |v| <= 4 (the full |v| <= 6 sweep runs in the acceptance suite)."""
    q = index4_oracle()
    K = frozenset({free_index(1)})
    for v in shortlex_words(FREE2, 4):
        if not q.contains(v):
            continue
        rep = theorem1_check(v, K, q)
        assert rep.status == "decided"
        assert rep.holds == rep.witness_member


@given(words(FREE2, 6), st.integers(1, 2))
@settings(max_examples=60)
def test_subgroup_fox_chain_rule(expr_word, seed):
    base = [
        parse_word("g1 g2", FREE2),
        parse_word("g2^-1", FREE2) if seed == 1 else parse_word("g1", FREE2),
    ]
    out = subgroup_fox(base, expr_word)
    assert out["chain_check"]


def test_retraction():
    K = frozenset({free_index(1)})
    assert retraction(parse_word("g1 g2 g1 g2^-1", FREE2), K) == parse_word(
        "g1^2", FREE2
    )


def test_gamma_criterion_and_escalation():
    g1, g2 = parse_word("g1", FREE2), parse_word("g2", FREE2)
    K = frozenset({free_index(1)})
    v = multiply(g1 ** 2, commutator(commutator(g1, g2), g2))
    rep = subgroup_gamma_criterion(v, K, 2, 4)
    assert rep.holds and rep.vbar == g1 ** 2 and rep.witness_weight_ok
    # a gamma_2 element is not gamma_3-deep
    assert not subgroup_gamma_criterion(
        multiply(g1 ** 2, commutator(g1, g2)), K, 2, 4
    ).holds
    # v involving g2 at degree 1 fails already at n=1
    assert not subgroup_gamma_criterion(multiply(g2, g1), K, 1, 4).holds
    # escalation bumps the witness weight by one
    w = commutator(commutator(g1, g2), g2)
    assert gamma_weight(w, 4) == 3
    assert (
        ideal_weight(fox_derivative(w, free_index(1)), 4)
        == ideal_weight(fox_derivative(commutator(g1, g2), free_index(1)), 4) + 1
    )


def _atomic_fox(w, k):
    """D_k(w) = sum_t D_k(x_t) x_{t+1} ... x_n over the atoms x_t of w, with
    D(g) = 1, D(g^-1) = -g^-1 and D(a) = a - 1, every tail by multiply."""
    al = w.alphabet
    atoms = to_atomic(w)
    out = RingElt.zero(al)
    for t, x in enumerate(atoms):
        kind = "factor" if isinstance(x, FactorLetter) else "free"
        if (kind, x.index) != k:
            continue
        letter = Word(al, (x,))
        if kind == "factor":
            d = RingElt(al, {letter: 1, identity(al): -1})
        elif x.exp > 0:
            d = RingElt.one(al)
        else:
            d = RingElt.from_word(letter, -1)
        tail = identity(al)
        for y in atoms[t + 1 :]:
            tail = multiply(tail, Word(al, (y,)))
        out = out + d * tail
    return out


def test_fox_derivative_against_atomic_oracle():
    al = Alphabet(2, (5, 3))
    for w in syllable_words(random.Random(5), al, 150):
        for k in all_indices(al):
            d = fox_derivative(w, k)
            assert d == _atomic_fox(w, k)
            assert all(u == reduce(u.letters, al) for u in d.terms)


def test_substitution_against_products():
    """subgroup_fox's f and substitute_ring against products of base
    powers by multiply."""
    rng = random.Random(8)
    for _ in range(40):
        base = syllable_words(rng, MIXED, 2, max_syllables=3)
        expr, *terms = syllable_words(rng, FREE2, 4, max_syllables=4)

        def image(w):
            out = identity(MIXED)
            for letter in w.letters:
                h = base[letter.index - 1]
                for _ in range(abs(letter.exp)):
                    out = multiply(out, h if letter.exp > 0 else invert(h))
            return out

        assert subgroup_fox(base, expr)["f"] == image(expr)
        a = RingElt(FREE2, [(w, c) for c, w in enumerate(terms, start=1)])
        assert substitute_ring(a, base) == RingElt(
            MIXED, [(image(w), c) for w, c in a.terms.items()]
        )


def test_magnus_image_carries_fox_derivatives():
    # M(v) = 1 + sum_j x_j M(D_j v): the x_j-led part of the image at cutoff
    # c + 1, with x_j stripped, is the image of D_j(v) at cutoff c
    rng = random.Random(20)
    for rank in (1, 2, 3):
        al = Alphabet(rank)
        for v in syllable_words(rng, al, 6, max_syllables=6):
            for c in range(7):
                image = embed(v, c + 1).terms
                for j in range(1, rank + 1):
                    led = {m[1:]: a for m, a in image.items() if m and m[0] == j}
                    assert led == embed_ring(fox_derivative(v, free_index(j)), c).terms


def _gamma_derivatives_oracle(v, K, n, cutoff):
    """The per-derivative test: embed every D_k(v) and inspect its
    monomials of degree below n."""
    keep = {j for _, j in K}
    ok = {}
    for k in all_indices(v.alphabet):
        series = embed_ring(fox_derivative(v, k), cutoff)
        if k in K:
            ok[k] = all(len(m) >= n or all(j in keep for j in m) for m in series.terms)
        else:
            ok[k] = all(len(m) >= n for m in series.terms)
    return ok


def test_gamma_criterion_reads_derivatives_off_the_image(monkeypatch):
    import foxcalc.fox_group as fg

    rng = random.Random(21)
    cases = []
    for _ in range(120):
        al = Alphabet(rng.randrange(1, 4))
        v = syllable_words(rng, al, 1, max_syllables=5, max_exp=3)[0]
        if rng.random() < 0.5:
            a, b = syllable_words(rng, al, 2, max_syllables=2, max_exp=2)
            v = multiply(v, commutator(a, b))
        K = frozenset(k for k in all_indices(al) if rng.random() < 0.5)
        n = rng.randrange(0, 6)
        cutoff = n + 1 + rng.randrange(2)
        cases.append((v, K, n, cutoff, _gamma_derivatives_oracle(v, K, n, cutoff)))

    def trap(*args, **kwargs):
        raise AssertionError("the gamma criterion must not differentiate or embed terms")

    monkeypatch.setattr(fg, "fox_derivative", trap)
    monkeypatch.setattr(fg, "embed_ring", trap, raising=False)
    outcomes = set()
    for v, K, n, cutoff, ok in cases:
        rep = subgroup_gamma_criterion(v, K, n, cutoff)
        assert rep.derivative_ok == ok
        assert rep.holds == all(ok.values())
        assert rep.vbar == retraction(v, K)
        if rep.holds:
            w = gamma_weight(multiply(v, invert(rep.vbar)), cutoff)
            assert rep.witness_weight_ok == (w is None or w >= n + 1)
        else:
            assert rep.witness_weight_ok is None
        outcomes.add(rep.holds)
    assert outcomes == {True, False}


def test_theorem1_builds_one_transversal(monkeypatch):
    """One Transversal per (oracle, kept sub-alphabet) across calls: the
    first call on a sub-alphabet builds it, later calls build nothing."""
    import foxcalc.transversal as tv

    builds = []
    init = tv.Transversal.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tv.Transversal, "__init__", counting)
    q = finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])
    for n, word in enumerate(("g1^2", "g2^2", "g1^2 g2^2", "g1 g2 g1^-1 g2^-1")):
        for keep in ((), (1,), (2,), (1, 2)):
            builds.clear()
            rep = theorem1_check(
                parse_word(word, FREE2), frozenset(free_index(j) for j in keep), q
            )
            assert rep.status == "decided"
            assert builds == ([] if n else [(q, frozenset(keep))])
    # another oracle, even an equal one, has transversals of its own
    other = finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])
    builds.clear()
    theorem1_check(parse_word("g1^2", FREE2), frozenset({free_index(1)}), other)
    assert builds == [(other, frozenset({1}))]


def _without_slot(rng, al, k, count):
    """Words with no letter in k's slot: prefixing one leaves D_k alone."""
    drop = FactorLetter if k[0] == "factor" else FreeLetter
    return [
        reduce([l for l in w.letters if not (type(l) is drop and l.index == k[1])], al)
        for w in syllable_words(rng, al, count)
    ]


@pytest.mark.parametrize("al", [FREE3, Alphabet(3, (5,))])
def test_ring_derivative_is_the_linear_extension(al):
    """D_k of a ring element against the coefficient-weighted sum of the
    word derivatives, on elements holding w - p w with p free of k's slot,
    whose derivatives cancel."""
    rng = random.Random(21)
    cancelled = 0
    for _ in range(100):
        k = rng.choice(all_indices(al))
        ws = syllable_words(rng, al, 4)
        pairs = [(w, rng.choice((-3, -1, 1, 2, 5))) for w in ws]
        for w, p in zip(ws[:2], _without_slot(rng, al, k, 2)):
            pairs.append((multiply(p, w), -dict(pairs)[w]))
        a = RingElt(al, pairs)
        expected: dict = {}
        for w, c in a.terms.items():
            for t, d in fox_derivative(w, k).terms.items():
                expected[t] = expected.get(t, 0) + c * d
        cancelled += any(not c for c in expected.values())
        expected = {t: c for t, c in expected.items() if c}
        assert fox_derivative(a, k).terms == expected
    assert cancelled


def test_fox_derivative_refuses_an_unknown_index_kind():
    w = parse_word("g1 a1 g2^-1", MIXED)
    for k in (("Free", 1), ("fac", 1), ("", 1)):
        with pytest.raises(ValueError, match="Fox index"):
            fox_derivative(w, k)
        with pytest.raises(ValueError, match="Fox index"):
            fox_derivative(RingElt.from_word(w), k)
    # an index of a known kind outside the alphabet reads no letter
    assert fox_derivative(w, free_index(9)).is_zero

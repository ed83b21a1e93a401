import itertools
import random
from fractions import Fraction

import pytest

import foxcalc.linalg as linalg
from foxcalc.fox_lie import theorem_decomposition
from foxcalc.freiheit import (
    FreiheitEntry,
    SeriesSpec,
    _free_factor,
    conjugacy_criterion,
    free_generating_set,
    ideal_generated,
    lie_criterion,
    lie_freiheitssatz_verify,
    series_components,
    series_intersection_check,
)
from foxcalc.lie_core import (
    GradedSubspace,
    LieElt,
    expand_to_assoc,
    ideal_closure,
    lyndon_words,
    parse_lie,
    power_subspace,
    subalgebra_closure,
)
from foxcalc.linalg import Echelon, rref
from foxcalc.words import Alphabet, conjugate, parse_word


def test_series_nesting():
    for spec in (SeriesSpec((3,)), SeriesSpec((1, 2)), SeriesSpec((2,), 2)):
        comps = series_components(spec, 2, 5)
        prev = None
        for k, l, term in comps:
            if prev is not None:
                assert prev.contains(term)
            prev = term


def test_series_block_joints():
    comps = dict(((k, l), t) for k, l, t in series_components(SeriesSpec((1, 2)), 2, 5))
    assert comps[(1, 2)] == comps[(2, 1)]
    assert comps[(1, 1)] == GradedSubspace.full(2, 5)
    assert comps[(2, 1)] == power_subspace(GradedSubspace.full(2, 5), 2)


def test_series_intersection_property():
    assert series_intersection_check(SeriesSpec((4,)), 3, 6)
    assert series_intersection_check(SeriesSpec((1, 2)), 3, 6)


def test_ideal_generated_stability():
    r = parse_lie("[y1, y3]", 3)
    small = ideal_generated(r, 4)
    big = ideal_generated(r, 5)
    for d in range(1, 5):
        assert small.dim(d) == big.dim(d)
    assert small.dim(2) == 1 and small.dim(3) == 3


def test_lie_criterion_examples():
    spec = SeriesSpec((6,))
    assert lie_criterion(parse_lie("[y1, y3]", 3), spec, 6) .satisfied
    assert lie_criterion(parse_lie("[y1, y3]", 3), spec, 6).level == 2
    res = lie_criterion(parse_lie("[y1, y2]", 3), spec, 6)
    assert res.level == 2 and not res.satisfied
    res = lie_criterion(parse_lie("y3", 3), spec, 6)
    assert res.level == 1 and res.satisfied


def test_lie_criterion_multi_block():
    # level counts along the flattened chain; [y1, y3] sits at the joint
    res = lie_criterion(parse_lie("[y1, y3]", 3), SeriesSpec((1, 2)), 5)
    assert res.level == 2 and res.satisfied


def test_freiheit_verify_positive():
    rep = lie_freiheitssatz_verify(parse_lie("[y1, y3]", 3), SeriesSpec((4,)), 5)
    assert rep.criterion.satisfied and rep.all_equal and rep.consistent


def test_freiheit_verify_negative_witness_degree():
    rep = lie_freiheitssatz_verify(parse_lie("[y1, y2]", 3), SeriesSpec((4,)), 5)
    assert not rep.criterion.satisfied
    assert not rep.all_equal and rep.consistent
    bad = [e for e in rep.entries if not e.equal]
    assert any(e.l == 3 and e.degree == 2 for e in bad)


@pytest.mark.parametrize("h_rank", [-1, 4])
def test_h_rank_out_of_range(h_rank):
    r = parse_lie("[y1, y3]", 3)
    with pytest.raises(ValueError, match="h_rank"):
        lie_freiheitssatz_verify(r, SeriesSpec((2,)), 4, h_rank=h_rank)
    with pytest.raises(ValueError, match="h_rank"):
        conjugacy_criterion(parse_word("g1 g3 g1^-1 g3^-1", Alphabet(3)), h_rank=h_rank)


def test_freiheit_verify_intersects_each_degree_component_once(monkeypatch):
    """Up to D the verifier intersects once per degree and distinct
    component echelon on each side: gamma_l(L) shares L's echelons and the
    block joint N_{1,m_1+1} = N_{2,1} is one object, so both are read once.
    Above D it intersects nothing, and the entries still match those of
    the full closure, term by term."""
    import foxcalc.freiheit as fr

    built, calls = [], []
    series = fr.series_components
    monkeypatch.setattr(fr, "series_components", lambda *a: built.append(series(*a)) or built[-1])
    intersect = Echelon.intersect
    monkeypatch.setattr(Echelon, "intersect", lambda self, other: calls.append(other) or intersect(self, other))
    rng = random.Random(21)
    specs = [SeriesSpec((1, 2)), SeriesSpec((3,)), SeriesSpec((2, 2)), SeriesSpec((2,), 2)]
    for spec, (rank, cutoff) in itertools.product(specs, ((3, 5), (4, 4))):
        words = lyndon_words(rank, 2)
        coeffs = {w: Fraction(rng.choice((-2, 1, 3))) for w in rng.sample(words, rng.randint(1, 2))}
        r, h_rank = LieElt(rank, coeffs), rng.choice((None, 1, rank))
        built.clear()
        calls.clear()
        rep = lie_freiheitssatz_verify(r, spec, cutoff, h_rank)
        (comps,) = built
        top = max(
            (d for d in range(1, cutoff + 1) for _, _, t in comps if t.dim(d) < len(lyndon_words(rank, d))),
            default=0,
        )
        pairs = {(d, id(t.echelon(d))) for d in range(1, top + 1) for _, _, t in comps}
        assert len(calls) == 2 * len(pairs) < 2 * top * len(comps)
        # each rhs intersection reads a component echelon as it is
        echelons = {id(t.echelon(d)) for d in range(1, top + 1) for _, _, t in comps}
        assert {id(o) for o in calls} >= echelons
        assert rep.entries == _entries_with_full_ideal(r, spec, cutoff, h_rank)
        if spec.block_lengths == (1, 2):
            rows = {(e.k, e.l): [] for e in rep.entries}
            for e in rep.entries:
                rows[(e.k, e.l)].append((e.dim_with_relator, e.dim_series))
            assert rows[(1, 2)] == rows[(2, 1)]


@pytest.mark.parametrize("relator", ["[y1, [y1, y2]] + [y2, y3]", "[y1, y3] + [y1, [y1, y2]]"])
def test_freiheit_verify_refuses_inhomogeneous_relator(relator):
    """The closure of r's homogeneous components is a larger ideal than the
    ideal of r, so the verifier would answer about the wrong R."""
    with pytest.raises(ValueError, match="homogeneous"):
        lie_freiheitssatz_verify(parse_lie(relator, 3), SeriesSpec((6,)), 8)


def _entries_with_full_ideal(r, spec, cutoff, h_rank):
    """The report's entries with R closed up to the cutoff, term by term."""
    big_r = ideal_closure([r], r.rank, cutoff)
    h = _free_factor(r.rank, h_rank, cutoff)
    return [
        FreiheitEntry(k, l, d, h.intersect(big_r.sum(t)).dim(d), h.intersect(t).dim(d))
        for k, l, t in series_components(spec, r.rank, cutoff)
        for d in range(1, cutoff + 1)
    ]


def test_freiheit_verify_matches_full_ideal(monkeypatch):
    """R closed only up to D, the last degree where a series term is not all
    of L_d, gives the entries of the full closure; D = m for one block of
    length m over F, and the cutoff for the other specs drawn here."""
    import foxcalc.freiheit as fr

    degrees = []
    closure = fr.ideal_closure
    monkeypatch.setattr(fr, "ideal_closure", lambda es, rank, c: degrees.append(c) or closure(es, rank, c))
    rng = random.Random(16)
    specs = [SeriesSpec((2,)), SeriesSpec((3,)), SeriesSpec((1, 2)), SeriesSpec((2, 2)), SeriesSpec((2,), 2)]
    checked = 0
    for rank, cutoff in ((3, 6), (4, 5)):
        for spec, _ in itertools.product(specs, range(3)):
            words = lyndon_words(rank, rng.choice((2, 3)))
            pool = [w for w in words if rank not in w] if rng.random() < 0.5 else list(words)
            coeffs = {w: Fraction(rng.choice((-2, -1, 1, 3))) for w in rng.sample(pool, min(len(pool), rng.randint(1, 3)))}
            r, h_rank = LieElt(rank, coeffs), rng.choice((None, 1, rank - 1, rank))
            degrees.clear()
            try:
                rep = lie_freiheitssatz_verify(r, spec, cutoff, h_rank)
            except ValueError as e:  # the level of r is past the series' end
                assert "exceeds" in str(e)
                continue
            assert rep.entries == _entries_with_full_ideal(r, spec, cutoff, h_rank)
            single = spec.root_power == 1 and len(spec.block_lengths) == 1
            assert degrees == [spec.block_lengths[0] if single else cutoff]
            checked += 1
    assert checked >= 20


def _fresh_words(rank: int, cutoff: int, keep) -> GradedSubspace:
    """Span of the Lyndon words w with keep(w), reduced from scratch."""
    return GradedSubspace(rank, cutoff, {
        d: [{k: 1} for k, w in enumerate(lyndon_words(rank, d)) if keep(w)]
        for d in range(1, cutoff + 1)
    })


def test_closed_forms_stay_unchanged():
    """gamma_l(L) shares the echelons of L, and a series over L shares them
    from term to term; nothing that reads or sums these spans changes their
    rows."""
    full = GradedSubspace.full(3, 5)
    f12 = subalgebra_closure([LieElt.gen(3, 1), LieElt.gen(3, 2)], 3, 5)
    gamma2 = power_subspace(full, 2)
    assert all(gamma2.echelon(d) is full.echelon(d) for d in range(2, 6))
    series = [t for _, _, t in series_components(SeriesSpec((2,)), 3, 5)]
    free_generating_set(gamma2, 5)
    theorem_decomposition(parse_lie("y1 + [y1, y2]", 3), frozenset({1, 2}), gamma2)
    big_r = ideal_generated(parse_lie("[y1, y3] + [y2, y3]", 3), 5)
    # unit side with an empty side, with unit rows and with the rest; the
    # components the kernel's sums and intersections hold may be grown
    # without changing either side
    inside = GradedSubspace.span([parse_lie("[y1, [y1, y2]] + [[y1, y2], y2]", 3)], 3, 5)
    sums = [f12.sum(GradedSubspace.zero(3, 5)), f12.sum(gamma2), f12.sum(big_r), f12.sum(inside)]
    sums += [full.sum(big_r)]
    sums += [f12.intersect(big_r.sum(t)) for t in series] + [big_r.sum(t) for t in series]
    for total in sums:
        for d, ech in total.comp.items():
            ech.insert({0: 1, len(lyndon_words(3, d)) - 1: 2})
    for got, keep in [
        (full, lambda w: True),
        (f12, lambda w: 3 not in w),
        (gamma2, lambda w: len(w) >= 2),
        *[(t, lambda w, l=l: len(w) >= l) for l, t in enumerate(series, start=1)],
    ]:
        want = _fresh_words(3, 5, keep)
        assert got == want and hash(got) == hash(want)
        assert all(got.rows(d) == want.rows(d) for d in range(1, 6))


def _old_sum(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """a + b by reducing the rows of both sides together."""
    rows = {d: a.echelon(d).rows() + b.echelon(d).rows() for d in set(a.comp) | set(b.comp)}
    return GradedSubspace(a.rank, a.cutoff, {d: rref(r) for d, r in rows.items()})


def _old_intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """a cap b by Zassenhaus on the rows [x | x], x in a, and [y | 0], y in b."""
    comp = {}
    for d in set(a.comp) & set(b.comp):
        n = len(lyndon_words(a.rank, d))
        ech = Echelon({**x, **{k + n: c for k, c in x.items()}} for x in a.echelon(d).rows())
        for y in b.echelon(d).rows():
            ech.insert(y)
        comp[d] = [
            {k - n: c for k, c in row.items()} for p, row in ech.pivot_rows.items() if p >= n
        ]
    return GradedSubspace(a.rank, a.cutoff, comp)


@pytest.mark.parametrize("rank,cutoff", [(3, 7), (4, 6)])
def test_sums_and_intersections_match_old_constructions(rank, cutoff):
    """The Freiheitssatz subspaces: H (unit rows), the series terms (unit
    rows up to the first bracket block), R and R + N_kl (neither).  Sums and
    intersections equal, and hash like, the subspaces reduced from scratch."""
    r = parse_lie(f"[y1, y{rank}]", rank)
    h = _free_factor(rank, None, cutoff)
    big_r = ideal_generated(r, cutoff)
    for _, _, term in series_components(SeriesSpec((1, 2)), rank, cutoff):
        with_r = big_r.sum(term)
        pairs = [
            (with_r, _old_sum(big_r, term)),
            (term.sum(h), _old_sum(term, h)),
            (h.intersect(with_r), _old_intersect(h, with_r)),
            (h.intersect(term), _old_intersect(h, term)),
            (with_r.intersect(big_r), _old_intersect(with_r, big_r)),
        ]
        for new, old in pairs:
            assert new == old and hash(new) == hash(old)


def test_freiheit_verify_without_zassenhaus(monkeypatch):
    """H is spanned by Lyndon words: every intersection with it is read off
    by column order, with no doubled rows."""
    calls = []
    for name in ("intersect_rowspaces", "_zassenhaus"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rep = lie_freiheitssatz_verify(parse_lie("[y1, y3]", 3), SeriesSpec((1, 2)), 6)
    assert rep.all_equal and calls == []
    # the counters see the general path where neither side is unit rows
    a = ideal_generated(parse_lie("[y1, y3] + [y1, y2]", 3), 4)
    b = ideal_generated(parse_lie("[y1, y3] - [y2, y3]", 3), 4)
    a.intersect(b)
    assert calls and set(calls) == {"_zassenhaus"}


def test_freiheit_frontier_rank4_cutoff7():
    """Rank 4 at cutoff 7 (well under a second): the relator [y1, y4] is
    free from H = F(y1, y2, y3) along the whole series."""
    rep = lie_freiheitssatz_verify(parse_lie("[y1, y4]", 4), SeriesSpec((6,)), 7)
    assert rep.criterion.satisfied and rep.all_equal and rep.consistent


def test_freiheit_frontier_generic_rank3_cutoff9():
    """A two-term relator pays for the full elimination, since its ideal's
    rows are not unit vectors; under a second at cutoff 9."""
    rep = lie_freiheitssatz_verify(parse_lie("[y1, y2] + [y2, y3]", 3), SeriesSpec((6,)), 9)
    assert rep.criterion.satisfied and rep.all_equal and rep.consistent


def test_freiheit_cutoff_too_small():
    with pytest.raises(ValueError):
        lie_freiheitssatz_verify(parse_lie("[y1, [y1, y3]]", 3), SeriesSpec((2,)), 2)


def test_freiheit_soundness_sweep_degree2():
    """Verifier verdict matches criterion verdict for homogeneous degree-2
    relators over a small coefficient set."""
    spec = SeriesSpec((3,))
    words2 = lyndon_words(3, 2)
    for coeff_vec in itertools.product((-1, 0, 1), repeat=len(words2)):
        r = LieElt(3, {w: Fraction(c) for w, c in zip(words2, coeff_vec) if c})
        if r.is_zero:
            continue
        rep = lie_freiheitssatz_verify(r, spec, 4)
        assert rep.consistent
        assert rep.all_equal == rep.criterion.satisfied


def test_free_generating_set_f2_rank2():
    b = power_subspace(GradedSubspace.full(2, 4), 2)
    gens = free_generating_set(b, 4)
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.value.max_degree(), []).append(g)
    assert len(by_degree[2]) == 1
    assert len(by_degree[3]) == 2
    # tags separate: each (monomial, j) pair is used once
    tags = [(g.monomial, g.j) for g in gens]
    assert len(tags) == len(set(tags))


def test_free_generating_set_leading_monomial():
    """The tag monomial of each generator appears in D_j of that generator
    with coefficient 1 and in no other generator's D_j residue."""
    from foxcalc.fox_lie import lie_fox
    from foxcalc.assoc_env import PBWContext, adapted_basis

    b = power_subspace(GradedSubspace.full(2, 4), 2)
    gens = free_generating_set(b, 4)
    h = subalgebra_closure([LieElt.gen(2, 1)], 2, 4)
    ctx = PBWContext(adapted_basis(b, h, "dcba"))

    for g in gens:
        fox = lie_fox(expand_to_assoc(g.value))
        res = ctx.rewrite(fox.partials[g.j], "ab")
        assert res.get(g.monomial) == 1
        for other in gens:
            if other is g or other.value.max_degree() != g.value.max_degree():
                continue
            ofox = lie_fox(expand_to_assoc(other.value))
            assert ctx.rewrite(ofox.partials[g.j], "ab").get(g.monomial) is None


def test_group_criterion_negative():
    al = Alphabet(3)
    rep = conjugacy_criterion(parse_word("g1 g3 g1^-1 g3^-1", al), level=2)
    assert not rep.conjugate_found and rep.witness is None
    assert rep.certificate == ((1, 3), 1)


def test_group_criterion_positive_with_witness():
    al = Alphabet(3)
    r = parse_word("g1 g2 g1^-1 g2^-1", al)
    rep = conjugacy_criterion(r, level=2)
    assert rep.conjugate_found and rep.certificate is None
    # the graded witness: the group bracketing of [y1, y2], u the identity
    assert rep.witness == (parse_word("", al), parse_word("g1^-1 g2^-1 g1 g2", al))
    rep2 = conjugacy_criterion(conjugate(r, parse_word("g3", al)), level=2)
    assert rep2.conjugate_found and rep2.witness is not None


def _random_relator(rng, rank, level):
    """A random word of gamma_level: a left-normed group commutator of
    short words, over the first rank - 1 letters half of the time, then
    conjugated by a random word."""
    from foxcalc.words import FreeLetter, commutator, reduce

    al = Alphabet(rank)
    top = rank - 1 if rng.random() < 0.5 else rank

    def word(n):
        return reduce([FreeLetter(rng.randint(1, top), rng.choice((1, -1))) for _ in range(n)], al)

    r = commutator(word(rng.randint(1, 2)), word(rng.randint(1, 2)))
    for _ in range(level - 2):
        r = commutator(r, word(1))
    u = [FreeLetter(rng.randint(1, rank), 1) for _ in range(rng.randint(0, 2))]
    return conjugate(r, reduce(u, al))


@pytest.mark.parametrize("rank", [3, 4])
@pytest.mark.parametrize("level", [2, 3])
def test_conjugacy_criterion_against_the_free_factor(rank, level):
    """The verdict is membership of the degree-level component in H; a
    negative one names a Lyndon word of the component with a letter above
    h and its coefficient, a positive one a witness within gamma_{level+1}
    of r."""
    from foxcalc.lie_core import AssocPoly, project_to_lyndon
    from foxcalc.magnus import embed, gamma_weight
    from foxcalc.words import invert, multiply

    rng = random.Random(f"conjcrit {rank} {level}")
    seen = set()
    for _ in range(12):
        r = _random_relator(rng, rank, level)
        if gamma_weight(r, level + 1) != level:
            continue
        comp = project_to_lyndon(AssocPoly(rank, embed(r, level).homogeneous(level).terms))
        for h_rank in (None, 1, rank):
            top = rank - 1 if h_rank is None else h_rank
            rep = conjugacy_criterion(r, level, h_rank)
            assert rep.conjugate_found == _free_factor(rank, h_rank, level).member(comp)
            seen.add((h_rank, rep.conjugate_found))
            if rep.conjugate_found:
                u, h = rep.witness
                assert rep.certificate is None and not u.letters
                weight = gamma_weight(multiply(r, invert(h)), level)
                assert weight is None or weight > level
            else:
                w, c = rep.certificate
                assert rep.witness is None and max(w) > top and comp.terms[w] == c
    # h_rank = 1 refuses every component of degree >= 2, h_rank = rank none
    assert (None, True) in seen and (None, False) in seen
    assert (1, True) not in seen and (rank, False) not in seen


@pytest.mark.parametrize("rank,h_rank", [(3, None), (3, 0), (3, 3), (4, 2)])
def test_free_factor_is_the_span_of_words_over_its_letters(rank, h_rank):
    top = rank - 1 if h_rank is None else h_rank
    h = _free_factor(rank, h_rank, 5)
    assert h == GradedSubspace._words(rank, 5, frozenset(range(1, top + 1)))
    assert h == subalgebra_closure([LieElt.gen(rank, j) for j in range(1, top + 1)], rank, 5)


def test_group_criterion_level_validation():
    al = Alphabet(3)
    with pytest.raises(ValueError):
        conjugacy_criterion(parse_word("g1", al), level=2)


# (generator, tag monomial, j, case), fixed: the generators do not depend
# on how the echelon kernel scales the rows it stores
FREE_GENERATORS = {
    2: [
        ('- [y1,y2]', (1,), 2, 1),
        ('[y1,[y1,y2]]', (1, 1), 2, 1),
        ('- [[y1,y2],y2]', (0, 1), 2, 1),
        ('- [y1,[y1,[y1,y2]]]', (1, 1, 1), 2, 1),
        ('[y1,[[y1,y2],y2]]', (0, 1, 1), 2, 1),
        ('- [[[y1,y2],y2],y2]', (0, 0, 1), 2, 1),
    ],
    3: [
        ('[y1,y2]', (2,), 1, 3),
        ('- [y1,y3]', (1,), 3, 1),
        ('- [y2,y3]', (2,), 3, 1),
        ('- [y1,[y1,y2]]', (1, 2), 1, 3),
        ('[y1,[y1,y3]]', (1, 1), 3, 1),
        ('[[y1,y2],y2]', (2, 2), 1, 3),
        ('[y1,[y2,y3]]', (1, 2), 3, 1),
        ('[y1,[y2,y3]] + [[y1,y3],y2]', (0, 2), 1, 2),
        ('- [[y1,y3],y3]', (0, 1), 3, 1),
        ('[y2,[y2,y3]]', (2, 2), 3, 1),
        ('- [[y2,y3],y3]', (0, 2), 3, 1),
        ('[y1,[y1,[y1,y2]]]', (1, 1, 2), 1, 3),
        ('- [y1,[y1,[y1,y3]]]', (1, 1, 1), 3, 1),
        ('- [y1,[[y1,y2],y2]]', (1, 2, 2), 1, 3),
        ('- [y1,[y1,[y2,y3]]]', (1, 1, 2), 3, 1),
        ('- [y1,[y1,[y2,y3]]] - [y1,[[y1,y3],y2]]', (0, 1, 2), 1, 2),
        ('[y1,[[y1,y3],y3]]', (0, 1, 1), 3, 1),
        ('[[[y1,y2],y2],y2]', (2, 2, 2), 1, 3),
        ('- [y1,[y2,[y2,y3]]]', (1, 2, 2), 3, 1),
        ('[y1,[[y2,y3],y3]]', (0, 1, 2), 3, 1),
        ('- [y1,[y2,[y2,y3]]] + [[[y1,y3],y2],y2]', (0, 2, 2), 1, 2),
        ('[y1,[[y2,y3],y3]] + [[[y1,y3],y3],y2]', (0, 0, 2), 1, 2),
        ('- [[[y1,y3],y3],y3]', (0, 0, 1), 3, 1),
        ('- [y2,[y2,[y2,y3]]]', (2, 2, 2), 3, 1),
        ('[y2,[[y2,y3],y3]]', (0, 2, 2), 3, 1),
        ('- [[[y2,y3],y3],y3]', (0, 0, 2), 3, 1),
    ],
}


@pytest.mark.parametrize("rank", sorted(FREE_GENERATORS))
def test_free_generating_set_output_unchanged(rank):
    b = power_subspace(GradedSubspace.full(rank, 4), 2)
    got = [(str(g.value), g.monomial, g.j, g.case) for g in free_generating_set(b, 4)]
    assert got == FREE_GENERATORS[rank]


def _decomposables(b):
    """[B, B] from brackets of basis elements of B, degree by degree."""
    from foxcalc.lie_core import bracket, lie_from_vector

    basis = {
        d: [lie_from_vector(b.rank, d, row) for row in b.echelon(d).rows()]
        for d in range(1, b.cutoff + 1)
    }
    brackets = [
        bracket(x, y)
        for i in basis
        for k in basis
        if i + k <= b.cutoff
        for x in basis[i]
        for y in basis[k]
    ]
    return GradedSubspace.span(brackets, b.rank, b.cutoff)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("which", ["gamma2", "gamma3", "ideal"])
def test_free_generating_set_degree_counts(rank, which, monkeypatch):
    import foxcalc.freiheit as fr

    full = GradedSubspace.full(rank, 5)
    b = {
        "gamma2": lambda: power_subspace(full, 2),
        "gamma3": lambda: power_subspace(full, 3),
        "ideal": lambda: ideal_generated(parse_lie(f"[y1, y{rank}]", rank), 5),
    }[which]()
    closures = []
    closure = fr.subalgebra_closure

    def recording(generators, *args):
        closures.append(list(generators))
        return closure(generators, *args)

    monkeypatch.setattr(fr, "subalgebra_closure", recording)
    gens = free_generating_set(b, 5)
    decomposables = _decomposables(b)
    for d in range(1, 6):
        count = sum(1 for g in gens if g.value.max_degree() == d)
        assert count == b.dim(d) - decomposables.dim(d)
    # one closure for the free factor H, one for the final freeness check
    assert closures[-1] == [g.value for g in gens]
    assert len(closures) == 2

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from foxcalc.fox_group import derivative_leading_term_check, free_index
from foxcalc.group_ring import (
    abelianization_oracle,
    discrete_oracle,
    finite_index_oracle,
    free_nilpotent_oracle,
    trivial_oracle,
)
from foxcalc.lattice import hermite_normal_form, lattice_contains
from foxcalc.transversal import Transversal, lattice_membership
from foxcalc.words import (
    Alphabet,
    FreeLetter,
    Word,
    atomic_alphabet,
    commutator,
    conjugate,
    format_word,
    identity,
    invert,
    multiply,
    parse_word,
    reduce,
    shortlex_words,
    to_atomic,
)

from conftest import FREE2, MIXED, words


def index4():
    return Transversal(finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)]))


def test_representatives_index4():
    t = index4()
    assert t.index == 4
    assert [format_word(r) for r in t.representatives()] == ["", "g1", "g2", "g1 g2"]


def test_prefix_closure_explicit():
    t = index4()
    for rep in t.representatives():
        atoms = to_atomic(rep)
        for k in range(len(atoms)):
            prefix = reduce(atoms[:k], FREE2)
            assert t.representative(prefix) == prefix


def test_rep_idempotent_and_coset_key():
    t = index4()
    for u in shortlex_words(FREE2, 4):
        r = t.representative(u)
        assert t.oracle.coset_key(r) == t.oracle.coset_key(u)
        assert t.representative(r) == r


def test_nielsen_schreier_count():
    # rank of an index-e subgroup of a rank-n free group: 1 + e(n - 1)
    t = index4()
    assert len(t.schreier_generators()) == 1 + 4 * (2 - 1)


def test_rewrite_round_trip():
    t = index4()
    for u in shortlex_words(FREE2, 6):
        if not t.oracle.contains(u):
            continue
        prod = identity(FREE2)
        for gen, e in t.rewrite_in_schreier(u):
            prod = multiply(prod, gen.value if e == 1 else invert(gen.value))
        assert prod == u


def test_rewrite_rejects_outsiders():
    t = index4()
    with pytest.raises(ValueError):
        t.rewrite_in_schreier(parse_word("g1", FREE2))


def test_derivative_leading_terms_all_pairs():
    t = index4()
    gens = t.schreier_generators()
    for g0 in gens:
        for g in gens:
            if g0.letter != g.letter:
                continue
            assert derivative_leading_term_check(t, g0, g)


def test_alphabeta_classes():
    q = finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])
    t = Transversal(q, subalphabet=frozenset({1}))
    w = parse_word("g1^3", FREE2)
    assert t.representative(w) == parse_word("g1", FREE2)
    assert t.class_kind(w) == "alpha"
    assert t.class_kind(parse_word("g1 g2", FREE2)) == "beta"
    assert t.class_kind(parse_word("g2^-1", FREE2)) == "beta"
    # over the empty sub-alphabet only N itself meets F_S = 1
    shortlex = Transversal(q)
    assert shortlex.class_kind(parse_word("g1^2", FREE2)) == "alpha"
    assert shortlex.class_kind(w) == "beta"


def test_alphabeta_rejected_off_abelianization():
    with pytest.raises(ValueError):
        Transversal(discrete_oracle(FREE2), frozenset({1}))


def test_infinite_index_oracles_are_refused():
    for q in (abelianization_oracle(FREE2), discrete_oracle(FREE2), free_nilpotent_oracle(FREE2, 2)):
        for sub in (frozenset(), frozenset({1})):
            with pytest.raises(ValueError, match="finite-index"):
                Transversal(q, sub)


def test_factor_alphabet_transversal():
    al = Alphabet(1, (3,))
    q = finite_index_oracle(al, (3,), [(0,)], [(1,)])
    t = Transversal(q)
    assert t.index == 3
    # conjugates of g1 by the three factor cosets
    gens = t.schreier_generators()
    assert len(gens) == 3
    # factor exponents normalize into 1..order-1, so a1^-1 prints as a1^2
    assert [format_word(g.value) for g in gens] == [
        "g1",
        "a1 g1 a1^2",
        "a1^2 g1 a1",
    ]


def test_lattice_membership_examples():
    t = Transversal(index4().oracle, frozenset({1}))
    g1, g2 = parse_word("g1", FREE2), parse_word("g2", FREE2)
    assert lattice_membership(t, g1 ** 2)
    assert not lattice_membership(t, g2 ** 2)
    # commutators of N lie in [N, N], hence in the lattice for any K
    c = commutator(g1 ** 2, g2 ** 2)
    assert lattice_membership(t, c)
    assert lattice_membership(index4(), c)
    assert not lattice_membership(index4(), g1 ** 2)


def _sub_coset_membership(t, u, K):
    """Lattice membership with F_K cap N generated from its own search of
    the sub-coset graph of F_K, beside the transversal t."""
    al = t.alphabet
    gens = t.schreier_generators()
    index_of = {g: k for k, g in enumerate(gens)}

    def vec(w):
        v = [0] * len(gens)
        for g, e in t.rewrite_in_schreier(w):
            v[index_of[g]] += e
        return v

    sub_letters = [Word(al, (FreeLetter(j, 1),)) for _, j in sorted(K)]
    sub_reps = {t.oracle.coset_key(identity(al)): identity(al)}
    frontier = [identity(al)]
    while frontier:
        nxt = []
        for s in frontier:
            for x in sub_letters:
                sx = multiply(s, x)
                if t.oracle.coset_key(sx) not in sub_reps:
                    sub_reps[t.oracle.coset_key(sx)] = sx
                    nxt.append(sx)
        frontier = nxt
    sub_gens = []
    for s in sub_reps.values():
        for x in sub_letters:
            sx = multiply(s, x)
            w = multiply(sx, invert(sub_reps[t.oracle.coset_key(sx)]))
            if not w.is_identity:
                sub_gens.append(w)
    rows = [
        vec(multiply(multiply(invert(rep), w), rep))
        for rep in t.representatives()
        for w in sub_gens
    ]
    return lattice_contains(hermite_normal_form(rows), vec(u))


@pytest.mark.parametrize(
    "orders, images",
    [((2, 2), [(1, 0), (0, 1)]), ((6,), [(1,), (3,)]), ((2, 4), [(1, 0), (0, 1)])],
    ids=["index4", "index6", "index8"],
)
def test_lattice_membership_any_transversal_matches_sub_coset_search(orders, images):
    q = finite_index_oracle(FREE2, orders, images)
    shortlex = Transversal(q)
    rng = random.Random(sum(orders))
    members = [u for u in shortlex_words(FREE2, 4) if q.contains(u) and not u.is_identity]
    verdicts = set()
    for keep in ((), (1,), (2,), (1, 2)):
        K = frozenset(free_index(j) for j in keep)
        # the alpha/beta transversal over K's letters (shortlex for K = {})
        alphabeta = Transversal(q, frozenset(keep))
        sub = [u for u in members if set(x.index for x in u.letters) <= set(keep)]
        for _ in range(12):
            u = rng.choice(members)
            if sub and rng.random() < 0.5:
                # a conjugate of F_K cap N times a commutator in N
                c = commutator(rng.choice(members), rng.choice(members))
                u = multiply(conjugate(rng.choice(sub), rng.choice(members)), c)
            want = _sub_coset_membership(shortlex, u, K)
            assert lattice_membership(alphabeta, u) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_subalphabet_must_name_free_indices():
    q = finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)])
    for sub in ({5}, {0}, {1, 3}):
        with pytest.raises(ValueError, match="free indices"):
            Transversal(q, subalphabet=frozenset(sub))


def _atomwise_rewrite(t, u):
    """Reidemeister-Schreier rewriting one atom at a time on the growing
    prefix, by multiply and representative, as generator positions."""
    al = t.alphabet
    position = {(g.rep, g.letter): k for k, g in enumerate(t.schreier_generators())}
    state, out = identity(al), []
    for atom in to_atomic(u):
        step = t.representative(multiply(state, Word(al, (atom,))))
        if isinstance(atom, FreeLetter) and atom.exp < 0:
            k = position.get((step, FreeLetter(atom.index, 1)))
            if k is not None:
                out.append((k, -1))
        else:
            k = position.get((state, atom))
            if k is not None:
                out.append((k, 1))
        state = step
    assert state.is_identity
    return out


def _vector(t, pairs):
    v = [0] * len(t.schreier_generators())
    for k, e in pairs:
        v[k] += e
    return v


def finite_oracles():
    """Finite-index oracles onto small abelian groups, over F2, F3 and F2 * Z/3,
    with a random image of every generator."""

    def build(data):
        alphabet, orders, images = data
        free = images[: alphabet.free_rank]
        # a factor of order 3 maps to elements of order dividing 3
        factor = [
            tuple(o // math.gcd(o, 3) * x % o for x, o in zip(img, orders))
            for img in images[alphabet.free_rank :]
        ]
        return finite_index_oracle(alphabet, orders, free, factor)

    alphabets = st.sampled_from([FREE2, Alphabet(3), Alphabet(2, (3,))])
    orders = st.sampled_from([(2, 2), (6,), (2, 4), (3,), (2, 2, 2)])
    return st.tuples(alphabets, orders).flatmap(
        lambda ao: st.tuples(
            st.just(ao[0]),
            st.just(ao[1]),
            st.lists(
                st.tuples(*[st.integers(0, o - 1) for o in ao[1]]),
                min_size=ao[0].free_rank + ao[0].n_factors,
                max_size=ao[0].free_rank + ao[0].n_factors,
            ),
        )
    ).map(build)


@given(finite_oracles(), st.data())
@settings(max_examples=40, deadline=None)
def test_coset_table_rewrite_matches_atomwise_rewrite(q, data):
    t = Transversal(q)
    al = q.alphabet
    for _ in range(5):
        u = data.draw(words(al, 10))
        u = multiply(u, invert(t.representative(u)))
        assert q.contains(u)
        got = t.rewrite_in_schreier(u)
        gens = t.schreier_generators()
        assert [(gens.index(g), e) for g, e in got] == _atomwise_rewrite(t, u)


@given(finite_oracles().filter(lambda q: not q.alphabet.n_factors), st.data())
@settings(max_examples=40, deadline=None)
def test_sub_lattice_matches_explicit_conjugate_rows(q, data):
    al = q.alphabet
    keep = frozenset(
        data.draw(st.sets(st.integers(1, al.free_rank), min_size=1, max_size=al.free_rank))
    )
    t = Transversal(q, keep)
    sub = [
        g.value
        for g in t.schreier_generators()
        if g.letter.index in keep and all(x.index in keep for x in g.rep.letters)
    ]
    rows = [
        _vector(t, _atomwise_rewrite(t, multiply(multiply(invert(rep), w), rep)))
        for rep in t.representatives()
        for w in sub
    ]
    assert t.sub_lattice() == hermite_normal_form(rows)
    assert t.sub_lattice() is t.sub_lattice()
    assert Transversal(q).sub_lattice() == []


def _cosets_reached(q, letters):
    """The coset keys of the subgroup the letters generate, by closure."""
    one = identity(q.alphabet)
    seen, frontier = {q.coset_key(one)}, [one]
    while frontier:
        grown = [multiply(w, x) for w in frontier for x in letters]
        frontier = []
        for w, k in zip(grown, q.coset_keys(grown)):
            if k not in seen:
                seen.add(k)
                frontier.append(w)
    return seen


@given(finite_oracles(), st.data())
@settings(max_examples=40, deadline=None)
def test_search_matches_a_scan_of_shortlex_words(q, data):
    """The search against one scan of shortlex_words: a coset meeting F_S
    gets the first word over S in it; any other coset gets the first word
    in it that extends a representative by one atom, which over S = {} is
    simply its first word.  Every coset-table step is keyed again."""
    al = q.alphabet
    sub = frozenset(data.draw(st.sets(st.integers(1, al.free_rank), max_size=al.free_rank)))
    t = Transversal(q, sub)

    def over_sub(w):
        return all(isinstance(x, FreeLetter) and x.index in sub for x in w.letters)

    atoms = [Word(al, (x,)) for x in atomic_alphabet(al)]
    alpha = _cosets_reached(q, [x for x in atoms if over_sub(x)])
    cosets = _cosets_reached(q, atoms)
    # a representative of length L passes L + 1 cosets, so |cosets| bounds L
    want, first = {}, {}
    for w in shortlex_words(al, len(cosets)):
        key = q.coset_key(w)
        first.setdefault(key, w)
        prefix = reduce(to_atomic(w)[:-1], al)
        if key not in want and (
            over_sub(w) if key in alpha else want.get(q.coset_key(prefix)) == prefix
        ):
            want[key] = w
            if len(want) == len(cosets):
                break
    reps = t.representatives()
    assert {q.coset_key(r): r for r in reps} == want
    if not sub:
        assert want == first
    _, steps = t._coset_table()
    for c, rep in enumerate(reps):
        for a, x in enumerate(atoms):
            assert q.coset_key(reps[steps[c][a][0]]) == q.coset_key(multiply(rep, x))


def test_rewrite_that_misses_the_base_coset_is_an_internal_error(monkeypatch):
    t = index4()
    g1 = parse_word("g1", FREE2)
    # an oracle that wrongly admits g1 into N: the walk ends in g1's coset
    monkeypatch.setattr(t.oracle, "contains", lambda w: True)
    with pytest.raises(RuntimeError, match="did not return to the base coset"):
        t.rewrite_in_schreier(g1)
    with pytest.raises(RuntimeError, match="did not return to the base coset"):
        lattice_membership(t, g1)


def test_lattice_membership_refuses_words_outside_n():
    q = index4().oracle
    for keep in ((), (1,), (1, 2)):
        with pytest.raises(ValueError, match="u must lie in N"):
            lattice_membership(Transversal(q, frozenset(keep)), parse_word("g1 g2^2", FREE2))


def test_non_prefix_closed_transversal_is_refused(monkeypatch):
    explore = Transversal._explore
    al = Alphabet(1, (3,))
    cases = [
        # g1^3 g2 lies in the coset of g1 g2, but its prefix g1^2 is no
        # representative
        (finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)]), "g1 g2", "g1^3 g2"),
        # g1^-1 g2 too, and g1^-1 is no representative either
        (finite_index_oracle(FREE2, (2, 2), [(1, 0), (0, 1)]), "g1 g2", "g1^-1 g2"),
        # g1 lies in N, so g1 a1^2 lies in the coset of a1^2; its last atom
        # is a factor syllable and its prefix g1 no representative
        (finite_index_oracle(al, (3,), [(0,)], [(1,)]), "a1^2", "g1 a1^2"),
    ]
    for q, coset, rep in cases:

        def broken(self):
            explore(self)
            key = self.oracle.coset_key(parse_word(coset, q.alphabet))
            self._reps[key] = parse_word(rep, q.alphabet)

        monkeypatch.setattr(Transversal, "_explore", broken)
        with pytest.raises(RuntimeError, match="not prefix closed"):
            Transversal(q)

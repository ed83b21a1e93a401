"""Seeded library workloads.  Each query returns ``(ok, canon)``: ``ok`` is
the answer check (a certificate or an expectation fixed when the input was
built) and ``canon`` a canonical text of the answer's verdict-level content,
hashed into the output digest.  Witnesses that a correct program may choose
differently (decomposition parts, solver outputs) are checked, not hashed.

Queries are issued in rounds of fixed composition; only their content
depends on the seed, so runs with different seeds do the same kinds of work
in the same proportions.  Library calls go through module attributes so a
traced process sees the wrappers installed by ``tracer.Tracer.install``.
"""
from __future__ import annotations

import random
from fractions import Fraction

from foxcalc import (
    assoc_env,
    fox_group,
    fox_lie,
    freiheit,
    group_ring,
    lie_core,
    words,
)
from foxcalc.lie_core import GradedSubspace, LieElt
from foxcalc.words import Alphabet, FactorLetter, FreeLetter, Word


def _rng(seed: int, round_no: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_no}")


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 1, 2)))


# -- lie-queries ----------------------------------------------------------


class LieQueries:
    """Warm library session against one ideal: rank 3, N = power:2, cutoff 5,
    K = {1, 2}.  Both PBW contexts are built during set-up."""

    name = "lie-queries"
    RANK, CUTOFF, K = 3, 5, frozenset({1, 2})

    def __init__(self, seed: int):
        self.seed = seed
        rank, cutoff = self.RANK, self.CUTOFF
        self.full = GradedSubspace.full(rank, cutoff)
        self.n = lie_core.power_subspace(self.full, 2)
        gens = [LieElt.gen(rank, j) for j in sorted(self.K)]
        self.fk = lie_core.subalgebra_closure(gens, rank, cutoff)
        self.inter = self.fk.intersect(self.n)
        self.gens = [LieElt.gen(rank, j) for j in range(1, rank + 1)]

    def setup(self) -> None:
        # warm-up: build ideal_context(N) and the SubalgebraIdealContext
        assoc_env.reduce_mod_ideal(assoc_env.AssocPoly.gen(self.RANK, 1), self.n)
        self.env = fox_lie.SubalgebraIdealContext(self.RANK, self.K, self.n)

    def _member(self, rng, space: GradedSubspace, degrees) -> LieElt:
        out = LieElt.zero(self.RANK)
        while out.is_zero:
            for d in degrees:
                rows = space.rows(d)
                if rows and rng.random() < 0.8:
                    row = rng.choice(rows)
                    out = out + lie_core.lie_from_vector(self.RANK, d, row).scale(_coeff(rng))
        return out

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r, self.name)
        qs = []
        for expect in (True, False) * 4:
            if expect:
                # [a, b] with a, b in N lies in [N, N]
                a = self._member(rng, self.n, (2,))
                b = self._member(rng, self.n, (2, 3))
                v = lie_core.bracket(a, b)
                if v.is_zero:
                    v = lie_core.bracket(self.n.basis_elements(2)[0], self.n.basis_elements(3)[0])
            else:
                # a nonzero degree-2 part keeps v out of [N, N] (it starts in degree 4)
                v = self._member(rng, self.n, (2,)) + self._member(rng, self.n, (3, 4))
            qs.append(("kharlampovich", self._khar(v, expect)))
        qs.append(("decompose", self._decompose(self._decomposable(rng), True)))
        v = self._member(rng, self.full, (2, 3)) + LieElt.gen(self.RANK, 3).scale(_coeff(rng))
        qs.append(("decompose", self._decompose(v, False)))
        qs.append(("sigma", self._sigma(self._member(rng, self.inter, (2, 3, 4, 5)), False)))
        seed_elt = self._member(rng, self.inter, (2, 3))
        v = lie_core.leftnorm(seed_elt, [rng.choice(self.gens) for _ in range(rng.randrange(1, 3))])
        qs.append(("sigma_ideal", self._sigma(seed_elt if v.is_zero else v, True)))
        return qs

    def _decomposable(self, rng) -> LieElt:
        """v0 + v1 + c with v0 in F_K, v1 in the ideal of F_K cap N, c in [N, N]."""
        v0 = self._member(rng, self.fk, (1, 2, 3))
        v1 = lie_core.leftnorm(self._member(rng, self.inter, (2,)), [rng.choice(self.gens)])
        c = lie_core.bracket(self._member(rng, self.n, (2,)), self._member(rng, self.n, (2,)))
        return v0 + v1 + c

    def _khar(self, v, expect):
        def run():
            got = fox_lie.kharlampovich_check(v, self.n)
            return got == expect, f"khar:{got}"
        return run

    def _decompose(self, v, expect):
        def run():
            rep = fox_lie.theorem_decomposition(v, self.K, self.n)
            ok = rep.holds == expect and (not rep.holds or rep.certified is True)
            return ok, f"dec:{rep.holds}:{rep.certified}"
        return run

    def _sigma(self, v, ideal):
        solver = fox_lie.solve_sigma_zero_ideal if ideal else fox_lie.solve_sigma_zero

        def run():
            fox = fox_lie.lie_fox(lie_core.expand_to_assoc(v))
            u = {j: fox.partials[j] for j in sorted(self.K)}
            got = fox_lie.lie_fox(lie_core.expand_to_assoc(solver(u, self.K, self.n, self.RANK)))
            ok = all(self.env.is_zero_mod(got.partials[j] - u[j]) for j in sorted(self.K))
            return ok, f"sigma:{ideal}:{ok}"
        return run


# -- lie-closures -----------------------------------------------------------


class LieClosures:
    """One-relator Freiheitssatz verification: closures and dense RREF, no
    PBW context, no cache reuse between queries."""

    name = "lie-closures"
    # (rank, cutoff, relator degree, series block lengths, supported on H):
    # each rank and degree occurs once supported on H and once not
    SLOTS = (
        (3, 5, 2, (2,), False), (4, 4, 3, (3,), True),
        (3, 5, 3, (3,), False), (4, 4, 2, (1, 2), True),
        (3, 5, 2, (1, 2), True), (4, 4, 2, (2,), False),
        (3, 5, 3, (1, 2), True), (4, 4, 3, (3,), False),
    )

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r, self.name)
        qs = []
        for rank, cutoff, degree, blocks, on_h in self.SLOTS:
            words_d = lie_core.lyndon_words(rank, degree)
            pool = [w for w in words_d if rank not in w] if on_h else list(words_d)
            coords = {w: _coeff(rng) for w in rng.sample(pool, min(len(pool), rng.randrange(1, 4)))}
            if not on_h and not any(rank in w for w in coords):
                coords[rng.choice([w for w in words_d if rank in w])] = _coeff(rng)
            rel = LieElt(rank, coords)
            qs.append(("freiheit", self._verify(rel, freiheit.SeriesSpec(blocks), cutoff, not on_h)))
        return qs

    @staticmethod
    def _verify(rel, spec, cutoff, expect):
        def run():
            rep = freiheit.lie_freiheitssatz_verify(rel, spec, cutoff)
            ok = rep.consistent and rep.criterion.satisfied == expect
            dims = ",".join(f"{e.dim_with_relator}/{e.dim_series}" for e in rep.entries)
            return ok, f"frei:{rep.criterion.level}:{rep.criterion.satisfied}:{rep.all_equal}:{dims}"
        return run


# -- group-criteria -----------------------------------------------------------


def _random_word(rng, alphabet: Alphabet, length: int, letters=None) -> Word:
    pool = []
    for i, m in enumerate(alphabet.factor_orders, start=1):
        pool.extend(FactorLetter(i, e) for e in range(1, m))
    for j in letters or range(1, alphabet.free_rank + 1):
        pool += [FreeLetter(j, 1), FreeLetter(j, -1)]
    out: list = []
    while len(out) < length:
        out = list(words.reduce(out + [rng.choice(pool)], alphabet).letters)
    return Word(alphabet, tuple(out))


class GroupCriteria:
    """Group side only: theorem-1 checks over an index-8 subgroup, Fox
    identities on long words in (Z/5) * F3, gamma and Schumann criteria."""

    name = "group-criteria"

    def __init__(self, seed: int):
        self.seed = seed
        self.f3 = Alphabet(3)
        self.mixed = Alphabet(3, (5,))
        self.q8 = group_ring.finite_index_oracle(
            self.f3, (2, 2, 2), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        self.K = frozenset({fox_group.free_index(1), fox_group.free_index(2)})
        self.abel = group_ring.abelianization_oracle(self.f3)
        self.nil2 = group_ring.free_nilpotent_oracle(self.f3, 2)

    def setup(self) -> None:
        pass

    def _gen(self, j: int, e: int = 1) -> Word:
        return Word(self.f3, (FreeLetter(j, e),))

    def _in_n8(self, rng, length: int, letters=None) -> Word:
        """A word of N = ker(F3 -> (Z/2)^3): even exponent sum per generator."""
        w = _random_word(rng, self.f3, length, letters)
        sums = {}
        for letter in w.letters:
            sums[letter.index] = sums.get(letter.index, 0) + letter.exp
        fix = [FreeLetter(j, 1) for j, s in sorted(sums.items()) if s % 2]
        return words.reduce(w.letters + tuple(fix), self.f3)

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r, self.name)
        qs = []
        for holds in (True, False, True, False):
            qs.append(("theorem1", self._theorem1(self._theorem1_input(rng, holds), holds)))
        for _ in range(2):
            u = _random_word(rng, self.mixed, rng.randrange(24, 49))
            v = _random_word(rng, self.mixed, rng.randrange(24, 49))
            k = rng.choice(fox_group.all_indices(self.mixed))
            qs.append(("fox_rules", self._fox_rules(u, v, k)))
        u = _random_word(rng, self.mixed, rng.randrange(24, 49))
        v = _random_word(rng, self.mixed, rng.randrange(24, 49))
        qs.append(("fox_fundamental", self._fox_fundamental(u, v)))
        for n_class, holds in ((2, True), (2, False), (3, True), (3, False)):
            qs.append(("gamma", self._gamma(self._gamma_input(rng, n_class, holds), n_class, holds)))
        for oracle, weight in ((self.abel, 2), (self.nil2, 3)):
            for holds in (True, False):
                qs.append(("schumann", self._schumann(self._schumann_input(rng, weight, holds), oracle, holds)))
        return qs

    def _theorem1_input(self, rng, holds: bool) -> Word:
        """holds: a * t^-1 b t * [n1, n2] with a, b in F_K cap N, n1, n2 in N;
        otherwise the conjugate of g3^2 replaces the F_K cap N factor."""
        while True:
            a = self._in_n8(rng, rng.randrange(2, 7), (1, 2))
            t = _random_word(rng, self.f3, rng.randrange(1, 4))
            b = self._in_n8(rng, 2, (1, 2)) if holds else self._gen(3, rng.choice((2, -2)))
            n1, n2 = self._in_n8(rng, 2), self._in_n8(rng, 2)
            v = words.multiply(a, words.multiply(words.conjugate(b, t), words.commutator(n1, n2)))
            if 12 <= len(v.letters) <= 24:
                return v

    def _theorem1(self, v, holds):
        def run():
            rep = fox_group.theorem1_check(v, self.K, self.q8)
            ok = rep.status == "decided" and rep.holds == rep.witness_member == holds
            res = sorted((str(k), sorted(r.items())) for k, r in rep.residues.items())
            return ok, f"t1:{rep.holds}:{rep.witness_member}:{rep.status}:{res}"
        return run

    def _fox_rules(self, u, v, k):
        def run():
            du, dv = fox_group.fox_derivative(u, k), fox_group.fox_derivative(v, k)
            product = fox_group.fox_derivative(words.multiply(u, v), k)
            inverse = fox_group.fox_derivative(words.invert(u), k)
            ok = product == du * v + dv and inverse == (du * words.invert(u)).scale(-1)
            return ok, f"fox:{ok}:{len(product.terms)}:{product.augmentation()}"
        return run

    def _fox_fundamental(self, u, v):
        def run():
            a = group_ring.RingElt.from_word(u) - group_ring.RingElt.from_word(v, 2)
            ok = fox_group.fundamental_decomposition(a).reassemble(self.mixed) == a
            return ok, f"fund:{ok}"
        return run

    def _gamma_input(self, rng, n_class: int, holds: bool) -> Word:
        """w c with w in F_K and c a left-normed commutator: of weight
        n_class + 1 (inside gamma_{n+1}) when holds, otherwise of weight
        n_class and involving g3 (outside F_K gamma_{n+1})."""
        w = _random_word(rng, self.f3, rng.randrange(2, 8), (1, 2))
        if holds:
            c = words.commutator(self._gen(rng.choice((1, 2))), self._gen(3))
            for _ in range(n_class - 1):
                c = words.commutator(c, self._gen(rng.randrange(1, 4)))
        else:
            c = words.commutator(self._gen(rng.choice((1, 2))), self._gen(3))
            for _ in range(n_class - 2):
                c = words.commutator(c, self._gen(rng.choice((1, 2))))
        return words.multiply(w, words.conjugate(c, _random_word(rng, self.f3, rng.randrange(0, 3))))

    def _gamma(self, v, n_class, holds):
        def run():
            rep = fox_group.subgroup_gamma_criterion(v, self.K, n_class, n_class + 1)
            ok = rep.holds == holds and (not holds or rep.witness_weight_ok is True)
            return ok, f"gamma:{rep.holds}:{rep.witness_weight_ok}"
        return run

    def _schumann_input(self, rng, weight: int, holds: bool) -> Word:
        """N is gamma_weight: a commutator of two weight-`weight` commutators
        lies in [N, N]; a single conjugated one does not."""
        def comm():
            j1, j2 = rng.sample((1, 2, 3), 2)
            c = words.commutator(self._gen(j1), self._gen(j2))
            for _ in range(weight - 2):
                c = words.commutator(c, self._gen(rng.randrange(1, 4)))
            return words.conjugate(c, _random_word(rng, self.f3, rng.randrange(0, 3)))
        if holds:
            while True:
                v = words.commutator(comm(), comm())
                if not v.is_identity:
                    return v
        return comm()

    def _schumann(self, v, oracle, holds):
        def run():
            rep = fox_group.schumann_check(v, oracle)
            return rep.holds == holds, f"schumann:{oracle.kind}:{rep.holds}"
        return run


LIBRARY = {cls.name: cls for cls in (LieQueries, LieClosures, GroupCriteria)}

"""Schreier transversals for a normal subgroup N given by a coset oracle.

A transversal over a sub-alphabet S of free indices is found by one
shortlex-ordered search of the coset graph, run over S's letters first:
cosets meeting F_S ("alpha classes") get the least words over S, and the
remaining cosets ("beta classes") extend earlier representatives by one
atom of the full alphabet.  With S empty this is the shortlex transversal,
whose representatives are the shortlex-least words of their cosets.  The
search records the coset of rep x for every atom x, which is the coset
table; prefix closure is checked by induction, one key per coset.  Only
finite-index oracles are taken, so every coset is found at construction.
transversal_for builds one per oracle and kept sub-alphabet and keeps it
on the oracle; theorem 1 reads its witness off it (an alpha
representative) and lattice_membership certifies the witness with it.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from .group_ring import QuotientOracle
from .lattice import hermite_normal_form, lattice_contains
from .words import (
    FreeLetter,
    Letter,
    Word,
    atom_runs,
    atomic_alphabet,
    identity,
    invert,
    multiply,
    shortlex_key,
)


@dataclass(frozen=True)
class SchreierGenerator:
    """Nontrivial Schreier generator s x rep(sx)^-1."""

    rep: Word
    letter: Letter
    value: Word


class Transversal:
    """Schreier transversal over a finite-index quotient oracle and a
    sub-alphabet, explored completely at construction."""

    def __init__(self, oracle: QuotientOracle, subalphabet: frozenset[int] = frozenset()):
        if not oracle.finite_index:
            raise ValueError("a transversal needs a finite-index oracle")
        self.oracle = oracle
        self.alphabet = oracle.alphabet
        if not all(1 <= j <= self.alphabet.free_rank for j in subalphabet):
            raise ValueError("subalphabet must be a set of free indices")
        self.subalphabet = frozenset(subalphabet)
        self._reps: dict = {}  # coset key -> Word
        self._succ: dict = {}  # coset key -> keys of rep x, x over atomic_alphabet
        self._table: Optional[tuple] = None
        self._sub_hnf: Optional[list] = None
        self._explore()
        self._verify_prefix_closure()

    # -- construction ---------------------------------------------------

    def _explore(self) -> None:
        """Build the rep table over the whole coset graph.  Candidates rep x
        are popped smallest first and a coset gets the first candidate that
        reaches it, over S's letters and then over every atom from all
        representatives found.  A coset found keys rep x for every atom x
        in one batch; only children whose coset is still unnumbered are
        pushed."""
        al = self.alphabet
        atoms = atomic_alphabet(al)
        steps = [Word(al, (x,)) for x in atoms]
        sub = [a for a, x in enumerate(atoms) if self._over_sub((x,))]
        reps, succ = self._reps, self._succ
        children: dict = {}  # coset key -> the words rep x
        heap: list = []
        order = itertools.count()

        def visit(key, rep: Word) -> None:
            reps[key] = rep
            children[key] = [multiply(rep, x) for x in steps]
            succ[key] = self.oracle.coset_keys(children[key])

        def push(key, positions) -> None:
            for a in positions:
                cand, k = children[key][a], succ[key][a]
                if k not in reps:
                    heapq.heappush(heap, (shortlex_key(cand), next(order), cand, k))

        visit(self.oracle.coset_key(identity(al)), identity(al))
        for positions in (sub, range(len(atoms))):
            for key in list(reps):
                push(key, positions)
            while heap:
                _, _, cand, key = heapq.heappop(heap)
                if key not in reps:
                    visit(key, cand)
                    push(key, positions)

    def _verify_prefix_closure(self) -> None:
        """Each representative but 1, less its last atom, must represent
        its own coset; by induction on length every prefix then does."""
        al = self.alphabet
        back = [invert(Word(al, (x,))) for x in atomic_alphabet(al)]
        prefixes = [
            multiply(rep, back[atom_runs(rep)[-1][0]])
            for rep in self._reps.values()
            if not rep.is_identity
        ]
        for prefix, key in zip(prefixes, self.oracle.coset_keys(prefixes)):
            if self._reps.get(key) != prefix:
                raise RuntimeError(f"transversal is not prefix closed at {prefix}")

    def _over_sub(self, letters) -> bool:
        return all(isinstance(x, FreeLetter) and x.index in self.subalphabet for x in letters)

    # -- queries --------------------------------------------------------

    def representative(self, u: Word) -> Word:
        return self._reps[self.oracle.coset_key(u)]

    def class_kind(self, u: Word) -> str:
        """The kind of u's coset: "alpha" when it meets F_S, else "beta"."""
        return "alpha" if self._over_sub(self.representative(u).letters) else "beta"

    def representatives(self) -> list[Word]:
        return sorted(self._reps.values(), key=shortlex_key)

    @property
    def index(self) -> int:
        return len(self._reps)

    def schreier_generators(self) -> list[SchreierGenerator]:
        """Nontrivial generators s x rep(sx)^-1, s over the transversal and
        x over the positive letters, in deterministic order."""
        gens, _ = self._coset_table()
        return list(gens)

    def _coset_table(self) -> tuple[list[SchreierGenerator], list[list[tuple]]]:
        """The Schreier generators and the coset table, built once.  Cosets
        are numbered by the shortlex order of their representatives, so the
        base coset is 0, and atoms by their place in atomic_alphabet.
        ``steps[c][a]`` is (the coset of rep_c a, the position of the
        Schreier generator that step reads or None, its exponent): a
        positive atom x read from s reads s x rep(s x)^-1, and its inverse
        read from rep(s x) reads that generator's inverse."""
        if self._table is None:
            al = self.alphabet
            keys = sorted(self._reps, key=lambda k: shortlex_key(self._reps[k]))
            reps = [self._reps[k] for k in keys]
            position = {k: c for c, k in enumerate(keys)}
            atoms = atomic_alphabet(al)
            succ = [[position[k] for k in self._succ[key]] for key in keys]
            gens: list[SchreierGenerator] = []
            gen_at: dict = {}  # (coset, positive atom) -> generator position
            for c, s in enumerate(reps):
                for a, x in enumerate(atoms):
                    if x.exp < 0:
                        continue
                    w = multiply(multiply(s, Word(al, (x,))), invert(reps[succ[c][a]]))
                    if not w.is_identity:
                        gen_at[c, a] = len(gens)
                        gens.append(SchreierGenerator(s, x, w))
            # g^-1 sits right after g in atomic_alphabet
            steps = [
                [
                    (d, gen_at.get((d, a - 1)), -1) if x.exp < 0 else (d, gen_at.get((c, a)), 1)
                    for a, (x, d) in enumerate(zip(atoms, succ[c]))
                ]
                for c in range(len(reps))
            ]
            self._table = (gens, steps)
        return self._table

    def _read(self, coset: int, u: Word) -> tuple[int, list[tuple[int, int]]]:
        """Walk u from a coset through the coset table: the coset it ends
        in, and the Schreier generators read on the way as (position,
        exponent)."""
        _, steps = self._coset_table()
        out = []
        for a, n in atom_runs(u):
            for _ in range(n):
                coset, g, e = steps[coset][a]
                if g is not None:
                    out.append((g, e))
        return coset, out

    def _rewrite(self, u: Word) -> list[tuple[int, int]]:
        """rewrite_in_schreier with generator positions."""
        if not self.oracle.contains(u):
            raise ValueError("u must lie in N")
        end, out = self._read(0, u)
        if end != 0:
            raise RuntimeError("rewriting did not return to the base coset")
        return out

    def rewrite_in_schreier(self, u: Word) -> list[tuple[SchreierGenerator, int]]:
        """Reidemeister-Schreier rewriting of u in N as a word over the
        Schreier generators (trivial generators dropped)."""
        pairs = self._rewrite(u)
        gens, _ = self._coset_table()
        return [(gens[g], e) for g, e in pairs]

    def _vector(self, pairs: list[tuple[int, int]]) -> list[int]:
        """Exponent sums of a rewriting: its image in N/[N, N], free abelian
        on the Schreier generators."""
        gens, _ = self._coset_table()
        v = [0] * len(gens)
        for g, e in pairs:
            v[g] += e
        return v

    def sub_lattice(self) -> list[list[int]]:
        """HNF of the image of (F_S cap N)^F in N/[N, N], S the
        sub-alphabet, built once.

        On the alpha/beta transversal the alpha representatives are the
        words in F_S, so F_S cap N is generated by the Schreier generators
        whose representative and letter lie in S.  Conjugation acts on
        N/[N, N] through F/N, and rewriting rep^-1 w rep reads w from the
        coset of rep^-1: reading each such w from every coset spans the
        normal closure."""
        if self._sub_hnf is None:
            gens, steps = self._coset_table()
            rows = []
            for g in gens:
                if self._over_sub(g.rep.letters + (g.letter,)):
                    for coset in range(len(steps)):
                        end, pairs = self._read(coset, g.value)
                        if end != coset:
                            raise RuntimeError("a Schreier generator left its coset")
                        rows.append(self._vector(pairs))
            self._sub_hnf = hermite_normal_form(rows)
        return self._sub_hnf


def transversal_for(q: QuotientOracle, keep: frozenset[int] = frozenset()) -> Transversal:
    """The Schreier transversal over the kept free indices, which carries
    F_K cap N (shortlex when nothing is kept).  N never changes, so each is
    built once and kept on the oracle, one per sub-alphabet asked for, for
    as long as the oracle lives."""
    t = q.transversals.get(keep)
    if t is None:
        t = q.transversals[keep] = Transversal(q, keep)
    return t


def lattice_membership(t: Transversal, u: Word) -> bool:
    """Certify u in (F_S cap N)^F [N, N], S the sub-alphabet of t, through
    the free abelianisation of N on its Schreier generators.  Free
    alphabets only."""
    if t.alphabet.n_factors:
        raise ValueError("lattice membership requires a free alphabet")
    return lattice_contains(t.sub_lattice(), t._vector(t._rewrite(u)))

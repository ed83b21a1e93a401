"""Schreier transversals for a normal subgroup N given by a coset oracle.

Two styles:
  * "shortlex": the representative of a coset is its shortlex-least word;
  * "alphabeta": cosets meeting the subgroup generated by a sub-alphabet
    ("alpha classes") get representatives built over the sub-alphabet first,
    remaining cosets ("beta classes") extend earlier representatives by one
    letter of the full alphabet.
Both are Schreier systems: prefix closure is re-verified at construction.
transversal_for builds one per oracle and kept sub-alphabet and keeps it on
the oracle; lattice_membership certifies theorem 1's witnesses with it.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .group_ring import QuotientOracle, RingElt
from .lattice import hermite_normal_form, lattice_contains
from .words import (
    FactorLetter,
    FreeLetter,
    Letter,
    Word,
    atom_runs,
    atomic_alphabet,
    identity,
    invert,
    multiply,
    reduce,
    shortlex_key,
    to_atomic,
    word_length,
)


@dataclass(frozen=True)
class SchreierGenerator:
    """Nontrivial Schreier generator s x rep(sx)^-1."""

    rep: Word
    letter: Letter
    value: Word


class Transversal:
    """Schreier transversal over a quotient oracle.

    Finite-index oracles are explored completely at construction.  For the
    abelianization oracle the table grows lazily, bounded by the length of
    the queried word; other infinite-index oracles are rejected for the
    alphabeta style.
    """

    def __init__(
        self,
        oracle: QuotientOracle,
        style: str = "shortlex",
        subalphabet: Optional[frozenset[int]] = None,
    ):
        if style not in ("shortlex", "alphabeta"):
            raise ValueError("style must be 'shortlex' or 'alphabeta'")
        self.oracle = oracle
        self.alphabet = oracle.alphabet
        self.style = style
        if subalphabet is not None and style != "alphabeta":
            raise ValueError("a subalphabet needs the alphabeta style")
        if style == "alphabeta":
            if subalphabet is None:
                subalphabet = frozenset(range(1, self.alphabet.free_rank))
            if not subalphabet or not all(
                1 <= j <= self.alphabet.free_rank for j in subalphabet
            ):
                raise ValueError("subalphabet must be a set of free indices")
        self.subalphabet = subalphabet
        self._reps: dict = {}  # coset key -> Word
        self._kinds: dict = {}  # coset key -> "alpha" | "beta"
        self._explored_to = 0
        self._table: Optional[tuple] = None
        self._sub_hnf: Optional[list] = None
        if oracle.finite_index:
            self._explore(None)
            self._verify_prefix_closure()
        elif oracle.kind != "abelianization" and style == "alphabeta":
            raise ValueError(
                "lazy alphabeta transversals are only supported over the "
                "abelianization oracle"
            )

    # -- construction ---------------------------------------------------

    def _letters(self, sub_only: bool) -> list[Letter]:
        atoms = atomic_alphabet(self.alphabet)
        if not sub_only:
            return list(atoms)
        return [
            a
            for a in atoms
            if isinstance(a, FreeLetter) and a.index in self.subalphabet
        ]

    def _bfs(self, sub_only: bool, kind: str, max_length: Optional[int]) -> None:
        """Extend the rep table by a shortlex-ordered search over the coset
        graph: candidates rep * x are popped smallest first and a coset gets
        the first candidate that reaches it."""
        letters = self._letters(sub_only)
        heap: list = []
        counter = 0

        def push_children(rep: Word) -> None:
            nonlocal counter
            for x in letters:
                cand = multiply(rep, Word(self.alphabet, (x,)))
                if word_length(cand) <= word_length(rep) and not isinstance(
                    x, FactorLetter
                ):
                    continue  # free-letter cancellation: prefix already seen
                if max_length is not None and word_length(cand) > max_length:
                    continue
                counter += 1
                heapq.heappush(heap, (shortlex_key(cand), counter, cand))

        key0 = self.oracle.coset_key(identity(self.alphabet))
        if key0 not in self._reps:
            self._reps[key0] = identity(self.alphabet)
            self._kinds[key0] = kind
        for rep in list(self._reps.values()):
            push_children(rep)
        while heap:
            _, _, cand = heapq.heappop(heap)
            key = self.oracle.coset_key(cand)
            if key in self._reps:
                continue
            self._reps[key] = cand
            self._kinds[key] = kind
            push_children(cand)

    def _explore(self, max_length: Optional[int]) -> None:
        """Build the rep table from scratch, up to ``max_length`` (None: the
        whole coset graph).  Alpha assignments must precede beta ones, so a
        bigger bound reruns both phases."""
        self._reps.clear()
        self._kinds.clear()
        if self.style == "alphabeta":
            self._bfs(sub_only=True, kind="alpha", max_length=max_length)
        self._bfs(
            sub_only=False,
            kind="beta" if self.style == "alphabeta" else "alpha",
            max_length=max_length,
        )

    def _verify_prefix_closure(self) -> None:
        for rep in list(self._reps.values()):
            atoms = to_atomic(rep)
            for t in range(len(atoms)):
                prefix = reduce(atoms[:t], self.alphabet)
                key = self.oracle.coset_key(prefix)
                if self._reps.get(key) != prefix:
                    raise RuntimeError(
                        f"transversal is not prefix closed at {prefix}"
                    )

    # -- queries --------------------------------------------------------

    def representative(self, u: Word) -> Word:
        if u.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        length = max(word_length(u), 1)
        if not self.oracle.finite_index and length > self._explored_to:
            self._explore(length)
            self._explored_to = length
        key = self.oracle.coset_key(u)
        if key not in self._reps:
            raise RuntimeError(f"coset of {u} not found within the length bound")
        return self._reps[key]

    def class_kind(self, u: Word) -> str:
        self.representative(u)
        return self._kinds[self.oracle.coset_key(u)]

    def representatives(self) -> list[Word]:
        if not self.oracle.finite_index:
            raise ValueError("full table needs a finite-index oracle")
        return sorted(self._reps.values(), key=shortlex_key)

    @property
    def index(self) -> int:
        if not self.oracle.finite_index:
            raise ValueError("index is defined for finite-index oracles only")
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
        if not self.oracle.finite_index:
            raise ValueError("schreier_generators needs a finite-index oracle")
        if self._table is None:
            al = self.alphabet
            keys = sorted(self._reps, key=lambda k: shortlex_key(self._reps[k]))
            reps = [self._reps[k] for k in keys]
            position = {k: c for c, k in enumerate(keys)}
            atoms = atomic_alphabet(al)
            succ = [
                [position[self.oracle.coset_key(multiply(s, Word(al, (x,))))] for x in atoms]
                for s in reps
            ]
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
        sub-alphabet (empty in the shortlex style), built once.

        On the alpha/beta transversal the alpha representatives are the
        words in F_S, so F_S cap N is generated by the Schreier generators
        whose representative and letter lie in S.  Conjugation acts on
        N/[N, N] through F/N, and rewriting rep^-1 w rep reads w from the
        coset of rep^-1: reading each such w from every coset spans the
        normal closure."""
        if self._sub_hnf is None:
            keep = self.subalphabet or frozenset()
            gens, steps = self._coset_table()
            rows = []
            for g in gens:
                if g.letter.index in keep and all(x.index in keep for x in g.rep.letters):
                    for coset in range(len(steps)):
                        end, pairs = self._read(coset, g.value)
                        if end != coset:
                            raise RuntimeError("a Schreier generator left its coset")
                        rows.append(self._vector(pairs))
            self._sub_hnf = hermite_normal_form(rows)
        return self._sub_hnf

    # -- derivative head terms ------------------------------------------

    def derivative_decomposition(
        self, a: RingElt
    ) -> dict[Word, RingElt]:
        """Write a ring element as sum_t delta_t t^-1 with t over the
        transversal and delta_t in Z(N): group the support by cosets."""
        groups: dict[Word, list] = {}
        for w, c in a.terms.items():
            t = self.representative(invert(w))
            groups.setdefault(t, []).append((multiply(w, t), c))
        # w -> w t is injective, so no group sums to zero
        return {t: RingElt(self.alphabet, pairs) for t, pairs in groups.items()}


def transversal_for(q: QuotientOracle, keep: frozenset[int] = frozenset()) -> Transversal:
    """The Schreier transversal that carries F_K cap N for the kept free
    indices: alpha/beta over ``keep``, shortlex when nothing is kept.  N
    never changes, so each is built once and kept on the oracle, one per
    sub-alphabet asked for, for as long as the oracle lives."""
    t = q.transversals.get(keep)
    if t is None:
        t = Transversal(q, "alphabeta", keep) if keep else Transversal(q)
        q.transversals[keep] = t
    return t


def lattice_membership(t: Transversal, u: Word, K: frozenset[tuple[str, int]]) -> bool:
    """Certify u in (F_K cap N)^F [N, N] through the free abelianisation of
    N on its Schreier generators, K a set of Fox indices ("free", j) and
    ("factor", i).  Free alphabets, finite index only.  t is used as it is
    when it is the alpha/beta transversal over K's letters (or K has none);
    otherwise the oracle's transversal over them is."""
    if t.alphabet.n_factors:
        raise ValueError("lattice membership requires a free alphabet")
    keep = frozenset(j for kind, j in K if kind == "free")
    if keep and (t.style, t.subalphabet) != ("alphabeta", keep):
        t = transversal_for(t.oracle, keep)
    vec = t._vector(t._rewrite(u))
    return lattice_contains(t.sub_lattice() if keep else [], vec)

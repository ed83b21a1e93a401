"""Schreier transversals for a normal subgroup N given by a coset oracle.

Two styles:
  * "shortlex": the representative of a coset is its shortlex-least word;
  * "alphabeta": cosets meeting the subgroup generated by a sub-alphabet
    ("alpha classes") get representatives built over the sub-alphabet first,
    remaining cosets ("beta classes") extend earlier representatives by one
    letter of the full alphabet.
Both are Schreier systems: prefix closure is re-verified at construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fox_group import FoxIndex, fox_derivative, free_index
from .group_ring import QuotientOracle, RingElt
from .lattice import hermite_normal_form, lattice_contains
from .words import (
    Alphabet,
    FactorLetter,
    FreeLetter,
    Letter,
    Word,
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


def _positive_letters(alphabet: Alphabet) -> list[Letter]:
    return [x for x in atomic_alphabet(alphabet) if x.exp > 0]


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
        self._gens: Optional[dict] = None
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
        import heapq

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
        return list(self._generator_table().values())

    def _generator_table(self) -> dict:
        """(rep, letter) -> nontrivial Schreier generator, built once."""
        if not self.oracle.finite_index:
            raise ValueError("schreier_generators needs a finite-index oracle")
        if self._gens is None:
            self._gens = {}
            for s in self.representatives():
                for x in _positive_letters(self.alphabet):
                    sx = multiply(s, Word(self.alphabet, (x,)))
                    w = multiply(sx, invert(self.representative(sx)))
                    if not w.is_identity:
                        self._gens[s, x] = SchreierGenerator(s, x, w)
        return self._gens

    def rewrite_in_schreier(self, u: Word) -> list[tuple[SchreierGenerator, int]]:
        """Reidemeister-Schreier rewriting of u in N as a word over the
        Schreier generators (trivial generators dropped)."""
        if not self.oracle.contains(u):
            raise ValueError("u must lie in N")
        table = self._generator_table()
        out: list[tuple[SchreierGenerator, int]] = []
        state = identity(self.alphabet)
        for atom in to_atomic(u):
            if isinstance(atom, FreeLetter) and atom.exp < 0:
                nxt = self.representative(
                    multiply(state, Word(self.alphabet, (atom,)))
                )
                gen = table.get((nxt, FreeLetter(atom.index, 1)))
                if gen is not None:
                    out.append((gen, -1))
                state = nxt
            else:
                gen = table.get((state, atom))
                if gen is not None:
                    out.append((gen, 1))
                state = self.representative(
                    multiply(state, Word(self.alphabet, (atom,)))
                )
        if not state.is_identity:
            raise RuntimeError("rewriting did not return to the base coset")
        return out

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


def derivative_leading_term_check(
    t: Transversal, gen0: SchreierGenerator, gen: SchreierGenerator
) -> bool:
    """Head-term shape of D_{j0} on Schreier generators, j0 the free index
    of gen0's defining letter: D_{j0}(gen0) = rep(s g_j0)^-1 + (terms over
    other representatives), while other generators defined by the same
    letter contribute no rep(s g_j0)^-1 head at all."""
    if not isinstance(gen0.letter, FreeLetter):
        raise ValueError("gen0 must be defined by a free letter")
    j0 = free_index(gen0.letter.index)
    head = t.representative(
        multiply(gen0.rep, Word(t.alphabet, (gen0.letter,)))
    )
    decomp = t.derivative_decomposition(fox_derivative(gen.value, j0))
    coeff = decomp.get(head)
    if gen == gen0:
        return coeff == RingElt.one(t.alphabet)
    return coeff is None


def lattice_membership(t: Transversal, u: Word, K: frozenset[FoxIndex]) -> bool:
    """Certify u in (F_K cap N)^F [N, N] through the free abelianisation of
    N on its Schreier generators.  Free alphabets, finite index only.  t is
    used as it is when it is the alpha/beta transversal over K's letters
    (or K has none); otherwise that transversal is built from t.oracle."""
    alphabet = t.alphabet
    if alphabet.n_factors:
        raise ValueError("lattice membership requires a free alphabet")
    if not t.oracle.contains(u):
        raise ValueError("u must lie in N")
    # on the alpha/beta transversal over K's letters the alpha
    # representatives are the words in F_K, so F_K cap N is generated by the
    # Schreier generators whose representative and letter lie in K
    keep = frozenset(j for kind, j in K if kind == "free")
    if keep and (t.style, t.subalphabet) != ("alphabeta", keep):
        t = Transversal(t.oracle, "alphabeta", keep)
    gens = t.schreier_generators()
    index_of = {g: k for k, g in enumerate(gens)}

    def vec(w: Word) -> list[int]:
        v = [0] * len(gens)
        for g, e in t.rewrite_in_schreier(w):
            v[index_of[g]] += e
        return v

    sub_gens = [
        g.value
        for g in gens
        if g.letter.index in keep and all(x.index in keep for x in g.rep.letters)
    ]
    # conjugation acts on N/[N, N] through F/N, so conjugating by the
    # finitely many representatives is enough for the normal closure
    rows = [
        vec(multiply(multiply(invert(rep), w), rep))
        for rep in t.representatives()
        for w in sub_gens
    ]
    return lattice_contains(hermite_normal_form(rows), vec(u))

"""Reduced words in a free product of a free group and finite cyclic groups.

The ambient group is F = A_1 * ... * A_p * G where A_i is cyclic of order
m_i with generator a_i and G is free of rank n on g_1, ..., g_n.  A word is
a reduced sequence of syllables; adjacent syllables never share the same
generator and every syllable is nontrivial.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Union


@dataclass(frozen=True)
class Alphabet:
    """Generating data: ``free_rank`` free letters g_j plus one cyclic factor
    of order ``factor_orders[i-1]`` for each factor letter a_i."""

    free_rank: int
    factor_orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factor_orders", tuple(self.factor_orders))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(m < 2 for m in self.factor_orders):
            raise ValueError("factor orders must be at least 2")
        if self.free_rank + len(self.factor_orders) < 1:
            raise ValueError("alphabet must have at least one generator")

    @property
    def n_factors(self) -> int:
        return len(self.factor_orders)

    def factor_order(self, i: int) -> int:
        if not 1 <= i <= self.n_factors:
            raise ValueError(f"no cyclic factor with index {i}")
        return self.factor_orders[i - 1]


class _Syllable(tuple):
    """A letter as a tuple beginning (index, exp), so that a word hashes
    and compares its letters in C."""

    __slots__ = ()

    index = property(itemgetter(0))
    exp = property(itemgetter(1))

    def __getnewargs__(self):
        return self[0], self[1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(index={self[0]}, exp={self[1]})"


class FreeLetter(_Syllable):
    """Syllable g_index^exp, exp a nonzero integer: the tuple (index, exp)."""

    __slots__ = ()

    def __new__(cls, index: int, exp: int):
        return tuple.__new__(cls, (index, exp))


class FactorLetter(_Syllable):
    """Syllable a_index^exp with 1 <= exp < order of the factor: the tuple
    (index, exp, 0), whose length keeps it apart from the free letter."""

    __slots__ = ()

    def __new__(cls, index: int, exp: int):
        return tuple.__new__(cls, (index, exp, 0))


Letter = Union[FreeLetter, FactorLetter]


def _validate_letter(letter: Letter, alphabet: Alphabet) -> None:
    if isinstance(letter, FreeLetter):
        if not 1 <= letter.index <= alphabet.free_rank:
            raise ValueError(f"free index {letter.index} out of range")
    elif isinstance(letter, FactorLetter):
        alphabet.factor_order(letter.index)
    else:
        raise TypeError(f"not a letter: {letter!r}")


def _same_slot(a: Letter, b: Letter) -> bool:
    return type(a) is type(b) and a.index == b.index


@dataclass(frozen=True)
class Word:
    """A reduced word.  Construct through :func:`reduce`."""

    alphabet: Alphabet
    letters: tuple[Letter, ...]

    _hash = None  # not a field: the hash, once computed

    def __hash__(self) -> int:
        # words key every ring element, so each word hashes its letters
        # once; equal words have equal letters
        h = self._hash
        if h is None:
            h = hash(self.letters)
            object.__setattr__(self, "_hash", h)
        return h

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else invert(self)
        return reduce(base.letters * abs(n), self.alphabet)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        return format_word(self)


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


def reduce(raw: Iterable[Letter], alphabet: Alphabet) -> Word:
    """Free-product reduction: merge adjacent syllables over the same
    generator, drop trivial syllables, normalise factor exponents."""
    stack: list[Letter] = []
    for letter in raw:
        _validate_letter(letter, alphabet)
        if isinstance(letter, FactorLetter):
            e = letter.exp % alphabet.factor_order(letter.index)
            if e == 0:
                continue
            letter = FactorLetter(letter.index, e)
        elif letter.exp == 0:
            continue
        if stack and _same_slot(stack[-1], letter):
            top = stack.pop()
            e = top.exp + letter.exp
            if isinstance(letter, FactorLetter):
                e %= alphabet.factor_order(letter.index)
            if e != 0:
                stack.append(type(letter)(letter.index, e))
        else:
            stack.append(letter)
    return Word(alphabet, tuple(stack))


def multiply(u: Word, v: Word) -> Word:
    """u v."""
    alphabet = u.alphabet
    if alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    return Word(alphabet, join_letters(alphabet, u.letters, v.letters))


def join_letters(alphabet: Alphabet, a: tuple, b: tuple) -> tuple:
    """The letters of the product of two reduced words over ``alphabet``,
    given their letters and not checked.  Both sides are reduced, so
    syllables merge or cancel only at the junction: cancel pairs there
    until two syllables merge into one or their slots differ."""
    i, j = len(a), 0
    while i and j < len(b):
        x, y = a[i - 1], b[j]
        if type(x) is not type(y) or x[0] != y[0]:
            break
        e = x[1] + y[1]
        if type(x) is FactorLetter:
            e %= alphabet.factor_orders[x[0] - 1]
        if e:
            return a[: i - 1] + (type(x)(x[0], e),) + b[j + 1 :]
        i, j = i - 1, j + 1
    return a[:i] + b[j:]


def invert(u: Word) -> Word:
    """The reversed word of inverse syllables, which is reduced as it is:
    g^e becomes g^-e and a^e becomes a^(m-e), m the order of a's factor."""
    orders = u.alphabet.factor_orders
    # a list, not a generator: tuple() grows a generator's tuple by resizing,
    # and a long benchmark run then kept about 1 MB more resident memory
    inverse = [
        FreeLetter(l[0], -l[1])
        if type(l) is FreeLetter
        else FactorLetter(l[0], orders[l[0] - 1] - l[1])
        for l in reversed(u.letters)
    ]
    return Word(u.alphabet, tuple(inverse))


def conjugate(u: Word, t: Word) -> Word:
    """t^-1 u t."""
    return multiply(multiply(invert(t), u), t)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return multiply(multiply(invert(u), invert(v)), multiply(u, v))


def word_length(u: Word) -> int:
    """Length over the atomic alphabet (factor syllables count once)."""
    return sum(
        1 if isinstance(letter, FactorLetter) else abs(letter.exp)
        for letter in u.letters
    )


@lru_cache(maxsize=None)
def atomic_alphabet(alphabet: Alphabet) -> tuple[Letter, ...]:
    """Atomic letters in canonical order: factor letters first (by index,
    then exponent), then free letters (by index, positive before negative)."""
    out: list[Letter] = []
    for i, m in enumerate(alphabet.factor_orders, start=1):
        out.extend(FactorLetter(i, e) for e in range(1, m))
    for j in range(1, alphabet.free_rank + 1):
        out.append(FreeLetter(j, 1))
        out.append(FreeLetter(j, -1))
    return tuple(out)


@lru_cache(maxsize=None)
def _atom_rank(alphabet: Alphabet) -> dict[tuple, int]:
    """Position in atomic_alphabet of each atom, keyed by _atom_slot."""
    return {_atom_slot(a): k for k, a in enumerate(atomic_alphabet(alphabet))}


def _atom_slot(letter: Letter) -> tuple:
    """The atom a syllable repeats, as a plain tuple: a factor syllable is
    its own atom, g^e repeats g^{sign(e)}."""
    if isinstance(letter, FactorLetter):
        return (0, letter.index, letter.exp)
    return (1, letter.index, letter.exp > 0)


def atom_runs(u: Word) -> list[tuple[int, int]]:
    """Each syllable as (position of its atom in atomic_alphabet, number of
    times the atom repeats): g^e is |e| copies of g^{sign(e)}, a factor
    syllable one atom."""
    rank = _atom_rank(u.alphabet)
    return [
        (rank[_atom_slot(letter)], 1 if isinstance(letter, FactorLetter) else abs(letter.exp))
        for letter in u.letters
    ]


def shortlex_key(u: Word):
    """Sort key of u in shortlex order over the atomic alphabet, built per
    syllable.  A syllable is a run of n equal atoms c; two words that agree
    up to runs c^n and c^m, n < m, first differ where the shorter run ends,
    so the order depends only on whether the atom after that run is above
    or below c.  The run's key is (c, 0, n) when its next atom is below c
    (or the word ends there) and (c, 1, -n) when it is above.  Adjacent
    syllables of a reduced word never repeat an atom, so runs are maximal."""
    runs = atom_runs(u)
    key = []
    for k, (c, n) in enumerate(runs):
        up = k + 1 < len(runs) and runs[k + 1][0] > c
        key.append((c, 1, -n) if up else (c, 0, n))
    return (word_length(u), tuple(key))


def shortlex_words(alphabet: Alphabet, max_length: int) -> Iterator[Word]:
    """All reduced words of atomic length <= max_length in shortlex order."""
    frontier: list[tuple[Letter, ...]] = [()]
    yield identity(alphabet)
    for _ in range(max_length):
        nxt: list[tuple[Letter, ...]] = []
        for atoms in frontier:
            for child in _atomic_children(atoms, alphabet):
                nxt.append(child)
                yield reduce(child, alphabet)
        frontier = nxt


def _atomic_children(
    atoms: tuple[Letter, ...], alphabet: Alphabet
) -> Iterator[tuple[Letter, ...]]:
    last = atoms[-1] if atoms else None
    for x in atomic_alphabet(alphabet):
        if last is not None and _same_slot(last, x):
            if isinstance(x, FactorLetter):
                continue  # would merge into one syllable, not a longer word
            if last.exp * x.exp < 0:
                continue  # cancellation
        yield atoms + (x,)


_TOKEN = re.compile(r"^([ga])(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse words like ``"g1 g2^-1 a1^3"``.  Empty string is the identity."""
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad word token: {token!r}")
        kind, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        e = 1 if exp is None else int(exp)
        letter: Letter = FreeLetter(idx, e) if kind == "g" else FactorLetter(idx, e)
        _validate_letter(letter, alphabet)
        letters.append(letter)
    return reduce(letters, alphabet)


def format_word(u: Word) -> str:
    tokens = []
    for letter in u.letters:
        sym = "g" if isinstance(letter, FreeLetter) else "a"
        if letter.exp == 1:
            tokens.append(f"{sym}{letter.index}")
        else:
            tokens.append(f"{sym}{letter.index}^{letter.exp}")
    return " ".join(tokens)

#!/usr/bin/env python3
"""Exhaustive two-sided sweep of the subgroup membership criterion.

For every v in N = ker(F_2 -> Z/2 x Z/2) up to a word length bound,
compare the derivative criterion (all D_k(v) = 0 mod N for k outside K)
with the certified lattice membership of v vhat^-1 in (F_K cap N)^F [N,N].
Then, one line per quotient, the same over every v up to the bound, with
K = {g1} and K = {g2}, for two quotients where F_K misses cosets of N: a
v in such a coset has no witness, and the criterion must fail on it.
Any mismatch is printed; the exit code reflects the tally.
"""
import argparse
import sys
import time

from foxcalc.fox_group import free_index, theorem1_check
from foxcalc.group_ring import finite_index_oracle
from foxcalc.words import Alphabet, format_word, shortlex_words

# (quotient spec as the CLI writes it, orders, images of g1 and g2)
MISSING = [
    ("index:6:g1=1;g2=3", (6,), [(1,), (3,)]),
    ("index:4,2:g1=1,0;g2=2,1", (4, 2), [(1, 0), (2, 1)]),
]


def sweep(q, Ks, vs):
    """theorem1_check on every v for every K: the number of reports, how
    many hold, how many have no witness, and how many mismatch."""
    total = holds = bare = mismatches = 0
    for v in vs:
        for K in Ks:
            rep = theorem1_check(v, K, q)
            total += 1
            holds += rep.holds
            bare += rep.witness is None
            if rep.status != "decided" or rep.holds != rep.witness_member:
                mismatches += 1
                print(f"MISMATCH {format_word(v)}: criterion={rep.holds} "
                      f"membership={rep.witness_member} status={rep.status}")
    return total, holds, bare, mismatches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-length", type=int, default=6)
    ap.add_argument("--keep", type=int, default=1, help="free index kept in K on the first line")
    args = ap.parse_args()

    alphabet = Alphabet(2)
    q = finite_index_oracle(alphabet, (2, 2), [(1, 0), (0, 1)])
    K = frozenset({free_index(args.keep)})

    t0 = time.perf_counter()
    members = [v for v in shortlex_words(alphabet, args.max_length) if q.contains(v)]
    total, holds, _, failed = sweep(q, [K], members)
    print(f"{total} words in N checked, {holds} satisfy the criterion, "
          f"{failed} mismatches ({time.perf_counter() - t0:.1f}s)")

    Ks = [frozenset({free_index(j)}) for j in (1, 2)]
    for spec, orders, images in MISSING:
        t0 = time.perf_counter()
        q = finite_index_oracle(alphabet, orders, images)
        total, holds, bare, mismatches = sweep(q, Ks, shortlex_words(alphabet, args.max_length))
        failed += mismatches
        print(f"{spec}: {total} reports checked, {holds} satisfy the criterion, "
              f"{bare} without a witness, {mismatches} mismatches "
              f"({time.perf_counter() - t0:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

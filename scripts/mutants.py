#!/usr/bin/env python3
"""Mutation gate for the exact fast paths and the test oracles.

Each entry plants one fault in a copy of the tree and runs the tests that
must catch it.  For each entry the script copies src/ and tests/ of TREE
(default: this checkout) to a temporary directory, replaces the entry's
old text, which must occur exactly once in its file, and runs the entry's
pytest selection there.  It prints one line per entry:

  killed    the selection fails on the mutant, as it must
  SURVIVED  the selection passes on the mutant: the tests miss the fault
  STALE     the old text does not occur exactly once: update the entry

and exits 1 on any survivor or stale entry.  The selections are first run
once on the unmutated copy; if they fail there, nothing is judged (exit
2).  Standard library only; hypothesis runs with a fixed seed.

  python3 scripts/mutants.py [TREE]
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (file under src/foxcalc, exact old text, new text, pytest selection, reason)
ENTRIES = [
    (
        "fox_group.py",
        "(range(e, 0), -1)",
        "(range(e, 0), 1)",
        [
            "tests/test_fox_group.py::test_subgroup_fox_chain_rule",
            "tests/test_acceptance.py::test_criterion_5_chain_rules",
        ],
        "group chain rule: D(g^e) for e < 0 loses its sign",
    ),
    (
        "fox_lie.py",
        "        partials[m[0]][m[1:]] = c",
        "        partials[m[-1]][m[:-1]] = c",
        [
            "tests/test_fox_lie.py::test_commutator_rule",
            "tests/test_fox_lie.py::test_chain_rule_random",
        ],
        "Lie chain and commutator rules: lie_fox splits off the last letter",
    ),
    (
        "fox_lie.py",
        "        parts.setdefault(m[0], {})[m[1:]] = n",
        "        parts.setdefault(m[-1], {})[m[:-1]] = n",
        [
            "tests/test_fox_lie.py::test_integer_fox_partials_match_lie_fox",
            "tests/test_fox_lie.py::test_theorem_decomposition_round_trip",
        ],
        "integer Lie Fox path: _fox_integral splits off the last letter",
    ),
    (
        "transversal.py",
        "(d, gen_at.get((d, a - 1)), -1) if x.exp < 0",
        "(d, gen_at.get((d, a - 1)), 1) if x.exp < 0",
        ["tests/test_transversal.py::test_rewrite_round_trip"],
        "rewriting: an inverse step of the coset table reads its generator uninverted",
    ),
    (
        "transversal.py",
        "w = multiply(multiply(s, Word(al, (x,))), invert(reps[succ[c][a]]))",
        "w = multiply(multiply(s, Word(al, (x,))), reps[succ[c][a]])",
        [
            "tests/test_transversal.py::test_derivative_leading_terms_all_pairs",
            "tests/test_acceptance.py::test_criterion_4_schreier_derivative_heads",
        ],
        "head terms: a Schreier generator is s x rep(s x), not s x rep(s x)^-1",
    ),
    (
        "magnus.py",
        "(-1) ** k * comb(k - exp - 1, k)",
        "comb(k - exp - 1, k)",
        [
            "tests/test_magnus.py::test_gen_power_closed_form_against_products",
            "tests/test_magnus.py::test_fox_weight_link",
        ],
        "Magnus product: the binomial of a negative exponent loses its sign",
    ),
    (
        "freiheit.py",
        "                term = power_subspace(full, l)",
        "                term = power_subspace(full, l + 1)",
        ["tests/test_freiheit.py::test_series_intersection_property"],
        "series intersection: the first block's terms are one step too deep",
    ),
    (
        "freiheit.py",
        "if max(w) > top]",
        "if max(w) >= top]",
        ["tests/test_freiheit.py::test_conjugacy_criterion_against_the_free_factor"],
        "conjcrit certificate: a Lyndon word ending on the last letter of H counts as outside",
    ),
    (
        "words.py",
        "            return a[: i - 1] + (type(x)(x[0], e),) + b[j + 1 :]",
        "            return a[:i] + (type(x)(x[0], e),) + b[j + 1 :]",
        ["tests/test_words.py::test_seam_multiply_matches_full_reduction"],
        "group-ring junction: a merged syllable keeps the left one beside it",
    ),
]


def _copy(tree: Path, dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(tree / part, dest / part, ignore=skip)


def _pytest(dest: Path, selection: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", *selection]
    return subprocess.run(cmd, cwd=dest, env=env, capture_output=True).returncode


def main() -> int:
    tree = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(tree, base)
        selections = sorted({t for *_, selection, _ in ENTRIES for t in selection})
        if _pytest(base, selections):
            print("the selections fail on the unmutated tree; nothing judged")
            return 2
    fail = 0
    for name, old, new, selection, reason in ENTRIES:
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp) / "tree"
            _copy(tree, dest)
            path = dest / "src" / "foxcalc" / name
            text = path.read_text()
            if text.count(old) != 1:
                verdict = "STALE"
            else:
                path.write_text(text.replace(old, new))
                verdict = "killed" if _pytest(dest, selection) else "SURVIVED"
        fail |= verdict != "killed"
        print(f"{verdict:8s} {name}: {reason}")
    print(f"{len(ENTRIES)} mutants in {time.perf_counter() - start:.0f} s")
    return 1 if fail else 0


if __name__ == "__main__":
    sys.exit(main())

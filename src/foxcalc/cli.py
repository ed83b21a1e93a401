"""Command line front end.

JSON goes to stdout, a one-line human summary to stderr.  Exit codes:
0 when the requested criterion holds (or the command just computes),
1 when a criterion fails, 2 on usage or parse errors, 3 when an internal
invariant breaks (JSON ``{"error": ..., "kind": "internal"}``).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .fox_group import (
    factor_index,
    fox_derivative,
    free_index,
    schumann_check,
    subgroup_gamma_criterion,
    theorem1_check,
)
from .fox_lie import kharlampovich_check, lie_fox, theorem_decomposition
from .freiheit import SeriesSpec, conjugacy_criterion, lie_freiheitssatz_verify
from .group_ring import (
    abelianization_oracle,
    finite_index_oracle,
    free_nilpotent_oracle,
    trivial_oracle,
)
from .lie_core import GradedSubspace, expand_to_assoc, parse_lie, power_subspace, witt_dimension
from .transversal import Transversal
from .words import Alphabet, Word, format_word, parse_word


def _alphabet(args) -> Alphabet:
    orders = tuple(int(t) for t in args.factors.split(",")) if getattr(args, "factors", "") else ()
    return Alphabet(args.rank, orders)


def _fox_index(token: str):
    token = token.strip()
    if token.startswith("g"):
        return free_index(int(token[1:]))
    if token.startswith("a"):
        return factor_index(int(token[1:]))
    return free_index(int(token))


def _index_name(k) -> str:
    kind, i = k
    return f"{'g' if kind == 'free' else 'a'}{i}"


def _keep_set(text: str, item=_fox_index) -> frozenset:
    """The generators a --keep list names, each item read by ``item``; a
    blank list keeps none.  An empty or unreadable item, or one naming a
    generator that an earlier item names, raises ValueError naming it."""
    if not text.strip():
        return frozenset()
    seen: dict = {}
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if not token:
            raise ValueError(f"--keep {text!r}: item {pos} is empty")
        try:
            k = item(token)
        except ValueError:
            raise ValueError(f"--keep {text!r}: item {token!r} is not a generator") from None
        if k in seen:
            again = "is repeated" if token == seen[k] else f"names {seen[k]!r} again"
            raise ValueError(f"--keep {text!r}: item {token!r} {again}")
        seen[k] = token
    return frozenset(seen)


def _quotient(spec: str, alphabet: Alphabet, max_index: Optional[int] = None):
    """trivial | abel | abel:kill | nilpotent:c | index:ORDERS:g1=..;g2=..;a1=..
    with exactly one image per generator of the alphabet.  Given max_index,
    an index quotient whose product of orders passes it is refused."""
    head, _, rest = spec.partition(":")
    if spec == "trivial":
        return trivial_oracle(alphabet)
    if spec in ("abel", "abel:kill"):
        return abelianization_oracle(alphabet, kill_factors=rest == "kill")
    if head == "nilpotent":
        return free_nilpotent_oracle(alphabet, int(rest))
    if head == "index":
        orders_text, _, images_text = rest.partition(":")
        orders = [int(t) for t in orders_text.split(",")]
        if max_index is not None and math.prod(orders) > max_index:
            raise ValueError(f"index quotient: the product of orders passes {max_index}")
        images = {"free": [None] * alphabet.free_rank, "factor": [None] * alphabet.n_factors}
        for part in images_text.split(";"):
            name, _, vec = part.partition("=")
            kind, i = _fox_index(name)
            slots = images[kind]
            if not 1 <= i <= len(slots):
                raise ValueError(f"quotient spec names {name.strip()!r}, not a generator of the alphabet")
            if slots[i - 1] is not None:
                raise ValueError(f"quotient spec gives {name.strip()!r} twice")
            slots[i - 1] = [int(t) for t in vec.split(",")]
        if None in images["free"] or None in images["factor"]:
            raise ValueError("missing generator image in quotient spec")
        return finite_index_oracle(alphabet, orders, images["free"], images["factor"])
    raise ValueError(f"unknown quotient spec {spec!r}")


# Largest cutoff plus Lyndon basis size up to it that the Lie commands
# built on graded subspaces accept; rank 3 cutoff 14 is 533,830 words.
_BASIS_BUDGET = 10**6


def _check_cutoff(rank: int, cutoff: int) -> None:
    """Refuse up front a cutoff whose Lyndon basis would not fit the budget.
    The sum stops once past it; at rank <= 1 the basis is at most one
    letter, so the cutoff alone bounds the work."""
    size, d = cutoff + (rank == 1), 0
    while rank > 1 and d < cutoff and size <= _BASIS_BUDGET:
        d += 1
        size += witt_dimension(rank, d)
    if size > _BASIS_BUDGET:
        raise ValueError(
            f"cutoff {cutoff} at rank {rank}: the cutoff plus the Lyndon basis "
            f"size exceeds {_BASIS_BUDGET}"
        )


# Largest product of orders of an index quotient that the commands building
# a transversal (theorem1, transversal) accept.  On a 2-CPU Xeon, theorem1
# at index 4096 takes 4.9 s and 281 MB, and at index 4900 7.1 s and 402 MB,
# mostly in the dense HNF of its sub-lattice (index rows of index + 1
# columns), whose memory grows as the square of the index.
_INDEX_BUDGET = 4096


# Largest sum of |exponent| over a parsed word that the commands expanding
# it letter by letter accept (Fox derivatives, Schumann, the conjugacy
# criterion); g1^100000 answers in seconds, g1^100000000 would hang.
_ATOM_BUDGET = 10**5


def _word(text: str, alphabet: Alphabet) -> Word:
    """Parse a word and refuse it up front when its atoms exceed the budget."""
    w = parse_word(text, alphabet)
    atoms = sum(abs(letter.exp) for letter in w.letters)
    if atoms > _ATOM_BUDGET:
        raise ValueError(f"word has {atoms} atoms (sum of |exponent|), more than {_ATOM_BUDGET}")
    return w


def _power(spec: str, what: str, expected: str = "power:m") -> int:
    """m from a ``power:m`` spec."""
    head, _, rest = spec.partition(":")
    if head != "power":
        raise ValueError(f"unknown {what} spec {spec!r} (expected {expected})")
    return int(rest)


def _ideal(spec: str, rank: int, cutoff: int) -> GradedSubspace:
    return power_subspace(GradedSubspace.full(rank, cutoff), _power(spec, "ideal"))


def _residues_json(residues: dict) -> dict:
    return {
        _index_name(k): {str(key): c for key, c in r.items()}
        for k, r in residues.items()
    }


def _emit(doc: dict, summary: str, code: int) -> int:
    print(json.dumps(doc, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)
    return code


# -- group subcommands --------------------------------------------------


def _cmd_group_derive(args) -> int:
    alphabet = _alphabet(args)
    w = _word(args.word, alphabet)
    d = fox_derivative(w, _fox_index(args.gen))
    terms = [
        {"word": format_word(u), "coeff": c}
        for u, c in sorted(d.terms.items(), key=lambda t: format_word(t[0]))
    ]
    doc = {"derivative": str(d), "terms": terms}
    return _emit(doc, f"D_{args.gen}({args.word}) = {doc['derivative']}", 0)


def _cmd_group_schumann(args) -> int:
    alphabet = _alphabet(args)
    rep = schumann_check(_word(args.word, alphabet), _quotient(args.quotient, alphabet))
    doc = {"holds": rep.holds, "residues": _residues_json(rep.residues)}
    return _emit(doc, f"all derivatives vanish mod N: {rep.holds}", 0 if rep.holds else 1)


def _cmd_group_theorem1(args) -> int:
    alphabet = _alphabet(args)
    rep = theorem1_check(
        parse_word(args.word, alphabet),
        _keep_set(args.keep),
        _quotient(args.quotient, alphabet, _INDEX_BUDGET),
    )
    doc = {
        "holds": rep.holds,
        "residues": _residues_json(rep.residues),
        "witness": format_word(rep.witness) if rep.witness is not None else None,
        "witness_member": rep.witness_member,
        "status": rep.status,
    }
    return _emit(doc, f"derivative criterion: {rep.holds}, lattice membership: {rep.witness_member}", 0 if rep.holds else 1)


def _cmd_group_gamma(args) -> int:
    alphabet = _alphabet(args)
    rep = subgroup_gamma_criterion(
        parse_word(args.word, alphabet), _keep_set(args.keep), args.nil_class, args.cutoff
    )
    doc = {
        "holds": rep.holds,
        "vbar": format_word(rep.vbar),
        "derivative_ok": {_index_name(k): ok for k, ok in rep.derivative_ok.items()},
        "witness_weight_ok": rep.witness_weight_ok,
    }
    return _emit(doc, f"gamma criterion at class {args.nil_class}: {rep.holds}", 0 if rep.holds else 1)


def _cmd_group_transversal(args) -> int:
    alphabet = _alphabet(args)
    sub = frozenset(int(t) for t in args.sub.split(",")) if args.sub else frozenset()
    if args.style == "alphabeta":
        sub = sub or frozenset(range(1, alphabet.free_rank))
    if bool(sub) != (args.style == "alphabeta"):
        raise ValueError("--sub needs --style alphabeta, which needs a nonempty sub-alphabet")
    t = Transversal(_quotient(args.quotient, alphabet, _INDEX_BUDGET), sub)
    reps = [format_word(r) for r in t.representatives()]
    gens = [
        {
            "rep": format_word(g.rep),
            "letter": format_word(Word(t.alphabet, (g.letter,))),
            "value": format_word(g.value),
        }
        for g in t.schreier_generators()
    ]
    doc = {"index": t.index, "representatives": reps, "schreier_generators": gens}
    return _emit(doc, f"index {t.index}, {len(gens)} Schreier generators", 0)


def _cmd_group_conjcrit(args) -> int:
    if args.bound < 0:
        raise ValueError("--bound must be non-negative")
    alphabet = _alphabet(args)
    rep = conjugacy_criterion(_word(args.relator, alphabet), level=args.level, h_rank=args.h_rank)
    cert = rep.certificate
    doc = {
        "conjugate_found": rep.conjugate_found,
        "witness": [format_word(w) for w in rep.witness] if rep.witness else None,
        "certificate": {"lyndon_word": list(cert[0]), "coeff": str(cert[1])} if cert else None,
    }
    summary = f"conjugate into the subalphabet found: {rep.conjugate_found}"
    # criterion of the freedom theorem is "NOT conjugate": found = criterion fails
    return _emit(doc, summary, 1 if rep.conjugate_found else 0)


# -- lie subcommands ----------------------------------------------------


def _cmd_lie_derive(args) -> int:
    v = parse_lie(args.expr, args.rank)
    fox = lie_fox(expand_to_assoc(v))
    doc = {
        "constant": str(fox.constant),
        "partials": {str(j): str(p) for j, p in fox.partials.items()},
    }
    return _emit(doc, f"{len(fox.partials)} partials", 0)


def _cmd_lie_decompose(args) -> int:
    _check_cutoff(args.rank, args.cutoff)
    v = parse_lie(args.expr, args.rank)
    n = _ideal(args.ideal, args.rank, args.cutoff)
    K = _keep_set(args.keep, int)
    rep = theorem_decomposition(v, K, n)
    doc = {
        "holds": rep.holds,
        "residues": {str(k): str(r) for k, r in rep.residues.items()},
        "v0": str(rep.v0) if rep.v0 is not None else None,
        "v1": str(rep.v1) if rep.v1 is not None else None,
        "certified": rep.certified,
    }
    return _emit(doc, f"decomposition exists: {rep.holds}", 0 if rep.holds else 1)


def _cmd_lie_kharlampovich(args) -> int:
    _check_cutoff(args.rank, args.cutoff)
    v = parse_lie(args.expr, args.rank)
    n = _ideal(args.ideal, args.rank, args.cutoff)
    verdict = kharlampovich_check(v, n)
    doc = {"in_commutator_subalgebra": verdict}
    return _emit(doc, f"v in [N, N]: {verdict}", 0 if verdict else 1)


def _cmd_lie_freiheit(args) -> int:
    _check_cutoff(args.rank, args.cutoff)
    r = parse_lie(args.relator, args.rank)
    root_power = 1 if args.root == "F" else _power(args.root, "root", "F or power:m")
    spec = SeriesSpec(tuple(int(t) for t in args.spec.split(",")), root_power)
    rep = lie_freiheitssatz_verify(r, spec, args.cutoff, h_rank=args.h_rank)
    doc = {
        "criterion": {"level": rep.criterion.level, "satisfied": rep.criterion.satisfied},
        "all_equal": rep.all_equal,
        "consistent": rep.consistent,
        "entries": [
            {
                "k": e.k,
                "l": e.l,
                "degree": e.degree,
                "dim_with_relator": e.dim_with_relator,
                "dim_series": e.dim_series,
            }
            for e in rep.entries
        ],
    }
    return _emit(
        doc,
        f"criterion satisfied: {rep.criterion.satisfied}, dims equal: {rep.all_equal}, consistent: {rep.consistent}",
        0 if rep.criterion.satisfied else 1,
    )


def _cmd_lie_dims(args) -> int:
    doc = {"dim": witt_dimension(args.rank, args.degree)}
    return _emit(doc, f"dim L_{args.degree} on {args.rank} generators: {doc['dim']}", 0)


# -- parser -------------------------------------------------------------


def _add_common(p, factors=True):
    p.add_argument("--rank", type=int, required=True, help="number of free generators")
    if factors:
        p.add_argument("--factors", default="", help="comma list of finite cyclic factor orders")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fox", description=__doc__)
    top = parser.add_subparsers(dest="side", required=True)

    group = top.add_parser("group", help="free product / group ring commands")
    gsub = group.add_subparsers(dest="cmd", required=True)

    p = gsub.add_parser("derive", help="Fox derivative of a word")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--gen", required=True, help="g<j> or a<i>")
    p.set_defaults(fn=_cmd_group_derive)

    p = gsub.add_parser("schumann", help="all derivatives vanish mod N")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--quotient", required=True)
    p.set_defaults(fn=_cmd_group_schumann)

    p = gsub.add_parser("theorem1", help="two-sided subgroup membership criterion")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--keep", required=True, help="comma list of kept generators")
    p.add_argument("--quotient", required=True)
    p.set_defaults(fn=_cmd_group_theorem1)

    p = gsub.add_parser("gamma-criterion", help="membership modulo a lower central term")
    _add_common(p, factors=False)
    p.add_argument("--word", required=True)
    p.add_argument("--keep", required=True)
    p.add_argument("--class", dest="nil_class", type=int, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.set_defaults(fn=_cmd_group_gamma)

    p = gsub.add_parser("transversal", help="Schreier transversal and generators")
    _add_common(p)
    p.add_argument("--quotient", required=True)
    p.add_argument("--style", choices=("shortlex", "alphabeta"), default="shortlex")
    p.add_argument("--sub", default="", help="sub-alphabet free indices for alphabeta")
    p.set_defaults(fn=_cmd_group_transversal)

    p = gsub.add_parser("conjcrit", help="conjugacy into the subalphabet mod gamma")
    _add_common(p, factors=False)
    p.add_argument("--relator", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--h-rank", type=int, default=None)
    p.add_argument(
        "--bound", type=int, default=0, help="no effect, the verdict is exact (negative: refused)"
    )
    p.set_defaults(fn=_cmd_group_conjcrit)

    lie = top.add_parser("lie", help="free Lie algebra commands")
    lsub = lie.add_subparsers(dest="cmd", required=True)

    p = lsub.add_parser("derive", help="Lie Fox derivatives")
    _add_common(p, factors=False)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_lie_derive)

    p = lsub.add_parser("decompose", help="v = v0 + v1 mod [N, N] decomposition")
    _add_common(p, factors=False)
    p.add_argument("--expr", required=True)
    p.add_argument("--keep", required=True, help="comma list of kept generator indices")
    p.add_argument("--ideal", default="power:2", help="power:m")
    p.add_argument("--cutoff", type=int, required=True)
    p.set_defaults(fn=_cmd_lie_decompose)

    p = lsub.add_parser("kharlampovich", help="derivative test for [N, N] membership")
    _add_common(p, factors=False)
    p.add_argument("--expr", required=True)
    p.add_argument("--ideal", default="power:2")
    p.add_argument("--cutoff", type=int, required=True)
    p.set_defaults(fn=_cmd_lie_kharlampovich)

    p = lsub.add_parser("freiheit", help="freedom theorem verifier")
    _add_common(p, factors=False)
    p.add_argument("--relator", required=True)
    p.add_argument("--spec", required=True, help="block lengths m1,m2,...")
    p.add_argument("--root", default="F", help="F or power:m")
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--h-rank", type=int, default=None)
    p.set_defaults(fn=_cmd_lie_freiheit)

    p = lsub.add_parser("dims", help="Witt dimension")
    _add_common(p, factors=False)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=_cmd_lie_dims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        return _emit({"error": str(e), "kind": "internal"}, f"internal error: {e}", 3)


if __name__ == "__main__":
    sys.exit(main())

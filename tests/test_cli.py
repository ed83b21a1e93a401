import json
import sys
import time

import pytest

from fractions import Fraction

from foxcalc.cli import main
from foxcalc.fox_group import free_index, schumann_check, subgroup_gamma_criterion
from foxcalc.fox_lie import lie_fox
from foxcalc.group_ring import abelianization_oracle, free_nilpotent_oracle
from foxcalc.lie_core import expand_to_assoc, parse_lie, witt_dimension
from foxcalc.words import Alphabet, commutator, format_word, parse_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc


def test_dims(capsys):
    code, doc = run(capsys, "lie", "dims", "--rank", "2", "--degree", "3")
    assert code == 0 and doc == {"dim": 2}


def test_group_derive_round_trip(capsys):
    code, doc = run(
        capsys, "group", "derive", "--rank", "2", "--word", "g1 g2", "--gen", "g1"
    )
    assert code == 0
    assert doc["derivative"] == "g2"
    for t in doc["terms"]:
        parse_word(t["word"], Alphabet(2))


def test_unknown_flag_exits_2(capsys):
    assert main(["lie", "dims", "--rank", "2", "--degree", "3", "--bogus"]) == 2


def test_bad_value_exits_2(capsys):
    code, _ = run(capsys, "group", "derive", "--rank", "2", "--word", "zz", "--gen", "g1")
    assert code == 2
    code, _ = run(capsys, "lie", "derive", "--rank", "2", "--expr", "1/0*y1")
    assert code == 2
    for rank, degree in (("2", "0"), ("2", "-3"), ("-2", "3")):
        code, _ = run(capsys, "lie", "dims", "--rank", rank, "--degree", degree)
        assert code == 2


def test_dims_past_the_printable_digits_exits_2(capsys, monkeypatch):
    """lie dims answers up to the last degree whose dimension Python may
    print and refuses the next one with its own message; far past the
    limit, and at any degree on one generator, it answers at once."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100)
    last = next(d for d in range(1, 400) if witt_dimension(2, d + 1) >= 10**100)
    code, doc = run(capsys, "lie", "dims", "--rank", "2", "--degree", str(last))
    assert code == 0 and doc == {"dim": witt_dimension(2, last)}
    code = main(["lie", "dims", "--rank", "2", "--degree", str(last + 1)])
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert out.err == f"error: dim L_{last + 1} on 2 generators has more than 100 digits\n"
    monkeypatch.undo()
    start = time.perf_counter()
    for rank, degree, want in (("2", "15000", None), ("3", "100000000", None), ("1", "100000000", 0)):
        code = main(["lie", "dims", "--rank", rank, "--degree", degree])
        out = capsys.readouterr()
        if want is None:
            assert code == 2 and not out.out and "digits" in out.err
        else:
            assert code == 0 and json.loads(out.out) == {"dim": want}
    assert time.perf_counter() - start < 1


def test_internal_error_exits_3(capsys, monkeypatch):
    import foxcalc.cli as cli

    def broken(rank, degree):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(cli, "witt_dimension", broken)
    code = main(["lie", "dims", "--rank", "2", "--degree", "3"])
    out = capsys.readouterr()
    assert code == 3
    assert json.loads(out.out) == {"error": "broken invariant", "kind": "internal"}
    assert out.err == "internal error: broken invariant\n"


def test_schumann_exit_codes(capsys):
    code, doc = run(
        capsys,
        "group",
        "schumann",
        "--rank",
        "2",
        "--word",
        "g1 g2 g1^-1 g2^-1",
        "--quotient",
        "trivial",
    )
    assert code == 0 and doc["holds"]
    code, doc = run(
        capsys,
        "group",
        "schumann",
        "--rank",
        "2",
        "--word",
        "g1 g2 g1^-1 g2^-1",
        "--quotient",
        "abel",
    )
    assert code == 1 and not doc["holds"]


@pytest.mark.parametrize("word", ["g1", "a1"])
def test_theorem1_refuses_a_factor_alphabet(capsys, word):
    # g1 is its own witness; no word of F_{g1} shares a1's coset
    code = main(["group", "theorem1", "--rank", "1", "--factors", "3", "--word", word,
                 "--keep", "g1", "--quotient", "index:3:g1=0;a1=1"])
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "free alphabet" in out.err


def test_theorem1_has_no_search_bound(capsys):
    assert main(["group", "theorem1", "--rank", "2", "--word", "g1^2", "--keep", "g1",
                 "--quotient", "index:2,2:g1=1,0;g2=0,1", "--bound", "3"]) == 2


def test_theorem1_cli_decides_without_a_witness(capsys):
    code, doc = run(capsys, "group", "theorem1", "--rank", "2", "--word", "g1", "--keep", "g2",
                    "--quotient", "index:6:g1=1;g2=3")
    assert code == 1
    assert doc["witness"] is None and doc["witness_member"] is False
    assert doc["status"] == "decided"


def test_theorem1_cli(capsys):
    code, doc = run(
        capsys,
        "group",
        "theorem1",
        "--rank",
        "2",
        "--word",
        "g1^2",
        "--keep",
        "g1",
        "--quotient",
        "index:2,2:g1=1,0;g2=0,1",
    )
    assert code == 0
    assert doc["witness"] == "g1^2" and doc["witness_member"]


def test_transversal_cli(capsys):
    code, doc = run(
        capsys,
        "group",
        "transversal",
        "--rank",
        "2",
        "--quotient",
        "index:2,2:g1=1,0;g2=0,1",
    )
    assert code == 0
    assert doc["index"] == 4 and len(doc["schreier_generators"]) == 5
    for g in doc["schreier_generators"]:
        parse_word(g["value"], Alphabet(2))


def test_conjcrit_cli(capsys):
    code, doc = run(
        capsys,
        "group",
        "conjcrit",
        "--rank",
        "3",
        "--relator",
        "g1 g3 g1^-1 g3^-1",
    )
    assert code == 0 and not doc["conjugate_found"]
    assert doc["witness"] is None and doc["certificate"] == {"lyndon_word": [1, 3], "coeff": "1"}
    argv = ["group", "conjcrit", "--rank", "3", "--relator", "g1 g2 g1^-1 g2^-1"]
    code, doc = run(capsys, *argv)
    assert code == 1 and doc["conjugate_found"]
    assert doc == {"conjugate_found": True, "witness": ["", "g1^-1 g2^-1 g1 g2"], "certificate": None}
    # --bound is accepted and changes nothing
    assert run(capsys, *argv, "--bound", "5") == (code, doc)


def test_lie_freiheit_cli(capsys):
    code, doc = run(
        capsys,
        "lie",
        "freiheit",
        "--rank",
        "3",
        "--relator",
        "[y1, y3]",
        "--spec",
        "3",
        "--cutoff",
        "4",
    )
    assert code == 0
    assert doc["criterion"]["satisfied"] and doc["all_equal"]


def test_lie_decompose_cli(capsys):
    code, doc = run(
        capsys,
        "lie",
        "decompose",
        "--rank",
        "2",
        "--expr",
        "y1 + [y1, y2]",
        "--keep",
        "1,2",
        "--cutoff",
        "4",
    )
    assert code == 0 and doc["holds"]
    assert doc["v0"] is not None


def test_lie_kharlampovich_cli(capsys):
    code, doc = run(
        capsys,
        "lie",
        "kharlampovich",
        "--rank",
        "3",
        "--expr",
        "[[y1, y2], [y1, y3]]",
        "--cutoff",
        "4",
    )
    assert code == 0 and doc["in_commutator_subalgebra"]


@pytest.mark.parametrize(
    "argv",
    [
        ("lie", "freiheit", "--rank", "3", "--relator", "[y1,y3]", "--spec", "2", "--cutoff", "4", "--h-rank", "-1"),
        ("lie", "freiheit", "--rank", "3", "--relator", "[y1,y3]", "--spec", "2", "--cutoff", "4", "--h-rank", "5"),
        ("group", "conjcrit", "--rank", "3", "--relator", "g1 g3 g1^-1 g3^-1", "--h-rank", "-1"),
        ("lie", "decompose", "--rank", "3", "--expr", "[[y1,y3],y2]", "--keep", "1,5", "--cutoff", "4"),
        ("lie", "decompose", "--rank", "3", "--expr", "[[y1,y3],y2]", "--keep", "0,1", "--cutoff", "4"),
        ("group", "gamma-criterion", "--rank", "2", "--word", "g1 g2", "--keep", "g5", "--class", "1",
         "--cutoff", "3"),
        ("group", "theorem1", "--rank", "2", "--word", "g1^2", "--keep", "g1,a1", "--quotient",
         "index:2,2:g1=1,0;g2=0,1"),
    ],
)
def test_out_of_range_generator_sets_exit_2(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "must lie in" in out.err


_DECOMPOSE = ("lie", "decompose", "--rank", "3", "--expr", "y1 + [y1, y2]", "--cutoff", "4")
_THEOREM1 = ("group", "theorem1", "--rank", "2", "--word", "g1^2", "--quotient", "index:2,2:g1=1,0;g2=0,1")
_GAMMA = ("group", "gamma-criterion", "--rank", "2", "--word", "g1^2", "--class", "1", "--cutoff", "3")


@pytest.mark.parametrize(
    "argv,named",
    [
        (_DECOMPOSE + ("--keep", "1,1"), "'1' is repeated"),
        (_DECOMPOSE + ("--keep", "1,,2"), "item 2 is empty"),
        (_DECOMPOSE + ("--keep", "1,2,"), "item 3 is empty"),
        (_DECOMPOSE + ("--keep", "1,x"), "'x' is not a generator"),
        (_THEOREM1 + ("--keep", "g1,1"), "'1' names 'g1' again"),
        (_THEOREM1 + ("--keep", "g1,,g2"), "item 2 is empty"),
        (_GAMMA + ("--keep", "g1, g1"), "'g1' is repeated"),
        (_GAMMA + ("--keep", ","), "item 1 is empty"),
    ],
)
def test_keep_list_with_an_empty_or_repeated_item_exits_2(capsys, argv, named):
    """The Lie and group commands read --keep through one parser: an empty,
    unreadable or repeated item is refused with a message naming it."""
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert named in out.err


def test_keep_list_without_repeats_keeps_its_generators(capsys):
    code, doc = run(capsys, *_DECOMPOSE, "--keep", " 2, 1")
    assert code == 0 and doc["holds"]
    code, doc = run(capsys, *_DECOMPOSE, "--keep", "1")
    assert code == 1 and not doc["holds"]
    # a blank list keeps no generator, as before
    code, blank = run(capsys, *_THEOREM1, "--keep", "")
    assert code == 1 and not blank["holds"]


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "gamma-criterion", "--rank", "2", "--word", "g1 g2 g1^-1 g2^-1", "--keep", "g1",
         "--class", "-1", "--cutoff", "3"),
        # a cutoff below class + 1 is refused too; the negative class is named first
        ("group", "gamma-criterion", "--rank", "2", "--word", "g1^2", "--keep", "g2",
         "--class", "-2", "--cutoff", "-5"),
        ("group", "conjcrit", "--rank", "3", "--relator", "g1 g2 g1^-1 g2^-1", "--bound", "-2"),
    ],
)
def test_negative_class_or_bound_exits_2(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "non-negative" in out.err


@pytest.mark.parametrize("sub", ["5", "1"])
def test_transversal_sub_needs_alphabeta_style(capsys, sub):
    argv = ["group", "transversal", "--rank", "2", "--quotient", "index:2,2:g1=1,0;g2=0,1"]
    code = main(argv + ["--sub", sub])
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "alphabeta" in out.err
    code, doc = run(capsys, *argv, "--style", "alphabeta", "--sub", "1")
    assert code == 0 and doc["index"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "theorem1", "--rank", "2", "--word", "g1^2", "--keep", "g1", "--quotient",
         "index:100000:g1=1;g2=0"),
        ("group", "transversal", "--rank", "2", "--quotient", "index:300,300:g1=1,0;g2=0,1"),
        ("group", "transversal", "--rank", "2", "--quotient", "index:4097:g1=1;g2=0"),
    ],
)
def test_index_past_the_transversal_budget_exits_2(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "product of orders" in out.err


def test_index_budget_spares_schumann_and_the_budget_itself(capsys):
    # schumann needs only coset keys: g2 lies in N, and D_2(g2) = 1 is no 0
    code, doc = run(capsys, "group", "schumann", "--rank", "2", "--word", "g2",
                    "--quotient", "index:100000:g1=1;g2=0")
    assert code == 1 and not doc["holds"]
    code, doc = run(capsys, "group", "transversal", "--rank", "2", "--quotient",
                    "index:4096:g1=1;g2=0")
    assert code == 0 and doc["index"] == 4096


def test_inhomogeneous_relator_exits_2(capsys):
    argv = ["lie", "freiheit", "--rank", "3", "--relator", "[y1, [y1, y2]] + [y2, y3]", "--spec", "6"]
    code = main(argv + ["--cutoff", "10"])
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "homogeneous" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ("lie", "freiheit", "--rank", "3", "--relator", "[y1, y3]", "--spec", "6", "--cutoff", "40"),
        ("lie", "freiheit", "--rank", "1", "--relator", "y1", "--spec", "1", "--cutoff", "10000000"),
        ("lie", "decompose", "--rank", "3", "--expr", "y1 + [y1, y2]", "--keep", "1,2", "--cutoff", "15"),
        ("lie", "kharlampovich", "--rank", "4", "--expr", "[[y1, y2], [y1, y3]]", "--cutoff", "12"),
    ],
)
def test_hostile_cutoff_exits_2(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "Lyndon basis" in out.err


def test_cutoff_budget_edges():
    from foxcalc.cli import _check_cutoff

    _check_cutoff(3, 14)  # 533,830 Lyndon words
    _check_cutoff(1, 999_998)
    with pytest.raises(ValueError, match="Lyndon basis"):
        _check_cutoff(3, 15)


@pytest.mark.parametrize(
    "argv",
    [
        ("group", "derive", "--rank", "2", "--word", "g1^100000000", "--gen", "g1"),
        ("group", "schumann", "--rank", "2", "--word", "g1^100000000", "--quotient", "trivial"),
        ("group", "conjcrit", "--rank", "3", "--relator", "g1^100000000", "--bound", "1"),
        # the budget counts every syllable: two halves add up past it
        ("group", "derive", "--rank", "2", "--word", "g1^50001 g2 g1^-50000", "--gen", "g2"),
        ("group", "theorem1", "--rank", "2", "--word", "g1^3000000", "--keep", "g2",
         "--quotient", "index:2,2:g1=1,0;g2=0,1"),
    ],
)
def test_hostile_exponent_exits_2(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "atoms" in out.err


def test_atom_budget_edge():
    from foxcalc.cli import _word
    from foxcalc.words import Alphabet

    assert len(_word("g1^100000", Alphabet(2)).letters) == 1
    with pytest.raises(ValueError, match="atoms"):
        _word("g1^99999 g2^-2", Alphabet(2))


COMM = "g1 g2 g1^-1 g2^-1"  # in N for every quotient spec below


@pytest.mark.parametrize(
    "quotient",
    [
        "index:2,2:g1=1,0;g2=0,1;g5=1,1",  # no g5 at rank 2
        "index:2,2:g1=1,0;g2=0,1;a1=1,0",  # no cyclic factor
        "index:2,2:g0=1,0;g1=1,0;g2=0,1",  # g0 is no generator, not the last one
        "index:2,2:g1=1,0;g2=0,1;g1=0,1",  # g1 given twice
        "trivial:x",
        "abel:x",
        "abel:",
    ],
)
def test_bad_quotient_spec_exits_2(capsys, quotient):
    code = main(["group", "schumann", "--rank", "2", "--word", COMM, "--quotient", quotient])
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "quotient spec" in out.err


def test_bad_root_spec_exits_2(capsys):
    argv = ["lie", "freiheit", "--rank", "3", "--relator", "[y1, y3]", "--spec", "2", "--cutoff", "4"]
    code = main(argv + ["--root", "gamma:2"])
    out = capsys.readouterr()
    assert code == 2 and not out.out
    assert "root spec" in out.err
    code, doc = run(capsys, *argv, "--root", "power:2")
    assert code in (0, 1) and doc["entries"]


def _residues(rep) -> dict:
    return {
        f"{'g' if kind == 'free' else 'a'}{i}": {str(key): c for key, c in r.items()}
        for (kind, i), r in rep.residues.items()
    }


@pytest.mark.parametrize(
    "word, n_class", [("g1^-3 g2^2 g1^3 g2^-2", 1), ("g1^3 g2^-2 g1^-3 g2^2", 2)]
)
def test_gamma_criterion_cli_matches_library(capsys, word, n_class):
    code, doc = run(
        capsys, "group", "gamma-criterion", "--rank", "2", "--word", word, "--keep", "g1",
        "--class", str(n_class), "--cutoff", "4",
    )
    rep = subgroup_gamma_criterion(
        parse_word(word, Alphabet(2)), frozenset({free_index(1)}), n_class, 4
    )
    assert code == (0 if rep.holds else 1)
    assert doc == {
        "holds": rep.holds,
        "vbar": format_word(rep.vbar),
        "derivative_ok": {f"g{j}": rep.derivative_ok[free_index(j)] for j in (1, 2)},
        "witness_weight_ok": rep.witness_weight_ok,
    }


def test_lie_derive_cli_matches_library(capsys):
    expr = "[y1, [y2, y3]] + 1/2*y2"
    code, doc = run(capsys, "lie", "derive", "--rank", "3", "--expr", expr)
    fox = lie_fox(expand_to_assoc(parse_lie(expr, 3)))
    assert code == 0
    assert Fraction(doc["constant"]) == fox.constant
    assert doc["partials"] == {str(j): str(p) for j, p in fox.partials.items()}


def test_nilpotent_quotient_cli_matches_library(capsys):
    al = Alphabet(2)
    g1, g2 = parse_word("g1", al), parse_word("g2", al)
    for v in (commutator(commutator(g1, g2), g1), commutator(commutator(g1, g2), commutator(g1, g2 ** 2))):
        code, doc = run(
            capsys, "group", "schumann", "--rank", "2", "--word", format_word(v), "--quotient", "nilpotent:2"
        )
        rep = schumann_check(v, free_nilpotent_oracle(al, 2))
        assert code == (0 if rep.holds else 1)
        assert doc == {"holds": rep.holds, "residues": _residues(rep)}


def test_abel_kill_quotient_cli_matches_library(capsys):
    al = Alphabet(1, (2,))
    argv = ["group", "schumann", "--rank", "1", "--factors", "2", "--word", "a1"]
    code, doc = run(capsys, *argv, "--quotient", "abel:kill")
    rep = schumann_check(parse_word("a1", al), abelianization_oracle(al, kill_factors=True))
    assert code == (0 if rep.holds else 1)
    assert doc == {"holds": rep.holds, "residues": _residues(rep)}
    # a1 lies in the kernel only once the factor is killed
    code, doc = run(capsys, *argv, "--quotient", "abel")
    assert code == 2 and doc is None

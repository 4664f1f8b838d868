import argparse
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

from lexmv import cli, dsl, finite
from lexmv import groups as gr
from lexmv.algebra import PmvAlgebra
from lexmv.sampling import sample_elem
from lexmv.dsl import (
    ParseError,
    CallNode,
    GammaNode,
    GroupNode,
    SemanticError,
    build_algebra,
    build_elem,
    build_group,
    parse,
    parse_elem,
    parse_group,
    print_ast,
    tokenize,
)


def test_tokenize_spans():
    toks = tokenize("gamma(Z,\n 4)")
    assert [(t.kind, t.text) for t in toks] == [
        ("name", "gamma"),
        ("punct", "("),
        ("name", "Z"),
        ("punct", ","),
        ("int", "4"),
        ("punct", ")"),
        ("end", ""),
    ]
    assert (toks[4].line, toks[4].col) == (2, 2)
    with pytest.raises(ParseError, match="1:7"):
        tokenize("gamma(@)")
    # tokens are ASCII: a non-ASCII letter is refused where it stands, and
    # Unicode whitespace is still skipped
    with pytest.raises(ParseError, match="^1:6: unexpected character 'é'$"):
        tokenize("gammaé(Z,1)")
    assert [t.text for t in tokenize("chain(\u00a03\u2003)")] == ["chain", "(", "3", ")", ""]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="1:1"):
        parse("spiral(Z)")
    with pytest.raises(ParseError, match=r"expected '\)'"):
        parse("chain(3,4)")
    with pytest.raises(ParseError, match="trailing"):
        parse("chain(3) chain(4)")
    with pytest.raises(ParseError, match="expected an element"):
        parse("gamma(Z,")
    with pytest.raises(ParseError, match="end of input"):
        parse("gamma(Z,4")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_elem("3/0")


def test_print_parse_roundtrip():
    texts = [
        "gamma(Z,4)",
        "gamma(lex(Z,lex(Z,Z)),(1,(0,0)))",
        "gamma(lex(Q,Z),(1/2,0))",
        "gamma(lex(Z,Aff),(1,aff(2,0)))",
        "gamma(lex(Z,Aff),(1,aff(1/2,-3/4)))",
        "chain(6)",
        "prod(chain(2),prod(chain(1),chain(3)))",
        "gamma(lex(O,Z),(0,5))",
    ]
    for text in texts:
        node = parse(text)
        assert print_ast(node) == text
        assert parse(print_ast(node)) == node
    spaced = parse("  gamma( lex(Z , Z) ,\n (2, 1) ) ")
    assert print_ast(spaced) == "gamma(lex(Z,Z),(2,1))"


def test_semantic_errors():
    with pytest.raises(SemanticError):
        parse("chain(0)")
    with pytest.raises(SemanticError, match="integer"):
        build_elem(gr.Z, parse_elem("1/2"))
    with pytest.raises(SemanticError, match="pair"):
        build_elem(gr.lex(gr.Z, gr.Z), parse_elem("3"))
    with pytest.raises(SemanticError, match="aff"):
        build_elem(gr.AFF, parse_elem("3"))
    with pytest.raises(SemanticError):
        build_elem(gr.O, parse_elem("1"))
    with pytest.raises(SemanticError):
        build_algebra(parse("gamma(Z,0)"))  # not a strong unit
    with pytest.raises(SemanticError):
        build_algebra(parse("gamma(lex(Z,Z),(0,5))"))
    with pytest.raises(SemanticError):
        build_algebra(parse("gamma(Z,-3)"))


def test_a_kind_added_as_one_record_needs_no_other_edit(monkeypatch, capsys):
    # a KINDS entry whose literal is the call toy(n): the parser, the
    # printer and the builders take it from the record alone
    with pytest.raises(ParseError, match="expected an element, got 'toy'"):
        parse_elem("toy(2)")
    z = gr.KINDS["Z"]
    toy = dataclasses.replace(z, fmt=lambda v: f"toy({v})",
                              literal=(("toy", 1), z.literal[1], "Toy needs toy(n)"))
    monkeypatch.setitem(gr.KINDS, "Toy", toy)
    node = parse("gamma(Toy,toy(2))")
    assert node == GammaNode(group=GroupNode(kind="Toy"), unit=CallNode(name="toy", args=(2,)))
    assert print_ast(node) == "gamma(Toy,toy(2))"
    spec = build_group(node.group)
    assert spec.ops is toy and build_elem(spec, node.unit) == 2
    alg = build_algebra(node)
    assert isinstance(alg, PmvAlgebra) and alg.unit == 2 and str(alg) == print_ast(node)
    with pytest.raises(SemanticError, match="^1:1: Toy needs toy\\(n\\)$"):
        build_elem(spec, parse_elem("2"))
    with pytest.raises(SemanticError, match="^1:1: Z needs an integer, got 1/2$"):
        build_elem(spec, parse_elem("toy(1/2)"))
    with pytest.raises(ParseError, match="expected ','"):
        parse_elem("aff(2)")
    # the copy keeps Z's interval draw and chain rule: it samples like
    # Gamma(Z, 7) value for value, and Gamma(Toy, 4) is the chain of five
    toy7, z7 = build_algebra(parse("gamma(Toy,toy(7))")), build_algebra(parse("gamma(Z,7)"))
    ours, ref = random.Random(0), random.Random(0)
    assert [sample_elem(toy7, ours).value for _ in range(6000)] == [
        sample_elem(z7, ref).value for _ in range(6000)]
    assert dsl.finite(parse("gamma(Toy,toy(4))"))[0] == 5
    assert run_cli(capsys, "run", "ideals", "gamma(Toy,toy(4))") == run_cli(
        capsys, "run", "ideals", "gamma(Z,4)")


def test_build_values():
    assert build_group(parse_group("lex(Q,Aff)")) == gr.lex(gr.Q, gr.AFF)
    assert build_elem(gr.Q, parse_elem("2/6")) == Fraction(1, 3)
    assert build_elem(gr.AFF, parse_elem("aff(2,-1)")) == gr.Aff(2, -1)
    a = build_algebra(parse("gamma(lex(Z,Z),(2,1))"))
    assert isinstance(a, PmvAlgebra) and a.unit == (2, 1)
    c = build_algebra(parse("prod(chain(2),chain(2))"))
    assert isinstance(c, finite.FiniteMv) and c.size == 9


def test_finite():
    size, build = dsl.finite(parse("gamma(Z,3)"))
    assert size == 4 and build().size == 4
    with pytest.raises(SemanticError):
        dsl.finite(parse("gamma(lex(Z,Z),(1,0))"))


# Z up to trivial lex factors: each of these is the chain {0, 1, 2, 3}
TRIVIAL_FACTOR_CHAINS = ("gamma(lex(O,Z),(0,3))", "gamma(lex(Z,O),(3,0))",
                         "gamma(lex(lex(O,O),lex(Z,O)),((0,0),(3,0)))")


def test_finite_drops_trivial_factors():
    chain = finite.make_chain(3)
    for text in TRIVIAL_FACTOR_CHAINS:
        size, build = dsl.finite(parse(text))
        assert size == 4 and build() == chain, text
    size, build = dsl.finite(parse("prod(gamma(lex(O,Z),(0,2)),chain(1))"))
    assert size == 6 and build() == finite.make_product(finite.make_chain(2), finite.make_chain(1))
    # no chain: a trivial group alone, a nontrivial pair, a non-Z residue
    # and an invalid literal
    for text, message in (("gamma(O,0)", "is not a finite algebra"),
                          ("gamma(lex(Z,Z),(1,0))", "is not a finite algebra"),
                          ("gamma(lex(O,Q),(0,3))", "is not a finite algebra"),
                          ("gamma(lex(O,Z),(1,3))", "the trivial group has only 0")):
        with pytest.raises(SemanticError, match=message):
            dsl.finite(parse(text))


@pytest.mark.parametrize("text", TRIVIAL_FACTOR_CHAINS)
def test_cli_finite_commands_see_trivial_factor_chains(capsys, text):
    for cmd in ("ideals", "radical", "states", "retractive", "lexid", "rdp2"):
        expected = run_cli(capsys, "run", cmd, "chain(3)")
        assert expected[0] in (0, 1)
        assert run_cli(capsys, "run", cmd, text) == expected, cmd
    code, out = run_cli(capsys, "run", "isomorphic", text, "--other", "chain(3)")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_roundtrip_random_prints():
    rng = random.Random(31)

    def rand_group(depth):
        if depth == 0 or rng.random() < 0.5:
            return rng.choice(["Z", "Q", "O", "Aff"])
        return f"lex({rand_group(depth - 1)},{rand_group(depth - 1)})"

    def rand_elem(depth):
        if depth == 0 or rng.random() < 0.5:
            n = rng.randint(-9, 9)
            if rng.random() < 0.3:
                return f"{n}/{rng.randint(1, 9)}"
            return str(n)
        if rng.random() < 0.3:
            return f"aff({rng.randint(1, 9)},{rng.randint(-9, 9)})"
        return f"({rand_elem(depth - 1)},{rand_elem(depth - 1)})"

    for _ in range(200):
        text = f"gamma({rand_group(2)},{rand_elem(2)})"
        node = parse(text)
        assert parse(print_ast(node)) == node


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_exit_codes(capsys):
    code, out = run_cli(capsys, "run", "check-axioms", "chain(4)")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    code, _ = run_cli(capsys, "run", "check-axioms", "gamma(Z", "--samples", "10")
    assert code == 2
    code, _ = run_cli(capsys, "run", "classify", "chain(4)", "--elem", "1")
    assert code == 2  # needs a lexicographic interval algebra
    code, _ = run_cli(capsys, "run", "nonsense", "chain(4)")
    assert code == 2
    # a negative unit is shown as a DSL literal, not as a Python repr
    for text, shown in (("gamma(Aff,aff(1/2,0))", "aff(1/2,0)"), ("gamma(lex(Z,Z),(-1,0))", "(-1,0)")):
        assert cli.main(["run", "check-axioms", text]) == 2
        assert capsys.readouterr().err == f"lexmv: 1:1: unit must be >= 0, got {shown}\n"


def test_cli_failure_exit(capsys):
    code, out = run_cli(capsys, "run", "isomorphic", "chain(2)", "--other", "chain(3)")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "fail"
    assert rep["counterexamples"][0]["clause"] == "no-isomorphism"


def test_cli_finite_fail_verdicts(capsys, monkeypatch):
    """No table that passes check_axioms reaches these verdicts, so each
    is reached through a broken oracle helper."""
    bad_state = lambda a: [finite.FiniteState((Fraction(0),) * (a.size - 1) + (Fraction(1),))]
    for cmd, helper, broken, clause in [
        ("radical", "is_infinitesimal", lambda a, x: False, "radical-chain"),
        ("states", "extremal_states", bad_state, "state-additivity"),
        ("retractive", "_find_hom", lambda *args: None, "retractive-complement-agreement"),
        ("rdp2", "_rdp2_cell", lambda *args: False, "rdp2"),
    ]:
        assert run_cli(capsys, "run", cmd, "chain(2)")[0] == 0, cmd
        with monkeypatch.context() as patch:
            patch.setattr(finite, helper, broken)
            code, out = run_cli(capsys, "run", cmd, "chain(2)")
        rep = json.loads(out)
        assert (code, rep["verdict"]) == (1, "fail"), cmd
        assert [c["clause"] for c in rep["counterexamples"]] == [clause], cmd


def test_cli_cap_exceeded(capsys):
    code, out = run_cli(capsys, "run", "ideals", "chain(20)")
    assert code == 1
    assert json.loads(out)["verdict"] == "cap-exceeded"
    code, out = run_cli(capsys, "run", "ideals", "chain(20)", "--cap", "30")
    assert code == 0
    # check-axioms scans a table but samples a gamma, so only the table is capped
    code, out = run_cli(capsys, "run", "check-axioms", "chain(20)")
    assert code == 1 and json.loads(out)["verdict"] == "cap-exceeded"
    for argv in (("chain(20)", "--cap", "21"), ("gamma(Z,200)", "--samples", "20")):
        code, out = run_cli(capsys, "run", "check-axioms", *argv)
        assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_cli_cap_checked_before_build(capsys, monkeypatch, tmp_path):
    # every expression is sized, or refused as not finite, before any
    # table is built: make_chain and make_product raise below
    code, _ = run_cli(capsys, "run", "ideals", "prod(chain(2),gamma(Q,1))")
    assert code == 2
    small = tmp_path / "small.tbl"
    small.write_text(finite.format_table(finite.make_chain(2)))
    big = tmp_path / "big.tbl"
    big.write_text(finite.format_table(finite.make_chain(12)))
    chain1 = finite.make_chain(1)

    def no_build(*args):
        raise AssertionError("a table was built")

    def refused(argv, size):
        code, out = run_cli(capsys, "run", *argv)
        assert code == 1, argv
        rep = json.loads(out)
        assert rep["verdict"] == "cap-exceeded", argv
        assert rep["details"]["reason"] == f"algebra has {size} elements, cap is 12", argv

    def not_finite(argv, message):
        code = cli.main(["run", *argv])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"lexmv: {message}\n"), argv

    for name in ("make_chain", "make_product"):
        monkeypatch.setattr(finite, name, no_build)
        monkeypatch.setattr(dsl, name, no_build)
    for argv, size in [
        (("ideals", "gamma(Z,100000)"), 100001),
        (("ideals", "gamma(lex(O,Z),(0,100000))"), 100001),
        (("rdp2", "prod(chain(3),prod(chain(2),chain(1)))"), 24),
        (("isomorphic", "--table", str(small), "--other", "gamma(Z,50)"), 51),
        (("check-axioms", "chain(200)"), 201),
        (("check-axioms", "prod(chain(200),chain(1))"), 402),
    ]:
        refused(argv, size)
    # a finite factor beside one that is not finite: the error, no table
    not_finite_q = "1:18: gamma(Q,1) is not a finite algebra"
    for cmd in cli.FINITE_COMMANDS + ("check-axioms",):
        not_finite((cmd, "prod(chain(2000),gamma(Q,1))", "--other", "chain(1)"), not_finite_q)
    not_finite(("check-axioms", "prod(gamma(Z,2000),gamma(lex(Z,Z),(1,0)))"),
               "1:20: gamma(lex(Z,Z),(1,0)) is not a finite algebra")
    # isomorphic builds its first algebra, chain(1), before it reads --other
    monkeypatch.setattr(dsl, "make_chain", lambda n: chain1 if n == 1 else no_build())
    not_finite(("isomorphic", "chain(1)", "--other", "prod(chain(2000),gamma(Q,1))"), not_finite_q)
    monkeypatch.setattr(dsl, "make_chain", no_build)
    # every finite command on every finite path, as its algebra or as
    # isomorphic's --other, just past the cap
    texts = [("chain(12)", 13), ("gamma(Z,12)", 13), ("gamma(lex(O,Z),(0,12))", 13),
             ("prod(chain(3),chain(3))", 16)]
    for text, size in texts:
        refused(("isomorphic", "--table", str(small), "--other", text), size)
    monkeypatch.setattr(finite, "parse_table", no_build)
    for cmd in cli.FINITE_COMMANDS:
        for text, size in texts:
            refused((cmd, text, "--other", "chain(1)"), size)
        refused((cmd, "--table", str(big), "--other", "chain(1)"), 13)
    refused(("check-axioms", "--table", str(big)), 13)


def test_cli_builds_a_finite_gamma_once(capsys, monkeypatch):
    # a finite command's gamma is built once, as an interval algebra, and
    # that algebra is sized against the cap and realized as a table; a
    # prod's gamma leaf too
    calls = []
    build = dsl.build_algebra
    monkeypatch.setattr(dsl, "build_algebra", lambda node: calls.append(node) or build(node))
    for argv, code, builds in [
        (("ideals", "gamma(Z,5)"), 0, 1),
        (("rdp2", "gamma(lex(O,Z),(0,3))"), 0, 1),
        (("ideals", "gamma(Z,100)"), 1, 1),
        (("ideals", "prod(gamma(Z,2),chain(1))"), 0, 1),
        (("isomorphic", "gamma(Z,2)", "--other", "gamma(lex(O,Z),(0,2))"), 0, 2),
    ]:
        calls.clear()
        assert run_cli(capsys, "run", *argv)[0] == code, argv
        assert len(calls) == builds, argv


def test_cli_byte_identical_runs(capsys):
    argv = ("run", "witness", "gamma(lex(Z,Z),(2,1))", "--samples", "50", "--seed", "3")
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed_s" not in json.loads(out1)
    _, timed = run_cli(capsys, *argv, "--with-timing")
    assert "elapsed_s" in json.loads(timed)


def test_cli_json_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "run", "radical", "prod(chain(2),chain(2))", "--json", str(path)
    )
    assert code == 0
    assert path.read_text() == out
    rep = json.loads(out)
    assert rep["details"]["rad"] == ["(0,0)"]


def test_cli_json_to_unwritable_path(tmp_path, capsys):
    # the file is written before stdout, so the error is all that is printed
    missing = tmp_path / "missing" / "x.json"
    code = cli.main(["run", "check-axioms", "gamma(Z,2)", "--json", str(missing)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lexmv: ") and err.count("\n") == 1


def test_cli_lex_commands_refuse_tables_before_build(capsys, monkeypatch, tmp_path):
    def no_build(*args):
        raise AssertionError("a table was built")

    small = tmp_path / "small.tbl"
    small.write_text(finite.format_table(finite.make_chain(2)))
    for name in ("make_chain", "make_product"):
        monkeypatch.setattr(dsl, name, no_build)
    monkeypatch.setattr(finite, "parse_table", no_build)
    for argv in (
        ("witness", "prod(chain(200),chain(1))"),
        ("lexify", "chain(200)"),
        ("classify", "chain(4)", "--elem", "1"),
        ("witness", "--table", str(small)),
    ):
        code = cli.main(["run", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err == "lexmv: this command needs a gamma(lex(...),...) algebra\n", argv


def test_cli_table_input(tmp_path, capsys):
    a = finite.make_product(finite.make_chain(2), finite.make_chain(2))
    path = tmp_path / "alg.tbl"
    path.write_text(finite.format_table(a))
    code, out = run_cli(capsys, "run", "states", "--table", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["count"] == 2
    code, _ = run_cli(capsys, "run", "states", "--table", str(tmp_path / "absent.tbl"))
    assert code == 2


@pytest.mark.parametrize("data", [
    b"\xff\xfe3\n",  # not UTF-8
    "1\n\u0660\n\u0660\n0 0\n".encode(),  # an Arabic-Indic zero
    b"2\n0 +1\n1 1\n1 0\n0 1\n",
    b"1\n0_0\n0\n0 0\n",
], ids=["not-utf8", "arabic-indic-digit", "plus-sign", "underscore"])
def test_cli_table_tokens_are_ascii_integers(tmp_path, capsys, data):
    path = tmp_path / "alg.tbl"
    path.write_bytes(data)
    code = cli.main(["run", "states", "--table", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("lexmv: ") and err.count("\n") == 1
    # the same table spelled with ASCII digits and Unicode spaces is read
    path.write_text("1\u2003\n0\n0\u00a0\n0 0\n", encoding="utf-8")
    assert run_cli(capsys, "run", "states", "--table", str(path))[0] == 0


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    cli.main(["run", "check-axioms", "gamma(Z,2)", "--samples", "1"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        ("check-axioms", "gamma(Z,3)", "--samples", "5"),
        ("ideals", "chain(3)"),
        ("witness", "gamma(lex(Z,Z),(2,1))", "--samples", "5"),
        ("nonsense", "chain(1)"),
        ("check-axioms", "gamma(Z"),
    ):
        cli.main(["run", *argv])
    capsys.readouterr()
    assert built == []


def test_cli_as_a_process():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "lexmv.cli", "run", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = run("check-axioms", "gamma(Z,3)", "--samples", "5")
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["verdict"] == "pass"
    done = run("nonsense", "chain(1)")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage:")


def test_cli_classify(capsys):
    code, out = run_cli(
        capsys, "run", "classify", "gamma(lex(Z,Z),(1,0))", "--elem", "(1,-7)"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["slice"] == "1"
    code, _ = run_cli(capsys, "run", "classify", "gamma(lex(Z,Z),(1,0))")
    assert code == 2


def test_cli_classify_out_of_interval(capsys):
    code = cli.main(["run", "classify", "gamma(lex(Z,Z),(1,0))", "--elem", "(2,0)"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "lexmv: --elem (2,0) outside [0, u] in gamma(lex(Z,Z),(1,0))\n"


def test_cli_lexify_weak(capsys):
    code, out = run_cli(
        capsys, "run", "lexify", "gamma(lex(Z,Z),(2,1))", "--samples", "200"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["b"] == "(0,1)"
    assert rep["details"]["kind"] == "weak"


def test_cli_isomorphic_pass(capsys):
    code, out = run_cli(
        capsys,
        "run",
        "isomorphic",
        "prod(chain(2),chain(3))",
        "--other",
        "prod(chain(3),chain(2))",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["sizes"] == [12, 12]
    code, _ = run_cli(capsys, "run", "isomorphic", "chain(2)")
    assert code == 2


def test_cli_lexid(capsys):
    code, out = run_cli(capsys, "run", "lexid", "prod(chain(2),chain(2))")
    assert code == 0
    assert json.loads(out)["details"]["exists"] is False


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-axioms", "gamma(Z,3)", "--samples", "-3"], "--samples must be >= 0, got -3"),
        (["check-axioms", "gamma(Z,3)", "--bound", "-3"], "--bound must be >= 0, got -3"),
        (["witness", "gamma(lex(Z,Z),(2,1))", "--bound", "-1"], "--bound must be >= 0, got -1"),
        (["ideals", "chain(3)", "--cap", "0"], "--cap must be >= 1, got 0"),
        (["ideals", "chain(3)", "--cap", "-1"], "--cap must be >= 1, got -1"),
    ],
)
def test_cli_rejects_negative_numeric_flags(capsys, argv, message):
    code = cli.main(["run", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"lexmv: {message}\n"


@pytest.mark.parametrize(
    "argv, where, char",
    [
        (["check-axioms", "gamma(Z,²)"], "1:9", "²"),
        (["check-axioms", "chain(¹)"], "1:7", "¹"),
        (["check-axioms", "gamma(Z,٣)"], "1:9", "٣"),
        (["classify", "gamma(lex(Z,Z),(2,0))", "--elem", "(1,³)"], "1:4", "³"),
    ],
)
def test_cli_refuses_non_ascii_digits(capsys, argv, where, char):
    code = cli.main(["run", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"lexmv: {where}: unexpected character {char!r}\n"


# one digit more than int() converts from a string
LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "argv, where",
    [
        (["check-axioms", f"gamma(Z,{LONG})"], "1:9"),
        (["ideals", f"chain({LONG})"], "1:7"),
        (["check-axioms", f"gamma(Q,1/{LONG})"], "1:11"),
    ],
)
def test_cli_refuses_integer_literals_too_long_to_convert(capsys, argv, where):
    code = cli.main(["run", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"lexmv: {where}: Exceeds the limit")
    assert captured.err.count("\n") == 1


def test_parser_nesting_limit(capsys):
    deep = 3000
    text = "gamma(lex(Z,Z)," + "(" * deep + "1" + ",1)" * deep + ")"
    # gamma( is open, so the pair that opens level MAX_NESTING + 1 is number MAX_NESTING
    col = len("gamma(lex(Z,Z),") + dsl.MAX_NESTING
    with pytest.raises(ParseError, match=f"^1:{col}: nesting deeper than"):
        parse(text)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_group("lex(Z," * deep + "Z" + ")" * deep)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse("prod(" * deep + "chain(1)" + ",chain(1))" * deep)
    assert cli.main(["run", "check-axioms", text, "--samples", "5"]) == 2
    assert capsys.readouterr().err.startswith(f"lexmv: 1:{col}: nesting deeper than")
    # the limit itself still parses and builds
    n = dsl.MAX_NESTING - 1
    node = parse("gamma(" + "lex(Z," * n + "Z" + ")" * n + "," + "(1," * n + "0" + ")" * n + ")")
    assert print_ast(node).count("lex(") == n
    build_algebra(node)

"""Property test: every ``cli.main`` call ends in one of the two outcomes.

Either a JSON report on stdout with exit code 0 or 1 and nothing on
stderr, or exit code 2 with nothing on stdout and one ``lexmv: ...`` line
(or argparse's usage text) on stderr.  The calls are drawn from valid and
malformed DSL, flag combinations, ``--table`` files of random bytes and
``--json`` paths: a writable file, which then holds exactly stdout's
bytes, or a directory, which cannot be written.
Uses the ``hypothesis`` test extra.  The search is derandomized, and
--samples, --cap and chain sizes are bounded, so the test is
deterministic and quick.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lexmv import cli, finite  # noqa: E402

# more digits than int() converts by default
HUGE = "1" * 4301
NOISE = st.sampled_from(list("()/,-+_ 0123456789ZQOAfflexgamma") + [
    "\u00e9", "\u00b2", "\u0663", "\u0660", "\u00a0", "\u2003", "\n", "\t", "@", HUGE])

ints = st.integers(-3, 44).map(lambda n: HUGE if n > 40 else str(n))
rats = st.one_of(ints, st.tuples(ints, st.integers(0, 6)).map(lambda p: f"{p[0]}/{p[1]}"))
ELEMS = {
    "Z": ints,
    "Q": rats,
    "O": st.sampled_from(["0", "0", "0", "1"]),
    "Aff": st.tuples(rats, rats).map(lambda p: f"aff({p[0]},{p[1]})"),
}


def lex(parts):
    """lex of two drawn (group, element) pairs."""
    return st.tuples(parts, parts).map(
        lambda p: (f"lex({p[0][0]},{p[1][0]})", f"({p[0][1]},{p[1][1]})"))


# a group and an element of roughly its shape, possibly outside [0, u]
BASE = st.one_of([elems.map(lambda e, k=k: (k, e)) for k, elems in ELEMS.items()])
group_and_unit = st.one_of(BASE, lex(st.one_of(BASE, lex(BASE))))

# algebras that the lex commands, and the other commands, take
LEX = ["gamma(lex(Z,Z),(2,1))", "gamma(lex(Z,Z),(2,0))", "gamma(lex(Z,Aff),(1,aff(2,0)))",
       "gamma(lex(Q,Q),(3/2,0))", "gamma(lex(O,Z),(0,3))", "gamma(lex(lex(Z,Z),Z),((1,0),0))",
       "gamma(lex(Z,lex(Q,Aff)),(1,(0,aff(1,0))))"]
FINITE = ["gamma(Z,4)", "chain(4)", "prod(chain(1),chain(1))", "prod(chain(2),chain(3))",
          "gamma(lex(O,Z),(0,3))"]
chains = st.integers(0, 30).map(lambda n: f"chain({n})")
finite_algebras = st.one_of(chains, st.tuples(chains, chains).map(lambda p: f"prod({p[0]},{p[1]})"))
valid = st.one_of(
    group_and_unit.map(lambda p: f"gamma({p[0]},{p[1]})"),
    finite_algebras,
)


@st.composite
def mangled(draw):
    """A valid expression with one character inserted or deleted."""
    text = draw(valid)
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + draw(NOISE) + text[i:]
    return text[:i] + text[i + 1:]


dsl_text = st.one_of(valid, mangled(), st.lists(NOISE, max_size=12).map("".join))
elem_text = st.one_of(st.sampled_from(["(1,-7)", "(1,5)", "(0,1)", "(0,aff(3,1))", "2"]),
                      group_and_unit.map(lambda p: p[1]),
                      st.lists(NOISE, max_size=8).map("".join))
tables = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([
        finite.format_table(finite.make_chain(2)).encode(),
        "2\u2003\n0\u00a01\n1 1\n1 0\n0 1\n".encode(),
        b"2\n0 +1\n1 1\n1 0\n0 1\n",
        "1\n\u0660\n0\n0 0\n".encode(),
        f"1\n{HUGE}\n0\n0 0\n".encode(),
    ]),
)
# --samples is always given: its default, 1000, would make the search slow
flags = st.fixed_dictionaries({"--samples": st.integers(-1, 50).map(str)}, optional={
    "--seed": st.integers(-5, 1 << 40).map(str),
    "--bound": st.integers(-1, 30).map(str),
    "--cap": st.integers(-1, 20).map(str),
    "--kind": st.sampled_from(["strong", "weak"]),
    "--elem": elem_text,
    "--other": dsl_text,
    "--with-timing": st.none(),
})


@st.composite
def command_and_text(draw):
    """A command and, often, an algebra that it takes."""
    command = draw(st.sampled_from(cli.COMMANDS + ("nonsense",)))
    fitting = LEX if command in cli.LEX_COMMANDS else FINITE
    return command, draw(st.one_of(st.sampled_from(fitting), st.none(), dsl_text))


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    command_text=command_and_text(),
    options=flags,
    table=st.one_of(st.none(), st.none(), tables),
    json_to=st.sampled_from([None, None, "file", "dir"]),
)
@example(command_text=("states", None), options={}, table=b"\xff", json_to=None)
@example(command_text=("ideals", "chain(3)"), options={}, table=None, json_to="file")
@example(command_text=("isomorphic", "chain(2)"), options={"--other": "chain(3)"}, table=None,
         json_to="file")
@example(command_text=("lexify", LEX[0]), options={"--samples": "5"}, table=None, json_to="dir")
def test_cli_ends_in_a_report_or_one_line(tmp_path_factory, command_text, options, table,
                                          json_to):
    command, text = command_text
    argv = ["run", command] + ([text] if text is not None else [])
    for flag, value in options.items():
        argv += [flag] if value is None else [flag, value]
    base = tmp_path_factory.getbasetemp()
    if table is not None:
        path = base / "in.tbl"
        path.write_bytes(table)
        argv += ["--table", str(path)]
    report = base / "out.json"
    report.unlink(missing_ok=True)
    if json_to is not None:
        argv += ["--json", str(report if json_to == "file" else base)]
    code, out, err = call(argv)
    if json_to == "dir" and "Is a directory" not in err:
        # the call fails for another reason before it opens the path
        assert (code, out, err) == call(argv[:-2]) and code == 2
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        one_line = err.startswith("lexmv: ") and err.count("\n") == 1 and err.endswith("\n")
        assert one_line or err.startswith("usage:"), err
    else:
        assert err == ""
        json.loads(out)
        if json_to == "file":
            assert report.read_bytes() == out.encode()
    if json_to == "dir":
        assert code == 2 and out == ""

"""Byte-identity gate for the CLI.

``golden_cli.json`` pins the exit code, stdout and stderr of every
in-process ``cli.main`` call in CASES.  The test only compares; it never
writes the file.  After a deliberate change of output, regenerate it with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the data file.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lexmv import cli

DATA = Path(__file__).with_name("golden_cli.json")

S = ("--samples", "100")

CASES = [
    # check-axioms on every base kind, lex(O,.) heads and nestings up to depth 3
    ["check-axioms", "gamma(O,0)", *S],
    ["check-axioms", "gamma(Z,7)", *S],
    ["check-axioms", "gamma(Q,3/2)", *S],
    ["check-axioms", "gamma(Aff,aff(2,0))", *S],
    ["check-axioms", "gamma(lex(Z,Z),(2,1))", *S],
    ["check-axioms", "gamma(lex(Z,Aff),(1,aff(2,0)))", *S],
    ["check-axioms", "gamma(lex(Q,Q),(3/2,0))", *S],
    ["check-axioms", "gamma(lex(Q,Aff),(1/2,aff(1/2,3)))", *S],
    ["check-axioms", "gamma(lex(O,Z),(0,3))", *S],
    ["check-axioms", "gamma(lex(O,Aff),(0,aff(2,1)))", *S],
    ["check-axioms", "gamma(lex(O,O),(0,0))", *S],
    ["check-axioms", "gamma(lex(Z,lex(Q,Aff)),(1,(0,aff(2,0))))", *S],
    ["check-axioms", "gamma(lex(lex(Z,Q),Z),((1,1/2),-3))", *S, "--seed", "3"],
    ["check-axioms", "gamma(lex(Z,lex(Z,lex(Z,Z))),(2,(0,(1,-1))))", *S, "--bound", "4"],
    ["check-axioms", "chain(4)", *S],
    ["check-axioms", "prod(chain(1),chain(2))", *S],
    # classify
    ["classify", "gamma(lex(Z,Z),(1,0))", "--elem", "(1,-7)", *S],
    ["classify", "gamma(lex(Z,Z),(2,1))", "--elem", "(1,5)", *S],
    ["classify", "gamma(lex(lex(Z,Z),Q),((1,0),0))", "--elem", "((0,3),1/2)", *S],
    ["classify", "gamma(lex(O,Q),(0,2))", "--elem", "(0,1)", *S],
    ["classify", "gamma(lex(Z,Aff),(1,aff(2,0)))", "--elem", "(0,aff(3,1))", "--kind", "weak", *S],
    # witness, strong and weak, default and --kind
    ["witness", "gamma(lex(Z,Z),(2,0))", *S],
    ["witness", "gamma(lex(Z,Z),(2,1))", *S],
    ["witness", "gamma(lex(Z,Z),(2,0))", "--kind", "weak", *S],
    ["witness", "gamma(lex(Q,Aff),(1,aff(1,0)))", *S],
    ["witness", "gamma(lex(Z,Aff),(1,aff(2,0)))", *S, "--seed", "5"],
    ["witness", "gamma(lex(lex(Z,Z),Z),((1,0),0))", *S],
    ["witness", "gamma(lex(O,Z),(0,3))", *S],
    ["witness", "gamma(lex(Z,lex(Q,Aff)),(1,(0,aff(1,0))))", *S, "--seed", "3"],
    # lexify
    ["lexify", "gamma(lex(Z,Z),(2,1))", *S],
    ["lexify", "gamma(lex(Z,Z),(2,0))", "--kind", "weak", *S],
    ["lexify", "gamma(lex(Q,Q),(3/2,0))", *S],
    ["lexify", "gamma(lex(Z,Aff),(1,aff(2,0)))", *S],
    ["lexify", "gamma(lex(lex(O,Z),Z),((0,2),0))", *S],
    ["lexify", "gamma(lex(Z,lex(Z,Z)),(1,(1,0)))", *S],
    ["lexify", "gamma(lex(O,Z),(0,3))", *S],
    # the finite commands, the cap, and isomorphic
    ["ideals", "chain(3)", *S],
    ["ideals", "prod(chain(1),chain(2))", *S],
    ["ideals", "gamma(Z,4)", *S],
    ["radical", "prod(chain(2),chain(2))", *S],
    ["states", "prod(chain(1),chain(1))", *S],
    ["retractive", "prod(chain(1),chain(2))", *S],
    ["lexid", "chain(3)", *S],
    ["rdp2", "prod(chain(1),chain(1))", *S],
    ["isomorphic", "prod(chain(2),chain(3))", "--other", "prod(chain(3),chain(2))", *S],
    ["isomorphic", "chain(2)", "--other", "chain(3)", *S],
    ["ideals", "chain(20)", *S],
    ["rdp2", "prod(chain(3),chain(4))", "--cap", "19", *S],
    ["states", "gamma(Z,30)", "--cap", "40", *S],
    # parse and usage rejects
    ["check-axioms", "gamma(Z", *S],
    ["check-axioms", "gamma(W,1)", *S],
    ["nonsense", "chain(4)"],
    ["check-axioms", *S],
    ["check-axioms", "gamma(Z,3)", "--samples", "-3"],
    ["ideals", "chain(3)", "--cap", "0"],
    ["classify", "gamma(lex(Z,Z),(1,0))", *S],
    ["classify", "chain(4)", "--elem", "1", *S],
    ["classify", "gamma(lex(Z,Z),(1,0))", "--elem", "1/2", *S],
    ["classify", "gamma(lex(Z,Z),(1,0))", "--elem", "(2,0)", *S],
    ["isomorphic", "chain(2)", *S],
    ["ideals", "gamma(lex(Z,Z),(1,0))", *S],
    # semantic errors and impossible witnesses, exit 2
    ["check-axioms", "gamma(Z,0)", *S],
    ["check-axioms", "gamma(Z,-3)", *S],
    ["check-axioms", "gamma(Z,1/2)", *S],
    ["check-axioms", "gamma(Q,0)", *S],
    ["check-axioms", "gamma(O,1)", *S],
    ["check-axioms", "gamma(Aff,aff(1,2))", *S],
    ["check-axioms", "gamma(Aff,aff(1/2,0))", *S],
    ["check-axioms", "gamma(Aff,aff(0,1))", *S],
    ["check-axioms", "gamma(lex(Z,Z),(-1,0))", *S],
    ["check-axioms", "gamma(lex(Z,Z),(0,5))", *S],
    ["check-axioms", "gamma(lex(lex(O,Z),Q),((0,0),1))", *S],
    ["witness", "gamma(lex(Z,Z),(2,1))", "--kind", "strong", *S],
    ["witness", "gamma(lex(Z,Z),(2,-1))", *S],
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", *argv])
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_golden():
    golden = json.loads(DATA.read_text())
    assert [g["argv"] for g in golden] == CASES, "golden_cli.json is stale: regenerate it"
    changed = [g["argv"] for g in golden if run(g["argv"]) != g]
    assert not changed, changed


if __name__ == "__main__":
    DATA.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")

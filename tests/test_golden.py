"""Byte-identity gates for the CLI and the sampled suites.

``golden_cli.json`` pins the exit code, stdout and stderr of every
in-process ``cli.main`` call in CASES.  ``golden_suites.json`` pins the
canonical JSON of every sampled suite called directly: the eight suites on
the catalog algebras, some deliberately broken inputs, and every report
of the mutation suite, so that failing reports are pinned as well.  The
tests only compare; they never write the files.  After a deliberate
change of output, regenerate both with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the data files.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from harness import head_zero
from lexmv import axioms, cli, dsl
from lexmv import witnesses as W
from lexmv.reports import canonical_json

DATA = Path(__file__).with_name("golden_cli.json")
SUITE_DATA = Path(__file__).with_name("golden_suites.json")

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
    # zero sampled instances: vacuous, exit 1
    ["check-axioms", "gamma(Z,3)", "--samples", "0"],
    ["witness", "gamma(lex(Z,Z),(2,1))", "--samples", "0"],
    ["lexify", "gamma(lex(Z,Z),(2,1))", "--samples", "0"],
    # parse errors: a missing "(", "," or ")" in each argument list
    ["check-axioms", "gamma(lex Z,Z),(1,0))", *S],
    ["check-axioms", "gamma(lex(Z Z),(1,0))", *S],
    ["check-axioms", "gamma(lex(Z,Z,(1,0))", *S],
    ["classify", "gamma(lex(Z,Z),(2,0))", "--elem", "1,0)", *S],
    ["classify", "gamma(lex(Z,Z),(2,0))", "--elem", "(1 0)", *S],
    ["classify", "gamma(lex(Z,Z),(2,0))", "--elem", "(1,0", *S],
    ["check-axioms", "gamma(Aff,aff 2,0))", *S],
    ["check-axioms", "gamma(Aff,aff(2 0))", *S],
    ["check-axioms", "gamma(Aff,aff(2,0)", *S],
    ["check-axioms", "gamma Z,1)", *S],
    ["check-axioms", "gamma(Z 1)", *S],
    ["check-axioms", "gamma(Z,1", *S],
    ["check-axioms", "chain 3)", *S],
    ["check-axioms", "chain(3,4)", *S],
    ["check-axioms", "chain(3", *S],
    ["check-axioms", "prod chain(1),chain(2))", *S],
    ["check-axioms", "prod(chain(1) chain(2))", *S],
    ["check-axioms", "prod(chain(1),chain(2)", *S],
    # parse errors: bad characters and numbers, trailing input, line 2, nesting
    ["check-axioms", "gamma(Z,-)", *S],
    ["check-axioms", "gamma(Z,@)", *S],
    ["check-axioms", "gamma(Q,1/0)", *S],
    ["check-axioms", "chain(0)", *S],
    ["check-axioms", "chain(2) chain(3)", *S],
    ["check-axioms", "gamma(Q,\r\n\t1/)", *S],
    ["check-axioms", "gamma(Z," + "(" * 100 + "1" + ",0)" * 100 + ")", *S],
    # error precedence: which of two faults in one call is reported
    ["classify", "gamma(lex(Z,Z),(2,-1))", *S],
    ["classify", "gamma(lex(Z,Z),(2,1))", "--kind", "strong", "--elem", "(9,0)", *S],
    ["classify", "gamma(Z,3)", "--elem", "1", *S],
    ["lexify", "gamma(lex(Z,Z),(2,1))", "--kind", "strong", *S],
    ["ideals", "chain(3)", "--elem", "1", "--other", "chain(2)", "--kind", "weak", *S],
    ["isomorphic", "chain(20)", *S],
    ["witness", "prod(chain(1),chain(1))", *S],
    # finiteness: the first non-finite factor, true columns, no table past the cap
    ["ideals", "prod(gamma(Q,1),gamma(Z,0))", *S],
    ["ideals", "  gamma(Q,1)", *S],
    ["isomorphic", "chain(1)", "--other", " gamma(Q,1)", *S],
    ["ideals", "prod(chain(200),gamma(Q,1))", *S],
    ["check-axioms", "prod(prod(gamma(Q,1),chain(1)),gamma(Z,0))", *S],
]


CATALOG = {
    "Z7": "gamma(Z,7)",
    "Q3-2": "gamma(Q,3/2)",
    "Aff2": "gamma(Aff,aff(2,0))",
    "ZxZ21": "gamma(lex(Z,Z),(2,1))",
    "ZxAff": "gamma(lex(Z,Aff),(1,aff(2,0)))",
    "ZxZ20": "gamma(lex(Z,Z),(2,0))",
    "QxQ": "gamma(lex(Q,Q),(3/2,0))",
}
LEX = ("ZxZ21", "ZxAff", "ZxZ20", "QxQ")
N = 100


def suite_reports() -> dict:
    """name -> canonical JSON of each pinned suite report."""
    alg = {k: dsl.build_algebra(dsl.parse(v)) for k, v in CATALOG.items()}
    out = {}
    for k, a in alg.items():
        for fn in (axioms.axiom_report, axioms.pea_equivalence_report, axioms.partial_sum_report):
            out[f"{fn.__name__}/{k}"] = fn(a, N, 1)
    for k in ("Z7", "Q3-2"):
        out[f"state_report/{k}"] = W.state_report(alg[k], W.unique_state(alg[k]), N, 2)
    for k in LEX:
        la = W.LexAlgebra.from_algebra(alg[k])
        w = W.canonical_witness(la, "strong" if la.zero_offset else "weak")
        out[f"check_decomposition/{k}"] = W.check_decomposition(w, N, 3)
        out[f"check_cyclic/{k}"] = W.check_cyclic(w, N, 3)
        out[f"theorem_suite/{k}"] = W.theorem_suite(w, N, 4)
        out[f"verify_hom/phi/{k}"] = W.verify_hom(W.build_phi(w), N, 5)
        if la.zero_offset:
            out[f"state_report/{k}"] = W.state_report(
                la.algebra, W.state_on_lex(la), N, 7, vanishes_on=head_zero)
            out[f"verify_hom/quotient/{k}"] = W.verify_hom(
                W.quotient_to_base(la), N, 8, check_injective=False)
    # broken inputs, each failing a clause that the mutation suite does not reach
    la = W.LexAlgebra.from_algebra(alg["ZxZ20"])
    w = W.canonical_witness(la, "strong")
    shifted = W.PerfectWitness(la, lambda x: min(x.value[0] + 1, 2), w.family, "strong")
    constant = W.PerfectWitness(la, lambda x: 0, w.family, "strong")
    out["theorem_suite/indexer-shift"] = W.theorem_suite(shifted, N, 9)
    out["theorem_suite/indexer-constant"] = W.theorem_suite(constant, N, 9)
    s = W.state_on_lex(la)
    out["state_report/zero"] = W.state_report(la.algebra, lambda x: Fraction(0), N, 10)
    tail_squared = lambda x: s(x) + x.value[1] ** 2
    out["state_report/tail-squared"] = W.state_report(la.algebra, tail_squared, N, 10)
    everything = lambda x: True
    out["state_report/vanishes"] = W.state_report(la.algebra, s, N, 10, vanishes_on=everything)
    z2 = dsl.build_algebra(dsl.parse("gamma(Z,2)"))
    jump = W.Mapping(z2, z2, lambda x: z2.elem(2 if x.value else 0), description="jump")
    out["verify_hom/jump"] = W.verify_hom(jump, N, 11)
    for seed in (7, 104):
        for name, rep in W.mutation_suite(seed=seed):
            out[f"mutation_suite/{seed}/{name}"] = rep
    return {k: canonical_json(rep) for k, rep in out.items()}


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


def test_suite_output_matches_golden():
    golden = json.loads(SUITE_DATA.read_text())
    now = suite_reports()
    assert sorted(golden) == sorted(now), "golden_suites.json is stale: regenerate it"
    changed = [k for k in golden if now[k] != golden[k]]
    assert not changed, changed


if __name__ == "__main__":
    DATA.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
    SUITE_DATA.write_text(json.dumps(suite_reports(), indent=1) + "\n")

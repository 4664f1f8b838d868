"""The one suite runner: verdicts at zero samples, one draw per sample, the
exits of the commands that run several clause tables in one loop, and the
set of passed parts that skips repeated draws."""

import dataclasses
import json
import random

import pytest

from harness import head_zero, under_both_runners
from lexmv import cli, dsl, reports, witnesses
from lexmv import groups as gr
from lexmv.axioms import axiom_report, partial_sum_report, pea_equivalence_report
from lexmv.reports import run_suite
from lexmv.witnesses import (
    LexAlgebra,
    PerfectWitness,
    build_phi,
    canonical_witness,
    check_cyclic,
    check_decomposition,
    check_witness,
    mutation_suite,
    quotient_to_base,
    state_on_lex,
    state_report,
    theorem_suite,
    unique_state,
    verify_hom,
)

L20 = LexAlgebra(gr.UnitalGroup(gr.Z, 2), gr.Z, 0)
W20 = canonical_witness(L20, "strong")

SUITES = {
    "axiom_report": lambda n: axiom_report(L20.algebra, n),
    "pea_equivalence_report": lambda n: pea_equivalence_report(L20.algebra, n),
    "partial_sum_report": lambda n: partial_sum_report(L20.algebra, n),
    "check_decomposition": lambda n: check_decomposition(W20, n),
    "check_cyclic": lambda n: check_cyclic(W20, n),
    "theorem_suite": lambda n: theorem_suite(W20, n),
    "verify_hom": lambda n: verify_hom(build_phi(W20), n),
    "state_report": lambda n: state_report(L20.algebra, state_on_lex(L20), n),
}


@pytest.mark.parametrize("name", SUITES)
def test_zero_samples_are_vacuous(name):
    rep = SUITES[name](0)
    assert rep.verdict == "vacuous" and not rep.ok, name
    assert rep.counterexamples == [] and rep.samples == 0
    assert SUITES[name](1).verdict == "pass"


def test_theorem_suite_sub_verdicts_at_zero_samples():
    rep = theorem_suite(W20, 0)
    assert rep.details["v-state"] == rep.details["vii-quotient"] == "vacuous"


def test_failed_one_off_check_fails_at_zero_samples():
    verdicts = {name: rep.verdict for name, rep in mutation_suite(seed=0, samples=0)}
    assert verdicts == {
        "indexer-shift": "vacuous",
        "indexer-constant": "vacuous",
        "family-noise": "vacuous",
        "family-nonzero-origin": "fail",
        "theta-drop-offset": "fail",
        "strong-kind-on-weak": "fail",
    }


def test_theorem_suite_reports_the_decomposition_failure():
    # the indexer-shift mutant of mutation_suite
    w = canonical_witness(LexAlgebra(gr.UnitalGroup(gr.Z, 1), gr.Z, 0), "strong")
    bad = PerfectWitness(w.lexalg, lambda x: min(x.value[0] + 1, 1), w.family, "strong")
    for seed in (0, 7, 104):
        dec = check_decomposition(bad, 400, seed)
        thm = theorem_suite(bad, 400, seed)
        assert dec.verdict == thm.verdict == "fail"
        assert thm.counterexamples == dec.counterexamples
        assert dict(mutation_suite(seed))["indexer-shift"].counterexamples == dec.counterexamples


def test_one_draw_per_sample(monkeypatch):
    # theorem_suite draws x, y, i, j and t once per sample for all its
    # tables, and the witness command x, y, v and t
    calls = []
    for name in ("sample_elem", "sample_zero_slice"):
        real = getattr(witnesses, name)
        monkeypatch.setattr(witnesses, name, lambda *a, real=real: calls.append(1) or real(*a))
    for text in ("gamma(lex(Z,Z),(2,0))", "gamma(lex(Z,Z),(2,1))"):
        la = LexAlgebra.from_algebra(dsl.build_algebra(dsl.parse(text)))
        w = canonical_witness(la, "strong" if la.zero_offset else "weak")
        calls.clear()
        assert theorem_suite(w, 30).ok, text
        assert len(calls) == 5 * 30, text
        calls.clear()
        assert cli.main(["run", "witness", text, "--samples", "30"]) == 0, text
        assert len(calls) == 4 * 30, text


# the cyclic family mutants of mutation_suite, as tails of c_t on Gamma(Z lex Z,(2,1)):
# the clause each fails, and the verdict at zero samples
BROKEN_FAMILIES = {
    "family-noise": (lambda t: min(t, 1), "ii-additivity", "vacuous"),
    "family-nonzero-origin": (lambda t: 1 if t == 0 else 0, "origin", "fail"),
}


@pytest.mark.parametrize("name", BROKEN_FAMILIES)
def test_witness_command_fails_on_a_broken_family(monkeypatch, capsys, name):
    tail, clause, at_zero = BROKEN_FAMILIES[name]
    canonical = cli.canonical_witness
    monkeypatch.setattr(cli, "canonical_witness", lambda la, kind: dataclasses.replace(
        canonical(la, kind), family=lambda t: la.algebra.elem((t, tail(t)))))
    for samples, verdict in (("100", "fail"), ("0", at_zero)):
        assert cli.main(["run", "witness", "gamma(lex(Z,Z),(2,1))", "--samples", samples]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == verdict and rep["details"]["kind"] == "weak"
        if verdict == "fail":
            assert [c["clause"] for c in rep["counterexamples"]] == [clause]
            # a stopped loop vouches for neither table
            assert "decomposition" not in rep["details"] and "cyclic" not in rep["details"]
        else:
            assert rep["details"]["decomposition"] == rep["details"]["cyclic"] == verdict


def test_monotone_witness_names_the_lower_slice_first():
    # an order-reversing indexer breaks (a) in both directions
    rev = PerfectWitness(L20, lambda x: 2 - x.value[0], W20.family, "strong")
    seen = 0
    for seed in range(20):
        cex = check_decomposition(rev, 100, seed).counterexamples[0]
        if cex["clause"] == "a-monotone":
            low, high = (L20.algebra.elem(dsl.build_elem(L20.spec, dsl.parse_elem(e)))
                         for e in cex["witness"])
            assert rev.indexer(low) < rev.indexer(high), (seed, cex)
            seen += 1
    assert seen


def test_indexer_values_are_shape_checked_where_they_enter(monkeypatch):
    # a witness's indexer is outside input: a value of the wrong shape (1 is
    # no element of O) raises ShapeError, not an index-range failure
    la = LexAlgebra.from_algebra(dsl.build_algebra(dsl.parse("gamma(lex(O,Z),(0,3))")))
    w = canonical_witness(la, "weak")
    bad = PerfectWitness(la, lambda x: x.value[0] + 1, w.family, "weak")
    with pytest.raises(gr.ShapeError):
        check_decomposition(bad, 50)
    with pytest.raises(gr.ShapeError):
        theorem_suite(bad, 50)
    # theorem_suite's own rows check too, with the decomposition table emptied
    built = _empty_decomposition(monkeypatch)
    with pytest.raises(gr.ShapeError):
        theorem_suite(bad, 50)
    assert built == [bad]


def _empty_decomposition(monkeypatch) -> list:
    """Give theorem_suite a decomposition table with no clauses; the list
    returned collects the witnesses it was built for."""
    built = []
    monkeypatch.setattr(witnesses, "_decomposition_table",
                        lambda w: built.append(w) or (lambda *p: p, (), ()))
    return built


DECOMPOSITION_CLAUSES = {name for name, _ in witnesses._decomposition_table(W20)[1]}


def _shifted_indexer(monkeypatch):
    # the decomposition table fails first, so it is emptied; then two
    # head-zero elements sum outside the shifted M_0
    w = PerfectWitness(L20, lambda x: min(x.value[0] + 1, 2), W20.family, "strong")
    assert theorem_suite(w, 100).counterexamples[0]["clause"] in DECOMPOSITION_CLAUSES
    _empty_decomposition(monkeypatch)
    return w


def _halved_state(monkeypatch):
    s = state_on_lex(L20)
    monkeypatch.setattr(witnesses, "state_on_lex", lambda la: lambda x: s(x) / 2)
    return W20


def _shifted_quotient(monkeypatch):
    base = L20.base_algebra
    shifted = dataclasses.replace(witnesses.quotient_to_base(L20),
                                  fn=lambda x: base.elem(min(x.value[0] + 1, 2)))
    monkeypatch.setattr(witnesses, "quotient_to_base", lambda la: shifted)
    return W20


# theorem_suite's own fail exits, past the decomposition: its own rows, the
# state and the quotient tables, each with the clause that fires and the
# detail that a run that did not fail would have recorded
THEOREM_EXITS = [
    (_shifted_indexer, "vi-sum-closed", "v-state"),
    (_halved_state, "normalization", "v-state"),
    (_shifted_quotient, "zero", "vii-quotient"),
]


@pytest.mark.parametrize("broken, clause, part", THEOREM_EXITS)
def test_theorem_suite_fails_at_each_of_its_own_exits(monkeypatch, broken, clause, part):
    w = broken(monkeypatch)
    rep = theorem_suite(w, 100)
    assert rep.verdict == "fail"
    assert [c["clause"] for c in rep.counterexamples] == [clause]
    assert part not in rep.details and "algebra" not in rep.details
    got, want = under_both_runners(lambda: theorem_suite(w, 100))
    assert got == want


# ---------------------------------------------------------------------------
# The runner's set of passed parts, against its twin that checks every draw

CATALOG = {
    "Z7": "gamma(Z,7)",
    "Q3-2": "gamma(Q,3/2)",
    "Aff2": "gamma(Aff,aff(2,0))",
    "ZxZ21": "gamma(lex(Z,Z),(2,1))",
    "ZxAff": "gamma(lex(Z,Aff),(1,aff(2,0)))",
    "ZxZ20": "gamma(lex(Z,Z),(2,0))",
    "QxQ": "gamma(lex(Q,Q),(3/2,0))",
}


def _sampled_suites(alg) -> dict:
    """Every sampled suite that applies to alg, each a function of the seed."""
    n = 100
    suites = {
        "axiom_report": lambda s: axiom_report(alg, n, s),
        "partial_sum_report": lambda s: partial_sum_report(alg, n, s),
        "pea_equivalence_report": lambda s: pea_equivalence_report(alg, n, s),
    }
    if alg.spec.kind != "lex":
        if alg.ops.state(alg.unit) is not None:
            suites["state_report"] = lambda s: state_report(alg, unique_state(alg), n, s)
        return suites
    la = LexAlgebra.from_algebra(alg)
    w = canonical_witness(la, "strong" if la.zero_offset else "weak")
    suites.update({
        "check_decomposition": lambda s: check_decomposition(w, n, s),
        "check_cyclic": lambda s: check_cyclic(w, n, s),
        "check_witness": lambda s: check_witness(w, n, s),
        "theorem_suite": lambda s: theorem_suite(w, n, s),
        "verify_hom_phi": lambda s: verify_hom(build_phi(w), n, s),
    })
    if la.zero_offset:
        suites["verify_hom_quotient"] = lambda s: verify_hom(quotient_to_base(la), n, s,
                                                             check_injective=False)
        suites["state_report"] = lambda s: state_report(alg, state_on_lex(la), n, s,
                                                        vanishes_on=head_zero)
    return suites


@pytest.mark.parametrize("name", CATALOG)
def test_sampled_suites_match_the_runner_twin(name):
    # the skipped repeats change no report: same verdict, witness and details
    alg = dsl.build_algebra(dsl.parse(CATALOG[name]))
    for suite, run in _sampled_suites(alg).items():
        for seed in range(10):
            got, want = under_both_runners(lambda: run(seed))
            assert got == want, (name, suite, seed)


def test_mutation_suite_matches_the_runner_twin():
    for seed in (0, 7):
        got, want = under_both_runners(lambda: mutation_suite(seed))
        assert got == want and all('"verdict": "fail"' in rep for _, rep in got), seed


def _counting_suite(samples: int, seed: int = 5):
    """run_suite on a draw from six tuples, with a clause that records the
    parts it checks; returns (report, draws, checked)."""
    draws, checked = [], []

    def draw(rng):
        draws.append((rng.randrange(3), rng.randrange(2)))
        return draws[-1]

    table = (lambda *p: p, [("count", lambda *p: checked.append(p))], ())
    return run_suite("count", samples, seed, draw, [table]), draws, checked


def test_run_suite_checks_each_distinct_sample_once(monkeypatch):
    rep, draws, checked = _counting_suite(100)
    assert rep.ok and len(draws) == 100 and len(set(draws)) == 6
    assert sorted(checked) == sorted(set(draws))
    # the same rng stream as a runner that checks every draw
    ref = random.Random(5)
    assert draws == [(ref.randrange(3), ref.randrange(2)) for _ in range(100)]
    # past the bound, the stored parts are still skipped and new ones checked
    monkeypatch.setattr(reports, "SEEN_BOUND", 2)
    rep, draws, checked = _counting_suite(100)
    assert rep.ok and len(draws) == 100
    stored = list(dict.fromkeys(draws))[:2]
    assert all(checked.count(p) == 1 for p in stored)
    assert all(checked.count(p) == draws.count(p) > 1 for p in set(draws) - set(stored))

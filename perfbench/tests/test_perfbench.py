"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import answers, probes, run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import (MODULES, WORKLOADS, Request, failures,  # noqa: E402
                                 import_lexmv, run_pass)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_checker_flags_wrong_verdict_and_escaped_exception():
    L = import_lexmv()
    reqs = WORKLOADS["sampled-catalog"](L, 0).next_pass()[:3]

    def boom():
        raise L.algebra.IntervalError("escaped")

    reqs[1] = Request(reqs[1].family, reqs[1].label,
                      lambda: L.reports.Report("check-axioms", "fail"), reqs[1].check)
    reqs[2] = Request(reqs[2].family, reqs[2].label, boom, reqs[2].check)
    lat, _, outs = run_pass(reqs)
    bad = failures(reqs, outs)
    assert [r for r, _ in bad] == reqs[1:]
    assert "expected 'pass'" in bad[0][1]
    assert bad[1][1].startswith("raised IntervalError")
    assert len(lat) == 3


def test_cli_checker_flags_wrong_exit_and_traceback():
    usage = {"exit": 2, "verdict": None}
    assert answers.check_cli((2, "", "lexmv: bad\n"), usage) is None
    assert answers.check_cli((1, "", "lexmv: bad\n"), usage)
    assert answers.check_cli((2, "", "Traceback (most recent call last):\n"), usage)
    passing = {"exit": 0, "verdict": "pass", "fields": {"kind": "weak"}}
    report = json.dumps({"verdict": "pass", "details": {"kind": "strong"}})
    assert "kind" in answers.check_cli((0, report, ""), passing)


def test_known_answer_rules_match_the_hand_written_catalog():
    for key, want in answers.KNOWN["finite_catalog"].items():
        f = want["factors"]
        assert answers.size_of(f) == want["size"], key
        assert 2 ** len(f) == want["ideals"] and len(f) == want["maximal"], key
        if "retractive_proper" in want:
            assert answers.retractive_proper(f) == want["retractive_proper"], key
    for pair in answers.KNOWN["finite_iso_pairs"]:
        assert pair["right"].count("chain(") in (1, 2)


def test_every_name_matches_the_grammar():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(UNIT.fullmatch(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    assert len(BENCH["end_to_end"]) <= 8 and len(BENCH["per_layer"]) <= 128
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == probes.LAYER_METRICS
    assert set(WORKLOADS) == {w["name"] for w in BENCH["workloads"]}
    metrics, _ = run.end_to_end(0.1, [1.0, 1.2], [i / 1e3 for i in range(1, 40)])
    assert [(k, u) for k, (_, u) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]


def test_traced_self_times_sum_to_no_more_than_wall():
    L = import_lexmv()
    for name, cls in WORKLOADS.items():
        reqs = cls(L, 7).next_pass()[:6]
        tracer = Tracer(L, MODULES)
        tracer.install()
        try:
            norm, wall, outs = run_pass(reqs, tracer)
        finally:
            tracer.uninstall()
        assert not failures(reqs, outs), name
        assert sum(tracer.self_s[m] for m in MODULES) <= wall, name
        # normalized like the pass, as run.py reports them
        assert 0 < sum(tracer.norm_self_s[m] for m in MODULES) <= sum(norm), name
        assert sum(tracer.calls.values()) > 0, name
        spans = tracer.spans
        assert all(s is not None and s[1] <= s[2] and s[3] < i for i, s in enumerate(spans)), name
    assert L.cli.axiom_report is L.axioms.axiom_report
    assert not hasattr(L.groups.g_add, "__wrapped__")


def test_short_run_prints_every_metric(capsys):
    assert run.main(["--workload", "cli-mixed", "--seed", "3", "--seconds", "0.5"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 25
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(BENCH["command"] + ["--workload", "cli-mixed", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_flags_incorrect_runs_and_more_failures(tmp_path, capsys):
    from perfbench import compare

    def record(failed, correct=True):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        return json.dumps({"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics,
                           "workload": "cli-mixed", "trace": 0, "machine": "m", "nproc": 2,
                           "python": "3", "commit": "c"})

    def write(name, *records):
        path = tmp_path / name
        path.write_text("\n".join(records) + "\n")
        return str(path)

    base = write("base.jsonl", record(0), record(0))
    assert compare.main([base, write("same.jsonl", record(0), record(0))]) == 0
    assert compare.main([base, write("more.jsonl", record(0), record(1, correct=False))]) == 1
    out = capsys.readouterr().out
    assert "MORE FAILURES" in out and "INCORRECT" in out and "1 of 200" in out

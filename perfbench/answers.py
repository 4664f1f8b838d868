"""Known answers and the checks that compare lexmv's outputs against them.

The expected values live in known_answers.json, written by hand.  The
rules here turn a seeded input's description (its chain factors, its
unit, the element it classifies) into the expected answer; they never
call lexmv to decide what the answer should be.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

KNOWN = json.loads((Path(__file__).with_name("known_answers.json")).read_text())
EXIT = KNOWN["exit_codes"]


def fmt_rat(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


# ---------------------------------------------------------------------------
# Products of finite chains; factors are the n of each chain(n) factor


def size_of(factors) -> int:
    out = 1
    for a in factors:
        out *= a + 1
    return out


def retractive_proper(factors) -> int:
    """Proper ideals that are retractive: killing the factor set S needs a
    homomorphism into every killed chain(a_j) from some kept chain(a_i),
    which exists iff a_i divides a_j.  S empty always qualifies."""
    idx = range(len(factors))
    count = 0
    for r in range(len(factors)):
        for killed in combinations(idx, r):
            kept = [i for i in idx if i not in killed]
            if all(any(factors[j] % factors[i] == 0 for i in kept) for j in killed):
                count += 1
    return count


def finite_report_ok(cmd: str, factors, rep: dict) -> bool:
    """The details of a finite command's JSON report on a product of chains."""
    d, k = rep["details"], len(factors)
    if cmd == "ideals":
        return (d["count"] == 2 ** k and sum(i["maximal"] for i in d["ideals"]) == k
                and all(i["normal"] for i in d["ideals"]))
    if cmd == "radical":
        return all(len(d[m]) == 1 for m in ("rad", "rad_n", "infinit"))
    if cmd == "states":
        return d["count"] == k
    if cmd == "retractive":
        want = retractive_proper(factors)
        return (sum(r["retractive"] for r in d["ideals"]) == want
                and sum(r["complement"] for r in d["ideals"]) == want + 1)
    if cmd == "lexid":
        return d["exists"] is False
    return True  # rdp2: the verdict says it all


# ---------------------------------------------------------------------------
# Table-level checks that use only the tables, never lexmv's own operations


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def state_ok(a, values) -> bool:
    """s(1) = 1, s(0) = 0, and s(x (+) y) = s(x) + s(y) wherever x (.) y = 0."""
    op, ng = a.oplus, a.neg
    if values[a.one] != 1 or values[a.zero] != 0:
        return False
    for x in range(a.size):
        for y in range(a.size):
            if ng[op[ng[x]][ng[y]]] == a.zero and values[op[x][y]] != values[x] + values[y]:
                return False
    return True


def bijection_ok(a, b, f) -> bool:
    if f is None or sorted(f) != list(range(b.size)) or f[a.zero] != b.zero:
        return False
    return all(
        f[a.oplus[x][y]] == b.oplus[f[x]][f[y]] for x in range(a.size) for y in range(a.size)
    ) and all(f[a.neg[x]] == b.neg[f[x]] for x in range(a.size))


# ---------------------------------------------------------------------------
# CLI outcomes


def check_cli(outcome, expect) -> str | None:
    """outcome = (exit code, stdout, stderr); expect = dict with "exit",
    "verdict" (None when no report may be printed), optional "fields"
    (top-level or details keys) and optional "test" (report -> bool)."""
    rc, out, err = outcome
    if rc != expect["exit"]:
        return f"exit {rc}, expected {expect['exit']}"
    if expect["verdict"] is None:
        if out or not err.startswith("lexmv: ") or "Traceback" in err:
            return "expected a one-line error and no report"
        return None
    try:
        rep = json.loads(out)
    except ValueError:
        return "stdout is not a JSON report"
    if rep.get("verdict") != expect["verdict"]:
        return f"verdict {rep.get('verdict')!r}, expected {expect['verdict']!r}"
    for key, want in expect.get("fields", {}).items():
        got = rep.get(key, rep.get("details", {}).get(key))
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
    test = expect.get("test")
    if test is not None and not test(rep):
        return "report contents differ from the known answer"
    return None


def defect_expectations():
    """(name, argv, expect) for each known defect, in check_cli's terms."""
    out = []
    for d in KNOWN["known_defects"]:
        e = d["expected"]
        verdict = e.get("verdict") if e.get("report", True) else None
        out.append((d["name"], d["argv"], {"exit": e["exit"], "verdict": verdict}))
    return out

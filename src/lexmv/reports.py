"""Structured check reports, the one sampled-suite loop, and canonical JSON.

Reports are byte-stable: identical inputs and seed serialize identically.
Wall-clock timing is recorded on the object but excluded from the
canonical form (it would break byte-identity across runs); pass
``include_timing=True`` to embed it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class Report:
    command: str
    verdict: str  # "pass" | "fail" | "vacuous" | "error" | "cap-exceeded"
    seed: int | None = None
    samples: int | None = None
    details: dict = field(default_factory=dict)
    counterexamples: list = field(default_factory=list)
    elapsed: float | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def fail(self, clause: str, witness) -> "Report":
        self.verdict = "fail"
        self.counterexamples.append({"clause": clause, "witness": witness})
        return self


# the most part tuples one run_suite call stores; past it the set only answers
SEEN_BOUND = 4096


def run_suite(command: str, samples: int, seed: int, draw: Callable[[random.Random], tuple],
              tables: Sequence[tuple], **details) -> Report:
    """The one loop of every sampled suite: one draw and its clause tables.

    ``draw(rng)`` returns one sample's parts, a hashable tuple.  A table is
    ``(derive, clauses, once)``: ``derive(*parts)`` returns the arguments
    of its clauses, and a clause is ``(name, bad)``, where ``bad(*args)``
    is falsy when the clause holds and returns the witness items,
    stringified here, when it does not.  The ``once`` clauses of every
    table take no arguments and run first; then each seeded sample runs
    through the tables' clauses in order, up to the first violation.  Zero
    sampled instances and no failed ``once`` clause make the verdict
    ``"vacuous"``.  ``details`` are recorded unless the run fails.

    The clauses are pure functions of the parts, so a draw that repeats
    parts this call has already passed cannot fail: it is drawn (the rng
    stream and ``samples`` stay as they are) but not derived or checked
    again.  The set of passed parts lives for this call only, and stops
    growing at SEEN_BOUND tuples, so memory stays bounded for any
    ``samples``; past the bound, stored parts are still skipped and new
    ones checked."""
    rep = Report(command, "pass", seed=seed, samples=samples)
    for _, _, once in tables:
        for name, bad in once:
            found = bad()
            if found:
                return rep.fail(name, [str(e) for e in found])
    rng = random.Random(seed)
    seen = set()
    for _ in range(samples):
        parts = draw(rng)
        if parts in seen:
            continue
        for derive, clauses, _ in tables:
            args = derive(*parts)
            for name, bad in clauses:
                found = bad(*args)
                if found:
                    return rep.fail(name, [str(e) for e in found])
        if len(seen) < SEEN_BOUND:
            seen.add(parts)
    if samples == 0:
        rep.verdict = "vacuous"
    rep.details.update(details)
    return rep


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def canonical_json(report: Report, include_timing: bool = False) -> str:
    payload = {
        "command": report.command,
        "verdict": report.verdict,
        "seed": report.seed,
        "samples": report.samples,
        "details": _jsonable(report.details),
        "counterexamples": _jsonable(report.counterexamples),
    }
    if include_timing:
        payload["elapsed_s"] = report.elapsed
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"

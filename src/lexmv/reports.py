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
from operator import itemgetter
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


# the most keys one table stores in one run_suite call; past it its set only answers
SEEN_BOUND = 4096


def run_suite(command: str, samples: int, seed: int, draw: Callable[[random.Random], tuple],
              tables: Sequence[tuple], **details) -> Report:
    """The one loop of every sampled suite: one draw and its clause tables.

    ``draw(rng)`` returns one sample's parts, a tuple.  A table is
    ``(reads, derive, clauses, once)``: ``derive`` takes the parts at the
    indices ``reads`` (its key) and returns the arguments of its clauses,
    and a clause is ``(name, bad)``, where ``bad(*args)`` is falsy when the
    clause holds and returns the witness items, stringified here, when it
    does not.  Every table's ``once`` clauses run first; then each sample
    runs through the tables' clauses in order, up to the first violation.
    Zero samples and no failed ``once`` clause make the verdict
    ``"vacuous"``; negative ``samples`` raise ValueError.  ``details`` are
    recorded unless the run fails.

    A table's clauses are pure functions of its key, so a key that passed
    in this call cannot fail: the draw still happens (the rng stream stays
    as it is), but that table's derive and clauses are skipped.  A law that
    reads no part is a ``once`` clause, so ``reads`` is never empty.  Each
    table's set of passed keys lives for this call and stops growing at
    SEEN_BOUND keys; past it, stored keys are still skipped, new ones checked."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rep = Report(command, "pass", seed=seed, samples=samples)
    for *_, once in tables:
        for name, bad in once:
            found = bad()
            if found:
                return rep.fail(name, [str(e) for e in found])
    rng = random.Random(seed)
    # itemgetter returns a bare part for one index, so one index takes a slice
    runs = [(itemgetter(*r) if len(r) > 1 else itemgetter(slice(r[0], r[0] + 1)),
             set(), derive, clauses) for r, derive, clauses, _ in tables]
    for _ in range(samples):
        parts = draw(rng)
        for key, seen, derive, clauses in runs:
            read = key(parts)
            if read in seen:
                continue
            args = derive(*read)
            for name, bad in clauses:
                found = bad(*args)
                if found:
                    return rep.fail(name, [str(e) for e in found])
            if len(seen) < SEEN_BOUND:
                seen.add(read)
    if samples == 0:
        rep.verdict = "vacuous"
    rep.details.update(details)
    return rep


def canonical_json(report: Report, include_timing: bool = False) -> str:
    payload = {
        "command": report.command,
        "verdict": report.verdict,
        "seed": report.seed,
        "samples": report.samples,
        "details": report.details,
        "counterexamples": report.counterexamples,
    }
    if include_timing:
        payload["elapsed_s"] = report.elapsed
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True, default=str) + "\n"

"""Structured check reports and their canonical JSON serialization.

Reports are byte-stable: identical inputs and seed serialize identically.
Wall-clock timing is recorded on the object but excluded from the
canonical form (it would break byte-identity across runs); pass
``include_timing=True`` to embed it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .groups import fmt_rat


@dataclass
class Report:
    command: str
    verdict: str  # "pass" | "fail" | "error" | "cap-exceeded"
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


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return fmt_rat(obj)
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

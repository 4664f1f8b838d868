"""Command-line runner: `lexmv run <command> <dsl> [options]`.

Exit codes: 0 the check passed, 1 a property violation, a vacuous run
(zero sampled instances) or a cap was hit, 2 usage or parse errors.
Reports serialize as canonical JSON (sorted keys, LF endings, rationals
as "p/q" strings) and are byte-identical for identical inputs and seed;
timing is opt-in via --with-timing.

The parser is built once per process, on the first call of main.  The
lex commands share one LexAlgebra and witness path, the finite commands
one table and Report.  A --table file must be UTF-8 (else exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

from . import dsl, finite
from .algebra import IntervalError
from .axioms import axiom_report
from .finite import CapExceeded, FiniteMv
from .reports import Report, canonical_json
from .sampling import DEFAULT_BOUND
from .witnesses import (
    LexAlgebra,
    WitnessError,
    build_phi,
    canonical_witness,
    check_witness,
    classify,
    verify_hom,
)

FINITE_COMMANDS = (
    "ideals",
    "radical",
    "states",
    "retractive",
    "lexid",
    "rdp2",
    "isomorphic",
)
LEX_COMMANDS = ("classify", "witness", "lexify")
COMMANDS = ("check-axioms",) + LEX_COMMANDS + FINITE_COMMANDS


class UsageError(ValueError):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lexmv")
    sub = ap.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run a check on a declared algebra")
    run.add_argument("command", choices=COMMANDS)
    run.add_argument("dsl", nargs="?", help="algebra expression")
    run.add_argument("--samples", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    run.add_argument("--cap", type=int, default=12, help="finite exhaustive size cap")
    run.add_argument("--json", dest="json_path", help="also write the report here")
    run.add_argument("--table", help="finite algebra table file")
    run.add_argument("--kind", choices=("strong", "weak"), help="witness kind")
    run.add_argument("--elem", help="element literal for classify")
    run.add_argument("--other", help="second algebra expression for isomorphic")
    run.add_argument("--with-timing", action="store_true")
    return ap


def _check_cap(size: int, cap: int) -> None:
    if size > cap:
        raise CapExceeded(f"algebra has {size} elements, cap is {cap}")


_NEEDS_LEX = "this command needs a gamma(lex(...),...) algebra"


def _build(text: str, cmd: str, cap: int) -> object:
    """Parse and build an algebra expression for cmd.  A gamma is an
    interval algebra for the lex commands and check-axioms; the lex
    commands refuse a chain or prod before building it.  Every other case
    is a table: dsl.finite sizes the expression, building each gamma once
    as an interval algebra, or refuses it, and the size is checked against
    the cap before the table is built."""
    node = dsl.parse(text)
    if isinstance(node, dsl.GammaNode) and cmd not in FINITE_COMMANDS:
        return dsl.build_algebra(node)
    if cmd in LEX_COMMANDS:
        raise UsageError(_NEEDS_LEX)
    size, build = dsl.finite(node)
    _check_cap(size, cap)
    return build()


def _load(args) -> object:
    if args.table:
        if args.command in LEX_COMMANDS:
            raise UsageError(_NEEDS_LEX)
        try:
            with open(args.table, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise finite.TableError(f"table is not UTF-8: {exc}") from None
        _check_cap(finite.table_size(text), args.cap)
        return finite.parse_table(text)
    if args.dsl is None:
        raise UsageError("an algebra expression or --table is required")
    return _build(args.dsl, args.command, args.cap)


def _witness(args, la: LexAlgebra) -> tuple:
    """(kind, canonical witness): --kind, else strong exactly when la's
    offset is 0."""
    kind = args.kind or ("strong" if la.zero_offset else "weak")
    return kind, canonical_witness(la, kind)


def _mask_entry(a: FiniteMv, info: finite.IdealInfo) -> dict:
    entry = dataclasses.asdict(info)
    entry["elements"] = a.mask_labels(entry.pop("mask"))
    return entry


def _check_flags(args) -> None:
    # --samples 0 is accepted: a run with zero instances reports "vacuous"
    for flag, value, least in (("--samples", args.samples, 0), ("--bound", args.bound, 0),
                               ("--cap", args.cap, 1)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")


def _run_command(args) -> Report:
    _check_flags(args)
    cmd = args.command
    a = _load(args)  # a table for every finite command
    if cmd == "check-axioms":
        if isinstance(a, FiniteMv):
            return finite.check_axioms(a)
        return axiom_report(a, args.samples, args.seed, args.bound)

    if cmd in LEX_COMMANDS:
        la = LexAlgebra.from_algebra(a)
        if cmd == "classify":
            if args.elem is None:
                raise UsageError("classify needs --elem")
            value = dsl.build_elem(la.spec, dsl.parse_elem(args.elem))
            w = _witness(args, la)[1]
            try:
                elem = la.algebra.elem(value)
            except IntervalError as exc:
                raise UsageError(f"--elem {exc}") from None
            rep = Report(cmd, "pass", seed=args.seed)
            rep.details["element"] = la.spec.ops.fmt(value)
            rep.details["slice"] = la.base.spec.ops.fmt(classify(w, elem))
            return rep
        kind, w = _witness(args, la)
        if cmd == "witness":
            rep = check_witness(w, args.samples, args.seed, args.bound)
        else:
            phi = build_phi(w)
            rep = verify_hom(phi, args.samples, args.seed, args.bound)
            rep.details["b"] = la.spec.ops.fmt((la.base.spec.ops.zero, phi.target.unit[1]))
            rep.details["target"] = str(phi.target)
        rep.command = cmd
        rep.details["kind"] = kind
        return rep

    rep = Report(cmd, "pass")
    if cmd == "ideals":
        infos = finite.enumerate_ideals(a, args.cap)
        rep.details["count"] = len(infos)
        rep.details["ideals"] = [_mask_entry(a, i) for i in infos]
    elif cmd == "radical":
        rad, rad_n, infinit = finite.radical_suite(a)
        rep.details["rad"] = a.mask_labels(rad)
        rep.details["rad_n"] = a.mask_labels(rad_n)
        rep.details["infinit"] = a.mask_labels(infinit)
        if not (rad & ~infinit == 0 and infinit & ~rad_n == 0):
            rep.fail("radical-chain", [rep.details["rad"], rep.details["infinit"]])
    elif cmd == "states":
        states = finite.extremal_states(a)
        rows = [{a.labels[x]: str(s(x)) for x in range(a.size)} for s in states]
        rep.details["count"] = len(states)
        rep.details["states"] = rows
        for s, row in zip(states, rows):
            if not finite.state_is_additive(a, s):
                rep.fail("state-additivity", [row])
    elif cmd == "retractive":
        rows = []
        full = (1 << a.size) - 1
        for mask in finite.enumerate_ideal_masks(a):
            ret, _ = finite.is_retractive(a, mask)
            comp, _ = finite.has_complement(a, mask)
            rows.append({"elements": a.mask_labels(mask), "retractive": ret, "complement": comp})
            # the equivalence degenerates at I = M (one-element quotient),
            # so agreement is asserted for proper ideals only
            if mask != full and ret != comp:
                rep.fail("retractive-complement-agreement", [a.mask_labels(mask)])
        rep.details["ideals"] = rows
    elif cmd == "lexid":
        rows = []
        for mask in finite.enumerate_ideal_masks(a):
            ok, clauses = finite.is_lexicographic_ideal(a, mask)
            rows.append({"elements": a.mask_labels(mask), "lexicographic": ok, "clauses": clauses})
        rep.details["exists"] = any(row["lexicographic"] for row in rows)
        rep.details["ideals"] = rows
    elif cmd == "rdp2":
        if not finite.check_rdp2(a, args.cap):
            rep.fail("rdp2", [str(a)])
    else:  # isomorphic
        if args.other is None:
            raise UsageError("isomorphic needs --other with a second algebra")
        b = _build(args.other, cmd, args.cap)
        ok, bij = finite.brute_isomorphic(a, b)
        rep.details["sizes"] = [a.size, b.size]
        if ok:
            rep.details["bijection"] = {a.labels[x]: b.labels[bij[x]] for x in range(a.size)}
        else:
            rep.fail("no-isomorphism", [str(a), str(b)])
    return rep


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    t0 = time.perf_counter()
    try:
        try:
            rep = _run_command(args)
        except CapExceeded as exc:
            rep = Report(args.command, "cap-exceeded")
            rep.details["reason"] = str(exc)
        rep.elapsed = time.perf_counter() - t0
        text = canonical_json(rep, include_timing=args.with_timing)
        # the file before stdout: a path that cannot be written ends in
        # the one-line error alone
        if args.json_path:
            with open(args.json_path, "w", newline="") as fh:
                fh.write(text)
    except (dsl.ParseError, UsageError, OSError, finite.TableError, WitnessError) as exc:
        print(f"lexmv: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three seeded, closed-loop workloads and the loop that times them.

One client issues each request only after the previous verdict returned.
Every request calls a public lexmv function through its module attribute
at call time, so the tracer's wrappers (tracer.py) see it.  Inputs come
only from the workload seed; lexmv sees nothing but the generated inputs.
"""

from __future__ import annotations

import gc
import importlib
import io
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from perfbench import answers
from perfbench.answers import KNOWN, fmt_rat

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("groups", "algebra", "sampling", "axioms", "witnesses", "finite", "dsl", "cli", "reports")


def forget_lexmv() -> None:
    """Drop lexmv from sys.modules, so that the next import is a fresh one."""
    for name in [m for m in sys.modules if m == "lexmv" or m.startswith("lexmv.")]:
        del sys.modules[name]


def import_lexmv() -> SimpleNamespace:
    """A fresh import of lexmv from this checkout's src/ (never an installed copy)."""
    forget_lexmv()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"lexmv.{name}") for name in MODULES}
    where = Path(sys.modules["lexmv"].__file__).resolve().parent
    if where != SRC / "lexmv":
        raise ImportError(f"lexmv was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Requests and the closed loop


@dataclass
class Request:
    family: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when the output matches the known answer


@dataclass
class Raised:
    exc: BaseException


# The host's CPU speed swings by up to 2x over seconds to minutes, which
# no run length averages away.  So every request is timed against a fixed
# reference computation run right before and after it: a request's time is
# its duration over the mean of those two reference durations, converted
# to seconds at REFERENCE_S.  Speed swings then cancel, while a change to
# lexmv's own cost moves the figure in full.
REFERENCE_S = 280e-6  # reference() on a 2-vCPU Xeon VM, Python 3.11.7, unloaded
_SCATTER_TABLE = tuple(tuple((i * j) % 201 for j in range(201)) for i in range(201))
_CHAIN_TABLE = tuple(tuple(min(i + j, 200) for j in range(201)) for i in range(201))  # chain(200)'s


def reference():
    """Stdlib-only work of the three kinds lexmv does: exact rational
    arithmetic on small objects, lookups scattered over a table as large as
    chain(200)'s, and check_axioms' associativity scan over chain(200)'s
    table.  The host's speed swings move each kind by a different share,
    so the reference needs all three."""
    acc, seen = Fraction(0), {}
    for i in range(1, 80):
        acc += Fraction(i % 7, i % 5 + 1)
        seen[i % 31] = (i, i * i)
    x = 0
    for k in range(600):
        x = _SCATTER_TABLE[(x + 97 * k) % 201][(x + k) % 201]
    op, bad = _CHAIN_TABLE, 0
    for x in range(17, 201, 67):
        for y in range(5, 201, 67):
            for z in range(201):
                if op[x][op[y][z]] != op[op[x][y]][z]:
                    bad += 1
    return acc, bad


def time_reference() -> int:
    """ns taken by reference(), with collection deferred to the code around it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = time.perf_counter_ns()
        reference()
        return time.perf_counter_ns() - s
    finally:
        if enabled:
            gc.enable()


def normalize(ns: int, before: int, after: int) -> float:
    """Seconds at reference speed for ns measured between two reference timings."""
    return REFERENCE_S * 2 * ns / (before + after)


def run_pass(requests, tracer=None):
    """Issue every request in order.  Returns (times in reference-normalized
    seconds, raw wall seconds of the pass, outputs).  A tracer gets each
    request's normalization too (Tracer.normalize)."""
    lat, refs, outs = [], [time_reference()], []
    t0 = time.perf_counter()
    for req in requests:
        s = time.perf_counter_ns()
        try:
            out = req.call() if tracer is None else tracer.request(req.family, req.call)
        except Exception as exc:  # an escaped exception is a failed request, not a crash
            out = Raised(exc)
        lat.append(time.perf_counter_ns() - s)
        refs.append(time_reference())
        outs.append(out)
    wall = time.perf_counter() - t0
    scale = [normalize(1, refs[i], refs[i + 1]) for i in range(len(lat))]
    if tracer is not None:
        tracer.normalize(scale)
    return [d * k for d, k in zip(lat, scale)], wall, outs


def failures(requests, outs) -> list:
    """[(request, reason)] for every output that differs from its known answer."""
    bad = []
    for req, out in zip(requests, outs):
        if isinstance(out, Raised):
            reason = f"raised {type(out.exc).__name__}: {out.exc}"
        else:
            reason = req.check(out)
        if reason:
            bad.append((req, reason))
    return bad


def cli_call(L, argv):
    """cli.main(argv) in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = L.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _expect(value, got) -> "str | None":
    return None if got == value else f"got {got!r}, expected {value!r}"


# ---------------------------------------------------------------------------
# sampled-catalog


CATALOG = {
    "Z7": "gamma(Z,7)",
    "Q3-2": "gamma(Q,3/2)",
    "Aff2": "gamma(Aff,aff(2,0))",
    "ZxZ21": "gamma(lex(Z,Z),(2,1))",
    "ZxAff": "gamma(lex(Z,Aff),(1,aff(2,0)))",
    "ZxZ20": "gamma(lex(Z,Z),(2,0))",
    "QxQ": "gamma(lex(Q,Q),(3/2,0))",
}
AXIOM_ALGEBRAS = ("Z7", "Q3-2", "Aff2", "ZxZ21", "ZxAff")
LEX_ALGEBRAS = ("ZxZ20", "ZxZ21", "ZxAff", "QxQ")
SAMPLES = 100
WITNESS_SUITES = {
    "check_cyclic": lambda W, w, s: W.check_cyclic(w, SAMPLES, s),
    "theorem_suite": lambda W, w, s: W.theorem_suite(w, SAMPLES, s),
    "verify_hom_phi": lambda W, w, s: W.verify_hom(W.build_phi(w), SAMPLES, s),
}
FUNCTOR_PROBES = {
    "Z": [-7, -1, 0, 1, 2, 9],
    "Q": [Fraction(-5, 3), Fraction(0), Fraction(1, 2), Fraction(7)],
    "ZxQ": [(-2, Fraction(1, 3)), (0, Fraction(0)), (3, Fraction(-5, 2))],
}


class SampledCatalog:
    """Sampled suites on the catalog algebras; only groups, algebra,
    sampling, axioms and witnesses work here."""

    name = "sampled-catalog"

    def __init__(self, L, seed: int):
        self.L = L
        self.rng = random.Random(seed)
        known = KNOWN["sampled_catalog"]
        self.known = known
        self.alg = {k: L.dsl.build_algebra(L.dsl.parse(v)) for k, v in CATALOG.items()}
        W = L.witnesses
        self.wit = {
            k: W.canonical_witness(W.LexAlgebra.from_algebra(self.alg[k]), known["witness_kind"][k])
            for k in LEX_ALGEBRAS
        }
        self.homs = self._functor_homs()

    def _functor_homs(self):
        g, rng = self.L.groups, self.rng
        # the head factor of a pairwise map on a lex pair must keep the
        # head order strict, so its scale is positive
        a, c = rng.randint(0, 4), rng.randint(1, 4)
        b = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        d = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        base = g.UnitalGroup(g.Z, rng.randint(1, 3))
        return [
            ("Z", g.scale_hom(g.Z, a), base, lambda v: a * v),
            ("Q", g.scale_hom(g.Q, b), base, lambda v: b * v),
            ("ZxQ", g.pairwise_hom(g.scale_hom(g.Z, c), g.scale_hom(g.Q, d)), base,
             lambda v: (c * v[0], d * v[1])),
        ]

    def _verdict(self, family, label):
        want = self.known[family][label]
        return lambda rep: _expect(want, rep.verdict)

    def next_pass(self) -> list:
        L, rng, known = self.L, self.rng, self.known
        reqs = []
        for label in AXIOM_ALGEBRAS:
            alg = self.alg[label]
            for fn in ("axiom_report", "partial_sum_report", "pea_equivalence_report"):
                call = lambda fn=fn, alg=alg, s=rng.randrange(1 << 30): getattr(L.axioms, fn)(alg, SAMPLES, s)
                reqs.append(Request(fn, label, call, self._verdict(fn, label)))
        for label in LEX_ALGEBRAS:
            for family, suite in WITNESS_SUITES.items():
                call = lambda suite=suite, w=self.wit[label], s=rng.randrange(1 << 30): suite(L.witnesses, w, s)
                reqs.append(Request(family, label, call, self._verdict(family, label)))
        for label, h, base, expected in self.homs:
            call = lambda h=h, base=base, s=rng.randrange(1 << 30): L.witnesses.extract_morphism(
                L.witnesses.lift_morphism(h, base), SAMPLES, s)
            reqs.append(Request("functor_round_trip", label, call, self._functor_check(label, expected)))
        # at its own budget of 400 samples; at 100, the family-noise mutant
        # (caught only by a draw of v = t = 1, p = 4/81) escapes 0.7% of seeds
        reqs.append(Request("mutation_suite", "six-mutants",
                            lambda s=rng.randrange(1 << 30): L.witnesses.mutation_suite(s),
                            lambda out: _expect(known["mutation_suite"], {n: r.verdict for n, r in out})))
        return reqs

    def _functor_check(self, label, expected):
        probes = FUNCTOR_PROBES[label]
        apply = lambda h, v: self.L.groups.hom_apply(h, v)
        return lambda h: None if all(apply(h, v) == expected(v) for v in probes) else f"extracted {h} differs"


# ---------------------------------------------------------------------------
# finite-oracle


def relabel(L, a, rng):
    """The same algebra with its element indices permuted: a table as a
    user might write it, with identical known answers."""
    n = a.size
    p = list(range(n))
    rng.shuffle(p)
    op = [[0] * n for _ in range(n)]
    ng = [0] * n
    labels = [""] * n
    for x in range(n):
        ng[p[x]] = p[a.neg[x]]
        labels[p[x]] = a.labels[x]
        for y in range(n):
            op[p[x]][p[y]] = p[a.oplus[x][y]]
    return L.finite.FiniteMv(n, tuple(map(tuple, op)), tuple(ng), p[a.zero], p[a.one], tuple(labels))


class FiniteOracle:
    """The exhaustive finite oracle on chains and products of chains, n = 4..16.
    Tables are built before the timed phase, so only finite works in it.

    The 2^n scans run on the tables as the DSL builds them.  Their cost
    depends on the order of the elements, by up to 4x at n = 16, and a
    fixed order keeps the tail they set steady.  Round trips and
    isomorphism checks get a fresh seeded relabeling every pass."""

    name = "finite-oracle"
    CAP = 16

    def __init__(self, L, seed: int):
        self.L = L
        self.rng = random.Random(seed)
        build = lambda text: L.dsl.build_algebra(L.dsl.parse(text))
        self.tables = {k: build(v["dsl"]) for k, v in KNOWN["finite_catalog"].items()}
        self.iso = [(p, build(p["right"])) for p in KNOWN["finite_iso_pairs"]]
        self.scans = [r for k, want in KNOWN["finite_catalog"].items()
                      for r in self._scan_requests(k, self.tables[k], want)]

    def next_pass(self) -> list:
        L, rng, F = self.L, self.rng, self.L.finite
        reqs = list(self.scans)
        for key, a in self.tables.items():
            b = relabel(L, a, rng)
            reqs.append(Request("table_round_trip", key, lambda b=b: F.parse_table(F.format_table(b)),
                                lambda out, b=b: _expect(True, out == b)))
        for pair, right in self.iso:
            a, b = relabel(L, self.tables[pair["left"]], rng), relabel(L, right, rng)
            reqs.append(Request("brute_isomorphic", f"{pair['left']}~{pair['right']}",
                                lambda a=a, b=b: F.brute_isomorphic(a, b),
                                self._iso_check(a, b, pair["isomorphic"])))
        rng.shuffle(reqs)
        return reqs

    def _scan_requests(self, key, a, want):
        F = self.L.finite
        full = (1 << a.size) - 1
        reqs = [
            Request("enumerate_ideals", key, lambda: F.enumerate_ideals(a, self.CAP),
                    lambda infos: _expect((want["ideals"], want["maximal"], True),
                                          (len(infos), sum(i.maximal for i in infos),
                                           all(i.normal for i in infos)))),
        ]
        if a.size > 12:
            return reqs

        def retractive():
            rows = []
            for info in F.enumerate_ideals(a, self.CAP):
                if info.normal:
                    rows.append((info.mask, F.is_retractive(a, info.mask)[0],
                                 F.has_complement(a, info.mask)[0]))
            return rows

        def retractive_check(rows):
            proper = [(r, c) for m, r, c in rows if m != full]
            top = [(r, c) for m, r, c in rows if m == full]
            return _expect((want["retractive_proper"], True, [(False, True)]),
                           (sum(r for r, _ in proper), all(r == c for r, c in proper), top))

        def lexid():
            return [F.is_lexicographic_ideal(a, i.mask)[0] for i in F.enumerate_ideals(a, self.CAP)]

        one_bit = lambda m: answers.popcount(m) == want["radical_size"] and m >> a.zero & 1
        reqs += [
            Request("radical_suite", key, lambda: F.radical_suite(a),
                    lambda r: _expect(True, all(one_bit(m) for m in r))),
            Request("extremal_states", key, lambda: F.extremal_states(a),
                    lambda st: _expect((want["states"], True),
                                       (len(st), all(answers.state_ok(a, s.values) for s in st)))),
            Request("retractive_complement", key, retractive, retractive_check),
            Request("is_lexicographic_ideal", key, lexid,
                    lambda flags: _expect(want["lexicographic"], any(flags))),
            Request("check_rdp2", key, lambda: F.check_rdp2(a, self.CAP),
                    lambda ok: _expect(want["rdp2"], ok)),
        ]
        return reqs

    @staticmethod
    def _iso_check(a, b, want):
        def check(out):
            ok, bij = out
            if ok != want:
                return f"isomorphic {ok}, expected {want}"
            if ok and not answers.bijection_ok(a, b, bij):
                return "the returned bijection is not an isomorphism"
            return None
        return check


# ---------------------------------------------------------------------------
# cli-mixed


# every multiset of chain(n) factors with at most 9 elements; the larger
# tables up to the default cap of 12 belong to finite-oracle
FACTOR_SETS = [[a] for a in range(1, 9)] + [[1, 1], [1, 2], [1, 3], [2, 2], [1, 1, 1]]
FINITE_COMMANDS = ("ideals", "radical", "states", "retractive", "lexid", "rdp2")
AFF_SLOPES = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4, 3))


def render_finite(factors, rng, gamma=True) -> str:
    """A DSL text for the product of chain(n) factors, in a random order
    and nesting; with gamma, each factor is spelled chain(n) or gamma(Z,n)."""
    fs = list(factors)
    rng.shuffle(fs)

    def go(part):
        if len(part) == 1:
            return f"gamma(Z,{part[0]})" if gamma and rng.random() < 0.5 else f"chain({part[0]})"
        cut = rng.randint(1, len(part) - 1)
        return f"prod({go(part[:cut])},{go(part[cut:])})"

    return go(fs)


def _aff(slope, shift) -> str:
    return f"aff({fmt_rat(slope)},{shift})"


class Deck:
    """Seeded draws that use every item once per round, so that a run's
    mix of cheap and costly inputs barely depends on the seed."""

    def __init__(self, items, rng):
        self.items, self.rng, self.left = list(items), rng, []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


class CliMixed:
    """cli.main(argv) in-process on a seeded mix of all 11 commands over
    distinct small algebras, plus rejected requests."""

    name = "cli-mixed"

    def __init__(self, L, seed: int):
        self.L = L
        self.rng = rng = random.Random(seed)
        self.samples = Deck(range(20, 41), rng)
        self.lex_shapes = Deck((("Z", "Z"), ("Q", "Z"), ("Z", "Q")), rng)
        self.factors = {cmd: Deck(FACTOR_SETS, rng)
                        for cmd in FINITE_COMMANDS + ("check-axioms", "isomorphic")}

    def _req(self, family, argv, expect) -> Request:
        return Request(family, " ".join(argv[1:]), lambda: cli_call(self.L, argv),
                       lambda out: answers.check_cli(out, expect))

    def _flags(self):
        return ["--samples", str(self.samples.draw()), "--seed", str(self.rng.randrange(1 << 20))]

    def _lex_unit(self):
        """A random gamma(lex(H,G),(u,b)) with b >= 0: (dsl, u, b, H)."""
        rng = self.rng
        head, fiber = self.lex_shapes.draw()
        u = rng.randint(1, 6) if head == "Z" else Fraction(rng.randint(1, 12), rng.randint(1, 4))
        b = rng.randint(0, 6) if fiber == "Z" else Fraction(rng.randint(0, 12), rng.randint(1, 4))
        if rng.random() < 0.3:
            b = 0
        return f"gamma(lex({head},{fiber}),({fmt_rat(u)},{fmt_rat(b)}))", u, b, head

    def next_pass(self) -> list:
        rng = self.rng
        ok = lambda **fields: {"exit": 0, "verdict": "pass", "fields": fields}
        reqs = []

        # check-axioms on every catalog shape: symmetric iff the unit is central
        n = rng.randint(1, 60)
        q = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        slope, shift = rng.choice(AFF_SLOPES), rng.randint(-5, 5)
        u, b = rng.randint(1, 6), rng.randint(-6, 6)
        fs = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
        fc = rng.choice((0, 0, rng.randint(-3, 3)))
        for text, sym in (
            (f"gamma(Z,{n})", True),
            (f"gamma(Q,{fmt_rat(q)})", True),
            (f"gamma(Aff,{_aff(slope, shift)})", False),
            (f"gamma(lex(Z,Z),({u},{b}))", True),
            (f"gamma(lex(Z,Aff),({u},{_aff(fs, fc)}))", fs == 1 and fc == 0),
        ):
            reqs.append(self._req("check-axioms", ["run", "check-axioms", text] + self._flags(),
                                  ok(symmetric=sym)))
        factors = self.factors["check-axioms"].draw()
        # a top-level gamma(Z,n) is an interval algebra, checked by sampling
        reqs.append(self._req("check-axioms", ["run", "check-axioms", render_finite(factors, rng, gamma=False)],
                              ok(samples=answers.size_of(factors))))

        # classify an element inside the interval: its slice is its head
        for _ in range(4):
            text, u, b, head = self._lex_unit()
            t = rng.randint(0, u) if head == "Z" else u * Fraction(rng.randint(0, 4), 4)
            k = rng.randint(-30, 30)
            if t == 0:
                k = abs(k)  # (0,k) >= 0
            if t == u:
                k = min(k, b)  # (u,k) <= (u,b)
            elem = f"({fmt_rat(t)},{fmt_rat(k)})"
            reqs.append(self._req("classify", ["run", "classify", text, "--elem", elem],
                                  ok(slice=fmt_rat(t), element=elem)))

        # witness and lexify: strong exactly when the offset b is 0
        for cmd in ("witness", "witness", "lexify", "lexify"):
            text, u, b, _ = self._lex_unit()
            kind = "strong" if b == 0 else "weak"
            fields = {"kind": kind} if cmd == "witness" else {"kind": kind, "b": f"(0,{fmt_rat(b)})"}
            reqs.append(self._req(cmd, ["run", cmd, text] + self._flags(), ok(**fields)))

        # the finite commands, on one random product of chains each
        for cmd in FINITE_COMMANDS:
            factors = self.factors[cmd].draw()
            expect = ok()
            expect["test"] = lambda rep, cmd=cmd, f=factors: answers.finite_report_ok(cmd, f, rep)
            reqs.append(self._req(cmd, ["run", cmd, render_finite(factors, rng)], expect))

        # isomorphic: twice on matching factors, once on different ones
        f1 = self.factors["isomorphic"].draw()
        same_size = [f for f in FACTOR_SETS if f != f1 and answers.size_of(f) == answers.size_of(f1)]
        f2 = rng.choice(same_size or [f for f in FACTOR_SETS if f != f1])
        for other, verdict in ((f1, "pass"), (f1, "pass"), (f2, "fail")):
            argv = ["run", "isomorphic", render_finite(f1, rng), "--other", render_finite(other, rng)]
            reqs.append(self._req("isomorphic", argv, {"exit": answers.EXIT[verdict], "verdict": verdict}))

        # rejected requests
        cap = {"exit": answers.EXIT["cap-exceeded"], "verdict": "cap-exceeded"}
        m = rng.randint(13, 30)
        reqs.append(self._req("reject-cap", ["run", rng.choice(FINITE_COMMANDS),
                                             rng.choice((f"chain({m})", f"gamma(Z,{m})"))], cap))
        reqs.append(self._req("reject-cap", ["run", rng.choice(FINITE_COMMANDS), "chain(200)"], cap))
        for _ in range(2):
            reqs.append(self._req("reject-parse", self._malformed(), {"exit": answers.EXIT["parse"], "verdict": None}))
        usage = {"exit": answers.EXIT["usage"], "verdict": None}
        reqs.append(self._req("reject-usage", ["run", "classify", self._lex_unit()[0]], usage))
        reqs.append(self._req("reject-usage", ["run", "classify", render_finite(rng.choice(FACTOR_SETS), rng),
                                               "--elem", "1"], usage))
        reqs.append(self._req("reject-usage", ["run", "isomorphic", render_finite(rng.choice(FACTOR_SETS), rng)], usage))
        rng.shuffle(reqs)
        return reqs

    def _malformed(self) -> list:
        rng = self.rng
        valid = rng.choice((self._lex_unit()[0], render_finite(rng.choice(FACTOR_SETS), rng),
                            f"gamma(Aff,{_aff(rng.choice(AFF_SLOPES), rng.randint(-5, 5))})"))
        bad = rng.choice((
            valid[: rng.randint(1, len(valid) - 1)],  # truncated
            valid + rng.choice((")", ",", "#", " chain(1)")),  # trailing junk
            valid.replace("(", "[", 1),
            f"gamma(Z,{-rng.randint(0, 9)})",  # not a strong unit
            f"chain({-rng.randint(0, 9)})",
            f"gamma(Aff,aff({rng.choice((1, Fraction(1, 2)))},{rng.randint(-3, 3)}))",
            f"gamma(lex(Z,Z),(0,{rng.randint(1, 5)}))",
            f"gamma(Z,{rng.randint(1, 9)}/0)",
            f"prod(chain({rng.randint(1, 3)}),gamma(Q,{rng.randint(1, 5)}))",  # not finite
            f"gama(Z,{rng.randint(1, 9)})",
        ))
        cmd = rng.choice(("check-axioms", "classify", "witness", "lexify") + FINITE_COMMANDS + ("isomorphic",))
        extra = {"classify": ["--elem", "(0,0)"], "isomorphic": ["--other", "chain(1)"]}.get(cmd, [])
        return ["run", cmd, bad] + extra


WORKLOADS = {w.name: w for w in (SampledCatalog, FiniteOracle, CliMixed)}

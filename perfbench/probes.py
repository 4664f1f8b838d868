"""Per-layer probes: fixed calls into one module each, timed untraced.

Every probe calls a public lexmv function from outside, on inputs made
from the run's seed, and reports a median over repeats, normalized to
the host's speed like the requests (see run_pass in workloads.py).  LAYER_METRICS
is the single list of per-layer names and units; BENCHMARK.json repeats it.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from perfbench.workloads import (AXIOM_ALGEBRAS, CATALOG, LEX_ALGEBRAS, MODULES, ROOT, SRC,
                                 SampledCatalog, cli_call, normalize, relabel, time_reference)

SPECS = ("Z", "Q", "Aff", "ZxZ", "ZxAff")
TABLES = {"n6": "prod(chain(1),chain(2))", "n9": "prod(chain(2),chain(2))",
          "n12": "prod(chain(2),chain(3))", "n16": "prod(chain(3),chain(3))"}
FINITE_OPS = ("check_axioms", "ideals", "complement", "retractive", "rdp2", "iso")
COMMANDS = ("check-axioms", "classify", "witness", "lexify", "ideals", "radical",
            "states", "retractive", "lexid", "rdp2", "isomorphic")
PROBE_SAMPLES = 100
REPEATS = 3


def _layer_metrics():
    m = []
    m += [(f"groups.{op}_ns.{s}", "ns") for op in ("add", "cmp", "meet") for s in SPECS]
    m += [("groups.shape_checks", "count"), ("groups.hom_build_ms.Z", "ms"), ("groups.hom_build_ms.ZxZxQ", "ms")]
    m += [(f"algebra.{op}_ns.{a}", "ns") for op in ("elem", "oplus") for a in AXIOM_ALGEBRAS]
    m += [(f"sampling.draw_ns.{a}", "ns") for a in AXIOM_ALGEBRAS]
    m += [(f"sampling.{r}_ratio.{a}", "ratio") for r in ("distinct", "defined") for a in AXIOM_ALGEBRAS]
    m += [(f"axioms.{s}_us_per_sample.{a}", "us/sample")
          for s in ("axiom", "partial_sum", "pea") for a in AXIOM_ALGEBRAS]
    m += [(f"witnesses.{s}_us_per_sample.{a}", "us/sample")
          for s in ("theorem", "phi", "cyclic") for a in LEX_ALGEBRAS]
    m += [("witnesses.functor_ms", "ms")]
    m += [(f"finite.{op}_ms.{t}", "ms") for op in FINITE_OPS for t in ("n6", "n9", "n12")]
    m += [("finite.ideals_ms.n16", "ms")]
    m += [("dsl.parse_us", "us"), ("dsl.build_us", "us")]
    m += [(f"cli.main_ms.{c}", "ms") for c in COMMANDS]
    m += [("reports.json_us", "us")]
    m += [(f"cli.reject_ms.{r}", "ms") for r in ("cap", "parse", "usage")]
    m += [("cli.process_ms", "ms"), ("cli.known_defects", "count")]
    m += [(f"{mod}.{k}", u) for mod in MODULES for k, u in (("self_s", "s"), ("calls", "count"))]
    m += [("trace.overhead_s", "s")]
    return m


LAYER_METRICS = _layer_metrics()


def _median_time(fn, repeats=REPEATS) -> float:
    """Median over repeats of fn()'s duration, in seconds at reference speed."""
    out = []
    before = time_reference()
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        took = time.perf_counter_ns() - t0
        after = time_reference()
        out.append(normalize(took, before, after))
        before = after
    return statistics.median(out)


def _per_item_ns(fn, items, repeats=7) -> float:
    """Median over repeats of ns per item for a loop calling fn on every item."""
    return 1e9 * _median_time(lambda: [fn(x) for x in items], repeats) / len(items)


def _specs(g):
    return {"Z": g.Z, "Q": g.Q, "Aff": g.AFF, "ZxZ": g.lex(g.Z, g.Z), "ZxAff": g.lex(g.Z, g.AFF)}


def group_probes(L, rng) -> dict:
    g = L.groups
    out = {}
    for label, spec in _specs(g).items():
        pairs = [(g.sample_group_elem(spec, rng), g.sample_group_elem(spec, rng)) for _ in range(256)]
        out[f"groups.add_ns.{label}"] = _per_item_ns(lambda p: g.g_add(spec, *p), pairs)
        out[f"groups.cmp_ns.{label}"] = _per_item_ns(lambda p: g.g_cmp(spec, *p), pairs)
        out[f"groups.meet_ns.{label}"] = _per_item_ns(lambda p: g.g_meet(spec, *p), pairs)
    out["groups.hom_build_ms.Z"] = 1e3 * _median_time(lambda: g.identity_hom(g.Z), 5)
    zzq = g.lex(g.Z, g.lex(g.Z, g.Q))
    out["groups.hom_build_ms.ZxZxQ"] = 1e3 * _median_time(lambda: g.identity_hom(zzq), 5)
    return out


def algebra_sampling_probes(L, rng, algs) -> dict:
    S = L.sampling
    out = {}
    for label in AXIOM_ALGEBRAS:
        alg = algs[label]
        elems = [S.sample_elem(alg, rng) for _ in range(256)]
        values = [e.value for e in elems]
        pairs = list(zip(elems, reversed(elems)))
        out[f"algebra.elem_ns.{label}"] = _per_item_ns(alg.elem, values)
        out[f"algebra.oplus_ns.{label}"] = _per_item_ns(lambda p: p[0].oplus(p[1]), pairs)
        out[f"sampling.draw_ns.{label}"] = _per_item_ns(lambda _: S.sample_elem(alg, rng), range(256))
        draws = [(S.sample_elem(alg, rng), S.sample_elem(alg, rng)) for _ in range(1000)]
        out[f"sampling.distinct_ratio.{label}"] = len({(x.value, y.value) for x, y in draws}) / len(draws)
        out[f"sampling.defined_ratio.{label}"] = sum(x.partial_add(y) is not None for x, y in draws) / len(draws)
    return out


def suite_probes(L, rng, algs, witnesses) -> dict:
    A, W, g = L.axioms, L.witnesses, L.groups
    n = PROBE_SAMPLES
    out = {}
    per = lambda fn: 1e6 * _median_time(fn) / n
    for label in AXIOM_ALGEBRAS:
        alg, s = algs[label], rng.randrange(1 << 30)
        out[f"axioms.axiom_us_per_sample.{label}"] = per(lambda: A.axiom_report(alg, n, s))
        out[f"axioms.partial_sum_us_per_sample.{label}"] = per(lambda: A.partial_sum_report(alg, n, s))
        out[f"axioms.pea_us_per_sample.{label}"] = per(lambda: A.pea_equivalence_report(alg, n, s))
    for label in LEX_ALGEBRAS:
        w, s = witnesses[label], rng.randrange(1 << 30)
        out[f"witnesses.theorem_us_per_sample.{label}"] = per(lambda: W.theorem_suite(w, n, s))
        out[f"witnesses.phi_us_per_sample.{label}"] = per(lambda: W.verify_hom(W.build_phi(w), n, s))
        out[f"witnesses.cyclic_us_per_sample.{label}"] = per(lambda: W.check_cyclic(w, n, s))
    h, base = g.scale_hom(g.Z, 2), g.UnitalGroup(g.Z, 2)
    out["witnesses.functor_ms"] = 1e3 * _median_time(lambda: W.extract_morphism(W.lift_morphism(h, base), n))
    return out


def finite_probes(L, rng) -> dict:
    F = L.finite
    out = {}
    for label, text in TABLES.items():
        a = L.dsl.build_algebra(L.dsl.parse(text))
        ms = lambda fn: 1e3 * _median_time(fn)
        out[f"finite.ideals_ms.{label}"] = ms(lambda: F.enumerate_ideals(a, 16))
        if label == "n16":
            continue
        normal = [i.mask for i in F.enumerate_ideals(a, 16) if i.normal]
        twin = relabel(L, a, rng)
        out[f"finite.check_axioms_ms.{label}"] = ms(lambda: F.check_axioms(a))
        out[f"finite.complement_ms.{label}"] = ms(lambda: [F.has_complement(a, m) for m in normal])
        out[f"finite.retractive_ms.{label}"] = ms(lambda: [F.is_retractive(a, m) for m in normal])
        out[f"finite.rdp2_ms.{label}"] = ms(lambda: F.check_rdp2(a, 16))
        out[f"finite.iso_ms.{label}"] = ms(lambda: F.brute_isomorphic(a, twin))
    return out


DSL_TEXTS = tuple(CATALOG.values()) + tuple(TABLES.values()) + (
    "chain(11)", "gamma(lex(Q,Z),(5/2,3))", "gamma(lex(Z,Q),(4,7/3))")
CLI_ARGV = {
    "check-axioms": ["gamma(lex(Z,Z),(2,1))", "--samples", "30"],
    "classify": ["gamma(lex(Z,Z),(2,1))", "--elem", "(1,5)"],
    "witness": ["gamma(lex(Z,Z),(2,1))", "--samples", "30"],
    "lexify": ["gamma(lex(Z,Z),(2,1))", "--samples", "30"],
    "isomorphic": ["prod(chain(1),chain(2))", "--other", "prod(chain(2),chain(1))"],
}
REJECT_ARGV = {
    "cap": ["run", "ideals", "chain(200)"],
    "parse": ["run", "ideals", "prod(chain(2),chain(3)"],
    "usage": ["run", "classify", "gamma(lex(Z,Z),(2,1))"],
}


def front_probes(L, rng) -> dict:
    D = L.dsl
    out = {}
    nodes = [D.parse(t) for t in DSL_TEXTS]
    out["dsl.parse_us"] = 1e6 * _median_time(lambda: [D.parse(t) for t in DSL_TEXTS], 5) / len(DSL_TEXTS)
    out["dsl.build_us"] = 1e6 * _median_time(lambda: [D.build_algebra(n) for n in nodes], 5) / len(nodes)
    for cmd in COMMANDS:
        argv = ["run", cmd] + CLI_ARGV.get(cmd, ["prod(chain(1),chain(2))"])
        out[f"cli.main_ms.{cmd}"] = 1e3 * _median_time(lambda: cli_call(L, argv))
    for kind, argv in REJECT_ARGV.items():
        out[f"cli.reject_ms.{kind}"] = 1e3 * _median_time(lambda: cli_call(L, argv))
    rep = L.reports.Report("ideals", "pass", seed=rng.randrange(100), samples=100,
                           details={"count": 4, "ideals": [{"elements": [str(i) for i in range(12)],
                                                            "normal": True, "slope": Fraction(3, 2)}] * 4})
    out["reports.json_us"] = 1e6 * _median_time(lambda: [L.reports.canonical_json(rep) for _ in range(100)], 5) / 100
    return out


def process_ms() -> float:
    """Median wall time of `python -m lexmv.cli` as a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "lexmv.cli", "run", "check-axioms", "gamma(Z,3)", "--samples", "10"]

    def once():
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"lexmv.cli exited {done.returncode}: {done.stderr[-200:]!r}")

    return 1e3 * _median_time(once)


def run_all(L, seed: int) -> dict:
    rng = random.Random(seed)
    catalog = SampledCatalog(L, seed)
    out = {}
    out.update(group_probes(L, rng))
    out.update(algebra_sampling_probes(L, rng, catalog.alg))
    out.update(suite_probes(L, rng, catalog.alg, catalog.wit))
    out.update(finite_probes(L, rng))
    out.update(front_probes(L, rng))
    out["cli.process_ms"] = process_ms()
    return out

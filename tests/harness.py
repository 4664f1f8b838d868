"""Test-side helpers that the library itself does not need."""

import random

import pytest

from lexmv import axioms, reports, witnesses
from lexmv.reports import Report, canonical_json, run_suite
from lexmv.sampling import DEFAULT_BOUND, sample_elem
from lexmv.witnesses import LexAlgebra, Mapping


def hom_equal(h1, h2, samples: int = 500, seed: int = 0) -> bool:
    """Extensional equality of two GroupHoms on seeded samples (their
    presentations may differ)."""
    if h1.source != h2.source or h1.target != h2.target:
        return False
    rng = random.Random(seed)
    for _ in range(samples):
        a = h1.source.ops.sample(rng, 25)
        if h1._raw_apply(a) != h2._raw_apply(a):
            return False
    return True


def head_zero(x) -> bool:
    """Membership in the zero slice M_0 = {(0, g) : g >= 0} of a lex
    interval algebra: the head is 0, and g >= 0 follows from x >= 0."""
    return x.value[0] == x.algebra.spec.left.ops.zero


def ref_run_suite(command, samples, seed, draw, tables, **details):
    """run_suite's reference twin: the same loop without the tables' sets of
    passed keys, so it derives and checks every table on every draw,
    repeats included."""
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    rep = Report(command, "pass", seed=seed, samples=samples)
    for _, _, _, once in tables:
        for name, bad in once:
            found = bad()
            if found:
                return rep.fail(name, [str(e) for e in found])
    rng = random.Random(seed)
    for _ in range(samples):
        parts = draw(rng)
        for reads, derive, clauses, _ in tables:
            args = derive(*[parts[i] for i in reads])
            for name, bad in clauses:
                found = bad(*args)
                if found:
                    return rep.fail(name, [str(e) for e in found])
    if samples == 0:
        rep.verdict = "vacuous"
    rep.details.update(details)
    return rep


def under_both_runners(run) -> tuple:
    """run() under run_suite, then again with ref_run_suite patched into
    every module that calls the runner.  run returns a Report or a list of
    (name, Report); each side is its canonical JSON, to compare byte for byte."""
    def canon(out):
        return [(n, canonical_json(r)) for n, r in out] if isinstance(out, list) else canonical_json(out)

    got = canon(run())
    with pytest.MonkeyPatch.context() as m:
        for mod in (axioms, reports, witnesses):
            m.setattr(mod, "run_suite", ref_run_suite)
        want = canon(run())
    return got, want


def ref_axiom_report(alg, samples: int = 1000, seed: int = 0, bound: int = DEFAULT_BOUND):
    """axiom_report's reference twin: the same draw and clause table, with
    every negation built where a clause uses it, none shared.  Its draw
    builds every term, so its one table reads every part and passes them
    through."""
    one, zero_e = alg.one, alg.zero

    def draw(rng):
        x = sample_elem(alg, rng, bound)
        y = sample_elem(alg, rng, bound)
        z = sample_elem(alg, rng, bound)
        a6 = (
            x.oplus(x.tilde.odot(y)),
            y.oplus(y.tilde.odot(x)),
            x.odot(y.minus).oplus(y),
            y.odot(x.minus).oplus(x),
        )
        return x, y, z, a6, x.odot(x.minus.oplus(y))

    clauses = [
        ("A1", lambda x, y, z, *_: x.oplus(y.oplus(z)) != x.oplus(y).oplus(z) and (x, y, z)),
        ("A2", lambda x, *_: (x.oplus(zero_e) != x or zero_e.oplus(x) != x) and (x,)),
        ("A3", lambda x, *_: (x.oplus(one) != one or one.oplus(x) != one) and (x,)),
        ("A4", lambda *_: (one.tilde != zero_e or one.minus != zero_e) and (one,)),
        ("A5", lambda x, y, *_: x.minus.oplus(y.minus).tilde != x.tilde.oplus(y.tilde).minus
         and (x, y)),
        ("A6", lambda x, y, z, a6, a7: any(e != a6[0] for e in a6[1:]) and (x, y)),
        ("A7", lambda x, y, z, a6, a7: a7 != x.oplus(y.tilde).odot(y) and (x, y)),
        ("A8", lambda x, *_: (x.minus.tilde != x or x.tilde.minus != x) and (x,)),
        ("A6-join", lambda x, y, z, a6, a7: a6[0] != x.join(y) and (x, y)),
        ("A7-meet", lambda x, y, z, a6, a7: a7 != x.meet(y) and (x, y)),
    ]
    table = ((0, 1, 2, 3, 4), lambda *p: p, clauses, ())
    return run_suite("check-axioms", samples, seed, draw, [table],
                     algebra=str(alg), symmetric=alg.is_symmetric())


def ref_build_phi(w):
    """build_phi's reference twin: phi(x) = (t, x - c_t) calling the family
    for every image and preimage, and for the target's offset 1 - c_u."""
    la = w.lexalg
    alg = la.algebra
    target = LexAlgebra(la.base, la.fiber, w.family(la.base.unit).minus.value[1]).algebra
    f_add, f_neg = la.fiber.ops.add, la.fiber.ops.neg

    def fn(x):
        t = w.indexer(x)
        return target.elem((t, f_add(x.value[1], f_neg(w.family(t).value[1]))))

    def preimage(y):
        t, g = y.value
        return alg.elem((t, f_add(g, w.family(t).value[1])))

    return Mapping(alg, target, fn, preimage, description="phi(x) = (t, x - c_t)")

"""Sampled axiom and property suites for interval algebras.

Every universally quantified law is checked on seeded samples; the report
carries the first failing witness.  On the catalog algebras the interval
construction makes all of these pass exactly -- the suite exists so that
the CLI, mutation tests and the acceptance gate can certify it.
"""

from __future__ import annotations

from . import groups as gr
from .algebra import PmvAlgebra, iterate, left_residual, oplus_via_pea, right_residual
from .reports import Report, run_suite
from .sampling import DEFAULT_BOUND, sample_elem


def axiom_report(
    alg: PmvAlgebra, samples: int = 1000, seed: int = 0, bound: int = DEFAULT_BOUND
) -> Report:
    """A1-A8 on seeded triples, plus the A6/A7 lattice agreement and the
    double-negation identities.  The (x, y) table derives x^-, x^~, y^- and
    y^~ once and shares them between its clauses."""
    one, zero_e = alg.one, alg.zero

    def draw(rng):
        return (sample_elem(alg, rng, bound), sample_elem(alg, rng, bound),
                sample_elem(alg, rng, bound))

    def derive(x, y):
        xm, xt, ym, yt = x.minus, x.tilde, y.minus, y.tilde
        a6 = (x.oplus(xt.odot(y)), y.oplus(yt.odot(x)), x.odot(ym).oplus(y), y.odot(xm).oplus(x))
        return x, y, a6, x.odot(xm.oplus(y)), xm, xt, ym, yt

    a1 = lambda x, y, z: x.oplus(y.oplus(z)) != x.oplus(y).oplus(z) and (x, y, z)
    unary = [
        ("A2", lambda x: (x.oplus(zero_e) != x or zero_e.oplus(x) != x) and (x,)),
        ("A3", lambda x: (x.oplus(one) != one or one.oplus(x) != one) and (x,)),
    ]
    a4 = [("A4", lambda: (one.tilde != zero_e or one.minus != zero_e) and (one,))]
    pair = [
        ("A5", lambda x, y, a6, a7, xm, xt, ym, yt: xm.oplus(ym).tilde != xt.oplus(yt).minus
         and (x, y)),
        ("A6", lambda x, y, a6, *_: any(e != a6[0] for e in a6[1:]) and (x, y)),
        ("A7", lambda x, y, a6, a7, xm, xt, ym, yt: a7 != x.oplus(yt).odot(y) and (x, y)),
        ("A8", lambda x, y, a6, a7, xm, xt, *_: (xm.tilde != x or xt.minus != x) and (x,)),
        # A6/A7 define join and meet; they must agree with the group lattice
        ("A6-join", lambda x, y, a6, *_: a6[0] != x.join(y) and (x, y)),
        ("A7-meet", lambda x, y, a6, a7, *_: a7 != x.meet(y) and (x, y)),
    ]
    tables = [((0, 1, 2), lambda *p: p, [("A1", a1)], a4), ((0,), lambda *p: p, unary, ()),
              ((0, 1), derive, pair, ())]
    return run_suite("check-axioms", samples, seed, draw, tables,
                     algebra=str(alg), symmetric=alg.is_symmetric())


def pea_equivalence_report(alg: PmvAlgebra, samples: int = 1000, seed: int = 0) -> Report:
    """oplus recovered from the partial-sum structure equals oplus."""

    def pea_oplus(x, y):
        try:
            return oplus_via_pea(x, y) != x.oplus(y) and (x, y)
        except ValueError:  # a broken meet puts x /\ y^- above y^-
            return (x, y)

    draw = lambda rng: (sample_elem(alg, rng), sample_elem(alg, rng))
    table = ((0, 1), lambda *p: p, [("pea-oplus", pea_oplus)], ())
    return run_suite("pea-equivalence", samples, seed, draw, [table], algebra=str(alg))


def partial_sum_report(alg: PmvAlgebra, samples: int = 1000, seed: int = 0) -> Report:
    """PE1-PE4 on sampled triples where defined, the partial-sum/group-sum
    agreement, and the truncated-sum closed form n.x = (n*x) /\\ u."""
    ops, u = alg.ops, alg.unit
    one, zero_e = alg.one, alg.zero

    def draw(rng):
        return sample_elem(alg, rng), sample_elem(alg, rng), sample_elem(alg, rng), rng.randrange(21)

    def pe1(a, b, c):
        # (a+b)+c exists iff a+(b+c) exists, and then they are equal
        ab, bc = a.partial_add(b), b.partial_add(c)
        lhs = ab.partial_add(c) if ab is not None else None
        rhs = a.partial_add(bc) if bc is not None else None
        return lhs != rhs and (a, b, c)

    def pe3(a, b, ab):
        # a+b = d+a = b+e with d = (a+b)-a and e = -b+(a+b)
        if ab is None:
            return None
        d, e = left_residual(ab, a), right_residual(ab, b)
        return (ops.add(d.value, a.value) != ab.value
                or ops.add(b.value, e.value) != ab.value) and (a, b)

    pair = [
        # PE2: the two complements are the negations
        ("PE2", lambda a, *_: (a.partial_add(a.tilde) != one or a.minus.partial_add(a) != one)
         and (a,)),
        ("PE3", pe3),
        # PE4: a + 1 defined forces a = 0
        ("PE4", lambda a, *_: a != zero_e
         and (a.partial_add(one) is not None or one.partial_add(a) is not None) and (a,)),
        # (2.1): where defined, the partial sum is the plain group sum
        ("partial-sum-is-group-sum", lambda a, b, ab: ab is not None
         and ab.value != ops.add(a.value, b.value) and (a, b)),
    ]
    # closed form for truncated sums
    closed = [("truncated-closed-form", lambda a, n: iterate(a, n, "truncated").value
               != ops.meet(gr._nmul(ops.add, ops.zero, a.value, n), u) and (a, n))]
    tables = [((0, 1, 2), lambda *p: p, [("PE1", pe1)], ()),
              ((0, 1), lambda a, b: (a, b, a.partial_add(b)), pair, ()),
              ((0, 3), lambda *p: p, closed, ())]
    return run_suite("partial-sum", samples, seed, draw, tables, algebra=str(alg))

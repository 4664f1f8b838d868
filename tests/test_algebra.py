import copy
import math
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from fractions import Fraction

from harness import ref_axiom_report, under_both_runners
from lexmv import groups as gr
from lexmv.algebra import (
    CrossAlgebraError,
    IntervalError,
    PmvAlgebra,
    PmvElem,
    iterate,
    left_residual,
    oplus_via_pea,
    ord_of,
    right_residual,
)
from lexmv.axioms import axiom_report, partial_sum_report, pea_equivalence_report
from lexmv.reports import canonical_json
from lexmv.sampling import sample_elem

ZZ = gr.lex(gr.Z, gr.Z)
ZAFF = gr.lex(gr.Z, gr.AFF)


def alg(spec, unit):
    return PmvAlgebra(gr.UnitalGroup(spec, unit))


Z4 = alg(gr.Z, 4)
L10 = alg(ZZ, (1, 0))
L21 = alg(ZZ, (2, 1))


def test_interval_membership():
    with pytest.raises(IntervalError):
        Z4.elem(5)
    with pytest.raises(IntervalError):
        L10.elem((1, 1))
    L10.elem((1, 0))
    L10.elem((0, 10 ** 9))


def test_elem_rejects_bad_shape():
    with pytest.raises(gr.ShapeError):
        L10.elem((1, Fraction(1, 2)))
    with pytest.raises(gr.ShapeError):
        Z4.elem(True)
    with pytest.raises(gr.ShapeError):
        Z4.elem(Fraction(1, 2))
    with pytest.raises(gr.ShapeError):
        L10.elem(1)


def test_cross_algebra_is_error():
    with pytest.raises(CrossAlgebraError):
        Z4.elem(1).oplus(alg(gr.Z, 5).elem(1))


def test_oplus():
    assert Z4.elem(3).oplus(Z4.elem(2)) == Z4.elem(4)
    assert L10.elem((0, 3)).oplus(L10.elem((0, 5))) == L10.elem((0, 8))
    assert L10.elem((1, -2)).oplus(L10.elem((0, 5))) == L10.elem((1, 0))


def test_odot():
    two = alg(gr.Z, 2)
    assert two.elem(1).odot(two.elem(1)) == two.elem(0)
    assert Z4.elem(3).odot(Z4.elem(2)) == Z4.elem(1)
    assert L21.elem((1, 0)).odot(L21.elem((1, 0))) == L21.elem((0, 0))


def test_negations():
    x = Z4.elem(1)
    assert (x.minus, x.tilde) == (Z4.elem(3), Z4.elem(3))
    for k in (-3, 0, 4):
        y = L21.elem((1, k))
        assert (y.minus, y.tilde) == (L21.elem((1, 1 - k)), L21.elem((1, 1 - k)))
    na = alg(ZAFF, (1, gr.Aff(2, 0)))
    z = na.elem((0, gr.Aff(1, 1)))
    assert z.minus == na.elem((1, gr.Aff(2, -2)))
    assert z.tilde == na.elem((1, gr.Aff(2, -1)))
    assert not na.is_symmetric()
    assert alg(ZAFF, (1, gr.AFF_ID)).is_symmetric()


def test_partial_add():
    assert Z4.elem(1).partial_add(Z4.elem(2)) == Z4.elem(3)
    assert Z4.elem(3).partial_add(Z4.elem(2)) is None
    assert L10.elem((0, 3)).partial_add(L10.elem((0, 9))) == L10.elem((0, 12))


def test_residuals():
    for res in (left_residual, right_residual):
        assert res(Z4.elem(3), Z4.elem(1)) == Z4.elem(2)
        assert res(L10.elem((1, 0)), L10.elem((0, 5))) == L10.elem((1, -5))
        with pytest.raises(ValueError):
            res(Z4.elem(1), Z4.elem(3))
    na = alg(ZAFF, (1, gr.Aff(2, 0)))
    x, y = na.elem((1, gr.Aff(2, 0))), na.elem((0, gr.Aff(1, 1)))
    assert left_residual(x, y) == na.elem((1, gr.Aff(2, -2)))
    assert right_residual(x, y) == na.elem((1, gr.Aff(2, -1)))


def test_oplus_via_pea_values():
    assert oplus_via_pea(Z4.elem(3), Z4.elem(2)) == Z4.elem(4)
    assert oplus_via_pea(Z4.elem(0), Z4.elem(2)) == Z4.elem(2)
    assert oplus_via_pea(L10.elem((0, 2)), L10.elem((0, 3))) == L10.elem((0, 5))


def test_iterate():
    assert iterate(Z4.elem(3), 2, "truncated") == Z4.elem(4)
    assert iterate(Z4.elem(3), 2, "group-multiple") is None
    assert iterate(L10.elem((0, 2)), 5, "group-multiple") == L10.elem((0, 10))
    assert iterate(Z4.elem(3), 2, "power") == Z4.elem(2)
    with pytest.raises(ValueError):
        iterate(Z4.elem(1), -1, "truncated")
    with pytest.raises(ValueError):
        iterate(Z4.elem(1), 1, "nope")


def test_ord():
    assert ord_of(Z4.elem(3)) == 2
    assert ord_of(L10.elem((0, 9))) is math.inf
    assert ord_of(L10.elem((1, -5))) == 2
    assert ord_of(L21.elem((1, -5))) == 3
    assert ord_of(L21.elem((1, 1))) == 2
    assert ord_of(L21.elem((2, 1))) == 1
    q = alg(gr.Q, Fraction(1))
    assert ord_of(q.elem(Fraction(1, 3))) == 3
    assert ord_of(q.elem(Fraction(2, 5))) == 3
    na = alg(gr.AFF, gr.Aff(4, 0))
    assert ord_of(na.elem(gr.Aff(2, 1))) == 2
    assert ord_of(na.elem(gr.Aff(1, 0))) == math.inf


def ord_by_iteration(x, cap=200):
    acc = x.algebra.zero
    for n in range(1, cap + 1):
        acc = acc.oplus(x)
        if acc == x.algebra.one:
            return n
    return math.inf


def test_ord_matches_iteration():
    rng = random.Random(23)
    for a in (Z4, L10, L21, alg(gr.Q, Fraction(3, 2)), alg(ZAFF, (1, gr.Aff(2, 0)))):
        for _ in range(150):
            x = sample_elem(a, rng, bound=8)
            closed = ord_of(x)
            brute = ord_by_iteration(x)
            if brute is math.inf:
                assert closed is math.inf or closed > 200
            else:
                assert closed == brute


CATALOG = [
    Z4,
    L10,
    L21,
    alg(gr.lex(gr.Z, ZZ), (1, (0, 0))),
    alg(gr.lex(gr.Q, gr.Z), (Fraction(1), 0)),
    alg(ZAFF, (1, gr.Aff(2, 0))),
]


def test_axiom_suite_catalog():
    for a in CATALOG:
        rep = axiom_report(a, samples=400, seed=1)
        assert rep.ok, (str(a), rep.counterexamples)


def test_pea_equivalence_catalog():
    for a in CATALOG:
        rep = pea_equivalence_report(a, samples=400, seed=2)
        assert rep.ok, (str(a), rep.counterexamples)


def test_pea_equivalence_fails_where_a_broken_meet_breaks_the_residual(monkeypatch):
    # with meet = join, x /\ y^- can lie above y^-, where oplus_via_pea's
    # residual raises; the suite reports the pair instead of raising
    a = alg(ZZ, (2, 1))
    monkeypatch.setattr(a._kernels, "meet", a._kernels.join)
    with pytest.raises(ValueError):
        oplus_via_pea(a.elem((2, 0)), a.elem((1, 0)))
    for seed in (0, 1, 3):
        rep = pea_equivalence_report(a, 200, seed)
        assert rep.verdict == "fail" and rep.counterexamples[0]["clause"] == "pea-oplus", seed
        got, want = under_both_runners(lambda: pea_equivalence_report(a, 200, seed))
        assert got == want, seed


def test_partial_sum_suite_catalog():
    for a in CATALOG:
        rep = partial_sum_report(a, samples=300, seed=3)
        assert rep.ok, (str(a), rep.counterexamples)


TWIN_CATALOG = CATALOG + [
    alg(gr.Q, Fraction(3, 2)),
    alg(gr.AFF, gr.Aff(2, 0)),
]


def test_ops_match_checked_group_formulas():
    """Each PmvElem operation runs on unchecked group ops; the group
    formulas for the same operation, on shape-checked values, are its
    reference."""
    for a in TWIN_CATALOG:
        spec, ops, u = a.spec, a.spec.ops, a.unit
        sub = lambda v, w: ops.add(v, ops.neg(w))
        rng = random.Random(31)
        for _ in range(300):
            x, y = sample_elem(a, rng), sample_elem(a, rng)
            xv, yv = x.value, y.value
            assert x.cmp(y) == gr.g_cmp(spec, xv, yv)
            assert x.oplus(y).value == gr.g_meet(spec, gr.g_add(spec, xv, yv), u)
            assert x.odot(y).value == ops.join(gr.g_add(spec, sub(xv, u), yv), ops.zero)
            assert x.minus.value == sub(u, xv)
            assert x.tilde.value == gr.g_add(spec, ops.neg(xv), u)
            assert x.join(y).value == ops.join(xv, yv)
            assert x.meet(y).value == gr.g_meet(spec, xv, yv)
            s = gr.g_add(spec, xv, yv)
            p = x.partial_add(y)
            if ops.cmp(s, u) <= 0:
                assert p.value == s
            else:
                assert p is None
            if y.le(x):
                assert left_residual(x, y).value == sub(xv, yv)
                assert right_residual(x, y).value == gr.g_add(spec, ops.neg(yv), xv)


BOUNDARY_CATALOG = TWIN_CATALOG + [
    alg(gr.lex(gr.Z, gr.Z), (2, 0)),
    alg(gr.lex(gr.Q, gr.Q), (Fraction(3, 2), 0)),
    alg(gr.lex(gr.O, gr.AFF), (0, gr.Aff(3, 1))),
    alg(gr.lex(gr.Z, gr.lex(gr.Q, gr.AFF)), (1, (0, gr.Aff(2, 0)))),
]


def test_unchecked_results_pass_the_boundary_check():
    """Operation results and sampler draws are built without elem()'s
    check, because Gamma(G, u) is closed under the operations; every one
    of them must pass that check all the same."""
    for a in BOUNDARY_CATALOG:
        rng = random.Random(37)
        for _ in range(200):
            bound = rng.choice((0, 2, 25))
            x, y = sample_elem(a, rng, bound), sample_elem(a, rng, bound)
            built = [x, y, x.oplus(y), x.odot(y), x.minus, x.tilde, x.join(y), x.meet(y)]
            p = x.partial_add(y)
            if p is not None:
                built.append(p)
            if y.le(x):
                built += [left_residual(x, y), right_residual(x, y)]
            for e in built:
                assert e.algebra is a
                assert a.elem(e.value) == e, (str(a), e.value)


# ---------------------------------------------------------------------------
# The slotted element and its boundary check

SAMPLED_CATALOG = {
    "Z7": alg(gr.Z, 7),
    "Q3-2": alg(gr.Q, Fraction(3, 2)),
    "Aff2": alg(gr.AFF, gr.Aff(2, 0)),
    "ZxZ21": alg(ZZ, (2, 1)),
    "ZxAff": alg(ZAFF, (1, gr.Aff(2, 0))),
    "ZxZ20": alg(ZZ, (2, 0)),
    "QxQ": alg(gr.lex(gr.Q, gr.Q), (Fraction(3, 2), 0)),
}


def ref_elem_error(a, v):
    """The error the element check raises on v, as a dataclass
    __post_init__ once raised it: check_shape, then membership of [0, u]."""
    try:
        gr.check_shape(a.spec, v)
    except gr.ShapeError as exc:
        return exc
    ops = a.ops
    if ops.cmp(v, ops.zero) < 0 or ops.cmp(v, a.unit) > 0:
        return IntervalError(f"{ops.fmt(v)} outside [0, u] in {a}")
    return None


def test_elem_and_constructor_raise_the_reference_errors():
    odd = [True, 1.5, "1", None, (0,), (0, 0, 0), Fraction(1, 2), -3, 10**9, (1, True)]
    rng = random.Random(41)
    for a in SAMPLED_CATALOG.values():
        values = odd + [a.unit, a.ops.zero] + [a.ops.sample(rng, 25) for _ in range(60)]
        for v in values:
            want = ref_elem_error(a, v)
            for build in (a.elem, lambda v: PmvElem(a, v)):
                if want is None:
                    e = build(v)
                    assert (e.algebra, e.value) == (a, v)
                    continue
                with pytest.raises(type(want)) as info:
                    build(v)
                assert type(info.value) is type(want) and str(info.value) == str(want), (str(a), v)


def test_elements_are_slotted_and_frozen():
    e = L21.elem((1, 4))
    assert not hasattr(e, "__dict__")
    for name in ("value", "algebra", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, (0, 0))
        with pytest.raises(FrozenInstanceError):
            delattr(e, name)
    assert e.value == (1, 4) and e.algebra is L21


def test_equality_spans_equal_algebras():
    twin = alg(ZZ, (2, 1))
    assert twin is not L21 and twin == L21
    x, y = L21.elem((1, 4)), twin.elem((1, 4))
    assert x == y and hash(x) == hash(y) and not x != y
    assert x.oplus(y) == y.oplus(x.oplus(L21.zero))
    assert x != L21.elem((1, 3)) and x != alg(ZZ, (2, 2)).elem((1, 4))
    assert x.__eq__((1, 4)) is NotImplemented and x != (1, 4)
    assert len({x, y, L21._kernels.make((1, 4)), twin.elem((0, 0))}) == 2


def test_pickle_and_copy_round_trips():
    rng = random.Random(42)
    for a in SAMPLED_CATALOG.values():
        items = [a.spec, a.group, a] + [sample_elem(a, rng) for _ in range(20)]
        for obj in items:
            for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
                assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)
                assert str(back) == str(obj)
        back = pickle.loads(pickle.dumps(a))
        x, y = items[-2], items[-1]
        assert back.elem(x.value).oplus(back.elem(y.value)) == x.oplus(y)
        assert back.spec.ops.add(x.value, y.value) == a.ops.add(x.value, y.value)
    # a pickle is outside input: unpickling checks the value again
    forged = pickle.dumps(Z4._kernels.make(9))
    with pytest.raises(IntervalError, match=r"^9 outside \[0, u\] in gamma\(Z,4\)$"):
        pickle.loads(forged)


# ---------------------------------------------------------------------------
# The compiled kernels against the interval formulas


def test_kernels_match_the_interval_formulas():
    """Each algebra compiles its operations once, with u and -u bound in.
    Every kernel, called directly and through its element method, equals
    the formula on alg.ops and alg.group.unit, and returns an element of
    alg itself; a distinct but equal algebra still mixes with it, and a
    different algebra is refused."""
    cases = list(SAMPLED_CATALOG.values()) + [alg(gr.O, 0)]
    for a in cases:
        ops, u, k = a.ops, a.group.unit, a._kernels
        twin, other = alg(a.spec, u), alg(gr.Z, 3)
        rng = random.Random(53)
        for _ in range(150):
            x, y = sample_elem(a, rng), sample_elem(a, rng)
            xv, yv = x.value, y.value
            s = ops.add(xv, yv)
            want = {
                "oplus": ops.meet(s, u),
                "odot": ops.join(ops.add(ops.add(xv, ops.neg(u)), yv), ops.zero),
                "join": ops.join(xv, yv),
                "meet": ops.meet(xv, yv),
                "partial_add": s if ops.cmp(s, u) <= 0 else None,
            }
            for name, value in want.items():
                for got in (getattr(k, name)(xv, yv), getattr(x, name)(y),
                            getattr(x, name)(twin.elem(yv))):
                    if value is None:
                        assert got is None, (str(a), name, xv, yv)
                        continue
                    assert got.algebra is a and got.value == value, (str(a), name, xv, yv)
                    assert type(got.value) is type(value), (str(a), name, xv, yv)
                with pytest.raises(CrossAlgebraError):
                    getattr(x, name)(other.one)
            assert x.cmp(twin.elem(yv)) == ops.cmp(xv, yv)
            for name, value in (("minus", ops.add(u, ops.neg(xv))), ("tilde", ops.add(ops.neg(xv), u))):
                for got in (getattr(k, name)(xv), getattr(x, name)):
                    assert got.algebra is a and got.value == value, (str(a), name, xv)
            assert k.make(xv).value is xv and k.make(xv).algebra is a
        with pytest.raises(CrossAlgebraError):
            a.one.cmp(other.one)


# ---------------------------------------------------------------------------
# axiom_report against its twin, which builds every negation where it is used


def test_axiom_report_matches_reference_twin():
    for name, a in SAMPLED_CATALOG.items():
        for seed in range(30):
            got, want = axiom_report(a, 50, seed), ref_axiom_report(a, 50, seed)
            assert canonical_json(got) == canonical_json(want), (name, seed)


def _minus_off_by_one(a):
    # x^- = (u - x - e) \/ 0, one step e below the true negation
    k, ops = a._kernels, a.ops
    e = 1 if a.spec == gr.Z else (0, 1)
    return lambda v: k.make(ops.join(ops.add(ops.add(a.unit, ops.neg(v)), ops.neg(e)), ops.zero))


def _minus_by_tilde_formula(a):
    # x^- = -x + u, right for a central unit only
    return a._kernels.tilde


def test_broken_a4_fails_at_zero_samples(monkeypatch):
    # A4 reads no sample, so it runs once before the draws: with x~ = x
    # (so 1~ = 1) it fails even at zero samples, where the twin, which
    # checks it per draw, reports vacuous
    a = SAMPLED_CATALOG["ZxZ21"]
    monkeypatch.setattr(a._kernels, "tilde", a._kernels.make)
    for n in (0, 50):
        rep = axiom_report(a, n)
        assert rep.verdict == "fail", n
        assert rep.counterexamples == [{"clause": "A4", "witness": [str(a.one)]}], n
    assert ref_axiom_report(a, 0).verdict == "vacuous"
    got, want = under_both_runners(lambda: axiom_report(a, 0))
    assert got == want


# a broken minus kernel, and the seed whose first failing clause is A5 or A8:
# the shared negations must carry the kernel's value into the same clause
BROKEN_MINUS = [
    ("Z7", _minus_off_by_one, 0, "A5"),
    ("Z7", _minus_off_by_one, 2, "A8"),
    ("ZxZ21", _minus_off_by_one, 0, "A5"),
    ("Aff2", _minus_by_tilde_formula, 1, "A8"),
]


@pytest.mark.parametrize("name, broken, seed, clause", BROKEN_MINUS)
def test_broken_minus_fails_like_the_twin(monkeypatch, name, broken, seed, clause):
    a = SAMPLED_CATALOG[name]
    monkeypatch.setattr(a._kernels, "minus", broken(a))
    got, want = axiom_report(a, 100, seed), ref_axiom_report(a, 100, seed)
    assert got.verdict == "fail" and got.counterexamples[0]["clause"] == clause
    assert canonical_json(got) == canonical_json(want)
    # and like run_suite's twin, which checks every repeated draw again
    got, want = under_both_runners(lambda: axiom_report(a, 100, seed))
    assert got == want

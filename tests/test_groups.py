import ast
import copy
import dataclasses
import functools
import gc
import inspect
import math
import pickle
import random
from pathlib import Path

import pytest
from fractions import Fraction

from harness import hom_equal
from lexmv import axioms, dsl, finite, witnesses
from lexmv import groups as gr
from lexmv.algebra import PmvAlgebra
from lexmv.sampling import DEFAULT_BOUND, clamp, sample_elem, sample_zero_slice
from test_golden import CASES


ZZ = gr.lex(gr.Z, gr.Z)


def test_add_basic():
    assert gr.g_add(gr.Z, 3, 5) == 8
    assert gr.g_add(ZZ, (1, -2), (0, 5)) == (1, 3)


def test_aff_composition_noncommutative():
    a = gr.Aff(2, 0)
    b = gr.Aff(1, 1)
    assert gr.g_add(gr.AFF, a, b) == gr.Aff(2, 2)
    assert gr.g_add(gr.AFF, b, a) == gr.Aff(2, 1)


def test_neg():
    assert gr.Z.ops.neg(7) == -7
    assert gr.AFF.ops.neg(gr.Aff(2, 4)) == gr.Aff(Fraction(1, 2), -2)
    assert gr.g_add(gr.AFF, gr.Aff(2, 4), gr.AFF.ops.neg(gr.Aff(2, 4))) == gr.AFF_ID
    zq = gr.lex(gr.Z, gr.Q)
    assert zq.ops.neg((1, Fraction(3, 2))) == (-1, Fraction(-3, 2))


def test_cmp_lex():
    assert gr.g_cmp(ZZ, (0, 100), (1, -100)) == -1
    assert gr.g_cmp(gr.AFF, gr.AFF_ID, gr.AFF_ID) == 0
    nested = gr.lex(gr.Z, ZZ)
    assert gr.g_cmp(nested, (0, (0, -1)), (0, (0, 0))) == -1


def test_lattice():
    assert gr.Z.ops.join(3, -1) == 3
    assert gr.g_meet(ZZ, (1, 5), (1, 2)) == (1, 2)
    assert gr.g_meet(ZZ, (0, 9), (1, -9)) == (0, 9)


def test_join_meet_are_bounds():
    rng = random.Random(5)
    for spec in (gr.Z, gr.Q, gr.AFF, ZZ, gr.lex(gr.Q, gr.AFF)):
        ops = spec.ops
        le = lambda a, b: ops.cmp(a, b) <= 0
        for _ in range(100):
            a = gr.sample_group_elem(spec, rng)
            b = gr.sample_group_elem(spec, rng)
            j = ops.join(a, b)
            m = gr.g_meet(spec, a, b)
            assert le(a, j) and le(b, j)
            assert le(m, a) and le(m, b)
            c = gr.sample_group_elem(spec, rng)
            if le(a, c) and le(b, c):
                assert le(j, c)
            if le(c, a) and le(c, b):
                assert le(c, m)


def test_group_laws_sampled():
    rng = random.Random(11)
    for spec in (gr.Z, gr.Q, gr.AFF, ZZ, gr.lex(gr.Z, gr.AFF)):
        z = spec.ops.zero
        for _ in range(200):
            a = gr.sample_group_elem(spec, rng)
            b = gr.sample_group_elem(spec, rng)
            c = gr.sample_group_elem(spec, rng)
            assert gr.g_add(spec, gr.g_add(spec, a, b), c) == gr.g_add(
                spec, a, gr.g_add(spec, b, c)
            )
            assert gr.g_add(spec, a, z) == a and gr.g_add(spec, z, a) == a
            assert gr.g_add(spec, a, spec.ops.neg(a)) == z


def test_order_bi_invariance():
    rng = random.Random(13)
    for spec in (gr.AFF, gr.lex(gr.Z, gr.AFF)):
        for _ in range(300):
            a = gr.sample_group_elem(spec, rng)
            b = gr.sample_group_elem(spec, rng)
            x = gr.sample_group_elem(spec, rng)
            y = gr.sample_group_elem(spec, rng)
            if gr.g_cmp(spec, a, b) > 0:
                a, b = b, a
            lhs = gr.g_add(spec, gr.g_add(spec, x, a), y)
            rhs = gr.g_add(spec, gr.g_add(spec, x, b), y)
            assert gr.g_cmp(spec, lhs, rhs) <= 0


def test_aff_conjugation_preserves_strict_order():
    rng = random.Random(17)
    for _ in range(300):
        f = gr.sample_group_elem(gr.AFF, rng)
        g = gr.sample_group_elem(gr.AFF, rng)
        h = gr.sample_group_elem(gr.AFF, rng)
        if gr.g_cmp(gr.AFF, f, g) == 0:
            continue
        if gr.g_cmp(gr.AFF, f, g) > 0:
            f, g = g, f
        cf = gr.g_add(gr.AFF, gr.g_add(gr.AFF, h, f), gr.AFF.ops.neg(h))
        cg = gr.g_add(gr.AFF, gr.g_add(gr.AFF, h, g), gr.AFF.ops.neg(h))
        assert gr.g_cmp(gr.AFF, cf, cg) < 0


def test_center():
    assert gr.Q.ops.central(Fraction(7, 3))
    assert not gr.AFF.ops.central(gr.Aff(2, 0))
    assert gr.lex(gr.Z, gr.AFF).ops.central((5, gr.AFF_ID))


def test_center_soundness_sampled():
    rng = random.Random(19)
    spec = gr.lex(gr.Z, gr.AFF)
    for _ in range(200):
        a = gr.sample_group_elem(spec, rng)
        if spec.ops.central(a):
            for _ in range(20):
                b = gr.sample_group_elem(spec, rng)
                assert gr.g_add(spec, a, b) == gr.g_add(spec, b, a)


def test_shape_checks():
    with pytest.raises(gr.ShapeError):
        gr.check_shape(ZZ, (1, Fraction(1, 2)))
    with pytest.raises(gr.ShapeError):
        gr.check_shape(gr.Z, Fraction(1, 2))
    with pytest.raises(gr.ShapeError):
        gr.Aff(0, 1)
    # Aff parts follow the Q shape rule: int (not bool) or Fraction
    for slope, shift in ((0.5, 0), ("1/2", "3"), (True, False), (2, 0.1)):
        with pytest.raises(gr.ShapeError, match="Aff needs int or Fraction parts"):
            gr.Aff(slope, shift)


def test_strong_units():
    gr.UnitalGroup(gr.Z, 3)
    gr.UnitalGroup(gr.Q, Fraction(1, 2))
    gr.UnitalGroup(gr.AFF, gr.Aff(2, 0))
    gr.UnitalGroup(ZZ, (1, -4))
    gr.UnitalGroup(gr.lex(gr.O, gr.Z), (0, 5))
    with pytest.raises(ValueError):
        gr.UnitalGroup(gr.Z, 0)
    with pytest.raises(ValueError):
        gr.UnitalGroup(gr.AFF, gr.Aff(1, 2))  # a translation is not strong
    with pytest.raises(ValueError):
        gr.UnitalGroup(ZZ, (0, 5))  # head zero over a nontrivial head group
    gr.UnitalGroup(gr.lex(gr.lex(gr.O, gr.O), gr.Z), ((0, 0), 2))  # a trivial head


def test_dropped_lex_spec_is_freed_by_reference_counting():
    # a lex record's closures do not refer to their spec, so a spec and
    # its cached ops form no cycle that only the collector could free
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            spec = gr.lex(gr.Z, gr.lex(gr.Q, gr.Z))
            spec.ops
            del spec
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nmul():
    assert gr._nmul(gr.Z.ops.add, gr.Z.ops.zero, 3, 4) == 12
    assert gr._nmul(gr.AFF.ops.add, gr.AFF_ID, gr.Aff(2, 1), 3) == gr.g_add(
        gr.AFF, gr.Aff(2, 1), gr.g_add(gr.AFF, gr.Aff(2, 1), gr.Aff(2, 1))
    )


def test_homs():
    h = gr.scale_hom(gr.Z, 3)
    assert gr.hom_apply(h, 4) == 12
    assert gr.hom_apply(gr.scale_hom(gr.Z, 0), 4) == 0
    p = gr.pairwise_hom(gr.identity_hom(gr.Z), gr.scale_hom(gr.Z, 2))
    assert gr.hom_apply(p, (1, 3)) == (1, 6)
    inj = gr.inject_right_hom(gr.Z, gr.Z)
    assert gr.hom_apply(inj, 7) == (0, 7)
    comp = gr.hom_compose(p, gr.inject_right_hom(gr.Z, gr.Z))
    assert gr.hom_apply(comp, 5) == (0, 10)


def test_hom_rejects_non_homs():
    with pytest.raises(gr.HomError):
        gr.scale_hom(gr.Z, -1)  # order reversal
    with pytest.raises(gr.HomError):
        gr.scale_hom(gr.AFF, 2)
    with pytest.raises(gr.HomError):
        gr.GroupHom(gr.Z, gr.Q, "identity")
    ZQ, ident = gr.lex(gr.Z, gr.Q), gr.identity_hom(gr.Z)
    shapes = [
        ("pairwise requires lex source", gr.Z, gr.Z, "pairwise", (ident, ident)),
        ("pairwise left component", ZQ, ZQ, "pairwise", (gr.identity_hom(gr.Q), ident)),
        ("pairwise right component", ZQ, ZQ, "pairwise", (ident, ident)),
        (r"inject_right target must be lex\(H, source\)", gr.Q, ZZ, "inject_right", ()),
        ("composition endpoint mismatch", gr.Q, gr.Z, "compose", (ident, ident)),
    ]
    for message, source, target, kind, payload in shapes:
        with pytest.raises(gr.HomError, match=message):
            gr.GroupHom(source, target, kind, payload)
    with pytest.raises(gr.HomError, match="cannot compose: Q != Z"):
        gr.hom_compose(ident, gr.identity_hom(gr.Q))


def test_hom_equal():
    assert hom_equal(gr.scale_hom(gr.Z, 1), gr.identity_hom(gr.Z))
    assert not hom_equal(gr.scale_hom(gr.Z, 1), gr.scale_hom(gr.Z, 2))
    assert not hom_equal(gr.scale_hom(gr.Z, 2), gr.scale_hom(gr.Z, 3))
    assert not hom_equal(gr.identity_hom(gr.Z), gr.identity_hom(gr.Q))


def test_group_specs_are_checked():
    """A base kind takes no factors and lex takes two specs, so a bad spec
    is refused where it is built, and a forged pickle where it loads."""
    for bad in [("W",), ("lex",), ("lex", gr.Z), ("lex", gr.Z, "Q"), ("Z", gr.Z, gr.Q), (["Z"],)]:
        with pytest.raises(ValueError, match="not a group spec"):
            gr.GroupSpec(*bad)
    with pytest.raises(ValueError, match="not a group spec: 'W'"):
        gr.GroupHom(gr.GroupSpec("W"), gr.GroupSpec("W"), "scale", (1,))
    with pytest.raises(ValueError, match="not a group spec: 'W'"):
        gr.GroupHom(gr.GroupSpec("W"), gr.GroupSpec("W"), "zero")
    with pytest.raises(ValueError, match="not a group spec: 'lex'"):
        gr.GroupHom(gr.GroupSpec("lex"), gr.GroupSpec("lex"), "identity")
    forged = object.__new__(gr.GroupSpec)
    for name, value in dict(kind="Z", left=gr.Z, right=gr.Q).items():
        object.__setattr__(forged, name, value)
    with pytest.raises(ValueError, match="not a group spec: 'Z'"):
        pickle.loads(pickle.dumps(forged))
    assert pickle.loads(pickle.dumps(ZZ)) == ZZ


def test_fmt_elem():
    assert ZZ.ops.fmt((1, -2)) == "(1,-2)"
    assert gr.AFF.ops.fmt(gr.Aff(Fraction(1, 2), 3)) == "aff(1/2,3)"


# ---------------------------------------------------------------------------
# Reference twins of the compiled ops: the per-kind recursive definitions
# the ops record replaced, kept here as the test-time reference.


def ref_zero(spec):
    if spec.kind == "lex":
        return (ref_zero(spec.left), ref_zero(spec.right))
    if spec.kind == "Aff":
        return gr.AFF_ID
    if spec.kind == "Q":
        return Fraction(0)
    return 0


def ref_check_shape(spec, v) -> None:
    ok = False
    if spec.kind == "O":
        ok = v == 0 and isinstance(v, int) and not isinstance(v, bool)
    elif spec.kind == "Z":
        ok = isinstance(v, int) and not isinstance(v, bool)
    elif spec.kind == "Q":
        ok = isinstance(v, (int, Fraction)) and not isinstance(v, bool)
    elif spec.kind == "Aff":
        ok = isinstance(v, gr.Aff)
    elif spec.kind == "lex":
        if isinstance(v, tuple) and len(v) == 2:
            ref_check_shape(spec.left, v[0])
            ref_check_shape(spec.right, v[1])
            ok = True
    if not ok:
        raise gr.ShapeError(f"value {v!r} does not match spec {spec}")


def ref_add(spec, a, b):
    if spec.kind == "lex":
        return (ref_add(spec.left, a[0], b[0]), ref_add(spec.right, a[1], b[1]))
    if spec.kind == "Aff":
        return gr.Aff(a.slope * b.slope, a.slope * b.shift + a.shift)
    return a + b


def ref_neg(spec, a):
    if spec.kind == "lex":
        return (ref_neg(spec.left, a[0]), ref_neg(spec.right, a[1]))
    if spec.kind == "Aff":
        return gr.Aff(1 / a.slope, -a.shift / a.slope)
    return -a


def ref_cmp(spec, a, b) -> int:
    if spec.kind == "lex":
        c = ref_cmp(spec.left, a[0], b[0])
        if c != 0:
            return c
        return ref_cmp(spec.right, a[1], b[1])
    if spec.kind == "Aff":
        if a.slope != b.slope:
            return -1 if a.slope < b.slope else 1
        if a.shift != b.shift:
            return -1 if a.shift < b.shift else 1
        return 0
    if a == b:
        return 0
    return -1 if a < b else 1


def ref_lattice(spec, a, b, which):
    if spec.kind == "lex":
        c = ref_cmp(spec.left, a[0], b[0])
        if c == 0:
            return (a[0], ref_lattice(spec.right, a[1], b[1], which))
        lo, hi = (a, b) if c < 0 else (b, a)
        return lo if which == "meet" else hi
    c = ref_cmp(spec, a, b)
    lo, hi = (a, b) if c <= 0 else (b, a)
    return lo if which == "meet" else hi


def ref_shape_ok(spec, v) -> bool:
    try:
        ref_check_shape(spec, v)
    except gr.ShapeError:
        return False
    return True


BASE_SPECS = (gr.O, gr.Z, gr.Q, gr.AFF)
DEPTH1 = tuple(gr.lex(h, g) for h in BASE_SPECS for g in BASE_SPECS)
TWIN_SPECS = (
    BASE_SPECS
    + DEPTH1
    + (
        gr.lex(gr.Z, gr.lex(gr.Q, gr.AFF)),
        gr.lex(gr.lex(gr.Z, gr.Q), gr.Z),
        gr.lex(gr.O, gr.lex(gr.O, gr.AFF)),
        gr.lex(gr.lex(gr.O, gr.Q), gr.lex(gr.Z, gr.AFF)),
        gr.lex(gr.Q, gr.lex(gr.Z, gr.lex(gr.O, gr.AFF))),
        gr.lex(gr.lex(gr.lex(gr.Q, gr.Z), gr.O), gr.lex(gr.Q, gr.Q)),
    )
)


def tie_prone_elem(spec, rng):
    """Values from a small range, so that ties are common; Q values are a
    mix of int and Fraction, where the tie rules decide which one a meet
    or join returns."""
    if spec.kind == "O":
        return 0
    if spec.kind == "Z":
        return rng.randint(-2, 2)
    if spec.kind == "Q":
        n = rng.randint(-4, 4)
        return n // 2 if rng.random() < 0.4 else Fraction(n, rng.choice((1, 2)))
    if spec.kind == "Aff":
        return gr.Aff(rng.choice((Fraction(1, 2), 1, 2)), rng.randint(-1, 1))
    return (tie_prone_elem(spec.left, rng), tie_prone_elem(spec.right, rng))


def test_compiled_ops_match_reference_twins():
    """Results must agree with the twins in value and in type (repr tells
    1 from Fraction(1)), so the tie rules are checked too."""
    rng = random.Random(41)
    for spec in TWIN_SPECS:
        ops = spec.ops
        assert repr(ops.zero) == repr(ref_zero(spec))
        for _ in range(150):
            if rng.random() < 0.5:
                a, b = tie_prone_elem(spec, rng), tie_prone_elem(spec, rng)
            else:
                a, b = gr.sample_group_elem(spec, rng, 6), gr.sample_group_elem(spec, rng, 6)
            assert ops.shape_ok(a) and ops.shape_ok(b)
            assert repr(ops.add(a, b)) == repr(ref_add(spec, a, b)), (spec, a, b)
            assert repr(ops.neg(a)) == repr(ref_neg(spec, a)), (spec, a)
            assert ops.cmp(a, b) == ref_cmp(spec, a, b), (spec, a, b)
            assert repr(ops.meet(a, b)) == repr(ref_lattice(spec, a, b, "meet")), (spec, a, b)
            assert repr(ops.join(a, b)) == repr(ref_lattice(spec, a, b, "join")), (spec, a, b)
            assert repr(gr.g_meet(spec, a, b)) == repr(ops.meet(a, b))


def aff_leaves(v):
    if isinstance(v, gr.Aff):
        yield v
    elif isinstance(v, tuple):
        for part in v:
            yield from aff_leaves(part)


def assert_canonical(f):
    """Reduced parts with positive denominators and a positive slope."""
    sn, sd, hn, hd = f.parts
    assert all(type(p) is int for p in f.parts), f.parts
    assert sn > 0 and sd > 0 and hd > 0, f.parts
    assert math.gcd(sn, sd) == 1 and math.gcd(hn, hd) == 1, f.parts


def test_aff_values_are_canonical():
    """repr rebuilds Fractions, which normalize, so the repr-based twin test
    cannot see an unreduced part; check the parts themselves."""
    built = [gr.Aff(Fraction(4, 2), Fraction(-6, 4)), gr.Aff(Fraction(-6, -4), 0),
             gr.Aff(Fraction(10, 15), Fraction(0, 7)), gr.Aff(6, Fraction(9, 3))]
    assert [f.parts for f in built] == [(2, 1, -3, 2), (3, 2, 0, 1), (2, 3, 0, 1), (6, 1, 3, 1)]
    rng = random.Random(59)
    affs = list(built)
    for spec in TWIN_SPECS:
        if "Aff" not in str(spec):
            continue
        ops = spec.ops
        for _ in range(60):
            a, b = twin_pool(spec, rng, 2)
            for v in (a, b, ops.add(a, b), ops.neg(a), ops.meet(a, b), ops.join(a, b),
                      ops.add(a, ops.neg(a)), ops.add(ops.neg(b), b),
                      gr._nmul(ops.add, ops.zero, a, 5)):
                affs.extend(aff_leaves(v))
    for f in affs:
        assert_canonical(f)
    # == and hash agree with equality of the (slope, shift) Fraction pair
    for f, g in zip(affs, affs[1:] + affs[:1]):
        for x, y in ((f, g), (f, gr.Aff(f.slope, f.shift)), (f, gr.AFF_ID)):
            assert (x == y) == ((x.slope, x.shift) == (y.slope, y.shift)), (x, y)
            assert (x != y) == (not x == y)
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert gr.AFF_ID != (1, 1, 0, 1) and gr.AFF_ID.parts == (1, 1, 0, 1)


def test_aff_values_are_immutable():
    f = gr.Aff(2, 3)
    with pytest.raises(AttributeError):
        f.parts = (1, 1, 0, 1)
    with pytest.raises(AttributeError):
        del f.parts
    with pytest.raises(AttributeError):
        f.slope = Fraction(1)
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f
    assert f == gr.Aff(2, 3)


def test_shape_ok_matches_reference_check_shape():
    rng = random.Random(43)
    odd = [True, False, 1.5, "1", None, [0, 0], (0,), (0, 0, 0), Fraction(1, 2), Fraction(2), -3,
           gr.AFF_ID, (True, 0), (0, 1.0), ((0, 0), 0), (0, (0, gr.AFF_ID)), ((0, 0), (0, 0))]
    pool = odd + [gr.sample_group_elem(s, rng, 3) for s in TWIN_SPECS for _ in range(3)]
    pool += [tie_prone_elem(s, rng) for s in TWIN_SPECS for _ in range(3)]
    for spec in TWIN_SPECS:
        for v in pool:
            want = ref_shape_ok(spec, v)
            assert spec.ops.shape_ok(v) == want, (spec, v)
            if want:
                gr.check_shape(spec, v)
            else:
                with pytest.raises(gr.ShapeError):
                    gr.check_shape(spec, v)


def catalog_atomic_homs():
    """Every atomic hom the catalog builds on the twin specs: identity,
    zero, scale with several factors, and inject_right."""
    homs = []
    for spec in TWIN_SPECS:
        homs.append(gr.identity_hom(spec))
        homs.append(gr.zero_hom(spec, spec))
        homs.append(gr.inject_right_hom(gr.Z, spec))
    for spec in BASE_SPECS:
        homs.append(gr.zero_hom(spec, gr.lex(gr.Q, gr.AFF)))
        homs.append(gr.inject_right_hom(gr.O, spec))
    for k in (0, 1, 2, 7):
        homs.append(gr.scale_hom(gr.Z, k))
    for k in (0, 1, 3, Fraction(1, 3), Fraction(5, 2)):
        homs.append(gr.scale_hom(gr.Q, k))
    return homs


def ref_sampled_check(h, samples=500):
    """The sampled twin of the exact pairwise decision: preservation of +,
    negation, join and meet on seeded samples, every image shape-checked
    against the target.  It is sound only where it fails: a kernel hit
    only by rare draws passes it."""
    rng = random.Random(0xA11CE)
    src, tgt = h.source.ops, h.target.ops

    def image(v):
        fv = h._raw_apply(v)
        gr.check_shape(h.target, fv)
        return fv

    for _ in range(samples):
        a = src.sample(rng, 25)
        b = src.sample(rng, 25)
        fa, fb = image(a), image(b)
        if image(src.add(a, b)) != tgt.add(fa, fb):
            raise gr.HomError(f"{h} fails additivity at {a!r}, {b!r}")
        if image(src.neg(a)) != tgt.neg(fa):
            raise gr.HomError(f"{h} fails negation at {a!r}")
        if image(src.join(a, b)) != tgt.join(fa, fb):
            raise gr.HomError(f"{h} fails join at {a!r}, {b!r}")
        if image(src.meet(a, b)) != tgt.meet(fa, fb):
            raise gr.HomError(f"{h} fails meet at {a!r}, {b!r}")


def test_atomic_homs_pass_the_sampled_check():
    """Atomic kinds are l-homomorphisms by construction; the sampled
    check must agree."""
    for h in catalog_atomic_homs():
        ref_sampled_check(h)


def test_sampled_check_still_guards_pairwise():
    """A pairwise map whose head kills a positive element while its tail
    is not zero is additive but not monotone, so no l-homomorphism:
    pairwise(scale(Z, 0), identity(Z)) sends (1, -5) > 0 to (0, -5) < 0.
    Construction refuses it; an injective head or a zero tail builds."""
    with pytest.raises(gr.HomError):
        gr.pairwise_hom(gr.scale_hom(gr.Z, 0), gr.identity_hom(gr.Z))
    with pytest.raises(gr.HomError):
        gr.pairwise_hom(gr.zero_hom(gr.Z, gr.Z), gr.scale_hom(gr.Z, 2))
    p = gr.pairwise_hom(gr.scale_hom(gr.Z, 2), gr.zero_hom(gr.Z, gr.Z))
    assert gr.hom_apply(gr.hom_compose(p, gr.inject_right_hom(gr.Z, gr.Z)), 5) == (0, 0)


def test_failed_sampled_check_raises_on_every_construction():
    with pytest.raises(gr.HomError) as first:
        gr.pairwise_hom(gr.scale_hom(gr.Z, 0), gr.identity_hom(gr.Z))
    assert str(first.value) == "pairwise(scale(0),identity) fails join at (1, 0), (0, 1)"
    for _ in range(3):
        with pytest.raises(gr.HomError) as again:
            gr.pairwise_hom(gr.scale_hom(gr.Z, 0), gr.identity_hom(gr.Z))
        assert str(again.value) == str(first.value)


def test_compose_skips_the_sampled_check():
    """A composition of checked l-homomorphisms is one, so only its
    presentation is checked."""
    with pytest.raises(gr.HomError):
        gr.pairwise_hom(gr.scale_hom(gr.Z, 0), gr.identity_hom(gr.Z))
    p = gr.pairwise_hom(gr.scale_hom(gr.Z, 2), gr.identity_hom(gr.Z))
    comp = gr.hom_compose(p, gr.inject_right_hom(gr.Z, gr.Z))
    assert gr.hom_apply(comp, 5) == (0, 5)
    with pytest.raises(gr.HomError, match="composition shape mismatch"):
        gr.GroupHom(gr.Q, ZZ, "compose", (p, gr.identity_hom(gr.Q)))


def test_homs_round_trip_through_pickle_and_copy():
    p = gr.pairwise_hom(gr.scale_hom(gr.Z, 2), gr.identity_hom(gr.Q))
    comp = gr.hom_compose(p, gr.inject_right_hom(gr.Z, gr.Q))
    for h in catalog_atomic_homs() + [p, comp]:
        assert pickle.loads(pickle.dumps(h)) == h, h
        assert copy.deepcopy(h) == h, h


def test_forged_hom_pickle_is_checked_on_load():
    """A pickle is outside input: loading it runs the constructor's checks."""
    forged = object.__new__(gr.GroupHom)
    fields = dict(source=ZZ, target=ZZ, kind="pairwise",
                  payload=(gr.zero_hom(gr.Z, gr.Z), gr.identity_hom(gr.Z)))
    for name, value in fields.items():
        object.__setattr__(forged, name, value)
    data = pickle.dumps(forged)
    with pytest.raises(gr.HomError, match="fails join"):
        pickle.loads(data)
    with pytest.raises(gr.HomError, match="fails join"):
        copy.deepcopy(forged)


def test_malformed_payload_is_a_hom_error():
    """The endpoints and the payload's form are checked before anything
    reads them, so a malformed presentation is a HomError, not an
    AttributeError or a ValueError from unpacking, and an identity takes
    no payload."""
    bad = [("compose", (1, 2)), ("scale", ()), ("scale", (1, 2)), ("identity", (5,)),
           ("pairwise", (gr.identity_hom(gr.Z),)), ("zero", [])]
    for kind, payload in bad:
        with pytest.raises(gr.HomError, match="payload|components"):
            gr.GroupHom(gr.Z, gr.Z, kind, payload)
        forged = object.__new__(gr.GroupHom)
        for name, value in dict(source=gr.Z, target=gr.Z, kind=kind, payload=payload).items():
            object.__setattr__(forged, name, value)
        with pytest.raises(gr.HomError, match="payload|components"):
            pickle.loads(pickle.dumps(forged))
    for kind in ("shift", ["zero"]):
        with pytest.raises(gr.HomError, match="unknown hom kind"):
            gr.GroupHom(gr.Z, gr.Z, kind, ())
    for source, target, kind in ((1, 2, "zero"), (None, gr.Z, "zero"), (1, 1, "identity")):
        with pytest.raises(gr.HomError, match="endpoints must be GroupSpecs"):
            gr.GroupHom(source, target, kind)
        forged = object.__new__(gr.GroupHom)
        for name, value in dict(source=source, target=target, kind=kind, payload=()).items():
            object.__setattr__(forged, name, value)
        with pytest.raises(gr.HomError, match="endpoints must be GroupSpecs"):
            pickle.loads(pickle.dumps(forged))


def nested_homs():
    """Pairwise and composed homs, some zero or one-to-one only as a
    whole, and homs from a trivial group."""
    ZQ = gr.lex(gr.Z, gr.Q)
    inj = gr.pairwise_hom(gr.scale_hom(gr.Z, 2), gr.identity_hom(gr.Q))
    null = gr.pairwise_hom(gr.zero_hom(gr.Z, gr.Z), gr.scale_hom(gr.Q, 0))
    head_only = gr.pairwise_hom(gr.scale_hom(gr.Z, 3), gr.zero_hom(gr.Q, gr.Q))
    aff_head = gr.pairwise_hom(gr.identity_hom(gr.AFF), gr.zero_hom(gr.Z, gr.Z))
    return [
        inj, null, head_only, aff_head,
        gr.hom_compose(inj, gr.inject_right_hom(gr.Z, gr.Q)),
        gr.hom_compose(null, gr.inject_right_hom(gr.Z, gr.Q)),
        gr.hom_compose(gr.zero_hom(ZQ, gr.Z), inj),
        gr.hom_compose(head_only, inj),
        gr.hom_compose(head_only, gr.inject_right_hom(gr.Z, gr.Q)),
        gr.hom_compose(aff_head, gr.inject_right_hom(gr.AFF, gr.Z)),
        gr.hom_compose(gr.inject_right_hom(gr.Z, gr.Z), gr.scale_hom(gr.Z, 0)),
        gr.pairwise_hom(gr.identity_hom(gr.Z), head_only),
        gr.pairwise_hom(gr.zero_hom(gr.O, gr.Z), inj),
        gr.identity_hom(gr.O),
        gr.inject_right_hom(gr.Z, gr.O),
        gr.hom_compose(gr.inject_right_hom(gr.Q, gr.lex(gr.Z, gr.O)), gr.inject_right_hom(gr.Z, gr.O)),
    ]


# the base coordinates of ref_box: both signs at every level of each
# group's chain of convex subgroups
BOX = {"O": (0,), "Z": (-1, 0, 1), "Q": (Fraction(-1, 2), 0, 1),
       "Aff": (gr.Aff(Fraction(1, 2), 1), gr.Aff(1, -1), gr.AFF_ID, gr.Aff(1, 1), gr.Aff(2, 0))}


@functools.lru_cache(maxsize=None)
def ref_box(spec):
    if spec.kind == "lex":
        return tuple((a, b) for a in ref_box(spec.left) for b in ref_box(spec.right))
    return BOX[spec.kind]


def ref_pairwise_is_l_hom(h1, h2) -> bool:
    """Box-exhaustive reference: the additive map f(a, b) = (h1 a, h2 b)
    is an l-homomorphism iff f(x v 0) = f(x) v 0 for every x, here every
    x of the source's box, with the reference twins' join."""
    src, tgt = gr.lex(h1.source, h2.source), gr.lex(h1.target, h2.target)
    zs, zt = ref_zero(src), ref_zero(tgt)
    for x in ref_box(src):
        fx = (h1._raw_apply(x[0]), h2._raw_apply(x[1]))
        x_pos = ref_lattice(src, x, zs, "join")
        if (h1._raw_apply(x_pos[0]), h2._raw_apply(x_pos[1])) != ref_lattice(tgt, fx, zt, "join"):
            return False
    return True


def assert_refusal_breaks_join(h1, h2, message):
    """The refusal names a pair (a, b) of the source whose join the map
    does not preserve, recomputed here with the ops records."""
    prefix = f"pairwise({h1},{h2}) fails join at "
    assert message.startswith(prefix), message
    a, b = eval("(" + message[len(prefix):] + ")", {"Aff": gr.Aff, "Fraction": Fraction})
    src, tgt = gr.lex(h1.source, h2.source).ops, gr.lex(h1.target, h2.target).ops
    assert src.shape_ok(a) and src.shape_ok(b), message
    f = lambda v: (h1._raw_apply(v[0]), h2._raw_apply(v[1]))
    assert f(src.join(a, b)) != tgt.join(f(a), f(b)), message


def test_pairwise_proof_matches_the_sampled_check():
    """On seeded pairs of atomic and nested homs, compositions and trivial
    sources among them, pairwise(h1, h2) builds exactly when the
    box-exhaustive reference finds it an l-homomorphism.  Every accepted
    pair passes the sampled check, and every refusal names a pair whose
    join really is not preserved."""
    pool = catalog_atomic_homs() + nested_homs()
    rng = random.Random(47)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(500)]
    accepted = refused = composed = trivial = 0
    for h1, h2 in pairs:
        want = ref_pairwise_is_l_hom(h1, h2)
        try:
            h = gr.pairwise_hom(h1, h2)
        except gr.HomError as e:
            assert not want, (str(h1), str(h2))
            assert_refusal_breaks_join(h1, h2, str(e))
            refused += 1
        else:
            assert want, str(h)
            ref_sampled_check(h, 20)
            accepted += 1
        composed += "compose" in (h1.kind, h2.kind)
        trivial += h1.source.ops.trivial or h2.source.ops.trivial
    assert accepted > 300 and refused > 60 and composed > 50 and trivial > 50, (
        accepted, refused, composed, trivial)


def test_pairwise_decision_refuses_what_the_samples_missed():
    """Two pairwise maps that are no l-homomorphisms, yet pass the sampled
    check: their heads kill only elements that seeded draws rarely hit."""
    p = gr.pairwise_hom(gr.scale_hom(gr.Z, 3), gr.zero_hom(gr.Q, gr.Q))
    cases = [(gr.pairwise_hom(gr.identity_hom(gr.Z), p), p),
             (gr.pairwise_hom(gr.identity_hom(gr.AFF), gr.zero_hom(gr.Z, gr.Z)), gr.identity_hom(gr.Z))]
    for h1, h2 in cases:
        assert not ref_pairwise_is_l_hom(h1, h2)
        with pytest.raises(gr.HomError) as refusal:
            gr.pairwise_hom(h1, h2)
        assert_refusal_breaks_join(h1, h2, str(refusal.value))
        forged = object.__new__(gr.GroupHom)
        fields = dict(source=gr.lex(h1.source, h2.source), target=gr.lex(h1.target, h2.target),
                      kind="pairwise", payload=(h1, h2))
        for name, value in fields.items():
            object.__setattr__(forged, name, value)
        ref_sampled_check(forged)


def test_proven_pairwise_skips_the_sampled_check():
    """An injective head, or a zero tail, makes a pairwise hom (the
    functor's ZxQ hom is one)."""
    gr.pairwise_hom(gr.scale_hom(gr.Z, 2), gr.zero_hom(gr.Z, gr.Z))
    gr.pairwise_hom(gr.scale_hom(gr.Z, 3), gr.scale_hom(gr.Q, Fraction(1, 2)))


def test_small_and_large_facts():
    """small is None exactly on a trivial group, whose large is 0; on any
    other, 0 < small <= large."""
    for spec in TWIN_SPECS:
        ops = spec.ops
        assert (ops.small is None) == ref_trivial(spec), spec
        if ops.small is None:
            assert ops.large == ref_zero(spec), spec
            continue
        assert ops.shape_ok(ops.small) and ops.shape_ok(ops.large), spec
        assert ref_cmp(spec, ops.small, ops.zero) > 0 and ref_cmp(spec, ops.large, ops.zero) > 0, spec
        assert ref_cmp(spec, ops.small, ops.large) <= 0, spec


def test_hom_apply_checks_its_argument():
    with pytest.raises(gr.ShapeError):
        gr.hom_apply(gr.scale_hom(gr.Z, 2), Fraction(1, 2))
    with pytest.raises(gr.ShapeError):
        gr.hom_apply(gr.pairwise_hom(gr.identity_hom(gr.Z), gr.scale_hom(gr.Z, 2)), 3)


def test_library_modules_compute_with_the_ops_record():
    """Outside groups.py the library computes with spec.ops, so no module
    calls the checked g_add/g_cmp/g_meet or hom_apply, and none defines a
    retired checked wrapper again at module level.  Outside algebra.py
    and sampling.py no module reaches an algebra's compiled kernels
    (``_kernels``, whose make builds elements unchecked) or a ``_make``,
    so outside values (witness families, images of phi and of homs) enter
    an algebra only through alg.elem; the one exception is
    witnesses.quotient_to_base, whose head projection and its preimage
    stay in the interval by the lex order.  GroupHom decides pairwise homs
    exactly, so the sampled check, its sample count and the facts that
    decided when it ran stay gone.  States and ideals are plain callables,
    and quotient decides ideals by the principal rule, so the StateFn and
    SymbolicIdeal wrappers and the second ideal rule _is_ideal stay gone.
    check_axioms' commutative clause makes every finite ideal normal with
    a commutative quotient, so the per-ideal scans is_normal and
    _is_commutative stay gone; their twins are test references.  Each
    group kind reads its literal, its interval draw and its chain rule, and
    each hom kind its rules, from one record, so sampling.py,
    dsl.build_elem, dsl.finite and GroupHom compare no ``.kind``, dsl.py
    names no "aff" and reads no gr.Z, and AffNode, _ARITY, finite_size and
    as_finite stay gone.  theorem_suite checks the zero slice's ideal laws,
    so the second copy canonical_lex_ideal stays gone, and the offset-0 test
    is LexAlgebra.zero_offset, so no module names strong_form.  Every memo
    lives in one call: no module uses lru_cache, functools.cache decorates
    only argument-free builders (the CLI's parser), and witnesses.py,
    axioms.py and reports.py bind no dict or set at module level, so
    run_suite's set of passed samples is never shared across runs.  Each
    caller of a residual keeps one side, so the two-sided residuals stays
    gone.  Only finite._trusted skips FiniteMv's axiom scan, so no module
    reads an unchecked flag.  canonical_json leaves the walk of a report
    to json, so _jsonable stays gone."""
    checked = {"g_add", "g_cmp", "g_meet", "hom_apply"}
    unchecked = {"_kernels", "_make"}
    retired = {"zero", "g_neg", "g_sub", "g_le", "g_join", "g_nmul", "center_contains",
               "fmt_elem", "base_maximality", "_HOM_VALIDATION_SAMPLES", "hom_equal",
               "ideal_flags", "StateFn", "SymbolicIdeal", "_is_ideal", "is_normal",
               "_is_commutative", "AffNode", "_ARITY", "finite_size", "as_finite",
               "canonical_lex_ideal", "residuals", "_jsonable"}
    retired_members = {"strong_form", "merge", "unchecked"}
    kind_free = {("dsl.py", "build_elem"), ("dsl.py", "finite"), ("groups.py", "GroupHom")}
    retired_hom_methods = {"_sampled_validation", "_injective", "_null"}
    call_scoped = {"witnesses.py", "axioms.py", "reports.py"}
    modules = sorted(Path(gr.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    found_trusted = False
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        if path.name != "groups.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    assert name not in checked, f"{path.name}:{node.lineno} calls {name}"
        if path.name not in ("algebra.py", "sampling.py"):
            # quotient_to_base builds heads of interval elements, which lie in [0, u]
            trusted = {id(n) for d in tree.body if (path.name, getattr(d, "name", None)) == (
                "witnesses.py", "quotient_to_base") for n in ast.walk(d)}
            found_trusted |= bool(trusted)
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and id(node) not in trusted:
                    assert node.attr not in unchecked, f"{path.name}:{node.lineno} reads {node.attr}"
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", None)
            assert name not in retired_members, f"{path.name}:{node.lineno} names {name}"
        # a cache decorator on an argument-free function builds a constant once
        constant = {id(d) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                    and not any(vars(n.args)[k] for k in ("posonlyargs", "args", "vararg",
                                                          "kwonlyargs", "kwarg"))
                    for d in n.decorator_list}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias)):
                name = getattr(node, "attr", None) or getattr(node, "id", None) or node.name
                assert name != "lru_cache" and (name != "cache" or id(node) in constant), (
                    f"{path.name}:{getattr(node, 'lineno', '?')} caches across calls")
        if path.name in call_scoped:
            for node in tree.body:
                value = getattr(node, "value", None)
                displays = (ast.Dict, ast.DictComp, ast.Set, ast.SetComp)
                assert not (isinstance(value, displays) or (isinstance(value, ast.Call) and (
                    getattr(value.func, "id", None) in ("dict", "set")))), (
                    f"{path.name}:{node.lineno} binds a module-level dict or set")
        if path.name == "dsl.py":
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Constant) and node.value == "aff"), node.lineno
                assert not (isinstance(node, ast.Attribute) and node.attr == "Z"
                            and getattr(node.value, "id", None) == "gr"), f"dsl.py:{node.lineno} reads gr.Z"
        # the whole of sampling.py, and the named definitions elsewhere
        scopes = [tree] if path.name == "sampling.py" else [
            n for n in tree.body if (path.name, getattr(n, "name", None)) in kind_free]
        for scope in scopes:
            name = getattr(scope, "name", path.name)
            kind_free.discard((path.name, name))
            for cmp in (n for n in ast.walk(scope) if isinstance(n, ast.Compare)):
                operands = [cmp.left, *cmp.comparators]
                assert not any(isinstance(x, ast.Attribute) and x.attr == "kind" for x in operands), (
                    f"{path.name}:{cmp.lineno} compares a .kind in {name}")
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "GroupHom":
                methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                assert not methods & retired_hom_methods, f"GroupHom defines {methods}"
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {a.asname or a.name for a in node.names}
            else:
                continue
            assert not names & retired, f"{path.name}:{node.lineno} defines {names & retired}"
    assert not kind_free, f"not found: {kind_free}"
    assert found_trusted, "witnesses.quotient_to_base not found"


def test_retired_options_stay_gone():
    """Only the suites the CLI's --bound reaches take a bound, FiniteMv
    takes no unchecked switch, so replace cannot copy one past the scan,
    and _hom_tables takes no part index z: each command names the parts
    of its own draw."""
    suites = [f for mod in (axioms, witnesses) for name, f in vars(mod).items()
              if inspect.isfunction(f) and f.__module__ == mod.__name__ and not name.startswith("_")]
    assert {f.__name__ for f in suites if "bound" in inspect.signature(f).parameters} == {
        "axiom_report", "check_witness", "verify_hom"}
    assert list(inspect.signature(witnesses._hom_tables).parameters) == ["m", "check_injective"]
    c2 = finite.make_chain(2)
    with pytest.raises(TypeError):
        finite.FiniteMv(c2.size, c2.oplus, c2.neg, c2.zero, c2.one, unchecked=True)
    with pytest.raises(finite.TableError):
        dataclasses.replace(c2, oplus=((0, 1, 2), (1, 0, 2), (2, 2, 2)))


def test_scale_presentation_types():
    with pytest.raises(gr.HomError, match="scale on Q needs an integer or Fraction factor"):
        gr.scale_hom(gr.Q, 0.5)
    with pytest.raises(gr.HomError):
        gr.scale_hom(gr.Z, Fraction(2))
    with pytest.raises(gr.HomError):
        gr.scale_hom(gr.Q, "2")
    with pytest.raises(gr.HomError, match="scale on Z needs an integer factor"):
        gr.scale_hom(gr.Z, True)  # bool is an int, but no value of Z
    assert gr.hom_apply(gr.scale_hom(gr.Q, Fraction(1, 2)), 3) == Fraction(3, 2)


# ---------------------------------------------------------------------------
# Reference twins of the record's other rules: the per-kind recursive
# definitions it replaced.  Two are amended as the record is: a trivial
# head (not only O) admits a zero head unit, and a zero head unit passes
# the state on to the tail.


def ref_trivial(spec) -> bool:
    if spec.kind == "lex":
        return ref_trivial(spec.left) and ref_trivial(spec.right)
    return spec.kind == "O"


def ref_fmt_elem(spec, v) -> str:
    if spec.kind == "lex":
        return f"({ref_fmt_elem(spec.left, v[0])},{ref_fmt_elem(spec.right, v[1])})"
    if spec.kind == "Aff":
        return f"aff({ref_fmt_rat(v.slope)},{ref_fmt_rat(v.shift)})"
    return ref_fmt_rat(v)


def ref_fmt_rat(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


REF_AFF_SLOPES = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(3))


def ref_sample_group_elem(spec, rng, bound=25):
    if spec.kind == "O":
        return 0
    if spec.kind == "Z":
        return rng.randint(-bound, bound)
    if spec.kind == "Q":
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 8))
    if spec.kind == "Aff":
        return gr.Aff(rng.choice(REF_AFF_SLOPES), Fraction(rng.randint(-bound, bound)))
    return (ref_sample_group_elem(spec.left, rng, bound), ref_sample_group_elem(spec.right, rng, bound))


def ref_center_contains(spec, a) -> bool:
    if spec.kind == "Aff":
        return a == gr.AFF_ID
    if spec.kind == "lex":
        return ref_center_contains(spec.left, a[0]) and ref_center_contains(spec.right, a[1])
    return True


def ref_validate_strong_unit(spec, u) -> None:
    if spec.kind == "O":
        return
    if spec.kind == "Z":
        if u < 1:
            raise ValueError("strong unit of Z must be >= 1")
    elif spec.kind == "Q":
        if u <= 0:
            raise ValueError("strong unit of Q must be > 0")
    elif spec.kind == "Aff":
        if u.slope <= 1:
            raise ValueError("strong unit of Aff must have slope > 1")
    elif spec.kind == "lex":
        head = u[0]
        if ref_cmp(spec.left, head, ref_zero(spec.left)) > 0:
            ref_validate_strong_unit(spec.left, head)
        elif ref_trivial(spec.left):  # amended: was spec.left.kind == "O"
            ref_validate_strong_unit(spec.right, u[1])
        else:
            raise ValueError(
                f"strong unit of {spec} needs a positive head, got {ref_fmt_elem(spec, u)}"
            )


def ref_nmul(spec, a, n):
    acc = ref_zero(spec)
    for _ in range(n):
        acc = ref_add(spec, acc, a)
    return acc


def ref_ord(spec, v, u):
    if ref_cmp(spec, v, ref_zero(spec)) == 0:
        return 1 if ref_cmp(spec, u, ref_zero(spec)) == 0 else math.inf
    if spec.kind == "Z":
        return -(-u // v)
    if spec.kind == "Q":
        return math.ceil(Fraction(u) / Fraction(v))
    if spec.kind == "Aff":
        if v.slope == 1:
            return math.inf
        n = 1
        while ref_cmp(spec, ref_nmul(spec, v, n), u) < 0:
            n += 1
        return n
    h, g = v
    uh, ug = u
    if ref_cmp(spec.left, h, ref_zero(spec.left)) == 0:
        if ref_cmp(spec.left, uh, ref_zero(spec.left)) == 0:
            return ref_ord(spec.right, g, ug)
        return math.inf
    n0 = ref_ord(spec.left, h, uh)
    if n0 is math.inf:
        return math.inf
    if ref_cmp(spec.left, ref_nmul(spec.left, h, n0), uh) > 0:
        return n0
    if ref_cmp(spec.right, ref_nmul(spec.right, g, n0), ug) >= 0:
        return n0
    return n0 + 1


def ref_base_state(spec, unit):
    """The unique state of Gamma(spec, unit), or None without a closed form."""
    if spec.kind == "Z":
        return lambda t: Fraction(t, unit)
    if spec.kind == "Q":
        return lambda t: Fraction(t) / Fraction(unit)
    if spec.kind == "lex" and ref_cmp(spec.left, unit[0], ref_zero(spec.left)) > 0:
        inner = ref_base_state(spec.left, unit[0])
        return inner and (lambda t: inner(t[0]))
    if spec.kind == "lex" and ref_trivial(spec.left):  # amended: fall through to the tail
        inner = ref_base_state(spec.right, unit[1])
        return inner and (lambda t: inner(t[1]))
    return None


def ref_facts(spec):
    """(abelian, linear, archimedean, trivial)."""
    if spec.kind == "lex":
        h, t = ref_facts(spec.left), ref_facts(spec.right)
        arch = (h[3] and t[2]) or (t[3] and h[2])
        return (h[0] and t[0], t[1], arch, h[3] and t[3])
    return (spec.kind != "Aff", True, spec.kind != "Aff", spec.kind == "O")


def unit_outcome(check, u):
    try:
        check(u)
    except ValueError as exc:
        return str(exc)
    return None


def twin_pool(spec, rng, n):
    return [tie_prone_elem(spec, rng) if rng.random() < 0.5 else gr.sample_group_elem(spec, rng, 3)
            for _ in range(n)]


def test_record_rules_match_reference_twins():
    rng = random.Random(47)
    for spec in TWIN_SPECS:
        ops = spec.ops
        assert (ops.abelian, ops.linear, ops.archimedean, ops.trivial) == ref_facts(spec), spec
        for v in twin_pool(spec, rng, 60):
            assert ops.fmt(v) == ref_fmt_elem(spec, v), (spec, v)
            assert ops.central(v) == ref_center_contains(spec, v), (spec, v)
            assert unit_outcome(ops.check_unit, v) == unit_outcome(
                lambda u: ref_validate_strong_unit(spec, u), v), (spec, v)


def test_record_sampler_matches_reference_draw_for_draw():
    for seed, spec in enumerate(TWIN_SPECS):
        ours, ref = random.Random(seed), random.Random(seed)
        for bound in (0, 1, 3, 25):
            for _ in range(20):
                assert repr(gr.sample_group_elem(spec, ours, bound)) == repr(
                    ref_sample_group_elem(spec, ref, bound)), (spec, bound)
        assert ours.random() == ref.random(), spec


# Reference twins of the interval sampler and the finiteness rule, written
# per kind outside the records, as branches on spec.kind.


def ref_sample_zero_slice(alg, rng, bound=DEFAULT_BOUND):
    spec = alg.spec
    tail_ops = spec.right.ops
    tail = tail_ops.join(tail_ops.sample(rng, bound), tail_ops.zero)
    return clamp(alg, (spec.left.ops.zero, tail))


def ref_sample_elem(alg, rng, bound=DEFAULT_BOUND):
    spec = alg.spec
    mode = rng.randrange(6)
    if mode == 0:
        return alg.zero
    if mode == 1:
        return alg.one
    if spec.kind == "lex" and mode in (2, 3):
        low = ref_sample_zero_slice(alg, rng, bound)
        return low if mode == 2 else low.minus
    if spec.kind == "Z":
        return alg.elem(rng.randint(0, min(alg.unit, bound)))
    return clamp(alg, alg.ops.sample(rng, bound))


def ref_chain(spec, n):
    """n when Gamma(spec, n) is a chain Gamma(Z, n), trivial lex factors
    dropped, else None."""
    while spec.kind == "lex" and (spec.left.ops.trivial or spec.right.ops.trivial):
        i = 1 if spec.left.ops.trivial else 0
        spec, n = (spec.left, spec.right)[i], n[i]
    return n if spec == gr.Z else None


def golden_gammas():
    """(algebra, bound) for every gamma that a golden check-axioms case builds."""
    out = {}
    for argv in CASES:
        if argv[0] != "check-axioms" or len(argv) < 2 or not argv[1].startswith("gamma("):
            continue
        try:
            alg = dsl.build_algebra(dsl.parse(argv[1]))
        except dsl.ParseError:
            continue
        bound = int(argv[argv.index("--bound") + 1]) if "--bound" in argv else DEFAULT_BOUND
        out[argv[1], bound] = alg, bound
    return list(out.values())


def test_interval_sampler_matches_reference_draw_for_draw():
    algs = golden_gammas()
    assert len(algs) >= 15 and sum(a.spec.kind == "lex" for a, _ in algs) >= 10
    for seed, (alg, bound) in enumerate(algs):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            assert repr(sample_elem(alg, ours, bound).value) == repr(
                ref_sample_elem(alg, ref, bound).value), alg
        if alg.spec.kind == "lex":
            for _ in range(200):
                assert repr(sample_zero_slice(alg, ours, bound).value) == repr(
                    ref_sample_zero_slice(alg, ref, bound).value), alg
        assert ours.random() == ref.random(), alg


def test_record_chain_matches_reference_twin():
    rng = random.Random(59)
    chains = 0
    for spec in TWIN_SPECS:
        for v in twin_pool(spec, rng, 30):
            n = spec.ops.chain(v)
            assert n == ref_chain(spec, v), (spec, v)
            chains += n is not None
    assert chains >= 60


def test_record_ord_and_state_match_reference_twins():
    rng = random.Random(53)
    units = 0
    for spec in TWIN_SPECS:
        ops = spec.ops
        for u in twin_pool(spec, rng, 30):
            if ops.cmp(u, ops.zero) < 0 or unit_outcome(ops.check_unit, u) is not None:
                continue
            units += 1
            alg = PmvAlgebra(gr.UnitalGroup(spec, u))
            ours, ref = ops.state(u), ref_base_state(spec, u)
            assert (ours is None) == (ref is None), (spec, u)
            for _ in range(15):
                x = sample_elem(alg, rng, 4).value
                assert repr(ops.ord(x, u)) == repr(ref_ord(spec, x, u)), (spec, x, u)
                if ours is not None:
                    assert repr(ours(x)) == repr(ref(x)), (spec, x, u)
    assert units > 150


def test_fmt_and_the_literal_rule_are_two_halves_of_one_record():
    # every value a record formats, its literal rule reads back, and the
    # printer prints the parsed literal as the record formatted it
    for seed, spec in enumerate(TWIN_SPECS):
        rng = random.Random(seed)
        for bound in (0, 1, 3, 25):
            for _ in range(10):
                v = spec.ops.sample(rng, bound)
                text = spec.ops.fmt(v)
                node = dsl.parse_elem(text)
                assert dsl.build_elem(spec, node) == v, (spec, text)
                assert dsl.print_ast(node) == text, (spec, text)

"""End-to-end acceptance checks for the whole package.

Each test is a self-contained property: axiom sampling on the algebra
catalog, recovery of oplus from the partial sum, the decomposition
theorem suite with mutation analysis, reproduction of the worked
classification examples, weak/strong contrasts, the representation
homomorphism, the exhaustive finite oracle, functor laws, and CLI
determinism.
"""

import itertools
import json
import math
import random
import time

from fractions import Fraction

from lexmv import cli, dsl, finite
from harness import hom_equal
from lexmv import groups as gr
from lexmv.algebra import PmvAlgebra, oplus_via_pea, ord_of
from lexmv.axioms import axiom_report
from lexmv.sampling import sample_elem
from lexmv.witnesses import (
    LexAlgebra,
    PerfectWitness,
    build_phi,
    canonical_witness,
    check_cyclic,
    check_decomposition,
    classify,
    extract_morphism,
    lift_morphism,
    midpoint_certificate,
    mutation_suite,
    state_on_lex,
    theorem_suite,
    verify_hom,
)

ZZ = gr.lex(gr.Z, gr.Z)


def gamma(spec, unit):
    return PmvAlgebra(gr.UnitalGroup(spec, unit))


LEX_CATALOG = [
    gamma(ZZ, (1, 0)),
    gamma(ZZ, (2, 1)),
    gamma(gr.lex(gr.Z, ZZ), (1, (0, 0))),
    gamma(gr.lex(gr.Q, gr.Z), (Fraction(1), 0)),
    gamma(gr.lex(gr.Z, gr.AFF), (1, gr.Aff(2, 0))),
]

CATALOG = [gamma(gr.Z, n) for n in range(1, 7)] + LEX_CATALOG


def lexalg(base_spec, base_unit, fiber, offset):
    return LexAlgebra(gr.UnitalGroup(base_spec, base_unit), fiber, offset)


STRONG_CATALOG = [
    lexalg(gr.Z, 1, gr.Z, 0),
    lexalg(gr.Z, 2, gr.Z, 0),
    lexalg(gr.Z, 1, ZZ, (0, 0)),
    lexalg(ZZ, (1, 0), gr.Z, 0),
    lexalg(gr.Q, Fraction(1), gr.Z, 0),
    lexalg(gr.Z, 1, gr.AFF, gr.AFF_ID),
    lexalg(gr.Q, Fraction(1), gr.AFF, gr.AFF_ID),
]


def test_axiom_suite_on_catalog():
    t0 = time.monotonic()
    for a in CATALOG:
        rep = axiom_report(a, samples=1000, seed=101)
        assert rep.ok, (str(a), rep.counterexamples)
    assert time.monotonic() - t0 < 5.0


def test_oplus_recovered_from_partial_sum():
    for n in range(1, 7):
        a = gamma(gr.Z, n)
        for i in range(n + 1):
            for j in range(n + 1):
                x, y = a.elem(i), a.elem(j)
                assert oplus_via_pea(x, y) == x.oplus(y)
    for a in LEX_CATALOG:
        rng = random.Random(102)
        for _ in range(1000):
            x = sample_elem(a, rng)
            y = sample_elem(a, rng)
            assert oplus_via_pea(x, y) == x.oplus(y), (str(a), str(x), str(y))


def test_decomposition_theorem_suite():
    for lx in STRONG_CATALOG:
        rep = theorem_suite(canonical_witness(lx, "strong"), 500, seed=103)
        assert rep.ok, (str(lx.algebra), rep.counterexamples)


def test_mutations_all_caught():
    results = mutation_suite(seed=104)
    assert len(results) == 6
    for name, rep in results:
        assert not rep.ok, name
        assert len(rep.counterexamples) >= 1, name


def test_zero_slice_of_nested_head():
    # base Z with unit 1, fiber Z lex Z: the zero slice is exactly the set
    # of interval elements with head 0
    m1 = lexalg(gr.Z, 1, ZZ, (0, 0))
    w = canonical_witness(m1, "strong")
    s = state_on_lex(m1)
    span = range(-25, 26)
    for t, n, m in itertools.product(span, repeat=3):
        in_zero_set = t == 0 and (n > 0 or (n == 0 and m >= 0))
        in_interval = in_zero_set or (t == 1 and (n < 0 or (n == 0 and m <= 0)))
        try:
            x = m1.algebra.elem((t, (n, m)))
        except ValueError:
            assert not in_interval
            continue
        assert in_interval
        assert (classify(w, x) == 0) == in_zero_set
        assert s(x) == (0 if in_zero_set else 1)


def test_zero_slice_of_nested_fiber():
    # base Z lex Z with unit (1,0), fiber Z: the zero slice is the
    # nonnegative fiber over head (0,0), strictly smaller than the state
    # kernel, which also absorbs the infinitesimal heads (0,b) with b > 0
    m2 = lexalg(ZZ, (1, 0), gr.Z, 0)
    w = canonical_witness(m2, "strong")
    s = state_on_lex(m2)
    span = range(-25, 26)
    for a, b, m in itertools.product(span, repeat=3):
        in_zero_set = (a, b) == (0, 0) and m >= 0
        try:
            x = m2.algebra.elem(((a, b), m))
        except ValueError:
            continue
        assert (classify(w, x) == (0, 0)) == in_zero_set
        assert s(x) in (0, 1)
        assert s(x) == a
    extra = m2.algebra.elem(((0, 1), -7))
    assert s(extra) == 0 and classify(w, extra) != (0, 0)


def test_weak_witness_contrast():
    weak = lexalg(gr.Z, 2, gr.Z, 1)
    w = canonical_witness(weak, "weak")
    assert check_decomposition(w, 1000, seed=105).ok
    assert check_cyclic(w, 1000, seed=105).ok
    strong = PerfectWitness(weak, w.indexer, w.family, "strong")
    rep = check_cyclic(strong, 1000, seed=105)
    assert not rep.ok
    assert any(c["clause"] == "iii-top" for c in rep.counterexamples)


def test_no_midpoint_certificate():
    rep = midpoint_certificate(lexalg(gr.Z, 2, gr.Z, 1))
    assert rep.details["solvable"] is False
    assert rep.details["reason"]
    assert midpoint_certificate(lexalg(gr.Z, 2, gr.Z, 0)).details["solvable"] is True


def test_shear_isomorphism():
    src = gamma(ZZ, (2, 0))
    tgt = gamma(ZZ, (2, 2))
    from lexmv.witnesses import Mapping

    theta = Mapping(
        src,
        tgt,
        lambda x: tgt.elem((x.value[0], x.value[1] + x.value[0])),
        preimage=lambda y: src.elem((y.value[0], y.value[1] - y.value[0])),
        description="theta(k,n) = (k, n+k)",
    )
    rep = verify_hom(theta, 1000, seed=106)
    assert rep.ok, rep.counterexamples


def test_representation_hom():
    rng = random.Random(107)
    for lx in STRONG_CATALOG:
        w = canonical_witness(lx, "strong")
        phi = build_phi(w)
        assert verify_hom(phi, 1000, seed=108).ok, str(lx.algebra)
        for _ in range(200):
            x = sample_elem(lx.algebra, rng)
            assert phi.fn(x).value == x.value
    # on the diagonal witness of the sheared interval, the built map is
    # the inverse of the shear
    tgt = gamma(ZZ, (2, 2))
    diag = PerfectWitness(
        lexalg(gr.Z, 2, gr.Z, 2), lambda x: x.value[0], lambda t: tgt.elem((t, t)), "strong"
    )
    phi = build_phi(diag)
    assert verify_hom(phi, 1000, seed=109).ok
    for _ in range(1000):
        y = sample_elem(tgt, rng)
        k, n = y.value
        assert phi.fn(y).value == (k, n - k)


def finite_catalog(max_size):
    out = [finite.make_chain(n) for n in range(1, max_size)]
    prods = []
    for a in out:
        for b in out:
            if a.size * b.size <= max_size:
                prods.append(finite.make_product(a, b))
    return [a for a in out + prods if a.size <= max_size]


def test_finite_oracle_exhaustive():
    t0 = time.monotonic()
    full_of = lambda a: (1 << a.size) - 1

    # a normal proper ideal is retractive exactly when the generated
    # subalgebra has a complement (degenerate at the improper ideal)
    for a in finite_catalog(9):
        for info in finite.enumerate_ideals(a, cap=9):
            if not info.normal or info.mask == full_of(a):
                continue
            assert finite.is_retractive(a, info.mask)[0] == finite.has_complement(a, info.mask)[0]

    # radical chain and the ord-based locality criterion
    for a in finite_catalog(12):
        rad, rad_n, infinit = finite.radical_suite(a)
        assert rad & ~infinit == 0 and infinit & ~rad_n == 0
        ord_local = all(
            a.ord_of(x) is not None or a.ord_of(a.neg[x]) is not None
            for x in range(a.size)
        )
        assert ord_local == finite.is_local(a)

    # a product of proper normal ideals is retractive in the product
    # exactly when both factors are
    factors = [finite.make_chain(n) for n in range(1, 5)]
    factors.append(finite.make_product(finite.make_chain(1), finite.make_chain(1)))
    for a, b in itertools.product(factors, repeat=2):
        prod = finite.make_product(a, b)
        for ia in finite.enumerate_ideals(a, cap=9):
            if not ia.normal or ia.mask == full_of(a):
                continue
            for ib in finite.enumerate_ideals(b, cap=9):
                if not ib.normal or ib.mask == full_of(b):
                    continue
                mask = 0
                for i in range(a.size):
                    for j in range(b.size):
                        if ia.mask >> i & 1 and ib.mask >> j & 1:
                            mask |= 1 << (i * b.size + j)
                lhs = finite.is_retractive(prod, mask)[0]
                rhs = finite.is_retractive(a, ia.mask)[0] and finite.is_retractive(b, ib.mask)[0]
                assert lhs == rhs, (str(a), str(b), ia.mask, ib.mask)

    # the partial sum refines on every chain and on the small square
    for n in range(1, 7):
        assert finite.check_rdp2(finite.make_chain(n))
    sq = finite.make_product(finite.make_chain(2), finite.make_chain(2))
    assert finite.check_rdp2(sq)

    # no finite algebra carries a lexicographic ideal
    for a in finite_catalog(12):
        for info in finite.enumerate_ideals(a, cap=12):
            assert not finite.is_lexicographic_ideal(a, info.mask)[0]

    assert time.monotonic() - t0 < 30.0


def test_functor_laws():
    base = gr.UnitalGroup(gr.Z, 2)
    homs = [
        gr.identity_hom(gr.Z),
        gr.zero_hom(gr.Z, gr.Z),
        gr.scale_hom(gr.Z, 3),
        gr.scale_hom(gr.Q, Fraction(2, 3)),
        gr.pairwise_hom(gr.scale_hom(gr.Z, 2), gr.identity_hom(gr.Z)),
        gr.inject_right_hom(gr.Z, gr.Z),
    ]
    rng = random.Random(110)
    ident = lift_morphism(gr.identity_hom(gr.Z), base)
    for _ in range(500):
        x = sample_elem(ident.source, rng)
        assert ident.fn(x) == x
    for h in homs:
        m = lift_morphism(h, base)
        assert verify_hom(m, 500, seed=111, check_injective=False).ok, str(h)
        assert hom_equal(h, extract_morphism(m, samples=500, seed=112), samples=500)
    for h1, h2 in itertools.product(homs, repeat=2):
        if h1.target != h2.source:
            continue
        lhs = lift_morphism(gr.hom_compose(h2, h1), base)
        m1 = lift_morphism(h1, base)
        m2 = lift_morphism(h2, base)
        for _ in range(500):
            x = sample_elem(lhs.source, rng)
            assert lhs.fn(x) == m2.fn(m1.fn(x)), (str(h1), str(h2))


CLI_SUITE = [
    ("run", "check-axioms", "gamma(lex(Z,Aff),(1,aff(2,0)))", "--samples", "200"),
    ("run", "witness", "gamma(lex(Z,Z),(2,1))", "--samples", "200"),
    ("run", "lexify", "gamma(lex(Z,Z),(1,0))", "--samples", "200"),
    ("run", "classify", "gamma(lex(Z,Z),(1,0))", "--elem", "(0,7)"),
    ("run", "ideals", "prod(chain(2),chain(2))"),
    ("run", "radical", "prod(chain(2),chain(2))"),
    ("run", "states", "prod(chain(2),chain(2))"),
    ("run", "retractive", "prod(chain(2),chain(2))"),
    ("run", "lexid", "chain(4)"),
    ("run", "rdp2", "chain(6)"),
    ("run", "isomorphic", "prod(chain(2),chain(3))", "--other", "prod(chain(3),chain(2))"),
]


def test_cli_determinism(capsys):
    def sweep():
        outs = []
        for argv in CLI_SUITE:
            code = cli.main(list(argv) + ["--seed", "7"])
            assert code == 0, argv
            out = capsys.readouterr().out
            json.loads(out)
            outs.append(out)
        return outs

    assert sweep() == sweep()


def test_parse_print_roundtrip_200():
    rng = random.Random(113)

    def rand_group(depth):
        if depth == 0 or rng.random() < 0.5:
            return rng.choice(["Z", "Q", "O", "Aff"])
        return f"lex({rand_group(depth - 1)},{rand_group(depth - 1)})"

    def rand_elem(depth):
        if depth == 0 or rng.random() < 0.5:
            n = rng.randint(-9, 9)
            return f"{n}/{rng.randint(1, 9)}" if rng.random() < 0.3 else str(n)
        if rng.random() < 0.3:
            return f"aff({rng.randint(1, 9)},{rng.randint(-9, 9)})"
        return f"({rand_elem(depth - 1)},{rand_elem(depth - 1)})"

    def rand_algebra(depth):
        r = rng.random()
        if depth and r < 0.2:
            return f"prod({rand_algebra(depth - 1)},{rand_algebra(depth - 1)})"
        if r < 0.5:
            return f"chain({rng.randint(1, 9)})"
        return f"gamma({rand_group(2)},{rand_elem(2)})"

    for _ in range(200):
        text = rand_algebra(2)
        node = dsl.parse(text)
        assert dsl.parse(dsl.print_ast(node)) == node

"""Property test: the integer kernels of Q against the ``operator`` twins.

Uses the ``hypothesis`` test extra.  The search is derandomized and
bounded, so the test is deterministic and quick.
"""

import math
import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lexmv import groups as gr  # noqa: E402
from test_groups import ref_add, ref_cmp, ref_lattice, ref_neg  # noqa: E402

BIG = 10**30

ints = st.integers(-BIG, BIG)
fractions = st.builds(Fraction, ints, st.integers(1, BIG))
# small values, so that equal values are common; integral Fractions too
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
q_values = st.one_of(st.sampled_from((0, Fraction(0))), ints, fractions, small_fractions,
                     st.builds(Fraction, ints))


@st.composite
def q_pairs(draw):
    """(a, b) drawn apart, or b equal to a in value, as an int where a is
    integral or as a Fraction, so that the tie rules decide."""
    a = draw(q_values)
    how = draw(st.sampled_from(("apart", "same", "int", "fraction")))
    if how == "apart":
        return a, draw(q_values)
    if how == "int" and Fraction(a).denominator == 1:
        return a, int(a)
    if how == "fraction":
        return a, Fraction(a)
    return a, a


def check(ours, ref, *operands):
    """Equal value and type (repr tells 1 from Fraction(1)); a Fraction in
    lowest terms with a positive denominator, hashing as Fraction does.
    The operands of an arithmetic result: any Fraction among them makes
    it a Fraction (a meet or join returns one operand and is checked
    without them)."""
    assert repr(ours) == repr(ref), (ours, ref, operands)
    if any(type(v) is Fraction for v in operands):
        assert type(ours) is Fraction, (ours, operands)
    if type(ours) is Fraction:
        n, d = ours.numerator, ours.denominator
        assert type(n) is int and type(d) is int, (n, d)
        assert d > 0 and math.gcd(n, d) == 1, (n, d)
        assert hash(ours) == hash(Fraction(n, d)), (n, d)
    else:
        assert type(ours) is int, (ours, operands)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(q_pairs())
def test_q_ops_match_operator_twins(pair):
    ops = gr.Q.ops
    for a, b in (pair, pair[::-1]):
        check(ops.add(a, b), ref_add(gr.Q, a, b), a, b)
        check(ops.neg(a), ref_neg(gr.Q, a), a)
        c = ops.cmp(a, b)
        assert c == ref_cmp(gr.Q, a, b), (a, b)
        meet, join = ops.meet(a, b), ops.join(a, b)
        check(meet, ref_lattice(gr.Q, a, b, "meet"))
        check(join, ref_lattice(gr.Q, a, b, "join"))
        # on a tie, meet returns a and join returns b, as objects
        if c == 0:
            assert meet is a and join is b, (a, b)
        else:
            assert meet is (a if c < 0 else b) and join is (b if c < 0 else a), (a, b)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(q_pairs())
def test_q_scale_matches_operator_twin(pair):
    for k, a in (pair, pair[::-1]):
        check(gr._q_mul(k, a), k * a, k, a)
        # the scale hom applies it, with a factor k >= 0
        k = abs(k)
        check(gr.hom_apply(gr.scale_hom(gr.Q, k), a), k * a, k, a)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**32), st.sampled_from((0, 1, 3, 25, BIG)))
def test_q_sample_matches_fraction_draw(seed, bound):
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(5):
        v = gr.Q.ops.sample(ours, bound)
        expected = Fraction(ref.randint(-bound, bound), ref.randint(1, 8))
        check(v, expected, Fraction(0))
        assert v == expected
    assert ours.random() == ref.random()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(ints, st.integers(1, BIG))
def test_frac_is_a_plain_fraction(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    ours, ref = gr._frac(n, d), Fraction(n, d)
    assert type(ours) is Fraction
    assert ours == ref and hash(ours) == hash(ref) and repr(ours) == repr(ref)
    assert (ours.numerator, ours.denominator) == (n, d)
    assert ours + 0 == ref and -ours == -ref and (ours < ref + 1)

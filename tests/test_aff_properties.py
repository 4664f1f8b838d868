"""Property test: the integer-backed Aff ops against the Fraction twins.

Uses the ``hypothesis`` test extra.  The search is derandomized and
bounded, so the test is deterministic and quick.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lexmv import groups as gr  # noqa: E402
from test_groups import (  # noqa: E402
    assert_canonical, ref_add, ref_cmp, ref_lattice, ref_neg, ref_ord,
)

BIG = 10**30


def rationals(lo, hi, max_den):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_den))


# slopes and shifts from the whole range, large numerators included
affs = st.builds(gr.Aff, rationals(1, BIG, BIG), rationals(-BIG, BIG, BIG))
# slopes from 1/12 to 12, so that ord's linear reference stays short
small_slope_affs = st.builds(gr.Aff, rationals(1, 12, 12), rationals(-BIG, BIG, 10**6))


def same(ours, ref):
    """Equal values of the same shape; canonical, which repr cannot see."""
    assert repr(ours) == repr(ref)
    assert_canonical(ours)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(affs, affs, small_slope_affs, small_slope_affs)
def test_aff_ops_match_fraction_twins(a, b, v, u):
    ops = gr.AFF.ops
    same(ops.add(a, b), ref_add(gr.AFF, a, b))
    same(ops.neg(a), ref_neg(gr.AFF, a))
    # c shares a's slope, so the shifts decide
    c = gr.Aff(a.slope, b.shift)
    for x, y in ((a, b), (a, c), (c, a), (a, gr.Aff(a.slope, a.shift))):
        assert ops.cmp(x, y) == ref_cmp(gr.AFF, x, y)
        same(ops.meet(x, y), ref_lattice(gr.AFF, x, y, "meet"))
        same(ops.join(x, y), ref_lattice(gr.AFF, x, y, "join"))
    # ord(v, u) for a strong unit u (slope > 1) and 0 <= v <= u, both
    # built with the twins, so that a broken op cannot feed ord a value
    # outside its domain (where its search need not end)
    if u.slope <= 1:
        u = ref_neg(gr.AFF, u) if u.slope < 1 else gr.Aff(2, u.shift)
    if ref_cmp(gr.AFF, v, gr.AFF_ID) < 0:
        v = ref_neg(gr.AFF, v)
    v = ref_lattice(gr.AFF, v, u, "meet")
    assert ops.ord(v, u) == ref_ord(gr.AFF, v, u), (v, u)

"""Test-side helpers that the library itself does not need."""

import random


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

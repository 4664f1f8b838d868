"""Seeded element generators for interval algebras.

All property checks draw from these generators with an explicit seed, so
reports are reproducible.  Samples are biased toward the boundary slices
(0, u, head-zero and head-u elements of lex pairs) so that decomposition
checks exercise every slice, plus clamped interior samples.
"""

from __future__ import annotations

import random

from .algebra import PmvAlgebra, PmvElem

DEFAULT_BOUND = 25


def clamp(alg: PmvAlgebra, value) -> PmvElem:
    """(value \\/ 0) /\\ u, projected into the interval.

    value must have the spec's shape; it is not checked.  The result lies
    in [0, u] for every such value, so it is built without elem()'s check.
    """
    ops = alg.ops
    return alg._kernels.make(ops.meet(ops.join(value, ops.zero), alg.unit))


def sample_elem(alg: PmvAlgebra, rng: random.Random, bound: int = DEFAULT_BOUND) -> PmvElem:
    """A seeded draw from [0, u].  Every value is built inside the interval
    (a clamp, a complement u - x of one, or an integer in [0, u]), so the
    draws skip the elem() check."""
    spec = alg.spec
    mode = rng.randrange(6)
    if mode == 0:
        return alg.zero
    if mode == 1:
        return alg.one
    if spec.kind == "lex" and mode in (2, 3):
        # head-zero slice, or head-u slice as the complement of one
        low = sample_zero_slice(alg, rng, bound)
        return low if mode == 2 else low.minus
    if spec.kind == "Z":
        # uniform over the interval: clamping a wide range would pile the
        # mass on the endpoints of short chains
        return alg._kernels.make(rng.randint(0, min(alg.unit, bound)))
    return clamp(alg, alg.ops.sample(rng, bound))


def sample_zero_slice(alg: PmvAlgebra, rng: random.Random, bound: int = DEFAULT_BOUND) -> PmvElem:
    """A head-zero element (0, g) of a lex interval, with g >= 0, clamped."""
    spec = alg.spec
    tail_ops = spec.right.ops
    tail = tail_ops.join(tail_ops.sample(rng, bound), tail_ops.zero)
    return clamp(alg, (spec.left.ops.zero, tail))

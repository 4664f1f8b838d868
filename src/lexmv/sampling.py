"""Seeded element generators for interval algebras.

All property checks draw from these generators with an explicit seed, so
reports are reproducible.  Samples are biased toward 0, u and each kind's
own draw (GroupOps.draw): the head-zero and head-u slices of lex pairs, so
that decomposition checks exercise every slice, or uniform integers on Z.
"""

from __future__ import annotations

import random

from .algebra import PmvAlgebra, PmvElem

DEFAULT_BOUND = 25


def clamp(alg: PmvAlgebra, value) -> PmvElem:
    """(value \\/ 0) /\\ u for a value of the spec's shape, unchecked.  The
    result lies in [0, u] for every such value, so it skips elem()'s check."""
    ops = alg.ops
    return alg._kernels.make(ops.meet(ops.join(value, ops.zero), alg.unit))


def sample_elem(alg: PmvAlgebra, rng: random.Random, bound: int = DEFAULT_BOUND) -> PmvElem:
    """A seeded draw from [0, u]: 0, u, the kind's own draw (GroupOps.draw)
    or a clamped sample.  Every value is built inside the interval, so the
    draws skip the elem() check."""
    mode = rng.randrange(6)
    if mode == 0:
        return alg.zero
    if mode == 1:
        return alg.one
    value = alg.ops.draw(rng, bound, alg.unit, mode)
    if value is None:
        return clamp(alg, alg.ops.sample(rng, bound))
    return alg._kernels.make(value)


def sample_zero_slice(alg: PmvAlgebra, rng: random.Random, bound: int = DEFAULT_BOUND) -> PmvElem:
    """A head-zero element (0, g), g >= 0, of a lex interval: its mode-2 draw."""
    return alg._kernels.make(alg.ops.draw(rng, bound, alg.unit, 2))

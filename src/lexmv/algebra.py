"""Interval pseudo MV-algebras over catalog unital l-groups.

Gamma(G, u) is the interval [0, u] with

    x (+) y = (x + y) /\\ u          x (.) y = (x - u + y) \\/ 0
    x^-     = u - x                 x^~     = -x + u

plus the partial sum x + y, defined exactly when the group sum stays in
the interval, where it agrees with the group sum.  Partiality is
structure, not an error: the partial operations return None for
"undefined" and callers branch on it.

These are fixed formulas over the group with u as a constant, so each
algebra compiles them once (``_compile``) into value kernels that return
finished elements, beside the check of values that enter from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

from . import groups as gr
from .groups import GroupSpec, UnitalGroup


class CrossAlgebraError(TypeError):
    """Two elements of different algebras were mixed in one operation."""


class IntervalError(ValueError):
    """A value lies outside the interval [0, u]."""


@dataclass(frozen=True)
class PmvAlgebra:
    group: UnitalGroup

    @property
    def spec(self) -> GroupSpec:
        return self.group.spec

    @cached_property
    def unit(self):
        return self.group.unit

    @cached_property
    def ops(self) -> gr.GroupOps:
        return self.group.spec.ops

    def __reduce__(self):
        # the cached ops and kernels hold closures, so rebuild from the group
        return (PmvAlgebra, (self.group,))

    @cached_property
    def _kernels(self) -> SimpleNamespace:
        return _compile(self)

    def elem(self, value) -> "PmvElem":
        """The element with this value, after checking its shape and its
        membership in [0, u]."""
        self._kernels.check(value)
        return self._kernels.make(value)

    @cached_property
    def zero(self) -> "PmvElem":
        return self.elem(self.ops.zero)

    @cached_property
    def one(self) -> "PmvElem":
        return self.elem(self.unit)

    def is_symmetric(self) -> bool:
        """Both negations coincide iff the unit is central in the group."""
        return self.ops.central(self.unit)

    def __str__(self) -> str:
        return f"gamma({self.spec},{self.ops.fmt(self.unit)})"


@dataclass(frozen=True)
class PmvElem:
    """An element of Gamma(G, u).

    Values are validated once, where they enter: ``alg.elem(value)`` (and
    so ``zero``, ``one``, the DSL and witness families) checks the value's
    shape against the group spec and its membership in [0, u], raising
    ShapeError or IntervalError.  Gamma(G, u) is closed under the
    operations below (Dvurecenskij, "Pseudo MV-algebras are intervals in
    l-groups", J. Austral. Math. Soc. 72, 2002), so each one is a call of
    the algebra's compiled kernel (``alg._kernels``), which computes on
    the unchecked values and builds the result without re-validating it.

    Equality spans equal algebras; the hash is the value's alone, which
    equal elements share, so a set of elements never hashes an algebra.
    """

    # declared here, not by slots=True, which rebuilds the class and
    # breaks the frozen __setattr__ on names that are not fields
    __slots__ = ("algebra", "value")
    algebra: PmvAlgebra
    value: object

    def __post_init__(self):
        self.algebra._kernels.check(self.value)

    def __hash__(self) -> int:
        return hash(self.value)

    def __reduce__(self):
        # a pickle is outside input: unpickling re-validates the value
        return (self.algebra.elem, (self.value,))

    def _same(self, other: "PmvElem") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise CrossAlgebraError(f"mixing {self.algebra} and {other.algebra}")

    # -- order -------------------------------------------------------------

    def cmp(self, other: "PmvElem") -> int:
        if other.algebra is not self.algebra:
            self._same(other)
        return self.algebra.ops.cmp(self.value, other.value)

    def le(self, other: "PmvElem") -> bool:
        return self.cmp(other) <= 0

    def lt(self, other: "PmvElem") -> bool:
        return self.cmp(other) < 0

    # -- total operations ---------------------------------------------------

    def oplus(self, other: "PmvElem") -> "PmvElem":
        if other.algebra is not self.algebra:
            self._same(other)
        return self.algebra._kernels.oplus(self.value, other.value)

    def odot(self, other: "PmvElem") -> "PmvElem":
        if other.algebra is not self.algebra:
            self._same(other)
        return self.algebra._kernels.odot(self.value, other.value)

    @property
    def minus(self) -> "PmvElem":
        return self.algebra._kernels.minus(self.value)

    @property
    def tilde(self) -> "PmvElem":
        return self.algebra._kernels.tilde(self.value)

    def join(self, other: "PmvElem") -> "PmvElem":
        if other.algebra is not self.algebra:
            self._same(other)
        return self.algebra._kernels.join(self.value, other.value)

    def meet(self, other: "PmvElem") -> "PmvElem":
        if other.algebra is not self.algebra:
            self._same(other)
        return self.algebra._kernels.meet(self.value, other.value)

    # -- partial structure --------------------------------------------------

    def partial_add(self, other: "PmvElem"):
        """The group sum x + y when it stays in [0, u], else None.

        Definedness is equivalent to y (.) x = 0.  (The mirror-image
        criterion x (.) y = 0 governs y + x instead; the two readings
        agree exactly in symmetric algebras, and only the group-sum one
        satisfies the partial-sum laws PE1-PE4 in general.)
        """
        if other.algebra is not self.algebra:
            self._same(other)
        return self.algebra._kernels.partial_add(self.value, other.value)

    def __str__(self) -> str:
        return self.algebra.ops.fmt(self.value)


# the slots' own setters, which the frozen __setattr__ does not guard
_new = object.__new__
_set_algebra = PmvElem.algebra.__set__
_set_value = PmvElem.value.__set__


def _compile(alg: PmvAlgebra) -> SimpleNamespace:
    """The algebra's kernels (``alg._kernels``), compiled once with u and
    -u bound in.  check(value) is the boundary check: check_shape, then
    membership in [0, u].  make(value) builds an element unchecked.  The
    operations take values of [0, u] unchecked and return the finished
    element (partial_add: or None)."""
    ops, spec, u = alg.ops, alg.spec, alg.unit
    add, neg, cmp, meet, join, zero = ops.add, ops.neg, ops.cmp, ops.meet, ops.join, ops.zero
    neg_u = neg(u)

    def check(value) -> None:
        gr.check_shape(spec, value)
        if cmp(value, zero) < 0 or cmp(value, u) > 0:
            raise IntervalError(f"{ops.fmt(value)} outside [0, u] in {alg}")

    def make(v):
        e = _new(PmvElem)
        _set_algebra(e, alg)
        _set_value(e, v)
        return e

    def partial_add(a, b):
        s = add(a, b)
        return None if cmp(s, u) > 0 else make(s)

    return SimpleNamespace(
        check=check, make=make, partial_add=partial_add,
        oplus=lambda a, b: make(meet(add(a, b), u)),
        odot=lambda a, b: make(join(add(add(a, neg_u), b), zero)),
        minus=lambda a: make(add(u, neg(a))),  # u - x
        tilde=lambda a: make(add(neg(a), u)),  # -x + u
        join=lambda a, b: make(join(a, b)),
        meet=lambda a, b: make(meet(a, b)),
    )


def _below(x: PmvElem, y: PmvElem) -> None:
    x._same(y)
    if not y.le(x):
        raise ValueError(f"a residual needs y <= x, got y={y}, x={x}")


def left_residual(x: PmvElem, y: PmvElem) -> PmvElem:
    """For y <= x: the left difference x - y, with (x - y) + y = x as a
    partial sum."""
    _below(x, y)
    ops = x.algebra.ops
    return x.algebra._kernels.make(ops.add(x.value, ops.neg(y.value)))


def right_residual(x: PmvElem, y: PmvElem) -> PmvElem:
    """For y <= x: the right difference -y + x, with y + (-y + x) = x as a
    partial sum."""
    _below(x, y)
    ops = x.algebra.ops
    return x.algebra._kernels.make(ops.add(ops.neg(y.value), x.value))


def oplus_via_pea(x: PmvElem, y: PmvElem) -> PmvElem:
    """(y^- minus_left (x /\\ y^-))^~, the recovery of (+) from the partial
    sum; must agree with x.oplus(y) everywhere."""
    x._same(y)
    bminus = y.minus
    return left_residual(bminus, x.meet(bminus)).tilde


def iterate(x: PmvElem, n: int, kind: str):
    """Iterated sums and powers.

    kind "truncated":      n.x  with (n+1).x = (n.x) (+) x   (total)
    kind "group-multiple": nx   with (n+1)x  = (nx) + x      (None once a
                           partial sum step is undefined)
    kind "power":          x^n  with x^(n+1) = x^n (.) x     (total)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    alg = x.algebra
    if kind == "truncated":
        acc = alg.zero
        for _ in range(n):
            acc = acc.oplus(x)
        return acc
    if kind == "group-multiple":
        acc = alg.zero
        for _ in range(n):
            acc = acc.partial_add(x)
            if acc is None:
                return None
        return acc
    if kind == "power":
        acc = alg.one
        for _ in range(n):
            acc = acc.odot(x)
        return acc
    raise ValueError(f"unknown iterate kind {kind!r}")


def ord_of(x: PmvElem):
    """The least n with n.x = 1, or math.inf.

    In any Gamma(G, u) the truncated sum satisfies n.x = (n*x) /\\ u, so
    ord(x) = min{n : n*x >= u}, which the spec's GroupOps.ord computes.
    """
    return x.algebra.ops.ord(x.value, x.algebra.unit)

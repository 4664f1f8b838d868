"""Exact arithmetic for a fixed catalog of lattice-ordered groups.

The catalog is generated by four base groups -- the trivial group O, the
integers Z, the rationals Q, and the group Aff of increasing affine maps
t |-> a*t + beta with a > 0 -- closed under the lexicographic pair
combinator ``lex(H, G)``.  All element values are exact (arbitrary
precision integers, ``fractions.Fraction``, nested tuples), so equality
and order are decidable and bit-stable.

Aff is the designated non-Abelian linearly ordered group.  Its operation
is map composition, (a1,b1)+(a2,b2) = (a1*a2, a1*b2+b1), and its order is
the lexicographic order on (slope, shift), which is bi-invariant:
translating on either side multiplies slopes by a positive factor and
shifts by an affine map, both of which preserve the lexicographic
comparison.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional


class ShapeError(TypeError):
    """An element value does not match the shape required by its GroupSpec."""


class HomError(ValueError):
    """A homomorphism presentation is invalid or fails validation."""


# ---------------------------------------------------------------------------
# Group specs


@dataclass(frozen=True)
class GroupSpec:
    kind: str  # "O" | "Z" | "Q" | "Aff" | "lex"
    left: Optional["GroupSpec"] = None
    right: Optional["GroupSpec"] = None

    @property
    def is_linear(self) -> bool:
        if self.kind == "lex":
            # left factor is linear by construction
            return self.right.is_linear
        return True

    @property
    def is_abelian(self) -> bool:
        if self.kind == "Aff":
            return False
        if self.kind == "lex":
            return self.left.is_abelian and self.right.is_abelian
        return True

    @cached_property
    def ops(self) -> "GroupOps":
        """The compiled, unchecked operations of this group (see GroupOps)."""
        return _compile(self)

    def __str__(self) -> str:
        if self.kind == "lex":
            return f"lex({self.left},{self.right})"
        return self.kind


O = GroupSpec("O")
Z = GroupSpec("Z")
Q = GroupSpec("Q")
AFF = GroupSpec("Aff")


def lex(left: GroupSpec, right: GroupSpec) -> GroupSpec:
    """Lexicographic pair H lex G; requires a linearly ordered left factor."""
    if not left.is_linear:
        raise ValueError(f"lex left factor must be linearly ordered, got {left}")
    return GroupSpec("lex", left, right)


# ---------------------------------------------------------------------------
# Elements


@dataclass(frozen=True)
class Aff:
    """The affine map t |-> slope*t + shift with slope > 0."""

    slope: Fraction
    shift: Fraction

    def __init__(self, slope, shift):
        slope = Fraction(slope)
        shift = Fraction(shift)
        if slope <= 0:
            raise ShapeError(f"Aff slope must be positive, got {slope}")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "shift", shift)

    def __str__(self) -> str:
        return f"aff({self.slope},{self.shift})"


AFF_ID = Aff(1, 0)


def _aff(slope: Fraction, shift: Fraction) -> Aff:
    """An Aff from Fraction parts with a known positive slope, unchecked:
    sums and inverses of Aff values keep slopes positive."""
    f = object.__new__(Aff)
    object.__setattr__(f, "slope", slope)
    object.__setattr__(f, "shift", shift)
    return f


# ---------------------------------------------------------------------------
# Compiled operations


@dataclass(frozen=True, slots=True)
class GroupOps:
    """A spec's operations as plain functions without shape checks,
    compiled once per spec (``spec.ops``).  cmp returns -1, 0 or 1: every
    catalog group is linearly ordered.  On a tie, meet returns a and join
    returns b; a lex meet or join whose heads tie keeps a's head."""

    zero: object
    shape_ok: Callable[[object], bool]
    add: Callable
    neg: Callable
    cmp: Callable
    meet: Callable
    join: Callable


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_NUMBER_SHAPES = {
    "O": lambda v: _is_int(v) and v == 0,
    "Z": _is_int,
    "Q": lambda v: isinstance(v, (int, Fraction)) and not isinstance(v, bool),
}


def _num_cmp(a, b) -> int:
    if a == b:
        return 0
    return -1 if a < b else 1


def _aff_cmp(a: Aff, b: Aff) -> int:
    if a.slope != b.slope:
        return -1 if a.slope < b.slope else 1
    if a.shift != b.shift:
        return -1 if a.shift < b.shift else 1
    return 0


def _compile(spec: GroupSpec) -> GroupOps:
    if spec.kind == "Aff":
        return GroupOps(
            AFF_ID,
            lambda v: isinstance(v, Aff),
            lambda a, b: _aff(a.slope * b.slope, a.slope * b.shift + a.shift),
            lambda a: _aff(1 / a.slope, -a.shift / a.slope),
            _aff_cmp,
            lambda a, b: a if _aff_cmp(a, b) <= 0 else b,
            lambda a, b: b if _aff_cmp(a, b) <= 0 else a,
        )
    if spec.kind != "lex":
        return GroupOps(
            Fraction(0) if spec.kind == "Q" else 0,
            _NUMBER_SHAPES[spec.kind],
            operator.add,
            operator.neg,
            _num_cmp,
            lambda a, b: b if b < a else a,
            lambda a, b: a if b < a else b,
        )
    head, tail = spec.left.ops, spec.right.ops
    h_ok, h_add, h_neg, h_cmp = head.shape_ok, head.add, head.neg, head.cmp
    t_ok, t_add, t_neg, t_cmp = tail.shape_ok, tail.add, tail.neg, tail.cmp
    t_meet, t_join = tail.meet, tail.join

    def shape_ok(v) -> bool:
        return isinstance(v, tuple) and len(v) == 2 and h_ok(v[0]) and t_ok(v[1])

    def add(a, b):
        return (h_add(a[0], b[0]), t_add(a[1], b[1]))

    def neg(a):
        return (h_neg(a[0]), t_neg(a[1]))

    def cmp(a, b) -> int:
        return h_cmp(a[0], b[0]) or t_cmp(a[1], b[1])

    def meet(a, b):
        c = h_cmp(a[0], b[0])
        if c == 0:
            return (a[0], t_meet(a[1], b[1]))
        return a if c < 0 else b

    def join(a, b):
        c = h_cmp(a[0], b[0])
        if c == 0:
            return (a[0], t_join(a[1], b[1]))
        return b if c < 0 else a

    return GroupOps((head.zero, tail.zero), shape_ok, add, neg, cmp, meet, join)


# ---------------------------------------------------------------------------
# Checked group operations


def zero(spec: GroupSpec):
    """Identity element of the group described by spec."""
    return spec.ops.zero


def check_shape(spec: GroupSpec, v) -> None:
    if not spec.ops.shape_ok(v):
        raise ShapeError(f"value {v!r} does not match spec {spec}")


def g_add(spec: GroupSpec, a, b):
    check_shape(spec, a)
    check_shape(spec, b)
    return spec.ops.add(a, b)


def g_neg(spec: GroupSpec, a):
    check_shape(spec, a)
    return spec.ops.neg(a)


def g_sub(spec: GroupSpec, a, b):
    """a - b, i.e. a + (-b)."""
    return g_add(spec, a, g_neg(spec, b))


def g_cmp(spec: GroupSpec, a, b) -> int:
    """-1, 0 or 1 (see GroupOps)."""
    check_shape(spec, a)
    check_shape(spec, b)
    return spec.ops.cmp(a, b)


def g_le(spec: GroupSpec, a, b) -> bool:
    return g_cmp(spec, a, b) <= 0


def g_lattice(spec: GroupSpec, a, b, which: str):
    """Join or meet.  For lex pairs the head comparison decides unless the
    heads tie, in which case the lattice operation recurses on tails."""
    if which not in ("join", "meet"):
        raise ValueError(f"which must be 'join' or 'meet', got {which!r}")
    check_shape(spec, a)
    check_shape(spec, b)
    ops = spec.ops
    return ops.meet(a, b) if which == "meet" else ops.join(a, b)


def g_join(spec: GroupSpec, a, b):
    return g_lattice(spec, a, b, "join")


def g_meet(spec: GroupSpec, a, b):
    return g_lattice(spec, a, b, "meet")


def g_nmul(spec: GroupSpec, a, n: int):
    """The n-fold sum a + ... + a, n >= 0 (uses only associativity)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    check_shape(spec, a)
    return _nmul(spec.ops, a, n)


def _nmul(ops: GroupOps, a, n: int):
    """g_nmul without the checks, by doubling."""
    acc = ops.zero
    base = a
    while n:
        if n & 1:
            acc = ops.add(acc, base)
        n >>= 1
        if n:
            base = ops.add(base, base)
    return acc


def center_contains(spec: GroupSpec, a) -> bool:
    """Exact membership in the commutative center, decided per variant.

    Abelian variants: always.  Aff: only the identity map, since
    (a,b)+(1,1) = (a, a+b) while (1,1)+(a,b) = (a, b+1) forces a = 1,
    and then (2,0) forces b = 0.  Lex pairs: componentwise.
    """
    check_shape(spec, a)
    if spec.kind == "Aff":
        return a == AFF_ID
    if spec.kind == "lex":
        return center_contains(spec.left, a[0]) and center_contains(spec.right, a[1])
    return True


# ---------------------------------------------------------------------------
# Unital groups


@dataclass(frozen=True)
class UnitalGroup:
    """A catalog l-group with a fixed strong unit.

    The strong-unit property is established per variant by a documented
    argument, not a runtime search:
      * Z: any u >= 1;  Q: any u > 0 (Archimedean).
      * Aff: any unit with slope > 1 (slopes of n*u grow geometrically and
        eventually dominate any fixed slope; translations, slope 1, are
        not strong units and are rejected).
      * lex(H, G): a unit with positive head that is strong in H dominates
        every pair head-first; head zero is allowed only over H = O.
    """

    spec: GroupSpec
    unit: object

    def __post_init__(self):
        check_shape(self.spec, self.unit)
        ops = self.spec.ops
        if ops.cmp(self.unit, ops.zero) < 0:
            raise ValueError(f"unit must be >= 0, got {self.unit!r}")
        _validate_strong_unit(self.spec, self.unit)

    def __str__(self) -> str:
        return f"({self.spec},{fmt_elem(self.spec, self.unit)})"


def _validate_strong_unit(spec: GroupSpec, u) -> None:
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
        if spec.left.ops.cmp(head, spec.left.ops.zero) > 0:
            _validate_strong_unit(spec.left, head)
        elif spec.left.kind == "O":
            _validate_strong_unit(spec.right, u[1])
        else:
            raise ValueError(
                f"strong unit of {spec} needs a positive head, got {fmt_elem(spec, u)}"
            )


# ---------------------------------------------------------------------------
# Element formatting (mirrors the DSL literal grammar)


def fmt_rat(v) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def fmt_elem(spec: GroupSpec, v) -> str:
    if spec.kind == "lex":
        return f"({fmt_elem(spec.left, v[0])},{fmt_elem(spec.right, v[1])})"
    if spec.kind == "Aff":
        return f"aff({fmt_rat(v.slope)},{fmt_rat(v.shift)})"
    return fmt_rat(v)


# ---------------------------------------------------------------------------
# Raw element sampling (group-level; interval sampling lives in sampling.py)

_AFF_SLOPES = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
)


def sample_group_elem(spec: GroupSpec, rng: random.Random, bound: int = 25):
    """A seeded sample from the group, with coordinates in roughly [-bound, bound]."""
    if spec.kind == "O":
        return 0
    if spec.kind == "Z":
        return rng.randint(-bound, bound)
    if spec.kind == "Q":
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 8))
    if spec.kind == "Aff":
        return Aff(rng.choice(_AFF_SLOPES), Fraction(rng.randint(-bound, bound)))
    return (
        sample_group_elem(spec.left, rng, bound),
        sample_group_elem(spec.right, rng, bound),
    )


# ---------------------------------------------------------------------------
# Homomorphisms

_HOM_VALIDATION_SAMPLES = 500


@dataclass(frozen=True)
class GroupHom:
    """A finitely presented l-group homomorphism from a small closed catalog.

    kinds: "zero", "identity", "scale" (payload k >= 0, an int on Z, an int
    or Fraction on Q), "pairwise" (payload (h1, h2), on lex pairs),
    "inject_right" (g |-> (0, g) into a lex pair), "compose" (payload (h2, h1)).

    The presentation is checked at construction, and then the four atomic
    kinds are l-homomorphisms by construction.  "pairwise" and "compose"
    are also checked on 500 seeded samples and rejected with HomError if
    they fail to preserve +, negation, join or meet: a pairwise map with a
    non-injective head, such as pairwise(scale(Z, 0), identity(Z)), is no
    l-homomorphism, and only the sampled check catches it.
    """

    source: GroupSpec
    target: GroupSpec
    kind: str
    payload: tuple = ()

    def __post_init__(self):
        self._check_presentation()
        if self.kind in ("pairwise", "compose"):
            self._sampled_validation()

    def _check_presentation(self):
        if self.kind == "identity":
            if self.source != self.target:
                raise HomError("identity requires source == target")
        elif self.kind == "zero":
            pass
        elif self.kind == "scale":
            (k,) = self.payload
            if self.source != self.target or self.source.kind not in ("Z", "Q"):
                raise HomError("scale is only defined on Z or Q")
            if self.source.kind == "Z" and not isinstance(k, int):
                raise HomError("scale on Z needs an integer factor")
            if not isinstance(k, (int, Fraction)):
                raise HomError("scale on Q needs an integer or Fraction factor")
            if k < 0:
                raise HomError("scale factor must be >= 0 to preserve order")
        elif self.kind == "pairwise":
            h1, h2 = self.payload
            if self.source.kind != "lex" or self.target.kind != "lex":
                raise HomError("pairwise requires lex source and target")
            if h1.source != self.source.left or h1.target != self.target.left:
                raise HomError("pairwise left component has wrong shape")
            if h2.source != self.source.right or h2.target != self.target.right:
                raise HomError("pairwise right component has wrong shape")
        elif self.kind == "inject_right":
            if self.target.kind != "lex" or self.target.right != self.source:
                raise HomError("inject_right target must be lex(H, source)")
        elif self.kind == "compose":
            h2, h1 = self.payload
            if h1.target != h2.source:
                raise HomError("composition shape mismatch")
            if h1.source != self.source or h2.target != self.target:
                raise HomError("composition endpoint mismatch")
        else:
            raise HomError(f"unknown hom kind {self.kind!r}")

    def _raw_apply(self, a):
        if self.kind == "identity":
            return a
        if self.kind == "zero":
            return zero(self.target)
        if self.kind == "scale":
            (k,) = self.payload
            return k * a
        if self.kind == "pairwise":
            h1, h2 = self.payload
            return (h1._raw_apply(a[0]), h2._raw_apply(a[1]))
        if self.kind == "inject_right":
            return (zero(self.target.left), a)
        h2, h1 = self.payload
        return h2._raw_apply(h1._raw_apply(a))

    def _sampled_validation(self):
        """Preservation of +, negation, join and meet on seeded samples.
        The samples are valid by construction, so the source and target
        ops run unchecked; every image is shape-checked against the
        target."""
        rng = random.Random(0xA11CE)
        src, tgt = self.source.ops, self.target.ops

        def image(v):
            fv = self._raw_apply(v)
            check_shape(self.target, fv)
            return fv

        for _ in range(_HOM_VALIDATION_SAMPLES):
            a = sample_group_elem(self.source, rng)
            b = sample_group_elem(self.source, rng)
            fa, fb = image(a), image(b)
            if image(src.add(a, b)) != tgt.add(fa, fb):
                raise HomError(f"{self} fails additivity at {a!r}, {b!r}")
            if image(src.neg(a)) != tgt.neg(fa):
                raise HomError(f"{self} fails negation at {a!r}")
            if image(src.join(a, b)) != tgt.join(fa, fb):
                raise HomError(f"{self} fails join at {a!r}, {b!r}")
            if image(src.meet(a, b)) != tgt.meet(fa, fb):
                raise HomError(f"{self} fails meet at {a!r}, {b!r}")

    def __str__(self) -> str:
        if self.kind == "scale":
            return f"scale({fmt_rat(self.payload[0])})"
        if self.kind == "pairwise":
            return f"pairwise({self.payload[0]},{self.payload[1]})"
        if self.kind == "compose":
            return f"({self.payload[0]} o {self.payload[1]})"
        return self.kind


def hom_apply(h: GroupHom, a):
    check_shape(h.source, a)
    return h._raw_apply(a)


def hom_compose(h2: GroupHom, h1: GroupHom) -> GroupHom:
    if h1.target != h2.source:
        raise HomError(f"cannot compose: {h1.target} != {h2.source}")
    if h1.kind == "identity":
        return h2
    if h2.kind == "identity":
        return h1
    return GroupHom(h1.source, h2.target, "compose", (h2, h1))


def identity_hom(spec: GroupSpec) -> GroupHom:
    return GroupHom(spec, spec, "identity")


def zero_hom(source: GroupSpec, target: GroupSpec) -> GroupHom:
    return GroupHom(source, target, "zero")


def scale_hom(spec: GroupSpec, k) -> GroupHom:
    return GroupHom(spec, spec, "scale", (k,))


def pairwise_hom(h1: GroupHom, h2: GroupHom) -> GroupHom:
    return GroupHom(lex(h1.source, h2.source), lex(h1.target, h2.target), "pairwise", (h1, h2))


def inject_right_hom(head: GroupSpec, source: GroupSpec) -> GroupHom:
    return GroupHom(source, lex(head, source), "inject_right")


def hom_equal(h1: GroupHom, h2: GroupHom, samples: int = 500, seed: int = 0) -> bool:
    """Extensional equality on seeded samples (presentations may differ)."""
    if h1.source != h2.source or h1.target != h2.target:
        return False
    rng = random.Random(seed)
    for _ in range(samples):
        a = sample_group_elem(h1.source, rng)
        if hom_apply(h1, a) != hom_apply(h2, a):
            return False
    return True

"""Exact arithmetic for a fixed catalog of lattice-ordered groups.

The catalog is generated by four base groups -- the trivial group O, the
integers Z, the rationals Q, and the group Aff of increasing affine maps
t |-> a*t + beta with a > 0 -- closed under the lexicographic pair
combinator ``lex(H, G)``.  All element values are exact, so equality and
order are decidable and bit-stable: a Z value is an int, a Q value an int
or a ``fractions.Fraction``, an Aff value four reduced ints, and a lex
value a nested pair.  Q computes on numerators and denominators and hands
out plain Fractions, built without Fraction's own constructor.

Aff is the designated non-Abelian linearly ordered group.  Its operation
is map composition, (a1,b1)+(a2,b2) = (a1*a2, a1*b2+b1), and its order is
the lexicographic order on (slope, shift), which is bi-invariant:
translating on either side multiplies slopes by a positive factor and
shifts by an affine map, both of which preserve the lexicographic
comparison.

Every rule that depends on the kind of group -- arithmetic, formatting,
sampling and the interval draw, the centre, strong units, ord, states,
finite chains, facts such as linearity, and DSL literals -- lives in one
GroupOps record: one KINDS entry per base kind, and a record that
``_compile`` composes from the two factors for lex.  So a new base kind is
one KINDS entry, and a new homomorphism kind one HOM_KINDS entry.
"""

from __future__ import annotations

import math
import operator
import random
from collections import namedtuple
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
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

    def __post_init__(self):
        # a base kind has no factors and lex has two specs; a pickle loads
        # through here too
        factors = (self.left, self.right)
        base = isinstance(self.kind, str) and self.kind in KINDS and factors == (None, None)
        if not (base or self.kind == "lex" and all(isinstance(f, GroupSpec) for f in factors)):
            raise ValueError(f"not a group spec: {self.kind!r} with factors {self.left}, {self.right}")

    @cached_property
    def ops(self) -> "GroupOps":
        """The compiled rules of this group (see GroupOps)."""
        return _compile(self)

    def __reduce__(self):
        # the cached ops record holds lambdas, so rebuild from the fields
        return (GroupSpec, (self.kind, self.left, self.right))

    def __str__(self) -> str:
        if self.kind == "lex":
            return f"lex({self.left},{self.right})"
        return self.kind


def lex(left: GroupSpec, right: GroupSpec) -> GroupSpec:
    """Lexicographic pair H lex G; requires a linearly ordered left factor."""
    if not left.ops.linear:
        raise ValueError(f"lex left factor must be linearly ordered, got {left}")
    return GroupSpec("lex", left, right)


# ---------------------------------------------------------------------------
# Elements


def _is_rat(v) -> bool:
    """The shape of a Q value: an int (not a bool) or a Fraction."""
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


class Aff:
    """The affine map t |-> slope*t + shift with slope > 0.

    A value holds four reduced ints, ``parts = (sn, sd, hn, hd)``: slope
    sn/sd and shift hn/hd, each in lowest terms with a positive
    denominator.  The form is canonical, so two values are equal (and hash
    equally) exactly when they are the same map.  ``Aff(slope, shift)``
    takes Q values (int or Fraction) and raises ShapeError on anything
    else or on a slope <= 0; ``slope`` and ``shift`` read back Fractions.
    Values are immutable.
    """

    __slots__ = ("parts",)

    def __init__(self, slope, shift):
        if not (_is_rat(slope) and _is_rat(shift)):
            raise ShapeError(f"Aff needs int or Fraction parts, got {slope!r}, {shift!r}")
        slope, shift = Fraction(slope), Fraction(shift)
        if slope <= 0:
            raise ShapeError(f"Aff slope must be positive, got {slope}")
        _set_parts(self, (slope.numerator, slope.denominator, shift.numerator, shift.denominator))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (_aff, (self.parts,))

    @property
    def slope(self) -> Fraction:
        return Fraction(self.parts[0], self.parts[1])

    @property
    def shift(self) -> Fraction:
        return Fraction(self.parts[2], self.parts[3])

    def __eq__(self, other):
        if other.__class__ is Aff:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Aff(slope={self.slope!r}, shift={self.shift!r})"

    def __str__(self) -> str:
        """The DSL literal aff(slope,shift); str gives a Fraction's literal."""
        return f"aff({self.slope},{self.shift})"


# the slot's own setter, which Aff.__setattr__ does not guard
_set_parts = Aff.parts.__set__


def _aff(parts: tuple) -> Aff:
    """An Aff from reduced parts with sn, sd, hd > 0, unchecked: sums and
    inverses of Aff values keep that form."""
    f = object.__new__(Aff)
    _set_parts(f, parts)
    return f


AFF_ID = Aff(1, 0)


# ---------------------------------------------------------------------------
# The kind table: one record of rules per group kind


@dataclass(frozen=True, slots=True)
class GroupOps:
    """Every rule of a group, compiled once per spec (``spec.ops``).  The
    functions take values of the group's shape and do not check it.

    zero, shape_ok, add, neg, cmp, meet, join: the l-group.  cmp returns
      -1, 0 or 1: every catalog group is linearly ordered.  On a tie, meet
      returns a and join returns b; a lex meet or join whose heads tie
      keeps a's head.
    fmt(v): v as a DSL literal.
    literal: (form, make, error), how the DSL reads a value.  form is "num"
      (a rational), "pair" (a literal per lex factor) or a call's (keyword,
      arity) with rational arguments, as ("aff", 2).  make(*parts) builds
      the value or raises ShapeError or ValueError; error refuses any
      other form.
    sample(rng, bound): a seeded value, coordinates in about [-bound, bound].
    draw(rng, bound, u, mode): the kind's own draw from [0, u] for the
      interval sampler's modes 2..5, or None where it clamps a sample.
    chain(u): n when Gamma(G, u) is the chain Gamma(Z, n), else None.
    central(v): membership in the commutative centre.
    check_unit(u): for u >= 0, raises ValueError unless u is a strong unit.
    ord(v, u): for 0 <= v <= u, the least n with n*v >= u, or math.inf.
    state(u): the unique state t |-> s(t) of Gamma(G, u), or None where
      there is no closed form.
    scalars: the factors k of the scale homs a |-> k*a, as error messages
      name them; None where the catalog has no scale hom.
    small, large: the convex subgroups of a catalog group form a finite
      chain.  small is a positive element of the least nonzero one (None
      for a trivial group), and large a positive element (0 for a trivial
      group) that no proper one holds.  The kernel of an l-hom is convex,
      so an l-hom h is one-to-one iff h(small) != 0, and zero iff
      h(large) = 0.
    abelian, linear, archimedean, trivial: facts about the group.
    """

    zero: object
    shape_ok: Callable[[object], bool]
    add: Callable
    neg: Callable
    cmp: Callable
    meet: Callable
    join: Callable
    fmt: Callable[[object], str]
    literal: tuple
    sample: Callable
    draw: Callable
    chain: Callable
    central: Callable[[object], bool]
    check_unit: Callable[[object], None]
    ord: Callable
    state: Callable
    scalars: Optional[str]
    small: object
    large: object
    abelian: bool
    linear: bool
    archimedean: bool
    trivial: bool


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _num_cmp(a, b) -> int:
    if a == b:
        return 0
    return -1 if a < b else 1


def _num_ord(v, u):
    if v == 0:
        return 1 if u == 0 else math.inf
    return -(-u // v)


def _num_state(u):
    return lambda t: Fraction(t) / u


def _raise(exc: Exception):
    """Raise exc, so that a one-line rule can refuse its input."""
    raise exc


def _frac(n: int, d: int) -> Fraction:
    """The Fraction n/d, unchecked: n and d must be ints with gcd 1 and
    d > 0, as the Q kernels' results are.  It skips Fraction.__new__ and
    stores the two slots directly (Fraction has no __dict__, so a Python
    that renamed them would fail here)."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


# The Q kernels compute on numerators and denominators.  A Q value is an
# int or a Fraction, and the result types follow operator's: int op int
# is an int, and any Fraction operand makes a Fraction, integral or not.


def _q_add(a, b):
    if a.__class__ is Fraction:
        na, da = a._numerator, a._denominator
    elif b.__class__ is Fraction:
        na, da = a.numerator, a.denominator
    else:
        return a + b
    if b.__class__ is Fraction:
        nb, db = b._numerator, b._denominator
    else:
        nb, db = b.numerator, b.denominator
    # CPython's Fraction._add: one gcd of the denominators, and a second
    # only on the part of it that can still divide the numerator
    g = gcd(da, db)
    if g == 1:
        return _frac(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _frac(t, s * db)
    return _frac(t // g2, s * (db // g2))


def _q_neg(a):
    if a.__class__ is Fraction:
        return _frac(-a._numerator, a._denominator)
    return -a


def _q_cmp(a, b) -> int:
    if a.__class__ is Fraction:
        na, da = a._numerator, a._denominator
    else:
        na, da = a.numerator, a.denominator
    if b.__class__ is Fraction:
        nb, db = b._numerator, b._denominator
    else:
        nb, db = b.numerator, b.denominator
    left, right = na * db, nb * da
    if left == right:
        return 0
    return -1 if left < right else 1


def _q_mul(k, a):
    """k * a for Q (or Z) values, as CPython's Fraction._mul computes it:
    each numerator is reduced by the gcd with the other's denominator."""
    if k.__class__ is not Fraction and a.__class__ is not Fraction:
        return k * a
    nk, dk, na, da = k.numerator, k.denominator, a.numerator, a.denominator
    g1, g2 = gcd(nk, da), gcd(na, dk)
    return _frac((nk // g1) * (na // g2), (dk // g2) * (da // g1))


def _q_sample(rng, bound) -> Fraction:
    n, d = rng.randint(-bound, bound), rng.randint(1, 8)
    g = gcd(n, d)
    return _frac(n // g, d // g)


def _aff_cmp(a: Aff, b: Aff) -> int:
    asn, asd, ahn, ahd = a.parts
    bsn, bsd, bhn, bhd = b.parts
    left, right = asn * bsd, bsn * asd
    if left == right:
        left, right = ahn * bhd, bhn * ahd
        if left == right:
            return 0
    return -1 if left < right else 1


def _aff_add(a: Aff, b: Aff) -> Aff:
    # (s1, h1) + (s2, h2) = (s1*s2, s1*h2 + h1)
    asn, asd, ahn, ahd = a.parts
    bsn, bsd, bhn, bhd = b.parts
    sn, sd = asn * bsn, asd * bsd
    g = gcd(sn, sd)
    hn, hd = asn * bhn * ahd + ahn * asd * bhd, asd * bhd * ahd
    k = gcd(hn, hd)
    return _aff((sn // g, sd // g, hn // k, hd // k))


def _aff_neg(a: Aff) -> Aff:
    # -(s, h) = (1/s, -h/s); sd/sn is already reduced
    sn, sd, hn, hd = a.parts
    hn, hd = -hn * sd, hd * sn
    k = gcd(hn, hd)
    return _aff((sd, sn, hn // k, hd // k))


def _aff_ord(v: Aff, u: Aff):
    sn, sd, _, _ = v.parts
    if sn == sd:
        # slope stays 1, and a unit's slope is > 1
        return 1 if v == u == AFF_ID else math.inf
    # n*v has slope v.slope**n: double, then bisect
    hi = 1
    while _aff_cmp(_nmul(_aff_add, AFF_ID, v, hi), u) < 0:
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if _aff_cmp(_nmul(_aff_add, AFF_ID, v, mid), u) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _nmul(add, zero, a, n: int):
    """The n-fold sum a + ... + a, n >= 0, by doubling."""
    acc = zero
    base = a
    while n:
        if n & 1:
            acc = add(acc, base)
        n >>= 1
        if n:
            base = add(base, base)
    return acc


def _require(ok, message: str):
    """A check_unit raising ValueError(message) unless ok(u)."""
    def check_unit(u) -> None:
        if not ok(u):
            raise ValueError(message)
    return check_unit


# the sampler's slopes, as (numerator, denominator)
_AFF_SLOPES = ((1, 3), (1, 2), (2, 3), (1, 1), (3, 2), (2, 1), (3, 1))

# a kind whose interval draws are clamped samples, and no interval a chain
_UNDRAWN = dict(draw=lambda rng, bound, u, mode: None, chain=lambda u: None)
_NUMBER = dict(fmt=str, central=lambda v: True, ord=_num_ord, abelian=True, linear=True,
               archimedean=True)
_INT = dict(add=operator.add, neg=operator.neg, cmp=_num_cmp, meet=lambda a, b: b if b < a else a,
            join=lambda a, b: a if b < a else b, **_NUMBER)

# The base kinds.  Strong units rest on a documented argument, not a
# search: Z takes any u >= 1 and Q any u > 0 (both are Archimedean); Aff
# takes any slope > 1, since the slopes of n*u grow geometrically and
# eventually dominate any fixed slope (translations, slope 1, are not
# strong units); O has only 0, the unit of the one-element algebra.
KINDS = {
    "O": GroupOps(
        zero=0, shape_ok=lambda v: _is_int(v) and v == 0, sample=lambda rng, bound: 0,
        check_unit=lambda u: None, state=lambda u: None, scalars=None, small=None, large=0,
        literal=("num", lambda v: 0 if v == 0 else _raise(
            ValueError("the trivial group has only 0")), "O needs a numeric literal"),
        trivial=True, **_INT, **_UNDRAWN,
    ),
    "Z": GroupOps(
        zero=0, shape_ok=_is_int, sample=lambda rng, bound: rng.randint(-bound, bound),
        # uniform over the interval: clamping a wide range would pile the
        # mass on the endpoints of short chains
        draw=lambda rng, bound, u, mode: rng.randint(0, min(u, bound)), chain=lambda u: u,
        check_unit=_require(lambda u: u >= 1, "strong unit of Z must be >= 1"),
        state=_num_state, scalars="an integer", small=1, large=1,
        literal=("num", lambda v: v.numerator if v.denominator == 1 else _raise(
            ValueError(f"Z needs an integer, got {v}")), "Z needs a numeric literal"),
        trivial=False, **_INT,
    ),
    "Q": GroupOps(
        zero=Fraction(0), shape_ok=_is_rat, add=_q_add, neg=_q_neg, cmp=_q_cmp,
        meet=lambda a, b: b if _q_cmp(a, b) > 0 else a,
        join=lambda a, b: a if _q_cmp(a, b) > 0 else b, sample=_q_sample, **_UNDRAWN,
        check_unit=_require(lambda u: u > 0, "strong unit of Q must be > 0"),
        state=_num_state, scalars="an integer or Fraction", small=1, large=1,
        literal=("num", lambda v: v, "Q needs a numeric literal"), trivial=False, **_NUMBER,
    ),
    "Aff": GroupOps(
        zero=AFF_ID, shape_ok=lambda v: isinstance(v, Aff), add=_aff_add, neg=_aff_neg,
        cmp=_aff_cmp, meet=lambda a, b: a if _aff_cmp(a, b) <= 0 else b,
        join=lambda a, b: b if _aff_cmp(a, b) <= 0 else a, fmt=Aff.__str__,
        literal=(("aff", 2), Aff, "Aff needs aff(slope,shift)"),
        # slope first, then shift: the draw order fixes every seeded report
        sample=lambda rng, bound: _aff((*rng.choice(_AFF_SLOPES), rng.randint(-bound, bound), 1)),
        # the centre is the identity alone: (a,b)+(1,1) = (a, a+b) and
        # (1,1)+(a,b) = (a, b+1) force a = 1, and then (2,0) forces b = 0
        central=lambda v: v == AFF_ID,
        check_unit=_require(lambda u: u.parts[0] > u.parts[1],
                            "strong unit of Aff must have slope > 1"),
        ord=_aff_ord, state=lambda u: None, scalars=None, abelian=False, linear=True, **_UNDRAWN,
        archimedean=False, trivial=False,  # n*(1,1) = (1,n) < (2,0) for every n
        # convex subgroups: {id} < the translations (1,b) < Aff
        small=_aff((1, 1, 1, 1)), large=_aff((2, 1, 0, 1)),
    ),
}


O = GroupSpec("O")
Z = GroupSpec("Z")
Q = GroupSpec("Q")
AFF = GroupSpec("Aff")


def _compile(spec: GroupSpec) -> GroupOps:
    """A base kind's record is its KINDS entry; a lex record composes the
    records of its two factors."""
    if spec.kind != "lex":
        return KINDS[spec.kind]
    head, tail = spec.left.ops, spec.right.ops
    h_ok, h_add, h_neg, h_cmp = head.shape_ok, head.add, head.neg, head.cmp
    t_ok, t_add, t_neg, t_cmp = tail.shape_ok, tail.add, tail.neg, tail.cmp
    t_meet, t_join = tail.meet, tail.join
    h_fmt, t_fmt, h_sample, t_sample = head.fmt, tail.fmt, head.sample, tail.sample
    h_zero, t_zero = head.zero, tail.zero
    name = str(spec)  # the message's name, not spec: spec.ops holds this record

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

    def fmt(v) -> str:
        return f"({h_fmt(v[0])},{t_fmt(v[1])})"

    def sample(rng, bound):
        return (h_sample(rng, bound), t_sample(rng, bound))

    def draw(rng, bound, u, mode):
        # the head-zero slice (0, g \/ 0) /\ u; mode 3 its complement u - x
        if mode > 3:
            return None
        low = meet((h_zero, t_join(t_sample(rng, bound), t_zero)), u)
        return low if mode == 2 else add(u, neg(low))

    def chain(u):
        # a trivial factor adds nothing: Gamma(lex(O,Z),(0,n)) is chain(n)
        if head.trivial:
            return tail.chain(u[1])
        return head.chain(u[0]) if tail.trivial else None

    def central(v) -> bool:
        return head.central(v[0]) and tail.central(v[1])

    def check_unit(u) -> None:
        # a positive head that is strong in H dominates every pair
        # head-first; a zero head is allowed only over a trivial H
        if h_cmp(u[0], h_zero) > 0:
            head.check_unit(u[0])
        elif head.trivial:
            tail.check_unit(u[1])
        else:
            raise ValueError(f"strong unit of {name} needs a positive head, got {fmt(u)}")

    def ord_(v, u):
        # the head decides (head 0 -> infinity, or the tail's ord when the
        # head unit is 0 too), with at most one extra step when n0*h lands
        # exactly on the head unit
        h, g = v
        uh, ug = u
        if h == h_zero:
            return tail.ord(g, ug) if uh == h_zero else math.inf
        n0 = head.ord(h, uh)
        if n0 is math.inf:
            return n0
        if h_cmp(_nmul(h_add, h_zero, h, n0), uh) > 0:
            return n0
        if t_cmp(_nmul(t_add, tail.zero, g, n0), ug) >= 0:
            return n0
        return n0 + 1

    def state(u):
        # a zero head unit means a trivial H: the tail carries the state
        i = 1 if u[0] == h_zero else 0
        s = (head, tail)[i].state(u[i])
        return None if s is None else lambda t: s(t[i])

    return GroupOps(
        zero=(h_zero, t_zero), shape_ok=shape_ok, add=add, neg=neg, cmp=cmp, meet=meet, join=join,
        fmt=fmt, sample=sample, draw=draw, chain=chain, central=central,
        literal=("pair", lambda a, b: (a, b), f"{name} needs a pair literal"),
        check_unit=check_unit, ord=ord_, state=state, scalars=None,
        # the convex subgroups are {0} x C below C' x G, for C convex in G
        # and C' in H
        small=((h_zero, tail.small) if not tail.trivial
               else None if head.trivial else (head.small, tail.zero)),
        large=(h_zero, tail.large) if head.trivial else (head.large, tail.zero),
        abelian=head.abelian and tail.abelian,
        linear=head.linear and tail.linear,
        archimedean=(head.trivial and tail.archimedean) or (tail.trivial and head.archimedean),
        trivial=head.trivial and tail.trivial,
    )


# ---------------------------------------------------------------------------
# Checked group operations


def check_shape(spec: GroupSpec, v) -> None:
    if not spec.ops.shape_ok(v):
        raise ShapeError(f"value {v!r} does not match spec {spec}")


def g_add(spec: GroupSpec, a, b):
    check_shape(spec, a)
    check_shape(spec, b)
    return spec.ops.add(a, b)


def g_cmp(spec: GroupSpec, a, b) -> int:
    """-1, 0 or 1 (see GroupOps)."""
    check_shape(spec, a)
    check_shape(spec, b)
    return spec.ops.cmp(a, b)


def g_meet(spec: GroupSpec, a, b):
    check_shape(spec, a)
    check_shape(spec, b)
    return spec.ops.meet(a, b)


def sample_group_elem(spec: GroupSpec, rng: random.Random, bound: int = 25):
    """A seeded sample from the group, with coordinates in roughly [-bound, bound]."""
    return spec.ops.sample(rng, bound)


# ---------------------------------------------------------------------------
# Unital groups


@dataclass(frozen=True)
class UnitalGroup:
    """A catalog l-group with a strong unit, checked by its GroupOps.check_unit."""

    spec: GroupSpec
    unit: object

    def __post_init__(self):
        check_shape(self.spec, self.unit)
        ops = self.spec.ops
        if ops.cmp(self.unit, ops.zero) < 0:
            raise ValueError(f"unit must be >= 0, got {ops.fmt(self.unit)}")
        ops.check_unit(self.unit)

    def __str__(self) -> str:
        return f"({self.spec},{self.spec.ops.fmt(self.unit)})"


# ---------------------------------------------------------------------------
# Homomorphisms


def _check_scale(h) -> None:
    (k,) = h.payload
    scalars = h.source.ops.scalars
    if h.source != h.target or scalars is None:
        raise HomError("scale is only defined on Z or Q")
    if not h.source.ops.shape_ok(k):
        raise HomError(f"scale on {h.source} needs {scalars} factor")
    if k < 0:
        raise HomError("scale factor must be >= 0 to preserve order")


def _check_pairwise(h) -> None:
    h1, h2 = h.payload
    if h.source.kind != "lex" or h.target.kind != "lex":
        raise HomError("pairwise requires lex source and target")
    if h1.source != h.source.left or h1.target != h.target.left:
        raise HomError("pairwise left component has wrong shape")
    if h2.source != h.source.right or h2.target != h.target.right:
        raise HomError("pairwise right component has wrong shape")
    head, tail = h1.source.ops, h2.source.ops
    if (head.small is not None and h1._raw_apply(head.small) == h1.target.ops.zero
            and h2._raw_apply(tail.large) != h2.target.ops.zero):
        # (small, 0) > (0, large), but their images are 0 < (0, h2(large))
        a, b = (head.small, tail.zero), (head.zero, tail.large)
        raise HomError(f"{h} fails join at {a!r}, {b!r}")


def _check_compose(h) -> None:
    h2, h1 = h.payload
    if h1.target != h2.source:
        raise HomError("composition shape mismatch")
    if h1.source != h.source or h2.target != h.target:
        raise HomError("composition endpoint mismatch")


# The rules of one hom kind: the payload's arity (a payload of two items is
# two GroupHoms), check(h), which raises HomError on an invalid
# presentation, apply(h, a) on a value of the source, and fmt(h).
HomKind = namedtuple("HomKind", "arity check apply fmt")
_KIND_NAME = operator.attrgetter("kind")

HOM_KINDS = {
    "zero": HomKind(0, lambda h: None, lambda h, a: h.target.ops.zero, _KIND_NAME),
    "identity": HomKind(
        0, lambda h: h.source == h.target or _raise(HomError("identity requires source == target")),
        lambda h, a: a, _KIND_NAME),
    "inject_right": HomKind(
        0, lambda h: h.target.kind == "lex" and h.target.right == h.source
        or _raise(HomError("inject_right target must be lex(H, source)")),
        lambda h, a: (h.target.left.ops.zero, a), _KIND_NAME),
    "scale": HomKind(1, _check_scale, lambda h, a: _q_mul(h.payload[0], a),
                     lambda h: f"scale({h.payload[0]})"),
    "pairwise": HomKind(2, _check_pairwise,
                        lambda h, a: (h.payload[0]._raw_apply(a[0]), h.payload[1]._raw_apply(a[1])),
                        lambda h: f"pairwise({h.payload[0]},{h.payload[1]})"),
    "compose": HomKind(2, _check_compose,
                       lambda h, a: h.payload[0]._raw_apply(h.payload[1]._raw_apply(a)),
                       lambda h: f"({h.payload[0]} o {h.payload[1]})"),
}


@dataclass(frozen=True)
class GroupHom:
    """A finitely presented l-group homomorphism from a small closed catalog.

    kinds: "zero", "identity", "scale" (payload k >= 0, an int on Z, an int
    or Fraction on Q), "pairwise" (payload (h1, h2), on lex pairs),
    "inject_right" (g |-> (0, g) into a lex pair), "compose" (payload (h2, h1)).
    Each kind is one HOM_KINDS record, read for its check, apply and format.

    The presentation is checked at construction, endpoints and payload
    form first; then the atomic kinds, and compositions of checked homs,
    are l-homomorphisms.  pairwise(h1, h2) is additive, and over a linear
    head it is an l-homomorphism exactly when h1 is one-to-one or h2 is
    zero, which GroupOps.small and .large decide: it is refused with
    HomError exactly when h1 kills the head's small and h2 does not kill
    the tail's large.  pairwise(scale(Z, 0), identity(Z)) is refused, as
    it sends (1, -5) > 0 to (0, -5) < 0.  A pickle loads through the
    constructor, so it is checked again.
    """

    source: GroupSpec
    target: GroupSpec
    kind: str
    payload: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.source, GroupSpec) and isinstance(self.target, GroupSpec)):
            raise HomError(f"hom endpoints must be GroupSpecs, got {self.source!r}, {self.target!r}")
        rules = HOM_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if rules is None:
            raise HomError(f"unknown hom kind {self.kind!r}")
        if not (isinstance(self.payload, tuple) and len(self.payload) == rules.arity):
            raise HomError(f"{self.kind} takes {rules.arity} payload items, got {self.payload!r}")
        if rules.arity == 2 and not all(isinstance(h, GroupHom) for h in self.payload):
            raise HomError(f"{self.kind} components must be GroupHoms, got {self.payload!r}")
        rules.check(self)

    def __reduce__(self):
        return (GroupHom, (self.source, self.target, self.kind, self.payload))

    def _raw_apply(self, a):
        return HOM_KINDS[self.kind].apply(self, a)

    def __str__(self) -> str:
        return HOM_KINDS[self.kind].fmt(self)


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

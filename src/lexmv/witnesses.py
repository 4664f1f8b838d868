"""Slice decompositions, cyclic families, and lexicographic representations.

A LexAlgebra is the interval algebra Gamma(H lex G, (u, b)) split into its
base (H, u), fiber G and offset b.  The offset b = 0 is the strong case;
b = 1 - c_u in general.  Decompositions of these infinite algebras are
handled symbolically: a decomposition is an indexing function, its zero
slice M_0 (the normal, prime ideal with quotient Gamma(H, u)) is the set
the indexer sends to 0, and every universally quantified claim becomes a
seeded sampled check returning a structured report with the failing
witness when there is one.  Each check is a clause table for run_suite;
theorem_suite (with M_0's ideal laws) and check_witness run several
tables off one draw per sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from . import groups as gr
from .algebra import (IntervalError, PmvAlgebra, PmvElem, left_residual, ord_of,
                      right_residual)
from .groups import GroupHom, GroupSpec, UnitalGroup
from .reports import Report, run_suite
from .sampling import DEFAULT_BOUND, clamp, sample_elem, sample_zero_slice


class WitnessError(ValueError):
    """A witness invariant is violated at construction."""


class UnsupportedBaseError(ValueError):
    """No closed-form state is available for this base spec."""


# ---------------------------------------------------------------------------
# Lexicographic algebras


@dataclass(frozen=True)
class LexAlgebra:
    """Gamma(H lex G, (u, b)) with linear Abelian base (H, u)."""

    base: UnitalGroup
    fiber: GroupSpec
    offset: object

    def __post_init__(self):
        if not (self.base.spec.ops.linear and self.base.spec.ops.abelian):
            raise WitnessError(f"base {self.base.spec} must be linear and Abelian")
        gr.check_shape(self.fiber, self.offset)

    @cached_property
    def spec(self) -> GroupSpec:
        return gr.lex(self.base.spec, self.fiber)

    @cached_property
    def algebra(self) -> PmvAlgebra:
        """Built once, so elements from witness families, samples and maps
        share one algebra object."""
        return PmvAlgebra(UnitalGroup(self.spec, (self.base.unit, self.offset)))

    @cached_property
    def base_algebra(self) -> PmvAlgebra:
        """Gamma(H, u), the algebra of the slice indices."""
        return PmvAlgebra(self.base)

    @property
    def zero_offset(self) -> bool:
        ops = self.fiber.ops
        return ops.cmp(self.offset, ops.zero) == 0

    @classmethod
    def from_algebra(cls, alg: PmvAlgebra) -> "LexAlgebra":
        spec = alg.spec
        if spec.kind != "lex":
            raise WitnessError(f"{alg} is not a lexicographic interval algebra")
        return cls(UnitalGroup(spec.left, alg.unit[0]), spec.right, alg.unit[1])

    def __str__(self) -> str:
        return str(self.algebra)


# ---------------------------------------------------------------------------
# Witnesses


@dataclass(frozen=True)
class PerfectWitness:
    """An algebra with a slice indexer (x |-> t) and a cyclic family (t |-> c_t)."""

    lexalg: LexAlgebra
    indexer: Callable[[PmvElem], object]
    family: Callable[[object], PmvElem]
    kind: str  # "strong" | "weak"

    def __post_init__(self):
        if self.kind not in ("strong", "weak"):
            raise WitnessError(f"kind must be strong or weak, got {self.kind!r}")

    @property
    def algebra(self) -> PmvAlgebra:
        return self.lexalg.algebra


def canonical_witness(lexalg: LexAlgebra, kind: str) -> PerfectWitness:
    """Head-coordinate indexer with family c_t = (t, 0).

    The strong kind forces offset 0: otherwise c_u = (u, 0) differs from
    the top element (u, b).
    """
    if kind == "strong" and not lexalg.zero_offset:
        raise WitnessError(
            f"strong witness on {lexalg} impossible: c_u = (u,0) != (u,b) = 1"
        )
    fiber_zero = lexalg.fiber.ops.zero
    if lexalg.fiber.ops.cmp(lexalg.offset, fiber_zero) < 0:
        raise WitnessError("canonical family needs offset >= 0 so that (u,0) <= (u,b)")
    alg = lexalg.algebra

    def indexer(x: PmvElem):
        return x.value[0]

    def family(t):
        return alg.elem((t, fiber_zero))

    return PerfectWitness(lexalg, indexer, family, kind)


def classify(w: PerfectWitness, x: PmvElem):
    """The slice index t with x in M_t."""
    if x.algebra != w.algebra:
        raise WitnessError(f"{x} does not belong to {w.algebra}")
    return w.indexer(x)


def _per_slice(fn: Callable[[object], object]) -> Callable[[object], object]:
    """fn memoized on the slice index t for one map or suite run.  A value is
    stored only when fn returns, and the key carries t's type, so a family
    still checks every index it is given; an unhashable t reaches fn each time."""
    memo = {}

    def call(t):
        try:
            return memo[t.__class__, t]
        except KeyError:
            return memo.setdefault((t.__class__, t), fn(t))
        except TypeError:  # unhashable: fn raises its own error
            return fn(t)

    return call


# ---------------------------------------------------------------------------
# Decomposition and cyclic checks


def _decomposition_table(w: PerfectWitness) -> tuple:
    """check_decomposition's table on x, y; each command names their parts."""
    idx = w.indexer
    hs = w.lexalg.base.spec
    h = hs.ops
    uh = w.lexalg.base.unit

    def derive(x, y):
        # the indexer is the witness's own code: its values enter here
        v, t = idx(x), idx(y)
        gr.check_shape(hs, v)
        gr.check_shape(hs, t)
        vt = h.add(v, t)
        return x, y, v, t, vt, h.cmp(vt, uh), x.partial_add(y)

    clauses = [
        ("index-range", lambda x, y, v, *_: (h.cmp(v, h.zero) < 0 or h.cmp(v, uh) > 0) and (x,)),
        # (a) strict monotonicity across slices, the lower slice named first
        ("a-monotone", lambda x, y, v, t, *_: h.cmp(v, t) < 0 and not x.lt(y) and (x, y)),
        ("a-monotone", lambda x, y, v, t, *_: h.cmp(t, v) < 0 and not y.lt(x) and (y, x)),
        # (b) negation slice law M_t^- = M_{u-t} = M_t^~
        ("b-negation", lambda x, y, v, *_: not (idx(x.minus) == idx(x.tilde) == h.add(uh, h.neg(v)))
         and (x,)),
        # (c) oplus slice law with v (+) t = (v+t) /\ u
        ("c-oplus", lambda x, y, v, t, vt, *_: idx(x.oplus(y)) != h.meet(vt, uh) and (x, y)),
        # partial-sum slice laws, by the side of u that v+t falls on
        ("i-partial-sum", lambda x, y, v, t, vt, side, s: side < 0
         and (s is None or idx(s) != vt) and (x, y)),
        ("iii-undefined", lambda x, y, v, t, vt, side, s: side > 0 and s is not None and (x, y)),
        ("i-partial-sum-top", lambda x, y, v, t, vt, side, s: side == 0
         and s is not None and idx(s) != uh and (x, y)),
        # lattice slice laws
        ("iv-join", lambda x, y, v, t, *_: idx(x.join(y)) != h.join(v, t) and (x, y)),
        ("iv-meet", lambda x, y, v, t, *_: idx(x.meet(y)) != h.meet(v, t) and (x, y)),
    ]
    return derive, clauses, ()


def check_decomposition(w: PerfectWitness, sample_budget: int = 1000, seed: int = 0) -> Report:
    """Definition clauses (a)-(c) plus the partial-sum and lattice slice laws."""
    alg = w.algebra
    draw = lambda rng: (sample_elem(alg, rng), sample_elem(alg, rng))
    return run_suite("check-decomposition", sample_budget, seed, draw,
                     [((0, 1), *_decomposition_table(w))], algebra=str(alg))


def _cyclic_table(w: PerfectWitness) -> tuple:
    """check_cyclic's table on the slice indices v, t; each command names their parts."""
    alg = w.algebra
    h = w.lexalg.base.spec.ops
    uh = w.lexalg.base.unit
    family = _per_slice(w.family)
    once = [
        ("origin", lambda: family(h.zero) != alg.zero and ("c_0 != 0",)),
        ("iii-top", lambda: w.kind == "strong" and family(uh) != alg.one and (family(uh),)),
    ]
    clauses = [
        ("i-membership", lambda v, t, cv, ct, vt: w.indexer(ct) != t and (h.fmt(t), ct)),
        ("i-centrality", lambda v, t, cv, ct, vt: not alg.ops.central(ct.value) and (ct,)),
        ("ii-additivity", lambda v, t, cv, ct, vt: h.cmp(vt, uh) <= 0
         and alg.ops.add(cv.value, ct.value) != family(vt).value and (cv, ct)),
    ]
    return lambda v, t: (v, t, family(v), family(t), h.add(v, t)), clauses, once


def check_cyclic(w: PerfectWitness, sample_budget: int = 1000, seed: int = 0) -> Report:
    """Cyclic family clauses: slice membership and centrality, additivity
    c_v + c_t = c_{v+t}, the origin law c_0 = 0, and c_u = 1 for strong."""
    base_alg = w.lexalg.base_algebra
    draw = lambda rng: (sample_elem(base_alg, rng).value, sample_elem(base_alg, rng).value)
    return run_suite("check-cyclic", sample_budget, seed, draw, [((0, 1), *_cyclic_table(w))],
                     algebra=str(w.algebra), kind=w.kind)


def check_witness(
    w: PerfectWitness, sample_budget: int = 1000, seed: int = 0, bound: int = DEFAULT_BOUND
) -> Report:
    """The decomposition and cyclic tables in one loop over the parts x, y
    (elements) and v, t (slice indices)."""
    alg, base_alg = w.algebra, w.lexalg.base_algebra

    def draw(rng):
        return (sample_elem(alg, rng, bound), sample_elem(alg, rng, bound),
                sample_elem(base_alg, rng, bound).value, sample_elem(base_alg, rng, bound).value)

    tables = [((0, 1), *_decomposition_table(w)), ((2, 3), *_cyclic_table(w))]
    rep = run_suite("check-witness", sample_budget, seed, draw, tables, algebra=str(alg))
    if rep.verdict != "fail":
        rep.details["decomposition"] = rep.details["cyclic"] = rep.verdict
    return rep


def theorem_suite(w: PerfectWitness, sample_budget: int = 1000, seed: int = 0) -> Report:
    """The full slice-structure theorem as sampled checks, clauses i-ix:
    partial-sum slice laws (i-iii), lattice slice law (iv), a state
    vanishing on M_0 (v), M_0 a normal ideal with M_0 + M_0 = M_0 inside
    the infinitesimals (vi), the quotient onto the base (vii), uniqueness
    of the indexing (viii), and primality of M_0 (ix).  One loop over the
    parts x, y, i, j (in M_0) and t (a base element) runs every table."""
    la = w.lexalg
    alg = w.algebra
    hs = la.base.spec
    h = hs.ops
    uh = la.base.unit
    zero_e = alg.zero
    # an undefined partial sum (None) is not in M_0
    in_m0 = lambda e: e is not None and w.indexer(e) == h.zero

    def draw(rng):
        return (sample_elem(alg, rng), sample_elem(alg, rng), sample_zero_slice(alg, rng),
                sample_zero_slice(alg, rng), sample_elem(la.base_algebra, rng))

    def slice_sum(x, t):
        # (ii) surjectivity of M_v + M_t onto M_{v+t}: peel c_t off x.
        # Interior slices contain every tail, so x - c_t stays in the
        # interval exactly when 0 < v; v = 0 is the trivial split 0 + x
        ix = w.indexer(x)
        gr.check_shape(hs, ix)
        v = h.add(ix, h.neg(t))
        if h.cmp(v, h.zero) <= 0 or h.cmp(ix, uh) >= 0:
            return None
        ct = w.family(t)
        try:
            a = alg.elem(alg.ops.add(x.value, alg.ops.neg(ct.value)))
        except IntervalError:  # a c_t outside slice t
            return (x, h.fmt(t))
        return (w.indexer(a) != v or a.partial_add(ct) != x) and (x, h.fmt(t))

    def normal(x, i):
        # x (+) i = k (+) x and i (+) x = x (+) k2, with k and k2 in M_0
        xi, ix = x.oplus(i), i.oplus(x)
        try:
            k, k2 = left_residual(xi, x), right_residual(ix, x)
        except ValueError:  # x above x (+) i or i (+) x: a broken oplus
            return (x, i)
        return not (in_m0(k) and k.oplus(x) == xi and in_m0(k2) and x.oplus(k2) == ix) and (x, i)

    # (vi) M_0 + M_0 = M_0, normality, infinitesimality
    closed = [("vi-sum-closed", lambda i, j: h.cmp(uh, h.zero) > 0
               and not in_m0(i.partial_add(j)) and (i, j))]
    ideal = [("vi-normal", normal),
             ("vi-infinitesimal", lambda x, i: ord_of(i) is not math.inf and i != zero_e and (i,))]
    derive, clauses, once = _decomposition_table(w)
    pair = [
        # (ix) primality of M_0, on the decomposition's indices v of x and t of y
        ("ix-prime", lambda x, y, v, t, *_: in_m0(x.meet(y)) and not (v == h.zero or t == h.zero)
         and (x, y)),
        # (viii) the indexing is forced: it agrees with the head coordinate
        ("viii-unique", lambda x, y, v, *_: v != x.value[0] and (x,)),
    ]
    tables = [((0, 1), derive, [*clauses, *pair], once),
              ((0, 4), lambda x, t: (x, t.value), [("ii-slice-sum", slice_sum)], ()),
              ((2, 3), lambda *p: p, closed, ()), ((0, 2), lambda *p: p, ideal, ())]
    # (v) and (vii) need the offset-0 form; the state is s0 o head
    skipped = {}
    if not la.zero_offset:
        skipped = dict.fromkeys(("v-state", "vii-quotient"), "skipped: nonzero offset")
    else:
        try:
            tables.append(((0, 1), *_state_table(alg, state_on_lex(la), in_m0)))
        except UnsupportedBaseError:
            skipped["v-state"] = "skipped: no closed-form base state"
        quotient, onto = _hom_tables(quotient_to_base(la), False)
        tables += [((0, 1), *quotient), ((4,), *onto)]
    rep = run_suite("theorem-suite", sample_budget, seed, draw, tables, algebra=str(alg), **skipped)
    if rep.verdict != "fail":
        for part in ("v-state", "vii-quotient"):
            rep.details.setdefault(part, rep.verdict)
    return rep


# ---------------------------------------------------------------------------
# Mappings and the representation map


@dataclass(frozen=True)
class Mapping:
    source: PmvAlgebra
    target: PmvAlgebra
    fn: Callable[[PmvElem], PmvElem]
    preimage: Optional[Callable[[PmvElem], PmvElem]] = None
    description: str = ""


def build_phi(w: PerfectWitness) -> Mapping:
    """phi(x) = (t, x - c_t) into Gamma(H lex G, (u, b)) with b = 1 - c_u.

    b = 0 exactly in the strong case; on canonical witnesses phi is the
    identity.  Surjectivity witnesses use the preimage recipe x = g + c_t.
    It calls the family once per slice index, for c_t's tail and its negative.
    """
    la = w.lexalg
    alg = la.algebra
    # element values are valid, so the fiber's ops run unchecked; the
    # target's elem still checks that each image lies in [0, (u, b)]
    f_add, f_neg = la.fiber.ops.add, la.fiber.ops.neg

    @_per_slice
    def tail(t):
        c = w.family(t).value[1]
        return c, f_neg(c)

    # b is the tail of 1 - c_u = (u, offset) - (u, c) = (0, offset - c)
    target = LexAlgebra(la.base, la.fiber, f_add(la.offset, tail(la.base.unit)[1])).algebra

    def fn(x: PmvElem) -> PmvElem:
        t = w.indexer(x)
        return target.elem((t, f_add(x.value[1], tail(t)[1])))

    def preimage(y: PmvElem) -> PmvElem:
        t, g = y.value
        return alg.elem((t, f_add(g, tail(t)[0])))

    return Mapping(alg, target, fn, preimage, description="phi(x) = (t, x - c_t)")


def _hom_tables(m: Mapping, check_injective: bool) -> tuple:
    """verify_hom's tables on x, y from the source and on z from the target."""
    f = m.fn
    once = [
        ("zero", lambda: f(m.source.zero) != m.target.zero and ("f(0) != 0",)),
        ("unit", lambda: f(m.source.one) != m.target.one and (f(m.source.one),)),
    ]
    clauses = [
        ("oplus", lambda x, y, fx, fy: f(x.oplus(y)) != fx.oplus(fy) and (x, y)),
        ("odot", lambda x, y, fx, fy: f(x.odot(y)) != fx.odot(fy) and (x, y)),
        ("negations", lambda x, y, fx, fy: f(x.minus) != fx.minus and (x,)),
        ("negations", lambda x, y, fx, fy: f(x.tilde) != fx.tilde and (x,)),
        ("lattice", lambda x, y, fx, fy: f(x.join(y)) != fx.join(fy) and (x, y)),
        ("lattice", lambda x, y, fx, fy: f(x.meet(y)) != fx.meet(fy) and (x, y)),
        ("injectivity", lambda x, y, fx, fy: check_injective and x != y and fx == fy and (x, y)),
    ]
    onto = [("surjectivity", lambda z: z is not None and f(m.preimage(z)) != z and (z,))]
    return (lambda x, y: (x, y, f(x), f(y)), clauses, once), (lambda *p: p, onto, ())


def verify_hom(
    m: Mapping,
    sample_budget: int = 1000,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
    check_injective: bool = True,
) -> Report:
    """Preservation of 0, 1, both negations, oplus, odot, join and meet on
    samples; sampled injectivity; surjectivity through the preimage recipe."""

    def draw(rng):
        x = sample_elem(m.source, rng, bound)
        y = sample_elem(m.source, rng, bound)
        return x, y, sample_elem(m.target, rng, bound) if m.preimage is not None else None

    pair, onto = _hom_tables(m, check_injective)
    return run_suite("verify-hom", sample_budget, seed, draw, [((0, 1), *pair), ((2,), *onto)],
                     surjectivity="checked" if m.preimage is not None else "not-checked",
                     injectivity="checked" if check_injective else "not-checked",
                     map=m.description)


# ---------------------------------------------------------------------------
# Quotient and states


def quotient_to_base(lexalg: LexAlgebra) -> Mapping:
    """The head projection onto Gamma(H, u); its kernel is the zero slice M_0.
    Its images are built unchecked: for x in [0, (u, 0)] the lex order gives
    0 <= head <= u, and for t in [0, u], (t, 0) lies in [0, (u, 0)]."""
    if not lexalg.zero_offset:
        raise WitnessError("quotient-to-base is stated for offset 0")
    make, base_make = lexalg.algebra._kernels.make, lexalg.base_algebra._kernels.make
    fiber_zero = lexalg.fiber.ops.zero

    def fn(x: PmvElem) -> PmvElem:
        return base_make(x.value[0])

    def preimage(t: PmvElem) -> PmvElem:
        return make((t.value, fiber_zero))

    return Mapping(lexalg.algebra, lexalg.base_algebra, fn, preimage, description="head projection")


def _closed_form_state(g: UnitalGroup) -> Callable[[object], Fraction]:
    s0 = g.spec.ops.state(g.unit)
    if s0 is None:
        raise UnsupportedBaseError(f"no closed-form state for base {g.spec}")
    return s0


def unique_state(alg: PmvAlgebra) -> Callable[[PmvElem], Fraction]:
    """The unique state of a linear catalog algebra, as a plain callable."""
    s0 = _closed_form_state(alg.group)
    return lambda x: s0(x.value)


def state_on_lex(lexalg: LexAlgebra) -> Callable[[PmvElem], Fraction]:
    """s = s0 o head as a plain callable; it vanishes on the zero slice M_0."""
    if not lexalg.zero_offset:
        raise WitnessError("state_on_lex is stated for offset 0")
    s0 = _closed_form_state(lexalg.base)
    return lambda x: s0(x.value[0])


def _state_table(alg: PmvAlgebra, s: Callable, vanishes_on: Optional[Callable]) -> tuple:
    """state_report's table on a, b; each command names their parts."""
    once = [("normalization", lambda: s(alg.one) != 1 and (alg.one,))]
    clauses = [
        ("additivity", lambda a, b, ab: ab is not None and s(ab) != s(a) + s(b) and (a, b)),
        ("vanishes-on-ideal", lambda a, b, ab: vanishes_on is not None
         and vanishes_on(a) and s(a) != 0 and (a,)),
    ]
    return lambda a, b: (a, b, a.partial_add(b)), clauses, once


def state_report(
    alg: PmvAlgebra,
    s: Callable[[PmvElem], Fraction],
    sample_budget: int = 1000,
    seed: int = 0,
    vanishes_on: Optional[Callable[[PmvElem], bool]] = None,
) -> Report:
    """s(1) = 1 and additivity on defined partial sums sampled from alg;
    optionally s(a) = 0 on the samples a with vanishes_on(a), a predicate."""
    draw = lambda rng: (sample_elem(alg, rng), sample_elem(alg, rng))
    table = ((0, 1), *_state_table(alg, s, vanishes_on))
    return run_suite("state", sample_budget, seed, draw, [table])


# ---------------------------------------------------------------------------
# Closed-form midpoint certificate


def midpoint_certificate(lexalg: LexAlgebra) -> Report:
    """Exact solver for c = c^- over the middle slice of Gamma(Z lex Z, (u, b)).

    c = (u/2, k) has c^- = (u/2, b - k), so a fixed point needs 2k = b: it
    exists iff b is even.  An unsolvable certificate shows M_0 admits no
    section through a self-complementary element."""
    rep = Report("midpoint-certificate", "pass")
    if lexalg.base.spec != gr.Z or lexalg.fiber != gr.Z:
        rep.verdict = "error"
        rep.details["reason"] = "certificate is stated for base Z and fiber Z"
        return rep
    u = lexalg.base.unit
    b = lexalg.offset
    if u % 2 != 0:
        rep.details["solvable"] = False
        rep.details["reason"] = "no middle slice: unit head is odd"
        return rep
    if b % 2 == 0:
        rep.details["solvable"] = True
        rep.details["witness"] = lexalg.spec.ops.fmt((u // 2, b // 2))
    else:
        rep.details["solvable"] = False
        rep.details["reason"] = f"2k = {b} has no integer solution"
    return rep


# ---------------------------------------------------------------------------
# Functor on morphisms


def lift_morphism(h: GroupHom, base: UnitalGroup) -> Mapping:
    """(t, g) |-> (t, h(g)) between the strong lex algebras over the base."""
    source = LexAlgebra(base, h.source, h.source.ops.zero).algebra
    target = LexAlgebra(base, h.target, h.target.ops.zero).algebra

    def fn(x: PmvElem) -> PmvElem:
        t, g = x.value
        return target.elem((t, h._raw_apply(g)))

    return Mapping(source, target, fn, description=f"lift({h})")


class ExtractionError(ValueError):
    """A mapping does not arise from a catalog fiber homomorphism."""


def extract_morphism(f: Mapping, samples: int = 200, seed: int = 0) -> GroupHom:
    """Recover the fiber homomorphism from a map fixing the base slice-wise.

    The action on head-zero elements determines h on the positive cone;
    h extends to all of G by h(g) = h(g+) - h(g-).  The extension is then
    matched against the closed hom catalog and validated on samples."""
    if samples < 1:
        raise ValueError(f"extract_morphism needs samples >= 1, got {samples}")
    src_la = LexAlgebra.from_algebra(f.source)
    tgt_la = LexAlgebra.from_algebra(f.target)
    if src_la.base != tgt_la.base or not (src_la.zero_offset and tgt_la.zero_offset):
        raise ExtractionError("extraction needs identical bases and offset 0")
    fs, ft = src_la.fiber.ops, tgt_la.fiber.ops
    h = src_la.base.spec.ops

    def probe_pos(g):
        y = f.fn(f.source.elem((h.zero, g)))
        h0, g2 = y.value
        if h.cmp(h0, h.zero) != 0:
            raise ExtractionError(f"map does not fix the base slice-wise at (0,{g})")
        return g2

    def hval(g):
        gp = fs.join(g, fs.zero)
        gm = fs.neg(fs.meet(g, fs.zero))
        return ft.add(probe_pos(gp), ft.neg(probe_pos(gm)))

    hom = _infer_hom(src_la.fiber, tgt_la.fiber, hval, samples, seed)
    if hom is None:
        raise ExtractionError(f"no catalog homomorphism matches {f.description}")
    return hom


def _infer_hom(src: GroupSpec, tgt: GroupSpec, fn, samples: int, seed: int):
    candidates = []

    def try_add(make):
        try:
            candidates.append(make())
        except (gr.HomError, ValueError, TypeError):
            pass

    if src == tgt:
        try_add(lambda: gr.identity_hom(src))
    try_add(lambda: gr.zero_hom(src, tgt))
    if src == tgt and src.ops.scalars is not None:
        k = fn(1)  # the factor is the image of the generator 1
        try_add(lambda: gr.scale_hom(src, k))
    if tgt.kind == "lex" and tgt.right == src:
        try_add(lambda: gr.inject_right_hom(tgt.left, src))
    if src.kind == "lex" and tgt.kind == "lex":
        h1 = _infer_hom(src.left, tgt.left, lambda a: fn((a, src.right.ops.zero))[0], samples, seed)
        h2 = _infer_hom(src.right, tgt.right, lambda b: fn((src.left.ops.zero, b))[1], samples, seed)
        if h1 is not None and h2 is not None:
            try_add(lambda: gr.pairwise_hom(h1, h2))
    rng = random.Random(seed)
    probes = [src.ops.sample(rng, DEFAULT_BOUND) for _ in range(samples)]
    for cand in candidates:
        if all(fn(p) == cand._raw_apply(p) for p in probes):
            return cand
    return None


# ---------------------------------------------------------------------------
# Built-in mutation suite

_ZZ = lambda u, b: LexAlgebra(UnitalGroup(gr.Z, u), gr.Z, b)


def mutation_suite(seed: int = 0, samples: int = 400) -> list[tuple[str, Report]]:
    """Six deliberately broken witnesses/maps; every report must fail."""
    out = []

    # 1. indexer shifted by one (clamped): breaks the negation slice law
    w = canonical_witness(_ZZ(1, 0), "strong")
    bad1 = PerfectWitness(w.lexalg, lambda x: min(x.value[0] + 1, 1), w.family, "strong")
    out.append(("indexer-shift", check_decomposition(bad1, samples, seed)))

    # 2. constant indexer: breaks monotonicity / the oplus slice law
    bad2 = PerfectWitness(w.lexalg, lambda x: 0, w.family, "strong")
    out.append(("indexer-constant", check_decomposition(bad2, samples, seed)))

    # 3. family with index-dependent noise: breaks additivity (ii)
    la21 = _ZZ(2, 1)
    alg21 = la21.algebra
    noisy = lambda t: alg21.elem((t, min(t, 1)))
    bad3 = PerfectWitness(la21, lambda x: x.value[0], noisy, "weak")
    out.append(("family-noise", check_cyclic(bad3, samples, seed)))

    # 4. family with nonzero origin: breaks c_0 = 0
    shifted = lambda t: alg21.elem((t, 1 if t == 0 else 0))
    bad4 = PerfectWitness(la21, lambda x: x.value[0], shifted, "weak")
    out.append(("family-nonzero-origin", check_cyclic(bad4, samples, seed)))

    # 5. theta without the offset: fails unit preservation
    src = _ZZ(2, 0).algebra
    tgt = _ZZ(2, 2).algebra
    drop_offset = Mapping(src, tgt, lambda x: clamp(tgt, x.value), description="theta without offset")
    out.append(("theta-drop-offset", verify_hom(drop_offset, samples, seed)))

    # 6. strong rules applied to the weak canonical family: fails c_u = 1
    weak = canonical_witness(la21, "weak")
    bad6 = PerfectWitness(la21, weak.indexer, weak.family, "strong")
    out.append(("strong-kind-on-weak", check_cyclic(bad6, samples, seed)))

    return out

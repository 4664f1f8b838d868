"""Exhaustive oracle on finite MV-algebras given by explicit tables.

Every finite pseudo MV-algebra is commutative (it is Gamma(G, u) with G
Archimedean, hence Abelian), so check_axioms refuses a non-symmetric (+),
every ideal is normal, one negation table suffices and x (.) y =
neg(neg(x) (+) neg(y)).  Algebras are stored as plain tables, deliberately
independent from the interval construction: the tables are the ground
truth the symbolic side is checked against.

Ideals and subalgebras are bitmasks over element indices.  Enumerations
are complete but polynomial in the size: ideals as the principal ideals,
subalgebras by closure search.  They are returned in sorted-mask order so
reports are byte-stable.

The FiniteMv methods and check_axioms are the definitions; the ideal
predicates, generated_normal_ideal, quotient and check_rdp2 read derived
tables (FiniteMv._odot, _join, _meet, _down and _dist), each built from
those methods on its own first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .reports import Report


class TableError(ValueError):
    """A table is malformed or violates the axioms."""


class CapExceeded(RuntimeError):
    """An exhaustive suite was asked to run past its size cap."""


def _grid(n: int, f) -> tuple:
    return tuple(tuple(f(x, y) for y in range(n)) for x in range(n))


@dataclass(frozen=True)
class FiniteMv:
    """A table algebra, whose constructor checks the axioms; replace, copy
    and pickles go through it (a pickle loads without the derived tables).
    _trusted skips the scan for the library's constructions, whose tables
    satisfy the axioms whenever their inputs do."""

    size: int
    oplus: tuple  # size x size index table
    neg: tuple  # size index table
    zero: int
    one: int
    labels: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(self.size)))
        rep = check_axioms(self)
        if not rep.ok:
            raise TableError(f"tables violate the axioms: {rep.counterexamples}")

    def __reduce__(self):
        # a pickle is outside input: rebuild it through the axiom scan
        return (FiniteMv, (self.size, self.oplus, self.neg, self.zero, self.one, self.labels))

    # Derived tables, each built from the methods below on its own first
    # use.  down[y] is the mask of {x : x <= y}; x and y are congruent
    # modulo an ideal iff it holds dist[x][y] = (x (.) y-) (+) (y (.) x-).
    _odot = cached_property(lambda a: _grid(a.size, a.odot))
    _join = cached_property(lambda a: _grid(a.size, a.join))
    _meet = cached_property(lambda a: _grid(a.size, a.meet))
    _down = cached_property(lambda a: tuple(sum(1 << x for x in range(a.size) if a.le(x, y))
                                            for y in range(a.size)))
    _dist = cached_property(lambda a: _grid(
        a.size, lambda x, y: a.oplus[a.odot(x, a.neg[y])][a.odot(y, a.neg[x])]))

    # -- derived operations, all index-level --------------------------------

    def odot(self, x: int, y: int) -> int:
        return self.neg[self.oplus[self.neg[x]][self.neg[y]]]

    def le(self, x: int, y: int) -> bool:
        return self.oplus[self.neg[x]][y] == self.one

    def join(self, x: int, y: int) -> int:
        return self.oplus[x][self.odot(self.neg[x], y)]

    def meet(self, x: int, y: int) -> int:
        return self.neg[self.join(self.neg[x], self.neg[y])]

    def partial_add(self, x: int, y: int) -> Optional[int]:
        if self.odot(x, y) != self.zero:
            return None
        return self.oplus[x][y]

    def ord_of(self, x: int) -> Optional[int]:
        """min{n : n.x = 1}, or None for infinite order."""
        acc = self.zero
        for n in range(1, self.size + 1):
            acc = self.oplus[acc][x]
            if acc == self.one:
                return n
        return None

    def mask_labels(self, mask: int) -> list:
        return [self.labels[i] for i in range(self.size) if mask >> i & 1]

    def __str__(self) -> str:
        return f"finite[{self.size}]"


def _trusted(size: int, oplus: tuple, neg: tuple, zero: int, one: int, labels: tuple) -> FiniteMv:
    """A FiniteMv built without the axiom scan, for make_chain, make_product,
    make_subalgebra and quotient; empty labels number the elements."""
    a = object.__new__(FiniteMv)
    vars(a).update(size=size, oplus=oplus, neg=neg, zero=zero, one=one,
                   labels=labels or tuple(str(i) for i in range(size)))
    return a


def check_axioms(a: FiniteMv) -> Report:
    """A1-A8 over all index pairs/triples, table closure, and a commutative
    (+), which with A6 and A7 makes Chang's MV axioms.  No finite pseudo
    MV-algebra fails it, and it makes every ideal normal."""
    rep = Report("check-axioms", "pass", samples=a.size)
    n = a.size
    if len(a.oplus) != n or any(len(r) != n for r in a.oplus) or len(a.neg) != n:
        return rep.fail("shape", [f"tables are not {n}x{n} and {n}"])
    flat = [v for r in a.oplus for v in r] + list(a.neg) + [a.zero, a.one]
    if any(not (0 <= v < n) for v in flat):
        return rep.fail("closure", ["index out of range"])
    op, ng, zr, on = a.oplus, a.neg, a.zero, a.one
    w = a.labels
    for x in range(n):
        if op[x][zr] != x or op[zr][x] != x:
            return rep.fail("A2", [w[x]])
        if op[x][on] != on or op[on][x] != on:
            return rep.fail("A3", [w[x]])
        if ng[ng[x]] != x:
            return rep.fail("A8", [w[x]])
        for y in range(n):
            jxy = op[x][a.odot(ng[x], y)]
            if jxy != op[y][a.odot(ng[y], x)]:
                return rep.fail("A6", [w[x], w[y]])
            if a.odot(x, op[ng[x]][y]) != a.odot(y, op[ng[y]][x]):
                return rep.fail("A7", [w[x], w[y]])
            if op[x][y] != op[y][x]:
                return rep.fail("commutative", [w[x], w[y]])
            for z in range(n):
                if op[x][op[y][z]] != op[op[x][y]][z]:
                    return rep.fail("A1", [w[x], w[y], w[z]])
    if ng[on] != zr:
        return rep.fail("A4", [w[on]])
    return rep


# ---------------------------------------------------------------------------
# Constructions


def make_chain(n: int) -> FiniteMv:
    """Gamma(Z, n) as a table: {0..n} with k (+) j = min(k+j, n)."""
    if n < 1:
        raise TableError("chain needs n >= 1")
    m = n + 1
    op = tuple(tuple(min(i + j, n) for j in range(m)) for i in range(m))
    ng = tuple(n - i for i in range(m))
    return _trusted(m, op, ng, 0, n, ())


def make_product(a: FiniteMv, b: FiniteMv) -> FiniteMv:
    """Componentwise product; element (i, j) has index i * |B| + j."""
    m = a.size * b.size
    idx = lambda i, j: i * b.size + j
    op = tuple(
        tuple(
            idx(a.oplus[i][k], b.oplus[j][l])
            for k in range(a.size)
            for l in range(b.size)
        )
        for i in range(a.size)
        for j in range(b.size)
    )
    ng = tuple(idx(a.neg[i], b.neg[j]) for i in range(a.size) for j in range(b.size))
    labels = tuple(
        f"({a.labels[i]},{b.labels[j]})" for i in range(a.size) for j in range(b.size)
    )
    return _trusted(m, op, ng, idx(a.zero, b.zero), idx(a.one, b.one), labels)


def make_subalgebra(a: FiniteMv, subset) -> FiniteMv:
    """The restriction to a subset closed under (+) and neg with 0 and 1."""
    elems = sorted(set(subset))
    pos = {x: i for i, x in enumerate(elems)}
    if a.zero not in pos or a.one not in pos:
        raise TableError("subset must contain 0 and 1")
    for x in elems:
        if a.neg[x] not in pos:
            raise TableError(f"subset not closed under neg at {a.labels[x]}")
        for y in elems:
            if a.oplus[x][y] not in pos:
                raise TableError(
                    f"subset not closed under oplus at ({a.labels[x]}, {a.labels[y]})"
                )
    m = len(elems)
    op = tuple(tuple(pos[a.oplus[x][y]] for y in elems) for x in elems)
    ng = tuple(pos[a.neg[x]] for x in elems)
    labels = tuple(a.labels[x] for x in elems)
    return _trusted(m, op, ng, pos[a.zero], pos[a.one], labels)


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class IdealInfo:
    """An ideal and its flags; normal (x (+) I = I (+) x) and commutative
    (A/I is) are True, decided by check_axioms' commutative clause."""

    mask: int
    normal: bool
    maximal: bool
    prime: bool
    commutative: bool
    strict: bool


def _is_prime(a: FiniteMv, mask: int) -> bool:
    """Proper, and x /\\ y in I only when x or y is."""
    n, meet = range(a.size), a._meet
    return mask != (1 << a.size) - 1 and all(
        mask >> x & 1 or mask >> y & 1 for x in n for y in n if mask >> meet[x][y] & 1
    )


def _is_strict(a: FiniteMv, mask: int) -> bool:
    """x/I < y/I only when x < y, where x/I <= y/I iff x (.) y- is in I."""
    n, od, down = range(a.size), a._odot, a._down
    qle = [[mask >> od[x][a.neg[y]] & 1 for y in n] for x in n]
    return all(down[y] >> x & 1 and x != y for x in n for y in n
               if qle[x][y] and not qle[y][x])


def _maximal_masks(a: FiniteMv, masks) -> list:
    """The maximal ideals among masks, which must be every ideal of a."""
    full = (1 << a.size) - 1
    return [m for m in masks
            if m != full and not any(j not in (full, m) and j & m == m for j in masks)]


def enumerate_ideal_masks(a: FiniteMv) -> list:
    """Every ideal, as sorted masks.  An ideal of a finite algebra is the
    ideal generated by the (+) of its members, since x <= x (+) y and
    y <= x (+) y, so the principal ideals are all of them."""
    return sorted({generated_normal_ideal(a, x) for x in range(a.size)})


def enumerate_ideals(a: FiniteMv, cap: int = 12) -> list:
    """All ideals with flags, sorted by mask."""
    if a.size > cap:
        raise CapExceeded(f"ideal enumeration capped at {cap} elements, got {a.size}")
    masks = enumerate_ideal_masks(a)
    maximal = set(_maximal_masks(a, masks))
    return [
        IdealInfo(m, True, m in maximal, _is_prime(a, m), True, _is_strict(a, m))
        for m in masks
    ]


def generated_normal_ideal(a: FiniteMv, x: int) -> int:
    """The ideal generated by x, {y : y <= m.x for some m}; it is normal
    because finite pseudo MV-algebras are commutative.  Computed as the
    down-set of the stabilized truncated multiple m.x: that multiple is
    (+)-idempotent, so its down-set is already closed under (+)."""
    acc, top, join = a.zero, a.zero, a._join
    for _ in range(a.size + 1):
        acc = a.oplus[acc][x]
        top = join[top][acc]
    return a._down[top]


def radical_suite(a: FiniteMv) -> tuple:
    """(Rad, Rad_n, Infinit) as masks: the intersection of maximal ideals,
    of normal maximal ideals, and the infinite-order elements.  Every
    ideal is normal, so Rad_n is Rad."""
    rad = (1 << a.size) - 1
    for m in _maximal_masks(a, enumerate_ideal_masks(a)):
        rad &= m
    return rad, rad, sum(1 << x for x in range(a.size) if is_infinitesimal(a, x))


def is_infinitesimal(a: FiniteMv, x: int) -> bool:
    """mx exists as a partial sum for every m; in a finite algebra the
    multiples either hit an undefined step or stabilize."""
    acc = a.zero
    for _ in range(a.size + 1):
        nxt = a.partial_add(acc, x)
        if nxt is None or nxt == acc:
            break
        acc = nxt
    return nxt is not None


# ---------------------------------------------------------------------------
# Quotients, sections, complements


def _ideal_of(a: FiniteMv, mask: int) -> int:
    """The ideal generated by a mask: the ideal generated by s, the (+) of
    its members, since each member is at most s and an ideal holding them
    holds s.  So a mask is an ideal iff it is its own _ideal_of."""
    s = a.zero
    for i in range(a.size):
        if mask >> i & 1:
            s = a.oplus[s][i]
    return generated_normal_ideal(a, s)


def quotient(a: FiniteMv, mask: int) -> tuple:
    """(A / I, projection list) for an ideal I, normal like every ideal."""
    if mask != _ideal_of(a, mask):
        raise TableError("not an ideal")
    proj = [-1] * a.size
    reps = []
    for x in range(a.size):
        dist = a._dist[x]
        for k, r in enumerate(reps):
            if mask >> dist[r] & 1:
                proj[x] = k
                break
        else:
            proj[x] = len(reps)
            reps.append(x)
    m = len(reps)
    op = tuple(tuple(proj[a.oplus[reps[i]][reps[j]]] for j in range(m)) for i in range(m))
    ng = tuple(proj[a.neg[reps[i]]] for i in range(m))
    labels = tuple(f"[{a.labels[r]}]" for r in reps)
    q = _trusted(m, op, ng, proj[a.zero], proj[a.one], labels)
    return q, tuple(proj)


def _find_hom(a: FiniteMv, b: FiniteMv, choices) -> Optional[tuple]:
    """The first one-to-one map f: A -> B with f(x) in choices[x] that
    preserves 0, 1, neg and (+), as a tuple, or None.  Backtracking
    assigns the slots in index order, after f(0) = 0 and f(1) = 1, and
    prunes every partial map that already breaks neg or (+)."""
    f = [-1] * a.size
    f[a.zero] = b.zero
    f[a.one] = b.one
    used = [False] * b.size
    used[b.zero] = used[b.one] = True
    # preimages[t]: the pairs (u, v) with u (+) v = t
    preimages = [[] for _ in range(a.size)]
    for u, row in enumerate(a.oplus):
        for v, t in enumerate(row):
            preimages[t].append((u, v))

    def consistent(x: int) -> bool:
        nx = a.neg[x]
        if f[nx] >= 0 and f[nx] != b.neg[f[x]]:
            return False
        for y in range(a.size):
            if f[y] < 0:
                continue
            for u, v in ((x, y), (y, x)):
                t = a.oplus[u][v]
                if f[t] >= 0 and b.oplus[f[u]][f[v]] != f[t]:
                    return False
        # pairs of earlier slots whose sum lands on the new slot
        for u, v in preimages[x]:
            if f[u] >= 0 and f[v] >= 0 and b.oplus[f[u]][f[v]] != f[x]:
                return False
        return True

    order = [x for x in range(a.size) if f[x] < 0]

    def search(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in choices[x]:
            if used[y]:
                continue
            f[x], used[y] = y, True
            if consistent(x) and search(i + 1):
                return True
            f[x], used[y] = -1, False
        return False

    found = consistent(a.zero) and consistent(a.one) and search(0)
    del search  # it holds itself through its closure: free the search now, not at a collection
    return tuple(f) if found else None


def is_retractive(a: FiniteMv, mask: int) -> tuple:
    """(bool, section) where section s: A/I -> A is a homomorphism with
    proj(s(q)) = q: a hom search whose choices for q are the fiber of q
    (disjoint fibers make every section one-to-one)."""
    q, proj = quotient(a, mask)
    sec = _find_hom(q, a, [[x for x in range(a.size) if proj[x] == k] for k in range(q.size)])
    return sec is not None, sec


def _closure(a: FiniteMv, seed: int, closed: int = 0) -> int:
    """The subalgebra generated by seed and closed, which must itself be a
    subalgebra (or 0).  A worklist pairs each new element with the members,
    so pairs inside closed are never recomputed."""
    members = [i for i in range(a.size) if closed >> i & 1]
    mask = seed | closed | 1 << a.zero | 1 << a.one
    todo = [i for i in range(a.size) if (mask & ~closed) >> i & 1]
    while todo:
        x = todo.pop()
        members.append(x)
        row = a.oplus[x]
        for z in [a.neg[x]] + [row[y] for y in members] + [a.oplus[y][x] for y in members]:
            if not mask >> z & 1:
                mask |= 1 << z
                todo.append(z)
    return mask


def _subalgebra_masks(a: FiniteMv, avoid: int = 0) -> list:
    """Every subalgebra disjoint from `avoid`, as sorted masks, found by
    closure search: start from the subalgebra {0, 1} and extend each one
    found by one element at a time.  `avoid` must not hold 0 or 1, so that
    {0, 1} is disjoint from it.  A subalgebra disjoint from `avoid` lies
    above a chain of such one-element extensions, so extensions that meet
    `avoid` need not be searched further."""
    start = _closure(a, 0)
    found = {start}
    todo = [start]
    while todo:
        s = todo.pop()
        for x in range(a.size):
            if (s | avoid) >> x & 1:
                continue
            t = _closure(a, 1 << x, s)
            if not t & avoid and t not in found:
                found.add(t)
                todo.append(t)
    return sorted(found)


def has_complement(a: FiniteMv, mask: int) -> tuple:
    """(bool, subalgebra mask S) with S meeting <I>, the ideal the mask
    generates, only in {0, 1} and generating A together with <I>; S is
    the smallest such mask."""
    gen = _ideal_of(a, mask)
    trivial = 1 << a.zero | 1 << a.one
    full = (1 << a.size) - 1
    for s in _subalgebra_masks(a, avoid=gen & ~trivial):
        if _closure(a, gen, s) == full:
            return True, s
    return False, None


def is_lexicographic_ideal(a: FiniteMv, mask: int) -> tuple:
    """(bool, clause dict): proper, commutative (always, see IdealInfo),
    strict, prime, retractive."""
    clauses = {
        "proper": mask != 1 << a.zero and mask != (1 << a.size) - 1,
        "commutative": True,
        "strict": _is_strict(a, mask),
        "prime": _is_prime(a, mask),
        "retractive": is_retractive(a, mask)[0],
    }
    return all(clauses.values()), clauses


# ---------------------------------------------------------------------------
# States


@dataclass(frozen=True)
class FiniteState:
    values: tuple  # Fractions indexed by element

    def __call__(self, x: int) -> Fraction:
        return self.values[x]


def extremal_states(a: FiniteMv) -> list:
    """One extremal state per maximal ideal: the quotient by a maximal
    ideal is a finite chain, valued k/n along its order.  In a chain the
    rank of k is the number of elements below it, less k itself."""
    out = []
    for m in _maximal_masks(a, enumerate_ideal_masks(a)):
        q, proj = quotient(a, m)
        n = q.size - 1
        out.append(FiniteState(tuple(Fraction(q._down[k].bit_count() - 1, n) for k in proj)))
    return out


def state_is_additive(a: FiniteMv, s: FiniteState) -> bool:
    if s(a.one) != 1:
        return False
    for x in range(a.size):
        for y in range(a.size):
            t = a.partial_add(x, y)
            if t is not None and s(t) != s(x) + s(y):
                return False
    return True


def is_local(a: FiniteMv) -> bool:
    return len(_maximal_masks(a, enumerate_ideal_masks(a))) == 1


# ---------------------------------------------------------------------------
# RDP2


def check_rdp2(a: FiniteMv, cap: int = 12) -> bool:
    """For every a1+a2 = b1+b2 (partial sums) find a decomposition matrix
    c11, c12, c21, c22 with c12 /\\ c21 = 0."""
    if a.size > cap:
        raise CapExceeded(f"rdp2 capped at {cap} elements, got {a.size}")
    n, op, od = a.size, a.oplus, a._odot
    # sub[x][t]: all y with x + y = t; by_sum[t]: all (x, y) with x + y = t
    sub = [[[] for _ in range(n)] for _ in range(n)]
    by_sum = {}
    for x in range(n):
        for y, d in enumerate(od[x]):
            if d == a.zero:
                t = op[x][y]
                sub[x][t].append(y)
                by_sum.setdefault(t, []).append((x, y))
    for pairs in by_sum.values():
        for a1, a2 in pairs:
            for b1, b2 in pairs:
                if not _rdp2_cell(a, sub, a1, a2, b1, b2):
                    return False
    return True


def _rdp2_cell(a: FiniteMv, sub, a1, a2, b1, b2) -> bool:
    meet = a._meet
    for c11 in range(a.size):
        for c12 in sub[c11][a1]:
            for c21 in sub[c11][b1]:
                if meet[c12][c21] != a.zero:
                    continue
                if set(sub[c21][a2]) & set(sub[c12][b2]):
                    return True
    return False


# ---------------------------------------------------------------------------
# Isomorphism


def brute_isomorphic(a: FiniteMv, b: FiniteMv) -> tuple:
    """(bool, bijection) by a hom search that maps each element to one of
    the same order."""
    if a.size != b.size:
        return False, None
    orda = [a.ord_of(x) for x in range(a.size)]
    ordb = [b.ord_of(x) for x in range(b.size)]
    if sorted(orda, key=str) != sorted(ordb, key=str):
        return False, None
    f = _find_hom(a, b, [[y for y in range(b.size) if ordb[y] == orda[x]] for x in range(a.size)])
    return f is not None, f


# ---------------------------------------------------------------------------
# Plain-text table format


def format_table(a: FiniteMv) -> str:
    """size line, one (+) row per line, the neg row, then "zero one"."""
    lines = [str(a.size)]
    lines += [" ".join(map(str, row)) for row in a.oplus]
    lines.append(" ".join(map(str, a.neg)))
    lines.append(f"{a.zero} {a.one}")
    return "\n".join(lines) + "\n"


# The DSL's integers, -?[0-9]+ in ASCII digits, separated by any whitespace
_TABLE_TEXT = re.compile(r"\s*(?:-?[0-9]+\s+)*(?:-?[0-9]+)?")


def _table_ints(text: str) -> list:
    if not _TABLE_TEXT.fullmatch(text):
        raise TableError("a table holds only integers -?[0-9]+ separated by whitespace")
    toks = text.split()
    if not toks:
        raise TableError("empty table")
    try:
        vals = [int(t) for t in toks]
    except ValueError as exc:  # more digits than int() converts
        raise TableError(f"table integer too long: {exc}") from None
    m = vals[0]
    need = 1 + m * m + m + 2
    if m < 1 or len(vals) != need:
        raise TableError(f"expected {need} integers for size {m}, got {len(vals)}")
    return vals


def table_size(text: str) -> int:
    """The size a table text declares in its header, once its tokens are
    checked as parse_table checks them, but before any table is built or
    its axioms are checked."""
    return _table_ints(text)[0]


def parse_table(text: str) -> FiniteMv:
    vals = _table_ints(text)
    m = vals[0]
    body = vals[1:]
    op = tuple(tuple(body[i * m : (i + 1) * m]) for i in range(m))
    ng = tuple(body[m * m : m * m + m])
    zero, one = body[m * m + m], body[m * m + m + 1]
    return FiniteMv(m, op, ng, zero, one)

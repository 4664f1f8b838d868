import gc
import itertools
import pickle
import random

import pytest
from fractions import Fraction

from lexmv import finite
from lexmv.finite import (
    FiniteMv,
    TableError,
    brute_isomorphic,
    check_rdp2,
    enumerate_ideals,
    extremal_states,
    format_table,
    generated_normal_ideal,
    has_complement,
    is_infinitesimal,
    is_lexicographic_ideal,
    is_local,
    is_retractive,
    make_chain,
    make_product,
    make_subalgebra,
    parse_table,
    quotient,
    radical_suite,
)

from test_acceptance import finite_catalog

C2 = make_chain(2)
C4 = make_chain(4)
P22 = make_product(C2, C2)


def mask_of(a, elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def test_make_chain():
    assert C2.size == 3
    assert C2.oplus[1][1] == 2
    assert C2.neg == (2, 1, 0)
    with pytest.raises(TableError):
        make_chain(0)


def test_make_product():
    assert P22.size == 9
    i = lambda x, y: x * 3 + y
    assert P22.oplus[i(1, 0)][i(1, 2)] == i(2, 2)
    assert P22.labels[i(1, 2)] == "(1,2)"


def test_make_subalgebra():
    diag = [0, 4, 8]  # (0,0), (1,1), (2,2)
    sub = make_subalgebra(P22, diag)
    ok, _ = brute_isomorphic(sub, C2)
    assert ok


def test_make_subalgebra_refuses_subsets_that_are_not_subalgebras():
    """One subset per refusal, each refused with its own message."""
    for subset, message in [
        ([0, 4], "subset must contain 0 and 1"),  # (0,0), (1,1): no (2,2)
        ([0, 1, 8], r"not closed under neg at \(0,1\)"),  # (0,1)- = (2,1)
        ([0, 1, 7, 8], r"not closed under oplus at \(\(0,1\), \(0,1\)\)"),  # (0,2)
    ]:
        with pytest.raises(TableError, match=message):
            make_subalgebra(P22, subset)


def test_check_axioms_catches_corruption():
    """One broken table per clause: an oplus cell (x, y, value) and any
    other fields replaced, each caught by the clause it breaks first.  The
    non-symmetric table passes every check the scan makes before the pair
    (1, 2); no one-cell change of chain(3) or chain(1)^2 does."""
    broken = [
        ("shape", C2, None, dict(neg=(2, 1))),
        ("closure", C2, (0, 0, 3), {}),
        ("A1", C2, (2, 2, 1), {}),
        ("A2", C2, (0, 0, 1), {}),
        ("A3", C2, (0, 2, 0), {}),
        ("A4", make_chain(1), None, dict(neg=(0, 1))),
        ("A6", C2, (0, 1, 0), {}),
        ("A7", C2, (1, 1, 0), {}),
        ("A8", C2, None, dict(neg=(1, 1, 0))),
        ("commutative", make_chain(3), None,
         dict(oplus=((0, 1, 2, 3), (1, 3, 3, 3), (2, 1, 3, 3), (3, 3, 3, 3)), neg=(3, 1, 2, 0))),
    ]
    for clause, base, cell, fields in broken:
        op = [list(r) for r in base.oplus]
        if cell:
            op[cell[0]][cell[1]] = cell[2]
        parts = dict(size=base.size, oplus=tuple(map(tuple, op)), neg=base.neg, zero=base.zero,
                     one=base.one)
        rep = finite.check_axioms(finite._trusted(**{**parts, **fields}, labels=()))
        assert rep.verdict == "fail"
        assert [c["clause"] for c in rep.counterexamples] == [clause], clause
        with pytest.raises(TableError, match=f"'{clause}'"):
            FiniteMv(**{**parts, **fields})


def test_enumerate_ideals_chain():
    infos = enumerate_ideals(C4)
    masks = [i.mask for i in infos]
    assert masks == sorted(masks)
    assert len(infos) == 2  # {0} and all
    maximal = [i for i in infos if i.maximal]
    assert len(maximal) == 1 and maximal[0].mask == 1


def test_enumerate_ideals_product():
    infos = enumerate_ideals(P22)
    assert len(infos) == 4
    maximal = [i for i in infos if i.maximal]
    first = mask_of(P22, [0, 3, 6])  # {(0,0),(1,0),(2,0)}
    second = mask_of(P22, [0, 1, 2])
    assert sorted(i.mask for i in maximal) == sorted([first, second])
    by_mask = {i.mask: i for i in infos}
    assert not by_mask[first].strict  # (2,0)/I = 0/I yet (2,0) is not below (0,1)
    assert by_mask[1].strict


def test_generated_normal_ideal():
    assert generated_normal_ideal(C4, 1) == (1 << C4.size) - 1  # ord(1) finite
    first = mask_of(P22, [0, 3, 6])
    assert generated_normal_ideal(P22, 3) == first  # x = (1,0)
    assert generated_normal_ideal(P22, 0) == 1


def test_radical_suite():
    for n in range(1, 7):
        rad, rad_n, inf = radical_suite(make_chain(n))
        assert rad == 1 and rad_n == 1 and inf == 1
    rad, rad_n, inf = radical_suite(P22)
    assert rad == 1 and inf == 1
    # the chain holds on every small catalog algebra
    for a in [make_chain(n) for n in range(1, 6)] + [P22, make_product(C2, make_chain(1))]:
        rad, rad_n, inf = radical_suite(a)
        assert rad & ~inf == 0 and inf & ~rad_n == 0


def test_quotient():
    q, proj = quotient(P22, mask_of(P22, [0, 3, 6]))
    ok, _ = brute_isomorphic(q, C2)
    assert ok
    assert proj[P22.zero] == q.zero and proj[P22.one] == q.one
    q2, proj2 = quotient(C4, 1)
    assert q2.size == C4.size and list(proj2) == list(range(C4.size))
    c6 = make_chain(6)
    q3, _ = quotient(c6, 1)
    assert brute_isomorphic(q3, c6)[0]
    # not ideals: {0, 1} of C4, and {0} or all of chain(3) plus a bit
    # for an element that chain(3) does not have
    for a, mask in ((C4, 0b11), (make_chain(3), 1 | 1 << 10), (make_chain(3), 0b1111 | 1 << 4)):
        with pytest.raises(TableError, match="^not an ideal$"):
            quotient(a, mask)


def test_quotient_accepts_exactly_the_ideals():
    """The principal rule in quotient against the definition, on every
    mask of every library table with at most 9 elements."""
    tables = [t for t in library_tables(random.Random(19)) if t.size <= 9]
    assert len(tables) > 200
    for t in tables:
        for m in range(1 << t.size):
            try:
                quotient(t, m)
                accepted = True
            except TableError as exc:
                assert str(exc) == "not an ideal", (str(t), m)
                accepted = False
            assert accepted == brute_is_ideal(t, m), (str(t), m)


def test_retractive_and_complement():
    ok, sec = is_retractive(P22, mask_of(P22, [0, 3, 6]))
    assert ok
    q, proj = quotient(P22, mask_of(P22, [0, 3, 6]))
    for k in range(q.size):
        assert proj[sec[k]] == k  # section, then projection, is the identity
    ok0, sec0 = is_retractive(C4, 1)
    assert ok0 and list(sec0) == list(range(C4.size))
    okc, comp = has_complement(P22, mask_of(P22, [0, 3, 6]))
    assert okc


def test_retractive_iff_complement_small():
    algebras = [make_chain(n) for n in range(1, 5)] + [P22, make_product(C2, make_chain(1))]
    for a in algebras:
        full = (1 << a.size) - 1
        for info in enumerate_ideals(a):
            if not info.normal or info.mask == full:
                continue
            assert is_retractive(a, info.mask)[0] == has_complement(a, info.mask)[0], (
                str(a),
                a.mask_labels(info.mask),
            )


def test_lexicographic_ideal_never_finite():
    for a in [make_chain(n) for n in range(1, 7)] + [P22]:
        for info in enumerate_ideals(a):
            ok, clauses = is_lexicographic_ideal(a, info.mask)
            assert not ok, (str(a), clauses)
    # clause breakdown on the documented witnesses
    _, c = is_lexicographic_ideal(C4, 1)
    assert not c["proper"]
    _, c2 = is_lexicographic_ideal(P22, mask_of(P22, [0, 3, 6]))
    assert not c2["strict"]


def test_states():
    sts = extremal_states(P22)
    assert len(sts) == 2
    values = sorted(tuple(s(x) for x in range(9)) for s in sts)
    s_first = tuple(Fraction(x // 3, 2) for x in range(9))
    s_second = tuple(Fraction(x % 3, 2) for x in range(9))
    assert values == sorted([s_first, s_second])
    for s in sts:
        assert finite.state_is_additive(P22, s)
    (s4,) = extremal_states(C4)
    assert [s4(k) for k in range(5)] == [Fraction(k, 4) for k in range(5)]


def test_is_local():
    assert is_local(C4)
    assert not is_local(P22)


def test_ord_locality_criterion():
    # a chain is local: every x has finite order, or its negation does
    for n in range(1, 7):
        c = make_chain(n)
        assert all(
            c.ord_of(x) is not None or c.ord_of(c.neg[x]) is not None
            for x in range(c.size)
        ) == is_local(c)
    assert not all(
        P22.ord_of(x) is not None or P22.ord_of(P22.neg[x]) is not None
        for x in range(P22.size)
    )


def test_finite_order_product_bound():
    # if x (.) y has finite order then x dominates the complement of y
    for a in [make_chain(n) for n in range(1, 5)] + [P22]:
        for x in range(a.size):
            for y in range(a.size):
                if a.ord_of(a.odot(x, y)) is not None:
                    assert a.le(a.neg[y], x)


def test_infinitesimals():
    assert is_infinitesimal(P22, 0)
    assert not is_infinitesimal(P22, 1)  # (0,1): 3x is undefined
    assert not is_infinitesimal(C4, 1)


def test_rdp2():
    for n in range(1, 7):
        assert check_rdp2(make_chain(n))
    assert check_rdp2(P22)


def test_state_and_rdp2_checks_fail_on_tables_that_break_a_law():
    """chain(4) with 1 (+) 1 = 3, which breaks A6, has no RDP2, and the
    state of chain(4) is not additive on it; with one moved to 3, which
    breaks A3, that state is not normalized."""
    op = [list(r) for r in C4.oplus]
    op[1][1] = 3
    broken = finite._trusted(5, tuple(map(tuple, op)), C4.neg, 0, 4, ())
    moved = finite._trusted(5, C4.oplus, C4.neg, 0, 3, ())
    assert [finite.check_axioms(t).counterexamples[0]["clause"] for t in (broken, moved)] == [
        "A6", "A3"]
    (s4,) = extremal_states(C4)
    assert finite.state_is_additive(C4, s4)
    assert not finite.state_is_additive(broken, s4)  # s(1 (+) 1) = 3/4, s(1) + s(1) = 1/2
    assert not finite.state_is_additive(moved, s4)  # s(one) = 3/4
    assert check_rdp2(C4) and not check_rdp2(broken)


def test_hom_searches_leave_no_cyclic_garbage():
    """A search's closures are freed when it returns, not by the collector."""
    gc.collect()
    gc.disable()
    try:
        assert is_retractive(P22, mask_of(P22, [0, 3, 6]))[0]
        assert brute_isomorphic(C4, make_chain(4))[0]
        assert not brute_isomorphic(make_chain(3), make_product(make_chain(1), make_chain(1)))[0]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_isomorphic():
    ok, f = brute_isomorphic(C4, make_chain(4))
    assert ok and list(f) == list(range(5))
    assert brute_isomorphic(C4, P22) == (False, None)
    swapped = make_product(make_chain(3), C2)
    ok2, _ = brute_isomorphic(make_product(C2, make_chain(3)), swapped)
    assert ok2
    assert not brute_isomorphic(make_chain(3), make_product(make_chain(1), make_chain(1)))[0]


def test_table_roundtrip():
    text = format_table(P22)
    again = parse_table(text)
    assert again.oplus == P22.oplus and again.neg == P22.neg
    assert again.zero == P22.zero and again.one == P22.one
    with pytest.raises(TableError):
        parse_table("")
    with pytest.raises(TableError):
        parse_table("2\n0 1\n1 0\n")  # wrong token count
    with pytest.raises(TableError):
        parse_table(text.replace("\n", " x\n", 1))


def test_caps():
    with pytest.raises(finite.CapExceeded):
        enumerate_ideals(make_product(P22, C2), cap=12)
    with pytest.raises(finite.CapExceeded):
        check_rdp2(make_chain(12), cap=10)


DERIVED = {"_odot", "_join", "_meet", "_down", "_dist"}


def test_pickles_load_through_the_checked_constructor():
    forged = dict(size=3, oplus=((0, 1, 2), (1, 0, 2), (2, 2, 2)), neg=(2, 1, 0), zero=0, one=2)
    with pytest.raises(TableError):
        FiniteMv(**forged)
    with pytest.raises(TableError):
        pickle.loads(pickle.dumps(finite._trusted(**forged, labels=())))
    for t in (P22, quotient(P22, mask_of(P22, [0, 3, 6]))[0], parse_table(format_table(C4))):
        tables = {k: getattr(t, k) for k in DERIVED}
        again = pickle.loads(pickle.dumps(t))
        assert again == t and again.labels == t.labels
        assert not vars(again).keys() & DERIVED  # the derived tables are not pickled
        assert {k: getattr(again, k) for k in DERIVED} == tables


def test_each_derived_table_is_built_on_its_own_first_use():
    """A checked table builds none; each scan builds only the tables it reads."""
    for scan, built in [
        (finite.check_axioms, set()),
        (enumerate_ideals, {"_odot", "_join", "_meet", "_down"}),
        (radical_suite, {"_join", "_down"}),
        (check_rdp2, {"_odot", "_meet"}),
        (lambda t: quotient(t, 1), {"_join", "_down", "_dist"}),
    ]:
        t = parse_table(format_table(P22))
        scan(t)
        assert vars(t).keys() & DERIVED == built, scan


def small_tables(n):
    """Every n-element table, n <= 4, with zero 0 as the identity of (+),
    one n-1 absorbing, and neg an involution that swaps them; the other
    cells of (+) range freely."""
    inner, top = list(range(1, n - 1)), n - 1
    negs = {tuple([top] + inner + [0]), tuple([top] + inner[::-1] + [0])}
    for cells in itertools.product(range(n), repeat=len(inner) ** 2):
        free = iter(cells)
        op = tuple(tuple(top if top in (x, y) else y if x == 0 else x if y == 0 else next(free)
                         for y in range(n)) for x in range(n))
        for neg in sorted(negs):
            yield finite._trusted(n, op, neg, 0, top, ())


def test_small_tables_that_pass_the_axiom_scan_are_commutative():
    """Every 3- or 4-element table that the commutative clause refuses
    first is not associative either, so at these sizes the clause refuses
    no table that the other clauses accept; every ideal of an accepted
    table is normal and has a commutative quotient."""
    counts = {}
    for n in (3, 4):
        tables = list(small_tables(n))
        clauses = [finite.check_axioms(t).counterexamples[:1] for t in tables]
        accepted = [t for t, c in zip(tables, clauses) if not c]
        refused = [t for t, c in zip(tables, clauses) if c and c[0]["clause"] == "commutative"]
        counts[n] = len(tables), len(accepted), len(refused)
        r = range(n)
        for t in refused:
            assert not all(t.oplus[x][t.oplus[y][z]] == t.oplus[t.oplus[x][y]][z]
                           for x in r for y in r for z in r), t.oplus
        for t in accepted:
            assert all(t.oplus[x][y] == t.oplus[y][x] for x in r for y in r)
            assert all(brute_is_normal(t, m) and brute_is_commutative(t, m)
                       for m in finite.enumerate_ideal_masks(t))
    # chain(2); chain(3) in both labelings, and chain(1)^2
    assert counts == {3: (3, 1, 0), 4: (512, 3, 3)}


# ---------------------------------------------------------------------------
# Brute-force references: the 2^n subset scans the polynomial oracle replaced


def brute_is_ideal(a, mask):
    """Holds 0, and is closed downward and under (+), by the le method."""
    if mask >> a.size or not mask >> a.zero & 1:
        return False
    for i in range(a.size):
        if not mask >> i & 1:
            continue
        for x in range(a.size):
            if a.le(x, i) and not mask >> x & 1:
                return False
            if mask >> x & 1 and not mask >> a.oplus[i][x] & 1:
                return False
    return True


def brute_is_normal(a, mask):
    """x (+) I = I (+) x for every x."""
    members = [i for i in range(a.size) if mask >> i & 1]
    return all(
        {a.oplus[x][i] for i in members} == {a.oplus[i][x] for i in members}
        for x in range(a.size)
    )


def brute_is_commutative(a, mask):
    """x (+) y and y (+) x are congruent modulo I, by the FiniteMv methods."""
    n, op, ng = range(a.size), a.oplus, a.neg
    dist = lambda x, y: op[a.odot(x, ng[y])][a.odot(y, ng[x])]
    return all(mask >> dist(op[x][y], op[y][x]) & 1 for x in n for y in n)


def brute_ideal_masks(a):
    return sorted(m for m in range(1 << a.size) if brute_is_ideal(a, m))


def brute_is_subalgebra(a, s):
    if not (s >> a.zero & 1 and s >> a.one & 1):
        return False
    members = [i for i in range(a.size) if s >> i & 1]
    return all(s >> a.neg[i] & 1 for i in members) and all(
        s >> a.oplus[i][j] & 1 for i in members for j in members
    )


def brute_has_complement(a, mask):
    gen = mask
    for i in range(a.size):
        if mask >> i & 1:
            gen |= generated_normal_ideal(a, i)
    trivial = 1 << a.zero | 1 << a.one
    full = (1 << a.size) - 1
    for s in range(1 << a.size):
        if s & gen & ~trivial or not brute_is_subalgebra(a, s):
            continue
        if finite._closure(a, s | gen) == full:
            return True, s
    return False, None


def relabel(a, rng):
    """The same algebra with its element indices permuted."""
    n = a.size
    p = list(range(n))
    rng.shuffle(p)
    op = [[0] * n for _ in range(n)]
    ng = [0] * n
    labels = [""] * n
    for x in range(n):
        ng[p[x]] = p[a.neg[x]]
        labels[p[x]] = a.labels[x]
        for y in range(n):
            op[p[x]][p[y]] = p[a.oplus[x][y]]
    return FiniteMv(n, tuple(map(tuple, op)), tuple(ng), p[a.zero], p[a.one], tuple(labels))


def test_polynomial_oracle_matches_brute_force():
    rng = random.Random(2014)
    tables = []
    for a in finite_catalog(12):
        tables += [a] + [relabel(a, rng) for _ in range(3)]
    # two Boolean factors give ideals with more than one complement
    c1 = make_chain(1)
    tables.append(parse_table(format_table(relabel(make_product(c1, make_product(c1, C2)), rng))))
    for a in tables:
        masks = finite.enumerate_ideal_masks(a)
        assert masks == brute_ideal_masks(a), str(a)
        for m in masks:
            assert has_complement(a, m) == brute_has_complement(a, m), (str(a), m)
        closed = {s for s in range(1 << a.size) if brute_is_subalgebra(a, s)}
        assert set(finite._subalgebra_masks(a)) == closed, str(a)


# ---------------------------------------------------------------------------
# References for the trusted builds and the hom searches


def preserves(a, b, f):
    """f (a tuple over A's indices) maps 0, 1, neg and (+) of A onto B's."""
    n = range(a.size)
    return (f[a.zero] == b.zero and f[a.one] == b.one
            and all(f[a.neg[x]] == b.neg[f[x]] for x in n)
            and all(f[a.oplus[x][y]] == b.oplus[f[x]][f[y]] for x in n for y in n))


def library_tables(rng):
    """Every table that make_chain, make_product, make_subalgebra and
    quotient build from finite_catalog(12) and seeded relabelings of it."""
    catalog = finite_catalog(12)
    tables = list(catalog)
    for a in catalog:
        for b in catalog:
            if a.size * b.size <= 12:
                tables.append(make_product(relabel(a, rng), relabel(b, rng)))
    for a in catalog:
        for t in (a, relabel(a, rng)):
            for s in finite._subalgebra_masks(t):
                tables.append(make_subalgebra(t, [i for i in range(t.size) if s >> i & 1]))
            for m in finite.enumerate_ideal_masks(t):
                tables.append(quotient(t, m)[0])
    return tables


def test_library_tables_pass_the_axiom_scan():
    # these builds skip the scan through finite._trusted; the scan is their reference
    tables = library_tables(random.Random(10))
    assert len(tables) > 300
    for t in tables:
        assert finite.check_axioms(t).ok, (str(t), t.labels)


def test_ideal_flags_match_their_definitions():
    """maximal: a proper ideal below no other proper ideal.  prime: a
    proper ideal that holds J or K whenever it holds J /\\ K, for ideals
    J and K.  Both are read off the 2^n scan of every ideal.  normal,
    commutative and strict are decided with the FiniteMv methods alone,
    x/I <= y/I meaning x (.) y- in I."""
    for t in library_tables(random.Random(13)):
        full = (1 << t.size) - 1
        n, op, ng = range(t.size), t.oplus, t.neg
        brute = brute_ideal_masks(t)
        infos = enumerate_ideals(t, cap=t.size)
        assert [i.mask for i in infos] == brute, str(t)
        for info in infos:
            m = info.mask
            above = [j for j in brute if j != full and j != m and j & m == m]
            assert info.maximal == (m != full and not above), (str(t), m)
            prime = m != full and all(
                j & ~m == 0 or k & ~m == 0 for j in brute for k in brute if j & k & ~m == 0
            )
            assert info.prime == prime, (str(t), m)
            ideal = [i for i in n if m >> i & 1]
            normal = all(any(op[x][i] == op[j][x] for j in ideal) and
                         any(op[i][x] == op[x][j] for j in ideal) for x in n for i in ideal)
            assert info.normal == normal, (str(t), m)
            qle = lambda x, y: m >> t.odot(x, ng[y]) & 1
            sim = lambda x, y: qle(x, y) and qle(y, x)
            commutative = all(sim(op[x][y], op[y][x]) for x in n for y in n)
            assert info.commutative == commutative, (str(t), m)
            strict = all(t.le(x, y) and x != y
                         for x in n for y in n if qle(x, y) and not qle(y, x))
            assert info.strict == strict, (str(t), m)


# References for the scans that read FiniteMv._tables: the same results
# from the FiniteMv methods alone, and the fixed-point closure.


def ref_closure(a, seed_mask):
    mask = seed_mask | 1 << a.zero | 1 << a.one
    while True:
        grown = mask
        for i in range(a.size):
            if mask >> i & 1:
                grown |= 1 << a.neg[i]
                for j in range(a.size):
                    if mask >> j & 1:
                        grown |= 1 << a.oplus[i][j]
        if grown == mask:
            return mask
        mask = grown


def ref_subalgebra_masks(a, avoid=0):
    start = ref_closure(a, 0)
    if start & avoid:
        return []
    found, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for x in range(a.size):
            if not (s | avoid) >> x & 1:
                t = ref_closure(a, s | 1 << x)
                if not t & avoid and t not in found:
                    found.add(t)
                    todo.append(t)
    return sorted(found)


def ref_generated_normal_ideal(a, x):
    acc = top = a.zero
    for _ in range(a.size + 1):
        acc = a.oplus[acc][x]
        top = a.join(top, acc)
    return sum(1 << y for y in range(a.size) if a.le(y, top))


def ref_ideal_of(a, mask):
    """The least set that holds mask and 0 and is closed downward and
    under (+), by fixed point with the le method."""
    gen, grown = 0, mask | 1 << a.zero
    while grown != gen:
        gen = grown
        members = [i for i in range(a.size) if gen >> i & 1]
        for i in members:
            grown |= sum(1 << x for x in range(a.size) if a.le(x, i))
            for j in members:
                grown |= 1 << a.oplus[i][j]
    return gen


def ref_has_complement(a, mask):
    gen = ref_ideal_of(a, mask)
    trivial = 1 << a.zero | 1 << a.one
    for s in ref_subalgebra_masks(a, avoid=gen & ~trivial):
        if ref_closure(a, s | gen) == (1 << a.size) - 1:
            return True, s
    return False, None


def ref_projection(a, mask):
    """Each element's class, numbered by first appearance, where x and y
    share a class when (x (.) y-) (+) (y (.) x-) is in the ideal."""
    reps, proj = [], []
    for x in range(a.size):
        d = [a.oplus[a.odot(x, a.neg[r])][a.odot(r, a.neg[x])] for r in reps]
        k = next((k for k, dk in enumerate(d) if mask >> dk & 1), len(reps))
        reps += [x] if k == len(reps) else []
        proj.append(k)
    return tuple(proj)


def ref_check_rdp2(a):
    """check_rdp2's search, with partial_add and meet called per cell."""
    n = range(a.size)
    sub = [[[] for _ in n] for _ in n]  # sub[x][t]: every y with x + y = t
    pairs = {}
    for x in n:
        for y in n:
            t = a.partial_add(x, y)
            if t is not None:
                sub[x][t].append(y)
                pairs.setdefault(t, []).append((x, y))
    return all(
        any(a.meet(c12, c21) == a.zero and set(sub[c21][a2]) & set(sub[c12][b2])
            for c11 in n for c12 in sub[c11][a1] for c21 in sub[c11][b1])
        for ps in pairs.values() for a1, a2 in ps for b1, b2 in ps)


@pytest.mark.parametrize("seed", [17, 18])
def test_closures_match_the_fixed_point(seed):
    for t in library_tables(random.Random(seed)):
        subs = finite._subalgebra_masks(t)
        assert subs == ref_subalgebra_masks(t), str(t)
        for s in subs:
            assert finite._closure(t, 0, s) == s
        # every mask of the small tables: one that is not an ideal
        # generates the least ideal holding it
        masks = range(1 << t.size) if t.size <= 6 else finite.enumerate_ideal_masks(t)
        for m in masks:
            assert has_complement(t, m) == ref_has_complement(t, m), (str(t), m)


def test_has_complement_takes_the_ideal_a_mask_generates():
    """{((0,1),0), ((1,0),0)} generates an ideal that also holds
    ((1,1),0), which the union of its members' principal ideals misses;
    the subalgebra that meets the ideal there is no complement."""
    t = make_product(make_product(make_chain(1), make_chain(1)), C2)
    m = mask_of(t, [3, 6])
    assert t.mask_labels(ref_ideal_of(t, m)) == ["((0,0),0)", "((0,1),0)", "((1,0),0)", "((1,1),0)"]
    assert has_complement(t, m) == ref_has_complement(t, m) == (False, None)


@pytest.mark.parametrize("seed", [17, 18])
def test_table_scans_match_the_methods(seed):
    for t in library_tables(random.Random(seed)):
        assert [generated_normal_ideal(t, x) for x in range(t.size)] == [
            ref_generated_normal_ideal(t, x) for x in range(t.size)], str(t)
        for m in finite.enumerate_ideal_masks(t):
            assert quotient(t, m)[1] == ref_projection(t, m), (str(t), m)
        assert check_rdp2(t) == ref_check_rdp2(t), str(t)


# The derivations from enumerate_ideals' flags that the per-property
# predicates replaced: every ideal with its flags, then a filter.  The
# brute-force twins decide normality and commutativity, which the flags
# and the library take from check_axioms' commutative clause.


def ref_radical_suite(a):
    full = (1 << a.size) - 1
    rad = rad_n = full
    for info in enumerate_ideals(a, cap=a.size):
        if info.maximal:
            rad &= info.mask
            if brute_is_normal(a, info.mask):
                rad_n &= info.mask
    infinit = sum(1 << x for x in range(a.size) if is_infinitesimal(a, x))
    return rad, rad_n, infinit


def ref_extremal_states(a):
    out = []
    for info in enumerate_ideals(a, cap=a.size):
        if not (info.maximal and brute_is_normal(a, info.mask)):
            continue
        q, proj = quotient(a, info.mask)
        order = sorted(range(q.size), key=lambda k: sum(q.le(j, k) for j in range(q.size)))
        rank = {k: i for i, k in enumerate(order)}
        out.append(tuple(Fraction(rank[proj[x]], q.size - 1) for x in range(a.size)))
    return out


def ref_is_local(a):
    maxes = [i for i in enumerate_ideals(a, cap=a.size) if i.maximal]
    return len(maxes) == 1 and brute_is_normal(a, maxes[0].mask)


def ref_lexicographic_ideals(a):
    full = (1 << a.size) - 1
    out = []
    for info in enumerate_ideals(a, cap=a.size):
        clauses = {
            "proper": info.mask != 1 << a.zero and info.mask != full,
            "commutative": brute_is_commutative(a, info.mask),
            "strict": info.strict,
            "prime": info.prime,
            "retractive": brute_is_normal(a, info.mask) and is_retractive(a, info.mask)[0],
        }
        out.append((all(clauses.values()), clauses))
    return out


def test_predicates_match_the_flag_derivations():
    rng = random.Random(16)
    tables = []
    for a in finite_catalog(12):
        tables += [a, relabel(a, rng), relabel(a, rng)]
    tables.append(quotient(C2, (1 << C2.size) - 1)[0])  # one element, no maximal ideal
    for a in tables:
        assert radical_suite(a) == ref_radical_suite(a), str(a)
        assert [s.values for s in extremal_states(a)] == ref_extremal_states(a), str(a)
        assert is_local(a) == ref_is_local(a), str(a)
        lex = [is_lexicographic_ideal(a, m) for m in finite.enumerate_ideal_masks(a)]
        assert lex == ref_lexicographic_ideals(a), str(a)


def ref_find_hom(a, b, choices):
    """finite._find_hom with its old pruning, which scans every pair of
    assigned slots for a sum that lands on the new slot."""
    f = [-1] * a.size
    f[a.zero] = b.zero
    f[a.one] = b.one
    used = [False] * b.size
    used[b.zero] = used[b.one] = True

    def consistent(x):
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
        for u in range(a.size):
            if f[u] < 0:
                continue
            for v in range(a.size):
                if f[v] >= 0 and a.oplus[u][v] == x and b.oplus[f[u]][f[v]] != f[x]:
                    return False
        return True

    order = [x for x in range(a.size) if f[x] < 0]

    def search(i):
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

    if consistent(a.zero) and consistent(a.one) and search(0):
        return tuple(f)
    return None


def test_find_hom_matches_the_pair_scan():
    """The preimage index prunes by the same predicate as the old scan,
    so both searches return the same first map, or both None."""
    rng = random.Random(12)
    catalog = finite_catalog(12)
    found = 0
    for a in catalog:
        for t in (a, relabel(a, rng), relabel(a, rng)):
            for m in finite.enumerate_ideal_masks(t):
                q, proj = quotient(t, m)
                fibers = [[x for x in range(t.size) if proj[x] == k] for k in range(q.size)]
                sec = finite._find_hom(q, t, fibers)
                assert sec == ref_find_hom(q, t, fibers), (str(t), m)
                found += sec is not None
            for b in catalog:
                if b.size == t.size:
                    r = relabel(b, rng)
                    anywhere = [list(range(r.size))] * t.size
                    f = finite._find_hom(t, r, anywhere)
                    assert f == ref_find_hom(t, r, anywhere), (str(t), str(r))
                    found += f is not None
    assert found > 100


def test_hom_searches_return_homomorphisms():
    rng = random.Random(11)
    catalog = finite_catalog(12)
    for a in catalog:
        for t in (a, relabel(a, rng)):
            for m in finite.enumerate_ideal_masks(t):
                ok, sec = is_retractive(t, m)
                if ok:
                    q, proj = quotient(t, m)
                    assert preserves(q, t, sec), (str(t), m)
                    assert all(proj[sec[k]] == k for k in range(q.size))
        for b in catalog:
            if b.size != a.size:
                continue
            r = relabel(b, rng)
            ok, bij = brute_isomorphic(a, r)
            assert ok or a is not b
            if ok:
                assert preserves(a, r, bij) and len(set(bij)) == a.size

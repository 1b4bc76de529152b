"""Tests for the finite abelian group lattice calculus."""

import contextlib
import functools
import itertools
import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusfields import abelian as ab
from genusfields.errors import (
    AmbientMismatchError,
    BoundExceededError,
    DimensionError,
)


def cyclic(n):
    return ab.FiniteAbelianGroup((n,))


def sub_elements(sub):
    return sub.elements()


class TestGroupBasics:
    def test_invariant_chain_enforced(self):
        with pytest.raises(ValueError):
            ab.FiniteAbelianGroup((4, 6))
        with pytest.raises(ValueError):
            ab.FiniteAbelianGroup((1, 2))

    def test_order_bound(self):
        with pytest.raises(BoundExceededError):
            ab.FiniteAbelianGroup((2 ** 64,))

    def test_trivial_group(self):
        assert ab.FiniteAbelianGroup(()).order == 1
        assert ab.FiniteAbelianGroup(()).rank == 0

    def test_element_order(self):
        g = ab.FiniteAbelianGroup((2, 4))
        assert g.element_order((0, 0)) == 1
        assert g.element_order((1, 2)) == 2
        assert g.element_order((1, 1)) == 4

    def test_group_from_cyclic_orders(self):
        assert ab.group_from_cyclic_orders([2, 3]).invariant_factors == (6,)
        assert ab.group_from_cyclic_orders([2, 4]).invariant_factors == (2, 4)
        assert ab.group_from_cyclic_orders([1, 1]) == ab.FiniteAbelianGroup(())


class TestSubgroupFromGenerators:
    def test_cyclic_order_three(self):
        # sigma^4 inside C12 generates the order-3 subgroup
        h = ab.subgroup_from_generators(cyclic(12), [(4,)])
        assert h.order == 3

    def test_empty_generators(self):
        h = ab.subgroup_from_generators(cyclic(12), [])
        assert h.order == 1

    def test_rank_two_example(self):
        g = ab.FiniteAbelianGroup((2, 4))
        h = ab.subgroup_from_generators(g, [(1, 0), (0, 2)])
        assert h.order == 4
        assert sub_elements(h) == {(0, 0), (1, 0), (0, 2), (1, 2)}

    def test_wrong_length_generator(self):
        with pytest.raises(DimensionError):
            ab.subgroup_from_generators(cyclic(12), [(1, 0)])

    def test_canonical_equality(self):
        g = ab.FiniteAbelianGroup((2, 4))
        h = ab.subgroup_from_generators(g, [(1, 2), (0, 2)])
        h2 = ab.subgroup_from_generators(g, list(sub_elements(h)))
        assert h == h2

    def test_membership(self):
        g = ab.FiniteAbelianGroup((2, 4, 8))
        h = ab.subgroup_from_generators(g, [(1, 1, 2), (0, 2, 0)])
        els = sub_elements(h)
        for x in g.elements():
            assert h.contains(x) == (x in els)


class TestMeetAndJoin:
    def test_cyclic_meet_lcm(self):
        # in C12 the meet of <4> and <6> is <lcm(4,6)> = <12>, trivial
        g = cyclic(12)
        a = ab.subgroup_from_generators(g, [(4,)])
        b = ab.subgroup_from_generators(g, [(6,)])
        assert ab.intersect(a, b).order == 1

    def test_meet_idempotent(self):
        g = cyclic(12)
        a = ab.subgroup_from_generators(g, [(4,)])
        assert ab.intersect(a, a) == a

    def test_meet_rank_two(self):
        g = ab.FiniteAbelianGroup((2, 4))
        a = ab.subgroup_from_generators(g, [(1, 2)])
        b = ab.subgroup_from_generators(g, [(0, 1)])
        got = ab.intersect(a, b)
        assert sub_elements(got) == sub_elements(a) & sub_elements(b)

    def test_cyclic_join_gcd(self):
        # join of <4> and <6> in C12 is <gcd(4,6)> = <2>, order 6
        g = cyclic(12)
        a = ab.subgroup_from_generators(g, [(4,)])
        b = ab.subgroup_from_generators(g, [(6,)])
        j = ab.product(a, b)
        assert j.order == 6
        assert j == ab.subgroup_from_generators(g, [(2,)])

    def test_join_with_trivial(self):
        g = cyclic(12)
        a = ab.subgroup_from_generators(g, [(4,)])
        assert ab.product(a, ab.trivial_subgroup(g)) == a

    def test_join_in_units_mod_16(self):
        u = ab.unit_group(16)
        a = ab.subgroup_from_generators(u.group, [u.dlog(15)])
        b = ab.subgroup_from_generators(u.group, [u.dlog(9)])
        j = ab.product(a, b)
        assert j.order == 4
        assert {u.exp(x) for x in sub_elements(j)} == {1, 7, 9, 15}

    def test_ambient_mismatch(self):
        a = ab.trivial_subgroup(cyclic(12))
        b = ab.trivial_subgroup(cyclic(10))
        with pytest.raises(AmbientMismatchError):
            ab.intersect(a, b)
        with pytest.raises(AmbientMismatchError):
            ab.product(a, b)


class TestIndexStructureQuotient:
    def test_index_extremes(self):
        g = cyclic(12)
        assert ab.trivial_subgroup(g).index == 12
        assert ab.full_subgroup(g).index == 1
        assert ab.subgroup_from_generators(g, [(2,)]).index == 2

    def test_quotient_mod_16(self):
        u = ab.unit_group(16)
        by_minus_one = ab.subgroup_from_generators(u.group, [u.dlog(15)])
        assert ab.quotient_structure(by_minus_one).invariant_factors == (4,)
        by_nine = ab.subgroup_from_generators(u.group, [u.dlog(9)])
        assert ab.quotient_structure(by_nine).invariant_factors == (2, 2)
        assert ab.quotient_structure(ab.full_subgroup(u.group)) == \
            ab.FiniteAbelianGroup(())

    def test_structure_orders(self):
        g = ab.FiniteAbelianGroup((2, 4, 4))
        rng = random.Random(7)
        els = list(g.elements())
        for _ in range(25):
            h = ab.subgroup_from_generators(g, rng.sample(els, 2))
            assert ab.quotient_structure(h).order == h.index


class TestClosedForms:
    """Exact lcm/gcd closed forms for subgroups of a cyclic group."""

    @pytest.mark.parametrize("n", [12, 36, 100, 210, 1000])
    def test_divisor_pairs(self, n):
        g = cyclic(n)
        for j1 in range(1, n + 1):
            if n % j1:
                continue
            for j2 in range(1, n + 1):
                if n % j2:
                    continue
                a = ab.subgroup_from_generators(g, [(j1,)])
                b = ab.subgroup_from_generators(g, [(j2,)])
                meet = ab.intersect(a, b)
                join = ab.product(a, b)
                l = lcm(j1, j2)
                assert meet == ab.subgroup_from_generators(g, [(l % n,)])
                assert join == ab.subgroup_from_generators(g, [(gcd(j1, j2),)])

    def test_cyclic_index_identity_exhaustive(self):
        # [G : H1 H2] = gcd([G:H1], [G:H2]) for every cyclic G of order <= 200
        for n in range(2, 201):
            g = cyclic(n)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            subs = {d: ab.subgroup_from_generators(g, [(d,)]) for d in divisors}
            for j1 in divisors:
                for j2 in divisors:
                    join = ab.product(subs[j1], subs[j2])
                    assert join.index == gcd(subs[j1].index, subs[j2].index)


@st.composite
def group_and_elements(draw, max_rank=3, max_order=256, count=2):
    rank = draw(st.integers(1, max_rank))
    facs = []
    d = 1
    for _ in range(rank):
        mult = draw(st.integers(1, 4))
        d = d * mult if facs else draw(st.integers(2, 8))
        facs.append(max(d, 2))
        d = facs[-1]
    while prod(facs) > max_order:
        facs.pop()
    if not facs:
        facs = [2]
    g = ab.FiniteAbelianGroup(tuple(facs))
    vecs = [tuple(draw(st.integers(0, f - 1)) for f in facs)
            for _ in range(count)]
    return g, vecs


class TestLatticeLaws:
    @given(group_and_elements(count=4))
    @settings(max_examples=120, deadline=None)
    def test_meet_join_against_enumeration(self, data):
        g, vecs = data
        a = ab.subgroup_from_generators(g, vecs[:2])
        b = ab.subgroup_from_generators(g, vecs[2:])
        ea, eb = sub_elements(a), sub_elements(b)
        meet = ab.intersect(a, b)
        assert sub_elements(meet) == ea & eb
        # the canonical lattice, not only the element set
        assert meet == ab.subgroup_from_generators(g, sorted(ea & eb))
        j = ab.product(a, b)
        assert sub_elements(j) >= ea | eb
        assert len(sub_elements(j)) == j.order

    @given(group_and_elements(count=3))
    @settings(max_examples=120, deadline=None)
    def test_absorption(self, data):
        g, vecs = data
        a = ab.subgroup_from_generators(g, vecs[:2])
        b = ab.subgroup_from_generators(g, vecs[2:])
        assert ab.product(a, ab.intersect(a, b)) == a
        assert ab.intersect(a, ab.product(a, b)) == a

    @given(group_and_elements(count=2))
    @settings(max_examples=80, deadline=None)
    def test_order_index_product(self, data):
        g, vecs = data
        a = ab.subgroup_from_generators(g, vecs)
        assert a.order * a.index == g.order
        assert ab.quotient_structure(a).order == a.index


def unimodular_inverse(v):
    """The reference inverse of an integer matrix with determinant +-1:
    the transform U of the HNF of V, which is the identity."""
    n = len(v)
    h, u = ab.hnf_with_transform(v, n)
    # U * V = H, and H is the identity exactly when V is unimodular
    if any(r[i] != 1 for i, r in enumerate(h)):
        raise ValueError("matrix is not unimodular")
    return u


class TestNormalForms:
    @given(st.lists(st.lists(st.integers(-12, 12), min_size=3, max_size=3),
                    min_size=1, max_size=4),
           group_and_elements(count=3))
    @settings(max_examples=120, deadline=None)
    def test_transforms_and_invariant_factors(self, m, data):
        h, u = ab.hnf_with_transform(m, 3)
        assert [list(r) for r in h] == [
            [sum(u[i][k] * m[k][j] for k in range(len(m))) for j in range(3)]
            for i in range(len(m))]
        u_inv = unimodular_inverse(u)
        assert unimodular_inverse(u_inv) == [tuple(r) for r in u]
        n = len(u)
        assert [[sum(u[i][k] * u_inv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] == [
            [int(i == j) for j in range(n)] for i in range(n)]
        g, vecs = data
        sub = ab.subgroup_from_generators(g, vecs)
        diag = ab.smith_normal_form(list(sub.lattice), g.rank)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        assert prod(diag) == sub.index


def euclid_hnf(rows, ncols):
    """The reference HNF for `hnf` with moduli, run on the rows stacked on
    the relations: Euclid over Z with no modulus, each column reduced by
    its smallest entry until one is left."""
    m = [list(r) for r in rows if any(r)]
    row = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(row, len(m)) if m[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(m[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = m[i][col] // m[i0][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        nz = [i for i in range(row, len(m)) if m[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        m[row], m[i0] = m[i0], m[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        piv = m[row][col]
        for i in range(row):
            q = m[i][col] // piv
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
        row += 1
    return tuple(tuple(r) for r in m[:row])


def stacked(rows, moduli):
    """The rows, then the relation rows diag(moduli)."""
    k = len(moduli)
    return [list(r) for r in rows] + [[d if i == j else 0 for j in range(k)]
                                      for i, d in enumerate(moduli)]


@contextlib.contextmanager
def recorded_hnf_calls():
    """The (rows, ncols, moduli) of every `ab.hnf` call inside the block."""
    calls, real = [], ab.hnf

    def spy(rows, ncols, moduli=None):
        calls.append((list(rows), ncols, moduli))
        return real(rows, ncols, moduli)

    ab.hnf = spy
    try:
        yield calls
    finally:
        ab.hnf = real


def check_recorded(calls):
    """Every recorded call passed one relation per column, and its result
    equals Euclid on the rows stacked on the relations."""
    for rows, ncols, moduli in calls:
        assert len(moduli) == ncols and all(d > 0 for d in moduli)
        assert ab.hnf(rows, ncols, moduli) == \
            euclid_hnf(stacked(rows, moduli), ncols)


def subgroup_operations(g, vecs):
    """Each subgroup operation that runs a modular HNF, as a thunk."""
    a = ab.subgroup_from_generators(g, vecs[:2])
    b = ab.subgroup_from_generators(g, vecs[2:])
    return {
        "subgroup_from_generators":
            lambda: ab.subgroup_from_generators(g, vecs),
        "product": lambda: ab.product(a, b),
        "intersect": lambda: ab.intersect(a, b),
        "pairing_kernel": lambda: ab.pairing_kernel(a, vecs[2:]),
        "_span_coordinates": lambda: ab.greedy_basis(
            g, g.elements, lambda v: v, g.scale, g.add),
    }


huge = st.integers(-2 ** 80, 2 ** 80)


class TestModularHNF:
    """`hnf` modulo one relation per column against `euclid_hnf` on the
    rows stacked on diag(moduli)."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_euclid_on_stacked_rows(self, data):
        k = data.draw(st.integers(0, 7))
        moduli = data.draw(st.lists(
            st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70)),
            min_size=k, max_size=k))
        rows = data.draw(st.lists(
            st.lists(st.one_of(st.integers(-12, 12), huge),
                     min_size=k, max_size=k), max_size=6))
        assert ab.hnf(rows, k, moduli) == euclid_hnf(stacked(rows, moduli), k)

    @pytest.mark.parametrize("site", sorted(subgroup_operations(
        ab.FiniteAbelianGroup(()), [()] * 3)))
    @given(group_and_elements(max_rank=6, max_order=4096, count=4))
    @settings(max_examples=60, deadline=None)
    def test_call_sites(self, site, data):
        g, vecs = data
        op = subgroup_operations(g, vecs)[site]
        with recorded_hnf_calls() as calls:
            op()
        assert calls
        check_recorded(calls)

    @pytest.mark.parametrize("facs", [(), (2, 2, 2, 2, 4), (2, 2, 4, 4, 8),
                                      (6, 6, 6, 6, 6), (2, 2, 2, 2, 4, 4)])
    def test_rank_zero_five_and_six(self, facs):
        # with equal factors the relation rows d_i e_i of pairing_kernel's
        # right half are 0 mod its left modulus e as well
        g = ab.FiniteAbelianGroup(facs)
        rng = random.Random(len(facs))
        for _ in range(20):
            vecs = [tuple(rng.randrange(d) for d in facs) for _ in range(4)]
            for op in subgroup_operations(g, vecs).values():
                with recorded_hnf_calls() as calls:
                    op()
                check_recorded(calls)

    def test_rank_zero_lattices(self):
        assert ab.hnf([], 0, ()) == ()
        assert ab.hnf([(), ()], 0, ()) == ()
        assert ab.hnf([], 3, (4, 1, 6)) == ((4, 0, 0), (0, 1, 0), (0, 0, 6))

    @given(group_and_elements(max_rank=5, max_order=1024, count=3),
           st.lists(st.lists(huge, min_size=5, max_size=5), min_size=1,
                    max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_negative_and_huge_generators(self, data, shifts):
        # a generator is read modulo the relations, whatever its size
        g, vecs = data
        big = [tuple(x + d * s for x, d, s in zip(v, g.invariant_factors,
                                                  shift))
               for v, shift in zip(vecs, shifts)]
        with recorded_hnf_calls() as calls:
            sub = ab.subgroup_from_generators(g, big)
        check_recorded(calls)
        assert sub == ab.subgroup_from_generators(g, vecs[:len(big)])
        rows = [r for v in big for r in (v, [-x for x in v])]
        assert ab.hnf(rows, g.rank, g.invariant_factors) == euclid_hnf(
            stacked(rows, g.invariant_factors), g.rank)

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_smith_diagonal_without_transform(self, n, data):
        m = data.draw(st.lists(st.lists(st.integers(-40, 40), min_size=n,
                                        max_size=n), max_size=5))
        assert ab.smith_normal_form(m, n) == ab.snf_with_transform(m, n)[0]


def snf_factors(rows, ncols):
    """The reference invariant factors > 1: the Euclid SNF over Z."""
    return tuple(d for d in ab.smith_normal_form(rows, ncols) if d > 1)


def check_against_euclid_snf(g, sub):
    assert ab.quotient_structure(sub).invariant_factors == snf_factors(
        list(sub.lattice), g.rank)


# the six groups of the lattice-law suite, the four higher-rank lattice
# ambients of the benchmark, rank 0, and prime exponents above 64
PRIME_BY_PRIME_AMBIENTS = [
    (2, 2, 4), (4, 8), (2, 4, 8), (2, 2, 2, 4), (8, 8), (2, 6, 12),
    (2, 4, 8, 16), (2, 2, 2, 2, 4), (6, 12, 24), (3, 9, 27), (),
    (67, 67), (2, 202), (5, 5 * 67 ** 2)]


class TestPrimeByPrimeQuotients:
    """Quotient structures over each Z/l^v against the Euclid SNF."""

    @pytest.mark.parametrize("facs", PRIME_BY_PRIME_AMBIENTS,
                             ids=lambda f: "x".join(map(str, f)) or "rank0")
    def test_drawn_subgroups(self, facs):
        g = ab.FiniteAbelianGroup(facs)
        rng = random.Random(str(facs))
        # entries scaled by a random divisor of their factor, so that the
        # subgroups reach every index
        subs = {ab.trivial_subgroup(g), ab.full_subgroup(g)}
        subs |= {ab.subgroup_from_generators(g, [
            tuple(rng.randrange(d) * rng.choice(ab.divisors(d)) % d
                  for d in facs) for _ in range(rng.randint(1, 4))])
                 for _ in range(300)}
        for sub in subs:
            check_against_euclid_snf(g, sub)

    @given(group_and_elements(max_rank=5, max_order=4096, count=4))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_draws(self, data):
        g, vecs = data
        for sub in (ab.subgroup_from_generators(g, vecs[:n])
                    for n in range(5)):
            check_against_euclid_snf(g, sub)

    @given(st.lists(st.one_of(st.integers(0, 200),
                              st.sampled_from([64, 81, 125, 67 * 67])),
                    max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_group_from_cyclic_orders(self, orders):
        kept = [o for o in orders if o > 1]
        assert ab.group_from_cyclic_orders(orders).invariant_factors == \
            snf_factors(ab._diagonal(kept), len(kept))

    def test_no_euclid_smith(self, monkeypatch):
        # finite quotients take no Euclid SNF
        monkeypatch.setattr(ab, "_smith", None)
        g = ab.FiniteAbelianGroup((2, 6, 12))
        sub = ab.subgroup_from_generators(g, [(0, 1, 0), (0, 0, 2)])
        assert ab.quotient_structure(sub).invariant_factors == (2, 2)
        assert ab.group_from_cyclic_orders([4, 6, 9]).invariant_factors == \
            (6, 36)


class TestNaryProduct:
    @given(group_and_elements(max_rank=5, max_order=4096, count=8),
           st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_equals_pairwise_reduce(self, data, n):
        g, vecs = data
        subs = [ab.subgroup_from_generators(g, vecs[2 * i:2 * i + 2])
                for i in range(n)]
        with recorded_hnf_calls() as calls:
            joined = ab.product(*subs)
        assert len(calls) == 1
        assert joined == functools.reduce(ab.product, subs)

    def test_single_subgroup_takes_no_hnf(self):
        g = ab.FiniteAbelianGroup((2, 4))
        a = ab.subgroup_from_generators(g, [(1, 2)])
        with recorded_hnf_calls() as calls:
            assert ab.product(a) is a
        assert calls == []

    def test_ambient_mismatch_in_any_place(self):
        a = ab.trivial_subgroup(cyclic(4))
        b = ab.trivial_subgroup(cyclic(6))
        for subs in ((a, a, b), (a, b, a), (b, a, a)):
            with pytest.raises(AmbientMismatchError):
                ab.product(*subs)


class TestPairingKernel:
    @given(group_and_elements(count=4))
    @settings(max_examples=200, deadline=None)
    def test_against_element_filter(self, data):
        g, els = data
        sub = ab.subgroup_from_generators(g, els[:2])
        vecs = els[2:]
        e = g.exponent

        def pairing(b, v):
            return sum(x * y * (e // d)
                       for x, y, d in zip(b, v, g.invariant_factors)) % e

        keep = [b for b in sub.elements()
                if all(pairing(b, v) == 0 for v in vecs)]
        got = ab.pairing_kernel(sub, vecs)
        assert got.elements() == set(keep)
        assert got == ab.subgroup_from_generators(g, keep)
        assert all(g.pairing(b, v) == pairing(b, v)
                   for b in els for v in els)

    def test_annihilator_and_edge_cases(self):
        # the characters killing h: as many as the index of h
        g = ab.FiniteAbelianGroup((2, 4, 8))
        full = ab.full_subgroup(g)
        h = ab.subgroup_from_generators(g, [(1, 1, 2), (0, 2, 4)])
        assert ab.pairing_kernel(full, h.lattice).order == h.index
        assert ab.pairing_kernel(full, []) == full
        assert ab.pairing_kernel(full, [g.identity]) == full
        triv = ab.full_subgroup(ab.FiniteAbelianGroup(()))
        assert ab.pairing_kernel(triv, [()]) == triv


class TestOrderTwoJoinIdentity:
    """[S1 I meet S2 I : (S1 meet S2) I] divides |I| for order-2 I."""

    def _check(self, g, s1, s2, i):
        lhs = ab.intersect(ab.product(s1, i), ab.product(s2, i))
        rhs = ab.product(ab.intersect(s1, s2), i)
        assert rhs.order <= lhs.order
        q, r = divmod(lhs.order, rhs.order)
        assert r == 0
        assert i.order % q == 0

    def test_randomized(self):
        rng = random.Random(20260823)
        ambients = [
            ab.FiniteAbelianGroup((2, 2, 4)),
            ab.FiniteAbelianGroup((4, 8)),
            ab.FiniteAbelianGroup((2, 4, 8)),
            ab.FiniteAbelianGroup((2, 2, 2, 4)),
            ab.FiniteAbelianGroup((8, 8)),
            ab.FiniteAbelianGroup((2, 6, 12)),
        ]
        trials = 0
        while trials < 10 ** 4:
            g = rng.choice(ambients)
            els = list(g.elements())
            order2 = [x for x in els if g.element_order(x) == 2]
            s1 = ab.subgroup_from_generators(g, rng.sample(els, 2))
            s2 = ab.subgroup_from_generators(g, rng.sample(els, 2))
            i = ab.subgroup_from_generators(g, [rng.choice(order2)])
            self._check(g, s1, s2, i)
            trials += 1


class TestUnitGroups:
    def test_structures(self):
        assert ab.unit_group(16).group.invariant_factors == (2, 4)
        assert ab.unit_group(5).group.invariant_factors == (4,)
        assert ab.unit_group(20).group.invariant_factors == (2, 4)
        assert ab.unit_group(2).group == ab.FiniteAbelianGroup(())
        assert ab.unit_group(8).group.invariant_factors == (2, 2)

    def test_two_power_structure(self):
        for k in range(3, 11):
            assert ab.unit_group(2 ** k).group.invariant_factors == (2, 2 ** (k - 2))

    def test_round_trip_exhaustive(self):
        for n in range(2, 200):
            u = ab.unit_group(n)
            count = 0
            for x in u.residues():
                assert u.exp(u.dlog(x)) == x
                count += 1
            assert count == u.order

    def test_dlog_is_homomorphism(self):
        u = ab.unit_group(360)
        rng = random.Random(3)
        units = list(u.residues())
        for _ in range(200):
            x, y = rng.choice(units), rng.choice(units)
            assert u.dlog(x * y % 360) == u.group.add(u.dlog(x), u.dlog(y))

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            ab.unit_group(1)
        with pytest.raises(BoundExceededError):
            ab.unit_group(10 ** 6 + 1)

    def test_generators_round_trip(self):
        u = ab.unit_group(63)
        gens = u.generators
        assert len(gens) == u.group.rank
        for i, g in enumerate(gens):
            vec = u.dlog(g)
            assert vec == tuple(1 if j == i else 0 for j in range(u.group.rank))


def _table_dlog(n):
    """The brute-force reference: per prime power q of n, a table of the
    exponent vectors of every unit mod q on that prime's generators."""
    u = ab.unit_group(n)
    tables = []
    for p, a in ab.factorize(n):
        q, gens = p ** a, ab._prime_power_generators(p, a)
        table = {}
        for exps in itertools.product(*(range(o) for _, o in gens)):
            v = 1
            for (g, _), e in zip(gens, exps):
                v = v * pow(g, e, q) % q
            table[v] = exps
        tables.append((q, table))
    return lambda x: u.to_canonical(
        [e for q, table in tables for e in table[x % q]])


def _sampled_table_entries(n, count, seed):
    """Entries of the same table at random raw exponent vectors, for n too
    large to tabulate: (unit, its exponents on the canonical generators)."""
    u = ab.unit_group(n)
    rng = random.Random(seed)
    parts = [(p, p ** a, ab._prime_power_generators(p, a))
             for p, a in ab.factorize(n)]
    for _ in range(count):
        raw, x = [], 0
        for p, q, gens in parts:
            exps = [rng.randrange(o) for _, o in gens]
            v = 1
            for (g, _), e in zip(gens, exps):
                v = v * pow(g, e, q) % q
            raw += exps
            x += v * u.idempotents[p]
        yield x % n, u.to_canonical(raw)


class TestStructuralDlog:
    """`UnitGroup.dlog` by Pohlig-Hellman against the residue tables."""

    def test_every_unit_up_to_1500(self):
        for n in range(2, 1501):
            u, reference = ab.unit_group(n), _table_dlog(n)
            for x in u.residues():
                assert u.dlog(x) == reference(x), (n, x)

    @pytest.mark.parametrize("n", [999983, 2 ** 19, 3 ** 12,
                                   4 * 3 ** 5 * 7 * 11 * 13])
    def test_large_moduli_on_samples(self, n):
        u = ab.unit_group(n)
        for x, vec in _sampled_table_entries(n, 400, n):
            assert u.dlog(x) == vec

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            ab.unit_group(999983).dlog(0)
        with pytest.raises(ValueError):
            ab.unit_group(2 ** 19).dlog(6)


class TestReadOffLogs:
    """What a report reads off the presentation instead of a dlog."""

    def test_minus_one_against_dlog(self):
        # every 2^a, 2 * odd and 4 * odd up to 5000 included
        for n in range(2, 5001):
            u = ab.UnitGroup(n)
            assert u.minus_one_log == u.dlog(n - 1), n

    def test_logs_are_built_on_first_dlog(self, monkeypatch):
        built = []
        init = ab.CyclicLog.__init__
        monkeypatch.setattr(ab.CyclicLog, "__init__", lambda self, *a: (
            built.append(a[1]), init(self, *a))[1])
        u = ab.UnitGroup(8 * 9 * 7)
        u.generators, u.minus_one_log, u.one_units(3, 1)
        assert built == []
        assert u.dlog(5) == u.dlog(5)
        assert sorted(built) == [2, 6, 6]   # once per prime power

    def test_generators_are_computed_once(self):
        u = ab.UnitGroup(720)
        assert u.generators is u.generators


def _snf_inverse_agrees(orders_or_rows, ncols):
    _, v, w = ab.snf_with_transform(orders_or_rows, ncols)
    assert [tuple(r) for r in zip(*w)] == unimodular_inverse(v)


class TestTransformInverse:
    """V^-1 kept by `snf_with_transform` through its column operations
    against the HNF inverse of V."""

    def test_unit_groups_up_to_2000(self):
        for n in range(2, 2001):
            orders = [o for p, a in ab.factorize(n)
                      for _, o in ab._prime_power_generators(p, a)]
            _snf_inverse_agrees(ab._diagonal(orders), len(orders))

    def test_function_field_unit_groups(self, monkeypatch):
        from genusfields import fqpoly
        calls = []
        snf = ab.snf_with_transform
        monkeypatch.setattr(ab, "snf_with_transform", lambda rows, n: (
            calls.append((rows, n)), snf(rows, n))[1])
        fields = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                  8: (2, 3), 9: (3, 2)}
        rng = random.Random(13)
        for _ in range(40):
            q = rng.choice(sorted(fields))
            fld = fqpoly.fq_field(*fields[q])
            degree = rng.randint(1, {2: 9, 3: 6, 4: 4}.get(q, 3))
            n = fqpoly.poly(fld, [rng.randrange(q) for _ in range(degree)]
                            + [1])
            fqpoly._prime_power_units.cache_clear()
            fqpoly.UnitGroupModN(fqpoly.factor_modulus(n))
        monkeypatch.undo()
        assert len(calls) > 40
        for rows, n in calls:
            _snf_inverse_agrees(rows, n)

    @given(st.lists(st.integers(1, 6000), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_random_raw_orders(self, orders):
        _snf_inverse_agrees(ab._diagonal(orders), len(orders))


class TestCyclicLog:
    def test_every_power_of_a_primitive_root(self):
        # 1019 is prime and 1018 = 2 * 509: one factor above the table
        # limit, so a baby-step giant-step log
        log = ab.CyclicLog(2, 1018, lambda x, e: pow(x, e, 1019),
                           lambda x, y: x * y % 1019)
        assert all(log(pow(2, e, 1019)) == e for e in range(1018))

    def test_prime_power_order(self):
        # (Z/3^7)* is cyclic of order 2 * 3^6 on the primitive root 2
        q = 3 ** 7
        log = ab.CyclicLog(2, 2 * 3 ** 6, lambda x, e: pow(x, e, q),
                           lambda x, y: x * y % q)
        assert all(log(pow(2, e, q)) == e for e in range(0, 2 * 3 ** 6, 7))

    def test_outside_the_group(self):
        # 4 generates the squares mod 11; 2 is not one
        log = ab.CyclicLog(4, 5, lambda x, e: pow(x, e, 11),
                           lambda x, y: x * y % 11)
        with pytest.raises(ValueError):
            log(2)


class TestPrimePowerUnitLattice:
    """Index identity [G : H1 H2] = gcd of indices for odd prime powers."""

    @pytest.mark.parametrize("pm", [27, 125, 343, 1331, 1849, 9, 49, 1681])
    def test_exhaustive_over_divisor_subgroups(self, pm):
        u = ab.unit_group(pm)
        g = u.group
        assert g.rank == 1
        n = g.order
        subs = [ab.subgroup_from_generators(g, [(d,)])
                for d in range(1, n + 1) if n % d == 0]
        for a in subs:
            for b in subs:
                j = ab.product(a, b)
                assert j.index == gcd(a.index, b.index)

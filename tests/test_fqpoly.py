"""Tests for F_q and F_q[T] arithmetic, factorization, and unit groups."""

import functools
import operator
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genusfields import abelian, fqpoly as fq
from genusfields.errors import BoundExceededError, SchemaError
from reference import (ScanUnits, code, poly_from_code, poly_gcd,
                       poly_value, school_field_add, school_field_mul,
                       school_field_neg)

F2 = fq.fq_field(2)
F3 = fq.fq_field(3)
F4 = fq.fq_field(2, 2)
F5 = fq.fq_field(5)
F8 = fq.fq_field(2, 3)
F9 = fq.fq_field(3, 2)
F13 = fq.fq_field(13)
F512 = fq.fq_field(2, 9)
F65521 = fq.fq_field(65521)
KERNEL_FIELDS = [F2, F3, F4, F5, F9, F512, F65521]


def const(fld, a):
    """The field element a as a constant polynomial."""
    return fq.poly(fld, (a,))


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def school_mul(fld, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = school_field_add(fld, out[i + j],
                                          school_field_mul(fld, x, y))
    return trim(out)


def school_field_inv(fld, a):
    """a^(q-2) by repeated squaring."""
    out, e = 1, fld.q - 2
    while e:
        if e & 1:
            out = school_field_mul(fld, out, a)
        a, e = school_field_mul(fld, a, a), e >> 1
    return out


def school_divmod(fld, a, b):
    """Long division over F_q."""
    inv = school_field_inv(fld, b[-1])
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = school_field_mul(fld, rem[i + len(b) - 1], inv)
        quo[i] = c
        for j, y in enumerate(b):
            cy = school_field_mul(fld, c, y)
            rem[i + j] = school_field_add(fld, rem[i + j],
                                          school_field_neg(fld, cy))
    return trim(quo), trim(rem)


def schoolbook_mod(a, b):
    """Independent long-division remainder used as an oracle."""
    return fq.poly(a.field, school_divmod(a.field, a.coeffs, b.coeffs)[1])


def school_monic(f):
    """f divided by its leading coefficient."""
    return f.scale(school_field_inv(f.field, f.coeffs[-1]))


def stretch(cs, e):
    """The coefficients of a(T^e)."""
    out = [0] * ((len(cs) - 1) * e + 1) if cs else []
    out[::e] = cs
    return tuple(out)


def coefficients(fld):
    return st.lists(st.integers(0, fld.q - 1), max_size=9)


class TestKernel:
    """The packed-integer kernel against schoolbook arithmetic written
    here, over prime fields, table fields (q <= 256) and kernel fields."""

    @given(st.data())
    @example(None)
    @settings(max_examples=200, deadline=None)
    def test_ring_operations(self, data):
        if data is None:    # zero, constants, and coefficients p - 1
            cases = [(F2, (), (1,), 1, 1), (F9, (5,), (7,), 1, 1),
                     (F65521, (65520,) * 3, (2,), 1, 1)]
        else:
            fld = data.draw(st.sampled_from(KERNEL_FIELDS))
            cases = [(fld, data.draw(coefficients(fld)),
                      data.draw(coefficients(fld)),
                      data.draw(st.sampled_from([1, 1, 2, min(fld.q, 9)])),
                      data.draw(st.sampled_from([1, 3])))]
        for fld, acs, bcs, ea, eb in cases:
            acs, bcs = stretch(trim(acs), ea), stretch(trim(bcs), eb)
            a, b = fq.poly(fld, acs), fq.poly(fld, bcs)
            assert (a * b).coeffs == school_mul(fld, acs, bcs)
            assert (a + b).coeffs == trim(
                school_field_add(fld, x, y) for x, y in
                zip(acs + (0,) * len(bcs), bcs + (0,) * len(acs)))
            assert (a - b) + b == a
            if bcs:
                quo, rem = divmod(a, b)
                assert (quo.coeffs, rem.coeffs) == school_divmod(fld, acs, bcs)
                assert rem.degree < b.degree
                qb = school_mul(fld, quo.coeffs, bcs)
                assert fq.poly(fld, qb) + rem == a
                assert fld.mod(fq.packed(a), fq.packed(b)) == fq.packed(rem)
            assert fq.poly(fld, acs).scale(3 % fld.q).coeffs == trim(
                school_field_mul(fld, 3 % fld.q, x) for x in acs)

    def test_frobenius_stretch(self):
        for fld in (F3, F4, F512):
            a = fq.poly(fld, (1, 0, fld.q - 1, 2))
            assert fq.from_packed(fld, fld.frobenius(fq.packed(a), fld.q)) \
                == fq.poly(fld, stretch(a.coeffs, fld.q))

    @pytest.mark.parametrize("fld", KERNEL_FIELDS)
    def test_reduce_on_the_slot_domain(self, fld):
        # every slot value below 2^(w-1), the top ones and the largest of
        # residue p - 1 among them
        p = fld.p
        top = (1 << (fld.w - 1)) - 1
        rng = random.Random(p)
        last = top - (top + 1) % p
        slots = [0, 1, p - 1, p, top, last, last - p]
        slots += [rng.randrange(top) for _ in range(64)]
        x = sum(d << fld.w * i for i, d in enumerate(slots))
        assert fld.reduce(x) == sum(d % p << fld.w * i
                                    for i, d in enumerate(slots))

    @pytest.mark.parametrize("fld", KERNEL_FIELDS)
    def test_capacity_keeps_slots_in_the_reduction_domain(self, fld):
        # a product of two reduced factors, the shorter with `cap`
        # coefficients, or `cap` division steps from a reduced dividend
        p = fld.p
        assert p - 1 + fld.cap * fld.s * (p - 1) ** 2 < 1 << (fld.w - 1)
        assert fld.cap >= 2 ** 12

    @pytest.mark.parametrize("fld", [F2, F3, F4])
    def test_products_at_the_capacity(self, fld):
        # every coefficient q - 1: the coefficient of T^i of the square
        # is (q-1)^2 times the number of pairs summing to i
        n = fld.cap
        c = fld.q - 1
        a = fld.pack((c,) * n)
        square = school_field_mul(fld, c, c)
        assert fld.unpack(fld.mul(a, a)) == tuple(
            school_field_mul(fld, square, (min(i, 2 * n - 2 - i) + 1) % fld.p)
            for i in range(2 * n - 1))
        longer = fld.pack((c,) * (n + 1))
        with pytest.raises(BoundExceededError):
            fld.mul(longer, longer)
        # a division of cap + 2 steps, through one reduction
        b, x = fq.packed(fq.poly(fld, (1, 1))), a << 3 * fld.group
        quo, rem = fld.divmod(x, b)
        assert fld.degree(quo) == n + 1 and fld.add(fld.mul(quo, b), rem) == x

    def test_long_product_mod_65521(self):
        # slot sums reach (p - 1)^2 2^15 ~ 2^47: a 32-bit slot, or one
        # that drops the bits above 2^46, would carry into its neighbour
        n = 2 ** 15
        a = fq.poly(F65521, (65520,) * n)
        got = (a * a).coeffs
        assert got == tuple((min(i, 2 * n - 2 - i) + 1) % 65521
                            for i in range(2 * n - 1))

    def test_public_constructors_check_coefficients(self):
        for bad in ((3,), (-1,)):
            with pytest.raises(SchemaError):
                fq.FqPoly(F3, bad)
            with pytest.raises(SchemaError):
                fq.poly(F3, bad)


class TestField:
    def test_validation(self):
        with pytest.raises(SchemaError):
            fq.FqField(4)
        with pytest.raises(BoundExceededError):
            fq.FqField(2, 17)

    @pytest.mark.parametrize("fld", [F2, F3, F4, F5, F9, fq.fq_field(2, 8),
                                     F512])
    def test_field_axioms(self, fld):
        # against the schoolbook: a field element is a constant polynomial
        # on the kernel, where for s > 1 a product is folded by the field
        # modulus
        for a in range(1, fld.q):
            neg = fq.poly(fld, ()) - const(fld, a)
            assert neg == const(fld, school_field_neg(fld, a))
            inv = fld.unpack(fld.inverse(fld.pack((a,))))
            assert inv == (school_field_inv(fld, a),)
            assert school_field_mul(fld, a, inv[0]) == 1
        rng = random.Random(fld.q)
        for _ in range(50):
            a, b = rng.randrange(fld.q), rng.randrange(fld.q)
            assert const(fld, a) + const(fld, b) \
                == const(fld, school_field_add(fld, a, b))
            assert const(fld, a) * const(fld, b) \
                == const(fld, school_field_mul(fld, a, b))

    def test_multiplicative_order(self):
        # the nonzero elements form a cyclic group of order q - 1
        for fld in (F4, F9):
            orders = set()
            for a in range(1, fld.q):
                o, x = 1, const(fld, a)
                while x != fq.one(fld):
                    x = x * const(fld, a)
                    o += 1
                orders.add(o)
            assert max(orders) == fld.q - 1

    def test_frobenius_additive(self):
        for a in range(9):
            for b in range(9):
                assert (const(F9, a) + const(F9, b)) ** F9.p == \
                    const(F9, a) ** F9.p + const(F9, b) ** F9.p


class TestPolyArith:
    def test_gcd_example(self):
        t = fq.variable(F2)
        assert poly_gcd(t * t + t, t) == t

    def test_square_char_two(self):
        t = fq.variable(F2)
        assert (t + fq.one(F2)) * (t + fq.one(F2)) == fq.poly(F2, (1, 0, 1))

    def test_mod_against_schoolbook(self):
        a = fq.poly(F3, (1, 1, 0, 1))
        b = fq.poly(F3, (1, 0, 1))
        assert a % b == schoolbook_mod(a, b)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            divmod(fq.one(F2), fq.FqPoly(F2))

    @given(st.sampled_from([F2, F3, F4, F5]),
           st.lists(st.integers(0, 24), min_size=0, max_size=7),
           st.lists(st.integers(0, 24), min_size=1, max_size=5),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_divmod_law(self, fld, acs, bcs, data):
        a = fq.poly(fld, [c % fld.q for c in acs])
        b = fq.poly(fld, [c % fld.q for c in bcs])
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert a % b == schoolbook_mod(a, b)

    @given(st.sampled_from([F2, F3, F4]),
           st.lists(st.integers(0, 3), min_size=1, max_size=5),
           st.lists(st.integers(0, 3), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_gcd_divides_both(self, fld, acs, bcs):
        a = fq.poly(fld, [c % fld.q for c in acs])
        b = fq.poly(fld, [c % fld.q for c in bcs])
        g = poly_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
        else:
            assert (a % g).is_zero and (b % g).is_zero

    def test_pow_with_modulus(self):
        # pow(f, e, m) reduces after every product; it must equal the
        # full power reduced once, constant moduli included
        rng = random.Random(300)
        for fld in (F2, F3, F4, F9):
            for _ in range(12):
                f = fq.poly(fld, [rng.randrange(fld.q)
                                  for _ in range(rng.randint(0, 5))])
                m = fq.poly(fld, [rng.randrange(fld.q)
                                  for _ in range(rng.randint(0, 4))]
                            + [rng.randrange(1, fld.q)])
                for e in (0, 1, 2, rng.randint(3, 299), 300):
                    assert pow(f, e, m) == (f ** e) % m
        with pytest.raises(ZeroDivisionError):
            pow(fq.one(F2), 2, fq.FqPoly(F2))
        t = fq.variable(F2)
        with pytest.raises(ValueError):
            pow(t, -1, t + fq.one(F2))
        with pytest.raises(ValueError):
            t ** -1

    def test_powers_against_repeated_products(self):
        # `FqField.pow` serves every power; `*` alone checks it here
        rng = random.Random(12)
        for fld in (F2, F3, F4, F9):
            for _ in range(6):
                f = fq.poly(fld, [rng.randrange(fld.q)
                                  for _ in range(rng.randint(0, 4))])
                expected = fq.one(fld)
                for e in range(13):
                    assert f ** e == expected
                    expected = expected * f

    def test_product_of_prime_powers(self):
        # the kernel integer of prod P^a, against the P repeated a times
        for fld in (F2, F3, F4, F9):
            rng = random.Random(fld.q)
            primes = fq.monic_irreducibles(fld, 1) + fq.monic_irreducibles(
                fld, 2)[:3]
            for _ in range(6):
                pairs = [(p_, rng.randint(1, 12))
                         for p_ in rng.sample(primes, 3)]
                expected = fq.one(fld)
                for p_, a in pairs:
                    for _ in range(a):
                        expected = expected * p_
                assert fq._product(fld, pairs) == fq.packed(expected)

    @pytest.mark.parametrize("fld", [F2, F3, F4, F8, F9],
                             ids=["F2", "F3", "F4", "F8", "F9"])
    def test_kernel_integers_sort_in_code_order(self, fld):
        # so sorting factors by `packed` keeps the (degree, code) order
        # of the CRT and of the canonical generators
        polys = [poly_from_code(fld, c) for c in range(fld.q ** 4)]
        random.Random(fld.q).shuffle(polys)
        assert sorted(polys, key=fq.packed) == sorted(
            polys, key=lambda f: (f.degree, code(f)))


class TestIrreducibility:
    def test_known_values(self):
        assert fq.is_irreducible(fq.poly(F2, (1, 1, 1)))
        assert not fq.is_irreducible(fq.poly(F2, (1, 0, 1)))
        with pytest.raises(SchemaError):
            fq.is_irreducible(fq.one(F2))

    def test_against_root_search_cubics_f5(self):
        # degree <= 3 is reducible exactly when it has a root
        for f in fq.monic_polys(F5, 3):
            has_root = any(poly_value(f, x) == 0 for x in range(5))
            assert fq.is_irreducible(f) == (not has_root)

    @pytest.mark.parametrize("fld,counts", [
        (F2, {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}),
        (F3, {1: 3, 2: 3, 3: 8, 4: 18}),
        (F4, {1: 4, 2: 6, 3: 20}),
    ])
    def test_irreducible_counts(self, fld, counts):
        # necklace counting: the number of monic irreducibles of degree d
        for d, expected in counts.items():
            assert len(fq.monic_irreducibles(fld, d)) == expected


class TestFactorization:
    def test_examples(self):
        fm = fq.factor_modulus(fq.poly(F2, (0, 1, 1)))
        assert [(str(p), a) for p, a in fm.factors] == [("T", 1), ("T + 1", 1)]
        fm = fq.factor_modulus(fq.poly(F3, (0, 0, 1)))
        assert [(str(p), a) for p, a in fm.factors] == [("T", 2)]
        fm = fq.factor_modulus(fq.poly(F2, (1, 0, 1, 0, 1)))
        assert [(str(p), a) for p, a in fm.factors] == [("T^2 + T + 1", 2)]

    def test_constant_rejected(self):
        with pytest.raises(SchemaError):
            fq.factor_modulus(fq.one(F2))

    @pytest.mark.parametrize("fld,maxdeg", [(F2, 9), (F3, 5), (F4, 4)])
    def test_exhaustive_reconstruction(self, fld, maxdeg):
        for d in range(1, maxdeg + 1):
            for f in fq.monic_polys(fld, d):
                fm = fq.factor_modulus(f)
                assert fm.modulus == f
                for p_, _ in fm.factors:
                    assert fq.is_irreducible(p_)

    @pytest.mark.parametrize("fld,maxdeg", [(F2, 12), (F3, 7)],
                             ids=["F2", "F3"])
    def test_equals_trial_division_on_every_small_modulus(self, fld, maxdeg):
        # every monic N with q^deg N <= 2^12, the moduli of criterion 8
        for d in range(1, maxdeg + 1):
            for f in fq.monic_polys(fld, d):
                assert _factors(fq.factor_modulus(f)) == \
                    trial_division_factors(f)

    @pytest.mark.parametrize("fld", [F4, F5, F8, F9, F13],
                             ids=["F4", "F5", "F8", "F9", "F13"])
    def test_equals_trial_division_on_a_sample(self, fld):
        # random monic moduli, and products of random primes with
        # repetition, for q^deg N <= 2^16
        rng = random.Random(fld.q)
        maxdeg = next(d for d in range(20) if fld.q ** (d + 1) > 2 ** 16)
        primes = [f for d in range(1, maxdeg // 2 + 1)
                  for f in fq.monic_irreducibles(fld, d)]
        for _ in range(40):
            f = fq.poly(fld, [rng.randrange(fld.q)
                              for _ in range(rng.randint(1, maxdeg))] + [1])
            g = fq.one(fld)
            for p_ in rng.sample(primes, 4):
                room = (maxdeg - g.degree) // p_.degree
                if room:
                    g = g * p_ ** rng.randint(1, room)
            for n in (f, g):
                if n.degree >= 1:
                    assert _factors(fq.factor_modulus(n)) == \
                        trial_division_factors(n)

    def test_factorization_does_not_depend_on_the_seed(self, monkeypatch):
        moduli = [_equal_degree_product(fld, d)
                  for fld, d in ((F2, 6), (F3, 3), (F4, 2), (F9, 2))]
        expected = [fq.factor_modulus(n).factors for n in moduli]
        for seed in (1, 2, 2 ** 40 + 7):
            monkeypatch.setattr(fq, "_SPLIT_SEED", seed)
            assert [fq.factor_modulus(n).factors for n in moduli] == expected

    def test_multiplicity_at_least_p(self):
        # N' = 0, so a squarefree pre-pass by gcd(N, N') would find nothing
        t2, t3 = fq.variable(F2), fq.variable(F3)
        fm = fq.factor_modulus((t2 + fq.one(F2)) ** 4)
        assert _factors(fm) == [((1, 1), 4)]
        fm = fq.factor_modulus((t3 * t3 + fq.one(F3)) ** 3)
        assert _factors(fm) == [((1, 0, 1), 3)]

    @pytest.mark.parametrize("fld,d", [
        (F2, 4), (F2, 6), (F4, 2), (F8, 2), (F3, 2), (F3, 3), (F9, 2),
    ], ids=["F2-4", "F2-6", "F4-2", "F8-2", "F3-2", "F3-3", "F9-2"])
    def test_equal_degree_splitting(self, fld, d):
        # as many primes of one degree as the bound allows: the trace
        # splits them for p = 2, a^((q^d - 1)/2) - 1 for odd p
        n = _equal_degree_product(fld, d)
        fm = fq.factor_modulus(n)
        assert len(fm.factors) == n.degree // d > 1
        assert all(p_.degree == d and a == 1 for p_, a in fm.factors)
        assert _factors(fm) == trial_division_factors(n)

    def test_splitting_draws_few_polynomials(self, monkeypatch):
        # a wrong trace or exponent still splits, by chance, so only the
        # number of random coefficients drawn shows it: about 3 per degree
        # at this seed, and 6 to 110 with one term of the trace dropped or
        # the exponent off by one
        draws = []

        class Counting(random.Random):
            def randrange(self, *args):
                draws.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(fq.random, "Random", Counting)
        monkeypatch.setattr(fq, "_SPLIT_SEED", 0)
        for fld, d in ((F2, 6), (F4, 2), (F8, 2), (F3, 3), (F9, 2)):
            n = _equal_degree_product(fld, d)
            draws.clear()
            fq.factor_modulus(n)
            assert len(draws) <= 5 * n.degree

    @pytest.mark.parametrize("fld", [F2, F3, F4, F9], ids=["F2", "F3", "F4",
                                                           "F9"])
    def test_euclid_caches_no_remainders(self, fld):
        # the divisors cached by factoring are the cofactors, the
        # products of equal-degree primes and the primes, all dividing N;
        # a Euclid remainder is used once and is not cached
        rng = random.Random(fld.q)
        deg = next(d for d in range(2, 20) if fld.q ** (d + 1) > 2 ** 16)
        for n in [_equal_degree_product(fld, 2)] + [
                fq.poly(fld, [rng.randrange(fld.q) for _ in range(deg)] + [1])
                for _ in range(10)]:
            fld._divisors.clear()
            fld._reducers.clear()
            fq.factor_modulus(n)
            cached = list(fld._divisors)
            assert cached
            assert all(fld.divmod(fq.packed(n), b)[1] == 0 for b in cached)

    @pytest.mark.parametrize("fld,coeffs", [
        (F5, (3, 0, 4, 2)), (F9, (0, 5, 7, 0, 4)), (F3, (2, 2, 0, 2))])
    def test_non_monic_input(self, fld, coeffs):
        n = fq.poly(fld, coeffs)
        fm = fq.factor_modulus(n)
        assert fm.modulus == school_monic(n)
        assert _factors(fm) == trial_division_factors(n)

    def test_degree_24_modulus_under_the_bound(self):
        # q^deg N = 2^24, the factorization bound: primes of degree 11
        # and 13, which trial division reached only after enumerating
        # every polynomial of degree up to 11
        p11 = fq.poly(F2, (1, 0, 1) + (0,) * 8 + (1,))
        p13 = fq.poly(F2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,))
        start = time.perf_counter()
        fm = fq.factor_modulus(p11 * p13)
        assert time.perf_counter() - start < 0.1
        assert fm.factors == ((p11, 1), (p13, 1))

    def test_factored_modulus_validation(self):
        t = fq.variable(F2)
        with pytest.raises(SchemaError):
            fq.FactoredModulus(F2, ((t, 1),), t + fq.one(F2))
        with pytest.raises(SchemaError):
            fq.FactoredModulus(F2, ((t * t, 1),), t * t)


def trial_division_factors(n):
    """The reference factorization: trial division of monic n over the
    enumerated monic irreducibles of each degree in turn, as (coefficients,
    multiplicity) pairs sorted by (degree, code)."""
    work, pairs, d = school_monic(n), [], 1
    while work.degree >= 1:
        # no factor of degree < d remains, so anything shorter than 2d is
        # itself irreducible
        if d * 2 > work.degree:
            pairs.append((work, 1))
            break
        for p_ in fq.monic_irreducibles(n.field, d):
            if (work % p_).is_zero:
                a = 0
                while (work % p_).is_zero:
                    work, a = work // p_, a + 1
                pairs.append((p_, a))
                if work.degree < d * 2:
                    break
        d += 1
    pairs.sort(key=lambda t: (t[0].degree, code(t[0])))
    return [(p_.coeffs, a) for p_, a in pairs]


def _factors(fm):
    return [(p_.coeffs, a) for p_, a in fm.factors]


def _equal_degree_product(fld, d):
    """The product of the first degree-d primes, as many as keep
    q^deg N <= 2^24."""
    primes = fq.monic_irreducibles(fld, d)
    count = max(r for r in range(1, len(primes) + 1)
                if fld.q ** (r * d) <= 2 ** 24)
    return functools.reduce(operator.mul, primes[:count])


class TestUnitGroups:
    def test_residue_field_cyclic(self):
        u = fq.UnitGroupModN(fq.factor_modulus(fq.poly(F2, (1, 1, 1))))
        assert u.group.invariant_factors == (3,)

    def test_crt_split(self):
        u = fq.UnitGroupModN(fq.factor_modulus(fq.poly(F3, (0, 1, 1))))
        assert u.group.invariant_factors == (2, 2)

    def test_wild_part(self):
        u = fq.UnitGroupModN(fq.factor_modulus(fq.poly(F2, (0, 0, 1))))
        assert u.order == 2
        assert {str(r) for r in u.residues()} == {"1", "T + 1"}

    @pytest.mark.parametrize("fld,coeffs", [
        (F2, (0, 0, 0, 1)),
        (F2, (0, 0, 0, 0, 0, 1)),
        (F2, (1, 1, 0, 0, 1)),
        (F3, (0, 0, 1)),
        (F3, (0, 1, 0, 1)),
        (F4, (0, 1, 1)),
        (F5, (0, 0, 1)),
    ])
    def test_round_trip_and_order_formula(self, fld, coeffs):
        fm = fq.factor_modulus(fq.poly(fld, coeffs))
        u = fq.UnitGroupModN(fm)
        count = 0
        for r in u.residues():
            assert u.exp(u.dlog(r)) == r
            count += 1
        assert count == u.order == fm.unit_order()

    def test_order_formula_sweep(self):
        # |(R_T/<N>)*| = prod (q^d - 1) q^(d(a-1)) across random moduli
        rng = random.Random(11)
        for _ in range(40):
            fld = rng.choice([F2, F3])
            deg = rng.randint(1, 9 if fld is F2 else 5)
            f = fq.poly(fld, [rng.randrange(fld.q) for _ in range(deg)] + [1])
            fm = fq.factor_modulus(f)
            u = fq.UnitGroupModN(fm)
            assert u.order == fm.unit_order()

    def test_dlog_homomorphism(self):
        fm = fq.factor_modulus(fq.poly(F3, (0, 1, 0, 1)))
        u = fq.UnitGroupModN(fm)
        rs = list(u.residues())
        rng = random.Random(2)
        for _ in range(80):
            x, y = rng.choice(rs), rng.choice(rs)
            assert u.dlog(x * y % u.modulus) == \
                u.group.add(u.dlog(x), u.dlog(y))

    def test_generators_independent(self):
        fm = fq.factor_modulus(fq.poly(F2, (0, 1, 1, 0, 1, 1)))
        u = fq.UnitGroupModN(fm)
        for i, g in enumerate(u.generators):
            vec = u.dlog(g)
            assert vec == tuple(1 if j == i else 0
                                for j in range(u.group.rank))


# ---------------------------------------------------------------------------
# Structural unit groups against the greedy enumeration

def abelian_basis(elements, identity, mul):
    """The brute-force reference: independent generators of a finite
    abelian group given by its full element list and group law.

    Returns (gens, orders, dlog), the group the internal direct product
    of the <gens[i]> and dlog every element's exponent vector.  Picks
    greedily the first element of maximal order modulo the current span,
    adjusted by the span coordinates of its power landing in the span.
    The scan stops early only at an element whose coset order is the
    order of the whole quotient, which no later element can exceed.
    """
    total = len(elements)

    @functools.cache  # the scans of later rounds repeat the same powers
    def power(x, e):
        r = x if e & 1 else identity
        e >>= 1
        while e:
            x = mul(x, x)
            if e & 1:
                r = mul(r, x)
            e >>= 1
        return r

    primes = [l for l in range(2, total + 1) if total % l == 0
              and all(l % m for m in range(2, l))]

    def order_of(x):
        o = total
        for l in primes:
            while o % l == 0 and power(x, o // l) == identity:
                o //= l
        return o

    gens, orders, dlog = [], [], {identity: ()}
    while len(dlog) < total:
        best, best_c = None, 0
        for b in elements:
            if b in dlog:
                continue
            o = order_of(b)
            c = next(c for c in range(1, o + 1)
                     if o % c == 0 and power(b, c) in dlog)
            if c > best_c:
                best, best_c = b, c
            if c == total // len(dlog):  # no coset order exceeds this
                break
        b, c = best, best_c
        v = dlog[power(b, c)]
        adjusted = b
        for g, o, vi in zip(gens, orders, v):
            assert vi % c == 0
            adjusted = mul(adjusted, power(g, (-(vi // c)) % o))
        span = list(dlog.items())
        step = identity
        for j in range(1, c):
            step = mul(step, adjusted)
            for x, vec in span:
                dlog[mul(x, step)] = vec + (j,)
        for x, vec in span:
            dlog[x] = vec + (0,)
        gens.append(adjusted)
        orders.append(c)
    return gens, orders, dlog


def _assert_matches_enumeration(p_poly, a, checked=None):
    """The structural build picks the greedy generators and orders, and its
    dlog agrees with the enumerated table on every residue, or on
    `checked` residues drawn at random."""
    fld = p_poly.field
    units = fq._PrimePowerUnits(p_poly, a)
    m = fq.packed(units.modulus)
    gens, orders, dlog = abelian_basis(
        fq.unit_residues(units.modulus.degree, [p_poly]), 1,
        lambda x, y: fld.mod(fld.mul(x, y), m))
    assert [fq.packed(g) for g in units.raw_generators] == gens
    assert list(units.raw_orders) == orders
    entries = sorted(dlog.items())
    if checked is not None and checked < len(entries):
        entries = random.Random(len(entries)).sample(entries, checked)
    for x, vec in entries:
        assert tuple(units.dlog_raw(fq.from_packed(fld, x))) == vec


def _fields(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    s = 0
    while p ** s < q:
        s += 1
    return fq.fq_field(p, s)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_structural_units_match_greedy_enumeration(q):
    # every P^a of size q^(deg P^a) <= 2^10 with a >= 2, and every prime
    # P of size <= 2^8; of the primes above, whose units are cyclic and
    # which number about 1100, three seeded ones per degree.  The dlog on
    # every residue up to size 2^7, and on 16 random residues above.
    fld = _fields(q)
    rng = random.Random(q)
    degree = 1
    while q ** degree <= 2 ** 10:
        primes = fq.monic_irreducibles(fld, degree)
        if q ** degree > 2 ** 8:
            primes = rng.sample(primes, min(3, len(primes)))
        for p_poly in primes:
            a = 1
            while q ** (degree * a) <= 2 ** 10:
                _assert_matches_enumeration(
                    p_poly, a, None if q ** (degree * a) <= 2 ** 7 else 16)
                a += 1
        degree += 1


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_greedy_scan_reads_the_units_in_code_order(q):
    # the lazy scan of the structural build yields what the eager
    # enumeration lists
    fld = _fields(q)
    t, p1 = fq.monic_irreducibles(fld, 1)[:2]
    for p_, a in ((t, 3), (p1, 2), (fq.monic_irreducibles(fld, 2)[0], 1)):
        assert list(fq._PrimePowerUnits(p_, a)._codes()) == \
            fq.unit_residues(a * p_.degree, [p_])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 64, 4096])
def test_infinity_units_match_greedy_enumeration(q):
    # the units at the infinite prime are (F_q[T]/T^n)*, of size
    # (q - 1) q^(n - 1) <= 2^12; sizes up to 2^10 are in the sweep above
    fld = _fields(q)
    n = 1
    while (q - 1) * q ** (n - 1) <= 2 ** 12:
        if q ** n > 2 ** 10:
            _assert_matches_enumeration(fq.variable(fld), n)
        n += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_picks_match_the_plain_scan(q):
    # every P^a of size q^(deg P^a) <= 2^10: the same picks, orders and
    # matrix as the scan that takes every residue's coordinates each round
    # and the tame log of x^wild modulo P^a.  The dlogs of every unit where
    # a >= 2 or the size is <= 2^7, and of 16 seeded units of the other
    # primes, whose tame logs are the same computation in both builds.
    fld = _fields(q)
    rng = random.Random(q)
    degree = 1
    while q ** degree <= 2 ** 10:
        for p_poly in fq.monic_irreducibles(fld, degree):
            a = 1
            while q ** (degree * a) <= 2 ** 10:
                units, scan = fq._PrimePowerUnits(p_poly, a), \
                    ScanUnits(p_poly, a)
                assert units.raw_generators == scan.raw_generators
                assert units.raw_orders == scan.raw_orders
                assert units._to_raw == scan._to_raw
                residues = fq.unit_residues(degree * a, [p_poly])
                if a == 1 and q ** degree > 2 ** 7:
                    residues = rng.sample(residues, 16)
                for x in residues:
                    r = fq.from_packed(fld, x)
                    assert units.dlog_raw(r) == scan.dlog_raw(r)
                a += 1
        degree += 1


@pytest.mark.parametrize("p, s, a, muls, mods", [
    (2, 2, 3, 126, 158), (2, 1, 7, 153, 232)])
def test_cold_build_kernel_calls(monkeypatch, p, s, a, muls, mods):
    # the products and remainders of one build on a fresh field, with no
    # divisor or Barrett entry cached; with the tame log taken modulo P^a
    # and every residue's vector taken again each round, the build made
    # 263 and 317 for F_4[T]/T^3, and 349 and 409 for F_2[T]/T^7
    t = fq.variable(fq.FqField(p, s))
    counts = {"mul": 0, "mod": 0}
    for name in counts:
        def counted(self, *args, _name=name, _real=getattr(fq.FqField, name)):
            counts[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(fq.FqField, name, counted)
    fq._PrimePowerUnits(t, a)
    assert counts["mul"] <= muls and counts["mod"] <= mods


@pytest.mark.parametrize("p, s, a, hnfs", [(2, 2, 3, 5), (2, 1, 7, 7)])
def test_cold_build_hnf_calls(monkeypatch, p, s, a, hnfs):
    # per pick, the span and the pick's coordinates take one HNF each, and
    # the change of coordinates one for all the unit vectors; with one per
    # unit vector the build took 6 for F_4[T]/T^3 (two picks) and 9 for
    # F_2[T]/T^7 (three picks)
    calls, hnf = [], abelian.hnf
    monkeypatch.setattr(abelian, "hnf", lambda *args: (
        calls.append(args), hnf(*args))[1])
    units = fq._PrimePowerUnits(fq.variable(fq.FqField(p, s)), a)
    assert len(calls) == 2 * len(units.raw_orders) + 1 == hnfs

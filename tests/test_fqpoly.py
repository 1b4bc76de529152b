"""Tests for F_q and F_q[T] arithmetic, factorization, and unit groups."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genusfields import fqpoly as fq
from genusfields.errors import BoundExceededError, SchemaError

F2 = fq.fq_field(2)
F3 = fq.fq_field(3)
F4 = fq.fq_field(2, 2)
F5 = fq.fq_field(5)
F9 = fq.fq_field(3, 2)
F512 = fq.fq_field(2, 9)
F65521 = fq.fq_field(65521)
KERNEL_FIELDS = [F2, F3, F4, F5, F9, F512, F65521]


def schoolbook_mod(a, b):
    """Independent long-division remainder used as an oracle."""
    k = a.field
    rem = list(a.coeffs)
    while len(rem) - 1 >= b.degree and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < b.degree:
            break
        c = k.mul(rem[-1], k.inv(b.leading))
        shift = len(rem) - 1 - b.degree
        for i, y in enumerate(b.coeffs):
            rem[shift + i] = k.sub(rem[shift + i], k.mul(c, y))
        rem.pop()
    return fq.FqPoly(k, tuple(rem))


def _digits(fld, a):
    return [a // fld.p ** j % fld.p for j in range(fld.s)]


def _element(fld, ds):
    return sum(d % fld.p * fld.p ** j for j, d in enumerate(ds))


def school_field_mul(fld, a, b):
    """F_q product from base-p digit vectors, reduced by the field
    modulus one top digit at a time."""
    p, s = fld.p, fld.s
    out = [0] * (2 * s - 1)
    for i, x in enumerate(_digits(fld, a)):
        for j, y in enumerate(_digits(fld, b)):
            out[i + j] += x * y
    for top in range(2 * s - 2, s - 1, -1):
        c = out[top] % p
        for j, m in enumerate(fld.modulus):
            out[top - s + j] -= c * m
    return _element(fld, out[:s])


def school_field_add(fld, a, b):
    return _element(fld, [x + y for x, y in
                          zip(_digits(fld, a), _digits(fld, b))])


def school_field_neg(fld, a):
    return _element(fld, [-x for x in _digits(fld, a)])


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
            assert (-a).coeffs == trim(school_field_neg(fld, x) for x in acs)
            assert (a - b) + b == a
            if bcs:
                quo, rem = divmod(a, b)
                assert (quo.coeffs, rem.coeffs) == school_divmod(fld, acs, bcs)
                assert rem.degree < b.degree
                qb = school_mul(fld, quo.coeffs, bcs)
                assert fq.poly(fld, qb) + rem == a
                k = fld.kernel
                assert k.mod(fq.packed(a), fq.packed(b)) == fq.packed(rem)
            assert fq.poly(fld, acs).scale(3 % fld.q).coeffs == trim(
                school_field_mul(fld, 3 % fld.q, x) for x in acs)

    def test_frobenius_stretch(self):
        for fld in (F3, F4, F512):
            k = fld.kernel
            a = fq.poly(fld, (1, 0, fld.q - 1, 2))
            assert fq.from_packed(fld, k.frobenius(fq.packed(a), fld.q)) \
                == fq.poly(fld, stretch(a.coeffs, fld.q))

    @pytest.mark.parametrize("fld", KERNEL_FIELDS)
    def test_reduce_on_the_slot_domain(self, fld):
        # every slot value below 2^(w-1), the top ones and the largest of
        # residue p - 1 among them
        k, p = fld.kernel, fld.p
        top = (1 << (k.w - 1)) - 1
        rng = random.Random(p)
        last = top - (top + 1) % p
        slots = [0, 1, p - 1, p, top, last, last - p]
        slots += [rng.randrange(top) for _ in range(64)]
        x = sum(d << k.w * i for i, d in enumerate(slots))
        assert k.reduce(x) == sum(d % p << k.w * i
                                  for i, d in enumerate(slots))

    @pytest.mark.parametrize("fld", KERNEL_FIELDS)
    def test_capacity_keeps_slots_in_the_reduction_domain(self, fld):
        # a product of two reduced factors, the shorter with `cap`
        # coefficients, or `cap` division steps from a reduced dividend
        k, p = fld.kernel, fld.p
        assert p - 1 + k.cap * k.s * (p - 1) ** 2 < 1 << (k.w - 1)
        assert k.cap >= 2 ** 12

    @pytest.mark.parametrize("fld", [F2, F3, F4])
    def test_products_at_the_capacity(self, fld):
        # every coefficient q - 1: the coefficient of T^i of the square
        # is (q-1)^2 times the number of pairs summing to i
        k, n = fld.kernel, fld.kernel.cap
        c = fld.q - 1
        a = k.pack((c,) * n)
        square = school_field_mul(fld, c, c)
        assert k.unpack(k.mul(a, a)) == tuple(
            school_field_mul(fld, square, (min(i, 2 * n - 2 - i) + 1) % fld.p)
            for i in range(2 * n - 1))
        longer = k.pack((c,) * (n + 1))
        with pytest.raises(BoundExceededError):
            k.mul(longer, longer)
        # a division of cap + 2 steps, through one reduction
        b, x = fq.packed(fq.poly(fld, (1, 1))), a << 3 * k.group
        quo, rem = k.divmod(x, b)
        assert k.degree(quo) == n + 1 and k.add(k.mul(quo, b), rem) == x

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
        els = list(fld.elements())
        for a in els:
            assert fld.add(a, fld.neg(a)) == 0
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
        rng = random.Random(fld.q)
        for _ in range(50):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
            assert fld.mul(a, b) == fld.mul(b, a)

    def test_multiplicative_order(self):
        # the nonzero elements form a cyclic group of order q - 1
        for fld in (F4, F9):
            orders = set()
            for a in range(1, fld.q):
                o = 1
                x = a
                while x != 1:
                    x = fld.mul(x, a)
                    o += 1
                orders.add(o)
            assert max(orders) == fld.q - 1

    def test_frobenius_additive(self):
        for a in range(9):
            for b in range(9):
                assert F9.frobenius_p(F9.add(a, b)) == \
                    F9.add(F9.frobenius_p(a), F9.frobenius_p(b))


class TestPolyArith:
    def test_gcd_example(self):
        t = fq.variable(F2)
        assert fq.poly_gcd(t * t + t, t) == t

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
        g = fq.poly_gcd(a, b)
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

    def test_code_round_trip(self):
        for fld in (F2, F3, F4):
            for code in range(fld.q ** 4):
                f = fq.poly_from_code(fld, code)
                assert f.code() == code


class TestIrreducibility:
    def test_known_values(self):
        assert fq.is_irreducible(fq.poly(F2, (1, 1, 1)))
        assert not fq.is_irreducible(fq.poly(F2, (1, 0, 1)))
        with pytest.raises(SchemaError):
            fq.is_irreducible(fq.one(F2))

    def test_against_root_search_cubics_f5(self):
        # degree <= 3 is reducible exactly when it has a root
        for f in fq.monic_polys(F5, 3):
            has_root = any(f.evaluate(x) == 0 for x in range(5))
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

    def test_factored_modulus_validation(self):
        t = fq.variable(F2)
        with pytest.raises(SchemaError):
            fq.FactoredModulus(F2, ((t, 1),), t + fq.one(F2))
        with pytest.raises(SchemaError):
            fq.FactoredModulus(F2, ((t * t, 1),), t * t)


class TestUnitGroups:
    def test_residue_field_cyclic(self):
        u = fq.unit_group_mod(fq.factor_modulus(fq.poly(F2, (1, 1, 1))))
        assert u.group.invariant_factors == (3,)

    def test_crt_split(self):
        u = fq.unit_group_mod(fq.factor_modulus(fq.poly(F3, (0, 1, 1))))
        assert u.group.invariant_factors == (2, 2)

    def test_wild_part(self):
        u = fq.unit_group_mod(fq.factor_modulus(fq.poly(F2, (0, 0, 1))))
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
        u = fq.unit_group_mod(fm)
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
            u = fq.unit_group_mod(fm)
            assert u.order == fm.unit_order()

    def test_dlog_homomorphism(self):
        fm = fq.factor_modulus(fq.poly(F3, (0, 1, 0, 1)))
        u = fq.unit_group_mod(fm)
        rs = list(u.residues())
        rng = random.Random(2)
        for _ in range(80):
            x, y = rng.choice(rs), rng.choice(rs)
            assert u.dlog(x * y % u.modulus) == \
                u.group.add(u.dlog(x), u.dlog(y))

    def test_generators_independent(self):
        fm = fq.factor_modulus(fq.poly(F2, (0, 1, 1, 0, 1, 1)))
        u = fq.unit_group_mod(fm)
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
    k = fld.kernel
    units = fq._PrimePowerUnits(p_poly, a)
    m = fq.packed(units.modulus)
    gens, orders, dlog = abelian_basis(
        fq.unit_residues(units.modulus.degree, [p_poly]), 1,
        lambda x, y: k.mod(k.mul(x, y), m))
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

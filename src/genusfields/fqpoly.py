"""Arithmetic over F_q and in the polynomial ring F_q[T].

Field elements are integers in [0, q) read as base-p digit vectors on the
power basis of a fixed degree-s modulus over F_p (the lexicographically
first monic irreducible, so serialized values are reproducible).
Polynomials are immutable coefficient tuples, low degree first.

Includes irreducibility testing, trial-division factorization of moduli,
and the unit groups (F_q[T]/<N>)* with exact discrete logarithms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

from . import abelian
from .errors import AmbientMismatchError, BoundExceededError, SchemaError

FIELD_SIZE_BOUND = 2 ** 16
UNIT_ENUMERATION_BOUND = 2 ** 20


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _fp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < dm:
            break
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_irreducible(coeffs, p):
    """Irreducibility over F_p of a monic polynomial given low-to-high."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    # x^(p^i) mod f, checking gcd with x^(p^i) - x for i <= n/2
    f = list(coeffs)
    t = [0, 1]

    def mulmod(a, b):
        return _fp_poly_mod(_fp_poly_mul(a, b, p), f, p)

    def powq(a):
        r = [1]
        base = a
        e = p
        while e:
            if e & 1:
                r = mulmod(r, base)
            base = mulmod(base, base)
            e >>= 1
        return r

    def polygcd(a, b):
        a, b = list(a), list(b)
        while b:
            a, b = b, _fp_poly_mod(a, b, p)
        return a

    for i in range(1, n // 2 + 1):
        t = powq(t)
        diff = list(t)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        g = polygcd(f, diff)
        if len(g) - 1 >= 1:
            return False
    return True


@lru_cache(maxsize=64)
def _field_modulus(p, s):
    """Lexicographically first monic irreducible of degree s over F_p."""
    for low in itertools.product(range(p), repeat=s):
        coeffs = list(low) + [1]
        if coeffs[0] == 0:
            continue
        if _fp_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError("no irreducible modulus found")


class FqField:
    """The finite field with q = p^s elements, q bounded at desk scale."""

    def __init__(self, p, s=1):
        if not _is_prime(p):
            raise SchemaError(f"{p} is not prime")
        if s < 1 or p ** s > FIELD_SIZE_BOUND:
            raise BoundExceededError(
                f"field size {p}^{s} outside (1, {FIELD_SIZE_BOUND}]")
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = _field_modulus(p, s) if s > 1 else None
        self._mul_table = None
        self._inv_table = None
        if self.q <= 256:
            self._build_tables()

    def __eq__(self, other):
        return (isinstance(other, FqField)
                and (self.p, self.s) == (other.p, other.s))

    def __hash__(self):
        return hash(("FqField", self.p, self.s))

    def __repr__(self):
        return f"FqField({self.p})" if self.s == 1 else f"FqField({self.p}, {self.s})"

    def _digits(self, a):
        out = []
        for _ in range(self.s):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, ds):
        out = 0
        for d in reversed(ds):
            out = out * self.p + d
        return out

    def _mul_raw(self, a, b):
        if self.s == 1:
            return a * b % self.p
        prod_poly = _fp_poly_mul(self._digits(a), self._digits(b), self.p)
        red = _fp_poly_mod(prod_poly, list(self.modulus), self.p)
        red += [0] * (self.s - len(red))
        return self._undigits(red)

    def _build_tables(self):
        q = self.q
        table = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = self._mul_raw(a, b)
                table[a][b] = v
                table[b][a] = v
        self._mul_table = table
        inv = [0] * q
        for a in range(1, q):
            row = table[a]
            for b in range(1, q):
                if row[b] == 1:
                    inv[a] = b
                    break
        self._inv_table = inv

    def add(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        return self._undigits([(x + y) % self.p
                               for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.s == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        if a == 0:
            return 1 if e == 0 else 0
        e %= self.q - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def elements(self):
        return range(self.q)

    def frobenius_p(self, a):
        """The p-power Frobenius a -> a^p on the field."""
        return self.pow(a, self.p)


@lru_cache(maxsize=32)
def fq_field(p, s=1):
    return FqField(p, s)


@dataclass(frozen=True)
class FqPoly:
    """Polynomial in T over F_q; coefficients low degree first, trimmed."""

    field: FqField
    coeffs: tuple = field(default=())

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        for c in cs:
            if not 0 <= c < self.field.q:
                raise SchemaError(f"coefficient {c} outside [0, {self.field.q})")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        """Degree, with -1 as the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def code(self):
        """Integer encoding sum coeffs[i] * q^i, unique per polynomial."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.q + c
        return out

    def __add__(self, other):
        _same_field(self, other)
        k = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = k.add(out[i], c)
        return FqPoly(k, tuple(out))

    def __neg__(self):
        k = self.field
        return FqPoly(k, tuple(k.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_field(self, other)
        k = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly(k)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = k.add(out[i + j], k.mul(x, y))
        return FqPoly(k, tuple(out))

    def scale(self, c):
        k = self.field
        return FqPoly(k, tuple(k.mul(c, x) for x in self.coeffs))

    def __divmod__(self, other):
        _same_field(self, other)
        k = self.field
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = k.inv(other.leading)
        quo = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                f = k.mul(c, inv_lead)
                quo[i - db] = f
                for j, y in enumerate(other.coeffs):
                    rem[i - db + j] = k.sub(rem[i - db + j], k.mul(f, y))
        return FqPoly(k, tuple(quo)), FqPoly(k, tuple(rem))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        """self^e for an integer e >= 0, by repeated squaring."""
        out, base = one(self.field), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading))

    def evaluate(self, x):
        k = self.field
        out = 0
        for c in reversed(self.coeffs):
            out = k.add(k.mul(out, x), c)
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "T" if i == 1 else f"T^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(reversed(parts))


def _same_field(a, b):
    if a.field != b.field:
        raise AmbientMismatchError("polynomials over different fields")


def poly(fld, coeffs):
    return FqPoly(fld, tuple(coeffs))


def poly_from_code(fld, code):
    cs = []
    while code:
        cs.append(code % fld.q)
        code //= fld.q
    return FqPoly(fld, tuple(cs))


def variable(fld):
    return FqPoly(fld, (0, 1))


def one(fld):
    return FqPoly(fld, (1,))


def poly_gcd(a, b):
    """Monic greatest common divisor."""
    _same_field(a, b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def poly_pow_mod(base, e, modulus):
    r = one(base.field)
    base = base % modulus
    while e:
        if e & 1:
            r = r * base % modulus
        base = base * base % modulus
        e >>= 1
    return r


def is_irreducible(f):
    """Irreducibility over F_q, by Frobenius gcd sieving.

    A polynomial of degree n is irreducible exactly when it shares no
    factor with T^(q^i) - T for every i up to n/2.
    """
    n = f.degree
    if n < 1:
        raise SchemaError("irreducibility is undefined for constants")
    if n == 1:
        return True
    k = f.field
    t = variable(k) % f
    for i in range(1, n // 2 + 1):
        t = poly_pow_mod(t, k.q, f)
        if poly_gcd(f, t - variable(k)).degree >= 1:
            return False
    return True


@lru_cache(maxsize=256)
def monic_irreducibles(fld, degree):
    """All monic irreducibles of the given degree, in code order."""
    out = []
    for low in itertools.product(range(fld.q), repeat=degree):
        f = FqPoly(fld, tuple(low) + (1,))
        if is_irreducible(f):
            out.append(f)
    return tuple(out)


def monic_polys(fld, degree):
    """All monic polynomials of the given degree, in code order."""
    for low in itertools.product(range(fld.q), repeat=degree):
        yield FqPoly(fld, tuple(low) + (1,))


@dataclass(frozen=True)
class FactoredModulus:
    """A monic modulus N with its complete factorization P_1^a_1...P_r^a_r."""

    field: FqField
    factors: tuple  # ((FqPoly, multiplicity), ...) sorted by (degree, code)
    modulus: FqPoly

    def __post_init__(self):
        n = one(self.field)
        seen = set()
        for p_, a in self.factors:
            if not p_.is_monic or not is_irreducible(p_):
                raise SchemaError(f"factor {p_} is not monic irreducible")
            if p_.code() in seen:
                raise SchemaError(f"repeated factor {p_}")
            seen.add(p_.code())
            n = n * p_ ** a
        if n != self.modulus:
            raise SchemaError("factorization does not reconstruct the modulus")

    @property
    def degree(self):
        return self.modulus.degree

    def unit_order(self):
        """|(F_q[T]/<N>)*| = prod (q^d - 1) q^(d (a-1))."""
        q = self.field.q
        return prod(((q ** p_.degree - 1) * q ** (p_.degree * (a - 1))
                     for p_, a in self.factors), start=1)


def factored(fld, pairs):
    """FactoredModulus from (irreducible, multiplicity) pairs."""
    pairs = tuple(sorted(((p_, int(a)) for p_, a in pairs),
                         key=lambda t: (t[0].degree, t[0].code())))
    n = one(fld)
    for p_, a in pairs:
        n = n * p_ ** a
    return FactoredModulus(fld, pairs, n)


def factor_modulus(n):
    """Complete factorization of a polynomial of positive degree.

    Trial division over enumerated monic irreducibles by increasing degree:
    deterministic and exact at desk scale.
    """
    if n.degree < 1:
        raise SchemaError("modulus must have positive degree")
    size, bound = n.field.q ** n.degree, 2 ** 24
    if size > bound:
        raise BoundExceededError(f"F_{n.field.q}[T]/({n}) of size {size} "
                                 f"exceeds the factorization bound {bound}")
    work = n.monic()
    pairs = []
    d = 1
    while work.degree >= 1:
        # no factor of degree < d remains, so anything shorter than 2d
        # is itself irreducible
        if d * 2 > work.degree:
            pairs.append((work, 1))
            break
        for p_ in monic_irreducibles(n.field, d):
            if (work % p_).is_zero:
                a = 0
                while (work % p_).is_zero:
                    work = work // p_
                    a += 1
                pairs.append((p_, a))
                if work.degree < d * 2:
                    break
        d += 1
    return factored(n.field, pairs)


# ---------------------------------------------------------------------------
# Unit groups (F_q[T]/<N>)*

class _PrimePowerUnits:
    """Units of F_q[T]/<P^a>, enumerated, with generators and dlog."""

    def __init__(self, p_poly, a):
        self.prime = p_poly
        self.exponent = a
        fld = p_poly.field
        self.field = fld
        self.modulus = p_poly ** a
        size = fld.q ** self.modulus.degree
        if size > UNIT_ENUMERATION_BOUND:
            raise BoundExceededError(
                f"F_{fld.q}[T]/({self.modulus}) of size {size} exceeds the "
                f"enumeration bound {UNIT_ENUMERATION_BOUND}")
        units = []
        for code in range(size):
            r = poly_from_code(fld, code)
            if not (r % p_poly).is_zero:
                units.append(r.code())
        self.unit_codes = units
        mod = self.modulus

        def mul(x, y):
            return (poly_from_code(fld, x) * poly_from_code(fld, y) % mod).code()

        self._mul = mul
        gens, orders, dlog = abelian.abelian_basis(units, 1, mul)
        self.raw_generators = gens
        self.raw_orders = orders
        self._dlog = dlog

    def dlog_raw(self, residue):
        code = (residue % self.modulus).code()
        if code not in self._dlog:
            raise ValueError(f"{residue} is not a unit modulo {self.modulus}")
        return self._dlog[code]


class UnitGroupModN:
    """(F_q[T]/<N>)* with invariant-factor structure and exact dlog/exp.

    Built by CRT from the prime-power parts of N; each part's generators
    are extracted by enumeration.
    """

    def __init__(self, factored_n):
        self.factored = factored_n
        self.field = factored_n.field
        self.modulus = factored_n.modulus
        size = self.field.q ** self.modulus.degree
        if size > UNIT_ENUMERATION_BOUND:
            raise BoundExceededError(
                f"F_{self.field.q}[T]/({self.modulus}) of size {size} exceeds "
                f"the enumeration bound {UNIT_ENUMERATION_BOUND}")
        self.crt_components = tuple(_prime_power_units(p_, a)
                                    for p_, a in factored_n.factors)
        self.idempotents = crt_idempotents(factored_n)
        raw_gens = []
        raw_orders = []
        for comp in self.crt_components:
            raw_gens.extend(
                self.lift(comp.prime, poly_from_code(self.field, g))
                for g in comp.raw_generators)
            raw_orders.extend(comp.raw_orders)
        self._raw_gens = raw_gens
        self._presentation = abelian.GeneratorPresentation(raw_orders)
        self.group = self._presentation.group
        assert self.group.order == factored_n.unit_order()

    def lift(self, prime, residue):
        """Residue mod N equal to `residue` at the prime and 1 elsewhere."""
        u1 = one(self.field)
        return (u1 + (residue - u1) * self.idempotents[prime]) % self.modulus

    @property
    def order(self):
        return self.group.order

    def residues(self):
        for code in range(self.field.q ** self.modulus.degree):
            r = poly_from_code(self.field, code)
            if all(not (r % comp.prime).is_zero
                   for comp in self.crt_components):
                yield r

    def dlog(self, residue):
        """Exponent vector of a unit on the canonical generators."""
        raw = []
        for comp in self.crt_components:
            raw.extend(comp.dlog_raw(residue))
        return self._presentation.to_canonical(raw)

    def exp(self, vec):
        raw = self._presentation.from_canonical(vec)
        out = one(self.field)
        for g, e in zip(self._raw_gens, raw):
            out = out * poly_pow_mod(g, e, self.modulus) % self.modulus \
                if e else out
        return out % self.modulus

    @property
    def generators(self):
        return tuple(self.exp(tuple(1 if j == i else 0
                                    for j in range(self.group.rank)))
                     for i in range(self.group.rank))


def crt_idempotents(factored_n):
    """The CRT idempotents of N, keyed by prime P: 1 modulo the power of P
    in N, 0 modulo the rest."""
    n = factored_n.modulus
    out = {}
    for p_, a in factored_n.factors:
        pa = p_ ** a
        cof = n // pa
        out[p_] = cof * _poly_inverse(cof % pa, pa) % n
    return out


def _poly_inverse(a, modulus):
    """Inverse of a modulo `modulus` by the extended Euclidean algorithm."""
    k = a.field
    r0, r1 = modulus, a % modulus
    s0, s1 = FqPoly(k), one(k)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ZeroDivisionError(f"{a} is not invertible modulo {modulus}")
    return s0.scale(k.inv(r0.coeffs[0])) % modulus


@lru_cache(maxsize=256)
def _prime_power_units_cached(p_code, a, q_p, q_s):
    fld = fq_field(q_p, q_s)
    return _PrimePowerUnits(poly_from_code(fld, p_code), a)


def _prime_power_units(p_poly, a):
    fld = p_poly.field
    return _prime_power_units_cached(p_poly.code(), a, fld.p, fld.s)


def unit_group_mod(factored_n):
    """(F_q[T]/<N>)* with structure, dlog, and CRT components."""
    return UnitGroupModN(factored_n)

"""Arithmetic over F_q and in the polynomial ring F_q[T].

Field elements are integers in [0, q) read as base-p digit vectors on the
power basis of a fixed degree-s modulus over F_p (the lexicographically
first monic irreducible, so serialized values are reproducible).
Polynomials are immutable coefficient tuples, low degree first.

Every polynomial operation, for every q, runs on one kernel of packed
integers over F_p (`Kernel`): a product is one integer multiply by
Kronecker substitution with every slot reduced mod p at once, a
remainder by a fixed modulus two more multiplies (Barrett), and a
general division eliminates one top coefficient per step.  The unit
groups, the idele check and the Carlitz recurrence work on kernel
integers directly; `packed` and `from_packed` convert.

Includes irreducibility testing, trial-division factorization of moduli,
and the unit groups (F_q[T]/<N>)* with exact discrete logarithms.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

from . import abelian
from .errors import AmbientMismatchError, BoundExceededError, SchemaError

FIELD_SIZE_BOUND = 2 ** 16
UNIT_ENUMERATION_BOUND = 2 ** 20
_TYPECODES = {16: "H", 32: "I", 64: "Q"}   # slot width in bits -> array code


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _repeat(pattern, period, bits):
    """`pattern` repeated every `period` bits over at least `bits` bits."""
    count = bits // period + 1
    return pattern * (((1 << (period * count)) - 1) // ((1 << period) - 1))


class Kernel:
    """F_q[T] on packed integers over F_p, q = p^s.

    An integer is cut into w-bit slots.  Coefficient i of a polynomial
    owns the 2s - 1 slots from slot (2s - 1) i on: its base-p digits fill
    the first s and the others stay zero, so that the product of two
    coefficients, of x-degree up to 2s - 2, lands in its own group.  A
    product is then one integer multiply (Kronecker substitution; Harvey,
    J. Symb. Comput. 44, 2009), the x-degrees s .. 2s - 2 folded back by
    the field modulus, and every slot reduced mod p at once.  Arguments
    and results are reduced, every slot below p, except for `reduce`.
    `reduce` is exact on slots below 2^(w - 1), and `cap` keeps every
    slot below that: it bounds the shorter factor of a product, and a
    division reduces after every `cap` steps.
    """

    def __init__(self, fld):
        p, s = fld.p, fld.s
        self.p, self.s, self.q = p, s, fld.q
        self.stride = 2 * s - 1
        # the narrowest slot whose `cap` exceeds 2^11 coefficients
        self.w = w = next(w for w in _TYPECODES if s * p * p << 12 < 1 << w)
        self.group = w * self.stride
        self.cap = ((1 << (w - 1)) - p) // (s * (p - 1) ** 2)
        self._limit = self.cap * self.group
        self._code = _TYPECODES[w]
        self._slot = (1 << w) - 1
        # field element c -> its s digits, then s - 1 zero slots
        self._place = tuple(p ** j for j in range(s)) + (fld.q,) * (s - 1)
        # floor(d m / 2^shift) = floor(d / p) for every slot value
        # d < 2^(w - 1) (Granlund and Montgomery, PLDI 1994)
        self._shift = w - 1 + (p - 1).bit_length()
        self._magic = -(-(1 << self._shift) // p)
        self._folds = ()
        if s > 1:
            base = fq_field(p)
            m = FqPoly(base, fld.modulus)
            self._folds = tuple(
                (j, sum(c << (w * i) for i, c in enumerate(
                    (FqPoly(base, (0,) * j + (1,)) % m).coeffs)))
                for j in range(s, self.stride))
        self._bits = 0
        self._grow(1 << 12)
        # per divisor b: the rows and l^-1 of `divmod`, and Barrett's mu
        self._divisors, self._reducers = {}, {}

    def _grow(self, bits):
        """Masks for integers of up to `bits` bits, with room for the
        products `reduce` forms."""
        w, g = self.w, self.group
        self._bits = bits = max(bits, 2 * self._bits)
        bits += 4 * g
        self._ones = _repeat(1, w, bits)
        self._even = _repeat(self._slot, 2 * w, bits)
        self._high = _repeat(((1 << (2 * w)) - 1) >> self._shift
                             << self._shift, 2 * w, bits)
        self._plane = _repeat(self._slot, g, bits)
        self._keep = _repeat((1 << (w * self.s)) - 1, g, bits)

    def reduce(self, x):
        """Every slot of x mod p."""
        if x >> self._bits:
            self._grow(x.bit_length())
        if self.p == 2:     # a slot mod 2 is its low bit
            return x & self._ones
        w, even, high, magic, shift = (self.w, self._even, self._high,
                                       self._magic, self._shift)
        quo = (((x & even) * magic & high) >> shift
               | (((x >> w) & even) * magic & high) >> shift << w)
        return x - self.p * quo

    def pack(self, coeffs):
        """The kernel integer of field elements, low degree first."""
        p = self.p
        slots = coeffs if self.s == 1 else [
            c // d % p for c in coeffs for d in self._place]
        return int.from_bytes(array(self._code, slots).tobytes(),
                              sys.byteorder)

    def _slots(self, x):
        """The slots of x, padded to whole coefficients."""
        out = array(self._code)
        out.frombytes(x.to_bytes(-(-x.bit_length() // self.group)
                                 * self.group // 8, sys.byteorder))
        return out

    def unpack(self, x):
        """The coefficient tuple of a reduced kernel integer."""
        slots = self._slots(x)
        out = slots[self.s - 1::self.stride]
        for j in range(self.s - 2, -1, -1):
            out = [c * self.p + d for c, d in zip(out, slots[j::self.stride])]
        return tuple(out)

    def degree(self, x):
        return (x.bit_length() - 1) // self.group

    def add(self, a, b):
        """a + b for reduced a and b: slot by slot, a xor for p = 2."""
        return a ^ b if self.p == 2 else self.reduce(a + b)

    def sub(self, a, b):
        return a ^ b if self.p == 2 else self.reduce(a + (self.p - 1) * b)

    def neg(self, a):
        return self.reduce((self.p - 1) * a)

    def mul(self, a, b):
        if a >> self._limit and b >> self._limit:
            raise BoundExceededError(
                f"product of two polynomials over F_{self.q} with more "
                f"than {self.cap} coefficients each exceeds the slot width")
        x = self.reduce(a * b)
        if not self._folds:
            return x
        for j, row in self._folds:
            x += ((x >> (self.w * j)) & self._plane) * row
        return self.reduce(x & self._keep)

    def inverse(self, c):
        """c^-1 = c^(q-2) for a nonzero constant c, by repeated squaring."""
        out, e = 1, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, c)
            c, e = self.mul(c, c), e >> 1
        return out

    def _cached(self, cache, b, build):
        if b not in cache:
            if len(cache) >= 256:
                cache.clear()
            cache[b] = build(b)
        return cache[b]

    def _divisor(self, b):
        """For b of leading coefficient l: the rows x^j l^-1 b, j < s,
        that clear one top coefficient each, and l^-1."""
        inv = self.inverse(b >> self.group * self.degree(b))
        return tuple(self.mul(b, self.mul(inv, 1 << self.w * j))
                     for j in range(self.s)), inv

    def divmod(self, x, b):
        """Quotient and remainder of x by b != 0."""
        n = self.degree(b)
        rows, inv = self._cached(self._divisors, b, self._divisor)
        w, g, p, slot = self.w, self.group, self.p, self._slot
        quo = steps = 0
        while x >> (g * n):
            if steps == self.cap:
                x, steps = self.reduce(x), 0
            steps += 1
            i = (x.bit_length() - 1) // g
            top, shift = x >> (g * i), g * (i - n)
            for j, row in enumerate(rows):
                d = ((top >> w * j) & slot) % p
                if d:
                    x += (p - d) * row << shift
                    quo += d << (w * j + shift)
            x &= (1 << (g * i)) - 1
        if inv != 1:
            quo = self.mul(quo, inv)
        return quo, self.reduce(x)

    def _reducer(self, b):
        """deg b and floor(T^(2 deg b - 2) / b)."""
        n = self.degree(b)
        return n, self.divmod(1 << self.group * (2 * n - 2), b)[0] if n else 0

    def mod(self, x, b):
        """x mod b != 0.  For deg x <= 2 deg b - 2,
        as after a product, the quotient is floor(floor(x / T^n) mu /
        T^(n-2)) with mu = floor(T^(2n-2) / b) (Barrett's reduction, exact
        over a field), so the remainder costs two multiplies."""
        n, mu = self._cached(self._reducers, b, self._reducer)
        d = self.degree(x)
        if n <= d <= 2 * n - 2:
            g = self.group
            quo = self.mul(x >> g * n, mu) >> g * (n - 2)
            return self.sub(x, self.mul(quo, b))
        return x if d < n else self.divmod(x, b)[1]

    def pow_mod(self, x, e, m):
        """x^e modulo m, by repeated squaring."""
        out, x = 1, self.mod(x, m)
        while e:
            if e & 1:
                out = self.mod(self.mul(out, x), m)
            e >>= 1
            if e:
                x = self.mod(self.mul(x, x), m)
        return out

    def frobenius(self, x, e):
        """x(T^e): coefficient i moves to degree e i."""
        slots, g = self._slots(x), self.stride
        out = array(self._code, bytes(
            (max(len(slots) - g, 0) * e + g) * self.w // 8))
        for j in range(self.s):
            out[j::g * e] = slots[j::g]
        return int.from_bytes(out.tobytes(), sys.byteorder)

    def monomials(self, degree):
        """The F_p-basis c T^i (c = 1, x, .., x^(s-1); i < degree) of the
        polynomials of degree < `degree`, in code order."""
        return [1 << self.w * (self.stride * i + j)
                for i in range(degree) for j in range(self.s)]

    def span(self, basis):
        """Every F_p-combination of `basis`, unreduced, the coefficient of
        the first vector varying fastest: code order for `monomials`."""
        out = [0]
        for e in basis:
            out = [x + d * e for d in range(self.p) for x in out]
        return out


@lru_cache(maxsize=64)
def _field_modulus(p, s):
    """Lexicographically first monic irreducible of degree s over F_p."""
    base = fq_field(p)
    for low in itertools.product(range(p), repeat=s):
        if low[0] and is_irreducible(FqPoly(base, low + (1,))):
            return low + (1,)
    raise RuntimeError("no irreducible modulus found")


class FqField:
    """The finite field with q = p^s elements, q bounded at desk scale.

    For s > 1 the operations read flat tables up to q = 256, and above it
    run on the kernel, where a product is reduced by the field modulus.
    """

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
        self.kernel = Kernel(self)
        self._add = self._neg = self._mul = self._inv = None
        if s > 1 and self.q <= 256:
            # one row per kernel operation: the polynomial whose
            # coefficient of T^b is b, times or plus a constant a
            k, q = self.kernel, self.q
            every, ones = k.pack(range(q)), k.pack((1,) * q)

            def row(x):
                out = k.unpack(x)
                return out + (0,) * (q - len(out))

            add = [c for a in range(q) for c in row(
                k.add(k.mul(k.pack((a,)), ones), every))]
            mul = [c for a in range(q) for c in row(
                k.mul(k.pack((a,)), every))]
            inv = [0] + [mul.index(1, a * q, (a + 1) * q) - a * q
                         for a in range(1, q)]
            self._add, self._neg, self._mul, self._inv = (
                add, row(k.neg(every)), mul, inv)

    def __eq__(self, other):
        return (isinstance(other, FqField)
                and (self.p, self.s) == (other.p, other.s))

    def __hash__(self):
        return hash(("FqField", self.p, self.s))

    def __repr__(self):
        return f"FqField({self.p})" if self.s == 1 else f"FqField({self.p}, {self.s})"

    def _scalar(self, x):
        return self.kernel.unpack(x)[0] if x else 0

    def _on_kernel(self, op, *elements):
        k = self.kernel
        return self._scalar(op(*(k.pack((a,)) for a in elements)))

    def add(self, a, b):
        if self.s == 1:
            return (a + b) % self.p
        if self._add:
            return self._add[a * self.q + b]
        return self._on_kernel(self.kernel.add, a, b)

    def neg(self, a):
        if self.s == 1:
            return (-a) % self.p
        if self._neg:
            return self._neg[a]
        return self._on_kernel(self.kernel.neg, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.s == 1:
            return a * b % self.p
        if self._mul:
            return self._mul[a * self.q + b]
        return self._on_kernel(self.kernel.mul, a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv:
            return self._inv[a]
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
        return from_packed(self.field, self.field.kernel.add(
            packed(self), packed(other)))

    def __neg__(self):
        return from_packed(self.field, self.field.kernel.neg(packed(self)))

    def __sub__(self, other):
        _same_field(self, other)
        return from_packed(self.field, self.field.kernel.sub(
            packed(self), packed(other)))

    def __mul__(self, other):
        _same_field(self, other)
        return from_packed(self.field, self.field.kernel.mul(
            packed(self), packed(other)))

    def scale(self, c):
        k = self.field.kernel
        return from_packed(self.field, k.mul(k.pack((c,)), packed(self)))

    def __divmod__(self, other):
        _same_field(self, other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quo, rem = self.field.kernel.divmod(packed(self), packed(other))
        return from_packed(self.field, quo), from_packed(self.field, rem)

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


def packed(f):
    """The kernel integer of a polynomial, packed once per object."""
    x = f.__dict__.get("_packed")
    if x is None:
        x = f.field.kernel.pack(f.coeffs)
        object.__setattr__(f, "_packed", x)
    return x


def from_packed(fld, x, coeffs=None):
    """The polynomial of a reduced kernel integer.  Its coefficients are
    in range by construction, so `__post_init__` does not check them."""
    f = object.__new__(FqPoly)
    object.__setattr__(f, "field", fld)
    object.__setattr__(f, "coeffs", fld.kernel.unpack(x)
                       if coeffs is None else coeffs)
    object.__setattr__(f, "_packed", x)
    return f


def poly(fld, coeffs):
    return FqPoly(fld, tuple(coeffs))


def poly_from_code(fld, code):
    cs = []
    while code:
        cs.append(code % fld.q)
        code //= fld.q
    cs = tuple(cs)
    return from_packed(fld, fld.kernel.pack(cs), cs)


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
    k, m = base.field.kernel, packed(modulus)
    return from_packed(base.field, k.pow_mod(packed(base), e, m))


@lru_cache(maxsize=4096)
def is_irreducible(f):
    """Irreducibility over F_q, by Frobenius gcd sieving.

    A polynomial of degree n is irreducible exactly when it shares no
    factor with T^(q^i) - T for every i up to n/2.  Memoised, so a factor
    that `monic_irreducibles` enumerated, or that `FactoredModulus`
    checked before, is not proved again.
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
        k, m = fld.kernel, packed(self.modulus)

        def mul(x, y):
            return k.mod(k.mul(x, y), m)

        gens, orders, dlog = abelian.abelian_basis(
            unit_residues(self.modulus.degree, [p_poly]), 1, mul)
        self.raw_generators = tuple(from_packed(fld, g) for g in gens)
        self.raw_orders = orders
        self._dlog = dlog

    def dlog_raw(self, residue):
        k = self.field.kernel
        x = k.mod(packed(residue), packed(self.modulus))
        if x not in self._dlog:
            raise ValueError(f"{residue} is not a unit modulo {self.modulus}")
        return self._dlog[x]


def unit_mask(degree, primes):
    """Whether each residue of degree < `degree`, in code order, is a unit
    modulo a modulus with the prime factors `primes`: not a multiple P t
    of a prime P.  The multiples span the products P x^j T^i."""
    k = primes[0].field.kernel
    multiples = {k.reduce(x) for p_ in primes for x in k.span(
        [k.mul(packed(p_), e) for e in k.monomials(degree - p_.degree)])}
    return [x not in multiples for x in k.span(k.monomials(degree))]


def unit_residues(degree, primes):
    """Kernel integers of the units modulo a modulus of the given degree
    with the prime factors `primes`, in code order."""
    k = primes[0].field.kernel
    return list(itertools.compress(k.span(k.monomials(degree)),
                                   unit_mask(degree, primes)))


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
            raw_gens.extend(self.lift(comp.prime, g)
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
        for x in unit_residues(self.modulus.degree,
                               [comp.prime for comp in self.crt_components]):
            yield from_packed(self.field, x)

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
    fld = factored_n.field
    k, n = fld.kernel, packed(factored_n.modulus)
    out = {}
    for p_, a in factored_n.factors:
        pa = packed(p_ ** a)
        cof = k.divmod(n, pa)[0]
        inv = _inverse(k, k.mod(cof, pa), pa)
        out[p_] = from_packed(fld, k.mod(k.mul(cof, inv), n))
    return out


def _inverse(k, a, m):
    """a^-1 modulo m, kernel integers, by the extended Euclidean
    algorithm."""
    r0, r1, s0, s1 = m, a, 0, 1
    while r1:
        quo, rem = k.divmod(r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, k.sub(s0, k.mul(quo, s1))
    if k.degree(r0):
        raise ZeroDivisionError("not invertible modulo the modulus")
    return k.mod(k.mul(s0, k.inverse(r0)), m)


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

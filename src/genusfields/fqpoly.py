"""Arithmetic over F_q and in the polynomial ring F_q[T].

Field elements are integers in [0, q) read as base-p digit vectors on the
power basis of a fixed degree-s modulus over F_p (the lexicographically
first monic irreducible, so serialized values are reproducible).

A polynomial has two forms: its coefficients, low degree first, for
input and printing (`FqPoly`), and its kernel integer (`packed`,
`from_packed`) for arithmetic, ordering and cache keys.  Kernel integers
order polynomials by degree, then by coefficients from the top, so "code
order" below means increasing kernel integer.

`FqField` is the kernel, on packed integers over F_p: a product is one
integer multiply by Kronecker substitution with every slot reduced mod p
at once, a remainder by a fixed modulus two more multiplies (Barrett),
and a general division eliminates one top coefficient per step.  A field
element of F_q is a constant polynomial.

Includes irreducibility testing, Cantor-Zassenhaus factorization of
moduli, and the unit groups (F_q[T]/<N>)* with exact discrete logarithms,
built by CRT on the base they share with (Z/nZ)* (`abelian.CRTUnitGroup`),
one per modulus (`unit_group`).
"""

from __future__ import annotations

import itertools
import operator
import random
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


def _repeat(pattern, period, bits):
    """`pattern` repeated every `period` bits over at least `bits` bits."""
    count = bits // period + 1
    return pattern * (((1 << (period * count)) - 1) // ((1 << period) - 1))


class FqField:
    """The finite field F_q, q = p^s <= 2^16, and F_q[T] on packed
    integers over F_p: the kernel of every polynomial operation.

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

    def __init__(self, p, s=1):
        if abelian.factorize(p) != [(p, 1)]:
            raise SchemaError(f"{p} is not prime")
        if s < 1 or p ** s > FIELD_SIZE_BOUND:
            raise BoundExceededError(
                f"field size {p}^{s} outside (1, {FIELD_SIZE_BOUND}]")
        self.p, self.s, self.q = p, s, p ** s
        self.modulus = _field_modulus(p, s) if s > 1 else None
        self.stride = 2 * s - 1
        # the narrowest slot whose `cap` exceeds 2^11 coefficients
        self.w = w = next(w for w in _TYPECODES if s * p * p << 12 < 1 << w)
        self.group = w * self.stride
        self.cap = ((1 << (w - 1)) - p) // (s * (p - 1) ** 2)
        self._limit = self.cap * self.group
        self._code = _TYPECODES[w]
        self._slot = (1 << w) - 1
        # field element c -> its s digits, then s - 1 zero slots
        self._place = tuple(p ** j for j in range(s)) + (self.q,) * (s - 1)
        # floor(d m / 2^shift) = floor(d / p) for every slot value
        # d < 2^(w - 1) (Granlund and Montgomery, PLDI 1994)
        self._shift = w - 1 + (p - 1).bit_length()
        self._magic = -(-(1 << self._shift) // p)
        self._folds = ()
        if s > 1:
            base = fq_field(p)
            m = FqPoly(base, self.modulus)
            self._folds = tuple(
                (j, sum(c << (w * i) for i, c in enumerate(
                    (FqPoly(base, (0,) * j + (1,)) % m).coeffs)))
                for j in range(s, self.stride))
        self._bits = 0
        self._grow(1 << 12)
        # per divisor b: the rows and l^-1 of `divmod`, and Barrett's mu
        self._divisors, self._reducers = {}, {}

    def __eq__(self, other):
        return (isinstance(other, FqField)
                and (self.p, self.s) == (other.p, other.s))

    def __hash__(self):
        return hash(("FqField", self.p, self.s))

    def __repr__(self):
        return f"FqField({self.p})" if self.s == 1 else f"FqField({self.p}, {self.s})"

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

    def reduced_set(self, values, degree):
        """The set of `reduce(x)` over `values`, unreduced integers of
        polynomials of degree < `degree`, as byte strings: the values are
        laid side by side in slices of whole coefficients and reduced a
        batch at a time, each batch as wide as the masks, so that they do
        not grow."""
        width = degree * self.group // 8
        per = max(self._bits // (8 * width), 1)
        out = set()
        for i in range(0, len(values), per):
            batch = values[i:i + per]
            flat = self.reduce(int.from_bytes(b"".join(
                [x.to_bytes(width, "little") for x in batch]), "little")
            ).to_bytes(width * len(batch), "little")
            out.update(flat[j:j + width] for j in range(0, len(flat), width))
        return out

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
        """c^-1 = c^(q-2) for a nonzero constant c."""
        return self.pow(c, self.q - 2)

    def _cached(self, cache, b, build):
        if b not in cache:
            if len(cache) >= 256:
                cache.clear()
            cache[b] = build(b)
        return cache[b]

    def _rows(self, b):
        """For monic b: the rows x^j b, j < s, that clear a top digit each."""
        return (b,) + tuple(self.mul(b, 1 << self.w * j)
                            for j in range(1, self.s))

    def _divisor(self, b):
        """For b of leading coefficient l: the rows of l^-1 b, and l^-1."""
        inv = self.inverse(b >> self.group * self.degree(b))
        return self._rows(self.mul(b, inv)), inv

    def _divide(self, x, rows, n, quotient):
        """(Quotient if asked, remainder) of x by the monic divisor with
        these rows and degree n."""
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
                    if quotient:
                        quo += d << (w * j + shift)
            x &= (1 << (g * i)) - 1
        return quo, self.reduce(x)

    def divmod(self, x, b):
        """Quotient and remainder of x by b != 0."""
        rows, inv = self._cached(self._divisors, b, self._divisor)
        quo, rem = self._divide(x, rows, self.degree(b), True)
        return (quo if inv == 1 else self.mul(quo, inv)), rem

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

    def pow(self, x, e, m=None):
        """x^e, by repeated squaring; with a modulus m != 0, x^e mod m,
        reduced after every product."""
        out = 1
        if m is not None:
            out, x = self.mod(1, m), self.mod(x, m)
        while e:
            if e & 1:
                out = self.mul(out, x)
                if m is not None:
                    out = self.mod(out, m)
            e >>= 1
            if e:
                x = self.mul(x, x)
                if m is not None:
                    x = self.mod(x, m)
        return out

    def monic(self, x):
        """x divided by its leading coefficient; 0 stays 0."""
        lead = x >> self.group * max(self.degree(x), 0)
        return x if lead <= 1 else self.mul(x, self.inverse(lead))

    def gcd(self, a, b):
        """The monic gcd of a and b by Euclid on monic remainders, each
        used once, so none gets a quotient or a `_divisors` entry."""
        while b:
            b = self.monic(b)
            a, b = b, self._divide(a, self._rows(b), self.degree(b), False)[1]
        return self.monic(a)

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
        """Every F_p-combination of `basis`, the coefficient of the first
        vector varying fastest: code order for `monomials`.  The sums are
        reduced for p = 2 (XORs of reduced vectors) and on `monomials` (one
        digit below p per slot); otherwise they are unreduced."""
        out = [0]
        for e in basis:
            out = out + [x ^ e for x in out] if self.p == 2 else [
                x + d * e for d in range(self.p) for x in out]
        return out


@lru_cache(maxsize=64)
def _field_modulus(p, s):
    """Lexicographically first monic irreducible of degree s over F_p."""
    base = fq_field(p)
    for low in itertools.product(range(p), repeat=s):
        if low[0] and is_irreducible(FqPoly(base, low + (1,))):
            return low + (1,)
    raise RuntimeError("no irreducible modulus found")


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

    def __add__(self, other):
        _same_field(self, other)
        return from_packed(self.field, self.field.add(
            packed(self), packed(other)))

    def __sub__(self, other):
        _same_field(self, other)
        return from_packed(self.field, self.field.sub(
            packed(self), packed(other)))

    def __mul__(self, other):
        _same_field(self, other)
        return from_packed(self.field, self.field.mul(
            packed(self), packed(other)))

    def scale(self, c):
        fld = self.field
        return from_packed(fld, fld.mul(fld.pack((c,)), packed(self)))

    def __divmod__(self, other):
        _same_field(self, other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quo, rem = self.field.divmod(packed(self), packed(other))
        return from_packed(self.field, quo), from_packed(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e, modulus=None):
        """self^e for an integer e >= 0, by repeated squaring; with a
        modulus, pow(f, e, m), reduced modulo m after every product."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        m = None
        if modulus is not None:
            _same_field(self, modulus)
            if modulus.is_zero:
                raise ZeroDivisionError("reduction by the zero polynomial")
            m = packed(modulus)
        return from_packed(self.field, self.field.pow(packed(self), e, m))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

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
        x = f.field.pack(f.coeffs)
        object.__setattr__(f, "_packed", x)
    return x


def from_packed(fld, x):
    """The polynomial of a reduced kernel integer.  Its coefficients are
    in range by construction, so `__post_init__` does not check them."""
    f = object.__new__(FqPoly)
    object.__setattr__(f, "field", fld)
    object.__setattr__(f, "coeffs", fld.unpack(x))
    object.__setattr__(f, "_packed", x)
    return f


def poly(fld, coeffs):
    return FqPoly(fld, tuple(coeffs))


def variable(fld):
    return FqPoly(fld, (0, 1))


def one(fld):
    return FqPoly(fld, (1,))


@lru_cache(maxsize=4096)
def is_irreducible(f):
    """Irreducibility over F_q, by Frobenius gcd sieving.

    A polynomial of degree n is irreducible exactly when it shares no
    factor with T^(q^i) - T for every i up to n/2.  Memoised, so a factor
    that `monic_irreducibles` enumerated, or that `FactoredModulus`
    checked before, is not proved again.
    """
    if f.degree < 1:
        raise SchemaError("irreducibility is undefined for constants")
    k, m = f.field, packed(f)
    t = h = 1 << k.group
    for _ in range(f.degree // 2):
        h = k.pow(h, k.q, m)
        if k.gcd(m, k.sub(h, t)) != 1:
            return False
    return True


@lru_cache(maxsize=256)
def monic_irreducibles(fld, degree):
    """All monic irreducibles of the given degree, in the order of
    `monic_polys`."""
    return tuple(filter(is_irreducible, monic_polys(fld, degree)))


def monic_polys(fld, degree):
    """All monic polynomials of the given degree, by their coefficients
    (c_0, .., c_(degree-1)) in lexicographic order."""
    for low in itertools.product(range(fld.q), repeat=degree):
        yield FqPoly(fld, tuple(low) + (1,))


@dataclass(frozen=True)
class FactoredModulus:
    """A monic modulus N with its complete factorization P_1^a_1...P_r^a_r."""

    field: FqField
    factors: tuple  # ((FqPoly, multiplicity), ...) in code order
    modulus: FqPoly

    def __post_init__(self):
        seen = set()
        for p_, a in self.factors:
            _same_field(p_, self.modulus)
            if not p_.is_monic or not is_irreducible(p_):
                raise SchemaError(f"factor {p_} is not monic irreducible")
            if packed(p_) in seen:
                raise SchemaError(f"repeated factor {p_}")
            seen.add(packed(p_))
        if _product(self.field, self.factors) != packed(self.modulus):
            raise SchemaError("factorization does not reconstruct the modulus")

    def unit_order(self):
        """|(F_q[T]/<N>)*| = prod (q^d - 1) q^(d (a-1))."""
        q = self.field.q
        return prod(((q ** p_.degree - 1) * q ** (p_.degree * (a - 1))
                     for p_, a in self.factors), start=1)


def _product(fld, pairs):
    """The kernel integer of the product of P^a over the (P, a) pairs."""
    out = 1
    for p_, a in pairs:
        out = fld.mul(out, fld.pow(packed(p_), a))
    return out


def factored(fld, pairs):
    """FactoredModulus from (irreducible, multiplicity) pairs."""
    pairs = tuple(sorted(((p_, int(a)) for p_, a in pairs),
                         key=lambda t: packed(t[0])))
    return FactoredModulus(fld, pairs, from_packed(fld, _product(fld, pairs)))


_SPLIT_SEED = 0


def _equal_degree_factors(k, g, d, rng):
    """The monic prime factors of g, a squarefree product of primes of
    degree d, by equal-degree splitting (Cantor and Zassenhaus): for a
    random a, gcd(g, a^((q^d - 1)/2) - 1), or for p = 2 gcd(g, a + a^2 +
    .. + a^(2^(sd - 1))), takes each prime of g with chance about 1/2."""
    out, todo = [], [g]
    while todo:
        g = todo.pop()
        n = k.degree(g)
        if n == d:
            out.append(g)
            continue
        a = k.pack([rng.randrange(k.q) for _ in range(n)])
        if k.p == 2:
            b = x = a
            for _ in range(k.s * d - 1):
                x = k.mod(k.mul(x, x), g)
                b = k.add(b, x)
        else:
            b = k.sub(k.pow(a, (k.q ** d - 1) // 2, g), 1)
        u = k.gcd(g, b)
        todo += [u, k.divmod(g, u)[0]] if 0 < k.degree(u) < n else [g]
    return out


def factor_modulus(n):
    """Complete factorization of a polynomial of positive degree.

    Distinct-degree factorization, then equal-degree splitting, on kernel
    integers (Cantor and Zassenhaus, Math. Comp. 36, 1981): for d = 1, 2,
    .., gcd(w, T^(q^d) - T) is the product of the degree-d primes of the
    cofactor w left, each divided out as often as it divides.  The result
    is unique, so it does not depend on the seed of the splitting.
    """
    if n.degree < 1:
        raise SchemaError("modulus must have positive degree")
    size, bound = n.field.q ** n.degree, 2 ** 24
    if size > bound:
        raise BoundExceededError(f"F_{n.field.q}[T]/({n}) of size {size} "
                                 f"exceeds the factorization bound {bound}")
    fld = n.field
    rng = random.Random(_SPLIT_SEED)
    work, t, pairs = fld.monic(packed(n)), 1 << fld.group, []
    h, d = t, 0
    # h is T^(q^d) modulo a multiple of work, which `pow` reduces; no
    # prime of degree <= d is left in work, so below degree 2 (d + 1) it
    # is 1 or prime
    while fld.degree(work) >= 2 * (d + 1):
        d += 1
        h = fld.pow(h, fld.q, work)
        g = fld.gcd(work, fld.sub(h, t))
        if g == 1:
            continue
        for p_ in _equal_degree_factors(fld, g, d, rng):
            a = 0
            quo, rem = fld.divmod(work, p_)
            while not rem:
                work, a = quo, a + 1
                quo, rem = fld.divmod(work, p_)
            pairs.append((from_packed(fld, p_), a))
    if work != 1:
        pairs.append((from_packed(fld, work), 1))
    return factored(fld, pairs)


# ---------------------------------------------------------------------------
# Unit groups (F_q[T]/<N>)*

def _check_enumeration_bound(modulus):
    q = modulus.field.q
    if q ** modulus.degree > UNIT_ENUMERATION_BOUND:
        raise BoundExceededError(
            f"F_{q}[T]/({modulus}) of size {q ** modulus.degree} exceeds the "
            f"enumeration bound {UNIT_ENUMERATION_BOUND}")


class _PrimePowerUnits:
    """Units of F_q[T]/<P^a> by structure, C_(q^d - 1) x U^(1): the
    coordinates of a unit x are the log of x mod P (`abelian.CyclicLog` in
    (F_q[T]/P)*, onto which reduction maps the Teichmueller subgroup
    isomorphically) and base-p digits on the 1-units 1 + c T^j P^k, whose
    p-th power relations give the structure.  The raw generators are those
    the greedy scan of the residues in code order picks
    (`abelian.greedy_basis`, which skips a residue of too small an order
    before its coordinates are taken), and one matrix takes (log, digits)
    to coordinates on them."""

    def __init__(self, p_poly, a):
        fld = self.field = p_poly.field
        pm = packed(p_poly)
        powers = list(itertools.accumulate([pm] * a, fld.mul))  # P^1 .. P^a
        self.prime, self.modulus = p_poly, from_packed(fld, powers[-1])
        _check_enumeration_bound(self.modulus)
        m = powers[-1]
        self._pow = lambda x, e: fld.pow(x, e, m)
        self._mul = lambda x, y: fld.mod(fld.mul(x, y), m)
        cyc = self._cyc = fld.q ** p_poly.degree - 1
        self._unwild = pow(cyc, -1, (cyc + 1) ** (a - 1))  # mod |U^(1)|
        # the first unit in code order with a primitive reduction mod P; it
        # has degree < deg P, as all residues mod P come first
        root = next(x for x in self._codes() if all(
            fld.pow(x, cyc // l, pm) != 1 for l, _ in abelian.factorize(cyc)))
        self._log = abelian.CyclicLog(
            root, cyc, lambda x, e: fld.pow(x, e, pm),
            lambda x, y: fld.mod(fld.mul(x, y), pm))
        gens = [fld.add(1, fld.mul(x, pj)) for pj in powers[:-1]
                for x in fld.monomials(p_poly.degree)]
        w = fld.s * p_poly.degree
        # (1 + y P^k)^(p^t) = 1 + y^(p^t) P^(k p^t) is 1 once k p^t >= a,
        # so a generator of layer k has its (p^t - 1)-th power as inverse
        exponents = [next(fld.p ** t for t in itertools.count()
                          if k * fld.p ** t >= a) for k in range(1, a)]
        # per layer: P^k and the powers 0 .. p-1 of its generators' inverses
        inverses = [list(itertools.accumulate(
            [self._pow(g, exponents[i // w] - 1)] * (fld.p - 1), self._mul,
            initial=1)) for i, g in enumerate(gens)]
        self._layers = [(pj, inverses[w * j:w * (j + 1)])
                        for j, pj in enumerate(powers[:-1])]
        diag, v, _ = abelian.snf_with_transform(
            [[cyc] + [0] * len(gens)] + [
                [0] + [fld.p * (i == j) - e for j, e in
                       enumerate(self._digits(self._pow(g, fld.p)))]
                for i, g in enumerate(gens)], len(gens) + 1)
        kept = [j for j, d in enumerate(diag) if d > 1]
        group = abelian.FiniteAbelianGroup(tuple(diag[j] for j in kept))
        v = [[row[j] for j in kept] for row in v]
        gens, self.raw_orders, to_picks = abelian.greedy_basis(
            group, self._codes,
            lambda x: group.reduce(_times(self._coordinates(x), v)),
            self._pow, self._mul)
        self.raw_generators = tuple(from_packed(fld, g) for g in gens)
        self._to_raw = [_times(row, to_picks) for row in v]

    def _codes(self):
        """Kernel integers of the units modulo P^a, in code order."""
        k, pm = self.field, packed(self.prime)
        for cs in itertools.product(range(k.q), repeat=self.modulus.degree):
            x = k.pack(cs[::-1])
            if k.mod(x, pm):
                yield x

    def _digits(self, x):
        """Base-p digits of the 1-unit x: at layer k, those of (x - 1) / P^k
        mod P, then x divided by the generators to them."""
        k, s, pm = self.field, self.field.s, packed(self.prime)
        out = []
        for pk, powers in self._layers:
            slots = k._slots(k.mod(k.divmod(k.sub(x, 1), pk)[0], pm))
            for i, row in enumerate(powers):
                slot = k.stride * (i // s) + i % s
                d = slots[slot] if slot < len(slots) else 0
                out.append(d)
                if d:
                    x = self._mul(x, row[d])
        if x != 1:
            raise RuntimeError("1-unit digits did not reach 1")
        return out

    def _coordinates(self, x):
        """(log, digits) of the unit x: the log of x mod P (the log's
        powers reduce x mod P), and x^cyc has cyc times x's 1-unit
        digits."""
        t = self._log(x) if self._cyc > 1 else 0
        return [t] + [d * self._unwild for d in (
            self._digits(self._pow(x, self._cyc)) if self._layers else ())]

    def dlog_raw(self, residue):
        k = self.field
        x = k.mod(packed(residue), packed(self.modulus))
        if not k.mod(x, packed(self.prime)):
            raise ValueError(f"{residue} is not a unit modulo {self.modulus}")
        return tuple(c % o for c, o in zip(
            _times(self._coordinates(x), self._to_raw), self.raw_orders))


# one build per prime power, shared by every modulus it divides
_prime_power_units = lru_cache(maxsize=256)(_PrimePowerUnits)


def _times(vec, matrix):
    """The integer row vector vec times matrix."""
    return [sum(map(operator.mul, vec, col)) for col in zip(*matrix)]


def unit_mask(degree, primes):
    """Whether each residue of degree < `degree`, in code order, is a unit
    modulo a modulus with the prime factors `primes`: not a multiple P t
    of a prime P.  The multiples span the products P x^j T^i."""
    k = primes[0].field
    multiples = itertools.chain.from_iterable(k.span(
        [k.mul(packed(p_), e) for e in k.monomials(degree - p_.degree)])
        for p_ in primes)   # reduced for p = 2 (`FqField.span`)
    multiples = set(multiples if k.p == 2 else map(k.reduce, multiples))
    return [x not in multiples for x in k.span(k.monomials(degree))]


def unit_residues(degree, primes):
    """Kernel integers of the units modulo a modulus of the given degree
    with the prime factors `primes`, in code order."""
    k = primes[0].field
    return list(itertools.compress(k.span(k.monomials(degree)),
                                   unit_mask(degree, primes)))


class UnitGroupModN(abelian.CRTUnitGroup):
    """(F_q[T]/<N>)* with invariant-factor structure and exact dlog/exp,
    by CRT from the prime-power parts of N (`abelian.CRTUnitGroup`), each
    built from its structure."""

    kind = "function"

    def __init__(self, factored_n):
        self.field = factored_n.field
        self.modulus = factored_n.modulus
        self.factorization = factored_n.factors
        self.one = one(self.field)
        _check_enumeration_bound(self.modulus)
        self.crt_components = tuple(_prime_power_units(p_, a)
                                    for p_, a in factored_n.factors)
        self.idempotents = crt_idempotents(factored_n)
        self._present((comp.prime, zip(comp.raw_generators, comp.raw_orders))
                      for comp in self.crt_components)
        assert self.group.order == factored_n.unit_order()

    def residues(self):
        for x in unit_residues(self.modulus.degree,
                               [comp.prime for comp in self.crt_components]):
            yield from_packed(self.field, x)

    def dlog(self, residue):
        """Exponent vector of a unit on the canonical generators."""
        return self.to_canonical(
            [e for comp in self.crt_components for e in comp.dlog_raw(residue)])

    def _level_raw(self, key, b):
        """U^(b), b >= 1, of (F_q[T]/P^a)* on its raw generators: the raw
        dlogs of the layer generators 1 + c T^j P^k, k >= b, which are the
        rows of `_PrimePowerUnits._to_raw` from digit s deg(P) (b - 1) on."""
        comp = next(c for c in self.crt_components if c.prime == key)
        return comp._to_raw[1 + self.field.s * key.degree * (b - 1):]

    def infinity_logs(self):
        """The image of the units at the infinite prime is the constants
        F_q*: the dlog of their least generator (one column in
        `abelian.pairing_kernel` instead of q - 1)."""
        fld = self.field
        primes = [l for l, _ in abelian.factorize(fld.q - 1)]
        c = next(c for c in (poly(fld, (a,)) for a in range(1, fld.q))
                 if all(c ** ((fld.q - 1) // l) != self.one for l in primes))
        return (self.dlog(c),)

    def component_ambient(self, component):
        return unit_group(factored(
            self.field, [(component.key, component.exponent)]))

    def reduction_kernel(self, m):
        """Units congruent to 1 modulo the monic divisor m."""
        return [u for u in self.residues() if ((u - self.one) % m).is_zero]

    def infinity_residues(self):
        """Every unit at infinity, as a residue: the constants 1..q - 1."""
        return [poly(self.field, (c,)) for c in range(1, self.field.q)]


# one unit group per modulus: `factored` puts the factors in code order,
# so the factorization is the same key however it was built.  Bound in the
# module of its class, whose __module__ an lru_cache takes: a cache bound
# elsewhere is missed by whatever clears each module's own caches.
unit_group = lru_cache(maxsize=512)(UnitGroupModN)


def crt_idempotents(factored_n):
    """The CRT idempotents of N, keyed by prime P: 1 modulo the power of P
    in N, 0 modulo the rest (the cofactor inverted by Euler's theorem)."""
    fld = factored_n.field
    n = packed(factored_n.modulus)
    out = {}
    for p_, a in factored_n.factors:
        pa, qd = packed(p_ ** a), fld.q ** p_.degree
        cof = fld.divmod(n, pa)[0]
        inv = fld.pow(cof, qd ** a - qd ** (a - 1) - 1, pa)  # |units| - 1
        out[p_] = from_packed(fld, fld.mod(fld.mul(cof, inv), n))
    return out

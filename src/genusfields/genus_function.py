"""Function-field side: Carlitz module arithmetic, genus computations for
cyclotomic extensions of F_q(T), the finite idele-quotient isomorphism,
and the invariants of the field S carrying the infinite prime's data.

The genus and extended genus groups of a character group mod N come from
the one pipeline in `genus_number`; the entry points here check that the
modulus is a polynomial.  The infinite prime sits at pi = 1/T; its local
units are modeled by the finite quotient F_q* x U^(1)/U^(n_max) with a
free integer coordinate for the pi-valuation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import reduce
from math import gcd

from . import abelian, characters, fqpoly, genus_number
from .errors import (
    AmbientMismatchError,
    BoundExceededError,
    PrecisionError,
    SchemaError,
)


# ---------------------------------------------------------------------------
# Carlitz module

def _poly_frobenius(a, power=1):
    """a(T) -> a(T)^(q^power) in F_q[T]: exponents stretch by q^power."""
    if a.is_zero:
        return a
    stretch = a.field.q ** power
    out = [0] * (a.degree * stretch + 1)
    for i, c in enumerate(a.coeffs):
        out[i * stretch] = c
    return fqpoly.FqPoly(a.field, tuple(out))


@dataclass(frozen=True)
class CarlitzOperator:
    """An F_q-linear (additive) polynomial sum coeffs[i] * x^(q^i), with
    coefficients in F_q[T]."""

    field: fqpoly.FqField
    coeffs: tuple  # FqPoly entries, index i belongs to x^(q^i)

    def __post_init__(self):
        cs = tuple(self.coeffs)
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def linear_degree(self):
        """Largest i with a nonzero x^(q^i) term, -1 for the zero operator."""
        return len(self.coeffs) - 1

    def __add__(self, other):
        _same(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return CarlitzOperator(self.field, tuple(out))

    def compose(self, other):
        """self(other(x)) as an additive polynomial."""
        _same(self, other)
        zero = fqpoly.FqPoly(self.field)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1) \
            if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * _poly_frobenius(b, i)
        return CarlitzOperator(self.field, tuple(out))

    def evaluate(self, x):
        """Value at a polynomial argument."""
        out = fqpoly.FqPoly(self.field)
        power = x
        for i, a in enumerate(self.coeffs):
            if i:
                power = power ** self.field.q
            if not a.is_zero:
                out = out + a * power
        return out

    def __eq__(self, other):
        return (isinstance(other, CarlitzOperator)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))


def _same(a, b):
    if a.field != b.field:
        raise AmbientMismatchError("operators over different fields")


def carlitz_identity(fld):
    return CarlitzOperator(fld, (fqpoly.one(fld),))


def carlitz_t(fld):
    """C_T: x -> T x + x^q."""
    return CarlitzOperator(fld, (fqpoly.variable(fld), fqpoly.one(fld)))


def carlitz_operator(m):
    """C_M for M in F_q[T]: F_q-linear in M and multiplicative under
    composition, generated from C_T(x) = Tx + x^q."""
    fld = m.field
    zero = CarlitzOperator(fld, ())
    if m.is_zero:
        return zero
    powers = [carlitz_identity(fld)]
    ct = carlitz_t(fld)
    for _ in range(m.degree):
        powers.append(ct.compose(powers[-1]))
    out = zero
    for j, c in enumerate(m.coeffs):
        if c:
            scaled = CarlitzOperator(
                fld, tuple(a.scale(c) for a in powers[j].coeffs))
            out = out + scaled
    return out


def torsion_order_check(n):
    """Number of N-torsion points of the Carlitz module: q^(deg N).

    Verified from the expanded operator: the x^1 coefficient equals N
    itself (so the torsion polynomial is separable for N != 0) and the
    top term sits at x^(q^(deg N)).
    """
    if n.is_zero:
        raise SchemaError("torsion of the zero polynomial is undefined")
    q = n.field.q
    if q ** n.degree > 2 ** 24:
        raise BoundExceededError(
            f"Carlitz torsion of a degree-{n.degree} modulus over F_{q} of "
            f"size {q ** n.degree} exceeds the desk bound {2 ** 24}")
    op = carlitz_operator(n)
    if op.linear_degree != n.degree:
        raise RuntimeError("operator degree mismatch")
    if op.coeffs[0] != n:
        raise RuntimeError("x-coefficient of C_N must be N; separability fails")
    lead = op.coeffs[-1]
    if lead.degree != 0:
        raise RuntimeError("leading additive coefficient is not constant")
    return q ** n.degree


# ---------------------------------------------------------------------------
# Finite idele-quotient isomorphism

def idele_quotient_check(factored_n, rng_seed=0):
    """Constructive check that the product of the local unit quotients at
    the primes dividing N recombines to (F_q[T]/<N>)*.

    Builds the CRT section explicitly, maps every tuple of local units,
    and verifies injectivity, the unit count, residue recovery, and
    multiplicativity on sampled pairs.
    """
    fld = factored_n.field
    n = factored_n.modulus
    if fld.q ** n.degree > 2 ** 13:
        raise BoundExceededError(
            f"F_{fld.q}[T]/({n}) of size {fld.q ** n.degree} exceeds the "
            f"elementwise-check bound {2 ** 13}")
    factors = factored_n.factors
    if not factors:
        return True
    blocks = [(p_, a, p_ ** a) for p_, a in factors]
    # CRT idempotents: e_i = 1 at block i, 0 elsewhere
    idems = list(fqpoly.crt_idempotents(factored_n).values())
    for (p_, a, pa), idem in zip(blocks, idems):
        if not ((idem - fqpoly.one(fld)) % pa).is_zero:
            raise RuntimeError("idempotent is not 1 on its own block")
        for q_, b, qb in blocks:
            if q_ != p_ and not (idem % qb).is_zero:
                raise RuntimeError("idempotent does not vanish off its block")
    acc = idems[0]
    for idem in idems[1:]:
        acc = acc + idem
    if not ((acc - fqpoly.one(fld)) % n).is_zero:
        raise RuntimeError("idempotents do not sum to 1")

    if fld.q == 2 and fld.s == 1:
        return _idele_check_gf2(fld, n, blocks, idems,
                                factored_n.unit_order(), rng_seed)
    blocks = [(p_, a, pa, _unit_residues(fld, p_, pa))
              for p_, a, pa in blocks]

    width = n.degree
    if fld.s == 1:
        p = fld.p

        def encode(f):
            cs = f.coeffs + (0,) * (width - len(f.coeffs))
            return cs

        def combine(x, y):
            return tuple((u + v) % p for u, v in zip(x, y))
    else:
        def encode(f):
            return f

        def combine(x, y):
            return x + y

    # per block, precompute e_i * u mod N for every local unit u
    mapped_blocks = []
    for (p_, a, pa, units), idem in zip(blocks, idems):
        mapped_blocks.append([encode(idem * u % n) for u in units])
    partial = list(mapped_blocks[0])
    for block in mapped_blocks[1:]:
        partial = [combine(x, y) for x in partial for y in block]
    images = set(partial)
    expected = factored_n.unit_order()
    if len(partial) != expected or len(images) != expected:
        return False
    # residue recovery and multiplicativity on sampled tuples
    rng = random.Random(rng_seed)
    samples = [tuple(rng.randrange(len(b[3])) for b in blocks)
               for _ in range(min(8, expected))]
    for pick in samples:
        r = _crt_combine(fld, n, blocks, idems, pick)
        for (p_, a, pa, units), i in zip(blocks, pick):
            if not ((r - units[i]) % pa).is_zero:
                return False
    for _ in range(min(8, expected)):
        x = tuple(rng.randrange(len(b[3])) for b in blocks)
        y = tuple(rng.randrange(len(b[3])) for b in blocks)
        rx = _crt_combine(fld, n, blocks, idems, x)
        ry = _crt_combine(fld, n, blocks, idems, y)
        prod_residues = tuple(
            blocks[j][3][x[j]] * blocks[j][3][y[j]] % blocks[j][2]
            for j in range(len(blocks)))
        direct = fqpoly.FqPoly(fld)
        for (p_, a, pa, units), idem, r_ in zip(blocks, idems, prod_residues):
            direct = direct + idem * r_
        if (rx * ry - direct) % n != fqpoly.FqPoly(fld):
            return False
    return True


def _clmul(a, b):
    """Carryless (GF(2)[T]) product of two polynomial codes."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _clmod(a, m):
    """Remainder of a modulo m in GF(2)[T] codes; m nonzero."""
    mb = m.bit_length()
    ab = a.bit_length()
    while ab >= mb:
        a ^= m << (ab - mb)
        ab = a.bit_length()
    return a


def _idele_check_gf2(fld, n, blocks, idems, expected, rng_seed):
    """Code-level specialization of the elementwise check over F_2, where
    polynomial codes add by xor and multiply carrylessly."""
    n_code = n.code()
    unit_codes = []
    pa_codes = []
    for p_, a, pa in blocks:
        p_code = p_.code()
        pa_codes.append(pa.code())
        unit_codes.append([c for c in range(1 << pa.degree)
                           if _clmod(c, p_code)])
    mapped_blocks = []
    for codes, idem in zip(unit_codes, idems):
        e_code = idem.code()
        mapped_blocks.append([_clmod(_clmul(e_code, c), n_code)
                              for c in codes])
    partial = list(mapped_blocks[0])
    for block in mapped_blocks[1:]:
        partial = [x ^ y for x in partial for y in block]
    if len(partial) != expected or len(set(partial)) != expected:
        return False
    idem_codes = [idem.code() for idem in idems]
    rng = random.Random(rng_seed)
    for _ in range(min(8, expected)):
        pick = [rng.randrange(len(codes)) for codes in unit_codes]
        r = 0
        for codes, e_code, i in zip(unit_codes, idem_codes, pick):
            r ^= _clmod(_clmul(e_code, codes[i]), n_code)
        for codes, pa_code, i in zip(unit_codes, pa_codes, pick):
            if _clmod(r ^ codes[i], pa_code):
                return False
    for _ in range(min(8, expected)):
        x = [rng.randrange(len(codes)) for codes in unit_codes]
        y = [rng.randrange(len(codes)) for codes in unit_codes]
        rx = ry = direct = 0
        for codes, e_code, pa_code, i, j in zip(
                unit_codes, idem_codes, pa_codes, x, y):
            rx ^= _clmod(_clmul(e_code, codes[i]), n_code)
            ry ^= _clmod(_clmul(e_code, codes[j]), n_code)
            prod = _clmod(_clmul(codes[i], codes[j]), pa_code)
            direct ^= _clmod(_clmul(e_code, prod), n_code)
        if _clmod(_clmul(rx, ry) ^ direct, n_code):
            return False
    return True


def _crt_combine(fld, n, blocks, idems, pick):
    out = fqpoly.FqPoly(fld)
    for (p_, a, pa, units), idem, i in zip(blocks, idems, pick):
        out = out + idem * units[i]
    return out % n


def _unit_residues(fld, p_, pa):
    out = []
    for code in range(fld.q ** pa.degree):
        r = fqpoly.poly_from_code(fld, code)
        if not (r % p_).is_zero:
            out.append(r)
    return out


def all_factored_moduli(fld, max_size):
    """Every monic modulus N with q^(deg N) <= max_size, in factored form."""
    max_deg = 0
    while fld.q ** (max_deg + 1) <= max_size:
        max_deg += 1
    irreducibles = []
    for d in range(1, max_deg + 1):
        irreducibles.extend(fqpoly.monic_irreducibles(fld, d))

    out = []

    def rec(idx, remaining_deg, chosen):
        if chosen:
            out.append(fqpoly.factored(fld, chosen))
        for i in range(idx, len(irreducibles)):
            p_ = irreducibles[i]
            if p_.degree > remaining_deg:
                break
            a = 1
            while p_.degree * a <= remaining_deg:
                rec(i + 1, remaining_deg - p_.degree * a, chosen + [(p_, a)])
                a += 1

    rec(0, max_deg, [])
    return out


# ---------------------------------------------------------------------------
# Genus at the finite primes (cyclotomic character groups)

def _polynomial_modulus(x):
    if x.ambient.kind != "function":
        raise SchemaError("expected a polynomial-modulus character group")
    return x


def extended_genus_characters_ff(x):
    """Product of the P-components of X: the cyclotomic character group of
    the extension maximal unramified at the finite primes."""
    return genus_number.extended_genus_characters(_polynomial_modulus(x))


def constants_kernel_part(x):
    """Members trivial on the constants F_q* inside the units."""
    return genus_number.plus_part(_polynomial_modulus(x))


def genus_characters_ff(x):
    """X joined with the part of the extended group trivial on constants;
    the index of the result in the extended group divides q - 1."""
    extended = extended_genus_characters_ff(x)
    out = characters.join(x, constants_kernel_part(extended))
    if (x.ambient.field.q - 1) % (extended.order // out.order):
        raise RuntimeError("genus index must divide q - 1")
    return out


def component_fields(x):
    """Per prime P of the modulus: degree of the P-component field and the
    conductor exponent of P in it, as in the genus report."""
    report = genus_number.build_report(_polynomial_modulus(x))
    return {key: (e, f) for key, e, _, _, f in report.primes}


def tame_ramification_ff(d_p, e, q):
    """gcd(q^d_P - 1, e): the tame ramification index at a prime of
    degree d_P."""
    return gcd(q ** d_p - 1, e)


def ep_degree_from_local(p_, level, norm_subgroups, ramification_indices=None):
    """[E_P : k] as the index of the product of the norm subgroups in the
    units modulo P^level; optionally also the tame gcd."""
    amb = characters.ff_ambient(fqpoly.factored(p_.field, [(p_, level)]))
    subs = []
    for h in norm_subgroups:
        if h.ambient != amb.group:
            raise SchemaError("norm subgroup lives at a different level")
        subs.append(h)
    if not subs:
        raise SchemaError("at least one norm subgroup required")
    degree = reduce(abelian.product, subs).index
    if ramification_indices is None:
        return degree
    tame = reduce(gcd, ramification_indices, p_.field.q ** p_.degree - 1)
    return degree, tame


# ---------------------------------------------------------------------------
# The infinite prime: finite model of the local units

class InfinityUnits:
    """F_q* x U^(1)/U^(n_max) at pi = 1/T, as a concrete abelian group.

    Elements are pairs (c, tail) with c a nonzero constant and tail the
    coefficients (a_1, ..., a_{n_max-1}) of a 1-unit 1 + a_1 pi + ...
    truncated at pi^n_max.
    """

    def __init__(self, fld, n_max):
        if n_max < 1:
            raise SchemaError("n_max must be at least 1")
        size = (fld.q - 1) * fld.q ** (n_max - 1)
        if size > 2 ** 12:
            raise BoundExceededError(
                f"infinite-prime quotient F_{fld.q}* x U^(1)/U^({n_max}) of "
                f"size {size} exceeds the bound {2 ** 12}")
        self.field = fld
        self.n_max = n_max
        self.identity = (1, (0,) * (n_max - 1))
        els = []
        for c in range(1, fld.q):
            for tail in itertools.product(range(fld.q), repeat=n_max - 1):
                els.append((c, tail))
        self.element_list = els
        self._mul_cache = {}
        gens, orders, dlog = abelian.abelian_basis(
            els, self.identity, self.mul)
        self._raw_gens = gens
        self._raw_dlog = dlog
        self._presentation = abelian.GeneratorPresentation(orders)
        self.group = self._presentation.group

    def mul(self, x, y):
        """(c, 1 + sum a_i pi^i) * (d, 1 + sum b_i pi^i), truncated."""
        fld = self.field
        c = fld.mul(x[0], y[0])
        a = (1,) + x[1]
        b = (1,) + y[1]
        out = [0] * self.n_max
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    if v and i + j < self.n_max:
                        out[i + j] = fld.add(out[i + j], fld.mul(u, v))
        return (c, tuple(out[1:]))

    def dlog(self, x):
        return self._presentation.to_canonical(self._raw_dlog[x])

    def exp(self, vec):
        raw = self._presentation.from_canonical(vec)
        out = self.identity
        for g, e in zip(self._raw_gens, raw):
            for _ in range(e):
                out = self.mul(out, g)
        return out

    def subgroup(self, elements):
        """Subgroup of the canonical group generated by concrete elements."""
        return abelian.subgroup_from_generators(
            self.group, [self.dlog(x) for x in elements])

    def full_subgroup(self):
        return abelian.full_subgroup(self.group)

    def one_units_subgroup(self, n):
        """Image of U^(n): 1-units congruent to 1 modulo pi^n (n >= 1);
        n = 0 gives the whole quotient."""
        if n == 0:
            return self.full_subgroup()
        els = [x for x in self.element_list
               if x[0] == 1 and not any(x[1][:n - 1])]
        return self.subgroup(els)


@dataclass(frozen=True)
class InfinitePrimeRecord:
    """One prime of K above the infinite prime of k."""

    e: int
    t: int
    norm_subgroup: object = None  # Subgroup of the InfinityUnits group

    def __post_init__(self):
        if self.e < 1 or self.t < 1:
            raise SchemaError("e and t must be positive")


@dataclass(frozen=True)
class InfinitePrimeData:
    primes_above_infinity: tuple

    def __post_init__(self):
        if not self.primes_above_infinity:
            raise SchemaError("at least one infinite prime required")

    @property
    def has_norm_data(self):
        return all(rec.norm_subgroup is not None
                   for rec in self.primes_above_infinity)


@dataclass(frozen=True)
class SFieldInvariants:
    t0: int
    n0: int
    m0: int
    alpha: int       # [k_inf^* : script-S] = p^alpha
    f_infinity: int


def _minimal_p_power_index_supergroup(group, sub, p):
    """Smallest supergroup of `sub` with p-power index: adjoin the
    prime-to-p powers of everything."""
    order = group.order
    cof = order
    while cof % p == 0:
        cof //= p
    # p-part of the order; scaling by it kills p-torsion in the quotient
    ppart = order // cof
    gens = list(sub.lattice)
    for i in range(group.rank):
        e = [0] * group.rank
        e[i] = ppart
        gens.append(tuple(e))
    return abelian.subgroup_from_generators(group, gens)


def s_field_invariants(data, infinity):
    """Invariants (t0, n0, m0, alpha) of the field S attached to the
    behavior at the infinite prime.

    t0 is the gcd of the residue degrees; the group script-S is the
    smallest p-power-index supergroup of the product of the norm
    subgroups; alpha is its index exponent; n0 the first level whose
    1-units land inside script-S; m0 combines t0 with the residual
    ramification over the level-n0 field.
    """
    recs = data.primes_above_infinity
    t0 = reduce(gcd, (rec.t for rec in recs))
    # f_infinity from the pi-valuation coordinate of the norm lattice:
    # the value group of the compositum's norms is generated by the t_i
    f_lattice = abelian.hnf([(rec.t,) for rec in recs], 1)
    f_inf = f_lattice[0][0]
    if not data.has_norm_data:
        # no unit-level data: treat the unit norms as full
        script_s = infinity.full_subgroup()
    else:
        subs = []
        for rec in recs:
            h = rec.norm_subgroup
            if h.ambient != infinity.group:
                raise SchemaError(
                    "norm subgroup lives in a different infinite-prime model")
            subs.append(h)
        product = reduce(abelian.product, subs)
        script_s = _minimal_p_power_index_supergroup(
            infinity.group, product, infinity.field.p)
    index = script_s.index
    alpha = 0
    while index % infinity.field.p == 0:
        index //= infinity.field.p
        alpha += 1
    if index != 1:
        raise RuntimeError("script-S index is not a p-power")

    n0 = infinity.n_max
    for n in range(infinity.n_max):
        image = infinity.one_units_subgroup(n)
        if abelian.product(script_s, image) == script_s:
            n0 = n
            break
    if n0 == infinity.n_max:
        # the level-n_max image is trivial, so containment there says
        # nothing about the next level
        raise PrecisionError(
            "level n_max is too coarse to certify n0; raise n_max")
    # ramification of S over its intersection with the level-n0 field:
    # the 1-units at level n0 already lie inside script-S, so the index
    # of their join measures any residual ramification
    join = abelian.product(script_s, infinity.one_units_subgroup(n0))
    e_res = join.order // script_s.order
    m0 = t0 * e_res
    return SFieldInvariants(t0=t0, n0=n0, m0=m0, alpha=alpha,
                            f_infinity=f_inf)

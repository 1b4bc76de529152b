"""Function-field side: Carlitz module arithmetic, genus computations for
cyclotomic extensions of F_q(T), the finite idele-quotient isomorphism,
and the invariants of the field S carrying the infinite prime's data.

The genus and extended genus groups of a character group mod N come from
the one pipeline in `genus_number`; the entry points here check that the
modulus is a polynomial.  The infinite prime sits at pi = 1/T; its local
units are modeled by the finite quotient F_q* x U^(1)/U^(n_max), which is
(F_q[T]/T^n_max)* under pi -> T and so reuses the unit group of the
finite primes, with a free integer coordinate for the pi-valuation.
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
        """self(other(x)) as an additive polynomial: a x^(q^i) after
        b x^(q^j) is a b(T^(q^i)) x^(q^(i+j))."""
        _same(self, other)
        fld = self.field
        k = fld.kernel
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) \
            if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                stretched = k.frobenius(fqpoly.packed(b), fld.q ** i)
                out[i + j] = k.add(out[i + j],
                                   k.mul(fqpoly.packed(a), stretched))
        return CarlitzOperator(fld, tuple(fqpoly.from_packed(fld, x)
                                          for x in out))

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
    composition, generated from C_T(x) = Tx + x^q.

    Coefficient j of C_(T^(i+1)) = C_T o C_(T^i) is T a_ij + a_i,j-1(T^q),
    on kernel integers."""
    fld = m.field
    k = fld.kernel
    row = [1]
    out = [0] * (m.degree + 1)
    for i, c in enumerate(m.coeffs):
        if i:
            row = [k.add(a << k.group, k.frobenius(b, fld.q))
                   for a, b in zip(row + [0], [0] + row)]
        if c:
            c = k.pack((c,))
            for j, a in enumerate(row):
                out[j] = k.add(out[j], k.mul(c, a))
    return CarlitzOperator(fld, tuple(fqpoly.from_packed(fld, a)
                                      for a in out))


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
    k, n_k = fld.kernel, fqpoly.packed(n)
    blocks = [(p_, p_ ** a) for p_, a in factors]
    moduli = [fqpoly.packed(pa) for _, pa in blocks]
    # CRT idempotents: e_i = 1 at block i, 0 elsewhere
    idems = [fqpoly.packed(e)
             for e in fqpoly.crt_idempotents(factored_n).values()]
    for m, idem in zip(moduli, idems):
        if k.mod(idem, m) != 1:
            raise RuntimeError("idempotent is not 1 on its own block")
        if any(k.mod(idem, other) for other in moduli if other != m):
            raise RuntimeError("idempotent does not vanish off its block")
    if k.mod(reduce(k.add, idems), n_k) != 1:
        raise RuntimeError("idempotents do not sum to 1")

    # u -> e_i u mod N is F_p-linear, so the images of all residues mod
    # P^a are the F_p-combinations of the images of the monomials
    units, images = [], []
    for (p_, pa), idem in zip(blocks, idems):
        basis = k.monomials(pa.degree)
        mask = fqpoly.unit_mask(pa.degree, [p_])
        units.append(list(itertools.compress(k.span(basis), mask)))
        images.append(list(itertools.compress(k.span(
            [k.mod(k.mul(idem, e), n_k) for e in basis]), mask)))
    partial = images[0]
    for block in images[1:]:
        partial = [x + y for x in partial for y in block]
    expected = factored_n.unit_order()
    if len(partial) != expected \
            or len({k.reduce(x) for x in partial}) != expected:
        return False

    # residue recovery and multiplicativity on sampled tuples, by products
    def combine(residues):
        return k.mod(k.reduce(sum(map(k.mul, idems, residues))), n_k)

    rng = random.Random(rng_seed)
    for _ in range(min(8, expected)):
        pick = [rng.choice(block) for block in units]
        r = combine(pick)
        if any(k.mod(r, m) != u for u, m in zip(pick, moduli)):
            return False
    for _ in range(min(8, expected)):
        x = [rng.choice(block) for block in units]
        y = [rng.choice(block) for block in units]
        direct = combine([k.mod(k.mul(u, v), m)
                          for u, v, m in zip(x, y, moduli)])
        if k.mod(k.mul(combine(x), combine(y)), n_k) != direct:
            return False
    return True


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
    truncated at pi^n_max.  Under pi -> T the quotient is the unit group
    of F_q[[pi]]/(pi^n_max) = F_q[T]/(T^n_max) (Hayes, Trans. AMS 189,
    1974), so the pair is the unit c (1 + a_1 T + ...) of the ambient
    mod T^n_max, and U^(n) is that unit group's 1-units at level n.
    """

    def __init__(self, fld, n_max):
        if n_max < 1:
            raise SchemaError("n_max must be at least 1")
        # the size is at least 2^(n_max - 1), so beyond n_max = 14 it is
        # named, not formed: n_max may be huge
        size = (fld.q - 1) * fld.q ** (n_max - 1) if n_max <= 14 else \
            f"{fld.q - 1}*{fld.q}^{n_max - 1}"
        if n_max > 14 or size > 2 ** 12:
            raise BoundExceededError(
                f"infinite-prime quotient F_{fld.q}* x U^(1)/U^({n_max}) of "
                f"size {size} exceeds the bound {2 ** 12}")
        self.field = fld
        self.n_max = n_max
        self.ambient = characters.ff_ambient(
            fqpoly.factored(fld, [(fqpoly.variable(fld), n_max)]))
        self.group = self.ambient.group

    def dlog(self, x):
        c, tail = x
        return self.ambient.dlog(
            fqpoly.poly(self.field, (1,) + tuple(tail)).scale(c))

    def subgroup(self, elements):
        """Subgroup of the canonical group generated by concrete elements."""
        return abelian.subgroup_from_generators(
            self.group, [self.dlog(x) for x in elements])

    def full_subgroup(self):
        return abelian.full_subgroup(self.group)

    def one_units_subgroup(self, n):
        """Image of U^(n): 1-units congruent to 1 modulo pi^n (n >= 1);
        n = 0 gives the whole quotient."""
        (t, _), = self.ambient.factorization
        return abelian.subgroup_from_generators(
            self.group, self.ambient.units.one_units(t, n))


@dataclass(frozen=True)
class InfinitePrimeRecord:
    """One prime of K above the infinite prime of k."""

    e: int
    t: int
    # Subgroup of InfinityUnits.group: (F_q[T]/T^n_max)* under pi -> T
    norm_subgroup: object = None

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
    # t0 is also f_infinity: the value group of the compositum's norms is
    # generated by the t_i
    t0 = reduce(gcd, (rec.t for rec in recs))
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
                            f_infinity=t0)

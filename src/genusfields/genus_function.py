"""Function-field side: Carlitz module arithmetic, genus computations for
cyclotomic extensions of F_q(T), the finite idele-quotient isomorphism,
and the invariants of the field S carrying the infinite prime's data.

The genus and extended genus groups of a character group mod N come from
the one pipeline in `genus_number`; the entry points here check that the
modulus is a polynomial.  The infinite prime sits at pi = 1/T; its local
units are modeled by the finite quotient F_q* x U^(1)/U^(n_max), which is
(F_q[T]/T^n_max)* under pi -> T and so reuses the unit group of the
finite primes; the pi-valuation of the norms is read off the residue
degrees t, not modeled as a coordinate.  Its norm data goes through the
local-data path of every place in `genus_number` (`PrimeAboveData`,
`lp_degree_from_local`, `lp_degree_is_stable`), as the data at p^level
and P^level does.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd

from . import abelian, fqpoly, genus_number
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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) \
            if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                stretched = fld.frobenius(fqpoly.packed(b), fld.q ** i)
                out[i + j] = fld.add(out[i + j],
                                     fld.mul(fqpoly.packed(a), stretched))
        return CarlitzOperator(fld, tuple(fqpoly.from_packed(fld, x)
                                          for x in out))


def _same(a, b):
    if a.field != b.field:
        raise AmbientMismatchError("operators over different fields")


@lru_cache(maxsize=8)
def carlitz_operator(m):
    """C_M for M in F_q[T]: F_q-linear in M and multiplicative under
    composition, generated from C_T(x) = Tx + x^q.

    Coefficient j of C_(T^(i+1)) = C_T o C_(T^i) is T a_ij + a_i,j-1(T^q),
    on kernel integers.  Memoised per M, so `torsion_order_check` reads
    the operator its caller has just built."""
    fld = m.field
    row = [1]
    out = [0] * (m.degree + 1)
    for i, c in enumerate(m.coeffs):
        if i:
            row = [fld.add(a << fld.group, fld.frobenius(b, fld.q))
                   for a, b in zip(row + [0], [0] + row)]
        if c:
            c = fld.pack((c,))
            for j, a in enumerate(row):
                out[j] = fld.add(out[j], fld.mul(c, a))
    return CarlitzOperator(fld, tuple(fqpoly.from_packed(fld, a)
                                      for a in out))


def torsion_order_check(n):
    """Number of N-torsion points of the Carlitz module: q^(deg N).

    Verified from the expanded operator, `carlitz_operator(n)` (built once
    per N and memoised): the x^1 coefficient equals N itself (so the
    torsion polynomial is separable for N != 0) and the top term sits at
    x^(q^(deg N)).
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

def idele_quotient_check(factored_n):
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
    n_k = fqpoly.packed(n)
    blocks = [(p_, p_ ** a) for p_, a in factors]
    moduli = [fqpoly.packed(pa) for _, pa in blocks]
    # CRT idempotents: e_i = 1 at block i, 0 elsewhere
    idems = [fqpoly.packed(e)
             for e in fqpoly.crt_idempotents(factored_n).values()]
    for m, idem in zip(moduli, idems):
        if fld.mod(idem, m) != 1:
            raise RuntimeError("idempotent is not 1 on its own block")
        if any(fld.mod(idem, other) for other in moduli if other != m):
            raise RuntimeError("idempotent does not vanish off its block")
    if fld.mod(reduce(fld.add, idems), n_k) != 1:
        raise RuntimeError("idempotents do not sum to 1")

    # u -> e_i u mod N is F_p-linear, so the images of all residues mod
    # P^a are the F_p-combinations of the images of the monomials
    units, images = [], []
    for (p_, pa), idem in zip(blocks, idems):
        basis = fld.monomials(pa.degree)
        mask = fqpoly.unit_mask(pa.degree, [p_])
        units.append(list(itertools.compress(fld.span(basis), mask)))
        images.append(list(itertools.compress(fld.span(
            [fld.mod(fld.mul(idem, e), n_k) for e in basis]), mask)))
    partial, two = images[0], fld.p == 2
    for block in images[1:]:    # for p = 2, XOR keeps every slot reduced
        partial = [x ^ y for x in partial for y in block] if two else [
            x + y for x in partial for y in block]
    expected = factored_n.unit_order()
    distinct = set(partial) if two else fld.reduced_set(partial, n.degree)
    if len(partial) != expected or len(distinct) != expected:
        return False

    # residue recovery and multiplicativity on sampled tuples, by products
    def combine(residues):
        return fld.mod(fld.reduce(sum(map(fld.mul, idems, residues))), n_k)

    rng = random.Random(0)
    for _ in range(min(8, expected)):
        pick = [rng.choice(block) for block in units]
        r = combine(pick)
        if any(fld.mod(r, m) != u for u, m in zip(pick, moduli)):
            return False
    for _ in range(min(8, expected)):
        x = [rng.choice(block) for block in units]
        y = [rng.choice(block) for block in units]
        direct = combine([fld.mod(fld.mul(u, v), m)
                          for u, v, m in zip(x, y, moduli)])
        if fld.mod(fld.mul(combine(x), combine(y)), n_k) != direct:
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
    its index in the extended group divides [extended : plus part], which
    `genus_number.plus_part` checks divides q - 1."""
    return genus_number.genus_characters(_polynomial_modulus(x))


def component_fields(x):
    """Per prime P of the modulus: degree of the P-component field and the
    conductor exponent of P in it, as in the genus report."""
    report = genus_number.build_report(_polynomial_modulus(x))
    return {key: (e, f) for key, e, _, _, f in report.primes}


def tame_ramification_ff(d_p, e, q):
    """gcd(q^d_P - 1, e): the tame ramification index at a prime of
    degree d_P."""
    return gcd(q ** d_p - 1, e)


# ---------------------------------------------------------------------------
# The infinite prime: finite model of the local units

class InfinityUnits:
    """F_q* x U^(1)/U^(n_max) at pi = 1/T, as a concrete abelian group.

    Elements are pairs (c, tail) with c a nonzero constant and tail the
    coefficients (a_1, ..., a_{n_max-1}) of a 1-unit 1 + a_1 pi + ...
    truncated at pi^n_max.  Under pi -> T the quotient is the unit group
    of F_q[[pi]]/(pi^n_max) = F_q[T]/(T^n_max) (Hayes, Trans. AMS 189,
    1974), so the pair is the unit c (1 + a_1 T + ...) of the unit group
    mod T^n_max (`ambient`), and U^(n) is its 1-units at level n.
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
        self.key = fqpoly.variable(fld)  # T, the image of pi
        self.ambient = fqpoly.unit_group(
            fqpoly.factored(fld, [(self.key, n_max)]))
        self.group = self.ambient.group

    def dlog(self, x):
        c, tail = x
        return self.ambient.dlog(
            fqpoly.poly(self.field, (1,) + tuple(tail)).scale(c))


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


def s_field_invariants(primes_above, infinity):
    """Invariants (t0, n0, m0, alpha) of the field S attached to the
    behavior at the infinite prime, from the primes above it
    (`genus_number.PrimeAboveData`, whose f is the residue degree t).

    t0 is the gcd of the t_i, and also f_infinity: the value group of the
    compositum's norms is generated by the t_i.  The group script-S is
    the smallest p-power-index supergroup of the norm group N that the
    local path reads off (T^n_max)* (`genus_number.lp_degree_from_local`);
    alpha is its index exponent, and n0 the first level b whose 1-units
    U^(b) it contains (`genus_number.lp_degree_is_stable`).  m0 is t0
    times the ramification of S over the level-n0 field, the index of
    script-S in its product with U^(n0); by the choice of n0 that product
    is script-S, so m0 = t0 and the model says nothing of m0 beyond t0.
    """
    units, key = infinity.ambient, infinity.key
    _, norm = genus_number.lp_degree_from_local(units, key, primes_above)
    t0 = reduce(gcd, (rec.f for rec in primes_above))
    script_s = _minimal_p_power_index_supergroup(
        infinity.group, norm, infinity.field.p)
    index = script_s.index
    alpha = 0
    while index % infinity.field.p == 0:
        index //= infinity.field.p
        alpha += 1
    if index != 1:
        raise RuntimeError("script-S index is not a p-power")
    n0 = next((b for b in range(infinity.n_max) if
               genus_number.lp_degree_is_stable(units, key, b, script_s)),
              None)
    if n0 is None:
        # the level-n_max image is trivial, so containment there says
        # nothing about the next level
        raise PrecisionError(
            "level n_max is too coarse to certify n0; raise n_max")
    return SFieldInvariants(t0=t0, n0=n0, m0=t0, alpha=alpha, f_infinity=t0)

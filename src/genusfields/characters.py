"""Dirichlet characters of (Z/nZ)* and of (F_q[T]/<N>)*.

Characters are stored as exponent vectors in the dual group: a vector b
encodes the character sending a unit with discrete log v to
zeta_e^(sum b_i v_i e/d_i), with e the exponent of the unit group.  All
values are exponents of an abstract root of unity, never floats, so
equality is exact.

The two ambient kinds (integer modulus, polynomial modulus) expose the
same surface: unit group with dlog/exp, CRT components per prime, and
divisor enumeration for conductors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from . import abelian, fqpoly
from .errors import AmbientMismatchError, SchemaError


# ---------------------------------------------------------------------------
# Ambient unit groups

@dataclass(frozen=True)
class Component:
    """One prime-power block of an ambient modulus under CRT."""

    key: object          # the prime: an integer p or a monic irreducible
    ambient: object      # ambient for the prime-power block


class NumericAmbient:
    """The unit group (Z/nZ)* with CRT components and divisor enumeration."""

    kind = "number"

    def __init__(self, n):
        self.modulus = n
        self.units = abelian.unit_group(n)
        self.group = self.units.group
        self.factorization = self.units.factorization

    def __eq__(self, other):
        return isinstance(other, NumericAmbient) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("NumericAmbient", self.modulus))

    def __repr__(self):
        return f"NumericAmbient({self.modulus})"

    def dlog(self, u):
        return self.units.dlog(u)

    def exp(self, vec):
        return self.units.exp(vec)

    @property
    def generators(self):
        return self.units.generators

    def residues(self):
        return self.units.residues()

    @property
    def minus_one(self):
        return self.modulus - 1

    def components(self):
        return tuple(Component(p, numeric_ambient(p ** a))
                     for p, a in self.factorization)

    def project(self, component, u):
        return u % component.ambient.modulus

    def lift(self, component, u):
        """Residue mod n agreeing with u at the component and 1 elsewhere."""
        q = component.ambient.modulus
        cof = self.modulus // q
        if cof == 1:
            return u % self.modulus
        return abelian._crt_pair(u % q, q, 1 % cof, cof)

    def divisor_moduli(self):
        """Divisors of the modulus that are valid moduli, ascending."""
        n = self.modulus
        return [d for d in range(1, n + 1) if n % d == 0]

    def reduction_kernel(self, m):
        """Units congruent to 1 modulo the divisor m."""
        if m == 1:
            return list(self.residues())
        return [u for u in self.residues() if u % m == 1]

    def modulus_label(self):
        return str(self.modulus)


class FunctionFieldAmbient:
    """The unit group (F_q[T]/<N>)* with the same surface as the numeric one."""

    kind = "function"

    def __init__(self, factored_n):
        self.factored = factored_n
        self.field = factored_n.field
        self.modulus = factored_n.modulus
        self.units = fqpoly.unit_group_mod(factored_n)
        self.group = self.units.group

    def __eq__(self, other):
        return (isinstance(other, FunctionFieldAmbient)
                and self.field == other.field
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash(("FunctionFieldAmbient", self.field, self.modulus))

    def __repr__(self):
        return f"FunctionFieldAmbient({self.modulus})"

    def dlog(self, u):
        return self.units.dlog(u)

    def exp(self, vec):
        return self.units.exp(vec)

    @property
    def generators(self):
        return self.units.generators

    def residues(self):
        return self.units.residues()

    def components(self):
        return tuple(
            Component(p_, ff_ambient(fqpoly.factored(self.field, [(p_, a)])))
            for p_, a in self.factored.factors)

    def project(self, component, u):
        return u % component.ambient.modulus

    def lift(self, component, u):
        target = component.ambient.modulus
        out = fqpoly.one(self.field)
        # build via CRT against the cofactor
        cof = self.modulus // target
        if cof.degree == 0:
            return u % self.modulus
        inv = fqpoly._poly_inverse(cof % target, target)
        idem = cof * inv
        return (fqpoly.one(self.field)
                + (u - fqpoly.one(self.field)) * idem) % self.modulus

    def divisor_moduli(self):
        """Monic divisors of N ordered by degree then code."""
        divs = [fqpoly.one(self.field)]
        for p_, a in self.factored.factors:
            grown = []
            power = fqpoly.one(self.field)
            for _ in range(a + 1):
                grown.extend(d * power for d in divs)
                power = power * p_
            divs = grown
        return sorted(divs, key=lambda d: (d.degree, d.code()))

    def reduction_kernel(self, m):
        """Units congruent to 1 modulo the monic divisor m."""
        if m.degree == 0:
            return list(self.residues())
        return [u for u in self.residues()
                if ((u - fqpoly.one(self.field)) % m).is_zero]

    def modulus_label(self):
        return str(self.modulus)


@lru_cache(maxsize=512)
def numeric_ambient(n):
    return NumericAmbient(n)


@lru_cache(maxsize=512)
def _ff_ambient_cached(p, s, factors_key):
    fld = fqpoly.fq_field(p, s)
    pairs = [(fqpoly.poly_from_code(fld, code), a) for code, a in factors_key]
    return FunctionFieldAmbient(fqpoly.factored(fld, pairs))


def ff_ambient(factored_n):
    fld = factored_n.field
    key = tuple((p_.code(), a) for p_, a in factored_n.factors)
    return _ff_ambient_cached(fld.p, fld.s, key)


# ---------------------------------------------------------------------------
# Characters

@dataclass(frozen=True)
class Character:
    """One Dirichlet character, as an exponent vector in the dual group."""

    ambient: object
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents",
                           self.ambient.group.reduce(self.exponents))

    @property
    def order(self):
        return self.ambient.group.element_order(self.exponents)

    @property
    def is_trivial(self):
        return not any(self.exponents)

    def value_exponent(self, u):
        """chi(u) as an exponent of zeta_e, e the unit-group exponent."""
        g = self.ambient.group
        e = g.exponent
        v = self.ambient.dlog(u)
        return sum(b * x * (e // d)
                   for b, x, d in zip(self.exponents, v, g.invariant_factors)) % e

    def __mul__(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatchError("characters of different moduli")
        return Character(self.ambient,
                         self.ambient.group.add(self.exponents, other.exponents))

    def inverse(self):
        return Character(self.ambient, self.ambient.group.neg(self.exponents))


def character_from_values(ambient, value_exponents, value_order):
    """Character with prescribed values on the canonical generators.

    `value_exponents[i]` is chi(g_i) as an exponent of zeta_{value_order}.
    Raises if the values cannot come from a character of the ambient group.
    """
    g = ambient.group
    if len(value_exponents) != g.rank:
        raise SchemaError("one value per canonical generator required")
    b = []
    for t, d in zip(value_exponents, g.invariant_factors):
        t %= value_order
        num = t * d
        if num % value_order:
            raise SchemaError(
                "value is not a root of unity of the generator's order")
        b.append(num // value_order % d)
    return Character(ambient, tuple(b))


def parity(chi):
    """'even' when chi(-1) = 1, 'odd' otherwise.  Numeric moduli only."""
    if chi.ambient.kind != "number":
        raise SchemaError("parity is defined only for integer moduli")
    if chi.ambient.modulus <= 2:
        return "even"
    return "even" if chi.value_exponent(chi.ambient.minus_one) == 0 else "odd"


def is_even(chi):
    return parity(chi) == "even"


def conductor(chi):
    """Smallest divisor modulus through which the character factors."""
    return conductor_of_group(character_group(chi.ambient, [chi]))


def restrict_to_component(chi, component):
    """The component chi_p: chi composed with the CRT lift into p-part."""
    sub = component.ambient
    amb = chi.ambient
    e = amb.group.exponent
    e_sub = sub.group.exponent if sub.group.rank else 1
    values = []
    for g in sub.generators:
        t = chi.value_exponent(amb.lift(component, g))
        num = t * e_sub
        if num % e:
            raise RuntimeError("component value escaped the expected order")
        values.append(num // e)
    return character_from_values(sub, values, e_sub)


def inflate_from_component(psi, ambient, component):
    """View a component character as a character of the full modulus."""
    sub = component.ambient
    e_sub = sub.group.exponent if sub.group.rank else 1
    values = [psi.value_exponent(ambient.project(component, g))
              for g in ambient.generators]
    return character_from_values(ambient, values, e_sub)


def inflate_to_modulus(chi, target_ambient):
    """Inflate a character to a larger modulus it divides."""
    if chi.ambient.kind != target_ambient.kind:
        raise AmbientMismatchError("cannot inflate across ambient kinds")
    rest = target_ambient.modulus % chi.ambient.modulus
    divides = rest == 0 if chi.ambient.kind == "number" else rest.is_zero
    if not divides:
        raise SchemaError("target modulus is not a multiple")
    e = chi.ambient.group.exponent if chi.ambient.group.rank else 1
    values = [chi.value_exponent(g % chi.ambient.modulus)
              for g in target_ambient.generators]
    return character_from_values(target_ambient, values, e)


# ---------------------------------------------------------------------------
# Kronecker symbol and quadratic characters

def kronecker_symbol(d, n):
    """The Kronecker symbol (d/n)."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if d < 0:
            sign = -sign
    # pull out the even part of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if d % 2 == 0:
            return 0
        if t % 2 and d % 8 in (3, 5):
            sign = -sign
    a = d % n
    # Jacobi symbol (a/n) for odd n > 0
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_fundamental_discriminant(d):
    if d == 1 or d == 0:
        return False

    def squarefree(m):
        m = abs(m)
        k = 2
        while k * k <= m:
            if m % (k * k) == 0:
                return False
            k += 1
        return True

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def kronecker_character(d):
    """The quadratic character attached to a fundamental discriminant."""
    if not is_fundamental_discriminant(d):
        raise SchemaError(f"{d} is not a fundamental discriminant")
    amb = numeric_ambient(abs(d))
    e = amb.group.exponent if amb.group.rank else 1
    values = []
    for g in amb.generators:
        s = kronecker_symbol(d, g)
        if s == 0:
            raise RuntimeError("Kronecker symbol vanished on a unit")
        values.append(0 if s == 1 else e * (2 if e % 2 else 1) // 2)
    if e % 2 and any(values):
        raise RuntimeError("quadratic character in an odd-exponent group")
    return character_from_values(amb, values, e)


# ---------------------------------------------------------------------------
# Character groups

class CharacterGroup:
    """A group of characters sharing one ambient modulus.

    Cuts out an abelian field of degree equal to its order via the common
    kernel of its members.
    """

    def __init__(self, ambient, dual_subgroup):
        if dual_subgroup.ambient != ambient.group:
            raise AmbientMismatchError("dual subgroup is over the wrong group")
        self.ambient = ambient
        self.dual = dual_subgroup

    def __eq__(self, other):
        return (isinstance(other, CharacterGroup)
                and self.ambient == other.ambient
                and self.dual == other.dual)

    def __hash__(self):
        return hash((self.ambient, self.dual))

    def __repr__(self):
        return f"CharacterGroup(order {self.order} mod {self.ambient.modulus_label()})"

    @property
    def order(self):
        return self.dual.order

    def characters(self):
        return [Character(self.ambient, vec) for vec in self.dual.elements()]

    def generators(self):
        return [Character(self.ambient, self.ambient.group.reduce(row))
                for row in self.dual.lattice
                if any(c % d for c, d in
                       zip(row, self.ambient.group.invariant_factors))]

    def contains(self, chi):
        if chi.ambient != self.ambient:
            raise AmbientMismatchError("character of a different modulus")
        return self.dual.contains(chi.exponents)

    def kernel_elements(self):
        """Common kernel of all members, as a set of unit residues."""
        gens = self.generators()
        out = []
        for u in self.ambient.residues():
            if all(chi.value_exponent(u) == 0 for chi in gens):
                out.append(u)
        return out

    def structure(self):
        return self.dual.structure()


def character_group(ambient, chars):
    for chi in chars:
        if chi.ambient != ambient:
            raise AmbientMismatchError("character of a different modulus")
    sub = abelian.subgroup_from_generators(
        ambient.group, [chi.exponents for chi in chars])
    return CharacterGroup(ambient, sub)


def trivial_group(ambient):
    return character_group(ambient, [])


def full_dual(ambient):
    return CharacterGroup(ambient, abelian.full_subgroup(ambient.group))


def join(x, y):
    if x.ambient != y.ambient:
        raise AmbientMismatchError("character groups of different moduli")
    return CharacterGroup(x.ambient, abelian.product(x.dual, y.dual))


def meet(x, y):
    if x.ambient != y.ambient:
        raise AmbientMismatchError("character groups of different moduli")
    return CharacterGroup(x.ambient, abelian.intersect(x.dual, y.dual))


def component_decompose(x):
    """The p-components X_p = {chi_p : chi in X}, one per prime of the modulus."""
    out = {}
    for component in x.ambient.components():
        comps = [restrict_to_component(chi, component)
                 for chi in x.generators()]
        out[component.key] = character_group(component.ambient, comps)
    return out


def component_order(x, component):
    """|X_p| for one component, without building the full decomposition."""
    comps = [restrict_to_component(chi, component) for chi in x.generators()]
    return character_group(component.ambient, comps).order


def ramification_exponents(x):
    """Per ramified prime: e = |X_p| with its tame/wild split.

    The tame part is the prime-to-p part of e (p the residue
    characteristic), the wild part the p-part.
    """
    out = {}
    for component in x.ambient.components():
        e = component_order(x, component)
        if e == 1:
            continue
        if x.ambient.kind == "number":
            p = component.key
        else:
            p = x.ambient.field.p
        wild = 1
        while e % p == 0:
            wild *= p
            e //= p
        out[component.key] = {"e": e * wild, "tame": e, "wild": wild}
    return out


def conductor_of_group(x):
    """Conductor of the field cut out by X: lcm/product over its characters.

    Computed as the smallest divisor modulus through which every member
    factors; a member factors when the generators of X all do.
    """
    gens = x.generators()
    for m in x.ambient.divisor_moduli():
        kern = x.ambient.reduction_kernel(m)
        if all(chi.value_exponent(u) == 0 for chi in gens for u in kern):
            return m
    raise RuntimeError("conductor search fell through the divisor lattice")

"""Dirichlet characters of (Z/nZ)* and of (F_q[T]/<N>)*.

Characters are stored as exponent vectors in the dual group: a vector b
encodes the character sending a unit with discrete log v to
zeta_e^(sum b_i v_i e/d_i), with e the exponent of the unit group.  All
values are exponents of an abstract root of unity, never floats, so
equality is exact.

The two ambient kinds (integer modulus, polynomial modulus) expose the
same surface: a unit group with dlog/exp and the CRT components, one per
prime.  The unit group (`abelian.CRTUnitGroup`) gives the 1-units U^(b)
of each prime as dlog vectors read off its presentation, from which
conductors are read one prime at a time.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import abelian, fqpoly
from .errors import AmbientMismatchError, SchemaError


# ---------------------------------------------------------------------------
# Ambient unit groups

@dataclass(frozen=True)
class Component:
    """One prime-power block key^exponent of an ambient modulus under CRT."""

    key: object          # the prime: an integer p or a monic irreducible
    exponent: int

    @property
    def modulus(self):
        return self.key ** self.exponent


class _UnitAmbient:
    """What the two ambient kinds share: a unit group `units`, an
    `abelian.CRTUnitGroup` with dlog, exp, the 1-units U^(b) of each prime
    (`one_units`), the matrices R_p that split the dual
    (`component_matrix`) and the CRT idempotents; the components, one per
    prime of `factorization`.  Each kind keeps `residues`, which
    perfbench/tracing.py wraps, `component_ambient`, the ambient of one
    component for the reference paths only, and the residues the oracle
    enumerates at each place (`reduction_kernel`, `infinity_residues`),
    which no closed form reads.  The function kind mod T^n also holds the
    units at infinity, which the local-data path of every place reads as
    it reads (Z/p^level)* (`genus_number`)."""

    def __init__(self, units):
        self.units = units
        self.group = units.group

    def dlog(self, u):
        return self.units.dlog(u)

    @property
    def generators(self):
        return self.units.generators

    def components(self):
        return tuple(Component(key, a) for key, a in self.factorization)

    @cached_property
    def infinity(self):
        """The units at infinity, once per ambient: the dlog vectors of
        generators of their image (`infinity_logs`, one per kind) and the
        order of the group they span."""
        vecs = self.infinity_logs()
        return vecs, abelian.subgroup_from_generators(self.group, vecs).order

    def project(self, component, u):
        return u % component.modulus

    def lift(self, component, u):
        """Residue agreeing with u at the component and 1 elsewhere."""
        return self.units.lift(component.key, u)

    def modulus_label(self):
        return str(self.modulus)

    def __eq__(self, other):
        return type(other) is type(self) and self.modulus == other.modulus

    def __hash__(self):
        return hash((type(self).__name__, self.modulus))

    def __repr__(self):
        return f"{type(self).__name__}({self.modulus})"


class NumericAmbient(_UnitAmbient):
    """The unit group (Z/nZ)* with CRT components and their 1-units."""

    kind = "number"

    def __init__(self, n):
        self.modulus = n
        super().__init__(abelian.unit_group(n))
        self.factorization = self.units.factorization

    def residues(self):
        return self.units.residues()

    def infinity_logs(self):
        """The image of the units at the infinite prime is generated by
        -1, whose class is complex conjugation; its dlog is read off the
        presentation."""
        return (self.units.minus_one_log,)

    def component_ambient(self, component):
        return numeric_ambient(component.modulus)

    def reduction_kernel(self, m):
        """Units congruent to 1 modulo the divisor m."""
        return [u for u in self.residues() if u % m == 1 % m]

    def infinity_residues(self):
        """The unit at infinity other than 1, as a residue: n - 1."""
        return [self.modulus - 1]


class FunctionFieldAmbient(_UnitAmbient):
    """The unit group (F_q[T]/<N>)* with the same surface as the numeric one."""

    kind = "function"

    def __init__(self, factored_n):
        self.factorization = factored_n.factors
        self.field = factored_n.field
        self.modulus = factored_n.modulus
        super().__init__(fqpoly.UnitGroupModN(factored_n))

    def residues(self):
        return self.units.residues()

    def component_ambient(self, component):
        return ff_ambient(fqpoly.factored(
            self.field, [(component.key, component.exponent)]))

    def infinity_logs(self):
        """The image of the units at the infinite prime is the constants
        F_q*: the dlog of their least generator (one column in
        `abelian.pairing_kernel` instead of q - 1)."""
        fld = self.field
        primes = [l for l, _ in abelian.factorize(fld.q - 1)]
        one = fqpoly.one(fld)
        c = next(c for c in (fqpoly.poly(fld, (a,)) for a in range(1, fld.q))
                 if all(c ** ((fld.q - 1) // l) != one for l in primes))
        return (self.dlog(c),)

    def reduction_kernel(self, m):
        """Units congruent to 1 modulo the monic divisor m."""
        return [u for u in self.residues()
                if ((u - fqpoly.one(self.field)) % m).is_zero]

    def infinity_residues(self):
        """Every unit at infinity, as a residue: the constants 1..q - 1."""
        return [fqpoly.poly(self.field, (c,)) for c in range(1, self.field.q)]


@lru_cache(maxsize=512)
def numeric_ambient(n):
    return NumericAmbient(n)


# one ambient per modulus: `fqpoly.factored` puts the factors in code
# order, so the factorization is the same key however it was built
ff_ambient = _ff_ambient_cached = lru_cache(maxsize=512)(FunctionFieldAmbient)


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

    def value_exponent(self, u):
        """chi(u) as an exponent of zeta_e, e the unit-group exponent."""
        return self.ambient.group.pairing(self.exponents,
                                          self.ambient.dlog(u))


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


def conductor(chi):
    """Smallest divisor modulus through which the character factors."""
    return conductor_of_group(character_group(chi.ambient, [chi]))


def restrict_to_component(chi, component):
    """The component chi_p: chi composed with the CRT lift into p-part."""
    amb = chi.ambient
    sub = amb.component_ambient(component)
    e = amb.group.exponent
    e_sub = sub.group.exponent
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
    values = [psi.value_exponent(ambient.project(component, g))
              for g in ambient.generators]
    return character_from_values(ambient, values, psi.ambient.group.exponent)


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
    def squarefree(m):
        return all(a == 1 for _, a in abelian.factorize(abs(m)))

    if d == 1 or d == 0:
        return False
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

    def generators(self):
        return [Character(self.ambient, self.ambient.group.reduce(row))
                for row in self.dual.lattice
                if any(c % d for c, d in
                       zip(row, self.ambient.group.invariant_factors))]


def character_group(ambient, chars):
    for chi in chars:
        if chi.ambient != ambient:
            raise AmbientMismatchError("character of a different modulus")
    sub = abelian.subgroup_from_generators(
        ambient.group, [chi.exponents for chi in chars])
    return CharacterGroup(ambient, sub)


def full_dual(ambient):
    return CharacterGroup(ambient, abelian.full_subgroup(ambient.group))


def join(x, y):
    if x.ambient != y.ambient:
        raise AmbientMismatchError("character groups of different moduli")
    return CharacterGroup(x.ambient, abelian.product(x.dual, y.dual))


def component_decompose(x):
    """The p-components X_p = {chi_p : chi in X}, one per prime of the modulus."""
    out = {}
    for component in x.ambient.components():
        comps = [restrict_to_component(chi, component)
                 for chi in x.generators()]
        out[component.key] = character_group(
            x.ambient.component_ambient(component), comps)
    return out


class ComponentSplit(Mapping):
    """The p-components X_p of one X inside the full dual, by prime key of
    the modulus: X_p is generated by X's lattice rows times R_p
    (`abelian.CRTUnitGroup.component_matrix`), the same group as inflating
    {chi_p : chi in X}.
    The rows X R_p are formed once.  Each X_p is one HNF of its rows, taken
    when first read; `product`, the product of the X_p, is one HNF of all
    the rows stacked, with no HNF per component (X_p itself for one p)."""

    def __init__(self, x):
        amb, self._rows, self._parts = x.ambient, {}, {}
        self.group, d = amb.group, amb.group.invariant_factors
        for component in amb.components():
            r = amb.units.component_matrix(component.key)
            self._rows[component.key] = [
                [sum(b * r[i][j] for i, b in enumerate(row)) % dj
                 for j, dj in enumerate(d)] for row in x.dual.lattice]

    def __getitem__(self, key):
        if key not in self._parts:
            self._parts[key] = abelian.subgroup_from_generators(
                self.group, self._rows[key])
        return self._parts[key]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    @cached_property
    def product(self):
        if len(self) == 1:
            return self[next(iter(self))]
        return abelian.subgroup_from_generators(
            self.group, [r for rows in self._rows.values() for r in rows])


# one split per X: a report or a genus computation forms the rows X R_p
# and their product once
component_split = lru_cache(maxsize=64)(ComponentSplit)


def component_order(x, component):
    """|X_p| for one component."""
    return component_split(x)[component.key].order


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


def conductor_exponents(x):
    """Per prime key of the modulus, its exponent f in the conductor of the
    field cut out by X: the least level b whose 1-units U^(b) every
    generator of X kills (so every member of X does), as dlog vectors
    read off the presentation (`abelian.CRTUnitGroup.one_units`)."""
    amb = x.ambient
    gens = [chi.exponents for chi in x.generators()]
    out = {}
    for component in amb.components():
        b = 0
        while any(amb.group.pairing(vec, v)
                  for v in amb.units.one_units(component.key, b)
                  for vec in gens):
            b += 1
        out[component.key] = b
    return out


def conductor_from_exponents(amb, exponents):
    """The modulus prod key^f for a map {key: f}."""
    out = amb.units.one
    for key, f in exponents.items():
        out = out * key ** f
    return out


def conductor_of_group(x):
    """Conductor of the field cut out by X: the product over the
    components of key^f, f from `conductor_exponents`."""
    return conductor_from_exponents(x.ambient, conductor_exponents(x))

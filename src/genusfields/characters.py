"""Dirichlet characters of (Z/nZ)* and of (F_q[T]/<N>)*.

Characters are stored as exponent vectors in the dual group: a vector b
encodes the character sending a unit with discrete log v to
zeta_e^(sum b_i v_i e/d_i), with e the exponent of the unit group.  All
values are exponents of an abstract root of unity, never floats, so
equality is exact.

The ambient of a character is the unit group of its modulus, an integer
or a polynomial (`abelian.CRTUnitGroup`), with dlog/exp and the CRT
components, one per prime.  Conductors are read one prime at a time off
its presentation: each character is paired once per raw generator of the
prime, and the 1-units U^(b) of each level are raw vectors.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import abelian, fqpoly
from .errors import AmbientMismatchError, SchemaError


# ---------------------------------------------------------------------------
# Ambients

# The ambient of a character is the unit group of its modulus, one object
# per modulus from one cache: `abelian.unit_group` (`abelian.UnitGroup`)
# over Q, `fqpoly.unit_group` (`fqpoly.UnitGroupModN`) over F_q(T).  The
# benchmark in perfbench/ reads them under these names.
NumericAmbient = abelian.UnitGroup
FunctionFieldAmbient = fqpoly.UnitGroupModN
numeric_ambient = abelian.unit_group
ff_ambient = _ff_ambient_cached = fqpoly.unit_group


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
        t = chi.value_exponent(amb.lift(component.key, g))
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
    e = chi.ambient.group.exponent
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
    amb = abelian.unit_group(abs(d))
    e = amb.group.exponent
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
        return f"CharacterGroup(order {self.order} mod {self.ambient.modulus})"

    @property
    def order(self):
        return self.dual.order

    def generators(self):
        return [Character(self.ambient, row)
                for row in self.dual.generator_rows()]


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
    the modulus: X_p is generated by X's generator rows (the lattice rows
    nonzero in the group, `abelian.Subgroup.generator_rows`) times R_p
    (`abelian.CRTUnitGroup.component_matrix`), the same group as inflating
    {chi_p : chi in X}.
    The rows X R_p are formed once, one per generator row and prime.  Each
    X_p is one HNF of its rows, taken when first read; `product`, the
    product of the X_p, is one HNF of all the rows stacked, with no HNF
    per component (X_p itself for one p)."""

    def __init__(self, x):
        amb, self._rows, self._parts = x.ambient, {}, {}
        self.group, d = amb.group, amb.group.invariant_factors
        gens = x.dual.generator_rows()
        for component in amb.components():
            r = amb.component_matrix(component.key)
            self._rows[component.key] = [
                [sum(b * r[i][j] for i, b in enumerate(row)) % dj
                 for j, dj in enumerate(d)] for row in gens]

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
    generator of X kills (so every member of X does).  Each generator is
    paired once per raw generator of the prime, and each level is read
    off those pairings (`abelian.CRTUnitGroup.conductor_exponent`).  X and
    its extended genus group have the same p-components X_p, so the same
    exponents."""
    amb = x.ambient
    gens = x.dual.generator_rows()
    return {component.key: amb.conductor_exponent(component.key, gens)
            for component in amb.components()}


def conductor_from_exponents(amb, exponents):
    """The modulus prod key^f for a map {key: f}."""
    out = amb.one
    for key, f in exponents.items():
        out = out * key ** f
    return out


def conductor_of_group(x):
    """Conductor of the field cut out by X: the product over the
    components of key^f, f from `conductor_exponents`."""
    return conductor_from_exponents(x.ambient, conductor_exponents(x))

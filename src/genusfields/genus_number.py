"""Genus and extended genus fields of abelian number fields.

An abelian field K is its character group X.  The extended genus field is
cut out by the product of the p-components of X; the genus field adds the
even part of that product to X.  For non-abelian K the same degree
formulas run off user-supplied local norm subgroups at a finite 2-adic or
p-adic level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm

from . import abelian, characters
from .errors import AmbientMismatchError, PrecisionError, SchemaError


# ---------------------------------------------------------------------------
# Character-group mode (abelian K over Q)

def extended_genus_characters(x):
    """Character group of the extended genus field: the product of the
    p-components of X, inflated back to the full modulus.

    Generic over the ambient: over F_q(T) the components are the
    P-components of a polynomial modulus."""
    amb = x.ambient
    gens = []
    for component in amb.components():
        for chi in x.generators():
            psi = characters.restrict_to_component(chi, component)
            gens.append(characters.inflate_from_component(psi, amb, component))
    return characters.character_group(amb, gens)


def plus_part(x):
    """Subgroup of even characters; index 1 or 2."""
    evens = [chi for chi in x.characters() if characters.is_even(chi)]
    out = characters.character_group(x.ambient, evens)
    if x.order % out.order or x.order // out.order > 2:
        raise RuntimeError("even part has impossible index")
    return out


def genus_characters(x):
    """Character group of the genus field: X joined with the even part of
    the extended genus group."""
    return characters.join(x, plus_part(extended_genus_characters(x)))


def genus_gap(x):
    """[geK : gK], always 1 or 2."""
    return extended_genus_characters(x).order // genus_characters(x).order


def inflate_group(x, target_ambient):
    """Move a character group to a larger modulus."""
    gens = [characters.inflate_to_modulus(chi, target_ambient)
            for chi in x.generators()]
    return characters.character_group(target_ambient, gens)


def compose_genus(x1, x2):
    """Genus of the compositum against the compositum of the genus fields.

    Returns (genus of K1K2, g(K1) joined with g(K2), gap index); the gap
    divides 2, and the extended genus is exactly multiplicative.
    """
    n = lcm(x1.ambient.modulus, x2.ambient.modulus)
    amb = characters.numeric_ambient(n)
    y1 = inflate_group(x1, amb)
    y2 = inflate_group(x2, amb)
    g_comp = genus_characters(characters.join(y1, y2))
    g_join = characters.join(inflate_group(genus_characters(x1), amb),
                             inflate_group(genus_characters(x2), amb))
    if g_comp.order % g_join.order:
        raise RuntimeError("genus of the compositum does not contain the join")
    return g_comp, g_join, g_comp.order // g_join.order


# ---------------------------------------------------------------------------
# Local-data mode (norm subgroups at a finite level)

@dataclass(frozen=True)
class PrimeAboveData:
    """One prime of K over p: ramification index, residue degree, and the
    norm group of local units at the working level."""

    e: int
    f: int
    norm_subgroup: object = None

    def __post_init__(self):
        if self.e < 1 or self.f < 1:
            raise SchemaError("ramification and residue degrees are positive")


@dataclass(frozen=True)
class LocalPrimeData:
    """All primes of K above one rational prime, at one working level."""

    p: int
    level: int
    primes_above: tuple

    def __post_init__(self):
        if self.level < 1:
            raise SchemaError("level must be positive")
        if not self.primes_above:
            raise SchemaError("at least one prime above p required")


def lp_degree_from_local(data):
    """[L_p : Q] as the index of the product of the norm subgroups in the
    unit group at the working level.

    For odd p this equals the gcd of the individual indices; that identity
    is asserted as a cross-check.
    """
    amb = abelian.unit_group(data.p ** data.level)
    subs = []
    for rec in data.primes_above:
        if rec.norm_subgroup is None:
            raise SchemaError("every prime above p needs a norm subgroup")
        if rec.norm_subgroup.ambient != amb.group:
            raise SchemaError(
                "norm subgroup lives at a different level than the data")
        subs.append(rec.norm_subgroup)
    prod_sub = reduce(abelian.product, subs)
    degree = prod_sub.index
    if data.p > 2:
        expected = reduce(gcd, (s.index for s in subs))
        if degree != expected:
            raise RuntimeError(
                "product index disagrees with the gcd of indices at odd p")
    return degree


def lp_degree_is_stable(data):
    """Whether the level already determines the index.

    True when the product of the norm subgroups contains every unit
    congruent to 1 modulo p^(level-1); then raising the level cannot
    change the index.
    """
    amb = abelian.unit_group(data.p ** data.level)
    subs = [rec.norm_subgroup for rec in data.primes_above]
    prod_sub = reduce(abelian.product, subs)
    lower = data.p ** (data.level - 1)
    if lower == 1:
        return prod_sub.index == 1
    for u in amb.residues():
        if u % lower == 1 and not prod_sub.contains(amb.dlog(u)):
            return False
    return True


def tame_degree(p, ramification_indices):
    """gcd(e_1, ..., e_r, p - 1): the tame part of [L_p : Q] for odd p."""
    if p < 3:
        raise SchemaError("the tame gcd formula requires an odd prime")
    if not ramification_indices:
        raise SchemaError("at least one ramification index required")
    return reduce(gcd, ramification_indices, p - 1)


# ---------------------------------------------------------------------------
# The 2-adic component: trichotomy of L_2

PLUS_FIELD = "PlusField"
FULL_CYCLOTOMIC = "FullCyclotomic"
MINUS_FIELD = "MinusField"


@dataclass(frozen=True)
class L2Classification:
    tag: str
    m: int
    field_label: str


def _two_power_level(order):
    k = order.bit_length() - 1
    if 1 << k != order:
        raise SchemaError("subgroup index is not a power of 2")
    return k


def classify_l2(h, modulus, m=None):
    """Which of the three candidate fields the 2-adic component L_2 is.

    `h` is the intersection of the 2-adic norm subgroups inside
    (Z/2^k Z)* for the given 2-power modulus; its index 2^m is the degree
    of L_2.  The candidates of degree 2^m are the real field
    Q(zeta_{2^(m+2)})^+, the full cyclotomic field Q(zeta_{2^(m+1)}), and
    the non-real cyclic field Q(zeta_{2^(m+2)})^-; the classifier reads
    the answer off the subgroup: -1 in h gives the real field, h equal to
    the congruence kernel at level m+1 gives the full cyclotomic field,
    and the remaining cyclic case gives the minus field.
    """
    k = _two_power_level(modulus)
    if k < 2:
        raise SchemaError("modulus must be a 2-power of at least 4")
    units = abelian.unit_group(modulus)
    if units.group != h.ambient:
        raise SchemaError(
            "subgroup does not live in the unit group of the stated modulus")
    m_found = _two_power_level(h.index)
    if m is not None and m != m_found:
        raise SchemaError(f"index 2^{m_found} does not match the stated m={m}")
    m = m_found
    if m == 0:
        return L2Classification(PLUS_FIELD, 0, "Q")

    minus_one = units.dlog(modulus - 1)
    if h.contains(minus_one):
        return L2Classification(PLUS_FIELD, m, f"Q(zeta_{2 ** (m + 2)})^+")
    kernel = abelian.subgroup_from_generators(
        units.group,
        [units.dlog(u) for u in units.residues() if u % (1 << (m + 1)) == 1])
    if h == kernel:
        return L2Classification(FULL_CYCLOTOMIC, m, f"Q(zeta_{2 ** (m + 1)})")
    if k < m + 2:
        raise PrecisionError(
            f"level 2^{k} is too coarse to separate degree-2^{m} candidates")
    # remaining case: -1 outside h and h not the congruence kernel; the
    # quotient is then cyclic and the field is the minus field
    if m >= 2 and not _quotient_cyclic(h):
        raise RuntimeError("noncyclic quotient escaped the trichotomy")
    return L2Classification(MINUS_FIELD, m, f"Q(zeta_{2 ** (m + 2)})^-")


def _quotient_cyclic(h):
    return abelian.quotient_structure(h).rank <= 1


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class GenusReport:
    modulus: str
    field_degree: int
    genus_degree_over_k: int
    extended_degree_over_k: int
    gap: int
    prime_table: tuple  # ((prime label, e, tame, wild, component degree), ...)
    conductor: str


def build_report(x):
    """Assemble the genus report for an abelian field given by X."""
    extended = extended_genus_characters(x)
    genus = genus_characters(x)
    if extended.order % x.order or genus.order % x.order:
        raise RuntimeError("genus groups must contain X")
    rows = []
    ram = characters.ramification_exponents(x)
    comps = characters.component_decompose(extended)
    for component in x.ambient.components():
        key = component.key
        if key not in ram:
            continue
        info = ram[key]
        rows.append((str(key), info["e"], info["tame"], info["wild"],
                     comps[key].order))
    conductor = characters.conductor_of_group(extended)
    return GenusReport(
        modulus=x.ambient.modulus_label(),
        field_degree=x.order,
        genus_degree_over_k=genus.order // x.order,
        extended_degree_over_k=extended.order // x.order,
        gap=extended.order // genus.order,
        prime_table=tuple(rows),
        conductor=str(conductor),
    )

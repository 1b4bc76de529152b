"""Genus and extended genus fields of abelian extensions of Q and F_q(T).

An abelian field K is its character group X.  The extended genus field is
cut out by the product of the p-components of X (P-components over
F_q(T)).  The genus field adds to X the part of that product trivial on
the units at the infinite prime: -1 over Q, the constants F_q* over
F_q(T), whose fixed field is Hayes' real subfield.  One pipeline serves
both ambient kinds.  For non-abelian K the same degree formulas run off
user-supplied local norm subgroups at a finite 2-adic or p-adic level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm, prod

from . import abelian, characters
from .errors import AmbientMismatchError, PrecisionError, SchemaError


# ---------------------------------------------------------------------------
# Character-group mode (abelian K over Q or F_q(T))

def extended_genus_characters(x):
    """Character group of the extended genus field: the product of the
    p-components X_p of X inside the full dual."""
    split = characters.component_split(x)
    return characters.CharacterGroup(x.ambient,
                                     reduce(abelian.product, split.values()))


def plus_part(x):
    """Members of X trivial on the units at the infinite prime: the even
    characters over Q, those trivial on F_q* over F_q(T).

    Their index in X divides the order of the subgroup those units
    generate: 1 or 2 over Q, a divisor of q - 1 over F_q(T).
    """
    amb = x.ambient
    vecs = [amb.dlog(u) for u in amb.units_at_infinity()]
    out = characters.CharacterGroup(amb, abelian.pairing_kernel(x.dual, vecs))
    if abelian.subgroup_from_generators(amb.group, vecs).order \
            % (x.order // out.order):
        raise RuntimeError("plus part has impossible index")
    return out


def genus_characters(x):
    """Character group of the genus field: X joined with the plus part of
    the extended genus group."""
    return characters.join(x, plus_part(extended_genus_characters(x)))


def genus_gap(x):
    """[geK : gK]: 1 or 2 over Q, a divisor of q - 1 over F_q(T)."""
    extended = extended_genus_characters(x)
    return extended.order // characters.join(x, plus_part(extended)).order


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
    units = abelian.unit_group(data.p ** data.level)
    prod_sub = reduce(abelian.product,
                      [rec.norm_subgroup for rec in data.primes_above])
    return all(map(prod_sub.contains,
                   units.one_units(data.p, data.level - 1)))


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
    amb = characters.numeric_ambient(modulus)
    if amb.group != h.ambient:
        raise SchemaError(
            "subgroup does not live in the unit group of the stated modulus")
    m_found = _two_power_level(h.index)
    if m is not None and m != m_found:
        raise SchemaError(f"index 2^{m_found} does not match the stated m={m}")
    m = m_found
    if m == 0:
        return L2Classification(PLUS_FIELD, 0, "Q")

    if h.contains(amb.dlog(amb.minus_one)):
        return L2Classification(PLUS_FIELD, m, f"Q(zeta_{2 ** (m + 2)})^+")
    kernel = abelian.subgroup_from_generators(
        amb.group, amb.units.one_units(2, m + 1))
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
    primes: tuple  # ((prime, e, tame, wild, conductor exponent), ...)
    conductor: str

    @property
    def prime_table(self):
        """((prime label, e, tame, wild, component degree), ...) for the
        ramified primes.  The p-component of the extended genus group is
        X_p, so its degree is e."""
        return tuple((str(key), e, tame, wild, e)
                     for key, e, tame, wild, _ in self.primes if e > 1)


def build_report(x):
    """Assemble the genus report for an abelian field given by X, over Q
    or F_q(T); `primes` has one row per prime of the modulus."""
    amb = x.ambient
    extended = extended_genus_characters(x)
    genus = characters.join(x, plus_part(extended))
    if extended.order % x.order or genus.order % x.order:
        raise RuntimeError("genus groups must contain X")
    ram = characters.ramification_exponents(x)
    # the extended group is the direct product of the components X_p
    if prod(info["e"] for info in ram.values()) != extended.order:
        raise RuntimeError("component degrees must multiply to the total")
    exponents = characters.conductor_exponents(extended)
    rows = []
    for key, f in exponents.items():
        info = ram.get(key, {"e": 1, "tame": 1, "wild": 1})
        rows.append((key, info["e"], info["tame"], info["wild"], f))
    return GenusReport(
        modulus=amb.modulus_label(),
        field_degree=x.order,
        genus_degree_over_k=genus.order // x.order,
        extended_degree_over_k=extended.order // x.order,
        gap=extended.order // genus.order,
        primes=tuple(rows),
        conductor=str(characters.conductor_from_exponents(amb, exponents)),
    )

"""Brute-force ground truth for the genus computations.

Everything here works at the level of enumerated sets: subgroups of the
dual are frozensets of exponent vectors, ramification is read off value
tables on the congruence subgroups, and the extended genus is found by
exhaustive search rather than by component inflation.  The point is to
have a second, independent route to every derived value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import abelian, characters
from .errors import BoundExceededError

SUBGROUP_ENUMERATION_BOUND = 2 ** 12


def _cyclic_closure(group, x):
    out = {group.identity}
    y = x
    while y not in out:
        out.add(y)
        y = group.add(y, x)
    return frozenset(out)


def _join_sets(group, s, x):
    """Subgroup generated by the subgroup element set s and the element x:
    the union of the cosets s + kx, k = 0, 1, ..., until kx falls in s and
    the cosets start to repeat."""
    out = set(s)
    t = x
    while t not in s:
        out.update(group.add(y, t) for y in s)
        t = group.add(t, x)
    return frozenset(out)


def enumerate_subgroups(group):
    """All subgroups of a finite abelian group, as frozensets of elements.

    Join-closure of the cyclic subgroups; every subgroup is a join of
    cyclic ones, so the closure is the full lattice.  Each cyclic subgroup
    keeps its first generator, and joins go coset by coset of it.
    """
    if group.order > SUBGROUP_ENUMERATION_BOUND:
        raise BoundExceededError(
            f"group {group} of order {group.order} exceeds the subgroup "
            f"enumeration bound {SUBGROUP_ENUMERATION_BOUND}")
    cyclics = {}
    for x in group.elements():
        cyclics.setdefault(_cyclic_closure(group, x), x)
    subgroups = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        s = frontier.pop()
        for x in cyclics.values():
            if x in s:
                continue
            j = _join_sets(group, s, x)
            if j not in subgroups:
                subgroups.add(j)
                frontier.append(j)
    return subgroups


@dataclass(frozen=True)
class SubfieldLattice:
    """Every character subgroup of one modulus, with ramification data."""

    ambient: object
    subgroups: tuple               # frozensets of dual exponent vectors
    component_profiles: dict       # frozenset -> {prime key: frozenset of value tuples}
    parity_profiles: dict          # frozenset -> True when all members even

    def degree(self, s):
        return len(s)


def _value_tables(ambient):
    """For each prime component, the value tuple of every dual vector on
    the units congruent to 1 modulo the complementary part."""
    g = ambient.group
    duals = list(g.elements())
    tables = {}
    for component in ambient.components():
        block = ambient.reduction_kernel(ambient.modulus // component.modulus)
        logs = [ambient.dlog(u) for u in block]
        tables[component.key] = {
            v: tuple(g.pairing(v, lg) for lg in logs) for v in duals}
    return tables


def _parity_vector(ambient):
    """Value of each dual vector at -1 (numeric ambients only)."""
    g = ambient.group
    lg = ambient.dlog(ambient.minus_one)
    return {v: g.pairing(v, lg) for v in g.elements()}


@lru_cache(maxsize=256)
def _lattice_cached(ambient):
    g = ambient.group
    subs = enumerate_subgroups(g)
    tables = _value_tables(ambient)
    comp_profiles = {}
    parity_profiles = {}
    minus = _parity_vector(ambient) if ambient.kind == "number" else None
    for s in subs:
        comp_profiles[s] = {key: frozenset(table[v] for v in s)
                            for key, table in tables.items()}
        if minus is not None:
            parity_profiles[s] = all(minus[v] == 0 for v in s)
    # sanity: the lattice is closed under meet and join
    sub_list = sorted(subs, key=lambda s: (len(s), sorted(s)))
    for a in sub_list:
        for b in sub_list:
            if not (a & b) in subs:
                raise RuntimeError("lattice not closed under intersection")
    return SubfieldLattice(ambient, tuple(sub_list), comp_profiles,
                           parity_profiles)


def enumerate_subfields(ambient):
    """The complete character-subgroup lattice of one modulus."""
    return _lattice_cached(ambient)


def _as_set(x):
    return frozenset(x.dual.elements())


def _as_group(ambient, s):
    return characters.CharacterGroup(
        ambient, abelian.subgroup_from_generators(ambient.group, sorted(s)))


def maximal_extended_search(x):
    """Largest character group Y whose join with X stays componentwise
    no bigger than X: the search form of the extended genus group.

    Scans the full subgroup lattice, asserts the candidate set is closed
    under join, and returns the unique maximum.
    """
    lattice = enumerate_subfields(x.ambient)
    xs = _as_set(x)
    x_profile = lattice.component_profiles[xs]
    candidates = [s for s in lattice.subgroups
                  if all(lattice.component_profiles[s][key] <= x_profile[key]
                         for key in x_profile)]
    best = max(candidates, key=len)
    for s in candidates:
        if not s <= best:
            raise RuntimeError("extended-genus candidates not join-closed")
    return _as_group(x.ambient, best)


def maximal_genus_search(x):
    """Search form of the genus group: as the extended search, but when X
    is totally even the candidates must stay even as well (no new
    ramification at the infinite prime)."""
    lattice = enumerate_subfields(x.ambient)
    xs = _as_set(x)
    x_profile = lattice.component_profiles[xs]
    x_even = lattice.parity_profiles[xs]
    candidates = []
    for s in lattice.subgroups:
        if not all(lattice.component_profiles[s][key] <= x_profile[key]
                   for key in x_profile):
            continue
        if x_even and not lattice.parity_profiles[s]:
            continue
        candidates.append(s)
    best = max(candidates, key=len)
    for s in candidates:
        if not s <= best:
            raise RuntimeError("genus candidates not join-closed")
    return _as_group(x.ambient, best)


def count_subgroups_cyclic(n):
    """Number of subgroups of a cyclic group: the divisor count."""
    return len(abelian.divisors(n))

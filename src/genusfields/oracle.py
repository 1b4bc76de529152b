"""Brute-force ground truth for the genus computations.

Everything here works at the level of enumerated sets: subgroups of the
dual are frozensets of exponent vectors, and ramification is read off one
table of values per place: on the congruence subgroups at each prime, and
on every unit at infinity (-1 over Q, each constant of F_q* over F_q(T)),
each unit enumerated and taken through `dlog`.  One exhaustive search
over the places a group must respect gives the extended genus group (the
finite places) and the genus group (every place), with no component
inflation, plus part or read-off log of -1.  The point is to have a
second, independent route to every derived value.
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


INFINITY = "infinity"   # the key of the infinite place; finite ones are primes


@dataclass(frozen=True)
class SubfieldLattice:
    """Every character subgroup of one modulus, with ramification data."""

    ambient: object
    subgroups: tuple               # frozensets of dual exponent vectors
    profiles: dict      # frozenset -> {place: frozenset of value tuples}


def _value_tables(ambient):
    """For each place, the value tuple of every dual vector on its units:
    at a prime, the units congruent to 1 modulo the complementary part; at
    INFINITY, every unit at infinity, enumerated."""
    g = ambient.group
    duals = list(g.elements())
    blocks = {c.key: ambient.reduction_kernel(ambient.modulus // c.modulus)
              for c in ambient.components()}
    blocks[INFINITY] = ambient.infinity_residues()
    tables = {}
    for place, block in blocks.items():
        logs = [ambient.dlog(u) for u in block]
        tables[place] = {
            v: tuple(g.pairing(v, lg) for lg in logs) for v in duals}
    return tables


@lru_cache(maxsize=256)
def _lattice_cached(ambient):
    subs = enumerate_subgroups(ambient.group)
    tables = _value_tables(ambient)
    profiles = {s: {place: frozenset(table[v] for v in s)
                    for place, table in tables.items()} for s in subs}
    # sanity: the lattice is closed under meet and join
    sub_list = sorted(subs, key=lambda s: (len(s), sorted(s)))
    for a in sub_list:
        for b in sub_list:
            if not (a & b) in subs:
                raise RuntimeError("lattice not closed under intersection")
    return SubfieldLattice(ambient, tuple(sub_list), profiles)


def enumerate_subfields(ambient):
    """The complete character-subgroup lattice of one modulus."""
    return _lattice_cached(ambient)


def _as_group(ambient, s):
    return characters.CharacterGroup(
        ambient, abelian.subgroup_from_generators(ambient.group, sorted(s)))


def _maximal_search(x, places):
    """Largest character group Y whose values at each of `places` stay
    within X's: no ramification there beyond X's.  Scans the full subgroup
    lattice, asserts the candidate set is closed under join, and returns
    the unique maximum."""
    lattice = enumerate_subfields(x.ambient)
    x_profile = lattice.profiles[frozenset(x.dual.elements())]
    candidates = [s for s in lattice.subgroups
                  if all(lattice.profiles[s][place] <= x_profile[place]
                         for place in places)]
    best = max(candidates, key=len)
    for s in candidates:
        if not s <= best:
            raise RuntimeError("maximal-search candidates not join-closed")
    return _as_group(x.ambient, best)


def maximal_extended_search(x):
    """Search form of the extended genus group: the finite places only."""
    return _maximal_search(x, [c.key for c in x.ambient.components()])


def maximal_genus_search(x):
    """Search form of the genus group: every place, the infinite one too."""
    return _maximal_search(
        x, [c.key for c in x.ambient.components()] + [INFINITY])


def count_subgroups_cyclic(n):
    """Number of subgroups of a cyclic group: the divisor count."""
    return len(abelian.divisors(n))

"""The brute-force subgroup-lattice oracle against the closed forms."""

import pytest

from genusfields import abelian, characters as ch, fqpoly, genus_number as gn
from genusfields import oracle
from genusfields.errors import BoundExceededError


def test_subgroup_counts_cyclic():
    for n in (1, 2, 6, 12, 30, 48):
        g = abelian.group_from_cyclic_orders([n] if n > 1 else [])
        assert len(oracle.enumerate_subgroups(g)) \
            == oracle.count_subgroups_cyclic(n)


@pytest.mark.parametrize("orders,count", [
    ((2, 2), 5),
    ((2, 4), 8),
    ((2, 2, 2), 16),
    ((3, 3), 6),
    ((2, 6), 10),
])
def test_subgroup_counts_small_groups(orders, count):
    g = abelian.group_from_cyclic_orders(list(orders))
    assert len(oracle.enumerate_subgroups(g)) == count


def test_enumerated_sets_are_subgroups():
    g = abelian.group_from_cyclic_orders([4, 6])
    for s in oracle.enumerate_subgroups(g):
        assert g.identity in s
        for a in s:
            for b in s:
                assert g.add(a, b) in s
        assert g.order % len(s) == 0


def _sumset_join(group, a, b):
    """The join of two subgroup element sets as their sumset
    {x + y : x in a, y in b}, itself a subgroup: the reference for the
    coset join."""
    return frozenset(group.add(x, y) for x in a for y in b)


def _bfs_subgroups(group):
    cyclics = {oracle._cyclic_closure(group, x) for x in group.elements()}
    subgroups = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        s = frontier.pop()
        for c in cyclics:
            if c <= s:
                continue
            j = _sumset_join(group, s, c)
            if j not in subgroups:
                subgroups.add(j)
                frontier.append(j)
    return subgroups


@pytest.mark.parametrize("group", [
    ch.numeric_ambient(n).group for n in range(2, 101)] + [
    abelian.FiniteAbelianGroup(t) for t in
    ((2, 2, 4), (4, 8), (2, 4, 8), (2, 2, 2, 4), (8, 8), (2, 6, 12))],
    ids=str)
def test_coset_join_enumerates_the_bfs_lattice(group):
    assert oracle.enumerate_subgroups(group) == _bfs_subgroups(group)


def test_enumeration_bound():
    g = abelian.group_from_cyclic_orders([2] * 13)
    with pytest.raises(BoundExceededError):
        oracle.enumerate_subgroups(g)


def test_lattice_caches_and_orders_deterministically():
    amb = ch.numeric_ambient(40)
    a = oracle.enumerate_subfields(amb)
    b = oracle.enumerate_subfields(amb)
    assert a is b
    sizes = [len(s) for s in a.subgroups]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("n", [8, 15, 24, 45, 56, 63])
def test_oracle_matches_closed_forms_exhaustively(n):
    amb = ch.numeric_ambient(n)
    lattice = oracle.enumerate_subfields(amb)
    for s in lattice.subgroups:
        x = ch.CharacterGroup(
            amb, abelian.subgroup_from_generators(amb.group, sorted(s)))
        assert oracle.maximal_extended_search(x) \
            == gn.extended_genus_characters(x)
        assert oracle.maximal_genus_search(x) == gn.genus_characters(x)


def _forbid_closed_form_infinity(monkeypatch):
    """Make the closed forms' units at infinity and their read-off logs
    raise, so a lattice built after this reaches infinity only by
    enumerating its residues and taking their dlogs."""
    def fail(*_):
        raise AssertionError("the oracle reached a closed-form path")
    for cls in (ch.NumericAmbient, ch.FunctionFieldAmbient):
        monkeypatch.setattr(cls, "units_at_infinity", fail)
        monkeypatch.setattr(cls, "infinity_logs", fail)
    monkeypatch.setattr(abelian.UnitGroup, "minus_one_log", property(fail))
    oracle._lattice_cached.cache_clear()


def _record_dlogs(monkeypatch, cls):
    calls = []
    dlog = cls.dlog
    monkeypatch.setattr(cls, "dlog", lambda self, u: (
        calls.append(u), dlog(self, u))[1])
    return calls


@pytest.mark.parametrize("n", [8, 12, 35, 48, 60])
def test_oracle_parity_takes_the_dlog_of_minus_one(monkeypatch, n):
    # the infinite place's row stays on `UnitGroup.dlog` of n - 1, a path
    # independent of the read-off `minus_one_log` behind the reports
    calls = _record_dlogs(monkeypatch, abelian.UnitGroup)
    _forbid_closed_form_infinity(monkeypatch)
    amb = ch.NumericAmbient(n)
    lattice = oracle.enumerate_subfields(amb)
    assert n - 1 in calls
    monkeypatch.undo()
    for s in lattice.subgroups:
        assert (lattice.profiles[s][oracle.INFINITY] == {(0,)}) == all(
            ch.is_even(ch.Character(amb, v)) for v in s)


@pytest.mark.parametrize("p, s, coeffs", [
    (3, 1, (0, 1, 1)), (2, 2, (1, 1, 1)), (5, 1, (4, 0, 1)), (7, 1, (0, 1, 1)),
    (3, 2, (0, 1, 1))])
def test_oracle_infinity_row_takes_the_dlog_of_every_constant(
        monkeypatch, p, s, coeffs):
    # over F_q(T) the infinite place's row holds every constant 1..q - 1,
    # each through `UnitGroupModN.dlog`, not the closed form's generator;
    # N has two primes, so no constant but 1 lies in a prime's block
    fld = fqpoly.fq_field(p, s)
    calls = _record_dlogs(monkeypatch, fqpoly.UnitGroupModN)
    _forbid_closed_form_infinity(monkeypatch)
    amb = ch.FunctionFieldAmbient(
        fqpoly.factor_modulus(fqpoly.poly(fld, coeffs)))
    lattice = oracle.enumerate_subfields(amb)
    for c in range(1, fld.q):
        assert fqpoly.poly(fld, (c,)) in calls
    full = frozenset(amb.group.elements())
    assert len(lattice.profiles[full][oracle.INFINITY]) == fld.q - 1
    for sub in lattice.subgroups:
        x = ch.CharacterGroup(
            amb, abelian.subgroup_from_generators(amb.group, sorted(sub)))
        oracle.maximal_genus_search(x)
    monkeypatch.undo()
    oracle._lattice_cached.cache_clear()


def test_oracle_fixture_values_for_quadratic_fields():
    # degrees of the genus fields of Q(sqrt(-5)) and Q(sqrt(3)), found by
    # exhaustive search rather than the component formulas
    for d, genus_deg, gap in ((-20, 4, 1), (12, 2, 2)):
        chi = ch.kronecker_character(d)
        x = ch.character_group(chi.ambient, [chi])
        genus = oracle.maximal_genus_search(x)
        extended = oracle.maximal_extended_search(x)
        assert genus.order == genus_deg
        assert extended.order // genus.order == gap

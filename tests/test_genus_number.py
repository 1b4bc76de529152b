"""Genus and extended genus fields of abelian number fields."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from genusfields import abelian, characters as ch, genus_number as gn
from genusfields.errors import SchemaError


def quadratic_group(d):
    """Character group of Q(sqrt(d)) for a fundamental discriminant d."""
    chi = ch.kronecker_character(d)
    return ch.character_group(chi.ambient, [chi])


def plus_field_group(n):
    """Character group of the maximal real subfield Q(zeta_n)^+."""
    return gn.plus_part(ch.full_dual(ch.numeric_ambient(n)))


# ---------------------------------------------------------------------------
# Quadratic fixtures

def test_genus_of_q_sqrt_minus5():
    x = quadratic_group(-20)
    genus = gn.genus_characters(x)
    extended = gn.extended_genus_characters(x)
    assert genus.order == 4
    assert extended.order == 4
    assert gn.genus_gap(x) == 1
    # the genus field is Q(sqrt(-5), sqrt(5)) = Q(sqrt(5), sqrt(-1))
    chi5 = ch.inflate_to_modulus(ch.kronecker_character(5), x.ambient)
    chi4 = ch.inflate_to_modulus(ch.kronecker_character(-4), x.ambient)
    assert genus.contains(chi5) and genus.contains(chi4)


def test_genus_of_q_sqrt3():
    x = quadratic_group(12)
    genus = gn.genus_characters(x)
    extended = gn.extended_genus_characters(x)
    assert genus.order == 2
    assert extended.order == 4
    assert gn.genus_gap(x) == 2
    assert genus == ch.join(x, ch.trivial_group(x.ambient))


def test_genus_contains_field_and_extended_contains_genus():
    for d in (-20, 12, -24, 28, -15, 33):
        x = quadratic_group(d)
        genus = gn.genus_characters(x)
        extended = gn.extended_genus_characters(x)
        assert genus.contains(ch.Character(x.ambient, x.generators()[0].exponents))
        assert extended.order % genus.order == 0
        assert extended.order // genus.order in (1, 2)


def _prime_discriminants(d):
    """The prime discriminants p* whose product is the fundamental
    discriminant d: (-1)^((p-1)/2) p at odd p, and -4, 8 or -8 at 2."""
    odd = [p if p % 4 == 1 else -p
           for p, _ in abelian.factorize(abs(d)) if p > 2]
    rest = d
    for p in odd:
        rest //= p
    return odd + ([rest] if rest != 1 else [])


def test_gauss_genus_theory_at_scale():
    # the narrow genus field of Q(sqrt d) is Q(sqrt p_1*, ..., sqrt p_t*),
    # so the extended genus has degree 2^(t-1) over K, and for d > 0 the
    # genus field drops to the real part exactly when some p_i* < 0
    rng = random.Random(9)
    seen = 0
    while seen < 60:
        d = rng.choice((-1, 1)) * rng.randrange(10 ** 5, 10 ** 6)
        if not ch.is_fundamental_discriminant(d):
            continue
        seen += 1
        stars = _prime_discriminants(d)
        report = gn.build_report(quadratic_group(d))
        assert report.extended_degree_over_k == 2 ** (len(stars) - 1), d
        assert report.gap == (2 if d > 0 and min(stars) < 0 else 1), d


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_ishida_cyclic_odd_prime_degree(ell):
    # a cyclic field of odd prime degree ell ramified at t primes has
    # extended genus order ell^t (Ishida, LNM 555, 1976); it can ramify
    # at ell itself (conductor ell^2) and at primes = 1 mod ell
    rng = random.Random(ell)
    primes = [p for p in range(3, 100)
              if p % ell == 1 and abelian.factorize(p) == [(p, 1)]]
    for t in (1, 2, 3):
        for _ in range(4):
            chosen = rng.sample([ell] + primes, t)
            levels = [p ** (2 if p == ell else 1) for p in chosen]
            amb = ch.numeric_ambient(math.prod(levels))
            chi = ch.Character(amb, amb.group.identity)
            for m in levels:
                sub = ch.numeric_ambient(m)
                d, = sub.group.invariant_factors
                chi = chi * ch.inflate_to_modulus(ch.Character(
                    sub, (d // ell * rng.randrange(1, ell),)), amb)
            x = ch.character_group(amb, [chi])
            assert x.order == ell
            report = gn.build_report(x)
            assert sorted(key for key, e, *_ in report.primes if e > 1) \
                == sorted(chosen)
            assert report.extended_degree_over_k * ell == ell ** t
            assert report.gap == 1


def test_cyclotomic_fields_are_their_own_genus():
    for n in (5, 8, 12, 15, 21, 40):
        x = ch.full_dual(ch.numeric_ambient(n))
        assert gn.genus_characters(x) == x
        assert gn.extended_genus_characters(x) == x


def test_intersection_degree_counterexample_at_two():
    # Q(sqrt 2) and Q(i) both have degree 2 but intersect in Q
    amb = ch.numeric_ambient(8)
    x_sqrt2 = ch.character_group(
        amb, [ch.inflate_to_modulus(ch.kronecker_character(8), amb)])
    x_i = ch.character_group(
        amb, [ch.inflate_to_modulus(ch.kronecker_character(-4), amb)])
    assert x_sqrt2.order == 2 and x_i.order == 2
    assert ch.meet(x_sqrt2, x_i).order == 1


@given(st.integers(3, 200), st.data())
@settings(max_examples=150, deadline=None)
def test_gap_is_one_or_two(n, data):
    amb = ch.numeric_ambient(n)
    vecs = data.draw(st.lists(
        st.sampled_from(list(amb.group.elements())), min_size=1, max_size=3))
    x = ch.character_group(amb, [ch.Character(amb, v) for v in vecs])
    assert gn.genus_gap(x) in (1, 2)


# ---------------------------------------------------------------------------
# Composition

def test_composition_fixture_3_5_7_11():
    x1 = plus_field_group(15)
    x2 = plus_field_group(77)
    assert gn.genus_characters(x1) == x1
    assert gn.genus_characters(x2) == x2
    g_comp, g_join, gap = gn.compose_genus(x1, x2)
    assert gap == 2
    assert g_comp == plus_field_group(1155)


def test_composition_trivial_and_idempotent():
    x1 = quadratic_group(-20)
    triv = ch.trivial_group(ch.numeric_ambient(3))
    g_comp, g_join, gap = gn.compose_genus(x1, triv)
    assert gap == 1
    g_comp, g_join, gap = gn.compose_genus(x1, x1)
    assert gap == 1
    assert g_comp == g_join == gn.genus_characters(x1)


def test_extended_genus_is_multiplicative_on_samples():
    rng = random.Random(7)
    moduli = [n for n in range(3, 120)]
    for _ in range(40):
        n1, n2 = rng.choice(moduli), rng.choice(moduli)
        a1, a2 = ch.numeric_ambient(n1), ch.numeric_ambient(n2)
        x1 = ch.character_group(
            a1, [ch.Character(a1, rng.choice(list(a1.group.elements())))])
        x2 = ch.character_group(
            a2, [ch.Character(a2, rng.choice(list(a2.group.elements())))])
        from math import lcm
        amb = ch.numeric_ambient(lcm(n1, n2))
        y1, y2 = gn.inflate_group(x1, amb), gn.inflate_group(x2, amb)
        lhs = gn.extended_genus_characters(ch.join(y1, y2))
        rhs = ch.join(gn.extended_genus_characters(y1),
                      gn.extended_genus_characters(y2))
        assert lhs == rhs
        _, _, gap = gn.compose_genus(x1, x2)
        assert gap in (1, 2)


# ---------------------------------------------------------------------------
# Local-data degree formulas

def test_lp_degree_odd_prime_matches_gcd():
    units = abelian.unit_group(5)
    g = units.group
    h_index2 = abelian.subgroup_from_generators(g, [(2,)])
    h_index4 = abelian.trivial_subgroup(g)
    data = gn.LocalPrimeData(5, 1, (
        gn.PrimeAboveData(1, 1, h_index2),
        gn.PrimeAboveData(1, 1, h_index4)))
    assert gn.lp_degree_from_local(data) == 2


def test_lp_degree_at_two_product_not_gcd():
    units = abelian.unit_group(8)
    g = units.group
    h1 = abelian.subgroup_from_generators(g, [units.dlog(3)])
    h2 = abelian.subgroup_from_generators(g, [units.dlog(5)])
    assert h1.index == 2 and h2.index == 2
    data = gn.LocalPrimeData(2, 3, (
        gn.PrimeAboveData(2, 1, h1),
        gn.PrimeAboveData(2, 1, h2)))
    # the product of the two index-2 subgroups is everything
    assert gn.lp_degree_from_local(data) == 1


def test_lp_degree_rejects_mismatched_level():
    units = abelian.unit_group(25)
    h = abelian.full_subgroup(units.group)
    data = gn.LocalPrimeData(5, 1, (gn.PrimeAboveData(1, 1, h),))
    with pytest.raises(SchemaError):
        gn.lp_degree_from_local(data)


def test_lp_degree_stability():
    units = abelian.unit_group(25)
    g = units.group
    # subgroup containing all units = 1 mod 5: stable at level 2
    kern = abelian.subgroup_from_generators(
        g, [units.dlog(u) for u in units.residues() if u % 5 == 1])
    data = gn.LocalPrimeData(5, 2, (gn.PrimeAboveData(1, 1, kern),))
    assert gn.lp_degree_is_stable(data)
    # trivial subgroup: the level never certifies the index
    data = gn.LocalPrimeData(
        5, 2, (gn.PrimeAboveData(1, 1, abelian.trivial_subgroup(g)),))
    assert not gn.lp_degree_is_stable(data)


def test_tame_degree_examples():
    assert gn.tame_degree(7, [4, 6]) == 2
    assert gn.tame_degree(5, [5]) == 1
    assert gn.tame_degree(13, [12, 12, 12]) == 12
    with pytest.raises(SchemaError):
        gn.tame_degree(2, [2])
    with pytest.raises(SchemaError):
        gn.tame_degree(7, [])


# ---------------------------------------------------------------------------
# The 2-adic trichotomy

def _subgroup_mod(n, residues):
    units = abelian.unit_group(n)
    return abelian.subgroup_from_generators(
        units.group, [units.dlog(u) for u in residues])


def test_classify_l2_plus():
    h = _subgroup_mod(16, [15])
    out = gn.classify_l2(h, 16)
    assert out.tag == gn.PLUS_FIELD and out.m == 2
    assert out.field_label == "Q(zeta_16)^+"


def test_classify_l2_minus():
    h = _subgroup_mod(16, [7])
    out = gn.classify_l2(h, 16)
    assert out.tag == gn.MINUS_FIELD and out.m == 2
    assert out.field_label == "Q(zeta_16)^-"


def test_classify_l2_full_cyclotomic():
    # units congruent to 1 mod 8 inside (Z/32)*: fixed field Q(zeta_8)
    units = abelian.unit_group(32)
    h = abelian.subgroup_from_generators(
        units.group, [units.dlog(u) for u in units.residues() if u % 8 == 1])
    out = gn.classify_l2(h, 32)
    assert out.tag == gn.FULL_CYCLOTOMIC and out.m == 2
    assert out.field_label == "Q(zeta_8)"


def test_classify_l2_trivial_index():
    h = abelian.full_subgroup(abelian.unit_group(8).group)
    out = gn.classify_l2(h, 8)
    assert out.tag == gn.PLUS_FIELD and out.m == 0 and out.field_label == "Q"


def test_classify_l2_rejects_bad_input():
    units = abelian.unit_group(15)
    with pytest.raises(SchemaError):
        gn.classify_l2(abelian.full_subgroup(units.group), 15)
    h = _subgroup_mod(16, [7])
    with pytest.raises(SchemaError):
        gn.classify_l2(h, 16, m=3)
    with pytest.raises(SchemaError):
        gn.classify_l2(h, 32)


def test_classify_l2_exactly_one_branch_small():
    for k in (2, 3, 4, 5):
        n = 1 << k
        units = abelian.unit_group(n)
        from genusfields import oracle
        for s in oracle.enumerate_subgroups(units.group):
            idx = units.group.order // len(s)
            if idx & (idx - 1):
                continue
            h = abelian.subgroup_from_generators(units.group, sorted(s))
            out = gn.classify_l2(h, n)
            assert out.tag in (gn.PLUS_FIELD, gn.FULL_CYCLOTOMIC,
                               gn.MINUS_FIELD)
            assert 1 << out.m == idx


# ---------------------------------------------------------------------------
# Reports

def test_build_report_for_sqrt_minus5():
    x = quadratic_group(-20)
    report = gn.build_report(x)
    assert report.field_degree == 2
    assert report.gap == 1
    assert report.genus_degree_over_k == 2
    assert report.extended_degree_over_k == 2
    assert report.conductor == "20"
    table = {row[0]: row[1:] for row in report.prime_table}
    assert table["2"] == (2, 1, 2, 2)   # e, tame, wild, component degree
    assert table["5"] == (2, 2, 1, 2)

"""Carlitz arithmetic, function-field genus groups, and the infinite prime."""

import itertools
import math
import random

import pytest

from genusfields import abelian, characters as ch, fqpoly, genus_function as gf
from genusfields import genus_number as gn
from genusfields import oracle
from genusfields.errors import BoundExceededError, PrecisionError, SchemaError
from reference import (carlitz_value, poly_from_code, school_field_add,
                       school_field_mul, trivial_group)

F2 = fqpoly.fq_field(2)
F3 = fqpoly.fq_field(3)
F4 = fqpoly.fq_field(2, 2)


# ---------------------------------------------------------------------------
# Carlitz operators

def test_carlitz_base_cases():
    op = gf.carlitz_operator(fqpoly.variable(F3))
    assert [str(c) for c in op.coeffs] == ["T", "1"]
    assert gf.carlitz_operator(fqpoly.one(F3)) == \
        gf.CarlitzOperator(F3, (fqpoly.one(F3),))
    zero_like = gf.carlitz_operator(fqpoly.poly(F3, (2,)))
    assert zero_like.coeffs == (fqpoly.poly(F3, (2,)),)


def test_carlitz_t_squared_over_f2():
    op = gf.carlitz_operator(fqpoly.poly(F2, (0, 0, 1)))
    assert [str(c) for c in op.coeffs] == ["T^2", "T^2 + T", "1"]


def test_carlitz_linear_degree_and_leading():
    for fld in (F2, F3, F4):
        for code in range(1, fld.q ** 3):
            m = poly_from_code(fld, code)
            op = gf.carlitz_operator(m)
            assert op.linear_degree == m.degree
            lead = op.coeffs[-1]
            assert lead.degree == 0
            assert lead.coeffs == m.coeffs[-1:]


@pytest.mark.parametrize("fld", [F2, F3])
def test_carlitz_composition_and_additivity_small(fld):
    polys = [poly_from_code(fld, c) for c in range(fld.q ** 3)]
    for a in polys:
        ca = gf.carlitz_operator(a)
        for b in polys:
            cb = gf.carlitz_operator(b)
            assert gf.carlitz_operator(a * b) == ca.compose(cb)
            assert gf.carlitz_operator(a + b) == ca + cb


def test_carlitz_evaluation_matches_composition():
    a = fqpoly.poly(F3, (1, 2, 1))
    b = fqpoly.poly(F3, (0, 1, 1))
    ca, cb = gf.carlitz_operator(a), gf.carlitz_operator(b)
    for code in range(27):
        x = poly_from_code(F3, code)
        both = carlitz_value(ca, carlitz_value(cb, x))
        assert both == carlitz_value(ca.compose(cb), x)
        assert carlitz_value(gf.carlitz_operator(a * b), x) == both


def test_carlitz_is_fq_linear():
    op = gf.carlitz_operator(fqpoly.poly(F4, (1, 1)))
    xs = [poly_from_code(F4, c) for c in range(16)]
    for x in xs:
        for y in xs:
            assert carlitz_value(op, x + y) == \
                carlitz_value(op, x) + carlitz_value(op, y)
        for c in range(4):
            assert carlitz_value(op, x.scale(c)) == \
                carlitz_value(op, x).scale(c)


def test_torsion_counts():
    assert gf.torsion_order_check(fqpoly.variable(F2)) == 2
    assert gf.torsion_order_check(fqpoly.variable(F3)) == 3
    assert gf.torsion_order_check(fqpoly.poly(F2, (1, 1, 1))) == 4
    assert gf.torsion_order_check(fqpoly.poly(F3, (0, 1, 1))) == 9


# ---------------------------------------------------------------------------
# The idele-quotient isomorphism

def test_idele_check_spec_examples():
    # irreducible modulus: single block, residue-field units
    assert gf.idele_quotient_check(
        fqpoly.factor_modulus(fqpoly.poly(F2, (1, 1, 1))))
    # q=2, N=T^2: both sides of order 2
    assert gf.idele_quotient_check(
        fqpoly.factor_modulus(fqpoly.poly(F2, (0, 0, 1))))
    # q=3, N=T(T+1): C2 x C2
    assert gf.idele_quotient_check(
        fqpoly.factor_modulus(fqpoly.poly(F3, (0, 1, 1))))


# q = 4 is outside selftest criterion 8, which sweeps q in {2, 3}
@pytest.mark.parametrize("fld,bound", [(F2, 2 ** 6), (F3, 3 ** 3),
                                       (F4, 4 ** 4)])
def test_idele_check_small_sweep(fld, bound):
    for fm in gf.all_factored_moduli(fld, bound):
        assert gf.idele_quotient_check(fm)


def test_all_factored_moduli_counts():
    # one factored modulus per monic polynomial with a nonzero constant
    # or ... per monic polynomial of degree >= 1
    mods = gf.all_factored_moduli(F2, 2 ** 4)
    assert len(mods) == len([c for d in range(1, 5)
                             for c in fqpoly.monic_polys(F2, d)])
    prods = {fm.modulus for fm in mods}
    assert len(prods) == len(mods)


# ---------------------------------------------------------------------------
# Extended genus over F_q(T)

def _x_diagonal_f3():
    amb = ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(F3, (0, 1, 1))))
    return ch.CharacterGroup(
        amb, abelian.subgroup_from_generators(amb.group, [(1, 1)]))


def test_extended_ff_full_dual_of_irreducible_is_itself():
    amb = ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(F3, (1, 0, 1))))
    x = ch.full_dual(amb)
    assert gf.extended_genus_characters_ff(x) == x


def test_extended_ff_diagonal_subgroup_fills_the_dual():
    x = _x_diagonal_f3()
    y = gf.extended_genus_characters_ff(x)
    assert x.order == 2 and y.order == 4
    assert y == ch.full_dual(x.ambient)
    assert oracle.maximal_extended_search(x) == y


def test_extended_ff_trivial_is_trivial():
    amb = _x_diagonal_f3().ambient
    assert gf.extended_genus_characters_ff(trivial_group(amb)).order == 1


def test_extended_ff_matches_oracle_exhaustively():
    for fld, coeffs in ((F2, (0, 1, 1, 1)), (F3, (0, 1, 1)), (F2, (0, 0, 0, 1))):
        amb = ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(fld, coeffs)))
        for s in oracle.enumerate_subfields(amb).subgroups:
            x = ch.CharacterGroup(
                amb, abelian.subgroup_from_generators(amb.group, sorted(s)))
            assert oracle.maximal_extended_search(x) \
                == gf.extended_genus_characters_ff(x)
            assert oracle.maximal_genus_search(x) == gn.genus_characters(x)


@pytest.mark.parametrize("p, s", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_genus_ff_matches_oracle_sweep(p, s):
    # every subgroup of every modulus of degree <= 3 with |G| <= 48: the
    # search over every place, the infinite one by each constant of F_q*,
    # finds the closed form's genus group
    fld = fqpoly.fq_field(p, s)
    for fm in gf.all_factored_moduli(fld, fld.q ** 3):
        if fm.unit_order() > 48:
            continue
        amb = ch.ff_ambient(fm)
        for sub in oracle.enumerate_subfields(amb).subgroups:
            x = ch.CharacterGroup(
                amb, abelian.subgroup_from_generators(amb.group, sorted(sub)))
            assert oracle.maximal_genus_search(x) == gn.genus_characters(x)
            assert oracle.maximal_extended_search(x) \
                == gf.extended_genus_characters_ff(x)


def test_genus_ff_index_divides_q_minus_one():
    x = _x_diagonal_f3()
    g = gf.genus_characters_ff(x)
    y = gf.extended_genus_characters_ff(x)
    assert y.order % g.order == 0
    assert (x.ambient.field.q - 1) % (y.order // g.order) == 0


def _constants_kernel_by_enumeration(x):
    """Members of X trivial on every nonzero constant, evaluated one by one."""
    fld = x.ambient.field
    consts = [fqpoly.poly(fld, (c,)) for c in range(1, fld.q)]
    chars = [ch.Character(x.ambient, vec) for vec in x.dual.elements()]
    keep = [chi for chi in chars
            if all(chi.value_exponent(c) == 0 for c in consts)]
    return ch.character_group(x.ambient, keep)


@pytest.mark.parametrize("p, s, size", [
    (2, 1, 32), (3, 1, 27), (2, 2, 16), (5, 1, 25), (7, 1, 49),
    (2, 3, 8), (3, 2, 9)])
def test_plus_part_is_the_constants_kernel(p, s, size):
    fld = fqpoly.fq_field(p, s)
    rng = random.Random(p * 10 + s)
    for fm in gf.all_factored_moduli(fld, size):
        amb = ch.ff_ambient(fm)
        els = list(amb.group.elements())
        for x in (ch.full_dual(amb), ch.character_group(
                amb, [ch.Character(amb, rng.choice(els)) for _ in range(2)])):
            expected = _constants_kernel_by_enumeration(x)
            assert gn.plus_part(x) == expected
            assert gf.constants_kernel_part(x) == expected
            assert gf.genus_characters_ff(x) == gn.genus_characters(x)


def test_component_fields_examples():
    # q=2, N = T(T^2+T+1), full dual: component orders 1 and 3
    amb = ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(F2, (0, 1, 1, 1))))
    t = fqpoly.variable(F2)
    out = gf.component_fields(ch.full_dual(amb))
    assert out[t] == (1, 0)
    other = [k for k in out if k != t][0]
    assert out[other] == (3, 1)
    # trivial group: all components trivial
    out = gf.component_fields(trivial_group(amb))
    assert all(v == (1, 0) for v in out.values())
    # two irreducibles over F3: orders q^d - 1 each, product = total
    amb = ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(F3, (0, 1, 1))))
    out = gf.component_fields(ch.full_dual(amb))
    assert sorted(v[0] for v in out.values()) == [2, 2]
    assert math.prod(v[0] for v in out.values()) == 4


def test_component_inflations_meet_trivially():
    amb = ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(F2, (0, 1, 1, 1))))
    x = ch.full_dual(amb)
    comps = ch.component_decompose(x)
    inflated = []
    for component in amb.components():
        gens = [ch.inflate_from_component(psi, amb, component)
                for psi in comps[component.key].generators()]
        inflated.append(ch.character_group(amb, gens))
    assert abelian.intersect(inflated[0].dual, inflated[1].dual).order == 1
    assert ch.join(inflated[0], inflated[1]) == x


def test_tame_ramification_ff():
    assert gf.tame_ramification_ff(1, 4, 3) == 2
    assert gf.tame_ramification_ff(2, 9, 2) == 3
    for q, d in ((2, 3), (3, 2), (4, 2)):
        assert gf.tame_ramification_ff(d, q ** d - 1, q) == q ** d - 1


def _local_degree(units, key, *subs):
    return gn.lp_degree_from_local(
        units, key, [gn.PrimeAboveData(1, 1, h) for h in subs])[0]


def test_ep_degree_from_local():
    # [E_P : k] on the local path of every place, at P = T
    t3 = fqpoly.variable(F3)
    amb = ch.ff_ambient(fqpoly.factored(F3, [(t3, 1)]))
    full = abelian.full_subgroup(amb.group)
    assert _local_degree(amb, t3, full) == 1
    triv = abelian.trivial_subgroup(amb.group)
    assert _local_degree(amb, t3, triv) == 2
    # cyclic order-12 level-1 quotient: subgroups of indices 4 and 6, and
    # the gcd cross-check runs
    F13 = fqpoly.fq_field(13)
    t13 = fqpoly.variable(F13)
    amb13 = ch.ff_ambient(fqpoly.factored(F13, [(t13, 1)]))
    assert amb13.group.order == 12 and amb13.group.rank == 1
    h4 = abelian.subgroup_from_generators(amb13.group, [(4,)])
    h6 = abelian.subgroup_from_generators(amb13.group, [(6,)])
    assert h4.index == 4 and h6.index == 6
    assert _local_degree(amb13, t13, h4, h6) == 2
    assert gf.tame_ramification_ff(1, math.gcd(4, 6), 13) \
        == math.gcd(4, 6, 12)


def test_ep_degree_rejects_wrong_level():
    t3 = fqpoly.variable(F3)
    amb1 = ch.ff_ambient(fqpoly.factored(F3, [(t3, 1)]))
    amb2 = ch.ff_ambient(fqpoly.factored(F3, [(t3, 2)]))
    h = abelian.full_subgroup(amb2.group)
    with pytest.raises(SchemaError):
        _local_degree(amb1, t3, h)


# ---------------------------------------------------------------------------
# Infinite-prime model and S-field invariants

def test_infinity_units_structure():
    assert str(gf.InfinityUnits(F2, 3).group) == "C4"
    assert str(gf.InfinityUnits(F3, 2).group) == "C6"
    assert str(gf.InfinityUnits(F2, 1).group) == "C1"


def _series_mul(fld, n_max, x, y):
    """(c, 1 + sum a_i pi^i) * (d, 1 + sum b_i pi^i) truncated at
    pi^n_max: the group law of F_q* x U^(1)/U^(n_max) on pairs, written
    with scalar field arithmetic only, as the reference for the model."""
    c = school_field_mul(fld, x[0], y[0])
    a = (1,) + x[1]
    b = (1,) + y[1]
    out = [0] * n_max
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v and i + j < n_max:
                    out[i + j] = school_field_add(
                        fld, out[i + j], school_field_mul(fld, u, v))
    return (c, tuple(out[1:]))


def _one_units(inf, n):
    """U^(n) at infinity, generated by its dlog vectors."""
    return abelian.subgroup_from_generators(
        inf.group, inf.ambient.one_units(inf.key, n))


def test_infinity_units_round_trip_and_homomorphism():
    # dlog on every pair (c, tail) is a bijection onto the group and a
    # homomorphism for the truncated-series law; U^(n) is the span of
    # the pairs (1, tail) with tail[:n - 1] = 0
    for fld, n_max in ((F2, 4), (F3, 3), (F4, 3)):
        inf = gf.InfinityUnits(fld, n_max)
        pairs = [(c, tail) for c in range(1, fld.q) for tail in
                 itertools.product(range(fld.q), repeat=n_max - 1)]
        logs = {x: inf.dlog(x) for x in pairs}
        assert len(set(logs.values())) == len(pairs) == inf.group.order
        assert set(logs.values()) == set(inf.group.elements())
        for x in pairs:
            for y in pairs:
                assert logs[_series_mul(fld, n_max, x, y)] \
                    == inf.group.add(logs[x], logs[y])
        for n in range(1, n_max + 1):
            assert _one_units(inf, n) == abelian.subgroup_from_generators(
                inf.group, [logs[x] for x in pairs
                            if x[0] == 1 and not any(x[1][:n - 1])])


def test_one_unit_filtration_is_decreasing():
    inf = gf.InfinityUnits(F2, 4)
    orders = [_one_units(inf, n).order for n in range(5)]
    assert orders[0] == inf.group.order
    for a, b in zip(orders, orders[1:]):
        assert a % b == 0 and a >= b
    assert orders[4] == 1


def test_infinity_units_bound():
    with pytest.raises(BoundExceededError):
        gf.InfinityUnits(F2, 14)


_T2 = fqpoly.variable(F2)
_T2_25 = fqpoly.poly(F2, (0,) * 25 + (1,))


@pytest.mark.parametrize("build, size, bound", [
    (lambda: oracle.enumerate_subgroups(
        abelian.group_from_cyclic_orders([2] * 13)), 2 ** 13, 2 ** 12),
    (lambda: abelian.FiniteAbelianGroup((2 ** 32, 2 ** 32)), 2 ** 64,
     abelian.ORDER_BOUND),
    (lambda: fqpoly.factor_modulus(_T2_25), 2 ** 25, 2 ** 24),
    (lambda: fqpoly._PrimePowerUnits(_T2, 21), 2 ** 21, 2 ** 20),
    (lambda: fqpoly.UnitGroupModN(fqpoly.factored(F2, [(_T2, 21)])),
     2 ** 21, 2 ** 20),
    (lambda: gf.torsion_order_check(_T2_25), 2 ** 25, 2 ** 24),
    (lambda: gf.idele_quotient_check(fqpoly.factored(F2, [(_T2, 14)])),
     2 ** 14, 2 ** 13),
    (lambda: gf.InfinityUnits(F2, 14), 2 ** 13, 2 ** 12),
], ids=["enumerate_subgroups", "FiniteAbelianGroup", "factor_modulus",
        "_PrimePowerUnits", "UnitGroupModN", "torsion_order_check",
        "idele_quotient_check", "InfinityUnits"])
def test_bound_messages_name_size_and_bound(build, size, bound):
    with pytest.raises(BoundExceededError) as exc:
        build()
    words = str(exc.value).replace(",", " ").replace(")", " ").split()
    assert str(size) in words and str(bound) in words


def _primes_above(*records):
    return [gn.PrimeAboveData(*rec) for rec in records]


def test_s_field_split_infinity():
    inf = gf.InfinityUnits(F2, 3)
    data = _primes_above((1, 1, abelian.full_subgroup(inf.group)))
    inv = gf.s_field_invariants(data, inf)
    assert (inv.t0, inv.n0, inv.m0, inv.alpha) == (1, 0, 1, 0)


def test_s_field_t0_is_gcd():
    inf = gf.InfinityUnits(F2, 2)
    data = _primes_above(*((1, t) for t in (2, 4, 6)))
    inv = gf.s_field_invariants(data, inf)
    assert inv.t0 == 2
    assert inv.f_infinity == 2


def test_s_field_wild_quadratic_at_infinity():
    inf = gf.InfinityUnits(F2, 3)
    h = _one_units(inf, 2)
    data = _primes_above((2, 1, h))
    inv = gf.s_field_invariants(data, inf)
    assert inv.alpha == 1 and inv.n0 == 2
    assert inv.t0 == 1 and inv.m0 == 1 and inv.f_infinity == 1


def test_s_field_precision_error_when_level_too_coarse():
    inf = gf.InfinityUnits(F2, 3)
    data = _primes_above((4, 1, abelian.trivial_subgroup(inf.group)))
    with pytest.raises(PrecisionError):
        gf.s_field_invariants(data, inf)


def test_s_field_f_infinity_matches_t0():
    import random
    rng = random.Random(11)
    inf = gf.InfinityUnits(F3, 2)
    for _ in range(100):
        ts = [rng.randrange(1, 30) for _ in range(rng.randrange(1, 5))]
        data = _primes_above(
            *((1, t, abelian.full_subgroup(inf.group)) for t in ts))
        inv = gf.s_field_invariants(data, inf)
        assert inv.t0 == math.gcd(*ts) if len(ts) > 1 else inv.t0 == ts[0]
        assert inv.f_infinity == inv.t0

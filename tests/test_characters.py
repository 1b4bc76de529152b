"""Dirichlet characters, Kronecker symbols, and character groups."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from genusfields import abelian, characters as ch, fqpoly
from genusfields import genus_function as gf, genus_number as gn
from genusfields.errors import SchemaError
from reference import (code, is_even, kernel_elements, poly_gcd,
                       trivial_group)


# ---------------------------------------------------------------------------
# Kronecker symbol

def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_kronecker_matches_legendre_at_odd_primes(p):
    for a in range(-2 * p, 2 * p):
        assert ch.kronecker_symbol(a, p) == _legendre(a, p)


def test_kronecker_at_two():
    # (d/2) is 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
    for d in range(-40, 40):
        expected = 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
        assert ch.kronecker_symbol(d, 2) == expected


@given(st.integers(-500, 500), st.integers(1, 200), st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_kronecker_multiplicative_in_bottom(d, m, n):
    assert (ch.kronecker_symbol(d, m * n)
            == ch.kronecker_symbol(d, m) * ch.kronecker_symbol(d, n))


def test_fundamental_discriminants():
    fund = [d for d in range(-30, 34) if ch.is_fundamental_discriminant(d)]
    assert fund == [-24, -23, -20, -19, -15, -11, -8, -7, -4, -3,
                    5, 8, 12, 13, 17, 21, 24, 28, 29, 33]


@pytest.mark.parametrize("d", [-20, -4, -3, 5, 8, -8, 12, 13, -23, 28])
def test_kronecker_character_values_and_conductor(d):
    chi = ch.kronecker_character(d)
    amb = chi.ambient
    assert amb.modulus == abs(d) if d != 1 else amb.modulus == 1
    assert amb.group.element_order(chi.exponents) == 2
    e = amb.group.exponent if amb.group.rank else 1
    for u in amb.residues():
        sym = ch.kronecker_symbol(d, u)
        expect = 0 if sym == 1 else e // 2
        assert chi.value_exponent(u) == expect
    assert ch.conductor(chi) == abs(d)
    assert is_even(chi) == (d > 0)


def test_quadratic_character_factorization():
    # chi_{-20} = chi_{-4} * chi_5 after inflation to modulus 20
    amb = ch.numeric_ambient(20)
    chi = ch.kronecker_character(-20)
    a4 = ch.inflate_to_modulus(ch.kronecker_character(-4), amb)
    a5 = ch.inflate_to_modulus(ch.kronecker_character(5), amb)
    assert chi.exponents == amb.group.add(a4.exponents, a5.exponents)


# ---------------------------------------------------------------------------
# Characters on numeric moduli

def test_character_from_values_round_trip():
    amb = ch.numeric_ambient(35)
    g = amb.group
    for vec in g.elements():
        chi = ch.Character(amb, vec)
        e = g.exponent
        vals = [chi.value_exponent(gen) for gen in amb.generators]
        again = ch.character_from_values(amb, vals, e)
        assert again == chi


def test_character_from_values_rejects_impossible_orders():
    amb = ch.numeric_ambient(5)   # cyclic of order 4
    with pytest.raises(SchemaError):
        ch.character_from_values(amb, (1,), 3)
    with pytest.raises(SchemaError):
        ch.character_from_values(amb, (1, 0), 4)


@given(st.integers(3, 150))
@settings(max_examples=60, deadline=None)
def test_characters_are_multiplicative(n):
    amb = ch.numeric_ambient(n)
    g = amb.group
    e = g.exponent
    chars = [ch.Character(amb, vec) for vec in list(g.elements())[:6]]
    residues = list(amb.residues())[:8]
    for chi in chars:
        for u in residues:
            for v in residues:
                assert (chi.value_exponent(u * v % n)
                        == (chi.value_exponent(u) + chi.value_exponent(v)) % e)


def test_nontrivial_characters_are_separated():
    amb = ch.numeric_ambient(72)
    for vec in amb.group.elements():
        chi = ch.Character(amb, vec)
        if not any(chi.exponents):
            assert all(chi.value_exponent(u) == 0 for u in amb.residues())
        else:
            assert any(chi.value_exponent(u) != 0 for u in amb.residues())


def test_conductor_on_modulus_100():
    amb = ch.numeric_ambient(100)
    for vec in amb.group.elements():
        chi = ch.Character(amb, vec)
        f = ch.conductor(chi)
        assert 100 % f == 0
        # the character is trivial on units congruent to 1 mod f
        assert all(chi.value_exponent(u) == 0
                   for u in amb.reduction_kernel(f))
        # and f is minimal among divisor moduli with that property
        for m in [d for d in range(1, 101) if 100 % d == 0]:
            if m < f and f % m == 0:
                assert any(chi.value_exponent(u) != 0
                           for u in amb.reduction_kernel(m))


def test_parity_counts():
    amb = ch.numeric_ambient(35)
    chars = [ch.Character(amb, v) for v in amb.group.elements()]
    evens = [chi for chi in chars if is_even(chi)]
    assert len(evens) * 2 == len(chars)


# ---------------------------------------------------------------------------
# Component restriction and inflation

@pytest.mark.parametrize("n", [12, 20, 45, 72, 100, 105])
def test_component_restriction_preserves_values(n):
    amb = ch.numeric_ambient(n)
    for vec in list(amb.group.elements())[:12]:
        chi = ch.Character(amb, vec)
        for component in amb.components():
            psi = ch.restrict_to_component(chi, component)
            sub = amb.component_ambient(component)
            e = amb.group.exponent
            e_sub = sub.group.exponent if sub.group.rank else 1
            for u in sub.residues():
                lifted = amb.lift(component, u)
                assert (chi.value_exponent(lifted) * e_sub
                        == psi.value_exponent(u) * e)


@pytest.mark.parametrize("n", [12, 45, 100])
def test_component_decomposition_multiplies_orders(n):
    amb = ch.numeric_ambient(n)
    full = ch.full_dual(amb)
    comps = ch.component_decompose(full)
    total = math.prod(x.order for x in comps.values())
    assert total == full.order


def _split_ambients():
    """Every numeric ambient mod n <= 300, and every F_q[T] ambient with
    q in {2, 3, 4} and q^deg <= 64."""
    out = [ch.numeric_ambient(n) for n in range(2, 301)]
    for q in (2, 3, 4):
        p, s = abelian.factorize(q)[0]
        fld = fqpoly.fq_field(p, s)
        degree = 1
        while q ** degree <= 64:
            out += [ch.ff_ambient(fqpoly.factor_modulus(n))
                    for n in fqpoly.monic_polys(fld, degree)]
            degree += 1
    return out


def _mat_mul(a, b, d):
    """a b on row vectors of the dual, column j reduced mod d_j."""
    k = len(d)
    return tuple(tuple(sum(a[i][m] * b[m][j] for m in range(k)) % d[j]
                       for j in range(k)) for i in range(k))


def test_component_matrices_are_orthogonal_idempotents():
    for amb in _split_ambients():
        d = amb.group.invariant_factors
        k = len(d)
        mats = [amb.units.component_matrix(c.key) for c in amb.components()]
        total = [[sum(r[i][j] for r in mats) % d[j] for j in range(k)]
                 for i in range(k)]
        assert total == [[(i == j) % d[j] for j in range(k)]
                         for i in range(k)], amb
        zero = tuple(tuple(0 for _ in d) for _ in d)
        for a, ra in enumerate(mats):
            for b, rb in enumerate(mats):
                assert _mat_mul(ra, rb, d) == (ra if a == b else zero), amb


def _component_matrix_by_dlogs(amb, component):
    """R_p as it was built from rank(G) dlogs: row j of M is
    dlog(lift(project(g_j))), and R_p[i][j] = M[j][i] d_j / d_i mod d_j."""
    d = list(enumerate(amb.group.invariant_factors))
    m = [amb.dlog(amb.lift(component, amb.project(component, g)))
         for g in amb.generators]
    assert all(m[j][i] * dj % di == 0 for i, di in d for j, dj in d)
    return tuple(tuple(m[j][i] * dj // di % dj for j, dj in d)
                 for i, di in d)


def test_component_matrix_matches_dlog_reference():
    for amb in _split_ambients():
        for component in amb.components():
            assert amb.units.component_matrix(component.key) \
                == _component_matrix_by_dlogs(amb, component), amb


@st.composite
def _ambient_and_group(draw):
    q = draw(st.sampled_from([None, 2, 3, 4]))
    if q is None:
        amb = ch.numeric_ambient(draw(st.integers(2, 400)))
    else:
        degree = draw(st.integers(1, {2: 6, 3: 3, 4: 3}[q]))
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=degree,
                               max_size=degree))
        amb = _ff_ambient(q, tuple(coeffs) + (1,))
    d = amb.group.invariant_factors
    vecs = draw(st.lists(st.tuples(*(st.integers(0, f - 1) for f in d)),
                         max_size=3))
    return amb, ch.character_group(amb, [ch.Character(amb, v) for v in vecs])


@given(_ambient_and_group())
@settings(max_examples=150, deadline=None)
def test_component_split_matches_restrict_then_inflate(data):
    amb, x = data
    split = ch.component_split(x)
    assert list(split) == [c.key for c in amb.components()]
    for component in amb.components():
        reference = ch.character_group(amb, [
            ch.inflate_from_component(ch.restrict_to_component(chi, component),
                                      amb, component)
            for chi in x.generators()])
        assert split[component.key] == reference.dual
        assert (ch.component_order(x, component)
                == ch.component_decompose(x)[component.key].order)


def _count_dlogs(monkeypatch):
    """The residues passed to either kind's unit-group dlog from now on."""
    calls = []
    for owner in (abelian.UnitGroup, fqpoly.UnitGroupModN):
        dlog = owner.dlog

        def counted(self, u, dlog=dlog):
            calls.append(u)
            return dlog(self, u)

        monkeypatch.setattr(owner, "dlog", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: ch.NumericAmbient(2 ** 4 * 3 ** 2 * 5 * 7),
    lambda: ch.FunctionFieldAmbient(fqpoly.factor_modulus(
        fqpoly.poly(fqpoly.fq_field(3), (0, 1, 0, 2, 0, 1))))],
    ids=["numeric", "function"])
def test_component_split_dlogs_once_per_generator_and_prime(monkeypatch,
                                                            make):
    """The split reads R_p off the presentation: no dlog at all, and the
    same matrix as the dlog-based construction."""
    calls = _count_dlogs(monkeypatch)
    ch.component_split.cache_clear()
    amb = make()  # a new instance: no component matrix cached yet
    x = ch.full_dual(amb)
    ch.component_split(x)
    assert calls == []
    gens = [ch.Character(amb, amb.group.reduce((1,) * amb.group.rank))]
    ch.component_split(ch.character_group(amb, gens))
    assert calls == []
    for component in amb.components():
        assert amb.units.component_matrix(component.key) \
            == _component_matrix_by_dlogs(amb, component)


def test_inflation_preserves_values():
    small = ch.numeric_ambient(5)
    big = ch.numeric_ambient(40)
    chi = ch.Character(small, (1,))
    lifted = ch.inflate_to_modulus(chi, big)
    for u in big.residues():
        assert lifted.value_exponent(u) == chi.value_exponent(u % 5)
    assert ch.conductor(lifted) == 5


def test_inflation_rejects_non_divisor():
    with pytest.raises(SchemaError):
        ch.inflate_to_modulus(ch.Character(ch.numeric_ambient(7), (1,)),
                              ch.numeric_ambient(10))


# ---------------------------------------------------------------------------
# Character groups

def test_character_group_lattice_laws():
    amb = ch.numeric_ambient(40)
    chars = [ch.Character(amb, v) for v in amb.group.elements()]
    x = ch.character_group(amb, chars[:3])
    y = ch.character_group(amb, chars[3:6])
    j = ch.join(x, y)
    for vec in itertools.chain(x.dual.elements(), y.dual.elements()):
        assert j.dual.contains(vec)


def test_kernel_elements_have_complementary_size():
    amb = ch.numeric_ambient(35)
    full = ch.full_dual(amb)
    for vec in amb.group.elements():
        x = ch.character_group(amb, [ch.Character(amb, vec)])
        kern = kernel_elements(x)
        assert len(kern) * x.order == full.order


def test_ramification_exponents_prime_power():
    x = ch.full_dual(ch.numeric_ambient(27))
    ram = ch.ramification_exponents(x)
    assert ram == {3: {"e": 18, "tame": 2, "wild": 9}}
    x = ch.full_dual(ch.numeric_ambient(45))
    ram = ch.ramification_exponents(x)
    assert ram[3] == {"e": 6, "tame": 2, "wild": 3}
    assert ram[5] == {"e": 4, "tame": 4, "wild": 1}


def test_conductor_of_group():
    amb = ch.numeric_ambient(45)
    chi5 = ch.inflate_to_modulus(ch.kronecker_character(5), amb)
    chi3 = ch.inflate_to_modulus(ch.kronecker_character(-3), amb)
    assert ch.conductor_of_group(ch.character_group(amb, [chi5])) == 5
    assert ch.conductor_of_group(ch.character_group(amb, [chi3])) == 3
    assert ch.conductor_of_group(ch.character_group(amb, [chi3, chi5])) == 15
    assert ch.conductor_of_group(trivial_group(amb)) == 1


# ---------------------------------------------------------------------------
# Function-field ambients

def _f3_tt1():
    F3 = fqpoly.fq_field(3)
    return ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(F3, (0, 1, 1))))


def test_ff_ambient_structure():
    amb = _f3_tt1()
    assert str(amb.group) == "C2 x C2"
    assert len(list(amb.residues())) == 4


def test_ff_conductor_drops_unramified_factor():
    amb = _f3_tt1()
    F3 = amb.field
    t = fqpoly.variable(F3)
    for vec in amb.group.elements():
        chi = ch.Character(amb, vec)
        f = ch.conductor(chi)
        assert (amb.modulus % f).is_zero
    # a character trivial on the T-component has conductor dividing T+1
    comps = list(amb.components())
    for component in comps:
        other = [c for c in comps if c is not component][0]
        sub = amb.component_ambient(component)
        psi = ch.Character(sub, (1,))
        chi = ch.inflate_from_component(psi, amb, component)
        assert ch.conductor(chi) == component.key


def test_ff_component_values_match():
    amb = _f3_tt1()
    for vec in amb.group.elements():
        chi = ch.Character(amb, vec)
        for component in amb.components():
            psi = ch.restrict_to_component(chi, component)
            sub = amb.component_ambient(component)
            e = amb.group.exponent
            e_sub = sub.group.exponent if sub.group.rank else 1
            for u in sub.residues():
                assert (chi.value_exponent(amb.lift(component, u)) * e_sub
                        == psi.value_exponent(u) * e)


def test_ff_ramification_uses_residue_characteristic():
    F2 = fqpoly.fq_field(2)
    t = fqpoly.variable(F2)
    amb = ch.ff_ambient(fqpoly.factored(F2, [(t, 3)]))
    x = ch.full_dual(amb)
    ram = ch.ramification_exponents(x)
    assert ram[t] == {"e": 4, "tame": 1, "wild": 4}


def test_one_ambient_per_modulus_however_it_was_built():
    # the cache key is the factored modulus, whose factors `factored`
    # puts in code order whatever order the pairs come in
    F3 = fqpoly.fq_field(3)
    t, one = fqpoly.variable(F3), fqpoly.one(F3)
    ch._ff_ambient_cached.cache_clear()
    amb = ch.ff_ambient(fqpoly.factor_modulus(t * t * (t * t + one)))
    again = ch.ff_ambient(fqpoly.factored(F3, [(t * t + one, 1), (t, 2)]))
    assert again is amb
    info = ch._ff_ambient_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


# ---------------------------------------------------------------------------
# Conductors and even parts against their definitions

def _divisor_kernels(amb):
    """(m, units = 1 mod m) for every divisor m of the modulus, least
    first: ascending integers, or monic polynomials by degree then code."""
    if amb.kind == "number":
        n = amb.modulus
        divs = [d for d in range(1, n + 1) if n % d == 0]
    else:
        divs = [fqpoly.one(amb.field)]
        for p_, a in amb.factorization:
            powers = [fqpoly.one(amb.field)]
            for _ in range(a):
                powers.append(powers[-1] * p_)
            divs = [d * pw for d in divs for pw in powers]
        divs.sort(key=lambda d: (d.degree, code(d)))
    return [(m, amb.reduction_kernel(m)) for m in divs]


def _brute_conductor(x, kernels):
    """The least divisor m whose reduction kernel X kills."""
    gens = x.generators()
    for m, kern in kernels:
        if all(chi.value_exponent(u) == 0 for chi in gens for u in kern):
            return m
    raise AssertionError("no divisor kernel is killed")


def _cyclic_subgroups(amb):
    return {ch.character_group(amb, [ch.Character(amb, vec)])
            for vec in amb.group.elements()}


def _random_group(amb, rng, max_gens):
    return ch.character_group(amb, [
        ch.Character(amb, tuple(rng.randrange(d)
                                for d in amb.group.invariant_factors))
        for _ in range(rng.randint(1, max_gens))])


def test_conductor_agrees_with_divisor_scan_on_cyclic_groups():
    for n in range(2, 121):
        amb = ch.numeric_ambient(n)
        kernels = _divisor_kernels(amb)
        for x in _cyclic_subgroups(amb):
            assert ch.conductor_of_group(x) == _brute_conductor(x, kernels)


def test_conductor_agrees_with_divisor_scan_on_random_groups():
    rng = random.Random(20190)
    for _ in range(150):
        amb = ch.numeric_ambient(rng.randint(2, 600))
        x = _random_group(amb, rng, 3)
        assert (ch.conductor_of_group(x)
                == _brute_conductor(x, _divisor_kernels(amb)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ff_conductor_agrees_with_divisor_scan(q):
    p, s = abelian.factorize(q)[0]
    fld = fqpoly.fq_field(p, s)
    degree = 1
    while q ** degree <= 32:
        for n in fqpoly.monic_polys(fld, degree):
            amb = ch.ff_ambient(fqpoly.factor_modulus(n))
            kernels = _divisor_kernels(amb)
            for x in _cyclic_subgroups(amb) | {ch.full_dual(amb)}:
                assert (ch.conductor_of_group(x)
                        == _brute_conductor(x, kernels))
        degree += 1


def _ff_ambient(q, coeffs):
    p, s = abelian.factorize(q)[0]
    fld = fqpoly.fq_field(p, s)
    return ch.ff_ambient(fqpoly.factor_modulus(fqpoly.poly(fld, coeffs)))


@pytest.mark.parametrize("amb", [
    ch.numeric_ambient(n) for n in (2, 16, 48, 135, 196, 250)] + [
    _ff_ambient(2, (0, 0, 0, 1, 1, 0, 1, 1)),   # T^3 (T + 1)^2 (T^2 + T + 1)
    _ff_ambient(3, (0, 1, 0, 2, 0, 1)),         # T (T^2 + 1)^2
    _ff_ambient(4, (0, 0, 1, 1)),               # T^2 (T + 1)
    _ff_ambient(4, (0, 0, 1, 3, 1)),            # T^2 (T^2 + 3*T + 1)
    _ff_ambient(5, (4, 0, 4, 0, 1)),            # (T^2 + 2)^2
    _ff_ambient(7, (0, 1, 2, 1)),               # T (T + 1)^2
    _ff_ambient(8, (0, 1, 0, 1)),               # T (T + 1)^2
    _ff_ambient(9, (0, 0, 2, 1))],              # T^2 (T + 2)
    ids=repr)
def test_one_units_generate_the_congruence_subgroups(amb):
    # units.one_units(key, b) generates the units = 1 mod key^b at the
    # prime key (= 1 at level b >= a) and = 1 at the other primes
    number = amb.kind == "number"
    for component in amb.components():
        q = component.modulus
        power = 1 if number else fqpoly.one(amb.field)
        for b in range(component.exponent + 2):
            level = math.gcd(power, q) if number else poly_gcd(power, q)
            expected = set(amb.reduction_kernel(level * (amb.modulus // q)))
            generated = abelian.subgroup_from_generators(
                amb.group, amb.units.one_units(component.key, b))
            assert {amb.units.exp(vec) for vec in generated.elements()} \
                == expected
            power = power * component.key


_REPORT_AMBIENTS = [
    lambda: ch.NumericAmbient(2 ** 4 * 3 ** 2 * 5 * 7),
    lambda: ch.FunctionFieldAmbient(fqpoly.factor_modulus(
        fqpoly.poly(fqpoly.fq_field(3), (0, 1, 0, 2, 0, 1))))]


@pytest.mark.parametrize("make", _REPORT_AMBIENTS, ids=["numeric", "function"])
def test_filtration_paths_take_no_dlog(monkeypatch, make):
    """Conductors, level stability, L_2 and U^(n) at infinity read U^(b)
    off the presentation, and -1 is read off it too: L_2 and a report
    over Q take no dlog, and a report over F_q(T) takes one per constant
    generator at infinity."""
    amb = make()  # a new instance: no component matrix cached yet
    x = ch.full_dual(amb)
    small = ch.character_group(amb, [ch.Character(amb, amb.group.reduce(
        (1,) * amb.group.rank))])
    units27, units16 = abelian.unit_group(27), abelian.unit_group(16)
    h27 = abelian.subgroup_from_generators(units27.group, [(2,)])
    h16 = abelian.subgroup_from_generators(units16.group, [(0, 1)])
    inf = gf.InfinityUnits(fqpoly.fq_field(3), 4)
    ch.component_split.cache_clear()
    calls = _count_dlogs(monkeypatch)
    for y in (x, small):
        ch.conductor_exponents(y)
    _, norm27 = gn.lp_degree_from_local(
        units27, 3, [gn.PrimeAboveData(2, 1, h27)])
    assert gn.lp_degree_is_stable(units27, 3, 2, norm27)
    assert [abelian.subgroup_from_generators(
        inf.group, inf.ambient.units.one_units(inf.key, n)).order
        for n in range(5)] == [54, 27, 9, 3, 1]
    assert calls == []
    assert gn.classify_l2(h16, 16).tag == gn.FULL_CYCLOTOMIC
    assert calls == []
    gn.build_report(small)
    # over F_3 the one constant generator at infinity is 2
    assert calls == ([] if amb.kind == "number"
                     else [fqpoly.poly(amb.field, (2,))])


@pytest.mark.parametrize("make", _REPORT_AMBIENTS, ids=["numeric", "function"])
def test_report_builds_no_component_ambient(monkeypatch, make):
    amb = make()
    x = ch.full_dual(amb)
    built = []
    for name in ("numeric_ambient", "ff_ambient"):
        build = getattr(ch, name)
        monkeypatch.setattr(ch, name, lambda *a, build=build:
                            built.append(a) or build(*a))
    report = gn.build_report(x)
    assert built == []
    assert len(report.primes) == len(amb.components()) > 1


def test_plus_part_is_the_even_characters():
    rng = random.Random(2019)
    for _ in range(120):
        amb = ch.numeric_ambient(rng.randint(2, 300))
        x = _random_group(amb, rng, 3)
        chars = [ch.Character(amb, vec) for vec in x.dual.elements()]
        evens = [chi for chi in chars if is_even(chi)]
        assert gn.plus_part(x) == ch.character_group(amb, evens)

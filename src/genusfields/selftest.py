"""The nine verification suites behind `genusctl selftest`.

Each criterion function returns a CriterionResult and is deterministic:
random sampling uses fixed seeds so identical invocations produce
identical reports.  An optional size bound shrinks the enumeration caps
(for quick runs); the default caps are the full advertised scales.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce, wraps

from . import abelian, characters, fqpoly, genus_function, genus_number, oracle


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.detail}"


class _Failure(Exception):
    """A criterion's check failed; the argument is what failed."""


def _criterion(number, name):
    """A check that returns its detail, or raises `_Failure` with it,
    becomes criterion `number` (`name`), returning a CriterionResult.
    Any other exception propagates."""
    def wrap(check):
        @wraps(check)
        def run(bound=None):
            try:
                return CriterionResult(number, name, True, check(bound))
            except _Failure as failure:
                return CriterionResult(number, name, False, str(failure))
        return run
    return wrap


def _cap(default, bound):
    return default if bound is None else min(default, bound)


def _random_character_group(rng, amb, max_gens=2):
    els = list(amb.group.elements())
    gens = [characters.Character(amb, rng.choice(els))
            for _ in range(rng.randrange(1, max_gens + 1))]
    return characters.character_group(amb, gens)


# ---------------------------------------------------------------------------
# 1. closed-form extended genus == exhaustive search

@_criterion(1, "oracle equivalence")
def criterion_oracle_equivalence(bound):
    n_max = _cap(250, bound)
    checked = 0
    for n in range(2, n_max + 1):
        amb = characters.numeric_ambient(n)
        lattice = oracle.enumerate_subfields(amb)
        for s in lattice.subgroups:
            x = characters.CharacterGroup(
                amb, abelian.subgroup_from_generators(amb.group, sorted(s)))
            if oracle.maximal_extended_search(x) \
                    != genus_number.extended_genus_characters(x):
                raise _Failure(f"mismatch at modulus {n}")
            checked += 1
    return (f"extended genus equals exhaustive search for all {checked} "
            f"character subgroups at moduli 2..{n_max}")


# ---------------------------------------------------------------------------
# 2. gap bound with oracle-frozen quadratic fixtures

@_criterion(2, "gap bound")
def criterion_gap_bound(bound):
    n_max = _cap(400, bound)
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randrange(3, n_max + 1)
        x = _random_character_group(rng, characters.numeric_ambient(n))
        if genus_number.genus_gap(x) not in (1, 2):
            raise _Failure(f"gap outside {{1,2}} at modulus {n}")
    for d, genus_deg, gap in ((-20, 4, 1), (12, 2, 2)):
        chi = characters.kronecker_character(d)
        x = characters.character_group(chi.ambient, [chi])
        genus = oracle.maximal_genus_search(x)
        extended = oracle.maximal_extended_search(x)
        if genus.order != genus_deg or extended.order // genus.order != gap:
            raise _Failure(f"oracle fixture for discriminant {d} changed")
        if genus_number.genus_characters(x) != genus \
                or genus_number.genus_gap(x) != gap:
            raise _Failure(
                f"closed form disagrees with oracle at discriminant {d}")
    return (f"gap in {{1,2}} for 1000 random groups (moduli <= {n_max}); "
            "quadratic fixtures d=-20 (degree 4, gap 1) and d=12 "
            "(degree 2, gap 2) reproduced by the oracle")


# ---------------------------------------------------------------------------
# 3. composition of genus fields

@_criterion(3, "composition")
def criterion_composition(bound):
    n_max = _cap(400, bound)
    x1 = genus_number.plus_part(
        characters.full_dual(characters.numeric_ambient(15)))
    x2 = genus_number.plus_part(
        characters.full_dual(characters.numeric_ambient(77)))
    if genus_number.genus_characters(x1) != x1 \
            or genus_number.genus_characters(x2) != x2:
        raise _Failure("real cyclotomic factors are not genus-closed")
    g_comp, _, gap = genus_number.compose_genus(x1, x2)
    target = genus_number.plus_part(
        characters.full_dual(characters.numeric_ambient(1155)))
    if gap != 2 or g_comp != target:
        raise _Failure(f"fixture (3,5,7,11) gave gap {gap} instead of 2")
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randrange(3, n_max + 1)
        amb = characters.numeric_ambient(n)
        y1 = _random_character_group(rng, amb, max_gens=1)
        y2 = _random_character_group(rng, amb, max_gens=1)
        _, _, pair_gap = genus_number.compose_genus(y1, y2)
        if pair_gap not in (1, 2):
            raise _Failure(f"pair gap {pair_gap} at modulus {n}")
        lhs = genus_number.extended_genus_characters(characters.join(y1, y2))
        rhs = characters.join(genus_number.extended_genus_characters(y1),
                              genus_number.extended_genus_characters(y2))
        if lhs != rhs:
            raise _Failure(f"extended genus not multiplicative at modulus {n}")
    return ("fixture (3,5,7,11) gives gap exactly 2 with the real 1155-field; "
            f"1000 random pairs (moduli <= {n_max}): gap divides 2 and the "
            "extended genus is exactly multiplicative")


# ---------------------------------------------------------------------------
# 4. subgroup lattice laws

@_criterion(4, "lattice laws")
def criterion_lattice_laws(bound):
    cyc_max = _cap(200, bound)
    pm_max = _cap(2000, bound)
    # cyclic groups: subgroup of order d per divisor, gcd/lcm lattice
    for n in range(1, cyc_max + 1):
        g = abelian.group_from_cyclic_orders([n] if n > 1 else [])
        subs = {n // d: abelian.subgroup_from_generators(g, [(d % n,)])
                for d in abelian.divisors(n)} if n > 1 else \
               {1: abelian.trivial_subgroup(g)}
        for da, a in subs.items():
            if a.order != da:
                raise _Failure(f"cyclic subgroup order at n={n}")
            for db, b in subs.items():
                meet = abelian.intersect(a, b)
                join = abelian.product(a, b)
                if meet.order != math.gcd(da, db) \
                        or join.order != math.lcm(da, db) \
                        or a.order * b.order != meet.order * join.order:
                    raise _Failure(f"cyclic lattice law at n={n}")
    # unit groups modulo prime powers: the product formula for all pairs
    pairs = 0
    for n in _prime_powers(pm_max):
        g = abelian.unit_group(n).group
        subs = _all_subgroups(g)
        for a in subs:
            for b in subs:
                meet = abelian.intersect(a, b)
                join = abelian.product(a, b)
                if a.order * b.order != meet.order * join.order:
                    raise _Failure(f"product formula fails modulo {n}")
                pairs += 1
    # order-2 join identity on random triples
    rng = random.Random(4)
    ambients = []   # (group, its elements, those of order 2)
    for t in ((2, 2, 4), (4, 8), (2, 4, 8), (2, 2, 2, 4), (8, 8), (2, 6, 12)):
        g = abelian.FiniteAbelianGroup(t)
        els = list(g.elements())
        ambients.append((g, els, [x for x in els if g.element_order(x) == 2]))
    for _ in range(10 ** 4):
        g, els, order2 = rng.choice(ambients)
        s1 = abelian.subgroup_from_generators(g, rng.sample(els, 2))
        s2 = abelian.subgroup_from_generators(g, rng.sample(els, 2))
        i = abelian.subgroup_from_generators(g, [rng.choice(order2)])
        lhs = abelian.intersect(abelian.product(s1, i), abelian.product(s2, i))
        rhs = abelian.product(abelian.intersect(s1, s2), i)
        if lhs.order % rhs.order or lhs.order // rhs.order not in (1, 2):
            raise _Failure("order-2 join identity violated")
    return (
        f"cyclic lattices exhaustive to order {cyc_max}; product formula on "
        f"{pairs} subgroup pairs of unit groups mod prime powers <= {pm_max}; "
        "order-2 join identity on 10^4 random triples")


def _all_subgroups(g):
    """Every subgroup of g, as the join closure of its cyclic subgroups.

    Works on canonical lattices, so the cost scales with the number of
    subgroups rather than with the number of elements.
    """
    cyclic = {}
    for x in g.elements():
        s = abelian.subgroup_from_generators(g, [x])
        cyclic.setdefault(s.lattice, s)
    subs = dict(cyclic)
    frontier = list(cyclic.values())
    while frontier:
        a = frontier.pop()
        for b in cyclic.values():
            j = abelian.product(a, b)
            if j.lattice not in subs:
                subs[j.lattice] = j
                frontier.append(j)
    return list(subs.values())


def _prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if abelian.factorize(p) != [(p, 1)]:
            continue
        n = p
        while n <= limit:
            if n >= 3:
                out.append(n)
            n *= p
    return sorted(out)


# ---------------------------------------------------------------------------
# 5. trichotomy of the 2-adic component

@_criterion(5, "2-adic trichotomy")
def criterion_l2_trichotomy(bound):
    k_max = 7 if bound is None else min(7, max(2, bound.bit_length() - 1))
    shapes = {genus_number.PLUS_FIELD: set(),
              genus_number.FULL_CYCLOTOMIC: set(),
              genus_number.MINUS_FIELD: set()}
    checked = 0
    for k in range(2, k_max + 1):
        n = 1 << k
        units = abelian.unit_group(n)
        amb = characters.numeric_ambient(n)
        for s in oracle.enumerate_subgroups(units.group):
            index = units.group.order // len(s)
            if index & (index - 1):
                continue
            h = abelian.subgroup_from_generators(units.group, sorted(s))
            out = genus_number.classify_l2(h, n)
            label = _identify_fixed_field(amb, h, out.m)
            if label != out.field_label:
                raise _Failure(f"classifier says {out.field_label}, lattice "
                               f"says {label} (modulus {n})")
            if out.m >= 1:
                shapes[out.tag].add(
                    str(abelian.quotient_structure(h)))
            checked += 1
    for tag, seen in shapes.items():
        if not seen:
            raise _Failure(f"shape {tag} never witnessed")
    return (f"classifier matches the subfield lattice for {checked} subgroups "
            f"of (Z/2^k)*, k <= {k_max}; quotient shapes witnessed: "
            + "; ".join(f"{tag}: {', '.join(sorted(seen))}"
                        for tag, seen in sorted(shapes.items())))


def _identify_fixed_field(amb, h, m):
    """Name the fixed field of h from its character group alone."""
    if m == 0:
        return "Q"
    x = characters.CharacterGroup(
        amb, abelian.pairing_kernel(abelian.full_subgroup(amb.group),
                                    h.lattice))
    if x.order != 1 << m:
        raise RuntimeError("annihilator order mismatch")
    if genus_number.plus_part(x) == x:
        return f"Q(zeta_{1 << (m + 2)})^+"
    full_level = characters.full_dual(
        characters.numeric_ambient(1 << (m + 1)))
    inflated = genus_number.inflate_group(full_level, amb)
    if x == inflated:
        return f"Q(zeta_{1 << (m + 1)})"
    return f"Q(zeta_{1 << (m + 2)})^-"


# ---------------------------------------------------------------------------
# 6. tame ramification formulas against character components

@_criterion(6, "tame formulas")
def criterion_tame_formulas(bound):
    n_max = _cap(400, bound)
    rng = random.Random(6)
    checked = 0
    while checked < 50:
        n = rng.randrange(3, n_max + 1)
        amb = characters.numeric_ambient(n)
        x = _random_character_group(rng, amb)
        ram = characters.ramification_exponents(x)
        for p, info in ram.items():
            if p == 2:
                continue
            if genus_number.tame_degree(p, [info["e"]]) != info["tame"]:
                raise _Failure(f"gcd formula disagrees at p={p}, modulus {n}")
        if ram:
            checked += 1
    # function-field fixtures: gcd(q^d - 1, e) vs prime-to-p part of |X_P|
    ff_checked = 0
    for q, coeffs in ((2, (0, 1, 1, 1)), (3, (0, 1, 1)), (2, (0, 0, 0, 1)),
                      (3, (0, 0, 1)), (2, (1, 1, 1))):
        fld = fqpoly.fq_field(q)
        amb = characters.ff_ambient(
            fqpoly.factor_modulus(fqpoly.poly(fld, coeffs)))
        for s in oracle.enumerate_subfields(amb).subgroups:
            x = characters.CharacterGroup(
                amb, abelian.subgroup_from_generators(amb.group, sorted(s)))
            ram = characters.ramification_exponents(x)
            for key, info in ram.items():
                tame = genus_function.tame_ramification_ff(
                    key.degree, info["e"], q)
                if tame != info["tame"]:
                    raise _Failure(
                        f"function-field tame gcd disagrees at P={key}")
                ff_checked += 1
    return ("gcd(e, p-1) equals the prime-to-p component part for 50 random "
            f"fields (moduli <= {n_max}); gcd(q^d-1, e) verified on "
            f"{ff_checked} function-field components")


# ---------------------------------------------------------------------------
# 7. Carlitz operator laws

@_criterion(7, "Carlitz laws")
def criterion_carlitz_laws(bound):
    deg = 4
    for q, s in ((2, 1), (3, 1), (2, 2)):
        fld = fqpoly.fq_field(q, s)
        qq = fld.q
        count = qq ** (deg + 1)
        # every polynomial of degree <= 4, in code order
        keys = fld.span(fld.monomials(deg + 1))
        polys = [fqpoly.from_packed(fld, x) for x in keys]
        table = [genus_function.carlitz_operator(m) for m in polys]
        index = {x: c for c, x in enumerate(keys)}
        codes = [tuple(map(fqpoly.packed, op.coeffs))
                 + (0,) * (deg + 1 - len(op.coeffs)) for op in table]
        # additivity over every pair, at the level of kernel integers;
        # spot-check that the comparison means operator equality
        for i in range(count):
            row = codes[i]
            for j in range(i, count):
                if codes[index[fld.add(keys[i], keys[j])]] != tuple(
                        map(fld.add, row, codes[j])):
                    raise _Failure(
                        f"additivity fails over F_{qq} at codes ({i}, {j})")
        rng = random.Random(7)
        for _ in range(200):
            i, j = rng.randrange(count), rng.randrange(count)
            if genus_function.carlitz_operator(polys[i] + polys[j]) \
                    != table[i] + table[j]:
                raise _Failure(f"operator-level additivity fails over F_{qq}")
        # composition: every pair whose product still has degree <= 4
        for a, ca in zip(polys, table):
            if a.is_zero:
                continue
            for b, cb in zip(polys, table):
                if b.is_zero or a.degree + b.degree > deg:
                    continue
                if table[index[fqpoly.packed(a * b)]] != ca.compose(cb):
                    raise _Failure(
                        f"composition fails over F_{qq} at ({a}, {b})")
        # torsion counts on all moduli of degree <= 2
        for n in polys[qq:qq ** 3]:
            if genus_function.torsion_order_check(n) != qq ** n.degree:
                raise _Failure(f"torsion count fails at N={n}")
    return (
        "additivity on all pairs of degree <= 4 and multiplicativity on all "
        "pairs with product degree <= 4, over F_2, F_3, F_4; torsion counts "
        "q^deg(N) for all moduli of degree <= 2")


# ---------------------------------------------------------------------------
# 8. idele-quotient isomorphism sweep

@_criterion(8, "idele quotient")
def criterion_idele_quotient(bound):
    cap = _cap(2 ** 12, bound)
    checked = 0
    for q in (2, 3):
        fld = fqpoly.fq_field(q)
        for fm in genus_function.all_factored_moduli(fld, cap):
            if not genus_function.idele_quotient_check(fm):
                raise _Failure(
                    f"isomorphism fails at N={fm.modulus} over F_{q}")
            checked += 1
    return (f"local-units product matches the global unit group for all "
            f"{checked} moduli with q^deg(N) <= {cap}, q in {{2,3}}")


# ---------------------------------------------------------------------------
# 9. invariants of the field at infinity

@_criterion(9, "S-field invariants")
def criterion_s_field(bound):
    rng = random.Random(9)
    inf2 = genus_function.InfinityUnits(fqpoly.fq_field(2), 3)
    inf3 = genus_function.InfinityUnits(fqpoly.fq_field(3), 2)
    for _ in range(100):
        inf = rng.choice((inf2, inf3))
        ts = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 5))]
        full = abelian.full_subgroup(inf.group)
        inv = genus_function.s_field_invariants(
            [genus_number.PrimeAboveData(1, t, full) for t in ts], inf)
        if inv.t0 != reduce(math.gcd, ts):
            raise _Failure(f"t0 is not the gcd of {ts}")
        if inv.f_infinity != inv.t0:
            raise _Failure(
                f"residue degree at infinity disagrees with t0 for {ts}")
    inv = genus_function.s_field_invariants(
        [genus_number.PrimeAboveData(1, 1, abelian.full_subgroup(inf2.group))],
        inf2)
    if (inv.t0, inv.n0, inv.m0, inv.alpha) != (1, 0, 1, 0):
        raise _Failure("split infinite prime gave "
                       f"{(inv.t0, inv.n0, inv.m0, inv.alpha)}")
    u2 = abelian.subgroup_from_generators(
        inf2.group, inf2.ambient.units.one_units(inf2.key, 2))
    inv = genus_function.s_field_invariants(
        [genus_number.PrimeAboveData(2, 1, u2)], inf2)
    if (inv.alpha, inv.n0, inv.m0) != (1, 2, 1):
        raise _Failure("wild quadratic fixture changed")
    return ("t0 = gcd(t_i) and f-at-infinity = t0 on 100 random tuples with "
            "norm data; split case gives (1,0,1,0); wildly ramified quadratic "
            "fixture gives alpha=1, n0=2")


ALL_CRITERIA = (
    criterion_oracle_equivalence,
    criterion_gap_bound,
    criterion_composition,
    criterion_lattice_laws,
    criterion_l2_trichotomy,
    criterion_tame_formulas,
    criterion_carlitz_laws,
    criterion_idele_quotient,
    criterion_s_field,
)


def run_all(bound=None):
    return [fn(bound) for fn in ALL_CRITERIA]

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
from functools import reduce

from . import abelian, characters, fqpoly, genus_function, genus_number, oracle
from .errors import PrecisionError, SchemaError


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.detail}"


def _cap(default, bound):
    return default if bound is None else min(default, bound)


def _random_character_group(rng, amb, max_gens=2):
    els = list(amb.group.elements())
    gens = [characters.Character(amb, rng.choice(els))
            for _ in range(rng.randrange(1, max_gens + 1))]
    return characters.character_group(amb, gens)


# ---------------------------------------------------------------------------
# 1. closed-form extended genus == exhaustive search

def criterion_oracle_equivalence(bound=None):
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
                return CriterionResult(
                    1, "oracle equivalence", False,
                    f"mismatch at modulus {n}")
            checked += 1
    return CriterionResult(
        1, "oracle equivalence", True,
        f"extended genus equals exhaustive search for all {checked} "
        f"character subgroups at moduli 2..{n_max}")


# ---------------------------------------------------------------------------
# 2. gap bound with oracle-frozen quadratic fixtures

def criterion_gap_bound(bound=None):
    n_max = _cap(400, bound)
    rng = random.Random(2)
    for _ in range(1000):
        n = rng.randrange(3, n_max + 1)
        x = _random_character_group(rng, characters.numeric_ambient(n))
        if genus_number.genus_gap(x) not in (1, 2):
            return CriterionResult(2, "gap bound", False,
                                   f"gap outside {{1,2}} at modulus {n}")
    for d, genus_deg, gap in ((-20, 4, 1), (12, 2, 2)):
        chi = characters.kronecker_character(d)
        x = characters.character_group(chi.ambient, [chi])
        genus = oracle.maximal_genus_search(x)
        extended = oracle.maximal_extended_search(x)
        if genus.order != genus_deg or extended.order // genus.order != gap:
            return CriterionResult(
                2, "gap bound", False,
                f"oracle fixture for discriminant {d} changed")
        if genus_number.genus_characters(x) != genus \
                or genus_number.genus_gap(x) != gap:
            return CriterionResult(
                2, "gap bound", False,
                f"closed form disagrees with oracle at discriminant {d}")
    return CriterionResult(
        2, "gap bound", True,
        f"gap in {{1,2}} for 1000 random groups (moduli <= {n_max}); "
        "quadratic fixtures d=-20 (degree 4, gap 1) and d=12 "
        "(degree 2, gap 2) reproduced by the oracle")


# ---------------------------------------------------------------------------
# 3. composition of genus fields

def criterion_composition(bound=None):
    n_max = _cap(400, bound)
    x1 = genus_number.plus_part(
        characters.full_dual(characters.numeric_ambient(15)))
    x2 = genus_number.plus_part(
        characters.full_dual(characters.numeric_ambient(77)))
    if genus_number.genus_characters(x1) != x1 \
            or genus_number.genus_characters(x2) != x2:
        return CriterionResult(3, "composition", False,
                               "real cyclotomic factors are not genus-closed")
    g_comp, _, gap = genus_number.compose_genus(x1, x2)
    target = genus_number.plus_part(
        characters.full_dual(characters.numeric_ambient(1155)))
    if gap != 2 or g_comp != target:
        return CriterionResult(
            3, "composition", False,
            f"fixture (3,5,7,11) gave gap {gap} instead of 2")
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randrange(3, n_max + 1)
        amb = characters.numeric_ambient(n)
        y1 = _random_character_group(rng, amb, max_gens=1)
        y2 = _random_character_group(rng, amb, max_gens=1)
        _, _, pair_gap = genus_number.compose_genus(y1, y2)
        if pair_gap not in (1, 2):
            return CriterionResult(3, "composition", False,
                                   f"pair gap {pair_gap} at modulus {n}")
        lhs = genus_number.extended_genus_characters(characters.join(y1, y2))
        rhs = characters.join(genus_number.extended_genus_characters(y1),
                              genus_number.extended_genus_characters(y2))
        if lhs != rhs:
            return CriterionResult(
                3, "composition", False,
                f"extended genus not multiplicative at modulus {n}")
    return CriterionResult(
        3, "composition", True,
        "fixture (3,5,7,11) gives gap exactly 2 with the real 1155-field; "
        f"1000 random pairs (moduli <= {n_max}): gap divides 2 and the "
        "extended genus is exactly multiplicative")


# ---------------------------------------------------------------------------
# 4. subgroup lattice laws

def criterion_lattice_laws(bound=None):
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
                return CriterionResult(4, "lattice laws", False,
                                       f"cyclic subgroup order at n={n}")
            for db, b in subs.items():
                meet = abelian.intersect(a, b)
                join = abelian.product(a, b)
                if meet.order != math.gcd(da, db) \
                        or join.order != math.lcm(da, db) \
                        or a.order * b.order != meet.order * join.order:
                    return CriterionResult(4, "lattice laws", False,
                                           f"cyclic lattice law at n={n}")
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
                    return CriterionResult(
                        4, "lattice laws", False,
                        f"product formula fails modulo {n}")
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
            return CriterionResult(4, "lattice laws", False,
                                   "order-2 join identity violated")
    return CriterionResult(
        4, "lattice laws", True,
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

def criterion_l2_trichotomy(bound=None):
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
                return CriterionResult(
                    5, "2-adic trichotomy", False,
                    f"classifier says {out.field_label}, lattice says "
                    f"{label} (modulus {n})")
            if out.m >= 1:
                shapes[out.tag].add(
                    str(abelian.quotient_structure(h)))
            checked += 1
    for tag, seen in shapes.items():
        if not seen:
            return CriterionResult(5, "2-adic trichotomy", False,
                                   f"shape {tag} never witnessed")
    return CriterionResult(
        5, "2-adic trichotomy", True,
        f"classifier matches the subfield lattice for {checked} subgroups "
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

def criterion_tame_formulas(bound=None):
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
                return CriterionResult(
                    6, "tame formulas", False,
                    f"gcd formula disagrees at p={p}, modulus {n}")
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
                    return CriterionResult(
                        6, "tame formulas", False,
                        f"function-field tame gcd disagrees at P={key}")
                ff_checked += 1
    return CriterionResult(
        6, "tame formulas", True,
        "gcd(e, p-1) equals the prime-to-p component part for 50 random "
        f"fields (moduli <= {n_max}); gcd(q^d-1, e) verified on "
        f"{ff_checked} function-field components")


# ---------------------------------------------------------------------------
# 7. Carlitz operator laws

def criterion_carlitz_laws(bound=None):
    deg = 4
    for q, s in ((2, 1), (3, 1), (2, 2)):
        fld = fqpoly.fq_field(q, s)
        qq = fld.q
        count = qq ** (deg + 1)
        k = fld.kernel
        polys = [fqpoly.poly_from_code(fld, c) for c in range(count)]
        table = [genus_function.carlitz_operator(m) for m in polys]
        keys = [fqpoly.packed(m) for m in polys]
        index = {x: c for c, x in enumerate(keys)}
        codes = [tuple(map(fqpoly.packed, op.coeffs))
                 + (0,) * (deg + 1 - len(op.coeffs)) for op in table]
        # additivity over every pair, at the level of kernel integers;
        # spot-check that the comparison means operator equality
        for i in range(count):
            row = codes[i]
            for j in range(i, count):
                if codes[index[k.add(keys[i], keys[j])]] != tuple(
                        map(k.add, row, codes[j])):
                    return CriterionResult(
                        7, "Carlitz laws", False,
                        f"additivity fails over F_{qq} at codes ({i}, {j})")
        rng = random.Random(7)
        for _ in range(200):
            i, j = rng.randrange(count), rng.randrange(count)
            a = fqpoly.poly_from_code(fld, i)
            b = fqpoly.poly_from_code(fld, j)
            if genus_function.carlitz_operator(a + b) != table[i] + table[j]:
                return CriterionResult(
                    7, "Carlitz laws", False,
                    f"operator-level additivity fails over F_{qq}")
        # composition: every pair whose product still has degree <= 4
        for a in polys:
            if a.is_zero:
                continue
            ca = table[a.code()]
            for b in polys:
                if b.is_zero or a.degree + b.degree > deg:
                    continue
                if table[(a * b).code()] != ca.compose(table[b.code()]):
                    return CriterionResult(
                        7, "Carlitz laws", False,
                        f"composition fails over F_{qq} at ({a}, {b})")
        # torsion counts on all moduli of degree <= 2
        for code in range(qq, qq ** 3):
            n = fqpoly.poly_from_code(fld, code)
            if genus_function.torsion_order_check(n) != qq ** n.degree:
                return CriterionResult(7, "Carlitz laws", False,
                                       f"torsion count fails at N={n}")
    return CriterionResult(
        7, "Carlitz laws", True,
        "additivity on all pairs of degree <= 4 and multiplicativity on all "
        "pairs with product degree <= 4, over F_2, F_3, F_4; torsion counts "
        "q^deg(N) for all moduli of degree <= 2")


# ---------------------------------------------------------------------------
# 8. idele-quotient isomorphism sweep

def criterion_idele_quotient(bound=None):
    cap = _cap(2 ** 12, bound)
    checked = 0
    for q in (2, 3):
        fld = fqpoly.fq_field(q)
        for fm in genus_function.all_factored_moduli(fld, cap):
            if not genus_function.idele_quotient_check(fm):
                return CriterionResult(
                    8, "idele quotient", False,
                    f"isomorphism fails at N={fm.modulus} over F_{q}")
            checked += 1
    return CriterionResult(
        8, "idele quotient", True,
        f"local-units product matches the global unit group for all "
        f"{checked} moduli with q^deg(N) <= {cap}, q in {{2,3}}")


# ---------------------------------------------------------------------------
# 9. invariants of the field at infinity

def criterion_s_field(bound=None):
    rng = random.Random(9)
    inf2 = genus_function.InfinityUnits(fqpoly.fq_field(2), 3)
    inf3 = genus_function.InfinityUnits(fqpoly.fq_field(3), 2)
    for _ in range(100):
        inf = rng.choice((inf2, inf3))
        ts = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 5))]
        data = genus_function.InfinitePrimeData(
            tuple(genus_function.InfinitePrimeRecord(1, t, inf.full_subgroup())
                  for t in ts))
        inv = genus_function.s_field_invariants(data, inf)
        if inv.t0 != reduce(math.gcd, ts):
            return CriterionResult(9, "S-field invariants", False,
                                   f"t0 is not the gcd of {ts}")
        if inv.f_infinity != inv.t0:
            return CriterionResult(
                9, "S-field invariants", False,
                f"residue degree at infinity disagrees with t0 for {ts}")
    data = genus_function.InfinitePrimeData(
        (genus_function.InfinitePrimeRecord(1, 1, inf2.full_subgroup()),))
    inv = genus_function.s_field_invariants(data, inf2)
    if (inv.t0, inv.n0, inv.m0, inv.alpha) != (1, 0, 1, 0):
        return CriterionResult(
            9, "S-field invariants", False,
            f"split infinite prime gave {(inv.t0, inv.n0, inv.m0, inv.alpha)}")
    wild = genus_function.InfinitePrimeData(
        (genus_function.InfinitePrimeRecord(
            2, 1, inf2.one_units_subgroup(2)),))
    inv = genus_function.s_field_invariants(wild, inf2)
    if (inv.alpha, inv.n0, inv.m0) != (1, 2, 1):
        return CriterionResult(9, "S-field invariants", False,
                               "wild quadratic fixture changed")
    return CriterionResult(
        9, "S-field invariants", True,
        "t0 = gcd(t_i) and f-at-infinity = t0 on 100 random tuples with "
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

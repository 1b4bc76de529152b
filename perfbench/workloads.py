"""The three seeded workloads: input generation, the timed operation, and
the checks on its output.

Every workload is a stream of cycles.  A cycle is a fixed template of
operation slots whose parameters are drawn from a generator seeded by
(workload, seed, cycle index), so the mix of cheap and expensive
operations is the same in every cycle and every run, and only the
concrete inputs depend on the seed.  The program sees nothing but the
generated inputs: descriptor documents for `genusctl` reports, and
plain integers and coefficient tuples for direct calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import independent as ind
from genusfields import (abelian, characters, cli, fqpoly, genus_function,
                         genus_number, oracle)

# Ambient groups no larger than this get the exhaustive oracle
# cross-check.  The oracle's own limit (SUBGROUP_ENUMERATION_BOUND, 4096)
# is out of reach inside one run: enumerating the subgroups of a group of
# order 240 already takes about 25 s, while every group of order <= 32
# together takes under 2 s.
ORACLE_ORDER_LIMIT = 32


def run_cli(args):
    """`genusctl <args>` in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def _cycle_rng(name, seed, cycle):
    return random.Random(f"{name}/{seed}/{cycle}")


def write_descriptor(path, doc):
    """Write a descriptor document: top-level keys, then [[primes]] tables."""
    lines = [f"{k} = {json.dumps(v)}" for k, v in doc.items()
             if k != "primes"]
    for entry in doc.get("primes", ()):
        lines += ["", "[[primes]]"]
        lines += [f"{k} = {json.dumps(v)}" for k, v in entry.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _random_chars(rng, invariants, p_full=0.15):
    if not invariants:
        return []
    if rng.random() < p_full:
        return "full"
    return [[rng.randrange(d) for d in invariants]
            for _ in range(rng.randint(1, 2))]


def _group_order(label):
    out = 1
    for part in label.split(" x "):
        out *= int(part[1:])
    return out


def _report_common_checks(payload, invariants, problems):
    """Checks shared by every abelian genus report, over Q or F_q(T)."""
    if payload["unit_group"] != ind.group_label(invariants):
        problems.append(f"unit group {payload['unit_group']}")
    order = _group_order(payload["unit_group"])
    deg = payload["field_degree"]
    genus = payload["genus_degree_over_field"]
    ext = payload["extended_degree_over_field"]
    if order % deg:
        problems.append("field degree does not divide the unit-group order")
    if ext != genus * payload["gap"]:
        problems.append("extended degree is not gap * genus degree")
    comp = 1
    for row in payload["primes"]:
        comp *= row["component_degree"]
        if row["component_degree"] != row["e"] or \
                row["e"] != row["tame"] * row["wild"]:
            problems.append(f"prime row {row}")
    # the extended genus group is the product of the components X_p
    if comp != deg * ext:
        problems.append("component degrees do not multiply to the extended "
                        "degree")


def _number_local_doc(rng):
    p = rng.choice((2, 3, 5, 7, 11, 13))
    top = {2: 8, 3: 7, 5: 4, 7: 4, 11: 3, 13: 3}[p]
    level = rng.randint(3 if p == 2 else 1, top)
    m = p ** level
    primes = []
    for _ in range(rng.randint(1, 3)):
        residues = []
        for _ in range(rng.randint(1, 3)):
            u = rng.randrange(1, m)
            while u % p == 0:
                u = rng.randrange(1, m)
            residues.append(u)
        primes.append({"e": rng.randint(1, 8), "f": rng.randint(1, 3),
                       "norm_residues": residues})
    return {"kind": "number-local", "p": p, "level": level,
            "primes": primes}


def _check_number_local(doc, payload, problems):
    p, level = doc["p"], doc["level"]
    units = ind.unit_group_invariants(p ** level)
    phi = ind.euler_phi(p ** level)
    if payload["unit_group"] != ind.group_label(units):
        problems.append(f"unit group {payload['unit_group']}")
    degree = payload["local_degree"]
    if phi % degree or any(phi % i for i in payload["norm_indices"]):
        problems.append("an index does not divide |U|")
    if p == 2:
        # L_2 is classified from the intersection of the norm groups, a
        # subgroup of their product, so its degree 2^m is a multiple
        two = payload["two_adic"]
        m = two["m"]
        label = {"PlusField": f"Q(zeta_{2 ** (m + 2)})^+" if m else "Q",
                 "FullCyclotomic": f"Q(zeta_{2 ** (m + 1)})",
                 "MinusField": f"Q(zeta_{2 ** (m + 2)})^-"}.get(two["tag"])
        if (2 ** m) % degree or phi % 2 ** m or two["field"] != label:
            problems.append(f"two-adic data {two}")
    else:
        es = [entry["e"] for entry in doc["primes"]]
        if payload["tame_degree"] != ind.gcd_all(es, p - 1):
            problems.append("tame degree is not gcd(e_1, ..., e_r, p - 1)")
        if degree != ind.gcd_all(payload["norm_indices"]):
            problems.append("local degree is not the gcd of the indices")


class Workload:
    """One workload: a seeded stream of cycles of operations."""

    name = ""
    # cycles in a traced run, and cycles every run completes (digest)
    trace_cycles = 0
    digest_cycles = 2
    # the latency percentile reported as op_tail_ms; every run completes
    # enough operations to leave at least ten samples above it
    tail_percentile = 99.0
    # clear every package cache before each cycle, so that each cycle
    # starts as cold as a fresh `genusctl` process
    cold_cycles = False

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._files = 0

    def cycle(self, c):
        """Operations of cycle c, with their descriptor files written."""
        ops = self.make_cycle(_cycle_rng(self.name, self.seed, c), c)
        for op in ops:
            for doc_key in ("doc", "report"):
                if doc_key in op:
                    path = self.workdir / f"{self._files}.toml"
                    self._files += 1
                    write_descriptor(path, op[doc_key])
                    op[doc_key + "_path"] = str(path)
        return ops

    def before_cycle(self):
        """Runs before each cycle, outside the timed region."""
        if self.cold_cycles:
            for cache in package_caches():
                cache.cache_clear()

    def make_cycle(self, rng, c):
        raise NotImplementedError

    def execute(self, op):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def check(self, op, result):
        """(canonical output string, list of problems) for one result."""
        raise NotImplementedError

    def oracle_case(self, op, result):
        """(key, thunk) for the oracle cross-check, or None.  The thunk
        returns a list of problems."""
        return None

    def report_output(self, result):
        """The `genusctl` stdout captured in one result."""
        return ""


def _report(command, op, key="doc"):
    return run_cli([command, "--spec", op[key + "_path"], "--json"])


def _parse_report(code, out, problems):
    if code != 0:
        problems.append(f"genusctl exit code {code}")
        return None
    return json.loads(out)


# ---------------------------------------------------------------------------
# q-reports

def _tail_pool(seed, size=12):
    """Highly composite fundamental discriminants, 8000 <= |d| <= 65000,
    where the divisor-scanning conductor costs the most.  The candidates,
    sorted by |d|, are cut into `size` bands and the middle of each band
    is taken, so every seed runs the same tail; the seed sets its order."""
    odd = (3, 5, 7, 11, 13, 17)
    pool = set()
    for mask in range(1, 1 << len(odd)):
        m = 1
        for i, p in enumerate(odd):
            if mask >> i & 1:
                m *= p
        for f in (1, 4, 8):
            for sign in (1, -1):
                d = sign * f * m
                if 8000 <= abs(d) <= 65000 and \
                        ind.is_fundamental_discriminant(d):
                    pool.add(d)
    pool = sorted(pool, key=lambda d: (abs(d), d))
    picks = [pool[len(pool) * (2 * i + 1) // (2 * size)] for i in range(size)]
    random.Random(f"q-reports/{seed}/tail").shuffle(picks)
    return picks


class QReports(Workload):
    """`genusctl number` reports over Q."""

    name = "q-reports"
    # a cycle brings about 20 moduli new to the 512-entry ambient caches,
    # which start to evict after about 24 cycles: 32 traced cycles evict
    trace_cycles = 32
    # slots of one cycle: mostly quadratic fields, some random character
    # groups, a 2-adic and an odd local descriptor, one tail modulus
    TEMPLATE = ["quad"] * 18 + ["abel"] * 3 + ["local"] * 2 + ["tail"]
    QUAD_BOUND = 3000
    ABEL_BOUND = 700

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._tail = _tail_pool(seed)

    def make_cycle(self, rng, c):
        slots = list(self.TEMPLATE)
        rng.shuffle(slots)
        ops = []
        for slot in slots:
            if slot == "quad":
                d = 0
                while not ind.is_fundamental_discriminant(d):
                    d = rng.randint(-self.QUAD_BOUND, self.QUAD_BOUND)
                doc = {"kind": "number-quadratic", "discriminant": d}
            elif slot == "tail":
                d = self._tail[c % len(self._tail)]
                doc = {"kind": "number-quadratic", "discriminant": d}
            elif slot == "abel":
                n = rng.randint(3, self.ABEL_BOUND)
                invs = ind.unit_group_invariants(n)
                doc = {"kind": "number-abelian", "modulus": n,
                       "characters": _random_chars(rng, invs)}
            else:
                doc = _number_local_doc(rng)
            ops.append({"slot": slot, "doc": doc})
        return ops

    def execute(self, op):
        return _report("number", op)

    def report_output(self, result):
        return result[1]

    def check(self, op, result):
        code, out = result
        problems = []
        payload = _parse_report(code, out, problems)
        if payload is None:
            return out, problems
        doc = op["doc"]
        if doc["kind"] == "number-local":
            _check_number_local(doc, payload, problems)
            return out, problems
        if doc["kind"] == "number-quadratic":
            d = doc["discriminant"]
            n = abs(d)
            primes = [p for p, _ in ind.factorize(n)]
            if payload["field_degree"] != 2:
                problems.append("quadratic field of degree != 2")
            # the extended genus field of Q(sqrt d) is the compositum of
            # the t prime-discriminant fields: degree 2^t, conductor |d|
            if payload["extended_degree_over_field"] != 2 ** (len(primes) - 1):
                problems.append("extended degree is not 2^(t-1)")
            if payload["conductor"] != str(n):
                problems.append("conductor of the extended field is not |d|")
            if [int(r["prime"]) for r in payload["primes"]] != primes:
                problems.append("ramified primes are not the primes of d")
        else:
            n = doc["modulus"]
            if n % int(payload["conductor"]):
                problems.append("conductor does not divide the modulus")
        if payload["modulus"] != str(n):
            problems.append("modulus label")
        if payload["gap"] not in (1, 2):
            problems.append(f"gap {payload['gap']} outside {{1, 2}}")
        _report_common_checks(payload, ind.unit_group_invariants(n),
                              problems)
        return out, problems

    def oracle_case(self, op, result):
        doc = op["doc"]
        if doc["kind"] == "number-local":
            return None
        n = abs(doc.get("discriminant", doc.get("modulus")))
        if ind.euler_phi(n) > ORACLE_ORDER_LIMIT:
            return None
        key = json.dumps(doc, sort_keys=True)
        payload = json.loads(result[1])

        def thunk():
            if doc["kind"] == "number-quadratic":
                chi = characters.kronecker_character(doc["discriminant"])
                x = characters.character_group(chi.ambient, [chi])
            else:
                amb = characters.numeric_ambient(n)
                chars = doc["characters"]
                x = characters.full_dual(amb) if chars == "full" else \
                    characters.character_group(
                        amb, [characters.Character(amb, tuple(v))
                              for v in chars])
            return _oracle_problems(x, payload, with_genus=True)

        return key, thunk


def _oracle_problems(x, payload, with_genus):
    problems = []
    extended = oracle.maximal_extended_search(x)
    if extended != _closed_extended(x):
        problems.append("oracle extended genus != closed form")
    if payload is not None and extended.order != \
            payload["field_degree"] * payload["extended_degree_over_field"]:
        problems.append("oracle extended degree != report")
    if with_genus:
        genus = oracle.maximal_genus_search(x)
        if genus != genus_number.genus_characters(x):
            problems.append("oracle genus != closed form")
        if payload is not None and genus.order != \
                payload["field_degree"] * payload["genus_degree_over_field"]:
            problems.append("oracle genus degree != report")
    return problems


def _closed_extended(x):
    if x.ambient.kind == "number":
        return genus_number.extended_genus_characters(x)
    return genus_function.extended_genus_characters_ff(x)


# ---------------------------------------------------------------------------
# fq-sweep

def _random_monic(rng, q, degree):
    return tuple(rng.randrange(q) for _ in range(degree)) + (1,)


def _field(q):
    return fqpoly.fq_field(*ind.FIELD_PRIMES[q])


def _report_bands(cap, bands):
    """Every monic M over F_q, q in {2, 3, 4}, with q^deg M <= cap, sorted
    by the order of (F_q[T]/M)* and cut into `bands` bands of about equal
    size, each in a fixed random order.

    A report's cost grows with that order, so a cycle, which takes the
    next modulus of every band, has the same spread of costs as every
    other cycle, and a pass through the bands visits every modulus."""
    pool = []
    for q in (2, 3, 4):
        for deg in range(1, 7):
            if q ** deg <= cap:
                for code in range(q ** deg):
                    m = ind.poly_from_code(q, code)
                    m += (0,) * (deg - len(m)) + (1,)
                    pool.append((ind.ff_unit_count(q, m), q, m))
    pool.sort()
    rng = random.Random("fq-sweep/bands")
    out = []
    for i in range(bands):
        band = [(q, m) for _, q, m in pool[len(pool) * i // bands:
                                           len(pool) * (i + 1) // bands]]
        rng.shuffle(band)
        out.append(band)
    return out


class FqSweep(Workload):
    """One monic modulus N per operation over F_q[T], q in {2, 3, 4}."""

    name = "fq-sweep"
    trace_cycles = 2
    tail_percentile = 95.0
    # the first report on a modulus builds its ambient group, several
    # times the cost of a later one; with the caches kept, a run would be
    # cold for its first pass through the bands and warm after it, and a
    # faster machine would run more of the cheap warm cycles.  Cold cycles
    # cost the same from the first to the last.
    cold_cycles = True
    REPORT_CAP = 64         # q^deg M for the report modulus: |G| < 64
    # one slot per (q, deg N) with q^deg N <= 2^12, the idele check's
    # elementwise range
    SLOTS = [(2, d) for d in range(4, 13)] + [(3, d) for d in range(3, 8)] \
        + [(4, d) for d in range(2, 7)]
    # the function-local reports, one per q, as (q, n_max): the unit group
    # at infinity has order (q - 1) q^(n_max - 1) = 64, 54, 48, and its
    # size sets the cost, so it is fixed rather than drawn
    LOCAL = [(2, 7), (3, 4), (4, 3)]
    # every fourth band of the abelian reports takes the full dual group,
    # the others one or two random characters
    FULL_EVERY = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._bands = _report_bands(self.REPORT_CAP,
                                    len(self.SLOTS) - len(self.LOCAL))

    def make_cycle(self, rng, c):
        slots = list(self.SLOTS)
        rng.shuffle(slots)
        reports = [self._local_doc(rng, q, n_max) for q, n_max in self.LOCAL]
        # the abelian reports of cycle c are the same for every seed: their
        # cost varies most from draw to draw, and a seed that drew dearer
        # ones would be slower all run long.  The seed sets N, the local
        # reports, and which N each report goes with.
        chars_rng = _cycle_rng(self.name, "reports", c)
        for i, band in enumerate(self._bands):
            q, m = band[c % len(band)]
            _, invs = ind.ff_unit_group_invariants(q, m)
            chars = "full" if i % self.FULL_EVERY == self.FULL_EVERY - 1 \
                else _random_chars(chars_rng, invs, p_full=0.0)
            reports.append({"kind": "function-abelian", "q": q,
                            "modulus": list(m), "characters": chars})
        rng.shuffle(reports)
        return [{"q": q, "n": _random_monic(rng, q, deg), "report": report}
                for (q, deg), report in zip(slots, reports)]

    @staticmethod
    def _local_doc(rng, q, n_max):
        p, s = ind.FIELD_PRIMES[q]
        primes = []
        for _ in range(rng.randint(1, 2)):
            gens = [[rng.randrange(1, q)]
                    + [rng.randrange(q) for _ in range(n_max - 1)]
                    for _ in range(rng.randint(0, 2))]
            # U^(n_max - 1) inside every norm group keeps n0 < n_max, so
            # the level always certifies n0 (no precision error)
            gens += [[1] + [0] * (n_max - 2) + [p ** j] for j in range(s)]
            primes.append({"e": rng.randint(1, 4), "t": rng.randint(1, 3),
                           "norm_generators": gens})
        return {"kind": "function-local", "q": q, "n_max": n_max,
                "primes": primes}

    def execute(self, op):
        n = fqpoly.poly(_field(op["q"]), op["n"])
        factored = fqpoly.factor_modulus(n)
        idele = genus_function.idele_quotient_check(factored)
        carlitz = genus_function.carlitz_operator(n)
        torsion = genus_function.torsion_order_check(n)
        return factored, idele, carlitz, torsion, _report("function", op,
                                                          "report")

    def report_output(self, result):
        return result[4][1]

    def check(self, op, result):
        factored, idele, carlitz, torsion, (code, out) = result
        q, n = op["q"], op["n"]
        problems = []
        factors = [(f.coeffs, a) for f, a in factored.factors]
        rebuilt = (1,)
        for f, a in factors:
            for _ in range(a):
                rebuilt = ind.poly_mul(q, rebuilt, f)
            if len(f) < 2 or f[-1] != 1:
                problems.append(f"factor {f} is not monic of positive degree")
        if rebuilt != n:
            problems.append("factors do not multiply back to N")
        if idele is not True:
            problems.append("idele quotient check failed")
        coeffs = [c.coeffs for c in carlitz.coeffs]
        if coeffs[0] != n or len(coeffs) != len(n):
            problems.append("C_N does not have x-coefficient N and "
                            "linear degree deg N")
        if torsion != q ** (len(n) - 1):
            problems.append("torsion count is not q^deg N")
        payload = _parse_report(code, out, problems)
        if payload is not None:
            doc = op["report"]
            if doc["kind"] == "function-abelian":
                if (doc["q"] - 1) % payload["gap"]:
                    problems.append("gap does not divide q - 1")
                _, invs = ind.ff_unit_group_invariants(
                    doc["q"], tuple(doc["modulus"]))
                _report_common_checks(payload, invs, problems)
            else:
                self._check_local(doc, payload, problems)
        canonical = json.dumps([factors, idele, coeffs, torsion])
        return canonical + "\n" + out, problems

    @staticmethod
    def _check_local(doc, payload, problems):
        q, n_max = doc["q"], doc["n_max"]
        ts = [entry["t"] for entry in doc["primes"]]
        t0 = ind.gcd_all(ts)
        if payload["t0"] != t0 or payload["f_infinity"] != t0:
            problems.append("t0 or f_infinity is not gcd(t_i)")
        if _group_order(payload["infinity_unit_group"]) != \
                (q - 1) * q ** (n_max - 1):
            problems.append("infinite-prime unit group has the wrong order")
        if not 0 <= payload["n0"] < n_max or payload["m0"] % t0 \
                or payload["alpha"] < 0:
            problems.append(f"invariants {payload}")

    def oracle_case(self, op, result):
        doc = op["report"]
        if doc["kind"] != "function-abelian":
            return None
        q, m = doc["q"], tuple(doc["modulus"])
        order, _ = ind.ff_unit_group_invariants(q, m)
        if order > ORACLE_ORDER_LIMIT:
            return None
        payload = json.loads(result[4][1])

        def thunk():
            fld = _field(q)
            amb = characters.ff_ambient(
                fqpoly.factor_modulus(fqpoly.poly(fld, m)))
            chars = doc["characters"]
            x = characters.full_dual(amb) if chars == "full" else \
                characters.character_group(
                    amb, [characters.Character(amb, tuple(v))
                          for v in chars])
            return _oracle_problems(x, payload, with_genus=False)

        return json.dumps(doc, sort_keys=True), thunk


# ---------------------------------------------------------------------------
# lattice

class Lattice(Workload):
    """Subgroup pairs A, B of small ambients: products, intersections,
    quotients, and for unit groups the closed-form genus groups of A."""

    name = "lattice"
    trace_cycles = 8
    # (kind, parameter): cyclic groups, unit groups mod prime powers,
    # multi-prime unit groups, the non-cyclic groups of the lattice law
    # suite, and four of higher rank so that HNF work outweighs the genus
    # computations on the unit groups
    AMBIENTS = ([("cyclic", (n,)) for n in (360, 1024, 2520)]
                + [("unit", n) for n in (27, 32, 81, 125)]
                + [("unit", n) for n in (60, 84, 120)]
                + [("abstract", t) for t in ((2, 2, 4), (4, 8), (2, 4, 8),
                                             (2, 2, 2, 4), (8, 8),
                                             (2, 6, 12))]
                + [("abstract", t) for t in ((2, 4, 8, 16), (2, 2, 2, 2, 4),
                                             (6, 12, 24), (3, 9, 27))])

    @staticmethod
    def invariants(kind, param):
        return ind.unit_group_invariants(param) if kind == "unit" \
            else ind.cyclic_invariants(param)

    def make_cycle(self, rng, c):
        ambients = list(self.AMBIENTS)
        rng.shuffle(ambients)
        ops = []
        for kind, param in ambients:
            invs = self.invariants(kind, param)

            def gens(count):
                return [[rng.randrange(d) for d in invs] for _ in range(count)]

            # the genus computations cost roughly in proportion to the
            # generators of A, so A always has two: that leaves one cost
            # cluster on each unit-group ambient for op_tail_ms to fall in
            ops.append({"kind": kind, "param": param, "a": gens(2),
                        "b": gens(rng.randint(1, 3))})
        return ops

    def execute(self, op):
        if op["kind"] == "unit":
            amb = characters.numeric_ambient(op["param"])
            group = amb.group
        else:
            amb = None
            group = abelian.FiniteAbelianGroup(op["param"])
        a = abelian.subgroup_from_generators(group, op["a"])
        b = abelian.subgroup_from_generators(group, op["b"])
        prod_ab = abelian.product(a, b)
        meet = abelian.intersect(a, b)
        quotients = [abelian.quotient_structure(s)
                     for s in (a, b, prod_ab, meet)]
        genus = None
        if amb is not None:
            x = characters.CharacterGroup(amb, a)
            genus = (genus_number.extended_genus_characters(x),
                     genus_number.genus_characters(x))
        return a, b, prod_ab, meet, quotients, genus

    def check(self, op, result):
        a, b, prod_ab, meet, quotients, genus = result
        invs = self.invariants(op["kind"], op["param"])
        problems = []

        def within(small_rows, big):
            return all(ind.lattice_contains(invs, big.lattice, r)
                       for r in small_rows)

        order = 1
        for d in invs:
            order *= d
        for sub, gens in ((a, op["a"]), (b, op["b"])):
            if not within(gens, sub):
                problems.append("a generator is missing from its subgroup")
        if not (within(a.lattice, prod_ab) and within(b.lattice, prod_ab)
                and within(meet.lattice, a) and within(meet.lattice, b)):
            problems.append("meet/join containment fails")
        if prod_ab.order * meet.order != a.order * b.order:
            problems.append("|AB| |A n B| != |A| |B|")
        for sub, quo in zip((a, b, prod_ab, meet), quotients):
            if quo.order * sub.order != order or \
                    sub.order != ind.lattice_order(invs, sub.lattice):
                problems.append("quotient order is not the index")
        rows = [[list(s.lattice) for s in (a, b, prod_ab, meet)],
                [list(quo.invariant_factors) for quo in quotients]]
        if genus is not None:
            extended, gen = genus
            if not (within(a.lattice, gen.dual)
                    and within(gen.dual.lattice, extended.dual)):
                problems.append("X <= genus <= extended fails")
            if extended.order // gen.order not in (1, 2):
                problems.append("gap outside {1, 2}")
            rows.append([list(extended.dual.lattice),
                         list(gen.dual.lattice)])
        return json.dumps(rows), problems

    def oracle_case(self, op, result):
        if op["kind"] != "unit" or \
                ind.euler_phi(op["param"]) > ORACLE_ORDER_LIMIT:
            return None
        a = result[0]

        def thunk():
            x = characters.CharacterGroup(
                characters.numeric_ambient(op["param"]), a)
            return _oracle_problems(x, None, with_genus=True)

        return (op["param"], a.lattice), thunk


WORKLOADS = {w.name: w for w in (QReports, FqSweep, Lattice)}


def package_caches():
    """Every lru_cache in the package, to start a pass with cold caches."""
    out = []
    for module in (abelian, characters, fqpoly, genus_function, genus_number,
                   oracle, cli):
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and \
                    getattr(value, "__module__", None) == module.__name__:
                out.append(value)
    return out


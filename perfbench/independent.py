"""Arithmetic the benchmark needs without calling the program under test.

The input generators and output checks use these closed forms and
brute-force routines, so a wrong answer from the program cannot also
reshape the inputs or pass its own check, and set-up leaves the
program's caches cold.  Everything here is small and slow on purpose.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod


def factorize(n):
    """Prime factorization of n >= 1 as a list of (p, a) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_fundamental_discriminant(d):
    def squarefree(m):
        return all(a == 1 for _, a in factorize(abs(m)))

    if d in (0, 1):
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        return (d // 4) % 4 in (2, 3) and squarefree(d // 4)
    return False


def invariant_factors(primary):
    """Invariant factors (ascending, each > 1) from {prime: [exponents]}."""
    chains = {p: sorted((e for e in exps if e > 0), reverse=True)
              for p, exps in primary.items()}
    k = max((len(c) for c in chains.values()), default=0)
    desc = [prod((p ** c[i] for p, c in chains.items() if i < len(c)),
                 start=1) for i in range(k)]
    return tuple(reversed(desc))


def cyclic_invariants(orders):
    """Invariant factors of a product of cyclic groups of the given orders."""
    primary = {}
    for o in orders:
        for p, a in factorize(o):
            primary.setdefault(p, []).append(a)
    return invariant_factors(primary)


def unit_group_invariants(n):
    """Invariant factors of (Z/nZ)* from the structure of each p^a part."""
    orders = []
    for p, a in factorize(n):
        if p != 2:
            orders.append((p - 1) * p ** (a - 1))
        elif a == 2:
            orders.append(2)
        elif a >= 3:
            orders += [2, 2 ** (a - 2)]
    return cyclic_invariants(orders)


def group_label(invariants):
    """The program's printed form of a group: 'C2 x C4', 'C1' if trivial."""
    return " x ".join(f"C{d}" for d in invariants) if invariants else "C1"


def euler_phi(n):
    return prod(((p - 1) * p ** (a - 1) for p, a in factorize(n)), start=1)


# ---------------------------------------------------------------------------
# F_q and F_q[T] for q in {2, 3, 4}.  F_4 elements are a0 + 2*a1 for
# a0 + a1*w with w^2 = w + 1, the program's encoding.

FIELD_PRIMES = {2: (2, 1), 3: (3, 1), 4: (2, 2)}


@lru_cache(maxsize=None)
def field_tables(q):
    """(add, mul) tables of F_q as lists of lists."""
    if q == 4:
        def mul(a, b):
            a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
            c0 = (a0 & b0) ^ (a1 & b1)
            c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
            return c0 | (c1 << 1)
        add = [[a ^ b for b in range(4)] for a in range(4)]
        return add, [[mul(a, b) for b in range(4)] for a in range(4)]
    return ([[(a + b) % q for b in range(q)] for a in range(q)],
            [[a * b % q for b in range(q)] for a in range(q)])


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(q, a, b):
    add, mul = field_tables(q)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = add[out[i + j]][mul[x][y]]
    return _trim(out)


def poly_mod(q, a, m):
    """Remainder of a modulo a monic m."""
    add, mul = field_tables(q)
    neg = [next(b for b in range(q) if add[x][b] == 0) for x in range(q)]
    rem = list(a)
    dm = len(m) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i]
        if c:
            for j, y in enumerate(m):
                rem[i - dm + j] = add[rem[i - dm + j]][neg[mul[c][y]]]
    return _trim(rem[:dm])


def poly_from_code(q, code):
    cs = []
    while code:
        cs.append(code % q)
        code //= q
    return tuple(cs)


def poly_gcd(q, m, r):
    """Monic gcd of a monic m and any r, by Euclid with monic rescalings."""
    _, mul = field_tables(q)
    inv = {a: next(b for b in range(1, q) if mul[a][b] == 1)
           for a in range(1, q)}
    a, b = m, r
    while b:
        lead = inv[b[-1]]
        b = tuple(mul[lead][c] for c in b)
        a, b = b, poly_mod(q, a, b)
    return a


def _is_unit_mod(q, r, m):
    return len(poly_gcd(q, m, r)) == 1


def _pow_mod(q, x, e, m):
    out = (1,)
    while e:
        if e & 1:
            out = poly_mod(q, poly_mul(q, out, x), m)
        x = poly_mod(q, poly_mul(q, x, x), m)
        e >>= 1
    return out


@lru_cache(maxsize=None)
def ff_unit_group_invariants(q, modulus):
    """Invariant factors of (F_q[T]/<M>)* for a monic M, by counting.

    For each prime l of the order, u -> u^(|G| / l^v) maps onto the
    l-Sylow subgroup with fibres of equal size, so the number of units
    whose image has order dividing l^j is |G_l[l^j]| times the prime-to-l
    order; those counts fix the l-part of the structure.
    """
    units = [r for r in (poly_from_code(q, c)
                         for c in range(1, q ** (len(modulus) - 1)))
             if _is_unit_mod(q, r, modulus)]
    order = len(units)
    primary = {}
    for ell, v in factorize(order):
        cof = order // ell ** v
        counts = [0] * (v + 1)
        for u in units:
            w = _pow_mod(q, u, cof, modulus)
            j = 0
            while w != (1,):
                w = _pow_mod(q, w, ell, modulus)
                j += 1
            counts[j] += 1
        torsion = [sum(counts[:j + 1]) // cof for j in range(v + 1)]
        ranks = [_round_log(torsion[j] // torsion[j - 1], ell)
                 for j in range(1, v + 1)]
        exps = []
        for j, r in enumerate(ranks, start=1):
            nxt = ranks[j] if j < len(ranks) else 0
            exps += [j] * (r - nxt)
        primary[ell] = exps
    return order, invariant_factors(primary)


def ff_unit_count(q, modulus):
    """|(F_q[T]/<M>)*| for a monic M, by the polynomial Euler phi:
    q^deg M times (1 - q^-d) for each distinct monic irreducible factor of
    degree d.  gcd(M, T^(q^d) - T) is the product of the distinct
    irreducible factors whose degree divides d."""
    add, _ = field_tables(q)
    neg_one = next(b for b in range(q) if add[1][b] == 0)
    deg = len(modulus) - 1
    count = q ** deg
    x = (0, 1)
    factors = {}            # degree -> distinct irreducible factors
    for d in range(1, deg + 1):
        x = _pow_mod(q, x, q, modulus)      # T^(q^d) mod M
        diff = list(x) + [0] * max(0, 2 - len(x))
        diff[1] = add[diff[1]][neg_one]
        below = sum(e * factors[e] for e in factors if d % e == 0)
        factors[d] = (len(poly_gcd(q, modulus, _trim(diff))) - 1 - below) // d
        count = count // q ** (d * factors[d]) * (q ** d - 1) ** factors[d]
    return count


def _round_log(n, base):
    """k with base^k == n; raises if n is not a power of base."""
    k = 0
    while n > 1 and n % base == 0:
        n //= base
        k += 1
    if n != 1:
        raise ValueError("not a power of the base")
    return k


def lattice_contains(ambient_invariants, lattice, vec):
    """Membership of vec in the subgroup with canonical HNF rows `lattice`."""
    v = [a % d for a, d in zip(vec, ambient_invariants)]
    row = 0
    for col in range(len(v)):
        if row < len(lattice) and lattice[row][col]:
            piv = lattice[row][col]
            if v[col] % piv:
                return False
            c = v[col] // piv
            v = [a - c * b for a, b in zip(v, lattice[row])]
            row += 1
        elif v[col]:
            return False
    return not any(v)


def lattice_order(ambient_invariants, lattice):
    """Subgroup order from full-rank HNF rows: |G| / det."""
    det = prod((lattice[i][i] for i in range(len(lattice))), start=1)
    return prod(ambient_invariants, start=1) // det


def gcd_all(values, start=0):
    out = start
    for v in values:
        out = gcd(out, v)
    return out

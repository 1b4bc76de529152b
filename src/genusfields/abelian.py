"""Finite abelian groups presented by invariant factors, and their subgroups.

A group with invariant factors (d_1, ..., d_k), d_1 | d_2 | ... | d_k, is
Z/d_1 x ... x Z/d_k; elements are integer tuples reduced componentwise.
A subgroup is stored as the Hermite normal form of the integer lattice
generated by its generators together with the relation lattice
diag(d_1, ..., d_k).  The HNF is unique for a given lattice, so two
Subgroup values compare equal exactly when the subgroups coincide.

Also provides the unit groups (Z/nZ)* with exact discrete logarithms,
which is the finite-level model used everywhere a p-adic unit group
appears in the degree formulas, and their CRT construction
(`CRTUnitGroup`), which (F_q[T]/<N>)* in `fqpoly` shares.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod

from .errors import AmbientMismatchError, BoundExceededError, DimensionError

ORDER_BOUND = 2 ** 63
UNIT_GROUP_BOUND = 10 ** 6


# ---------------------------------------------------------------------------
# Integer matrix normal forms

def hnf(rows, ncols):
    """Canonical row Hermite normal form of the lattice spanned by `rows`.

    Returns a tuple of nonzero rows, echelon from the left: each pivot is
    positive and the entries above a pivot are reduced into [0, pivot).
    """
    m = [list(r) for r in rows if any(r)]
    row = 0
    for col in range(ncols):
        # gcd-eliminate column `col` below `row`
        while True:
            nz = [i for i in range(row, len(m)) if m[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(m[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = m[i][col] // m[i0][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        nz = [i for i in range(row, len(m)) if m[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        m[row], m[i0] = m[i0], m[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        piv = m[row][col]
        for i in range(row):
            q = m[i][col] // piv
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
        row += 1
    return tuple(tuple(r) for r in m[:row])


def hnf_with_transform(rows, ncols):
    """HNF together with a unimodular U such that U * M = H (zero rows kept).

    Returns (hrows, urows): the HNF of the augmented matrix [M | I] split
    after column `ncols`, so hrows keeps one row per input row (the zero
    ones last) and urows is the transform over the original row list.
    Kept as its own function for `unimodular_inverse`, and because the
    per-layer tracer (perfbench/tracing.py) looks it up by name.
    """
    n = len(rows)
    aug = hnf([list(r) + e for r, e in zip(rows, _diagonal([1] * n))],
              ncols + n)
    return [r[:ncols] for r in aug], [r[ncols:] for r in aug]


def smith_normal_form(rows, ncols):
    """Diagonal entries of the Smith normal form (nonzero ones only)."""
    return snf_with_transform(rows, ncols)[0]


def snf_with_transform(a_rows, ncols):
    """Smith normal form with the column transform: returns (diag, V).

    diag holds the nonzero invariant factors d_1 | d_2 | ..., and U*A*V = D
    for some unimodular U that is not built.
    """
    m = [list(r) for r in a_rows]
    nrows = len(m)
    v = _diagonal([1] * ncols)

    def smallest_entry():
        pos = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                a = abs(m[i][j])
                if a and (best is None or a < best):
                    best = a
                    pos = (i, j)
        return pos

    top = 0
    pos = smallest_entry()
    while pos is not None:
        while True:
            i0, j0 = pos
            m[top], m[i0] = m[i0], m[top]
            for r in itertools.chain(m, v):
                r[top], r[j0] = r[j0], r[top]
            piv = m[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                q = m[i][top] // piv
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                if m[i][top]:
                    dirty = True
            for j in range(top + 1, ncols):
                q = m[top][j] // piv
                if q:
                    for r in itertools.chain(m, v):
                        r[j] -= q * r[top]
                if m[top][j]:
                    dirty = True
            if not dirty:
                # enforce divisibility of the remaining block by the pivot
                bad = next((i for i in range(top + 1, nrows)
                            if any(m[i][j] % piv
                                   for j in range(top + 1, ncols))), None)
                if bad is None:
                    break
                m[top] = [a + b for a, b in zip(m[top], m[bad])]
            pos = smallest_entry()
        top += 1
        pos = smallest_entry()
    return [abs(m[i][i]) for i in range(top)], v


def unimodular_inverse(v):
    """Inverse of an integer matrix with determinant +-1."""
    n = len(v)
    h, u = hnf_with_transform(v, n)
    # U * V = H, and H is the identity exactly when V is unimodular
    if any(r[i] != 1 for i, r in enumerate(h)):
        raise ValueError("matrix is not unimodular")
    return u


def _diagonal(entries):
    """The square integer matrix with the given diagonal, as row lists."""
    return [[d if i == j else 0 for j in range(len(entries))]
            for i, d in enumerate(entries)]


def _invariant_group(rows, ncols):
    """FiniteAbelianGroup Z^ncols / <rows>, read off the Smith normal form."""
    return FiniteAbelianGroup(
        tuple(d for d in smith_normal_form(rows, ncols) if d > 1))


# ---------------------------------------------------------------------------
# Groups and subgroups

@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... | d_k, each d_i > 1."""

    invariant_factors: tuple

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if prod(facs, start=1) > ORDER_BOUND:
            raise BoundExceededError(
                f"group {self} of order {prod(facs)} exceeds the desk-scale "
                f"bound {ORDER_BOUND}")

    @property
    def rank(self):
        return len(self.invariant_factors)

    @property
    def order(self):
        return prod(self.invariant_factors, start=1)

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def identity(self):
        return (0,) * self.rank

    def reduce(self, vec):
        if len(vec) != self.rank:
            raise DimensionError(
                f"expected vector of length {self.rank}, got {len(vec)}")
        return tuple(int(a) % d for a, d in zip(vec, self.invariant_factors))

    def add(self, x, y):
        return tuple((a + b) % d
                     for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def scale(self, x, c):
        return tuple((a * c) % d for a, d in zip(x, self.invariant_factors))

    def pairing(self, b, v):
        """<b, v> = sum b_i v_i (e/d_i) mod e, e the exponent: the value at v
        of the character with exponent vector b, as an exponent of zeta_e."""
        e = self.exponent
        return sum(x * y * (e // d)
                   for x, y, d in zip(b, v, self.invariant_factors)) % e

    def element_order(self, x):
        o = 1
        for a, d in zip(x, self.invariant_factors):
            o = o * (d // gcd(a, d)) // gcd(o, d // gcd(a, d))
        return o

    def elements(self):
        for vec in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield vec

    def __str__(self):
        if not self.invariant_factors:
            return "C1"
        return " x ".join(f"C{d}" for d in self.invariant_factors)


TRIVIAL_GROUP = FiniteAbelianGroup(())


def group_from_cyclic_orders(orders):
    """Invariant-factor group isomorphic to the product of C_orders[i]."""
    orders = [o for o in orders if o > 1]
    return _invariant_group(_diagonal(orders), len(orders))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FiniteAbelianGroup in canonical lattice form."""

    ambient: FiniteAbelianGroup
    lattice: tuple  # canonical HNF rows of the full-rank sublattice of Z^k
    order: int

    def __post_init__(self):
        if self.ambient.order % self.order:
            raise ValueError("subgroup order must divide the ambient order")

    @property
    def index(self):
        return self.ambient.order // self.order

    def contains(self, vec):
        """Membership test by triangular reduction against the HNF rows."""
        v = list(self.ambient.reduce(vec))
        k = self.ambient.rank
        row = 0
        for col in range(k):
            if row < len(self.lattice) and self.lattice[row][col]:
                piv = self.lattice[row][col]
                if v[col] % piv:
                    return False
                q = v[col] // piv
                v = [a - q * b for a, b in zip(v, self.lattice[row])]
                row += 1
            elif v[col]:
                return False
        return not any(v)

    def elements(self):
        """All elements, generated from the lattice rows."""
        seen = {self.ambient.identity}
        frontier = [self.ambient.identity]
        gens = [self.ambient.reduce(r) for r in self.lattice]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.ambient.add(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def structure(self):
        """Invariant factors of the subgroup itself."""
        k = self.ambient.rank
        if len(self.lattice) != k:
            raise ValueError("subgroup lattice must be full rank")
        # relation matrix C with C * rows = diag(d): the subgroup is Z^k / C
        return _invariant_group(
            _solve_upper(self.lattice, self.ambient.invariant_factors, k), k)

    def __str__(self):
        return f"subgroup of order {self.order} in {self.ambient}"


def _solve_upper(rows, ds, k):
    """Integer C with C * rows = diag(ds), rows upper triangular full rank."""
    c = []
    for i in range(k):
        target = [ds[i] if j == i else 0 for j in range(k)]
        coeffs = [0] * k
        for col in range(k):
            piv = rows[col][col]
            if target[col] % piv:
                raise ValueError("relation lattice is not contained in subgroup lattice")
            q = target[col] // piv
            coeffs[col] = q
            if q:
                target = [a - q * b for a, b in zip(target, rows[col])]
        if any(target):
            raise ValueError("failed to express relations in the lattice basis")
        c.append(coeffs)
    return c


def subgroup_from_generators(ambient, gens):
    """Smallest subgroup of `ambient` containing every generator."""
    k = ambient.rank
    rows = []
    for g in gens:
        if len(g) != k:
            raise DimensionError(
                f"generator of length {len(g)} in a rank-{k} group")
        rows.append(ambient.reduce(g))
    rows.extend(_diagonal(ambient.invariant_factors))
    return _from_lattice(ambient, hnf(rows, k))


def _from_lattice(ambient, lattice):
    """The Subgroup with a given canonical full-rank HNF lattice."""
    det = prod((lattice[i][i] for i in range(len(lattice))), start=1)
    return Subgroup(ambient, lattice, ambient.order // det)


def trivial_subgroup(ambient):
    return subgroup_from_generators(ambient, [])


def full_subgroup(ambient):
    return subgroup_from_generators(ambient, _diagonal([1] * ambient.rank))


def _check_same_ambient(a, b):
    if a.ambient != b.ambient:
        raise AmbientMismatchError("subgroups live in different ambient groups")


def product(a, b):
    """Join (internal product) of two subgroups of the same ambient group."""
    _check_same_ambient(a, b)
    return subgroup_from_generators(a.ambient, list(a.lattice) + list(b.lattice))


def intersect(a, b):
    """Set-theoretic intersection of two subgroups of the same ambient group.

    Zassenhaus's block method (Cohen, GTM 138, section 2.4): one HNF of
    [[A, A], [B, 0]], whose rows span the pairs (x + y, x) with x in A and
    y in B.  A pair has zero left half exactly when x = -y, i.e. x lies in
    A and in B, so the zero-left rows span {0} x (A meet B).  The left half
    has rank k, so the HNF, echelon from the left, puts those rows last,
    k of them (A meet B contains diag(d), so it has full rank).  Among
    themselves they are already in HNF: positive pivots, entries above each
    pivot reduced by it.  The HNF of a lattice is unique, so their right
    halves are the canonical lattice of A meet B, with no second reduction.
    """
    _check_same_ambient(a, b)
    k = a.ambient.rank
    h = hnf([r + r for r in a.lattice] + [r + (0,) * k for r in b.lattice],
            2 * k)
    return _from_lattice(a.ambient, tuple(r[k:] for r in h[k:]))


def pairing_kernel(sub, vecs):
    """The elements b of `sub` with <b, v> = 0 for every v in `vecs`.

    The same block method as `intersect`: one HNF of the rows
    [<r, v>_v | r] for the lattice rows r of sub, and [e*I | 0], with m =
    len(vecs) left columns.  They span the pairs (phi(x) + e*z, x) with x
    in the lattice and phi(x) the pairings of x, so the zero-left rows
    span {0} x (the kernel).  The left half has rank m, and the kernel
    contains diag(d), so the last k rows are those, and their right
    halves are its canonical lattice.
    """
    g = sub.ambient
    m = len(vecs)
    rows = [[g.pairing(r, v) for v in vecs] + list(r) for r in sub.lattice]
    rows += [r + [0] * g.rank for r in _diagonal([g.exponent] * m)]
    h = hnf(rows, m + g.rank)
    return _from_lattice(g, tuple(r[m:] for r in h[m:]))


def is_cyclic(sub):
    return sub.structure().rank <= 1


def quotient_structure(sub):
    """Invariant factors of ambient/sub via the Smith normal form."""
    return _invariant_group(list(sub.lattice), sub.ambient.rank)


class GeneratorPresentation:
    """Normalization of a direct product of cyclic factors to invariant form.

    Given the orders of independent generators g_1, ..., g_r (the group is
    the internal direct product of the <g_i>), exposes the invariant-factor
    group and the exact change of coordinates both ways.
    """

    def __init__(self, raw_orders):
        self.raw_orders = [int(o) for o in raw_orders]
        diag, v = snf_with_transform(_diagonal(self.raw_orders),
                                     len(self.raw_orders))
        vinv = unimodular_inverse(v)
        kept = [i for i, d in enumerate(diag) if d > 1]
        self.group = FiniteAbelianGroup(tuple(diag[i] for i in kept))
        # raw -> canonical by V's kept columns, back by V^-1's kept rows
        self._columns = [([row[j] for row in v], diag[j]) for j in kept]
        self._rows = [([vinv[j][i] for j in kept], o)
                      for i, o in enumerate(self.raw_orders)]

    def to_canonical(self, raw_vec):
        """Exponent vector on raw generators -> canonical GroupElement."""
        return tuple(sum(map(operator.mul, raw_vec, col)) % d
                     for col, d in self._columns)

    def from_canonical(self, vec):
        """Canonical GroupElement -> exponent vector on raw generators."""
        vec = self.group.reduce(vec)
        return tuple(sum(map(operator.mul, vec, row)) % o
                     for row, o in self._rows)


def divisors(n):
    """Sorted list of positive divisors."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p ** e for d in out for e in range(a + 1)]
    return sorted(out)


def greedy_basis(group, candidates, power, mul):
    """Independent generators of `group`: per round, the first of
    `candidates()` ((element, vector) pairs) of order E modulo the span of
    the earlier picks, E the quotient's exponent, minus (v_i / E) times
    pick i, v the coordinates of E times it (each v_i divisible by E, by
    maximality).  Returns the picks, their orders, and the matrix from
    `group` to coordinates on them."""
    picks, orders, vecs = [], [], []
    while prod(orders, start=1) < group.order:
        span = subgroup_from_generators(group, vecs)
        top = quotient_structure(span).exponent
        element, vec = next((x, v) for x, v in candidates() if not any(
            span.contains(group.scale(v, top // l)) for l, _ in factorize(top)))
        coords = _span_coordinates(group, vecs, orders, group.scale(vec, top))
        if any(c % top for c in coords):
            raise ValueError("generator extraction lost independence")
        for w, g, c, o in zip(vecs, picks, coords, orders):
            vec = group.add(vec, group.scale(w, -(c // top) % o))
            element = mul(element, power(g, -(c // top) % o))
        picks.append(element)
        orders.append(top)
        vecs.append(vec)
    return picks, orders, [_span_coordinates(group, vecs, orders, e)
                           for e in _diagonal([1] * group.rank)]


def _span_coordinates(group, vecs, orders, y):
    """Coordinates of y on the independent `vecs`: clearing y's left half
    with the HNF of [v_i | e_i] and [d_j e_j | 0], pivot i in row i < k,
    leaves minus them on the right."""
    k, t = group.rank, len(vecs)
    h = hnf([list(v) + e for v, e in zip(vecs, _diagonal([1] * t))]
            + [r + [0] * t for r in _diagonal(group.invariant_factors)],
            k + t)
    x = list(y) + [0] * t
    for i in range(k):
        x = [a - x[i] // h[i][i] * b for a, b in zip(x, h[i])]
    if any(x[:k]):
        raise ValueError("vector outside the span")
    return [-c % o for c, o in zip(x[k:], orders)]


class CyclicLog:
    """Logs to a base g of order n under `power` and `mul`, by Pohlig and
    Hellman (IEEE Trans. Inf. Theory 24, 1978): modulo each l^a || n in
    base-l^c digits, each one lookup in a table of at most `TABLE_LIMIT`
    powers, or for l above it by baby-step giant-step."""

    TABLE_LIMIT = 64

    def __init__(self, g, n, power, mul):
        self.order, self._power, self._mul = n, power, mul
        self._parts, self._tables = [], {}
        for l, a in factorize(n):
            la, cof = l ** a, n // l ** a
            width = max(c for c in range(1, a + 1)
                        if c == 1 or l ** c <= self.TABLE_LIMIT)
            self._parts.append((l, a, la, cof, cof * pow(cof, -1, la) % n,
                                power(g, cof), width))

    def __call__(self, h):
        """The x in [0, n) with g^x = h."""
        x = 0
        for l, a, la, cof, crt, gl, width in self._parts:
            hl, xl = self._power(h, cof), 0
            for j in range(0, a, width):
                c = min(width, a - j)
                # (gl^-xl hl)^e = gamma^digit, gamma of order l^c
                y = self._mul(self._power(gl, la - xl), hl) if xl else hl
                e = l ** (a - j - c)
                xl += self._digit(l, c, la, gl,
                                  y if e == 1 else self._power(y, e)) * l ** j
            x += xl * crt
        return x % self.order

    def _digit(self, l, c, la, gl, y):
        """The d < l^c with gamma^d = y, gamma = gl^(la / l^c)."""
        order = l ** c
        if (l, c) not in self._tables:
            gamma = self._power(gl, la // order)
            m = order if order <= self.TABLE_LIMIT else isqrt(order - 1) + 1
            baby, z = {}, self._power(gamma, 0)
            for j in range(m):
                baby.setdefault(z, j)
                z = self._mul(z, gamma)
            self._tables[l, c] = m, baby, self._power(gamma, order - m % order)
        m, baby, giant = self._tables[l, c]
        for i in range(0, order, m):
            if y in baby:
                return i + baby[y]
            y = self._mul(y, giant)
        raise ValueError("element outside the cyclic group")


# ---------------------------------------------------------------------------
# Unit groups (Z/nZ)*

def factorize(n):
    """Prime factorization by trial division, as a list of (p, a) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p, a):
    """Smallest primitive root modulo p^a for odd p."""
    m = p ** a
    phi = (p - 1) * p ** (a - 1)
    fac = [q for q, _ in factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // q, m) != 1 for q in fac):
            return g
        g += 1


def _prime_power_generators(p, a):
    """Generators (with orders) of (Z/p^a Z)*."""
    if p == 2:
        if a == 1:
            return []
        if a == 2:
            return [(3, 2)]
        return [(2 ** a - 1, 2), (5, 2 ** (a - 2))]
    return [(_primitive_root(p, a), (p - 1) * p ** (a - 1))]


class CRTUnitGroup:
    """What (Z/nZ)* and (F_q[T]/<N>)* share: the units modulo n, built
    by CRT from generators of the units modulo each prime power of n.

    A subclass sets `modulus`, `one` and `idempotents` (per prime: 1
    modulo its power in n, 0 modulo the rest), then calls `_present` with
    each prime's generators and their orders.  Lifted by the idempotents,
    these raw generators make the group their internal direct product,
    which `GeneratorPresentation` brings to invariant form.  Residues
    need only +, -, * and three-argument `pow` modulo n.
    """

    def _present(self, parts):
        """`parts`: (prime, ((generator, order), ...)) per prime of n."""
        raw_gens, raw_orders, raw_keys = [], [], []
        for key, gens in parts:
            for g, order in gens:
                raw_gens.append(self.lift(key, g))
                raw_orders.append(order)
                raw_keys.append(key)
        self._raw_gens, self._raw_keys = raw_gens, raw_keys
        self._presentation = GeneratorPresentation(raw_orders)
        self.group = self._presentation.group

    def one_units(self, key, b):
        """dlog vectors generating the units = 1 modulo key^b at the prime
        `key` and = 1 at the others, with no residue and no dlog: its raw
        vectors for level b (all its raw generators at b = 0), padded by
        zeros at the other primes' raw coordinates, before and after."""
        at = [i for i, k in enumerate(self._raw_keys) if k == key]
        local = self._level_raw(key, b) if b else _diagonal([1] * len(at))
        return [self._presentation.to_canonical([0] * at[0] + list(r) + [0] * (
            len(self._raw_keys) - 1 - at[-1])) for r in local]

    def component_part(self, key, vec):
        """dlog of eps_key(exp(vec)), 1 off the prime `key`, without a
        dlog: the raw generators are CRT lifts, so it is `vec` with every
        raw coordinate outside `key` set to 0."""
        raw = self._presentation.from_canonical(vec)
        return self._presentation.to_canonical(
            [e if k == key else 0 for e, k in zip(raw, self._raw_keys)])

    def lift(self, key, u):
        """Residue mod n equal to u modulo the power of the prime `key`
        and to 1 modulo the rest of n."""
        return (self.one + (u - self.one) * self.idempotents[key]) \
            % self.modulus

    @property
    def order(self):
        return self.group.order

    @property
    def generators(self):
        """Residues mapping to the standard basis of the invariant factors."""
        return tuple(map(self.exp, _diagonal([1] * self.group.rank)))

    def exp(self, vec):
        """Inverse of dlog: unit with the given exponent vector."""
        out = self.one
        raw = self._presentation.from_canonical(vec)
        for g, e in zip(self._raw_gens, raw):
            out = out * pow(g, e, self.modulus) % self.modulus
        return out


class UnitGroup(CRTUnitGroup):
    """(Z/nZ)* with an invariant-factor presentation and exact dlog/exp:
    a `CyclicLog` on the primitive root of each odd p^a, and at 2^a the
    sign, then a `CyclicLog` on 5 (a unit mod 2^a is +-5^k)."""

    def __init__(self, n):
        if not 2 <= n <= UNIT_GROUP_BOUND:
            raise BoundExceededError(f"modulus {n} outside [2, {UNIT_GROUP_BOUND}]")
        self.modulus, self.one = n, 1
        self.factorization = factorize(n)
        self.idempotents = {}  # by prime: 1 mod p^a, 0 mod n / p^a
        for p, a in self.factorization:
            cof = n // p ** a
            self.idempotents[p] = cof * pow(cof, -1, p ** a) % n
        parts = [(p, _prime_power_generators(p, a))
                 for p, a in self.factorization]
        self._present(parts)
        # per prime power: a CyclicLog on its primitive root, or on 5
        self._logs = [(p ** a, CyclicLog(
            *gens[-1], lambda x, e, q=p ** a: pow(x, e, q),
            lambda x, y, q=p ** a: x * y % q) if p > 2 or a >= 3 else None)
            for (p, a), (_, gens) in zip(self.factorization, parts)]

    def residues(self):
        n = self.modulus
        return (u for u in range(1, n) if gcd(u, n) == 1)

    def _level_raw(self, p, b):
        """U^(b), b >= 1, of (Z/p^a)* on its raw generators: the power
        (p - 1) p^(b - 1) of the primitive root for odd p; at 2^a all of
        it for b = 1, then 5^(2^(b - 2)); nothing from b = a on."""
        if p == 2 and b == 1:
            return _diagonal([1] * self._raw_keys.count(2))
        if b >= dict(self.factorization)[p]:
            return []
        return [[0, 2 ** (b - 2)] if p == 2 else [(p - 1) * p ** (b - 1)]]

    def dlog(self, u):
        """Exponent vector of the unit u on the canonical generators."""
        n = self.modulus
        u %= n
        if gcd(u, n) != 1:
            raise ValueError(f"{u} is not a unit modulo {n}")
        raw = []
        for q, log in self._logs:
            v = u % q
            if q % 2 == 0 and q > 2:  # the sign, on -1 = q - 1
                raw.append(v % 4 // 2)
                v = v if v % 4 == 1 else q - v
            if log is not None:
                raw.append(log(v))
        return self._presentation.to_canonical(raw)


@lru_cache(maxsize=512)
def unit_group(n):
    """Cached constructor for (Z/nZ)* with structure and discrete logs."""
    return UnitGroup(n)

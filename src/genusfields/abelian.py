"""Finite abelian groups presented by invariant factors, and their subgroups.

A group with invariant factors (d_1, ..., d_k), d_1 | d_2 | ... | d_k, is
Z/d_1 x ... x Z/d_k; elements are integer tuples reduced componentwise.
A subgroup is stored as the Hermite normal form of the integer lattice
generated by its generators together with the relation lattice
diag(d_1, ..., d_k).  The HNF is unique for a given lattice, so two
Subgroup values compare equal exactly when the subgroups coincide.  Every
subgroup HNF runs modulo one relation per column, with no relation row
stacked (Domich, Kannan and Trotter 1987; Cohen, GTM 138, Alg. 2.4.8).
The join of any number of subgroups is one HNF of all their rows.

The structure of a finite quotient (the group modulo a subgroup, a
subgroup itself, a product of cyclic groups) is read one prime at a time:
for l^v || e, e the ambient exponent, its l-part is the Smith normal form
over the local ring Z/l^v, where an entry of least l-valuation divides
its whole block, so each pivot takes one elimination pass.  The Euclid
SNF over Z stays for `snf_with_transform`, whose column transform V fixes
the canonical generators and so every printed generator and character
vector, and for `smith_normal_form`, the reference the tests compare
with.

Also provides the unit groups (Z/nZ)* with exact discrete logarithms,
which is the finite-level model used everywhere a p-adic unit group
appears in the degree formulas, and their CRT construction
(`CRTUnitGroup`), which (F_q[T]/<N>)* in `fqpoly` shares.  A unit group
is the ambient of the characters modulo n, one object per modulus
(`unit_group`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, prod

from .errors import AmbientMismatchError, BoundExceededError, DimensionError

ORDER_BOUND = 2 ** 63
UNIT_GROUP_BOUND = 10 ** 6


# ---------------------------------------------------------------------------
# Integer matrix normal forms

def hnf(rows, ncols, moduli):
    """Canonical row Hermite normal form of the lattice of `rows` and the
    d_j e_j, for `moduli` (d_j).

    Returns a tuple of nonzero rows, echelon from the left: each pivot is
    positive and the entries above a pivot are reduced into [0, pivot).

    Worked modulo the d_j (Domich, Kannan and Trotter, Math. Oper. Res.
    12, 1987; Cohen, GTM 138, Alg. 2.4.8, one modulus per column): per
    column j, the rows nonzero mod d_j fold into one pivot by extended
    gcd, g' becomes gcd(g', d_j), d_j / gcd times the old pivot, entry j
    zeroed, rejoins the rows, each reduced mod the moduli; last, pivots
    reduce the entries above.
    """
    work = [list(r) for r in rows]
    out = []
    for j, d in enumerate(moduli):
        top, rest = None, []
        for r in work:
            b = r[j] = r[j] % d
            if not b:
                rest.append(r)
                continue
            if top is None:
                top, a = r, b
                continue
            if not a % b:   # the cheap paths: b | a, then a | b
                top, r, a, b = r, top, b, a
            if not b % a:
                q = b // a
                r = [(x - q * y) % c for x, y, c in zip(r, top, moduli)]
            else:
                g = gcd(a, b)
                u = pow(a // g, -1, b // g)
                v, a, b = (g - u * a) // b, a // g, b // g
                top, r, a = ([u * y + v * x for x, y in zip(r, top)],
                             [(a * x - b * y) % c
                              for x, y, c in zip(r, top, moduli)], g)
            if any(r):
                rest.append(r)
        if top is None:
            top = [d if c == j else 0 for c in range(ncols)]
        else:
            g = gcd(a, d)
            u = pow(a // g, -1, d // g)
            if j < ncols - 1:
                push = [(d // g) * x % c for x, c in zip(top, moduli)]
                if any(push):
                    rest.append(push)
            if u != 1:  # u a = g mod d_j
                top = [u * x % c for x, c in zip(top, moduli)]
        out.append(top)
        work = rest
    for j, piv in enumerate(out):
        for i in range(j):
            q = out[i][j] // piv[j]
            if q:
                out[i] = [x - q * y for x, y in zip(out[i], piv)]
    return tuple(map(tuple, out))


def hnf_with_transform(rows, ncols):
    """HNF together with a unimodular U such that U * M = H (zero rows kept).

    Returns (hrows, urows): the HNF of the augmented matrix [M | I] split
    after column `ncols`, so hrows keeps one row per input row (the zero
    ones last) and urows is the transform over the original row list.
    [M | I] has no relation diagonal and is not of full rank, so this is
    the one HNF by Euclid over Z with no modulus.
    """
    m = [list(r) + e for r, e in zip(rows, _diagonal([1] * len(rows)))]
    row = 0
    for col in range(ncols + len(m)):
        while True:
            # the smallest entry below `row` reduces the others
            nz = sorted((r for r in m[row:] if r[col]),
                        key=lambda r: abs(r[col]))
            if len(nz) <= 1:
                break
            for r in nz[1:]:
                q = r[col] // nz[0][col]
                r[:] = [a - q * b for a, b in zip(r, nz[0])]
        if nz:
            i0 = next(i for i in range(row, len(m)) if m[i] is nz[0])
            m[row], m[i0] = m[i0], m[row]
            piv = m[row] = [-a for a in nz[0]] if nz[0][col] < 0 else nz[0]
            for r in m[:row]:
                q = r[col] // piv[col]
                r[:] = [a - q * b for a, b in zip(r, piv)]
            row += 1
    return [tuple(r[:ncols]) for r in m], [tuple(r[ncols:]) for r in m]


def smith_normal_form(rows, ncols):
    """Diagonal entries of the Smith normal form (nonzero ones only)."""
    return _smith(rows, ncols, [], [])[0]


def snf_with_transform(a_rows, ncols):
    """Smith normal form with the column transform: returns (diag, V, W),
    W the transpose of V^-1.

    diag holds the nonzero invariant factors d_1 | d_2 | ..., and U*A*V = D
    for some unimodular U that is not built.
    """
    return _smith(a_rows, ncols, _diagonal([1] * ncols),
                  _diagonal([1] * ncols))


def _smith(a_rows, ncols, v, w):
    """The body of both SNFs: every column operation is applied to the
    rows of `v` too, and its inverse transposed to those of `w`, so w
    stays the transpose of v^-1; `smith_normal_form` leaves both empty."""
    m = [list(r) for r in a_rows]
    nrows = len(m)

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
            for r in itertools.chain(m, v, w):
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
                    for r in w:
                        r[top] += q * r[j]
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
    return [abs(m[i][i]) for i in range(top)], v, w


def _diagonal(entries):
    """The square integer matrix with the given diagonal, as row lists."""
    return [[d if i == j else 0 for j in range(len(entries))]
            for i, d in enumerate(entries)]


def _invariant_group(rows, exponent_factors):
    """FiniteAbelianGroup Z^k / <rows>, for `rows` a k x k upper
    triangular matrix with a positive diagonal whose lattice contains
    e Z^k, `exponent_factors` the factorization of e.

    Prime by prime: for l^v || e, the l-part is Z^k / <rows> over the
    local ring Z/q, q = l^min(v, s) with l^s || det, the order's l-part
    (`_primary_orders`), and the invariant factors multiply the l-parts'
    sorted orders, largest with largest (Cohen, GTM 138, section 2.4).
    """
    det = prod(map(operator.getitem, rows, itertools.count()))
    parts = []
    for l, v in exponent_factors:
        s = 0
        while not det % l:
            det //= l
            s += 1
        if s:   # of exponent l, the l-part is (Z/l)^s
            parts.append([l] * s if min(v, s) == 1 else sorted(
                _primary_orders(rows, l, l ** min(v, s))))
    width = max(map(len, parts), default=0)
    return FiniteAbelianGroup(tuple(map(prod, zip(*(
        [1] * (width - len(p)) + p for p in parts)))))


def _primary_orders(rows, l, q):
    """Orders l^a > 1 of the cyclic factors of Z^k / <rows> over Z/q,
    q = l^v, `rows` upper triangular: its Smith normal form over Z/q.

    First each row whose diagonal entry is a unit clears its column in the
    rows above and is dropped with its column, which keeps the rest upper
    triangular; if that rest is diagonal, its entries give the orders.
    Else an entry of least l-valuation a, l^a the gcd of the block with
    q, divides the whole block, so one elimination pass by it clears its
    column; its row, which column operations would clear, is dropped;
    each column left with no pivot is one Z/q.
    """
    m, cols = [], []
    for i, r in enumerate(rows):
        if not r[i] % l:
            m.append([x % q for x in r])
            cols.append(i)
        elif m:
            inv = pow(r[i], -1, q)
            for above in m:
                c = above[i] * inv % q
                if c:
                    above[:] = [(x - c * y) % q for x, y in zip(above, r)]
    m = [[r[j] for j in cols] for r in m]
    if not any(x for i, r in enumerate(m) for x in r[i + 1:]):
        return [gcd(r[i], q) for i, r in enumerate(m)]
    ncols = len(cols)
    m = [r for r in m if any(r)]
    out = []
    while m:
        g = gcd(q, *itertools.chain.from_iterable(m))
        for i, r in enumerate(m):
            j = next((j for j, x in enumerate(r) if x % (g * l)), None)
            if j is not None:
                break
        piv = m.pop(i)
        inv = pow(piv[j] // g, -1, q)
        if g > 1:
            out.append(g)
        rest = []
        for r in m:
            c = r[j] // g * inv % q
            if c:
                r = [(x - c * y) % q for x, y in zip(r, piv)]
            del r[j]
            if any(r):
                rest.append(r)
        m = rest
        ncols -= 1
    return out + [q] * ncols


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

    @cached_property
    def order(self):
        return prod(self.invariant_factors, start=1)

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @cached_property
    def exponent_factors(self):
        """The factorization of the exponent, as (prime, power) pairs."""
        return factorize(self.exponent)

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


def group_from_cyclic_orders(orders):
    """Invariant-factor group isomorphic to the product of C_orders[i]."""
    orders = [o for o in orders if o > 1]
    return _invariant_group(_diagonal(orders), factorize(lcm(*orders)))


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

    def generator_rows(self):
        """The lattice rows nonzero in the group, which generate it; the
        others are relations d_j e_j."""
        d = self.ambient.invariant_factors
        return [r for r in self.lattice if any(c % m for c, m in zip(r, d))]

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

    def __str__(self):
        return f"subgroup of order {self.order} in {self.ambient}"


def subgroup_from_generators(ambient, gens):
    """Smallest subgroup of `ambient` containing every generator."""
    k = ambient.rank
    rows = list(gens)
    for g in rows:
        if len(g) != k:
            raise DimensionError(
                f"generator of length {len(g)} in a rank-{k} group")
    return _from_lattice(ambient, hnf(rows, k, ambient.invariant_factors))


def _from_lattice(ambient, lattice):
    """The Subgroup with a given canonical full-rank HNF lattice."""
    det = prod(map(operator.getitem, lattice, itertools.count()))
    return Subgroup(ambient, lattice, ambient.order // det)


def trivial_subgroup(ambient):
    return subgroup_from_generators(ambient, [])


def full_subgroup(ambient):
    return subgroup_from_generators(ambient, _diagonal([1] * ambient.rank))


def _check_same_ambient(a, b):
    if a.ambient != b.ambient:
        raise AmbientMismatchError("subgroups live in different ambient groups")


def product(first, *rest):
    """Join (internal product) of subgroups of the same ambient group: one
    HNF of all their lattice rows, none for a single subgroup."""
    if not rest:
        return first
    for b in rest:
        _check_same_ambient(first, b)
    g = first.ambient
    return _from_lattice(g, hnf(
        [r for sub in (first, *rest) for r in sub.lattice], g.rank,
        g.invariant_factors))


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
    The block lattice holds (d_j e_j, 0) and (0, d_j e_j), so the HNF runs
    modulo (d, d).
    """
    _check_same_ambient(a, b)
    k, d = a.ambient.rank, a.ambient.invariant_factors
    h = hnf([r + r for r in a.lattice] + [r + (0,) * k for r in b.lattice],
            2 * k, d + d)
    return _from_lattice(a.ambient, tuple(r[k:] for r in h[k:]))


def pairing_kernel(sub, vecs):
    """The elements b of `sub` with <b, v> = 0 for every v in `vecs`.

    The same block method as `intersect`: one HNF of the rows
    [<r, v>_v | r] for the lattice rows r of sub, modulo e in each of the
    m = len(vecs) left columns and d on the right.  With those relations
    they span the pairs (phi(x) + e*z, x) with x in the lattice and phi(x)
    the pairings of x, so the zero-left rows span {0} x (the kernel).  The
    left half has rank m, and the kernel contains diag(d), so the last k
    rows are those, and their right halves are its canonical lattice.
    """
    g = sub.ambient
    m = len(vecs)
    rows = [[g.pairing(r, v) for v in vecs] + list(r) for r in sub.lattice]
    h = hnf(rows, m + g.rank, (g.exponent,) * m + g.invariant_factors)
    return _from_lattice(g, tuple(r[m:] for r in h[m:]))


def quotient_structure(sub):
    """Invariant factors of ambient/sub, prime by prime."""
    return _invariant_group(sub.lattice, sub.ambient.exponent_factors)


def divisors(n):
    """Sorted list of positive divisors."""
    out = [1]
    for p, a in factorize(n):
        out = [d * p ** e for d in out for e in range(a + 1)]
    return sorted(out)


def greedy_basis(group, elements, vector, power, mul):
    """Independent generators of `group`: per round, the first of
    `elements()` of order E modulo the span of the earlier picks, E the
    quotient's exponent, minus (v_i / E) times pick i, v the coordinates of
    E times it (each v_i divisible by E, by maximality).  `vector(x)`, x's
    vector in `group`, is taken at most once per x, and only for an x with
    no x^c = 1, c = E/l for a prime l | E: such an x cannot have order E.
    That c is kept, and x is skipped with no power in every later round
    whose E does not divide c.  Returns the picks, their orders, and the
    matrix from `group` to coordinates on them."""
    picks, orders, vecs = [], [], []
    vectors, killed, one = {}, {}, None  # x -> vector(x); x -> c, x^c = 1
    while prod(orders, start=1) < group.order:
        span = subgroup_from_generators(group, vecs)
        top = quotient_structure(span).exponent
        cofactors = [top // l for l, _ in factorize(top)]
        for element in elements():
            if element not in vectors:
                if killed.get(element, 0) % top:
                    continue
                if one is None:
                    one = power(element, 0)
                c = next((c for c in cofactors if power(element, c) == one),
                         None)
                if c is not None:
                    killed[element] = c
                    continue
                vectors[element] = vector(element)
            vec = vectors[element]
            if not any(span.contains(group.scale(vec, c)) for c in cofactors):
                break
        else:
            raise ValueError(f"no element of order {top} modulo the span")
        coords, = _span_coordinates(group, vecs, orders,
                                    group.scale(vec, top))
        if any(c % top for c in coords):
            raise ValueError("generator extraction lost independence")
        for w, g, c, o in zip(vecs, picks, coords, orders):
            vec = group.add(vec, group.scale(w, -(c // top) % o))
            element = mul(element, power(g, -(c // top) % o))
        picks.append(element)
        orders.append(top)
        vecs.append(vec)
    return picks, orders, _span_coordinates(group, vecs, orders,
                                            *_diagonal([1] * group.rank))


def _span_coordinates(group, vecs, orders, *ys):
    """Coordinates of each y on the independent `vecs`, one list per y:
    clearing y's left half with the HNF of the rows [v_i | e_i] modulo
    (d, orders) (v_i has order orders_i), pivot i in row i < k, leaves
    minus them on the right.  The HNF is formed once for all the ys."""
    k, t = group.rank, len(vecs)
    h = hnf([list(v) + e for v, e in zip(vecs, _diagonal([1] * t))], k + t,
            group.invariant_factors + tuple(orders))
    out = []
    for y in ys:
        x = list(y) + [0] * t
        for i in range(k):
            x = [a - x[i] // h[i][i] * b for a, b in zip(x, h[i])]
        if any(x[:k]):
            raise ValueError("vector outside the span")
        out.append([-c % o for c, o in zip(x[k:], orders)])
    return out


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


@dataclass(frozen=True)
class Component:
    """One prime-power block key^exponent of a modulus under CRT."""

    key: object          # the prime: an integer p or a monic irreducible
    exponent: int

    @property
    def modulus(self):
        return self.key ** self.exponent


class CRTUnitGroup:
    """What (Z/nZ)* and (F_q[T]/<N>)* share: the units modulo n, built
    by CRT from generators of the units modulo each prime power of n.
    It is the ambient of the characters modulo n (`characters`), one
    object per modulus, equal by kind and modulus.

    A subclass sets `kind`, `modulus`, `one`, `factorization` (its
    (prime, exponent) pairs) and `idempotents` (per prime: 1 modulo its
    power in n, 0 modulo the rest), then calls `_present` with each
    prime's generators and their orders.  Lifted by the idempotents,
    these raw generators make the group their internal direct product.
    The Euclid SNF of the diagonal of their orders brings it to invariant
    form (Cohen, GTM 138, section 2.4): V's kept columns take raw vectors
    to canonical ones, W = V^-T's kept rows take them back, and both over
    one prime's raw coordinates give R_p.  Residues need only +, -, * and
    three-argument `pow` modulo n.

    A subclass also gives the residues the oracle enumerates at each
    place (`reduction_kernel`, `infinity_residues`), which no closed form
    reads, and the unit group of one component (`component_ambient`),
    for the reference paths only.
    """

    def _present(self, parts):
        """`parts`: (prime, ((generator, order), ...)) per prime of n."""
        raw_gens, raw_orders, self._raw_keys = [], [], []
        for key, gens in parts:
            for g, order in gens:
                raw_gens.append(self.lift(key, g))
                raw_orders.append(order)
                self._raw_keys.append(key)
        diag, v, w = snf_with_transform(_diagonal(raw_orders),
                                        len(raw_orders))
        kept = [j for j, d in enumerate(diag) if d > 1]
        self.group = FiniteAbelianGroup(tuple(diag[j] for j in kept))
        self._columns = [([row[j] for row in v], diag[j]) for j in kept]
        self._rows = [(g, [row[j] for j in kept], o)
                      for g, row, o in zip(raw_gens, w, raw_orders)]
        self._component_matrices = {}

    def to_canonical(self, raw):
        """Exponent vector on the raw generators -> on the canonical ones."""
        return tuple(sum(map(operator.mul, raw, col)) % d
                     for col, d in self._columns)

    def one_units(self, key, b):
        """dlog vectors generating the units = 1 modulo key^b at the prime
        `key` and = 1 at the others, with no residue and no dlog: its raw
        vectors for level b (all its raw generators at b = 0), padded by
        zeros at the other primes' raw coordinates, before and after."""
        at = [i for i, k in enumerate(self._raw_keys) if k == key]
        local = self._level_raw(key, b) if b else _diagonal([1] * len(at))
        return [self.to_canonical([0] * at[0] + list(r) + [0] * (
            len(self._raw_keys) - 1 - at[-1])) for r in local]

    def conductor_exponent(self, key, vecs):
        """The exponent of the prime `key` in the conductor of the
        characters `vecs`: the least level b whose units U^(b) they all
        kill.  Each character is paired once with each raw generator C_t
        of the prime; a raw vector r of a level (`_level_raw`) then pairs
        to <v, to_canonical(r)> = sum_t r_t <v, C_t> mod e, with no
        canonical vector per level."""
        e, d = self.group.exponent, self.group.invariant_factors
        at = [t for t, k in enumerate(self._raw_keys) if k == key]
        values = []
        for v in vecs:
            w = [x * (e // di) for x, di in zip(v, d)]
            row = [sum(x * col[t] for x, (col, _) in zip(w, self._columns))
                   % e for t in at]
            if any(row):
                values.append(row)
        b = 0
        while values:   # U^(0) is every unit of the prime
            b += 1
            if not any(sum(map(operator.mul, r, row)) % e
                       for r in self._level_raw(key, b) for row in values):
                break
        return b

    def component_matrix(self, key):
        """R_p for the prime `key`: a character b restricted to its
        component and inflated back is b R_p.  With no dlog: the raw
        generators are CRT lifts, so M[j], the dlog of the component of
        g_j, is W's row j times V's columns over key's raw coordinates,
        and R_p[i][j] = M[j][i] d_j / d_i mod d_j, exact because that
        component's order divides d_j.  Cached per prime."""
        r = self._component_matrices.get(key)
        if r is None:
            d = list(enumerate(self.group.invariant_factors))
            at = [t for t, k in enumerate(self._raw_keys) if k == key]
            m = [[sum(self._rows[t][1][j] * col[t] for t in at) % di
                  for j, _ in d] for col, di in self._columns]
            if any(m[i][j] * dj % di for i, di in d for j, dj in d):
                raise RuntimeError(
                    "component value escaped the expected order")
            r = self._component_matrices[key] = tuple(
                tuple(m[i][j] * dj // di % dj for j, dj in d) for i, di in d)
        return r

    def lift(self, key, u):
        """Residue mod n equal to u modulo the power of the prime `key`
        and to 1 modulo the rest of n."""
        return (self.one + (u - self.one) * self.idempotents[key]) \
            % self.modulus

    def project(self, component, u):
        return u % component.modulus

    def components(self):
        return tuple(Component(key, a) for key, a in self.factorization)

    @cached_property
    def infinity(self):
        """The units at infinity, once per modulus: the dlog vectors of
        generators of their image (`infinity_logs`, one per kind) and the
        order of the group they span."""
        vecs = self.infinity_logs()
        return vecs, subgroup_from_generators(self.group, vecs).order

    def __eq__(self, other):
        return type(other) is type(self) and self.modulus == other.modulus

    def __hash__(self):
        return hash((type(self).__name__, self.modulus))

    def __repr__(self):
        return f"{type(self).__name__}({self.modulus})"

    @property
    def order(self):
        return self.group.order

    @cached_property
    def generators(self):
        """Residues mapping to the standard basis of the invariant factors."""
        return tuple(map(self.exp, _diagonal([1] * self.group.rank)))

    def exp(self, vec):
        """Inverse of dlog: unit with the given exponent vector."""
        vec, out = self.group.reduce(vec), self.one
        for g, row, o in self._rows:
            out = out * pow(g, sum(map(operator.mul, vec, row)) % o,
                            self.modulus) % self.modulus
        return out


class UnitGroup(CRTUnitGroup):
    """(Z/nZ)* with an invariant-factor presentation and exact dlog/exp:
    a `CyclicLog` on the primitive root of each odd p^a, and at 2^a the
    sign, then a `CyclicLog` on 5 (a unit mod 2^a is +-5^k), each built
    on the first dlog."""

    kind = "number"

    def __init__(self, n):
        if not 2 <= n <= UNIT_GROUP_BOUND:
            raise BoundExceededError(f"modulus {n} outside [2, {UNIT_GROUP_BOUND}]")
        self.modulus, self.one = n, 1
        self.factorization = factorize(n)
        self.idempotents = {}  # by prime: 1 mod p^a, 0 mod n / p^a
        for p, a in self.factorization:
            cof = n // p ** a
            self.idempotents[p] = cof * pow(cof, -1, p ** a) % n
        self._parts = [(p, _prime_power_generators(p, a))
                       for p, a in self.factorization]
        self._present(self._parts)

    @cached_property
    def _logs(self):
        """Per prime power: a CyclicLog on its primitive root, or on 5."""
        return [(p ** a, CyclicLog(
            *gens[-1], lambda x, e, q=p ** a: pow(x, e, q),
            lambda x, y, q=p ** a: x * y % q) if p > 2 or a >= 3 else None)
            for (p, a), (_, gens) in zip(self.factorization, self._parts)]

    @cached_property
    def minus_one_log(self):
        """dlog of -1 with no dlog: phi(p^a)/2 on each odd primitive
        root; at 2^a (a >= 2) the sign 1, and 0 on 5."""
        return self.to_canonical([
            e for p, a in self.factorization for e in (
                ((p - 1) * p ** (a - 1) // 2,) if p > 2 else (1, 0)[:a - 1])])

    def residues(self):
        n = self.modulus
        return (u for u in range(1, n) if gcd(u, n) == 1)

    def infinity_logs(self):
        """The image of the units at the infinite prime is generated by
        -1, whose class is complex conjugation; its dlog is read off the
        presentation."""
        return (self.minus_one_log,)

    def component_ambient(self, component):
        return unit_group(component.modulus)

    def reduction_kernel(self, m):
        """Units congruent to 1 modulo the divisor m."""
        return [u for u in self.residues() if u % m == 1 % m]

    def infinity_residues(self):
        """The unit at infinity other than 1, as a residue: n - 1."""
        return [self.modulus - 1]

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
        return self.to_canonical(raw)


@lru_cache(maxsize=512)
def unit_group(n):
    """Cached constructor for (Z/nZ)* with structure and discrete logs."""
    return UnitGroup(n)

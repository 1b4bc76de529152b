"""Direct constructions the tests check the package against.

No report path uses these: each one recomputes, the plain way, a value
that reached code must agree with.
"""

from functools import cached_property
from math import prod

from genusfields import abelian, characters, fqpoly


def trivial_group(ambient):
    """The character group holding only the trivial character."""
    return characters.character_group(ambient, [])


def is_even(chi):
    """Whether chi(-1) = 1; integer moduli only."""
    minus = chi.ambient.minus_one_log
    return not chi.ambient.group.pairing(chi.exponents, minus)


def conductor_exponents(x):
    """`characters.conductor_exponents` by canonical vectors: per prime,
    the least level b whose 1-units `one_units(key, b)` every generator of
    X kills, each unit's dlog vector paired with each generator."""
    amb = x.ambient
    gens = [chi.exponents for chi in x.generators()]
    out = {}
    for component in amb.components():
        b = 0
        while any(amb.group.pairing(vec, v)
                  for v in amb.one_units(component.key, b)
                  for vec in gens):
            b += 1
        out[component.key] = b
    return out


def kernel_elements(x):
    """The unit residues on which every character of `x` is trivial."""
    gens = x.generators()
    return [u for u in x.ambient.residues()
            if all(chi.value_exponent(u) == 0 for chi in gens)]


def poly_gcd(a, b):
    """Monic greatest common divisor in F_q[T]."""
    return fqpoly.from_packed(a.field, a.field.gcd(fqpoly.packed(a),
                                                   fqpoly.packed(b)))


def code(f):
    """The integer sum c_i q^i of the coefficients c_i of f."""
    out = 0
    for c in reversed(f.coeffs):
        out = out * f.field.q + c
    return out


def poly_from_code(fld, code):
    """The polynomial whose coefficients are the base-q digits of code."""
    cs = []
    while code:
        code, c = divmod(code, fld.q)
        cs.append(c)
    return fqpoly.poly(fld, cs)


def _digits(fld, a):
    return [a // fld.p ** j % fld.p for j in range(fld.s)]


def _element(fld, ds):
    return sum(d % fld.p * fld.p ** j for j, d in enumerate(ds))


def school_field_mul(fld, a, b):
    """F_q product from base-p digit vectors, reduced by the field
    modulus one top digit at a time."""
    p, s = fld.p, fld.s
    out = [0] * (2 * s - 1)
    for i, x in enumerate(_digits(fld, a)):
        for j, y in enumerate(_digits(fld, b)):
            out[i + j] += x * y
    for top in range(2 * s - 2, s - 1, -1):
        c = out[top] % p
        for j, m in enumerate(fld.modulus):
            out[top - s + j] -= c * m
    return _element(fld, out[:s])


def school_field_add(fld, a, b):
    return _element(fld, [x + y for x, y in
                          zip(_digits(fld, a), _digits(fld, b))])


def school_field_neg(fld, a):
    return _element(fld, [-x for x in _digits(fld, a)])


def poly_value(f, x):
    """f(x) for a field element x, by Horner's rule."""
    out = 0
    for c in reversed(f.coeffs):
        out = school_field_add(f.field, school_field_mul(f.field, out, x), c)
    return out


def carlitz_value(op, x):
    """The additive polynomial `op` at a polynomial argument x: the sum
    of a_i x^(q^i)."""
    out = fqpoly.FqPoly(op.field)
    power = x
    for i, a in enumerate(op.coeffs):
        if i:
            power = power ** op.field.q
        if not a.is_zero:
            out = out + a * power
    return out


def scan_basis(group, elements, vector, power, mul):
    """`abelian.greedy_basis` by the plain scan: every round reads
    `elements()` from the first again and takes the vector of each element
    it reads, whatever its order, and the change of coordinates clears one
    unit vector per HNF."""
    picks, orders, vecs = [], [], []
    while prod(orders, start=1) < group.order:
        span = abelian.subgroup_from_generators(group, vecs)
        top = abelian.quotient_structure(span).exponent
        element, vec = next((x, v) for x, v in (
            (x, vector(x)) for x in elements()) if not any(
            span.contains(group.scale(v, top // l))
            for l, _ in abelian.factorize(top)))
        coords, = abelian._span_coordinates(group, vecs, orders,
                                            group.scale(vec, top))
        assert not any(c % top for c in coords)
        for w, g, c, o in zip(vecs, picks, coords, orders):
            vec = group.add(vec, group.scale(w, -(c // top) % o))
            element = mul(element, power(g, -(c // top) % o))
        picks.append(element)
        orders.append(top)
        vecs.append(vec)
    return picks, orders, [
        abelian._span_coordinates(group, vecs, orders, e)[0]
        for e in abelian._diagonal([1] * group.rank)]


class ScanUnits(fqpoly._PrimePowerUnits):
    """(F_q[T]/P^a)* with its picks made by `scan_basis`, and the tame
    coordinate of x the log of x^wild in (F_q[T]/P^a)*, to the base
    root^(wild (wild^-1 mod cyc)), times wild^-1 mod cyc."""

    def __init__(self, p_poly, a):
        self._wild = (p_poly.field.q ** p_poly.degree) ** (a - 1)
        fast, abelian.greedy_basis = abelian.greedy_basis, scan_basis
        try:
            super().__init__(p_poly, a)
        finally:
            abelian.greedy_basis = fast

    @cached_property
    def _wild_log(self):
        fld, pm, cyc, wild = (self.field, fqpoly.packed(self.prime),
                              self._cyc, self._wild)
        root = next(x for x in self._codes() if all(
            fld.pow(x, cyc // l, pm) != 1 for l, _ in abelian.factorize(cyc)))
        return abelian.CyclicLog(self._pow(root, wild * pow(wild, -1, cyc)),
                                 cyc, self._pow, self._mul)

    def _coordinates(self, x):
        cyc, wild = self._cyc, self._wild
        t = self._wild_log(self._pow(x, wild)) * pow(wild, -1, cyc) \
            if cyc > 1 else 0
        return [t] + [d * pow(cyc, -1, wild) for d in (
            self._digits(self._pow(x, cyc)) if self._layers else ())]

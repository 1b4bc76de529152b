"""Direct constructions the tests check the package against.

No report path uses these: each one recomputes, the plain way, a value
that reached code must agree with.
"""

from genusfields import characters, fqpoly


def trivial_group(ambient):
    """The character group holding only the trivial character."""
    return characters.character_group(ambient, [])


def is_even(chi):
    """Whether chi(-1) = 1; integer moduli only."""
    minus = chi.ambient.units.minus_one_log
    return not chi.ambient.group.pairing(chi.exponents, minus)


def kernel_elements(x):
    """The unit residues on which every character of `x` is trivial."""
    gens = x.generators()
    return [u for u in x.ambient.residues()
            if all(chi.value_exponent(u) == 0 for chi in gens)]


def poly_gcd(a, b):
    """Monic greatest common divisor in F_q[T]."""
    k = a.field.kernel
    return fqpoly.from_packed(a.field, k.gcd(fqpoly.packed(a),
                                             fqpoly.packed(b)))


def poly_value(f, x):
    """f(x) for a field element x, by Horner's rule."""
    k = f.field
    out = 0
    for c in reversed(f.coeffs):
        out = k.add(k.mul(out, x), c)
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

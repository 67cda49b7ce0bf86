"""Independent brute-force oracles for the form layer.

Deliberately a different representation from the kernel (sparse monomial
dicts {(i, j): coeff} for c * X^i Z^j) so agreement is meaningful.  The one
exception is ``naive_convolve``, the generic product loop on coefficient
lists, kept as the reference for the kernel's integer path.  The last
section holds views of the kernel's value types that only the tests use.
"""

from fractions import Fraction
from math import comb, factorial

from hyperinv import BinaryForm, Poly, RatFunc


def form_to_dict(form):
    d = form.degree
    return {(i, d - i): c for i, c in enumerate(form.coeffs) if c != 0}


def dict_to_coeffs(fd, degree):
    out = [Fraction(0)] * (degree + 1)
    for (i, j), c in fd.items():
        assert i + j == degree
        out[i] = out[i] + c
    return out


def d_add(fd, gd):
    out = dict(fd)
    for key, c in gd.items():
        out[key] = out.get(key, 0) + c
        if out[key] == 0:
            del out[key]
    return out


def d_scale(fd, s):
    return {k: c * s for k, c in fd.items() if c * s != 0}


def d_mul(fd, gd):
    out = {}
    for (i1, j1), c1 in fd.items():
        for (i2, j2), c2 in gd.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def d_diff_x(fd):
    return {(i - 1, j): i * c for (i, j), c in fd.items() if i}


def d_diff_z(fd):
    return {(i, j - 1): j * c for (i, j), c in fd.items() if j}


def d_partial(fd, kx, kz):
    for _ in range(kx):
        fd = d_diff_x(fd)
    for _ in range(kz):
        fd = d_diff_z(fd)
    return fd


def naive_transvect(fd, gd, n, m, r):
    """Direct evaluation of the r-transvection on monomial dicts."""
    pref = Fraction(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m))
    acc = {}
    for k in range(r + 1):
        term = d_mul(d_partial(fd, r - k, k), d_partial(gd, k, r - k))
        acc = d_add(acc, d_scale(term, Fraction((-1) ** k * comb(r, k))))
    return d_scale(acc, pref)


def naive_substitute(fd, a, b, c, d):
    """X -> aX + bZ, Z -> cX + dZ by direct binomial expansion."""
    out = {}
    for (i, j), coef in fd.items():
        for p in range(i + 1):
            for q in range(j + 1):
                key = (p + q, i - p + j - q)
                val = (coef * comb(i, p) * a**p * b**(i - p)
                       * comb(j, q) * c**q * d**(j - q))
                out[key] = out.get(key, 0) + val
    return {k: v for k, v in out.items() if v != 0}


def naive_convolve(a, b):
    """Product of two coefficient lists (lowest degree first), one scalar
    product at a time; a zero factor is skipped, so a slot no product
    reaches stays the int 0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


# -- test-only views of the kernel's value types --------------------------------

def binomial_coords(form):
    """The b_i with a_i = C(d, i) b_i of a binary form."""
    d = form.degree
    return tuple(c * Fraction(factorial(d - i) * factorial(i), factorial(d))
                 for i, c in enumerate(form.coeffs))


def map_coeffs(form, fn):
    """The binary form with fn applied to each coefficient."""
    return BinaryForm(form.degree, tuple(fn(c) for c in form.coeffs))


def ratfunc_from_scalar(q):
    """The constant rational function q."""
    return RatFunc(Poly((Fraction(q),)))


def cyclo_norm(a):
    """The product of the four conjugates of a in Q(i, sqrt3), a rational."""
    v = a * a.conj_i()                # lands in Q(sqrt3)
    return (v * v.conj_sqrt3()).as_rational()

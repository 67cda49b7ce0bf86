"""Curves whose reduced automorphism group is A4: the degree-12 rational map
fixed by A4, its fiber polynomials, branch-parameter curve models over
Q(i, sqrt3), and their rational-coefficient counterparts.

A model note: the published dodecic factor of the genus-7/10 rational models
fails the required invariant-vanishing profile; the corrected factor (derived
from the branch-parameter model by the quartic-root coordinate change and
verified to satisfy the profile identically) is the active one.  The same
goes for the genus-12 octic factor and is handled by the ``variant`` switch.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from .catalogue import SUPPORTED_GENERA as A4_GENERA
from .cyclic import group_row
from .errors import ConstraintError, DomainError, GenusError, PoleError
from .forms import BinaryForm
from .polynomials import Poly
from .scalars import Cyclo

#: active, adjudicated model variants vs. verbatim published ones
VARIANTS = ("adjudicated", "display")


def klein_phi(t):
    """The A4-fixed degree-12 rational map (X^12-33X^8-33X^4+1)/(X^2(X^4-1)^2).

    Exact on Fraction or Cyclo inputs; poles exactly at 0, +-1, +-i (and
    infinity, which a scalar argument cannot represent).
    """
    if isinstance(t, int):
        t = Fraction(t)
    t2 = t * t
    t4 = t2 * t2
    den = t2 * (t4 - 1) ** 2
    if den == 0:
        raise PoleError(f"klein_phi has a pole at t = {t}", at=t)
    num = t4 * t4 * t4 - 33 * t4 * t4 - 33 * t4 + 1
    return num / den


def g_coefficients(lam):
    """Univariate coefficients of X^12 - lam X^10 - 33 X^8 + 2 lam X^6 - 33 X^4 - lam X^2 + 1."""
    zero = lam * 0
    one = zero + 1
    return [one, zero, -lam, zero, -33 * one, zero, 2 * lam, zero,
            -33 * one, zero, -lam, zero, one][::-1]


def build_G(lam) -> BinaryForm:
    """The degree-12 fiber form with branch parameter lam (scalar or Poly)."""
    if isinstance(lam, int):
        lam = Fraction(lam)
    return BinaryForm.from_univariate(g_coefficients(lam), 12)


def g_has_distinct_roots(lam) -> bool:
    """Distinct-root condition for the fiber form: lam^2 != 108 and lam^2 != -108."""
    sq = lam * lam
    return sq != 108 and sq != -108


_ORBIT_MAPS = (
    ("t", lambda t, i: t),
    ("(t-i)/(t+i)", lambda t, i: (t - i) / (t + i)),
    ("-i(t+1)/(t-1)", lambda t, i: -i * (t + 1) / (t - 1)),
    ("(t+i)/(t-i)", lambda t, i: (t + i) / (t - i)),
    ("-i(t-1)/(t+1)", lambda t, i: -i * (t - 1) / (t + 1)),
    ("1/t", lambda t, i: 1 / t),
    ("-t", lambda t, i: -t),
    ("-(t-i)/(t+i)", lambda t, i: -((t - i) / (t + i))),
    ("i(t+1)/(t-1)", lambda t, i: i * (t + 1) / (t - 1)),
    ("-(t+i)/(t-i)", lambda t, i: -((t + i) / (t - i))),
    ("i(t-1)/(t+1)", lambda t, i: i * (t - 1) / (t + 1)),
    ("-1/t", lambda t, i: -1 / t),
)


def a4_orbit(t):
    """The 12-point A4 orbit of t in Q(i, sqrt3).

    Raises DomainError naming the offending transformation at poles, and on
    collisions (t at a fixed locus where orbit points collide).
    """
    if isinstance(t, (int, Fraction)):
        t = Cyclo(t)
    i = Cyclo.i()
    if t == 0:
        raise DomainError("orbit undefined: 1/t has a pole at t = 0")
    for bad, name in ((i, "(t-i)/(t+i)"), (-i, "(t+i)/(t-i)"),
                      (Cyclo(1), "-i(t+1)/(t-1)"), (Cyclo(-1), "-i(t-1)/(t+1)")):
        if t == bad:
            raise DomainError(f"orbit undefined: {name} has a pole at t = {t}")
    points = []
    for name, fn in _ORBIT_MAPS:
        points.append(fn(t, i))
    seen = {}
    for name_val, p in zip(_ORBIT_MAPS, points):
        key = p.coords
        if key in seen:
            raise DomainError(
                f"orbit points collide at t = {t}: {seen[key]} and {name_val[0]} agree")
        seen[key] = name_val[0]
    return tuple(points)


def a4_orbit_polynomial(t) -> BinaryForm:
    """Monic product over the orbit; equals build_G(klein_phi(t)) exactly."""
    points = a4_orbit(t)
    poly = Poly((Cyclo(1),))
    for alpha in points:
        poly = poly * Poly((-alpha, Cyclo(1)))
    return BinaryForm.from_univariate(list(poly.coeffs), 12)


# -- models over Q(i, sqrt3) -------------------------------------------------

def _product(*factors):
    """Coefficients of a product of univariate coefficient lists."""
    return reduce(mul, (BinaryForm(len(f) - 1, f) for f in factors)).coeffs


def _a4_row(g: int):
    """(group, row, delta) of ``cyclic.GROUP_ROWS`` for g mod 6; GenusError if
    the row does not admit g."""
    group = "Z2xA4" if g % 2 else "SL2(3)"
    try:
        row, delta = group_row(group, g)
    except ConstraintError as exc:
        raise GenusError(
            f"A4 reduced-automorphism classification excludes g = {g}: {exc}") from None
    return group, row, delta


def a4_curve_model(g: int, lambdas) -> BinaryForm:
    """Branch-parameter model: prod_i G_(lambda_i) times the row prefactor.

    Row selection follows g mod 6 (1, 3, 5 for the seven-involution group;
    0, 2, 4 for the binary tetrahedral one); the lambda-list length must
    equal the row dimension.
    """
    lambdas = [Fraction(l) if isinstance(l, int) else l for l in lambdas]
    group, row, delta = _a4_row(g)
    if len(lambdas) != delta:
        raise GenusError(
            f"genus {g} ({group}) has dimension {delta}; got {len(lambdas)} branch parameters")
    # the prefactor's own factors are multiplied first, which fixes the type of each zero slot
    poly = _product(_product(*row.prefactor), *map(g_coefficients, lambdas))
    return BinaryForm.from_univariate(poly, 2 * g + 2)


def a4_genus_branch(g: int):
    """(|V ∩ W|, group tag, g mod 6) for the A4 tower.

    One rule admits g: 2 <= g <= cyclic.MAX_GENUS, and the dimension delta
    of the row for g mod 6 is >= 0 and not excluded there (which leaves out
    g = 2, 3 and 6).  |V ∩ W| = 2g + 2 - 12 delta.
    """
    group, _, delta = _a4_row(g)
    return 2 * g + 2 - 12 * delta, group, g % 6


# -- rational models ---------------------------------------------------------

def _m_coefficients(mu):
    """mu^3 X^12 - mu^3 X^10 - 33 mu^2 X^8 + 2 mu^2 X^6 - 33 mu X^4 - mu X^2 + 1."""
    zero = mu * 0
    one = zero + 1
    return [one, zero, -mu, zero, -33 * mu, zero, 2 * mu * mu, zero,
            -33 * mu * mu, zero, -mu * mu * mu, zero, mu * mu * mu]


def _dodecic_factor(mu, variant: str):
    """The degree-12 factor of the genus-7/10 rational models.

    adjudicated: 27X^12 - 27muX^10 + 297X^8 - 18muX^6 - 99X^4 - 3muX^2 - 1
    display:     27X^12 - 27muX^10 + 297X^8 - 18X^6   - 99X^4 + 3muX^2 + 1
    """
    zero = mu * 0
    one = zero + 1
    if variant == "adjudicated":
        return [-one, zero, -3 * mu, zero, -99 * one, zero, -18 * mu, zero,
                297 * one, zero, -27 * mu, zero, 27 * one]
    return [one, zero, 3 * mu, zero, -99 * one, zero, -18 * one, zero,
            297 * one, zero, -27 * mu, zero, 27 * one]


def _octic_factor(mu, variant: str):
    """The genus-12 octic: mu^2 X^8 + 14 mu X^4 + 1 (display: mu^2 X^8 + mu X + 1)."""
    zero = mu * 0
    one = zero + 1
    if variant == "adjudicated":
        return [one, zero, zero, zero, 14 * mu, zero, zero, zero, mu * mu]
    return [one, mu, zero, zero, zero, zero, zero, zero, mu * mu]


GENUS4_CURVE = (0, -1, 0, 6, 0, 0, 0, 18, 0, 9)  # X(3X^4+1)(3X^4+6X^2-1)


def rational_model(g: int, mu=None, variant: str = "adjudicated") -> BinaryForm:
    """Rational-coefficient one-parameter model for each supported genus.

    mu may be a Fraction or a Poly generator for symbolic work; it is ignored
    for g = 4 (a zero-dimensional locus with a fixed representative curve).
    ``variant="display"`` reproduces the published factors verbatim for
    g in {7, 10, 12} (they fail the vanishing profiles; kept for the record).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if g == 4:
        return BinaryForm.from_univariate(list(GENUS4_CURVE), 10)
    if g not in A4_GENERA:
        raise GenusError(f"rational models exist for genera {A4_GENERA}, got {g}")
    if mu is None:
        raise ValueError(f"genus {g} model needs the parameter mu")
    if isinstance(mu, int):
        mu = Fraction(mu)
    M = _m_coefficients(mu)
    if g == 5:
        poly = M
    elif g == 7:
        poly = _product([-1, 0, 6, 0, 3], _dodecic_factor(mu, variant))
    elif g == 8:
        poly = _product([0, -1, 0, 0, 0, mu], M)
    elif g == 9:
        poly = _product(_octic_factor(mu, "adjudicated"), M)
    elif g == 10:
        poly = _product([0, 1], _product([1, 0, 0, 0, 3], [-1, 0, 6, 0, 3],
                                         _dodecic_factor(mu, variant)))
    else:  # g == 12
        poly = _product([0, -1, 0, 0, 0, mu], _octic_factor(mu, variant), M)
    return BinaryForm.from_univariate(poly, 2 * g + 2)

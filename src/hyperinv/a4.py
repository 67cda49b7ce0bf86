"""Curves whose reduced automorphism group is A4: the degree-12 rational map
fixed by A4, its fiber polynomials, branch-parameter curve models over
Q(i, sqrt3), and their rational-coefficient counterparts.

The models are tables multiplied out by one ``_product``: the branch-parameter
prefactors of ``cyclic.GROUP_ROWS`` and the rational factors of ``_FACTORS``,
listed per genus in ``_MODEL_ROWS``.  The twelve orbit maps are Möbius
matrices over Z[i]; their denominators' zeros are the orbit's poles.

The published dodecic (g = 7, 10) and octic (g = 12) factors fail the
invariant-vanishing profile; the active ones come from the branch-parameter
models by the quartic-root coordinate change and satisfy it identically.
``variant="display"`` swaps the published factors back in.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest
from operator import mul

from .catalogue import SUPPORTED_GENERA as A4_GENERA
from .cyclic import group_row
from .errors import ConstraintError, GenusError, InputError
from .forms import BinaryForm
from .polynomials import Poly, _exact, convolve

#: active, adjudicated model variants vs. verbatim published ones
VARIANTS = ("adjudicated", "display")


def _product(*factors):
    """Coefficients of a product of univariate coefficient lists."""
    return reduce(convolve, factors)


#: the Klein map N/D, the A4-fixed degree-12 rational map:
#: N = X^12 - 33X^8 - 33X^4 + 1 and D = X^2 (X^4 - 1)^2 = X^10 - 2X^6 + X^2
_KLEIN_NUM = Poly((1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1))
_KLEIN_DEN = Poly((0, 0, 1, 0, 0, 0, -2, 0, 0, 0, 1))


def g_coefficients(lam):
    """Univariate coefficients of the fiber polynomial N - lam D, lowest degree first."""
    return [n - lam * d for n, d in zip_longest(_KLEIN_NUM.coeffs, _KLEIN_DEN.coeffs,
                                                 fillvalue=0)]


def build_G(lam) -> BinaryForm:
    """The degree-12 fiber form with branch parameter lam (scalar or Poly)."""
    return BinaryForm.from_univariate(g_coefficients(_exact(lam)), 12)


def g_has_distinct_roots(lam) -> bool:
    """Distinct-root condition for the fiber form: lam^2 != 108 and lam^2 != -108."""
    sq = lam * lam
    return sq != 108 and sq != -108


#: the A4 orbit maps t -> (a t + b)/(c t + d), each a matrix (a, b, c, d)
#: over Z[i] whose entries are written (real part, imaginary part); the
#: tests' orbit oracle reads them, and an automorphism check of the models would
_ORBIT_MAPS = (
    ("t", ((1, 0), (0, 0), (0, 0), (1, 0))),
    ("(t-i)/(t+i)", ((1, 0), (0, -1), (1, 0), (0, 1))),
    ("-i(t+1)/(t-1)", ((0, -1), (0, -1), (1, 0), (-1, 0))),
    ("(t+i)/(t-i)", ((1, 0), (0, 1), (1, 0), (0, -1))),
    ("-i(t-1)/(t+1)", ((0, -1), (0, 1), (1, 0), (1, 0))),
    ("1/t", ((0, 0), (1, 0), (1, 0), (0, 0))),
    ("-t", ((-1, 0), (0, 0), (0, 0), (1, 0))),
    ("-(t-i)/(t+i)", ((-1, 0), (0, 1), (1, 0), (0, 1))),
    ("i(t+1)/(t-1)", ((0, 1), (0, 1), (1, 0), (-1, 0))),
    ("-(t+i)/(t-i)", ((-1, 0), (0, -1), (1, 0), (0, -1))),
    ("i(t-1)/(t+1)", ((0, 1), (0, -1), (1, 0), (1, 0))),
    ("-1/t", ((0, 0), (-1, 0), (1, 0), (0, 0))),
)


# -- models over Q(i, sqrt3) -------------------------------------------------

def a4_curve_model(g: int, lambdas) -> BinaryForm:
    """Branch-parameter model: prod_i G_(lambda_i) times the row prefactor.

    Row selection follows g mod 6 (1, 3, 5 for the seven-involution group;
    0, 2, 4 for the binary tetrahedral one); the lambda-list length must
    equal the row dimension.  One rule admits g: 2 <= g <= cyclic.MAX_GENUS,
    and the dimension delta of the row for g mod 6 is >= 0 and not excluded
    there (which leaves out g = 2, 3 and 6); any other g is a GenusError.
    """
    lambdas = [_exact(l) for l in lambdas]
    group = "Z2xA4" if g % 2 else "SL2(3)"
    try:
        row, delta = group_row(group, g)
    except ConstraintError as exc:
        raise GenusError(
            f"A4 reduced-automorphism classification excludes g = {g}: {exc}") from None
    if len(lambdas) != delta:
        raise GenusError(
            f"genus {g} ({group}) has dimension {delta}; got {len(lambdas)} branch parameters")
    poly = _product(*row.prefactor, *map(g_coefficients, lambdas))
    return BinaryForm.from_univariate(poly, 2 * g + 2)


# -- rational models ---------------------------------------------------------

#: factor name -> {power of X: slot}: an int slot stays that int, a pair (c, k)
#: is c mu^k in mu's ring (k = 0 too), and an unnamed power is mu's zero (0 without mu)
_FACTORS = {
    "X": {1: 1},
    "3X^4+1": {0: 1, 4: 3},
    "3X^4+6X^2-1": {0: -1, 2: 6, 4: 3},
    "X(muX^4-1)": {1: -1, 5: (1, 1)},
    # M = mu^3 X^12 - mu^3 X^10 - 33 mu^2 X^8 + 2 mu^2 X^6 - 33 mu X^4 - mu X^2 + 1
    "M": {0: (1, 0), 2: (-1, 1), 4: (-33, 1), 6: (2, 2), 8: (-33, 2), 10: (-1, 3), 12: (1, 3)},
    # 27X^12 - 27muX^10 + 297X^8 - 18muX^6 - 99X^4 - 3muX^2 - 1
    "dodecic": {0: (-1, 0), 2: (-3, 1), 4: (-99, 0), 6: (-18, 1), 8: (297, 0),
                10: (-27, 1), 12: (27, 0)},
    # as published: 27X^12 - 27muX^10 + 297X^8 - 18X^6 - 99X^4 + 3muX^2 + 1
    "dodecic*": {0: (1, 0), 2: (3, 1), 4: (-99, 0), 6: (-18, 0), 8: (297, 0),
                 10: (-27, 1), 12: (27, 0)},
    "octic": {0: (1, 0), 4: (14, 1), 8: (1, 2)},                # mu^2 X^8 + 14 mu X^4 + 1
    "octic*": {0: (1, 0), 1: (1, 1), 8: (1, 2)},                # as published: mu^2 X^8 + mu X + 1
}

#: genus -> its rational model's factors, in product order (which fixes zero-slot types)
_MODEL_ROWS = {
    4: ("3X^4+1", "3X^4+6X^2-1", "X"),
    5: ("M",),
    7: ("3X^4+6X^2-1", "dodecic"),
    8: ("X(muX^4-1)", "M"),
    9: ("octic", "M"),
    10: ("3X^4+1", "3X^4+6X^2-1", "dodecic", "X"),
    12: ("X(muX^4-1)", "octic", "M"),
}

#: variant="display": genus -> {active: published factor}; g = 9 keeps its octic
_DISPLAY_SWAPS = {7: {"dodecic": "dodecic*"}, 10: {"dodecic": "dodecic*"}, 12: {"octic": "octic*"}}

#: genera whose rational model has the factor M(mu); M(0) = 1 makes the
#: model a monomial there, so mu = 0 gives no curve
M_FACTOR_GENERA = tuple(g for g, names in _MODEL_ROWS.items() if "M" in names)


def _slot(slot, mu, zero):
    """A factor slot's value: an int as it is, (c, k) as c mu^k in mu's ring."""
    if isinstance(slot, int):
        return slot
    c, k = slot
    return reduce(mul, (mu,) * k, c) if k else c + zero


def rational_model(g: int, mu=None, variant: str = "adjudicated") -> BinaryForm:
    """Rational-coefficient one-parameter model for each supported genus.

    mu may be a Fraction or a Poly generator for symbolic work; it is ignored
    for g = 4 (a zero-dimensional locus with a fixed representative curve).
    ``variant="display"`` reproduces the published factors verbatim for
    g in {7, 10, 12} (they fail the vanishing profiles; kept for the record).
    After the genus is admitted, a missing mu, then an unknown variant, is an
    InputError (a ValueError).
    """
    if g not in _MODEL_ROWS:
        raise GenusError(f"rational models exist for genera {A4_GENERA}, got {g}")
    swaps = _DISPLAY_SWAPS.get(g, {}) if variant == "display" else {}
    factors = [_FACTORS[swaps.get(name, name)] for name in _MODEL_ROWS[g]]
    if not any(isinstance(s, tuple) for f in factors for s in f.values()):
        mu = None  # a row with no mu-term (g = 4) ignores mu
    elif mu is None:
        raise InputError("rational model needs mu")
    if variant not in VARIANTS:
        raise InputError(f"unknown variant {variant!r}")
    mu = _exact(mu)
    zero = 0 if mu is None else mu * 0
    poly = _product(*([_slot(f[j], mu, zero) if j in f else zero for j in range(max(f) + 1)]
                      for f in factors))
    return BinaryForm.from_univariate(poly, 2 * g + 2)

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinv import (BinaryForm, Cyclo, ExactDivisionError, PoleError, Poly, RatFunc,
                      poly_gcd)
from hyperinv import polynomials

from conftest import rationals
from oracles import naive_convolve, ratfunc_from_scalar


def polys(max_deg=5, bound=10):
    return st.lists(rationals(bound, 6), max_size=max_deg + 1).map(Poly)


def nonzero_polys(max_deg=5, bound=10):
    return polys(max_deg, bound).filter(lambda p: not p.is_zero)


MU = Poly.x()


def test_construction_trims_and_degree():
    assert Poly((1, 2, 0, 0)).degree == 1
    assert Poly(()).is_zero
    assert Poly((0, 0)).is_zero
    assert (MU ** 2).coeffs == (0, 0, 1)


def test_equality_with_scalars():
    assert Poly((Fraction(3),)) == 3
    assert Poly(()) == 0
    assert hash(Poly((Fraction(3),))) == hash(Fraction(3))


def test_gcd_examples():
    assert poly_gcd(MU ** 2 - 1, MU - 1) == MU - 1
    p = 3 * MU + 6
    assert poly_gcd(p, Poly()) == MU + 2  # made monic
    with pytest.raises(ExactDivisionError):
        poly_gcd(Poly(), Poly())


def test_gcd_inexact_pseudo_remainder_raises_typed_error(monkeypatch):
    """The exactness check is a raise, not an assert, so ``-O`` keeps it."""
    # an integer-clearing step that leaves fractions breaks the exact division
    monkeypatch.setattr(polynomials, "_clear_to_int",
                        lambda p: [Fraction(c) / 3 for c in p.coeffs])
    with pytest.raises(ExactDivisionError):
        poly_gcd(MU ** 2 + 1, 2 * MU + 1)


def test_square_free_part():
    p = 3 * (MU - 1) ** 3 * (2 * MU + 1) ** 2 * (MU ** 2 + 1)
    assert polynomials.square_free_part(p) == 12 * (MU - 1) * (MU + Fraction(1, 2)) * (MU ** 2 + 1)
    assert polynomials.square_free_part(Poly((Fraction(5),))) == Poly((Fraction(5),))


def test_int_leading_coefficients():
    p = Poly((1, 2))                                    # 2x + 1
    assert p.monic() == Poly((Fraction(1, 2), 1))
    q, r = divmod(Poly((1, 0, 1)), p)                   # x^2 + 1
    assert q == Poly((Fraction(-1, 4), Fraction(1, 2)))
    assert r == Fraction(5, 4)


@settings(max_examples=80)
@given(nonzero_polys(3), nonzero_polys(3), nonzero_polys(3))
def test_gcd_recovers_common_factor(p, q, g):
    d = poly_gcd(p * g, q * g)
    # the constructed factor divides the gcd, and the gcd divides both inputs
    assert (d % g.monic()).is_zero or (g.monic() % d).is_zero or ((p * g) % d).is_zero
    assert ((p * g) % d).is_zero
    assert ((q * g) % d).is_zero
    assert (d % g.monic()).is_zero


@settings(max_examples=200)
@given(polys(4), polys(4), polys(4))
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


@given(polys(4), nonzero_polys(3))
def test_divmod_identity(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_poly_over_cyclo():
    i = Cyclo.i()
    p = Poly((i, Cyclo(1)))          # x + i
    q = Poly((-i, Cyclo(1)))         # x - i
    assert p * q == Poly((Cyclo(1), Cyclo(0), Cyclo(1)))  # x^2 + 1
    assert poly_gcd(p * q, p) == p


def test_ratfunc_canonical_form_basics():
    f = RatFunc(MU ** 2 - 1, MU - 1)
    assert f.num == MU + 1 and f.den == 1
    g = RatFunc(2 * MU, 4 * MU ** 2)
    assert g.num == Poly((Fraction(1, 2),)) and g.den == MU


@settings(max_examples=80)
@given(nonzero_polys(3), nonzero_polys(3), nonzero_polys(3))
def test_ratfunc_canonical_form(p, q, g):
    assert RatFunc(p * g, q * g) == RatFunc(p, q)


def test_ratfunc_hashes_like_what_it_equals():
    assert RatFunc(3) == 3 and hash(RatFunc(3)) == hash(3)
    assert hash(RatFunc(0)) == hash(0)
    assert RatFunc(MU + 1) == MU + 1 and hash(RatFunc(MU + 1)) == hash(MU + 1)
    assert len({RatFunc(3), Fraction(3), Poly((3,))}) == 1


def test_ratfunc_eval():
    f = RatFunc(MU ** 2 + 1, MU)
    assert f.eval(2) == Fraction(5, 2)
    with pytest.raises(PoleError) as err:
        f.eval(0)
    assert err.value.at == 0


@settings(max_examples=200)
@given(rationals(), rationals(), rationals())
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@settings(max_examples=60)
@given(nonzero_polys(2), nonzero_polys(2), nonzero_polys(2),
       nonzero_polys(2), nonzero_polys(2), nonzero_polys(2))
def test_ratfunc_field_axioms(n1, d1, n2, d2, n3, d3):
    a, b, c = RatFunc(n1, d1), RatFunc(n2, d2), RatFunc(n3, d3)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a / a == 1


def cyclo_polys(max_deg=1):
    coords = rationals(4, 3)
    return st.lists(st.builds(Cyclo, coords, coords, coords, coords), min_size=1,
                    max_size=max_deg + 1).map(Poly).filter(bool)


@settings(max_examples=25)
@given(cyclo_polys(), cyclo_polys(), cyclo_polys(), cyclo_polys())
def test_ratfunc_over_cyclo_matches_cross_multiplication(n1, d1, n2, d2):
    """Over Q(i, sqrt3)[mu] the sum, product and inverse are canonical (monic
    denominator, coprime) and equal the cross-multiplied fraction."""
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    for got, num, den in ((a + b, n1 * d2 + n2 * d1, d1 * d2), (a * b, n1 * n2, d1 * d2),
                          (a.inverse(), d1, n1)):
        assert got.den.leading == 1
        assert got.is_zero or poly_gcd(got.num, got.den).degree == 0
        assert got.num * den == num * got.den


def test_ratfunc_arithmetic_and_pow():
    f = RatFunc(MU, MU + 1)
    g = RatFunc(Poly((Fraction(1),)), MU + 1)
    assert f + g == RatFunc(MU + 1, MU + 1) == ratfunc_from_scalar(1)
    assert (f / f) == 1
    assert f ** -2 == RatFunc((MU + 1) ** 2, MU ** 2)
    with pytest.raises(ExactDivisionError):
        RatFunc(MU) / ratfunc_from_scalar(0)
    with pytest.raises(ExactDivisionError):
        RatFunc(MU, Poly())


class _ZeroThatRefusesProducts:
    """A falsy coefficient whose product raises: convolve must never form one."""

    def __bool__(self):
        return False

    def __mul__(self, other):
        raise AssertionError("a zero factor was multiplied")

    __rmul__ = __mul__


def test_convolve_skips_zero_factors_and_leaves_unreached_slots_int():
    zero = _ZeroThatRefusesProducts()
    got = polynomials.convolve((Fraction(1), zero, Fraction(2)), (zero, Fraction(3)))
    assert repr(got) == "[0, Fraction(3, 1), 0, Fraction(6, 1)]"
    got = polynomials.convolve((Cyclo(0), Cyclo.i()), (Fraction(0), Cyclo(2)))
    assert repr(got) == "[0, 0, Cyclo(Fraction(0, 1), Fraction(2, 1), Fraction(0, 1), Fraction(0, 1))]"


def test_poly_product_leaves_unreached_slots_int():
    assert repr(MU * MU) == "Poly([0, 0, Fraction(1, 1)])"


#: an int, a Fraction, or one of the two zeros, so lists mix all four
_rational_entries = st.one_of(st.integers(-10**6, 10**6), rationals(10**6, 10**4),
                              st.sampled_from((0, Fraction(0))))


@given(st.lists(_rational_entries, max_size=8), st.lists(_rational_entries, max_size=8))
@settings(max_examples=300)
def test_rational_convolve_matches_the_generic_loop(a, b):
    # repr compares each slot's type (int or Fraction) as well as its value
    assert repr(polynomials.convolve(a, b)) == repr(naive_convolve(a, b))


def test_rational_convolve_slot_types():
    # slot 1 only int x int, slot 2 int x Fraction, slot 3 unreached
    assert repr(polynomials.convolve([2, 0, Fraction(1, 2)], [3, 5, 0, 0])) == \
        "[6, 10, Fraction(3, 2), Fraction(5, 2), 0, 0]"
    # a Fraction sum of zero stays a Fraction, an int sum of zero an int
    assert repr(polynomials.convolve([1, 1], [1, -1])) == "[1, 0, -1]"
    assert repr(polynomials.convolve([Fraction(1), 1], [1, -1])) == \
        "[Fraction(1, 1), Fraction(0, 1), -1]"


def test_ratfunc_difference_keeps_its_zero_slot_types():
    # slot 0 of the numerator is the int 0 (no product reaches it), slot 1
    # is Fraction(0, 1) (two Fraction products cancel there)
    diff = Poly.x() - RatFunc(Poly.x(), Poly((1, 3)))
    assert repr(diff) == ("RatFunc(Poly([0, Fraction(0, 1), Fraction(1, 1)]), "
                          "Poly([Fraction(1, 3), Fraction(1, 1)]))")


def test_poly_product_with_other_types():
    assert MU * RatFunc(MU) == RatFunc(MU ** 2)
    assert isinstance(MU * RatFunc(MU), RatFunc)
    assert MU * BinaryForm(1, (1, 2)) == BinaryForm(1, (MU, 2 * MU))
    assert isinstance(MU * BinaryForm(1, (1, 2)), BinaryForm)
    with pytest.raises(TypeError):
        MU * "a"

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinv import (ConstraintError, Cyclo, ExactDivisionError, InputError,
                      Poly, rational_from_str, rational_to_str, root_of_unity,
                      roots_of_unity)

from conftest import rationals
from oracles import cyclo_norm


def cyclos(bound=10):
    r = rationals(bound, 8)
    return st.builds(Cyclo, r, r, r, r)


def test_rational_base_field():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert rational_from_str("-22/7") == Fraction(-22, 7)
    assert rational_from_str("5") == 5
    assert rational_to_str(Fraction(10, 4)) == "5/2"
    assert rational_to_str(Fraction(-3)) == "-3"


@pytest.mark.parametrize("text", ["1/0", "-3/00", "abc", "", "1.5", "1e3",
                                  "3/-4", "1_0", pytest.param("9" * 5000, id="5000-digits"),
                                  3, True, None, [], {}])
def test_rational_from_str_rejects_everything_but_p_over_q(text):
    with pytest.raises(InputError):
        rational_from_str(text)


def test_basis_multiplication():
    i_sqrt3 = Cyclo.i_sqrt3()
    assert i_sqrt3 * i_sqrt3 == -3
    assert Cyclo.i() * Cyclo.i() == -1
    assert Cyclo.sqrt3() * Cyclo.sqrt3() == 3
    assert Cyclo.i() * Cyclo.sqrt3() == i_sqrt3


def test_inverse_of_one_plus_i():
    a = Cyclo(1, 1)
    inv = a.inverse()
    assert inv == Cyclo(Fraction(1, 2), Fraction(-1, 2))
    assert a * inv == 1


def test_zero_division():
    with pytest.raises(ExactDivisionError):
        Cyclo().inverse()
    with pytest.raises(ExactDivisionError):
        Cyclo(1) / Cyclo()


@settings(max_examples=200)
@given(cyclos(), cyclos(), cyclos())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=100)
@given(cyclos(), cyclos())
def test_conjugations_are_automorphisms(a, b):
    for conj in (Cyclo.conj_i, Cyclo.conj_sqrt3):
        assert conj(a * b) == conj(a) * conj(b)
        assert conj(a + b) == conj(a) + conj(b)
        assert conj(conj(a)) == a


@given(cyclos())
def test_norm_is_rational_and_multiplicative_with_inverse(a):
    n = cyclo_norm(a)
    assert isinstance(n, Fraction)
    if a:
        assert n != 0


def test_rational_elements_interoperate():
    half = Cyclo(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert half.is_rational
    assert half.as_rational() == Fraction(1, 2)
    assert not Cyclo.i().is_rational
    with pytest.raises(ExactDivisionError):
        Cyclo.i().as_rational()


def test_powers():
    zeta = root_of_unity(12)
    assert zeta ** 12 == 1
    assert zeta ** -1 == zeta ** 11
    assert Cyclo(2) ** 0 == 1
    assert repr(Cyclo(0, 3) ** 0) == repr(Cyclo(1))
    assert repr(Poly([2, 1]) ** 0) == "Poly([Fraction(1, 1)])"
    for x in (Cyclo(Fraction(1, 2), 1, 0, -2), Poly([2, 1])):
        acc = x
        for k in range(1, 10):
            assert x ** k == acc
            acc = acc * x


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 12])
def test_roots_of_unity_orders(order):
    zeta = root_of_unity(order)
    assert zeta ** order == 1
    for k in range(1, order):
        assert zeta ** k != 1, f"zeta_{order}^{k} should not be 1"
    assert len(set((z.coords for z in roots_of_unity(order)))) == order


@pytest.mark.parametrize("order", [5, 7, 8, 9, 24])
def test_unrepresentable_root_orders(order):
    with pytest.raises(ConstraintError):
        root_of_unity(order)


def test_rational_root_is_exact_beyond_float_range():
    from hyperinv.scalars import rational_root
    assert rational_root(Fraction(10 ** 400), 3) is None      # not a cube; no OverflowError
    assert rational_root(Fraction(10 ** 399), 3) == 10 ** 133
    assert rational_root(Fraction(10 ** 60), 3) == 10 ** 20
    assert rational_root((10 ** 40 + 7) ** 3, 3) == 10 ** 40 + 7
    assert rational_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert rational_root(Fraction(-4), 2) is None
    assert rational_root(0, 5) == 0


@given(rationals(10 ** 30, 10 ** 20), st.integers(1, 12), st.integers(1, 10 ** 30))
def test_rational_root_inverts_powers(q, k, n):
    from hyperinv.scalars import rational_root
    assert rational_root(q ** k, k) == (abs(q) if k % 2 == 0 else q)
    if k > 1:  # n^k < n^k + 1 < (n+1)^k
        assert rational_root(n ** k + 1, k) is None


_RATIONAL_FACTORS = st.one_of(st.integers(-50, 50), st.sampled_from([0, -1, True, False]),
                              rationals(), st.just(Fraction(0)))


@settings(max_examples=200)
@given(cyclos(), _RATIONAL_FACTORS)
def test_rational_factor_scales_coordinates_like_its_lift(a, k):
    lifted = a * Cyclo(k)
    for product in (a * k, k * a):
        assert type(product) is Cyclo
        assert product == lifted
        assert repr(product) == repr(lifted)
        assert hash(product) == hash(lifted)


@given(cyclos())
def test_non_rational_factors_still_raise(a):
    for left, right in ((a, 1.5), (1.5, a), (a, "2"), ("2", a), (a, None)):
        with pytest.raises(TypeError):
            left * right


def test_poly_factor_takes_the_poly_path():
    a = Cyclo(Fraction(1, 2), 1, 0, -2)
    zero = "Cyclo(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))"
    expected = f"Poly([{zero}, Cyclo(Fraction(1, 2), Fraction(1, 1), Fraction(0, 1), Fraction(-2, 1))])"
    assert repr(a * Poly.x()) == expected
    assert repr(Poly.x() * a) == expected


def test_inverse_reprs_are_pinned():
    rng = random.Random(11)
    draws = [Cyclo(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)))
             for _ in range(3)]
    assert [repr(a.inverse()) for a in draws] == [
        "Cyclo(Fraction(3069200, 36496729), Fraction(-2354500, 36496729), "
        "Fraction(3555120, 36496729), Fraction(3456200, 36496729))",
        "Cyclo(Fraction(-23028, 1927445), Fraction(-128064, 1927445), "
        "Fraction(8336, 385489), Fraction(30288, 385489))",
        "Cyclo(Fraction(91587200, 813771361), Fraction(4247700, 813771361), "
        "Fraction(10086080, 813771361), Fraction(20086320, 813771361))",
    ]
    assert repr(Cyclo(0, 0, 0, 3).inverse()) == \
        "Cyclo(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(-1, 9))"


@settings(max_examples=100)
@given(cyclos())
def test_inverse_matches_the_lifted_formula(a):
    if not a:
        return
    u = a.conj_i()
    w = (a * u).conj_sqrt3()
    n = (a * u * w).as_rational()
    assert repr(a.inverse()) == repr(u * w * Cyclo(1 / n))

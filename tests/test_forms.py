from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinv import (BinaryForm, Covariant, Cyclo, Poly, SingularMatrixError,
                      TransvectionError, gl2_act, transvect)

from conftest import rationals
from oracles import (binomial_coords, dict_to_coeffs, form_to_dict,
                     naive_substitute, naive_transvect)


def forms(degree, bound=8):
    return st.lists(rationals(bound, 6), min_size=degree + 1,
                    max_size=degree + 1).map(lambda cs: BinaryForm(degree, cs))


#: coefficient strategies for each ring the kernel serves: Q, Q(i, sqrt3), Q[mu]
RING_SCALARS = (
    rationals(8, 6),
    st.builds(Cyclo, rationals(4, 3), rationals(4, 3), rationals(4, 3), rationals(4, 3)),
    st.lists(rationals(4, 3), max_size=3).map(Poly),
)


@st.composite
def transvectant_cases(draw):
    """(f, g, r) over one ring, with orders 0..6 and 0 <= r <= min(n, m)."""
    scalars = draw(st.sampled_from(RING_SCALARS))
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    f = BinaryForm(n, draw(st.lists(scalars, min_size=n + 1, max_size=n + 1)))
    g = BinaryForm(m, draw(st.lists(scalars, min_size=m + 1, max_size=m + 1)))
    return f, g, draw(st.integers(0, min(n, m)))


X2_PLUS_Z2 = BinaryForm(2, (1, 0, 1))
XZ = BinaryForm(2, (0, 1, 0))


def test_pinned_transvectants():
    assert transvect(X2_PLUS_Z2, X2_PLUS_Z2, 2).form.constant_value() == 2
    assert transvect(XZ, XZ, 2).form.constant_value() == Fraction(-1, 2)


def test_r0_is_product():
    f = BinaryForm(3, (1, 2, 0, -1))
    g = BinaryForm(2, (4, 0, 3))
    assert transvect(f, g, 0).form == f * g


def test_range_errors():
    f = BinaryForm(2, (1, 1, 1))
    with pytest.raises(TransvectionError):
        transvect(f, f, 3)
    with pytest.raises(TransvectionError):
        transvect(f, f, -1)


@settings(max_examples=60)
@given(transvectant_cases())
def test_transvectant_matches_naive_oracle(case):
    f, g, r = case
    n, m = f.degree, g.degree
    got = transvect(f, g, r).form
    exp = naive_transvect(form_to_dict(f), form_to_dict(g), n, m, r)
    assert list(got.coeffs) == dict_to_coeffs(exp, n + m - 2 * r)


def ring_forms(scalars):
    """Forms of order 0..8 over one ring, with zero coefficients drawn often."""
    return st.integers(0, 8).flatmap(lambda n: st.lists(
        st.one_of(st.just(0), scalars), min_size=n + 1, max_size=n + 1).map(
        lambda cs: BinaryForm(n, cs)))


@settings(max_examples=60)
@given(st.tuples(*map(ring_forms, RING_SCALARS)))
def test_self_transvectant_matches_naive_oracle(ring_cases):
    # transvect(f, f, r) sums each mirrored pair of k-terms once; a copy of f
    # is another object, so transvect(f, copy, r) takes the full sum
    for f in ring_cases:
        n = f.degree
        copy = BinaryForm(n, f.coeffs)
        for r in range(n + 1):
            got = transvect(f, f, r).form
            exp = naive_transvect(form_to_dict(f), form_to_dict(f), n, n, r)
            assert list(got.coeffs) == dict_to_coeffs(exp, 2 * n - 2 * r)
            assert repr(got) == repr(transvect(f, copy, r).form)


_I, _MU = Cyclo.i(), Poly.x()


@pytest.mark.parametrize("f,g,r,expected", [
    (BinaryForm(3, (1, 0, 0, 2)), BinaryForm(2, (0, 3, 0)), 1,
     "BinaryForm(3, [Fraction(-3, 2), Fraction(0, 1), Fraction(0, 1), Fraction(3, 1)])"),
    (BinaryForm(2, (_I, 0, _I)), BinaryForm(2, (_I, 0, _I)), 1,
     "BinaryForm(2, [Fraction(0, 1), Cyclo(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
     "Fraction(0, 1)), Fraction(0, 1)])"),
    (BinaryForm(3, (_I, 0, 0, 1 + _I)), BinaryForm(1, (0, _I)), 1,
     "BinaryForm(2, [Cyclo(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
     "Fraction(0, 1), Fraction(0, 1)])"),
    (BinaryForm(2, (_MU, 0, _MU)), BinaryForm(2, (_MU, 0, _MU)), 1,
     "BinaryForm(2, [Fraction(0, 1), Poly([]), Fraction(0, 1)])"),
    (BinaryForm(3, (_MU, 0, 0, _MU + 1)), BinaryForm(2, (0, _MU, 0)), 1,
     "BinaryForm(3, [Poly([Fraction(0, 1), Fraction(0, 1), Fraction(-1, 2)]), Fraction(0, 1), "
     "Fraction(0, 1), Poly([Fraction(0, 1), Fraction(1, 2), Fraction(1, 2)])])"),
])
def test_transvectant_zero_slot_types_are_pinned(f, g, r, expected):
    # a slot no product reaches is Fraction(0); one whose products cancel keeps
    # its ring's zero (Poly([]), Cyclo(0, ...)); the CLI encodes them differently
    assert repr(transvect(f, g, r).form) == expected


@settings(max_examples=60)
@given(forms(4), forms(4), st.integers(0, 4))
def test_symmetry_sign(f, g, r):
    lhs = transvect(f, g, r).form
    rhs = transvect(g, f, r).form
    assert lhs == rhs * Fraction((-1) ** r)


@settings(max_examples=40)
@given(forms(4), st.integers(1, 3))
def test_self_transvectant_vanishes_for_odd_r(f, r):
    if r % 2:
        assert transvect(f, f, r).form.is_zero


@settings(max_examples=40)
@given(forms(4), forms(4), forms(4), rationals(6, 4), rationals(6, 4),
       st.integers(0, 4))
def test_bilinearity(f, g, h, alpha, beta, r):
    lhs = transvect(f * alpha + g * beta, h, r).form
    rhs = transvect(f, h, r).form * alpha + transvect(g, h, r).form * beta
    assert lhs == rhs


def test_metadata_composition():
    F = BinaryForm(6, (1, 0, -2, 0, 3, 0, 1))
    src = Covariant.source(F)
    assert (src.degree_p, src.order_m, src.index_s) == (1, 6, 0)
    J = transvect(src, src, 4)
    assert (J.degree_p, J.order_m, J.index_s) == (2, 4, 4)
    K = transvect(src, J, 4)
    assert (K.degree_p, K.order_m, K.index_s) == (3, 2, 8)
    # index_s = (degree_p * d - order_m) / 2 throughout
    for cov in (src, J, K):
        assert cov.index_s == (cov.degree_p * 6 - cov.order_m) // 2


def test_gl2_identity_and_diag():
    f = BinaryForm(4, (1, -2, 3, 0, 5))
    assert gl2_act(((1, 0), (0, 1)), f) == f
    xd = BinaryForm(3, (0, 0, 0, 1))
    c = Fraction(7, 2)
    assert gl2_act(((c, 0), (0, 1)), xd) == BinaryForm(3, (0, 0, 0, c ** 3))


def test_gl2_singular_rejected():
    with pytest.raises(SingularMatrixError):
        gl2_act(((1, 2), (2, 4)), X2_PLUS_Z2)


@settings(max_examples=60)
@given(forms(3), rationals(5, 3), rationals(5, 3), rationals(5, 3), rationals(5, 3))
def test_gl2_matches_substitution_oracle(f, a, b, c, d):
    if a * d - b * c == 0:
        return
    got = gl2_act(((a, b), (c, d)), f)
    exp = naive_substitute(form_to_dict(f), a, b, c, d)
    assert list(got.coeffs) == dict_to_coeffs(exp, 3)


@settings(max_examples=30)
@given(forms(4), forms(3), st.integers(0, 3),
       rationals(4, 2), rationals(4, 2), rationals(4, 2), rationals(4, 2))
def test_transformation_law(f, g, r, a, b, c, d):
    det = a * d - b * c
    if det == 0:
        return
    M = ((a, b), (c, d))
    lhs = transvect(gl2_act(M, f), gl2_act(M, g), r).form
    rhs = gl2_act(M, transvect(f, g, r).form) * det ** r
    assert lhs == rhs


def test_binomial_coordinate_view():
    f = BinaryForm(4, (1, 8, 18, 8, 1))
    b = binomial_coords(f)
    assert b == (1, 2, 3, 2, 1)  # a_i = C(4, i) b_i
    assert all(isinstance(x, Fraction) for x in b)


def test_from_univariate_homogenizes():
    f = BinaryForm.from_univariate([1, 0, 2], 4)
    assert f.degree == 4
    assert f.coeffs == (1, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        BinaryForm.from_univariate([1, 0, 2], 1)


def test_gl2_act_pinned_integer_substitution():
    got = gl2_act(((1, 2), (3, 4)), BinaryForm(3, (1, 0, 0, 2)))
    assert repr(got) == "BinaryForm(3, [80, 168, 120, 29])"

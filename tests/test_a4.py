from fractions import Fraction

import pytest

from hyperinv import (BinaryForm, ConstraintError, Cyclo, DomainError,
                      GenusError, PoleError, a4_curve_model, a4_genus_branch, a4_orbit,
                      a4_orbit_polynomial, build_G, classify_point,
                      covariant_catalogue, g_has_distinct_roots, gl2_act,
                      klein_phi, locus_parametrization, rational_model,
                      signature_row)
from hyperinv.cyclic import MAX_GENUS

from conftest import nonzero_fraction


def test_phi_poles_and_value():
    for bad in (0, 1, -1):
        with pytest.raises(PoleError):
            klein_phi(Fraction(bad))
    with pytest.raises(PoleError):
        klein_phi(Cyclo.i())
    assert klein_phi(2) == Fraction(-4879, 900)


def test_phi_symmetries(rng):
    for _ in range(12):
        t = nonzero_fraction(rng, 9, 5)
        if t * t == 1:
            continue
        v = klein_phi(t)
        assert klein_phi(-t) == v
        assert klein_phi(1 / t) == v


def test_build_G_at_zero_and_distinct_roots_flag():
    G0 = build_G(0)
    expect = [0] * 13
    expect[0] = expect[12] = 1
    expect[8] = expect[4] = -33
    assert G0 == BinaryForm(12, expect)
    assert not g_has_distinct_roots(Cyclo(0, 0, 6, 0))      # (6 sqrt3)^2 = 108
    assert not g_has_distinct_roots(Cyclo(0, 0, 0, 6))      # (6 i sqrt3)^2 = -108
    assert g_has_distinct_roots(Fraction(7))


def test_genus4_curve_coefficients():
    F = rational_model(4)
    # X(3X^4+1)(3X^4+6X^2-1) homogenized to degree 10
    assert F == BinaryForm.from_univariate([0, -1, 0, 6, 0, 0, 0, 18, 0, 9], 10)


def test_orbit_structure_and_polynomial():
    points = a4_orbit(Fraction(2))
    assert len(points) == 12
    values = {p.coords for p in points}
    assert len(values) == 12
    # closed under x -> -x and x -> 1/x
    for p in points:
        assert (-p).coords in values
        assert (1 / p).coords in values
    orb = a4_orbit_polynomial(Fraction(2))
    assert orb == build_G(Fraction(-4879, 900)).map_coeffs(Cyclo)


def test_orbit_rejects_degenerate_parameters():
    with pytest.raises(DomainError):
        a4_orbit(Cyclo.i())
    with pytest.raises(DomainError):
        a4_orbit(Fraction(0))
    with pytest.raises(DomainError):
        a4_orbit(Fraction(1))


def test_orbit_polynomial_identity(rng):
    # monic orbit product equals the branch-parameter dodecic at phi(t)
    done = 0
    while done < 6:
        t = nonzero_fraction(rng, 7, 4)
        if t * t == 1:
            continue
        assert a4_orbit_polynomial(t) == build_G(klein_phi(t)).map_coeffs(Cyclo)
        done += 1


def test_curve_model_rows():
    lam = Fraction(3)
    assert a4_curve_model(5, [lam]) == build_G(lam)

    m8 = a4_curve_model(8, [lam])
    # X(X^4-1) * G_lam, degree-17 polynomial homogenized to 18
    assert m8.degree == 18
    assert m8.coeffs[18] == 0 and m8.coeffs[17] == 1

    m7 = a4_curve_model(7, [lam])
    assert m7.degree == 16
    assert isinstance(m7.coeffs[2], Cyclo)

    with pytest.raises(GenusError):
        a4_curve_model(5, [lam, lam])


def test_prefactor_identity():
    T = BinaryForm(4, (Cyclo(1), Cyclo(0), Cyclo(0, 0, 0, 2), Cyclo(0), Cyclo(1)))
    S = BinaryForm(4, (Cyclo(1), Cyclo(0), Cyclo(0, 0, 0, -2), Cyclo(0), Cyclo(1)))
    octic = BinaryForm.from_univariate([1, 0, 0, 0, 14, 0, 0, 0, 1], 8)
    assert T * S == octic.map_coeffs(Cyclo)


def test_genus_branch_map():
    assert a4_genus_branch(5) == (0, "Z2xA4", 5)
    assert a4_genus_branch(7) == (4, "Z2xA4", 1)
    assert a4_genus_branch(9) == (8, "Z2xA4", 3)
    assert a4_genus_branch(8) == (6, "SL2(3)", 2)
    assert a4_genus_branch(10) == (10, "SL2(3)", 4)
    assert a4_genus_branch(12) == (14, "SL2(3)", 0)
    for g in (-6, 0, 1, 2, 3, 6, MAX_GENUS + 1):
        with pytest.raises(GenusError):
            a4_genus_branch(g)


def test_group_table_readers_agree():
    """signature_row, a4_genus_branch and a4_curve_model admit the same genera
    and read the same dimension."""
    for g in range(-12, 301):
        group = "Z2xA4" if g % 2 else "SL2(3)"
        try:
            row = signature_row(group, g)
        except ConstraintError:
            row = None
        if row is None:
            with pytest.raises(GenusError):
                a4_genus_branch(g)
            continue
        assert row.delta >= 0
        assert a4_genus_branch(g) == (2 * g + 2 - 12 * row.delta, group, g % 6)
        assert len(row.signature) == row.delta + 3
        if g <= 24:
            assert a4_curve_model(g, [Fraction(3)] * row.delta).degree == 2 * g + 2


def test_rational_model_examples():
    M1 = rational_model(5, Fraction(1))
    assert M1 == BinaryForm.from_univariate(
        [1, 0, -1, 0, -33, 0, 2, 0, -33, 0, -1, 0, 1], 12)
    with pytest.raises(GenusError):
        rational_model(6, Fraction(1))
    with pytest.raises(ValueError):
        rational_model(5)


def test_rational_model_vs_rescaled_branch_model():
    # X -> 2X carries the branch form at lambda = 4 to the rational model at mu = 16
    lam = Fraction(4)
    transformed = gl2_act(((2, 0), (0, 1)), build_G(lam))
    assert transformed == rational_model(5, lam ** 2)


def test_display_variants_differ_and_fail_profiles():
    mu = Fraction(2)
    active = rational_model(7, mu)
    display = rational_model(7, mu, variant="display")
    assert active != display
    inv = covariant_catalogue(display)
    assert inv.I2 != 0  # the published factor is not on the locus
    active12 = rational_model(12, mu)
    display12 = rational_model(12, mu, variant="display")
    assert active12 != display12


def test_branch_model_classifies_like_the_locus_table():
    # the branch-parameter model at rational lambda lands on the table entry at lambda^2
    for lam in (Fraction(2), Fraction(3, 2)):
        point = classify_point(a4_curve_model(5, [lam]), 5)
        table_point = locus_parametrization(5, lam ** 2)
        assert point.case_tag == table_point.case_tag
        assert point.values == table_point.values


@pytest.mark.parametrize("genus,lams", [(7, (Fraction(2), Fraction(-1, 2))),
                                        (10, (Fraction(2),))])
def test_branch_model_bridge_to_rational_parametrization(genus, lams):
    """The Q(i, sqrt3) branch model at rational lambda matches the rational
    parametrization evaluated at mu = -lambda*i*sqrt3/3 (the quartic-root
    coordinate change relates the two models); genus 10 exercises the full
    degree-22 catalogue over the number field."""
    from hyperinv import default_table
    entry = default_table().entry(genus)
    scale = Cyclo(0, 0, 0, Fraction(-1, 3))
    for lam in lams:
        point = classify_point(a4_curve_model(genus, [lam]), genus)
        mu = scale * lam
        expected = (entry.p1.num(mu) / entry.p1.den(mu),
                    entry.p2.num(mu) / entry.p2.den(mu))
        assert point.values == expected

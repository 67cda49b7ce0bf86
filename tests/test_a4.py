from fractions import Fraction

import pytest

from hyperinv import (BinaryForm, ConstraintError, Cyclo, DomainError,
                      GenusError, PoleError, Poly, RatFunc, a4_curve_model,
                      a4_genus_branch, a4_orbit, a4_orbit_polynomial, build_G,
                      classify_point, covariant_catalogue, default_table,
                      g_has_distinct_roots, gl2_act, klein_phi, rational_model,
                      signature_row)
from hyperinv.a4 import M_FACTOR_GENERA, g_coefficients
from hyperinv.catalogue import CLASSIFIER_BRANCHES, SUPPORTED_GENERA
from hyperinv.cyclic import MAX_GENUS

from conftest import nonzero_fraction
from oracles import map_coeffs


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
    assert orb == map_coeffs(build_G(Fraction(-4879, 900)), Cyclo)


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
        assert a4_orbit_polynomial(t) == map_coeffs(build_G(klein_phi(t)), Cyclo)
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
    assert T * S == map_coeffs(octic, Cyclo)


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
    for mu in (Fraction(7, 2), Poly.x()):
        changed = {g for g in SUPPORTED_GENERA
                   if rational_model(g, mu, "display") != rational_model(g, mu)}
        assert changed == {7, 10, 12}  # g = 9 shares the octic but keeps it


@pytest.mark.parametrize("genus,lam", [
    *(pytest.param(g, Poly.x(), id=f"g{g}") for g in (5, 7, 8, 9, 10, 12)),
    # the degree-22 catalogue over Q(i, sqrt3) scalars
    pytest.param(10, Fraction(2), id="g10-cyclo-scalar"),
])
def test_branch_model_classifies_like_the_locus_table(genus, lam):
    """Table 2's relation: classify_point of the branch model at lambda is the
    locus-table entry at mu = lambda^2 (g = 5, 8, 9, 12), or at mu =
    lambda/(i*sqrt3) (g = 7, 10; the quartic-root coordinate change).  With
    lambda the generator of Q[lambda] it holds identically in lambda, over
    Q(i, sqrt3)(lambda) at g = 7 and 10."""
    point = classify_point(a4_curve_model(genus, [lam]), genus)
    t = RatFunc(lam) if isinstance(lam, Poly) else lam
    mu = t / Cyclo.i_sqrt3() if genus in (7, 10) else t * t
    entry = default_table().entry(genus)
    assert point.case_tag == CLASSIFIER_BRANCHES[genus][1][0]
    assert point.values == (entry.p1.eval(mu), entry.p2.eval(mu))


def test_klein_map_pinned_over_each_ring():
    assert repr(klein_phi(2)) == "Fraction(-4879, 900)"
    assert repr(klein_phi(Cyclo(2, 1))) == (
        "Cyclo(Fraction(0, 1), Fraction(459, 50), Fraction(0, 1), Fraction(0, 1))")
    mu = Poly.x()
    # over Q[mu] the value is a RatFunc, whose zero slots follow the product order
    assert klein_phi(RatFunc(mu)) == RatFunc(
        mu ** 12 - 33 * mu ** 8 - 33 * mu ** 4 + 1, mu ** 2 * (mu ** 4 - 1) ** 2)
    for pole in (Fraction(0), Fraction(1), Fraction(-1), Cyclo.i(), -Cyclo.i()):
        with pytest.raises(PoleError) as err:
            klein_phi(pole)
        assert err.value.at == pole


def test_fiber_coefficients_pinned_over_each_ring():
    rational = [Fraction(c) for c in (1, 0, -3, 0, -33, 0, 6, 0, -33, 0, -3, 0, 1)]
    assert repr(g_coefficients(Fraction(3))) == repr(rational)
    lam, one, zero, c33 = Cyclo(1, 2), Cyclo(1), Cyclo(0), Cyclo(-33)
    cyclo = [one, zero, -lam, zero, c33, zero, 2 * lam, zero, c33, zero, -lam, zero, one]
    assert repr(g_coefficients(lam)) == repr(cyclo)
    assert repr(g_coefficients(Poly.x())) == (
        "[Poly([1]), Poly([]), Poly([Fraction(0, 1), Fraction(-1, 1)]), Poly([]), "
        "Poly([-33]), Poly([]), Poly([Fraction(0, 1), Fraction(2, 1)]), Poly([]), "
        "Poly([-33]), Poly([]), Poly([Fraction(0, 1), Fraction(-1, 1)]), Poly([]), "
        "Poly([1])]")


@pytest.mark.parametrize("t,text,name", [
    (Fraction(0), "0", "1/t"), (Fraction(1), "1", "-i(t+1)/(t-1)"),
    (Fraction(-1), "-1", "-i(t-1)/(t+1)"), (Cyclo.i(), "1*i", "(t+i)/(t-i)"),
    (-Cyclo.i(), "-1*i", "(t-i)/(t+i)")])
def test_orbit_pole_names_the_map_whose_denominator_vanishes(t, text, name):
    with pytest.raises(DomainError) as err:
        a4_orbit(t)
    assert str(err.value) == f"orbit undefined: {name} has a pole at t = {text}"


def test_orbit_collision_names_both_maps():
    t = Cyclo(Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(DomainError, match=r"collide at t = .*: t and \(t-i\)/\(t\+i\) agree"):
        a4_orbit(t)


#: repr of the rational model at mu = 7/2, the int 3 and the generator of Q[mu];
#: it pins the type of every zero slot (the int 0, Fraction(0, 1) or Poly([]))
_MODEL_REPRS = {
    (4, "7/2"): "BinaryForm(10, [0, -1, 0, 6, 0, 0, 0, 18, 0, 9, 0])",
    (4, "3"): "BinaryForm(10, [0, -1, 0, 6, 0, 0, 0, 18, 0, 9, 0])",
    (4, "x"): "BinaryForm(10, [0, -1, 0, 6, 0, 0, 0, 18, 0, 9, 0])",
    (5, "7/2"): ("BinaryForm(12, [Fraction(1, 1), Fraction(0, 1), Fraction(-7, 2), "
                 "Fraction(0, 1), Fraction(-231, 2), Fraction(0, 1), Fraction(49, 2), "
                 "Fraction(0, 1), Fraction(-1617, 4), Fraction(0, 1), Fraction(-343, 8), "
                 "Fraction(0, 1), Fraction(343, 8)])"),
    (5, "3"): ("BinaryForm(12, [Fraction(1, 1), Fraction(0, 1), Fraction(-3, 1), "
               "Fraction(0, 1), Fraction(-99, 1), Fraction(0, 1), Fraction(18, 1), "
               "Fraction(0, 1), Fraction(-297, 1), Fraction(0, 1), Fraction(-27, 1), "
               "Fraction(0, 1), Fraction(27, 1)])"),
    (5, "x"): ("BinaryForm(12, [Poly([1]), Poly([]), Poly([Fraction(0, 1), Fraction(-1, 1)]), "
               "Poly([]), Poly([Fraction(0, 1), Fraction(-33, 1)]), Poly([]), "
               "Poly([0, 0, Fraction(2, 1)]), Poly([]), Poly([0, 0, Fraction(-33, 1)]), "
               "Poly([]), Poly([0, 0, 0, Fraction(-1, 1)]), Poly([]), "
               "Poly([0, 0, 0, Fraction(1, 1)])])"),
    (10, "7/2"): ("BinaryForm(22, [0, Fraction(1, 1), 0, Fraction(9, 2), 0, Fraction(36, 1), "
                  "0, Fraction(-549, 1), 0, Fraction(-873, 1), 0, 0, 0, Fraction(-2619, 1), 0, "
                  "Fraction(4941, 1), 0, Fraction(972, 1), 0, Fraction(-729, 2), 0, "
                  "Fraction(243, 1), 0])"),
    (10, "3"): ("BinaryForm(22, [0, Fraction(1, 1), 0, Fraction(3, 1), 0, Fraction(45, 1), 0, "
                "Fraction(-558, 1), 0, Fraction(-792, 1), 0, 0, 0, Fraction(-2376, 1), 0, "
                "Fraction(5022, 1), 0, Fraction(1215, 1), 0, Fraction(-243, 1), 0, "
                "Fraction(243, 1), 0])"),
    (10, "x"): ("BinaryForm(22, [0, Poly([1]), 0, Poly([Fraction(-6, 1), Fraction(3, 1)]), 0, "
                "Poly([Fraction(99, 1), Fraction(-18, 1)]), 0, "
                "Poly([Fraction(-612, 1), Fraction(18, 1)]), 0, "
                "Poly([Fraction(-306, 1), Fraction(-162, 1)]), 0, 0, 0, "
                "Poly([Fraction(-918, 1), Fraction(-486, 1)]), 0, "
                "Poly([Fraction(5508, 1), Fraction(-162, 1)]), 0, "
                "Poly([Fraction(2673, 1), Fraction(-486, 1)]), 0, "
                "Poly([Fraction(486, 1), Fraction(-243, 1)]), 0, Poly([243]), 0])"),
}


@pytest.mark.parametrize("g,label", sorted(_MODEL_REPRS))
def test_rational_model_reprs_pin_zero_slot_types(g, label):
    mu = {"7/2": Fraction(7, 2), "3": 3, "x": Poly.x()}[label]
    assert repr(rational_model(g, mu)) == _MODEL_REPRS[g, label]


def test_rational_model_genera_and_m_factor_genera():
    for g in range(-1, 15):
        if g in SUPPORTED_GENERA:
            assert rational_model(g, Fraction(7, 2)).degree == 2 * g + 2
        else:
            with pytest.raises(GenusError):
                rational_model(g, Fraction(7, 2))
    assert M_FACTOR_GENERA == (5, 8, 9, 12)
    for g in SUPPORTED_GENERA:
        # M(0) = 1 makes the model a monomial at mu = 0 exactly on M's genera
        terms = [c for c in rational_model(g, Fraction(0)).coeffs if c != 0]
        assert (len(terms) == 1) == (g in M_FACTOR_GENERA)

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinv import (BinaryForm, ConstraintError, Cyclo, DihedralInvariants,
                      Poly, ReconstructionError, build_G,
                      dihedral_invariants, extra_involution_condition,
                      h_action, make_normal_form, normal_form_polynomial,
                      reconstruct_from_u, roots_of_unity,
                      signature_row, tau1, tau2)
from hyperinv.cyclic import MAX_GENUS, CyclicNormalForm

from conftest import nonzero_fraction, rationals


LAM = Poly.x()
FAMILY_G5 = make_normal_form(
    1, 2, 5, (-LAM, Poly.constant(Fraction(-33)), 2 * LAM,
              Poly.constant(Fraction(-33)), -LAM))


def test_normal_form_validation():
    nf = make_normal_form(1, 2, 5, (1, 2, 3, 4, 5))
    assert nf.t == 6 and nf.delta == 5
    with pytest.raises(ConstraintError):
        make_normal_form(1, 5, 5, (1, 2))   # 5 does not divide 12
    with pytest.raises(ConstraintError):
        make_normal_form(2, 2, 5, (1,))     # 2 does not divide 11
    with pytest.raises(ConstraintError):
        make_normal_form(1, 2, 5, (1, 2))   # wrong coefficient count
    with pytest.raises(ConstraintError):
        make_normal_form(4, 2, 5, (1,))     # no such case


def test_polynomial_case1_family_matches_branch_form():
    # the symbolic genus-5 family equals the branch-parameter dodecic
    F = normal_form_polynomial(FAMILY_G5)
    assert F == build_G(LAM)


def test_polynomial_trivial_cases():
    allzero = make_normal_form(1, 2, 5, (0,) * 5)
    F = normal_form_polynomial(allzero)
    expect = [0] * 13
    expect[0] = expect[12] = 1
    assert F == BinaryForm(12, expect)

    small = make_normal_form(3, 2, 2, (Fraction(7),))
    F3 = normal_form_polynomial(small)           # X(X^4 + 7X^2 + 1), degree 6 form
    assert F3 == BinaryForm.from_univariate([0, 1, 0, 7, 0, 1], 6)

    case2 = make_normal_form(2, 3, 4, (2, 5))    # t = 3: X^9 + 2X^6 + 5X^3 + 1
    F2 = normal_form_polynomial(case2)
    assert F2 == BinaryForm.from_univariate([1, 0, 0, 5, 0, 0, 2, 0, 0, 1], 10)


def test_dihedral_of_genus5_family():
    u = dihedral_invariants(FAMILY_G5)
    assert u.values == (2 * LAM ** 6, -66 * LAM ** 4, -4 * LAM ** 4,
                        -66 * LAM ** 2, 2 * LAM ** 2)


def test_dihedral_zero_iff_ends_zero():
    nf = make_normal_form(1, 2, 5, (0, 3, -7, 4, 0))
    assert dihedral_invariants(nf).is_zero
    nf2 = make_normal_form(1, 2, 5, (1, 0, 0, 0, 0))
    assert not dihedral_invariants(nf2).is_zero


@settings(max_examples=60)
@given(st.tuples(rationals(9, 4), rationals(9, 4), rationals(9, 4)))
def test_dihedral_matches_direct_substitution(a):
    # independent re-evaluation of the defining display for delta = 3 (t = 4)
    nf = make_normal_form(1, 2, 3, a)
    t = 4
    a1, ad = a[0], a[2]
    expected = tuple(a1 ** (t - i) * a[i - 1] + ad ** (t - i) * a[t - i - 1]
                     for i in (1, 2, 3))
    assert dihedral_invariants(nf).values == expected


def test_tau2_involution_and_palindrome_fixed():
    nf = make_normal_form(1, 2, 5, (1, 2, 3, 4, 5))
    assert tau2(tau2(nf)) == nf
    pal = make_normal_form(1, 2, 5, (-1, -33, 2, -33, -1))
    assert tau2(pal) == pal
    assert h_action(nf, "tau2") == tau2(nf)


def test_tau1_minus_one_action():
    nf = make_normal_form(1, 2, 5, (1, 2, 3, 4, 5))
    moved = tau1(nf, -1)
    # a_i -> (-1)^(n(t-i)) a_i with n = 2: exponent even, so fixed
    assert moved == nf
    # odd n makes eps = -1 act nontrivially: case 1, n = 3, g = 5, t = 4
    nf2 = make_normal_form(1, 3, 5, (Fraction(2), Fraction(5), Fraction(7)))
    moved2 = tau1(nf2, -1)
    # exponents 3(t-i) mod 4 for i = 1, 2, 3: odd, even, odd
    assert moved2.coeffs == (Fraction(-2), Fraction(5), Fraction(-7))
    assert h_action(nf2, ("tau1", -1)) == moved2
    assert dihedral_invariants(moved2).values == dihedral_invariants(nf2).values


def test_tau1_rejects_non_roots():
    nf = make_normal_form(1, 2, 5, (1, 2, 3, 4, 5))
    with pytest.raises(ConstraintError):
        tau1(nf, Fraction(2))
    with pytest.raises(ConstraintError):
        tau1(nf, Cyclo.i())  # i^6 = -1 != 1
    with pytest.raises(ConstraintError):
        tau1(nf, 1.0)        # a float is no exact root of unity
    with pytest.raises(ConstraintError):
        h_action(nf, "tau3")
    with pytest.raises(ConstraintError):
        h_action(nf, ("tau1",))


@pytest.mark.parametrize("case,n,g", [(1, 2, 5), (1, 2, 3), (1, 3, 5),
                                      (2, 3, 4), (3, 2, 4), (3, 2, 6)])
def test_h_invariance_all_cases(case, n, g, rng):
    from hyperinv.cyclic import _case_t
    t = _case_t(case, n, g)
    for _ in range(8):
        coeffs = tuple(nonzero_fraction(rng, 7, 3) for _ in range(t - 1))
        nf = make_normal_form(case, n, g, coeffs)
        u = dihedral_invariants(nf).values
        assert dihedral_invariants(tau2(nf)).values == u
        if t in (1, 2, 3, 4, 6, 12):
            for eps in roots_of_unity(t):
                moved = tau1(nf, eps)
                assert dihedral_invariants(moved).values == tuple(u)


def test_extra_involution_identity_of_genus5_family():
    u = dihedral_invariants(FAMILY_G5)
    assert extra_involution_condition(u, 5)
    assert extra_involution_condition(DihedralInvariants((0, 1, 2, 3, 0)), 5)
    assert not extra_involution_condition(
        DihedralInvariants(tuple(Fraction(k) for k in (1, 2, 3, 4, 5))), 5)
    with pytest.raises(ConstraintError):
        extra_involution_condition(DihedralInvariants((1, 2)), 5)


def test_reconstruct_pinned_example():
    u = DihedralInvariants((Fraction(2), Fraction(-66), Fraction(-4),
                            Fraction(-66), Fraction(2)))
    nf = reconstruct_from_u(u, 1, 2, 5)
    assert dihedral_invariants(nf).values == u.values
    # the recovered tuple is the lambda = -1 member of the same family
    assert nf.coeffs == (1, -33, -2, -33, 1)


def test_reconstruct_zero_rejected():
    with pytest.raises(ReconstructionError):
        reconstruct_from_u(DihedralInvariants((0, 0, 0, 0, 0)), 1, 2, 5)


@pytest.mark.parametrize("case,n,g", [(1, 6, 2), (2, 5, 2), (3, 4, 2),
                                      (1, 12, 5), (2, 11, 5), (3, 10, 5)])
def test_reconstruct_delta_zero_round_trip(case, n, g):
    # delta = 0: the normal form has no coefficient, so u = () names it uniquely
    nf = make_normal_form(case, n, g, ())
    u = dihedral_invariants(nf)
    assert u.values == ()
    assert reconstruct_from_u(u, case, n, g) == nf


def test_reconstruct_inconsistent_rejected():
    # u1 = u_delta = 0 forces a_1 = a_delta = 0, hence u = 0: anything else is off-locus
    with pytest.raises(ReconstructionError):
        reconstruct_from_u((Fraction(0), Fraction(5), Fraction(0)), 1, 2, 3)


def test_reconstruct_irrational_obstruction_reports_polynomial():
    # t = 4: z^2 - u1 z + (ud/2)^4 with non-square discriminant
    u = (Fraction(1), Fraction(0), Fraction(1))
    with pytest.raises(ReconstructionError) as err:
        reconstruct_from_u(u, 1, 2, 3)
    assert err.value.minimal_polynomial is not None


@pytest.mark.parametrize("coeffs", [(10 ** 20, 10 ** 20 + 7), (10 ** 150, -(10 ** 150) - 1)])
def test_reconstruct_needs_exact_cube_roots(coeffs):
    # t = 3: a_delta^3 is beyond float precision (and, for 10^150, float range)
    u = dihedral_invariants(make_normal_form(1, 2, 2, coeffs))
    nf = reconstruct_from_u(u, 1, 2, 2)
    assert dihedral_invariants(nf).values == u.values


@pytest.mark.parametrize("case,n,g", [(1, 2, 5), (1, 2, 3), (2, 3, 4),
                                      (3, 2, 4), (1, 3, 5), (3, 3, 6)])
def test_reconstruct_roundtrip_forward_sampled(case, n, g, rng):
    from hyperinv.cyclic import _case_t
    t = _case_t(case, n, g)
    done = 0
    while done < 10:
        coeffs = tuple(nonzero_fraction(rng, 6, 2) for _ in range(t - 1))
        nf = make_normal_form(case, n, g, coeffs)
        u = dihedral_invariants(nf)
        if u.is_zero:
            continue
        rec = reconstruct_from_u(u, case, n, g)
        assert dihedral_invariants(rec).values == u.values
        done += 1


@pytest.mark.parametrize("case,n,g,t", [(1, 4, 5, 3), (1, 2, 3, 4)])
def test_fiber_size_is_2t_over_extension(case, n, g, t, rng):
    """Enumerate the full dihedral-invariant fiber over Q(i, sqrt3)."""
    zetas = roots_of_unity(t)
    for _ in range(3):
        while True:
            coeffs = tuple(nonzero_fraction(rng, 5, 2) for _ in range(t - 1))
            nf = make_normal_form(case, n, g, coeffs)
            a1, ad = coeffs[0], coeffs[-1]
            if a1 ** t != ad ** t and a1 != ad and a1 != -ad:
                break
        u = dihedral_invariants(nf)
        fiber = set()
        for root in (ad, a1):  # the two roots of the z-quadratic are a_delta^t, a_1^t
            for zeta in zetas:
                cand_ad = zeta * Cyclo(root)
                cand_a1 = Cyclo(u.values[-1] / 2) / cand_ad
                mid = []
                det = cand_a1 ** t - cand_ad ** t
                ok = True
                for i in range(2, t - 1):
                    j = t - i
                    if i > j:
                        break
                    A, B = cand_a1 ** (t - i), cand_ad ** (t - i)
                    C, D = cand_ad ** i, cand_a1 ** i
                    ui, uj = Cyclo(u.values[i - 1]), Cyclo(u.values[j - 1])
                    if i == j:
                        if not (A + B):
                            ok = False
                            break
                        mid.append(ui / (A + B))
                    else:
                        if not det:
                            ok = False
                            break
                        mid.append((D * ui - B * uj) / det)
                if not ok:
                    continue
                full = (cand_a1, *mid, cand_ad) if t > 2 else (cand_a1,)
                if t == 3:
                    full = (cand_a1, cand_ad)
                if t == 4:
                    full = (cand_a1, mid[0], cand_ad)
                trial = make_normal_form(case, n, g, full)
                if tuple(dihedral_invariants(trial).values) == tuple(
                        Cyclo(v) for v in u.values):
                    fiber.add(tuple(x.coords for x in full))
        assert len(fiber) == 2 * t


def test_signature_rows():
    row = signature_row("Z2xZn", 3, n=2)
    assert row.delta == 3
    assert row.signature == ("2^2", "2^2") + ("2^2",) * 4
    assert row.involutions == 3

    row4 = signature_row("Z2xA4", 5)
    assert row4.delta == 1
    assert row4.signature == ("3^8", "3^8", "2^12", "2^12")
    assert row4.involutions == 7

    row7 = signature_row("SL2(3)", 8)
    assert row7.delta == 1 and row7.involutions == 1
    assert row7.signature == ("4^6", "3^8", "3^8", "2^12")

    row2 = signature_row("Z2n", 4, n=3)
    assert row2.delta == 2
    assert row2.signature == ("3^2", "6^1", "2^3", "2^3", "2^3")


def test_signature_row_constraints():
    with pytest.raises(ConstraintError):
        signature_row("Z2xZn", 3, n=4)        # delta = 1 excluded
    with pytest.raises(ConstraintError):
        signature_row("Z2xZn", 2, n=5)        # 5 does not divide 6
    with pytest.raises(ConstraintError):
        signature_row("Z2xA4", 4)             # wrong congruence class
    with pytest.raises(ConstraintError):
        signature_row("SL2(3)", 2)            # delta = 0 excluded
    with pytest.raises(ConstraintError):
        signature_row("Z2xZn", 3)             # n required
    with pytest.raises(ConstraintError):
        signature_row("Q8", 3, n=2)           # unknown tag
    for group in ("Z2xZn", "Z2n"):
        for n in (-1, 0, 1):                  # no cyclic order below 2
            with pytest.raises(ConstraintError):
                signature_row(group, 5, n=n)
    for group, g, n in (("Z2n", -2, 3), ("Z2n", 1, 3), ("Z2xA4", -1, None),
                        ("Z2xA4", 1, None), ("SL2(3)", -2, None)):   # genus below 2
        with pytest.raises(ConstraintError):
            signature_row(group, g, n=n)


def test_signature_row_genus_is_bounded_before_anything_is_built():
    assert signature_row("Z2xZn", MAX_GENUS, n=2).delta == MAX_GENUS
    with pytest.raises(ConstraintError):
        signature_row("Z2xZn", MAX_GENUS + 1, n=2)
    tracemalloc.start()
    try:
        for group in ("Z2xZn", "Z2n", "Z2xA4", "SL2(3)"):
            # 10^9 and 10^18 are 4 mod 6; the + 1 lands in a Z2xA4 row
            for g in (10 ** 9, 10 ** 9 + 1, 10 ** 18, 10 ** 18 + 1):
                tracemalloc.reset_peak()
                with pytest.raises(ConstraintError):
                    signature_row(group, g, n=2)
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("u,root", [(18, Fraction(3)), (6, Cyclo.sqrt3()),
                                    (-2, Cyclo.i()), (-6, Cyclo.i_sqrt3())])
def test_reconstruct_t2_square_roots_in_q_i_sqrt3(u, root):
    # case 1, n = 3, g = 2 has t = 2: u_1 = 2 a_1^2, so a_1 is a square root of u/2
    nf = reconstruct_from_u((Fraction(u),), 1, 3, 2)
    assert repr(nf.coeffs) == repr((root,))
    assert dihedral_invariants(nf).values == (u,)


def test_reconstruct_t2_without_square_root_reports_polynomial():
    with pytest.raises(ReconstructionError) as err:
        reconstruct_from_u((Fraction(5),), 1, 3, 2)
    assert err.value.minimal_polynomial == (Fraction(-5, 2), 0, 1)


def test_reconstruct_antisymmetric_singular_pair():
    # a_1 = -a_delta makes every pair singular; (a_3, a_5) has odd j = 5, so
    # only the antisymmetric solution a_5 = -a_3 is left
    u = dihedral_invariants(make_normal_form(1, 2, 7, (1, 2, 3, 4, 5, 6, -1)))
    nf = reconstruct_from_u(u, 1, 2, 7)
    assert nf.coeffs == (-1, 4, 1, 4, -1, 4, 1)
    assert nf.coeffs[4] == -nf.coeffs[2]
    assert dihedral_invariants(nf).values == u.values


def test_reconstruct_singular_middle_equation():
    # a_delta = -a_1 at t = 6: a_1^3 + a_delta^3 = 0, so u_3 must vanish
    u = dihedral_invariants(make_normal_form(1, 2, 5, (1, 2, 3, 4, -1)))
    nf = reconstruct_from_u(u, 1, 2, 5)
    assert nf.coeffs == (-1, 3, 0, 3, 1)
    assert dihedral_invariants(nf).values == u.values
    with pytest.raises(ReconstructionError, match="singular middle equation for a_3"):
        reconstruct_from_u((2, 4, 1, 4, -2), 1, 2, 5)


def test_reconstruct_inconsistent_singular_pair():
    with pytest.raises(ReconstructionError, match=r"singular pair \(a_2, a_3\)"):
        reconstruct_from_u((2, 1, 0, 2), 3, 2, 5)


def test_reconstruct_without_rational_cube_root_reports_polynomial():
    with pytest.raises(ReconstructionError,
                       match="no t-th root of a_delta\\^t = 2 ") as err:
        reconstruct_from_u((2, 0), 1, 2, 2)
    assert err.value.minimal_polynomial == (-2, 0, 0, 1)


def test_reconstruct_rejects_non_rational_invariants():
    with pytest.raises(ConstraintError):
        reconstruct_from_u((Cyclo.i(), 1, 2), 1, 2, 3)


@pytest.mark.parametrize("case,n,g,coeffs", [(1, 2, 1, (3,)), (1, 2, 0, ()),
                                             (3, 2, -1, ()), (2, 3, 1, ())])
def test_normal_forms_need_genus_two(case, n, g, coeffs):
    with pytest.raises(ConstraintError, match=f"genus must be >= 2, got {g}"):
        make_normal_form(case, n, g, coeffs)
    with pytest.raises(ConstraintError, match=f"genus must be >= 2, got {g}"):
        reconstruct_from_u(coeffs, case, n, g)
    with pytest.raises(ConstraintError):
        CyclicNormalForm(case=case, n=n, genus=g, coeffs=coeffs).t

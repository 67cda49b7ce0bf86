import random
from fractions import Fraction

import pytest

from hyperinv import (BinaryForm, GenusError, ModuliPoint, Poly,
                      UndefinedInvariantError, UnsupportedDegreeError,
                      absolute_invariants, catalogue_intermediates,
                      classify_point, covariant_catalogue, gl2_act,
                      locus_parametrization, rational_model, transvect,
                      vanishing_profile)
from hyperinv import catalogue
from hyperinv.catalogue import SUPPORTED_GENERA
from hyperinv.loci import default_table

from conftest import nonzero_fraction, random_fraction
from oracles import form_to_dict, naive_transvect


def power_sum_form(d):
    """X^d + Z^d."""
    cs = [0] * (d + 1)
    cs[0] = cs[d] = 1
    return BinaryForm(d, cs)


@pytest.mark.parametrize("d", [8, 12])
def test_I2_of_power_sum(d):
    F = power_sum_form(d)
    inv = covariant_catalogue(F)
    # independent evaluation via the naive oracle
    fd = form_to_dict(F)
    exp = naive_transvect(fd, fd, d, d, d)
    assert inv.I2 == exp.get((0, 0), 0) == 2


def oracle_catalogue(F):
    """Every catalogue invariant of F, composed from naive_transvect on
    monomial dicts as the catalogue module's docstring writes the DAG."""
    d = F.degree
    f = (form_to_dict(F), d)

    def tv(a, b, r):
        (fa, n), (fb, m) = a, b
        return naive_transvect(fa, fb, n, m, r), n + m - 2 * r

    def const(c):
        assert c[1] == 0
        return c[0].get((0, 0), 0)

    J = {k: tv(f, f, d - k // 2) for k in (4, 8, 12, 16)}
    FJ = {k: tv(f, J[k], k) for k in (4, 8, 12, 16) if d >= k}
    M = tv(FJ[4], FJ[8], d - 10)
    out = {"I2": const(tv(f, f, d)),
           "I4": const(tv(J[4], J[4], 4)),
           "I4p": const(tv(J[8], J[8], 8)),
           "I6": const(tv(FJ[4], FJ[4], d - 4)),
           "I6p": const(tv(FJ[8], FJ[8], d - 8)),
           "I6star_ast": const(tv(FJ[12], FJ[12], d - 12)),
           "I12": const(tv(M, M, 8))}
    if d % 4 == 0:
        out["I3"] = const(tv(f, tv(f, f, d // 2), d))
    if d == 22:
        out["I6star"] = const(tv(FJ[16], FJ[16], d - 16))
        js = tv(J[16], tv(J[12], J[16], 12), 4)
        out["I12ast"] = const(tv(js, js, 12))
    return out


@pytest.mark.parametrize("d", [12, 22])
def test_catalogue_matches_oracle_composition(d):
    rng = random.Random(d)
    F = BinaryForm(d, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(d + 1)])
    got = covariant_catalogue(F).as_dict()
    assert {k: v for k, v in got.items() if v is not None} == oracle_catalogue(F)


@pytest.fixture
def transvections(monkeypatch):
    """(order, order, r) of every transvection the catalogue module runs."""
    calls = []

    def counting(f, g, r):
        calls.append((f.order_m, g.order_m, r))
        return transvect(f, g, r)

    monkeypatch.setattr(catalogue, "transvect", counting)
    return calls


def test_classify_transvects_only_its_branch(transvections):
    mu = Fraction(7, 2)
    point = classify_point(rational_model(12, mu), 12)
    assert point == locus_parametrization(12, mu)
    # I2; J8 and I4'; J12, (F,J12)^12 and I6* -- nothing else at degree 26
    assert transvections == [(26, 26, 26), (26, 26, 22), (8, 8, 8),
                             (26, 26, 20), (26, 12, 12), (14, 14, 14)]
    transvections.clear()
    vanishing_profile(rational_model(12, mu), 12)     # I4 and I6 only
    assert transvections == [(26, 26, 24), (4, 4, 4), (26, 4, 4), (22, 22, 22)]


def test_catalogue_transvects_each_node_once(transvections):
    covariant_catalogue(rational_model(10, Fraction(2)))
    assert transvections.count((22, 22, 16)) == 1     # J12
    # 20 nodes at degree 22: J4..J16, (F,J_k)^k, M, S, (J16,S)^4 and nine
    # invariants (I3 needs 4 | d)
    assert len(transvections) == 20
    transvections.clear()
    # 14 at degree 18: J4, J8, J12, (F,J_k)^k for k = 4, 8, 12, M and seven
    # invariants; J16, whose only use is at degree 22, is not built
    covariant_catalogue(rational_model(8, Fraction(2)))
    assert len(transvections) == 14


def test_catalogue_rejects_bad_degrees():
    with pytest.raises(UnsupportedDegreeError):
        covariant_catalogue(BinaryForm(5, (1, 0, 0, 0, 0, 1)))
    with pytest.raises(UnsupportedDegreeError):
        covariant_catalogue(BinaryForm(4, (1, 0, 0, 0, 1)))


def test_defined_flags_by_degree():
    inv10 = covariant_catalogue(rational_model(4))
    assert inv10.I6star_ast is None         # needs degree >= 12
    assert inv10.I3 is None                 # needs 4 | d
    assert inv10.I12 is not None            # defined from degree 10 on
    inv12 = covariant_catalogue(rational_model(5, Fraction(2)))
    assert inv12.I6star_ast is not None
    assert inv12.I3 is not None
    assert inv12.I6star is None             # genus-10 extras only at degree 22
    with pytest.raises(UndefinedInvariantError):
        inv10.value("I6star_ast")


def test_intermediates_metadata():
    F = rational_model(5, Fraction(3))
    inter = catalogue_intermediates(F)
    assert inter["J4"].order_m == 4 and inter["J4"].degree_p == 2
    assert inter["J8"].order_m == 8
    assert inter["M"].order_m == 8 and inter["M"].degree_p == 6
    for cov in inter.values():
        assert cov.index_s == (cov.degree_p * 12 - cov.order_m) // 2


def test_genus8_model_has_I4_zero():
    inv = covariant_catalogue(rational_model(8, Fraction(3, 7)))
    assert inv.I4 == 0


def test_index_law_small():
    rng = __import__("random").Random(7)
    F = BinaryForm(8, [random_fraction(rng, 5, 3) for _ in range(9)])
    M = ((2, 1), (1, 1))
    det = Fraction(1)
    invA = covariant_catalogue(F)
    invB = covariant_catalogue(gl2_act(M, F))
    d = 8
    for name, p in (("I2", 2), ("I3", 3), ("I4", 4), ("I4p", 4)):
        s = p * d // 2
        assert invB.value(name) == det ** s * invA.value(name)


def test_covariant_transformation_law_with_nonzero_index():
    """C(F o M) = det^s * C(F) o M for the catalogue's intermediate covariants,
    with s their recorded index (not just the single-transvection case)."""
    rng = __import__("random").Random(31)
    F = BinaryForm(12, [random_fraction(rng, 4, 3) for _ in range(13)])
    M = ((2, -1), (1, 1))
    det = Fraction(3)
    before = catalogue_intermediates(F)
    after = catalogue_intermediates(gl2_act(M, F))
    for name in ("J4", "J8", "J12", "M"):
        cov_a, cov_b = before[name], after[name]
        assert cov_b.index_s == cov_a.index_s
        expect = gl2_act(M, cov_a.form) * det ** cov_a.index_s
        assert cov_b.form == expect, name


def test_absolute_invariants_scaling_invariance():
    rng = __import__("random").Random(11)
    F = BinaryForm(12, [random_fraction(rng, 4, 3) for _ in range(13)])
    c = Fraction(-5, 3)
    a1 = absolute_invariants(F)
    a2 = absolute_invariants(F * c)
    for name in ("i1", "i2", "i3", "j1", "j2", "s1", "s2", "v1", "v2", "v3", "v4"):
        if a1.defined(name):
            assert a2.value(name) == a1.value(name), name


def test_absolute_invariants_undefined_reasons():
    a = absolute_invariants(rational_model(4))
    assert not a.defined("i3")
    assert "I6star_ast" in a.reasons["i3"]
    assert not a.defined("i1")          # I4p vanishes on the genus-4 curve
    assert "zero denominator" in a.reasons["i1"]


def test_classify_pinned_special_values():
    g5 = classify_point(rational_model(5, Fraction(-924, 5)), 5)
    assert g5.case_tag == "g=5, I_2 = 0"
    assert g5.values == (Fraction(273375, 1568),)
    g8 = classify_point(rational_model(8, Fraction(-884, 7)), 8)
    assert g8.values == (Fraction(2**3 * 3**11 * 101**4, 5**3 * 7**4 * 13**6),)
    g12 = classify_point(rational_model(12, Fraction(-1700, 11)), 12)
    assert g12.values == (Fraction(2 * 3**3 * 5 * 41**4, 7**4 * 11**2 * 17**2),)


def test_classify_genus9_special_recomputed_value():
    """Frozen exact recomputation; the published constant differs (see notes)."""
    g9 = classify_point(rational_model(9, Fraction(-836, 3)), 9)
    assert g9.case_tag == "g=9, I_2 = 0"
    assert g9.values == (Fraction(3**7, 2**9 * 5 * 11**2),)


@pytest.mark.xfail(strict=True,
                   reason="published genus-9 special constant -2^9*5*11^2/3^7 is not "
                          "reproducible by any weight-zero invariant ratio (sign); "
                          "see notes/decisions ledger")
def test_classify_genus9_published_value():
    g9 = classify_point(rational_model(9, Fraction(-836, 3)), 9)
    assert g9.values == (Fraction(-(2**9) * 5 * 11**2, 3**7),)


def test_classify_genus4_branch_raises():
    with pytest.raises(UndefinedInvariantError):
        classify_point(rational_model(4), 4)


@pytest.mark.xfail(strict=True,
                   reason="the genus-4 branch ratio needs a degree-6 invariant that "
                          "does not exist for degree-10 forms; the published value "
                          "1764/25 has no recomputation path (see notes)")
def test_classify_genus4_published_value():
    point = classify_point(rational_model(4), 4)
    assert point.values == (Fraction(1764, 25),)


def test_classify_requires_matching_degree_and_genus():
    with pytest.raises(GenusError):
        classify_point(power_sum_form(14), 6)
    with pytest.raises(UnsupportedDegreeError):
        classify_point(power_sum_form(12), 7)


def test_vanishing_profile_admits_like_classify_point():
    """A genus-5 form is not on the genus-12 locus: both readers refuse it."""
    F = rational_model(5, Fraction(7, 2))
    for reader in (classify_point, vanishing_profile):
        with pytest.raises(UnsupportedDegreeError,
                           match="genus 12 needs a degree-26 form, got degree 12"):
            reader(F, 12)
    with pytest.raises(GenusError, match="vanishing profile supports genera"):
        vanishing_profile(F, 6)


def test_classify_constant_on_isomorphism_class():
    rng = __import__("random").Random(23)
    for _ in range(5):
        mu = nonzero_fraction(rng, 9, 4)
        F = rational_model(5, mu)
        point = classify_point(F, 5)
        M = ((rng.randint(1, 3), rng.randint(0, 2)),
             (rng.randint(0, 2), rng.randint(1, 3)))
        if M[0][0] * M[1][1] - M[0][1] * M[1][0] == 0:
            continue
        moved = gl2_act(M, F) * nonzero_fraction(rng, 7, 3)
        point2 = classify_point(moved, 5)
        if point2.case_tag == point.case_tag:
            assert point2.values == point.values


def _invariance_points():
    """Two seeded generic mu per classified genus, then each special mu of the
    locus table: its special values and the rational roots of its degenerate
    branch's linear factors.  Genus 4 has no defined classifier value."""
    rng = random.Random(7)
    not_invariant = pytest.mark.xfail(
        strict=True, reason="the g = 10, I_12 = 0 branch reads I6star/I12ast, which "
                            "is not weight-balanced, so not an invariant (ROADMAP item 7)")
    for g in SUPPORTED_GENERA:
        if g == 4:
            continue
        entry = default_table().entry(g)
        for mu in (nonzero_fraction(rng, 9, 4), nonzero_fraction(rng, 9, 4)):
            yield pytest.param(g, mu, id=f"g{g}-mu={mu}")
        for sv in entry.special_values:
            yield pytest.param(g, sv.mu, id=f"g{g}-special-mu={sv.mu}")
        for p in entry.condition_factors:
            if p.degree == 1:
                mu = -p.coeffs[0] / p.coeffs[1]
                yield pytest.param(g, mu, id=f"g{g}-degenerate-mu={mu}", marks=not_invariant)


@pytest.mark.parametrize("g,mu", _invariance_points())
def test_classify_invariant_under_scaling_and_gl2(g, mu):
    F = rational_model(g, mu)
    assert (classify_point(F, g) == classify_point(F * Fraction(-3, 2), g)
            == classify_point(gl2_act(((2, 1), (1, 3)), F), g))


def test_vanishing_profile_examples():
    profile = vanishing_profile(rational_model(5, Fraction(9, 2)), 5)
    assert profile == [("I4", True), ("I6", True)]
    profile7 = vanishing_profile(rational_model(7, Fraction(3)), 7)
    assert all(flag for _, flag in profile7)
    # a dense non-special form generically vanishes nowhere on the list
    rng = __import__("random").Random(5)
    F = BinaryForm(12, [random_fraction(rng, 9, 4) for _ in range(13)])
    assert not any(flag for _, flag in vanishing_profile(F, 5))


def test_classify_symbolic_over_parameter_ring():
    mu = Poly.x()
    point = classify_point(rational_model(5, mu), 5)
    assert point.case_tag == "g=5, I_2 != 0"
    assert len(point.values) == 2  # RatFunc pair; exact identity tested in acceptance


def test_classify_genus10_degenerate_branch():
    """I_12 vanishes exactly at the rational degenerate parameter and the
    genus-10 extras take over; value frozen from the exact recomputation
    (the published table leaves this branch unevaluatable)."""
    F = rational_model(10, Fraction(782, 251))
    inv = covariant_catalogue(F)
    assert inv.I12 == 0
    point = classify_point(F, 10)
    assert point.case_tag == "g=10, I_12 = 0"
    assert point.values == (Fraction(315008395153245036169272377857986875,
                                     583262206574134184395489350254592),)


def test_moduli_point_shape():
    with pytest.raises(ValueError):
        ModuliPoint(genus=5, case_tag="x", values=(1, 2, 3))

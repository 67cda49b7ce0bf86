from fractions import Fraction

import pytest

from hyperinv import (DomainError, GenusError,
                      OffLocusError, PoleError, classify_point, default_table,
                      genus5_locus_is_singular, genus5_locus_residual,
                      genus5_singular_point_analysis, load_locus_table,
                      locus_parametrization, rational_model, ratfunc_eval,
                      recover_mu)



def test_table_loads_and_versions():
    table = default_table()
    assert table.version == "1"
    assert sorted(table.entries) == [4, 5, 7, 8, 9, 10, 12]
    assert table.entry(5).status == "verified"
    assert table.entry(9).status == "recomputed-differs"
    assert table.entry(12).status == "recomputed-differs"
    with pytest.raises(GenusError):
        table.entry(6)


def test_generic_branch_matches_classifier():
    for g, mu in ((5, Fraction(3)), (7, Fraction(2)), (8, Fraction(-1, 2)),
                  (9, Fraction(5)), (10, Fraction(2)), (12, Fraction(1))):
        point = locus_parametrization(g, mu)
        direct = classify_point(rational_model(g, mu), g)
        assert point.case_tag == direct.case_tag
        assert point.values == direct.values, f"genus {g}"


def test_special_values_returned_at_poles():
    p5 = locus_parametrization(5, Fraction(-924, 5))
    assert p5.values == (Fraction(273375, 1568),)
    assert p5.case_tag == "g=5, I_2 = 0"
    p9 = locus_parametrization(9, Fraction(-836, 3))
    assert p9.values == (Fraction(3**7, 2**9 * 5 * 11**2),)  # recomputed (see ledger)
    p12 = locus_parametrization(12, Fraction(-1700, 11))
    assert p12.values == (Fraction(2 * 3**3 * 5 * 41**4, 7**4 * 11**2 * 17**2),)


def test_first_component_pole_routes_to_constant_branch():
    # evaluating the stored rational function at the special parameter is a pole;
    # the parametrization object dispatches to the recorded constant instead
    entry = default_table().entry(5)
    with pytest.raises(PoleError):
        ratfunc_eval(entry.p1, Fraction(-924, 5))
    point = locus_parametrization(5, Fraction(-924, 5))
    assert len(point.values) == 1


def test_genus4_entry_is_published_transcription():
    point = locus_parametrization(4, Fraction(123))
    assert point.values == (Fraction(1764, 25),)
    assert default_table().entry(4).status == "published-not-recomputable"


def test_genus10_degenerate_branch_excluded():
    with pytest.raises(DomainError):
        locus_parametrization(10, Fraction(782, 251))


def test_genus7_constraint_branch_data():
    entry = default_table().entry(7)
    cond = entry.special_condition
    assert cond["kind"] == "cubic-constraint"
    assert cond["parameter_poly"][0] == "1549768"       # corrected constant term
    assert entry.published_variants["denominator_cubic"][0] == "1549769"
    # the cubic has no rational zero, so no rational parameter reaches the
    # constraint branch; its content is verified modularly by verify_genus
    from hyperinv.loci import _parse_poly, _rational_roots
    assert _rational_roots(_parse_poly(cond["parameter_poly"])) == []


def test_fixture_polynomials_are_parsed_at_load(monkeypatch):
    from hyperinv import loci
    table = load_locus_table()
    e7, e10 = table.entry(7), table.entry(10)
    cond, branch = e7.special_condition, e10.degenerate_branch
    assert e7.parameter_poly == loci._parse_poly(cond["parameter_poly"])
    assert e7.point_relation == loci._parse_poly(cond["point_relation"])
    assert e10.condition_factors == tuple(
        loci._parse_poly(f) for f in branch["condition_factors"])

    def no_parse(strings):
        raise AssertionError("fixture polynomial parsed after load")

    monkeypatch.setattr(loci, "_parse_poly", no_parse)
    point = locus_parametrization(7, Fraction(3), table)
    assert recover_mu(7, point, table) == [Fraction(3)]
    with pytest.raises(DomainError):
        locus_parametrization(10, Fraction(782, 251), table)


def test_recover_mu_round_trip_basic():
    point = locus_parametrization(9, Fraction(3))
    assert recover_mu(9, point) == [Fraction(3)]
    point5 = locus_parametrization(5, Fraction(-7, 3))
    assert recover_mu(5, point5) == [Fraction(-7, 3)]


def test_recover_mu_off_locus():
    point = locus_parametrization(9, Fraction(3))
    perturbed = (point.values[0], point.values[1] + 1)
    with pytest.raises(OffLocusError):
        recover_mu(9, perturbed)


def test_recover_mu_special_single_component():
    mus = recover_mu(5, locus_parametrization(5, Fraction(-924, 5)))
    assert Fraction(-924, 5) in mus


def test_recover_mu_singular_fiber():
    # (0, 1/84) is the image of mu = 484/5 (a double root upstream)
    point = locus_parametrization(5, Fraction(484, 5))
    assert point.values == (Fraction(0), Fraction(1, 84))
    assert recover_mu(5, point) == [Fraction(484, 5)]


def test_genus5_locus_equation():
    point = locus_parametrization(5, Fraction(11, 7))
    assert genus5_locus_residual(point) == 0
    assert genus5_locus_residual((Fraction(1), Fraction(1))) != 0
    assert genus5_locus_is_singular((Fraction(0), Fraction(1, 84)))
    assert not genus5_locus_is_singular(point)


def test_genus5_singular_point_uniqueness():
    res = genus5_singular_point_analysis()
    assert res["all_roots_map_to_singular_point"]
    assert res["gcd_avoids_poles"]
    assert res["radical"].degree == 1


def test_fixture_override(tmp_path):
    import json
    from importlib import resources
    raw = json.loads(resources.files("hyperinv").joinpath("data/locus_table.json").read_text())
    raw["version"] = "test-override"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(raw))
    table = load_locus_table(str(path))
    assert table.version == "test-override"
    point = locus_parametrization(5, Fraction(2), table=table)
    assert len(point.values) == 2


def test_parametrization_rejects_unknown_genus():
    with pytest.raises(GenusError):
        locus_parametrization(6, Fraction(1))

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from hyperinv import (CubicConstraint, Cyclo, DomainError, GenusError, UndefinedInvariantError,
                      OffLocusError, PoleError, Poly, a4_curve_model, classify_point,
                      default_table, genus5_locus_is_singular, genus5_locus_residual,
                      genus5_singular_point_analysis, load_locus_table,
                      locus_parametrization, rational_model, ratfunc_eval,
                      recover_mu, transvect, verify_genus)


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


def _raw_fixture():
    """The shipped fixture as plain JSON, read past the loader."""
    return json.loads(resources.files("hyperinv").joinpath("data/locus_table.json").read_text())


def _poly(strings):
    return Poly(tuple(Fraction(s) for s in strings))


def test_genus7_constraint_branch_data():
    cond = _raw_fixture()["genera"]["7"]["special_condition"]
    entry = default_table().entry(7)
    assert cond["kind"] == "cubic-constraint"
    assert cond["parameter_poly"][0] == "1549768"       # corrected constant term
    assert entry.published_variants["denominator_cubic"][0] == "1549769"
    assert entry.constraint == CubicConstraint(
        genus=7, case_tag=cond["case"], parameter_poly=_poly(cond["parameter_poly"]),
        relation=_poly(cond["point_relation"]))
    # the cubic has no rational zero, so no rational parameter reaches the
    # constraint branch; its content is verified modularly by verify_genus
    from hyperinv.loci import _rational_roots
    assert _rational_roots(entry.constraint.parameter_poly) == []


def test_fixture_polynomials_are_parsed_at_load(monkeypatch):
    from hyperinv import loci
    raw = _raw_fixture()["genera"]
    cond, branch = raw["7"]["special_condition"], raw["10"]["degenerate_branch"]
    table = load_locus_table()
    e7, e10 = table.entry(7), table.entry(10)
    assert e7.constraint.parameter_poly == _poly(cond["parameter_poly"])
    assert e7.constraint.relation == _poly(cond["point_relation"])
    assert e10.condition_factors == tuple(map(_poly, branch["condition_factors"]))
    assert e10.degenerate_note == branch["note"]

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


def _linear(root):
    """den * x - num, the primitive integer linear factor with that root."""
    return Poly((Fraction(-root.numerator), Fraction(root.denominator)))


def test_rational_roots_of_constructed_products():
    # roots of height up to 10^20 with multiplicity up to 3, times quadratics
    # with no rational root, scaled by a rational: exactly the roots come back
    from hyperinv.loci import _rational_roots
    rng = random.Random(8)
    for _ in range(60):
        roots = set()
        p = Poly((Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9)),))
        for _ in range(rng.randint(0, 4)):
            h = 10 ** rng.randint(1, 20)
            root = Fraction(rng.randint(-h, h), rng.randint(1, h))
            roots.add(root)
            p = p * _linear(root) ** rng.randint(1, 3)
        for _ in range(rng.randint(0, 2)):
            p = p * Poly((Fraction(rng.randint(1, 10 ** 8)), Fraction(0),
                          Fraction(rng.randint(1, 10 ** 8))))
        assert _rational_roots(p) == sorted(roots), p


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    from hyperinv.loci import _rational_roots
    x = sympy.Symbol("x")
    rng = random.Random(9)
    for _ in range(60):
        p = Poly([Fraction(rng.randint(-10 ** 15, 10 ** 15)) for _ in range(rng.randint(1, 4))]
                 + [Fraction(rng.randint(1, 10 ** 15))])
        for _ in range(rng.randint(0, 6 - p.degree)):
            p = p * _linear(Fraction(rng.randint(-10 ** 8, 10 ** 8), rng.randint(1, 10 ** 8)))
        expr = sum(int(c) * x ** i for i, c in enumerate(p.coeffs))
        expected = sorted(Fraction(int(-factor.coeff(x, 0)), int(factor.coeff(x, 1)))
                          for factor, _ in sympy.factor_list(expr)[1]
                          if sympy.degree(factor, x) == 1)
        assert _rational_roots(p) == expected, p


@pytest.mark.parametrize("genus", [5, 8, 9, 12])
def test_mu_zero_is_no_curve_where_the_model_has_the_factor_m(genus):
    # M(0) = 1, so the model is a monomial, which the classifier has no branch for
    assert sum(c != 0 for c in rational_model(genus, 0).coeffs) == 1
    with pytest.raises(UndefinedInvariantError):
        classify_point(rational_model(genus, 0), genus)
    with pytest.raises(DomainError, match="mu = 0"):
        locus_parametrization(genus, 0)
    # the point the table's rational functions give at mu = 0 has no curve over it
    entry = default_table().entry(genus)
    with pytest.raises(OffLocusError):
        recover_mu(genus, (entry.p1.eval(0), entry.p2.eval(0)))


@pytest.mark.parametrize("genus", [7, 10])
def test_mu_zero_is_a_curve_at_genus_7_and_10(genus):
    assert sum(c != 0 for c in rational_model(genus, 0).coeffs) > 1
    point = locus_parametrization(genus, 0)
    assert point == classify_point(rational_model(genus, 0), genus)
    assert recover_mu(genus, point) == [0]


def test_recover_mu_off_locus():
    point = locus_parametrization(9, Fraction(3))
    perturbed = (point.values[0], point.values[1] + 1)
    with pytest.raises(OffLocusError):
        recover_mu(9, perturbed)


def test_recover_mu_needs_one_or_two_components():
    # a point is refused as given: no component is dropped or made up
    three = locus_parametrization(9, 3).values + (Fraction(99),)
    for genus, point in ((5, ()), (9, three)):
        with pytest.raises(DomainError, match="one- or two-component"):
            recover_mu(genus, point)


def test_locus_table_refuses_a_point_over_q_i_sqrt3():
    # the genus-7 branch model at lambda = 2 lies at mu = 2/(i*sqrt3), so its
    # moduli point has two components in Q(i, sqrt3); no answer is guessed
    mu = Fraction(2) / Cyclo.i_sqrt3()
    point = classify_point(a4_curve_model(7, [Fraction(2)]), 7)
    for call in (lambda: locus_parametrization(7, mu), lambda: recover_mu(7, point),
                 lambda: recover_mu(5, (Cyclo(1, 1),))):
        with pytest.raises(DomainError, match=r"Q\(i, sqrt3\)") as err:
            call()
        assert type(err.value) is DomainError


def test_recover_mu_special_single_component():
    mus = recover_mu(5, locus_parametrization(5, Fraction(-924, 5)))
    assert Fraction(-924, 5) in mus


def test_recover_mu_single_component_reads_the_active_value():
    # genus 9 records the published -309760/2187 next to the recomputed
    # 2187/309760 that the parametrization gives at mu = -836/3; only the
    # recomputed one is on the locus
    assert locus_parametrization(9, Fraction(-836, 3)).values == (Fraction(2187, 309760),)
    assert recover_mu(9, (Fraction(2187, 309760),)) == [Fraction(-836, 3)]
    with pytest.raises(OffLocusError):
        recover_mu(9, (Fraction(-309760, 2187),))


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
    raw = _raw_fixture()
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


def test_constraint_branch_returns_the_stored_record(tmp_path):
    # the shipped cubic has no rational zero; an override whose cubic is
    # mu - 3 sends mu = 3 down the constraint branch
    raw = _raw_fixture()
    raw["genera"]["7"]["special_condition"]["parameter_poly"] = ["-3", "1"]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(raw))
    table = load_locus_table(str(path))
    got = locus_parametrization(7, 3, table)
    assert got is table.entry(7).constraint
    assert got.case_tag == "g=7, I_3 = 0"
    assert got.parameter_poly == _poly(["-3", "1"])
    assert len(locus_parametrization(7, 2, table).values) == 2


#: verify_genus's (name, status) sequence per genus; the only
#: "recomputed-differs" are the transcription statuses of genera 7, 9 and 12
#: and the genus-9 special value
VERIFY_CHECKS = {
    4: [("vanishing-profile", "pass"), ("moduli-value-recomputation", "skip")],
    5: [("transcription-status", "verified"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("special-value(mu=-924/5)", "pass"),
        ("locus-equation-residual", "pass"),
        ("singular-point-uniqueness", "pass"),
        ("singular-point-value", "pass")],
    7: [("transcription-status", "recomputed-differs"),
        ("published-variants-on-record", "info"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("constraint-branch-relation", "pass")],
    8: [("transcription-status", "verified"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("special-value(mu=-884/7)", "pass")],
    9: [("transcription-status", "recomputed-differs"),
        ("published-variants-on-record", "info"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("special-value(mu=-836/3)", "recomputed-differs")],
    10: [("transcription-status", "verified"),
         ("vanishing-profile-identically", "pass"),
         ("parametrization-first-component", "pass"),
         ("parametrization-second-component", "pass")],
    12: [("transcription-status", "recomputed-differs"),
         ("published-variants-on-record", "info"),
         ("vanishing-profile-identically", "pass"),
         ("parametrization-first-component", "pass"),
         ("parametrization-second-component", "pass"),
         ("special-value(mu=-1700/11)", "pass")],
}


def test_verify_genus_check_sequence_and_cli_agree(tmp_path):
    from hyperinv.cli import main
    assert sorted(VERIFY_CHECKS) == sorted(default_table().entries)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps([{"command": "verify-locus", "payload": {"genus": g}}
                               for g in VERIFY_CHECKS]))
    assert main(["--batch", "--input", str(inp), "--output", str(out)]) == 0
    for (genus, expected), report in zip(VERIFY_CHECKS.items(), json.loads(out.read_text())):
        checks = verify_genus(genus)
        assert [(c["name"], c["status"]) for c in checks] == expected, genus
        assert report["result"] == {"genus": genus, "checks": checks}


#: transvections in one verify_genus call: each catalogue node of the symbolic
#: model once, plus those of the special values' rational models
VERIFY_TRANSVECTIONS = {4: 7, 5: 14, 7: 14, 8: 14, 9: 14, 10: 14, 12: 16}


def test_verify_genus_transvects_no_node_twice(monkeypatch):
    from hyperinv import catalogue
    calls = []

    def counting(f, g, r):
        calls.append((f.form, g.form, r))
        return transvect(f, g, r)

    monkeypatch.setattr(catalogue, "transvect", counting)
    counts = {}
    for genus in VERIFY_TRANSVECTIONS:
        calls.clear()
        verify_genus(genus)
        counts[genus] = len(calls)
        assert len(set(calls)) == len(calls), genus
    assert counts == VERIFY_TRANSVECTIONS

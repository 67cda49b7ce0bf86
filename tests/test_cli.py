import contextlib
import copy
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinv.cli import COMMANDS, main


def run_cli(tmp_path, payload, *args):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main(["--input", str(inp), "--output", str(out), *args])
    text = out.read_text() if out.exists() else ""
    return code, json.loads(text) if text else None


def call_main(data, *args):
    """main() on ``data`` as stdin; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(data if isinstance(data, str) else json.dumps(data))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def form_payload(genus, mu):
    from hyperinv import rational_model
    from hyperinv.serialize import form_to_json
    return form_to_json(rational_model(genus, Fraction(mu)), genus=genus)


def test_classify_special_curve(tmp_path):
    req = {"command": "classify", "payload": form_payload(5, Fraction(-924, 5))}
    code, report = run_cli(tmp_path, req)
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"]["p"] == ["273375/1568"]
    assert report["result"]["case"] == "g=5, I_2 = 0"
    assert report["provenance"]["fixture"] == "1"


@pytest.mark.xfail(strict=True,
                   reason="published value for the genus-4 fixture curve is not "
                          "recomputable (see notes); the CLI reports the domain error")
def test_classify_genus4_published_example(tmp_path):
    from hyperinv import rational_model
    from hyperinv.serialize import form_to_json
    req = {"command": "classify", "payload": form_to_json(rational_model(4), genus=4)}
    code, report = run_cli(tmp_path, req)
    assert code == 0 and report["result"]["p"] == ["1764/25"]


def test_classify_genus4_error_path(tmp_path):
    from hyperinv import rational_model
    from hyperinv.serialize import form_to_json
    req = {"command": "classify", "payload": form_to_json(rational_model(4), genus=4)}
    code, report = run_cli(tmp_path, req)
    assert code == 1
    assert report["status"] == "error"
    assert report["error"]["name"] == "UndefinedInvariantError"


def test_dihedral_example_curve(tmp_path):
    req = {"command": "dihedral",
           "payload": {"case": 1, "n": 2, "genus": 5,
                       "coeffs": ["-1", "-33", "2", "-33", "-1"]}}
    code, report = run_cli(tmp_path, req)
    assert code == 0
    assert report["result"]["u"] == ["2", "-66", "-4", "-66", "2"]
    # delta = 0 normal forms have no coefficient and no invariant
    for case, n in ((1, 6), (2, 5)):
        req = {"command": "dihedral",
               "payload": {"case": case, "n": n, "genus": 2, "coeffs": []}}
        code, report = run_cli(tmp_path, req)
        assert (code, report["status"], report["result"]) == (0, "ok", {"u": []})


def test_reconstruct_answers_delta_zero_rows(tmp_path):
    # the one normal form of a delta = 0 row is what dihedral's "u": [] names
    for case, n in ((1, 6), (2, 5), (3, 4)):
        req = {"command": "reconstruct",
               "payload": {"u": [], "case": case, "n": n, "genus": 2}}
        code, report = run_cli(tmp_path, req)
        assert (code, report["status"], report["result"]["coeffs"]) == (0, "ok", [])


@pytest.mark.parametrize("command,payload", [
    ("dihedral", {"case": 1, "n": 2, "genus": 1, "coeffs": ["3"]}),
    ("reconstruct", {"u": ["18"], "case": 1, "n": 2, "genus": 1}),
    ("dihedral", {"case": 3, "n": 2, "genus": -1, "coeffs": []}),
])
def test_normal_forms_below_genus_two_exit_1(tmp_path, command, payload):
    code, report = run_cli(tmp_path, {"command": command, "payload": payload})
    assert (code, report["status"], report["error"]["name"]) == (1, "error", "ConstraintError")
    assert report["error"]["message"] == f"genus must be >= 2, got {payload['genus']}"


def test_invariants_rejects_odd_degree(tmp_path):
    req = {"command": "invariants",
           "payload": {"degree": 5, "ring": "Q",
                       "coeffs": ["1", "0", "0", "0", "0", "1"]}}
    code, report = run_cli(tmp_path, req)
    assert code == 1
    assert report["status"] == "error"
    assert "degree" in report["error"]["message"]


def test_invariants_and_absolute_keys(tmp_path):
    req = {"command": "invariants", "payload": form_payload(5, 2)}
    code, report = run_cli(tmp_path, req)
    assert code == 0
    inv = report["result"]["invariants"]
    assert set(inv) == {"I2", "I3", "I4", "I4p", "I6", "I6p", "I6star_ast",
                        "I12", "I6star", "I12ast"}
    assert inv["I4"] == "0"
    assert inv["I6star"] is None
    absolute = report["result"]["absolute"]
    assert set(absolute) == {"i1", "i2", "i3", "j1", "j2", "s1", "s2",
                             "v1", "v2", "v3", "v4", "v5"}


def test_vanishing_command(tmp_path):
    req = {"command": "vanishing", "payload": form_payload(8, 3)}
    code, report = run_cli(tmp_path, req)
    assert code == 0
    assert report["result"]["profile"] == [{"invariant": "I4", "vanishes": True}]


def test_invariants_over_parameter_ring(tmp_path):
    from hyperinv import Poly, rational_model
    from hyperinv.serialize import form_to_json
    payload = form_to_json(rational_model(5, Poly.x()), genus=5)
    assert payload["ring"] == "Q[mu]"
    code, report = run_cli(tmp_path, {"command": "invariants", "payload": payload})
    assert code == 0
    inv = report["result"]["invariants"]
    assert inv["I4"] == "0"                           # identically zero in mu
    # I2(mu) = (32/5) mu^3 + (8/231) mu^4: zero exactly at mu = 0 and the
    # special parameter -924/5 where the classifier changes branch
    assert inv["I2"] == ["0", "0", "0", "32/5", "8/231"]
    absolute = report["result"]["absolute"]
    assert set(absolute["i1"]) == {"num", "den"}      # rational function of mu


def test_model_reconstruct_recover_pipeline(tmp_path):
    code, model = run_cli(tmp_path, {"command": "model",
                                     "payload": {"genus": 9, "mu": "4/3"}})
    assert code == 0
    assert model["result"]["degree"] == 20

    code, rec = run_cli(tmp_path, {
        "command": "reconstruct",
        "payload": {"u": ["2", "-66", "-4", "-66", "2"], "case": 1, "n": 2, "genus": 5}})
    assert code == 0
    assert rec["result"]["coeffs"] == ["1", "-33", "-2", "-33", "1"]

    code, got = run_cli(tmp_path, {
        "command": "recover", "payload": {"genus": 9, "p": ["1", "1"]}})
    assert code == 1
    assert got["error"]["name"] == "OffLocusError"


def test_recover_rejects_mu_zero_where_the_model_is_no_curve(tmp_path):
    # (1/270, 0) is what the genus-5 table gives at mu = 0, where the model is X^12
    code, report = run_cli(tmp_path, {"command": "recover",
                                      "payload": {"genus": 5, "p": ["1/270", "0"]}})
    assert code == 1
    assert report["error"]["name"] == "OffLocusError"


def test_recover_refuses_the_published_genus9_constant(tmp_path):
    # the published special value, wrong in sign; mu = -836/3 gives 2187/309760
    code, report = run_cli(tmp_path, {"command": "recover",
                                      "payload": {"genus": 9, "p": ["-309760/2187"]}})
    assert code == 1
    assert report["error"]["name"] == "OffLocusError"


def test_recover_round_trip_via_cli(tmp_path):
    from hyperinv import locus_parametrization
    point = locus_parametrization(9, Fraction(7, 2))
    p = [f"{v.numerator}/{v.denominator}" for v in point.values]
    code, report = run_cli(tmp_path, {"command": "recover",
                                      "payload": {"genus": 9, "p": p}})
    assert code == 0
    assert report["result"]["mu"] == "7/2"


def test_recover_extracts_roots_of_any_height(tmp_path):
    # a genus-9 table whose fiber over (0, 0) is c(mu), a cubic with roots
    # of height above 10^13
    from hyperinv import Poly
    mu = Poly.x()
    roots = (Fraction(5), Fraction(10 ** 13 + 7), Fraction(-3, 10 ** 13))
    c = (mu - roots[0]) * (mu - roots[1]) * (mu - roots[2])

    def mutate(raw):
        raw["genera"]["9"].update(
            p1={"num": [str(v) for v in c.coeffs], "den": ["1"]},
            p2={"num": [str(v) for v in (mu * c).coeffs], "den": ["1"]},
            special_values=[])

    path = tmp_path / "table.json"
    path.write_text(json.dumps(_fixture_with(mutate)))
    code, report = run_cli(tmp_path, {"command": "recover",
                                      "payload": {"genus": 9, "p": ["0", "0"]}},
                           "--fixture", str(path))
    assert code == 0, report
    assert sorted(map(Fraction, report["result"]["all"])) == sorted(roots)


def test_catalogue_command(tmp_path):
    code, report = run_cli(tmp_path, {
        "command": "catalogue", "payload": {"group": "Z2xA4", "genus": 5}})
    assert code == 0
    assert report["result"] == {"group": "Z2xA4", "delta": 1,
                                "signature": ["3^8", "3^8", "2^12", "2^12"],
                                "involutions": 7}


def test_verify_locus_commands(tmp_path):
    code, report = run_cli(tmp_path, {"command": "verify-locus", "payload": {"genus": 5}})
    assert code == 0
    names = {c["name"]: c["status"] for c in report["result"]["checks"]}
    assert names["parametrization-first-component"] == "pass"
    assert names["locus-equation-residual"] == "pass"

    code, report = run_cli(tmp_path, {"command": "verify-locus", "payload": {"genus": 6}})
    assert code == 1
    assert report["error"]["name"] == "GenusError"


def test_verify_locus_reports_documented_mismatches(tmp_path):
    code, report = run_cli(tmp_path, {"command": "verify-locus", "payload": {"genus": 12}})
    assert code == 0
    checks = {c["name"]: c for c in report["result"]["checks"]}
    assert checks["transcription-status"]["status"] == "recomputed-differs"
    assert "exponent" in checks["transcription-status"]["detail"]
    assert checks["parametrization-second-component"]["status"] == "pass"

    code, report9 = run_cli(tmp_path, {"command": "verify-locus", "payload": {"genus": 9}})
    assert code == 0
    names = {c["name"]: c for c in report9["result"]["checks"]}
    assert names["special-value(mu=-836/3)"]["status"] == "recomputed-differs"


@pytest.mark.parametrize("payload, code, name", [
    ({"genus": 3}, 1, "GenusError"),
    ({"genus": 3, "mu": "3"}, 1, "GenusError"),
    ({"genus": 5}, 2, "InputError"),
    ({"genus": 5, "mu": "3", "variant": "printed"}, 2, "InputError"),
    ({"genus": 4, "variant": "printed"}, 2, "InputError"),
])
def test_model_admits_the_genus_before_reading_mu_and_variant(payload, code, name):
    # the answer's class depends on the genus alone, whether or not mu is sent
    got, out, _ = call_main([{"command": "model", "payload": payload}], "--batch")
    assert got == code
    assert json.loads(out)[0]["error"]["name"] == name


def _invalid(message):
    return 2, {"status": "invalid", "error": {"name": "InputError", "message": message}}


@pytest.mark.parametrize("request_, code, report", [
    ({"command": "model", "payload": {"family": "table2", "genus": 7,
                                      "lambdas": [["1", "2", "0", "0"]]}},
     0, {"status": "ok", "result": {"coeffs": [
         ["1", "0", "0", "0"], "0", ["-1", "-2", "0", "2"], "0", ["-32", "0", "4", "-2"], "0",
         ["1", "2", "0", "-66"], "0", ["-66", "0", "-8", "4"], "0", ["1", "2", "0", "-66"], "0",
         ["-32", "0", "4", "-2"], "0", ["-1", "-2", "0", "2"], "0", ["1", "0", "0", "0"]],
         "degree": 16, "genus": 7, "ring": "Qi_sqrt3"}}),
    ({"command": "classify", "payload": {"degree": 2, "ring": "Q", "coeffs": ["1", "0", "1"]}},
     *_invalid("classify needs the form's genus")),
    ({"command": "model", "payload": {"family": "table3", "genus": 7}},
     *_invalid("unknown model family 'table3'")),
    ({"command": "recover", "payload": {"genus": 5, "p": ["1", "2", "3"]}},
     *_invalid("p must be an array of one or two rational strings")),
])
def test_model_classify_and_recover_reports(request_, code, report):
    got, out, err = call_main([request_], "--batch")
    (answer,) = json.loads(out)
    del answer["provenance"]
    assert (got, err, answer) == (code, "", report)


def test_malformed_json_exit_2(tmp_path, capsys):
    inp = tmp_path / "in.json"
    inp.write_text('{"command": "classify", ')
    code = main(["--input", str(inp)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_command_exit_2(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "solve", "payload": {}})
    assert code == 2


def test_missing_payload_field_exit_2(tmp_path):
    code, _ = run_cli(tmp_path, {"command": "dihedral", "payload": {"case": 1}})
    assert code == 2


def test_batch_order_and_determinism(tmp_path):
    reqs = [
        {"command": "catalogue", "payload": {"group": "SL2(3)", "genus": 8}},
        {"command": "classify", "payload": form_payload(5, Fraction(-924, 5))},
        {"command": "invariants",
         "payload": {"degree": 5, "ring": "Q", "coeffs": ["1", "0", "0", "0", "0", "1"]}},
    ]
    code1, out1 = run_cli(tmp_path, reqs, "--batch")
    code2, out2 = run_cli(tmp_path, reqs, "--batch")
    assert code1 == code2 == 1          # worst status in the batch is a domain error
    assert [r["status"] for r in out1] == ["ok", "ok", "error"]

    def strip(reports):
        for r in reports:
            r = dict(r)
            r["provenance"] = {k: v for k, v in r["provenance"].items() if k != "wall_ms"}
            yield r
    assert list(strip(out1)) == list(strip(out2))


def test_reports_reparse_under_schema(tmp_path):
    # every ok-result must re-parse through the public decoders
    from hyperinv.serialize import form_from_json
    code, model = run_cli(tmp_path, {"command": "model",
                                     "payload": {"genus": 5, "mu": "-2/7"}})
    assert code == 0
    form, genus = form_from_json(model["result"])
    assert genus == 5 and form.degree == 12

    code, rec = run_cli(tmp_path, {
        "command": "reconstruct",
        "payload": {"u": ["2", "-66", "-4", "-66", "2"], "case": 1, "n": 2, "genus": 5}})
    from hyperinv.serialize import normal_form_from_json
    nf = normal_form_from_json(rec["result"])
    assert nf.genus == 5


def test_empty_batch(tmp_path):
    code, out = run_cli(tmp_path, [], "--batch")
    assert code == 0
    assert out == []


def test_pretty_output(tmp_path):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps({"command": "catalogue",
                               "payload": {"group": "Z2xA4", "genus": 5}}))
    assert main(["--input", str(inp), "--output", str(out), "--pretty"]) == 0
    assert out.read_text().count("\n") > 3


_U = ["2", "-66", "-4", "-66", "2"]
_G5 = {"degree": 12, "ring": "Q", "genus": 5, "coeffs": ["1"] + ["0"] * 11 + ["1"]}
_CATALOGUE = {"command": "catalogue", "payload": {"group": "Z2xA4", "genus": 5}}


@pytest.mark.parametrize("request_", [
    {"command": "recover", "payload": {"genus": 9, "p": ["1/0", "2"]}},
    {"command": "recover", "payload": {"genus": 9, "p": ["abc", "2"]}},
    {"command": "recover", "payload": {"genus": 9, "p": [[]]}},
    {"command": "model", "payload": {"genus": 5, "mu": "x"}},
    {"command": "model", "payload": {"genus": 5, "mu": "1/0"}},
    {"command": "model", "payload": {"genus": 10, "family": "table2", "lambdas": [5]}},
    {"command": "catalogue", "payload": {"group": "Z2n", "genus": 5, "n": "3"}},
    {"command": "catalogue", "payload": {"group": "Z2n", "genus": 5, "n": []}},
    {"command": "catalogue", "payload": {"group": "Z2n", "genus": 5, "n": {}}},
    {"command": "catalogue", "payload": {"group": "Z2n", "genus": 5, "n": False}},
    {"command": "catalogue", "payload": {"group": "Z2xA4", "genus": True}},
    {"command": "reconstruct", "payload": {"u": _U, "case": 1, "n": "Z2xA4", "genus": 5}},
    {"command": "reconstruct", "payload": {"u": _U, "case": "1", "n": 2, "genus": 5}},
    {"command": "classify", "payload": {**_G5, "coeffs": ["1/0"] + _G5["coeffs"][1:]}},
])
def test_malformed_field_exits_2_with_one_line(request_):
    code, out, err = call_main(request_)
    assert (code, out) == (2, "")
    assert err.startswith("malformed request: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 100_000, '{"n": ' + "9" * 5000 + "}"],
                         ids=["deep-nesting", "5000-digit-integer"])
def test_unparsable_json_exits_2_with_one_line(text):
    code, out, err = call_main(text)
    assert (code, out) == (2, "")
    assert err.startswith("malformed JSON") and err.count("\n") == 1


#: a 2 KB request whose dihedral invariants have 6,000-digit integers
_HUGE_OUTPUT = {"command": "dihedral", "payload": {
    "case": 1, "n": 2, "genus": 5, "coeffs": ["7" * 1000, "3", "5", "3", "7" * 1000]}}
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no integer-to-text digit limit")


@needs_digit_limit
def test_integer_past_the_digit_limit_is_a_domain_error():
    code, out, err = call_main(_HUGE_OUTPUT)
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["name"] == "OutputSizeError"
    assert "6000 decimal digits" in error["message"]
    # an over-long input integer is still malformed input
    code, out, err = call_main({"command": "dihedral", "payload": {
        **_HUGE_OUTPUT["payload"], "coeffs": ["7" * 5000, "3", "5", "3", "7"]}})
    assert (code, out) == (2, "") and err.count("\n") == 1


@needs_digit_limit
def test_integer_past_the_digit_limit_keeps_the_other_batch_reports():
    code, out, err = call_main([_CATALOGUE, _HUGE_OUTPUT], "--batch")
    assert (code, err) == (1, "")
    reports = json.loads(out)
    assert [r["status"] for r in reports] == ["ok", "error"]
    assert reports[0]["result"]["involutions"] == 7
    assert reports[1]["error"]["name"] == "OutputSizeError"


#: a 6 KB request whose z-roots have about 4,500 digits, past the digit limit,
#: while its inputs and its answer a = (1 - x, x) stay under it
_X = 10 ** 1500 + 7
_ROOTS_PAST_THE_LIMIT = {"command": "reconstruct", "payload": {
    "u": [str(_X ** 3 - (_X - 1) ** 3), str(-2 * _X * (_X - 1))],
    "case": 1, "n": 2, "genus": 2}}


def test_reconstruct_orders_roots_past_the_digit_limit():
    code, out, err = call_main(_ROOTS_PAST_THE_LIMIT)
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["coeffs"] == [str(1 - _X), str(_X)]
    code, out, err = call_main([_CATALOGUE, _ROOTS_PAST_THE_LIMIT], "--batch")
    assert (code, err) == (0, "")
    reports = json.loads(out)
    assert [r["status"] for r in reports] == ["ok", "ok"]
    assert reports[1]["result"] == result


def test_unreadable_input_and_unwritable_output_exit_2(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"command": "\xff"}')
    code, out, err = call_main("", "--input", str(bad))
    assert (code, out) == (2, "") and err.startswith("cannot read input")
    code, out, err = call_main(_CATALOGUE, "--output", str(tmp_path / "no" / "out.json"))
    assert (code, out) == (2, "") and err.startswith("cannot write output")


@pytest.mark.parametrize("payload", [
    {"group": "SL2(3)", "genus": -2},
    {"group": "Z2n", "genus": 1, "n": 3},
    {"group": "Z2xZn", "genus": 10 ** 18, "n": 2},
])
def test_genus_outside_the_group_table_is_a_domain_error(payload):
    code, out, _ = call_main({"command": "catalogue", "payload": payload})
    assert code == 1
    assert json.loads(out)["error"]["name"] == "ConstraintError"


def test_cyclic_order_below_two_is_a_domain_error():
    for n in (-1, 0, 1):
        code, out, _ = call_main({"command": "catalogue",
                                  "payload": {"group": "Z2n", "genus": 5, "n": n}})
        assert code == 1
        assert json.loads(out)["error"]["name"] == "ConstraintError"


def test_batch_reports_invalid_members_in_place():
    code, out, err = call_main([_CATALOGUE, {"command": "solve", "payload": {}}, 7,
                                {"command": "recover", "payload": {"genus": True, "p": ["1"]}}],
                               "--batch")
    assert code == 2 and err == ""
    reports = json.loads(out)
    assert [r["status"] for r in reports] == ["ok", "invalid", "invalid", "invalid"]
    assert reports[0]["result"]["involutions"] == 7
    for report in reports[1:]:
        assert report["error"]["name"] == "InputError"
        assert report["provenance"]["fixture"] == "1"

    code, out, err = call_main(_CATALOGUE, "--batch")            # not an array
    assert (code, out) == (2, "") and err.count("\n") == 1


def _fixture_with(mutate):
    from importlib import resources
    raw = json.loads(resources.files("hyperinv").joinpath("data/locus_table.json").read_text())
    mutate(raw)
    return raw


@pytest.mark.parametrize("mutate", [
    lambda raw: raw["genera"]["5"]["p1"]["num"].__setitem__(0, "1/0"),
    lambda raw: raw["genera"]["5"]["p1"]["num"].__setitem__(0, 3),
    lambda raw: raw.__setitem__("genera", []),
    lambda raw: raw["genera"]["5"].__setitem__("p1", "x"),
    lambda raw: raw["genera"]["7"]["special_condition"].pop("point_relation"),
    lambda raw: raw["genera"]["10"]["degenerate_branch"].pop("note"),
    lambda raw: raw["genera"]["10"]["degenerate_branch"].__setitem__("condition_factors", "x"),
], ids=["zero-denominator", "int-leaf", "genera-array", "p1-string",
        "condition-without-relation", "branch-without-note", "factors-string"])
def test_malformed_fixture_exits_2_with_one_line(tmp_path, mutate):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_fixture_with(mutate)))
    code, out, err = call_main(_CATALOGUE, "--fixture", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("cannot load fixture: ") and err.count("\n") == 1


# Valid, cheap requests (genus <= 5, verify-locus at genus 4 only) to mutate.
_FUZZ_SEEDS = [
    {"command": "invariants", "payload": _G5},
    {"command": "classify", "payload": {**_G5, "coeffs": ["1", "0", "-2"] + ["0"] * 9 + ["1"]}},
    {"command": "vanishing", "payload": _G5},
    {"command": "dihedral", "payload": {"case": 1, "n": 2, "genus": 5, "ring": "Q",
                                        "coeffs": ["-1", "-33", "2", "-33", "-1"]}},
    {"command": "reconstruct", "payload": {"u": _U, "case": 1, "n": 2, "genus": 5}},
    {"command": "model", "payload": {"genus": 5, "mu": "4/3", "variant": "display"}},
    {"command": "model", "payload": {"genus": 5, "family": "table2",
                                     "lambdas": [["3", "1", "0", "1/2"]]}},
    {"command": "recover", "payload": {"genus": 5, "p": ["1", "1"]}},
    {"command": "verify-locus", "payload": {"genus": 4}},
    _CATALOGUE,
    {"command": "catalogue", "payload": {"group": "Z2n", "genus": 5, "n": 11}},
]
_SWAPS = [True, False, None, 0, 1, -1, 3, 1.5, "", "x", "3", "1/0", [], ["1"], {}, {"n": 2}]


def _spots(container):
    """Every (container, key) slot in a JSON value."""
    keys = container.keys() if isinstance(container, dict) else range(len(container))
    for key in list(keys):
        yield container, key
        if isinstance(container[key], (dict, list)):
            yield from _spots(container[key])


@st.composite
def mutated_requests(draw):
    """A valid request with one or two slots dropped or swapped for another JSON value."""
    holder = [copy.deepcopy(draw(st.sampled_from(_FUZZ_SEEDS)))]
    for _ in range(draw(st.integers(1, 2))):
        container, key = draw(st.sampled_from(list(_spots(holder))))
        if container is not holder and draw(st.booleans()):
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
    return holder[0]


def _assert_cli_contract(request_, batch):
    code, out, err = call_main([request_] if batch else request_, *["--batch"] * batch)
    assert code in (0, 1, 2)
    if code == 2 and not batch:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    else:
        reports = json.loads(out)
        report, = reports if batch else [reports]
        assert {"ok": 0, "error": 1, "invalid": 2}[report["status"]] == code
        assert err == ""


@settings(max_examples=400)
@given(mutated_requests(), st.booleans())
def test_fuzzed_requests_keep_the_cli_contract(request_, batch):
    _assert_cli_contract(request_, batch)


_BIG = st.integers(-10 ** 18, 10 ** 18)
_JSON = st.recursive(
    st.none() | st.booleans() | _BIG | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)
_FREE_FORM = (
    _JSON
    | st.fixed_dictionaries({"command": st.sampled_from(COMMANDS) | st.text(max_size=6),
                             "payload": _JSON})
    | st.fixed_dictionaries({"command": st.just("catalogue"), "payload": st.fixed_dictionaries(
        {"group": st.sampled_from(["Z2xZn", "Z2n", "Z2xA4", "SL2(3)", "Q8"]), "genus": _BIG},
        optional={"n": _BIG | _JSON})}))


@settings(max_examples=200)
@given(_FREE_FORM, st.booleans())
def test_free_form_json_keeps_the_cli_contract(request_, batch):
    _assert_cli_contract(request_, batch)


def test_reconstruct_t2_answers_over_q_i_sqrt3(tmp_path):
    req = {"command": "reconstruct", "payload": {"u": ["6"], "case": 1, "n": 3, "genus": 2}}
    code, report = run_cli(tmp_path, req)
    assert (code, report["result"]["ring"]) == (0, "Qi_sqrt3")
    assert report["result"]["coeffs"] == [["0", "0", "1", "0"]]
    code, report = run_cli(tmp_path, {"command": "dihedral", "payload": report["result"]})
    assert (code, report["result"]) == (0, {"u": [["6", "0", "0", "0"]]})

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperinv import BinaryForm, Cyclo, InputError, Poly, RatFunc
from hyperinv.serialize import (form_from_json, form_to_json,
                                normal_form_from_json, normal_form_to_json,
                                scalar_from_json, scalar_to_json)

from conftest import rationals


def test_scalar_encodings():
    assert scalar_to_json(Fraction(-7, 3)) == "-7/3"
    assert scalar_to_json(Cyclo(1, Fraction(1, 2), 0, -2)) == ["1", "1/2", "0", "-2"]
    assert scalar_to_json(Poly((Fraction(1), Fraction(0), Fraction(3)))) == ["1", "0", "3"]
    rf = RatFunc(Poly.x() ** 2 + 1, Poly.x())
    assert scalar_to_json(rf) == {"num": ["1", "0", "1"], "den": ["0", "1"]}


@settings(max_examples=60)
@given(rationals())
def test_rational_round_trip(q):
    assert scalar_from_json(scalar_to_json(q), "Q") == q


@settings(max_examples=60)
@given(rationals(), rationals(), rationals(), rationals())
def test_cyclo_round_trip(a, b, c, d):
    x = Cyclo(a, b, c, d)
    assert scalar_from_json(scalar_to_json(x), "Qi_sqrt3") == x


@settings(max_examples=60)
@given(st.lists(rationals(), max_size=5))
def test_poly_round_trip(cs):
    p = Poly(cs)
    assert scalar_from_json(scalar_to_json(p), "Q[mu]") == p


def test_form_round_trips_across_rings():
    over_q = BinaryForm(4, tuple(Fraction(k) for k in (1, -2, 0, 5, 7)))
    obj = form_to_json(over_q, genus=1)
    assert obj["ring"] == "Q"
    back, genus = form_from_json(obj)
    assert back == over_q and genus == 1

    over_c = BinaryForm(2, (Cyclo(1), Cyclo.i(), Cyclo(0, 0, 0, 2)))
    obj = form_to_json(over_c)
    assert obj["ring"] == "Qi_sqrt3"
    back, _ = form_from_json(obj)
    assert back == over_c

    mu = Poly.x()
    over_p = BinaryForm(2, (mu, Poly.constant(Fraction(1)), 3 * mu ** 2))
    obj = form_to_json(over_p)
    assert obj["ring"] == "Q[mu]"
    back, _ = form_from_json(obj)
    assert back == over_p
    json.dumps(obj)  # everything JSON-native


def test_form_payload_validation():
    with pytest.raises(InputError):
        form_from_json({"degree": 2, "ring": "Q"})                 # missing coeffs
    with pytest.raises(InputError):
        form_from_json({"degree": 2, "ring": "Q", "coeffs": ["1"]})
    with pytest.raises(InputError):
        form_from_json({"degree": 3, "ring": "Q", "genus": 1,
                        "coeffs": ["1", "0", "0", "1"]})           # genus/degree clash
    with pytest.raises(InputError):
        form_from_json({"degree": 0, "ring": "Z5", "coeffs": ["1"]})
    with pytest.raises(InputError):
        scalar_from_json("x+1", "Q")
    with pytest.raises(InputError):
        form_from_json({"degree": True, "ring": "Q", "coeffs": ["1", "1"]})  # a bool is no int
    with pytest.raises(InputError):
        form_from_json({"degree": 4, "ring": "Q", "genus": True,
                        "coeffs": ["1", "0", "0", "0", "1"]})
    with pytest.raises(InputError):
        normal_form_from_json({"case": "1", "n": 2, "genus": 5,
                               "coeffs": ["-1", "-33", "2", "-33", "-1"]})
    with pytest.raises(InputError):
        normal_form_from_json(["case", 1])


def test_normal_form_round_trip():
    obj = {"case": 1, "n": 2, "genus": 5,
           "coeffs": ["-1", "-33", "2", "-33", "-1"]}
    nf = normal_form_from_json(obj)
    again = normal_form_to_json(nf)
    assert again["coeffs"] == obj["coeffs"]
    assert normal_form_from_json(again) == nf

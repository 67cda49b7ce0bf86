"""The operators every exact value type derives from its own ring operations,
and the immutability the four value types share, pinned by repr or value."""

import re
from fractions import Fraction

import pytest

from hyperinv.cyclic import SignatureRow
from hyperinv.errors import ExactDivisionError
from hyperinv.forms import BinaryForm
from hyperinv.loci import SpecialValue
from hyperinv.polynomials import Poly, RatFunc
from hyperinv.record import Record
from hyperinv.scalars import Cyclo

HALF = Fraction(1, 2)


def _cyclo():
    return Cyclo(1, 2, 0, -1)


def _ratfunc():
    return RatFunc(Poly.x(), Poly((Fraction(1), Fraction(3))))


# value -> reprs of x - 1, 1 - x, x - 1/2 and 1/2 - x, as the parent printed them
SUBTRACTION = {
    "Cyclo": (_cyclo, (
        "Cyclo(Fraction(0, 1), Fraction(2, 1), Fraction(0, 1), Fraction(-1, 1))",
        "Cyclo(Fraction(0, 1), Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1))",
        "Cyclo(Fraction(1, 2), Fraction(2, 1), Fraction(0, 1), Fraction(-1, 1))",
        "Cyclo(Fraction(-1, 2), Fraction(-2, 1), Fraction(0, 1), Fraction(1, 1))")),
    "Poly": (Poly.x, (
        "Poly([Fraction(-1, 1), Fraction(1, 1)])",
        "Poly([Fraction(1, 1), Fraction(-1, 1)])",
        "Poly([Fraction(-1, 2), Fraction(1, 1)])",
        "Poly([Fraction(1, 2), Fraction(-1, 1)])")),
    "RatFunc": (_ratfunc, (
        "RatFunc(Poly([Fraction(-1, 3), Fraction(-2, 3)]), Poly([Fraction(1, 3), Fraction(1, 1)]))",
        "RatFunc(Poly([Fraction(1, 3), Fraction(2, 3)]), Poly([Fraction(1, 3), Fraction(1, 1)]))",
        "RatFunc(Poly([Fraction(-1, 6), Fraction(-1, 6)]), Poly([Fraction(1, 3), Fraction(1, 1)]))",
        "RatFunc(Poly([Fraction(1, 6), Fraction(1, 6)]), Poly([Fraction(1, 3), Fraction(1, 1)]))")),
}

# value -> x / 2 and 2 / x, and the message of division by zero.  Compared by
# value: a quotient's untouched zero coefficient may be the int 0 or
# Fraction(0), which are equal and hash alike.
DIVISION = {
    "Cyclo": (_cyclo, Cyclo(0), "inverse of zero in Q(i, sqrt3)", (
        Cyclo(HALF, 1, 0, -HALF), Cyclo(1, -HALF, HALF, 0))),
    "RatFunc": (_ratfunc, RatFunc(0), "division by the zero rational function", (
        RatFunc(Poly((0, Fraction(1, 6))), Poly((Fraction(1, 3), 1))),
        RatFunc(Poly((2, 6)), Poly((0, 1))))),
}

VALUES = {
    "Cyclo": _cyclo,
    "Poly": Poly.x,
    "RatFunc": _ratfunc,
    "BinaryForm": lambda: BinaryForm(2, (1, HALF, 0)),
}


@pytest.mark.parametrize("name", SUBTRACTION)
def test_subtraction_in_both_directions(name):
    make, expected = SUBTRACTION[name]
    x = make()
    assert tuple(map(repr, (x - 1, 1 - x, x - HALF, HALF - x))) == expected
    assert x - x == 0 and not (x - x)


@pytest.mark.parametrize("name", DIVISION)
def test_division_in_both_directions(name):
    make, zero, message, expected = DIVISION[name]
    x = make()
    assert (x / 2, 2 / x) == expected
    assert all(type(q) is type(x) for q in (x / 2, 2 / x))
    assert x / x == 1 and (x / 2) * 2 == x
    for divide in (lambda: x / zero, lambda: 1 / zero, lambda: zero / zero):
        with pytest.raises(ExactDivisionError, match=re.escape(message)):
            divide()


def test_polynomials_have_no_division():
    x = Poly.x()
    for divide in (lambda: x / 2, lambda: 2 / x, lambda: x / x,
                   lambda: x / HALF, lambda: HALF / x):
        with pytest.raises(TypeError):
            divide()


def test_mixed_ring_subtraction_lifts_the_smaller_ring():
    x = Poly.x()
    assert repr(Cyclo(1, 1) - x) == (
        "Poly([Cyclo(Fraction(1, 1), Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)), "
        "Fraction(-1, 1)])")
    assert repr(x - Cyclo(0, 1)) == (
        "Poly([Cyclo(Fraction(0, 1), Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1)), "
        "Fraction(1, 1)])")
    assert x - _ratfunc() == RatFunc(Poly((0, 0, 1)), Poly((Fraction(1, 3), 1)))


def test_binary_form_subtraction():
    f = BinaryForm(2, (1, HALF, 0))
    g = BinaryForm(2, (0, 1, Poly.x()))
    assert repr(f - g) == (
        "BinaryForm(2, [1, Fraction(-1, 2), Poly([Fraction(0, 1), Fraction(-1, 1)])])")
    assert (f - f).is_zero
    with pytest.raises(ValueError, match="different degrees"):
        f - BinaryForm(1, (1, 2))
    for bad in (lambda: f - 1, lambda: 1 - f, lambda: f - HALF):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("name", VALUES)
def test_values_reject_assignment(name):
    x = VALUES[name]()
    before = repr(x)
    slot = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, slot, 0)
    with pytest.raises(AttributeError):
        setattr(x, "extra", 0)
    assert repr(x) == before


@pytest.mark.parametrize("name", VALUES)
def test_values_reject_deletion(name):
    x = VALUES[name]()
    before = repr(x)
    for slot in type(x).__slots__:
        with pytest.raises(AttributeError):
            delattr(x, slot)
    with pytest.raises(AttributeError):
        delattr(x, "extra")
    assert repr(x) == before


def test_values_and_records_carry_no_instance_dict():
    records = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("hyperinv.")]
    assert len(records) == 12
    for cls in [Cyclo, Poly, RatFunc, BinaryForm, *records]:
        assert cls.__dictoffset__ == 0, cls.__name__
    for make in VALUES.values():
        assert not hasattr(make(), "__dict__")
    row = SignatureRow("Z2n", 4, ("2^4",), 1)
    assert not hasattr(row, "__dict__")
    # a class attribute named like a field is still that field's default
    assert SpecialValue(Fraction(1), Fraction(2), None, "verified", "g=5").note == ""

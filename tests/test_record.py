"""The frozen record type behind the twelve result classes, and the import
cost it exists to avoid."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hyperinv
from hyperinv.catalogue import AbsoluteInvariants, InvariantSet, ModuliPoint
from hyperinv.cyclic import (GROUP_ROWS, CyclicNormalForm, DihedralInvariants,
                             SignatureRow, signature_row)
from hyperinv.forms import BinaryForm, Covariant
from hyperinv.loci import CubicConstraint, LocusEntry, LocusTable, SpecialValue
from hyperinv.polynomials import Poly, RatFunc
from hyperinv.record import Record
from hyperinv.scalars import Cyclo

# class name -> (a factory for one instance, its repr as the dataclass and
# NamedTuple versions of these classes printed it)
INSTANCES = {
    "InvariantSet": (
        lambda: InvariantSet(degree=4, I2=Fraction(1, 2), I3=Fraction(0)),
        "InvariantSet(degree=4, I2=Fraction(1, 2), I3=Fraction(0, 1), I4=None, I4p=None, "
        "I6=None, I6p=None, I6star_ast=None, I12=None, I6star=None, I12ast=None)"),
    "AbsoluteInvariants": (
        lambda: AbsoluteInvariants(degree=6, i1=Fraction(-3, 4),
                                   reasons={"v5": "requires I6star, undefined for degree 6"}),
        "AbsoluteInvariants(degree=6, i1=Fraction(-3, 4), i2=None, i3=None, j1=None, j2=None, "
        "s1=None, s2=None, v1=None, v2=None, v3=None, v4=None, v5=None, "
        "reasons={'v5': 'requires I6star, undefined for degree 6'})"),
    "ModuliPoint": (
        lambda: ModuliPoint(genus=5, case_tag="g=5, I_2 != 0",
                            values=(Fraction(1, 3), Fraction(-2))),
        "ModuliPoint(genus=5, case_tag='g=5, I_2 != 0', "
        "values=(Fraction(1, 3), Fraction(-2, 1)))"),
    "Covariant": (
        lambda: Covariant(form=BinaryForm(2, (1, 0, Fraction(1, 2))),
                          degree_p=1, order_m=2, index_s=0),
        "Covariant(form=BinaryForm(2, [1, 0, Fraction(1, 2)]), "
        "degree_p=1, order_m=2, index_s=0)"),
    "CyclicNormalForm": (
        lambda: CyclicNormalForm(case=1, n=3, genus=5, coeffs=(Fraction(2), 1, Fraction(-1, 2))),
        "CyclicNormalForm(case=1, n=3, genus=5, coeffs=(Fraction(2, 1), 1, Fraction(-1, 2)))"),
    "DihedralInvariants": (
        lambda: DihedralInvariants((Fraction(2), Fraction(-66))),
        "DihedralInvariants(values=(Fraction(2, 1), Fraction(-66, 1)))"),
    "SignatureRow": (
        lambda: signature_row("Z2n", 7, 3),
        "SignatureRow(group='Z2n', delta=4, "
        "signature=('3^2', '6^1', '2^3', '2^3', '2^3', '2^3', '2^3'), involutions=1)"),
    "GroupRow": (
        lambda: GROUP_ROWS["SL2(3)", 2],
        "GroupRow(c=2, prefix=('4^6', '3^8', '3^8'), repeated='2^12', excluded=(0,), "
        "involutions=1, prefactor=((0, -1, 0, 0, 0, 1),))"),
    "CubicConstraint": (
        lambda: CubicConstraint(genus=7, case_tag="g=7, I_3 = 0",
                                parameter_poly=Poly((Fraction(1), Fraction(0), Fraction(3))),
                                relation=Poly((Fraction(-1), Fraction(2)))),
        "CubicConstraint(genus=7, case_tag='g=7, I_3 = 0', "
        "parameter_poly=Poly([Fraction(1, 1), Fraction(0, 1), Fraction(3, 1)]), "
        "relation=Poly([Fraction(-1, 1), Fraction(2, 1)]))"),
    "SpecialValue": (
        lambda: SpecialValue(mu=Fraction(1, 3), published=Fraction(5), recomputed=None,
                             status="verified", case_tag="g=9"),
        "SpecialValue(mu=Fraction(1, 3), published=Fraction(5, 1), recomputed=None, "
        "status='verified', case_tag='g=9', note='')"),
    "LocusEntry": (
        lambda: LocusEntry(genus=4, kind="constant", status="verified", value=Fraction(7, 2)),
        "LocusEntry(genus=4, kind='constant', status='verified', value=Fraction(7, 2), "
        "p1=None, p2=None, special_values=(), special_condition=None, degenerate_branch=None, "
        "parameter_poly=None, point_relation=None, condition_factors=(), "
        "published_variants=None, note='')"),
    "LocusTable": (
        lambda: LocusTable(version="t1", entries={}),
        "LocusTable(version='t1', entries={})"),
}
#: the classes holding a dict field, which are unhashable
UNHASHABLE = {"AbsoluteInvariants", "LocusTable"}


def _fields(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


@pytest.mark.parametrize("name", INSTANCES)
def test_repr_is_pinned(name):
    make, expected = INSTANCES[name]
    record = make()
    assert type(record).__name__ == name
    assert isinstance(record, Record)
    assert repr(record) == expected


@pytest.mark.parametrize("name", INSTANCES)
def test_hash_is_the_field_tuple_hash(name):
    record = INSTANCES[name][0]()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(_fields(record))


@pytest.mark.parametrize("name", INSTANCES)
def test_records_are_frozen(name):
    record = INSTANCES[name][0]()
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, 0)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 0)
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert repr(record) == INSTANCES[name][1]


@pytest.mark.parametrize("name", INSTANCES)
def test_pickle_and_deepcopy_round_trip(name):
    record = INSTANCES[name][0]()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


@pytest.mark.parametrize("name", INSTANCES)
def test_constructor_checks_its_fields(name):
    record = INSTANCES[name][0]()
    cls, fields = type(record), _fields(record)
    assert cls(*fields) == record
    assert cls(**dict(zip(cls._fields, fields))) == record
    with pytest.raises(TypeError):
        cls()                                            # a required field is missing
    with pytest.raises(TypeError):
        cls(*fields, bogus=1)                            # unknown field
    with pytest.raises(TypeError):
        cls(*fields, **{cls._fields[0]: fields[0]})      # given twice
    with pytest.raises(TypeError):
        cls(*fields, None)                               # one positional too many


@pytest.mark.parametrize("value", [
    Poly((Fraction(1), Fraction(-2, 3))),
    RatFunc(Poly((Fraction(1),)), Poly((Fraction(2), Fraction(4)))),
    BinaryForm(2, (1, 0, Fraction(1, 2))),
    Cyclo(1, Fraction(1, 2), 0, -3),
], ids=lambda value: type(value).__name__)
def test_exact_values_in_records_round_trip(value):
    # the immutable value types reject the default state restore, so they pickle by value
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


def test_equality_needs_the_same_class():
    class A(Record):
        x: int
        y: int = 2

    class B(Record):
        x: int
        y: int = 2

    assert A(1) == A(1, 2) == A(x=1, y=2)
    assert A(1) != A(1, 3)
    assert A(1) != B(1)
    assert A(1) != (1, 2)
    row = SignatureRow(1, 4, 1, ("2^4",))
    form = CyclicNormalForm(1, 4, 1, ("2^4",))
    assert _fields(row) == _fields(form)
    assert row != form and form != row


def test_absolute_invariants_get_their_own_reasons():
    a, b = AbsoluteInvariants(degree=6), AbsoluteInvariants(degree=6)
    assert a.reasons == {} and b.reasons == {}
    assert a.reasons is not b.reasons
    a.reasons["i1"] = "set on a only"
    assert b.reasons == {}


def test_post_init_checks_still_raise():
    form = BinaryForm(2, (1, 0, 1))
    with pytest.raises(ValueError, match="order"):
        Covariant(form=form, degree_p=1, order_m=3, index_s=0)
    with pytest.raises(ValueError, match="one or two"):
        ModuliPoint(genus=5, case_tag="g=5, I_2 != 0", values=(1, 2, 3))
    with pytest.raises(ValueError, match="one or two"):
        ModuliPoint(genus=5, case_tag="g=5, I_2 != 0", values=())


def test_cli_import_pulls_in_no_dataclasses_or_inspect():
    # -S keeps the host's site imports out of the check
    src = str(Path(hyperinv.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import hyperinv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"

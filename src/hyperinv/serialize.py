"""JSON wire formats.

Scalar encodings: Rational as "p/q" (or "p"); Q(i, sqrt3) elements as a
4-array of rational strings [c0, c1, c2, c3]; univariate polynomials as an
array of scalars lowest degree first; rational functions as {"num", "den"}.

Form objects: {"genus": g, "degree": d, "ring": "Q"|"Qi_sqrt3"|"Q[mu]",
"coeffs": [...]}.  All numeric output is exact strings, never floats.
"""

from __future__ import annotations

from fractions import Fraction

from .catalogue import AbsoluteInvariants, InvariantSet, ModuliPoint
from .cyclic import CyclicNormalForm, DihedralInvariants, make_normal_form
from .errors import InputError
from .forms import BinaryForm
from .polynomials import Poly, RatFunc
from .scalars import Cyclo, rational_from_str, rational_to_str

RINGS = ("Q", "Qi_sqrt3", "Q[mu]")

_REQUIRED = object()
_JSON_TYPES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def field(obj, key: str, kind=object, default=_REQUIRED):
    """The value under ``key`` in the JSON object ``obj``, of JSON type ``kind``
    (a bool is never an int); a missing or null field gives ``default``.  Any
    other shape raises InputError."""
    if not isinstance(obj, dict):
        raise InputError(f"expected an object holding {key!r}, got {obj!r}")
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InputError(f"missing field {key!r}")
        return default
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise InputError(f"{key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def scalar_to_json(value):
    if isinstance(value, (int, Fraction)):
        return rational_to_str(Fraction(value))
    if isinstance(value, Cyclo):
        return [rational_to_str(c) for c in value.coords]
    if isinstance(value, Poly):
        return [scalar_to_json(c) for c in value.coeffs]
    if isinstance(value, RatFunc):
        return {"num": scalar_to_json(value.num), "den": scalar_to_json(value.den)}
    raise InputError(f"cannot encode scalar of type {type(value).__name__}")


def scalar_from_json(obj, ring: str):
    if ring == "Q":
        return rational_from_str(obj)
    if ring == "Qi_sqrt3":
        if isinstance(obj, str):
            return Cyclo(rational_from_str(obj))
        if not isinstance(obj, list) or len(obj) != 4:
            raise InputError(f"Q(i, sqrt3) scalar must be a 4-array, got {obj!r}")
        return Cyclo(*(rational_from_str(c) for c in obj))
    if ring == "Q[mu]":
        if isinstance(obj, str):
            return Poly((rational_from_str(obj),))
        if not isinstance(obj, list):
            raise InputError(f"Q[mu] scalar must be an array, got {obj!r}")
        return Poly(tuple(rational_from_str(c) for c in obj))
    raise InputError(f"unknown ring {ring!r}; expected one of {RINGS}")


def _ring_tag(coeffs) -> str:
    """The ring a coefficient list is written in: the first Poly makes it
    "Q[mu]", the first Cyclo "Qi_sqrt3"; with neither it is "Q"."""
    for c in coeffs:
        if isinstance(c, Poly):
            return "Q[mu]"
        if isinstance(c, Cyclo):
            return "Qi_sqrt3"
    return "Q"


def form_to_json(form: BinaryForm, genus: int | None = None) -> dict:
    out = {
        "degree": form.degree,
        "ring": _ring_tag(form.coeffs),
        "coeffs": [scalar_to_json(c) for c in form.coeffs],
    }
    if genus is not None:
        out["genus"] = genus
    return out


def form_from_json(obj) -> tuple[BinaryForm, int | None]:
    degree = field(obj, "degree", int)
    ring = field(obj, "ring", str)
    coeffs = field(obj, "coeffs", list)
    genus = field(obj, "genus", int, None)
    if degree < 0:
        raise InputError(f"degree must be a non-negative integer, got {degree!r}")
    if len(coeffs) != degree + 1:
        raise InputError(f"degree-{degree} form needs {degree + 1} coefficients")
    if genus is not None and degree != 2 * genus + 2:
        raise InputError(f"genus {genus} implies degree {2 * genus + 2}, got {degree}")
    form = BinaryForm(degree, tuple(scalar_from_json(c, ring) for c in coeffs))
    return form, genus


def invariant_set_to_json(inv: InvariantSet | AbsoluteInvariants) -> dict:
    """A record of named invariants as an object; an undefined one is null."""
    return {k: (scalar_to_json(v) if v is not None else None)
            for k, v in inv.as_dict().items()}


absolute_to_json = invariant_set_to_json


def moduli_point_to_json(point: ModuliPoint) -> dict:
    return {
        "genus": point.genus,
        "case": point.case_tag,
        "p": [scalar_to_json(v) for v in point.values],
    }


def normal_form_to_json(nf: CyclicNormalForm) -> dict:
    return {
        "case": nf.case,
        "n": nf.n,
        "genus": nf.genus,
        "ring": _ring_tag(nf.coeffs),
        "coeffs": [scalar_to_json(c) for c in nf.coeffs],
    }


def normal_form_from_json(obj) -> CyclicNormalForm:
    ring = field(obj, "ring", str, "Q")
    if ring == "Q[mu]":
        raise InputError("normal-form coefficients must be Q or Qi_sqrt3 scalars")
    coeffs = tuple(scalar_from_json(c, ring) for c in field(obj, "coeffs", list))
    return make_normal_form(field(obj, "case", int), field(obj, "n", int),
                            field(obj, "genus", int), coeffs)


def dihedral_to_json(u: DihedralInvariants) -> dict:
    return {"u": [scalar_to_json(v) for v in u.values]}

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
from .forms import BinaryForm, form_ring
from .polynomials import Poly, RatFunc
from .scalars import Cyclo, rational_from_str, rational_to_str

RINGS = ("Q", "Qi_sqrt3", "Q[mu]")


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
    try:
        if ring == "Q":
            if not isinstance(obj, str):
                raise InputError(f"rational scalar must be a string, got {obj!r}")
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
    except ValueError as exc:
        raise InputError(f"bad scalar encoding {obj!r}: {exc}") from None
    raise InputError(f"unknown ring {ring!r}; expected one of {RINGS}")


def form_to_json(form: BinaryForm, genus: int | None = None) -> dict:
    out = {
        "degree": form.degree,
        "ring": form_ring(form),
        "coeffs": [scalar_to_json(c) for c in form.coeffs],
    }
    if genus is not None:
        out["genus"] = genus
    return out


def form_from_json(obj) -> tuple[BinaryForm, int | None]:
    if not isinstance(obj, dict):
        raise InputError("form payload must be an object")
    for key in ("degree", "ring", "coeffs"):
        if key not in obj:
            raise InputError(f"form payload missing {key!r}")
    degree = obj["degree"]
    ring = obj["ring"]
    coeffs = obj["coeffs"]
    if not isinstance(degree, int) or degree < 0:
        raise InputError(f"degree must be a non-negative integer, got {degree!r}")
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise InputError(f"degree-{degree} form needs {degree + 1} coefficients")
    genus = obj.get("genus")
    if genus is not None:
        if not isinstance(genus, int):
            raise InputError("genus must be an integer")
        if degree != 2 * genus + 2:
            raise InputError(f"genus {genus} implies degree {2 * genus + 2}, got {degree}")
    form = BinaryForm(degree, tuple(scalar_from_json(c, ring) for c in coeffs))
    return form, genus


def invariant_set_to_json(inv: InvariantSet) -> dict:
    return {k: (scalar_to_json(v) if v is not None else None)
            for k, v in inv.as_dict().items()}


def absolute_to_json(absinv: AbsoluteInvariants) -> dict:
    out = {}
    for k, v in absinv.as_dict().items():
        out[k] = scalar_to_json(v) if v is not None else None
    return out


def moduli_point_to_json(point: ModuliPoint) -> dict:
    return {
        "genus": point.genus,
        "case": point.case_tag,
        "p": [scalar_to_json(v) for v in point.values],
    }


def normal_form_to_json(nf: CyclicNormalForm) -> dict:
    ring = "Qi_sqrt3" if any(isinstance(c, Cyclo) for c in nf.coeffs) else "Q"
    return {
        "case": nf.case,
        "n": nf.n,
        "genus": nf.genus,
        "ring": ring,
        "coeffs": [scalar_to_json(c) for c in nf.coeffs],
    }


def normal_form_from_json(obj) -> CyclicNormalForm:
    if not isinstance(obj, dict):
        raise InputError("normal-form payload must be an object")
    for key in ("case", "n", "genus", "coeffs"):
        if key not in obj:
            raise InputError(f"normal-form payload missing {key!r}")
    ring = obj.get("ring", "Q")
    if ring == "Q[mu]":
        raise InputError("normal-form coefficients must be Q or Qi_sqrt3 scalars")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise InputError("coeffs must be an array")
    try:
        return make_normal_form(obj["case"], obj["n"], obj["genus"],
                                tuple(scalar_from_json(c, ring) for c in coeffs))
    except TypeError as exc:
        raise InputError(f"bad normal-form payload: {exc}") from None


def dihedral_to_json(u: DihedralInvariants) -> dict:
    return {"u": [scalar_to_json(v) for v in u.values]}

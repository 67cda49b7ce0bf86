"""hyperinv: exact invariants of binary forms and classification of
hyperelliptic curves whose reduced automorphism group is cyclic or A4.

Everything is exact (big rationals, Q(i, sqrt3), Q[mu]); all values are
immutable and all operations pure, so callers may share and parallelize
freely.

Importing the package loads no submodule: each public name is imported from
its module on first access (PEP 562), so a process loads only what it uses.
"""

__version__ = "0.1.0"

#: module -> the public names it defines
_EXPORTS = {
    "a4": ("a4_curve_model", "build_G", "g_has_distinct_roots", "rational_model"),
    "catalogue": ("AbsoluteInvariants", "InvariantSet", "ModuliPoint",
                  "absolute_invariants", "classify_point", "covariant_catalogue",
                  "vanishing_profile"),
    "cyclic": ("CyclicNormalForm", "DihedralInvariants", "SignatureRow",
               "dihedral_invariants", "make_normal_form", "normal_form_polynomial",
               "reconstruct_from_u", "signature_row", "tau1", "tau2"),
    "errors": ("ConstraintError", "DomainError", "ExactDivisionError", "GenusError",
               "InputError", "OffLocusError", "OutputSizeError", "PoleError",
               "ReconstructionError", "RecoveryError", "SingularMatrixError",
               "TransvectionError", "UndefinedInvariantError", "UnsupportedDegreeError"),
    "forms": ("BinaryForm", "Covariant", "gl2_act", "transvect"),
    "loci": ("LOCUS_GENERA", "CubicConstraint", "LocusTable", "default_table",
             "genus5_locus_is_singular", "genus5_locus_residual",
             "genus5_singular_point_analysis", "load_locus_table",
             "locus_parametrization", "recover_mu", "verify_genus"),
    "polynomials": ("Poly", "RatFunc", "poly_gcd"),
    "record": (),
    "scalars": ("Cyclo", "rational_from_str", "rational_to_str"),
    "serialize": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

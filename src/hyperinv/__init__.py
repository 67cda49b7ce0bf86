"""hyperinv: exact invariants of binary forms and classification of
hyperelliptic curves whose reduced automorphism group is cyclic or A4.

Everything is exact (big rationals, Q(i, sqrt3), Q[mu]); all values are
immutable and all operations pure, so callers may share and parallelize
freely.
"""

from .a4 import (a4_curve_model, a4_genus_branch, a4_orbit,
                 a4_orbit_polynomial, build_G, g_has_distinct_roots,
                 klein_phi, rational_model)
from .catalogue import (AbsoluteInvariants, InvariantSet, ModuliPoint,
                        absolute_invariants, classify_point,
                        covariant_catalogue, catalogue_intermediates,
                        vanishing_profile)
from .cyclic import (CyclicNormalForm, DihedralInvariants, SignatureRow,
                     dihedral_invariants, extra_involution_condition,
                     h_action, make_normal_form, normal_form_polynomial,
                     reconstruct_from_u, signature_row, tau1, tau2)
from .errors import (ConstraintError, DomainError, ExactDivisionError,
                     GenusError, InputError, OffLocusError, OutputSizeError,
                     PoleError, ReconstructionError, RecoveryError, SingularMatrixError,
                     TransvectionError, UndefinedInvariantError,
                     UnsupportedDegreeError)
from .forms import BinaryForm, Covariant, gl2_act, transvect
from .loci import (LOCUS_GENERA, CubicConstraint, LocusTable, default_table,
                   genus5_locus_is_singular, genus5_locus_residual,
                   genus5_singular_point_analysis, load_locus_table,
                   locus_parametrization, recover_mu, verify_genus)
from .polynomials import Poly, RatFunc, poly_gcd, ratfunc_eval
from .scalars import (Cyclo, Rational, rational_from_str, rational_to_str,
                      root_of_unity, roots_of_unity)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

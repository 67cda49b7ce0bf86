"""Error types shared across the kernel.

Everything that is a *domain* failure (pole, unsupported degree, off-locus
point, ...) derives from DomainError so the CLI can map it to exit code 1;
malformed input is InputError (exit code 2), which is also a ValueError.
"""

from __future__ import annotations


class DomainError(Exception):
    """A mathematically well-formed request outside an operation's domain."""


class ExactDivisionError(DomainError, ZeroDivisionError):
    """Division by the ring's zero element."""


class PoleError(DomainError):
    """Evaluation of a rational function at a zero of its denominator."""

    def __init__(self, message: str, at=None):
        super().__init__(message)
        self.at = at


class TransvectionError(DomainError):
    """Transvection index out of range for the given orders."""


class SingularMatrixError(DomainError):
    """A coordinate change with zero determinant."""


class UnsupportedDegreeError(DomainError):
    """A catalogue entry is not defined for this form degree."""


class UndefinedInvariantError(DomainError):
    """A required invariant is undefined (missing ingredient or zero denominator)."""


class GenusError(DomainError):
    """Genus outside the supported classification range."""


class ConstraintError(DomainError):
    """A divisibility / congruence / dimension constraint is violated."""


class ReconstructionError(DomainError):
    """Normal-form recovery failed in the supported fields.

    ``minimal_polynomial`` (coefficients, lowest degree first) carries the
    obstructing equation when the failure is a missing root.
    """

    def __init__(self, message: str, minimal_polynomial=None):
        super().__init__(message)
        self.minimal_polynomial = minimal_polynomial


class OffLocusError(DomainError):
    """A moduli point does not lie on the requested locus."""


class RecoveryError(DomainError):
    """Parameter recovery has no finite answer: the fiber is not finite."""


class OutputSizeError(DomainError):
    """An exact integer in an answer has more digits than the interpreter
    converts to text (``sys.get_int_max_str_digits``)."""


class InputError(ValueError):
    """Malformed request payload (CLI exit code 2)."""

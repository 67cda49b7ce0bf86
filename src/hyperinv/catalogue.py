"""The covariant/invariant catalogue for even-degree binary forms, absolute
invariants, and the genus classifier.

For F of degree d = 2g+2 the catalogue is one transvectant DAG, held as data
in ``RECIPE`` (name -> (left, right, r(d), guard(d))):

    J_{4j} = (F,F)^(d-2j)             j = 1..4, order 4j   [J16: d >= 8]
    J_d    = (F,F)^(d/2)              order d
    FJ_k   = (F,J_k)^k                k = 4, 8, 12, 16     [d >= k]
    M      = (FJ4,FJ8)^(d-10)         order 8              [d >= 10]
    S      = (J12,J16)^12                                  [d = 22]
    J16S   = (J16,S)^4                                     [d = 22]

    I_2    = (F,F)^d
    I_3    = (F,J_d)^d                                     [4 | d]
    I_4    = (J4,J4)^4                I_4'  = (J8,J8)^8
    I_6    = (FJ4,FJ4)^(d-4)          I_6'  = (FJ8,FJ8)^(d-8)
    I_6*   = (FJ12,FJ12)^(d-12)       I_12  = (M,M)^8
    I_6^star = (FJ16,FJ16)^(d-16)                          [d = 22]
    I_12^ast = (J16S,J16S)^12

A node whose guard fails at d, or one of whose ingredients is undefined, is
undefined (None), never zero.  The guard is checked first, so a node gives
up before it builds either ingredient.  An ``Evaluator`` holds the DAG at one
form: a node is transvected the first time it is asked for and kept as long as
the evaluator lives, so ``classify_point`` and ``vanishing_profile`` build just
what they read.  Each of them, given a form, evaluates afresh; given an
``Evaluator``, it reuses the nodes already built there, so several readings of
one form (as in ``loci.verify_genus``) transvect each node once.

Two absolute-invariant orientations deviate from their published display and
are pinned instead by the published special values they must reproduce (see
the project notes): v2 = I_3^4/(I_4')^3 and v4 = (I_6*)^2/(I_4')^3 (the
displayed v4 divides by I_4^3, which vanishes identically on the loci where
v4 is used).
"""

from __future__ import annotations

from functools import partial

from .errors import GenusError, UndefinedInvariantError, UnsupportedDegreeError
from .forms import BinaryForm, Covariant, transvect
from .polynomials import Poly, RatFunc
from .record import Record

INVARIANT_KEYS = ("I2", "I3", "I4", "I4p", "I6", "I6p", "I6star_ast", "I12",
                  "I6star", "I12ast")

#: name -> (left, right, r(d), guard(d)); "F" is the ground form and a
#: guard of None always holds
RECIPE = {
    "J4": ("F", "F", lambda d: d - 2, None),
    "J8": ("F", "F", lambda d: d - 4, None),
    "J12": ("F", "F", lambda d: d - 6, None),
    "J16": ("F", "F", lambda d: d - 8, lambda d: d >= 8),
    "Jd": ("F", "F", lambda d: d // 2, None),
    "FJ4": ("F", "J4", lambda d: 4, None),
    "FJ8": ("F", "J8", lambda d: 8, lambda d: d >= 8),
    "FJ12": ("F", "J12", lambda d: 12, lambda d: d >= 12),
    "FJ16": ("F", "J16", lambda d: 16, lambda d: d >= 16),
    "M": ("FJ4", "FJ8", lambda d: d - 10, lambda d: d >= 10),
    "S": ("J12", "J16", lambda d: 12, lambda d: d == 22),
    "J16S": ("J16", "S", lambda d: 4, lambda d: d == 22),
    "I2": ("F", "F", lambda d: d, None),
    "I3": ("F", "Jd", lambda d: d, lambda d: d % 4 == 0),
    "I4": ("J4", "J4", lambda d: 4, None),
    "I4p": ("J8", "J8", lambda d: 8, None),
    "I6": ("FJ4", "FJ4", lambda d: d - 4, None),
    "I6p": ("FJ8", "FJ8", lambda d: d - 8, None),
    "I6star_ast": ("FJ12", "FJ12", lambda d: d - 12, None),
    "I12": ("M", "M", lambda d: 8, None),
    "I6star": ("FJ16", "FJ16", lambda d: d - 16, lambda d: d == 22),
    "I12ast": ("J16S", "J16S", lambda d: 12, None),
}


def _is_zero(v) -> bool:
    return v is None or v == 0


def _check_degree(F: BinaryForm) -> int:
    d = F.degree
    if d < 6 or d % 2:
        raise UnsupportedDegreeError(
            f"catalogue needs an even degree >= 6, got degree {d}")
    return d


class Evaluator:
    """``RECIPE`` at one form: each node is transvected when first asked for
    and kept for the life of the evaluator."""

    def __init__(self, F: BinaryForm):
        self.degree = _check_degree(F)
        self._nodes = {"F": Covariant.source(F)}

    def covariant(self, name: str) -> Covariant | None:
        nodes = self._nodes
        if name not in nodes:
            left, right, r, guard = RECIPE[name]
            f = g = None
            if guard is None or guard(self.degree):
                f = self.covariant(left)
                g = None if f is None else self.covariant(right)
            nodes[name] = None if g is None else transvect(f, g, r(self.degree))
        return nodes[name]

    def invariant(self, name: str):
        cov = self.covariant(name)
        return None if cov is None else cov.constant_value()

    def invariant_set(self, *names: str) -> "InvariantSet":
        """The named invariants, every other entry left None."""
        return InvariantSet(degree=self.degree, **{name: self.invariant(name) for name in names})


class InvariantSet(Record):
    """Named exact invariants of one form; None marks entries undefined at this degree."""

    degree: int
    I2: object = None
    I3: object = None
    I4: object = None
    I4p: object = None
    I6: object = None
    I6p: object = None
    I6star_ast: object = None
    I12: object = None
    I6star: object = None
    I12ast: object = None

    def defined(self, name: str) -> bool:
        return getattr(self, name) is not None

    def value(self, name: str):
        v = getattr(self, name)
        if v is None:
            raise UndefinedInvariantError(f"{name} undefined for degree {self.degree} forms")
        return v

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in INVARIANT_KEYS}


def catalogue_intermediates(F: BinaryForm) -> dict[str, Covariant]:
    """The intermediate covariants J_{4j} (j=1..4), M, and S where defined."""
    ev = Evaluator(F)
    return {k: cov for k in ("J4", "J8", "J12", "J16", "M", "S")
            if (cov := ev.covariant(k)) is not None}


def covariant_catalogue(F: BinaryForm) -> InvariantSet:
    """All catalogue invariants of F that exist at its degree, exactly."""
    return Evaluator(F).invariant_set(*INVARIANT_KEYS)


#: name -> (numerator, its power, denominator, its power)
ABSOLUTE_RECIPE = {
    "i1": ("I4p", 1, "I2", 2),
    "i2": ("I3", 2, "I2", 3),
    "i3": ("I6star_ast", 1, "I2", 3),
    "j1": ("I6p", 1, "I3", 2),
    "j2": ("I6", 1, "I3", 2),
    "s1": ("I6", 2, "I12", 1),
    "s2": ("I6p", 2, "I12", 1),
    "v1": ("I6", 1, "I6star_ast", 1),
    "v2": ("I3", 4, "I4p", 3),
    "v3": ("I6", 1, "I6p", 1),
    "v4": ("I6star_ast", 2, "I4p", 3),
    "v5": ("I6star", 1, "I12ast", 1),
}


class AbsoluteInvariants(Record):
    """Weight-zero ratios; None entries carry a reason in ``reasons``.

    v5 = I_6^star/I_12^ast is the one catalogue ratio that is NOT
    weight-balanced (degrees 6 vs 12), faithfully to its source.
    """

    degree: int
    i1: object = None
    i2: object = None
    i3: object = None
    j1: object = None
    j2: object = None
    s1: object = None
    s2: object = None
    v1: object = None
    v2: object = None
    v3: object = None
    v4: object = None
    v5: object = None
    reasons: dict = None    # name -> why it is None; a fresh {} when not given

    ABSOLUTE_KEYS = tuple(ABSOLUTE_RECIPE)

    def __post_init__(self):
        if self.reasons is None:
            object.__setattr__(self, "reasons", {})

    def defined(self, name: str) -> bool:
        return getattr(self, name) is not None

    def value(self, name: str):
        v = getattr(self, name)
        if v is None:
            raise UndefinedInvariantError(
                f"{name} undefined: {self.reasons.get(name, 'missing ingredient')}")
        return v

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.ABSOLUTE_KEYS}


def _ratio(num, den):
    """Exact ratio; a RatFunc when the invariants are polynomials in a parameter."""
    if isinstance(num, Poly) or isinstance(den, Poly):
        return RatFunc(num, den)
    return num / den


def _absolute(name: str, invariant, degree: int):
    """(value, None) for one ``ABSOLUTE_RECIPE`` entry, or (None, reason);
    ``invariant`` maps an invariant's name to its value or None."""
    num_name, num_power, den_name, den_power = ABSOLUTE_RECIPE[name]
    num = invariant(num_name)
    if num is None:
        return None, f"requires {num_name}, undefined for degree {degree}"
    den = invariant(den_name)
    if den is None:
        return None, f"requires {den_name}, undefined for degree {degree}"
    den = den ** den_power
    if _is_zero(den):
        return None, f"zero denominator {den_name}"
    return _ratio(num ** num_power, den), None


def absolute_invariants(source) -> AbsoluteInvariants:
    """Absolute invariants of a form (or of a precomputed InvariantSet)."""
    inv = source if isinstance(source, InvariantSet) else covariant_catalogue(source)
    vals: dict[str, object] = {}
    reasons: dict[str, str] = {}
    for name in ABSOLUTE_RECIPE:
        value, reason = _absolute(name, partial(getattr, inv), inv.degree)
        if value is None:
            reasons[name] = reason
        else:
            vals[name] = value
    return AbsoluteInvariants(degree=inv.degree, reasons=reasons, **vals)


class ModuliPoint(Record):
    """Classifier output: a 1- or 2-tuple of exact scalars plus its branch tag."""

    genus: int
    case_tag: str
    values: tuple

    def __post_init__(self):
        if len(self.values) not in (1, 2):
            raise ValueError("a moduli point has one or two components")


def genus_degree(g: int) -> int:
    return 2 * g + 2


#: genus -> (test invariant, branch when it is nonzero, branch when it is
#: zero); a branch is (case tag, the absolute invariants it reads).  Genus 4
#: has no test and one branch.
CLASSIFIER_BRANCHES = {
    4: (None, ("g=4", ("v1",)), None),
    5: ("I2", ("g=5, I_2 != 0", ("i1", "i2")), ("g=5, I_2 = 0", ("v2",))),
    7: ("I3", ("g=7, I_3 != 0", ("j1", "j2")), ("g=7, I_3 = 0", ("v3",))),
    8: ("I2", ("g=8, I_2 != 0", ("i1", "i3")), ("g=8, I_2 = 0", ("v4",))),
    9: ("I2", ("g=9, I_2 != 0", ("i1", "i2")), ("g=9, I_2 = 0", ("v2",))),
    10: ("I12", ("g=10, I_12 != 0", ("s2", "s1")), ("g=10, I_12 = 0", ("v5",))),
    12: ("I2", ("g=12, I_2 != 0", ("i1", "i3")), ("g=12, I_2 = 0", ("v4",))),
}
#: the genera of the loci this package covers (also loci.LOCUS_GENERA, a4.A4_GENERA)
SUPPORTED_GENERA = tuple(CLASSIFIER_BRANCHES)


def _admit(source: BinaryForm | Evaluator, genus: int, task: str) -> Evaluator:
    """The Evaluator of a form (or the given Evaluator), once its degree is
    checked to be 2g + 2 for a supported genus."""
    if genus not in SUPPORTED_GENERA:
        raise GenusError(f"{task} supports genera {SUPPORTED_GENERA}, got {genus}")
    d = genus_degree(genus)
    if source.degree != d:
        raise UnsupportedDegreeError(
            f"genus {genus} needs a degree-{d} form, got degree {source.degree}")
    return source if isinstance(source, Evaluator) else Evaluator(source)


def classify_point(source: BinaryForm | Evaluator, genus: int) -> ModuliPoint:
    """Dispatch the piecewise moduli invariant for the supported genera, at a
    form or at an ``Evaluator`` of one (whose built nodes are reused).

    The geometric reading assumes F squarefree (an actual curve); the
    computation itself is pure polynomial algebra.  For genus 4 the branch
    ratio needs I_6*, which no degree-10 form possesses; that branch raises.
    """
    ev = _admit(source, genus, "classification")
    test, nonzero, zero = CLASSIFIER_BRANCHES[genus]
    tag, names = nonzero if test is None or not _is_zero(ev.invariant(test)) else zero
    values = []
    for name in names:
        value, reason = _absolute(name, ev.invariant, ev.degree)
        if value is None:
            raise UndefinedInvariantError(
                f"branch '{tag}' needs {name}, undefined: {reason}")
        values.append(value)
    return ModuliPoint(genus=genus, case_tag=tag, values=tuple(values))


#: invariants that must vanish for a curve on each locus (necessary, not sufficient)
VANISHING_BY_GENUS = {
    4: ("I2", "I4", "I4p", "I6p"),
    5: ("I4", "I6"),
    7: ("I2", "I4", "I4p", "I6star_ast"),
    8: ("I4",),
    9: ("I4", "I6"),
    10: ("I2", "I4", "I4p", "I6star_ast"),
    12: ("I4", "I6"),
}


def vanishing_profile(source: BinaryForm | Evaluator, genus: int):
    """Exact zero-tests of the locus's necessary-vanishing invariants, at a
    form or at an ``Evaluator`` of one."""
    ev = _admit(source, genus, "vanishing profile")
    names = VANISHING_BY_GENUS[genus]
    inv = ev.invariant_set(*names)
    return [(name, _is_zero(inv.value(name))) for name in names]

"""Locus parametrizations for the A4-type genera, moduli-to-parameter
recovery, and the genus-5 locus equation.

The parametrization table ships as a versioned JSON fixture
(data/locus_table.json) and is read once: every polynomial and rational
function is parsed at load time into the value the code returns (the genus-7
constraint branch into its ``CubicConstraint``).  Where the published display
and exact recomputation disagree, the recomputed form is active and the
published variant is retained with a status note.  Ground truth for every
entry is classify_point of the matching rational model; ``verify_genus``
re-establishes that correspondence symbolically, dispatching on what the
table row holds, not on its genus.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cache, reduce
from itertools import count
from math import isqrt
from operator import add

from .a4 import M_FACTOR_GENERA, rational_model
from .catalogue import (CLASSIFIER_BRANCHES, SUPPORTED_GENERA, Evaluator, ModuliPoint,
                        absolute_invariants, classify_point, vanishing_profile)
from .errors import (DomainError, GenusError, InputError, OffLocusError,
                     PoleError, RecoveryError)
from .polynomials import (Poly, RatFunc, _clear_to_int, _exact, poly_divides, poly_gcd,
                          square_free_part)
from .record import Record
from .scalars import Cyclo, canonical_order, rational_from_str
from .serialize import field

LOCUS_GENERA = SUPPORTED_GENERA


class CubicConstraint(Record):
    """Degenerate-branch result: the moduli value satisfies relation(p) = 0
    whenever parameter_poly(mu) = 0 (no closed rational value exists)."""

    genus: int
    case_tag: str
    parameter_poly: Poly
    relation: Poly


class SpecialValue(Record):
    mu: Fraction
    published: Fraction
    recomputed: Fraction | None
    status: str
    case_tag: str
    note: str = ""

    @property
    def value(self) -> Fraction:
        """The recomputed value where one is recorded, else the published one."""
        return self.published if self.recomputed is None else self.recomputed


class LocusEntry(Record):
    genus: int
    kind: str                      # "constant" | "pair"
    status: str
    value: Fraction | None = None
    p1: RatFunc | None = None
    p2: RatFunc | None = None
    special_values: tuple = ()
    constraint: CubicConstraint | None = None   # special_condition
    condition_factors: tuple = ()               # degenerate_branch
    degenerate_note: str = ""                   # degenerate_branch
    published_variants: dict | None = None
    note: str = ""


class LocusTable(Record):
    version: str
    entries: dict

    def entry(self, genus: int) -> LocusEntry:
        try:
            return self.entries[genus]
        except KeyError:
            raise GenusError(
                f"locus table covers genera {sorted(self.entries)}, got {genus}") from None


def _parse_poly(strings) -> Poly:
    if not isinstance(strings, list):
        raise InputError(f"a polynomial must be an array of rational strings, got {strings!r}")
    return Poly(tuple(rational_from_str(s) for s in strings))


def _parse_ratfunc(obj) -> RatFunc:
    return RatFunc(_parse_poly(field(obj, "num")), _parse_poly(field(obj, "den")))


def load_locus_table(path: str = os.path.join(os.path.dirname(__file__), "data",
                                                "locus_table.json")) -> LocusTable:
    """Load the shipped fixture, or an override file; a malformed one raises
    InputError, ValueError (JSON, genus keys) or ExactDivisionError.

    ``special_condition.kind``/``.note`` and ``degenerate_branch.status`` are
    documentation and stay in the JSON only."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    entries = {}
    for key, obj in field(raw, "genera", dict).items():
        g = int(key)
        specials = tuple(
            SpecialValue(
                mu=rational_from_str(field(sv, "mu")),
                published=rational_from_str(field(sv, "published")),
                recomputed=(rational_from_str(sv["recomputed"])
                            if sv.get("recomputed") else None),
                status=field(sv, "status", str),
                case_tag=field(sv, "case", str, ""),
                note=field(sv, "note", str, ""),
            )
            for sv in field(obj, "special_values", list, ())
        )
        cond = field(obj, "special_condition", dict, None)
        branch = field(obj, "degenerate_branch", dict, None)
        kind = field(obj, "kind", str)
        constant = kind == "constant"
        entries[g] = LocusEntry(
            genus=g,
            kind=kind,
            status=field(obj, "status", str),
            value=rational_from_str(field(obj, "value")) if constant else None,
            p1=None if constant else _parse_ratfunc(field(obj, "p1")),
            p2=None if constant else _parse_ratfunc(field(obj, "p2")),
            special_values=specials,
            constraint=CubicConstraint(
                genus=g,
                case_tag=field(cond, "case", str, f"g={g}"),
                parameter_poly=_parse_poly(field(cond, "parameter_poly")),
                relation=_parse_poly(field(cond, "point_relation")),
            ) if cond else None,
            condition_factors=tuple(map(_parse_poly, field(branch, "condition_factors", list)
                                        if branch else ())),
            degenerate_note=field(branch, "note", str) if branch else "",
            published_variants=field(obj, "published_variants", dict, None),
            note=field(obj, "note", str, ""),
        )
    return LocusTable(version=field(raw, "version", str), entries=entries)


@cache
def default_table() -> LocusTable:
    return load_locus_table()


def locus_parametrization(genus: int, mu, table: LocusTable | None = None):
    """Evaluate the locus-table entry at a rational parameter.

    Returns a ModuliPoint, or the table's stored CubicConstraint on the
    genus-7 degenerate branch.  Special parameter values (poles of the
    generic branch) return the recorded special value (``SpecialValue.value``).
    mu = 0 raises DomainError where the model is no curve (``M_FACTOR_GENERA``).
    """
    table = table or default_table()
    entry = table.entry(genus)
    if entry.kind == "constant":
        return ModuliPoint(genus=genus, case_tag=f"g={genus}", values=(entry.value,))
    mu = _rational(mu)
    if mu == 0 and genus in M_FACTOR_GENERA:
        raise DomainError(f"mu = 0 gives no genus-{genus} curve: the model's factor "
                          "M(mu) is the constant 1 there")
    for sv in entry.special_values:
        if sv.mu == mu:
            return ModuliPoint(genus=genus, case_tag=sv.case_tag, values=(sv.value,))
    if entry.constraint and entry.constraint.parameter_poly(mu) == 0:
        return entry.constraint
    if any(factor(mu) == 0 for factor in entry.condition_factors):
        raise DomainError(
            f"genus {genus} degenerate branch at mu = {mu}: " + entry.degenerate_note)
    try:
        v1 = entry.p1.eval(mu)
        v2 = entry.p2.eval(mu)
    except PoleError as exc:
        raise PoleError(
            f"mu = {mu} is a pole of the genus-{genus} parametrization not covered "
            f"by a recorded special value", at=mu) from exc
    _, (tag, _), _ = CLASSIFIER_BRANCHES[genus]
    return ModuliPoint(genus=genus, case_tag=tag, values=(v1, v2))


def recover_mu(genus: int, point, table: LocusTable | None = None):
    """All rational parameters mapping to the given moduli point, smallest
    canonical encoding first.

    Computed as the rational roots of gcd(num(p1(mu) - p1), num(p2(mu) - p2)),
    exactly at any degree and coefficient size, then filtered by exact
    back-substitution.  RecoveryError means only a fiber that is not finite
    (a component matching its parametrization identically); a point with
    other than one or two components is a DomainError.
    """
    table = table or default_table()
    entry = table.entry(genus)
    if entry.kind == "constant":
        raise GenusError(f"genus {genus} locus is a single point; no parameter to recover")
    values = tuple(map(_rational, _values(point, (1, 2), "parameter recovery")))
    if len(values) == 1:
        hits = [sv.mu for sv in entry.special_values if values[0] == sv.value]
        if not hits:
            raise OffLocusError(
                f"one-component point {values[0]} matches no recorded special value "
                f"for genus {genus}")
        return canonical_order(hits)
    p1, p2 = values
    n1 = entry.p1.num - p1 * entry.p1.den
    n2 = entry.p2.num - p2 * entry.p2.den
    if n1.is_zero or n2.is_zero:
        raise RecoveryError("a component matches its parametrization identically; "
                            "the fiber is not finite")
    g = poly_gcd(n1, n2)
    if g.degree == 0:
        raise OffLocusError(
            f"point ({p1}, {p2}) is not on the genus-{genus} locus "
            f"(the two component equations share no root)")
    good = []
    for mu in _rational_roots(g):
        try:
            got = locus_parametrization(genus, mu, table)
        except DomainError:
            continue
        if isinstance(got, ModuliPoint) and len(got.values) == 2 and \
                tuple(got.values) == (p1, p2):
            good.append(mu)
    if not good:
        raise OffLocusError(
            f"point ({p1}, {p2}) is not on the genus-{genus} locus "
            f"(no candidate parameter back-substitutes)")
    return canonical_order(good)


def _values(point, sizes, who) -> tuple:
    """The components of a ModuliPoint or of a sequence; a DomainError unless
    their number is one of sizes."""
    values = tuple(point.values) if isinstance(point, ModuliPoint) else tuple(point)
    if len(values) not in sizes:
        words = "- or ".join(("one", "two")[n - 1] for n in sizes)
        raise DomainError(f"{who} needs a {words}-component point")
    return values


def _rational(value) -> Fraction:
    """A parameter or moduli value as a Fraction; an element of Q(i, sqrt3) is
    a DomainError, because recovery over that field needs a root finder over
    it, which this package does not have yet."""
    if isinstance(value, Cyclo):
        raise DomainError(f"{value} lies in Q(i, sqrt3): the locus table is evaluated "
                          "and inverted over Q only; recovery over Q(i, sqrt3) is not "
                          "supported yet")
    return Fraction(_exact(value))


def _rational_roots(p: Poly) -> list:
    """All rational roots of p, ascending, by q-adic Newton lifting (Loos,
    SIAM J. Comput. 1983), for any degree and coefficient size.

    Let f = a_n x^n + ... + a_0 be the primitive integer square-free part of
    p.  A rational root x of f has a denominator dividing a_n, so x is a
    q-adic integer for every prime q not dividing a_n, and y = a_n x is an
    integer with |y| <= sum |a_i| (Cauchy).  At the least such q where f' is
    nonzero at every root of f mod q, each of those roots lifts to exactly
    one q-adic root of f; lift it until q^k > 2 sum |a_i|, read y as the
    symmetric residue, and keep y / a_n where p vanishes exactly.
    """
    f = _clear_to_int(square_free_part(p))
    df = [i * c for i, c in enumerate(f) if i]
    lead, bound = f[-1], 2 * sum(map(abs, f))
    for q in (k for k in count(2) if all(k % d for d in range(2, isqrt(k) + 1))):
        if lead % q:
            residues = [r for r in range(q) if _eval_mod(f, r, q) == 0]
            if all(_eval_mod(df, r, q) for r in residues):
                break
    roots = []
    for r in residues:
        m = q
        while m <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        y = lead * r % m
        x = Fraction(y - m if 2 * y > m else y, lead)
        if p(x) == 0:
            roots.append(x)
    return sorted(roots)


def _eval_mod(coeffs, x, m):
    """The integer polynomial with these coefficients (lowest first) at x, mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


# -- the genus-5 locus equation ----------------------------------------------

#: coefficients of the genus-5 locus relation in (p1, p2)
_L5_TERMS = (
    (Fraction(4920750), 3, 0),
    (Fraction(-28224), 0, 2),
    (Fraction(-164025), 2, 0),
    (Fraction(-136080), 1, 1),
    (Fraction(672), 0, 1),
    (Fraction(1620), 1, 0),
    (Fraction(-4), 0, 0),
)
#: its formal partials in p1 and in p2, as terms of the same shape
_L5_D1 = tuple((coef * ex, ex - 1, ey) for coef, ex, ey in _L5_TERMS if ex)
_L5_D2 = tuple((coef * ey, ex, ey - 1) for coef, ex, ey in _L5_TERMS if ey)


def _l5_sum(terms, x, y):
    """The sum of coef * x^ex * y^ey over the terms."""
    return reduce(add, (coef * x ** ex * y ** ey for coef, ex, ey in terms))


def genus5_locus_residual(point):
    """Exact residual of the genus-5 locus equation at a two-component point.

    Accepts Fraction pairs or RatFunc pairs (for symbolic verification).
    """
    return _l5_sum(_L5_TERMS, *_values(point, (2,), "the genus-5 locus equation"))


def genus5_locus_is_singular(point) -> bool:
    """Residual and both formal partials vanish at the point."""
    values = _values(point, (2,), "the genus-5 locus equation")
    if genus5_locus_residual(values) != 0:
        return False
    return _l5_sum(_L5_D1, *values) == 0 and _l5_sum(_L5_D2, *values) == 0


def genus5_singular_point_analysis(table: LocusTable | None = None) -> dict:
    """Exact completeness check: on the parametrized curve, the singular
    system's solutions all map to the unique singular point (0, 1/84).

    Substitutes the parametrization into both partial derivatives, takes the
    gcd of the numerators, and checks that every root of that gcd maps to
    (0, 1/84) via polynomial divisibility (no root extraction needed).
    """
    table = table or default_table()
    entry = table.entry(5)
    p1, p2 = entry.p1, entry.p2
    d1, d2 = _l5_sum(_L5_D1, p1, p2), _l5_sum(_L5_D2, p1, p2)
    g = poly_gcd(d1.num, d2.num)
    radical = square_free_part(g)
    target2 = p2 - Fraction(1, 84)
    return {
        "gcd_degree": g.degree,
        "all_roots_map_to_singular_point": (
            poly_divides(radical, p1.num) and poly_divides(radical, target2.num)),
        "gcd_avoids_poles": poly_gcd(g, p1.den).degree == 0
        and poly_gcd(g, p2.den).degree == 0,
        "gcd": g,
        "radical": radical,
    }


# -- verification driver ------------------------------------------------------

def verify_genus(genus: int, table: LocusTable | None = None) -> list[dict]:
    """Re-derive the locus data for one genus and report per-check status.

    The checks follow the table row: a constant row checks its model's
    vanishing profile only; a pair row checks the vanishing profile
    identically in the parameter, the symbolic match between classify_point
    of the rational model and the table entry, and the recorded special
    values; a row with a constraint checks its relation; and genus 5 checks
    its locus-equation identities.
    """
    table = table or default_table()
    entry = table.entry(genus)  # raises GenusError for unsupported genus
    checks: list[dict] = []

    def report(name, status, detail=""):
        if isinstance(status, bool):
            status = "pass" if status else "fail"
        checks.append({"name": name, "status": status, "detail": detail})

    if entry.kind == "constant":
        profile = vanishing_profile(rational_model(genus), genus)
        report("vanishing-profile", all(v for _, v in profile), str(profile))
        report("moduli-value-recomputation", "skip", entry.note)
        return checks

    report("transcription-status", entry.status,
           entry.note or "published display matches exact recomputation")
    if entry.published_variants:
        report("published-variants-on-record", "info", str(entry.published_variants))

    # one evaluation of the symbolic model serves every check that reads it
    ev = Evaluator(rational_model(genus, Poly.x()))
    profile = vanishing_profile(ev, genus)
    report("vanishing-profile-identically", all(v for _, v in profile), str(profile))

    point = classify_point(ev, genus)
    for which, got, expected in zip(("first", "second"), point.values,
                                    (entry.p1, entry.p2), strict=True):
        report(f"parametrization-{which}-component", got == expected,
               "" if got == expected else f"recomputed {got!r}")

    for sv in entry.special_values:
        value = classify_point(rational_model(genus, sv.mu), genus).values[0]
        report(f"special-value(mu={sv.mu})",
               "pass" if value == sv.published else
               "recomputed-differs" if value == sv.value else "fail",
               f"classify gives {value}; published {sv.published}")

    if entry.constraint:
        # v3 = I6/I6p as a rational function of mu; rel(v3) must vanish mod cubic
        cubic, rel = entry.constraint.parameter_poly, entry.constraint.relation
        v3 = absolute_invariants(ev.invariant_set("I6", "I6p")).v3
        acc = reduce(add, (c * v3.num ** k * v3.den ** (rel.degree - k)
                           for k, c in enumerate(rel.coeffs)), Poly())
        report("constraint-branch-relation", (acc % cubic).is_zero,
               "relation(v3) = 0 modulo the parameter cubic")

    if genus == 5:
        report("locus-equation-residual", genus5_locus_residual(point) == 0,
               "identically in the parameter")
        sing = genus5_singular_point_analysis(table)
        report("singular-point-uniqueness",
               sing["all_roots_map_to_singular_point"] and sing["gcd_avoids_poles"],
               f"gcd degree {sing['gcd_degree']}")
        report("singular-point-value",
               genus5_locus_is_singular((Fraction(0), Fraction(1, 84))),
               "(0, 1/84)")
    return checks

"""Locus parametrizations for the A4-type genera, moduli-to-parameter
recovery, and the genus-5 locus equation.

The parametrization table ships as a versioned JSON fixture
(data/locus_table.json).  Entries are exact rational-function data; where the
published display and exact recomputation disagree, the recomputed form is
active and the published variant is retained with a status note.  Ground
truth for every entry is classify_point of the matching rational model; the
verification driver re-establishes that correspondence symbolically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from importlib import resources
from operator import add

from .a4 import rational_model
from .catalogue import (CLASSIFIER_BRANCHES, SUPPORTED_GENERA, ModuliPoint,
                        absolute_invariants, classify_point, vanishing_profile)
from .errors import (DomainError, GenusError, InputError, OffLocusError,
                     PoleError, RecoveryError)
from .polynomials import Poly, RatFunc, _clear_to_int, poly_divides, poly_gcd
from .record import Record
from .scalars import canonical_order, rational_from_str, rational_root
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


class LocusEntry(Record):
    genus: int
    kind: str                      # "constant" | "pair"
    status: str
    value: Fraction | None = None
    p1: RatFunc | None = None
    p2: RatFunc | None = None
    special_values: tuple = ()
    special_condition: dict | None = None
    degenerate_branch: dict | None = None
    parameter_poly: Poly | None = None      # special_condition, parsed
    point_relation: Poly | None = None      # special_condition, parsed
    condition_factors: tuple = ()           # degenerate_branch, parsed
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


def load_locus_table(path: str | None = None) -> LocusTable:
    """Load the shipped fixture, or an override file; a malformed one raises
    InputError, ValueError (JSON, genus keys) or ExactDivisionError."""
    if path is None:
        text = resources.files("hyperinv").joinpath("data/locus_table.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    raw = json.loads(text)
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
        if branch:
            field(branch, "note", str)          # read when the branch is hit
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
            special_condition=cond,
            degenerate_branch=branch,
            parameter_poly=_parse_poly(field(cond, "parameter_poly")) if cond else None,
            point_relation=_parse_poly(field(cond, "point_relation")) if cond else None,
            condition_factors=tuple(map(_parse_poly, field(branch, "condition_factors", list)
                                        if branch else ())),
            published_variants=field(obj, "published_variants", dict, None),
            note=field(obj, "note", str, ""),
        )
    return LocusTable(version=field(raw, "version", str), entries=entries)


_DEFAULT_TABLE = None


def default_table() -> LocusTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = load_locus_table()
    return _DEFAULT_TABLE


def locus_parametrization(genus: int, mu, table: LocusTable | None = None):
    """Evaluate the locus-table entry at a rational parameter.

    Returns a ModuliPoint, or a CubicConstraint on the genus-7 degenerate
    branch.  Special parameter values (poles of the generic branch) return
    the recorded special value; the recomputed one is used where the
    published value could not be reproduced (status on the table entry).
    """
    table = table or default_table()
    entry = table.entry(genus)
    if entry.kind == "constant":
        return ModuliPoint(genus=genus, case_tag=f"g={genus}", values=(entry.value,))
    mu = Fraction(mu)
    for sv in entry.special_values:
        if sv.mu == mu:
            value = sv.recomputed if sv.recomputed is not None else sv.published
            return ModuliPoint(genus=genus, case_tag=sv.case_tag, values=(value,))
    if entry.parameter_poly is not None and entry.parameter_poly(mu) == 0:
        return CubicConstraint(
            genus=genus,
            case_tag=entry.special_condition.get("case", f"g={genus}"),
            parameter_poly=entry.parameter_poly,
            relation=entry.point_relation,
        )
    if any(factor(mu) == 0 for factor in entry.condition_factors):
        raise DomainError(
            f"genus {genus} degenerate branch at mu = {mu}: "
            + entry.degenerate_branch["note"])
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

    Computed as rational roots of gcd(num(p1(mu) - p1), num(p2(mu) - p2)),
    then filtered by exact back-substitution.  A gcd whose rational roots
    cannot be extracted raises RecoveryError carrying that polynomial.
    """
    table = table or default_table()
    entry = table.entry(genus)
    if entry.kind == "constant":
        raise GenusError(f"genus {genus} locus is a single point; no parameter to recover")
    values = tuple(point.values) if isinstance(point, ModuliPoint) else tuple(point)
    if len(values) == 1:
        hits = [sv.mu for sv in entry.special_values
                if values[0] in (sv.recomputed, sv.published)]
        if not hits:
            raise OffLocusError(
                f"one-component point {values[0]} matches no recorded special value "
                f"for genus {genus}")
        return canonical_order(hits)
    p1, p2 = Fraction(values[0]), Fraction(values[1])
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
    candidates = _rational_roots(g)
    if candidates is None:
        raise RecoveryError(
            f"cannot extract rational roots of the degree-{g.degree} fiber polynomial",
            obstruction=g)
    good = []
    for mu in candidates:
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


def _rational_roots(p: Poly):
    """All rational roots of p, or None if extraction is out of reach."""
    roots = set()
    # strip mu = 0 roots
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    p = Poly(coeffs)
    while p.degree >= 1:
        if p.degree == 1:
            roots.add(-p.coeffs[0] / p.coeffs[1])
            return sorted(roots)
        if p.degree == 2:
            c, b, a = p.coeffs
            s = rational_root(b * b - 4 * a * c, 2)
            if s is None:
                return sorted(roots)
            roots.add((-b + s) / (2 * a))
            roots.add((-b - s) / (2 * a))
            return sorted(roots)
        # higher degree: divisor search on the primitive integer form
        ints = _clear_to_int(p)
        if abs(ints[0]) > 10**12 or abs(ints[-1]) > 10**12:
            return None
        found = None
        for num in _divisors(abs(ints[0])):
            for den in _divisors(abs(ints[-1])):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if p(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return sorted(roots)
        roots.add(found)
        p = p // Poly((-found, Fraction(1)))
    return sorted(roots)


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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
    values = tuple(point.values) if isinstance(point, ModuliPoint) else tuple(point)
    if len(values) != 2:
        raise DomainError("the genus-5 locus equation needs a two-component point")
    return _l5_sum(_L5_TERMS, *values)


def genus5_locus_is_singular(point) -> bool:
    """Residual and both formal partials vanish at the point."""
    values = tuple(point.values) if isinstance(point, ModuliPoint) else tuple(point)
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
    radical = g // poly_gcd(g, g.derivative()) if g.degree > 0 else g
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

    Checks: the vanishing profile identically in the parameter, the symbolic
    match between classify_point of the rational model and the table entry,
    recomputation of recorded special values, the genus-7 constraint-branch
    relation, and the genus-5 locus-equation identities.
    """
    table = table or default_table()
    entry = table.entry(genus)  # raises GenusError for unsupported genus
    checks: list[dict] = []

    def report(name, ok, detail=""):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "detail": detail})

    if genus == 4:
        F = rational_model(4)
        profile = vanishing_profile(F, 4)
        report("vanishing-profile", all(v for _, v in profile), str(profile))
        checks.append({
            "name": "moduli-value-recomputation", "status": "skip",
            "detail": entry.note})
        return checks

    checks.append({
        "name": "transcription-status",
        "status": entry.status,
        "detail": entry.note or "published display matches exact recomputation"})
    if entry.published_variants:
        checks.append({
            "name": "published-variants-on-record",
            "status": "info",
            "detail": str(entry.published_variants)})

    mu = Poly.x()
    F = rational_model(genus, mu)
    profile = vanishing_profile(F, genus)
    report("vanishing-profile-identically", all(v for _, v in profile), str(profile))

    point = classify_point(F, genus)
    exp1, exp2 = entry.p1, entry.p2
    got1, got2 = point.values
    ok1, ok2 = got1 == exp1, got2 == exp2
    report("parametrization-first-component", ok1,
           "" if ok1 else f"recomputed {got1!r}")
    report("parametrization-second-component", ok2,
           "" if ok2 else f"recomputed {got2!r}")

    for sv in entry.special_values:
        special = classify_point(rational_model(genus, sv.mu), genus)
        value = special.values[0]
        agrees_published = value == sv.published
        agrees_recorded = sv.recomputed is not None and value == sv.recomputed
        status = "pass" if agrees_published else (
            "recomputed-differs" if agrees_recorded else "fail")
        checks.append({
            "name": f"special-value(mu={sv.mu})", "status": status,
            "detail": f"classify gives {value}; published {sv.published}"})

    if genus == 7 and entry.parameter_poly is not None:
        cubic, rel = entry.parameter_poly, entry.point_relation
        # v3 = I6/I6p as a rational function of mu; rel(v3) must vanish mod cubic
        v3 = absolute_invariants(F).v3
        n, d = v3.num, v3.den
        acc = Poly()
        for k, c in enumerate(rel.coeffs):
            acc = acc + c * n ** k * d ** (rel.degree - k)
        report("constraint-branch-relation", (acc % cubic).is_zero,
               "relation(v3) = 0 modulo the parameter cubic")

    if genus == 5:
        residual = genus5_locus_residual(point.values)
        report("locus-equation-residual", residual == 0,
               "identically in the parameter")
        sing = genus5_singular_point_analysis(table)
        report("singular-point-uniqueness",
               sing["all_roots_map_to_singular_point"] and sing["gcd_avoids_poles"],
               f"gcd degree {sing['gcd_degree']}")
        report("singular-point-value",
               genus5_locus_is_singular((Fraction(0), Fraction(1, 84))),
               "(0, 1/84)")
    return checks

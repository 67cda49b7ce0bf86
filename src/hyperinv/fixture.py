"""The locus-table reader: the versioned JSON fixture
(data/locus_table.json) parsed into the records ``loci`` evaluates.

Every polynomial and rational function is parsed at load time into the value
the code returns (the genus-7 constraint branch into its ``CubicConstraint``).
The shipped table is parsed on first use of ``default_table``;
``shipped_version`` reads its version without parsing the entries, so a
process that never evaluates the table does not pay for it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import cache

from .errors import GenusError, InputError
from .polynomials import Poly, RatFunc
from .record import Record
from .scalars import rational_from_str
from .serialize import field

#: the fixture that ships beside the package
SHIPPED = os.path.join(os.path.dirname(__file__), "data", "locus_table.json")


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


def load_locus_table(path: str = SHIPPED) -> LocusTable:
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


@cache
def shipped_version() -> str:
    """The shipped table's version, read without parsing its entries."""
    with open(SHIPPED, "r", encoding="utf-8") as fh:
        return field(json.load(fh), "version", str)

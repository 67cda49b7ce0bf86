"""Batch command-line front end.

Reads a request object {"command": ..., "payload": ...} (or, with --batch, an
array of them) from --input, runs the kernel, and writes a report
{"status", "result"|"error", "provenance"} to --output.  All numbers are
exact strings.  Exit codes: 0 ok, 1 domain error, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import import_module

from . import __version__
from .errors import DomainError, InputError
from .scalars import rational_to_str
from .serialize import (absolute_to_json, dihedral_to_json, field, form_from_json,
                        form_to_json, invariant_set_to_json,
                        moduli_point_to_json, normal_form_from_json,
                        normal_form_to_json, scalar_from_json)

#: the kernel's entry points, each imported from its module on first use, so
#: that a one-shot request loads only the modules its command runs
_LAZY = {
    "covariant_catalogue": "catalogue", "classify_point": "catalogue",
    "absolute_invariants": "catalogue", "vanishing_profile": "catalogue",
    "rational_model": "a4", "a4_curve_model": "a4",
    "dihedral_invariants": "cyclic", "reconstruct_from_u": "cyclic",
    "signature_row": "cyclic",
    "recover_mu": "loci", "verify_genus": "loci",
    "default_table": "fixture", "load_locus_table": "fixture", "shipped_version": "fixture",
}


def __getattr__(name):
    """An entry point of ``_LAZY``, imported and kept as this module's attribute."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__package__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


# Handlers call an entry point through this module's attribute (``_cli.name``),
# so that patching that attribute reaches them.  The seven that perfbench/spans.py
# also wraps on their defining module (catalogue's covariant_catalogue,
# classify_point and absolute_invariants, a4's rational_model and
# a4_curve_model, loci's recover_mu and verify_genus) are called through that
# module instead: it wraps the defining module's site first, so this module's
# attribute, resolved after it, would be a wrapper of a wrapper and count each
# call twice.  ROADMAP item 4 replaces that patching with one trace.
_cli = sys.modules[__name__]


def _cmd_invariants(payload, ctx):
    from . import catalogue

    form, _ = form_from_json(payload)
    inv = catalogue.covariant_catalogue(form)
    return {
        "degree": form.degree,
        "invariants": invariant_set_to_json(inv),
        "absolute": absolute_to_json(catalogue.absolute_invariants(inv)),
    }


def _cmd_classify(payload, ctx):
    from . import catalogue

    form, genus = form_from_json(payload)
    if genus is None:
        raise InputError("classify needs the form's genus")
    return moduli_point_to_json(catalogue.classify_point(form, genus))


def _cmd_vanishing(payload, ctx):
    form, genus = form_from_json(payload)
    if genus is None:
        raise InputError("vanishing needs the form's genus")
    profile = _cli.vanishing_profile(form, genus)
    return {"genus": genus,
            "profile": [{"invariant": name, "vanishes": flag}
                        for name, flag in profile]}


def _cmd_dihedral(payload, ctx):
    nf = normal_form_from_json(payload)
    return dihedral_to_json(_cli.dihedral_invariants(nf))


def _cmd_reconstruct(payload, ctx):
    u = tuple(scalar_from_json(s, "Q") for s in field(payload, "u", list))
    nf = _cli.reconstruct_from_u(u, field(payload, "case", int), field(payload, "n", int),
                                 field(payload, "genus", int))
    return normal_form_to_json(nf)


def _cmd_model(payload, ctx):
    from . import a4

    family = field(payload, "family", str, "rational")
    g = field(payload, "genus", int)
    if family == "rational":
        mu = field(payload, "mu", default=None)
        variant = field(payload, "variant", str, "adjudicated")
        form = a4.rational_model(g, scalar_from_json(mu, "Q") if mu is not None else None,
                                 variant=variant)
        return form_to_json(form, genus=g)
    if family == "table2":
        lambdas = [scalar_from_json(s, "Qi_sqrt3" if isinstance(s, list) else "Q")
                   for s in field(payload, "lambdas", list)]
        form = a4.a4_curve_model(g, lambdas)
        return form_to_json(form, genus=g)
    raise InputError(f"unknown model family {family!r}")


def _cmd_recover(payload, ctx):
    from . import loci

    g = field(payload, "genus", int)
    p_raw = field(payload, "p", list)
    if not 1 <= len(p_raw) <= 2:
        raise InputError("p must be an array of one or two rational strings")
    point = tuple(scalar_from_json(s, "Q") for s in p_raw)
    mus = loci.recover_mu(g, point, table=_table(ctx))
    return {"mu": rational_to_str(mus[0]), "all": [rational_to_str(m) for m in mus]}


def _cmd_verify_locus(payload, ctx):
    from . import loci

    g = field(payload, "genus", int)
    return {"genus": g, "checks": loci.verify_genus(g, table=_table(ctx))}


def _cmd_catalogue(payload, ctx):
    row = _cli.signature_row(field(payload, "group", str), field(payload, "genus", int),
                        field(payload, "n", int, None))
    return {"group": row.group, "delta": row.delta,
            "signature": list(row.signature), "involutions": row.involutions}


_HANDLERS = {
    "invariants": _cmd_invariants,
    "classify": _cmd_classify,
    "vanishing": _cmd_vanishing,
    "dihedral": _cmd_dihedral,
    "reconstruct": _cmd_reconstruct,
    "model": _cmd_model,
    "recover": _cmd_recover,
    "verify-locus": _cmd_verify_locus,
    "catalogue": _cmd_catalogue,
}
COMMANDS = tuple(_HANDLERS)


#: what loading a malformed or unreadable table raises
_FIXTURE_ERRORS = (OSError, ValueError, InputError, DomainError)


class _FixtureError(Exception):
    """The shipped table failed to load inside a request; main exits 2."""


def _table(ctx):
    """The --fixture table, or else the shipped one, parsed on first use."""
    if ctx["table"] is None:
        try:
            ctx["table"] = _cli.default_table()
        except _FIXTURE_ERRORS as exc:
            raise _FixtureError(exc) from None
    return ctx["table"]


def _run_one(request, ctx) -> tuple[dict, int]:
    """The report and exit code: 0 "ok", 1 "error" (DomainError), 2 "invalid"."""
    start = time.monotonic()
    try:
        command = field(request, "command", str)
        if command not in _HANDLERS:
            raise InputError(f"unknown command {command!r}; expected one of {COMMANDS}")
        result = _HANDLERS[command](field(request, "payload", dict), ctx)
        status, body, code = "ok", {"result": result}, 0
    except (DomainError, InputError) as exc:
        status, code = ("error", 1) if isinstance(exc, DomainError) else ("invalid", 2)
        body = {"error": {"name": type(exc).__name__, "message": str(exc)}}
    wall_ms = round((time.monotonic() - start) * 1000, 3)
    report = {"status": status,
              "provenance": {"kernel": f"hyperinv {__version__}",
                             "fixture": ctx["version"],
                             "wall_ms": wall_ms},
              **body}
    return report, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperinv",
        description="Exact invariants of binary forms and hyperelliptic-curve "
                    "classification; JSON in, JSON out.")
    parser.add_argument("--input", default="-", help="request file or - for stdin")
    parser.add_argument("--output", default="-", help="report file or - for stdout")
    parser.add_argument("--batch", action="store_true",
                        help="input is a JSON array of requests")
    parser.add_argument("--fixture", default=None,
                        help="override the locus-table fixture path")
    parser.add_argument("--pretty", action="store_true", help="indent the output")
    args = parser.parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:     # over-long integer, deep nesting
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return 2

    # an override is parsed now; the shipped table only by a request that reads it
    try:
        if args.fixture:
            table = _cli.load_locus_table(args.fixture)
            ctx = {"table": table, "version": table.version}
        else:
            ctx = {"table": None, "version": _cli.shipped_version()}
    except _FIXTURE_ERRORS as exc:
        print(f"cannot load fixture: {exc}", file=sys.stderr)
        return 2

    if args.batch and not isinstance(data, list):
        print("malformed request: --batch expects a JSON array of requests", file=sys.stderr)
        return 2
    try:
        if args.batch:
            runs = [_run_one(request, ctx) for request in data]
            out = [report for report, _ in runs]
            exit_code = max((code for _, code in runs), default=0)
        else:
            out, exit_code = _run_one(data, ctx)
    except _FixtureError as exc:
        print(f"cannot load fixture: {exc}", file=sys.stderr)
        return 2
    if not args.batch and exit_code == 2:
        print(f"malformed request: {out['error']['message']}", file=sys.stderr)
        return 2

    rendered = json.dumps(out, sort_keys=True, indent=1 if args.pretty else None)
    try:
        if args.output == "-":
            print(rendered)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())

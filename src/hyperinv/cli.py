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

from . import __version__
from .a4 import a4_curve_model, rational_model
from .catalogue import (absolute_invariants, classify_point,
                        covariant_catalogue, vanishing_profile)
from .cyclic import dihedral_invariants, reconstruct_from_u, signature_row
from .errors import DomainError, InputError
from .loci import default_table, load_locus_table, recover_mu, verify_genus
from .scalars import rational_to_str
from .serialize import (absolute_to_json, dihedral_to_json, field, form_from_json,
                        form_to_json, invariant_set_to_json,
                        moduli_point_to_json, normal_form_from_json,
                        normal_form_to_json, scalar_from_json)

def _cmd_invariants(payload, ctx):
    form, _ = form_from_json(payload)
    inv = covariant_catalogue(form)
    return {
        "degree": form.degree,
        "invariants": invariant_set_to_json(inv),
        "absolute": absolute_to_json(absolute_invariants(inv)),
    }


def _cmd_classify(payload, ctx):
    form, genus = form_from_json(payload)
    if genus is None:
        raise InputError("classify needs the form's genus")
    return moduli_point_to_json(classify_point(form, genus))


def _cmd_vanishing(payload, ctx):
    form, genus = form_from_json(payload)
    if genus is None:
        raise InputError("vanishing needs the form's genus")
    profile = vanishing_profile(form, genus)
    return {"genus": genus,
            "profile": [{"invariant": name, "vanishes": flag}
                        for name, flag in profile]}


def _cmd_dihedral(payload, ctx):
    nf = normal_form_from_json(payload)
    return dihedral_to_json(dihedral_invariants(nf))


def _cmd_reconstruct(payload, ctx):
    u = tuple(scalar_from_json(s, "Q") for s in field(payload, "u", list))
    nf = reconstruct_from_u(u, field(payload, "case", int), field(payload, "n", int),
                            field(payload, "genus", int))
    return normal_form_to_json(nf)


def _cmd_model(payload, ctx):
    family = field(payload, "family", str, "rational")
    g = field(payload, "genus", int)
    if family == "rational":
        mu = field(payload, "mu", default=None)
        variant = field(payload, "variant", str, "adjudicated")
        form = rational_model(g, scalar_from_json(mu, "Q") if mu is not None else None,
                              variant=variant)
        return form_to_json(form, genus=g)
    if family == "table2":
        form = a4_curve_model(g, [scalar_from_json(s, "Qi_sqrt3" if isinstance(s, list) else "Q")
                                  for s in field(payload, "lambdas", list)])
        return form_to_json(form, genus=g)
    raise InputError(f"unknown model family {family!r}")


def _cmd_recover(payload, ctx):
    g = field(payload, "genus", int)
    p_raw = field(payload, "p", list)
    if not 1 <= len(p_raw) <= 2:
        raise InputError("p must be an array of one or two rational strings")
    point = tuple(scalar_from_json(s, "Q") for s in p_raw)
    mus = recover_mu(g, point, table=ctx["table"])
    return {"mu": rational_to_str(mus[0]), "all": [rational_to_str(m) for m in mus]}


def _cmd_verify_locus(payload, ctx):
    g = field(payload, "genus", int)
    return {"genus": g, "checks": verify_genus(g, table=ctx["table"])}


def _cmd_catalogue(payload, ctx):
    row = signature_row(field(payload, "group", str), field(payload, "genus", int),
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
                             "fixture": ctx["table"].version,
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

    try:
        table = load_locus_table(args.fixture) if args.fixture else default_table()
    except (OSError, ValueError, InputError, DomainError) as exc:
        print(f"cannot load fixture: {exc}", file=sys.stderr)
        return 2
    ctx = {"table": table}

    if args.batch:
        if not isinstance(data, list):
            print("malformed request: --batch expects a JSON array of requests",
                  file=sys.stderr)
            return 2
        runs = [_run_one(request, ctx) for request in data]
        out = [report for report, _ in runs]
        exit_code = max((code for _, code in runs), default=0)
    else:
        out, exit_code = _run_one(data, ctx)
        if exit_code == 2:
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

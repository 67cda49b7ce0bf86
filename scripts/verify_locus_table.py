#!/usr/bin/env python3
"""Re-derive the shipped locus table from scratch and print a status report.

For every supported genus this runs the exact symbolic pipeline (vanishing
profiles identically in the parameter, classify-vs-table rational-function
identities, special values, the genus-7 constraint relation, the genus-5
locus equation) and prints one line per check.  Expected output: every check
passes, with four documented recomputed-differs statuses: the transcription
statuses of genera 7, 9 and 12, and the genus-9 special value.

Usage: python scripts/verify_locus_table.py [genus ...]

Each genus is a plain integer.  A malformed argument exits 2 and a genus the
table does not cover exits 1, each with one line on stderr.
"""

import sys
import time
from contextlib import suppress

from hyperinv import (LOCUS_GENERA, DomainError, InputError, rational_from_str,
                      verify_genus)


def _genus(text):
    """A plain integer "g": the CLI's rational syntax without "/q"."""
    if "/" not in text:
        with suppress(InputError):
            return int(rational_from_str(text))
    raise InputError(f"expected a genus as a plain integer, got {text!r}")


def main(argv):
    try:
        genera = [_genus(a) for a in argv] or list(LOCUS_GENERA)
    except InputError as exc:
        print(f"malformed argument: {exc}", file=sys.stderr)
        return 2
    overall = True
    for g in genera:
        t0 = time.monotonic()
        try:
            checks = verify_genus(g)
        except DomainError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        dt = time.monotonic() - t0
        print(f"genus {g}  [{dt:.2f}s]")
        for check in checks:
            marker = {"pass": "ok  ", "fail": "FAIL", "skip": "skip",
                      "info": "info"}.get(check["status"], check["status"])
            print(f"  {marker:<18} {check['name']}: {check['detail'][:90]}")
            if check["status"] == "fail":
                overall = False
    print("result:", "all checks passed" if overall else "FAILURES above")
    return 0 if overall else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

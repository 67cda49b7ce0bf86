"""The hyperinv CLI run under a spans.Tracer, for the traced run of cli_requests.

Arguments go to hyperinv's main unchanged; the report goes to stdout as
usual.  The spans go to stderr as one line that starts with TRACE_MARK,
with the time this script spent importing hyperinv.cli and in total.
Usage: python3 perfbench/cli_child.py [--batch] < request.json
(with the repository's src directory on PYTHONPATH).
"""

import time

START = time.perf_counter_ns()


def main() -> int:
    import hyperinv.cli

    imported = time.perf_counter_ns()
    import json
    import sys

    from spans import TRACE_MARK, Tracer

    with Tracer() as tracer:
        code = hyperinv.cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps({**tracer.dump(), "import_ns": imported - START,
                                   "run_ns": time.perf_counter_ns() - START}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

"""Set-up probe: a fresh interpreter imports hyperinv, loads the locus table
and answers one warm-up request, given as JSON in the first argument.

Usage: python3 perfbench/setup_child.py '{"workload": "symbolic_verify", "genus": 4}'
(with the repository's src directory on PYTHONPATH).
"""

import json
import sys
from fractions import Fraction


def main(spec: dict) -> None:
    import hyperinv

    hyperinv.default_table()
    genus = spec["genus"]
    if spec["workload"] == "rational_classify":
        form = hyperinv.rational_model(genus, Fraction(spec["mu"]))
        hyperinv.recover_mu(genus, hyperinv.classify_point(form, genus))
    elif spec["workload"] == "symbolic_verify":
        hyperinv.verify_genus(genus)
    elif spec["workload"] == "cyclo_invariants":
        lam = hyperinv.Cyclo(*(Fraction(c) for c in spec["lam"]))
        form = hyperinv.a4_curve_model(genus, [lam])
        hyperinv.absolute_invariants(hyperinv.covariant_catalogue(form))
    else:
        raise SystemExit(f"unknown workload {spec['workload']!r}")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

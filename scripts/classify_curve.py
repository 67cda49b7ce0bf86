#!/usr/bin/env python3
"""End-to-end demo: build curve models, classify them, and invert the moduli map.

Walks one orbit of the machinery:
  1. build the genus-9 rational model at a parameter mu,
  2. compute its invariant catalogue and moduli point,
  3. recover mu back from the moduli point,
  4. compute dihedral invariants of a genus-5 normal form and reconstruct it.

Usage: python scripts/classify_curve.py [mu]   (default mu = 7/2)

mu is "p" or "p/q", as in the CLI.  A malformed argument exits 2 and a
domain error (a zero denominator at this mu, say) exits 1, each with one line
on stderr.
"""

import sys
from fractions import Fraction

from hyperinv import (DomainError, InputError, classify_point, covariant_catalogue,
                      dihedral_invariants, extra_involution_condition,
                      make_normal_form, rational_from_str, rational_model,
                      rational_to_str, reconstruct_from_u, recover_mu,
                      vanishing_profile)


def main(argv):
    try:
        if len(argv) > 1:
            raise InputError(f"expected at most one argument mu, got {len(argv)}")
        mu = rational_from_str(argv[0]) if argv else Fraction(7, 2)
    except InputError as exc:
        print(f"malformed argument: {exc}", file=sys.stderr)
        return 2
    try:
        return _demo(mu)
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _demo(mu):
    print(f"== genus-9 model at mu = {mu}")
    F = rational_model(9, mu)
    inv = covariant_catalogue(F)
    for name in ("I2", "I3", "I4", "I4p", "I6"):
        print(f"   {name} = {inv.value(name)}")
    print("   vanishing profile:", vanishing_profile(F, 9))
    point = classify_point(F, 9)
    print(f"   moduli point [{point.case_tag}]:",
          tuple(rational_to_str(v) for v in point.values))
    back = recover_mu(9, point)
    print(f"   recovered parameter(s): {[rational_to_str(m) for m in back]}")

    print("== genus-5 normal form with an extra involution")
    nf = make_normal_form(1, 2, 5, tuple(Fraction(c) for c in (-1, -33, 2, -33, -1)))
    u = dihedral_invariants(nf)
    print("   dihedral invariants:", tuple(rational_to_str(v) for v in u.values))
    print("   extra-involution relation holds:", extra_involution_condition(u, 5))
    rec = reconstruct_from_u(u, 1, 2, 5)
    print("   reconstructed representative:", rec.coeffs)
    print("   round trip ok:", dihedral_invariants(rec).values == u.values)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

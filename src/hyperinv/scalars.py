"""Exact scalars: rationals and the degree-4 number field Q(i, sqrt3).

The base scalar is ``fractions.Fraction`` (aliased ``Rational``); it already
carries the reduced-form/positive-denominator invariants this kernel needs.
``Cyclo`` implements Q(i, sqrt3) = Q(zeta_12) on the basis {1, i, sqrt3,
i*sqrt3}; the two conjugations i -> -i and sqrt3 -> -sqrt3 are ring
automorphisms and every nonzero element is invertible.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from .errors import ConstraintError, ExactDivisionError, InputError

Rational = Fraction

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rational_from_str(text) -> Fraction:
    """Parse the exact encoding "p/q" (or plain "p") with q != 0; anything else
    is an InputError (no decimal or exponent forms: "1e999999999" would make a
    huge integer)."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    try:
        if match:
            return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError):     # over-long digit string, q = 0
        pass
    raise InputError(f'expected a rational string "p/q" with q != 0, got {text!r}')


def rational_to_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def canonical_order(values) -> list:
    """The distinct values, shortest exact text encoding first."""
    return sorted(set(values), key=lambda q: (len(str(q)), str(q)))


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 0: isqrt for k = 2, else integer Newton from above."""
    if k == 2:
        return isqrt(m)
    if m < 2:
        return m
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_root(q, k: int):
    """The real k-th root of a rational if it is rational, else None."""
    q = Fraction(q)
    if q < 0 and k % 2 == 0:
        return None
    n, d = abs(q.numerator), q.denominator
    rn, rd = _iroot(n, k), _iroot(d, k)
    if rn ** k != n or rd ** k != d:
        return None
    return Fraction(-rn if q < 0 else rn, rd)


def power(base, exponent: int, one):
    """base ** exponent for exponent >= 0 by square-and-multiply, starting from
    the ring's ``one`` (returned as is for exponent 0)."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class Cyclo:
    """Element c0 + c1*i + c2*sqrt3 + c3*i*sqrt3 with rational coordinates."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        object.__setattr__(self, "c0", Fraction(c0))
        object.__setattr__(self, "c1", Fraction(c1))
        object.__setattr__(self, "c2", Fraction(c2))
        object.__setattr__(self, "c3", Fraction(c3))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Cyclo is immutable")

    def __reduce__(self):
        return Cyclo, (self.c0, self.c1, self.c2, self.c3)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Cyclo":
        return cls(Fraction(q))

    @classmethod
    def i(cls) -> "Cyclo":
        return cls(0, 1)

    @classmethod
    def sqrt3(cls) -> "Cyclo":
        return cls(0, 0, 1)

    @classmethod
    def i_sqrt3(cls) -> "Cyclo":
        return cls(0, 0, 0, 1)

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo(x)
        return None

    # -- structure ---------------------------------------------------------

    @property
    def coords(self):
        return (self.c0, self.c1, self.c2, self.c3)

    @property
    def is_rational(self) -> bool:
        return self.c1 == 0 and self.c2 == 0 and self.c3 == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ExactDivisionError(f"{self!r} is not rational")
        return self.c0

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        # rational elements hash like their Fraction so mixed-ring dict keys agree
        if self.is_rational:
            return hash(self.c0)
        return hash(self.coords)

    def __repr__(self):
        return f"Cyclo({self.c0!r}, {self.c1!r}, {self.c2!r}, {self.c3!r})"

    def __str__(self):
        parts = []
        for coef, unit in zip(self.coords, ("", "i", "sqrt3", "i*sqrt3")):
            if coef == 0:
                continue
            text = rational_to_str(coef)
            parts.append(f"{text}*{unit}" if unit else text)
        return " + ".join(parts) if parts else "0"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclo(self.c0 + other.c0, self.c1 + other.c1,
                     self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        # i^2 = -1, sqrt3^2 = 3, (i*sqrt3)^2 = -3
        return Cyclo(
            a0 * b0 - a1 * b1 + 3 * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + 3 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        )

    __rmul__ = __mul__

    # -- field operations ----------------------------------------------------

    def conj_i(self) -> "Cyclo":
        """The automorphism i -> -i."""
        return Cyclo(self.c0, -self.c1, self.c2, -self.c3)

    def conj_sqrt3(self) -> "Cyclo":
        """The automorphism sqrt3 -> -sqrt3."""
        return Cyclo(self.c0, self.c1, -self.c2, -self.c3)

    def norm(self) -> Fraction:
        """Product over the four conjugates; a rational of the same sign pattern."""
        v = self * self.conj_i()          # lands in Q(sqrt3)
        n = v * v.conj_sqrt3()            # rational
        return n.as_rational()

    def inverse(self) -> "Cyclo":
        if not self:
            raise ExactDivisionError("inverse of zero in Q(i, sqrt3)")
        u = self.conj_i()
        v = self * u
        w = v.conj_sqrt3()
        n = (v * w).as_rational()
        return u * w * Cyclo(Fraction(1) / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, Cyclo(1))


#: orders of roots of unity representable in Q(i, sqrt3) = Q(zeta_12)
REPRESENTABLE_ROOT_ORDERS = (1, 2, 3, 4, 6, 12)

_PRIMITIVE_ROOTS = {
    1: Cyclo(1),
    2: Cyclo(-1),
    3: Cyclo(Fraction(-1, 2), 0, 0, Fraction(1, 2)),
    4: Cyclo.i(),
    6: Cyclo(Fraction(1, 2), 0, 0, Fraction(1, 2)),
    12: Cyclo(0, Fraction(1, 2), Fraction(1, 2), 0),
}


def root_of_unity(order: int) -> Cyclo:
    """A primitive root of unity of the given order (order must divide 12)."""
    try:
        return _PRIMITIVE_ROOTS[order]
    except KeyError:
        raise ConstraintError(
            f"roots of unity of order {order} are not representable in Q(i, sqrt3); "
            f"supported orders: {REPRESENTABLE_ROOT_ORDERS}"
        ) from None


def roots_of_unity(order: int):
    """All solutions of x^order = 1 in Q(i, sqrt3), starting from 1."""
    zeta = root_of_unity(order)
    out = []
    acc = Cyclo(1)
    for _ in range(order):
        out.append(acc)
        acc = acc * zeta
    return tuple(out)

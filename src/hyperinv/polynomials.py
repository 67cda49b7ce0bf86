"""Dense univariate polynomials over an exact coefficient ring, and rational
functions over the coefficient field.

``Poly`` is generic: coefficients only need exact +, -, *, a truth value,
equality with 0/1, and (where a field is required) division.  In this kernel the coefficient
rings are Fraction, Cyclo, and Poly-over-Fraction never nests further.

``RatFunc`` keeps the canonical form: gcd(num, den) trivial and den monic, so
``==`` on the stored representation is cross-multiplication equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm

from .errors import ExactDivisionError, PoleError
from .record import ExactField, ExactRing
from .scalars import Cyclo, power


#: the entry types that ``convolve`` multiplies in integers
_RATIONALS = frozenset((int, Fraction))


def convolve(a, b) -> list:
    """The coefficient list of the product of two coefficient sequences,
    lowest degree first.  A zero factor on either side is skipped (by
    truthiness, which is far cheaper than ``== 0`` on a Cyclo), so a slot that
    no product reaches stays the int 0.  Two lists of ints and Fractions are
    multiplied in integers (``_rational_convolve``), with the same result."""
    if _RATIONALS.issuperset(map(type, a)) and _RATIONALS.issuperset(map(type, b)):
        return _rational_convolve(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def _rational_convolve(a, b) -> list:
    """``convolve`` of two int/Fraction lists: each list is cleared to
    integers over one common denominator, the integer lists are convolved,
    and each slot is divided back once.  Each slot has the type the generic
    loop gives it: a Fraction where a Fraction factor reaches it, else an int
    (the int 0 where no product reaches it)."""
    den_a = _int_lcm(*[c.denominator for c in a])
    den_b = _int_lcm(*[c.denominator for c in b])
    ints_b = []
    reach_b = fraction_b = 0        # bit j: b[j] is nonzero; a nonzero Fraction
    for j, y in enumerate(b):
        if y:
            ints_b.append((j, y.numerator * (den_b // y.denominator)))
            reach_b |= 1 << j
            if type(y) is Fraction:
                fraction_b |= 1 << j
    sums = [0] * (len(a) + len(b) - 1)
    fraction = 0                    # bit k: a Fraction factor reaches slot k
    for i, x in enumerate(a):
        if x:
            fraction |= (reach_b if type(x) is Fraction else fraction_b) << i
            x = x.numerator * (den_a // x.denominator)
            for j, y in ints_b:
                sums[i + j] += x * y
    den = den_a * den_b
    return [Fraction(s, den) if fraction >> k & 1 else s // den for k, s in enumerate(sums)]


class Poly(ExactRing):
    """Coefficients lowest degree first; the zero polynomial stores ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    _lifts, _lift = (int, Fraction, Cyclo), constant

    @classmethod
    def x(cls) -> "Poly":
        """The generator of Q[x] (rational coefficients)."""
        return cls((Fraction(0), Fraction(1)))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ExactDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if not self.coeffs:
            return hash(0)
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(convolve(self.coeffs, other.coeffs))
        if isinstance(other, self._lifts):
            return Poly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return power(self, exponent, Poly((Fraction(1),)))

    # -- evaluation, calculus ------------------------------------------------

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    # -- field-coefficient operations -----------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return self * _inverse(lead)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ExactDivisionError("polynomial division by zero")
        inv = _inverse(other.leading)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + k:
                continue
            c = rem[len(other.coeffs) + k - 1] * inv
            if c == 0:
                continue
            quot[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]


def _exact(x):
    """An int as a Fraction; a float or a str is a TypeError (a float's binary
    value is no exact parameter, and text is parsed at the boundary, by
    ``scalars.rational_from_str``); any other value unchanged."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, str)):
        raise TypeError(f"{type(x).__name__} {x!r} is not exact; "
                        "pass an int, a Fraction or a ring element")
    return x


def _inverse(c):
    """1/c in the coefficient field (Fraction for int or Fraction c)."""
    return 1 / Fraction(c) if isinstance(c, (int, Fraction)) else c.inverse()


def _clear_to_int(p: Poly):
    """Primitive integer coefficient list of a Fraction-coefficient poly."""
    den = 1
    for c in p.coeffs:
        den = _int_lcm(den, c.denominator)
    return _int_primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _int_primitive(ints):
    content = 0
    for c in ints:
        content = _int_gcd(content, abs(c))
    if content > 1:
        ints = [c // content for c in ints]
    return ints


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over a coefficient field.

    Over Q a primitive polynomial-remainder sequence on integer-cleared
    coefficients keeps intermediate growth down; other fields use plain
    monic Euclid (only small degrees reach that path here).
    """
    if p.is_zero and q.is_zero:
        raise ExactDivisionError("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    rational = all(isinstance(c, (int, Fraction)) for c in p.coeffs + q.coeffs)
    if not rational:
        a, b = p, q
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()
    a, b = _clear_to_int(p), _clear_to_int(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b, made primitive
        r = list(a)
        lead = b[-1]
        shift = len(r) - len(b)
        r = [c * lead ** (shift + 1) for c in r]
        while len(r) >= len(b) and r:
            factor, rem0 = divmod(r[-1], b[-1])
            if rem0:
                raise ExactDivisionError(
                    "pseudo-remainder step is not an exact integer division")
            k = len(r) - len(b)
            for i, c in enumerate(b):
                r[k + i] -= factor * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _int_primitive(r)
    return Poly([Fraction(c) for c in a]).monic()


def square_free_part(p: Poly) -> Poly:
    """p // gcd(p, p'): the same roots, each simple, and p's leading
    coefficient (a nonzero constant is its own square-free part)."""
    return p // poly_gcd(p, p.derivative())


def poly_divides(d: Poly, p: Poly) -> bool:
    """Exact divisibility test over a field."""
    if d.is_zero:
        return p.is_zero
    return (p % d).is_zero


class RatFunc(ExactField):
    """Rational function num/den over the coefficient field in canonical form
    (den monic, coprime)."""

    __slots__ = ("num", "den")
    _lifts = (Poly, int, Fraction, Cyclo)

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly((_exact(num),))
        if den is None:
            den = Poly((Fraction(1),))
        elif not isinstance(den, Poly):
            den = Poly((_exact(den),))
        if den.is_zero:
            raise ExactDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly((Fraction(1),))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                inv = _inverse(lead)
                num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # with denominator 1 it equals its numerator Poly, so it hashes like it
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ExactDivisionError("division by the zero rational function")
        return RatFunc(self.den, self.num)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.is_zero:
                raise ExactDivisionError("negative power of zero")
            return RatFunc(self.den ** (-exponent), self.num ** (-exponent))
        return RatFunc(self.num ** exponent, self.den ** exponent)

    def eval(self, x):
        """Exact evaluation at a scalar of the coefficient field (an int as a
        Fraction); raises PoleError at zeros of the denominator."""
        x = _exact(x)
        d = self.den(x)
        if d == 0:
            raise PoleError(f"pole at x = {x}", at=x)
        return self.num(x) / d

"""Binary forms, the GL2 substitution action, and the r-transvection.

A form of degree d is stored as the coefficient list a_0..a_d of
sum_i a_i X^i Z^(d-i).  The transvection acts on these polynomials through
exact partial derivatives, each mixed partial taken in one pass
(d^(kx+kz) / dX^kx dZ^kz sends a_i to (i)_kx (d-i)_kz a_i on X^(i-kx) Z^(d-i-kz),
with (x)_k the falling factorial):

    (f, g)^r = (m-r)! (n-r)! / (n! m!) *
               sum_k (-1)^k C(r,k) d^r f/dX^(r-k)dZ^k * d^r g/dX^k dZ^(r-k)

for f, g of orders n, m.  It is bilinear, satisfies (f,g)^r = (-1)^r (g,f)^r,
and under X -> aX+bZ, Z -> cX+dZ picks up det(M)^r:
(f∘M, g∘M)^r = det(M)^r * (f,g)^r ∘ M.

Coefficients may live in any exact commutative ring containing Q (Fraction,
Cyclo, Poly over either); the factorial prefactor only ever divides by
integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .errors import SingularMatrixError, TransvectionError
from .polynomials import Poly
from .record import Record
from .scalars import Cyclo


class BinaryForm:
    """Homogeneous bivariate polynomial of fixed degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree-{degree} form needs {degree + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    def __reduce__(self):
        return BinaryForm, (self.degree, self.coeffs)

    @classmethod
    def from_univariate(cls, coeffs, degree: int | None = None) -> "BinaryForm":
        """Homogenize p(X) = sum c_j X^j to the requested degree (a_j = c_j)."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if degree is None:
            degree = len(cs) - 1 if cs else 0
        if len(cs) - 1 > degree:
            raise ValueError("univariate degree exceeds target form degree")
        cs = cs + [0] * (degree + 1 - len(cs))
        return cls(degree, cs)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def constant_value(self):
        """The value of a degree-0 form."""
        if self.degree != 0:
            raise ValueError("not a degree-0 form")
        return self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"BinaryForm({self.degree}, {list(self.coeffs)!r})"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return BinaryForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return BinaryForm(self.degree, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            out = [0] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b == 0:
                        continue
                    out[i + j] = out[i + j] + a * b
            return BinaryForm(self.degree + other.degree, out)
        return BinaryForm(self.degree, tuple(c * other for c in self.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def partial(self, kx: int, kz: int) -> "BinaryForm":
        """d^(kx+kz) / dX^kx dZ^kz in one pass: a_i -> (i)_kx (d-i)_kz a_i."""
        d = self.degree
        return BinaryForm(d - kx - kz, tuple(perm(i, kx) * perm(d - i, kz) * self.coeffs[i]
                                              for i in range(kx, d - kz + 1)))

    def map_coeffs(self, fn) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(fn(c) for c in self.coeffs))

    def binomial_coords(self):
        """The b_i with a_i = C(d, i) b_i (a derived view, never stored)."""
        d = self.degree
        return tuple(c * Fraction(factorial(d - i) * factorial(i), factorial(d))
                     for i, c in enumerate(self.coeffs))


class Covariant(Record):
    """A form tagged with degree in the coefficients, order, and index."""

    form: BinaryForm
    degree_p: int
    order_m: int
    index_s: int

    def __post_init__(self):
        if self.order_m != self.form.degree:
            raise ValueError("covariant order must equal its form's degree")

    @classmethod
    def source(cls, form: BinaryForm) -> "Covariant":
        """Wrap the ground form itself: degree 1, order d, index 0."""
        return cls(form=form, degree_p=1, order_m=form.degree, index_s=0)

    def constant_value(self):
        return self.form.constant_value()


def _as_covariant(f) -> Covariant:
    if isinstance(f, Covariant):
        return f
    if isinstance(f, BinaryForm):
        return Covariant.source(f)
    raise TypeError(f"expected BinaryForm or Covariant, got {type(f).__name__}")


def transvect(f, g, r: int) -> Covariant:
    """The r-transvection of two covariants.

    Metadata follows the composition law: order m+n-2r, degree p_f + p_g,
    index s_f + s_g + r.
    """
    f = _as_covariant(f)
    g = _as_covariant(g)
    n, m = f.order_m, g.order_m
    if r < 0:
        raise TransvectionError(f"transvection index must be non-negative, got {r}")
    if r > min(n, m):
        raise TransvectionError(
            f"transvection index {r} exceeds an order (orders {n}, {m})")
    pref = Fraction(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m))
    acc = BinaryForm(n + m - 2 * r, (0,) * (n + m - 2 * r + 1))
    for k in range(r + 1):
        term = f.form.partial(r - k, k) * g.form.partial(k, r - k)
        sign = (-1) ** k * comb(r, k)
        acc = acc + term * sign
    return Covariant(
        form=acc * pref,
        degree_p=f.degree_p + g.degree_p,
        order_m=n + m - 2 * r,
        index_s=f.index_s + g.index_s + r,
    )


def gl2_act(matrix, form: BinaryForm) -> BinaryForm:
    """Substitute X -> aX+bZ, Z -> cX+dZ for matrix ((a, b), (c, d))."""
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        raise SingularMatrixError("coordinate change must be invertible")
    n = form.degree
    # powers[i] = coefficient list of (aX+bZ)^i (cX+dZ)^(n-i)
    out = [0] * (n + 1)
    for i, coef in enumerate(form.coeffs):
        if coef == 0:
            continue
        left = [comb(i, j) * a**j * b**(i - j) for j in range(i + 1)]
        right = [comb(n - i, j) * c**j * d**(n - i - j) for j in range(n - i + 1)]
        for x, va in enumerate(left):
            if va == 0:
                continue
            for y, vb in enumerate(right):
                if vb == 0:
                    continue
                out[x + y] = out[x + y] + coef * va * vb
    return BinaryForm(n, out)


def form_ring(form: BinaryForm) -> str:
    """Best-effort coefficient-ring tag: "Q", "Qi_sqrt3", or "Q[mu]"."""
    for c in form.coeffs:
        if isinstance(c, Poly):
            return "Q[mu]"
        if isinstance(c, Cyclo):
            return "Qi_sqrt3"
    return "Q"

"""Curves whose reduced automorphism group is cyclic: normal forms, the
dihedral-invariant coordinates on their moduli, the residual H-action on
normal-form coefficients, and recovery of a normal form from the invariants.

Normal forms of genus g >= 2 (coefficients a_1..a_delta over a field, delta = t-1):

    case 1 (n | 2g+2, t = (2g+2)/n):  Y^2 = X^(nt) + a_1 X^(n(t-1)) + ... + a_delta X^n + 1
    case 2 (n | 2g+1, t = (2g+1)/n):  Y^2 = X^(nt) + ... + 1
    case 3 (n | 2g,   t = 2g/n):      Y^2 = X (X^(nt) + ... + 1)

The coordinate X is pinned up to H = <tau1, tau2> with tau1: X -> eps*X
(eps a t-th root of unity) and tau2: X -> 1/X, acting on coefficients as
a_i -> eps^(n(t-i)) a_i and a_i -> a_(t-i).  The dihedral invariants

    u_i = a_1^(t-i) a_i + a_delta^(t-i) a_(t-i),   1 <= i <= delta

are H-invariant and, away from the u = 0 family, determine the normal form
up to the 2t-element fiber of the H-action.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction

from .errors import ConstraintError, ReconstructionError
from .forms import BinaryForm
from .record import Record
from .scalars import Cyclo, canonical_order, rational_root


class CyclicNormalForm(Record):
    case: int
    n: int
    genus: int
    coeffs: tuple

    @property
    def t(self) -> int:
        return _case_t(self.case, self.n, self.genus)

    @property
    def delta(self) -> int:
        return self.t - 1


#: case -> (k, text): the case needs n | 2g + k, and t = (2g + k)/n
_CASE_DEGREE = {1: (2, "2g+2"), 2: (1, "2g+1"), 3: (0, "2g")}


def _case_t(case: int, n: int, g: int) -> int:
    if case not in _CASE_DEGREE:
        raise ConstraintError(f"case must be 1, 2 or 3, got {case}")
    if g < 2:
        raise ConstraintError(f"genus must be >= 2, got {g}")
    if n < 2:
        raise ConstraintError(f"cyclic order n must be >= 2, got {n}")
    k, what = _CASE_DEGREE[case]
    num = 2 * g + k
    if num % n:
        raise ConstraintError(f"case {case} needs n | {what}: {n} does not divide {num}")
    return num // n


def make_normal_form(case: int, n: int, g: int, coeffs) -> CyclicNormalForm:
    """Validated constructor; coeffs are a_1..a_delta.  Raises ConstraintError
    for g < 2, a case outside 1..3, n < 2, n not dividing the case's degree, or
    a coefficient count other than delta."""
    t = _case_t(case, n, g)
    coeffs = tuple(coeffs)
    if len(coeffs) != t - 1:
        raise ConstraintError(
            f"case {case} with n={n}, g={g} has delta={t - 1} coefficients, got {len(coeffs)}")
    return CyclicNormalForm(case=case, n=n, genus=g, coeffs=coeffs)


def normal_form_polynomial(nf: CyclicNormalForm) -> BinaryForm:
    """The right-hand side as a binary form of degree 2g+2."""
    t, n = nf.t, nf.n
    top = n * t
    poly = [0] * (top + 1)
    poly[top] = 1
    poly[0] = 1
    for i, a in enumerate(nf.coeffs, start=1):
        poly[n * (t - i)] = a
    if nf.case == 3:
        poly = [0] + poly  # the extra X factor
    return BinaryForm.from_univariate(poly, 2 * nf.genus + 2)


class DihedralInvariants(Record):
    values: tuple

    @property
    def is_zero(self) -> bool:
        return all(u == 0 for u in self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, idx):
        return self.values[idx]


def dihedral_invariants(nf: CyclicNormalForm) -> DihedralInvariants:
    """u_i = a_1^(t-i) a_i + a_delta^(t-i) a_(t-i)."""
    a, t, delta = nf.coeffs, nf.t, nf.delta
    return DihedralInvariants(tuple(
        a[0] ** (t - i) * a[i - 1] + a[delta - 1] ** (t - i) * a[t - i - 1]
        for i in range(1, delta + 1)))


def tau1(nf: CyclicNormalForm, eps) -> CyclicNormalForm:
    """X -> eps*X on the normal form: a_i -> eps^(n(t-i)) a_i.

    eps must be a t-th root of unity in Q or Q(i, sqrt3); anything else is
    not representable here (t-th roots exist for t | 12 only).
    """
    t, n = nf.t, nf.n
    if isinstance(eps, int):
        eps = Fraction(eps)
    if not isinstance(eps, (Fraction, Cyclo)):
        raise ConstraintError(f"unsupported root-of-unity type {type(eps).__name__}")
    if eps ** t != 1:
        raise ConstraintError(f"eps must satisfy eps^{t} = 1 (got {eps})")
    new = tuple(eps ** ((n * (t - i)) % t) * a for i, a in enumerate(nf.coeffs, start=1))
    return CyclicNormalForm(case=nf.case, n=nf.n, genus=nf.genus, coeffs=new)


def tau2(nf: CyclicNormalForm) -> CyclicNormalForm:
    """X -> 1/X on the normal form: a_i -> a_(t-i) (coefficient reversal)."""
    return CyclicNormalForm(case=nf.case, n=nf.n, genus=nf.genus,
                            coeffs=tuple(reversed(nf.coeffs)))


def h_action(nf: CyclicNormalForm, generator) -> CyclicNormalForm:
    """Apply an H-generator: "tau2" or ("tau1", eps)."""
    if generator == "tau2":
        return tau2(nf)
    if isinstance(generator, (tuple, list)) and len(generator) == 2 and generator[0] == "tau1":
        return tau1(nf, generator[1])
    raise ConstraintError(f"unknown H generator {generator!r}")


def extra_involution_condition(u: DihedralInvariants, g: int) -> bool:
    """Exact test of 2^(g-1) u_1^2 - u_g^(g+1) = 0 (case 1, n = 2, delta = g)."""
    if len(u) != g:
        raise ConstraintError(
            f"extra-involution test needs the case-1, n=2 tuple of length g={g}, got {len(u)}")
    return 2 ** (g - 1) * u[0] ** 2 - u[g - 1] ** (g + 1) == 0


# -- reconstruction ---------------------------------------------------------

def reconstruct_from_u(u, case: int, n: int, g: int) -> CyclicNormalForm:
    """One normal form in the H-orbit determined by nonzero dihedral invariants
    (or the unique one of a delta = 0 row, for u = ()).

    a_delta^t satisfies 2^t z^2 - 2^t u_1 z + u_delta^t = 0; each interior pair
    (a_i, a_(t-i)) comes from a 2x2 linear system with determinant
    a_1^t - a_delta^t.  Where that vanishes, a_delta = ±a_1 (the roots are
    rational once t > 2), and the pair is taken symmetric, a_(t-i) = a_i, or
    else antisymmetric, a_(t-i) = -a_i, whichever the invariants admit.
    Raises ReconstructionError (carrying the obstructing polynomial) when the
    required roots do not exist in Q, or in Q(i, sqrt3) for t = 2.
    """
    values = tuple(u.values if isinstance(u, DihedralInvariants) else u)
    t = _case_t(case, n, g)
    if len(values) != t - 1:
        raise ConstraintError(f"expected {t - 1} invariants for case {case}, n={n}, g={g}; got {len(values)}")
    if not values:      # delta = 0: the normal form has no coefficient
        return make_normal_form(case, n, g, ())
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise ConstraintError("reconstruction works from rational invariants")
    if all(v == 0 for v in values):
        raise ReconstructionError(
            "u = 0 corresponds to the a_1 = a_delta = 0 sub-family, which these "
            "invariants do not coordinatize")
    u1, ud = Fraction(values[0]), Fraction(values[-1])

    # roots of z^2 - u1 z + (ud/2)^t
    half_pow = (ud / 2) ** t
    disc = u1 * u1 - 4 * half_pow
    sq = rational_root(disc, 2)
    if sq is None:
        raise ReconstructionError(
            "a_delta^t generates a quadratic extension of Q here",
            minimal_polynomial=(ud ** t, -(2 ** t) * u1, 2 ** t))
    z_roots = canonical_order(((u1 + sq) / 2, (u1 - sq) / 2))

    failures = []
    for z in z_roots:
        try:
            return _solve_from_z(z, values, t, case, n, g)
        except ReconstructionError as exc:
            failures.append(exc)
    raise failures[-1]


#: the squares -1, 3 and -3 of the coordinates i, sqrt3 and i*sqrt3 of Q(i, sqrt3)
_UNIT_SQUARES = ((-1, Cyclo.i()), (3, Cyclo.sqrt3()), (-3, Cyclo.i_sqrt3()))


def _tth_root(z: Fraction, t: int, name: str):
    """A t-th root of z in Q, else in Q(i, sqrt3) for t = 2.  Without one it
    raises the ReconstructionError carrying x^t - z, naming ``name``^t = z."""
    r = rational_root(z, t)
    if r is not None:
        return r
    if t == 2:
        for square, unit in _UNIT_SQUARES:
            m = rational_root(z / square, 2)
            if m is not None:
                return m * unit
    raise ReconstructionError(
        f"no t-th root of {name}^t = {z} in the supported fields",
        minimal_polynomial=tuple([-z] + [0] * (t - 1) + [1]))


def _solve_from_z(z, values, t, case, n, g):
    u1, ud = Fraction(values[0]), Fraction(values[-1])
    ad = _tth_root(z, t, "a_delta")
    # a_delta = 0 only for z = 0, which solves the z-quadratic only when u_delta = 0
    a1 = _tth_root(u1, t, "a_1") if ad == 0 else (ud / 2) / ad

    coeffs = [None] * (t - 1)
    coeffs[0] = a1
    coeffs[-1] = ad
    det = a1 ** t - ad ** t
    for i in range(2, t // 2 + 1):
        j = t - i  # partner index
        ui, uj = values[i - 1], values[j - 1]
        A, B = a1 ** j, ad ** j
        C, D = ad ** i, a1 ** i
        if i == j:
            if A + B != 0:
                coeffs[i - 1] = ui / (A + B)
            elif ui == 0:
                coeffs[i - 1] = Fraction(0)
            else:
                raise ReconstructionError(
                    f"singular middle equation for a_{i}: a_1^{j} + a_delta^{j} = 0 "
                    f"but u_{i} != 0")
        elif det != 0:
            coeffs[i - 1] = (D * ui - B * uj) / det
            coeffs[j - 1] = (A * uj - C * ui) / det
        else:  # a_delta^j = s a_1^j for one sign s: symmetric (s = 1) or antisymmetric
            for s in (1, -1):
                if A + s * B != 0 and C * (x := ui / (A + s * B)) + s * D * x == uj:
                    coeffs[i - 1], coeffs[j - 1] = x, s * x
                    break
            else:
                raise ReconstructionError(
                    f"singular pair (a_{i}, a_{j}): a_1^t = a_delta^t and the invariants "
                    f"(u_{i}, u_{j}) are inconsistent with any symmetric solution")

    nf = CyclicNormalForm(case=case, n=n, genus=g, coeffs=tuple(coeffs))
    # a guard: each step above solves its equations exactly, so no input fails it today
    got = dihedral_invariants(nf).values
    if got != values:
        raise ReconstructionError(
            "no normal form over the supported fields has these dihedral invariants "
            f"(round-trip gave {got})")
    return nf


# -- the paper's group table -------------------------------------------------

#: largest genus the group table answers for: a signature lists about g/6 or
#: (2g+2)/n entries, so this bounds what one row can build
MAX_GENUS = 10_000


class GroupRow(Record):
    """One row of ``GROUP_ROWS``."""
    c: int | None          # A4 rows: delta = (g - c)/6; None on cyclic rows, where delta = t - 1
    prefix: tuple          # signature entries before the repeated one
    repeated: str          # the entry that fills the signature up to delta + 3 branch points
    excluded: tuple        # delta values the row has no curves for
    involutions: int
    prefactor: tuple = ()  # A4 rows: factor lists of the model prefactor, multiplied in order


_T = (Cyclo(1), Cyclo(0), Cyclo(0, 0, 0, 2), Cyclo(0), Cyclo(1))  # X^4 + 2 i sqrt3 X^2 + 1
_OCTIC = (1, 0, 0, 0, 14, 0, 0, 0, 1)                              # X^8 + 14 X^4 + 1
_R = (0, -1, 0, 0, 0, 1)                                           # X(X^4 - 1)

#: (group, key) -> GroupRow.  key is the case for the cyclic groups (t from
#: _case_t; Z2n takes case 2 when n | 2g+1, else case 3) and g mod 6 for the
#: A4 groups.  A locus of dimension delta has delta + 3 branch points, so
#: that is the signature's length; "{n}" and "{m}" in an entry read as n and
#: 2n.  group_row admits a row only for 2 <= g <= MAX_GENUS, delta >= 0 and
#: delta not in excluded; |V ∩ W| of an A4 row is 2g + 2 - 12 delta.
GROUP_ROWS = {
    ("Z2xZn", 1): GroupRow(None, ("{n}^2", "{n}^2"), "2^{n}", (0, 1), 3),
    ("Z2n", 2): GroupRow(None, ("{n}^2", "{m}^1"), "2^{n}", (), 1),
    ("Z2n", 3): GroupRow(None, ("{m}^1", "{m}^1"), "2^{n}", (0, 1), 1),
    ("Z2xA4", 5): GroupRow(-1, ("3^8", "3^8"), "2^12", (), 7, ((1,),)),
    ("Z2xA4", 1): GroupRow(1, ("3^8", "6^4"), "2^12", (), 7, (_T,)),
    ("Z2xA4", 3): GroupRow(3, ("6^4", "6^4"), "2^12", (0,), 7, (_OCTIC,)),
    ("SL2(3)", 2): GroupRow(2, ("4^6", "3^8", "3^8"), "2^12", (0,), 1, (_R,)),
    ("SL2(3)", 4): GroupRow(4, ("4^6", "3^8", "6^4"), "2^12", (), 1, (_R, _T)),
    ("SL2(3)", 0): GroupRow(6, ("4^6", "6^4", "6^4"), "2^12", (0,), 1, (_R, _OCTIC)),
}


def group_row(group: str, g: int, n: int | None = None) -> tuple[GroupRow, int]:
    """The row of ``GROUP_ROWS`` that admits (group, g, n), and its delta.

    Every constraint is checked here, before anything is built; a violated
    one raises ConstraintError naming its column.
    """
    keys = [key for tag, key in GROUP_ROWS if tag == group]
    if not keys:
        raise ConstraintError(f"unknown group tag {group!r}; "
                              "expected Z2xZn, Z2n, Z2xA4 or SL2(3)")
    if not 2 <= g <= MAX_GENUS:
        raise ConstraintError(f"genus column: g = {g} is outside 2..{MAX_GENUS}")
    if GROUP_ROWS[group, keys[0]].c is None:
        if n is None:
            raise ConstraintError("cyclic rows need the cyclic order n")
        case, t = _first_case(keys, n, g)
        row, delta = GROUP_ROWS[group, case], t - 1
    else:
        row = GROUP_ROWS.get((group, g % 6))
        if row is None:
            raise ConstraintError(f"{group} needs g mod 6 in {sorted(keys)}; got g = {g}")
        delta = (g - row.c) // 6
    if delta < 0 or delta in row.excluded:
        raise ConstraintError(f"dimension column: delta = {delta} is excluded for {group}")
    return row, delta


def _first_case(cases, n, g):
    """(case, t) for the first case whose divisibility n meets; else the last
    case's ConstraintError."""
    for case in cases[:-1]:
        with suppress(ConstraintError):
            return case, _case_t(case, n, g)
    return cases[-1], _case_t(cases[-1], n, g)


class SignatureRow(Record):
    group: str
    delta: int
    signature: tuple
    involutions: int


def signature_row(group: str, g: int, n: int | None = None) -> SignatureRow:
    """Dimension, cover signature, and involution count for one group row.

    Cyclic rows need n; the A4-type rows are pinned by g mod 6.  Violated
    genus/divisibility/congruence/dimension constraints raise ConstraintError
    naming the failed column (see ``group_row``).
    """
    row, delta = group_row(group, g, n)
    m = None if n is None else 2 * n
    signature = (tuple(entry.format(n=n, m=m) for entry in row.prefix)
                 + (row.repeated.format(n=n),) * (delta + 3 - len(row.prefix)))
    return SignatureRow(group, delta, signature, row.involutions)

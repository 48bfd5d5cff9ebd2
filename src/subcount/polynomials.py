"""Exact integer polynomials and the small linear algebra the reductions need.

Everything here is exact: coefficients are Python ints, intermediate division
happens in ``fractions.Fraction``, and any step that is supposed to produce an
integer asserts that it did.  The three routines that build Fractions import
``fractions`` themselves; plain integer polynomial arithmetic and the
binomial-basis read-out from integer values never need it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

# ``fractions`` pulls in ``decimal`` and ``numbers``; importing it only where a
# Fraction is built keeps it off the start-up path of every CLI command
from .graphs import InconsistencyError, PreconditionError


def falling_factorial(x: int, length: int) -> int:
    """x (x-1) ... (x-length+1); the empty product for length = 0."""
    if length < 0:
        raise PreconditionError("falling factorial needs length >= 0")
    out = 1
    for i in range(length):
        out *= x - i
    return out


class IntPolynomial:
    """Dense integer polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPolynomial([other])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            other = IntPolynomial([other])
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial([0, 1])

    def cauchy_root_bound(self) -> Fraction:
        """Every root z satisfies |z| <= 1 + max_i |a_i| / |a_lead|."""
        from fractions import Fraction
        if not self.coeffs:
            raise PreconditionError("zero polynomial has no root bound")
        lead = abs(self.coeffs[-1])
        rest = [abs(c) for c in self.coeffs[:-1]]
        if not rest:
            return Fraction(0)
        return 1 + Fraction(max(rest), lead)


def interpolate_fraction_coefficients(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Monomial coefficients (ascending, exact rationals) of the unique
    polynomial through the given (x, y) points.  Newton's divided
    differences, then expansion.
    """
    from fractions import Fraction
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise PreconditionError("interpolation nodes must be distinct")
    ys = [Fraction(p[1]) for p in points]
    n = len(points)
    if n == 0:
        return []
    # divided differences
    dd = list(ys)
    table = [dd[0]]
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            nxt.append((dd[i + 1] - dd[i]) / (xs[i + level] - xs[i]))
        dd = nxt
        table.append(dd[0])
    # expand sum_k table[k] * prod_{j<k} (x - xs[j])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # running product, ascending coefficients
    for k in range(n):
        for i, b in enumerate(basis):
            coeffs[i] += table[k] * b
        if k + 1 < n:
            # multiply basis by (x - xs[k])
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, b in enumerate(basis):
                nxt[i + 1] += b
                nxt[i] -= b * xs[k]
            basis = nxt
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def interpolate_int_polynomial(points: Sequence[tuple[int, int]]) -> IntPolynomial:
    """Exact polynomial through the given (x, y) points.

    Fails if the values force non-integer coefficients.
    """
    coeffs = interpolate_fraction_coefficients(points)
    for c in coeffs:
        if c.denominator != 1:
            raise InconsistencyError("interpolated coefficients are not integers")
    return IntPolynomial([int(c) for c in coeffs])


def binomial_basis_from_values(x0: int, values: Sequence[int]) -> list[int]:
    """[c_0, ..., c_d] with p(x) = sum_i c_i * binom(x+i, i), for the
    polynomial p of degree at most d = len(values) - 1 that takes
    values[j] at x0 + j.

    binom(x+i, i) - binom(x-1+i, i) = binom(x+i-1, i-1), so c_i is the i-th
    backward difference of p at -1, which is the i-th forward difference at
    -1-i.  Newton's series at x0 gives it from the forward differences
    D_j = (Delta^j p)(x0) as c_i = sum_{j>=i} D_j * binom(-1-i-x0, j-i),
    with the binomial extended to negative tops; all of it is integer.
    """
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return [sum(dj * (falling_factorial(-1 - i - x0, r) // math.factorial(r))
                for r, dj in enumerate(diffs[i:]))
            for i in range(len(diffs))]


def solve_fraction_system(matrix: Sequence[Sequence[int]],
                          rhs: Sequence[int]) -> list[Fraction]:
    """Solve a square nonsingular system exactly by Gaussian elimination."""
    from fractions import Fraction
    n = len(matrix)
    aug = [[Fraction(matrix[r][c]) for c in range(n)] + [Fraction(rhs[r])]
           for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def determinant_polynomial(entries: Sequence[Sequence[IntPolynomial]]) -> IntPolynomial:
    """Determinant of a small matrix of integer polynomials, by cofactors."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    out = IntPolynomial()
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = entries[0][j] * determinant_polynomial(minor)
        out = out + term if j % 2 == 0 else out - term
    return out

"""Exact integer polynomials and the small linear algebra the reductions need.

Everything here is plain ``int`` arithmetic.  Interpolation works from
forward differences at consecutive nodes, where the only division is by a
factorial; a division that is supposed to be exact raises
``InconsistencyError`` when it leaves a remainder.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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


def forward_differences(values: Sequence[int]) -> list[int]:
    """[D_0, ..., D_d] with D_j the j-th forward difference of ``values`` at
    its first entry, for d = len(values) - 1."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


def interpolate_int_polynomial(x0: int, values: Sequence[int]) -> IntPolynomial:
    """The polynomial p of degree at most d = len(values) - 1 that takes
    values[j] at x0 + j.

    Newton's series p(x) = sum_j D_j (x - x0)^(j falling) / j!, times d!,
    has integer coefficients; dividing them by d! leaves a remainder exactly
    when p is not an integer polynomial, and then this raises.
    """
    diffs = forward_differences(values)
    scale = math.factorial(max(len(diffs) - 1, 0))
    total, falling = IntPolynomial(), IntPolynomial([1])
    for j, dj in enumerate(diffs):
        total += falling * (dj * (scale // math.factorial(j)))
        falling *= IntPolynomial([-x0 - j, 1])
    parts = [divmod(c, scale) for c in total.coeffs]
    if any(r for _, r in parts):
        raise InconsistencyError("interpolated coefficients are not integers")
    return IntPolynomial([q for q, _ in parts])


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
    diffs = forward_differences(values)
    return [sum(dj * (falling_factorial(-1 - i - x0, r) // math.factorial(r))
                for r, dj in enumerate(diffs[i:]))
            for i in range(len(diffs))]


def determinant(entries: Sequence[Sequence]):
    """Determinant of a small square matrix of ints or IntPolynomials, by
    cofactor expansion along the first row."""
    if len(entries) == 1:
        return entries[0][0]
    return sum((-1) ** j * entries[0][j]
               * determinant([row[:j] + row[j + 1:] for row in entries[1:]])
               for j in range(len(entries)))

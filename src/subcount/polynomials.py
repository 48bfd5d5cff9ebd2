"""Integer polynomial read-outs and the small linear algebra the reductions
need.

Everything here is plain ``int`` arithmetic.  A polynomial is only ever
carried as its values at consecutive nodes; its coefficients over the basis
binom(x+i, i) come from forward differences, and the only divisions are
exact ones by factorials.
"""

import math
from collections.abc import Sequence

from .graphs import PreconditionError


def falling_factorial(x: int, length: int) -> int:
    """x (x-1) ... (x-length+1); the empty product for length = 0."""
    if length < 0:
        raise PreconditionError("falling factorial needs length >= 0")
    out = 1
    for i in range(length):
        out *= x - i
    return out


def forward_differences(values: Sequence[int]) -> list[int]:
    """[D_0, ..., D_d] with D_j the j-th forward difference of ``values`` at
    its first entry, for d = len(values) - 1."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


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


def determinant(entries: Sequence[Sequence[int]]) -> int:
    """Determinant of a small square int matrix, by cofactor expansion along
    the first row."""
    if len(entries) == 1:
        return entries[0][0]
    return sum((-1) ** j * entries[0][j]
               * determinant([row[:j] + row[j + 1:] for row in entries[1:]])
               for j in range(len(entries)))

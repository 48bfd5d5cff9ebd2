import math
import random

import pytest

from subcount.graphs import PreconditionError
from subcount.polynomials import (binomial_basis_from_values, determinant,
                                  falling_factorial)


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(-2, 2) == 6
    with pytest.raises(PreconditionError):
        falling_factorial(4, -1)


def _binom(top, i):
    # C(top, i) for any integer top, as the polynomial in top
    return falling_factorial(top, i) // math.factorial(i)


def test_binomial_basis_identity():
    # round trip: values of sum_i c_i C(x+i, i) at x0, ..., x0 + 2k give the
    # c_i back, with x0 = n - 2k from -2k (an empty host) up to 30
    rng = random.Random(7)
    for trial in range(300):
        k = rng.randint(0, 4)
        cs = [rng.randrange(-30, 30) for _ in range(2 * k + 1)]
        x0 = -2 * k if trial % 5 == 0 else rng.randint(-2 * k, 30)
        values = [sum(c * _binom(x + i, i) for i, c in enumerate(cs))
                  for x in range(x0, x0 + 2 * k + 1)]
        assert binomial_basis_from_values(x0, values) == cs


def test_binomial_basis_agrees_with_sympy():
    # an outside oracle: sympy.interpolate through the same points as the
    # expansion of sum_i c_i binomial(x+i, i)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2014)
    for _ in range(40):
        k = rng.randint(0, 3)
        x0 = rng.randint(-2 * k, 12)
        pts = [(x0 + j, rng.randint(0, 60)) for j in range(2 * k + 1)]
        cs = binomial_basis_from_values(x0, [y for _, y in pts])
        ours = sympy.expand(sum(c * sympy.expand_func(sympy.binomial(x + i, i))
                                for i, c in enumerate(cs)))
        assert sympy.expand(ours - sympy.interpolate(pts, x)) == 0


def test_determinant_polynomial():
    assert determinant([[2, 1, 0], [1, -1, 3], [0, 4, 1]]) == -27

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from subcount.graphs import InconsistencyError, PreconditionError
from subcount.polynomials import (IntPolynomial, binomial_basis_from_values,
                                  determinant, falling_factorial,
                                  interpolate_int_polynomial)


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(-2, 2) == 6
    with pytest.raises(PreconditionError):
        falling_factorial(4, -1)


def test_polynomial_arithmetic_and_eval():
    p = IntPolynomial([1, 2])          # 1 + 2x
    q = IntPolynomial([0, 0, 3])       # 3x^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p).degree == -1
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p * q)(2) == 5 * 12
    assert IntPolynomial([0, 1]) == IntPolynomial.x()
    assert (p * 0).coeffs == ()


def test_interpolation_recovers_polynomial():
    p = IntPolynomial([3, -1, 0, 7])
    assert interpolate_int_polynomial(-2, [p(x) for x in range(-2, 3)]) == p
    with pytest.raises(InconsistencyError):
        interpolate_int_polynomial(0, [0, 0, 1])  # x(x-1)/2


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_interpolation_roundtrip(coeffs):
    p = IntPolynomial(coeffs)
    deg = max(p.degree, 0)
    assert interpolate_int_polynomial(0, [p(x) for x in range(deg + 1)]) == p


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
    x = IntPolynomial.x()
    one = IntPolynomial([1])
    # det [[x, 1], [1, x]] = x^2 - 1
    d = determinant([[x, one], [one, x]])
    assert d == IntPolynomial([-1, 0, 1])
    ident3 = [[one if i == j else IntPolynomial() for j in range(3)] for i in range(3)]
    assert determinant(ident3) == one
    # the same expansion on plain ints gives an int
    assert determinant([[2, 1, 0], [1, -1, 3], [0, 4, 1]]) == -27


def test_interpolation_agrees_with_sympy():
    # an outside oracle: sympy.interpolate on seeded runs of consecutive
    # nodes, both through integer polynomials and through arbitrary integer
    # values, which mostly force non-integer coefficients
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2929)
    branches = set()
    for trial in range(60):
        x0, size = rng.randint(-12, 6), rng.randint(1, 7)
        xs = range(x0, x0 + size)
        if trial % 2:
            truth = IntPolynomial([rng.randint(-9, 9) for _ in range(size)])
            values = [truth(a) for a in xs]
        else:
            values = [rng.randint(-50, 50) for _ in xs]
        expected = sympy.Poly(sympy.interpolate(list(zip(xs, values)), x), x)
        expected = expected.all_coeffs()[::-1]
        while expected and expected[-1] == 0:
            expected.pop()
        integral = all(c.q == 1 for c in expected)
        branches.add(integral)
        if integral:
            assert list(interpolate_int_polynomial(x0, values).coeffs) == expected
        else:
            with pytest.raises(InconsistencyError):
                interpolate_int_polynomial(x0, values)
    assert branches == {True, False}

import pytest

from flagcw import series


def test_mul_skips_the_zero_terms_of_either_operand():
    assert series.mul([1, 0, 0, -1], [1, 0, 0, 0, 2]) == [1, 0, 0, -1, 2, 0, 0, -2]
    assert series.mul([0, 3], [2, 1]) == [0, 6, 3]
    assert series.mul([], [1]) == series.mul([1], []) == []


def test_exact_div_inverts_mul():
    a, b = [1, 2, 0, -5, 7], [1, 0, 0, 0, 0, -1]
    assert series.exact_div(series.mul(a, b), b) == a
    assert series.exact_div(series.mul(a, b), a) == b


@pytest.mark.parametrize("a, b", [
    ([1, 1], [2]),                 # a quotient coefficient is not an integer
    ([1, 0, 1], [1, 1]),           # remainder 2 below the divisor's degree
    ([1, 0, 0, 0, 0, 1], [1, 0, 0, -1]),  # sparse divisor, remainder 1 + t^2
    ([1], [1, 0, 0, -1]),          # divisor longer than the dividend
])
def test_exact_div_raises_on_an_inexact_division(a, b):
    with pytest.raises(ArithmeticError, match="non-exact"):
        series.exact_div(a, b)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        series.exact_div([1], [0, 0])

"""``linalg.solver``: Gaussian elimination at a point, in floats and mod p."""

import random
from fractions import Fraction

import pytest

from semispray import expr as ex, linalg


def _residual(a, x, b):
    return [sum(aij * xj for aij, xj in zip(row, x)) - bi for row, bi in zip(a, b)]


def test_float_solve_pivots_past_a_zero_leading_entry():
    a = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [4.0, -1.0, 3.0]]
    b = [3.0, 2.0, 6.0]
    x = linalg.solver(a, ex.FLOAT)(b)
    assert _residual(a, x, b) == pytest.approx([0.0] * 3, abs=1e-14)


def test_float_solver_is_reused_for_every_right_hand_side():
    rng = random.Random(3)
    a = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(4)]
    solve = linalg.solver(a, ex.FLOAT)
    for _ in range(5):
        b = [rng.uniform(-1, 1) for _ in range(4)]
        assert _residual(a, solve(b), b) == pytest.approx([0.0] * 4, abs=1e-12)


def test_modular_solve_is_exact():
    field = ex.Modular(random.Random(0))
    rng = random.Random(1)
    a = [[rng.randrange(ex.MODULUS) for _ in range(4)] for _ in range(4)]
    a[0][0] = 0  # the first pivot comes from a lower row
    b = [rng.randrange(ex.MODULUS) for _ in range(4)]
    x = linalg.solver(a, field)(b)
    assert [v % ex.MODULUS for v in _residual(a, x, b)] == [0] * 4


def test_modular_solve_matches_the_rational_solution():
    field = ex.Modular(random.Random(0))
    a = [[2, 1], [1, 3]]
    x = linalg.solver(a, field)([1, 2])
    # The rational solution is (1/5, 3/5).
    assert x == [field.number(Fraction(1, 5)), field.number(Fraction(3, 5))]


@pytest.mark.parametrize("field", [ex.FLOAT, ex.Modular(random.Random(0))],
                         ids=["float", "modular"])
def test_singular_matrix_raises_domain_error(field):
    with pytest.raises(ex.DomainError):
        linalg.solver([[1, 2], [2, 4]] if field is not ex.FLOAT else [[1.0, 2.0], [2.0, 4.0]],
                      field)
    with pytest.raises(ex.DomainError):
        linalg.solver([[field.zero]], field)

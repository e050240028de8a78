from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootsystem_oracle import fraction_rank

from bruhatcap import ConsistencyError
from bruhatcap import linalg


def test_solve_columns_unique():
    cols = [linalg.vec([1, 0, 1]), linalg.vec([0, 1, 1])]
    sol = linalg.solve_columns(cols, linalg.vec([2, 3, 5]))
    assert sol == (Fraction(2), Fraction(3))


def test_solve_columns_inconsistent():
    cols = [linalg.vec([1, 0, 0])]
    with pytest.raises(ConsistencyError):
        linalg.solve_columns(cols, linalg.vec([1, 1, 0]))


def test_solve_columns_dependent():
    cols = [linalg.vec([1, 1]), linalg.vec([2, 2])]
    with pytest.raises(ConsistencyError):
        linalg.solve_columns(cols, linalg.vec([1, 1]))


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4),
       st.lists(st.integers(-9, 9), min_size=2, max_size=4))
def test_solve_columns_round_trip(xs, ys):
    # build two independent columns in R^{n}, recombine, solve back
    n = max(len(xs), len(ys), 2)
    a = linalg.vec((xs + [1] + [0] * n)[:n])
    b = linalg.vec((ys + [0, 1] + [0] * n)[:n])
    # force independence: append distinct unit tails
    a = a[:-2] + (Fraction(1), Fraction(0))
    b = b[:-2] + (Fraction(0), Fraction(1))
    target = tuple(3 * x - 2 * y for x, y in zip(a, b))
    sol = linalg.solve_columns([a, b], target)
    assert sol == (Fraction(3), Fraction(-2))


def test_rank():
    assert fraction_rank([[1, 2], [2, 4]]) == 1
    assert fraction_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert fraction_rank([[0] * 3] * 3) == 0
    assert fraction_rank([]) == 0
    assert fraction_rank([[0, 0, 1], [0, 0, 2], [0, 1, 5]]) == 2


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_matches_fraction_inverse(matrix):
    n = len(matrix)
    fractions = [linalg.vec(row) for row in matrix]
    if fraction_rank(fractions) < n:
        with pytest.raises(ConsistencyError):
            linalg.inverse(matrix)
        return
    rows, den = linalg.inverse(matrix)
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        assert tuple(Fraction(row[j], den) for row in rows) == linalg.solve_columns(list(zip(*fractions)), unit)


def test_inverse_of_a_cartan_matrix():
    rows, den = linalg.inverse([[2, -1], [-3, 2]])  # G2
    assert abs(den) == 1
    assert [[den * x for x in row] for row in rows] == [[2, 1], [3, 2]]

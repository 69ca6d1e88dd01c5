"""Closed-form bound formulas and their comparison table."""

import math

import pytest

from qminlab import (
    InvalidParameterError,
    PendantProfile,
    bound_lima,
    bound_pendant,
    bound_pendant_general,
    bound_submatrix,
    build_K,
    compare_bounds,
    q_min_of,
)


def test_bound_pendant_worked_value():
    got = bound_pendant(10, 6)
    assert abs(got - (5.5 - math.sqrt(18.25)) / 2) < 1e-12
    # direct evaluation of the formula; a commonly quoted rounding of
    # 0.6140002 is off by ~1.1e-6 (it stems from sqrt(18.25) ~ 4.2719996)
    assert abs(got - 0.6139990636706174) < 1e-9


def test_bound_pendant_dominates_balanced_clique():
    g, _ = build_K(PendantProfile((2, 2, 1, 1)))
    val, _, _ = q_min_of(g)
    assert abs(val - (5 - math.sqrt(17)) / 2) < 1e-9
    assert val <= bound_pendant(10, 6) + 1e-8


def test_bound_pendant_preconditions():
    with pytest.raises(InvalidParameterError):
        bound_pendant(10, 8)  # clique order 2
    with pytest.raises(InvalidParameterError):
        bound_pendant(10, 0)


def test_bound_pendant_general_values():
    assert abs(bound_pendant_general(10) - 0.9844091822248449) < 1e-9
    assert abs(bound_pendant_general(4) - (5 - math.sqrt(7)) / 3) < 1e-12
    with pytest.raises(InvalidParameterError):
        bound_pendant_general(3)


def test_bound_pendant_general_equals_k1():
    for n in range(4, 21):
        assert abs(bound_pendant_general(n) - bound_pendant(n, 1)) < 1e-12


def test_bound_submatrix_values():
    assert abs(bound_submatrix(10, 6) - (3 - math.sqrt(6))) < 1e-9
    with pytest.raises(InvalidParameterError):
        bound_submatrix(9, 7)


def test_bound_submatrix_below_pendant():
    for n in range(5, 31):
        for k in range(1, n - 2):
            assert bound_submatrix(n, k) <= bound_pendant(n, k) + 1e-12


def test_bound_submatrix_tight_when_divisible():
    for n, k in [(10, 5), (12, 8), (8, 4), (12, 9)]:
        assert (n - k) >= 3 and k % (n - k) == 0
        assert abs(bound_submatrix(n, k) - bound_pendant(n, k)) < 1e-12


def test_bound_lima_values():
    assert abs(bound_lima(10, 1) - (5 - math.sqrt(17))) < 1e-12
    assert abs(bound_lima(4, 1) - (2 - math.sqrt(2))) < 1e-12
    with pytest.raises(InvalidParameterError):
        bound_lima(4, 4)
    with pytest.raises(InvalidParameterError):
        bound_lima(1, 1)


def test_bound_lima_below_delta():
    for n in range(2, 40):
        for delta in range(1, n):
            assert bound_lima(n, delta) < delta
    # the textbook form of the root cancels to exactly 1.0 here
    assert bound_lima(10**9, 1) == 0.999999999
    # the gap, about 1/n, still shows at 10**16 and rounds away at 10**17
    assert bound_lima(10**16, 1) == 0.9999999999999999
    assert bound_lima(10**17, 1) == 1.0


def test_bound_pendant_decreasing_in_k():
    for n in range(10, 31):
        values = [bound_pendant(n, k) for k in range(1, n - 2)]
        for a, b in zip(values, values[1:]):
            assert a - b > 1e-10


def test_submatrix_k1_equals_lima_delta1():
    for n in range(4, 51):
        assert abs(bound_submatrix(n, 1) - bound_lima(n, 1)) < 1e-12
    assert bound_submatrix(10**9, 1) == bound_lima(10**9, 1) == 0.999999999


def test_compare_bounds_direction():
    rows = compare_bounds(range(4, 51))
    assert len(rows) == 47
    for row in rows:
        # head-to-head the delta=1 bound is consistently the smaller one
        assert row.diff > 0
        assert row.smaller == "lima"
        assert abs(row.submatrix_k1 - row.lima_delta1) < 1e-12
    # the bounds are about 1 - 1/n and 1 - 1/n^2: the pendant one rounds to
    # 1.0 first, and from 10**17 on both do
    far, farther = compare_bounds([10**16, 10**17])
    assert far.cor_pendant_general == 1.0 and far.diff > 0 and far.smaller == "lima"
    assert farther.lima_delta1 == 1.0 and farther.diff == 0 and farther.smaller == "tie"
    with pytest.raises(InvalidParameterError):
        compare_bounds([3])

from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpcs import Side, kron, lift_matrix, mm_stp, mv_stp, sta, swap_matrix
from stpcs.errors import BadShape

SIDES = [Side.LEFT, Side.RIGHT]

dims = st.integers(min_value=1, max_value=4)
dims6 = st.integers(min_value=1, max_value=6)
ints = st.integers(min_value=-4, max_value=4)
unit_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)


def int_matrix(rows, cols):
    return st.lists(
        st.lists(ints, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda r: np.array(r, dtype=float))


def float_matrix(rows, cols):
    return st.lists(
        st.lists(unit_floats, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda r: np.array(r, dtype=float))


matrices = st.tuples(dims, dims).flatmap(lambda s: int_matrix(*s))


# --- kron -------------------------------------------------------------------

def test_kron_identity_is_noop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(kron(np.eye(1), a), a)


def test_kron_column_times_row():
    out = kron(np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0, 1.0]]))
    assert np.array_equal(out, np.array([[1, 1, 1], [-1, -1, -1]], dtype=float))


def test_kron_identity_blocks():
    out = kron(np.eye(2), np.array([[1.0, 1.0]]))
    assert np.array_equal(out, np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=float))


# --- swap matrices ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5])
def test_swap_degenerate_is_identity(n):
    assert np.array_equal(swap_matrix(1, n), np.eye(n))
    assert np.array_equal(swap_matrix(n, 1), np.eye(n))


def test_swap_2_2_reorders_mixed_indices():
    w = swap_matrix(2, 2)
    x = np.array([11.0, 12.0, 21.0, 22.0])
    assert np.array_equal(w @ x, np.array([11.0, 21.0, 12.0, 22.0]))


@given(st.tuples(dims, dims).flatmap(
    lambda s: st.tuples(
        st.lists(ints, min_size=s[0], max_size=s[0]),
        st.lists(ints, min_size=s[1], max_size=s[1]),
    )
))
def test_swap_exchanges_tensor_factors(xy):
    x, y = (np.array(v, dtype=float) for v in xy)
    w = swap_matrix(x.size, y.size)
    assert np.array_equal(w @ np.kron(x, y), np.kron(y, x))


@given(
    st.tuples(dims, dims).flatmap(lambda s: int_matrix(*s)),
    st.tuples(dims, dims).flatmap(lambda s: int_matrix(*s)),
)
def test_swap_conjugation_swaps_kron_order(a, b):
    m, n = a.shape
    p, q = b.shape
    lhs = swap_matrix(m, p) @ np.kron(a, b) @ swap_matrix(q, n)
    assert np.array_equal(lhs, np.kron(b, a))


@given(dims, dims)
def test_swap_is_a_permutation_with_known_inverse(m, n):
    w = swap_matrix(m, n)
    assert np.array_equal(w.sum(axis=0), np.ones(m * n))
    assert np.array_equal(w.sum(axis=1), np.ones(m * n))
    assert np.array_equal(w @ swap_matrix(n, m), np.eye(m * n))


# --- matrix-matrix products -------------------------------------------------

@pytest.mark.parametrize("side", SIDES)
@given(st.tuples(dims, dims, dims).flatmap(
    lambda s: st.tuples(int_matrix(s[0], s[1]), int_matrix(s[1], s[2]))
))
def test_mm_degenerates_to_conventional_product(side, ab):
    a, b = ab
    assert np.array_equal(mm_stp(a, b, side), a @ b)


@pytest.mark.parametrize("side", SIDES)
@given(st.tuples(dims6, dims6, dims6, dims6).flatmap(
    lambda s: st.tuples(int_matrix(s[0], s[1]), int_matrix(s[2], s[3]))
))
@example((np.arange(6.0).reshape(3, 2), np.arange(8.0).reshape(4, 2)))  # n | p
@example((np.arange(12.0).reshape(3, 4), np.arange(12.0).reshape(6, 2)))  # non-divisible
def test_mm_matches_dense_lift_oracle(side, ab):
    a, b = ab
    t = lcm(a.shape[1], b.shape[0])
    expected = lift_matrix(a, t // a.shape[1], side) @ lift_matrix(b, t // b.shape[0], side)
    assert np.array_equal(mm_stp(a, b, side), expected)


def test_mm_left_row_against_identity():
    out = mm_stp(np.array([[1.0, 1.0]]), np.eye(4), Side.LEFT)
    assert np.array_equal(out, np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float))


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=40, deadline=None)
@given(
    st.tuples(dims6, dims6).flatmap(lambda s: float_matrix(*s)),
    st.tuples(dims6, dims6).flatmap(lambda s: float_matrix(*s)),
    st.tuples(dims6, dims6).flatmap(lambda s: float_matrix(*s)),
)
def test_mm_associativity(side, a, b, c):
    lhs = mm_stp(mm_stp(a, b, side), c, side)
    rhs = mm_stp(a, mm_stp(b, c, side), side)
    assert lhs.shape == rhs.shape
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("side", SIDES)
@settings(deadline=None)
@given(
    st.tuples(dims6, dims6).flatmap(lambda s: float_matrix(*s)),
    st.tuples(dims6, dims6).flatmap(lambda s: float_matrix(*s)),
    dims6.flatmap(lambda n: st.lists(unit_floats, min_size=n, max_size=n)),
)
def test_mixed_associativity_matrix_then_vector(side, a, b, x):
    x = np.array(x)
    lhs = mv_stp(mm_stp(a, b, side), x, side)
    rhs = mv_stp(a, mv_stp(b, x, side), side)
    assert lhs.shape == rhs.shape
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("side", SIDES)
@given(st.tuples(dims, dims).flatmap(
    lambda s: st.tuples(float_matrix(*s), float_matrix(*s), float_matrix(s[1], s[0]))
))
def test_distributivity_with_shared_shapes(side, abc):
    a, b, c = abc
    lhs = mm_stp(a + b, c, side)
    rhs = mm_stp(a, c, side) + mm_stp(b, c, side)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


# --- matrix-vector products -------------------------------------------------

@pytest.mark.parametrize("side", SIDES)
@given(st.tuples(dims, dims).flatmap(
    lambda s: st.tuples(int_matrix(*s), st.lists(ints, min_size=s[1], max_size=s[1]))
))
def test_mv_degenerates_to_conventional_product(side, ax):
    a, x = ax
    x = np.array(x, dtype=float)
    assert np.array_equal(mv_stp(a, x, side), a @ x)


def test_mv_left_divisible_case():
    assert np.array_equal(mv_stp([[1, 1]], [1, 2, 3, 4], Side.LEFT), [4.0, 6.0])


def test_mv_left_non_divisible_case():
    assert np.array_equal(mv_stp([[1, 1]], [1, 2, 3], Side.LEFT), [3.0, 4.0, 5.0])


def test_mv_right_divisible_case():
    assert np.array_equal(mv_stp([[1, 1]], [1, 2, 3, 4], Side.RIGHT), [3.0, 7.0])


def test_mv_matches_explicit_lift_expansion():
    # independent expansion of the defining formula, s = lcm(2, 3) = 6
    a = np.array([[1.0, 1.0]])
    x = np.array([1.0, 2.0, 3.0])
    expected = np.kron(a, np.eye(3)) @ np.kron(x, np.ones(2))
    assert np.array_equal(mv_stp(a, x, Side.LEFT), expected)


@pytest.mark.parametrize("side", SIDES)
@given(st.tuples(dims6, dims6, dims6).flatmap(
    lambda s: st.tuples(int_matrix(s[0], s[1]), st.lists(ints, min_size=s[2], max_size=s[2]))
))
@example((np.ones((2, 3)), [1, 2, 3, 4, 5, 6]))  # n | p
@example((np.arange(8.0).reshape(2, 4), [1, -2, 3, -4, 5, -6]))  # non-divisible
def test_mv_matches_dense_lift_oracle(side, ax):
    a, x = ax
    x = np.array(x, dtype=float)
    s = lcm(a.shape[1], x.size)
    ones = np.ones(s // x.size)
    xl = np.kron(x, ones) if side is Side.LEFT else np.kron(ones, x)
    expected = lift_matrix(a, s // a.shape[1], side) @ xl
    assert np.array_equal(mv_stp(a, x, side), expected)


# --- semi-tensor addition ---------------------------------------------------

def test_sta_equal_dims_is_plain_sum():
    assert np.array_equal(sta([1, 2], [3, 4]), [4.0, 6.0])


def test_sta_left_example():
    assert np.array_equal(sta([1, 2], [1, 2, 3], Side.LEFT), [2, 2, 3, 4, 5, 5])


def test_sta_self_subtraction_is_zero():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(sta(x, x, Side.LEFT, subtract=True), np.zeros(3))


@pytest.mark.parametrize("side", SIDES)
@given(
    st.lists(ints, min_size=1, max_size=4),
    st.lists(ints, min_size=1, max_size=4),
)
def test_sta_commutes(side, x, y):
    assert np.array_equal(sta(x, y, side), sta(y, x, side))


# --- validation -------------------------------------------------------------

def test_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        mv_stp([[1.0, np.nan]], [1.0], Side.LEFT)


def test_rejects_empty_shapes():
    with pytest.raises(BadShape):
        sta([], [1.0])

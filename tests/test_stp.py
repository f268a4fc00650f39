from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    lift_matrix,
    lift_signal,
    mm_stp,
    mv_stp,
    project,
    recover_signal,
    reduce_signal,
    sta,
    swap_matrix,
)
from stpcs.errors import BadShape
from stpcs.golden import SENSING_7X16
from stpcs.stp import blocks, unblocks, unlift

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


# --- block layout -----------------------------------------------------------

# (n, s, trailing axes) of an integer array with n*s rows
layouts = st.tuples(dims, dims, st.lists(dims, max_size=2)).flatmap(
    lambda d: st.tuples(
        st.just(d[1]),
        st.lists(ints, min_size=d[0] * d[1] * int(np.prod(d[2])),
                 max_size=d[0] * d[1] * int(np.prod(d[2]))).map(
            lambda v: np.array(v, dtype=float).reshape(d[0] * d[1], *d[2])),
    )
)


@pytest.mark.parametrize("side", SIDES)
@given(layouts)
def test_unblocks_inverts_blocks(side, sv):
    s, v = sv
    g = blocks(v, s, side)
    assert g.shape == (v.shape[0] // s, s, *v.shape[1:])
    assert np.array_equal(unblocks(g, side), v)


def test_block_columns_are_interleaved_left_and_runs_right():
    v = np.arange(6.0)
    assert np.array_equal(blocks(v, 2, Side.LEFT)[:, 1], [1.0, 3.0, 5.0])
    assert np.array_equal(blocks(v, 2, Side.RIGHT)[:, 1], [3.0, 4.0, 5.0])


@pytest.mark.parametrize("side", SIDES)
@given(layouts.flatmap(lambda sv: st.tuples(
    st.just(sv), int_matrix(3, sv[1].shape[0] // sv[0]))))
def test_atom_on_blocks_is_the_lifted_matrix(side, case):
    (s, v), a = case
    lifted = unblocks(np.tensordot(a, blocks(v, s, side), axes=1), side)
    assert np.array_equal(lifted, np.tensordot(lift_matrix(a, s, side), v, axes=1))
    if v.ndim == 1:
        assert np.array_equal(unblocks(a @ blocks(v, s, side), side), lifted)


@pytest.mark.parametrize("side", SIDES)
@given(st.lists(ints, min_size=1, max_size=5), dims)
def test_blocks_of_a_lift_repeat_the_signal(side, x, s):
    x = np.array(x, dtype=float)
    g = blocks(lift_signal(x, x.size * s, side), s, side)
    assert g.shape == (x.size, s)
    assert all(np.array_equal(g[:, b], x) for b in range(s))


@pytest.mark.parametrize("side", SIDES)
@given(st.lists(ints, min_size=1, max_size=5), dims, st.data())
def test_unlift_inverts_lift_and_refuses_a_bumped_lift(side, x, r, data):
    x = np.array(x, dtype=float)
    xl = lift_signal(x, x.size * r, side)
    assert np.array_equal(unlift(xl, r, side), x)
    if r > 1:
        xl[data.draw(st.integers(0, xl.size - 1))] += 0.5
        assert unlift(xl, r, side) is None


@pytest.mark.parametrize("side", SIDES)
def test_unlift_reads_equal_infinities_as_equal(side):
    # unlift does not validate: inf - inf is NaN, yet equal infinities match
    inf = np.inf
    assert np.array_equal(unlift(np.array([inf, inf]), 2, side), [inf])
    assert np.array_equal(unlift(np.array([-inf, -inf]), 2, side), [-inf])
    assert unlift(np.array([inf, -inf]), 2, side) is None
    assert unlift(np.array([inf, 1.0]), 2, side) is None
    assert unlift(np.array([np.nan, np.nan]), 2, side) is None
    assert unlift(np.array([1.0, inf]), 2, side, atol=1.0) is None


@pytest.mark.parametrize("side", SIDES)
def test_outputs_never_share_memory_with_inputs(side):
    x = np.array([1.0, -2.0, 3.0, 1.0, -2.0, 3.0])
    outs = [(lift_signal(x, 6, side), x), (lift_signal(x, 12, side), x),
            (reduce_signal(x, side)[0], x), (reduce_signal(x[:3], side)[0], x),
            (project(x, 6, side), x), (project(x, 3, side), x),
            (mv_stp(np.eye(6), x, side), x), (mv_stp(np.eye(2), x, side), x)]
    for p in (32, 24):  # r = 1 and r = 2
        signal = np.zeros(p)
        signal[p // 3] = 2.0
        y = mv_stp(SENSING_7X16, signal, side)
        xhat = recover_signal(SENSING_7X16, y, p, 1, side)
        assert np.array_equal(xhat, signal)
        outs += [(xhat, y), (xhat, SENSING_7X16)]
    for out, arg in outs:
        assert not np.shares_memory(out, arg)


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

import tracemalloc
import warnings
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
from stpcs.stp import as_matrix, as_side, as_signal, blocks, unblocks, unlift

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


def _mv_stp_by_blocks(a, x, side):
    """mv_stp as the block round trip it applies in reshape form."""
    n = a.shape[1]
    s = lcm(n, x.size)
    xl = x if s == x.size else lift_signal(x, s, side)
    return unblocks(a @ blocks(xl, s // n, side), side)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(1, 20), st.integers(1, 400), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(12, 15, 241, False, 0)  # m >= 12 and a long lift: where BLAS kernels change
def test_mv_stp_is_the_block_round_trip_bit_for_bit(side, m, n, q, divisible, seed):
    # p = n*q (n | p) or p = q (n | p only by chance); columns scaled over 1e-6..1e6
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-6, 6, n)
    x = rng.standard_normal(n * q if divisible else q) * 10.0 ** rng.uniform(-6, 6)
    assert mv_stp(a, x, side).tobytes() == _mv_stp_by_blocks(a, x, side).tobytes()


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
def test_unlift_warns_of_nothing(side):
    rng = np.random.default_rng(5)
    inf, nan = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two = np.array([inf, 2.0])
        lifted = np.repeat(two, 2) if side is Side.LEFT else np.tile(two, 2)
        assert np.array_equal(unlift(lifted, 2, side), two)
        assert np.array_equal(unlift(np.array([-inf, -inf, -inf]), 3, side), [-inf])
        assert unlift(np.array([nan, nan]), 2, side) is None
        assert unlift(np.array([1.0, nan]), 2, side) is None
        assert unlift(np.array([1e200, 1e200]), 2, side)[0] == 1e200  # squares overflow
        for _ in range(200):
            n, r = rng.integers(1, 9, size=2)
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300)
            x = lift_signal(y, n * r, side)
            assert unlift(x, r, side).tobytes() == y.tobytes()
            if r > 1:
                x[rng.integers(n, x.size) if side is Side.RIGHT else 1] = rng.choice([inf, nan])
                assert unlift(x, r, side) is None


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


@pytest.mark.parametrize("big", [1e200, -1e200, 1e308, -1e308])
def test_finite_entries_whose_squares_overflow_pass_without_a_warning(big):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_signal([big, 1.0]), [big, 1.0])
        assert np.array_equal(as_matrix([[big], [big]]), [[big], [big]])


@pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
                                 [1e200, np.nan], [1.0, 2.0, np.inf]])
def test_non_finite_entries_are_refused_with_their_message(bad):
    with pytest.raises(ValueError, match="^signal entries must be finite$"):
        as_signal(bad)
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        as_matrix([bad, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_strided_inputs_get_the_same_finite_check(bad):
    a = np.arange(24.0).reshape(4, 6)
    x = np.arange(12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_matrix(a[:, ::2]), a[:, ::2])
        assert np.array_equal(as_signal(x[::-3]), x[::-3])
        assert np.array_equal(as_signal(np.full(6, 1e300)[::2]), [1e300] * 3)
    a[1, 2], x[3] = bad, bad
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        as_matrix(a[:, ::2])
    with pytest.raises(ValueError, match="^signal entries must be finite$"):
        as_signal(x[::3])


def test_the_finite_check_copies_no_strided_input():
    x = np.random.default_rng(0).standard_normal(2 ** 22)[::2]
    tracemalloc.start()
    try:
        assert np.shares_memory(as_signal(x), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes // 4  # at most the elementwise mask, never a float copy


def test_the_finite_check_reads_a_fortran_matrix_in_place():
    a = np.asfortranarray(np.random.default_rng(0).standard_normal((2048, 2048)))
    tracemalloc.start()
    try:
        assert as_matrix(a) is a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes // 64  # no copy, and no elementwise mask either


def test_rejects_empty_shapes():
    with pytest.raises(BadShape):
        sta([], [1.0])


@pytest.mark.parametrize("side", SIDES)
def test_a_side_name_is_its_member_everywhere(side):
    # a name once read "left" in one function and "not RIGHT" in another
    x = np.arange(48.0)
    b = np.arange(24.0).reshape(2, 12)
    for name in (side.value, side.value.upper()):
        assert as_side(name) is side
        assert np.array_equal(blocks(x, 3, name), blocks(x, 3, side))
        assert np.array_equal(unblocks(blocks(x, 3, side), name), x)
        assert np.array_equal(mv_stp(SENSING_7X16, x, name), mv_stp(SENSING_7X16, x, side))
        assert np.array_equal(mm_stp(SENSING_7X16, b, name), mm_stp(SENSING_7X16, b, side))
        assert np.array_equal(lift_matrix(b, 2, name), lift_matrix(b, 2, side))
        assert np.array_equal(sta(x, x[:6], name), sta(x, x[:6], side))
    assert as_side(side) is side


@pytest.mark.parametrize("bad", ["bogus", "", 1, None, "Side.LEFT"])
def test_anything_but_a_side_is_refused(bad):
    with pytest.raises(BadShape, match="unknown side"):
        as_side(bad)

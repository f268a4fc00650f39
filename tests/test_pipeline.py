import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    SparsityMode,
    SparsitySpec,
    aocm,
    compress,
    equivalent,
    horizontal_expand,
    mv_stp,
    plan,
    recover,
    recover_signal,
    swap_matrix,
    uniqueness_guarantee,
    vertical_expand_star,
)
from stpcs.errors import BadShape, NoSolution, NotUnique
from stpcs.golden import SENSING_7X16

SIDES = [Side.LEFT, Side.RIGHT]


@pytest.fixture(scope="module")
def phi():
    return SENSING_7X16


@pytest.fixture(scope="module")
def phi30():
    # 15x30 design with coherence 1/5: admits per-block sparsity 2
    return horizontal_expand(vertical_expand_star(6), aocm(5))


# --- planning -----------------------------------------------------------------

def test_plan_divisible_case():
    a = np.arange(12.0).reshape(3, 4)
    pl = plan(a, 8, Side.LEFT)
    assert (pl.s, pl.r, pl.t) == (2, 1, 8)
    assert pl.output_dim == 6


def test_plan_non_divisible_case():
    a = np.arange(12.0).reshape(3, 4)
    pl = plan(a, 6, Side.LEFT)
    assert (pl.s, pl.r, pl.t) == (3, 2, 12)


def test_plan_conventional_case():
    a = np.arange(12.0).reshape(3, 4)
    pl = plan(a, 4, Side.LEFT)
    assert (pl.s, pl.r, pl.t) == (1, 1, 4)


def test_plan_reduces_to_the_atom():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    pl = plan(np.kron(a, np.eye(3)), 4, Side.LEFT)
    assert pl.atom.shape == (2, 2) and (pl.s, pl.r) == (2, 1)


# --- compression ----------------------------------------------------------------

def test_compress_left_example():
    assert np.array_equal(compress([[1, 1]], [1, 2, 3, 4], Side.LEFT), [4.0, 6.0])


def test_compress_right_example():
    assert np.array_equal(compress([[1, 1]], [1, 2, 3, 4], Side.RIGHT), [3.0, 7.0])


@pytest.mark.parametrize("side", SIDES)
def test_compress_by_identity_is_noop(side):
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(compress(np.eye(3), x, side), x)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_compress_respects_signal_equivalence(side, seed, r1, r2):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(2, 3)).astype(float)
    x = rng.integers(-3, 4, size=4).astype(float)
    ones = np.ones(r1) if side is Side.LEFT else np.ones(r2)
    x1 = np.kron(x, np.ones(r1)) if side is Side.LEFT else np.kron(np.ones(r1), x)
    x2 = np.kron(x, np.ones(r2)) if side is Side.LEFT else np.kron(np.ones(r2), x)
    assert equivalent(compress(a, x1, side), compress(a, x2, side), side)


def test_swap_conjugation_identity_exact():
    rng = np.random.default_rng(4)
    a = rng.integers(-3, 4, size=(2, 3)).astype(float)
    for s in (2, 3):
        x = rng.integers(-3, 4, size=3 * s).astype(float)
        lhs = np.kron(a, np.eye(s)) @ x
        rhs = swap_matrix(s, 2) @ (np.kron(np.eye(s), a) @ (swap_matrix(3, s) @ x))
        assert np.array_equal(lhs, rhs)
        # the reshape forms recover uses in place of the two swap products
        assert np.array_equal(swap_matrix(2, s) @ lhs, lhs.reshape(2, s).T.reshape(-1))
        xr = swap_matrix(3, s) @ x
        assert np.array_equal(swap_matrix(s, 3) @ xr, xr.reshape(s, 3).T.reshape(-1))


# --- recovery --------------------------------------------------------------------

def place_block_sparse(p, positions, values):
    x = np.zeros(p)
    for pos, val in zip(positions, values):
        x[pos] = val
    return x


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_round_trip_one_sparse(phi, side, s):
    spec = SparsitySpec(16, 1)
    rng = np.random.default_rng(s)
    for pos in rng.choice(16 * s, size=6, replace=False):
        x = place_block_sparse(16 * s, [pos], [2.0])
        y = compress(phi, x, side)
        xh = recover(phi, s, y, spec, side)
        assert np.allclose(xh, x, atol=1e-8)


@pytest.mark.parametrize("side", SIDES)
def test_round_trip_weight_exceeds_global_bound(phi, side):
    # per-block sparsity 1 with s = 3 blocks: total weight 3 > global bound 1
    s = 3
    if side is Side.RIGHT:
        positions = [0, 16 + 5, 32 + 11]  # one per contiguous block
    else:
        positions = [0, 3 + 1, 6 + 2]  # one per interleaved phase
    x = place_block_sparse(16 * s, positions, [1.0, -2.0, 2.0])
    y = compress(phi, x, side)
    xh = recover(phi, s, y, SparsitySpec(16, 1), side)
    assert np.allclose(xh, x, atol=1e-8)


def test_recover_identity_returns_measurements():
    y = np.array([1.0, 0.0, -2.0])
    xh = recover(np.eye(3), 1, y, SparsitySpec(3, 3), Side.LEFT)
    assert np.allclose(xh, y, atol=1e-12)


def test_recover_global_mode(phi):
    spec = SparsitySpec(16, 1, SparsityMode.GLOBAL)
    for s, pos in ((1, 4), (2, 21)):
        x = place_block_sparse(16 * s, [pos], [1.5])
        y = compress(phi, x, Side.RIGHT)
        for method in ("oracle", "omp"):
            xh = recover(phi, s, y, spec, Side.RIGHT, method=method)
            assert np.allclose(xh, x, atol=1e-8)


def test_recover_no_solution_when_k_too_small():
    with pytest.raises(NoSolution):
        recover(np.eye(2), 1, [1.0, 1.0], SparsitySpec(2, 1), Side.LEFT)


def test_recover_not_unique_with_duplicate_columns():
    a = np.array([[1.0, 1.0]])
    with pytest.raises(NotUnique):
        recover(a, 1, [1.0], SparsitySpec(2, 1), Side.LEFT)


def test_recover_zero_measurements_give_zero_signal(phi):
    xh = recover(phi, 2, np.zeros(14), SparsitySpec(16, 1), Side.LEFT)
    assert np.array_equal(xh, np.zeros(32))


def test_recover_not_unique_never_raised_under_guarantee():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 6))
    assert uniqueness_guarantee(a, 1)
    for pos in range(6):
        for amp in (1.0, -2.0):
            x = place_block_sparse(6, [pos], [amp])
            xh = recover(a, 1, np.asarray(a @ x), SparsitySpec(6, 1), Side.LEFT)
            assert np.allclose(xh, x, atol=1e-8)


def reference_block(a, y, k, tol=1e-8, same_atol=1e-6):
    """One block by its own support loop: one lstsq per support, dedup by vector."""
    n = a.shape[1]
    solutions = [np.zeros(n)] if np.linalg.norm(y) < tol else []
    for size in range(1, k + 1):
        for sup in combinations(range(n), size):
            coef, *_ = np.linalg.lstsq(a[:, sup], y, rcond=None)
            if np.linalg.norm(y - a[:, sup] @ coef) < tol:
                x = np.zeros(n)
                x[list(sup)] = coef
                if not any(np.allclose(v, x, rtol=0.0, atol=same_atol) for v in solutions):
                    solutions.append(x)
    if not solutions:
        raise NoSolution("reference")
    if len(solutions) > 1:
        raise NotUnique("reference")
    return solutions[0]


def reference_recover(a, s, y, k, side):
    """Blocks solved one at a time, in the order recover reports failures."""
    m, n = a.shape
    if side is Side.LEFT:
        y = swap_matrix(m, s) @ y
    x = np.concatenate([reference_block(a, y[b * m:(b + 1) * m], k) for b in range(s)])
    return swap_matrix(s, n) @ x if side is Side.LEFT else x


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_batched_sweep_matches_per_block_reference(side, seed):
    # small integer atoms: blocks that are all-zero, 1-sparse or 2-sparse, and
    # atoms with dependent columns, so unique, NoSolution and NotUnique all occur
    rng = np.random.default_rng(seed)
    m, n, s = int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(1, 5))
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    xs = np.zeros((n, s))
    for b in range(s):
        sup = rng.choice(n, size=int(rng.integers(0, 3)), replace=False)
        xs[sup, b] = rng.choice([-2.0, -1.0, 1.0, 3.0], size=sup.size)
    x = xs.reshape(-1) if side is Side.LEFT else xs.T.reshape(-1)
    y = compress(a, x, side)
    k = int(rng.integers(1, 3))
    spec = SparsitySpec(n, k)
    try:
        expected = reference_recover(a, s, y, k, side)
    except (NoSolution, NotUnique) as exc:
        with pytest.raises(type(exc)):
            recover(a, s, y, spec, side)
    else:
        assert np.allclose(recover(a, s, y, spec, side), expected, rtol=0.0, atol=1e-9)


# columns 0 and 1 coincide: y = e1 has two 1-sparse fits, y = e1 + e2 has none
_DUP = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_NOT_UNIQUE_BLOCK = np.array([1.0, 0.0])
_NO_SOLUTION_BLOCK = np.array([1.0, 1.0])


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("blocks,error", [
    ((_NOT_UNIQUE_BLOCK, _NO_SOLUTION_BLOCK), NotUnique),
    ((_NO_SOLUTION_BLOCK, _NOT_UNIQUE_BLOCK), NoSolution),
])
def test_lowest_failing_block_decides_the_error(side, blocks, error):
    ys = np.column_stack(blocks)  # measurement block b is column b
    y = ys.reshape(-1) if side is Side.LEFT else ys.T.reshape(-1)
    with pytest.raises(error):
        recover(_DUP, 2, y, SparsitySpec(3, 1), side)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_lift_allocates_no_dense_matrices(phi):
    # s = 256 copies of the atom: a dense lift or swap matrix is tens of MB
    p = 4096
    xs = np.zeros((16, p // 16))
    xs[np.arange(p // 16) % 16, np.arange(p // 16)] = 2.0
    x = xs.reshape(-1)
    y = compress(phi, x, Side.LEFT)
    assert _traced_peak(lambda: mv_stp(phi, x, Side.LEFT)) < 1_000_000
    assert _traced_peak(lambda: recover_signal(phi, y, p, 1, Side.LEFT)) < 1_000_000
    assert np.allclose(recover_signal(phi, y, p, 1, Side.LEFT), x, atol=1e-8)


def test_recover_validates_shapes(phi):
    with pytest.raises(BadShape):
        recover(phi, 2, np.zeros(7), SparsitySpec(16, 1), Side.LEFT)
    with pytest.raises(BadShape):
        recover(phi, 1, np.zeros(7), SparsitySpec(8, 1), Side.LEFT)


# --- full pipeline with planning ----------------------------------------------------

@pytest.mark.parametrize("side", SIDES)
def test_recover_signal_divisible(phi, side):
    p = 32
    x = place_block_sparse(p, [17], [2.0])
    y = compress(phi, x, side)
    assert np.allclose(recover_signal(phi, y, p, 1, side), x, atol=1e-8)


def test_recover_signal_non_divisible_right(phi30):
    # p = 45, atom columns 30: lift t = 90, signal replicated r = 2 times
    p = 45
    x = place_block_sparse(p, [7], [3.0])
    y = compress(phi30, x, Side.RIGHT)
    assert np.allclose(recover_signal(phi30, y, p, 1, Side.RIGHT), x, atol=1e-8)


def test_recover_signal_non_divisible_left(phi30):
    # entry repetition doubles the nonzero inside one block: per-block bound 2
    p = 45
    x = place_block_sparse(p, [7], [3.0])
    y = compress(phi30, x, Side.LEFT)
    assert np.allclose(recover_signal(phi30, y, p, 2, Side.LEFT), x, atol=1e-8)


def test_recover_signal_rejects_unliftable_solution(phi30):
    # measurements of a 1-sparse dim-90 signal: consistent with the lifted
    # system but not with any replicated dim-45 signal
    xt = np.zeros(90)
    xt[7] = 1.0
    y = np.asarray(np.kron(np.eye(3), phi30) @ xt)
    with pytest.raises(NoSolution):
        recover_signal(phi30, y, 45, 1, Side.RIGHT)


def test_mv_stp_is_the_compression_map(phi):
    x = np.arange(32.0)
    assert np.array_equal(compress(phi, x, Side.LEFT), mv_stp(phi, x, Side.LEFT))


# --- matching-pursuit fast path --------------------------------------------------------

@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("s", [1, 2, 256])
def test_omp_fast_path_matches_oracle(phi, side, s):
    spec = SparsitySpec(16, 1)
    rng = np.random.default_rng(13)
    for pos in rng.choice(16 * s, size=8, replace=False):
        x = place_block_sparse(16 * s, [pos], [float(rng.choice([-2, -1, 1, 2]))])
        y = compress(phi, x, side)
        oracle = recover(phi, s, y, spec, side)
        fast = recover(phi, s, y, spec, side, method="omp")
        assert np.allclose(fast, oracle, atol=1e-8)


def test_omp_two_sparse_on_low_coherence_design(phi30):
    # coherence 1/5 certifies exact greedy recovery at per-block weight 2
    spec = SparsitySpec(30, 2)
    x = np.zeros(30)
    x[3], x[17] = 2.0, -1.0
    y = compress(phi30, x, Side.RIGHT)
    assert np.allclose(recover(phi30, 1, y, spec, Side.RIGHT, method="omp"), x, atol=1e-8)


def reference_omp(a, ys, k, residual_tol=1e-8):
    """Matching pursuit one column at a time: one gemv and one lstsq per step."""
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    xs = np.zeros((a.shape[1], ys.shape[1]))
    for b, y in enumerate(ys.T):
        support: list[int] = []
        resid = y.copy()
        coef = np.zeros(0)
        for _ in range(k):
            if float(np.linalg.norm(resid)) < residual_tol:
                break
            scores = np.abs(a.T @ resid) / norms
            scores[support] = -1.0
            support.append(int(np.argmax(scores)))
            coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
            resid = y - a[:, support] @ coef
        if float(np.linalg.norm(resid)) >= residual_tol:
            raise NoSolution(
                f"matching pursuit residual stayed above {residual_tol:.1e} in block {b}"
            )
        xs[support, b] = coef
    return xs


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_batched_omp_matches_per_column_reference(seed):
    # Gaussian atoms, so no two scores tie exactly: with integer atoms the
    # batched and the per-column products can break an exact tie differently,
    # and both picks are valid.  Columns are all-zero or up to k-sparse, one
    # atom column is zero, and half the cases get one column no k columns fit.
    rng = np.random.default_rng(seed)
    m, n, cols = int(rng.integers(3, 9)), int(rng.integers(4, 14)), int(rng.integers(1, 41))
    k = int(rng.integers(0, 4))
    a = rng.standard_normal((m, n))
    a[:, rng.integers(n)] = 0.0
    xs = np.zeros((n, cols))
    for b in range(cols):
        sup = rng.choice(n, size=int(rng.integers(0, k + 1)), replace=False)
        xs[sup, b] = rng.standard_normal(sup.size)
    ys = a @ xs
    if rng.integers(2):
        ys[:, rng.integers(cols)] = rng.standard_normal(m)
    # the left convention reads the measurement blocks as the columns of y.reshape(m, s)
    spec = SparsitySpec(n, k)
    try:
        expected = reference_omp(a, ys, k)
    except NoSolution as exc:
        with pytest.raises(NoSolution) as got:
            recover(a, cols, ys.reshape(-1), spec, Side.LEFT, method="omp")
        assert str(got.value) == str(exc)
    else:
        xh = recover(a, cols, ys.reshape(-1), spec, Side.LEFT, method="omp")
        assert np.allclose(xh.reshape(n, cols), expected, rtol=1e-9, atol=1e-9)


def test_omp_reports_failure_as_no_solution():
    with pytest.raises(NoSolution):
        recover(np.eye(2), 1, [1.0, 1.0], SparsitySpec(2, 1), Side.LEFT, method="omp")


def test_recover_rejects_unknown_method(phi):
    with pytest.raises(BadShape):
        recover(phi, 1, np.zeros(7), SparsitySpec(16, 1), Side.LEFT, method="lasso")


# --- uniqueness guarantee -------------------------------------------------------------

def test_uniqueness_guarantee_examples():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])  # spark 3
    assert uniqueness_guarantee(a, 1)
    assert not uniqueness_guarantee(a, 2)
    assert uniqueness_guarantee(np.eye(4), 4)  # infinite spark


def test_uniqueness_guarantee_uses_the_atom():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert uniqueness_guarantee(np.kron(a, np.eye(3)), 1)
    # both lift sides reduce to the 7x16 atom; spark of the 56x128 lift
    # itself would exceed the subset budget
    assert uniqueness_guarantee(np.kron(SENSING_7X16, np.eye(8)), 1)
    assert uniqueness_guarantee(np.kron(np.eye(8), SENSING_7X16), 1)

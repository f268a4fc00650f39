import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    SparsityMode,
    SparsitySpec,
    aocm,
    compress,
    equivalent,
    horizontal_expand,
    incidence_matrix,
    lift_matrix,
    max_sparsity,
    mv_stp,
    ocm,
    plan,
    recover,
    recover_signal,
    swap_matrix,
    uniqueness_guarantee,
    vertical_expand,
    vertical_expand_star,
)
from stpcs import metrics, pipeline
from stpcs.errors import BadShape, BudgetExceeded, NoSolution, NotUnique, StpcsError
from stpcs.golden import SENSING_7X16
from stpcs.pipeline import _SAME_SOLUTION_ATOL, RESIDUAL_TOL, _atom, _certified, _fit
from stpcs.stp import as_matrix, blocks, unblocks, unlift

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
    big = np.kron(a, np.eye(3))
    pl = plan(big, 4, Side.LEFT)
    # compress lifts the 6-column matrix and the signal to lcm(6, 4) = 12
    assert pl.atom.shape == (2, 2) and (pl.s, pl.r, pl.t) == (6, 3, 12)
    assert pl.output_dim == compress(big, np.arange(4.0), Side.LEFT).size


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
    # p = 45, atom columns 30: t = 90, r = 2, s = 3.  The two copies of x[7],
    # lifted entries 14 and 15, land in blocks 2 and 0, one nonzero each, so
    # the per-block bound 2 is loose: k = 1 recovers x as well
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


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([16, 24, 32, 40, 48]),
    st.integers(min_value=0, max_value=47),
    st.sampled_from([-2.0, 1.0, 3.0]),
)
def test_recover_signal_through_a_reducible_matrix(side, lifts, p, pos, value):
    # a = the atom lifted `lifts` times: compress lifts a, not its atom, to
    # lcm(columns, p); for these p the r copies of a nonzero land in
    # distinct blocks, so one nonzero per block is the unique fit
    a = lift_matrix(SENSING_7X16, lifts, side)
    x = place_block_sparse(p, [pos % p], [value])
    y = compress(a, x, side)
    assert plan(a, p, side).output_dim == y.size
    for method in ("oracle", "omp"):
        assert np.allclose(recover_signal(a, y, p, 1, side, method=method), x, atol=1e-8)


def _recover_signal_by_plan(a, y, p, k, side=Side.LEFT, method="oracle"):
    """recover_signal through a CompressionPlan, a SparsitySpec and `recover`."""
    pl = plan(a, p, side)
    spec = SparsitySpec(int(pl.atom.shape[1]), k)
    xt = recover(pl.atom, pl.s, y, spec, pl.side, method)
    if pl.r == 1:
        return xt
    x = unlift(xt, pl.r, pl.side, RESIDUAL_TOL)
    if x is None:
        raise NoSolution(
            f"lifted solution is not {pl.r}-fold replicated; no dim-{p} signal matches"
        )
    return x


def _bits_or_error(solve, *args):
    """The solution's dtype, shape and bytes, or the type and message of the error raised."""
    try:
        x = solve(*args)
    except (StpcsError, ValueError) as exc:
        return type(exc), str(exc)
    return x.dtype, x.shape, x.tobytes()


def _signal_case(rng, atoms):
    """Arguments of recover_signal: valid ones mostly, an invalid one now and then."""
    side = SIDES[rng.integers(2)]
    atom = atoms[rng.integers(len(atoms))]
    n0 = atom.shape[1]
    # a lift on the recovery side, which plan reduces, or on the other side
    lift_side = side if rng.random() < 0.7 else SIDES[side is Side.LEFT]
    a = lift_matrix(atom, rng.integers(1, 3), lift_side)
    p = int(rng.choice([rng.integers(1, n0), n0 * rng.integers(1, 5), rng.integers(1, 5 * n0)]))
    x = np.zeros(p)
    x[rng.integers(p, size=rng.integers(0, 3))] = rng.integers(-3, 4, size=1)
    y = compress(a, x, side)
    if rng.random() < 0.2:
        y[rng.integers(y.size)] += rng.choice([1e-3, 1e-12])
    k = int(rng.integers(0, 3))
    method = ("oracle", "omp")[rng.integers(2)]
    bad = rng.integers(12)
    if bad == 0:
        k = plan(a, 1, side).atom.shape[1] + 1
    elif bad == 1:
        y = y[:-1] if y.size > 1 else np.zeros(3)
    elif bad == 2:
        method = "lstsq"
    elif bad == 3:
        p = 0
    return a, y, p, k, side, method


@pytest.mark.parametrize("seed", range(4))
def test_recover_signal_is_plan_spec_and_recover_bit_for_bit(phi, phi30, seed):
    # both sides and methods, p < n0, n0 not dividing p, reducible and irreducible
    # matrices, and invalid arguments: the same bits, or the same error and message
    rng = np.random.default_rng(seed)
    atoms = [phi, phi30, rng.integers(-2, 3, size=(4, 6)).astype(float),
             np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]  # the last has a duplicate column
    for _ in range(150):
        case = _signal_case(rng, atoms)
        expected = _bits_or_error(_recover_signal_by_plan, *case)
        assert _bits_or_error(recover_signal, *case) == expected


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
        # the method is a name read in any case
        assert np.array_equal(recover(phi, s, y, spec, side, method="OMP"), fast)


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
            # the lowest-index score within rounding of the best, as in `_omp`
            support.append(int(np.argmax(scores >= scores.max() * (1 - 1e-12))))
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
    # A quarter of the cases take an integer atom instead, whose zero column 0
    # and zero row leave that column orthogonal to every atom column: all its
    # scores are 0, so its first pick is the zero column, whose 1x1 Gram block
    # fails the determinant screen and is refitted by lstsq.  Its other
    # columns are at most 1-sparse, which no tie can mislead.
    rng = np.random.default_rng(seed)
    m, n, cols = int(rng.integers(3, 9)), int(rng.integers(4, 14)), int(rng.integers(1, 257))
    k = int(rng.integers(0, 4))
    side = SIDES[rng.integers(2)]
    integer = rng.integers(4) == 0
    if integer:
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        row = rng.integers(m)
        a[:, 0] = a[row] = 0.0
    else:
        a = rng.standard_normal((m, n))
        a[:, rng.integers(n)] = 0.0
    xs = np.zeros((n, cols))
    for b in range(cols):
        sup = rng.choice(n, size=int(rng.integers(0, min(k, 1) + 1 if integer else k + 1)),
                         replace=False)
        xs[sup, b] = rng.integers(1, 10, sup.size) if integer else rng.standard_normal(sup.size)
    ys = a @ xs
    if integer:
        ys[:, rng.integers(cols)] = np.eye(m)[row]
    elif rng.integers(2):
        ys[:, rng.integers(cols)] = rng.standard_normal(m)
    # y is read back through the block layout of the drawn side
    y = unblocks(ys, side)
    assert np.array_equal(blocks(y, cols, side), ys)
    spec = SparsitySpec(n, k)
    try:
        expected = reference_omp(a, ys, k)
    except NoSolution as exc:
        with pytest.raises(NoSolution) as got:
            recover(a, cols, y, spec, side, method="omp")
        assert str(got.value) == str(exc)
    else:
        xh = recover(a, cols, y, spec, side, method="omp")
        assert np.allclose(blocks(xh, cols, side), expected, rtol=1e-9, atol=1e-9)


def test_omp_reports_failure_as_no_solution():
    with pytest.raises(NoSolution):
        recover(np.eye(2), 1, [1.0, 1.0], SparsitySpec(2, 1), Side.LEFT, method="omp")


class _Products(np.ndarray):
    """An atom's U that keeps a copy of the right operand of every product U^T @ R."""

    seen: list = []

    def __matmul__(self, other):
        if self.ndim == 2:  # U^T itself, not `_fit`'s stacked column subsets
            _Products.seen.append(np.ascontiguousarray(other))
        return np.asarray(self) @ other


def _first_pick_atom(atom, phi, phi30, rng):
    """The atom and the row orthogonal to every column: none for the benchmark atoms.

    A Gaussian atom gets a zero column 0 and a zero row, so the unit vector
    along that row is orthogonal to every column.
    """
    if atom == "7x16":
        return phi, None
    if atom == "15x30":
        return phi30, None
    a = rng.standard_normal((int(rng.integers(4, 9)), int(rng.integers(6, 17))))
    row = int(rng.integers(a.shape[0]))
    a[:, 0] = a[row] = 0.0
    return a, row


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("atom", ["7x16", "15x30", "gaussian"])
def test_first_pick_is_the_one_column_fit_bit_for_bit(phi, phi30, atom, side):
    # Pursuit fits its first pick in place; its coefficients (k = 1, on blocks
    # one column fits) and its residuals (k = 2, read from the second pick's
    # product U^T R) must be `_fit`'s for the one-column support, bit for bit.
    # A block orthogonal to every column picks the zero column 0, whose 1x1
    # Gram block fails the determinant screen: `_fit` refits it by lstsq, to
    # the residual y_b, and the in-place fit must get there without a 0/0.
    # (That block never fits, so its coefficient never reaches the output.)
    for seed in range(4):
        rng = np.random.default_rng([seed, 0 if side is Side.LEFT else 1])
        a, row = _first_pick_atom(atom, phi, phi30, rng)
        geo = _atom(as_matrix(a))
        u, g = geo.u, geo.g
        m, n, s = *a.shape, int(rng.integers(1, 60))

        def one_column_fits(ys):
            # `_omp`'s live blocks and C, its first picks by plain argmax (no ties here)
            live = np.linalg.norm(ys, axis=0) >= RESIDUAL_TOL
            targets = ys.take(live.nonzero()[0], axis=1)
            c = u.T @ targets
            j = np.abs(c).argmax(axis=0)
            coef, resid = _fit(u, g, j[:, None], c[j, np.arange(j.size)][:, None, None],
                               targets.T[:, :, None])
            return live, j, coef[:, 0, 0], resid[:, :, 0].T

        # k = 1: one nonzero in about two blocks of three, on a nonzero column
        xs = np.zeros((n, s))
        hit = (rng.random(s) < 2 / 3).nonzero()[0]
        xs[rng.integers(1 if row is not None else 0, n, hit.size), hit] = (
            rng.integers(1, 10, hit.size) * rng.choice([-1.0, 1.0], hit.size))
        ys = blocks(unblocks(a @ xs, side), s, side)
        live, j, coef, _ = one_column_fits(ys)
        expected = np.zeros((n, s))
        expected[j, live.nonzero()[0]] = coef / geo.scale[j]
        got, used, _ = pipeline._omp(geo, ys, 1)
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(used, live)

        # k = 2: Gaussian blocks, none of which one column fits, and the orthogonal block
        ys = rng.standard_normal((m, s))
        if row is not None:
            ys[:, rng.integers(s)] = np.eye(m)[row]
        ys = blocks(unblocks(ys, side), s, side)
        _, j, _, resid = one_column_fits(ys)
        if row is not None:
            assert j.min() == 0 and np.abs(u[:, 0]).max() == 0.0  # the zero column is picked
        _Products.seen.clear()
        with pytest.raises(NoSolution):  # no two columns fit a Gaussian block either
            pipeline._omp(geo._replace(u=u.view(_Products)), ys, 2)
        assert _Products.seen[1].tobytes() == np.ascontiguousarray(resid).tobytes()


@pytest.mark.parametrize("side", SIDES)
def test_pursuit_carries_unfinished_blocks_into_the_second_pick(phi30, side):
    # recover-search's s = 3 planting: blocks 0, 1, 2 hold 0, 1, 2 nonzeros, so
    # in one call block 1 finishes at its first pick and block 2 at its second
    geo = _atom(phi30)
    for seed in range(8):
        x = _bench_plant(np.random.default_rng(seed), 3, 30, 2, side, tie=False)
        ys = blocks(compress(phi30, x, side), 3, side)
        xs, used, alt = pipeline._omp(geo, ys, 2)
        assert used.tolist() == [0, 1, 2] and alt == 3
        assert np.allclose(xs, reference_omp(phi30, ys, 2), rtol=0.0, atol=1e-12)
        assert np.allclose(xs, blocks(x, 3, side), rtol=0.0, atol=1e-12)
        got = recover(phi30, 3, compress(phi30, x, side), SparsitySpec(30, 2), side, method="omp")
        assert np.array_equal(got, unblocks(xs, side))


def test_pursuit_errors_name_the_lowest_block_left_above_the_tolerance(phi30):
    geo = _atom(phi30)
    one, two = phi30[:, 3], phi30[:, 5] - 2.0 * phi30[:, 17]
    tiny = 1e-10 * phi30[:, 7]  # nonzero, but below the tolerance
    message = "matching pursuit residual stayed above 1.0e-08 in block {}"
    # k = 0 picks nothing: the lowest block above the tolerance fails
    ys = np.column_stack([one, np.zeros(15), two])
    with pytest.raises(NoSolution, match=message.format(0)):
        pipeline._omp(geo, ys, 0)
    with pytest.raises(NoSolution, match=message.format(1)):
        pipeline._omp(geo, np.column_stack([tiny, two, one]), 0)
    # k = 1: block 1 finishes at its first pick, blocks 2 and 3 are carried and fail
    ys = np.column_stack([tiny, one, two, two, one])
    with pytest.raises(NoSolution, match=message.format(2)):
        pipeline._omp(geo, ys, 1)
    # blocks below the tolerance take no pick: `used` stays 0 and their solution 0
    xs, used, _ = pipeline._omp(geo, ys, 2)
    assert used.tolist() == [0, 1, 2, 2, 1]
    assert not xs[:, 0].any()
    assert np.allclose(xs[[3, 5, 17], 1:], [[1, 0, 0, 1], [0, 1, 1, 0], [0, -2, -2, 0]],
                       rtol=0.0, atol=1e-12)


def test_recover_rejects_unknown_method(phi):
    with pytest.raises(BadShape, match="unknown recovery method 'lasso'; expected 'oracle' or 'omp'"):
        recover(phi, 1, np.zeros(7), SparsitySpec(16, 1), Side.LEFT, method="lasso")


# --- global sparsity ------------------------------------------------------------------

def kron_global_recover(a, s, y, k, side, method):
    """GLOBAL recovery as one column of the dense lifted system I_s (x) A.

    The per-support reference (or per-column pursuit) runs on the ns
    columns of the lift with k nonzeros in all, and tests the residual
    of all blocks together.
    """
    big = lift_matrix(a, s, Side.RIGHT)  # block b is the b-th run of n columns
    col = unblocks(blocks(y, s, side), Side.RIGHT)
    if method == "oracle":
        x = reference_block(big, col, k)
    else:
        x = reference_omp(big, col[:, None], k)[:, 0]
    return unblocks(blocks(x, s, Side.RIGHT), side)


@pytest.mark.parametrize("method", ["oracle", "omp"])
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
@example(31217)  # an exact score tie with a unique solution
def test_global_recovery_matches_the_kron_path(method, seed):
    # Gaussian, integer, spark-2 (a scaled copy) and spark-3 (a column sum)
    # atoms, up to k+1 nonzeros anywhere in x, and in one case in five a y
    # that no sparse x explains: solutions, NoSolution and NotUnique all occur
    rng = np.random.default_rng(seed)
    m, n, s = int(rng.integers(2, 6)), int(rng.integers(3, 7)), int(rng.integers(1, 5))
    kind = seed % 4
    if kind == 0:
        a = rng.standard_normal((m, n))
    else:
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        i, j, l = rng.choice(n, 3, replace=False)
        if kind == 2:
            a[:, j] = rng.choice([-2.0, 1.0, 2.0]) * a[:, i]
        elif kind == 3:
            a[:, l] = a[:, i] + a[:, j]
    k = int(rng.integers(0, 4))
    side = SIDES[int(rng.integers(2))]
    xs = np.zeros((n, s))
    for _ in range(int(rng.integers(0, k + 2))):
        xs[rng.integers(n), rng.integers(s)] = rng.choice([-2.0, -1.0, 1.0, 3.0])
    y = compress(a, unblocks(xs, side), side)
    if rng.integers(5) == 0:
        y = y + rng.standard_normal(y.size)
    spec = SparsitySpec(n, k, SparsityMode.GLOBAL)
    expected = _outcome(kron_global_recover, a, s, y, k, side, method)
    got = _outcome(recover, a, s, y, spec, side, method=method)
    if isinstance(expected, type) or isinstance(got, type):
        same = got is expected
    else:
        same = np.allclose(got, expected, rtol=0.0, atol=1e-9)
    if method == "omp" and not same:
        # both paths take the lowest index among scores within 1e-12 of the
        # best, but rounding can still put a score on different sides of
        # that band in the batched and the lifted products: picks, and so
        # outcomes, may differ only where distinct k-sparse solutions exist
        assert _outcome(kron_global_recover, a, s, y, k, side, "oracle") is NotUnique
        if not isinstance(got, type):
            assert np.count_nonzero(np.abs(got) > 1e-9) <= k
            assert np.linalg.norm(compress(a, got, side) - y) < 1e-8
        return
    assert same


def _outcome(solve, *args, **kwargs):
    """The solution, or the type of the recovery error raised."""
    try:
        return solve(*args, **kwargs)
    except (NoSolution, NotUnique) as exc:
        return type(exc)


def test_global_budget_is_what_the_other_blocks_leave():
    # spark 3: column 2 = column 0 + column 1, so each 1-sparse block below
    # also has a distinct 2-sparse fit
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    x = np.array([2.0, 0.0, 0.0, 0.0, -1.0, 0.0])  # RIGHT: one nonzero per block
    y = compress(a, x, Side.RIGHT)
    with pytest.raises(NotUnique):
        recover(a, 2, y, SparsitySpec(3, 2), Side.RIGHT)
    # two nonzeros in all leave each block one: only the sparsest fits count
    xh = recover(a, 2, y, SparsitySpec(3, 2, SparsityMode.GLOBAL), Side.RIGHT)
    assert np.allclose(xh, x, rtol=0.0, atol=1e-9)
    with pytest.raises(NotUnique):
        recover(a, 2, y, SparsitySpec(3, 3, SparsityMode.GLOBAL), Side.RIGHT)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("method", ["oracle", "omp"])
def test_global_sparsity_may_exceed_the_block_length(side, method):
    # four nonzeros over four blocks of three: k bounds the whole vector
    xs = np.zeros((3, 4))
    xs[[0, 2, 1, 0], [0, 1, 2, 3]] = [1.0, -2.0, 3.0, 0.5]
    x = unblocks(xs, side)
    y = compress(np.eye(3), x, side)
    spec = SparsitySpec(3, 4, SparsityMode.GLOBAL)
    assert np.array_equal(recover(np.eye(3), 4, y, spec, side, method=method), x)
    with pytest.raises(NoSolution):
        recover(np.eye(3), 4, y, SparsitySpec(3, 3, SparsityMode.GLOBAL), side, method=method)


def test_sparsity_spec_bounds_depend_on_the_mode():
    with pytest.raises(BadShape, match="per-block sparsity 4"):
        SparsitySpec(3, 4)
    with pytest.raises(BadShape) as exc:
        SparsitySpec(3, -1, SparsityMode.GLOBAL)
    assert "per-block" not in str(exc.value)


@pytest.mark.parametrize("side", SIDES)
def test_sparsity_mode_is_read_by_name_in_any_case(side):
    # one nonzero in each of two blocks: two nonzeros, over a GLOBAL budget of one
    x = np.zeros(32)
    x[[0, 1] if side is Side.LEFT else [0, 16]] = [1.0, 2.0]
    y = mv_stp(SENSING_7X16, x, side)
    for mode in (SparsityMode.GLOBAL, "global", "Global", "GLOBAL"):
        spec = SparsitySpec(16, 1, mode)
        assert spec.mode is SparsityMode.GLOBAL and spec == SparsitySpec(16, 1, "global")
        with pytest.raises(NoSolution):
            recover(SENSING_7X16, 2, y, spec, side)
    for mode in (SparsityMode.BLOCKWISE, "blockwise", "BLOCKWISE"):
        spec = SparsitySpec(16, 1, mode)
        assert spec.mode is SparsityMode.BLOCKWISE
        assert np.allclose(recover(SENSING_7X16, 2, y, spec, side), x, rtol=0, atol=1e-9)


@pytest.mark.parametrize("mode", ["nonsense", None, "", 1, SparsityMode])
def test_an_unknown_sparsity_mode_is_a_bad_shape(mode):
    with pytest.raises(BadShape, match="unknown sparsity mode"):
        SparsitySpec(16, 2, mode)


def test_global_recovery_allocates_no_lifted_matrix(phi):
    # I_256 (x) A is 1792 x 4096 floats, about 59 MB
    s = 256
    x = place_block_sparse(16 * s, [16 * 100 + 3], [2.0])
    y = compress(phi, x, Side.RIGHT)
    spec = SparsitySpec(16, 1, SparsityMode.GLOBAL)
    assert _traced_peak(lambda: recover(phi, s, y, spec, Side.RIGHT)) < 1_000_000
    assert np.allclose(recover(phi, s, y, spec, Side.RIGHT), x, atol=1e-8)


@pytest.mark.parametrize("side", SIDES)
def test_support_sweep_memory_is_bounded_by_the_fit_chunk(phi, side):
    # k = 2 is above the atom's coherence bound, so the oracle sweeps all
    # 136 supports against the 256 blocks; fitting them in one stack would
    # hold about 4.7 MB, and _FIT_CHUNK keeps each chunk near 0.13 MB
    s = 256
    assert not _certified(_atom(phi), 2, pipeline.RESIDUAL_TOL)
    xs = np.zeros((16, s))
    xs[np.arange(s) % 16, np.arange(s)] = 2.0
    x = unblocks(xs, side)
    y = compress(phi, x, side)
    spec = SparsitySpec(16, 2)
    assert _traced_peak(lambda: recover(phi, s, y, spec, side)) < 1_000_000
    assert np.array_equal(recover(phi, s, y, spec, side), x)


# --- Gram-block fits -------------------------------------------------------------------

_ATOM_KINDS = ("gaussian", "column-scaled", "near-duplicate", "duplicate-column", "zero-column")


def _ill_conditioned_atom(rng, kind, m, n):
    """A Gaussian atom, bent so that some supports fail the determinant screen."""
    a = rng.standard_normal((m, n))
    i, j = rng.choice(n, 2, replace=False)
    if kind == "column-scaled":
        a *= 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    elif kind == "near-duplicate":
        a[:, j] = a[:, i] + 10.0 ** rng.uniform(-14.0, -7.0) * rng.standard_normal(m)
    elif kind == "duplicate-column":
        a[:, j] = a[:, i]
    elif kind == "zero-column":
        a[:, j] = 0.0
    return a


_LSTSQ = np.linalg.lstsq


def _column_normalised_lstsq(a, b, rcond=None):
    """np.linalg.lstsq on the unit-norm columns of a, coefficients scaled back.

    Plain lstsq moves the residual by about eps * |a| * |z|, so it misjudges
    supports that mix columns of norm 1e-6 and 1e6; the fit on unit columns
    is as insensitive to column scale as the Gram fits it checks.
    """
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    coef, *rest = _LSTSQ(a / norms, b, rcond=rcond)
    return (coef.T / norms).T, *rest


def lstsq_reference(a, s, y, spec, side, method):
    """Recovery from one lstsq per support (or per pursuit step), block by block."""
    k = spec.per_block_k
    if spec.mode is SparsityMode.GLOBAL:
        return kron_global_recover(a, s, y, k, side, method)
    if method == "oracle":
        return reference_recover(a, s, y, k, side)
    return unblocks(reference_omp(a, blocks(y, s, side), k), side)


def _gram_fit_case(seed):
    """A recovery problem whose supports fail the determinant screen or not.

    Column-scaled atoms keep the normal equations; near-duplicate,
    duplicate and zero columns send supports to the SVD.  Blockwise and
    global sparsity, and in one case in seven noise below the tolerance.
    Each planted nonzero contributes O(1) to y, whatever its column's
    scale, with distinct magnitudes so that pursuit scores do not tie.
    Returns the generator, which the caller may draw on further, with
    the kind, the atom, its column norms (zero read as one) and the
    arguments of `recover`.
    """
    rng = np.random.default_rng(seed)
    kind = _ATOM_KINDS[seed % len(_ATOM_KINDS)]
    m, n, s = int(rng.integers(2, 7)), int(rng.integers(3, 9)), int(rng.integers(1, 5))
    a = _ill_conditioned_atom(rng, kind, m, n)
    k = int(rng.integers(0, 4))
    side = SIDES[int(rng.integers(2))]
    mode = SparsityMode.GLOBAL if rng.integers(5) == 0 else SparsityMode.BLOCKWISE
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    xs = np.zeros((n, s))
    for b in range(s):
        sup = rng.choice(n, size=int(rng.integers(0, min(k, n) + 1)), replace=False)
        xs[sup, b] = rng.choice([-2.0, -1.0, 1.5, 3.0], size=sup.size, replace=False) / norms[sup]
    if mode is SparsityMode.GLOBAL:
        xs[:, 1:] *= rng.integers(2)
    y = compress(a, unblocks(xs, side), side)
    if rng.integers(7) == 0:
        y = y + 1e-10 * rng.standard_normal(y.size)
    return rng, kind, a, norms, s, y, SparsitySpec(n, k, mode), side


@pytest.mark.parametrize("method", ["oracle", "omp"])
@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=19_999))
@example(1476)  # column-scaled: pursuit refits on raw columns disagree with the reference
def test_gram_fits_match_the_lstsq_reference(method, seed):
    rng, kind, a, norms, s, y, spec, side = _gram_fit_case(seed)

    def reference(y):
        with pytest.MonkeyPatch.context() as mp:
            if kind == "column-scaled":
                mp.setattr(np.linalg, "lstsq", _column_normalised_lstsq)
            return _outcome(lstsq_reference, a, s, y, spec, side, method)

    expected = reference(y)
    got = _outcome(recover, a, s, y, spec, side, method=method)
    if isinstance(expected, type) or isinstance(got, type):
        same = got is expected
    else:
        weight = unblocks(np.repeat(norms[:, None], s, axis=1), side)
        # near-duplicate columns fix their coefficients only to about eps / 1e-7
        same = np.allclose(got * weight, expected * weight, rtol=1e-6, atol=1e-9)
    if same:
        return
    if method == "omp":
        # two columns parallel up to rounding tie in every pursuit score, and
        # the batched and the per-column products may break the tie apart
        cosines = np.abs(a.T @ a) / np.outer(norms, norms)
        np.fill_diagonal(cosines, 0.0)
        assert cosines.max() > 1.0 - 1e-12
        if not isinstance(got, type):
            resid = blocks(compress(a, got, side) - y, s, side)
            assert np.linalg.norm(resid, axis=0).max() < 1e-8
        return
    # Near-duplicate columns fit a superset of the solution with a coefficient
    # of about eps / noise along their difference, so whether that fit is a
    # rival can turn on rounding alone.  Then perturbing y by a few ulps
    # changes the outcome of the reference or of recover.
    assert kind == "near-duplicate"

    def shape(outcome):  # an error type, or ndarray for a solution
        return outcome if isinstance(outcome, type) else np.ndarray

    flipped = False
    for _ in range(8):
        yp = y * (1.0 + 4.0 * np.finfo(float).eps * rng.standard_normal(y.size))
        flipped |= shape(reference(yp)) is not shape(expected)
        flipped |= shape(_outcome(recover, a, s, yp, spec, side)) is not shape(got)
    assert flipped


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("method", ["oracle", "omp"])
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(132)  # columns scaled 1e-6..3e5: a refit on raw columns misses the tolerance
def test_recovery_ignores_column_scale(side, method, seed):
    # recover(A D, y) = D^-1 recover(A, y), or both raise the same error,
    # for D positive diagonal in 1e-6..1e6.  Gaussian atoms, one column in
    # four cases zero, blockwise and global sparsity, y exactly k-sparse in
    # A or (one case in four) random, so solutions, NoSolution and
    # NotUnique all occur.  Noise-free: with noise, superset fits differ by
    # noise / D in the coordinates of A D, which `_SAME_SOLUTION_ATOL` reads
    # absolutely.
    rng = np.random.default_rng(seed)
    m, n, s = int(rng.integers(2, 6)), int(rng.integers(3, 8)), int(rng.integers(1, 4))
    a = rng.standard_normal((m, n))
    if rng.integers(4) == 0:
        a[:, rng.integers(n)] = 0.0
    d = 10.0 ** rng.uniform(-6.0, 6.0, n)
    k = int(rng.integers(0, 4))
    mode = SparsityMode.GLOBAL if rng.integers(3) == 0 else SparsityMode.BLOCKWISE
    xs = np.zeros((n, s))
    for b in range(s):
        sup = rng.choice(n, size=int(rng.integers(0, min(k, n) + 1)), replace=False)
        xs[sup, b] = rng.choice([-2.0, -1.0, 1.5, 3.0], size=sup.size, replace=False)
    y = compress(a, unblocks(xs, side), side)
    if rng.integers(4) == 0:
        y = rng.standard_normal(y.size)
    spec = SparsitySpec(n, k, mode)
    weight = unblocks(np.repeat(d[:, None], s, axis=1), side)

    def outcome(atom):
        try:
            return recover(atom, s, y, spec, side, method=method)
        except (NoSolution, NotUnique) as exc:
            return type(exc), str(exc)

    expected, got = outcome(a), outcome(a * d)
    solved = not isinstance(expected, tuple)
    assert solved is not isinstance(got, tuple)
    if solved:
        assert np.allclose(got * weight, expected, rtol=1e-9, atol=1e-9)
    else:
        assert got == expected


def _unit(a):
    """The columns of a scaled to unit norm, zero columns left zero, as `_fit` takes them."""
    norms = np.linalg.norm(a, axis=0)
    return a / np.where(norms == 0.0, 1.0, norms)


def test_rank_deficient_support_gets_the_minimum_norm_fit():
    # columns 0 and 1 coincide, column 3 doubles them and column 4 is zero:
    # every support below but (0, 2) is rank one and fails the screen
    a = _unit(np.array([[1.0, 1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0],
                        [1.0, 1.0, 0.0, 2.0, 0.0]]))
    ys = np.array([[2.0, 1.0], [0.0, 3.0], [2.0, 1.0]])
    idx = np.array([[0, 1], [0, 4], [1, 4], [0, 3], [1, 3], [0, 2]])
    coef, resid = _fit(a, a.T @ a, idx, (a.T @ ys)[idx], ys)
    for row, sup in enumerate(idx):
        cols = a[:, sup]
        want = np.linalg.lstsq(cols, ys, rcond=None)[0]  # the minimum-norm fit
        assert np.allclose(coef[row], want, rtol=0.0, atol=1e-12)
        assert np.allclose(resid[row], ys - cols @ want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("noise", [1e-7, 1e-6, 1e-5])
@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_near_duplicate_support_is_fitted_from_the_svd(noise, scale):
    # columns 0 and 1 differ by `noise` and both carry the solution: the
    # normalised Gram block has det ~ noise**2, below the screen, and the
    # normal equations would lose about eps / noise**2 of the coefficients.
    # Scaling the pair by 1e4 leaves that det alone but not det G_S.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5))
    a[:, 1] = a[:, 0] + noise * rng.standard_normal(4)
    x = np.array([3.0, -2.0, 0.0, 1.0, 0.0])
    a[:, :2] *= scale
    x[:2] /= scale
    xh = recover(a, 1, a @ x, SparsitySpec(5, 3), Side.LEFT)
    assert np.allclose(xh[:2] * scale, x[:2] * scale, rtol=0.0, atol=1e-7)
    assert np.allclose(xh[2:], x[2:], rtol=0.0, atol=1e-7)


def test_near_singular_fit_keeps_a_backward_stable_residual():
    # columns 0 and 1 differ by 1e-12: a y in their span fits to rounding,
    # while the pseudo-inverse formed before it meets y would leave about
    # eps * 1e12 * |y| of residual
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    a[:, 1] = a[:, 0] + 1e-12 * rng.standard_normal(4)
    a = _unit(a)
    ys = a[:, :2] @ rng.standard_normal((2, 3))
    idx = np.array([[0, 1]])
    _, resid = _fit(a, a.T @ a, idx, (a.T @ ys)[idx], ys)
    assert np.abs(resid).max() < 1e-12


@pytest.mark.parametrize("method", ["oracle", "omp"])
@pytest.mark.parametrize("kind", ["duplicate-column", "near-duplicate", "zero-column"])
def test_near_singular_fits_over_many_blocks_match_the_lstsq_reference(kind, method):
    # Column 4 bends column 1: a copy, a copy plus 0.05 v, or zero.  v is
    # orthogonal to every other column, so for 3 a_1 - 2 a_4 pursuit picks
    # column 1, is left a residual along v and picks column 4 next, whose
    # Gram block with column 1 has determinant about 1e-3.  The sweep meets
    # a copy or a zero column in every support holding it.  With 32 blocks
    # each such sweep support is refitted once with 32 right-hand sides.
    rng = np.random.default_rng(0)
    m, n, s, k, i, j = 8, 7, 32, 2, 1, 4
    a = rng.standard_normal((m, n))
    if kind == "duplicate-column":
        a[:, j] = a[:, i]
    elif kind == "near-duplicate":
        a[:, j] = a[:, i] + 0.05 * np.linalg.svd(np.delete(a, j, axis=1))[0][:, -1]
    else:
        a[:, j] = 0.0
    # a copy would make every fit on columns 1 or 4 a rival
    free = np.arange(n) if kind == "near-duplicate" else np.setdiff1d(np.arange(n), [i, j])
    xs = np.zeros((n, s))
    for b in range(s):
        if kind == "near-duplicate" and b % 3 == 1:
            xs[[i, j], b] = 3.0, -2.0
        else:
            sup = rng.choice(free, size=b % 3, replace=False)
            xs[sup, b] = [3.0, -1.0][:sup.size]
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    spec = SparsitySpec(n, k)
    fallbacks = []

    def counted_lstsq(*args, **kwargs):
        fallbacks.append(args[1].shape)
        return _LSTSQ(*args, **kwargs)

    for side in SIDES:
        x = unblocks(xs, side)
        y = compress(a, x, side)
        fallbacks.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "lstsq", counted_lstsq)
            got = recover(a, s, y, spec, side, method=method)
        if method == "oracle":  # one refit per support, every block a column
            assert fallbacks and all(shape == (m, s) for shape in fallbacks)
        elif kind == "near-duplicate":  # one refit per block that picks the pair
            assert len(fallbacks) == len(range(1, s, 3))
        expected = lstsq_reference(a, s, y, spec, side, method)
        weight = unblocks(np.repeat(norms[:, None], s, axis=1), side)
        assert np.allclose(got * weight, expected * weight, rtol=0.0, atol=1e-9)
        assert np.allclose(got, x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("method", ["oracle", "omp"])
def test_spark_six_design_fits_every_support_without_an_svd(phi30, monkeypatch, method):
    # coherence 1/5: every normalised Gram block of at most 2 columns has
    # determinant >= 1 - 1/25, far above the screen; pursuit refits its
    # picks from the same Gram blocks
    def refuse(*args, **kwargs):
        raise AssertionError("a support fit fell back to an SVD")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    spec = SparsitySpec(30, 2)
    for side in SIDES:
        x = place_block_sparse(90, [3, 17, 40, 88], [2.0, -1.0, 3.0, 1.0])
        y = compress(phi30, x, side)
        assert np.allclose(recover(phi30, 3, y, spec, side, method=method), x, atol=1e-8)
    x = place_block_sparse(60, [5, 44], [2.0, -1.0])
    y = compress(phi30, x, Side.LEFT)
    global_spec = SparsitySpec(30, 2, SparsityMode.GLOBAL)
    assert np.allclose(recover(phi30, 2, y, global_spec, Side.LEFT, method=method), x, atol=1e-8)


# --- certified pursuit ------------------------------------------------------------------

def test_certified_oracle_enumerates_no_support(phi30, monkeypatch):
    # coherence 1/5 certifies k = 2, so the oracle answers by pursuit on
    # both sides and under GLOBAL; k = 3 is outside the bound and sweeps
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle enumerated supports")

    monkeypatch.setattr(pipeline, "_subsets", refuse)
    x = place_block_sparse(90, [3, 17, 40, 88], [2.0, -1.0, 3.0, 1.0])
    for side in SIDES:
        y = compress(phi30, x, side)
        assert np.allclose(recover(phi30, 3, y, SparsitySpec(30, 2), side), x, atol=1e-8)
        with pytest.raises(AssertionError, match="enumerated"):
            recover(phi30, 3, y, SparsitySpec(30, 3), side)
    x = place_block_sparse(60, [5, 44], [2.0, -1.0])
    y = compress(phi30, x, Side.RIGHT)
    global_spec = SparsitySpec(30, 2, SparsityMode.GLOBAL)
    assert np.allclose(recover(phi30, 2, y, global_spec, Side.RIGHT), x, atol=1e-8)


def test_rival_guard_holds_up_to_its_tolerance_edge():
    # aocm(7): coherence 1/7 and column norms sqrt(7).  At k = 3 the
    # difference of two fits has up to 6 nonzeros, sigma^2 = 1 - 5/7, and
    # the guard holds for tolerances up to ATOL * sigma * sqrt(7) / 2
    atom = _atom(aocm(7))
    edge = _SAME_SOLUTION_ATOL * np.sqrt(2.0 / 7.0) * np.sqrt(7.0) / 2.0
    assert _certified(atom, 3, 0.99 * edge)
    assert not _certified(atom, 3, 1.01 * edge)
    assert not _certified(atom, 4, 0.0)  # outside the coherence bound


def test_certified_pursuit_over_the_global_budget_defers_to_the_sweep():
    # block 0 is a measurement at the scale of the tolerance: a pair of
    # columns fits it, but pursuit's greedy pair does not, and it takes a
    # third pick.  With block 1's nonzero pursuit spends 4 > k = 3, so the
    # sweep decides, and its sparsest fits, 2 + 1, meet the budget
    a = aocm(7)
    y0 = np.array([-1.24601326e-08, -6.51355041e-09, 1.69554696e-09, -5.10240389e-09,
                   3.98257010e-10, 6.87245056e-09, 6.08520821e-09])
    x1 = np.zeros(8)
    x1[5] = 2.0
    y = np.concatenate([y0, a @ x1])  # RIGHT: block b is the b-th run of rows
    spec = SparsitySpec(8, 3, SparsityMode.GLOBAL)
    xh = recover(a, 2, y, spec, Side.RIGHT)
    assert np.count_nonzero(xh[:8]) == 2 and np.allclose(xh[8:], x1, rtol=0.0, atol=1e-12)
    assert np.linalg.norm(a @ xh[:8] - y0) < 1e-8
    with pytest.raises(NoSolution, match="size <= 2 fits block 0"):
        recover(a, 2, y, spec, Side.RIGHT, method="omp")


_PURSUIT_KINDS = _ATOM_KINDS + ("integer", "spark-2", "spark-3", "design")


def _pursuit_case(seed):
    """A recovery problem on one of the atom kinds, certified or not.

    The kinds of `_ill_conditioned_atom`; integer atoms, with a scaled
    copy (spark 2) or a column sum (spark 3) in two of them; and the 7x8
    design aocm(7), coherence 1/7, with its columns permuted and signed,
    which certifies k up to 3.  Up to k nonzeros per block (or in all
    under GLOBAL), each adding O(1) to y; in one case in eight 1e-10 of
    noise, and in another a random y.
    """
    rng = np.random.default_rng(seed)
    kind = _PURSUIT_KINDS[seed % len(_PURSUIT_KINDS)]
    m, n, s = int(rng.integers(2, 7)), int(rng.integers(3, 9)), int(rng.integers(1, 5))
    if kind in _ATOM_KINDS:
        a = _ill_conditioned_atom(rng, kind, m, n)
    elif kind == "design":
        m, n = 7, 8
        a = aocm(7)[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
    else:
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        i, j, l = rng.choice(n, 3, replace=False)
        if kind == "spark-2":
            a[:, j] = rng.choice([-2.0, 1.0, 2.0]) * a[:, i]
        elif kind == "spark-3":
            a[:, l] = a[:, i] + a[:, j]
    k = int(rng.integers(0, 4))
    side = SIDES[int(rng.integers(2))]
    mode = SparsityMode.GLOBAL if rng.integers(3) == 0 else SparsityMode.BLOCKWISE
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    xs = np.zeros((n, s))
    if mode is SparsityMode.GLOBAL:
        for _ in range(int(rng.integers(0, k + 1))):
            j = rng.integers(n)
            xs[j, rng.integers(s)] = rng.choice([-2.0, -1.0, 1.5, 3.0]) / norms[j]
    else:
        for b in range(s):
            sup = rng.choice(n, size=int(rng.integers(0, min(k, n) + 1)), replace=False)
            xs[sup, b] = rng.choice([-2.0, -1.0, 1.5, 3.0], size=sup.size, replace=False) / norms[sup]
    y = compress(a, unblocks(xs, side), side)
    case = int(rng.integers(8))
    if case == 0:
        y = y + 1e-10 * rng.standard_normal(y.size)
    elif case == 1:
        y = rng.standard_normal(y.size)
    return a, s, y, SparsitySpec(n, k, mode), side


def _exact(solve, *args, **kwargs):
    """The solution, or the type and message of the recovery error raised."""
    try:
        return solve(*args, **kwargs)
    except (NoSolution, NotUnique) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@example(3511)  # column-scaled, noise alone in block 0: the guard hands NotUnique to the sweep
def test_certified_oracle_answers_as_the_sweep(seed):
    # the oracle with its certificate forced off is the sweep alone; both
    # raise the same error with the same message, or agree in the
    # coordinates of the unit-norm columns
    a, s, y, spec, side = _pursuit_case(seed)
    got = _exact(recover, a, s, y, spec, side)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_certified", lambda *args: False)
        expected = _exact(recover, a, s, y, spec, side)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected
    else:
        norms = np.linalg.norm(a, axis=0)
        weight = unblocks(np.repeat(norms[:, None], s, axis=1), side)
        assert np.allclose(got * weight, expected * weight, rtol=0.0, atol=1e-9)


def _bench_plant(rng, s, n, k, side, tie):
    """A dim s*n signal planted by the rule of the recovery benchmarks.

    Block b of the unknown holds (b + s) mod (k + 1) nonzeros of +-1..9.
    With `tie` every nonzero has magnitude 4, so on the sign-valued atoms
    the two true columns of a block tie in pursuit's first scores.
    """
    xs = np.zeros((n, s))
    for b in range(s):
        rows = rng.choice(n, size=(b + s) % (k + 1), replace=False)
        mags = np.full(rows.size, 4.0) if tie else rng.integers(1, 10, rows.size)
        xs[rows, b] = rng.choice([-1.0, 1.0], rows.size) * mags
    return unblocks(xs, side)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("s", [1, 2, 3, 256])
@pytest.mark.parametrize("atom", ["7x16", "15x30"])
def test_pursuit_returns_the_sweeps_answer_on_the_benchmark_atoms(phi, phi30, atom, s, side):
    # both atoms are certified at the benchmarks' sparsity (coherence 1/3 at
    # k = 1, 1/5 at k = 2), so the sweep's answer, with the certificate
    # forced off, is the unique one, and both methods must return it:
    # blockwise, with exact ties, and under a GLOBAL budget spread over blocks
    a, k = (phi, 1) if atom == "7x16" else (phi30, 2)
    n = a.shape[1]
    assert _certified(_atom(a), k, pipeline.RESIDUAL_TOL)
    rng = np.random.default_rng(s)
    cases = [(SparsitySpec(n, k), _bench_plant(rng, s, n, k, side, tie)) for tie in (0, 0, 1, 1)]
    x = np.zeros(s * n)
    x[rng.choice(s * n, size=k, replace=False)] = rng.choice([-4.0, 4.0, 7.0], size=k)
    cases.append((SparsitySpec(n, k, SparsityMode.GLOBAL), x))
    for spec, x in cases:
        y = compress(a, x, side)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_certified", lambda *args: False)
            expected = recover(a, s, y, spec, side)
        assert np.allclose(expected, x, rtol=0.0, atol=1e-9)
        for method in ("oracle", "omp"):
            got = recover(a, s, y, spec, side, method=method)
            assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


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


def test_uniqueness_guarantee_decides_from_coherence_first():
    # the 43x64 alpha=8 design has coherence 1/7, which certifies k = 3
    # without enumerating a subset; k = 4 is outside the bound, and spark
    # settles it, also without enumerating: 1 + 1/mu = 8 and eight columns
    # sharing one row support are dependent, so spark = 8 = 2k
    a = horizontal_expand(vertical_expand(incidence_matrix(8)), aocm(7))
    assert uniqueness_guarantee(a, 3, budget=1)
    assert not uniqueness_guarantee(a, 4, budget=1)
    # the 36x72 alpha=9 star design leaves spark's bounds 9 and 37 apart:
    # k = 5 (coherence 1/8 certifies k <= 4) must enumerate, over budget
    star9 = horizontal_expand(vertical_expand_star(9), aocm(8))
    assert uniqueness_guarantee(star9, 4, budget=1)
    with pytest.raises(BudgetExceeded):
        uniqueness_guarantee(star9, 5, budget=1)


# --- the atom memo -------------------------------------------------------------------

def _clear_memo():
    pipeline._atom_of.cache_clear()


def _same_exactly(got, expected) -> bool:
    if isinstance(got, tuple) or isinstance(expected, tuple):
        return got == expected
    return got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("side", SIDES)
def test_memo_holds_no_caller_buffer(phi30, side):
    # phi30 is irreducible, so its reduction is the matrix itself: a memo
    # that kept the caller's array would read the overwrite below
    _clear_memo()
    x = place_block_sparse(90, [3, 40, 88], [2.0, -1.0, 3.0])
    y = compress(phi30, x, side)
    spec = SparsitySpec(30, 2)
    a = phi30.copy()
    first = (recover_signal(a, y, 90, 2, side), recover(a, 3, y, spec, side),
             uniqueness_guarantee(a, 2))
    a[:] = np.arange(a.size, dtype=float).reshape(a.shape)
    fresh = phi30.copy()
    again = (recover_signal(fresh, y, 90, 2, side), recover(fresh, 3, y, spec, side),
             uniqueness_guarantee(fresh, 2))
    assert np.allclose(first[0], x, rtol=0.0, atol=1e-12)
    assert all(np.array_equal(f, g) for f, g in zip(first[:2], again[:2]))
    assert first[2] is again[2] is True


def test_short_lived_atoms_answer_as_cold_ones():
    # 200 atoms made and dropped one after another, so that their ids are
    # reused: every answer is the one a cold memo gives
    rng = np.random.default_rng(7)
    spec = SparsitySpec(6, 1)
    seen = []
    for _ in range(200):
        a = rng.integers(-3, 4, size=(4, 6)).astype(float)
        x = np.zeros(12)
        x[rng.integers(12)] = 2.0
        y = compress(a, x, Side.LEFT)
        seen.append((a.copy(), y, _exact(recover, a, 2, y, spec, Side.LEFT),
                     _exact(recover_signal, a, y, 12, 1, Side.LEFT)))
        del a
    for a, y, got, got_signal in seen:
        _clear_memo()
        assert _same_exactly(got, _exact(recover, a, 2, y, spec, Side.LEFT))
        _clear_memo()
        assert _same_exactly(got_signal, _exact(recover_signal, a, y, 12, 1, Side.LEFT))


def test_memo_keeps_at_most_its_size():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.standard_normal((3, 4))
        recover_signal(a, compress(a, np.eye(4)[1], Side.RIGHT), 4, 1, Side.RIGHT)
    info = pipeline._atom_of.cache_info()
    assert info.maxsize == pipeline._MEMO_SIZE and info.currsize <= pipeline._MEMO_SIZE


def test_equal_values_in_any_layout_give_identical_answers(phi30):
    # integer entries, so the int and float32 copies hold the same values
    wide = np.zeros((15, 60))
    wide[:, ::2] = phi30
    layouts = [np.ascontiguousarray(phi30), np.asfortranarray(phi30), wide[:, ::2],
               phi30.astype(int), phi30.astype(np.float32), phi30.tolist()]
    x = place_block_sparse(60, [5, 44, 51], [2.0, -1.0, 3.0])
    spec = SparsitySpec(30, 2)
    for side in SIDES:
        y = compress(phi30, x, side)
        for method in ("oracle", "omp"):
            _clear_memo()
            expected = (recover(phi30, 2, y, spec, side, method),
                        recover_signal(phi30, y, 60, 2, side, method))
            for a in layouts:
                _clear_memo()
                got = (recover(a, 2, y, spec, side, method),
                       recover_signal(a, y, 60, 2, side, method))
                assert all(_same_exactly(g, e) for g, e in zip(got, expected))
                assert uniqueness_guarantee(a, 2)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("lifts", [1, 2])
def test_plan_atom_cannot_change_a_later_call(phi30, side, lifts):
    a = lift_matrix(phi30, lifts, side)
    x = place_block_sparse(60, [5, 44], [2.0, -1.0])
    y = compress(a, x, side)
    atom = plan(a, 60, side).atom
    with pytest.raises(ValueError, match="read-only"):
        atom[0, 0] = 5.0
    assert np.array_equal(plan(a, 60, side).atom, phi30)
    assert np.allclose(recover_signal(a, y, 60, 1, side), x, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_recovery_keeps_no_copy_of_a_lifted_matrix(phi, side):
    # the 448x1024 lift is 3.5 MiB; only the 7x16 atom's geometry stays
    a = lift_matrix(phi, 64, side)
    xs = np.zeros((16, 64))
    xs[np.arange(64) % 16, np.arange(64)] = 2.0
    x = unblocks(xs, side)
    y = compress(a, x, side)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert np.array_equal(recover_signal(a, y, 1024, 1, side), x)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 0.1 * 2**20


def test_the_memo_reads_the_coherence_of_metrics():
    # orthogonal atoms first: there the unit diagonal of G reads 1 +- ulps
    rng = np.random.default_rng(19)
    gaussian = [rng.standard_normal((m, n)) for m, n in [(3, 5), (4, 9), (6, 6), (7, 16)]]
    integer = [rng.integers(1, 6, size=(m, n)) * rng.choice([-1, 1], size=(m, n))
               for m, n in [(3, 5), (4, 9), (5, 12)]]
    for a in map(as_matrix, [ocm(8), np.eye(5), aocm(7), SENSING_7X16, *gaussian, *integer]):
        atom = _atom(a)
        assert atom.mu.hex() == metrics.coherence(a).hex()
        bound = max_sparsity(a)
        for k in range(a.shape[1] + 2):
            assert _certified(atom, k, 0.0) == (k <= bound)


@pytest.mark.parametrize("generator", ["gram-fit", "pursuit"])
def test_warm_memo_answers_bit_for_bit_as_a_cold_one(generator):
    # each case on both methods and both sides: once from a cleared memo,
    # then again from the entry that call left
    for seed in range(500):
        if generator == "gram-fit":
            _, _, a, _, s, y, spec, _ = _gram_fit_case(seed)
        else:
            a, s, y, spec, _ = _pursuit_case(seed)
        for side in SIDES:
            for method in ("oracle", "omp"):
                _clear_memo()
                cold = _exact(recover, a, s, y, spec, side, method)
                assert _same_exactly(_exact(recover, a, s, y, spec, side, method), cold)


@pytest.mark.parametrize("side", SIDES)
def test_a_side_name_means_its_member(phi30, side):
    x = place_block_sparse(90, [3, 40, 88], [2.0, -1.0, 3.0])
    y = compress(phi30, x, side.value)
    assert np.array_equal(y, compress(phi30, x, side))
    spec = SparsitySpec(30, 2)
    assert np.array_equal(recover(phi30, 3, y, spec, side.value), recover(phi30, 3, y, spec, side))
    xh = recover_signal(phi30, y, 90, 2, side.value.upper())
    assert np.array_equal(xh, recover_signal(phi30, y, 90, 2, side))
    assert np.allclose(xh, x, rtol=0.0, atol=1e-12)
    assert plan(phi30, 45, side.value).side is side

"""Dimension-free compression and exact desk-scale sparse recovery.

Compression is just the matrix-vector semi-tensor product: an m0-by-n0
atom compresses a signal of any dimension p.  When n0 | p the model is
the familiar identity-lifted product; otherwise both the matrix and the
signal are lifted to t = lcm(n0, p) and the effective unknown is the
replicated signal, so that case reduces to the divisible one.

Recovery is the l0 oracle: the lifted system splits into s independent
copies of the atom, one per block of y and of x (`stp.blocks` sets out
the block layout of both conventions).  One exhaustive sweep over
supports of at most k indices fits each support once by least squares
against all s blocks.
With spark(atom) > 2k the accepted solution is provably the only
blockwise-k-sparse one.  The greedy matching-pursuit path batches the
same way: each step picks and refits for all blocks at once.  Blockwise
recovery builds no lifted or swap matrix; those stay in `stp` as
reference constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, islice
from math import lcm

import numpy as np

from .errors import BadShape, NoSolution, NotUnique
from .metrics import DEFAULT_BUDGET, spark
from .signal_space import reduce_matrix
from .stp import Side, as_matrix, as_signal, blocks, lift_matrix, mv_stp, unblocks, unlift

__all__ = [
    "SparsityMode",
    "SparsitySpec",
    "CompressionPlan",
    "plan",
    "compress",
    "recover",
    "recover_signal",
    "uniqueness_guarantee",
]

# A support is accepted when its least-squares residual falls below this;
# with O(1) integer-ish data the gap to wrong supports is many orders.
RESIDUAL_TOL = 1e-8

# Two accepted solutions closer than this are the same solution reached
# through different supports (zero-padded coefficients), not a violation
# of uniqueness.
_SAME_SOLUTION_ATOL = 1e-6

# The support sweep fits a chunk of supports at once; a chunk's stacked
# arrays hold about this many floats, whatever the lift factor.
_FIT_CHUNK = 1 << 14


class SparsityMode(Enum):
    GLOBAL = "global"  # at most k nonzeros in the whole vector
    BLOCKWISE = "blockwise"  # at most k nonzeros per length-n block


@dataclass(frozen=True)
class SparsitySpec:
    """Block length n and per-block bound k."""

    block_len: int
    per_block_k: int
    mode: SparsityMode = SparsityMode.BLOCKWISE

    def __post_init__(self):
        if not 0 <= self.per_block_k <= self.block_len:
            raise BadShape(
                f"per-block sparsity {self.per_block_k} out of range for block {self.block_len}"
            )


@dataclass(frozen=True)
class CompressionPlan:
    """Shape bookkeeping for compressing a p-dimensional signal by an atom.

    t = lcm(n0, p) = s*n0 = r*p.  r == 1 is the divisible case; r > 1
    means the effective unknown is the signal replicated r times.
    """

    atom: np.ndarray = field(repr=False)
    side: Side
    signal_dim: int
    s: int
    r: int
    t: int

    @property
    def output_dim(self) -> int:
        return int(self.atom.shape[0]) * self.s


def plan(a, p: int, side: Side = Side.LEFT) -> CompressionPlan:
    """Reduce `a` to its atom and work out the lift factors for dim-p input."""
    if p < 1:
        raise BadShape("signal dimension must be positive")
    atom, _ = reduce_matrix(a, side)
    t = lcm(atom.shape[1], p)
    return CompressionPlan(atom, side, p, t // atom.shape[1], t // p, t)


def compress(a, x, side: Side = Side.LEFT) -> np.ndarray:
    """Compress a signal of arbitrary dimension: the semi-tensor product a*x."""
    return mv_stp(a, x, side)


def _fit(subs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of ys against a stack of column subsets.

    `subs` is (..., m, size) and `ys` broadcasts against (..., m, cols).
    Each fit is the pseudo-inverse with np.linalg.lstsq's default cutoff,
    so a rank-deficient subset gets the minimum-norm solution.  Returns
    the coefficients (..., size, cols) and the residuals (..., m, cols).
    """
    rcond = np.finfo(float).eps * max(subs.shape[-2:])
    coef = np.linalg.pinv(subs, rcond=rcond) @ ys
    return coef, ys - subs @ coef


def _omp(a: np.ndarray, ys: np.ndarray, k: int, residual_tol: float) -> np.ndarray:
    """Orthogonal matching pursuit with at most k picks per column, all columns at once.

    Each step scores every column still above the tolerance against the
    atom, picks its most correlated unchosen atom column, and refits all
    of them together; a column stops once its residual beats the
    tolerance.  Stopped columns leave the batch, so the supports of the
    columns still in it always have the same size.  No uniqueness
    certificate; use the oracle when one is needed.  The lowest-index
    column still above the tolerance after k picks raises NoSolution.
    """
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0.0] = 1.0
    xs = np.zeros((a.shape[1], ys.shape[1]))
    live = np.flatnonzero(np.linalg.norm(ys, axis=0) >= residual_tol)
    support = np.zeros((live.size, 0), dtype=np.intp)
    targets = resid = ys[:, live].T  # (live, m)
    for _ in range(k):
        if not live.size:
            break
        scores = np.abs(resid @ a) / norms  # (live, n)
        np.put_along_axis(scores, support, -1.0, axis=1)
        support = np.column_stack([support, scores.argmax(axis=1)])
        subs = np.moveaxis(a[:, support], 1, 0)  # (live, m, size)
        coef, resid = _fit(subs, targets[:, :, None])
        coef, resid = coef[:, :, 0], resid[:, :, 0]
        done = np.linalg.norm(resid, axis=1) < residual_tol
        xs[support[done], live[done, None]] = coef[done]
        keep = ~done
        live, support, targets, resid = live[keep], support[keep], targets[keep], resid[keep]
    if live.size:
        raise NoSolution(
            f"matching pursuit residual stayed above {residual_tol:.1e} in block {live[0]}"
        )
    return xs


def _sweep(a: np.ndarray, ys: np.ndarray, k: int, residual_tol: float) -> np.ndarray:
    """Unique x_b with at most k nonzeros and a @ x_b ~= ys[:, b], by support search.

    Enumerates supports of size 0..k once for all columns: each support
    gets one least-squares fit (the pseudo-inverse, stacked over a chunk
    of supports) against every column, and a column accepts the fits
    whose residual beats `residual_tol`.  A column's solution is its
    first accepted fit; it is unique when every later accepted fit lies
    within _SAME_SOLUTION_ATOL of it (supersets of the true support refit
    the same vector).  The lowest-index column with no accepted fit
    raises NoSolution, with two distinct ones NotUnique.  Returns the
    n-by-cols solution matrix.
    """
    m, n = a.shape
    cols = ys.shape[1]
    xs = np.zeros((n, cols))
    found = np.linalg.norm(ys, axis=0) < residual_tol  # the empty support
    distinct = np.zeros(cols, dtype=bool)
    chunk = max(1, _FIT_CHUNK // (cols * max(m, n)))
    for size in range(1, k + 1):
        combos = combinations(range(n), size)
        while batch := list(islice(combos, chunk)):
            idx = np.array(batch)
            subs = np.moveaxis(a[:, idx], 1, 0)  # (chunk, m, size)
            coef, resid = _fit(subs, ys)  # (chunk, size, cols), (chunk, m, cols)
            resid = np.linalg.norm(resid, axis=1)  # (chunk, cols)
            hit_s, hit_b = np.nonzero(resid < residual_tol)  # ordered by support
            rows, fit = idx[hit_s], coef[hit_s, :, hit_b]  # (hits, size) each
            new_b, first = np.unique(hit_b, return_index=True)
            fresh = ~found[new_b]
            xs[rows[first[fresh]], new_b[fresh, None]] = fit[first[fresh]]
            found[new_b] = True
            # distance of every accepted fit to its column's solution
            diff = xs.T[hit_b]
            diff[np.arange(hit_b.size)[:, None], rows] -= fit
            distinct[hit_b[np.abs(diff).max(axis=1) > _SAME_SOLUTION_ATOL]] = True
    bad = np.flatnonzero(~found | distinct)
    if bad.size:
        b = int(bad[0])
        if not found[b]:
            raise NoSolution(f"no support of size <= {k} fits block {b} of the measurements")
        raise NotUnique(f"distinct sparse solutions fit block {b} of the measurements")
    return xs


def recover(a, s: int, y, spec: SparsitySpec, side: Side = Side.LEFT,
            residual_tol: float = RESIDUAL_TOL, method: str = "oracle") -> np.ndarray:
    """Exact sparse recovery from y = lift_s(a) @ x.

    The lifted system is s copies of the atom, Y = A X, where the columns
    of Y = blocks(y, s, side) and X = blocks(x, s, side) are the blocks
    of y and x (see `stp.blocks`).  All columns are solved together and
    x = unblocks(X, side).  Blockwise sparsity applies to the columns of X.

    ``method="oracle"`` (default) is the exhaustive support search with
    uniqueness detection; ``method="omp"`` is greedy orthogonal matching
    pursuit, one pick and one stacked refit per step for all blocks still
    above the tolerance, exact under the coherence bound but without a
    uniqueness certificate.  GLOBAL sparsity solves the block-diagonal
    system I_s (x) A as one column.
    """
    a = as_matrix(a)
    y = as_signal(y)
    m, n = a.shape
    if spec.block_len != n:
        raise BadShape(f"sparsity block length {spec.block_len} != matrix columns {n}")
    if y.size != m * s:
        raise BadShape(f"measurement dim {y.size} != rows*s = {m * s}")
    if method not in ("oracle", "omp"):
        raise BadShape(f"unknown recovery method {method!r}")
    solve = _sweep if method == "oracle" else _omp
    ys = blocks(y, s, side)
    if spec.mode is SparsityMode.GLOBAL:
        big = lift_matrix(a, s, Side.RIGHT)  # I_s (x) A: blocks are runs
        x = solve(big, unblocks(ys, Side.RIGHT)[:, None], spec.per_block_k, residual_tol)
        xs = blocks(x[:, 0], s, Side.RIGHT)
    else:
        xs = solve(a, ys, spec.per_block_k, residual_tol)
    return unblocks(xs, side)


def recover_signal(a, y, p: int, k: int, side: Side = Side.LEFT,
                   residual_tol: float = RESIDUAL_TOL, method: str = "oracle") -> np.ndarray:
    """Recover the original p-dimensional signal behind y = a * x.

    Plans the lift, recovers the (possibly replicated) unknown, and in
    the non-divisible case strips the replication: the lifted solution
    must be an r-fold lift (`stp.unlift`), otherwise it does not
    correspond to any p-dimensional signal and NoSolution is raised.
    """
    pl = plan(a, p, side)
    spec = SparsitySpec(int(pl.atom.shape[1]), k)
    xt = recover(pl.atom, pl.s, y, spec, side, residual_tol, method)
    if pl.r == 1:
        return xt
    x = unlift(xt, pl.r, side, residual_tol)
    if x is None:
        raise NoSolution(
            f"lifted solution is not {pl.r}-fold replicated; no dim-{p} signal matches"
        )
    return x


def uniqueness_guarantee(a, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff spark(atom) > 2k, certifying per-block uniqueness for every lift.

    Spark is invariant under both identity lifts, so the matrix is reduced
    on both sides and the smaller atom is enumerated.
    """
    atom = min((reduce_matrix(a, side)[0] for side in Side), key=np.size)
    return spark(atom, budget=budget) > 2 * k

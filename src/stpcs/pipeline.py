"""Exact desk-scale sparse recovery from dimension-free compression.

Compression is the matrix-vector semi-tensor product `stp.mv_stp`: an
m0-by-n0 atom compresses a signal of any dimension p.  When n0 | p the
model is the familiar identity-lifted product; otherwise both the
matrix and the signal are lifted to t = lcm(n0, p) and the effective
unknown is the replicated signal, so that case reduces to the divisible
one.  `recover_signal` works out those lift factors itself, from the
atom `signal_space.reduce_matrix` gives, on every call.

Recovery splits the lifted system into s independent copies of the
atom, one per block of y and of x (`stp.blocks` sets out the block
layout of both conventions), and solves all blocks at once.  The l0
oracle (the default) answers by certified pursuit inside the coherence
bound and by the support sweep outside it.  The sweep tries every
support of at most k indices, from the chunked subset generator of
spark and RIP (`metrics._subsets`), and fits each once by least squares
against all s blocks; with spark(atom) > 2k the accepted solution is
provably the only blockwise-k-sparse one.  Matching pursuit batches the
same way: each step picks and refits for all blocks at once.
``method="omp"`` is the uncertified greedy override: pursuit alone,
whatever the coherence.  GLOBAL sparsity, k nonzeros in all of x, is a
budget the blocks share, decided from the same per-block fits as
BLOCKWISE.  The core (`_recover`) takes k and the mode and makes every
budget decision itself (there is no separate budget helper): a block's
budget is k, or under GLOBAL what the other blocks' fits leave of it,
and certified pursuit meets a GLOBAL budget exactly when its fits spend
at most k nonzeros in all.  `recover_signal` validates its arguments
once and builds no spec.  Recovery builds no lifted or swap matrix;
those stay in `stp` as reference constructions.

Sweep and pursuit fit the unit-norm columns U of the atom and scale
the coefficients back, so column scale sways no decision.  None of what
recovery derives from the atom depends on the signal, so it is formed
once per distinct atom and kept in a memo (`_atom`; the package's other
memo is `signal_space`'s read plans of `basis.coordinates`): the
atom's column geometry (`metrics._geometry`), U, its column norms and
their zero-safe divisor, G = U^T U and the coherence mu that the
certificate reads, equal to `metrics.coherence` of the atom bit for bit.
The memo is keyed by the contents of the validated float64 atom, its
shape and bytes, never by identity, and keeps the _MEMO_SIZE atoms used
last: at most _MEMO_SIZE (mn + n^2 + 2n) floats for m-by-n atoms, plus
the keys (mn floats each).  Each entry is built from a read-only copy
of its key, and its arrays are read-only, so no caller's buffer is held
and no caller can change an entry.  Every input check still runs on
every call, and every decision on every call: the memo holds only what
the atom fixes, and answers are bit for bit those of a cold one.  Both
fit a support S from its Gram block (`_fit`): C = U^T Y is formed once
per call, and one batched solve of G_S z = C_S fits a chunk of
supports, or a step of pursuit.  A pursuit step costs the same fixed few numpy calls however
many blocks it serves: the scores (|C| itself at the first pick, one
product U^T R of the residuals after it), the pick, the fit and the
residuals; blocks that finish are written out and leave the batch, and
the rest carry their support into the next pick.  The first pick j_b of
block b is fitted in place, as z_b = C[j_b, b] / G[j_b, j_b] and
r_b = y_b - u_{j_b} z_b, without a gathered Gram block, a determinant
or views back.  That is `_fit`'s arithmetic for a one-column support
(a 1x1 block is its own determinant and its solve one division, and
the residual's one-term product is a broadcast in both), so a first
pick fits bit for bit as the sweep fits it.  Of the one-column supports
`_fit` screens out only a zero column, whose G[j, j] = 0 <= tau (every
other unit column has G[j, j] within rounding of 1), and lstsq refits
it to the minimum-norm coefficient 0 and the residual y_b.  A first
pick lands on a zero column only when that is column 0 and the block is
orthogonal to every column (all scores are 0, and the lowest index
wins), so C[j, b] = 0: dividing by max(G[j, j], tau) gives the same
coefficient 0 and residual y_b, and never evaluates 0/0.  Supports of
two or more columns, and every support of the sweep, are fitted by
`_fit`, the one fitting kernel; a first pick is never refitted alone.
Pursuit keeps the scores and C as (n, live) and the residuals as
(m, live) arrays, one column per block still in the batch, so that each
pick's max and lowest-index argmax, and each residual-norm test, reduce
across the rows of a C-contiguous array instead of along its short last
axis.
The residual y - U_S z is computed directly, not as
||y||^2 - C_S^T z, which cancels at RESIDUAL_TOL.  A support with
det G_S <= tau = 1e-2 (`_SOLVE_SCREEN`) is near-singular and refitted by
numpy's lstsq, one call per support with all of its blocks as columns.

The bound that fixes tau: G_S has unit diagonal, so trace G_S = k caps
every eigenvalue at k, det G_S > tau gives lambda_min > tau / k^(k-1),
and kappa < k^k / tau.  Rounding G and C (m terms per entry), amplified
by G_S^-1, moves the residual of an exactly fitting support by about
eps * m * kappa * ||y_b||: below 1e-11 ||y_b|| for k <= 3 and m <= 15,
far below RESIDUAL_TOL for the O(1)-to-O(100) blocks of the tests and
benchmarks.  It can only reject a true support, never accept a wrong
one: no z gets below the least-squares residual of its support.

The certificate (`_certified`).  Let mu be the coherence of U.  When no
column is zero and k < (1 + 1/mu)/2 (`metrics._sparsity_bound`), every
2k columns are independent, so a k-sparse solution is unique (Donoho &
Elad 2003, PNAS), and pursuit finds it in k picks (Tropp 2004, "Greed
is good").  The sweep, though, accepts every fit whose residual beats
the tolerance, and calls two accepted fits rivals when they differ by
more than _SAME_SOLUTION_ATOL in the caller's coordinates.  So the
certificate also asks for the rival guard

    2 tol / (sigma min_j ||a_j||) <= _SAME_SOLUTION_ATOL,
    sigma^2 = 1 - (min(2k, n) - 1) mu.

Proof that the oracle then answers as the sweep would.  Two accepted
fits z, z' of one block, in unit coordinates, differ by d = z - z' with
at most min(2k, n) nonzeros and ||U d|| <= ||y - U z|| + ||y - U z'|| <
2 tol.  The Gram block of the columns d uses has unit diagonal and
off-diagonal entries of at most mu, so by Gershgorin its eigenvalues
are at least sigma^2 and ||d|| < 2 tol / sigma.  Entry j of d in the
caller's coordinates is d_j / ||a_j||, at most 2 tol / (sigma min_j
||a_j||): the guard leaves the sweep no rival.  When pursuit fits every
block within the tolerance, the sweep, which tries pursuit's support
with the same kernel, fits every block with a support no larger, so it
also meets any GLOBAL budget pursuit meets, and its solution is within
that distance of pursuit's.  When pursuit stops short, or its fits
exceed the GLOBAL budget, the sweep runs and decides, so every error
comes from the sweep.  The guard is the price of the absolute rival
rule: it turns the certificate down for atoms with columns so short
that noise within the tolerance moves their coefficients by more than
_SAME_SOLUTION_ATOL, and those go to the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import lcm, sqrt

import numpy as np

from .errors import BadShape, NoSolution, NotUnique
from .metrics import DEFAULT_BUDGET, _Geometry, _geometry, _spark, _sparsity_bound, _subsets
from .signal_space import _class_atom, reduce_matrix
from .stp import Side, _choice, as_count, as_matrix, as_side, as_signal, blocks, unblocks, unlift

__all__ = [
    "SparsityMode",
    "SparsitySpec",
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

# A support is fitted from its normal equations when the determinant of
# its unit-diagonal Gram block exceeds this, and by np.linalg.lstsq
# otherwise; the module docstring derives the bound that fixes it.
_SOLVE_SCREEN = 1e-2

# How many distinct atoms `_atom` keeps.
_MEMO_SIZE = 8


class SparsityMode(Enum):
    GLOBAL = "global"  # at most k nonzeros in the whole vector
    BLOCKWISE = "blockwise"  # at most k nonzeros per length-n block


@dataclass(frozen=True)
class SparsitySpec:
    """Block length n and sparsity bound k.

    k bounds the nonzeros of each length-n block under BLOCKWISE and of
    the whole vector under GLOBAL.  The mode is read by the rule that
    reads a side (`stp._choice`): a member, or its name in any case;
    anything else raises BadShape naming both modes.
    """

    block_len: int
    per_block_k: int
    mode: SparsityMode = SparsityMode.BLOCKWISE

    def __post_init__(self):
        n = as_count(self.block_len, "block length", 1)
        if self.mode.__class__ is not SparsityMode:
            name = _choice(self.mode, ("global", "blockwise"), "sparsity mode")
            object.__setattr__(self, "mode", SparsityMode(name))
        if self.mode is SparsityMode.GLOBAL:
            as_count(self.per_block_k, "sparsity", 0)
        else:
            _per_block_k(self.per_block_k, n)


def _per_block_k(k, n: int) -> int:
    """`k` as a count of nonzeros in a block of n entries, else BadShape."""
    k = as_count(k, "per-block sparsity", 0)
    if k > n:
        raise BadShape(f"per-block sparsity {k} out of range for block {n}")
    return k


def _atom(a: np.ndarray) -> _Geometry:
    """The memo entry of the validated float64 atom `a`, keyed by its contents."""
    return _atom_of(a.shape, a.tobytes())


@lru_cache(maxsize=_MEMO_SIZE)
def _atom_of(shape: tuple[int, int], data: bytes) -> _Geometry:
    geo = _geometry(np.frombuffer(data).reshape(shape))
    for arr in (geo.u, geo.norms, geo.scale, geo.g):
        arr.flags.writeable = False
    return geo


def _fit(u: np.ndarray, g: np.ndarray, idx: np.ndarray, rhs: np.ndarray,
         ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of ys against the column subsets u[:, row], one per row of idx.

    The columns of `u` have unit norm (or are zero), `idx` is (supports,
    size), g = u^T u, `rhs` holds U_S^T y as (supports, size, cols) and
    `ys` broadcasts against (supports, m, cols).  A support whose Gram
    block passes the determinant screen (module docstring) is solved from
    its normal equations G_S z = C_S: a 1x1 block is its own determinant
    and its solve one division, a larger one takes one batched det and one
    batched solve.  The others are refitted by np.linalg.lstsq, one call
    per support with all of its columns, whose default cutoff gives a
    rank-deficient support its minimum-norm fit, with a backward-stable
    residual.  Returns the coefficients (supports, size, cols) and the
    residuals y - U_S z (supports, m, cols), computed directly: by one
    batched matmul, or for one-column supports by a broadcast product.
    """
    size = idx.shape[1]
    subs = u.take(idx, axis=1).transpose(1, 0, 2)  # (supports, m, size)
    block = g[idx[:, :, None], idx[:, None, :]]  # G_S, (supports, size, size)
    # a zero column leaves a zero row, so det G_S = 0 and the block fails
    near = ((block[:, 0, 0] if size == 1 else np.linalg.det(block)) <= _SOLVE_SCREEN).nonzero()[0]
    if near.size:
        block[near] = np.eye(size)  # keeps the solve defined; refitted below
    # solve copies its right side column by column: one column is a division
    coef = rhs / block if size == 1 else np.linalg.solve(block, rhs)
    for i in near:  # one support, all of its blocks as columns
        yb = np.broadcast_to(ys, subs.shape[:-1] + ys.shape[-1:])[i]
        coef[i] = np.linalg.lstsq(subs[i], yb, rcond=None)[0]
    # a one-column product has one term per entry: the broadcast forms it bit for bit
    return coef, ys - (subs * coef if size == 1 else subs @ coef)


def _pick(scores: np.ndarray) -> np.ndarray:
    """Per column of `scores`, the lowest row scoring at least its max * (1 - 1e-12).

    Pursuit's pick rule: exact ties on integer atoms do not hang on the
    last bits of the product.
    """
    return (scores >= scores.max(axis=0) * (1 - 1e-12)).argmax(axis=0)


def _omp(atom: _Geometry, ys: np.ndarray, k: int):
    """Orthogonal matching pursuit with at most k picks per column, all columns at once.

    `atom` is the geometry of the atom (`_atom`): its unit-norm columns
    U, the divisor of their coefficients, and g = U^T U.  C = U^T Y is
    formed once, and its columns are the first pick's scores.  The first
    pick is fitted in place, by `_fit`'s one-column arithmetic (module
    docstring): the columns it fits are written out at once, and the
    rest go into the loop at the second pick, with their first atom
    column carried in their support.  Each later step scores every column
    still above the tolerance by |U^T r| from its direct residual r,
    picks its most correlated unchosen atom column, and refits all of
    them together by `_fit` from g and the gathered C_S; a column stops
    once its residual beats the tolerance.  Stopped columns leave the
    batch, so the supports of the columns still in it always have the
    same size, and every step is the same fixed few numpy calls whatever
    the number of columns.  The live columns lie along the last axis of
    C, the scores and the residuals (module docstring), and a live
    column's own entries of C and of the scores are addressed by its
    chosen atom columns and its place in the batch.  Every pick follows
    one rule (`_pick`).  The lowest-index column still above the
    tolerance after k picks raises NoSolution.  Returns (xs, used, alt)
    as `_sweep` does: `used` is each column's pick count, and `alt` is
    the scalar k+1, no rival for any column.  Pursuit alone certifies no
    uniqueness; `recover` runs it as the oracle only where the coherence
    does (module docstring).
    """
    u, g, scale = atom.u, atom.g, atom.scale
    n = u.shape[1]
    xs = np.zeros((n, ys.shape[1]))
    used = np.zeros(ys.shape[1], dtype=np.intp)
    # np.linalg.norm's own arithmetic, without its wrapper
    live = (np.sqrt(np.add.reduce(ys * ys, axis=0)) >= RESIDUAL_TOL).nonzero()[0]
    if not live.size:
        return xs, used, k + 1
    if k:
        targets = ys.take(live, axis=1)  # (m, live)
        c = u.T @ targets  # (n, live)
        first = _pick(np.abs(c))
        # `_fit`'s one-column arithmetic; tau stands in only for a zero column's G[j, j]
        coef = c[first, np.arange(live.size)] / np.maximum(g.diagonal(), _SOLVE_SCREEN).take(first)
        resid = targets - u.take(first, axis=1) * coef  # (m, live)
        done = np.sqrt(np.add.reduce(resid * resid, axis=0)) < RESIDUAL_TOL
        finished = np.count_nonzero(done)
        if finished:
            out = slice(None) if finished == live.size else done
            xs[first[out], live[out]] = coef[out] / scale.take(first[out])
            used[live[out]] = 1
            if finished == live.size:
                return xs, used, k + 1
            keep = ~done
            live, first = live[keep], first[keep]
            targets, c, resid = (v.compress(keep, axis=1) for v in (targets, c, resid))
        support = np.empty((live.size, min(k, n)), dtype=np.intp)
        support[:, 0] = first  # carried into the later picks, never refitted alone
        col = np.arange(live.size)[:, None]  # each live column's own entry of c and the scores
    for size in range(2, min(k, n) + 1):
        scores = np.abs(u.T @ resid)
        scores[support[:, :size - 1], col] = -1.0  # the columns already chosen
        support[:, size - 1] = _pick(scores)
        idx = support[:, :size]
        coef, resid = _fit(u, g, idx, c[idx, col][:, :, None], targets.T[:, :, None])
        coef, resid = coef[:, :, 0], resid[:, :, 0].T  # (live, size), (m, live)
        done = np.sqrt(np.add.reduce(resid * resid, axis=0)) < RESIDUAL_TOL
        finished = np.count_nonzero(done)
        if finished:
            out = slice(None) if finished == live.size else done
            xs[idx[out], live[out, None]] = coef[out] / scale[idx[out]]
            used[live[out]] = size
            if finished == live.size:
                return xs, used, k + 1
            keep = ~done
            live, support = live[keep], support[keep]
            targets, c, resid = (v.compress(keep, axis=1) for v in (targets, c, resid))
            col = col[:live.size]
    raise NoSolution(
        f"matching pursuit residual stayed above {RESIDUAL_TOL:.1e} in block {live[0]}"
    )


def _sweep(atom: _Geometry, ys: np.ndarray, k: int):
    """Sparsest fits x_b with a @ x_b ~= ys[:, b] and the size of a rival, by support search.

    `atom` is the geometry of the atom a (`_atom`): its unit-norm columns
    u, the divisor of their coefficients, and g = u^T u.  Enumerates supports
    of size 0..k once for all columns, in chunks from `metrics._subsets`
    whose stacked arrays stay near _FIT_CHUNK floats: each support gets
    one least-squares fit (`_fit`) against every column, and a column
    accepts the fits whose residual beats RESIDUAL_TOL.  A column's
    solution is its first accepted fit; a later accepted fit more than
    _SAME_SOLUTION_ATOL from it, both in the coefficients of `a`, is a
    rival (supersets of the true support refit the same vector and are
    not).  Returns (xs, used, alt): the n-by-cols solutions, the size of
    each column's first accepted support (k+1 when none fits), and the
    smallest size at which a rival was accepted (k+1 when there is none).
    The sweep decides nothing; `recover` weighs both sizes against the
    sparsity budget.
    """
    u, g, scale = atom.u, atom.g, atom.scale
    m, n = u.shape
    cols = ys.shape[1]
    xs = np.zeros((n, cols))
    used = np.where(np.linalg.norm(ys, axis=0) < RESIDUAL_TOL, 0, k + 1)  # the empty support
    alt = np.full(cols, k + 1)
    c = u.T @ ys
    chunk = max(1, _FIT_CHUNK // (cols * max(m, n)))
    for size in range(1, min(k, n) + 1):
        for idx in _subsets(n, size, chunk):
            coef, resid = _fit(u, g, idx, c[idx], ys)  # (chunk, size, cols), (chunk, m, cols)
            resid = np.linalg.norm(resid, axis=1)  # (chunk, cols)
            hit_s, hit_b = np.nonzero(resid < RESIDUAL_TOL)  # ordered by support
            rows = idx[hit_s]  # (hits, size)
            fit = coef[hit_s, :, hit_b] / scale[rows]
            new_b, first = np.unique(hit_b, return_index=True)
            fresh = used[new_b] > k
            xs[rows[first[fresh]], new_b[fresh, None]] = fit[first[fresh]]
            used[new_b[fresh]] = size
            # distance of every accepted fit to its column's solution
            diff = xs.T[hit_b]
            diff[np.arange(hit_b.size)[:, None], rows] -= fit
            far = np.abs(diff).max(axis=1) > _SAME_SOLUTION_ATOL
            if far.any():
                rival = hit_b[far]
                alt[rival] = np.minimum(alt[rival], size)
    return xs, used, alt


def _certified(atom: _Geometry, k: int, residual_tol: float) -> bool:
    """True when the coherence of the atom's unit-norm columns certifies pursuit at sparsity k.

    `atom` is the memo entry (`_atom`), whose mu is `metrics.coherence`
    of the atom bit for bit; it and the least column norm are formed once
    per distinct atom, and the decision is made here on every call.  The
    certificate and its rival guard are set out in the module docstring.
    With residual_tol = 0 the guard is void and this is the uniqueness
    certificate spark >= 1 + 1/mu > 2k: True exactly when the atom has
    no zero column and k <= `metrics.max_sparsity`.
    """
    n = len(atom.g)
    if n < 2 or not atom.least or k > _sparsity_bound(atom.mu, n):
        return False
    sigma = sqrt(1.0 - (min(2 * k, n) - 1) * atom.mu)
    return 2.0 * residual_tol <= _SAME_SOLUTION_ATOL * sigma * atom.least


def recover(a, s: int, y, spec: SparsitySpec, side: Side = Side.LEFT,
            method: str = "oracle") -> np.ndarray:
    """Exact sparse recovery from y = lift_s(a) @ x.

    The lifted system is s copies of the atom, Y = A X, where the columns
    of Y = blocks(y, s, side) and X = blocks(x, s, side) are the blocks
    of y and x (see `stp.blocks`).  All columns are solved together and
    x = unblocks(X, side).  The sparsity bound k applies to each column
    of X under BLOCKWISE and to all of x under GLOBAL.

    ``method="oracle"`` (default) returns the unique sparse solution or
    raises: inside the coherence bound k < (1 + 1/mu)/2, under the rival
    guard of the module docstring, it answers by batched orthogonal
    matching pursuit, which is exact there, and outside it, or where
    pursuit does not fit, by the exhaustive support sweep with
    uniqueness detection.  ``method="omp"``
    is the uncertified greedy override: pursuit, one pick and one
    stacked refit per step for all blocks still above the tolerance,
    whatever the coherence, and without a uniqueness check.  Either
    reports, per block, the size of its sparsest fit and of its smallest
    rival (a distinct fit), and the decision is made here for both
    modes.  Block b's budget is k under BLOCKWISE and, under GLOBAL, what
    the other blocks' sparsest fits leave of k.  That is exact: a GLOBAL
    solution restricts to a fit in every block, and no block can spend
    more than its budget.  The lowest block whose sparsest fit exceeds
    its budget raises NoSolution, or whose rival fits within it
    NotUnique.  In both modes each block's residual must beat
    `RESIDUAL_TOL`.  What the atom alone fixes is formed once per
    distinct atom (module docstring).  The method is a name read in any
    case, as a side is (`stp._choice`); anything else raises BadShape
    naming both methods.
    """
    a = as_matrix(a)
    y = as_signal(y)
    side = as_side(side)
    s = as_count(s, "lift factor", 1)
    if spec.block_len != a.shape[1]:
        raise BadShape(f"sparsity block length {spec.block_len} != matrix columns {a.shape[1]}")
    return _recover(_atom(a), s, y, spec.per_block_k, spec.mode, side, method)


def _recover(atom: _Geometry, s: int, y: np.ndarray, k: int, mode: SparsityMode, side: Side,
             method: str) -> np.ndarray:
    """`recover` from the memo entry of its atom and its validated s, y, k, mode and side.

    `recover` and `recover_signal` each validate their own arguments once
    and share this core, which checks y against the atom and the method.
    """
    m = atom.u.shape[0]
    if y.size != m * s:
        raise BadShape(f"measurement dim {y.size} != rows*s = {m * s}")
    method = _choice(method, ("oracle", "omp"), "recovery method")
    blockwise = mode is not SparsityMode.GLOBAL
    ys = blocks(y, s, side)
    found = _omp(atom, ys, k) if method == "omp" else None
    if method == "oracle" and _certified(atom, k, RESIDUAL_TOL):  # pursuit, where it decides
        try:
            found = _omp(atom, ys, k)
        except NoSolution:
            pass
        if found is not None and not blockwise and found[1].sum() > k:
            found = None
    xs, used, alt = found or _sweep(atom, ys, k)
    # under GLOBAL, what the other blocks' sparsest fits leave of k
    budget = k if blockwise else np.maximum(k - (used.sum() - used), 0)
    short = used > budget
    bad = short | (alt <= budget)
    if bad.any():
        b = int(bad.argmax())
        if short[b]:
            limit = np.broadcast_to(budget, short.shape)[b]
            raise NoSolution(f"no support of size <= {limit} fits block {b} of the measurements")
        raise NotUnique(f"distinct sparse solutions fit block {b} of the measurements")
    return unblocks(xs, side)


def recover_signal(a, y, p: int, k: int, side: Side = Side.LEFT,
                   method: str = "oracle") -> np.ndarray:
    """Recover the original p-dimensional signal behind y = a * x.

    `a` is its atom (n0 columns) lifted `lifts` times on `side`
    (`signal_space.reduce_matrix`), and `mv_stp` lifts a and the signal
    to t = lcm(n0 * lifts, p) = s * n0 = r * p: y is s copies of the atom
    applied to the signal replicated r times.  This
    recovers the (possibly replicated) unknown, and in the non-divisible
    case, r > 1, strips the replication: the lifted solution must be an
    r-fold lift within RESIDUAL_TOL (`stp.unlift`), otherwise it does not
    correspond to any p-dimensional signal and NoSolution is raised.
    """
    atom, lifts = reduce_matrix(a, side)
    side, p = as_side(side), as_count(p, "signal dimension", 1)
    n0 = atom.shape[1]
    t = lcm(n0 * lifts, p)  # a's own columns, as mv_stp lifts them
    s, r = t // n0, t // p
    k = _per_block_k(k, n0)
    xt = _recover(_atom(atom), s, as_signal(y), k, SparsityMode.BLOCKWISE, side, method)
    if r == 1:
        return xt
    x = unlift(xt, r, side, RESIDUAL_TOL)
    if x is None:
        raise NoSolution(f"lifted solution is not {r}-fold replicated; no dim-{p} signal matches")
    return x


def uniqueness_guarantee(a, k: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff spark(atom) > 2k, certifying per-block uniqueness for every lift.

    Spark and coherence are invariant under both identity lifts, so the
    matrix is read through its class atom, the smaller of its LEFT and
    RIGHT atoms (`signal_space._class_atom`).  When its coherence
    certifies k (k <= `metrics.max_sparsity`, so spark >= 1 + 1/mu > 2k)
    the answer is True without computing spark; otherwise,
    and for an atom with a zero column, `metrics.spark` settles it from
    its rank, nullity, Gershgorin and witness bounds, and the budget
    applies only to the subset sizes those bounds leave open.  Both read
    the one geometry record kept per distinct atom (module docstring), so
    an atom in any memory layout gets the answer of its C-ordered copy.
    """
    a, budget = as_matrix(a), as_count(budget, "budget", 0)
    k = as_count(k, "sparsity", 0)
    atom = _atom(_class_atom(a))
    return _certified(atom, k, 0.0) or _spark(atom, budget)[0] > 2 * k

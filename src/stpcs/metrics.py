"""Sensing-matrix quality metrics.

Coherence, the Welch lower bound, spark by exhaustive subset search,
the coherence-based recoverable-sparsity bound, and brute-force
certification of the restricted isometry property.  Everything here is
exact at desk scale: subset enumerations are complete (guarded by a
budget) rather than sampled.

Spark and RIP share one subset kernel.  The Gram matrix G = A^T A is
formed once; each chunk of lexicographic k-subsets T gathers its k-by-k
blocks G_T, whose eigenvalues are the squared singular values of the
column block A_T.  A subset counts as dependent when the singular-value
test sigma_min <= 1e-9 sigma_max holds for A_T.  That test runs only on
the subsets a determinant screen flags, det(G_T) <= 1e-12 trace(G_T)^k:
every subset the test could call dependent is flagged, since then
det(G_T) <= lambda_min lambda_max^(k-1) <= 1e-18 trace(G_T)^k, six
orders of magnitude below the screen.  All other subsets are
independent without an SVD.

The class-level variants reduce a matrix to its irreducible Kronecker
atom first; spark, coherence, and the RIP constant are invariant under
identity lifts, so the atom's numbers are the class's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice, product
from typing import NamedTuple

import numpy as np

from .errors import BadShape, BudgetExceeded, ZeroColumn
from .signal_space import reduce_matrix
from .stp import Side, as_matrix, lift_matrix

__all__ = [
    "DEFAULT_BUDGET",
    "CsReport",
    "RipResult",
    "coherence",
    "signed_coherence",
    "welch_bound",
    "spark",
    "max_sparsity",
    "rip_check",
    "blockwise_rip_delta",
    "class_metrics",
]

DEFAULT_BUDGET = 10**6

# A singular value below this fraction of the submatrix's largest one
# counts as zero in rank decisions.
_RANK_RTOL = 1e-9

# Gram blocks with det(G_T) <= _SCREEN * trace(G_T)**k go to the
# singular-value test; a block that test calls dependent has
# det <= 1e-18 * trace**k (module docstring), and the factor 1e6 between
# the two absorbs rounding in G and in det.
_SCREEN = 1e-12

_CHUNK = 4096

# rip_check certifies delta < 1 - _RIP_MARGIN: a true delta of exactly 1
# reads a few ulps either side of 1 and must not pass on its last bit.
_RIP_MARGIN = 1e-12


def _column_cosines(a: np.ndarray) -> np.ndarray:
    """Matrix of pairwise column cosines; raises on zero columns."""
    a = as_matrix(a)
    if a.shape[1] < 2:
        raise BadShape("column correlations need at least two columns")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise ZeroColumn("matrix has a zero column")
    return (a.T @ a) / np.outer(norms, norms)


def _pair_cosines(a) -> np.ndarray:
    """Cosines of all ordered pairs of distinct columns, flattened."""
    g = _column_cosines(a)
    return g[~np.eye(g.shape[0], dtype=bool)]


def coherence(a) -> float:
    """Largest absolute pairwise column cosine, in [0, 1]."""
    return float(np.max(np.abs(_pair_cosines(a))))


def signed_coherence(a) -> float:
    """Largest pairwise column cosine without the absolute value.

    Kept alongside `coherence` because the magnitude-free maximum can be
    negative and carries sign information the bound arguments ignore.
    """
    return float(np.max(_pair_cosines(a)))


def welch_bound(m: int, n: int) -> float:
    """Lower bound sqrt((n-m)/(m(n-1))) on the coherence of any m-by-n matrix, n > m."""
    if n <= m or m < 1 or n < 2:
        raise BadShape(f"welch bound needs n > m >= 1, got m={m}, n={n}")
    return math.sqrt((n - m) / (m * (n - 1)))


def _gram_blocks(g: np.ndarray, k: int):
    """Yield (subsets, blocks, suspect) over all k-subsets of the columns of A, chunked.

    g is the Gram matrix A^T A.  Subsets come in lexicographic order as
    rows of an index array; the blocks are G_T = A_T^T A_T; `suspect`
    flags every subset that `_singular_values` could find rank-deficient.
    """
    combos = combinations(range(g.shape[0]), k)
    while True:
        idx = np.fromiter(chain.from_iterable(islice(combos, _CHUNK)), dtype=np.intp)
        if not idx.size:
            return
        idx = idx.reshape(-1, k)
        blocks = g[idx[:, :, None], idx[:, None, :]]  # (chunk, k, k)
        trace = np.trace(blocks, axis1=1, axis2=2)
        yield idx, blocks, np.linalg.det(blocks) <= _SCREEN * trace**k


def _singular_values(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Singular values, descending, of the column blocks a[:, row] for each row of idx."""
    return np.linalg.svd(np.moveaxis(a[:, idx], 1, 0), compute_uv=False)


def _check_budget(n: int, k: int, budget: int, what: str) -> None:
    count = math.comb(n, k)
    if count > budget:
        raise BudgetExceeded(
            f"{what} would enumerate {count} subsets of size {k} (budget {budget})"
        )


def spark(a, budget: int = DEFAULT_BUDGET):
    """Smallest number of linearly dependent columns.

    Returns math.inf when the columns are independent (full column rank),
    rather than a numeric stand-in.  Enumeration runs in increasing subset
    size, so the first hit is the spark.  A subset is dependent when its
    smallest singular value is at most 1e-9 of its largest; that test runs
    only on the subsets the Gram determinant screen flags (see the module
    docstring), all others being independent.
    """
    a = as_matrix(a)
    m, n = a.shape
    g = a.T @ a
    for k in range(1, min(m, n) + 1):
        _check_budget(n, k, budget, "spark")
        for idx, _, suspect in _gram_blocks(g, k):
            if np.any(suspect):
                sv = _singular_values(a, idx[suspect])
                if np.any(sv[:, -1] <= _RANK_RTOL * sv[:, 0]):
                    return k
    if n > m:
        return m + 1  # any m+1 columns of an m-row matrix are dependent
    return math.inf


def max_sparsity(a) -> int:
    """Largest k with k < (1 + 1/coherence)/2, the lossless-recovery bound."""
    return _sparsity_bound(coherence(a), as_matrix(a).shape[1])


def _sparsity_bound(mu: float, n: int) -> int:
    """`max_sparsity` of an n-column matrix of coherence mu."""
    if mu == 0.0:
        # only possible with orthogonal columns (cols <= rows); every
        # sparsity up to the column count is then recoverable
        return n
    v = 0.5 * (1.0 + 1.0 / mu)
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        return int(nearest) - 1  # strict inequality at an integer boundary
    return math.floor(v)


class RipResult(NamedTuple):
    delta: float
    satisfied: bool


def rip_check(a, k: int, normalize: bool = False, budget: int = DEFAULT_BUDGET) -> RipResult:
    """Exact restricted-isometry constant over all k-column submatrices.

    delta is the largest deviation max(sigma_max^2 - 1, 1 - sigma_min^2)
    over every k-column submatrix; the property holds when delta < 1.
    The certificate is scale-sensitive, so columns should be unit-norm;
    pass normalize=True to rescale them first.

    The squared singular values of a submatrix are the eigenvalues of its
    Gram block, so delta comes from `eigvalsh` of the blocks.  Blocks the
    determinant screen flags as possibly rank-deficient take their extreme
    singular values from an SVD of the column block instead, so that a
    dependent subset reads sigma_min^2 = 0 and delta = 1 exactly, not a
    rounding error below it.  With k above the row count, sigma_min = 0.
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= n:
        raise BadShape(f"sparsity k={k} out of range for {n} columns")
    if normalize:
        norms = np.linalg.norm(a, axis=0)
        if np.any(norms == 0.0):
            raise ZeroColumn("cannot normalize a zero column")
        a = a / norms
    _check_budget(n, k, budget, "rip_check")
    delta = 0.0
    for idx, blocks, suspect in _gram_blocks(a.T @ a, k):
        lam = np.linalg.eigvalsh(blocks)  # ascending
        top, low = lam[:, -1], lam[:, 0]
        if np.any(suspect):
            sv = _singular_values(a, idx[suspect])
            top[suspect], low[suspect] = sv[:, 0] ** 2, sv[:, -1] ** 2
        if k > m:
            low[:] = 0.0
        delta = max(delta, float(np.max(top - 1.0)), float(np.max(1.0 - low)))
    return RipResult(delta, delta < 1.0 - _RIP_MARGIN)


def blockwise_rip_delta(a, k: int, s: int, side: Side = Side.RIGHT,
                        budget: int = DEFAULT_BUDGET) -> float:
    """RIP constant of the identity lift over blockwise-sparse supports.

    Enumerates every support with at most k indices per length-n block of
    the lifted matrix (I_s (x) A or A (x) I_s) directly.  Serves as an
    independent cross-check that the lift inherits the atom's constant;
    intended for small s (the enumeration is a product over blocks).
    """
    a = as_matrix(a)
    m, n = a.shape
    if not 1 <= k <= n:
        raise BadShape(f"sparsity k={k} out of range for {n} columns")
    per_block = [c for r in range(k + 1) for c in combinations(range(n), r)]
    if len(per_block) ** s > budget:
        raise BudgetExceeded(f"{len(per_block) ** s} blockwise supports exceed budget")
    big = lift_matrix(a, s, side)
    if side is Side.RIGHT:
        offsets = [b * n for b in range(s)]  # block b owns columns [b*n, (b+1)*n)
    else:
        offsets = list(range(s))  # A (x) I_s: block b owns columns b, b+s, ...
    delta = 0.0
    for choice in product(per_block, repeat=s):
        cols: list[int] = []
        for b, sub in enumerate(choice):
            if side is Side.RIGHT:
                cols.extend(offsets[b] + c for c in sub)
            else:
                cols.extend(offsets[b] + c * s for c in sub)
        if not cols:
            continue
        sv = np.linalg.svd(big[:, cols], compute_uv=False)
        smin = sv[-1] if len(cols) <= big.shape[0] else 0.0
        delta = max(delta, float(sv[0] ** 2 - 1.0), float(1.0 - smin**2))
    return delta


@dataclass
class CsReport:
    """Quality metrics of a sensing matrix (or of its irreducible atom)."""

    coherence: float
    signed_coherence: float
    welch_bound: float | None
    spark: float  # positive integer, or math.inf when columns are independent
    max_k: int
    rip: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "coherence": self.coherence,
            "signed_coherence": self.signed_coherence,
            "welch_bound": self.welch_bound,
            "spark": None if math.isinf(self.spark) else int(self.spark),
            "spark_infinite": bool(math.isinf(self.spark)),
            "max_k": self.max_k,
        }
        if self.rip is not None:
            out["rip"] = self.rip
        return out


def class_metrics(a, side: Side = Side.LEFT, rip_k: int | None = None,
                  budget: int = DEFAULT_BUDGET) -> CsReport:
    """Metrics of the equivalence class of `a`: computed on its atom."""
    atom, _ = reduce_matrix(a, side)
    return component_metrics(atom, rip_k=rip_k, budget=budget)


def component_metrics(a, rip_k: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> CsReport:
    """Metrics of a fixed matrix, no reduction."""
    a = as_matrix(a)
    m, n = a.shape
    cosines = _pair_cosines(a)
    mu = float(np.max(np.abs(cosines)))
    report = CsReport(
        coherence=mu,
        signed_coherence=float(np.max(cosines)),
        welch_bound=welch_bound(m, n) if n > m else None,
        spark=spark(a, budget=budget),
        max_k=_sparsity_bound(mu, n),
    )
    if rip_k is not None:
        res = rip_check(a, rip_k, normalize=True, budget=budget)
        report.rip = {"k": rip_k, "delta": res.delta, "satisfied": res.satisfied}
    return report

"""Deterministic sensing matrices from balanced incomplete block designs.

The pipeline: an (alpha, alpha, alpha-1, alpha-1, alpha-2) block-design
incidence matrix is expanded vertically (rows grow until every pair of
columns shares at most one row, driving the coherence down to
1/(alpha-1)), then expanded horizontally by substituting the rows of a
sign/embedding matrix for the ones of each column.  The horizontal step
preserves max(coherence of skeleton, coherence of embedding), so sign
matrices whose pairwise column inner products are 0 (OCM, even rows) or
+-1 (AOCM, odd rows) give the best reachable coherence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BadDiag,
    BadShape,
    DegreeMismatch,
    NotBibd,
    NotExpandable,
    Unsupported,
)
from .io import _validate_kind
from .stp import as_count, as_matrix

__all__ = [
    "BibdParams",
    "SignKind",
    "incidence_matrix",
    "bibd_check",
    "vertical_expand",
    "vertical_expand_star",
    "make_embedding",
    "horizontal_expand",
    "ocm",
    "aocm",
    "sign_matrix_check",
    "canonical_sign_form",
]


@dataclass(frozen=True)
class BibdParams:
    """(points, blocks, replication, block size, pair count)."""

    alpha: int
    b: int
    r: int
    k: int
    lam: int


def incidence_matrix(alpha: int) -> np.ndarray:
    """The alpha-by-alpha incidence pattern with zeros on the anti-diagonal.

    Row i misses exactly block alpha+1-i, so every point sits in alpha-1
    blocks, every block holds alpha-1 points, and every pair of points
    shares alpha-2 blocks.
    """
    alpha = as_count(alpha, "alpha", 0)
    if alpha < 3:
        raise BadShape("incidence pattern needs alpha >= 3")
    h = np.ones((alpha, alpha))
    h[np.arange(alpha), alpha - 1 - np.arange(alpha)] = 0.0
    return h


def bibd_check(h) -> BibdParams:
    """Verify the block-design conditions and return the parameters.

    Rows index points, columns index blocks: constant row degree r,
    constant column degree k with 2 <= k < alpha, and constant pairwise
    row co-occurrence lambda.  Raises NotBibd naming the first violation.
    """
    h = _validate_kind(as_matrix(h), "boolean")
    alpha, b = h.shape
    row_deg = h.sum(axis=1)
    if not np.all(row_deg == row_deg[0]):
        raise NotBibd("replication count is not constant across points")
    col_deg = h.sum(axis=0)
    if not np.all(col_deg == col_deg[0]):
        raise NotBibd("block size is not constant across blocks")
    k = int(col_deg[0])
    if not 2 <= k < alpha:
        raise NotBibd(f"block size {k} violates 2 <= k < {alpha}")
    co = h @ h.T
    off = co[~np.eye(alpha, dtype=bool)]
    if not np.all(off == off[0]):
        raise NotBibd("pair count is not constant across point pairs")
    return BibdParams(alpha, b, int(row_deg[0]), k, int(off[0]))


def vertical_expand(h) -> np.ndarray:
    """Row-growing expansion keeping pairwise column inner products <= 1.

    Columns are processed left to right and each one of a column top to
    bottom.  A one may shift down from its original row, never up, and
    lands on the first row that stays strictly below the previous one of
    its own column and does not push any pairwise inner product with an
    already-placed column above 1.  For the anti-diagonal incidence
    family the result has alpha^2 - 3*alpha + 3 rows and coherence
    1/(alpha-1).  Raises NotExpandable if a one cannot be placed inside
    that row budget, which signals an input outside the family.
    """
    h = _validate_kind(as_matrix(h), "boolean")
    alpha = h.shape[1]
    m = alpha * alpha - 3 * alpha + 3
    if m < h.shape[0]:
        raise NotExpandable(f"row budget {m} below input rows {h.shape[0]}")
    out = np.zeros((m, alpha))
    for j in range(alpha):
        shared = np.zeros(j, dtype=bool)  # earlier columns sharing a row with column j
        prev = -1
        for r0 in np.flatnonzero(h[:, j]):
            r = max(int(r0), prev + 1)
            while r < m and np.any(shared & (out[r, :j] == 1.0)):
                r += 1
            if r >= m:
                raise NotExpandable(f"column {j} cannot be placed within {m} rows")
            out[r, j] = 1.0
            shared |= out[r, :j] == 1.0
            prev = r
    return out


def vertical_expand_star(alpha: int) -> np.ndarray:
    """Pair-incidence expansion: one row per pair of columns.

    Row r holds ones in the columns of the r-th pair in lexicographic
    order, so the output has alpha*(alpha-1)/2 rows, row degree 2, column
    degree alpha-1, and coherence exactly 1/(alpha-1).
    """
    alpha = as_count(alpha, "alpha", 0)
    if alpha < 3:
        raise BadShape("star expansion needs alpha >= 3")
    i, j = np.triu_indices(alpha, 1)
    out = np.zeros((i.size, alpha))
    rows = np.arange(i.size)
    out[rows, i] = out[rows, j] = 1.0
    return out


def make_embedding(signs, diag) -> np.ndarray:
    """The embedding matrix signs * diag: each sign column scaled by its diagonal entry.

    The diagonal must hold one positive, finite entry per column, pairwise
    distinct; scaling columns leaves coherence unchanged.
    """
    signs = _validate_kind(as_matrix(signs), "sign")
    diag = np.asarray(diag, dtype=float).reshape(-1)
    if diag.size != signs.shape[1]:
        raise BadDiag(f"need {signs.shape[1]} diagonal entries, got {diag.size}")
    if np.any(diag <= 0.0):
        raise BadDiag("diagonal entries must be positive")
    if len(np.unique(diag)) != diag.size:
        raise BadDiag("diagonal entries must be pairwise distinct")
    if not np.all(np.isfinite(diag)):
        raise BadDiag("diagonal entries must be finite")
    return signs * diag


def horizontal_expand(hv, b) -> np.ndarray:
    """Substitute embedding rows for the ones of each skeleton column.

    `b` is any matrix: a sign matrix, or the scaled one `make_embedding`
    returns.  In column j of the 0/1 skeleton, its i-th one (top to
    bottom) becomes row i of b; zeros become zero rows.  Output shape is
    rows(hv) x (cols(hv) * cols(b)); its coherence is the larger of the
    two factors' coherences.  Every skeleton column degree must equal the
    row count of b.
    """
    hv = _validate_kind(as_matrix(hv), "boolean")
    b = as_matrix(b)
    rows, cols = hv.shape
    deg = hv.sum(axis=0).astype(int)
    if np.any(deg != b.shape[0]):
        bad = int(np.flatnonzero(deg != b.shape[0])[0])
        raise DegreeMismatch(
            f"column {bad} has degree {deg[bad]}, embedding has {b.shape[0]} rows"
        )
    width = b.shape[1]
    out = np.zeros((rows, cols * width))
    for j in range(cols):
        out[np.flatnonzero(hv[:, j]), j * width:(j + 1) * width] = b
    return out


def ocm(t: int) -> np.ndarray:
    """A sign matrix with t rows and 2^p pairwise-orthogonal columns.

    Writing t = 2^p * q with q odd, the construction is the p-fold
    Kronecker power of [[1,1],[1,-1]] times a ones column, shape t x 2^p.
    It has the most columns possible when q = 1 (a Hadamard matrix) or
    p <= 1 (more than two orthogonal sign columns need 4 | t), but not
    in general: Paley's Hadamard matrices have orders 12, 20 and 24,
    where this gives 12 x 4, 20 x 4 and 24 x 8.
    """
    t = as_count(t, "row count", 0)
    if t < 1:
        raise BadShape("ocm needs a positive row count")
    p = (t & -t).bit_length() - 1  # exponent of 2 in t
    q = t >> p
    core = np.ones((1, 1))
    o2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(p):
        core = np.kron(o2, core)
    return np.kron(core, np.ones((q, 1)))


_AOCM5 = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, -1, -1, -1, 1],
        [1, -1, 1, 1, -1],
    ],
    dtype=float,
)


def aocm(t: int) -> np.ndarray:
    """Largest known sign matrix with pairwise column inner products +-1.

    Even t falls back to the orthogonal construction: for even t an
    inner product of two +-1 columns is even, so +-1 is impossible and the
    columns must be orthogonal.  Three pairwise-orthogonal sign columns
    need 4 | t, so t = 2 (mod 4) gives only 2 columns (aocm(6) is 6x2),
    and the sensing matrix built from it at alpha = 7 has fewer columns
    than rows.  For t = 2^p - 1
    the first row of the t+1 orthogonal matrix is deleted, which leaves
    every pairwise inner product at -1 and is maximal.  t = 5 has a
    known 5x5 solution.  Other odd t raise Unsupported.  Paley's
    quadratic-residue Hadamard matrix of order q + 1, less its all-ones
    row, would give a q x (q + 1) matrix for every prime q = 3 (mod 4)
    (q = 11, 19, 23, ...); this package does not build it yet.
    """
    t = as_count(t, "row count", 0)
    if t < 1:
        raise BadShape("aocm needs a positive row count")
    if t % 2 == 0:
        return ocm(t)
    if t == 5:
        return _AOCM5.copy()
    if t >= 3 and (t + 1) & t == 0:  # t = 2^p - 1
        return ocm(t + 1)[1:]
    raise Unsupported(f"no known almost-orthogonal construction for odd t={t}")


class SignKind(Enum):
    OCM = "ocm"
    AOCM = "aocm"
    NEITHER = "neither"


def sign_matrix_check(a) -> SignKind:
    """Classify a sign matrix by its pairwise column inner products.

    OCM when all are 0 (needs an even row count), AOCM when all are +-1
    (needs an odd row count).  The row count, alpha - 1 for the embedding
    of an alpha-point design, is read from the matrix.  Matrices with a
    single column classify by row parity alone.
    """
    a = _validate_kind(as_matrix(a), "sign")
    if a.shape[1] < 2:
        return SignKind.OCM if a.shape[0] % 2 == 0 else SignKind.AOCM
    g = a.T @ a
    off = g[~np.eye(a.shape[1], dtype=bool)]
    if np.all(off == 0.0):
        return SignKind.OCM
    if np.all(np.abs(off) == 1.0):
        return SignKind.AOCM
    return SignKind.NEITHER


def canonical_sign_form(a) -> np.ndarray:
    """Canonical representative under column sign changes and column order.

    Columns are negated to make the first row positive, rows negated to
    make the first column positive, then columns sorted lexicographically
    (top row most significant, +1 before -1).  Two sign matrices related
    by those operations canonicalize identically.
    """
    a = _validate_kind(as_matrix(a), "sign").copy()
    a *= np.where(a[0] < 0, -1.0, 1.0)[None, :]
    a *= np.where(a[:, 0] < 0, -1.0, 1.0)[:, None]
    order = np.lexsort(-a[::-1])
    return a[:, order]

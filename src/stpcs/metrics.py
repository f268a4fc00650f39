"""Sensing-matrix quality metrics.

Coherence, the Welch lower bound, spark, the coherence-based
recoverable-sparsity bound, and certification of the restricted
isometry property.  Everything here is exact at desk scale: spark and
the RIP constant are settled by the bounds proved below wherever those
meet, and subsets are enumerated (guarded by a budget, never sampled)
only in the gap the bounds leave.  The budget is a count of subsets
(and of the nodes of spark's simplex search, below): every entry point
takes it through `stp.as_count`, so a negative or non-integer budget
raises BadShape.

Column scale changes neither dependence nor recoverability, so
coherence, spark, the sparsity bound, `rip_check(normalize=True)` and
the recovery of `pipeline` read one column geometry, formed by one
helper, `_geometry`: the unit-norm columns U, their norms, the
zero-safe divisor that scales coefficients back, G = U^T U and the
coherence mu = max|G - diag G|.  A column's norm is the root of its
plain sum of squares, retaken at unit scale (`signal_space._unit_scale`)
only where that sum leaves the normal range, so it reads that column
alone and is right at every finite scale.  One mu thus decides both
what a design certifies and what recovery promises.

One subset kernel serves spark, RIP and sparse recovery: `_subsets`
enumerates the lexicographic k-subsets in chunks, and the recovery
sweep (`pipeline._sweep`) fits its supports from the same chunks.  For
spark and RIP the Gram matrix G = A^T A is formed once; each chunk of
k-subsets T gathers its k-by-k blocks G_T, whose eigenvalues are the
squared singular values of the column block A_T.  Spark calls a subset
dependent when sigma_min <= 1e-9 sigma_max holds for its unit-norm
columns.  That test runs only on the subsets a determinant screen
flags, det(G_T) <= 1e-12 trace(G_T)^k: every subset the test could call
dependent is flagged, since then det(G_T) <= lambda_min
lambda_max^(k-1) <= 1e-18 trace(G_T)^k, six orders of magnitude below
the screen.  All other subsets are independent without an SVD.

Spark from bounds.  Let U be the m-by-n matrix of unit columns,
G = U^T U, and mu the largest |G_ij|, i != j.
- Rank.  If sigma_min(U) > 1e-9 sigma_max(U) with n <= m, spark is
  infinite: by interlacing, a column subset T has sigma_max(U_T) <=
  sigma_max(U) and sigma_min(U_T) >= sigma_min(U), so every subset
  passes the test as independent.
- Lower bound L.  By Gershgorin a k-subset has lambda_min(G_T) >=
  min_j G_jj - (k-1) mu.  Where that exceeds 1e-6, sigma_min(U_T)^2 is
  far above the 1e-18 sigma_max(U_T)^2 <= 1e-18 k the test needs, so no
  subset of that size is dependent: spark >= 1 + 1/mu (Donoho & Elad
  2003, PNAS 100(5)).  A zero column has G_jj = 0, and then L = 1.
- Nullity one.  When U has a one-dimensional null space, the spark is
  the set S of its essential columns, if S passes the test (proof in
  `spark`).
- Witness W.  Columns that share one row support span at most as many
  dimensions as their rank r: if a group of c such columns has r < c,
  any r + 1 of them are dependent, and one such subset, confirmed by
  the test, gives W = r + 1.  Any m + 1 columns are dependent, and with
  n <= m the whole set is, once the rank bound fails.
- Simplex search at L, when L < W.  Let gamma = min_j G_jj - (L - 1) mu.
  Where gamma is 0 up to rounding, 1/mu is an integer, L = 1 + 1/mu is
  the equality case of Gershgorin, and a dependent L-set is a
  sign-switched regular simplex (Lemmens & Seidel 1973, J. Algebra 24).
  Proof: let H be the exact Gram matrix of U, whose entries lie within
  e = (m + 2) eps of G's (eps the spacing of floats at 1), so its
  diagonal is at least min_j G_jj - e, its off-diagonal at most mu + e,
  and its own gamma at least gamma - L e.  For a unit vector v on an
  L-set T, with a = |v| and S = sum_i a_i,
      v^T H_T v >= gamma - L e + (mu + e)(L - S^2)
                   + sum_{i != j} (mu + e - |H_ij|) a_i a_j
                   + sum_{i != j} (|H_ij| a_i a_j + H_ij v_i v_j),
  and every term after gamma - L e is nonnegative (S^2 <= L by
  Cauchy-Schwarz).  A set the test calls dependent has, at the v of its
  smallest eigenvalue, v^T H_T v <= 1e-18 sigma_max^2 (plus the SVD's
  rounding) <= 2e-18 L, so each of those terms is at most
  s = 2e-18 L + max(0, -gamma) + L e.  The search runs where
  L s <= mu / 100, which holds at the equality case.  There the first
  gives sum_i (a_i - S/L)^2 = 1 - S^2/L <= s / (mu L), so every
  a_i >= 0.89 / sqrt(L); the second then puts every |G_ij| >= |H_ij| - e
  within L s of mu; and the last, whose pair terms would otherwise each
  exceed 2 (0.99 mu)(0.8 / L) > s, makes every G_ij v_i v_j negative.
  So the set is a clique of the graph of column pairs with
  |G_ij| >= mu - eps_L, eps_L = max(1e-9, L s), whose signs sign(v_i)
  make every switched product sign(v_i) sign(v_j) G_ij negative: every
  triangle has G_ij G_jk G_ki < 0.  On the designs gamma is rounding,
  and L s is about L^2 m 1e-16, far inside 1e-9.  `_simplex` searches
  that graph from each root column i, the least of the set: each
  neighbour j after i gets the sign -sign(G_ij), and the set grows in
  increasing column order only by columns whose switched products with
  all of it are negative.  A clique of L columns is confirmed by the
  test, which alone decides dependence: a confirmed clique makes the
  spark L, and an exhausted search raises L to L + 1.  The search counts
  its nodes against the budget, as one more stage; once they run out,
  size L is enumerated as below.
If L = W that is the spark; otherwise sizes L..W-1 are enumerated, each
under the budget, and the first dependent size is the spark, else W.

RIP stops at its Gershgorin bound.  Every eigenvalue of a k-subset's
block G_T lies within sum_{i in T, i != j} |G_ij| of some G_jj, so no
k-subset deviates by more than B = max_j (|G_jj - 1| + the sum of the
k-1 largest |G_ij|, i != j); with k > m every subset has sigma_min = 0,
so B is taken at least 1.  Enumeration stops after the chunk in which
the running delta reaches B - 1e-14: the delta returned is a real
subset's value, within 1e-14 of the full maximum.

`class_metrics` is the one report, and it answers for a class: a matrix
and all of its identity lifts A (x) I_s and I_s (x) A.  Spark,
coherence, the sparsity bound and the RIP constant are invariant under
both lifts, so it reduces the matrix on both sides and reads the
smaller atom, as `pipeline.uniqueness_guarantee` does
(`signal_space._class_atom`); the answer needs no side from the caller.
An irreducible matrix is its own atom.  The Welch bound and `spark_by`
are the atom's: a proper lift's Welch bound lies strictly below the
atom's, and both bound the same coherence.  A class whose atom has one
column (I_n, c I_n, v (x) I_s, I_s (x) v) has no column pair to
correlate, and its report raises BadShape, as `coherence` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import NamedTuple

import numpy as np

from .errors import BadShape, BudgetExceeded, ZeroColumn
from .signal_space import _class_atom, _plain_sum, _unit_scale
from .stp import as_count, as_matrix

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

# The spacing of floats at 1, which bounds the rounding of G's entries
# (module docstring).
_EPS = float(np.finfo(float).eps)

# Spark's Gershgorin bound calls a subset size independent only when it
# puts lambda_min(G_T) above this, far above the 1e-18 sigma_max^2 the
# singular-value test needs.
_GERSHGORIN_MARGIN = 1e-6

# The simplex search reads pairs with |G_ij| at least mu minus this, or
# minus its proved radius where that is wider (module docstring).
_SIMPLEX_EPS = 1e-9

# rip_check certifies delta < 1 - _RIP_MARGIN: a true delta of exactly 1
# reads a few ulps either side of 1 and must not pass on its last bit.
_RIP_MARGIN = 1e-12

# rip_check stops once its running delta is this close to the Gershgorin
# bound, which no subset exceeds (module docstring).
_RIP_STOP = 1e-14


class _Geometry(NamedTuple):
    """The column geometry of a matrix A, formed once by `_geometry`.

    `u` holds the columns of A scaled to unit norm (zero columns left
    zero), `norms` their norms, `least` the least of them (0 exactly when
    A has a zero column), `scale` the norms with zeros read as 1 (the
    divisor of A's coefficients), g = U^T U, and mu = max|G - diag G|, the
    coherence.
    """

    u: np.ndarray
    norms: np.ndarray
    least: float
    scale: np.ndarray
    g: np.ndarray
    mu: float


def _geometry(a: np.ndarray) -> _Geometry:
    """The `_Geometry` of a validated float matrix.

    Each column's norm is the root of its plain sum of squares while
    `signal_space._plain_sum` accepts that sum; a column whose sum has
    overflowed, lost bits to underflow or is zero is retaken on its own by
    `signal_space._unit_scale`.  So a column's norm depends on that column
    alone, and is right at every finite scale.
    """
    with np.errstate(over="ignore"):  # an overflowed sum is retaken below
        ss = np.add.reduce(a * a, axis=0)
    norms = np.sqrt(ss)
    for j in np.flatnonzero(~_plain_sum(ss, len(a))):
        _, c, ssj = _unit_scale(a[:, j])
        norms[j] = c * math.sqrt(ssj)
    scale = np.where(norms == 0.0, 1.0, norms)
    u = a / scale
    g = u.T @ u
    return _Geometry(u, norms, float(norms.min()), scale, g,
                     float(np.abs(g - np.diag(g.diagonal())).max()))


def _correlated(a) -> _Geometry:
    """The geometry of `a`, which needs at least two columns and no zero column."""
    a = as_matrix(a)
    if a.shape[1] < 2:
        raise BadShape("column correlations need at least two columns")
    geo = _geometry(a)
    if not geo.least:
        raise ZeroColumn("matrix has a zero column")
    return geo


def coherence(a) -> float:
    """Largest absolute pairwise column cosine, in [0, 1]."""
    return _correlated(a).mu


def signed_coherence(a) -> float:
    """Largest pairwise column cosine without the absolute value.

    Kept alongside `coherence` because the magnitude-free maximum can be
    negative and carries sign information the bound arguments ignore.
    """
    return _signed_max(_correlated(a).g)


def _signed_max(g: np.ndarray) -> float:
    """The largest off-diagonal entry of the Gram matrix g."""
    return float(g[~np.eye(len(g), dtype=bool)].max())


def welch_bound(m: int, n: int) -> float:
    """Lower bound sqrt((n-m)/(m(n-1))) on the coherence of any m-by-n matrix, n > m."""
    m, n = as_count(m, "row count", 1), as_count(n, "column count", 1)
    if n <= m:
        raise BadShape(f"welch bound needs n > m, got m={m}, n={n}")
    return math.sqrt((n - m) / (m * (n - 1)))


def _subsets(n: int, k: int, chunk: int):
    """Yield the k-subsets of range(n) in lexicographic order, as rows of (<= chunk, k) arrays."""
    combos = combinations(range(n), k)
    while True:
        idx = np.fromiter(chain.from_iterable(islice(combos, chunk)), dtype=np.intp)
        if not idx.size:
            return
        yield idx.reshape(-1, k)


def _gram_blocks(g: np.ndarray, k: int):
    """Yield (subsets, blocks, suspect) over all k-subsets of the columns of A, chunked.

    g is the Gram matrix A^T A.  Subsets come from `_subsets`; the blocks
    are G_T = A_T^T A_T; `suspect` flags every subset that
    `_singular_values` could find rank-deficient.
    """
    for idx in _subsets(g.shape[0], k, _CHUNK):
        blocks = g[idx[:, :, None], idx[:, None, :]]  # (chunk, k, k)
        trace = np.trace(blocks, axis1=1, axis2=2)
        yield idx, blocks, np.linalg.det(blocks) <= _SCREEN * trace**k


def _singular_values(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Singular values, descending, of the column blocks a[:, row] for each row of idx."""
    return np.linalg.svd(np.moveaxis(a[:, idx], 1, 0), compute_uv=False)


def _dependent(u: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Spark's per-subset test on unit columns u: sigma_min <= 1e-9 sigma_max, per row of idx.

    A subset with more columns than u has rows is dependent outright.
    """
    if idx.shape[1] > u.shape[0]:
        return np.ones(idx.shape[0], dtype=bool)
    sv = _singular_values(u, idx)
    return sv[:, -1] <= _RANK_RTOL * sv[:, 0]


def _rank(sv: np.ndarray) -> int:
    """Number of singular values (descending) above 1e-9 of the largest."""
    return int(np.count_nonzero(sv > _RANK_RTOL * sv[0]))


def _check_budget(count: int, budget: int, what: str, items: str) -> None:
    """BudgetExceeded when `what` would enumerate more than `budget` `items`, `count` of them."""
    if count > budget:
        raise BudgetExceeded(f"{what} would enumerate {count} {items} (budget {budget})")


def spark(a, budget: int = DEFAULT_BUDGET):
    """Smallest number of linearly dependent columns.

    Returns math.inf when the columns are independent (full column rank),
    rather than a numeric stand-in.  A subset is dependent when the
    smallest singular value of its unit-norm columns is at most 1e-9 of
    their largest, so column scale does not change the spark.  The spark
    is settled from the rank, the nullity, the Gershgorin lower bound L,
    a witness W and, at L = 1 + 1/mu, a search for a dependent simplex
    of L columns (module docstring); only the sizes those leave open are
    enumerated, in increasing order, each against the budget, and the
    per-subset test runs only on the subsets the Gram determinant screen
    flags.

    Nullity one.  Let U (unit columns) have rank n - 1, v the unit right
    singular vector of its smallest singular value (its null vector), and
    S the indices i with sigma_{n-1}(U) |v_i| > 1e-9 sigma_max(U).  A
    subset T that misses some i in S passes as independent: for x
    supported on T, split x = <x, v> v + w with w orthogonal to v; since
    x_i = 0, |<x, v>| <= |x| sqrt(1 - v_i^2), so |w| >= |v_i| |x|; U v and
    U w are orthogonal, so |U_T x| = |U x| >= |U w| >= sigma_{n-1}(U) |w|
    >= sigma_{n-1}(U) |v_i| |x| > 1e-9 sigma_max(U) |x|
    >= 1e-9 sigma_max(U_T) |x|.  So every dependent subset contains S, and
    if U_S itself fails the test, the spark is |S|.
    """
    budget = as_count(budget, "budget", 0)
    return _spark(_geometry(as_matrix(a)), budget)[0]


def _spark(geo: _Geometry, budget: int):
    """(spark, the bound that decided it: "rank", "nullity", "bounds" or "enumeration").

    "bounds" covers the Gershgorin and witness bounds and the simplex search.
    """
    u, g, mu = geo.u, geo.g, geo.mu
    m, n = u.shape
    sv = np.linalg.svd(u, compute_uv=False)
    rank = _rank(sv)
    if rank == n:
        return math.inf, "rank"
    if n > 1 and rank == n - 1:
        v = np.linalg.svd(u, full_matrices=n > m)[2][-1]
        essential = np.flatnonzero(sv[n - 2] * np.abs(v) > _RANK_RTOL * sv[0])
        if essential.size and _dependent(u, essential[None, :])[0]:
            return essential.size, "nullity"

    least = float(g.diagonal().min())  # 1 up to rounding, or 0 for a zero column
    low = 1
    while low <= n and least - (low - 1) * mu > _GERSHGORIN_MARGIN:
        low += 1

    high = m + 1 if n > m else n
    groups: dict[bytes, list[int]] = {}
    for j, support in enumerate((u != 0.0).T):
        groups.setdefault(support.tobytes(), []).append(j)
    for cols in groups.values():
        r = _rank(np.linalg.svd(u[:, cols], compute_uv=False))
        if r < len(cols) and r + 1 < high and _dependent(u, np.array([cols[: r + 1]]))[0]:
            high = r + 1

    # the simplex search's proved radius is low * slack (module docstring)
    slack = 2e-18 * low + max(0.0, (low - 1) * mu - least) + low * (m + 2) * _EPS
    if low < high and low * slack <= mu / 100:
        found = _simplex(geo, low, max(_SIMPLEX_EPS, low * slack), budget)
        if found:
            return low, "bounds"
        if found is not None:  # exhausted: no dependent set of size low
            low += 1
    if low >= high:
        return high, "bounds"
    for k in range(low, high):
        _check_budget(math.comb(n, k), budget, "spark", f"subsets of size {k}")
        for idx, _, suspect in _gram_blocks(g, k):
            if suspect.any() and _dependent(u, idx[suspect]).any():
                return k, "enumeration"
    return high, "enumeration"


def _simplex(geo: _Geometry, size: int, eps: float, budget: int):
    """Whether `size` columns form a dependent sign-switched simplex; None once the budget runs out.

    The search of the module docstring's simplex bound, over the pairs
    with |G_ij| >= mu - eps.  Each node is one partial set, and the
    search gives up after `budget` of them.  From root i, the columns
    after it that pair with it, each signed -sign(G_ij), are held as
    bitmasks of the ones each can join; a set grows by the lowest
    candidate first, keeps the candidates that pair with all of it, and
    stops where too few are left to reach `size`.
    """
    u, g, mu = geo.u, geo.g, geo.mu
    near = np.abs(g) >= mu - eps
    nodes = 0
    for root in range(len(g) - size + 1):
        cols = root + 1 + np.flatnonzero(near[root, root + 1:])
        if cols.size < size - 1:
            continue
        sign = -np.sign(g[root, cols])
        joins = g[np.ix_(cols, cols)] * np.outer(sign, sign) <= eps - mu
        masks = [int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(joins, axis=1, bitorder="little")]
        stack = [((), (1 << cols.size) - 1)]
        while stack:
            chosen, cands = stack.pop()
            nodes += 1
            if nodes > budget:
                return None
            need = size - 1 - len(chosen)
            if not need:
                if _dependent(u, np.array([(root, *cols[list(chosen)])]))[0]:
                    return True
                continue
            while cands.bit_count() >= need:
                bit = cands & -cands
                cands ^= bit
                c = bit.bit_length() - 1
                stack.append((chosen + (c,), cands & masks[c]))
    return False


def max_sparsity(a) -> int:
    """Largest k <= columns with k < (1 + 1/coherence)/2, the lossless-recovery bound."""
    geo = _correlated(a)
    return _sparsity_bound(geo.mu, len(geo.g))


def _sparsity_bound(mu: float, n: int) -> int:
    """`max_sparsity` of an n-column matrix of coherence mu, at most n."""
    if mu == 0.0:
        return n
    v = 0.5 * (1.0 + 1.0 / mu)
    nearest = round(v)
    # strict inequality at an integer boundary
    k = int(nearest) - 1 if abs(v - nearest) < 1e-9 else math.floor(v)
    return min(k, n)  # orthogonal unit-norm columns read a few ulps, not 0


class RipResult(NamedTuple):
    delta: float
    satisfied: bool


def rip_check(a, k: int, normalize: bool = False, budget: int = DEFAULT_BUDGET) -> RipResult:
    """Exact restricted-isometry constant over all k-column submatrices.

    delta is the largest deviation max(sigma_max^2 - 1, 1 - sigma_min^2)
    over every k-column submatrix; the property holds when delta < 1.
    The certificate is scale-sensitive, so columns should be unit-norm;
    pass normalize=True to rescale them first (`_geometry`).

    The squared singular values of a submatrix are the eigenvalues of its
    Gram block, so delta comes from `eigvalsh` of the blocks.  Blocks the
    determinant screen flags as possibly rank-deficient take their extreme
    singular values from an SVD of the column block instead, so that a
    dependent subset reads sigma_min^2 = 0 and delta = 1 exactly, not a
    rounding error below it.  With k above the row count, sigma_min = 0.

    Enumeration stops after the chunk in which delta comes within 1e-14
    of the Gershgorin bound that no k-subset exceeds (module docstring),
    so delta is a real subset's value within 1e-14 of the full maximum.
    `satisfied` could differ from the full maximum's only if that lay
    within 1e-14 above 1 - 1e-12, inside the margin's own rounding band.
    """
    a, budget = as_matrix(a), as_count(budget, "budget", 0)
    k = _sparsity_k(k, a.shape[1])
    if not normalize:
        return _rip(a, a.T @ a, k, budget)
    geo = _geometry(a)
    if not geo.least:
        raise ZeroColumn("cannot normalize a zero column")
    return _rip(geo.u, geo.g, k, budget)


def _sparsity_k(k, n: int) -> int:
    """`k` as an int in 1..n, else BadShape."""
    k = as_count(k, "sparsity", 0)
    if not 1 <= k <= n:
        raise BadShape(f"sparsity k={k} out of range for {n} columns")
    return k


def _rip(a: np.ndarray, g: np.ndarray, k: int, budget: int) -> RipResult:
    """`rip_check` of the matrix a with Gram matrix g = A^T A, for a valid k."""
    m, n = a.shape
    _check_budget(math.comb(n, k), budget, "rip_check", f"subsets of size {k}")
    off = np.abs(g - np.diag(g.diagonal()))
    radius = np.sort(off, axis=1)[:, n - k + 1:].sum(axis=1)  # the k-1 largest per column
    bound = float(np.max(np.abs(g.diagonal() - 1.0) + radius))
    if k > m:
        bound = max(bound, 1.0)
    delta = 0.0
    for idx, blocks, suspect in _gram_blocks(g, k):
        lam = np.linalg.eigvalsh(blocks)  # ascending
        top, low = lam[:, -1], lam[:, 0]
        if np.any(suspect):
            sv = _singular_values(a, idx[suspect])
            top[suspect], low[suspect] = sv[:, 0] ** 2, sv[:, -1] ** 2
        if k > m:
            low[:] = 0.0
        delta = max(delta, float(np.max(top - 1.0)), float(np.max(1.0 - low)))
        if delta >= bound - _RIP_STOP:
            break
    return RipResult(delta, delta < 1.0 - _RIP_MARGIN)


@dataclass
class CsReport:
    """Quality metrics of the class of a sensing matrix, read on its atom (`class_metrics`)."""

    coherence: float
    signed_coherence: float
    welch_bound: float | None
    spark: float  # positive integer, or math.inf when columns are independent
    spark_by: str  # the bound that decided spark: rank, nullity, bounds or enumeration
    max_k: int
    rip: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "coherence": self.coherence,
            "signed_coherence": self.signed_coherence,
            "welch_bound": self.welch_bound,
            "spark": None if math.isinf(self.spark) else int(self.spark),
            "spark_infinite": bool(math.isinf(self.spark)),
            "spark_by": self.spark_by,
            "max_k": self.max_k,
        }
        if self.rip is not None:
            out["rip"] = self.rip
        return out


def class_metrics(a, rip_k: int | None = None, budget: int = DEFAULT_BUDGET) -> CsReport:
    """Metrics of the class of `a`, `a` and all of its lifts on either side.

    They are computed on the class atom, the smaller of a's LEFT and RIGHT
    atoms (`signal_space._class_atom`), so A, A (x) I_s and I_s (x) A all
    get one report, and no side is asked for.  The atom needs at least two
    columns and no zero column, as `coherence` does.
    """
    budget = as_count(budget, "budget", 0)
    geo = _correlated(_class_atom(a))
    m, n = geo.u.shape
    spark_value, spark_by = _spark(geo, budget)
    report = CsReport(
        coherence=geo.mu,
        signed_coherence=_signed_max(geo.g),
        welch_bound=welch_bound(m, n) if n > m else None,
        spark=spark_value,
        spark_by=spark_by,
        max_k=_sparsity_bound(geo.mu, n),
    )
    if rip_k is not None:
        k = _sparsity_k(rip_k, n)
        res = _rip(geo.u, geo.g, k, budget)
        report.rip = {"k": k, "delta": res.delta, "satisfied": res.satisfied}
    return report

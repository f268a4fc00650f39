"""Equivalence-class arithmetic on the cross-dimensional signal space.

A signal x and its ones-lift represent the same underlying signal sampled
at different rates.  Each equivalence class has a unique irreducible
representative (its *atom*); class dimension is the atom's dimension.
This module reduces signals/matrices to atoms, tests equivalence, and
equips the quotient with a lift-invariant inner product, norm, distance,
angle, and a cross-dimensional projection.

Reduction is the quotient map, and it builds no lift: `reduce_signal`
prunes the candidate multiplicities in one pass before testing the rest
block by block, and `reduce_matrix` reads the diagonal blocks of a
reshaped view of its input.  Entries count as equal within REDUCE_RTOL
times the largest |entry|, so a reduction gives the same answer when the
input is scaled.

The inner product of x in R^m and y in R^n lifts both to t = lcm(m, n)
and scales by 1/t, which makes it invariant under replacing either
argument by any lift of itself (same-side lifts).  `inner_v`, `project`
and `basis.coordinates` take <x, d(n, j)> from one kernel, `_generator_products`.
"""

from __future__ import annotations

from math import gcd, inf, isqrt, lcm, sqrt

import numpy as np

from .errors import BadShape, ZeroVector
from .stp import Side, as_matrix, as_side, as_signal, sta, unlift

__all__ = [
    "reduce_signal",
    "reduce_matrix",
    "equivalent",
    "matrices_equivalent",
    "inner_v",
    "norm_v",
    "dist_v",
    "angle_v",
    "projection_matrix",
    "project",
]

# Relative tolerance of the block-constancy test during reduction: two
# entries agree when they differ by at most REDUCE_RTOL * max|input|, so a
# reduction answers the same at every scale.  For integer-valued data the
# comparison is effectively exact.
REDUCE_RTOL = 1e-12

# The diagonal test of `reduce_matrix` takes its differences in chunks of
# rows holding about this many floats, whatever the size of the input.
_REDUCE_CHUNK = 1 << 18

# The smallest normal float.  A mean square outside [_TINY, inf) has
# overflowed or lost bits to underflow, and is retaken on the signal
# scaled by its largest |entry| (`norm_v`, `basis.coordinates`).  The
# plain sum of squares is np.vdot's: the same BLAS dot as `x @ x`, but one
# that raises no overflow warning.
_TINY = float(np.finfo(float).tiny)

# `angle_v` takes <x, y> / (||x|| ||y||) as given while both norms lie in
# [1 / _ANGLE_PLAIN, _ANGLE_PLAIN]: for any signal that fits in memory no
# sum or product inside `inner_v` can then overflow, and the denominator
# stays far inside the normal range.
_ANGLE_PLAIN = 1e100


def _divisors_desc(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)}, reverse=True)


def _scale(a: np.ndarray) -> float:
    """max|a| without building |a|."""
    return float(max(a.max(), -a.min()))


def _diagonal_within(diag: np.ndarray, atom: np.ndarray, tol: float) -> bool:
    """max |diag - atom[:, :, None]| <= tol, over chunks of rows of about _REDUCE_CHUNK floats."""
    step = max(1, _REDUCE_CHUNK // diag[0].size)
    for i in range(0, len(diag), step):
        if np.abs(diag[i:i + step] - atom[i:i + step, :, None]).max() > tol:
            return False
    return True


def _beyond(a: np.ndarray, tol: float) -> int:
    """How many entries of `a` lie farther than `tol` from zero, without building |a|."""
    return np.count_nonzero(a > tol) + np.count_nonzero(a < -tol)


def reduce_signal(x, side: Side = Side.LEFT, rtol: float = REDUCE_RTOL):
    """Return (atom, multiplicity) with x == lift(atom, multiplicity).

    Entries count as equal within rtol * max|x|.  The atom is the unique
    irreducible representative of x's class; multiplicities are tried in
    decreasing order, so the first match is maximal and the returned atom
    is irreducible.  One O(p) pass first drops every multiplicity s that
    fails a necessary part of the block test: on LEFT, block 0 of an s-fold
    lift starts with the run x[:s] of equal entries, so s cannot pass the
    first entry that differs from x[0]; on RIGHT, block 1 starts at x[p/s],
    which must equal x[0].  Only the survivors get the full test
    (`stp.unlift`), so an irreducible x usually costs the one pass.
    """
    x, side = as_signal(x), as_side(side)
    p = x.size
    divs = _divisors_desc(p)[:-1]
    if not divs:
        return x.copy(), 1
    tol = rtol * _scale(x)
    if side is Side.LEFT:
        far = np.abs(x - x[0]) > tol
        first = int(far.argmax()) or p  # far[0] is False: argmax 0 means none is far
        divs = [s for s in divs if s <= first]
    else:
        near = np.abs(x[p // np.array(divs)] - x[0]) <= tol
        divs = [s for s, ok in zip(divs, near) if ok]
    for s in divs:
        atom = unlift(x, s, side, tol)
        if atom is not None:
            return atom, s
    return x.copy(), 1


def reduce_matrix(a, side: Side = Side.LEFT, rtol: float = REDUCE_RTOL):
    """Return (atom, multiplicity) with a == atom (x) I_s (LEFT) or I_s (x) atom.

    Entries count as equal within rtol * max|a|, and multiplicities s (the
    divisors of gcd(rows, cols)) are tried in decreasing order.  Each test
    is made in block form, without building the candidate lift: viewed as
    (m0, s, n0, s) on LEFT or (s, m0, s, n0) on RIGHT, an s-fold lift has
    the atom in each of its s diagonal blocks and zeros elsewhere.  The
    diagonal view is compared with the atom in chunks of rows, stopping at
    the first that differs, and the off-diagonal blocks are zero exactly
    when the whole matrix has no more entries beyond the tolerance than the
    diagonal view; the whole-matrix count is taken once.  The test holds
    about _REDUCE_CHUNK floats, and bool masks of the input.  The atom of
    a reducible matrix is a copy; an irreducible matrix is its own atom and
    comes back as `as_matrix` reads it, not copied.
    """
    a, side = as_matrix(a), as_side(side)
    m, n = a.shape
    tol = rtol * _scale(a)
    beyond = None
    for s in _divisors_desc(gcd(m, n))[:-1]:
        if side is Side.LEFT:
            v = a.reshape(m // s, s, n // s, s)
            atom, diag = v[:, 0, :, 0], np.diagonal(v, axis1=1, axis2=3)
        else:
            v = a.reshape(s, m // s, s, n // s)
            atom, diag = v[0, :, 0, :], np.diagonal(v, axis1=0, axis2=2)
        if not _diagonal_within(diag, atom, tol):
            continue
        if beyond is None:
            beyond = _beyond(a, tol)
        if _beyond(diag, tol) == beyond:
            return atom.copy(), s
    return a, 1


def equivalent(x, y, side: Side = Side.LEFT, rtol: float = REDUCE_RTOL) -> bool:
    """True iff x and y reduce to the same atom, within rtol times the larger max|atom|."""
    ax, _ = reduce_signal(x, side, rtol)
    ay, _ = reduce_signal(y, side, rtol)
    return ax.size == ay.size and np.abs(ax - ay).max() <= rtol * max(_scale(ax), _scale(ay))


def matrices_equivalent(a, b, side: Side = Side.LEFT, rtol: float = REDUCE_RTOL) -> bool:
    """True iff a and b reduce to the same matrix atom, within rtol times the larger max|atom|."""
    aa, _ = reduce_matrix(a, side, rtol)
    ab, _ = reduce_matrix(b, side, rtol)
    return aa.shape == ab.shape and np.abs(aa - ab).max() <= rtol * max(_scale(aa), _scale(ab))


def _generator_products(x: np.ndarray, ns: np.ndarray, js: np.ndarray, side: Side) -> np.ndarray:
    """<x, d(n, j)> for each pair of the integer arrays ns, js, without lifting x.

    With p = dim x: RIGHT sums x over the residue class j - 1 mod gcd(p, n)
    and divides by lcm(p, n).  LEFT integrates x's step function over the
    cell [(j-1)/n, j/n), as (n * sum x[q_lo:q_hi] + r_hi * x[q_hi] - r_lo * x[q_lo]) / (n p)
    with (q, r) = divmod((j-1)p, n) and divmod(jp, n).  Each segment is summed on
    its own: a difference of prefix sums would cancel small entries next to large ones.
    """
    p = x.size
    if side is Side.RIGHT:
        g = np.gcd(p, ns)
        b = np.empty(ns.shape)
        for d in set(g.tolist()):
            b[g == d] = x.reshape(-1, d).sum(0)[(js[g == d] - 1) % d]
        return b / np.lcm(p, ns)
    q, r = np.divmod(np.array([js - 1, js]) * p, ns)
    xz = np.concatenate((x, [0.0]))  # q_hi reaches p at j = n
    # reduceat sums each segment x[q_lo:q_hi], but reads an empty one as x[q_lo]
    seg = np.where(q[0] < q[1], np.add.reduceat(xz, q.T.ravel())[::2], 0.0)
    ends = r * xz[q]
    return (ns * seg + ends[1] - ends[0]) / (ns * p)


def inner_v(x, y, side: Side = Side.LEFT) -> float:
    """Lift-invariant inner product: lift both to lcm dim, dot, divide by dim.

    Computed without the lifts, as sum_j x[j] <y, d(dim x, j)> (`_generator_products`).
    """
    x, y, side = as_signal(x), as_signal(y), as_side(side)
    a = x.size
    return float(x @ _generator_products(y, np.full(a, a), np.arange(1, a + 1), side))


def norm_v(x) -> float:
    """Lift-invariant norm sqrt(x.x / dim); independent of the side.

    The plain mean square is used while it is a normal float; otherwise
    the norm is taken of x scaled by its largest |entry|, so it is right
    at every finite scale.
    """
    x = as_signal(x)
    ms = float(np.vdot(x, x)) / x.size
    if not _TINY <= ms < inf:
        peak = _scale(x)
        if peak:
            return peak * norm_v(x / peak)
    return sqrt(ms)


def dist_v(x, y, side: Side = Side.LEFT) -> float:
    """Distance between classes: zero exactly when x and y are equivalent."""
    return norm_v(sta(x, y, side, subtract=True))


def angle_v(x, y, side: Side = Side.LEFT) -> float:
    """Angle (radians) between two nonzero classes.

    The cosine is clamped to [-1, 1] so parallel inputs never produce NaN.
    Outside the norms where <x, y> / (||x|| ||y||) is safe as given
    (_ANGLE_PLAIN) it is taken from x / ||x|| and y / ||y||.  Raises
    ZeroVector if either argument has zero norm.
    """
    nx, ny = norm_v(x), norm_v(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("angle is undefined for a zero signal")
    lo, hi = 1.0 / _ANGLE_PLAIN, _ANGLE_PLAIN
    if lo <= nx <= hi and lo <= ny <= hi:
        c = inner_v(x, y, side) / (nx * ny)
    else:
        c = inner_v(as_signal(x) / nx, as_signal(y) / ny, side)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def projection_matrix(m: int, n: int, side: Side = Side.LEFT) -> np.ndarray:
    """The n-by-m matrix projecting R^m onto R^n in the quotient geometry.

    With t = lcm(m, n) the LEFT form is (n/t)(I_n (x) 1_{t/n}^T)(I_m (x) 1_{t/m});
    RIGHT mirrors the ones-blocks to the other Kronecker side.  Applying it to
    x in R^m gives the distance-minimizing element of R^n, and the residual is
    orthogonal to every vector of R^n under the matching inner product.
    A reference construction: `project` applies it without building it.
    """
    if m < 1 or n < 1:
        raise BadShape("projection_matrix needs positive dimensions")
    side = as_side(side)
    t = lcm(m, n)
    jn = np.ones((t // n, 1))
    jm = np.ones((t // m, 1))
    if side is Side.LEFT:
        lift_n = np.kron(np.eye(n), jn)  # t x n
        lift_m = np.kron(np.eye(m), jm)  # t x m
    else:
        lift_n = np.kron(jn, np.eye(n))
        lift_m = np.kron(jm, np.eye(m))
    return (n / t) * lift_n.T @ lift_m


def project(x, n: int, side: Side = Side.LEFT) -> np.ndarray:
    """Project a signal onto R^n (closest point in the quotient distance).

    Equals projection_matrix(dim x, n, side) @ x: entry j is
    n <x, d(n, j)>, from `_generator_products`, so no lift is built.
    """
    x, side = as_signal(x), as_side(side)
    if n < 1:
        raise BadShape("projection target dimension must be positive")
    if n == x.size:
        return x.copy()
    return n * _generator_products(x, np.full(n, n), np.arange(1, n + 1), side)

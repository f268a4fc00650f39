"""Equivalence-class arithmetic on the cross-dimensional signal space.

A signal x and its ones-lift represent the same underlying signal sampled
at different rates.  Each equivalence class has a unique irreducible
representative (its *atom*); class dimension is the atom's dimension.
This module reduces signals/matrices to atoms, tests equivalence, and
equips the quotient with a lift-invariant inner product, norm, distance,
angle, and a cross-dimensional projection.

Two signals x in R^p and y in R^q are equivalent when their lifts to
L = lcm(p, q) are equal: x (x) 1_{L/p} = y (x) 1_{L/q} on LEFT and
1_{L/p} (x) x = 1_{L/q} (x) y on RIGHT (Cheng 2019).  `equivalent` tests
that definition in one O(p + q) pass that builds neither lift.  On LEFT
every overlapping pair of cells of the two lifts meets at the start of
one of them, so it compares x and y at the p + q cell starts.  On RIGHT
entry i of x meets entry j of y iff i = j mod gcd(p, q), so it compares
the largest and smallest entries of each residue class.  In exact
arithmetic this is the same as x and y having one atom;
`matrices_equivalent` compares atoms.

Reduction is the quotient map, and it builds no lift: `reduce_signal`
prunes the candidate multiplicities in one pass before testing the rest
block by block, and `reduce_matrix` reads the diagonal blocks of a
reshaped view of its input.  Reductions and equivalence tests all use
the one tolerance REDUCE_RTOL: entries count as equal within REDUCE_RTOL
times the largest |entry|, so a reduction gives the same answer when the
input is scaled.  They also share one comparison rule: each takes its
differences by `stp._gap`, under which a difference beyond the float
range reads as inf, so finite entries near the float maximum compare as
far apart, with no warning.

The inner product of x in R^m and y in R^n lifts both to t = lcm(m, n)
and scales by 1/t, which makes it invariant under replacing either
argument by any lift of itself (same-side lifts).  `inner_v`, `project`
and `basis.coordinates` take <x, d(n, j)> from one kernel,
`_generator_products`, in two halves: an integer plan fixed by the cells
(n, j), p = dim x and the side (`_plan`: gcds, residue offsets and
denominators on RIGHT, divmod cell bounds on LEFT), and the float read
of x against it (`_read`).  `basis.coordinates` reads the same cells of
one basis for many signals, so it takes its plans from one memo,
`_plan_of`: a bounded `functools.lru_cache` of _PLAN_MEMO_SIZE (128)
plans keyed by contents (the cells' bytes, p and the side), never by
identity, whose arrays are read-only and which holds no caller's buffer.
Its memory is at most 128 entries of a few arrays of the basis's cell
count, 65 bytes a cell on LEFT: 1.3 MiB for the 159 LEFT cells of m = 16,
48 MiB for the 6087 of m = 100.  `inner_v`, `project` and
`angle_v` read one whole layer d(n, 1..n), whose plan has a closed form
(`_layer`), so they build no per-cell arrays and use no memo.  Every path
makes the same float operations on the same operands.

Every norm in the package follows one scale rule (Blue 1978, ACM TOMS
4(1)): the squares are summed plainly, and the sum is retaken on
x / max|x| only where its mean is not a normal float, where it has
overflowed or lost bits to underflow.  `_plain_sum` makes that test and
`_unit_scale` the retake, for `norm_v`, the Parseval test of
`basis.coordinates` and each column norm of `metrics._geometry`.  The
generator products of `inner_v`, `project` and `basis.coordinates` are
taken on the same rescaled signal (both rescaled signals, for `inner_v`)
and scaled back, so that no partial sum overflows while the answer is
finite.  `dist_v` retakes its difference on x / c and y / c, c the
larger max|.|, where the plain difference overflows.
`angle_v` takes the inner product of x / ||x|| and y / ||y||, which
cannot overflow; where a norm is below the smallest normal float it
normalises the rescaled copy from `_unit_scale` instead, since a
subnormal norm has lost bits, so the angle is right at every scale.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, inf, isqrt, lcm, sqrt

import numpy as np

from .errors import ZeroVector
from .stp import Side, _gap, as_count, as_matrix, as_side, as_signal, sta, unlift

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
# overflowed or lost bits to underflow, and `_plain_sum` rejects it.
_TINY = float(np.finfo(float).tiny)

# How many read plans `_plan_of` keeps; the module docstring gives their key and memory.
_PLAN_MEMO_SIZE = 128


def _divisors_desc(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)}, reverse=True)


def _scale(a: np.ndarray) -> float:
    """max|a| without building |a|."""
    return float(max(a.max(), -a.min()))


def _plain_sum(ss, dim: int):
    """Whether a sum ss of dim squares holds as taken: its mean is a normal float.

    Elementwise over arrays.  The one test of the package's scale rule
    (module docstring).
    """
    return (_TINY <= ss / dim) & (ss / dim < inf)


def _unit_scale(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(x, 1, x.x) while `_plain_sum` accepts x.x; else (x / c, c, (x / c).(x / c)).

    With c = max|x| the rescaled sum lies in [1, dim], so c times its root
    is the norm of x at every finite scale.  A zero x comes back as
    (x, 1, 0).  The sum is np.vdot's: the same BLAS dot as `x @ x`, but one
    that raises no overflow warning.
    """
    ss = float(np.vdot(x, x))
    if _plain_sum(ss, x.size) or not (c := _scale(x)):
        return x, 1.0, ss
    x = x / c
    return x, c, float(np.vdot(x, x))


def _diagonal_within(diag: np.ndarray, atom: np.ndarray, tol: float) -> bool:
    """max |diag - atom[:, :, None]| <= tol, over chunks of rows of about _REDUCE_CHUNK floats."""
    step = max(1, _REDUCE_CHUNK // diag[0].size)
    for i in range(0, len(diag), step):
        if _gap(diag[i:i + step], atom[i:i + step, :, None]).max() > tol:
            return False
    return True


def _beyond(a: np.ndarray, tol: float) -> int:
    """How many entries of `a` lie farther than `tol` from zero, without building |a|."""
    return np.count_nonzero(a > tol) + np.count_nonzero(a < -tol)


def reduce_signal(x, side: Side = Side.LEFT):
    """Return (atom, multiplicity) with x == lift(atom, multiplicity).

    Entries count as equal within REDUCE_RTOL * max|x|.  The atom is the unique
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
    tol = REDUCE_RTOL * _scale(x)
    if side is Side.LEFT:
        far = _gap(x, x[0]) > tol
        first = int(far.argmax()) or p  # far[0] is False: argmax 0 means none is far
        divs = [s for s in divs if s <= first]
    else:
        near = _gap(x[p // np.array(divs)], x[0]) <= tol
        divs = [s for s, ok in zip(divs, near) if ok]
    for s in divs:
        atom = unlift(x, s, side, tol)
        if atom is not None:
            return atom, s
    return x.copy(), 1


def reduce_matrix(a, side: Side = Side.LEFT):
    """Return (atom, multiplicity) with a == atom (x) I_s (LEFT) or I_s (x) atom.

    Entries count as equal within REDUCE_RTOL * max|a|, and multiplicities s (the
    divisors of gcd(rows, cols)) are tried in decreasing order.  Each test
    is made in block form, without building the candidate lift: viewed as
    (m0, s, n0, s) on LEFT or (s, m0, s, n0) on RIGHT, an s-fold lift has
    the atom in each of its s diagonal blocks and zeros elsewhere.  The
    diagonal view is compared with the atom in chunks of rows, stopping at
    the first that differs, and the off-diagonal blocks are zero exactly
    when the whole matrix has no more entries beyond the tolerance than the
    diagonal view; the whole-matrix count is taken once.  The test holds
    about _REDUCE_CHUNK floats, and bool masks of the input; with
    gcd(rows, cols) = 1 there is nothing to test.  The atom of a reducible
    matrix is a copy; an irreducible matrix is its own atom and comes back
    as `as_matrix` reads it, not copied.
    """
    a, side = as_matrix(a), as_side(side)
    m, n = a.shape
    if gcd(m, n) == 1:
        return a, 1
    tol = REDUCE_RTOL * _scale(a)
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


def equivalent(x, y, side: Side = Side.LEFT) -> bool:
    """True iff the lifts of x and y to lcm(dim x, dim y) agree entrywise.

    Entries count as equal within REDUCE_RTOL times the larger of max|x|
    and max|y|.  Neither lift is built (module docstring).  With p = dim x,
    q = dim y and g = gcd(p, q): LEFT compares x[i] with y[i (q/g) // (p/g)],
    the entry of y whose cell holds the start of x's cell i, and y[j] with
    x[j (p/g) // (q/g)]; RIGHT compares, in each residue class mod g, the
    largest entry of either signal with the other's smallest.
    """
    x, y, side = as_signal(x), as_signal(y), as_side(side)
    p, q = x.size, y.size
    g = gcd(p, q)
    # w's first half is compared with its second; between them the halves
    # hold max|x| and max|y|, so _scale(w) sets the tolerance
    if side is Side.LEFT:
        a, b = p // g, q // g  # i b and j a stay below lcm(p, q), inside int64
        i, j = np.arange(p, dtype=np.int64), np.arange(q, dtype=np.int64)
        w = np.concatenate((x, y, y[i * b // a], x[j * a // b]))
    else:
        xs, ys = x.reshape(-1, g), y.reshape(-1, g)
        w = np.concatenate((xs.max(0), ys.max(0), ys.min(0), xs.min(0)))
    n = w.size // 2
    return bool(_gap(w[:n], w[n:]).max() <= REDUCE_RTOL * _scale(w))


def matrices_equivalent(a, b, side: Side = Side.LEFT) -> bool:
    """True iff a and b reduce to the same matrix atom.

    Entries count as equal within REDUCE_RTOL times the larger max|atom|.
    This compares atoms where `equivalent` compares lifts; the two rules
    agree in exact arithmetic.
    """
    a, b = reduce_matrix(a, side)[0], reduce_matrix(b, side)[0]
    tol = REDUCE_RTOL * max(_scale(a), _scale(b))
    return a.shape == b.shape and bool(_gap(a, b).max() <= tol)


def _class_atom(a) -> np.ndarray:
    """The smaller of a's LEFT and RIGHT atoms, the LEFT one on a tie.

    A matrix and all of its lifts on either side form one class, and the
    class invariants (coherence, spark, RIP, the sparsity bound) read the
    same on either atom, so the caller names no side.
    """
    return min((reduce_matrix(a, side)[0] for side in Side), key=np.size)


def _generator_products(x: np.ndarray, ns: np.ndarray, js: np.ndarray, side: Side) -> np.ndarray:
    """<x, d(n, j)> for each pair of the integer arrays ns, js, without lifting x.

    With p = dim x: RIGHT sums x over the residue class j - 1 mod gcd(p, n)
    and divides by lcm(p, n).  LEFT integrates x's step function over the
    cell [(j-1)/n, j/n), as (n * sum x[q_lo:q_hi] + r_hi * x[q_hi] - r_lo * x[q_lo]) / (n p)
    with (q, r) = divmod((j-1)p, n) and divmod(jp, n).  Each segment is summed on
    its own: a difference of prefix sums would cancel small entries next to large ones.
    The integer work is a plan of the cells and p alone (`_plan`); `_read` does the rest.
    """
    return _read(x, _plan(ns, js, x.size, side), side)


def _plan(ns: np.ndarray, js: np.ndarray, p: int, side: Side) -> tuple:
    """What reading a dim-p signal against the cells d(ns, js) needs of the cells alone.

    RIGHT: the distinct gcds d of p and n, each cell's index into the
    concatenated residue-class sums of those d, and the denominators
    lcm(p, n).  LEFT: the cell bounds (q, r), q in reduceat's index order,
    which cells hold a whole entry, the layers ns and the denominators n p.
    Factors are held as the floats that numpy would cast them to in each read.
    """
    if side is Side.RIGHT:
        g = np.gcd(p, ns)
        ds = np.array(sorted(set(g.tolist())))  # not np.unique, which imports numpy.ma
        starts = np.cumsum(ds) - ds  # where the sums of each d begin in the table
        idx = starts[np.searchsorted(ds, g)] + (js - 1) % g
        return tuple(ds.tolist()), idx, np.lcm(p, ns).astype(float)
    q, r = np.divmod(np.array([js - 1, js]) * p, ns)
    return q.T.ravel(), q[0] < q[1], r.astype(float), ns.astype(float), (ns * p).astype(float)


def _read(x: np.ndarray, plan: tuple, side: Side) -> np.ndarray:
    """`_generator_products` of x against the plan of its cells (`_plan`)."""
    if side is Side.RIGHT:
        ds, idx, den = plan
        return np.concatenate([x.reshape(-1, d).sum(0) for d in ds])[idx] / den
    idx, whole, r, ns, den = plan
    q = idx.reshape(-1, 2).T
    xz = np.concatenate((x, [0.0]))  # q_hi reaches p at j = n
    # reduceat sums each segment x[q_lo:q_hi], but reads an empty one as x[q_lo]
    seg = np.where(whole, np.add.reduceat(xz, idx)[::2], 0.0)
    ends = r * xz[q]
    return (ns * seg + ends[1] - ends[0]) / den


@lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _plan_of(cells: bytes, p: int, side: Side) -> tuple:
    """The read-only `_plan` of the cells whose (2, k) default-int array has these bytes."""
    plan = _plan(*np.frombuffer(cells, dtype=int).reshape(2, -1), p, side)
    for a in plan:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def _cell_products(x: np.ndarray, cells: np.ndarray, side: Side) -> np.ndarray:
    """`_generator_products(x, *cells, side)`, its plan from the memo, keyed by contents."""
    return _read(x, _plan_of(np.asarray(cells, dtype=int).tobytes(), x.size, side), side)


def _layer(x: np.ndarray, n: int, side: Side) -> np.ndarray:
    """<x, d(n, j)> for j = 1..n: `_generator_products` on one whole layer, in closed form.

    The same float operations on the same operands, so the same bits.
    RIGHT: every cell has gcd g = gcd(p, n), and cell j reads sum j - 1 mod g.
    LEFT: cell j ends where cell j + 1 begins, so one divmod of the n + 1
    bounds gives all of them, and the segments, consecutive, are summed on
    x itself; a zero-padded copy would lengthen the last one and change its
    pairwise grouping.
    """
    p = x.size
    if side is Side.RIGHT:
        g = gcd(p, n)
        return np.tile(x.reshape(-1, g).sum(0) / lcm(p, n), n // g)
    q, r = np.divmod(np.arange(n + 1) * p, n)
    seg = np.where(q[:-1] < q[1:], np.add.reduceat(x, q[:-1]), 0.0)
    ends = r * np.concatenate((x, [0.0]))[q]  # q reaches p at the last bound, where r is 0
    return (n * seg + ends[1:] - ends[:-1]) / (n * p)


def inner_v(x, y, side: Side = Side.LEFT) -> float:
    """Lift-invariant inner product: lift both to lcm dim, dot, divide by dim.

    Computed without the lifts, as sum_j x[j] <y, d(dim x, j)> (`_layer`).
    The products are taken on x / cx and y / cy, each factor from
    `_unit_scale`, and the sum is scaled back by both, so no partial sum
    overflows while the answer is finite.  Factors on either side of 1 are
    multiplied first, and others are applied in turn, so that no step
    overflows where the answer does not.
    """
    (x, cx, _), (y, cy, _) = _unit_scale(as_signal(x)), _unit_scale(as_signal(y))
    v = _inner(x, y, as_side(side))
    return v * (cx * cy) if (cx < 1.0) != (cy < 1.0) else v * cx * cy


def _inner(x: np.ndarray, y: np.ndarray, side: Side) -> float:
    """`inner_v` of validated signals and side, for a y whose sum of squares holds as taken."""
    return float(x @ _layer(y, x.size, side))


def norm_v(x) -> float:
    """Lift-invariant norm sqrt(x.x / dim); independent of the side.

    The sum of squares comes from `_unit_scale`, so the norm is right at
    every finite scale.
    """
    return _norm(as_signal(x))


def _norm(x: np.ndarray) -> float:
    """`norm_v` of a validated signal."""
    _, c, ss = _unit_scale(x)
    return c * sqrt(ss / x.size)


def dist_v(x, y, side: Side = Side.LEFT) -> float:
    """Distance between classes: the norm of the difference of the lifts to lcm(dim x, dim y).

    Zero exactly when the lifts are equal, so exactly when x and y are
    equivalent in exact arithmetic; `equivalent` also accepts lifts that
    differ within its tolerance, where the distance is small but not zero.

    The difference is taken plainly.  Only where it overflows is it
    retaken on x / c and y / c, with c the larger max|.|, and the norm
    scaled back by c: the package's scale rule for a finite distance.
    """
    with np.errstate(over="ignore"):
        d = sta(x, y, side, subtract=True)
    if np.isfinite(d).all():
        return _norm(d)
    x, y = as_signal(x), as_signal(y)
    c = max(_scale(x), _scale(y))
    return c * _norm(sta(x / c, y / c, side, subtract=True))


def angle_v(x, y, side: Side = Side.LEFT) -> float:
    """Angle (radians) between two nonzero classes.

    The cosine is <x / ||x||, y / ||y||>: both arguments have unit norm,
    so no sum inside `inner_v` can overflow at any scale of x or y.  It is
    clamped to [-1, 1] so parallel inputs never produce NaN.  Raises
    ZeroVector if either argument is zero.  Each argument is validated
    once, here.
    """
    x, y, side = as_signal(x), as_signal(y), as_side(side)
    c = _inner(_unit(x), _unit(y), side)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _unit(x: np.ndarray) -> np.ndarray:
    """x / ||x|| of a validated signal, else ZeroVector.

    A norm below the smallest normal float has lost bits, and so would the
    quotient, so there the rescaled copy from `_unit_scale`, whose norm is
    normal, is normalised instead.
    """
    xs, c, ss = _unit_scale(x)
    if not ss:
        raise ZeroVector("angle is undefined for a zero signal")
    norm = c * sqrt(ss / x.size)
    return x / norm if norm >= _TINY else xs / sqrt(ss / x.size)


def projection_matrix(m: int, n: int, side: Side = Side.LEFT) -> np.ndarray:
    """The n-by-m matrix projecting R^m onto R^n in the quotient geometry.

    With t = lcm(m, n) the LEFT form is (n/t)(I_n (x) 1_{t/n}^T)(I_m (x) 1_{t/m});
    RIGHT mirrors the ones-blocks to the other Kronecker side.  Applying it to
    x in R^m gives the distance-minimizing element of R^n, and the residual is
    orthogonal to every vector of R^n under the matching inner product.
    A reference construction: `project` applies it without building it.
    """
    m, n = as_count(m, "dimension", 1), as_count(n, "dimension", 1)
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
    n <x, d(n, j)>, read from layer n in closed form (`_layer`), so no lift
    is built.  The products are taken on x / c, c from `_unit_scale`, and
    scaled back by c, so the projection is right at every finite scale.
    """
    x, side = as_signal(x), as_side(side)
    n = as_count(n, "projection target dimension", 1)
    if n == x.size:
        return x.copy()
    x, c, _ = _unit_scale(x)
    return c * (n * _layer(x, n, side))

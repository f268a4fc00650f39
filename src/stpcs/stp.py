"""Dimension-free matrix/vector products defined by Kronecker lifts.

Two mirror-symmetric conventions run through the whole package.  The
*left* convention lifts a matrix as ``A (x) I_s`` and a vector by
repeating each entry (``x (x) 1_s``); the *right* convention lifts as
``I_s (x) A`` and by repeating the whole vector (``1_s (x) x``).  Factors
with mismatched dimensions are lifted to the least common multiple, so
every product below is defined for arbitrary shapes and degenerates to
the conventional product when the inner dimensions already agree.

Both conventions rest on one block layout: a vector of dimension n*s is
s blocks of n entries, the interleaved entries b, b+s, ... (LEFT) or the
b-th run of n consecutive entries (RIGHT).  A lifted matrix is s copies
of its atom, copy b acting on block b; a lifted vector has s equal
blocks.  `blocks` and `unblocks` hold this layout, and every product,
reduction and recovery but one goes through them instead of building an
identity lift.  The lifted product is unblocks(A @ blocks(x, s)) on
either side; `mv_stp`, the one exception, applies the layout itself, in
reshape form, as one product of A with x.reshape(n, -1) (LEFT) or with
the transpose of x.reshape(-1, n) (RIGHT), whose columns are the blocks.
It reads x in place, so it holds the result and the atom only, plus the
lifted signal when dim x is not a multiple of the atom's columns.
`unlift` tests a signal for s equal blocks by one max-abs comparison of
blocks 1..s-1 with block 0; only a lone block is compared with itself,
so that a non-finite entry still refuses it.
Every tolerance comparison, there and in `signal_space`'s reductions and
equivalence tests, takes its differences through `_gap`: a difference
beyond the float range reads as inf, so finite entries near the float
maximum compare as far apart and warn of nothing.
Projection and the inner product read their products with standard
basis vectors in closed form (`signal_space._layer`), and reduction
compares block views of its input, so neither lifts anything.
`lift_matrix` and `swap_matrix` build the dense matrices and serve as
reference constructions and test oracles.  The one other dense lift is
`mm_stp`'s right factor, B (x) I_{t/p} or I_{t/p} (x) B, which it
broadcasts in place; its operands are small atoms.

`as_matrix` and `as_signal` test the finiteness of a C- or
Fortran-contiguous array by one BLAS dot of the entries with themselves,
read in memory order without a copy, and test the entries one by one
only when that sum of squares is not finite (a NaN, an infinity, or
finite entries whose squares overflow) or when the array is strided.

A named choice (a side here, a sparsity mode or a recovery method in
`pipeline`) is read by one rule, `_choice`: its name in any case, or, for
a side or a mode, the member itself; anything else raises BadShape
naming both choices.

All functions here are pure: they never mutate their arguments and hold
no state, so concurrent use is safe.  The package holds state in two
memos, both bounded `functools.lru_cache`s keyed by contents, with
read-only entries: `pipeline`'s atom geometries and `signal_space`'s
read plans of `basis.coordinates`.
"""

from __future__ import annotations

from enum import Enum
from math import isfinite, lcm
from operator import index

import numpy as np

from .errors import BadShape

__all__ = [
    "Side",
    "as_side",
    "as_matrix",
    "as_signal",
    "as_count",
    "swap_matrix",
    "lift_signal",
    "lift_matrix",
    "blocks",
    "unblocks",
    "unlift",
    "mm_stp",
    "mv_stp",
    "sta",
]


class Side(Enum):
    """Which side of the Kronecker product carries the lifting block."""

    LEFT = "left"
    RIGHT = "right"


def as_side(side) -> Side:
    """Validate and return `side` as a Side: a member, or its name in any case.

    Every public function that takes a side reads it through here, so a
    name is parsed in one place and anything else raises BadShape instead
    of silently meaning one convention here and the other there.
    """
    return side if side.__class__ is Side else Side(_choice(side, ("left", "right"), "side"))


def _choice(value, names: tuple[str, str], what: str) -> str:
    """`value` lower-cased, if it is a string naming one of `names` in any case, else BadShape.

    The one reader of a named choice: a side, a sparsity mode, a recovery
    method.  `what` names the choice in the message.
    """
    if isinstance(value, str) and value.lower() in names:
        return value.lower()
    raise BadShape(f"unknown {what} {value!r}; expected {names[0]!r} or {names[1]!r}")


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-D float array (rows, cols >= 1, finite)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise BadShape(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not _finite(arr):
        raise ValueError("matrix entries must be finite")
    return arr


def as_signal(x) -> np.ndarray:
    """Validate and return `x` as a 1-D float array (dim >= 1, finite)."""
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size < 1:
        raise BadShape("expected a nonempty vector")
    if not _finite(arr):
        raise ValueError("signal entries must be finite")
    return arr


def _finite(arr: np.ndarray) -> bool:
    """True iff every entry of the float array `arr` is finite.

    For a C- or Fortran-contiguous array one BLAS dot, which raises no
    warning, settles the common case: a finite sum of squares has finite
    terms.  It reads the entries in memory order, without a copy.  Only
    when the sum is not finite (a NaN or an infinity, or squares that
    overflow) are the entries tested one by one, as they are for any other
    layout, where a flat view would be a copy.
    """
    if not (arr.flags.c_contiguous or arr.flags.f_contiguous):
        return bool(np.isfinite(arr).all())
    return isfinite(np.vdot(v := arr.ravel("K"), v)) or bool(np.isfinite(v).all())


def as_count(value, what: str, least: int) -> int:
    """Validate and return `value` as an int of at least `least` (0 or 1), else BadShape.

    `what` names the count in the message.  A bool is not a count, though
    Python's bool is an int.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        v = index(value)
    except TypeError:
        raise BadShape(f"{what} {value!r} must be an integer") from None
    if v < least:
        raise BadShape(f"{what} {v} must be {'positive' if least else 'non-negative'}")
    return v


def swap_matrix(m: int, n: int) -> np.ndarray:
    """Permutation matrix W[m,n] exchanging the factors of a tensor pair.

    W[m,n] (x (x) y) = y (x) x for x in R^m, y in R^n.  Consequently
    W[m,p] (A (x) B) W[q,n] = B (x) A for A m-by-n, B p-by-q, and
    W[m,n]^-1 = W[m,n]^T = W[n,m].  A reference construction: the package
    applies W[m,n] v as v.reshape(m, n).T.reshape(-1).
    """
    m, n = as_count(m, "dimension", 1), as_count(n, "dimension", 1)
    w = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            w[j * m + i, i * n + j] = 1.0
    return w


def lift_signal(x, t: int, side: Side = Side.LEFT) -> np.ndarray:
    """Lift `x` to dimension `t` (a multiple of dim x) by ones-replication.

    LEFT repeats each entry t/dim times in place; RIGHT repeats the whole
    vector t/dim times.
    """
    return _lift(as_signal(x), as_count(t, "lift dimension", 1), as_side(side))


def _lift(x: np.ndarray, t: int, side: Side) -> np.ndarray:
    """`lift_signal` of an already validated signal."""
    r, rem = divmod(t, x.size)
    if rem:
        raise BadShape(f"cannot lift dim {x.size} to non-multiple {t}")
    # RIGHT stacks r copies as the rows of one repeat: neither side pays np.tile's or
    # np.repeat's wrapper
    return x.repeat(r) if side is Side.LEFT else x[None].repeat(r, 0).reshape(-1)


def lift_matrix(a, s: int, side: Side = Side.LEFT) -> np.ndarray:
    """Lift `a` by an identity factor: A (x) I_s (LEFT) or I_s (x) A (RIGHT).

    The dense reference construction; the products apply lifts in
    reshape form instead.
    """
    a, side = as_matrix(a), as_side(side)
    eye = np.eye(as_count(s, "lift factor", 1))
    return np.kron(a, eye) if side is Side.LEFT else np.kron(eye, a)


def blocks(v, s: int, side: Side = Side.LEFT) -> np.ndarray:
    """The (n, s, ...) view of the leading axis of `v` as s blocks of n entries.

    Column b is block b: entries b, b+s, ... (LEFT) or the b-th run of n
    entries (RIGHT).  Trailing axes ride along.
    """
    v = np.asarray(v)
    if as_side(side) is Side.LEFT:
        return v.reshape(-1, s, *v.shape[1:])
    return v.reshape(s, -1, *v.shape[1:]).swapaxes(0, 1)


def unblocks(g, side: Side = Side.LEFT) -> np.ndarray:
    """Inverse of `blocks`: flatten an (n, s, ...) block array to its leading axis."""
    g = np.asarray(g)
    if as_side(side) is Side.RIGHT:
        g = g.swapaxes(0, 1)
    return g.reshape(-1, *g.shape[2:])


def unlift(x, r: int, side: Side = Side.LEFT, atol: float = 0.0):
    """Return y with x == lift_signal(y, x.size, side) within `atol`, or None.

    `x` is a 1-D array and `r` divides its size; y is a copy of block 0.
    Blocks 1..r-1 are compared with block 0 by `_gap`, so a difference
    beyond the float range is far and warns of nothing; a lone block
    (r = 1) is compared with itself.  The input is not validated: with a
    finite `atol`, a non-finite entry, a NaN or an infinity, refuses the
    lift, since its difference with any entry is a NaN or an infinity.
    """
    g = blocks(x, r, side)  # validates the side
    return g[:, 0].copy() if _gap(g[:, 1:] if r > 1 else g, g[:, :1]).max() <= atol else None


def _gap(a, b) -> np.ndarray:
    """|a - b| elementwise; a difference beyond the float range reads as inf, with no warning.

    The one comparison behind every tolerance test of `unlift` and of
    reduction and equivalence in `signal_space`: an overflowing difference
    is far, and a NaN (from a NaN or from inf - inf) fails every `<=` test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(a - b)


def mm_stp(a, b, side: Side = Side.LEFT) -> np.ndarray:
    """Matrix-matrix semi-tensor product.

    With t = lcm(a.cols, b.rows), LEFT computes
    (A (x) I_{t/n}) (B (x) I_{t/p}) and RIGHT the mirrored
    (I_{t/n} (x) A) (I_{t/p} (x) B).  When n = p both reduce exactly to
    the conventional product A @ B.  Only B is lifted; A acts on the
    blocks of its rows.
    """
    a, b, side = as_matrix(a), as_matrix(b), as_side(side)
    (m, n), (p, q) = a.shape, b.shape
    t = lcm(n, p)
    eye = np.eye(t // p)
    if side is Side.LEFT:
        bl = (b[:, None, :, None] * eye[None, :, None, :]).reshape(t, -1)
    else:
        bl = (eye[:, None, :, None] * b[None, :, None, :]).reshape(t, -1)
    g = blocks(bl, t // n, side)
    # np.tensordot(a, g, axes=1) without its per-call overhead
    return unblocks((a @ g.reshape(n, -1)).reshape(m, t // n, -1), side)


def mv_stp(a, x, side: Side = Side.LEFT) -> np.ndarray:
    """Matrix-vector semi-tensor product.

    With s = lcm(a.cols, dim x), LEFT computes
    (A (x) I_{s/n}) (x (x) 1_{s/r}) and RIGHT the mirrored
    (I_{s/n} (x) A) (1_{s/r} (x) x).  Reduces to A @ x when n = dim x.
    Applied in reshape form, one product of the atom with the blocks of
    the signal as a matrix: O(ms) time.  When n | dim x the atom reads
    the validated signal itself, uncopied; otherwise the signal is first
    lifted to dimension s.
    """
    a, x, side = as_matrix(a), as_signal(x), as_side(side)
    n = a.shape[1]
    s = lcm(n, x.size)
    xl = x if s == x.size else _lift(x, s, side)
    # unblocks(a @ blocks(xl, s // n, side), side) without the side dispatch: the blocks are
    # the columns of xl.reshape(n, -1) (LEFT) or the rows of xl.reshape(-1, n) (RIGHT).
    # RIGHT keeps the operand order, as the transposed product may round differently.
    if side is Side.LEFT:
        return (a @ xl.reshape(n, -1)).reshape(-1)
    return (a @ xl.reshape(-1, n).T).T.reshape(-1)


def sta(x, y, side: Side = Side.LEFT, subtract: bool = False) -> np.ndarray:
    """Semi-tensor addition: lift both vectors to lcm dimension, then add.

    Returns a vector of dimension lcm(dim x, dim y); `subtract` flips the
    sign of the second operand.
    """
    t = lcm(np.size(x), np.size(y))  # lift_signal validates both, and the side
    xl = lift_signal(x, t, side)
    yl = lift_signal(y, t, side)
    return xl - yl if subtract else xl + yl

"""Equivalence-class arithmetic on the cross-dimensional signal space.

A signal x and its ones-lift represent the same underlying signal sampled
at different rates.  Each equivalence class has a unique irreducible
representative (its *atom*); class dimension is the atom's dimension.
This module reduces signals/matrices to atoms, tests equivalence, and
equips the quotient with a lift-invariant inner product, norm, distance,
angle, and a cross-dimensional projection.

The inner product of x in R^m and y in R^n lifts both to t = lcm(m, n)
and scales by 1/t, which makes it invariant under replacing either
argument by any lift of itself (same-side lifts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

import numpy as np

from .errors import BadShape, ZeroVector
from .stp import Side, as_matrix, as_signal, blocks, lift_matrix, lift_signal, sta, unlift

__all__ = [
    "SignalClass",
    "MatrixClass",
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

# Absolute tolerance for the block-constancy test during reduction.  For
# integer-valued data the comparison is effectively exact.
REDUCE_ATOL = 1e-12


def _divisors_desc(n: int) -> list[int]:
    return [d for d in range(n, 0, -1) if n % d == 0]


def reduce_signal(x, side: Side = Side.LEFT, atol: float = REDUCE_ATOL):
    """Return (atom, multiplicity) with x == lift(atom, multiplicity).

    The atom is the unique irreducible representative of x's class; the
    search tries multiplicities in decreasing order, so the first match
    is maximal and the returned atom is irreducible.
    """
    x = as_signal(x)
    for s in _divisors_desc(x.size)[:-1]:
        atom = unlift(x, s, side, atol)
        if atom is not None:
            return atom, s
    return x.copy(), 1


def reduce_matrix(a, side: Side = Side.LEFT, atol: float = REDUCE_ATOL):
    """Return (atom, multiplicity) with a == atom (x) I_s (LEFT) or I_s (x) atom."""
    a = as_matrix(a)
    for s in _divisors_desc(gcd(*a.shape))[:-1]:
        # the rows, then the columns, of block 0
        atom = blocks(blocks(a, s, side)[:, 0].T, s, side)[:, 0].T
        if np.allclose(a, lift_matrix(atom, s, side), rtol=0.0, atol=atol):
            return atom.copy(), s
    return a.copy(), 1


def equivalent(x, y, side: Side = Side.LEFT, atol: float = REDUCE_ATOL) -> bool:
    """True iff x and y reduce to the same atom."""
    ax, _ = reduce_signal(x, side, atol)
    ay, _ = reduce_signal(y, side, atol)
    return ax.size == ay.size and np.allclose(ax, ay, rtol=0.0, atol=atol)


def matrices_equivalent(a, b, side: Side = Side.LEFT, atol: float = REDUCE_ATOL) -> bool:
    """True iff a and b reduce to the same matrix atom."""
    aa, _ = reduce_matrix(a, side, atol)
    ab, _ = reduce_matrix(b, side, atol)
    return aa.shape == ab.shape and np.allclose(aa, ab, rtol=0.0, atol=atol)


@dataclass(frozen=True)
class SignalClass:
    """An equivalence class of signals, held by its irreducible atom."""

    side: Side
    atom: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, x, side: Side = Side.LEFT) -> "SignalClass":
        atom, _ = reduce_signal(x, side)
        return cls(side, atom)

    @property
    def dim(self) -> int:
        return int(self.atom.size)


@dataclass(frozen=True)
class MatrixClass:
    """An equivalence class of matrices, held by its irreducible atom."""

    side: Side
    atom: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, a, side: Side = Side.LEFT) -> "MatrixClass":
        atom, _ = reduce_matrix(a, side)
        return cls(side, atom)

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.atom.shape)


def inner_v(x, y, side: Side = Side.LEFT) -> float:
    """Lift-invariant inner product: lift both to lcm dim, dot, divide by dim.

    Computed without the lifts.  With g = gcd of the dims a, b: RIGHT
    pairs entry i of x with entry j of y once per lcm period exactly when
    i = j (mod g), so the dot is that of the residue-class sums.  LEFT
    splits both signals into g groups; within a group the lifts are step
    functions with a/g and b/g pieces, and the dot sums the pieces of
    their common refinement weighted by width.
    """
    x, y = as_signal(x), as_signal(y)
    a, b = x.size, y.size
    g = gcd(a, b)
    t = a * b // g
    if side is Side.RIGHT:
        return float(x.reshape(-1, g).sum(0) @ y.reshape(-1, g).sum(0)) / t
    ag, bg = a // g, b // g  # within a group, x pieces are bg wide and y pieces ag wide
    xg, yg = x.reshape(g, ag), y.reshape(g, bg)
    if ag == 1 or bg == 1:  # the pieces nest: block sums of the finer signal
        return float(xg.sum(1) @ yg.sum(1)) / t
    starts = np.union1d(np.arange(ag) * bg, np.arange(bg) * ag)
    widths = np.diff(starts, append=ag * bg)
    return float(np.sum((xg[:, starts // bg] * yg[:, starts // ag]) @ widths)) / t


def norm_v(x) -> float:
    """Lift-invariant norm sqrt(x.x / dim); independent of the side."""
    x = as_signal(x)
    return float(np.sqrt(x @ x / x.size))


def dist_v(x, y, side: Side = Side.LEFT) -> float:
    """Distance between classes: zero exactly when x and y are equivalent."""
    return norm_v(sta(x, y, side, subtract=True))


def angle_v(x, y, side: Side = Side.LEFT) -> float:
    """Angle (radians) between two nonzero classes.

    The cosine is clamped to [-1, 1] so parallel inputs never produce NaN.
    Raises ZeroVector if either argument has zero norm.
    """
    nx, ny = norm_v(x), norm_v(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("angle is undefined for a zero signal")
    c = inner_v(x, y, side) / (nx * ny)
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

    Equals projection_matrix(dim x, n, side) @ x: the mean of the t/n
    blocks (see `stp.blocks`) of the lcm lift.
    """
    x = as_signal(x)
    if n < 1:
        raise BadShape("projection target dimension must be positive")
    t = lcm(x.size, n)
    return blocks(lift_signal(x, t, side), t // n, side).mean(axis=1)

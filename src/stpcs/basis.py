"""Basis construction for the quotient signal space.

The generating family consists of the scalar 1 together with every
standard basis vector d(n, j) of R^n whose index j is coprime to n
(1 <= j < n).  Layers with a multi-fold divisor (some s > 1 with s^2 | n)
contribute dependent elements; the independent sub-layer keeps only the
indices up to (s-1)*s*q where n = s^2*q with s maximal.  Concatenating
the independent layers in ascending (n, j) order yields an ordered basis,
which Gram-Schmidt turns into an orthonormal one under the quotient inner
product.

Orthonormalization defaults to the RIGHT (whole-vector replication) lift:
under that convention each orthonormalized element stays low-dimensional
and matches the closed-form reference vectors used in the golden tests.
The LEFT variant is available through the ``side`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

from .errors import BadShape, DependentInput, InsufficientBasis
from .signal_space import dist_v, inner_v, norm_v, reduce_signal
from .stp import Side, as_signal, sta

__all__ = [
    "BasisElement",
    "OrthonormalBasis",
    "generating_layer",
    "has_multifold_divisor",
    "largest_square_divisor",
    "basis_layer",
    "basis_up_to",
    "orthonormal_basis",
    "coordinates",
]


@dataclass(frozen=True)
class BasisElement:
    """A generating element: d(n, j), or the scalar 1 when n == 1."""

    n: int
    j: int
    value: np.ndarray = field(repr=False)

    @classmethod
    def delta(cls, n: int, j: int) -> "BasisElement":
        if n == 1:
            return cls(1, 1, np.ones(1))
        v = np.zeros(n)
        v[j - 1] = 1.0
        return cls(n, j, v)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Ordered orthonormal elements (atoms) plus the lift side they live in."""

    elements: list[np.ndarray] = field(repr=False)
    labels: list[tuple[int, int]]
    side: Side

    @property
    def count(self) -> int:
        return len(self.elements)


def generating_layer(n: int) -> list[BasisElement]:
    """All generating elements of ambient dimension n, ascending j."""
    if n < 1:
        raise BadShape("layer index must be positive")
    if n == 1:
        return [BasisElement.delta(1, 1)]
    return [BasisElement.delta(n, j) for j in range(1, n) if gcd(j, n) == 1]


def largest_square_divisor(n: int) -> int:
    """The largest s with s*s dividing n (s = 1 iff n is squarefree)."""
    if n < 1:
        raise BadShape("argument must be positive")
    s = 1
    for d in range(2, isqrt(n) + 1):
        while n % (d * d) == 0:
            s *= d
            n //= d * d
    return s


def has_multifold_divisor(n: int) -> bool:
    """True iff some s > 1 satisfies s^2 | n."""
    return largest_square_divisor(n) > 1


def basis_layer(n: int) -> list[BasisElement]:
    """The independent part of layer n.

    Squarefree n keeps the whole generating layer.  Otherwise write
    n = s^2*q with s maximal (q is then squarefree) and keep only the
    elements with index j <= (s-1)*s*q; the discarded tail is spanned by
    lower layers.
    """
    elems = generating_layer(n)
    s = largest_square_divisor(n)
    if s == 1:
        return elems
    cutoff = (s - 1) * s * (n // (s * s))
    return [e for e in elems if e.j <= cutoff]


def basis_up_to(m: int) -> list[BasisElement]:
    """Independent layers 1..m concatenated, ascending n then ascending j."""
    if m < 1:
        raise BadShape("bound must be positive")
    out: list[BasisElement] = []
    for n in range(1, m + 1):
        out.extend(basis_layer(n))
    return out


# Coefficients smaller than this are treated as exact zeros during
# orthonormalization, keeping intermediate dimensions from growing on
# numerically-zero projections.  True nonzero coefficients here are
# rationals bounded below by 1/(n*n') for layer dims n, n'.
_COEF_EPS = 1e-12


def orthonormal_basis(m: int, side: Side = Side.RIGHT) -> OrthonormalBasis:
    """Gram-Schmidt orthonormalization of basis_up_to(m).

    Modified Gram-Schmidt with one re-orthogonalization pass; every inner
    product lifts both operands to their lcm dimension.  Each output is
    reduced to its atom and scaled so its first nonzero entry is positive.
    Raises DependentInput if a residual norm falls below 1e-10, which
    would indicate a broken layer selection.
    """
    elems = basis_up_to(m)
    es: list[np.ndarray] = []
    for el in elems:
        v = el.value.astype(float)
        for _ in range(2):
            for e in es:
                c = inner_v(v, e, side)
                if abs(c) > _COEF_EPS:
                    v = sta(v, -c * e, side)
                    v, _ = reduce_signal(v, side, atol=1e-10)
        nv = norm_v(v)
        if nv < 1e-10:
            raise DependentInput(
                f"element d({el.n},{el.j}) is dependent on its predecessors"
            )
        v = v / nv
        v, _ = reduce_signal(v, side, atol=1e-10)
        lead = np.flatnonzero(np.abs(v) > 1e-10)
        if lead.size and v[lead[0]] < 0:
            v = -v
        es.append(v)
    return OrthonormalBasis(es, [(e.n, e.j) for e in elems], side)


def coordinates(x, basis: OrthonormalBasis, residual_tol: float = 1e-8) -> np.ndarray:
    """Coefficients of x against an orthonormal basis.

    Returns xi with xi[i] = <x, e_i> under the basis's lift side.  The
    reconstruction sum(xi[i]*e_i) must land in x's equivalence class;
    if its residual norm exceeds `residual_tol` the basis does not span
    x (either built with too small a bound, or x lies outside the span
    of the generating family) and InsufficientBasis is raised.
    """
    x = as_signal(x)
    xi = np.array([inner_v(x, e, basis.side) for e in basis.elements])
    recon = np.zeros(1)
    for c, e in zip(xi, basis.elements):
        if abs(c) > _COEF_EPS:
            recon = sta(recon, c * e, basis.side)
    resid = dist_v(x, recon, basis.side)
    if resid > residual_tol:
        raise InsufficientBasis(
            f"reconstruction residual {resid:.3e} exceeds {residual_tol:.1e}"
        )
    return xi

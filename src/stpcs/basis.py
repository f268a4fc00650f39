"""Basis construction for the quotient signal space.

The generating family is the scalar 1 (written d(1, 1)) and every
standard basis vector d(n, j) of R^n with j coprime to n.  Its Gram
matrix has closed forms: under RIGHT <d(n, j), d(n', j')> is
[j = j' mod gcd(n, n')] / lcm(n, n'); under LEFT it is the overlap length
of [(j-1)/n, j/n) and [(j'-1)/n', j'/n').  `orthonormal_basis` runs an
in-order Cholesky on that matrix, keeps the generators whose pivots are
not negligible, and stores the inverse factor: element i is
sum_k inverse[k, i] * d(labels[k]).  `coordinates` applies the inverse
factor to the inner products <x, d(n, j)> from the one lift-free kernel
that also gives `inner_v` and `project` (`signal_space._generator_products`).

Under LEFT every generator is kept (rank sum(phi(n)), with phi(1) = 1);
under RIGHT some are dependent.  `basis_layer` and `basis_up_to` keep the
paper's printed rule instead: a layer n = s^2*q with s > 1 maximal keeps
the indices j <= (s-1)*s*q.  The two selections differ (see README).

Elements are built on first access, each in its atom dimension.  RIGHT:
the element of d(n, j) lies in R^n, because averaging over residues mod n
maps every earlier generator to a multiple of a generator of layer
gcd(n, n'), hence maps their span into itself and commutes with the
projection onto it.
LEFT: the earlier generators span the step functions that break at the
fractions j'/n' seen so far, so the element of d(n, j) is a two-step
function on [h/k, j/n, (j-h)/(n-k)], the neighbours of j/n in the Farey
sequence of order n, with k = j^-1 mod n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, isqrt, lcm

import numpy as np

from .errors import BadShape, InsufficientBasis
from .signal_space import _generator_products
from .stp import Side, as_signal

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


def _gram(n1, j1, n2, j2, side: Side) -> np.ndarray:
    """<d(n1, j1), d(n2, j2)> in closed form, elementwise over integer arrays."""
    if side is Side.RIGHT:
        return ((j1 - j2) % np.gcd(n1, n2) == 0) / np.lcm(n1, n2)
    lo = np.maximum((j1 - 1) * n2, (j2 - 1) * n1)
    hi = np.minimum(j1 * n2, j2 * n1)
    return np.maximum(hi - lo, 0) / (n1 * n2)


@dataclass(frozen=True)
class OrthonormalBasis:
    """The kept generators, the side and the inverse factor; atoms on demand."""

    labels: list[tuple[int, int]]
    side: Side
    inverse: np.ndarray = field(repr=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.labels)

    @cached_property
    def elements(self) -> list[np.ndarray]:
        """The orthonormal elements as atoms, built on first access.

        Raises BadShape when they would hold more than _MAX_ENTRIES entries.
        """
        atoms = [_atom(n, j, self.side) for n, j in self.labels]
        total = sum(dim for dim, _ in atoms)
        if total > _MAX_ENTRIES:
            raise BadShape(f"the {self.count} elements span {total} entries, above {_MAX_ENTRIES}")
        ns, js = np.array(self.labels).T
        out = []
        for i, (dim, starts) in enumerate(atoms):
            # constant on the runs that begin at `starts`; entry r is dim * <d(dim, r+1), e_i>
            g = _gram(dim, starts[:, None] + 1, ns[: i + 1], js[: i + 1], self.side)
            out.append(np.repeat(dim * g @ self.inverse[: i + 1, i], np.diff(starts, append=dim)))
        return out


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
    """The independent part of layer n by the paper's rule.

    Squarefree n keeps the whole generating layer.  Otherwise write
    n = s^2*q with s maximal (q is then squarefree) and keep only the
    elements with index j <= (s-1)*s*q.
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


# A generator is dependent on its predecessors when its Cholesky pivot
# falls below this fraction of its squared norm 1/n.  Through m = 40 the
# fractions of kept generators are at least 1/m (LEFT) and 1/8 (RIGHT),
# and those of dependent ones at most 1e-15.
_PIVOT_TOL = 1e-10


# Elements are for inspection and export: 2^24 entries is 128 MiB of
# float64.  LEFT reaches it at m = 61; m = 30 needs 517487 entries.
_MAX_ENTRIES = 1 << 24


def _atom(n: int, j: int, side: Side) -> tuple[int, np.ndarray]:
    """Dimension of the atom of the element of d(n, j), and where its runs start."""
    if side is Side.RIGHT or n == 1:
        return n, np.arange(n)
    k = pow(j, -1, n)
    h = (j * k - 1) // n  # the Farey neighbours of j/n are h/k and (j-h)/(n-k)
    dim = lcm(k, n, n - k)
    starts = np.unique([0, h * dim // k, j * dim // n, (j - h) * dim // (n - k)])
    return dim, starts[starts < dim]


def orthonormal_basis(m: int, side: Side = Side.RIGHT) -> OrthonormalBasis:
    """The orthonormal basis spanned by the generators of layers 1..m.

    Generators are taken in ascending (n, j) order and each element is
    scaled so that its first nonzero entry is positive.
    """
    if m < 1:
        raise BadShape("bound must be positive")
    ns, js = np.array([(e.n, e.j) for n in range(1, m + 1) for e in generating_layer(n)]).T
    g = _gram(ns[:, None], js[:, None], ns, js, side)  # becomes the Schur complement
    factor = np.zeros_like(g)  # row i stays zero when generator i is dependent
    for i in range(ns.size):
        if g[i, i] > _PIVOT_TOL / ns[i]:
            factor[i, i:] = g[i, i:] / np.sqrt(g[i, i])
            g[i:, i:] -= np.outer(factor[i, i:], factor[i, i:])
    kept = np.flatnonzero(np.diag(factor))
    inverse = np.linalg.inv(factor[np.ix_(kept, kept)])
    labels = [(int(ns[i]), int(js[i])) for i in kept]
    basis = OrthonormalBasis(labels, side, inverse)
    if side is Side.RIGHT:  # a LEFT element leads with its positive step on [h/k, j/n)
        for i, e in enumerate(basis.elements):
            # exact zeros come out at rounding level; the first entry above it leads
            if e[np.abs(e) > 1e-9 * np.abs(e).max()][0] < 0:
                e *= -1
                inverse[:, i] *= -1
    return basis


def coordinates(x, basis: OrthonormalBasis, residual_tol: float = 1e-9) -> np.ndarray:
    """Coefficients xi[i] = <x, e_i> of x against an orthonormal basis.

    The inner products <x, d(n, j)> with the kept generators come from
    `signal_space._generator_products`, without a lift, and the inverse
    factor turns them into xi.  By Parseval ||xi||^2 equals
    ||x||^2 exactly when the basis spans x; if the deficit
    ||x||^2 - ||xi||^2 exceeds `residual_tol` * ||x||^2 (a relative, squared
    quantity) InsufficientBasis is raised.
    """
    x = as_signal(x)
    xi = basis.inverse.T @ _generator_products(x, *np.array(basis.labels).T, basis.side)
    norm2 = float(x @ x) / x.size
    deficit = norm2 - float(xi @ xi)
    if deficit > residual_tol * norm2:
        raise InsufficientBasis(
            f"relative squared residual {deficit / norm2:.3e} exceeds {residual_tol:.1e}"
        )
    return xi

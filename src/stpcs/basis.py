"""Basis construction for the quotient signal space.

The generating family is the scalar 1 (written d(1, 1)) and every
standard basis vector d(n, j) of R^n with j coprime to n.  Its Gram
matrix has closed forms: under RIGHT <d(n, j), d(n', j')> is
[j = j' mod gcd(n, n')] / lcm(n, n'); under LEFT it is the overlap length
of [(j-1)/n, j/n) and [(j'-1)/n', j'/n').  `orthonormal_basis` keeps, in
ascending (n, j) order, the generators independent of all before them,
which are known in closed form (below), factors their Gram matrix once,
G = L L^T, and stores the inverse factor inv(L^T): element i is
sum_k inverse[k, i] * d(labels[k]).  `coordinates` applies the inverse
factor to the inner products <x, d(n, j)> from the one lift-free kernel
that also gives `inner_v` and `project` (`signal_space._generator_products`).

LEFT keeps every generator (rank sum(phi(n)), with phi(1) = 1): d(n, j)
is the indicator of [(j-1)/n, j/n), and every generator before it is
continuous at the reduced fraction j/n.

RIGHT keeps, in layer n = s^2*q with s maximal, the j <= phi(s)*s*q
(27, 39 and 69 elements through m = 10, 12 and 16).  `basis_layer` and
`basis_up_to` keep the paper's printed rule instead, with s - 1 in place
of phi(s); the two agree exactly when s is 1 or a prime, so they first
differ at n = 16 (see README).  Proof: under RIGHT a vector of R^n is a
function on Z/n, and the characters u -> exp(2 pi i r u / n) stay
orthonormal across dimensions.  Let V_d hold those of exact order d.  The
part of d(n, j) in V_d, for d | n, is 1/n times column j mod d of the unit
Fourier matrix F_d = [exp(-2 pi i r u / d)] over units r, u mod d.  By
induction the layers below n span the sum of the column spaces of F_d,
d < n, so d(n, j) is kept iff column j of F_n, v_n(j), is independent of
the v_n(j') with j' < j.  Write j = t + M*c with M = s*q.  Every prime of
n divides M, so j is a unit iff t is, and entry r of v_n(t + M*c) is
exp(-2 pi i r t / n) * exp(-2 pi i r c / s) with r a unit mod s: in c the
sequence lies in the span of the phi(s) primitive characters of Z/s.
Their values at c = 0 .. phi(s)-1 form an invertible Vandermonde matrix,
so each v_n(t + M*c) with c >= phi(s) is a combination of those with
c < phi(s): every j > phi(s)*M depends on smaller indices.  The units
j <= phi(s)*M number phi(n)*phi(s)/s = rank F_n, as many as are kept, so
all of them are kept.  (By CRT F_n is a tensor product over the prime
powers p^e of n; for e >= 2 the kernel of F_{p^e} is the vectors
invariant under u -> u + p^(e-1), of dimension phi(p^e)/p.)

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
from math import gcd, inf, isqrt, lcm

import numpy as np

from .errors import BadShape, InsufficientBasis
from .signal_space import _TINY, _generator_products, _scale
from .stp import Side, as_count, as_side, as_signal

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
    n = as_count(n, "layer index", 1)
    if n == 1:
        return [BasisElement.delta(1, 1)]
    return [BasisElement.delta(n, j) for j in range(1, n) if gcd(j, n) == 1]


def largest_square_divisor(n: int) -> int:
    """The largest s with s*s dividing n (s = 1 iff n is squarefree)."""
    n = as_count(n, "argument", 1)
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
    m = as_count(m, "bound", 1)
    out: list[BasisElement] = []
    for n in range(1, m + 1):
        out.extend(basis_layer(n))
    return out


# Elements are for inspection and export: 2^24 entries is 128 MiB of
# float64.  LEFT reaches it at m = 61; m = 30 needs 517487 entries.
_MAX_ENTRIES = 1 << 24


def _kept_layer(n: int, side: Side) -> list[int]:
    """The indices j of the layer-n generators independent of all before them.

    LEFT keeps every one; RIGHT keeps j <= phi(s)*s*q, where n = s^2*q
    with s maximal (see the module docstring).
    """
    s = largest_square_divisor(n)
    cutoff = n if side is Side.LEFT else len(generating_layer(s)) * n // s  # phi(s) * s * q
    return [e.j for e in generating_layer(n) if e.j <= cutoff]


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
    m, side = as_count(m, "bound", 1), as_side(side)
    labels = [(n, j) for n in range(1, m + 1) for j in _kept_layer(n, side)]
    ns, js = np.array(labels).T
    inverse = np.linalg.inv(np.linalg.cholesky(_gram(ns[:, None], js[:, None], ns, js, side)).T)
    basis = OrthonormalBasis(labels, side, inverse)
    if side is Side.RIGHT:  # a LEFT element leads with its positive step on [h/k, j/n)
        for i, e in enumerate(basis.elements):
            # exact zeros come out at rounding level; the first entry above it leads
            if e[np.abs(e) > 1e-9 * np.abs(e).max()][0] < 0:
                e *= -1
                inverse[:, i] *= -1
    return basis


# `coordinates` raises when the Parseval deficit ||x||^2 - ||xi||^2
# exceeds this fraction of ||x||^2.
_PARSEVAL_TOL = 1e-9


def coordinates(x, basis: OrthonormalBasis) -> np.ndarray:
    """Coefficients xi[i] = <x, e_i> of x against an orthonormal basis.

    The inner products <x, d(n, j)> with the kept generators come from
    `signal_space._generator_products`, without a lift, and the inverse
    factor turns them into xi.  By Parseval ||xi||^2 equals ||x||^2
    exactly when the basis spans x; unless the deficit ||x||^2 - ||xi||^2
    is at most _PARSEVAL_TOL * ||x||^2 (a relative, squared quantity)
    InsufficientBasis is raised.  When ||x||^2 is not a normal float the
    test is made on x scaled by its largest |entry|, and xi scaled back.
    """
    x = as_signal(x)
    norm2 = float(np.vdot(x, x)) / x.size
    if not _TINY <= norm2 < inf:
        peak = _scale(x)
        if peak:
            return peak * coordinates(x / peak, basis)
    xi = basis.inverse.T @ _generator_products(x, *np.array(basis.labels).T, basis.side)
    deficit = norm2 - float(xi @ xi)
    if not deficit <= _PARSEVAL_TOL * norm2:  # a NaN deficit fails too
        raise InsufficientBasis(
            f"relative squared residual {deficit / norm2:.3e} exceeds {_PARSEVAL_TOL:.1e}"
        )
    return xi

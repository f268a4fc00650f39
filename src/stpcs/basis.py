"""Basis construction for the quotient signal space.

The generating family is the scalar 1 (written d(1, 1)) and every
standard basis vector d(n, j) of R^n with j coprime to n.  Its Gram
matrix has closed forms (`_gram`): under RIGHT <d(n, j), d(n', j')> is
[j = j' mod gcd(n, n')] / lcm(n, n'); under LEFT it is the overlap length
of [(j-1)/n, j/n) and [(j'-1)/n', j'/n').  `orthonormal_basis` keeps, in
ascending (n, j) order, the generators independent of all before them
and orthonormalises them in that order.  The kept set and every element
are known in closed form (below), so no Gram matrix of the family is
formed: an element is a short sum of cells d(n', j'), standard basis
vectors that need not be generators.  `elements` builds the atoms from
those sums, and `coordinates` combines the inner products <x, d(n', j')>
from the one lift-free kernel that also gives `inner_v` and `project`
(`signal_space._generator_products`), its integer half, fixed by the
cells and dim x, from `signal_space`'s memo of read plans.

LEFT keeps every generator (rank sum(phi(n)), with phi(1) = 1): d(n, j)
is the indicator of [(j-1)/n, j/n), and every generator before it is
continuous at the reduced fraction j/n.  So the generators before d(n, j)
span the step functions that break only at the fractions seen so far,
and d(n, j) adds the break at j/n.  Let h/k < j/n < (j-h)/(n-k) be the
neighbours of j/n in the Farey sequence of order n: k = j^-1 mod n and
jk - hn = 1.  Both have denominators below n, so both have been seen,
and no fraction seen lies between them, so the
element of d(n, j) is the step function on [h/k, (j-h)/(n-k)) that breaks
at j/n and integrates to zero.  The two steps have lengths
j/n - h/k = 1/(nk) and (j-h)/(n-k) - j/n = 1/(n(n-k)), so the values are
k and -(n-k), and the squared norm is k^2/(nk) + (n-k)^2/(n(n-k)) =
k/n + (n-k)/n = 1.  Its product with d(n, j) is k/(nk) = 1/n > 0 (the
cell of d(n, j) contains [h/k, j/n)), so it is the Gram-Schmidt element
and leads with its positive step.  As cells, [h/k, j/n) =
[(jk-1)/(nk), jk/(nk)) is cell jk of layer nk and [j/n, (j-h)/(n-k)) =
[j(n-k)/(n(n-k)), (j(n-k)+1)/(n(n-k))) is cell j(n-k)+1 of layer n(n-k):
the element is k d(nk, jk) - (n-k) d(n(n-k), j(n-k)+1), an atom of
dimension lcm(nk, n(n-k)) = lcm(k, n, n-k), and its coordinate is two
cell integrals.  The element of d(1, 1) is d(1, 1).

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

RIGHT elements: by the same decomposition the part of d(n, j) orthogonal
to the layers below n is its part in V_n, the Ramanujan vector
w_j(u) = (1/n) sum_r exp(2 pi i r (u - j) / n) = c_n(u - j) / n, with c_n
the Ramanujan sum (an integer).  V_n is orthogonal to the layers below,
so Gram-Schmidt of layer n is Gram-Schmidt of its w_j alone.  The w_j are
the orthogonal projections onto V_n of the unit vectors of R^n, so
<w_j, w_j'> = w_j'(j) / n = c_n(j - j') / n^2.  With that Gram matrix
G = L L^T over the kept j (at most phi(n) of them) the elements are the
rows of L^-1 W, W's rows the w_j: each lies in R^n, a sum of the n cells
d(n, u), and is scaled so that its first entry above 1e-9 of its largest
|entry| is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, isqrt

import numpy as np

from .errors import BadShape, InsufficientBasis
from .signal_space import _cell_products, _unit_scale
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
    """A generating element: d(n, j), or the scalar 1 when n == 1.

    Only (n, j) is stored, so equal elements compare equal and hash alike;
    `value`, d(n, j) as a vector of R^n, is built on each read.
    """

    n: int
    j: int

    @property
    def value(self) -> np.ndarray:
        v = np.zeros(self.n)
        v[self.j - 1] = 1.0
        return v


def _gram(n1, j1, n2, j2, side: Side) -> np.ndarray:
    """<d(n1, j1), d(n2, j2)> in closed form, elementwise over integer arrays."""
    if side is Side.RIGHT:
        return ((j1 - j2) % np.gcd(n1, n2) == 0) / np.lcm(n1, n2)
    lo = np.maximum((j1 - 1) * n2, (j2 - 1) * n1)
    hi = np.minimum(j1 * n2, j2 * n1)
    return np.maximum(hi - lo, 0) / (n1 * n2)


@dataclass(frozen=True)
class OrthonormalBasis:
    """The kept generators, the side, and each element as a short sum of cells.

    Element i is the sum of coefs[t] * d(*cells[:, terms[1, t]]) over the
    terms t with terms[0, t] == i, which are grouped by element in element
    order.  A cell d(n, j) is any standard basis vector of R^n.
    """

    labels: list[tuple[int, int]]
    side: Side
    cells: np.ndarray = field(repr=False, compare=False)
    terms: np.ndarray = field(repr=False, compare=False)
    coefs: np.ndarray = field(repr=False, compare=False)

    def __hash__(self) -> int:
        # the compared fields, with the label list read as a tuple
        return hash((tuple(self.labels), self.side))

    @property
    def count(self) -> int:
        return len(self.labels)

    @cached_property
    def elements(self) -> list[np.ndarray]:
        """The orthonormal elements as atoms, built on first access.

        An element's dimension is the lcm of its cells' layers.  Raises
        BadShape when they would hold more than _MAX_ENTRIES entries.
        """
        elem, cell = self.terms
        ns, js = self.cells[:, cell]
        dims = np.lcm.reduceat(ns, np.searchsorted(elem, np.arange(self.count)))
        ends = np.cumsum(dims)
        if (total := ends[-1]) > _MAX_ENTRIES:
            raise BadShape(f"the {self.count} elements span {total} entries, above {_MAX_ENTRIES}")
        # cell j of layer n is the run of s = dim / n entries of its element that ends (n - j) s
        # entries before the element does; a RIGHT cell lies in its element's own layer, s = 1,
        # where both lifts agree
        s = dims[elem] // ns
        idx = np.arange(s.sum()) + np.repeat(ends[elem] + (js - ns) * s - np.cumsum(s), s)
        return np.split(np.bincount(idx, np.repeat(self.coefs, s), total), ends[:-1])


def _units(n: int, cutoff: int) -> list[int]:
    """The j in 1..cutoff coprime to n, ascending; len(_units(n, n)) is phi(n)."""
    return [j for j in range(1, cutoff + 1) if gcd(j, n) == 1]


def generating_layer(n: int) -> list[BasisElement]:
    """All generating elements of ambient dimension n, ascending j."""
    n = as_count(n, "layer index", 1)
    return [BasisElement(n, j) for j in _units(n, n)]


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
    n = as_count(n, "layer index", 1)
    s = largest_square_divisor(n)
    cutoff = (s - 1) * n // s if s > 1 else n  # (s-1) * s * q
    return [BasisElement(n, j) for j in _units(n, cutoff)]


def basis_up_to(m: int) -> list[BasisElement]:
    """Independent layers 1..m concatenated, ascending n then ascending j."""
    m = as_count(m, "bound", 1)
    return [e for n in range(1, m + 1) for e in basis_layer(n)]


# Elements are for inspection and export: 2^24 entries is 128 MiB of
# float64.  LEFT reaches it at m = 61; m = 30 needs 517487 entries.
_MAX_ENTRIES = 1 << 24


def _kept_layer(n: int, side: Side) -> list[int]:
    """The indices j of the layer-n generators independent of all before them.

    LEFT keeps every one; RIGHT keeps j <= phi(s)*s*q, where n = s^2*q
    with s maximal (see the module docstring).
    """
    s = largest_square_divisor(n)
    return _units(n, n if side is Side.LEFT else len(_units(s, s)) * n // s)  # phi(s) * s * q


def orthonormal_basis(m: int, side: Side = Side.RIGHT) -> OrthonormalBasis:
    """The orthonormal basis spanned by the generators of layers 1..m.

    Generators are taken in ascending (n, j) order and each element is
    scaled so that its first nonzero entry is positive.
    """
    m, side = as_count(m, "bound", 1), as_side(side)
    layers = [(n, _kept_layer(n, side)) for n in range(1, m + 1)]
    labels = [(n, j) for n, js in layers for j in js]
    if side is Side.LEFT:
        # with k = j^-1 mod n the element of d(n, j) is k d(nk, jk) - (n-k) d(n(n-k), j(n-k)+1)
        rows = [(0, 1, 1, 1)]
        for i, (n, j) in enumerate(labels[1:], 1):
            k = pow(j, -1, n)
            rows += [(i, n * k, j * k, k), (i, n * (n - k), j * (n - k) + 1, k - n)]
        elem, ns, js, coefs = np.array(rows).T
        cells, cell = np.array([ns, js]), np.arange(ns.size)
    else:
        # layer n's elements are L^-1 W with rows w_j(u) = c_n(u - j) / n and L L^T their Gram
        # matrix c_n(j - j') / n^2; the factors n cancel, leaving the integer Ramanujan sums c_n
        coefs = []
        for n, js in layers:
            u, js = np.arange(n), np.array(js)[:, None] - 1
            # c[u] = c_n(u), the sum of cos(2 pi r u / n) over the units r mod n
            c = np.rint(np.cos(2 * np.pi / n * np.outer(u[np.gcd(u, n) == 1], u)).sum(0))
            e = np.linalg.solve(np.linalg.cholesky(c[(js - js.T) % n]), c[(u - js) % n])
            # exact zeros come out at rounding level; the first entry above it leads
            lead = (np.abs(e) > 1e-9 * np.abs(e).max(1, keepdims=True)).argmax(1)
            coefs.append(e * np.sign(e[np.arange(js.size), lead])[:, None])
        # an element of layer n sums the n cells of layer n, held once for all m(m+1)/2 cells
        coefs = np.concatenate(coefs, axis=None)
        elem = np.repeat(np.arange(len(labels)), [n for n, _ in labels])
        cell = np.concatenate([n * (n - 1) // 2 + np.tile(range(n), len(js)) for n, js in layers])
        cells = np.array([(n, j) for n in range(1, m + 1) for j in range(1, n + 1)]).T
    return OrthonormalBasis(labels, side, cells, np.array([elem, cell]), coefs.astype(float))


# `coordinates` raises when the Parseval deficit ||x||^2 - ||xi||^2
# exceeds this fraction of ||x||^2.
_PARSEVAL_TOL = 1e-9


def coordinates(x, basis: OrthonormalBasis) -> np.ndarray:
    """Coefficients xi[i] = <x, e_i> of x against an orthonormal basis.

    The inner products <x, d(n, j)> with the cells of the elements' sums
    come from `signal_space._generator_products`, without a lift, each cell
    read once, and xi[i] is element i's sum of them.  The kernel's integer
    work depends on the cells and dim x alone, so it is planned once per
    (cells, dim x, side) and kept in `signal_space`'s bounded memo of
    read plans (`_plan_of`); expanding many signals of a few lengths in
    one basis plans each length once.  By Parseval
    ||xi||^2 equals ||x||^2 exactly when the basis spans x; unless the
    deficit ||x||^2 - ||xi||^2 is at most _PARSEVAL_TOL * ||x||^2 (a
    relative, squared quantity) InsufficientBasis is raised.  Both are
    taken on x / c, with c from `signal_space._unit_scale` (1 while the
    mean square of x is a normal float), and xi is scaled back by c, so
    the answer is right at every finite scale.
    """
    x, c, ss = _unit_scale(as_signal(x))
    norm2 = ss / x.size
    products = _cell_products(x, basis.cells, basis.side)
    xi = np.bincount(basis.terms[0], basis.coefs * products[basis.terms[1]], basis.count)
    deficit = norm2 - float(xi @ xi)
    if not deficit <= _PARSEVAL_TOL * norm2:  # a NaN deficit fails too
        raise InsufficientBasis(
            f"relative squared residual {deficit / norm2:.3e} exceeds {_PARSEVAL_TOL:.1e}"
        )
    return c * xi

#!/usr/bin/env python3
"""End-to-end compression/recovery demo at several lift factors.

Builds the 7x16 reference sensing matrix, plants blockwise-sparse
signals, compresses them through both lift conventions, and recovers
them exactly with the support-search solver.  Also runs one
non-divisible case where the signal dimension does not divide the lift,
a global-sparsity round trip at lift factor 64, round trips through
the paper's design with its embedding columns scaled from 1e-5 to 1e5,
and two-sparse round trips on the 15x30 star design, whose coherence
1/5 certifies k = 2, each by the oracle and by matching pursuit.
Exits with status 1 when any round trip is not exact, when the scaled
design loses the uniqueness certificate of the unscaled one, or when
the 15x30 design is not certified at k = 2.
"""

import sys
from math import lcm

import numpy as np

from stpcs import (
    Side,
    SparsityMode,
    SparsitySpec,
    aocm,
    horizontal_expand,
    incidence_matrix,
    make_embedding,
    max_sparsity,
    mv_stp,
    recover,
    recover_signal,
    reduce_matrix,
    uniqueness_guarantee,
    vertical_expand,
    vertical_expand_star,
)
from stpcs.golden import EMBED_SIGNS_3X4, VERTICAL_ALPHA4
from stpcs.stp import unblocks


def main():
    rng = np.random.default_rng(7)
    phi = horizontal_expand(vertical_expand(incidence_matrix(4)),
                            np.array([[1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]],
                                     dtype=float))
    k = max_sparsity(phi)
    print(f"sensing matrix {phi.shape}, certified per-block sparsity k = {k}, "
          f"uniqueness: {uniqueness_guarantee(phi, k)}")

    spec = SparsitySpec(phi.shape[1], k)
    exact = []
    for s in (1, 2, 3):
        p = phi.shape[1] * s
        x = np.zeros(p)
        blocks = rng.choice(s, size=s, replace=False)
        for b in blocks:  # one spike per block keeps every block k-sparse
            x[b * phi.shape[1] + rng.integers(phi.shape[1])] = rng.choice([-2.0, -1.0, 1.0, 2.0])
        for side in (Side.LEFT, Side.RIGHT):
            planted = x
            if side is Side.LEFT:
                # the left convention interleaves blocks: one spike per phase
                planted = np.zeros(p)
                for u in range(s):
                    planted[rng.integers(phi.shape[1]) * s + u] = rng.choice([-2.0, 1.0, 2.0])
            y = mv_stp(phi, planted, side)
            xh = recover(phi, s, y, spec, side)
            ok = np.allclose(xh, planted, atol=1e-8)
            exact.append(ok)
            print(f"  s={s} side={side.value:<5} weight={np.count_nonzero(planted)} "
                  f"dim {p} -> {y.size}: exact={ok}")

    # non-divisible case: signal length 45 against 30 columns
    phi6 = horizontal_expand(vertical_expand_star(6), aocm(5))
    p = 45
    atom, lifts = reduce_matrix(phi6, Side.RIGHT)
    t = lcm(atom.shape[1] * lifts, p)  # mv_stp lifts the atom t/n0 times, the signal t/p
    x = np.zeros(p)
    x[11] = 2.0
    y = mv_stp(phi6, x, Side.RIGHT)
    xh = recover_signal(phi6, y, p, 1, Side.RIGHT)
    exact.append(np.allclose(xh, x, atol=1e-8))
    print(f"non-divisible: atom {atom.shape}, p={p}, lift s={t // atom.shape[1]}, "
          f"replication r={t // p}; exact={exact[-1]}")

    # global sparsity: two nonzeros in all, in two of 64 blocks
    s, n = 64, phi.shape[1]
    xs = np.zeros((n, s))
    for b, v in zip(rng.choice(s, size=2, replace=False), (2.0, -1.0)):
        xs[rng.integers(n), b] = v
    for side in (Side.LEFT, Side.RIGHT):
        x = unblocks(xs, side)  # column b of xs is block b of x
        y = mv_stp(phi, x, side)
        xh = recover(phi, s, y, SparsitySpec(n, 2, SparsityMode.GLOBAL), side)
        exact.append(np.allclose(xh, x, atol=1e-8))
        print(f"global k=2 s={s} side={side.value:<5} dim {x.size} -> {y.size}: "
              f"exact={exact[-1]}")

    # column scale: the 7x16 design with a diagonal embedding, so column
    # norms span 1e-5..1e5; each planted value adds O(1) to y
    scaled = horizontal_expand(VERTICAL_ALPHA4,
                               make_embedding(EMBED_SIGNS_3X4, [1e-5, 1.0, 10.0, 1e5]))
    s, n = 3, scaled.shape[1]
    norms = np.linalg.norm(scaled, axis=0)
    exact.append(uniqueness_guarantee(scaled, 1))
    print(f"diagonal embedding: column norms {norms.min():.1e}..{norms.max():.1e}, "
          f"uniqueness k=1: {exact[-1]}")
    xs = np.zeros((n, s))
    for b, j in enumerate(rng.choice(n, size=s, replace=False)):
        xs[j, b] = rng.choice([-2.0, 1.0, 2.0]) / norms[j]
    for side in (Side.LEFT, Side.RIGHT):
        x = unblocks(xs, side)
        weight = unblocks(np.repeat(norms[:, None], s, axis=1), side)
        y = mv_stp(scaled, x, side)
        for method in ("oracle", "omp"):
            xh = recover(scaled, s, y, SparsitySpec(n, 1), side, method=method)
            exact.append(np.allclose(xh * weight, x * weight, atol=1e-8))
            print(f"  scaled k=1 s={s} side={side.value:<5} {method:<6}: exact={exact[-1]}")

    # certified pursuit: coherence 1/5 certifies k = 2 on the 15x30 design,
    # so the oracle answers by pursuit there; two nonzeros in every block
    exact.append(uniqueness_guarantee(phi6, 2))
    print(f"15x30 star design: uniqueness k=2: {exact[-1]}")
    n = phi6.shape[1]
    for s in (1, 2, 3):
        xs = np.zeros((n, s))
        for b in range(s):
            xs[rng.choice(n, size=2, replace=False), b] = rng.choice([-2.0, -1.0, 1.0, 3.0], size=2)
        for side in (Side.LEFT, Side.RIGHT):
            x = unblocks(xs, side)
            y = mv_stp(phi6, x, side)
            for method in ("oracle", "omp"):
                xh = recover(phi6, s, y, SparsitySpec(n, 2), side, method=method)
                exact.append(np.allclose(xh, x, atol=1e-8))
                print(f"  k=2 s={s} side={side.value:<5} {method:<6}: exact={exact[-1]}")
    return 0 if all(exact) else 1


if __name__ == "__main__":
    sys.exit(main())

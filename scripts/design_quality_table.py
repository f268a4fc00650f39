#!/usr/bin/env python3
"""Tabulate the quality of the block-design sensing matrices.

For each number of points alpha, compares the two vertical expansions
(row counts drive the compression ratio), the embedded sensing matrix
built from the matching sign design, its coherence against the Welch
bound, the per-block sparsity that coherence certifies, and its spark
(`budget` where spark cannot be settled within the default budget; the
simplex search at 1 + 1/mu settles every design up to alpha = 10).
"""

import numpy as np

from stpcs import (
    aocm,
    coherence,
    horizontal_expand,
    incidence_matrix,
    max_sparsity,
    spark,
    vertical_expand,
    vertical_expand_star,
    welch_bound,
)
from stpcs.errors import BudgetExceeded, Unsupported


def main():
    header = (
        f"{'alpha':>5} {'rows(v)':>8} {'rows(*)':>8} {'cols':>5} "
        f"{'mu':>8} {'welch':>8} {'max k':>6} {'spark':>6} {'ratio':>6}"
    )
    print(header)
    print("-" * len(header))
    for alpha in range(4, 11):
        hv = vertical_expand(incidence_matrix(alpha))
        hs = vertical_expand_star(alpha)
        try:
            b = aocm(alpha - 1)
        except Unsupported:
            print(f"{alpha:>5} {hv.shape[0]:>8} {hs.shape[0]:>8}   (no sign design "
                  f"known for {alpha - 1} rows)")
            continue
        phi = horizontal_expand(hs, b)
        m, n = phi.shape
        mu = coherence(phi)
        # with n <= m the design expands instead of compressing and the
        # Welch bound does not apply (alpha = 7: aocm(6) has 2 columns)
        welch = f"{welch_bound(m, n):>8.4f}" if n > m else f"{'expands':>8}"
        try:
            spk = spark(phi)
        except BudgetExceeded:
            spk = "budget"
        print(
            f"{alpha:>5} {hv.shape[0]:>8} {hs.shape[0]:>8} {n:>5} "
            f"{mu:>8.4f} {welch} {max_sparsity(phi):>6} {spk:>6} {n / m:>6.2f}"
        )
    print()
    print("mu = 1/(alpha-1) throughout; the star expansion needs fewer rows,")
    print("so it compresses harder at the same coherence.")
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 8))
    print(f"\nrandom 4x8 for contrast: mu = {coherence(a):.4f}, "
          f"welch = {welch_bound(4, 8):.4f}")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from stpcs import (
    Side,
    SparsitySpec,
    aocm,
    basis_layer,
    basis_up_to,
    canonical_sign_form,
    coherence,
    dist_v,
    horizontal_expand,
    incidence_matrix,
    inner_v,
    mv_stp,
    ocm,
    orthonormal_basis,
    project,
    recover,
    rip_check,
    spark,
    sta,
    vertical_expand,
    vertical_expand_star,
    welch_bound,
)
from stpcs.errors import NotUnique
from stpcs.golden import (
    AOCM3,
    AOCM5,
    AOCM7,
    BASIS_LAYER_12,
    BASIS_LAYER_27,
    BASIS_ORDER_M10,
    EMBED_SIGNS_3X4,
    OCM4,
    ORTHONORMAL_FIRST9,
    SENSING_7X16,
    VERTICAL_ALPHA4,
)


class _Criterion:
    """Collects checks for one criterion and prints a single verdict line."""

    def __init__(self, num, desc, max_seconds=None):
        self.num = num
        self.desc = desc
        self.max_seconds = max_seconds
        self.failures: list[str] = []

    def check(self, ok, label):
        if not ok:
            self.failures.append(label)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"[criterion {self.num:2d}] FAIL {self.desc} (error: {exc})")
            return False
        if self.max_seconds is not None and elapsed > self.max_seconds:
            self.failures.append(f"runtime {elapsed:.2f}s > {self.max_seconds}s")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.num:2d}] {verdict} {self.desc} ({elapsed:.2f}s)")
        assert not self.failures, f"criterion {self.num}: {self.failures}"
        return False


def test_criterion_1_vertical_expansion_golden():
    with _Criterion(1, "vertical expansion reproduces the 7x4 reference", 1.0) as c:
        hv = vertical_expand(incidence_matrix(4))
        c.check(np.array_equal(hv, VERTICAL_ALPHA4), "vertical expansion differs")


def test_criterion_2_sensing_matrix_golden():
    with _Criterion(2, "7x16 sensing matrix, coherence 1/3, welch bound") as c:
        hv = vertical_expand(incidence_matrix(4))
        phi = horizontal_expand(hv, EMBED_SIGNS_3X4)
        c.check(np.array_equal(phi, SENSING_7X16), "sensing matrix differs")
        c.check(abs(coherence(phi) - 1 / 3) <= 1e-12, "coherence not 1/3")
        wb = welch_bound(7, 16)
        c.check(abs(wb - 0.29277) < 5e-6, "welch bound value")
        c.check(wb <= 1 / 3, "welch bound should lower-bound 1/3")


def test_criterion_3_star_expansion_family():
    with _Criterion(3, "star expansion shape/degrees/coherence, alpha in [3,10]") as c:
        for alpha in range(3, 11):
            hs = vertical_expand_star(alpha)
            c.check(hs.shape == (alpha * (alpha - 1) // 2, alpha), f"rows alpha={alpha}")
            c.check(np.array_equal(hs.sum(axis=1), np.full(hs.shape[0], 2.0)),
                    f"row degree alpha={alpha}")
            c.check(np.array_equal(hs.sum(axis=0), np.full(alpha, alpha - 1.0)),
                    f"column degree alpha={alpha}")
            c.check(abs(coherence(hs) - 1 / (alpha - 1)) <= 1e-12,
                    f"coherence alpha={alpha}")


def test_criterion_4_vertical_expansion_family():
    with _Criterion(4, "vertical expansion rows/coherence, alpha in [4,8]") as c:
        for alpha in range(4, 9):
            hv = vertical_expand(incidence_matrix(alpha))
            c.check(hv.shape[0] == alpha * alpha - 3 * alpha + 3, f"rows alpha={alpha}")
            c.check(abs(coherence(hv) - 1 / (alpha - 1)) <= 1e-12,
                    f"coherence alpha={alpha}")


def test_criterion_5_sign_matrix_golden_and_maximality():
    with _Criterion(5, "sign designs match references; exhaustive maximality", 10.0) as c:
        for name, ours, ref in (
            ("ocm4", ocm(4), OCM4),
            ("aocm3", aocm(3), AOCM3),
            ("aocm7", aocm(7), AOCM7),
            ("aocm5", aocm(5), AOCM5),
        ):
            c.check(np.array_equal(canonical_sign_form(ours), canonical_sign_form(ref)),
                    f"{name} not canonically equal")
        for t, mat in ((2, ocm(2)), (4, ocm(4)), (8, ocm(8))):
            extendable = any(
                np.all(np.array([1.0 if b >> i & 1 else -1.0 for i in range(t)]) @ mat == 0.0)
                for b in range(2**t)
            )
            c.check(not extendable, f"ocm({t}) extendable")
        for t, mat in ((3, aocm(3)), (7, aocm(7))):
            extendable = any(
                np.all(np.abs(np.array([1.0 if b >> i & 1 else -1.0 for i in range(t)]) @ mat) == 1.0)
                for b in range(2**t)
            )
            c.check(not extendable, f"aocm({t}) extendable")


def test_criterion_6_basis_layers_golden():
    with _Criterion(6, "independent layers at 12 and 27; order through 10") as c:
        c.check([e.j for e in basis_layer(12)] == BASIS_LAYER_12, "layer 12")
        c.check([e.j for e in basis_layer(27)] == BASIS_LAYER_27, "layer 27")
        order = [(e.n, e.j) for e in basis_up_to(10)]
        c.check(len(order) == 27, "basis size through 10")
        c.check(order == BASIS_ORDER_M10, "basis order through 10")


def test_criterion_7_orthonormal_basis_golden():
    with _Criterion(7, "first nine orthonormal elements match closed forms") as c:
        ob = orthonormal_basis(5)
        c.check(ob.count == 9, "element count")
        for i, (got, want) in enumerate(zip(ob.elements, ORTHONORMAL_FIRST9), start=1):
            c.check(got.shape == want.shape
                    and np.allclose(got, want, rtol=0.0, atol=1e-10),
                    f"element {i}")


def test_criterion_8_lift_invariance_suite():
    with _Criterion(8, "spark/coherence/RIP invariance under identity lifts", 30.0) as c:
        rng = np.random.default_rng(20240817)
        for shape in ((3, 5), (4, 6)):
            for trial in range(50):
                a = rng.standard_normal(shape)
                an = a / np.linalg.norm(a, axis=0)
                base_spark = spark(a)
                base_mu = coherence(a)
                base_delta = rip_check(an, 2).delta
                for s in (2, 3):
                    lifted = np.kron(a, np.eye(s))
                    c.check(spark(lifted) == base_spark,
                            f"spark {shape} s={s} trial={trial}")
                    c.check(abs(coherence(lifted) - base_mu) <= 1e-10,
                            f"coherence {shape} s={s} trial={trial}")
                    delta = rip_check(np.kron(an, np.eye(s)), 2).delta
                    c.check(abs(delta - base_delta) <= 1e-10,
                            f"rip {shape} s={s} trial={trial}")


def test_criterion_9_recovery_round_trip():
    with _Criterion(9, "exhaustive 1-sparse round trips through both conventions", 60.0) as c:
        phi = SENSING_7X16
        spec = SparsitySpec(16, 1)
        not_unique = 0
        for s in (1, 2, 3):
            p = 16 * s
            for side in (Side.LEFT, Side.RIGHT):
                for pos in range(p):
                    for amp in (1.0, -1.0, 2.0, -2.0):
                        x = np.zeros(p)
                        x[pos] = amp
                        y = mv_stp(phi, x, side)
                        try:
                            xh = recover(phi, s, y, spec, side)
                        except NotUnique:
                            not_unique += 1
                            continue
                        if not np.allclose(xh, x, rtol=0.0, atol=1e-8):
                            c.check(False, f"s={s} side={side.value} pos={pos} amp={amp}")
        c.check(not_unique == 0, f"NotUnique raised {not_unique} times")
        # blockwise bound is strictly stronger than the global bound:
        # one nonzero per block, total weight 3 > global limit 1
        s = 3
        x = np.zeros(48)
        for side, positions in ((Side.RIGHT, (2, 16 + 9, 32 + 13)),
                                (Side.LEFT, (0, 3 + 1, 6 + 2))):
            x[:] = 0.0
            for pos, amp in zip(positions, (1.0, -2.0, 2.0)):
                x[pos] = amp
            y = mv_stp(phi, x, side)
            xh = recover(phi, s, y, spec, side)
            c.check(np.allclose(xh, x, rtol=0.0, atol=1e-8)
                    and int(np.count_nonzero(x)) == 3,
                    f"weight-3 recovery {side.value}")


def test_criterion_10_geometry_suite():
    with _Criterion(10, "quotient geometry: lifts, projections, stationarity") as c:
        rng = np.random.default_rng(99)
        for trial in range(100):
            m = int(rng.integers(1, 9))
            x = rng.standard_normal(m)
            s = int(rng.integers(2, 5))
            lifted = np.kron(x, np.ones(s))
            c.check(dist_v(x, lifted) == 0.0, f"lift distance trial={trial}")
            y = rng.standard_normal(int(rng.integers(1, 9)))
            a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            v1 = inner_v(x, y)
            v2 = inner_v(np.kron(x, np.ones(a)), np.kron(y, np.ones(b)))
            c.check(abs(v1 - v2) <= 1e-12, f"inner invariance trial={trial}")
            n = int(rng.integers(1, 9))
            y0 = project(x, n)
            resid = sta(x, y0, Side.LEFT, subtract=True)
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                c.check(abs(inner_v(resid, e)) <= 1e-10,
                        f"residual orthogonality trial={trial} i={i}")
            h = 1e-6
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                fp = dist_v(y0 + h * e, x) ** 2
                fm = dist_v(y0 - h * e, x) ** 2
                c.check(abs((fp - fm) / (2 * h)) <= 1e-5,
                        f"gradient trial={trial} i={i}")

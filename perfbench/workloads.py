"""The four benchmark workloads: seeded inputs, op lists and output checks.

Each workload is one pass of ops that the benchmark repeats in a closed
loop.  An op calls public stpcs functions through the tracer (`run`) and
its output is then checked (`check`) against something that does not
come from the code under test: a planted signal, a golden array from the
paper, an identity of the quotient geometry, or a numpy recomputation.

Why these four (see also BENCHMARK.json):

- recover-lift: large lift factors (s up to 256) with a 7x16 atom and
  k=1, so the cost is the dense lifts and swap matrices, not the search.
- recover-search: tiny lifts of a 15x30 spark-6 design with k=2, so the
  cost is the per-support least-squares sweep (465 supports per block,
  1830 for the GLOBAL op).  The reverse of recover-lift on one layer.
- certify: builds, stores and certifies the block-design family
  alpha=4..9 by exhaustive spark/RIP enumeration, plus one subprocess CLI
  chain per pass; the only workload where io and cli do real work.
  alpha=10 is left out because aocm(9) raises Unsupported by design.
- basis-geometry: orthonormal bases on both sides and quotient-geometry
  identities.  It contains two known defects that count as failed ops:
  LEFT bases that do not span their generators (InsufficientBasis) and
  orthonormal_basis(16, RIGHT) raising DependentInput.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stpcs import basis, bibd, golden, io, metrics, pipeline, signal_space, stp
from stpcs.pipeline import SparsityMode, SparsitySpec
from stpcs.stp import Side

# Sizes of a full run and of the quick self-check.
FULL = {
    "lift_ps": (1000, 1024, 4096),
    "search_s": (1, 2, 3),
    "alphas": (4, 5, 6, 7, 8, 9),
    "basis_ms": (12, 14, 16),
    "assoc_draws": 300,
    "geometry_draws": 50,
}
TINY = {
    "lift_ps": (40, 32, 64),
    "search_s": (1, 2),
    "alphas": (4, 5),
    "basis_ms": (5, 6),
    "assoc_draws": 10,
    "geometry_draws": 4,
}

# spark is enumerated only where it stays inside metrics.DEFAULT_BUDGET.
SPARK_MAX_ALPHA = 7


class CheckFailed(Exception):
    """An op returned a wrong output."""


class MissingInput(Exception):
    """An op needs the output of an earlier op of its pass, which failed."""


@dataclass
class Op:
    kind: str
    group: str  # the end-to-end part the op belongs to: recover, certify, cli, basis, geometry
    run: Callable  # (tracer, state) -> result
    check: Callable  # (result) -> None; raises CheckFailed


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def needs(state: dict, key):
    if key not in state:
        raise MissingInput(f"{key!r} was not produced in this pass")
    return state[key]


def lift(x: np.ndarray, r: int, side: Side) -> np.ndarray:
    """Ones-lift by factor r, written with numpy alone."""
    return np.repeat(x, r) if side is Side.LEFT else np.tile(x, r)


def to_dim(x: np.ndarray, t: int, side: Side) -> np.ndarray:
    return lift(x, t // x.size, side)


def same(a, b, rel: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=rel * scale)


def supports(s: int, n: int, k: int, mode: SparsityMode, method: str) -> int:
    """Supports a recovery call tries: exhaustive search, or k greedy picks per block."""
    if method == "omp":
        return s * k
    if mode is SparsityMode.GLOBAL:
        return sum(math.comb(n * s, i) for i in range(1, k + 1))
    return s * sum(math.comb(n, i) for i in range(1, k + 1))


def spark_subsets(shape, result) -> int:
    """Subsets an exhaustive spark search covers before it returns `result`."""
    m, n = shape
    top = min(m, n) if math.isinf(result) else min(int(result), m, n)
    return sum(math.comb(n, i) for i in range(1, top + 1))


def _value(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.integers(1, 10))


def right_to_side(z: np.ndarray, s: int, n: int, side: Side) -> np.ndarray:
    """Signal whose recovery unknown, in the RIGHT block order, is z."""
    return z if side is Side.RIGHT else z.reshape(s, n).T.reshape(-1)


# The oracle's cost depends on how many nonzeros a block holds (in an
# all-zero block every support fits), so the planting functions fix those
# counts and let the seed choose only positions and values.  Otherwise the
# seed alone would move a run's time by tens of percent.

def plant_blockwise(rng, s: int, n: int, k: int, side: Side) -> np.ndarray:
    """A dim s*n signal whose recovery block b holds (b + s) mod (k+1) nonzeros."""
    z = np.zeros(s * n)
    for b in range(s):
        for i in rng.choice(n, size=(b + s) % (k + 1), replace=False):
            z[b * n + i] = _value(rng)
    return right_to_side(z, s, n, side)


def plant_lifted(rng, p: int, n: int, side: Side) -> np.ndarray:
    """A dim-p signal whose lift to t = lcm(n, p) fills half its blocks, one nonzero each.

    In the non-divisible case every entry has r = t/p copies in the lifted
    unknown, so an entry is planted only where all blocks its copies land
    in are still empty.
    """
    t = math.lcm(n, p)
    s, r = t // n, t // p
    x = np.zeros(p)
    used = np.zeros(s, dtype=bool)
    planted = 0
    for q in rng.permutation(p):
        if planted == s // (2 * r):
            break
        if side is Side.RIGHT:
            blocks = [(q + c * p) // n for c in range(r)]
        else:
            blocks = [(q * r + u) % s for u in range(r)]
        if len(set(blocks)) < r or used[blocks].any():
            continue
        used[blocks] = True
        x[q] = _value(rng)
        planted += 1
    return x


# ---------------------------------------------------------------- recover-lift

def _recover_lift(rng, size) -> list:
    atom = golden.SENSING_7X16
    n = atom.shape[1]
    ops = []
    for p in size["lift_ps"]:
        for side in (Side.LEFT, Side.RIGHT):
            for method in ("oracle", "omp"):
                x = plant_lifted(rng, p, n, side)
                s = math.lcm(n, p) // n
                count = {"supports": supports(s, n, 1, SparsityMode.BLOCKWISE, method)}

                def run(tr, state, x=x, p=p, side=side, method=method, count=count):
                    y = tr.call("stp.mv_stp", stp.mv_stp, atom, x, side)
                    return tr.call("pipeline.recover_signal", pipeline.recover_signal,
                                   atom, y, p, 1, side, method=method, counts=count)

                def check(xhat, x=x):
                    expect(same(xhat, x), "recovered signal differs from the planted one")

                ops.append(Op(f"recover-{p}-{side.value}-{method}", "recover", run, check))
    return ops


# -------------------------------------------------------------- recover-search

def _search_design() -> np.ndarray:
    """The 15x30 design from the star expansion of alpha=6 and aocm(5); spark 6."""
    return bibd.horizontal_expand(bibd.vertical_expand_star(6), bibd.aocm(5))


def _recover_search(rng, size) -> list:
    a = _search_design()
    n, k = a.shape[1], 2
    cases = [(s, side, SparsityMode.BLOCKWISE)
             for s in size["search_s"] for side in (Side.LEFT, Side.RIGHT)]
    cases.append((2, Side.LEFT, SparsityMode.GLOBAL))
    ops = []
    for s, side, mode in cases:
        if mode is SparsityMode.GLOBAL:
            z = np.zeros(s * n)
            for i in rng.choice(s * n, size=k, replace=False):
                z[i] = _value(rng)
            x = right_to_side(z, s, n, side)
        else:
            x = plant_blockwise(rng, s, n, k, side)
        spec = SparsitySpec(n, k, mode)
        count = {"supports": supports(s, n, k, mode, "oracle")}

        def run(tr, state, x=x, s=s, side=side, spec=spec, count=count):
            y = tr.call("stp.mv_stp", stp.mv_stp, a, x, side)
            return tr.call("pipeline.recover", pipeline.recover, a, s, y, spec, side,
                           counts=count)

        def check(xhat, x=x):
            expect(same(xhat, x), "recovered signal differs from the planted one")

        ops.append(Op(f"search-{mode.value}-s{s}-{side.value}", "recover", run, check))
    return ops


# --------------------------------------------------------------------- certify

def star_pattern(alpha: int) -> np.ndarray:
    """One row per column pair (i < j), ones at i and j, pairs in lexicographic order."""
    rows = []
    for i in range(alpha):
        for j in range(i + 1, alpha):
            row = np.zeros(alpha)
            row[[i, j]] = 1.0
            rows.append(row)
    return np.array(rows)


def _off_diagonal(g: np.ndarray) -> np.ndarray:
    return g[~np.eye(g.shape[0], dtype=bool)]


def _certify_design_ops(alpha: int, rundir: str) -> list:
    mu = 1.0 / (alpha - 1)
    ops = []

    def build(tr, state):
        h = tr.call("bibd.incidence_matrix", bibd.incidence_matrix, alpha)
        hv = tr.call("bibd.vertical_expand", bibd.vertical_expand, h)
        hs = tr.call("bibd.vertical_expand_star", bibd.vertical_expand_star, alpha)
        u = tr.call("bibd.aocm", bibd.aocm, alpha - 1)
        phi = tr.call("bibd.horizontal_expand", bibd.horizontal_expand, hs, u)
        paper = None
        if alpha == 4:
            paper = tr.call("bibd.horizontal_expand", bibd.horizontal_expand,
                            hv, golden.EMBED_SIGNS_3X4)
        state[alpha] = phi
        return h, hv, hs, u, phi, paper

    def check_build(out):
        h, hv, hs, u, phi, paper = out
        expect(np.array_equal(h, np.ones((alpha, alpha)) - np.fliplr(np.eye(alpha))),
               "incidence pattern")
        expect(hv.shape == (alpha * alpha - 3 * alpha + 3, alpha), "vertical expansion shape")
        expect(np.all(hv.sum(axis=0) == alpha - 1), "vertical expansion column degree")
        expect(np.all(_off_diagonal(hv.T @ hv) <= 1), "vertical expansion overlaps")
        expect(np.array_equal(hs, star_pattern(alpha)), "star expansion")
        expect(u.shape[0] == alpha - 1 and np.all(np.abs(u) == 1), "aocm is a sign matrix")
        expect(np.all(np.abs(_off_diagonal(u.T @ u)) <= 1), "aocm column products")
        expect(phi.shape == (hs.shape[0], alpha * u.shape[1]), "design shape")
        if alpha == 4:
            expect(np.array_equal(hv, golden.VERTICAL_ALPHA4), "golden vertical expansion")
            expect(np.array_equal(paper, golden.SENSING_7X16), "golden 7x16 sensing matrix")

    ops.append(Op(f"build-{alpha}", "certify", build, check_build))

    for suffix in ("csv", "json"):
        path = os.path.join(rundir, f"design-{alpha}.{suffix}")

        def store(tr, state, path=path):
            phi = needs(state, alpha)
            tr.call("io.save_matrix", io.save_matrix, path, phi,
                    counts=lambda _, path=path: {"bytes": os.path.getsize(path)})
            back, meta = tr.call("io.load_matrix", io.load_matrix, path)
            return phi, back, meta

        def check_store(out):
            phi, back, meta = out
            expect(back.dtype == phi.dtype and np.array_equal(back, phi), "io round trip")
            expect((meta["rows"], meta["cols"]) == phi.shape, "io header")

        ops.append(Op(f"io-{suffix}-{alpha}", "certify", store, check_store))

    def coh(tr, state):
        return tr.call("metrics.coherence", metrics.coherence, needs(state, alpha))

    def check_coh(value):
        expect(abs(value - mu) <= 1e-12, f"coherence {value} != 1/{alpha - 1}")

    ops.append(Op(f"coherence-{alpha}", "certify", coh, check_coh))

    if alpha <= SPARK_MAX_ALPHA:
        def spk(tr, state):
            phi = needs(state, alpha)
            return tr.call("metrics.spark", metrics.spark, phi,
                           counts=lambda r, shape=phi.shape: {"subsets": spark_subsets(shape, r)})

        def check_spark(value):
            lower = math.ceil(1.0 + 1.0 / mu - 1e-9)
            k_max = math.ceil(alpha / 2) - 1  # largest k < (1 + 1/mu) / 2
            expect(value >= lower, f"spark {value} below 1 + 1/mu")
            expect(value > 2 * k_max, f"spark {value} does not exceed 2 * max_sparsity")

        ops.append(Op(f"spark-{alpha}", "certify", spk, check_spark))

    for k, bound in ((2, mu), (3, 2 * mu)):
        def rip(tr, state, k=k):
            phi = needs(state, alpha)
            return tr.call("metrics.rip_check", metrics.rip_check, phi, k, normalize=True,
                           counts={"subsets": math.comb(phi.shape[1], k)})

        def check_rip(res, k=k, bound=bound):
            # delta_2 is the largest column cosine; delta_3 obeys Gershgorin.
            expect(res.delta <= bound + 1e-12, f"RIP delta_{k} {res.delta} above {bound}")

        ops.append(Op(f"rip{k}-{alpha}", "certify", rip, check_rip))

    def lift_reduce(tr, state):
        phi = needs(state, alpha)
        out = []
        for side in (Side.LEFT, Side.RIGHT):
            big = tr.call("stp.lift_matrix", stp.lift_matrix, phi, 2, side)
            out.append(tr.call("signal_space.reduce_matrix", signal_space.reduce_matrix, big, side))
        return phi, out

    def check_lift_reduce(res):
        phi, out = res
        for atom, mult in out:
            expect(mult == 2 and np.array_equal(atom, phi), "reduce_matrix(lift_matrix(A, 2))")

    ops.append(Op(f"lift-reduce-{alpha}", "certify", lift_reduce, check_lift_reduce))
    return ops


def read_csv(path) -> np.ndarray:
    """Parse a `# rows,cols,kind` CSV with numpy alone."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def write_csv(path, a: np.ndarray) -> None:
    a = np.atleast_2d(a)
    lines = [f"# {a.shape[0]},{a.shape[1]},real"]
    lines += [",".join(repr(float(v)) for v in row) for row in a]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cli(tr, name: str, rundir: str, *argv) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *argv] if argv[0] == "-c" else [sys.executable, "-m", "stpcs.cli", *argv]
    return tr.call(name, subprocess.run, cmd, cwd=rundir, check=True,
                   capture_output=True, text=True)


def cli_import_op() -> Op:
    return Op("cli-import", "cli", lambda tr, state: _cli(tr, "cli.import", ".", "-c", "import stpcs"),
              lambda out: None)


def _cli_chain(rng, rundir: str) -> list:
    """gen -> expand -> metrics -> compress -> recover on the alpha=5 star design."""
    alpha, s, k = 5, 2, 2
    n = 20  # star(5) is 10x5 and aocm(4) is 4x4, so the design is 10x20
    x = plant_blockwise(rng, s, n, k, Side.LEFT)
    write_csv(os.path.join(rundir, "x.csv"), x.reshape(-1, 1))

    def f(name):
        return os.path.join(rundir, name)

    def gen_bibd(tr, state):
        _cli(tr, "cli.gen", rundir, "gen", "bibd", "--alpha", str(alpha),
             "--expansion", "star", "-o", "H.csv")
        return read_csv(f("H.csv"))

    def gen_aocm(tr, state):
        _cli(tr, "cli.gen", rundir, "gen", "aocm", "-t", str(alpha - 1), "-o", "U.csv")
        return read_csv(f("U.csv"))

    def check_aocm(u):
        g = _off_diagonal(u.T @ u)
        expect(u.shape[0] == alpha - 1 and np.all(np.abs(u) == 1), "cli aocm is a sign matrix")
        expect(np.all(np.abs(g) <= 1), "cli aocm column products")

    def expand(tr, state):
        _cli(tr, "cli.expand", rundir, "expand", "horizontal", "-i", "H.csv",
             "--embed", "U.csv", "-o", "Phi.csv")
        phi = read_csv(f("Phi.csv"))
        state["phi"] = phi
        return phi

    def check_expand(phi):
        cos = phi.T @ phi / np.outer(np.linalg.norm(phi, axis=0), np.linalg.norm(phi, axis=0))
        expect(phi.shape == (10, n), "cli design shape")
        expect(abs(np.max(np.abs(_off_diagonal(cos))) - 1 / (alpha - 1)) <= 1e-12,
               "cli design coherence")

    def metrics_verb(tr, state):
        needs(state, "phi")
        proc = _cli(tr, "cli.metrics", rundir, "metrics", "-i", "Phi.csv", "--rip-k", "2")
        return json.loads(proc.stdout)

    def check_metrics(doc):
        mu = 1 / (alpha - 1)
        expect(abs(doc["coherence"] - mu) <= 1e-12, "cli coherence")
        expect(doc["spark"] >= alpha and doc["spark"] > 2 * doc["max_k"], "cli spark")
        expect(doc["rip"]["delta"] <= mu + 1e-12, "cli RIP delta_2")

    def compress(tr, state):
        phi = needs(state, "phi")
        _cli(tr, "cli.compress", rundir, "compress", "-A", "Phi.csv", "-x", "x.csv", "-o", "y.csv")
        state["y"] = read_csv(f("y.csv")).reshape(-1)
        return phi, state["y"]

    def check_compress(out):
        phi, y = out
        expect(same(y, np.kron(phi, np.eye(s)) @ x), "cli compression")

    def recover(tr, state):
        needs(state, "y")
        _cli(tr, "cli.recover", rundir, "recover", "-A", "Phi.csv", "-y", "y.csv",
             "--k", str(k), "-s", str(s), "-o", "xhat.csv")
        return read_csv(f("xhat.csv")).reshape(-1)

    return [
        cli_import_op(),
        Op("cli-gen-bibd", "cli", gen_bibd,
           lambda h: expect(np.array_equal(h, star_pattern(alpha)), "cli star expansion")),
        Op("cli-gen-aocm", "cli", gen_aocm, check_aocm),
        Op("cli-expand", "cli", expand, check_expand),
        Op("cli-metrics", "cli", metrics_verb, check_metrics),
        Op("cli-compress", "cli", compress, check_compress),
        Op("cli-recover", "cli", recover,
           lambda xhat: expect(same(xhat, x), "cli recovery differs from the planted signal")),
    ]


def _certify(rng, size, rundir: str, with_cli: bool) -> list:
    ops = [op for alpha in size["alphas"] for op in _certify_design_ops(alpha, rundir)]
    return ops + (_cli_chain(rng, rundir) if with_cli else [])


# -------------------------------------------------------------- basis-geometry

def generator(n: int, j: int) -> np.ndarray:
    v = np.zeros(n)
    v[j - 1] = 1.0
    return v


def _basis_ops(m: int, side: Side) -> list:
    key = ("basis", m, side)

    def build(tr, state):
        ob = tr.call("basis.orthonormal_basis", basis.orthonormal_basis, m, side,
                     counts=lambda ob: {"atom_dim": max(e.size for e in ob.elements)})
        state[key] = ob
        return ob

    def check_build(ob):
        expect(len(ob.labels) == len(ob.elements), "one label per element")
        for e in ob.elements:
            expect(abs(float(e @ e) / e.size - 1.0) <= 1e-9, "basis element is not unit norm")
        if side is Side.RIGHT:
            expect(len(ob.elements) >= 9 and all(
                same(e, ref, 1e-10) for e, ref in zip(ob.elements, golden.ORTHONORMAL_FIRST9)),
                "first nine RIGHT elements differ from the paper")

    ops = [Op(f"basis-{m}-{side.value}", "basis", build, check_build)]
    for n in range(1, m + 1):
        for j in ([1] if n == 1 else [j for j in range(1, n) if math.gcd(j, n) == 1]):
            x = generator(n, j)

            def coords(tr, state, x=x):
                # The basis is looked up inside the span, so a coordinates op
                # whose basis failed to build counts in basis.failed too.
                return tr.call("basis.coordinates",
                               lambda: basis.coordinates(x, needs(state, key)))

            def check_coords(xi, n=n):
                # Parseval: the coordinates carry the whole squared norm 1/n.
                expect(abs(float(xi @ xi) - 1.0 / n) <= 1e-9, "coordinates miss part of the norm")

            ops.append(Op(f"coordinates-{m}-{side.value}", "basis", coords, check_coords))
    return ops


def _signal(rng, shapes) -> np.ndarray:
    return rng.standard_normal(int(shapes.integers(2, 65)))


def _matrix(rng, shapes) -> np.ndarray:
    return rng.standard_normal((int(shapes.integers(2, 9)), int(shapes.integers(2, 9))))


def _inner_np(x, y, side) -> float:
    t = math.lcm(x.size, y.size)
    return float(to_dim(x, t, side) @ to_dim(y, t, side)) / t


def _geometry_ops(rng, size) -> list:
    # Dimensions set the cost (lifts go to their lcm), so they come from a
    # fixed stream; the seed draws the entries.
    shapes = np.random.default_rng(0)
    ops = []
    sides = (Side.LEFT, Side.RIGHT)
    for i in range(size["geometry_draws"]):
        side = sides[i % 2]
        x, y, r = _signal(rng, shapes), _signal(rng, shapes), int(shapes.integers(2, 5))
        nx, ny = math.sqrt(x @ x / x.size), math.sqrt(y @ y / y.size)
        inner = _inner_np(x, y, side)

        def project(tr, state, y=y, r=r, side=side):
            return tr.call("signal_space.project", signal_space.project, lift(y, r, side),
                           y.size, side)

        def inner_v(tr, state, x=x, y=y, r=r, side=side):
            return (tr.call("signal_space.inner_v", signal_space.inner_v, x, y, side),
                    tr.call("signal_space.inner_v", signal_space.inner_v, lift(x, r, side), y, side))

        def dist_v(tr, state, x=x, y=y, side=side):
            return tr.call("signal_space.dist_v", signal_space.dist_v, x, y, side)

        def angle_v(tr, state, x=x, y=y, side=side):
            return tr.call("signal_space.angle_v", signal_space.angle_v, x, y, side)

        bumped = lift(x, r, side)
        bumped[int(rng.integers(bumped.size))] += 1.0

        def equivalent(tr, state, x=x, r=r, side=side, bumped=bumped):
            return (tr.call("signal_space.equivalent", signal_space.equivalent,
                            x, lift(x, r, side), side),
                    tr.call("signal_space.equivalent", signal_space.equivalent, x, bumped, side))

        subtract = bool(i % 4 >= 2)

        def sta(tr, state, x=x, y=y, side=side, subtract=subtract):
            return tr.call("stp.sta", stp.sta, x, y, side, subtract=subtract)

        t = math.lcm(x.size, y.size)
        diff = to_dim(x, t, side) - to_dim(y, t, side)
        dist = math.sqrt(diff @ diff / t)
        summed = to_dim(x, t, side) + (-1 if subtract else 1) * to_dim(y, t, side)
        tol = 1e-9 * nx * ny
        ops += [
            Op("project", "geometry", project,
               lambda out, y=y: expect(same(out, y), "project(lift(y), dim y) != y")),
            Op("inner_v", "geometry", inner_v,
               lambda out, inner=inner, tol=tol: expect(
                   abs(out[0] - inner) <= tol and abs(out[1] - inner) <= tol,
                   "inner_v is not lift-invariant")),
            Op("dist_v", "geometry", dist_v,
               lambda out, dist=dist: expect(abs(out - dist) <= 1e-9 * max(1.0, dist), "dist_v")),
            Op("angle_v", "geometry", angle_v,
               lambda out, c=inner / (nx * ny): expect(
                   abs(math.cos(out) - c) <= 1e-9, "angle_v")),
            Op("equivalent", "geometry", equivalent,
               lambda out: expect(out == (True, False), "equivalent(x, lift(x)) / bumped lift")),
            Op("sta", "geometry", sta,
               lambda out, summed=summed: expect(same(out, summed), "sta")),
        ]

    for i in range(size["assoc_draws"]):
        side = sides[i % 2]
        a, b, x = _matrix(rng, shapes), _matrix(rng, shapes), _signal(rng, shapes)

        def assoc(tr, state, a=a, b=b, x=x, side=side):
            ab = tr.call("stp.mm_stp", stp.mm_stp, a, b, side)
            lhs = tr.call("stp.mv_stp", stp.mv_stp, ab, x, side)
            bx = tr.call("stp.mv_stp", stp.mv_stp, b, x, side)
            return lhs, tr.call("stp.mv_stp", stp.mv_stp, a, bx, side)

        def check_assoc(out, side=side):
            lhs, rhs = out
            t = math.lcm(lhs.size, rhs.size)
            expect(same(to_dim(lhs, t, side), to_dim(rhs, t, side)),
                   "(A*B)*x and A*(B*x) are not equivalent")

        ops.append(Op("assoc", "geometry", assoc, check_assoc))
    return ops


def _basis_geometry(rng, size) -> list:
    ops = [op for m in size["basis_ms"] for side in (Side.RIGHT, Side.LEFT)
           for op in _basis_ops(m, side)]
    return ops + _geometry_ops(rng, size)


def build(name: str, seed: int, size: dict, rundir: str, with_cli: bool = True) -> list:
    """The workload's ops for one pass, in order, with inputs drawn from `seed`."""
    builders = {
        "recover-lift": lambda rng: _recover_lift(rng, size),
        "recover-search": lambda rng: _recover_search(rng, size),
        "certify": lambda rng: _certify(rng, size, rundir, with_cli),
        "basis-geometry": lambda rng: _basis_geometry(rng, size),
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(builders)}")
    # The workload's position is mixed into the seed, so each draws its own inputs.
    return builders[name](np.random.default_rng([seed, list(builders).index(name)]))

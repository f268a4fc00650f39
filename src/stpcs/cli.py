"""Command-line interface.

One verb per construction or analysis step, so every artifact can be
regenerated from its parameters.  `gen bibd` writes the incidence
pattern itself (no expansion) or one of its expansions:

    stpcs gen bibd --alpha 4 -o H.csv
    stpcs gen bibd --alpha 4 --expansion star -o Hs.csv
    stpcs gen ocm -t 4 -o O.csv
    stpcs expand horizontal -i Hv.csv --embed B.csv -o Phi.csv
    stpcs metrics -i Phi.csv --rip-k 1
    stpcs basis -m 10 -o basis.json
    stpcs compress -A Phi.csv -x x.csv --side left -o y.csv
    stpcs recover -A Phi.csv -y y.csv --k 1 --side left -o xhat.csv
    stpcs paper-examples --outdir out/

Exit codes: 0 success, 1 domain error (the error class name is echoed),
2 usage error.  The environment variable STPCS_BUDGET overrides the
subset-enumeration budget used by spark/RIP computations; spark applies
it only to the subset sizes its bounds leave open; a value that is not
a non-negative integer is a BadShape error.

Each verb imports only the modules it calls, so a launch pays for the
code it runs: `gen` loads `bibd`, not the recovery or metrics code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io
from .errors import StpcsError
from .stp import as_matrix, as_signal

__all__ = ["main"]


def _budget(default: int):
    """STPCS_BUDGET as an int, or as given where it names none, for the library to reject."""
    raw = os.environ.get("STPCS_BUDGET")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return raw


def _write_matrix(args, a, kind="real", name=None, provenance=None) -> None:
    if args.output:
        io.save_matrix(args.output, a, kind=kind, name=name, provenance=provenance)
    else:  # what save_matrix checks
        print(io._csv_rows(io._validate_kind(as_matrix(a), kind)))


def _write_signal(args, x) -> None:
    if args.output:
        io.save_signal(args.output, x)
    else:
        print(",".join(map(repr, as_signal(x).tolist())))  # what save_signal checks


def _emit_json(args, doc: dict) -> None:
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    from . import bibd

    if args.what == "bibd":
        h = bibd.incidence_matrix(args.alpha)
        if args.expansion == "vertical":
            h = bibd.vertical_expand(h)
        elif args.expansion == "star":
            h = bibd.vertical_expand_star(args.alpha)
        _write_matrix(args, h, kind="boolean",
                      name=f"bibd-alpha{args.alpha}-{args.expansion}",
                      provenance={"alpha": args.alpha, "expansion": args.expansion})
    elif args.what == "ocm":
        _write_matrix(args, bibd.ocm(args.t), kind="sign", name=f"ocm-{args.t}",
                      provenance={"t": args.t})
    elif args.what == "aocm":
        _write_matrix(args, bibd.aocm(args.t), kind="sign", name=f"aocm-{args.t}",
                      provenance={"t": args.t})
    elif args.what == "random":
        rng = np.random.default_rng(args.seed)
        if args.kind == "real":
            a = rng.standard_normal((args.rows, args.cols))
        elif args.kind == "sign":
            a = rng.choice([-1.0, 1.0], size=(args.rows, args.cols))
        else:
            a = rng.integers(0, 2, size=(args.rows, args.cols)).astype(float)
        _write_matrix(args, a, kind=args.kind, name="random",
                      provenance={"rows": args.rows, "cols": args.cols,
                                  "seed": args.seed, "kind": args.kind})
    return 0


def _cmd_expand(args) -> int:
    from . import bibd

    h, _ = io.load_matrix(args.input)
    if args.what == "vertical":
        out = bibd.vertical_expand(h)
        kind = "boolean"
    else:  # horizontal
        b, _ = io.load_matrix(args.embed)
        if args.diag:
            b = bibd.make_embedding(b, [float(v) for v in args.diag.split(",")])
        out = bibd.horizontal_expand(h, b)
        kind = "real"
    _write_matrix(args, out, kind=kind)
    return 0


def _cmd_metrics(args) -> int:
    from . import metrics

    a, _ = io.load_matrix(args.input)
    budget = _budget(metrics.DEFAULT_BUDGET)
    if args.class_metrics:
        report = metrics.class_metrics(a, rip_k=args.rip_k, budget=budget)
    else:
        report = metrics.component_metrics(a, rip_k=args.rip_k, budget=budget)
    _emit_json(args, report.to_json_dict())
    return 0


def _cmd_basis(args) -> int:
    from .basis import orthonormal_basis

    ob = orthonormal_basis(args.m, args.side)
    doc = {
        "m": args.m,
        "side": ob.side.value,
        "count": ob.count,
        "labels": [list(l) for l in ob.labels],
        "elements": [e.tolist() for e in ob.elements],
    }
    _emit_json(args, doc)
    return 0


def _cmd_project(args) -> int:
    from .signal_space import project

    x = io.load_signal(args.input)
    y = project(x, args.n, args.side)
    _write_signal(args, y)
    return 0


def _cmd_compress(args) -> int:
    from .pipeline import compress

    a, _ = io.load_matrix(args.matrix)
    x = io.load_signal(args.signal)
    y = compress(a, x, args.side)
    _write_signal(args, y)
    return 0


def _cmd_recover(args) -> int:
    from .pipeline import SparsitySpec, recover, recover_signal

    a, _ = io.load_matrix(args.matrix)
    y = io.load_signal(args.measurements)
    if args.p is not None:
        x = recover_signal(a, y, args.p, args.k, args.side, method=args.method)
    else:
        spec = SparsitySpec(a.shape[1], args.k)
        x = recover(a, args.s, y, spec, args.side, method=args.method)
    _write_signal(args, x)
    return 0


def _cmd_paper_examples(args) -> int:
    """Regenerate the checked-in reference designs and diff against them."""
    from . import bibd, golden, metrics
    from .basis import basis_layer, basis_up_to, orthonormal_basis

    checks: list[tuple[str, bool, np.ndarray, str]] = []

    h4 = bibd.incidence_matrix(4)
    checks.append(("incidence-alpha4", np.array_equal(h4, golden.INCIDENCE_ALPHA4),
                   h4, "boolean"))

    hv = bibd.vertical_expand(h4)
    checks.append(("vertical-expansion-alpha4", np.array_equal(hv, golden.VERTICAL_ALPHA4),
                   hv, "boolean"))

    hs = bibd.vertical_expand_star(4)
    checks.append(("star-expansion-alpha4", np.array_equal(hs, golden.STAR_ALPHA4),
                   hs, "boolean"))

    phi = bibd.horizontal_expand(hv, golden.EMBED_SIGNS_3X4)
    ok = (np.array_equal(phi, golden.SENSING_7X16)
          and abs(metrics.coherence(phi) - 1 / 3) < 1e-12)
    checks.append(("sensing-7x16", ok, phi, "real"))

    for name, ours, ref in (
        ("ocm-4", bibd.ocm(4), golden.OCM4),
        ("aocm-3", bibd.aocm(3), golden.AOCM3),
        ("aocm-7", bibd.aocm(7), golden.AOCM7),
        ("aocm-5", bibd.aocm(5), golden.AOCM5),
    ):
        same = np.array_equal(bibd.canonical_sign_form(ours),
                              bibd.canonical_sign_form(ref))
        checks.append((name, same, ours, "sign"))

    lay12 = [e.j for e in basis_layer(12)]
    lay27 = [e.j for e in basis_layer(27)]
    order = [(e.n, e.j) for e in basis_up_to(10)]
    layers_ok = (lay12 == golden.BASIS_LAYER_12 and lay27 == golden.BASIS_LAYER_27
                 and order == golden.BASIS_ORDER_M10)
    checks.append(("basis-layers-and-order", layers_ok, None, ""))

    ob = orthonormal_basis(5)
    ortho_ok = len(ob.elements) >= 9 and all(
        e.shape == r.shape and np.allclose(e, r, rtol=0.0, atol=1e-10)
        for e, r in zip(ob.elements[:9], golden.ORTHONORMAL_FIRST9)
    )
    checks.append(("orthonormal-basis-9", ortho_ok, None, ""))

    failures = 0
    for name, ok, arr, kind in checks:
        print(f"{name}: {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures += 1
        if args.outdir and arr is not None:
            os.makedirs(args.outdir, exist_ok=True)
            io.save_matrix(os.path.join(args.outdir, f"{name}.csv"), arr, kind=kind)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stpcs", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate matrices")
    gs = g.add_subparsers(dest="what", required=True)
    gb = gs.add_parser("bibd", help="incidence matrix plus optional expansion")
    gb.add_argument("--alpha", type=int, required=True)
    gb.add_argument("--expansion", choices=["none", "vertical", "star"], default="none")
    go = gs.add_parser("ocm", help="orthogonal-column sign matrix with t rows")
    go.add_argument("-t", type=int, required=True)
    ga = gs.add_parser("aocm", help="almost-orthogonal-column sign matrix with t rows")
    ga.add_argument("-t", type=int, required=True)
    gr = gs.add_parser("random", help="seeded random matrix")
    gr.add_argument("--rows", type=int, required=True)
    gr.add_argument("--cols", type=int, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--kind", choices=list(io.KINDS), default="real")
    for sp in (gb, go, ga, gr):
        sp.add_argument("-o", "--output")
    g.set_defaults(func=_cmd_gen)

    e = sub.add_parser("expand", help="vertical/horizontal expansions")
    es = e.add_subparsers(dest="what", required=True)
    ev = es.add_parser("vertical")
    ev.add_argument("-i", "--input", required=True)
    eh = es.add_parser("horizontal")
    eh.add_argument("-i", "--input", required=True)
    eh.add_argument("--embed", required=True, help="sign/embedding matrix file")
    eh.add_argument("--diag", help="comma-separated diagonal to scale the embedding")
    for sp in (ev, eh):
        sp.add_argument("-o", "--output")
    e.set_defaults(func=_cmd_expand)

    m = sub.add_parser("metrics", help="coherence/spark/bounds report as JSON")
    m.add_argument("-i", "--input", required=True)
    m.add_argument("--rip-k", type=int, default=None)
    m.add_argument("--class", dest="class_metrics", action="store_true",
                   help="reduce to the class atom first, the smaller of the two sides' atoms")
    m.add_argument("-o", "--output")
    m.set_defaults(func=_cmd_metrics)

    b = sub.add_parser("basis", help="orthonormal basis of the signal space")
    b.add_argument("-m", type=int, required=True, help="largest layer dimension")
    b.add_argument("--side", choices=["left", "right"], default="right")
    b.add_argument("-o", "--output")
    b.set_defaults(func=_cmd_basis)

    pr = sub.add_parser("project", help="project a signal onto R^n")
    pr.add_argument("-i", "--input", required=True)
    pr.add_argument("-n", type=int, required=True)
    pr.add_argument("--side", choices=["left", "right"], default="left")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=_cmd_project)

    c = sub.add_parser("compress", help="semi-tensor-product compression")
    c.add_argument("-A", "--matrix", required=True)
    c.add_argument("-x", "--signal", required=True)
    c.add_argument("--side", choices=["left", "right"], default="left")
    c.add_argument("-o", "--output")
    c.set_defaults(func=_cmd_compress)

    r = sub.add_parser("recover", help="exact blockwise-sparse recovery")
    r.add_argument("-A", "--matrix", required=True)
    r.add_argument("-y", "--measurements", required=True)
    r.add_argument("--k", type=int, required=True, help="per-block sparsity bound")
    r.add_argument("--side", choices=["left", "right"], default="left")
    lift = r.add_mutually_exclusive_group()
    lift.add_argument("-s", type=int, default=1, help="identity-lift factor")
    lift.add_argument("-p", type=int, default=None,
                      help="original signal dimension (enables the non-divisible case)")
    r.add_argument("--method", choices=["oracle", "omp"], default="oracle",
                   help="oracle: the unique sparse solution, by pursuit where the "
                        "coherence certifies k and by the support sweep elsewhere; "
                        "omp: uncertified greedy pursuit")
    r.add_argument("-o", "--output")
    r.set_defaults(func=_cmd_recover)

    x = sub.add_parser("paper-examples",
                       help="regenerate the reference designs and diff against them")
    x.add_argument("--outdir", default=None)
    x.set_defaults(func=_cmd_paper_examples)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StpcsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

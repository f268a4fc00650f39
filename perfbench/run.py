#!/usr/bin/env python3
"""stpcs benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload recover-lift --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root; `all` runs the four workloads in turn.
A workload runs in fresh child processes (perfbench/child.py) with `src`
on PYTHONPATH and BLAS pinned to one thread.  Each child is a closed loop
with one client: the next op starts only after the previous one returned
and was checked.

The bounded times are CPU seconds of the child and of the CLI
subprocesses it waited for, so that time the machine gives to other
processes does not count, scaled by the speed of the core that a fixed
reference kernel measured in the same process (calibrate.py).  The
summary prints the uncalibrated CPU and wall figures beside them.

With `--trace 0` the last line of output holds the end-to-end metrics
(END_TO_END); with `--trace 1` it holds the per-layer metrics
(spans.PER_LAYER), folded from the spans file the child writes.  Lines
before it are a readable summary, including the workload-specific names
(recover_per_s, certify_s, cli_s, basis_s, geometry_per_s, fail_ratio).
Exits non-zero, printing no result, if the package or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from spans import layer_metrics, read_spans  # noqa: E402

# BENCHMARK.json holds the one list of workload names; workloads.build
# refuses a name it has no ops for.
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_cal_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Every matrix here is below BLAS threading size; more threads only add variance.
BLAS_THREADS = "1"

# Set-up is timed in this many fresh children besides the measuring one.
SETUP_SAMPLES = 5

# A run must end within 180 s; children are stopped well before that.
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for the self-check only")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, rundir: Path, name: str, deadline: float, setup_only: bool) -> dict:
    out = rundir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", str(rundir), "--out", str(out), "--spans", str(rundir / "spans.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Own process group, so a child stopped at the deadline takes its CLI
    # subprocesses with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{name} did not finish before the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def p95(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=100)[94]


def passes(res: dict) -> int:
    return len(res["oks"]) // len(res["groups"])


def total(res: dict, key: str, groups=None) -> float:
    """Sum of `res[key]` over the run's ops (or over the ops of `groups`)."""
    return sum(v for v, g in zip(res[key], res["groups"] * passes(res)) if groups is None or g in groups)


def rate(res: dict, key: str, groups=None) -> float:
    """Ops that succeeded over the whole run / seconds they took.

    The core switches between fast and slow spells within seconds; a
    total over the run averages them the way the mean kernel time does,
    where the median of pass rates jumps between the two speeds.
    """
    return total(res, "oks", groups) / total(res, key, groups)


def speed(res: dict) -> float:
    """How much faster than the baseline machine the core ran (calibrate.py)."""
    return REFERENCE_S / res["ref_s"]


def end_to_end(children: list[dict], res: dict) -> dict:
    # Each set-up child is calibrated by the kernel it timed right after
    # its set-up; the measuring child's set-up is not counted, because it
    # must not run the kernel before its peak RSS is read.
    values = {
        "setup_s": statistics.median(c["setup_s"] * speed(c) for c in children),
        "ops_per_cal_s": rate(res, "cpu") / speed(res),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def row(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def summary(args, children: list[dict], res: dict) -> list[str]:
    lat = res["latencies"]
    tail = p95(lat)
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"env python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"OPENBLAS_NUM_THREADS=OMP_NUM_THREADS={BLAS_THREADS}  load closed loop, 1 client",
        f"ops attempted {res['attempted']}  failed {res['failed']}  "
        f"fail_ratio {res['failed'] / res['attempted']:.6f}  passes {passes(res)}",
        f"ops_per_s {rate(res, 'latencies'):.4f} 1/s (wall)",
        f"ops_per_cpu_s {rate(res, 'cpu'):.4f} 1/s  "
        f"speed {speed(res):.4f} (mean kernel {1e3 * res['ref_s']:.2f} ms)",
        f"op_ms_p50 {1e3 * statistics.median(lat):.4f} ms  op_ms_p95 {1e3 * tail:.4f} ms  "
        f"samples {len(lat)}  beyond_p95 {sum(1 for v in lat if v > tail)} (wall)",
        f"setup_s cpu {row(c['setup_s'] for c in children)}  "
        f"speed {row(speed(c) for c in children)}  "
        f"wall {row(c['setup_wall_s'] for c in children)}  "
        f"(measuring child: cpu {res['setup_s']:.4f} wall {res['setup_wall_s']:.4f})",
    ]
    # Per-part names: recover_per_s, certify_s, cli_s, basis_s, geometry_per_s.
    for group in sorted(set(res["groups"])):
        cpu = total(res, "cpu", {group}) / passes(res)
        wall = total(res, "latencies", {group}) / passes(res)
        lines.append(f"{group}_s cpu {cpu:.6f} s  wall {wall:.6f} s per pass  "
                     f"{group}_per_s cpu {rate(res, 'cpu', {group}):.4f}  "
                     f"wall {rate(res, 'latencies', {group}):.4f} 1/s")
    for text in res["wrong"]:
        lines.append(f"WRONG {text}")
    return lines


def run_workload(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    rundir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        children = [run_child(args, rundir, f"setup{i}", deadline, True)
                    for i in range(SETUP_SAMPLES)]
        res = run_child(args, rundir, "run", deadline, False)
        if args.trace:
            metrics = layer_metrics(read_spans(rundir / "spans.jsonl"),
                                    res["traced_passes"], res["overhead_s"])
        else:
            metrics = end_to_end(children, res)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for line in summary(args, children, res):
        print(line)
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["wrong_count"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stpcs" / "__init__.py").is_file():
        print(f"error: no stpcs package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for workload in WORKLOADS:
        status |= run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set a workload up, then time it in a closed loop.

run.py starts this script in a fresh interpreter with `src` on
PYTHONPATH and BLAS pinned to one thread; it is not meant to be run by
hand.  The set-up time is the CPU time the process has used when the
warm-up ends: interpreter start, `import stpcs`, input generation and the
warm-up.  A `--setup-only` child then times the calibration kernel and
exits.  `--spawned-at` is the parent's `time.monotonic()` just before
the spawn (a system-wide clock on Linux), from which the wall set-up
time is reported alongside.

The result is one JSON document written to `--out`; with `--trace 1`
the spans go to `--spans` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import calibrate
import workloads
from spans import Tracer
from stpcs import errors
from stpcs.errors import StpcsError
from workloads import CheckFailed, MissingInput


# The measuring child times the calibration kernel once per this many
# seconds between ops, and at least KERNEL_RUNS times (mean taken); a
# set-up child times it KERNEL_RUNS times.
KERNEL_EVERY_S = 0.5
KERNEL_RUNS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--rundir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    return p.parse_args(argv)


class Tally:
    """Outcomes and times of the ops run in one or more passes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        # Per op, in the order run: wall seconds, CPU seconds, succeeded.
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.oks: list[bool] = []


def cpu_now() -> float:
    """CPU seconds of this process and of the subprocesses it has waited for."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def cli_refusal(exc: subprocess.CalledProcessError) -> bool:
    """True if the CLI refused with a typed stpcs error.

    cli.main prints `error: <class>: <message>` as its last line and exits
    1.  Any other exit (a crash with a traceback, a usage error, a
    ValueError) is a wrong output, as the same exception would be
    in-process.
    """
    last = ((exc.stderr or "").strip().splitlines() or [""])[-1]
    if exc.returncode != 1 or not last.startswith("error: "):
        return False
    cls = getattr(errors, last[len("error: "):].partition(":")[0], None)
    return isinstance(cls, type) and issubclass(cls, StpcsError)


def run_pass(ops, tracer, tally: Tally, between=None) -> None:
    """Run one pass; `between()` is called before each op, outside its timing."""
    state: dict = {}
    for op in ops:
        if between:
            between()
        tally.attempted += 1
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            with tracer.span("op." + op.kind):
                result = op.run(tracer, state)
        except (StpcsError, MissingInput):
            # A typed refusal: the op failed, but nothing wrong was returned.
            ok = False
        except subprocess.CalledProcessError as exc:
            ok = False
            if not cli_refusal(exc):
                tally.wrong.append(f"{op.kind}: exit {exc.returncode}: {(exc.stderr or '')[-500:]}")
        except Exception:
            tally.wrong.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
            ok = False
        else:
            ok = True
        # Times cover the calls into stpcs, not the output check below.
        tally.cpu.append(cpu_now() - c0)
        tally.latencies.append(time.perf_counter() - t0)
        if ok:
            try:
                op.check(result)
            except CheckFailed as exc:
                tally.wrong.append(f"{op.kind}: {exc}")
                ok = False
            except Exception:
                # An output the check cannot even read is a wrong output.
                tally.wrong.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                ok = False
        tally.oks.append(ok)
        tally.failed += not ok


def pin_to_current_cpu() -> None:
    """Keep this process and the CLI subprocesses it starts on one CPU.

    The two vCPUs of a shared machine drift apart in speed, so the
    calibration kernel measures the speed of the timed work only if both
    run on the same one.  Left alone where the platform cannot do it.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_current_cpu()
    os.makedirs(args.rundir, exist_ok=True)
    size = workloads.TINY if args.tiny else workloads.FULL
    ops = workloads.build(args.workload, args.seed, size, args.rundir)
    tracer = Tracer()
    # Warm-up: every op kind once at the smallest size, no CLI processes.
    warm = workloads.build(args.workload, args.seed, workloads.TINY, args.rundir, with_cli=False)
    run_pass(warm, tracer, Tally())
    # CPU seconds since the process started (interpreter start included),
    # and wall seconds since the parent spawned it.
    result = {"setup_s": time.process_time(),
              "setup_wall_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        # The speed of the core right after set-up, to calibrate it by.
        result["ref_s"] = statistics.mean(calibrate.kernel_s() for _ in range(KERNEL_RUNS))
        return write(args.out, result)

    tally, traced = Tally(), Tally()
    # A timed run needs enough ops that ten of them lie beyond the 95th
    # percentile; a traced run reports no latencies.
    min_samples = 0 if args.tiny or args.trace else 200
    probe = not any(op.kind == "cli-import" for op in ops)
    overheads: list[float] = []
    sampler = None
    peak_rss_mb = None
    traced_passes = 0
    begin = time.perf_counter()
    if args.trace:
        # One memory pass for the per-span peaks; its times are not used.
        tracer.enabled = tracer.memory = True
        tracemalloc.start()
        run_pass(ops, tracer, traced)
        tracemalloc.stop()
        tracer.enabled = tracer.memory = False
    while True:
        t0 = time.perf_counter()
        run_pass(ops, tracer, tally, sampler)
        untraced = time.perf_counter() - t0
        if peak_rss_mb is None:
            # Before the calibration kernel first runs, so its buffers do not count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # A traced run reports no calibrated metric; its pass times
            # give the tracing overhead and must not hold kernel runs.
            sampler = None if args.trace else calibrate.Sampler(KERNEL_EVERY_S)
        if args.trace:
            # A timing pass right after the untraced one; the difference is
            # the cost of the spans.
            tracer.pass_index = traced_passes
            tracer.enabled = True
            t0 = time.perf_counter()
            run_pass(ops, tracer, traced)
            overheads.append(time.perf_counter() - t0 - untraced)
            if probe:
                # Every workload pays an interpreter start and `import stpcs`.
                run_pass([workloads.cli_import_op()], tracer, traced)
            tracer.enabled = False
            traced_passes += 1
        if time.perf_counter() - begin >= args.seconds and len(tally.latencies) >= min_samples:
            break
    refs = sampler.times if sampler else []
    refs += [calibrate.kernel_s() for _ in range(KERNEL_RUNS - len(refs))]

    wrong = tally.wrong + traced.wrong
    result.update({
        "attempted": tally.attempted + traced.attempted,
        "failed": tally.failed + traced.failed,
        "wrong": wrong[:20],
        "wrong_count": len(wrong),
        "latencies": tally.latencies,
        "cpu": tally.cpu,
        "oks": tally.oks,
        "groups": [op.group for op in ops],
        "ref_s": statistics.mean(refs),
        "peak_rss_mb": peak_rss_mb,
        "traced_passes": traced_passes,
        "overhead_s": statistics.median(overheads) if overheads else 0.0,
    })
    if args.trace:
        tracer.write(args.spans)
    return write(args.out, result)


def write(path, doc) -> int:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Quick self-check of the benchmark itself (not part of the package tests).

    python3 perfbench/selfcheck.py

Runs every workload at its smallest size through run.py and asserts that:

- the last output line has exactly the keys correct/attempted/failed/metrics
  and the outputs were checked correct;
- every workload of BENCHMARK.json runs, and every end-to-end name
  (trace 0) and every per-layer name (trace 1) is present with its unit,
  and nothing else;
- the computed counts pipeline.supports and metrics.subsets repeat
  exactly for one seed;
- a second seed also passes its output checks.

Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT_COUNTS = ("pipeline.supports", "metrics.subsets")


class SelfCheckError(Exception):
    pass


def require(ok, what: str) -> None:
    if not ok:
        raise SelfCheckError(what)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    require(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(doc) == {"correct", "attempted", "failed", "metrics"},
            f"{workload}: result keys {sorted(doc)}")
    require(doc["correct"] is True, f"{workload} seed {seed}: outputs failed their checks")
    require(isinstance(doc["attempted"], int) and doc["attempted"] >= 1, "attempted")
    require(isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"], "failed")
    return doc


def check_names(doc: dict, declared: list, what: str) -> None:
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    require(got == want, f"{what}: names/units differ: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {[n for n in want if n in got and got[n] != want[n]]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        # A name the benchmark has no ops for makes its run fail.
        for workload in [w["name"] for w in spec["workloads"]]:
            check_names(bench(workload, 1, 0), spec["end_to_end"], f"{workload} end-to-end")
            first, again = bench(workload, 1, 1), bench(workload, 1, 1)
            check_names(first, spec["per_layer"], f"{workload} per-layer")
            for name in EXACT_COUNTS:
                a, b = first["metrics"][name]["value"], again["metrics"][name]["value"]
                require(a == b, f"{workload}: {name} differs between runs of one seed: {a} != {b}")
            bench(workload, 2, 0)
            print(f"{workload}: ok")
    except (SelfCheckError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        return 1
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

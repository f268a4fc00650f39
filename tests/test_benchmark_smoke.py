"""The smallest recovery passes of the benchmark, run as tests.

`perfbench/workloads.py` is loaded from its file, without writing
bytecode next to it, and its TINY recover-lift and recover-search passes
run every op and its own output check twice in one process: from a
cleared atom memo, then from the entries the first run left.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from stpcs import pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("workloads"), _load("spans").Tracer()


@pytest.mark.parametrize("workload", ["recover-lift", "recover-search"])
def test_tiny_recovery_pass_is_correct_cold_and_warm(bench, workload, tmp_path):
    workloads, tracer = bench
    ops = workloads.build(workload, 1, workloads.TINY, str(tmp_path))
    assert ops
    pipeline._atom_of.cache_clear()
    pipeline._reduced_of.cache_clear()
    for _ in ("cold", "warm"):
        state = {}
        for op in ops:
            op.check(op.run(tracer, state))

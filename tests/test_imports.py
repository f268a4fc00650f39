"""The import surface: `import stpcs` loads nothing, each CLI verb loads only
what it calls, and every public name resolves as it did when the package
imported all of its modules eagerly."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stpcs
from stpcs import bibd, io, mv_stp

SRC = str(Path(stpcs.__file__).resolve().parent.parent)

# Every name `stpcs` re-exports, by the module that defines it.
PUBLIC = {
    "basis": ["BasisElement", "OrthonormalBasis", "basis_layer", "basis_up_to", "coordinates",
              "generating_layer", "has_multifold_divisor", "orthonormal_basis"],
    "bibd": ["BibdParams", "SignKind", "aocm", "bibd_check",
             "canonical_sign_form", "horizontal_expand", "incidence_matrix", "make_embedding",
             "ocm", "sign_matrix_check", "vertical_expand", "vertical_expand_star"],
    "errors": ["BadDiag", "BadShape", "BudgetExceeded", "DegreeMismatch", "InsufficientBasis",
               "NoSolution", "NotBibd", "NotExpandable", "NotUnique", "StpcsError",
               "Unsupported", "ZeroColumn", "ZeroVector"],
    "metrics": ["DEFAULT_BUDGET", "CsReport", "RipResult", "class_metrics", "coherence",
                "max_sparsity", "rip_check", "signed_coherence", "spark", "welch_bound"],
    "pipeline": ["SparsityMode", "SparsitySpec", "recover", "recover_signal",
                 "uniqueness_guarantee"],
    "signal_space": ["angle_v", "dist_v", "equivalent", "inner_v", "matrices_equivalent",
                     "norm_v", "project", "projection_matrix", "reduce_matrix", "reduce_signal"],
    "stp": ["Side", "lift_matrix", "lift_signal", "mm_stp", "mv_stp", "sta", "swap_matrix"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
SUBMODULES = ["basis", "bibd", "errors", "io", "metrics", "pipeline", "signal_space", "stp"]


def _run(code: str, cwd=None) -> str:
    """stdout of `code` in a fresh interpreter that finds this checkout's stpcs."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str, cwd=None) -> set[str]:
    out = _run(code + "\nimport sys\nprint(' '.join(m for m in sys.modules"
               " if m == 'numpy' or m.split('.')[0] == 'stpcs'))", cwd)
    return set(out.splitlines()[-1].split())


def test_import_stpcs_loads_no_numpy_and_no_submodule():
    assert _loaded_after("import stpcs") == {"stpcs"}


BASE = {"stpcs", "stpcs.cli", "stpcs.io", "stpcs.errors", "stpcs.stp", "numpy"}
GEOMETRY = {"stpcs.metrics", "stpcs.signal_space"}
VERBS = {
    "gen bibd": (["gen", "bibd", "--alpha", "5", "--expansion", "star", "-o", "H.csv"],
                 {"stpcs.bibd"}),
    "gen aocm": (["gen", "aocm", "-t", "4", "-o", "U.csv"], {"stpcs.bibd"}),
    "expand horizontal": (["expand", "horizontal", "-i", "H5.csv", "--embed", "U4.csv",
                           "-o", "Phi.csv"], {"stpcs.bibd"}),
    "metrics": (["metrics", "-i", "Phi5.csv", "--rip-k", "2", "-o", "m.json"], GEOMETRY),
    "compress": (["compress", "-A", "Phi5.csv", "-x", "x.csv", "-o", "y.csv"], set()),
    "recover": (["recover", "-A", "Phi5.csv", "-y", "y40.csv", "--k", "2", "-s", "2",
                 "-o", "xhat.csv"], {"stpcs.pipeline", *GEOMETRY}),
    "project": (["project", "-i", "x.csv", "-n", "7", "-o", "p.csv"], {"stpcs.signal_space"}),
    "basis": (["basis", "-m", "6", "-o", "b.json"], {"stpcs.basis", "stpcs.signal_space"}),
    "paper-examples": (["paper-examples"],
                       {"stpcs.bibd", "stpcs.basis", "stpcs.golden", *GEOMETRY}),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("verbs")
    phi = bibd.horizontal_expand(bibd.vertical_expand_star(5), bibd.aocm(4))
    x = np.zeros(40)
    x[[0, 6, 3, 11]] = [2.0, -1.0, 3.0, 1.0]
    io.save_matrix(d / "H5.csv", bibd.vertical_expand_star(5), kind="boolean")
    io.save_matrix(d / "U4.csv", bibd.aocm(4), kind="sign")
    io.save_matrix(d / "Phi5.csv", phi)
    io.save_signal(d / "x.csv", x)
    io.save_signal(d / "y40.csv", mv_stp(phi, x))
    return d


@pytest.mark.parametrize("verb", list(VERBS))
def test_each_verb_loads_only_the_modules_it_calls(workdir, verb):
    argv, extra = VERBS[verb]
    loaded = _loaded_after(f"from stpcs import cli\nassert cli.main({argv!r}) == 0", workdir)
    assert loaded == BASE | extra


@pytest.mark.parametrize("module,name", NAMES, ids=[n for _, n in NAMES])
def test_every_public_name_resolves_to_its_module(module, name):
    assert name in stpcs.__all__
    assert name in dir(stpcs)
    assert getattr(stpcs, name) is getattr(importlib.import_module(f"stpcs.{module}"), name)


def test_all_is_the_public_names_and_the_submodules():
    assert len(NAMES) == 65
    assert sorted(stpcs.__all__) == sorted([n for _, n in NAMES] + SUBMODULES)


def test_star_import_binds_every_public_name():
    ns: dict = {}
    exec("from stpcs import *", ns)
    for module, name in NAMES:
        assert ns[name] is getattr(importlib.import_module(f"stpcs.{module}"), name)
    for module in SUBMODULES:
        assert ns[module] is importlib.import_module(f"stpcs.{module}")


def test_submodules_resolve_after_a_bare_import():
    _run("import importlib, stpcs\n"
         f"for m in {SUBMODULES!r}:\n"
         "    assert getattr(stpcs, m) is importlib.import_module('stpcs.' + m), m\n"
         "assert stpcs.metrics.coherence is stpcs.coherence")


def test_an_unknown_name_raises_attribute_error():
    assert not hasattr(stpcs, "no_such_name")
    with pytest.raises(AttributeError, match="module 'stpcs' has no attribute 'no_such_name'"):
        stpcs.no_such_name  # noqa: B018
    assert stpcs.__version__ == "0.1.0"

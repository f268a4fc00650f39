"""Semi-tensor-product signal algebra and deterministic compressed sensing.

Modules by theme:

- ``stp``: the dimension-free products in reshape form; Kronecker lifts
  and swap matrices as reference constructions.
- ``signal_space``: equivalence classes, quotient geometry, projection.
- ``basis``: generating layers, the ordered basis, orthonormalization.
- ``metrics``: coherence, Welch bound, spark, RIP certification, and
  one report for a matrix's class.
- ``bibd``: block-design incidence matrices and sensing-matrix expansions.
- ``pipeline``: exact sparse recovery, through any lift of the atom and
  for any signal dimension.
- ``io``/``cli``: file formats and the command-line surface.

Names load on first use (PEP 562): ``import stpcs`` imports neither numpy
nor any of these modules, and ``stpcs.coherence`` or ``stpcs.metrics``
imports ``stpcs.metrics`` the first time it is read.  `_EXPORTS` is the
one table of what the package re-exports, and from which module.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "basis": (
        "BasisElement", "OrthonormalBasis", "basis_layer", "basis_up_to", "coordinates",
        "generating_layer", "has_multifold_divisor", "orthonormal_basis",
    ),
    "bibd": (
        "BibdParams", "SignKind", "aocm", "bibd_check", "canonical_sign_form",
        "horizontal_expand", "incidence_matrix", "make_embedding", "ocm", "sign_matrix_check",
        "vertical_expand", "vertical_expand_star",
    ),
    "errors": (
        "BadDiag", "BadShape", "BudgetExceeded", "DegreeMismatch", "InsufficientBasis",
        "NoSolution", "NotBibd", "NotExpandable", "NotUnique", "StpcsError", "Unsupported",
        "ZeroColumn", "ZeroVector",
    ),
    "io": (),
    "metrics": (
        "DEFAULT_BUDGET", "CsReport", "RipResult", "class_metrics", "coherence",
        "max_sparsity", "rip_check", "signed_coherence", "spark", "welch_bound",
    ),
    "pipeline": (
        "SparsityMode", "SparsitySpec", "recover", "recover_signal", "uniqueness_guarantee",
    ),
    "signal_space": (
        "angle_v", "dist_v", "equivalent", "inner_v", "matrices_equivalent", "norm_v",
        "project", "projection_matrix", "reduce_matrix", "reduce_signal",
    ),
    "stp": ("Side", "lift_matrix", "lift_signal", "mm_stp", "mv_stp", "sta", "swap_matrix"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _OWNER:
        value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

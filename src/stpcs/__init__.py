"""Semi-tensor-product signal algebra and deterministic compressed sensing.

Subpackages by theme:

- ``stp``: the dimension-free products in reshape form; Kronecker lifts
  and swap matrices as reference constructions.
- ``signal_space``: equivalence classes, quotient geometry, projection.
- ``basis``: generating layers, the ordered basis, orthonormalization.
- ``metrics``: coherence, Welch bound, spark, RIP certification.
- ``bibd``: block-design incidence matrices and sensing-matrix expansions.
- ``pipeline``: compression plans and exact sparse recovery.
- ``io``/``cli``: file formats and the command-line surface.
"""

from .basis import (
    BasisElement,
    OrthonormalBasis,
    basis_layer,
    basis_up_to,
    coordinates,
    generating_layer,
    has_multifold_divisor,
    orthonormal_basis,
)
from .bibd import (
    BibdParams,
    EmbeddingMatrix,
    SignKind,
    aocm,
    bibd_check,
    canonical_sign_form,
    horizontal_expand,
    incidence_matrix,
    make_embedding,
    ocm,
    sign_matrix_check,
    vertical_expand,
    vertical_expand_star,
)
from .errors import (
    BadDiag,
    BadShape,
    BudgetExceeded,
    DegreeMismatch,
    InsufficientBasis,
    NoSolution,
    NotBibd,
    NotExpandable,
    NotUnique,
    StpcsError,
    Unsupported,
    ZeroColumn,
    ZeroVector,
)
from .metrics import (
    DEFAULT_BUDGET,
    CsReport,
    RipResult,
    class_metrics,
    coherence,
    component_metrics,
    max_sparsity,
    rip_check,
    signed_coherence,
    spark,
    welch_bound,
)
from .pipeline import (
    CompressionPlan,
    SparsityMode,
    SparsitySpec,
    compress,
    plan,
    recover,
    recover_signal,
    uniqueness_guarantee,
)
from .signal_space import (
    angle_v,
    dist_v,
    equivalent,
    inner_v,
    matrices_equivalent,
    norm_v,
    project,
    projection_matrix,
    reduce_matrix,
    reduce_signal,
)
from .stp import Side, lift_matrix, lift_signal, mm_stp, mv_stp, sta, swap_matrix

__version__ = "0.1.0"

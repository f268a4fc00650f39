"""Every public entry point rejects invalid input with a typed error."""

import numpy as np
import pytest

from stpcs import (
    SparsityMode,
    SparsitySpec,
    aocm,
    basis_up_to,
    bibd_check,
    class_metrics,
    coherence,
    generating_layer,
    incidence_matrix,
    io,
    lift_matrix,
    lift_signal,
    mv_stp,
    ocm,
    orthonormal_basis,
    project,
    projection_matrix,
    recover,
    recover_signal,
    reduce_matrix,
    rip_check,
    sign_matrix_check,
    swap_matrix,
    uniqueness_guarantee,
    vertical_expand_star,
    welch_bound,
)
from stpcs.basis import largest_square_divisor
from stpcs.bibd import SignKind
from stpcs.errors import BadShape, NotBibd, ZeroColumn
from stpcs.golden import SENSING_7X16
from stpcs.stp import as_matrix, as_side, as_signal


def _load_csv(tmp_path, text):
    path = tmp_path / "a.csv"
    path.write_text(text)
    return io.load_matrix(path)


# (call on a scratch directory, error type, fragment of the message)
CASES = {
    "generating_layer(0)": (lambda t: generating_layer(0), BadShape, "positive"),
    "largest_square_divisor(0)": (lambda t: largest_square_divisor(0), BadShape, "positive"),
    "basis_up_to(0)": (lambda t: basis_up_to(0), BadShape, "positive"),
    "orthonormal_basis(0)": (lambda t: orthonormal_basis(0), BadShape, "positive"),
    "incidence_matrix(2)": (lambda t: incidence_matrix(2), BadShape, "alpha >= 3"),
    "vertical_expand_star(2)": (lambda t: vertical_expand_star(2), BadShape, "alpha >= 3"),
    "ocm(0)": (lambda t: ocm(0), BadShape, "positive row count"),
    "aocm(0)": (lambda t: aocm(0), BadShape, "positive row count"),
    "bibd_check rows": (lambda t: bibd_check([[1, 0], [1, 1]]), NotBibd, "replication count"),
    "bibd_check cols": (lambda t: bibd_check([[1, 1, 0], [1, 0, 1]]), NotBibd,
                        "block size is not constant"),
    "bibd_check k": (lambda t: bibd_check(np.eye(3)), NotBibd, "block size 1 violates"),
    "bibd_check pairs": (lambda t: bibd_check([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0],
                                               [0, 1, 0, 1]]), NotBibd, "pair count"),
    "unknown kind": (lambda t: io.save_matrix(t / "a.csv", np.eye(2), kind="int"), BadShape,
                     "unknown kind 'int'"),
    "non-boolean": (lambda t: io.save_matrix(t / "a.csv", 2 * np.eye(2), kind="boolean"),
                    BadShape, "only 0 and 1"),
    "csv without header": (lambda t: _load_csv(t, "1,2\n"), BadShape, "missing '# rows,cols,kind'"),
    "csv malformed header": (lambda t: _load_csv(t, "# 1,2\n1,2\n"), BadShape, "malformed header"),
    "coherence of one column": (lambda t: coherence(np.ones((3, 1))), BadShape,
                                "at least two columns"),
    "rip_check k = 0": (lambda t: rip_check(np.eye(2), 0), BadShape, "k=0 out of range"),
    "rip_check k > n": (lambda t: rip_check(np.eye(2), 3), BadShape, "k=3 out of range"),
    "rip_check zero column": (lambda t: rip_check([[1.0, 0.0], [0.0, 0.0]], 1, normalize=True),
                              ZeroColumn, "zero column"),
    "recover_signal p = 0": (lambda t: recover_signal(SENSING_7X16, np.zeros(7), 0, 1), BadShape,
                             "signal dimension"),
    "projection_matrix(0, 3)": (lambda t: projection_matrix(0, 3), BadShape, "positive"),
    "project(x, 0)": (lambda t: project(np.ones(3), 0), BadShape, "positive"),
    "as_side('up')": (lambda t: as_side("up"), BadShape, "unknown side 'up'"),
    "as_matrix([])": (lambda t: as_matrix([]), BadShape, "nonempty 2-D"),
    "as_matrix 3-D": (lambda t: as_matrix(np.ones((1, 1, 1))), BadShape, "nonempty 2-D"),
    "as_signal([nan])": (lambda t: as_signal([np.nan]), ValueError, "finite"),
    "swap_matrix(0, 2)": (lambda t: swap_matrix(0, 2), BadShape, "positive"),
    "lift to a non-multiple": (lambda t: lift_signal(np.ones(2), 3), BadShape, "non-multiple 3"),
    "mv_stp side 'bogus'": (lambda t: mv_stp(SENSING_7X16, np.ones(16), "bogus"), BadShape,
                            "unknown side 'bogus'"),
    "reduce_matrix side 0": (lambda t: reduce_matrix(SENSING_7X16, 0), BadShape,
                             "unknown side 0"),
    "recover side None": (lambda t: recover(SENSING_7X16, 1, np.zeros(7), SparsitySpec(16, 1),
                                            None), BadShape, "unknown side None"),
    "uniqueness_guarantee k = -1": (lambda t: uniqueness_guarantee(SENSING_7X16, -1), BadShape,
                                    "sparsity -1 must be non-negative"),
    "uniqueness_guarantee k = 1.5": (lambda t: uniqueness_guarantee(SENSING_7X16, 1.5),
                                     BadShape, "sparsity 1.5 must be an integer"),
    "recover s = 1.0": (lambda t: recover(SENSING_7X16, 1.0, np.zeros(7), SparsitySpec(16, 1)),
                        BadShape, "lift factor 1.0 must be an integer"),
    "recover s = -1": (lambda t: recover(SENSING_7X16, -1, np.zeros(7), SparsitySpec(16, 1)),
                       BadShape, "lift factor -1 must be positive"),
    "recover s = 0": (lambda t: recover(SENSING_7X16, 0, np.zeros(7), SparsitySpec(16, 1)),
                      BadShape, "lift factor 0 must be positive"),
    "SparsitySpec k = 1.5": (lambda t: SparsitySpec(16, 1.5), BadShape,
                             "per-block sparsity 1.5 must be an integer"),
    "SparsitySpec GLOBAL k = 1.5": (lambda t: SparsitySpec(16, 1.5, SparsityMode.GLOBAL),
                                    BadShape, "sparsity 1.5 must be an integer"),
    "SparsitySpec n = 16.0": (lambda t: SparsitySpec(16.0, 1), BadShape,
                              "block length 16.0 must be an integer"),
    "SparsitySpec n = 0": (lambda t: SparsitySpec(0, 0), BadShape,
                           "block length 0 must be positive"),
    "recover_signal p = 16.5": (lambda t: recover_signal(SENSING_7X16, np.zeros(7), 16.5, 1),
                                BadShape, "signal dimension 16.5 must be an integer"),
    "recover_signal p = 16.0": (lambda t: recover_signal(SENSING_7X16, np.zeros(7), 16.0, 1),
                                BadShape, "signal dimension 16.0 must be an integer"),
    "lift_matrix(a, 0)": (lambda t: lift_matrix(SENSING_7X16, 0), BadShape,
                          "lift factor 0 must be positive"),
    "lift_matrix(a, 2.0)": (lambda t: lift_matrix(SENSING_7X16, 2.0), BadShape,
                            "lift factor 2.0 must be an integer"),
    "lift_signal(x, 0)": (lambda t: lift_signal(np.ones(2), 0), BadShape,
                          "lift dimension 0 must be positive"),
    "orthonormal_basis(4.0)": (lambda t: orthonormal_basis(4.0), BadShape,
                               "bound 4.0 must be an integer"),
    "generating_layer(3.0)": (lambda t: generating_layer(3.0), BadShape,
                              "layer index 3.0 must be an integer"),
    "basis_up_to(3.5)": (lambda t: basis_up_to(3.5), BadShape, "bound 3.5 must be an integer"),
    "largest_square_divisor(8.0)": (lambda t: largest_square_divisor(8.0), BadShape,
                                    "8.0 must be an integer"),
    "project(x, 2.5)": (lambda t: project(np.ones(3), 2.5), BadShape,
                        "dimension 2.5 must be an integer"),
    "projection_matrix(2.0, 3)": (lambda t: projection_matrix(2.0, 3), BadShape,
                                  "dimension 2.0 must be an integer"),
    "swap_matrix(2.5, 2)": (lambda t: swap_matrix(2.5, 2), BadShape,
                            "dimension 2.5 must be an integer"),
    "incidence_matrix(4.5)": (lambda t: incidence_matrix(4.5), BadShape,
                              "alpha 4.5 must be an integer"),
    "vertical_expand_star(4.0)": (lambda t: vertical_expand_star(4.0), BadShape,
                                  "alpha 4.0 must be an integer"),
    "ocm(4.0)": (lambda t: ocm(4.0), BadShape, "row count 4.0 must be an integer"),
    "aocm(3.0)": (lambda t: aocm(3.0), BadShape, "row count 3.0 must be an integer"),
    "rip_check k = 2.0": (lambda t: rip_check(SENSING_7X16, 2.0), BadShape,
                          "sparsity 2.0 must be an integer"),
    "class_metrics rip_k = 1.5": (lambda t: class_metrics(SENSING_7X16, rip_k=1.5), BadShape,
                                  "sparsity 1.5 must be an integer"),
    "welch_bound(2.5, 4)": (lambda t: welch_bound(2.5, 4), BadShape, "must be an integer"),
    "welch_bound(True, 3)": (lambda t: welch_bound(True, 3), BadShape, "must be an integer"),
}


@pytest.mark.parametrize("case", CASES)
def test_invalid_input_raises(case, tmp_path):
    call, error, fragment = CASES[case]
    with pytest.raises(error, match=fragment):
        call(tmp_path)


def test_one_dimensional_input_is_a_row_matrix():
    assert as_matrix([1, 2]).shape == (1, 2)


def test_single_column_sign_matrices_classify_by_row_parity():
    assert sign_matrix_check(np.ones((2, 1))) is SignKind.OCM
    assert sign_matrix_check(np.ones((3, 1))) is SignKind.AOCM

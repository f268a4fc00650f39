import json
import math
import re
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    aocm,
    CsReport,
    class_metrics,
    coherence,
    horizontal_expand,
    incidence_matrix,
    lift_matrix,
    make_embedding,
    max_sparsity,
    rip_check,
    signed_coherence,
    spark,
    uniqueness_guarantee,
    vertical_expand,
    vertical_expand_star,
    welch_bound,
)
from stpcs import metrics
from stpcs.errors import BadShape, BudgetExceeded, StpcsError, ZeroColumn
from stpcs.golden import EMBED_SIGNS_3X4, SENSING_7X16, VERTICAL_ALPHA4


def spark_oracle(a):
    """Brute-force reference: smallest dependent column subset by rank tests.

    The rank tests run on the unit-norm columns (zero columns stay zero):
    scaling a column changes no dependence, and must not change the spark.
    """
    a = np.asarray(a, dtype=float)
    norms = np.linalg.norm(a, axis=0)
    a = a / np.where(norms == 0.0, 1.0, norms)
    m, n = a.shape
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            s = a[:, sub]
            sv = np.linalg.svd(s, compute_uv=False)
            if len(sv) < k or sv[-1] <= 1e-9 * sv[0]:
                return k
    return math.inf


def rip_oracle(a, k, normalize=False):
    """Reference RIP constant: one SVD per k-column submatrix."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if normalize:
        a = a / np.linalg.norm(a, axis=0)
    delta = 0.0
    for sub in combinations(range(n), k):
        sv = np.linalg.svd(a[:, sub], compute_uv=False)
        smin = sv[-1] if k <= m else 0.0
        delta = max(delta, float(sv[0] ** 2 - 1.0), float(1.0 - smin**2))
    return delta, delta < 1.0


MATRIX_KINDS = ("gaussian", "integer", "near_dependent", "rank_deficient",
                "scaled", "duplicate", "zero_column")


def blockwise_rip_delta(a, k, s, side=Side.RIGHT):
    """RIP constant of the identity lift over blockwise-sparse supports.

    Enumerates every support with at most k indices per length-n block of
    the lifted matrix (I_s (x) A or A (x) I_s) directly, one SVD each:
    (sum over r <= k of C(n, r))^s supports, so only for small s.
    """
    n = a.shape[1]
    per_block = [c for r in range(k + 1) for c in combinations(range(n), r)]
    big = lift_matrix(a, s, side)
    delta = 0.0
    for choice in product(per_block, repeat=s):
        # block b owns columns b*n .. b*n+n-1 (RIGHT) or b, b+s, ... (LEFT)
        if side is Side.RIGHT:
            cols = [b * n + c for b, sub in enumerate(choice) for c in sub]
        else:
            cols = [b + c * s for b, sub in enumerate(choice) for c in sub]
        if not cols:
            continue
        sv = np.linalg.svd(big[:, cols], compute_uv=False)
        smin = sv[-1] if len(cols) <= big.shape[0] else 0.0
        delta = max(delta, float(sv[0] ** 2 - 1.0), float(1.0 - smin**2))
    return delta


def generated_matrix(kind, seed, m, n, noise_exp=-10.0):
    """An m-by-n test matrix of the given kind, drawn from `seed`.

    near_dependent sets one column to a combination of others plus noise
    of size 10**noise_exp; rank_deficient does the same without noise;
    scaled multiplies each column by a factor in 1e-6..1e6.
    """
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(-3, 4, (m, n)).astype(float)
    a = rng.standard_normal((m, n))
    if kind == "scaled":
        a *= 10.0 ** rng.uniform(-6.0, 6.0, n)
    elif kind in ("near_dependent", "rank_deficient") and n >= 2:
        j = int(rng.integers(n))
        others = np.delete(np.arange(n), j)
        sub = rng.choice(others, size=int(rng.integers(1, n)), replace=False)
        a[:, j] = a[:, sub] @ rng.standard_normal(sub.size)
        if kind == "near_dependent":
            a[:, j] += 10.0**noise_exp * rng.standard_normal(m)
    elif kind == "duplicate" and n >= 2:
        i, j = rng.choice(n, size=2, replace=False)
        a[:, j] = a[:, i]
    elif kind == "zero_column":
        a[:, int(rng.integers(n))] = 0.0
    return a


# --- coherence ----------------------------------------------------------------

def test_coherence_of_orthogonal_columns_is_zero():
    assert coherence(np.eye(4)) == 0.0


def test_coherence_of_reference_sign_matrix():
    assert coherence(EMBED_SIGNS_3X4) == pytest.approx(1 / 3, abs=1e-15)


def test_coherence_of_star_expansion():
    assert coherence(vertical_expand_star(4)) == pytest.approx(1 / 3, abs=1e-15)


def test_coherence_rejects_zero_column():
    with pytest.raises(ZeroColumn):
        coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_signed_coherence_keeps_the_sign():
    a = np.array([[1.0, -1.0], [1.0, -1.0]])  # anti-parallel columns
    assert coherence(a) == pytest.approx(1.0)
    assert signed_coherence(a) == pytest.approx(-1.0)


# --- welch bound ----------------------------------------------------------------

def test_welch_bound_7_16():
    assert welch_bound(7, 16) == pytest.approx(math.sqrt(9 / 105), abs=1e-15)
    assert welch_bound(7, 16) == pytest.approx(0.29277, abs=5e-6)


def test_welch_bound_degenerate_and_near_square():
    assert welch_bound(1, 2) == pytest.approx(1.0, abs=1e-15)
    for m in range(2, 8):
        assert welch_bound(m, m + 1) == pytest.approx(1 / m, abs=1e-12)


def test_welch_bound_rejects_wide_shapes():
    with pytest.raises(BadShape):
        welch_bound(5, 5)


@pytest.mark.parametrize("seed", range(5))
def test_coherence_respects_welch_bound(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 9))
    assert coherence(a) >= welch_bound(4, 9) - 1e-12


# --- spark ----------------------------------------------------------------------

def test_spark_explicit_example():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert spark_oracle(a) == 3
    assert spark(a) == 3


def test_spark_of_identity_is_infinite():
    assert spark(np.eye(5)) == math.inf


def test_spark_duplicate_column_is_two():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert spark(a) == 2


def test_spark_zero_column_is_one():
    a = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert spark(a) == 1


@pytest.mark.parametrize("seed", range(4))
def test_spark_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    assert spark(a) == spark_oracle(a)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("s", [2, 3])
def test_spark_invariant_under_identity_lifts(seed, s):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    base = spark(a)
    assert spark(np.kron(a, np.eye(s))) == base
    assert spark(np.kron(np.eye(s), a)) == base


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(MATRIX_KINDS),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-14.0, max_value=-7.0),
)
def test_spark_matches_bruteforce_oracle_on_generated_matrices(kind, seed, m, n, noise_exp):
    a = generated_matrix(kind, seed, m, n, noise_exp)
    assert spark(a) == spark_oracle(a)


def test_spark_finds_a_dependent_subset_past_the_first_chunk():
    # C(24, 4) = 10626 subsets of size 4; the only dependent one is the
    # lexicographically last, {20, 21, 22, 23}, so several chunks of
    # Gram blocks are screened before it is reached.
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 24))
    a[:, 23] = a[:, 20] - 2.0 * a[:, 21] + 0.5 * a[:, 22]
    assert spark(a) == spark_oracle(a) == 4


def test_spark_ignores_column_scale():
    # unit columns scaled by 1e-6 and 1e6: the raw singular values differ
    # by 1e12, but the columns are independent
    assert spark(np.diag([1e-6, 1e6])) == math.inf


def test_diagonal_embedding_keeps_the_spark_of_the_sign_design():
    # the paper's 7x16 design with its embedding columns scaled by a
    # positive, pairwise-distinct diagonal: scaling columns changes no
    # dependence, so spark, coherence and uniqueness are those of SENSING_7X16
    phi = horizontal_expand(VERTICAL_ALPHA4, make_embedding(EMBED_SIGNS_3X4, [1e-5, 1, 10, 1e5]))
    assert spark(phi) == spark(SENSING_7X16) == 4
    assert coherence(phi) == pytest.approx(1 / 3, abs=1e-15)
    assert uniqueness_guarantee(phi, 1)


def test_spark_budget_guard():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 12))
    with pytest.raises(BudgetExceeded):
        spark(a, budget=10)


@pytest.mark.parametrize("budget,message", [
    (-5, "budget -5 must be non-negative"),
    (1.5, "budget 1.5 must be an integer"),
    (1e6, "budget 1000000.0 must be an integer"),
    ("10", "budget '10' must be an integer"),
    (None, "budget None must be an integer"),
])
def test_the_budget_is_a_count(budget, message):
    # rejected by every entry point, also where the bounds decide and no
    # subset would be enumerated
    calls = [
        lambda: spark(np.eye(3), budget=budget),
        lambda: rip_check(np.eye(3), 1, budget=budget),
        lambda: class_metrics(SENSING_7X16, budget=budget),
        lambda: uniqueness_guarantee(SENSING_7X16, 1, budget=budget),
    ]
    for call in calls:
        with pytest.raises(BadShape, match=re.escape(message)):
            call()


def test_a_zero_or_numpy_integer_budget_is_a_count():
    assert spark(np.eye(3), budget=0) == math.inf
    assert spark(SENSING_7X16, budget=np.int64(1000)) == spark(SENSING_7X16)
    with pytest.raises(BudgetExceeded, match=r"\(budget 0\)"):
        rip_check(np.eye(3), 2, budget=0)


# --- sparsity bound --------------------------------------------------------------

def test_max_sparsity_examples():
    assert max_sparsity(EMBED_SIGNS_3X4) == 1  # mu = 1/3 -> k < 2
    assert max_sparsity(np.array([[1.0, 1.0]])) == 0  # mu = 1 -> k < 1
    assert max_sparsity(aocm(7)) == 3  # mu = 1/7 -> k < 4


def test_max_sparsity_orthogonal_matrix():
    assert max_sparsity(np.eye(3)) == 3
    # orthogonal columns whose unit-norm cosine reads about 1e-17, not 0
    assert max_sparsity(np.array([[1.0, 3.0], [3.0, -1.0]])) == 2


# --- RIP --------------------------------------------------------------------------

def test_rip_of_identity_is_exact_isometry():
    for k in (1, 2, 3):
        delta, ok = rip_check(np.eye(4), k)
        assert delta == 0.0 and ok


def test_rip_explicit_three_column_example():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    delta, ok = rip_check(a, 2, normalize=True)
    # normalized columns e1, e2, (e1+e2)/sqrt(2); the extreme singular values
    # of the mixed pairs give 1 +- 1/sqrt(2)
    assert delta == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert ok


def test_rip_delta_monotone_in_k():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))
    a /= np.linalg.norm(a, axis=0)
    deltas = [rip_check(a, k).delta for k in (1, 2, 3, 4)]
    assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("seed", range(3))
def test_rip_invariant_under_identity_lifts(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    a /= np.linalg.norm(a, axis=0)
    d = rip_check(a, 2).delta
    assert rip_check(np.kron(a, np.eye(2)), 2).delta == pytest.approx(d, abs=1e-10)
    assert rip_check(np.kron(np.eye(2), a), 2).delta == pytest.approx(d, abs=1e-10)


def test_rip_budget_guard():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 14))
    with pytest.raises(BudgetExceeded):
        rip_check(a, 7, budget=100)


def test_rip_beyond_rows_cannot_hold():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 5))
    a /= np.linalg.norm(a, axis=0)
    delta, ok = rip_check(a, 3)
    assert delta >= 1.0 and not ok


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("gaussian", "integer", "rank_deficient")),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.booleans(),
)
def test_rip_matches_per_subset_svd_oracle(kind, seed, m, n, normalize):
    a = generated_matrix(kind, seed, m, n)
    if normalize and np.any(np.linalg.norm(a, axis=0) == 0.0):
        return  # an integer draw with a zero column; normalize refuses it
    for k in range(1, n + 1):
        delta, ok = rip_check(a, k, normalize=normalize)
        ref_delta, ref_ok = rip_oracle(a, k, normalize=normalize)
        assert delta == pytest.approx(ref_delta, abs=1e-12)
        if abs(ref_delta - 1.0) > 1e-9:
            assert ok == ref_ok


def test_rip_of_rank_deficient_subset_is_not_satisfied():
    # three unit columns in a plane: the Gram block has eigenvalues 0 and
    # two that sum to 3, so delta >= 1 - sigma_min^2 = 1 and the
    # certificate must fail, whatever rounding does to the zero eigenvalue
    # (an eigvalsh of the block alone reads delta < 1 on several seeds)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 2))
        a = np.column_stack([a, a @ rng.standard_normal(2)])
        delta, ok = rip_check(a, 3, normalize=True)
        assert (delta, ok) == rip_oracle(a, 3, normalize=True), seed
        assert delta >= 1.0 and not ok, seed


def test_rip_at_delta_one_is_not_certified():
    # normalized, columns 0, 1, 2 have a Gram block with eigenvalue exactly
    # 2, so delta = 1; an SVD reads it 4e-16 below 1, eigvalsh 4e-16 above
    a = np.array([[2.0, 1.0, 2.0, 0.0], [-2.0, 0.0, 2.0, 1.0], [-1.0, 0.0, -1.0, -2.0]])
    delta, ok = rip_check(a, 3, normalize=True)
    assert delta == pytest.approx(1.0, abs=1e-12) and not ok


def test_rip_boundary_cases_are_never_certified():
    # integer designs often have delta exactly 1; rounding must not certify them
    rng = np.random.default_rng(5)
    boundary = 0
    for _ in range(2000):
        a = rng.integers(-2, 3, (3, 4)).astype(float)
        if np.any(np.linalg.norm(a, axis=0) == 0.0):
            continue
        delta, ok = rip_check(a, 3, normalize=True)
        if abs(delta - 1.0) < 1e-12:
            boundary += 1
            assert not ok, a
    assert boundary > 50


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
@pytest.mark.parametrize("k", [1, 2])
def test_blockwise_enumeration_matches_atom_rip(side, k):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5))
    a /= np.linalg.norm(a, axis=0)
    assert blockwise_rip_delta(a, k, 2, side) == pytest.approx(rip_check(a, k).delta, abs=1e-12)


# --- uniqueness link ---------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_spark_above_2k_forbids_sparse_collisions(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 5))
    k = 1
    assert spark(a) > 2 * k
    # no two distinct k-sparse supports can produce the same measurements:
    # the union submatrix always has full column rank
    for s1 in combinations(range(5), k):
        for s2 in combinations(range(5), k):
            union = sorted(set(s1) | set(s2))
            sub = a[:, union]
            assert np.linalg.matrix_rank(sub, tol=1e-9) == len(union)


# --- class-level metrics -------------------------------------------------------------

def test_class_metrics_reduce_to_the_atom():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 5))
    lifted = np.kron(a, np.eye(4))
    rep = class_metrics(lifted)
    assert rep.spark == spark(a)
    assert rep.coherence == pytest.approx(coherence(a), abs=1e-12)
    assert rep.welch_bound == pytest.approx(welch_bound(3, 5), abs=1e-15)
    assert rep.max_k == max_sparsity(a)


def _direct_report(a):
    """The report of `a` itself, from the standalone metric functions."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    spark_by = metrics._spark(metrics._geometry(a), metrics.DEFAULT_BUDGET)[1]
    return CsReport(coherence(a), signed_coherence(a), welch_bound(m, n) if n > m else None,
                    spark(a), spark_by, max_sparsity(a))


def test_class_metrics_of_irreducible_input_match_component_metrics():
    # an irreducible matrix is its own class atom: the report of the matrix itself
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 5))
    assert class_metrics(a) == _direct_report(a)


@pytest.mark.parametrize("s", [2, 3])
def test_class_metrics_of_either_lift_are_the_atom_metrics(s):
    a = np.random.default_rng(3).standard_normal((3, 5))
    want = _direct_report(a)
    assert class_metrics(np.kron(a, np.eye(s))) == want
    assert class_metrics(np.kron(np.eye(s), a)) == want


@pytest.mark.parametrize("matrix", [
    np.eye(3),
    -2.5 * np.eye(4),
    np.kron([[1.0], [-2.0], [3.0]], np.eye(2)),
    np.kron(np.eye(2), [[1.0], [-2.0], [3.0]]),
], ids=["I_3", "c I_4", "v (x) I_2", "I_2 (x) v"])
def test_class_metrics_refuse_a_one_column_atom(matrix):
    # the class atom has one column and so no column pair: refused as coherence refuses it
    with pytest.raises(BadShape, match="column correlations need at least two columns"):
        class_metrics(matrix)
    with pytest.raises(BadShape, match="column correlations need at least two columns"):
        coherence(metrics._class_atom(matrix))
    # uniqueness needs no column pair: one nonzero column recovers at any k
    assert all(uniqueness_guarantee(matrix, k) for k in range(4))


def test_report_json_dict_round_trip():
    # orthogonal and irreducible: spark is infinite, and with n = m there is no Welch bound
    rep = class_metrics(np.diag([1.0, 2.0, 3.0]), rip_k=2)
    doc = rep.to_json_dict()
    assert doc["spark"] is None and doc["spark_infinite"] is True
    assert doc["welch_bound"] is None
    assert doc["rip"]["k"] == 2 and doc["rip"]["satisfied"] is True


def test_report_json_dict_takes_a_numpy_rip_k():
    doc = class_metrics(SENSING_7X16, rip_k=np.int64(2)).to_json_dict()
    assert json.loads(json.dumps(doc))["rip"]["k"] == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_report_invariants_on_random_wide_matrices(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 6))
    rep = class_metrics(a)
    assert rep.coherence <= 1.0 + 1e-12
    assert rep.coherence >= rep.welch_bound - 1e-12
    assert rep.signed_coherence <= rep.coherence + 1e-15
    assert rep.spark <= 4


# --- spark from bounds -----------------------------------------------------------

def star_design(alpha):
    """The star expansion of alpha points embedded with the sign design aocm(alpha - 1)."""
    return horizontal_expand(vertical_expand_star(alpha), aocm(alpha - 1))


def vertical_design(alpha):
    """The vertical expansion of alpha points embedded with aocm(alpha - 1)."""
    return horizontal_expand(vertical_expand(incidence_matrix(alpha)), aocm(alpha - 1))


def planted_null_vector_matrix(seed, m, n, size, smallest, squeeze):
    """An m-by-n matrix, n <= m + 1, of rank n - 1 whose null vector has `size` nonzeros.

    The first n - 1 columns are Gaussian; the last is the combination
    that puts the null vector on it and size - 1 others, with component
    magnitudes down to 10**smallest.  With squeeze set, two columns off
    the support differ by 10**squeeze, so sigma_{n-1} is small and the
    tiny components are no longer provably essential.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    support = rng.choice(n - 1, size=size - 1, replace=False)
    coef = rng.choice([-1.0, 1.0], size - 1) * 10.0 ** rng.uniform(smallest, 0.0, size - 1)
    a[:, -1] = a[:, support] @ coef
    others = np.setdiff1d(np.arange(n - 1), support)
    if squeeze is not None and others.size >= 2:
        a[:, others[1]] = a[:, others[0]] + 10.0**squeeze * rng.standard_normal(m)
    return a


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.data(),
    st.floats(min_value=-6.0, max_value=0.0),
    st.one_of(st.none(), st.floats(min_value=-7.0, max_value=-3.0)),
)
def test_spark_matches_the_oracle_with_a_planted_null_vector(seed, m, data, smallest, squeeze):
    n = data.draw(st.integers(min_value=2, max_value=min(m + 1, 8)))
    size = data.draw(st.integers(min_value=1, max_value=n))
    a = planted_null_vector_matrix(seed, m, n, size, smallest, squeeze)
    assert spark(a) == spark_oracle(a)


def test_nullity_one_decides_only_when_the_support_is_provably_essential():
    # a null vector on columns {0, 1, 2, 7} with one component 1e-6: with
    # sigma_{n-1} of order one every support column is essential and the
    # nullity bound decides; two near-parallel columns off the support push
    # sigma_{n-1} to about 1e-5, the 1e-6 column is no longer provably
    # essential, and spark falls through to enumeration
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    a[:, 7] = a[:, 0] - 0.5 * a[:, 1] + 1e-6 * a[:, 2]
    assert metrics._spark(metrics._geometry(a), metrics.DEFAULT_BUDGET) == (4, "nullity") and spark_oracle(a) == 4
    a[:, 4] = a[:, 3] + 1e-5 * rng.standard_normal(8)
    assert metrics._spark(metrics._geometry(a), metrics.DEFAULT_BUDGET) == (4, "enumeration") and spark_oracle(a) == 4


def shared_support_matrix(seed, m, n, rows, width, rank):
    """Gaussian m-by-n with a group of `width` columns on `rows` shared rows, of rank `rank`."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    group = rng.choice(n, size=width, replace=False)
    support = rng.choice(m, size=rows, replace=False)
    a[:, group] = 0.0
    block = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, width))
    a[np.ix_(support, group)] = block
    return a


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_spark_matches_the_oracle_with_a_rank_deficient_shared_support_group(seed, m, n, data):
    rows = data.draw(st.integers(min_value=1, max_value=m - 1))
    width = data.draw(st.integers(min_value=2, max_value=n))
    rank = data.draw(st.integers(min_value=1, max_value=min(rows, width - 1)))
    a = shared_support_matrix(seed, m, n, rows, width, rank)
    assert spark(a) == spark_oracle(a)


@pytest.mark.parametrize("design, expected, by", [
    (lambda: star_design(4), 4, "bounds"),
    (lambda: star_design(8), 8, "bounds"),
    (lambda: vertical_design(8), 8, "bounds"),
    (lambda: star_design(7), 12, "nullity"),
    (lambda: vertical_design(11), math.inf, "rank"),
    (lambda: star_design(11), 20, "nullity"),
    (lambda: star_design(5), 5, "bounds"),
    (lambda: star_design(6), 6, "bounds"),
    (lambda: vertical_design(6), 6, "bounds"),
], ids=["star4-witness", "star8-witness", "vertical8-witness", "star7-nullity",
        "vertical11-rank", "star11-nullity", "star5-simplex", "star6-simplex",
        "vertical6-simplex"])
def test_spark_of_the_designs_is_decided_by_a_bound_within_a_small_budget(design, expected, by):
    # a budget of 1000 subsets rules out enumeration: C(64, 8) is 4.4e9,
    # the alpha = 11 designs would walk sizes 1..20 of 22 columns, and
    # size 6 of the alpha = 6 designs has C(30, 6) = 593775 subsets; the
    # simplex search finds a dependent 1 + 1/mu columns in fewer nodes
    a = design()
    assert spark(a, budget=1000) == expected
    assert metrics._spark(metrics._geometry(a), 1000) == (expected, by)


def test_spark_of_the_smallest_star_design_matches_the_oracle():
    assert spark(star_design(4), budget=1000) == spark_oracle(star_design(4)) == 4


# --- the simplex search at 1 + 1/mu ---------------------------------------------------

def enumerated_spark(a, budget=metrics.DEFAULT_BUDGET):
    """`_spark` of a with the simplex search giving up at once: size 1 + 1/mu is enumerated."""
    with mock.patch.object(metrics, "_simplex", lambda *args: None):
        return metrics._spark(metrics._geometry(a), budget)


def test_spark_of_the_alpha_nine_star_design_is_decided_by_the_simplex_search():
    # its bounds are 9 and 37 apart, and C(72, 9) is 8.5e10 subsets
    assert metrics._spark(metrics._geometry(star_design(9)), metrics.DEFAULT_BUDGET) == (9, "bounds")
    with pytest.raises(BudgetExceeded):
        enumerated_spark(star_design(9))


@pytest.mark.parametrize("design", [lambda: star_design(5), lambda: vertical_design(4),
                                    lambda: vertical_design(5)],
                         ids=["star5", "vertical4", "vertical5"])
def test_spark_of_the_alpha_four_and_five_designs_matches_the_oracle(design):
    a = design()
    assert spark(a) == spark_oracle(a)


@pytest.mark.parametrize("expansion", [star_design, vertical_design])
@pytest.mark.parametrize("alpha", [4, 5, 6, 7, 8])
def test_the_simplex_search_changes_no_spark_of_the_designs(expansion, alpha):
    a = expansion(alpha)
    value, by = metrics._spark(metrics._geometry(a), metrics.DEFAULT_BUDGET)
    before = enumerated_spark(a)
    assert value == before[0]
    assert by == before[1] or (by, before[1]) == ("bounds", "enumeration")


def planted_simplex_frame(seed, m, size):
    """m + 2 columns in R^m of coherence 1/(size - 1), met by two planted dependent `size`-sets.

    Each planted set is a regular simplex (unit vectors with pairwise
    cosine -1/(size - 1), summing to zero) with random column signs, in
    its own (size - 1)-dimensional part of a random orthonormal basis Q.
    The other columns lie near-orthogonal in the rest of Q, with a tenth
    of each in the simplices' span.  So the nullity is 2, and the
    Gershgorin bound 1 + 1/mu = size is below the witness bound.  Columns
    get random scales and a random order.  Returns the matrix and one
    planted set's column indices.
    """
    rng = np.random.default_rng(seed)
    d = size - 1
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    centred = np.eye(size) - 1.0 / size
    simplex = np.linalg.svd(centred)[0][:, :d].T @ centred  # in the simplex's hyperplane
    rest = m - 2 * d
    parts = [q[:, :d] @ simplex * rng.choice([-1.0, 1.0], size),
             q[:, d:2 * d] @ simplex * rng.choice([-1.0, 1.0], size),
             q[:, 2 * d:] @ (np.eye(rest) + 0.05 * rng.standard_normal((rest, rest)))]
    inside = q[:, :2 * d] @ rng.standard_normal((2 * d, rest))
    parts[2] = (parts[2] / np.linalg.norm(parts[2], axis=0)
                + 0.1 * inside / np.linalg.norm(inside, axis=0))
    a = np.hstack(parts)
    order = rng.permutation(m + 2)
    a = a[:, order] / np.linalg.norm(a[:, order], axis=0) * 10.0 ** rng.uniform(-3.0, 3.0, m + 2)
    return a, np.sort(np.argsort(order)[:size])


FRAMES = [(6, 3), (9, 4), (11, 5)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m, size", FRAMES)
def test_the_simplex_search_finds_a_planted_simplex(seed, m, size):
    a, planted = planted_simplex_frame(seed, m, size)
    geo = metrics._geometry(a)
    assert round(1.0 / geo.mu) == size - 1
    assert metrics._dependent(geo.u, planted[None, :])[0]
    assert metrics._spark(geo, 1000) == (size, "bounds")
    assert spark_oracle(a) == size


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m, size", FRAMES)
def test_a_simplex_perturbed_at_1e_8_is_not_dependent(seed, m, size):
    a, planted = planted_simplex_frame(seed, m, size)
    a = a + 1e-8 * np.abs(a).max(axis=0) * np.random.default_rng(seed).standard_normal(a.shape)
    geo = metrics._geometry(a)
    assert not metrics._dependent(geo.u, planted[None, :])[0]
    search, searched = metrics._simplex, []

    def recorded(*args):
        searched.append(search(*args))
        return searched[-1]

    with mock.patch.object(metrics, "_simplex", recorded):
        value, by = metrics._spark(geo, metrics.DEFAULT_BUDGET)
    # the search ran, on pairs within its widened radius of mu, and found no dependent set
    assert searched == [False]
    assert value > size and value == enumerated_spark(a)[0]


def test_a_search_out_of_nodes_falls_back_to_enumeration():
    # five nodes are too few for the alpha = 6 star design's search, so
    # size 6 is enumerated, under the budget, as before the search existed
    search = metrics._simplex
    a = star_design(6)
    with mock.patch.object(metrics, "_simplex", lambda geo, size, eps, budget: search(geo, size, eps, 5)):
        got = metrics._spark(metrics._geometry(a), metrics.DEFAULT_BUDGET)
    assert search(metrics._geometry(a), 6, metrics._SIMPLEX_EPS, 5) is None
    assert got == enumerated_spark(a) == (6, "enumeration")
    with pytest.raises(BudgetExceeded):
        metrics._spark(metrics._geometry(a), 5)


# --- RIP stops at its Gershgorin bound ---------------------------------------------

@pytest.mark.parametrize("alpha", [4, 5, 6, 7])
@pytest.mark.parametrize("k", [2, 3])
def test_rip_of_the_star_designs_matches_the_oracle(alpha, k):
    phi = star_design(alpha)
    delta, ok = rip_check(phi, k, normalize=True)
    ref_delta, ref_ok = rip_oracle(phi, k, normalize=True)
    assert delta == pytest.approx(ref_delta, abs=1e-12)
    assert ok == ref_ok


@pytest.mark.parametrize("alpha", [8, 9])
def test_rip_stops_after_the_first_chunk_at_twice_the_coherence(alpha):
    # delta_3 = 2 mu is the Gershgorin bound itself, met in the first chunk
    # of C(64, 3) = 41664 or C(72, 3) = 59640 subsets
    phi = star_design(alpha)
    gram_blocks, chunks = metrics._gram_blocks, []

    def counted(g, k):
        for chunk in gram_blocks(g, k):
            chunks.append(len(chunk[0]))
            yield chunk

    with mock.patch.object(metrics, "_gram_blocks", counted):
        delta, ok = rip_check(phi, 3, normalize=True)
    assert delta == pytest.approx(2 / (alpha - 1), abs=1e-12) and ok
    assert chunks == [metrics._CHUNK]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(("gaussian", "integer", "rank_deficient")),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=8),
    st.booleans(),
)
def test_rip_stop_matches_the_oracle_across_many_chunks(kind, seed, m, n, normalize):
    # chunks of 3 subsets, so the stop can fall anywhere in the enumeration
    a = generated_matrix(kind, seed, m, n)
    if normalize and np.any(np.linalg.norm(a, axis=0) == 0.0):
        return
    with mock.patch.object(metrics, "_CHUNK", 3):
        for k in range(1, n + 1):
            delta, ok = rip_check(a, k, normalize=normalize)
            ref_delta, ref_ok = rip_oracle(a, k, normalize=normalize)
            assert delta == pytest.approx(ref_delta, abs=1e-12)
            if abs(ref_delta - 1.0) > 1e-9:
                assert ok == ref_ok


# --- answers at every column scale ----------------------------------------------------

def scale_free_answers(a):
    """coherence, spark, max_sparsity, normalised delta_2, uniqueness at k=1; errors by type."""
    out = []
    for f in (coherence, spark, max_sparsity,
              lambda b: rip_check(b, 2, normalize=True).delta,
              lambda b: uniqueness_guarantee(b, 1)):
        try:
            out.append(f(a))
        except StpcsError as exc:
            out.append(type(exc))
    return out


def test_scale_free_answers_hold_over_the_whole_float_range():
    # norms that sum squares overflow above about 1e154 (every column read
    # as zero) and underflow below about 1e-154
    ref = scale_free_answers(SENSING_7X16)
    assert ref[:3] == [pytest.approx(1 / 3, abs=1e-15), 4, 1] and ref[4] is True
    for e in range(-300, 301):
        got = scale_free_answers(SENSING_7X16 * 10.0**e)
        for want, have in zip(ref, got):
            if isinstance(want, float):
                assert have == pytest.approx(want, rel=1e-12), e
            else:
                assert have == want, e


@pytest.mark.parametrize("c", [0.0, 1e-200, 1e-145, 1e160, 1e300])
@pytest.mark.parametrize("atom", ["SENSING_7X16", "gaussian"])
def test_a_column_norm_reads_that_column_alone(atom, c):
    # one more column, zero or far from the others' scale, leaves their geometry
    # as it was to the bit; the suites above scale every column alike
    a = SENSING_7X16 if atom == "SENSING_7X16" else np.random.default_rng(0).standard_normal((7, 16))
    alone = metrics._geometry(a)
    geo = metrics._geometry(np.column_stack([a, c * a[:, 0]]))
    assert geo.norms[:16].tobytes() == alone.norms.tobytes()
    assert geo.g[:16, :16].tobytes() == alone.g.tobytes()
    assert geo.norms[16] == pytest.approx(c * np.linalg.norm(a[:, 0]), rel=1e-15, abs=0.0)

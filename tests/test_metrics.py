import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    aocm,
    blockwise_rip_delta,
    class_metrics,
    coherence,
    component_metrics,
    max_sparsity,
    rip_check,
    signed_coherence,
    spark,
    vertical_expand_star,
    welch_bound,
)
from stpcs.errors import BadShape, BudgetExceeded, ZeroColumn
from stpcs.golden import EMBED_SIGNS_3X4


def spark_oracle(a):
    """Brute-force reference: smallest dependent column subset by rank tests."""
    a = np.asarray(a, dtype=float)
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


def test_spark_budget_guard():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 12))
    with pytest.raises(BudgetExceeded):
        spark(a, budget=10)


# --- sparsity bound --------------------------------------------------------------

def test_max_sparsity_examples():
    assert max_sparsity(EMBED_SIGNS_3X4) == 1  # mu = 1/3 -> k < 2
    assert max_sparsity(np.array([[1.0, 1.0]])) == 0  # mu = 1 -> k < 1
    assert max_sparsity(aocm(7)) == 3  # mu = 1/7 -> k < 4


def test_max_sparsity_orthogonal_matrix():
    assert max_sparsity(np.eye(3)) == 3


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
    rep = class_metrics(lifted, Side.LEFT)
    assert rep.spark == spark(a)
    assert rep.coherence == pytest.approx(coherence(a), abs=1e-12)
    assert rep.welch_bound == pytest.approx(welch_bound(3, 5), abs=1e-15)
    assert rep.max_k == max_sparsity(a)


def test_class_metrics_of_irreducible_input_match_component_metrics():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 5))
    rc = class_metrics(a, Side.LEFT)
    rp = component_metrics(a)
    assert rc == rp


def test_report_json_dict_round_trip():
    rep = component_metrics(np.eye(3), rip_k=2)
    doc = rep.to_json_dict()
    assert doc["spark"] is None and doc["spark_infinite"] is True
    assert doc["welch_bound"] is None
    assert doc["rip"]["k"] == 2 and doc["rip"]["satisfied"] is True


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_report_invariants_on_random_wide_matrices(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 6))
    rep = component_metrics(a)
    assert rep.coherence <= 1.0 + 1e-12
    assert rep.coherence >= rep.welch_bound - 1e-12
    assert rep.signed_coherence <= rep.coherence + 1e-15
    assert rep.spark <= 4

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpcs import (
    SignKind,
    aocm,
    bibd_check,
    canonical_sign_form,
    coherence,
    horizontal_expand,
    incidence_matrix,
    make_embedding,
    ocm,
    sign_matrix_check,
    vertical_expand,
    vertical_expand_star,
)
from stpcs.errors import BadDiag, DegreeMismatch, NotBibd, NotExpandable, Unsupported
from stpcs.golden import (
    AOCM3,
    AOCM3_ALT,
    AOCM5,
    AOCM7,
    AOCM7_ALT,
    EMBED_SIGNS_3X4,
    INCIDENCE_ALPHA4,
    OCM4,
    SENSING_7X16,
    STAR_ALPHA4,
    VERTICAL_ALPHA4,
)


# --- incidence matrices -------------------------------------------------------

def test_incidence_alpha4_golden():
    assert np.array_equal(incidence_matrix(4), INCIDENCE_ALPHA4)


def test_incidence_alpha3():
    expected = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
    assert np.array_equal(incidence_matrix(3), expected)


@pytest.mark.parametrize("alpha", range(3, 11))
def test_incidence_family_parameters(alpha):
    params = bibd_check(incidence_matrix(alpha))
    assert (params.alpha, params.b, params.r, params.k, params.lam) == (
        alpha, alpha, alpha - 1, alpha - 1, alpha - 2,
    )


def test_bibd_check_rejects_full_blocks():
    with pytest.raises(NotBibd):
        bibd_check(np.ones((3, 3)))


def test_bibd_check_rejects_singleton_blocks():
    with pytest.raises(NotBibd):
        bibd_check(np.eye(3))


# --- vertical expansion ---------------------------------------------------------

def test_vertical_expand_alpha4_golden():
    assert np.array_equal(vertical_expand(incidence_matrix(4)), VERTICAL_ALPHA4)


@pytest.mark.parametrize("alpha", range(4, 9))
def test_vertical_expand_row_count_and_coherence(alpha):
    hv = vertical_expand(incidence_matrix(alpha))
    assert hv.shape == (alpha * alpha - 3 * alpha + 3, alpha)
    assert np.array_equal(hv.sum(axis=0), np.full(alpha, alpha - 1))
    g = hv.T @ hv
    assert np.max(g[~np.eye(alpha, dtype=bool)]) == 1.0
    assert coherence(hv) == pytest.approx(1 / (alpha - 1), abs=1e-12)


def test_vertical_expand_rejects_oversized_columns():
    with pytest.raises(NotExpandable):
        vertical_expand(np.ones((4, 4)))


def vertical_expand_oracle(h):
    """The nested-loop construction with a symmetric overlap counter."""
    h = np.asarray(h, dtype=float)
    alpha = h.shape[1]
    m = alpha * alpha - 3 * alpha + 3
    if m < h.shape[0]:
        raise NotExpandable(f"row budget {m} below input rows {h.shape[0]}")
    out = np.zeros((m, alpha))
    overlap = np.zeros((alpha, alpha), dtype=int)
    for j in range(alpha):
        prev = -1
        for r0 in np.flatnonzero(h[:, j]):
            r = max(int(r0), prev + 1)
            while True:
                if r >= m:
                    raise NotExpandable(
                        f"column {j} cannot be placed within {m} rows"
                    )
                clash = [jj for jj in range(j) if out[r, jj] == 1.0 and overlap[j, jj] >= 1]
                if not clash:
                    break
                r += 1
            out[r, j] = 1.0
            for jj in range(j):
                if out[r, jj] == 1.0:
                    overlap[j, jj] += 1
                    overlap[jj, j] += 1
            prev = r
    return out


@st.composite
def zero_one_matrices(draw):
    # up to one row past the budget alpha^2 - 3 alpha + 3, sparse to dense
    alpha = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.integers(min_value=1, max_value=alpha * alpha - 3 * alpha + 4))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return (rng.random((rows, alpha)) < density).astype(float)


def _outcome(f, h):
    try:
        return f(h)
    except NotExpandable as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(zero_one_matrices())
def test_vertical_expand_matches_the_nested_loop_oracle(h):
    got, want = _outcome(vertical_expand, h), _outcome(vertical_expand_oracle, h)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# --- star expansion --------------------------------------------------------------

def test_star_alpha4_golden():
    assert np.array_equal(vertical_expand_star(4), STAR_ALPHA4)


@pytest.mark.parametrize("alpha", range(3, 11))
def test_star_shape_degrees_coherence(alpha):
    hs = vertical_expand_star(alpha)
    assert hs.shape == (alpha * (alpha - 1) // 2, alpha)
    assert np.array_equal(hs.sum(axis=1), np.full(hs.shape[0], 2.0))
    assert np.array_equal(hs.sum(axis=0), np.full(alpha, alpha - 1.0))
    assert coherence(hs) == pytest.approx(1 / (alpha - 1), abs=1e-12)


@pytest.mark.parametrize("alpha", range(3, 9))
def test_star_rows_enumerate_column_pairs(alpha):
    hs = vertical_expand_star(alpha)
    pairs = {tuple(np.flatnonzero(row)) for row in hs}
    assert len(pairs) == hs.shape[0]  # every pair of columns exactly once


@pytest.mark.parametrize("alpha", range(3, 13))
def test_star_rows_are_the_pairs_in_lexicographic_order(alpha):
    pairs = list(combinations(range(alpha), 2))
    want = np.zeros((len(pairs), alpha))
    for r, pair in enumerate(pairs):
        want[r, list(pair)] = 1.0
    got = vertical_expand_star(alpha)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# --- embeddings -------------------------------------------------------------------

def test_embedding_preserves_coherence():
    emb = make_embedding(EMBED_SIGNS_3X4, [1.0, 2.0, 3.0, 4.0])
    assert coherence(emb) == pytest.approx(coherence(EMBED_SIGNS_3X4), abs=1e-12)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_embedding_coherence_invariance_random(seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(3, 4))
    diag = rng.permutation(np.arange(1.0, 5.0))
    emb = make_embedding(signs, diag)
    assert coherence(emb) == pytest.approx(coherence(signs), abs=1e-12)


def test_embedding_rejects_repeated_or_nonpositive_diag():
    with pytest.raises(BadDiag):
        make_embedding(EMBED_SIGNS_3X4, [1.0, 1.0, 2.0, 3.0])
    with pytest.raises(BadDiag):
        make_embedding(EMBED_SIGNS_3X4, [1.0, -2.0, 3.0, 4.0])
    with pytest.raises(BadDiag):
        make_embedding(EMBED_SIGNS_3X4, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_embedding_rejects_non_finite_diag(bad):
    with pytest.raises(BadDiag, match="finite"):
        make_embedding(EMBED_SIGNS_3X4, [1.0, bad, 2.0, 3.0])


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10_000))
def test_embedding_value_equals_the_diagonal_product(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 8, size=2)
    signs = rng.choice([-1.0, 1.0], size=(rows, cols))
    diag = rng.permutation(cols) + rng.random(cols) + 1e-3
    emb = make_embedding(signs, diag)
    want = signs @ np.diag(diag)
    assert emb.dtype == want.dtype and np.array_equal(emb, want)


def test_embedding_is_the_plain_matrix_signs_times_diag():
    diag = np.array([1e-5, 1.0, 10.0, 1e5])
    emb = make_embedding(EMBED_SIGNS_3X4, diag)
    assert type(emb) is np.ndarray and np.array_equal(emb, EMBED_SIGNS_3X4 * diag)


# --- horizontal expansion -----------------------------------------------------------

def test_horizontal_expand_golden():
    phi = horizontal_expand(VERTICAL_ALPHA4, EMBED_SIGNS_3X4)
    assert np.array_equal(phi, SENSING_7X16)


def test_horizontal_expand_coherence_law():
    phi = horizontal_expand(VERTICAL_ALPHA4, EMBED_SIGNS_3X4)
    mu_h = coherence(VERTICAL_ALPHA4)
    mu_b = coherence(EMBED_SIGNS_3X4)
    assert coherence(phi) == pytest.approx(max(mu_h, mu_b), abs=1e-12)


@pytest.mark.parametrize("alpha", [4, 5, 8, 9])
def test_horizontal_expand_coherence_law_star_chain(alpha):
    hs = vertical_expand_star(alpha)
    b = aocm(alpha - 1)  # even alpha -> odd rows, odd alpha -> ocm fallback
    assert coherence(b) <= 1 / (alpha - 1) + 1e-12
    phi = horizontal_expand(hs, b)
    assert coherence(phi) == pytest.approx(1 / (alpha - 1), abs=1e-12)


def test_horizontal_expand_with_embedding_value():
    emb = make_embedding(EMBED_SIGNS_3X4, [1.0, 2.0, 3.0, 4.0])
    phi = horizontal_expand(VERTICAL_ALPHA4, emb)
    assert phi.shape == (7, 16)
    assert coherence(phi) == pytest.approx(1 / 3, abs=1e-12)


def test_horizontal_expand_ones_column_is_identity():
    ones = np.ones((3, 1))
    out = horizontal_expand(VERTICAL_ALPHA4, ones)
    assert np.array_equal(out, VERTICAL_ALPHA4)


def test_horizontal_expand_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        horizontal_expand(VERTICAL_ALPHA4, np.ones((2, 2)))


# --- sign matrices ------------------------------------------------------------------

def test_ocm4_golden():
    assert np.array_equal(ocm(4), OCM4)


def test_ocm6_is_doubled_rows():
    expected = np.array(
        [[1, 1], [1, 1], [1, 1], [1, -1], [1, -1], [1, -1]], dtype=float
    )
    assert np.array_equal(ocm(6), expected)


def test_ocm1_is_scalar_one():
    assert np.array_equal(ocm(1), [[1.0]])


@pytest.mark.parametrize("t", range(1, 13))
def test_ocm_columns_orthogonal_shape(t):
    o = ocm(t)
    p = (t & -t).bit_length() - 1
    assert o.shape == (t, 2**p)
    g = o.T @ o
    assert np.array_equal(g, t * np.eye(2**p))


def test_aocm_golden_forms():
    assert np.array_equal(aocm(3), AOCM3)
    assert np.array_equal(aocm(7), AOCM7)
    assert np.array_equal(aocm(5), AOCM5)


@pytest.mark.parametrize("t", [3, 7, 15])
def test_aocm_pairwise_inner_products_are_minus_one(t):
    u = aocm(t)
    g = u.T @ u
    off = g[~np.eye(u.shape[1], dtype=bool)]
    assert np.all(off == -1.0)


def test_aocm_even_falls_back_to_ocm():
    assert np.array_equal(aocm(8), ocm(8))


def test_aocm_unsupported_odd():
    with pytest.raises(Unsupported):
        aocm(9)


def test_sign_matrix_check_classifies():
    assert sign_matrix_check(ocm(8)) is SignKind.OCM
    assert sign_matrix_check(aocm(7)) is SignKind.AOCM
    assert sign_matrix_check(np.ones((3, 2))) is SignKind.NEITHER


def test_sign_matrix_check_parity_is_structural():
    # odd rows cannot give inner product 0; even rows cannot give +-1
    assert sign_matrix_check(aocm(5)) is SignKind.AOCM
    assert sign_matrix_check(ocm(4)) is SignKind.OCM


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_sign_transformations_preserve_classification(seed):
    rng = np.random.default_rng(seed)
    for base, kind in ((ocm(4), SignKind.OCM), (aocm(7), SignKind.AOCM)):
        a = base.copy()
        a *= rng.choice([-1.0, 1.0], size=(1, a.shape[1]))  # column signs
        a *= rng.choice([-1.0, 1.0], size=(a.shape[0], 1))  # row signs
        a = a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]
        assert sign_matrix_check(a) is kind


def test_canonical_form_identifies_printed_variants():
    assert np.array_equal(canonical_sign_form(AOCM3), canonical_sign_form(AOCM3_ALT))
    assert np.array_equal(canonical_sign_form(AOCM7), canonical_sign_form(AOCM7_ALT))


def test_canonical_form_invariant_under_column_ops():
    rng = np.random.default_rng(3)
    a = ocm(4)
    b = a * rng.choice([-1.0, 1.0], size=(1, 4))
    b = b[:, rng.permutation(4)]
    assert np.array_equal(canonical_sign_form(a), canonical_sign_form(b))


@pytest.mark.parametrize("t", [2, 4, 8])
def test_ocm_maximality_by_exhaustion(t):
    o = ocm(t)
    # no sign vector is orthogonal to every column
    for bits in range(2**t):
        x = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(t)])
        assert np.any(x @ o != 0.0)


@pytest.mark.parametrize("t", [3, 7])
def test_aocm_maximality_by_exhaustion(t):
    u = aocm(t)
    # no sign vector extends the design: some column correlation leaves {-1, +1}
    for bits in range(2**t):
        x = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(t)])
        assert np.any(np.abs(x @ u) != 1.0)


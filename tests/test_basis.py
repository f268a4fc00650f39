import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    basis_layer,
    basis_up_to,
    coordinates,
    equivalent,
    generating_layer,
    has_multifold_divisor,
    inner_v,
    lift_signal,
    norm_v,
    orthonormal_basis,
    sta,
)
from stpcs import signal_space
from stpcs.basis import _gram as closed_form_gram
from stpcs.basis import _kept_layer, largest_square_divisor
from stpcs.errors import InsufficientBasis
from stpcs.golden import BASIS_LAYER_12, BASIS_LAYER_27, BASIS_LAYER_4, BASIS_ORDER_M10, ORTHONORMAL_FIRST9
from stpcs.stp import unlift


def delta(n, j):
    v = np.zeros(n)
    v[j - 1] = 1.0
    return v


# --- generating layers --------------------------------------------------------

def test_generating_layer_dim_one_is_the_scalar():
    layer = generating_layer(1)
    assert len(layer) == 1 and np.array_equal(layer[0].value, [1.0])


def test_generating_layer_six():
    assert [e.j for e in generating_layer(6)] == [1, 5]


def test_generating_layer_twelve():
    assert [e.j for e in generating_layer(12)] == [1, 5, 7, 11]


@given(st.integers(min_value=2, max_value=40))
def test_generating_layer_is_coprime_indices(n):
    js = [e.j for e in generating_layer(n)]
    assert js == [j for j in range(1, n) if math.gcd(j, n) == 1]


@pytest.mark.parametrize("n", range(1, 13))
def test_generating_elements_compare_and_hash_by_label(n):
    assert generating_layer(n) == generating_layer(n)
    assert {hash(e) for e in generating_layer(n)} == {hash(e) for e in generating_layer(n)}


@pytest.mark.parametrize("side", list(Side))
def test_orthonormal_bases_hash_as_they_compare(side):
    for m in range(1, 9):
        assert orthonormal_basis(m, side) == orthonormal_basis(m, side)
        assert hash(orthonormal_basis(m, side)) == hash(orthonormal_basis(m, side))
    assert len({orthonormal_basis(5, s) for s in Side}) == 2


def test_basis_elements_are_distinct_set_members():
    elements = basis_up_to(30)
    assert len(set(elements)) == len(elements)


# --- multifold divisors -------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(12, True), (6, False), (27, True), (1, False)])
def test_has_multifold_divisor_examples(n, expected):
    assert has_multifold_divisor(n) is expected


@given(st.integers(min_value=1, max_value=400))
def test_multifold_divisor_matches_bruteforce(n):
    brute = any(n % (s * s) == 0 for s in range(2, n + 1))
    assert has_multifold_divisor(n) == brute


@given(st.integers(min_value=1, max_value=400))
def test_largest_square_divisor_matches_bruteforce(n):
    brute = max(s for s in range(1, n + 1) if n % (s * s) == 0)
    s = largest_square_divisor(n)
    assert s == brute
    # the cofactor is squarefree exactly when s is maximal
    assert all(e == 1 for e in sympy.factorint(n // (s * s)).values())


# --- independent layers -------------------------------------------------------

def test_basis_layer_twelve_golden():
    assert [e.j for e in basis_layer(12)] == BASIS_LAYER_12


def test_basis_layer_twentyseven_golden():
    assert [e.j for e in basis_layer(27)] == BASIS_LAYER_27


def test_basis_layer_four_golden():
    assert [e.j for e in basis_layer(4)] == BASIS_LAYER_4


@given(st.integers(min_value=2, max_value=50))
def test_basis_layer_size_vs_totient(n):
    size = len(basis_layer(n))
    tot = int(sympy.totient(n))
    if has_multifold_divisor(n):
        assert size < tot
    else:
        assert size == tot
        assert [e.j for e in basis_layer(n)] == [e.j for e in generating_layer(n)]


def test_basis_up_to_counts():
    assert len(basis_up_to(1)) == 1
    assert len(basis_up_to(5)) == 9
    assert len(basis_up_to(10)) == 27


def test_basis_up_to_ten_matches_printed_order():
    assert [(e.n, e.j) for e in basis_up_to(10)] == BASIS_ORDER_M10


# --- independence -------------------------------------------------------------

def test_selected_layers_are_independent_under_entry_repetition_lifts():
    # direct lift to the common dimension, rank at relative tolerance 1e-9
    m = 12
    els = basis_up_to(m)
    big = math.lcm(*range(1, m + 1))
    mat = np.stack([lift_signal(e.value, big, Side.LEFT) for e in els], axis=1)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert int(np.sum(sv > 1e-9 * sv[0])) == len(els)


def _gram(values, side):
    k = len(values)
    g = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            g[i, j] = g[j, i] = inner_v(values[i], values[j], side)
    return g


def test_selected_layers_independent_up_to_30_left():
    # the common lift dimension is astronomically large, so certify full
    # column rank through the Gram matrix (same null space as the lifted set)
    els = basis_up_to(30)
    ev = np.linalg.eigvalsh(_gram([e.value for e in els], Side.LEFT))
    assert ev[0] > 1e-10 * ev[-1]


def test_selected_layers_independent_up_to_15_right():
    els = basis_up_to(15)
    ev = np.linalg.eigvalsh(_gram([e.value for e in els], Side.RIGHT))
    assert ev[0] > 1e-10 * ev[-1]


def test_layer_16_dependency_under_replication_lifts():
    # the printed index cutoff keeps d(16,9) and d(16,11) although each is a
    # dim-8 replication lift minus a kept element; the orthonormal basis
    # leaves them out and still spans them
    lhs = delta(16, 1) + delta(16, 9)
    assert np.array_equal(lhs, np.kron(np.ones(2), delta(8, 1)))
    ob = orthonormal_basis(16, Side.RIGHT)
    assert ob.count == 69
    xi = coordinates(delta(16, 9), ob)
    assert abs(xi @ xi - 1 / 16) <= 1e-12


def test_removed_layer12_elements_are_replication_lifts():
    s1 = sta(delta(12, 1), delta(12, 7), Side.LEFT)
    s2 = sta(delta(12, 5), delta(12, 11), Side.LEFT)
    assert np.array_equal(s1, np.kron(np.ones(2), delta(6, 1)))
    assert np.array_equal(s2, np.kron(np.ones(2), delta(6, 5)))
    assert equivalent(s1, delta(6, 1), Side.RIGHT)
    assert equivalent(s2, delta(6, 5), Side.RIGHT)


# --- orthonormalization -------------------------------------------------------

def test_first_nine_orthonormal_elements_match_closed_forms():
    ob = orthonormal_basis(5)
    assert ob.count == 9
    for got, want in zip(ob.elements, ORTHONORMAL_FIRST9):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_orthonormality_under_matching_inner_product(side):
    ob = orthonormal_basis(10, side)
    assert ob.count == (27 if side is Side.RIGHT else 32)
    for i, ei in enumerate(ob.elements):
        assert abs(norm_v(ei) - 1.0) <= 1e-10
        for ej in ob.elements[i + 1:]:
            assert abs(inner_v(ei, ej, side)) <= 1e-10


def test_first_element_is_the_scalar_one():
    ob = orthonormal_basis(3)
    assert np.array_equal(ob.elements[0], [1.0])


def test_leading_signs_are_positive():
    for e in orthonormal_basis(10).elements:
        lead = e[np.abs(e) > 1e-10][0]
        assert lead > 0


# --- coordinates ----------------------------------------------------------------

def test_coordinates_of_ones_vector():
    ob = orthonormal_basis(8)
    xi = coordinates(np.ones(5), ob)
    assert xi[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(xi[1:])) <= 1e-12


def test_coordinates_of_second_element():
    ob = orthonormal_basis(8)
    xi = coordinates(np.array([1.0, -1.0]), ob)
    want = np.zeros(ob.count)
    want[1] = 1.0
    assert np.allclose(xi, want, atol=1e-12)


def test_coordinates_invariant_under_replication_lift():
    ob = orthonormal_basis(8)
    x = np.array([2.0, 1.0, 3.0])
    xi = coordinates(x, ob)
    xi_lift = coordinates(np.kron(np.ones(2), x), ob)
    assert np.allclose(xi, xi_lift, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9))
def test_coordinates_round_trip_on_span(coefs):
    ob = orthonormal_basis(5)
    x = np.zeros(1)
    for c, e in zip(coefs, ob.elements):
        if c:
            t = math.lcm(x.size, e.size)
            x = lift_signal(x, t, ob.side) + c * lift_signal(e, t, ob.side)
    xi = coordinates(x, ob)
    assert np.allclose(xi, np.array(coefs, dtype=float), atol=1e-9)


def test_coordinates_raise_outside_the_span():
    # a dim-4 unit vector in an even slot is not reachable from the
    # coprime-index generating family
    ob = orthonormal_basis(8)
    with pytest.raises(InsufficientBasis):
        coordinates(delta(4, 2), ob)


@pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 300))
def test_coordinates_answer_the_same_at_every_scale(side, e):
    # [1, 2, 3, 4] is in the LEFT span of layers 1..4 but not the RIGHT
    # one; at 1e155 its squares overflow and the Parseval deficit is
    # inf - inf, at 1e-300 they underflow to zero
    ob = orthonormal_basis(4, side)
    x, c = np.array([1.0, 2.0, 3.0, 4.0]), 10.0 ** e
    if side is Side.RIGHT:
        with pytest.raises(InsufficientBasis):
            coordinates(c * x, ob)
    else:
        assert np.allclose(coordinates(c * x, ob), c * coordinates(x, ob), rtol=1e-13, atol=0.0)


# --- exact selection and the closed-form Gram matrix ---------------------------

def _generators(m):
    return [(1, 1)] + [(n, j) for n in range(2, m + 1) for j in range(1, n) if math.gcd(j, n) == 1]


def _exact_kept(m, side):
    """Labels kept by an in-order LDL^T in exact rationals, Gram entries from
    the lifted integer vectors."""
    gens = _generators(m)

    def gram(a, b):
        t = math.lcm(a[0], b[0])
        dot = lift_signal(delta(*a), t, side) @ lift_signal(delta(*b), t, side)
        return Fraction(int(dot), t)

    kept, rows, ds = [], [], []
    for g in gens:
        row = []
        for t, k in enumerate(kept):
            row.append((gram(g, k) - sum(row[s] * ds[s] * rows[t][s] for s in range(t))) / ds[t])
        d = gram(g, g) - sum(l * l * dt for l, dt in zip(row, ds))
        if d:
            kept.append(g)
            rows.append(row)
            ds.append(d)
    return kept


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
@pytest.mark.parametrize("m", [5, 10, 12, 16, 20])
def test_selection_matches_exact_ldl(m, side):
    assert orthonormal_basis(m, side).labels == _exact_kept(m, side)


def _pivoted_factor(m, side):
    """Labels and factor U (G = U^T U over the kept labels) by an in-order
    float Cholesky of the whole generating family that skips a generator
    when its pivot falls below 1e-10 of its squared norm 1/n."""
    ns, js = np.array(_generators(m)).T
    g = closed_form_gram(ns[:, None], js[:, None], ns, js, side)  # becomes the Schur complement
    factor = np.zeros_like(g)  # row i stays zero when generator i is dependent
    for i in range(ns.size):
        if g[i, i] > 1e-10 / ns[i]:
            factor[i, i:] = g[i, i:] / np.sqrt(g[i, i])
            g[i:, i:] -= np.outer(factor[i, i:], factor[i, i:])
    kept = np.flatnonzero(np.diag(factor))
    return [(int(ns[i]), int(js[i])) for i in kept], factor[np.ix_(kept, kept)]


def _assert_oracle_elements(ob, factor, signs):
    """ob's elements equal the oracle's e_i = signs[i] sum_k inv(U)[k, i] d(labels[k])
    within 1e-12 of their largest |entry|."""
    ns, js = np.array(ob.labels).T
    inverse = np.linalg.inv(factor) * signs
    # LEFT: the oracle's elements are step functions that break only at fractions of order m
    # (the Farey sequence F); their values on each piece of F
    farey = np.unique([a / b for b in range(1, max(ns) + 1) for a in range(b + 1)])
    mid = (farey[:-1] + farey[1:]) / 2
    values = (np.floor(mid[:, None] * ns) == js - 1) @ inverse
    for i, e in enumerate(ob.elements):
        if ob.side is Side.RIGHT:
            # entry r of the oracle's element in R^D is D <d(D, r + 1), e_i>, its average over
            # the residues r mod D; both have unit norm, so equal averages mean equal elements
            rows = closed_form_gram(e.size, np.arange(1, e.size + 1)[:, None], ns, js, ob.side)
            got, want = e, e.size * rows @ inverse[:, i]
        else:
            # one point of each piece between F and the entries where e changes value
            pts = np.unique(np.r_[farey, (np.flatnonzero(np.diff(e)) + 1) / e.size])
            x = (pts[:-1] + pts[1:]) / 2
            got, want = e[(x * e.size).astype(int)], values[np.searchsorted(farey, x) - 1, i]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(e).max(), ob.labels[i]


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_closed_form_selection_matches_the_pivoted_cholesky(side):
    for m in range(1, 41):
        labels, factor = _pivoted_factor(m, side)
        ob = orthonormal_basis(m, side)
        assert ob.labels == labels, m
        # G = L L^T with L = U^T, so L[k, i] = <d(labels[k]), e_i>, the generator's coordinates
        got = np.array([coordinates(delta(n, j), ob) for n, j in labels])
        # the oracle's factor has a positive diagonal; RIGHT flips some element signs
        signs = np.sign(np.diag(got))
        assert np.abs(got * signs - factor.T).max() <= 1e-9 * np.abs(factor).max(), m
    # element i depends only on the generators up to its own, so m = 40 covers every m <= 40
    _assert_oracle_elements(ob, factor, signs)


def test_paper_rule_is_the_exact_right_selection_iff_s_is_one_or_prime():
    for n in range(1, 201):
        s = largest_square_divisor(n)
        same = [e.j for e in basis_layer(n)] == _kept_layer(n, Side.RIGHT)
        assert same == (s == 1 or sympy.isprime(s)), n


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_closed_form_gram_equals_inner_v(side):
    ns, js = np.array(_generators(12)).T
    g = closed_form_gram(ns[:, None], js[:, None], ns, js, side)
    want = [[inner_v(delta(*a), delta(*b), side) for b in zip(ns, js)] for a in zip(ns, js)]
    assert np.array_equal(g, want)


# --- coordinates of the generating family ---------------------------------------

@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
@pytest.mark.parametrize("m", [12, 16, 30])
def test_every_generator_satisfies_parseval(m, side):
    ob = orthonormal_basis(m, side)
    assert ob.count == {(12, Side.RIGHT): 39, (16, Side.RIGHT): 69, (30, Side.RIGHT): 241,
                        (12, Side.LEFT): 46, (16, Side.LEFT): 80, (30, Side.LEFT): 278}[m, side]
    for n, j in _generators(m):
        xi = coordinates(delta(n, j), ob)
        assert abs(xi @ xi - 1 / n) <= 1e-12
    assert "elements" not in vars(ob)  # neither the build nor coordinates built an atom


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(-3, 3), min_size=11, max_size=11),
       st.integers(2, 5), st.sampled_from([Side.RIGHT, Side.LEFT]))
def test_coordinates_invariant_under_lifts(n, coefs, r, side):
    # a combination of the layer-n generators keeps its coordinates when lifted
    ob = orthonormal_basis(12, side)
    x = sum(c * e.value for c, e in zip(coefs, generating_layer(n)))
    xi = coordinates(x, ob)
    assert np.allclose(coordinates(lift_signal(x, r * n, side), ob), xi, rtol=0.0, atol=1e-12)


def test_left_coordinates_raise_outside_the_span():
    # 1/13 is not a breakpoint of the generators up to 12
    with pytest.raises(InsufficientBasis):
        coordinates(delta(13, 1), orthonormal_basis(12, Side.LEFT))


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_elements_are_irreducible_unit_atoms(side):
    # RIGHT: the element of d(n,j) lies in R^n; LEFT: it is a two-step
    # function on the Farey neighbours h/k and (j-h)/(n-k) of j/n
    ob = orthonormal_basis(16, side)
    for (n, j), e in zip(ob.labels, ob.elements):
        k = pow(j, -1, n) if n > 1 else 1
        assert e.size == (n if side is Side.RIGHT or n == 1 else math.lcm(k, n, n - k))
        assert abs(norm_v(e) - 1.0) <= 1e-12
        # irreducible: no s-fold lift, s > 1, within 1e-9 of its largest entry
        tol = 1e-9 * np.abs(e).max()
        assert all(unlift(e, s, side, tol) is None
                   for s in range(2, e.size + 1) if e.size % s == 0)
        assert e[np.abs(e) > 1e-9][0] > 0
        if side is Side.LEFT:  # the values k on [h/k, j/n) and -(n-k) on [j/n, (j-h)/(n-k))
            assert np.abs(e[:, None] - [0, k, k - n]).min(1).max() <= 1e-14 * n


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_basis_at_m100_and_its_coordinates_stay_small(side):
    # an N x N float64 array at m = 100 (N = 2661 RIGHT, 3044 LEFT) alone takes 54 or 71 MiB
    x = lift_signal(delta(96, 1), 9312, side) + lift_signal(delta(97, 2), 9312, side)
    tracemalloc.start()
    try:
        xi = coordinates(x, orthonormal_basis(100, side))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert abs(xi @ xi - norm_v(x) ** 2) <= 1e-12


# --- the read-plan memo of `coordinates` ------------------------------------------

def _spanned_signals(m, side):
    """Lifted generators of every layer up to m, dims 1..2m, each in the span of the m-basis."""
    return [lift_signal(delta(n, j), n * r, side) for n in range(1, m + 1)
            for j in range(1, n + 1) if math.gcd(j, n) == 1 for r in (1, 2)]


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_warm_coordinates_are_the_cold_ones_byte_for_byte(side):
    ob = orthonormal_basis(12, side)
    signals = _spanned_signals(12, side)
    cold = []
    for x in signals:
        signal_space._plan_of.cache_clear()
        cold.append(coordinates(x, ob).tobytes())
    warm = [coordinates(x, orthonormal_basis(12, side)).tobytes() for x in signals * 2]
    assert warm == cold * 2


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_plans_are_read_only_and_hold_no_caller_buffer(side):
    ob = orthonormal_basis(10, side)
    cells = ob.cells.copy()
    x = lift_signal(delta(7, 3), 14, side)
    want = coordinates(x, ob)
    plan = signal_space._plan_of(np.asarray(cells, dtype=int).tobytes(), 14, side)
    arrays = [a for a in plan if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    assert not any(np.shares_memory(a, b) for a in arrays for b in (ob.cells, cells, x))
    with pytest.raises(ValueError):
        arrays[0][0] = 0
    cells[:] = 1  # a caller's later write reaches no plan
    assert coordinates(x, ob).tobytes() == want.tobytes()


@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
def test_bases_of_equal_contents_share_one_plan(side):
    signal_space._plan_of.cache_clear()
    x = lift_signal(delta(5, 2), 10, side)
    first = coordinates(x, orthonormal_basis(8, side))
    again = coordinates(x, orthonormal_basis(8, side))  # a new basis object, equal cells
    info = signal_space._plan_of.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)
    assert again.tobytes() == first.tobytes()


def test_the_plan_memo_keeps_at_most_its_bound():
    bound = signal_space._PLAN_MEMO_SIZE
    bases = [orthonormal_basis(4, side) for side in Side]
    for p in range(1, bound + 2):  # 2 * (bound + 1) distinct keys
        for ob in bases:
            coordinates(lift_signal(delta(2, 1), 2 * p, ob.side), ob)
    info = signal_space._plan_of.cache_info()
    assert info.maxsize == bound and info.currsize == bound

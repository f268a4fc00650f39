import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stpcs import (
    Side,
    angle_v,
    dist_v,
    equivalent,
    inner_v,
    lift_matrix,
    lift_signal,
    matrices_equivalent,
    norm_v,
    project,
    projection_matrix,
    reduce_matrix,
    reduce_signal,
    sta,
)
from stpcs import signal_space
from stpcs.errors import ZeroVector
from stpcs.golden import SENSING_7X16
from stpcs.signal_space import REDUCE_RTOL, _generator_products, _layer
from stpcs.stp import as_signal

SIDES = [Side.LEFT, Side.RIGHT]

ints = st.integers(min_value=-4, max_value=4)
int_signals = st.lists(ints, min_size=1, max_size=6).map(lambda v: np.array(v, dtype=float))
mults = st.integers(min_value=1, max_value=3)
float_signals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False), min_size=1, max_size=9
).map(np.array)


def lift(x, r, side):
    return lift_signal(x, len(np.atleast_1d(x)) * r, side)


def ones_lift(v, t, side):
    """The lift of v to dimension t as a numpy Kronecker product: the test oracle."""
    ones = np.ones(t // v.size)
    return np.kron(v, ones) if side is Side.LEFT else np.kron(ones, v)


# --- reduction --------------------------------------------------------------

def test_reduce_signal_left_example():
    atom, mult = reduce_signal([1, 1, 2, 2, 3, 3], Side.LEFT)
    assert np.array_equal(atom, [1, 2, 3]) and mult == 2


def test_reduce_signal_right_example():
    atom, mult = reduce_signal([1, 2, 3, 1, 2, 3], Side.RIGHT)
    assert np.array_equal(atom, [1, 2, 3]) and mult == 2


def test_reduce_signal_irreducible_input():
    atom, mult = reduce_signal([1, 2, 3], Side.LEFT)
    assert np.array_equal(atom, [1, 2, 3]) and mult == 1


def test_reduce_signal_constant_vector():
    atom, mult = reduce_signal([7.0] * 5, Side.LEFT)
    assert np.array_equal(atom, [7.0]) and mult == 5


def test_reduce_signal_zero_vector():
    atom, mult = reduce_signal(np.zeros(6), Side.LEFT)
    assert np.array_equal(atom, [0.0]) and mult == 6


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, mults)
def test_reduce_inverts_lifting(side, x, r):
    atom, mult = reduce_signal(lift(x, r, side), side)
    rebuilt = lift(atom, mult, side)
    assert np.array_equal(rebuilt, lift(x, r, side))


@pytest.mark.parametrize("side", SIDES)
@given(int_signals)
def test_reduce_is_idempotent(side, x):
    atom, _ = reduce_signal(x, side)
    atom2, mult2 = reduce_signal(atom, side)
    assert mult2 == 1 and np.array_equal(atom, atom2)


def test_reduce_matrix_left_example():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # 2x3, trivially irreducible
    atom, mult = reduce_matrix(np.kron(a, np.eye(3)), Side.LEFT)
    assert mult == 3 and np.array_equal(atom, a)


def test_reduce_matrix_right_example():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    atom, mult = reduce_matrix(np.kron(np.eye(2), a), Side.RIGHT)
    assert mult == 2 and np.array_equal(atom, a)


def test_reduce_matrix_irreducible_input():
    a = np.array([[1.0, 0.0], [2.0, 1.0]])
    atom, mult = reduce_matrix(a, Side.LEFT)
    assert mult == 1 and np.array_equal(atom, a)


def test_reduce_matrix_identity_is_maximally_reducible():
    atom, mult = reduce_matrix(np.eye(4), Side.LEFT)
    assert mult == 4 and np.array_equal(atom, [[1.0]])


def divisors_desc(n):
    return [d for d in range(n, 0, -1) if n % d == 0]


def reduce_signal_oracle(x, side, rtol=REDUCE_RTOL):
    """Every divisor in turn against the np.kron lift of block 0: the test oracle."""
    x = np.asarray(x, dtype=float)
    tol = rtol * np.abs(x).max()
    for s in divisors_desc(x.size)[:-1]:
        atom = x[::s] if side is Side.LEFT else x[:x.size // s]
        if np.allclose(x, ones_lift(atom, x.size, side), rtol=0.0, atol=tol):
            return atom.copy(), s
    return x.copy(), 1


def reduce_matrix_oracle(a, side, rtol=REDUCE_RTOL):
    """Every divisor of gcd(m, n) in turn against the dense np.kron lift: the test oracle."""
    a = np.asarray(a, dtype=float)
    (m, n), tol = a.shape, rtol * np.abs(a).max()
    for s in divisors_desc(math.gcd(m, n))[:-1]:
        atom = a[::s, ::s] if side is Side.LEFT else a[:m // s, :n // s]
        eye = np.eye(s)
        lifted = np.kron(atom, eye) if side is Side.LEFT else np.kron(eye, atom)
        if np.allclose(a, lifted, rtol=0.0, atol=tol):
            return atom.copy(), s
    return a.copy(), 1


scales = st.integers(-12, 12).map(lambda e: 10.0 ** e)
# a lift as drawn, one entry moved by 0.5x or 2x the tolerance, or a constant or zero input
KINDS = st.sampled_from(["lift", "near", "far", "constant", "zero"])


def _perturbed(draw, v, kind):
    """`v` after the change that `kind` names, at a drawn flat position."""
    v = v.copy()
    flat = v.reshape(-1)
    if kind == "constant":
        flat[:] = flat[0]
    elif kind == "zero":
        flat[:] = 0.0
    elif kind in ("near", "far"):
        tol = REDUCE_RTOL * np.abs(flat).max()
        sign = draw(st.sampled_from([-1.0, 1.0]))
        flat[draw(st.integers(0, flat.size - 1))] += sign * (0.5 if kind == "near" else 2.0) * tol
    return v


@st.composite
def signal_cases(draw):
    atom = np.array(draw(st.lists(st.integers(-9, 9) | st.floats(-1, 1), min_size=1, max_size=6)))
    r = draw(st.integers(1, 4))
    side = draw(st.sampled_from(SIDES))
    x = ones_lift(atom * draw(scales), atom.size * r, side)
    return _perturbed(draw, x, draw(KINDS)), side


@st.composite
def matrix_cases(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    atom = np.array(draw(st.lists(st.integers(-3, 3) | st.floats(-1, 1),
                                  min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])))
    s = draw(st.integers(1, 4))
    side = draw(st.sampled_from(SIDES))
    a = lift_matrix(atom.reshape(shape) * draw(scales), s, side)
    return _perturbed(draw, a, draw(KINDS)), side


@settings(max_examples=300)
@given(signal_cases())
@example((np.full(6, 7.0), Side.RIGHT))
@example((np.array([1.0, 1.0, 2.0, 2.0]) * 1e-13, Side.LEFT))
def test_reduce_signal_matches_the_divisor_oracle(case):
    x, side = case
    atom, mult = reduce_signal(x, side)
    want, wmult = reduce_signal_oracle(x, side)
    assert mult == wmult and atom.tobytes() == want.tobytes()


@settings(max_examples=300)
@given(matrix_cases())
@example((np.eye(4), Side.LEFT))
@example((np.kron(np.eye(2), [[1.0, 2.0], [3.0, 4.0]]) * 1e12, Side.RIGHT))
def test_reduce_matrix_matches_the_kron_oracle(case):
    a, side = case
    atom, mult = reduce_matrix(a, side)
    want, wmult = reduce_matrix_oracle(a, side)
    assert mult == wmult and atom.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", SIDES)
def test_reduce_matrix_builds_no_lift(side):
    # the candidate lift, like the input, is a 448x1024 matrix of 3.5 MiB
    a = lift_matrix(SENSING_7X16, 64, side)
    tracemalloc.start()
    try:
        atom, mult = reduce_matrix(a, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mult == 64 and atom.tobytes() == SENSING_7X16.tobytes()
    assert peak < a.nbytes


@pytest.mark.parametrize("side", SIDES)
def test_reduce_matrix_memory_is_bounded_on_a_non_lift(side):
    # a 256-fold lift, 1792x4096 and 56 MiB: bumping entry (0, 17), off the
    # diagonal blocks, or the last entry, inside the last one, makes it
    # irreducible on both sides, and every divisor down to 2 is tested;
    # the differences of the diagonal blocks taken at once (two temporaries
    # of mn/2 floats at s = 2), or a copy of the input as its own atom,
    # would each hold 56 MiB
    a = lift_matrix(SENSING_7X16, 256, side)

    def traced(b):
        tracemalloc.start()
        try:
            got = reduce_matrix(b, side)
            return got, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (atom, mult), peak = traced(a)
    assert mult == 256 and atom.tobytes() == SENSING_7X16.tobytes()
    assert peak <= 7.01 * 2**20  # a bool mask of the input
    for pos in [(0, 17), (1791, 4095)]:
        b = a.copy()
        b[pos] += 1.0
        (atom, mult), peak = traced(b)
        assert mult == 1 and atom.shape == b.shape and np.array_equal(atom, b)
        assert peak <= 14 * 2**20


# --- the tolerance is relative to the data ------------------------------------

@pytest.mark.parametrize("side", SIDES)
def test_reduce_signal_tells_small_entries_apart(side):
    # an absolute 1e-12 tolerance read all four entries as one
    atom, mult = reduce_signal(np.array([1.0, 2.0, 3.0, 4.0]) * 1e-13, side)
    assert mult == 1 and np.array_equal(atom, np.array([1.0, 2.0, 3.0, 4.0]) * 1e-13)


@pytest.mark.parametrize("side", SIDES)
def test_reduce_signal_ignores_rounding_at_large_scale(side):
    # one ulp at 1e9 is 1.2e-7, beyond an absolute 1e-12 tolerance
    x = lift_signal([1e9, 2e9], 6, side)
    x[1] = np.nextafter(x[1], np.inf)
    assert reduce_signal(x, side)[1] == 3


@pytest.mark.parametrize("side", SIDES)
def test_reduce_matrix_tells_small_entries_apart(side):
    a = np.array([[1.0, 2.0], [3.0, 4.0]]) * 1e-13
    atom, mult = reduce_matrix(a, side)
    assert mult == 1 and np.array_equal(atom, a)
    assert not matrices_equivalent(a, [[5e-13]], side)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_reduction_answers_the_same_at_every_scale(side, scale):
    x = np.array([1.0, -2.0, 0.5]) * scale
    assert reduce_signal(lift_signal(x, 12, side), side)[1] == 4
    assert equivalent(x, lift_signal(x, 6, side), side)
    assert not equivalent(x, x * (1 + 1e-9), side)
    a = np.array([[1.0, 0.0], [2.0, -1.0]]) * scale
    assert reduce_matrix(lift_matrix(a, 3, side), side)[1] == 3
    assert matrices_equivalent(a, lift_matrix(a, 2, side), side)


@pytest.mark.parametrize("side", SIDES)
def test_reduction_and_equivalence_at_the_float_maximum(side):
    # 1e308 - (-1e308) overflows: the difference reads as far, with no warning
    left = side is Side.LEFT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        atom, mult = reduce_signal([1e308, -1e308, 1e308, -1e308], side)
        assert mult == (1 if left else 2)
        assert np.array_equal(atom, [1e308, -1e308, 1e308, -1e308] if left else [1e308, -1e308])
        assert not equivalent([1e308], [-1e308], side)
        assert not matrices_equivalent([[1e308]], [[-1e308]], side)
        assert reduce_matrix(np.kron([[1e308, -1e308]], np.eye(2)), side)[1] == (2 if left else 1)
        assert reduce_matrix([[1e308, 0.0], [0.0, -1e308]], side)[1] == 1
        assert equivalent([1e308, 1e308], [1e308], side)


# --- equivalence ------------------------------------------------------------

def test_equivalent_examples():
    x = np.array([1.0, 2.0])
    assert equivalent(x, np.kron(x, np.ones(3)), Side.LEFT)
    assert not equivalent([1, 2], [1, 2, 3], Side.LEFT)
    assert equivalent([1, 1], [1, 1, 1], Side.LEFT)


def test_matrices_equivalent_examples():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert matrices_equivalent(np.kron(a, np.eye(3)), a, Side.LEFT)
    assert matrices_equivalent(np.kron(np.eye(3), a), a, Side.RIGHT)
    # each lift is the other side's irreducible matrix
    assert not matrices_equivalent(np.kron(a, np.eye(3)), a, Side.RIGHT)
    assert not matrices_equivalent(a, a.T, Side.LEFT)
    assert not matrices_equivalent(a, np.ones((2, 3)), Side.LEFT)
    assert not matrices_equivalent(np.ones((2, 3)), np.kron(a, np.eye(2)), Side.RIGHT)


@pytest.mark.parametrize("side", SIDES)
def test_equivalence_predicates_answer_python_bools(side):
    # atoms of one shape are compared entry by entry, of two shapes not at all
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    got = [equivalent([1, 2], lift_signal([1, 2], 4, side), side),
           equivalent([1, 2], [1, 3], side),
           equivalent([1, 2], [1, 2, 3], side),
           matrices_equivalent(lift_matrix(a, 3, side), a, side),
           matrices_equivalent(a, a.T, side),
           matrices_equivalent(a, np.ones((2, 3)), side)]
    assert [g.__class__ for g in got] == [bool] * 6
    assert got == [True, False, False, True, False, False]
    assert json.loads(json.dumps({"eq": got})) == {"eq": got}


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, mults, mults)
def test_equivalence_relation_on_lifts(side, x, a, b):
    xa, xb = lift(x, a, side), lift(x, b, side)
    assert equivalent(xa, xa, side)
    assert equivalent(xa, xb, side) and equivalent(xb, xa, side)


@given(int_signals, int_signals)
def test_equivalent_iff_zero_distance(x, y):
    assert equivalent(x, y, Side.LEFT) == (dist_v(x, y, Side.LEFT) < 1e-12)


@given(int_signals, int_signals)
def test_equivalent_iff_zero_distance_right(x, y):
    assert equivalent(x, y, Side.RIGHT) == (dist_v(x, y, Side.RIGHT) < 1e-12)


def lifts_agree(x, y, side):
    """The definition of equivalence on the dense lifts to lcm(dim x, dim y): the test oracle."""
    t = math.lcm(x.size, y.size)
    with np.errstate(over="ignore"):  # 1e308 - (-1e308) is far
        gap = np.abs(ones_lift(x, t, side) - ones_lift(y, t, side)).max()
    return bool(gap <= REDUCE_RTOL * max(np.abs(x).max(), np.abs(y).max()))


def equivalence_cases(rng, side, scale):
    """(x, y, expected) pairs of dims 1..40: exact lifts, unrelated signals, and lifts
    with noise of a fixed fraction of the tolerance on x, on y or on both.

    expected is the answer the definition gives in exact arithmetic, None where it
    depends on how the noise on x and on y combine.
    """
    for _ in range(40):
        d = int(rng.integers(1, 11))
        atom = rng.standard_normal(d) * scale
        r, s = (int(m) for m in rng.integers(1, 40 // d + 1, size=2))
        x, y = lift(atom, r, side), lift(atom, s, side)
        yield x, y, True
        p, q = (int(n) for n in rng.integers(1, 41, size=2))
        yield rng.standard_normal(p) * scale, rng.standard_normal(q) * scale, None
        tol = REDUCE_RTOL * np.abs(atom).max()
        for f in (0.3, 0.9, 1.1, 2.0):
            ex, ey = (f * tol * rng.choice([-1.0, 1.0], size=v.size) for v in (x, y))
            yield x + ex, y, f < 1
            yield x, y + ey, f < 1
            yield x + ex, y + ey, None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_equivalent_is_the_definition(side, scale):
    rng = np.random.default_rng(7)
    for x, y, expected in equivalence_cases(rng, side, scale):
        got = equivalent(x, y, side)
        assert got.__class__ is bool and got == equivalent(y, x, side) == lifts_agree(x, y, side)
        assert expected is None or got == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side", SIDES)
def test_equivalent_is_the_definition_at_the_float_maximum(side):
    # differences of 2e308 overflow: they read as far, with no warning
    rng = np.random.default_rng(8)
    for _ in range(200):
        atom = rng.choice([-1e308, 1e308, 0.0, 1.0], size=int(rng.integers(1, 6)))
        r, s = (int(m) for m in rng.integers(1, 5, size=2))
        x, y = lift(atom, r, side), lift(atom, s, side)
        bumped = y.copy()
        bumped[int(rng.integers(y.size))] = rng.choice([-1e308, 1e308])
        assert equivalent(x, y, side)
        for v in (y, bumped):
            got = equivalent(x, v, side)
            assert got.__class__ is bool and got == equivalent(v, x, side) == lifts_agree(x, v, side)


def same_atom(x, y, side):
    """Whether x and y reduce to one atom, the atoms compared within REDUCE_RTOL times the
    larger max|atom|: the rule `equivalent` followed before it compared lifts."""
    p, q = reduce_signal(x, side)[0], reduce_signal(y, side)[0]
    tol = REDUCE_RTOL * max(np.abs(p).max(), np.abs(q).max())
    return p.shape == q.shape and bool(np.abs(p - q).max() <= tol)


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, int_signals, mults, mults)
def test_equivalent_keeps_the_atom_rule_on_exact_data(side, x, y, a, b):
    for u, v in ((lift(x, a, side), lift(x, b, side)), (lift(x, a, side), lift(y, b, side))):
        assert equivalent(u, v, side) == same_atom(u, v, side)


# --- inner product, norm, distance ------------------------------------------

def test_inner_of_ones_vectors():
    assert inner_v(np.ones(2), np.ones(3)) == pytest.approx(1.0, abs=1e-15)


def test_inner_left_example():
    assert inner_v([1, 0], [0, 1, 0]) == pytest.approx(1 / 6, abs=1e-15)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=60)
@given(int_signals, int_signals, mults, mults)
def test_inner_is_lift_invariant(side, x, y, a, b):
    v1 = inner_v(x, y, side)
    v2 = inner_v(lift(x, a, side), lift(y, b, side), side)
    assert abs(v1 - v2) <= 1e-12


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, int_signals)
@example(np.arange(3.0), np.arange(6.0))  # one dim divides the other
@example(np.arange(4.0), np.arange(6.0))  # coprime parts 2 and 3
def test_inner_matches_explicit_lcm_dot(side, x, y):
    t = math.lcm(x.size, y.size)
    expected = float(ones_lift(x, t, side) @ ones_lift(y, t, side)) / t
    assert inner_v(x, y, side) == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_norm_examples():
    assert norm_v(np.ones(7)) == pytest.approx(1.0, abs=1e-15)
    assert norm_v([2, -1, -1]) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert norm_v(np.zeros(4)) == 0.0


def test_dist_examples():
    x = np.array([1.0, 5.0, -2.0])
    assert dist_v(x, np.kron(x, np.ones(2))) == 0.0
    assert dist_v([1, 0], [0, 1]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, int_signals)
def test_dist_is_symmetric(side, x, y):
    assert dist_v(x, y, side) == pytest.approx(dist_v(y, x, side), abs=1e-15)


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, int_signals, mults, mults)
def test_sta_respects_equivalence(side, x, y, a, b):
    s1 = sta(x, y, side)
    s2 = sta(lift(x, a, side), lift(y, b, side), side)
    assert equivalent(s1, s2, side)


# --- angles -----------------------------------------------------------------

def test_angle_of_parallel_vectors_is_zero():
    x = np.array([1.0, 2.0, 3.0])
    assert angle_v(x, 2 * x) == pytest.approx(0.0, abs=1e-7)


def test_angle_left_example():
    # cos = (1/6) / (sqrt(1/2) * sqrt(1/3)) = 1/sqrt(6)
    assert angle_v([1, 0], [0, 1, 0]) == pytest.approx(math.acos(1 / math.sqrt(6)), abs=1e-12)


def test_angle_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        angle_v([0.0, 0.0], [1.0])


def test_norm_and_angle_past_the_range_of_a_sum_of_squares():
    # 1e155 squared overflows and 1e-300 squared underflows to zero
    assert norm_v(np.array([3.0, 4.0]) * 1e155) == pytest.approx(5e155 / math.sqrt(2), rel=1e-15)
    assert norm_v(np.array([3.0, 4.0]) * 1e-300) == pytest.approx(5e-300 / math.sqrt(2), rel=1e-15)
    big = angle_v(np.array([1.0, 0.0]) * 1e155, np.array([1.0, 1.0]) * 1e155)
    assert big == pytest.approx(math.pi / 4, abs=1e-15)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=60, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300))
def test_norm_and_angle_are_right_at_every_scale(side, ex, ey):
    # both are homogeneous: norm_v(c x) = c norm_v(x), and the angle
    # ignores positive scale on either side
    x, y = np.array([1.0, -2.0, 3.0, 0.5]), np.array([2.0, 1.0, -1.0])
    cx, cy = 10.0 ** ex, 10.0 ** ey
    assert norm_v(cx * x) == pytest.approx(cx * norm_v(x), rel=1e-14)
    assert angle_v(cx * x, cy * y, side) == pytest.approx(angle_v(x, y, side), abs=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_angle_validates_each_argument_once_and_keeps_its_bits(side, monkeypatch):
    # the angle is the composition of the public norm and inner product,
    # bit for bit, while it validates each signal once, not three times
    rng = np.random.default_rng(11)
    pairs = [(rng.standard_normal(48) * 10.0 ** ex, rng.standard_normal(36) * 10.0 ** ey)
             for ex in (-300, 0, 300) for ey in (-300, 0, 300)]
    for x, y in pairs:
        composed = inner_v(x / norm_v(x), y / norm_v(y), side)
        assert angle_v(x, y, side) == float(np.arccos(np.clip(composed, -1.0, 1.0)))
    calls = []

    def counted(v):
        calls.append(v)
        return as_signal(v)

    monkeypatch.setattr(signal_space, "as_signal", counted)
    angle_v(*pairs[4], side)
    assert len(calls) == 2


@pytest.mark.parametrize("side", SIDES)
def test_angle_is_right_at_subnormal_norms(side):
    # small integers times 2^-k are exact down to 2^-1074, so every scaled
    # pair has the angle of the unscaled one; a subnormal norm has few bits
    rng = np.random.default_rng(23)
    pairs = [([3.0, -4.0, 1.0], [1.0, 2.0])]
    while len(pairs) < 12:
        x, y = (rng.integers(-7, 8, int(rng.integers(1, 9))).astype(float) for _ in range(2))
        if x.any() and y.any() and abs(math.cos(angle_v(x, y, side))) < 0.99:
            pairs.append((x, y))
    for x, y in pairs:
        x, y = np.array(x), np.array(y)
        want = angle_v(x, y, side)
        for k in [*range(0, 1075, 50), *range(1040, 1075)]:
            f = 2.0 ** -k
            got = angle_v(x * f, y, side), angle_v(x, y * f, side), angle_v(x * f, y * f, side)
            assert got == pytest.approx((want,) * 3, rel=0.0, abs=1e-12), (x, y, k)
    # the norm of a nonzero signal may round to zero; the signal still has an angle
    tiny = np.array([2.0 ** -1074, 0.0, 0.0, 0.0])
    assert angle_v(tiny, [0.0, 1.0], side) == pytest.approx(angle_v([1.0, 0, 0, 0], [0.0, 1.0], side))
    with pytest.raises(ZeroVector):
        angle_v(tiny * 0.0, [1.0], side)


def test_projection_residual_is_perpendicular_to_target_space():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(6)
    resid = sta(x, project(x, 4), Side.LEFT, subtract=True)
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0
        assert angle_v(resid, e) == pytest.approx(math.pi / 2, abs=1e-7)


# --- projection -------------------------------------------------------------

def test_projection_matrix_same_dim_is_identity():
    assert np.allclose(projection_matrix(5, 5), np.eye(5), atol=1e-15)


def test_projection_matrix_2_to_3():
    expected = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(projection_matrix(2, 3), expected, atol=1e-15)


def test_projection_matrix_to_scalar_is_mean():
    assert np.allclose(projection_matrix(4, 1), np.full((1, 4), 0.25), atol=1e-15)


@pytest.mark.parametrize("side", SIDES)
@given(float_signals, float_signals, st.lists(st.tuples(st.integers(1, 12), st.integers(0, 11)),
                                              min_size=1))
@example(np.arange(6.0), np.arange(3.0), [(3, 0), (3, 2), (2, 1)])  # divisible dims
@example(np.arange(5.0), np.arange(7.0), [(7, 0), (7, 6), (3, 1)])  # coprime dims
@example(np.arange(4.0), np.arange(6.0), [(6, 1), (6, 4), (10, 9)])  # non-divisible dims
def test_kernel_project_and_inner_v_match_the_lcm_lift(side, x, y, pairs):
    ns = np.array([n for n, _ in pairs])
    js = np.array([j % n + 1 for n, j in pairs])
    want = []
    for n, j in zip(ns, js):
        t = math.lcm(x.size, n)
        want.append(ones_lift(x, t, side) @ ones_lift(np.eye(n)[j - 1], t, side) / t)
    scale = np.abs(x).max()
    assert np.allclose(_generator_products(x, ns, js, side), want, rtol=1e-12, atol=1e-12 * scale)
    n = int(ns[0])
    assert np.allclose(project(x, n, side), projection_matrix(x.size, n, side) @ x,
                       rtol=1e-12, atol=1e-12 * scale)
    t = math.lcm(x.size, y.size)
    want = ones_lift(x, t, side) @ ones_lift(y, t, side) / t
    tol = 1e-12 * scale * np.abs(y).max()
    assert inner_v(x, y, side) == pytest.approx(want, rel=1e-12, abs=tol)


def _layer_inputs(rng, p):
    """A dim-p signal with exact zeros and negative zeros, at a scale of 10^-300, 1 or 10^300."""
    x = rng.standard_normal(p) * 10.0 ** rng.choice([-300, 0, 300])
    x[rng.random(p) < 0.2] = 0.0
    x[rng.random(p) < 0.2] = -0.0
    return x


@pytest.mark.parametrize("side", SIDES)
def test_layer_reads_are_the_kernel_on_the_whole_layer_bit_for_bit(side):
    # every n, p in 1..80: the closed form makes the kernel's float operations
    # on its operands; a sum over a zero-padded x would regroup the last LEFT segment
    rng = np.random.default_rng(29)
    for p in range(1, 81):
        for n in range(1, 81):
            x = _layer_inputs(rng, p)
            want = _generator_products(x, np.full(n, n), np.arange(1, n + 1), side)
            assert _layer(x, n, side).tobytes() == want.tobytes(), (p, n)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("scale", [1e306, 1e307])
def test_project_and_inner_v_keep_a_finite_answer_finite(side, scale):
    # a segment sum of 1000 entries of 1e306 overflows, though every answer is `scale`
    y = scale * np.ones(1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project(y, 7, side)
        inner = inner_v(np.ones(7), y, side)
    assert np.allclose(got, scale, rtol=1e-12, atol=0.0)
    assert inner == pytest.approx(scale, rel=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_inner_v_keeps_a_finite_answer_finite_at_any_scale_of_x(side):
    # 1e300 * 5e99 overflows in the dot product, though the lcm-lift value is 0;
    # a tiny x against a huge y must not lose its bits to a subnormal product either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inner_v([1e300, -1e300], [1e100, 1e100], side) == 0.0
        assert inner_v([1e300, 1e300], [1e-300, 3e-300], side) == pytest.approx(2.0, rel=1e-15)
        assert inner_v([1e-300, 1e-300], [1e300, 2e300], side) == pytest.approx(1.5, rel=1e-15)
        assert inner_v([1e-300, 0.0], [1e-20], side) == pytest.approx(5e-321, rel=1e-3)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("q,want", [(10000, 2e306), (5000, math.sqrt(5) * 1e306)])
def test_dist_v_keeps_a_finite_distance_finite(side, q, want):
    # 1e308 - (-1e308) overflows, though the distance is finite; with q = 5000
    # the lift of y meets x's 1e308 once and a zero once
    x = np.r_[1e308, np.zeros(9999)]
    y = np.r_[-1e308, np.zeros(q - 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dist_v(x, y, side)
        assert dist_v(x, lift_signal(x, 20000, side), side) == 0.0
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("side", SIDES)
@given(float_signals, float_signals)
def test_dist_v_is_the_norm_of_the_plain_difference_in_the_normal_range(side, x, y):
    assert dist_v(x, y, side) == norm_v(sta(x, y, side, subtract=True))


def test_project_keeps_small_entries_next_to_a_large_one():
    # a difference of prefix sums would read the second and third cells as 0
    got = project([1e17, 1.0, 1.0, 1.0, 1.0, 1.0], 3)
    assert np.allclose(got, [5e16, 1.0, 1.0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("side", SIDES)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_project_onto_its_own_dimension_is_an_exact_copy(side, v):
    x = np.array(v)
    got = project(x, x.size, side)
    assert got.tobytes() == x.tobytes() and not np.shares_memory(got, x)


@pytest.mark.parametrize("side", SIDES)
def test_project_builds_no_lift(side):
    # the lcm lift of a dim-1009 signal to 1013 holds 1022117 floats, 7.8 MiB
    x = np.ones(1009)
    tracemalloc.start()
    try:
        project(x, 1013, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_project_identity_and_pair_means():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(project(x, 4), x)
    assert np.allclose(project(x, 2), [1.5, 3.5], atol=1e-15)


@pytest.mark.parametrize("side", SIDES)
@given(int_signals, st.integers(min_value=1, max_value=8))
@example(np.arange(6.0), 3)  # n | m
@example(np.arange(4.0), 6)  # non-divisible
def test_project_matches_projection_matrix(side, x, n):
    expected = projection_matrix(x.size, n, side) @ x
    assert np.allclose(project(x, n, side), expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m,n", [(2, 3), (5, 3), (6, 4), (7, 2)])
def test_project_beats_random_candidates(m, n):
    # argmin oracle: no sampled candidate gets closer than the projection
    rng = np.random.default_rng(m * 10 + n)
    x = rng.standard_normal(m)
    best = dist_v(project(x, n), x)
    for _ in range(200):
        y = rng.standard_normal(n) * 2
        assert dist_v(y, x) >= best - 1e-12


@pytest.mark.parametrize("side", SIDES)
def test_projection_residual_orthogonality_all_dims(side):
    rng = np.random.default_rng(3)
    for m in range(1, 9):
        x = rng.standard_normal(m)
        for n in range(1, 9):
            y0 = project(x, n, side)
            resid = sta(x, y0, side, subtract=True)
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                assert abs(inner_v(resid, e, side)) <= 1e-10


def test_projection_is_a_stationary_point_of_squared_distance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(7)
    y0 = project(x, 3)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        fp = dist_v(y0 + h * e, x) ** 2
        fm = dist_v(y0 - h * e, x) ** 2
        assert abs((fp - fm) / (2 * h)) <= 1e-5

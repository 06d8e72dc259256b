"""The closed form of the canonical-lift total of a matrix against an orbit loop.

The ``comparison_loop`` fixture steps an orbit, counting each turn by
comparing two circle points, and is the oracle here; it loses a turn on
orbits that creep onto a fixed point at 0, which these inputs avoid.  No
matrix reaches an orbit loop through ``rotation_number`` or
``rotation_numbers``, so these tests call it directly, one orbit at a
time on floats and as one batch on numpy arrays.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotforce import _kernels
from rotforce.circledyn import MoebiusOnRP1, PiecewiseLinear, circ_dist, rotation_number, rotation_numbers
from rotforce.moebius import (
    HPoint,
    IsometryClass,
    MoebiusReal,
    elliptic_rotation_number,
    rotation_about,
)

NS = (1, 2, 7, 500, 2000)
# |trace| - 2 around the classification band; -2e-9 is the nearest elliptic offset
BAND = (-2e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9)


def _centre(rng):
    return HPoint(float(rng.uniform(-2.0, 2.0)), float(math.exp(rng.uniform(-2.0, 2.0))))


def _rational(seed):
    """Every reduced p/q with q <= 50, each about a seeded centre."""
    rng = np.random.default_rng(seed)
    return [
        rotation_about(_centre(rng), p / q)
        for q in range(1, 51)
        for p in range(q)
        if math.gcd(p, q) == 1
    ]


def _random(seed, count):
    rng = np.random.default_rng(seed)
    return [rotation_about(_centre(rng), float(rng.uniform(0.0, 1.0))) for _ in range(count)]


def _band(seed):
    """Matrices of trace +-(2 + offset) for each offset in BAND, seeded conjugates."""
    rng = np.random.default_rng(seed)
    out = []
    for offset in BAND:
        for sign in (1.0, -1.0):
            for _ in range(3):
                a, b, c = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
                while not 2.0 * a - b * c > 0.1:
                    a, b, c = (float(v) for v in rng.uniform(-2.0, 2.0, 3))
                core = MoebiusReal(sign * (2.0 + offset), -1.0, 1.0, 0.0)
                out.append(core.conjugate_by(MoebiusReal(a, b, c, 2.0)))
    return out


def _batch_loop(loop, rows, n):
    a, b, c, d = np.asarray(rows, dtype=float).T
    return loop(lambda t: _kernels.rp1(a, b, c, d, t), n, np.full(len(a), _kernels.ORBIT_START))


def _assert_totals_agree(got, want, n):
    got, want = np.asarray(got), np.asarray(want)
    # the totals themselves, so that a lost turn shows even at n = 1
    assert np.max(np.abs(got - want)) < 1e-8
    assert max(circ_dist(g / n % 1.0, w / n % 1.0) for g, w in zip(got, want)) < 1e-9


MATS = _rational(211) + _random(223, 200) + _band(227)


def test_inputs_cover_both_sides_of_the_band():
    kinds = [m.classify() for m in MATS]
    assert kinds.count(IsometryClass.ELLIPTIC) > 950
    assert {IsometryClass.IDENTITY, IsometryClass.PARABOLIC, IsometryClass.HYPERBOLIC} <= set(kinds)
    band = _band(227)
    assert any(m.classify() is IsometryClass.ELLIPTIC for m in band)
    assert any(m.classify() is not IsometryClass.ELLIPTIC for m in band)


@pytest.mark.parametrize("n", NS)
def test_closed_form_matches_loop(n, comparison_loop):
    single = [comparison_loop(m.rp1, n, _kernels.ORBIT_START) for m in MATS]
    batch = _batch_loop(comparison_loop, [m.entries() for m in MATS], n)
    _assert_totals_agree(single, batch, n)
    _assert_totals_agree(_kernels.moebius_lift_totals([m.entries() for m in MATS], n), batch, n)
    elliptic = [m for m in MATS if m.classify() is IsometryClass.ELLIPTIC]
    closed = _kernels.elliptic_lift_totals(*np.array([m.entries() for m in elliptic]).T, n)
    _assert_totals_agree(closed, _batch_loop(comparison_loop, [m.entries() for m in elliptic], n), n)
    ests = [rotation_number(MoebiusOnRP1(m), n) for m in MATS]
    assert max(circ_dist(e.value, w / n % 1.0) for e, w in zip(ests, single)) < 1e-9
    assert max(circ_dist(e.value, w / n % 1.0) for e, w in zip(rotation_numbers(MATS, n), batch)) < 1e-9


@pytest.mark.parametrize("n", NS)
def test_mixed_batch_keeps_row_positions(n, comparison_loop):
    rng = np.random.default_rng(229 + n)
    elliptic = [m.entries() for m in _random(233, 12)]
    others = [
        MoebiusReal.translation(1.3).conjugate_by(MoebiusReal(1.0, 0.4, -0.7, 0.72)).entries(),
        MoebiusReal.dilation(0.8).conjugate_by(MoebiusReal(2.0, 1.0, 0.5, 0.75)).entries(),
        MoebiusReal.dilation(2.0 * math.acosh(1.0 + 0.5e-9)).entries(),
        (1.0, 0.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0, -1.0),
        (-1.0, -0.5, 0.0, -1.0),  # parabolic with trace -2
        # a dilation turned by about 6e-18: its fixed point's angle rounds up to 1.0 and f(0) is
        # a tiny positive float, so folding that angle to 0.0 would count a turn per step
        (2.7301110874739964, 4.41763469241437e-17, 4.41763469241437e-17, 0.36628546163857323),
        # c == 0 and a trace that rounds below 2: no rotation to conjugate to
        (1.0 - 2.0**-52, 3.0, 0.0, 1.0),
        (1.0, -3.0, 0.0, 1.0 - 2.0**-52),
        (-1.0, 0.5, 0.0, 2.0**-52 - 1.0),
        # triangular, so one of the two eigenvector formulas is the zero vector
        (2.0, 0.0, 1.0, 0.5),
        (0.5, 0.0, -1.0, 2.0),
        (0.5, 1.0, 0.0, 2.0),
        (2.5, -2.0, 0.5, 0.0),  # the two formulas are opposite vectors of one length
    ]
    assert all(abs(row[0] + row[3]) < 2.0 for row in others[-7:-4])
    # a parabolic and an attracting hyperbolic matrix that fix the orbit start
    u, v = math.cos(math.pi * _kernels.ORBIT_START), math.sin(math.pi * _kernels.ORBIT_START)
    fixing = [(1.0 - 0.5 * u * v, 0.5 * u * u, -0.5 * v * v, 1.0 + 0.5 * u * v)]
    r = np.array([[u, -v], [v, u]])
    fixing.append(tuple((r @ np.diag([2.0, 0.5]) @ r.T).ravel()))
    others += fixing + [tuple(-x for x in row) for row in fixing]
    flipped = [tuple(-v for v in row) for row in elliptic[:4]]
    rows = elliptic + others + flipped
    rows = [rows[i] for i in rng.permutation(len(rows))]
    totals = _kernels.moebius_lift_totals(rows, n)
    _assert_totals_agree(totals, _batch_loop(comparison_loop, rows, n), n)
    for row, total in zip(rows, totals):
        assert abs(total - comparison_loop(MoebiusReal(*row).rp1, n, _kernels.ORBIT_START)) < 1e-8


@pytest.mark.parametrize("n", NS[:3])
def test_totals_take_their_digits_from_the_power(n, comparison_loop):
    # the class formulas only choose the whole turns: near |trace| = 2 the
    # elliptic conjugacy alone is off by about 3e-10 at n = 1
    rows = [m.entries() for m in MATS]
    assert np.max(np.abs(_kernels.moebius_lift_totals(rows, n) - _batch_loop(comparison_loop, rows, n))) < 1e-11


def test_rotation_numbers_are_the_moebius_formula():
    elliptic = [m for m in MATS if m.classify() is IsometryClass.ELLIPTIC]
    a, _, c, d = np.array([m.entries() for m in elliptic]).T
    got = _kernels.elliptic_rotation_numbers(a, c, d)
    want = [elliptic_rotation_number(m) for m in elliptic]
    assert max(circ_dist(g, w) for g, w in zip(got, want)) <= 1e-15
    # either sign of the matrix, as rows from outside MoebiusReal may carry
    assert max(circ_dist(g, w) for g, w in zip(_kernels.elliptic_rotation_numbers(-a, -c, -d), want)) <= 1e-15


def test_no_matrix_reaches_the_loop(monkeypatch):
    looped = []

    def spy(lifts, n):
        looped.append(lifts)
        return loop(lifts, n)

    loop = _kernels._word_lift_total
    monkeypatch.setattr(_kernels, "_word_lift_total", spy)
    rotation_numbers(MATS, 7)
    for m in MATS:
        rotation_number(MoebiusOnRP1(m), 7)
    assert looped == []


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    x=st.floats(-2.0, 2.0),
    log_y=st.floats(-2.0, 2.0),
    theta=st.floats(1e-3, 1.0 - 1e-3),
    n=st.integers(1, 10**9),
)
def test_total_within_one_turn_of_n_rho(x, log_y, theta, n):
    m = rotation_about(HPoint(x, math.exp(log_y)), theta)
    assume(m.classify() is IsometryClass.ELLIPTIC)
    rho = elliptic_rotation_number(m)
    (total,) = _kernels.moebius_lift_totals([m.entries()], n)
    assert abs(total - n * rho) < 1.0
    est = rotation_number(MoebiusOnRP1(m), n)
    assert est.iterations == n and est.error_bound == 2.0 / n
    assert circ_dist(est.value, theta) <= est.error_bound


def _parabolic(p, q, s):
    """I + s v w^T for v = (p, q) and w = (-q, p): a translation conjugated
    to fix the line of v.  Small integers and a dyadic s keep every entry
    exact, so trace 2 and determinant 1 hold in floats too; a translation
    conjugated in floats can round to a trace below 2, and near |trace| = 2
    a rounding of one ulp moves the rotation number by about 1e-8."""
    return (1.0 - s * p * q, s * p * p, -s * q * q, 1.0 + s * p * q)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["translation", "dilation", "hyperbolic band", "elliptic band"]),
    v=st.tuples(st.integers(-8, 8), st.integers(-8, 8)).filter(any),
    size=st.integers(-64, 64).map(lambda k: k / 16.0).filter(bool),
    g=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    sign=st.sampled_from([1.0, -1.0]),
    n=st.integers(1, 10**9) | st.sampled_from([10**9 - 1, 10**9]),
)
def test_estimates_near_and_past_the_band(kind, v, size, g, sign, n):
    a, b, c = g
    assume(2.0 * a - b * c > 0.1)
    rho = 0.0
    if kind == "translation":
        row = _parabolic(*v, size)
    else:
        if kind == "dilation":
            core = MoebiusReal.dilation(size)
        elif kind == "hyperbolic band":
            core = MoebiusReal(2.0 + 1e-9, -1.0, 1.0, 0.0)
        else:
            phi = math.acos(1.0 - 0.5e-9)  # trace 2 - 1e-9
            core, rho = MoebiusReal.rotation(phi), phi / math.pi
        row = core.conjugate_by(MoebiusReal(a, b, c, 2.0)).entries()
    row = tuple(sign * x for x in row)  # -I acts on RP^1 as I does
    (total,) = _kernels.moebius_lift_totals([row], n)
    assert circ_dist(total / n % 1.0, rho) <= 2.0 / n
    est = rotation_number(MoebiusOnRP1(MoebiusReal(*row)), n)
    assert est.iterations == n and est.error_bound == 2.0 / n
    assert circ_dist(est.value, rho) <= est.error_bound


def test_fixed_point_turns_match_loop_near_the_diagonal(comparison_loop):
    # a fixed point within rounding of 0, or of 1/2, beside a tiny f(0) of either sign:
    # comparing the fixed point with f(0) counted a turn per step on 104 of the
    # 2,100 probes with |a| <= 2, the first one 19.382 against the loop's 0.382
    (total,) = _kernels.moebius_lift_totals([(2.0, -1e-17, 1e-17, 0.5)], 20)
    assert abs(total - comparison_loop(MoebiusReal(2.0, -1e-17, 1e-17, 0.5).rp1, 20, _kernels.ORBIT_START)) < 1e-8
    assert circ_dist(rotation_number(MoebiusOnRP1(MoebiusReal(2.0, -1e-17, 1e-17, 0.5)), 20).value, 0.0) <= 0.1
    # past |a| = 2 the loop's own orbit rounds onto the attracting fixed point at 0 by n = 20
    sizes = [s * v for v in (0.3, 0.5, 1.0, 1.25, 1.6, 2.0, 2.5, 5.0) for s in (1.0, -1.0)]
    offs_b = (0.0, 1e-17, -1e-17, 0.3, -0.3)
    offs_c = (0.0, 1e-17, -1e-17, -3e-17, -1e-16, -1e-300, -5e-324)
    probes = 0
    for a in sizes:
        for b in offs_b:
            for c in offs_c:
                m = MoebiusReal(a, b, c, 1.0 / a)
                for n in (1, 2, 3, 7, 20) if abs(a) <= 2.0 else (1, 2, 3, 7):
                    (total,) = _kernels.moebius_lift_totals([m.entries()], n)
                    assert abs(total - comparison_loop(m.rp1, n, _kernels.ORBIT_START)) < 1e-8, (m, n)
                    probes += 1
    assert probes == 2100 + 560


@pytest.mark.parametrize("a, d", [(-0.5, 3.0), (3.0, -0.5), (-0.25, 6.0), (6.0, -0.25)])
@pytest.mark.parametrize("c", [1e-17, -1e-17, 3e-17, -3e-17, 1e-300, -1e-300, 0.01, -0.01, 0.1, -0.1])
def test_fixed_point_turns_with_opposite_signed_diagonal(a, d, c, comparison_loop):
    # a and d of opposite signs.  MoebiusReal makes a > 0, so a row with a < 0 comes out
    # with negative trace: atan2(c, a) is taken for -M and lies near +-pi for small c.
    # For tiny c the sign bit of c decides the turn, but both fixed points and f(0) lie
    # within rounding of 0, and past one step the loop's orbit is decided by rounding
    # too.  One step cannot tell k from k - 1, so larger c checks the turns over n steps.
    m = MoebiusReal(a, (a * d - 1.0) / c, c, d)
    for n in (1, 2, 3, 7, 20) if abs(c) >= 0.01 else (1,):
        (total,) = _kernels.moebius_lift_totals([m.entries()], n)
        assert abs(total - comparison_loop(m.rp1, n, _kernels.ORBIT_START)) < 1e-8, n


@pytest.mark.parametrize("row", [(-0.5, -2.5e17, 1e-17, 3.0), (-0.25, -1e17, 2.5e-17, 6.0), (-0.5, -2.5e300, 1e-300, 3.0)])
def test_fixed_point_turns_of_a_raw_row_with_positive_trace_and_a_below_0(row, comparison_loop):
    # a row not normalised by MoebiusReal: atan2(c, a) itself lies near pi, and rounds to it
    (total,) = _kernels.moebius_lift_totals([row], 1)
    assert abs(total - comparison_loop(lambda t: float(_kernels.rp1(*row, t)), 1, _kernels.ORBIT_START)) < 1e-8


# ---------------------------------------------------------------------------
# piecewise-linear orbits


@pytest.mark.parametrize("n", [40, 1000])
def test_pl_orbit_creeping_up_to_a_fixed_point_at_0_keeps_its_turn(n):
    # the orbit of x0 rises to 1 and rounds to 1.0, which folds to 0.0: a turn test
    # against f(0) = 0 once counted none there, giving -0.618 for F^n(x0) - x0 = 0.382
    f = PiecewiseLinear([0.0, 0.5], [0.0, 0.9])
    total = _kernels.pl_lift_total(f._xe, f._ye, n)
    assert total == pytest.approx(1.0 - _kernels.ORBIT_START, abs=1e-12)
    assert rotation_number(f, n).value == pytest.approx(total / n, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    st.integers(1, 3000),
)
def test_pl_orbit_between_fixed_points_moves_less_than_a_turn(dx, dy, n):
    # f(0) = 0, so the orbit of x0 stays between two fixed points and moves one way:
    # the total lies in [0, 1) or (-1, 0] by the sign of the first step
    k = min(len(dx), len(dy))
    xs, ys = np.cumsum(dx[:k]) / sum(dx[:k]), np.cumsum(dy[:k]) / sum(dy[:k])
    f = PiecewiseLinear([0.0, *xs[:-1]], [0.0, *ys[:-1]])
    total = _kernels.pl_lift_total(f._xe, f._ye, n)
    assert abs(total) < 1.0
    first = _kernels.pl_lift_total(f._xe, f._ye, 1)
    assert total * first >= 0.0

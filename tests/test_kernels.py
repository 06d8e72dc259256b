"""The elliptic closed form of the canonical-lift total against the kept orbit loop.

``_kernels.lift_total`` steps an orbit and is the oracle here.  Elliptic
matrices do not reach it through ``rotation_number`` or
``rotation_numbers``, so these tests call it directly, one orbit at a
time on floats and as one batch on numpy arrays.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotforce import _kernels
from rotforce.circledyn import MoebiusOnRP1, circ_dist, rotation_number, rotation_numbers
from rotforce.moebius import (
    CLASS_TOL,
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


def _batch_loop(rows, n):
    a, b, c, d = np.asarray(rows, dtype=float).T
    return _kernels.lift_total(lambda t: _kernels.rp1(a, b, c, d, t), n, np.full(len(a), _kernels.ORBIT_START))


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
def test_closed_form_matches_loop(n):
    single = [_kernels.lift_total(m.rp1, n, _kernels.ORBIT_START) for m in MATS]
    batch = _batch_loop([m.entries() for m in MATS], n)
    _assert_totals_agree(single, batch, n)
    _assert_totals_agree(_kernels.moebius_lift_totals([m.entries() for m in MATS], n), batch, n)
    elliptic = [m for m in MATS if m.classify() is IsometryClass.ELLIPTIC]
    closed = _kernels.elliptic_lift_totals(*np.array([m.entries() for m in elliptic]).T, n)
    _assert_totals_agree(closed, _batch_loop([m.entries() for m in elliptic], n), n)
    ests = [rotation_number(MoebiusOnRP1(m), n) for m in MATS]
    assert max(circ_dist(e.value, w / n % 1.0) for e, w in zip(ests, single)) < 1e-9
    assert max(circ_dist(e.value, w / n % 1.0) for e, w in zip(rotation_numbers(MATS, n), batch)) < 1e-9


@pytest.mark.parametrize("n", NS)
def test_mixed_batch_keeps_row_positions(n):
    rng = np.random.default_rng(229 + n)
    elliptic = [m.entries() for m in _random(233, 12)]
    others = [
        MoebiusReal.translation(1.3).conjugate_by(MoebiusReal(1.0, 0.4, -0.7, 0.72)).entries(),
        MoebiusReal.dilation(0.8).conjugate_by(MoebiusReal(2.0, 1.0, 0.5, 0.75)).entries(),
        MoebiusReal.dilation(2.0 * math.acosh(1.0 + 0.5e-9)).entries(),
        (1.0, 0.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0, -1.0),
        (-1.0, -0.5, 0.0, -1.0),  # parabolic with trace -2
    ]
    flipped = [tuple(-v for v in row) for row in elliptic[:4]]
    rows = elliptic + others + flipped
    rows = [rows[i] for i in rng.permutation(len(rows))]
    totals = _kernels.moebius_lift_totals(rows, n)
    _assert_totals_agree(totals, _batch_loop(rows, n), n)
    for row, total in zip(rows, totals):
        assert abs(total - _kernels.lift_total(MoebiusReal(*row).rp1, n, _kernels.ORBIT_START)) < 1e-8


def test_rotation_numbers_are_the_moebius_formula():
    elliptic = [m for m in MATS if m.classify() is IsometryClass.ELLIPTIC]
    a, _, c, d = np.array([m.entries() for m in elliptic]).T
    got = _kernels.elliptic_rotation_numbers(a, c, d)
    want = [elliptic_rotation_number(m) for m in elliptic]
    assert max(circ_dist(g, w) for g, w in zip(got, want)) <= 1e-15
    # either sign of the matrix, as rows from outside MoebiusReal may carry
    assert max(circ_dist(g, w) for g, w in zip(_kernels.elliptic_rotation_numbers(-a, -c, -d), want)) <= 1e-15


def test_only_elliptic_matrices_skip_the_loop(monkeypatch):
    looped = []

    def spy(step, n, start):
        looped.append(start)
        return loop(step, n, start)

    loop = _kernels.lift_total
    monkeypatch.setattr(_kernels, "lift_total", spy)
    band = _band(227)
    elliptic = [abs(m.trace) < 2.0 - CLASS_TOL for m in band]
    assert elliptic == [m.classify() is IsometryClass.ELLIPTIC for m in band]
    rotation_numbers(band, 7)
    assert [len(start) for start in looped] == [elliptic.count(False)]
    for m, inside in zip(band, elliptic):
        looped.clear()
        rotation_number(MoebiusOnRP1(m), 7)
        # a matrix given alone iterates on Python floats, not on a 1-row batch
        assert [type(start) for start in looped] == ([] if inside else [float])
    looped.clear()
    rotation_numbers(_random(239, 5), 7)
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

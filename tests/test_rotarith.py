"""Tests for angle arithmetic: the deformed sum, its domain, exact
division, and the torus equation solver."""

import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotforce import circledyn, rotarith, rotset
from rotforce.rotarith import (
    AmbiguousSelection,
    Angle,
    Const,
    EquationSystem,
    NoSolution,
    NonDiscrete,
    PlusL,
    UndefinedSum,
    Var,
    circ_dist,
    divide,
    domain_interval,
    in_arc,
    plus_l,
    plus_l_oracle,
    plus_l_signed_array,
    solve_system,
    wrap_diff,
)


def test_angle_normalization_and_exactness():
    a = Angle(exact=Fraction(5, 4))
    assert a.exact == Fraction(1, 4) and a.value == 0.25
    assert str(a) == "1/4"
    b = Angle(1.25)
    assert abs(b.value - 0.25) < 1e-15 and b.exact is None
    assert Angle(exact=Fraction(2, 7)).mirrored().exact == Fraction(5, 7)
    with pytest.raises(ValueError):
        Angle()


def test_tiny_negative_angles_fold_to_zero():
    # -1e-17 % 1.0 rounds up to 1.0, which is 0 written a second way
    assert -1e-17 % 1.0 == 1.0
    assert Angle(-1e-17).value == 0.0
    assert Angle(1e-17).mirrored().value == 0.0
    assert domain_interval(1.0, -1e-17).theta == 0.0


def test_wrap_diff_and_circ_dist():
    assert wrap_diff(0.1, 0.9) == pytest.approx(0.2)
    assert wrap_diff(0.9, 0.1) == pytest.approx(-0.2)
    assert circ_dist(0.95, 0.05) == pytest.approx(0.1)


def test_plus_zero_is_plain_addition():
    rng = np.random.default_rng(211)
    for _ in range(500):
        t1, t2 = rng.uniform(0.0, 1.0, 2)
        got = plus_l(float(t1), float(t2), 0.0)
        want = (t1 + t2) % 1.0
        # the undeformed sum agrees with rotation composition up to mirror
        assert min(circ_dist(got.value, want), circ_dist(got.value, 1.0 - want)) < 1e-12


def test_plus_zero_exact_inputs_stay_exact():
    got = plus_l(Fraction(1, 4), Fraction(1, 8), 0.0)
    assert got.exact == Fraction(3, 8)
    # folding: 0.7 + 0.6 = 1.3 and the unsigned sum reports 2 - 1.3 = 0.7
    folded = plus_l(Fraction(7, 10), Fraction(3, 5), 0.0)
    assert folded.exact == Fraction(7, 10)
    assert plus_l(0.25, Fraction(1, 8), 0.0).exact is None  # float inputs: no exact claim


def test_plus_l_frozen_oracle_value():
    v = plus_l(0.25, 0.25, 1.0)
    assert abs(v.value - 0.5875330293712444) < 1e-12
    o = plus_l_oracle(0.25, 0.25, 1.0)
    assert abs(o.value - 0.5875330293712444) < 1e-12


def test_plus_l_symmetry():
    rng = np.random.default_rng(223)
    for _ in range(300):
        t1, t2 = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        l = float(rng.uniform(0.0, 3.0))
        try:
            a = plus_l(t1, t2, l)
            b = plus_l(t2, t1, l)
        except UndefinedSum:
            continue
        assert abs(a.value - b.value) < 1e-12


def test_plus_l_matches_matrix_oracle():
    rng = np.random.default_rng(227)
    checked = 0
    while checked < 500:
        t1, t2 = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        l = float(rng.uniform(0.0, 3.0))
        try:
            v = plus_l(t1, t2, l)
            o = plus_l_oracle(t1, t2, l)
        except UndefinedSum:
            continue
        assert abs(min(v.value, 1.0 - v.value) - min(o.value, 1.0 - o.value)) < 1e-9
        checked += 1


def test_plus_l_undefined_outside_domain():
    # far ends at distance l meet no rotation: argument magnitude > 1
    with pytest.raises(UndefinedSum):
        plus_l(0.25, 0.35, 9.0)


@pytest.mark.parametrize("fn", [plus_l, plus_l_oracle])
@pytest.mark.parametrize(
    "args, name",
    [
        ((math.nan, 0.1, 0.0), "t1"),
        ((0.1, math.inf, 0.5), "t2"),
        ((0.1, 0.2, math.nan), "l"),
        ((0.1, 0.2, -math.inf), "l"),
    ],
)
def test_plus_l_rejects_non_finite_arguments(fn, args, name):
    # NaN once came back as the angle 0.0
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        fn(*args)


@pytest.mark.parametrize("l, theta, name", [(math.nan, 0.25, "l"), (math.inf, 0.25, "l"), (1.0, math.inf, "theta")])
def test_domain_interval_rejects_non_finite_arguments(l, theta, name):
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number, got {theta if name == 'theta' else l}"):
        domain_interval(l, theta)


def test_plus_l_oracle_identity_composition():
    # theta and its mirror compose to the identity at l = 0
    v = plus_l_oracle(0.3, 0.7, 0.0)
    assert v.value == 0.0


def test_signed_array_matches_scalar_oracle():
    rng = np.random.default_rng(229)
    t1 = rng.uniform(0.0, 1.0, 200)
    t2 = rng.uniform(0.0, 1.0, 200)
    for l in (0.0, 0.7, 2.2):
        arr = plus_l_signed_array(t1, t2, l)
        for i in range(200):
            try:
                o = plus_l_oracle(float(t1[i]), float(t2[i]), l)
            except UndefinedSum:
                assert math.isnan(arr[i])
                continue
            assert circ_dist(float(arr[i]), o.value) < 1e-9


def test_domain_interval_degenerate_when_undeformed():
    di = domain_interval(0.0, 0.3)
    assert di.lo == di.hi
    assert abs(di.lo - 0.7) < 1e-12  # the single excluded direction is -theta
    assert di.length() == 1.0
    with pytest.raises(ValueError):
        domain_interval(0.0, 0.0)


def _abs_arg(l: float, theta: float, tp: float) -> float:
    """|arccos-formula argument| of theta +_l tp, straight from the formula."""
    a, b = math.pi * theta, math.pi * tp
    return abs(math.cos(a) * math.cos(b) - math.cosh(l) * math.sin(a) * math.sin(b))


def _bisect_crossing(l: float, theta: float, a: float, b: float) -> float:
    """The one point of [a, b] where |argument| - 1 changes sign, by bisection."""
    above = _abs_arg(l, theta, a) > 1.0
    while b - a > 1e-13:
        mid = 0.5 * (a + b)
        if (_abs_arg(l, theta, mid) > 1.0) == above:
            a = mid
        else:
            b = mid
    return (0.5 * (a + b)) % 1.0


def test_domain_interval_endpoints_and_membership():
    for l, theta in ((1.0, 0.25), (0.5, 0.6), (2.5, 0.45)):
        di = domain_interval(l, theta)
        # endpoints sit on the |argument| = 1 locus
        assert abs(_abs_arg(l, theta, di.lo) - 1.0) < 1e-9
        assert abs(_abs_arg(l, theta, di.hi) - 1.0) < 1e-9
        # membership in the open arc matches definedness of the sum
        for tp in np.linspace(0.0, 1.0, 400, endpoint=False):
            inside = di.contains(float(tp), tol=1e-9)
            arg_ok = _abs_arg(l, theta, float(tp)) < 1.0 - 1e-9
            assert inside == arg_ok


def test_domain_interval_closed_form_matches_bisection():
    # -theta lies in the excluded arc and 0 in the domain, so going ccw the
    # domain starts once on [-theta, 0] and ends once on [0, -theta]
    rng = np.random.default_rng(239)
    for _ in range(200):
        l, theta = float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.01, 0.99))
        di = domain_interval(l, theta)
        assert circ_dist(di.lo, _bisect_crossing(l, theta, 1.0 - theta, 1.0)) < 1e-9
        assert circ_dist(di.hi, _bisect_crossing(l, theta, 0.0, 1.0 - theta)) < 1e-9


def test_domain_complement_avoids_zero():
    rng = np.random.default_rng(233)
    for _ in range(100):
        l = float(rng.uniform(0.0, 3.0))
        theta = float(rng.uniform(0.01, 0.99))
        di = domain_interval(l, theta)
        assert di.contains(0.0, tol=0.0) or di.lo == di.hi


# The former DomainInterval.contains, kept as an oracle: an offset test on
# the open arc, with a 1e-15 floor when the complement is one point.


def _former_domain_contains(di, tp, tol=0.0):
    tp = tp % 1.0
    if di.lo == di.hi:
        return circ_dist(tp, di.lo) > max(tol, 1e-15)
    span = (di.hi - di.lo) % 1.0
    off = (tp - di.lo) % 1.0
    return tol < off < span - tol


def test_domain_contains_matches_former_offset_test():
    rng = np.random.default_rng(2311)
    for trial in range(2000):
        l = 0.0 if trial % 5 == 0 else float(rng.uniform(0.0, 3.0))  # l = 0: the complement is a point
        theta = float(rng.uniform(0.001, 0.999))
        di = domain_interval(l, theta)
        assert (di.lo == di.hi) == (l == 0.0)
        probes = [float(t) for t in rng.uniform(0.0, 1.0, 4)]
        probes += [e + s for e in (di.lo, di.hi) for s in (-1e-16, 0.0, 1e-16)]
        for tp in probes:
            for tol in (0.0, 1e-12, 1e-9):
                assert di.contains(tp, tol) == _former_domain_contains(di, tp, tol), (l, theta, tp, tol)


def test_one_arc_test_serves_every_caller():
    assert rotarith.in_arc is circledyn.in_arc and rotset.in_arc is circledyn.in_arc
    assert not hasattr(rotarith, "_in_arc")


def _inside(lo, hi):
    """The floats of [0, 1) one ulp inside each end of the arc (lo, hi), a point when lo == hi."""
    return [] if lo == hi else [x for x in (math.nextafter(lo, 2.0), math.nextafter(hi, -1.0)) if x < 1.0]


def _outside(lo, hi):
    """The floats of [0, 1) one ulp outside each end of the arc (lo, hi) that are not its ends."""
    return [x for x in (math.nextafter(lo, -1.0), math.nextafter(hi, 2.0)) if 0.0 <= x < 1.0 and x not in (lo, hi)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(0.0, 1.0, exclude_max=True), hi=st.floats(0.0, 1.0, exclude_max=True))
def test_in_arc_is_exact_one_ulp_from_its_ends(lo, hi):
    # comparing (x - lo) mod 1 with (hi - lo) mod 1 let the two roundings tie:
    # in_arc(nextafter(0.3, -1.0), (0.3, 0.6)) was True
    assert in_arc(lo, (lo, hi)) and in_arc(hi, (lo, hi))
    assert all(in_arc(x, (lo, hi)) for x in _inside(lo, hi))
    assert not any(in_arc(x, (lo, hi)) for x in _outside(lo, hi))
    # tol still widens the arc across 0 on either side
    assert in_arc(lo - 1e-9 if lo >= 1e-9 else lo - 1e-9 + 1.0, (lo, hi), tol=2e-9)
    assert in_arc(hi + 1e-9 if hi + 1e-9 < 1.0 else hi + 1e-9 - 1.0, (lo, hi), tol=2e-9)
    assert not in_arc(math.nextafter(0.3, -1.0), (0.3, 0.6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(l=st.floats(0.01, 5.0), theta=st.floats(0.001, 0.999))
def test_domain_contains_is_exact_one_ulp_from_its_ends(l, theta):
    # domain_interval(2.0, 0.3).contains(nextafter(hi, -1.0)) was False
    di = domain_interval(l, theta)
    assert not di.contains(di.lo) and not di.contains(di.hi)
    assert all(di.contains(x) for x in _inside(di.lo, di.hi))
    assert not any(di.contains(x) for x in _outside(di.lo, di.hi))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(u=st.floats(-12.0, -3.0), l=st.floats(0.0, 20.0), f=st.floats(0.01, 0.99))
def test_plus_l_near_one_matches_fifty_digit_reference(u, l, f, mp50):
    # sin of the rounded product pi t1 kept few digits of pi (1 - t1): at
    # (0.99999999992, 0.468, 19.9) the sum was off by 6.5e-9
    t1 = 1.0 - 10.0**u
    di = domain_interval(l, t1)
    t2 = (di.lo + f * di.length()) % 1.0
    assert circ_dist(plus_l(t1, t2, l).value, mp50.plus_l(t1, t2, l)) <= 1e-14
    assert circ_dist(plus_l(0.99999999992, 0.468, 19.9).value, mp50.plus_l(0.99999999992, 0.468, 19.9)) <= 1e-15


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    t1=st.floats(0.05, 0.95),
    u=st.floats(-9.0, -2.0),
    sign=st.sampled_from([-1.0, 1.0]),
    f=st.floats(0.0, 1.0),
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
)
def test_plus_l_near_zero_and_one_matches_fifty_digit_reference(t1, u, sign, f, x, y, mp50):
    # acos of an argument near +-1 kept few digits of a result near 0 or
    # 1: plus_l(0.8660117112511226, 0.1328896241094284, 0.004902531889606598)
    # = 0.99910... was off by 1.07e-14.  Its family: t1 + t2 within delta
    # of 1, with l so small that t2 stays delta / 2 inside the domain, and
    # two angles below delta at any l; the sum is within about 2 delta of 1
    # or 0, and was up to 6e-9 off
    delta = 10.0**u
    t2, l = (sign * delta - t1) % 1.0, 5.0 * f * delta
    assume(math.sinh(l) * math.sin(math.pi * t1) <= math.tan(math.pi * delta / 2))
    assert circ_dist(plus_l(t1, t2, l).value, mp50.plus_l(t1, t2, l)) <= 1e-15
    small, l = (x * delta, y * delta), 1.5 * f
    assert circ_dist(plus_l(*small, l).value, mp50.plus_l(*small, l)) <= 1e-15
    probe = (0.8660117112511226, 0.1328896241094284, 0.004902531889606598)
    assert circ_dist(plus_l(*probe).value, mp50.plus_l(*probe)) <= 1e-15


def test_divide_exact():
    r = divide(Fraction(1, 7), 3, (0.0, 0.2))
    assert r.exact == Fraction(1, 21)
    r2 = divide(Angle(exact=Fraction(2, 5)), 2, (0.6, 0.8))
    assert r2.exact == Fraction(7, 10)


def test_divide_float_input():
    r = divide(0.5, 2, (0.2, 0.3))
    assert abs(r.value - 0.25) < 1e-12


def test_divide_ambiguous_and_empty():
    with pytest.raises(AmbiguousSelection):
        divide(Fraction(1, 7), 3, (0.0, 0.9))  # selector holds all three candidates
    with pytest.raises(AmbiguousSelection):
        divide(Fraction(1, 7), 3, (0.96, 0.99))  # selector holds none


def test_divide_wrapping_selector():
    r = divide(Fraction(1, 4), 2, (0.9, 0.2))  # wrap-around arc holding 1/8
    assert r.exact == Fraction(1, 8)


def test_solver_doubling_equation():
    # t +_0 t = 2/5 has the two preimages of the doubling map
    system = EquationSystem(
        variables=["t"],
        equations=[(PlusL(0.0, Var("t"), Var("t")), Const(Angle(exact=Fraction(2, 5))))],
    )
    sols = solve_system(system)
    vals = sorted(r.value.value for r in sols.roots)
    assert len(vals) == 2
    assert abs(vals[0] - 0.2) < 1e-9
    assert abs(vals[1] - 0.7) < 1e-9
    for r in sols.roots:
        assert r.residual < 1e-9
        assert r.isolation_radius > 0


def test_solver_respects_constraints():
    def solve(arc):
        system = EquationSystem(
            variables=["t"],
            equations=[(PlusL(0.0, Var("t"), Var("t")), Const(Angle(exact=Fraction(2, 5))))],
            constraints={"t": arc},
        )
        return sorted(solve_system(system).values())

    assert solve((0.0, 0.5)) == pytest.approx([0.2], abs=1e-9)
    # lifted endpoints are read mod 1, and a lifted span of 1 or more is the
    # whole circle: both doubling preimages of 2/5 lie on each of these
    for arc in ((-0.4, 0.25), (0.6, 1.25), (-0.5, 0.5), (0.3, 1.3)):
        assert solve(arc) == pytest.approx([0.2, 0.7], abs=1e-9)


def test_solver_grid_is_bounded():
    # every system that solves for a variable scans one axis of `grid` nodes
    doubling = EquationSystem(variables=["t"], equations=[(PlusL(0.0, Var("t"), Var("t")), Const(Angle(0.4)))])
    with pytest.raises(ValueError, match=f"grid must be at most {2**20}, got {2**20 + 1}"):
        solve_system(doubling, grid=2**20 + 1)
    assert solve_system(doubling, grid=2**20).values() == pytest.approx([0.2, 0.7], abs=1e-12)


def test_solver_rejects_constraint_on_undeclared_variable():
    system = EquationSystem(
        variables=["t"],
        equations=[(PlusL(0.0, Var("t"), Var("t")), Const(Angle(0.4)))],
        constraints={"s": (0.0, 0.25)},
    )
    with pytest.raises(ValueError, match="'s'"):
        solve_system(system)


def _doubling_roots(l: float, c: float) -> list[float]:
    """Every t with t +_l t = c (signed): the formula argument of t +_l t is
    ((1 - C) + (1 + C) cos 2 pi t) / 2 with C = cosh l, and it must equal
    +-cos(pi c); the matrix oracle picks the sign."""
    big_c = math.cosh(l)
    roots = []
    for k in (math.cos(math.pi * c), -math.cos(math.pi * c)):
        w = (2.0 * k - 1.0 + big_c) / (1.0 + big_c)
        if abs(w) <= 1.0:
            beta = math.acos(w) / (2.0 * math.pi)
            roots += [t for t in (beta, 1.0 - beta) if circ_dist(plus_l_oracle(t, t, l).value, c) < 1e-9]
    return sorted(roots)


def test_solver_doubling_matches_closed_form():
    rng = np.random.default_rng(241)
    for i in range(16):
        l, c = float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.05, 0.45)) + 0.5 * (i % 2)
        system = EquationSystem(variables=["t"], equations=[(PlusL(l, Var("t"), Var("t")), Const(Angle(c)))])
        want = _doubling_roots(l, c)
        assert want
        assert sorted(solve_system(system).values()) == pytest.approx(want, abs=1e-9)


def test_solver_roots_on_grid_nodes():
    # 1/4 and 3/4 are nodes of the default 4096 grid; t +_0 0 = 1/2 has an
    # exact zero residual at the node 1/2
    half = Const(Angle(exact=Fraction(1, 2)))
    doubling = EquationSystem(variables=["x"], equations=[(PlusL(0.0, Var("x"), Var("x")), half)])
    assert sorted(solve_system(doubling).values()) == pytest.approx([0.25, 0.75], abs=1e-10)
    shift = EquationSystem(variables=["x"], equations=[(PlusL(0.0, Var("x"), Const(Angle(0.0))), half)])
    assert solve_system(shift).values() == pytest.approx([0.5], abs=1e-10)


def test_solver_deformed_equation():
    # x +_1 x = plus_l(1/4, 1/4, 1): recover x = 1/4 among the roots
    target = plus_l(0.25, 0.25, 1.0)
    system = EquationSystem(
        variables=["x"],
        equations=[(PlusL(1.0, Var("x"), Var("x")), Const(target))],
        constraints={"x": (0.1, 0.4)},
    )
    sols = solve_system(system)
    assert any(abs(r.value.value - 0.25) < 1e-8 for r in sols.roots)


def test_solver_two_variables():
    system = EquationSystem(
        variables=["x", "y"],
        equations=[
            (PlusL(0.0, Var("x"), Var("y")), Const(Angle(0.5))),
            (PlusL(0.4, Var("x"), Var("y")), Const(plus_l(0.2, 0.3, 0.4))),
        ],
    )
    sols = solve_system(system, grid=512)
    pts = sorted((round(r.assignment["x"], 6), round(r.assignment["y"], 6)) for r in sols.roots)
    assert (0.2, 0.3) in pts and (0.3, 0.2) in pts


@pytest.mark.parametrize("c", [1e-9, 1.0 - 1e-9])
def test_solver_doubling_onto_a_sum_near_zero_or_one(c):
    # sqrt(1 - cos^2) rounded the signed sum near 0 and 1: no root survived
    system = EquationSystem(variables=["t"], equations=[(PlusL(0.0, Var("t"), Var("t")), Const(Angle(c)))])
    assert sorted(solve_system(system).values()) == pytest.approx([c / 2, c / 2 + 0.5], abs=1e-12, rel=0)


def test_solver_pair_with_a_sum_near_zero():
    # x +_0 y = 1e-12 was solved with y 2.0e-10 off, at a residual of 1e-12
    system = EquationSystem(
        variables=["x", "y"],
        equations=[
            (PlusL(0.0, Var("x"), Var("y")), Const(Angle(1e-12))),
            (PlusL(0.0, Var("x"), Var("x")), Const(Angle(0.4))),
        ],
    )
    ys = sorted(r.assignment["y"] for r in solve_system(system).roots)
    assert ys == pytest.approx([0.300000000001, 0.800000000001], abs=1e-12, rel=0)


def _mp_pair_root(l, a, b, x0, y0):
    """The root of x +_l y = a, x +_0 x = b at 50 digits nearest the float root (x0, y0).

    Each equation asks its arccos argument to be cos(pi c) where the
    lower-left entry is positive and -cos(pi c) where it is negative; the
    signs are read at (x0, y0) and Newton runs from there."""

    def arg_low(t1, t2, l):
        c1, s1, c2, s2 = mpmath.cospi(t1), mpmath.sinpi(t1), mpmath.cospi(t2), mpmath.sinpi(t2)
        return c1 * c2 - mpmath.cosh(l) * s1 * s2, s1 * c2 + c1 * mpmath.exp(-l) * s2

    with mpmath.workdps(50):
        l, a, b = mpmath.mpf(l), mpmath.mpf(a), mpmath.mpf(b)
        sa = 1 if arg_low(x0, y0, l)[1] > 0 else -1
        sb = 1 if arg_low(x0, x0, 0)[1] > 0 else -1
        x, y = mpmath.findroot(
            [lambda x, y: arg_low(x, y, l)[0] - sa * mpmath.cospi(a), lambda x, y: arg_low(x, x, 0)[0] - sb * mpmath.cospi(b)],
            (mpmath.mpf(x0), mpmath.mpf(y0)),
        )
        return float(x), float(y)


def test_solver_polish_lands_on_the_root():
    # the seed-5 solve2d system of the benchmark: the polish stopped at a
    # residual below refine_tol / 4, 1.7e-11 from both roots
    l, a, b = 0.6087852691950995, 0.4197020992009764, 0.4694712085060413
    system = EquationSystem(
        variables=["x", "y"],
        equations=[
            (PlusL(l, Var("x"), Var("y")), Const(Angle(a))),
            (PlusL(0.0, Var("x"), Var("x")), Const(Angle(b))),
        ],
    )
    roots = solve_system(system).roots
    assert len(roots) == 2
    for r in roots:
        x, y = r.assignment["x"], r.assignment["y"]
        want = _mp_pair_root(l, a, b, x, y)
        assert circ_dist(x, want[0]) <= 1e-14 and circ_dist(y, want[1]) <= 1e-14
        assert r.residual <= 1e-14


def test_solver_isolation_radius_stops_at_its_floor():
    # the two sides stay within 1e-2 of each other on the whole ring at
    # 10 refine_tol, so the radius halves to that floor and stays there
    system = EquationSystem(
        variables=["t"],
        equations=[(PlusL(1.0, Var("t"), Const(Angle(0.3))), PlusL(1.5, Var("t"), Const(Angle(0.31))))],
    )
    (root,) = solve_system(system, refine_tol=1e-3).roots
    assert abs(root.value.value - 0.98816) < 1e-3
    assert root.isolation_radius == 10 * 1e-3
    assert root.residual <= 1e-3


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    k=st.floats(0.0, 1.0, exclude_max=True),
    c=st.floats(0.001, 0.999),
    l=st.floats(0.0, 5.0),
    unknown_left=st.booleans(),
)
def test_sum_inverse_keeps_the_candidate_with_sum_c(k, c, l, unknown_left):
    # of the two points with formula argument +-cos(pi c), one has signed
    # sum c, the other -c.  c stays 1e-3 from 0 and 1: for l > 0 its v then
    # nears the edge of the domain, where the sum moves like the square
    # root of v's distance from it, and rounding v alone moves the sum by
    # 1.2e-9 at (k, c, l) = (0.25, 0, 0.5)
    v = float(rotarith._sum_inverse(np.asarray(k), np.asarray(c), l, unknown_left))
    s = plus_l_signed_array(v, k, l) if unknown_left else plus_l_signed_array(k, v, l)
    assert abs(float(wrap_diff(s, c))) <= 1e-9


@pytest.mark.parametrize(
    "k, c, l, unknown_left",
    [(0.46, 0.0, 0.5, True), (0.458, 0.0, 2.0, False), (0.524, 1e-12, 1.0, True), (0.348, 1.0 - 2.0**-53, 1.0, False)],
)
def test_sum_inverse_keeps_the_end_that_rounds_into_the_domain(k, c, l, unknown_left):
    # on these sums the first candidate rounds just off the domain, where
    # the signed sum is NaN, and the second lands on a sum of 0
    v = float(rotarith._sum_inverse(np.asarray(k), np.asarray(c), l, unknown_left))
    s = plus_l_signed_array(v, k, l) if unknown_left else plus_l_signed_array(k, v, l)
    assert circ_dist(float(s), c) <= 1e-11


def test_solver_underdetermined_rejected():
    system = EquationSystem(
        variables=["x", "y"],
        equations=[(PlusL(0.0, Var("x"), Var("y")), Const(Angle(0.5)))],
    )
    with pytest.raises(NonDiscrete):
        solve_system(system)
    # both sides are the same deformed sum: the residual vanishes on its
    # domain arc and is undefined off it
    sum_ = PlusL(1.0, Var("t"), Var("t"))
    with pytest.raises(NonDiscrete):
        solve_system(EquationSystem(variables=["t"], equations=[(sum_, sum_)]))


def test_solver_curve_of_zeros_rejected():
    # each zero set is a curve or more.  Scanned on every axis it meets the
    # grid as hundreds of bracketed cells and no run of grid nodes lies on
    # it, so a polished root shows the rank.  Where y (and z) are solved for
    # along the scanned x, the leftover residual vanishes along the whole
    # axis, a run of grid nodes
    half, two_fifths = Const(Angle(exact=Fraction(1, 2))), Const(Angle(exact=Fraction(2, 5)))
    sum_xy = (PlusL(0.0, Var("x"), Var("y")), half)
    doubling = (PlusL(0.0, Var("x"), Var("x")), two_fifths)
    xy = PlusL(0.0, Var("x"), Var("y"))
    sum_doubled = (PlusL(0.0, xy, xy), two_fifths)  # x and y twice: nothing is solved for
    rank, run = "rank < ", "grid run"
    cases = [
        (["x", "y"], [sum_xy, sum_xy], run),
        (["x", "y"], [doubling, doubling], "'y' appear in no equation"),
        (["x", "y"], [sum_xy, (PlusL(0.0, Var("y"), Var("x")), half)], run),
        (["x", "y", "z"], [sum_xy, sum_xy, (PlusL(0.3, Var("z"), Var("x")), half)], run),
        (["x", "y"], [sum_doubled, sum_doubled], rank),
    ]
    for variables, equations, reason in cases:
        with pytest.raises(NonDiscrete, match=reason):
            solve_system(EquationSystem(variables=variables, equations=equations), grid=256)


def test_solver_no_solution():
    system = EquationSystem(
        variables=["t"],
        equations=[(PlusL(0.0, Var("t"), Var("t")), Const(Angle(exact=Fraction(2, 5))))],
        constraints={"t": (0.3, 0.45)},
    )
    with pytest.raises(NoSolution):
        solve_system(system)


# the system `rotforce solve` answers in the benchmark, x +_l y = a, x +_0 x = b
_BENCHMARK_2D = EquationSystem(
    variables=["x", "y"],
    equations=[
        (PlusL(0.7, Var("x"), Var("y")), Const(Angle(0.3))),
        (PlusL(0.0, Var("x"), Var("x")), Const(Angle(0.55))),
    ],
)


def test_two_variable_scan_allocation_peak():
    # It scans x alone on 4096 nodes and solves for y; scanned on a 1024^2
    # grid in blocks of 2^16 nodes it peaked near 4 MiB, and the former
    # full-grid scan near 41 MiB.
    tracemalloc.start()
    try:
        sols = solve_system(_BENCHMARK_2D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sols.roots) == 2
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


def _chain_system(d: int, doubled: bool = False) -> EquationSystem:
    """d equations t_i +_l t_(i+1) = c_i around a cycle of d variables, solved by _CHAIN_POINT.

    ``doubled`` takes s +_0 s = 2 c_i for each sum s instead: every
    variable then occurs twice in each equation, so none is solved for and
    the scan covers every axis."""
    names = list(_CHAIN_POINT)[:d]
    equations = []
    for i, l in enumerate((0.7, 0.4, 0.0, 1.1)[:d]):
        a, b = names[i], names[(i + 1) % d]
        s, c = PlusL(l, Var(a), Var(b)), plus_l_oracle(_CHAIN_POINT[a], _CHAIN_POINT[b], l).value
        equations.append((PlusL(0.0, s, s), Const(Angle(2 * c))) if doubled else (s, Const(Angle(c))))
    return EquationSystem(variables=names, equations=equations)


_CHAIN_POINT = {"x": 0.1, "y": 0.23, "z": 0.37, "w": 0.61}


@pytest.mark.parametrize("d", [3, 4])
def test_three_and_four_variable_scan_allocation_peak(d):
    # 128^3 and 40^4 grid nodes; the former full-grid scan peaked near 102
    # and 166 MiB.  A 40^4 row is 64,000 nodes, one row per block.  Starts
    # are collected, not polished: the bound is on the scan.
    system = _chain_system(d, doubled=True)
    assert rotarith._plan(system, 4096).scanned == tuple(system.variables)
    tracemalloc.start()
    try:
        starts = _scan_starts(rotarith._scan, system, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    point = [_CHAIN_POINT[v] for v in system.variables]
    assert any(np.abs(wrap_diff(s, point)).max() < 1.0 / 40 for s in starts)
    assert peak < 4 * d * 2**20, f"{peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# the streamed scan against the former full-grid scan


def _former_scan(system, grid, refine_tol):
    """The scan before it was streamed in row blocks: the whole grid at once."""
    d = len(system.variables)
    if len(system.equations) < d:
        raise NonDiscrete(f"{len(system.equations)} equations cannot isolate {d} torus variables")
    per_dim = grid if d == 1 else min(grid, {2: 1024, 3: 128, 4: 40}[d])
    axes = tuple(range(d))
    mesh = np.meshgrid(*[np.arange(per_dim) / per_dim] * d, indexing="ij", sparse=True)
    res = rotarith._residual_vec(system, dict(zip(system.variables, mesh)))
    res = np.broadcast_to(res, (len(res),) + (per_dim,) * d)

    # a genuine plateau of zeros means the solution set is not discrete
    flat = (np.abs(res) < 1e-9).all(axis=0)
    for axis in axes:
        run = flat & np.roll(flat, -1, axis) & np.roll(flat, -2, axis) & np.roll(flat, -3, axis)
        if run.any():
            raise NonDiscrete("residual vanishes along a grid run; solution set has interior")

    # a cell is kept when every residual is <= 0 at one corner, >= 0 at one
    # corner and small at one corner (so the +-1/2 wrap is no sign change)
    keep = np.ones(res.shape[1:], dtype=bool)
    for comp in res:
        flags = (comp <= 0, comp >= 0, np.abs(comp) < 0.25)
        seen = [f.copy() for f in flags]
        for corner in range(1, 1 << d):
            shift = tuple(-(corner >> i & 1) for i in axes)
            for acc, f in zip(seen, flags):
                acc |= np.roll(f, shift, axes)
        keep &= seen[0] & seen[1] & seen[2]
    starts = (np.argwhere(keep) + 0.5) / per_dim
    return (p for p in (rotarith._polish(system, s, refine_tol) for s in starts) if p is not None)


def _scan_starts(scan, system, grid, block=None):
    """The start points a scan hands to the polish, in order, or the message
    of the NonDiscrete it raises."""
    starts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotarith, "_polish", lambda system, start, tol: starts.append(start))
        if block is not None:
            mp.setattr(rotarith, "_SCAN_BLOCK_NODES", block)
        try:
            list(scan(system, grid, 1e-10))
        except NonDiscrete as exc:
            return str(exc)
    return np.array(starts).reshape(-1, len(system.variables))


def _solve_outcome(system, grid, scan=None):
    with pytest.MonkeyPatch.context() as mp:
        if scan is not None:
            mp.setattr(rotarith, "_scan", scan)
        try:
            return solve_system(system, grid=grid)
        except (NonDiscrete, NoSolution) as exc:
            return type(exc), str(exc)


def _assert_same_starts(a, b):
    assert type(a) is type(b), (a, b)
    if isinstance(a, str):
        assert a == b
    else:
        assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), (a, b)


def _random_system(seed: int, d: int) -> EquationSystem:
    """d or d + 1 equations in d variables: nested deformed sums with l in
    [0, 1.5] (l = 0 on some) against constants.  Most right-hand sides are
    the left one's value at one random point, so the system has a root
    there; some are constants k/8, and some repeat the left side."""
    rng = np.random.default_rng(seed)
    names = ["x", "y", "z", "w"][:d]
    used = names if rng.random() < 0.75 else list(rng.choice(names, int(rng.integers(1, d + 1)), replace=False))

    def expr(depth):
        if depth == 0 or rng.random() < 0.4:
            return Var(str(rng.choice(used))) if rng.random() < 0.8 else Const(Angle(float(rng.random())))
        return PlusL(float(rng.uniform(0.0, 1.5)) if rng.random() < 0.7 else 0.0, expr(depth - 1), expr(depth - 1))

    point = {v: np.asarray(rng.random()) for v in names}
    equations = []
    for _ in range(d + int(rng.integers(0, 2))):
        lhs = expr(2)
        kind, value = rng.integers(0, 4), float(rotarith._eval_expr(lhs, point))
        if kind < 2 and math.isfinite(value):
            equations.append((lhs, Const(Angle(value))))
        else:
            equations.append((lhs, lhs if kind == 3 else Const(Angle(int(rng.integers(0, 8)) / 8))))
    return EquationSystem(variables=names, equations=equations)


def _is_identity(lhs, rhs) -> bool:
    """Whether the equation holds at every point where it is defined."""
    return lhs == rhs or not (rotarith._variables_in(lhs) | rotarith._variables_in(rhs))


def _assert_same_solve(system):
    """The solve against one with the former full-grid scan swapped in, both
    at the default grid (40^4, 128^3 or 1024^2 nodes for the former scan).

    Both raise the same exception type, or every former root is a root
    within 1e-9.  A root only the scan with elimination finds must have a
    residual within refine_tol, where the former scan raised NoSolution
    too.  The one other outcome allowed: the former scan finds no root and
    the new one a run of zeros, where fewer equations than variables are
    not identities, so that the zero set, if not empty, is not discrete.
    """
    new, old = _solve_outcome(system, 4096), _solve_outcome(system, 4096, _former_scan)
    if isinstance(new, tuple) or isinstance(old, tuple):
        if isinstance(new, tuple) and isinstance(old, tuple) and new[0] is old[0]:
            return
        assert isinstance(old, tuple) and old[0] is NoSolution, (new, old)
        if isinstance(new, tuple):
            assert new[0] is NonDiscrete and "grid run" in new[1], (new, old)
            assert sum(not _is_identity(*eq) for eq in system.equations) < len(system.variables)
            return
        old = rotarith.SolutionSet(roots=())
    found = [np.array(list(r.assignment.values())) for r in new.roots]
    for r in old.roots:
        assert any(np.abs(wrap_diff(list(r.assignment.values()), f)).max() <= 1e-9 for f in found), (r, new)
    assert all(r.residual <= 1e-10 for r in new.roots)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3, 5, 7, 9, 12, 33, 200]),
    st.sampled_from([1, 5, 64, rotarith._SCAN_BLOCK_NODES]),
)
def test_streamed_scan_matches_full_grid_scan(seed, d, grid, block):
    # grids below 8 repeat the wrap rows; small blocks cross many block
    # boundaries, down to one row per block.  A system that scans every
    # variable has the former scan's starts.  One that solves for some has
    # the same starts in every block size, and the former scan's solve
    # outcome at the default grid
    system = _random_system(seed, d)
    # a system with no variable at all has no grid to scan
    assume(any(rotarith._variables_in(lhs) for lhs, _ in system.equations))
    grid = grid if d == 1 or grid < 200 else {2: 64, 3: 16, 4: 9}[d]
    starts = _scan_starts(rotarith._scan, system, grid, block)
    if len(rotarith._plan(system, grid).scanned) < d:
        _assert_same_starts(starts, _scan_starts(rotarith._scan, system, grid))
        _assert_same_solve(system)
        return
    former = _scan_starts(_former_scan, system, grid)
    _assert_same_starts(starts, former)
    if isinstance(former, str) or len(former) <= 6:
        assert _solve_outcome(system, grid) == _solve_outcome(system, grid, _former_scan)


@pytest.mark.parametrize("block", [1, 3, 1000, None])
def test_streamed_scan_plateaus_along_each_axis(block):
    # zero runs along the streamed first axis (across blocks and the wrap)
    # and along the second axis (inside each block's rows)
    quarter = Const(Angle(0.5))
    for axis_var in ("x", "y"):
        system = EquationSystem(
            variables=["x", "y"],
            equations=[(PlusL(0.0, Var(axis_var), Var(axis_var)), quarter)] * 2,
        )
        got = _scan_starts(rotarith._scan, system, 64, block)
        assert got == _scan_starts(_former_scan, system, 64)
        assert "grid run" in got


def test_streamed_scan_runs_across_the_wrap():
    # t +_l t = t +_l t vanishes on the sum's domain arc around 0 and is
    # undefined off it; on these grids the arc holds 3 to 6 nodes across
    # the wrap, so a run of 4 exists or not only through rows 0, 1, 2
    outcomes = set()
    for l in (1.5, 2.0, 3.0):
        sum_ = PlusL(l, Var("t"), Var("t"))
        system = EquationSystem(variables=["t"], equations=[(sum_, sum_)])
        for grid in range(5, 13):
            former = _scan_starts(_former_scan, system, grid)
            outcomes.add(isinstance(former, str))
            for block in (1, 2, 3, None):
                _assert_same_starts(_scan_starts(rotarith._scan, system, grid, block), former)
    assert outcomes == {True, False}


def test_streamed_scan_matches_full_grid_scan_at_full_resolution():
    # the benchmark's 2-D system with its sum doubled, so that nothing is
    # solved for: 16 blocks of 64 rows of a 1024^2 grid
    sum_ = PlusL(0.7, Var("x"), Var("y"))
    system = EquationSystem(
        variables=["x", "y"],
        equations=[
            (PlusL(0.0, sum_, sum_), Const(Angle(0.6))),
            (PlusL(0.0, Var("x"), Var("x")), Const(Angle(0.55))),
        ],
    )
    assert rotarith._plan(system, 4096).scanned == ("x", "y")
    starts = _scan_starts(rotarith._scan, system, 4096)
    assert len(starts) > 0
    _assert_same_starts(starts, _scan_starts(_former_scan, system, 4096))


@pytest.mark.parametrize("system", [_BENCHMARK_2D, _chain_system(3), _chain_system(4)], ids=["2d", "chain3", "chain4"])
def test_solve_by_elimination_matches_full_grid_solve(system):
    # one scanned axis; the former scan took 1024^2, 128^3 and 40^4 nodes
    assert rotarith._plan(system, 4096).scanned == ("x",)
    _assert_same_solve(system)
    if system is not _BENCHMARK_2D:
        point = [_CHAIN_POINT[v] for v in system.variables]
        roots = [list(r.assignment.values()) for r in solve_system(system).roots]
        assert any(np.abs(wrap_diff(r, point)).max() <= 1e-9 for r in roots), roots


def test_benchmark_system_scans_one_axis():
    # it scans x and solves for y: no 2-D mesh is built
    axes = []
    meshgrid = np.meshgrid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "meshgrid", lambda *xi, **kw: axes.append(len(xi)) or meshgrid(*xi, **kw))
        sols = solve_system(_BENCHMARK_2D)
    assert axes and set(axes) == {1}
    assert sorted(r.assignment["x"] for r in sols.roots) == pytest.approx([0.275, 0.775], abs=1e-12)


_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300, -1e-17, 1.0, -1.0, 0.5, -0.5]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=20))
def test_floor_fraction_is_float_mod_bit_for_bit(xs):
    x = np.array(xs + _EDGES, dtype=float)
    with np.errstate(invalid="ignore"):
        assert np.array_equal((x - np.floor(x)).view(np.uint64), (x % 1.0).view(np.uint64))


def _former_plus_l_signed_array(t1, t2, l):
    """The signed sum folded by float mod, sines and cosines taken at min(t, 1 - t)."""
    t1, t2 = np.asarray(t1, dtype=float) % 1.0, np.asarray(t2, dtype=float) % 1.0
    a1, a2 = np.pi * np.minimum(t1, 1.0 - t1), np.pi * np.minimum(t2, 1.0 - t2)
    c1, s1 = np.copysign(np.cos(a1), 0.5 - t1), np.sin(a1)
    c2, s2 = np.copysign(np.cos(a2), 0.5 - t2), np.sin(a2)
    arg = c1 * c2 - math.cosh(l) * s1 * s2
    low = s1 * c2 + c1 * math.exp(-l) * s2
    up, p = s1 * c2 + c1 * math.exp(l) * s2, math.sinh(l) * s1 * s2
    sin_mag = np.sqrt(np.clip(low * up - p * p, 0.0, None))
    theta = (np.arctan2(np.where(low > 0, sin_mag, -sin_mag), arg) / np.pi) % 1.0
    return np.where(np.abs(arg) <= 1.0, theta, np.nan)


def test_signed_sum_and_wrap_diff_match_former_float_mod():
    # the 1024^2 grid at l = 0 holds 168 nodes (t2 = 1 - t1) where the
    # lower-left entry cancels to exactly +0.0 with a nonzero sine:
    # np.copysign would give those the other sign, the former np.where
    # gives the negative one
    rng = np.random.default_rng(7)
    nodes = np.arange(1024) / 1024
    edges = np.array(_EDGES[:2] + _EDGES[5:])
    cases = [
        (nodes[:, None], nodes[None, :], (0.0,)),
        (rng.uniform(-3, 3, 10**5), rng.uniform(-3, 3, 10**5), (0.0, 0.7, 1.5)),
        (edges[:, None], edges[None, :], (0.0, 0.7, 1.5)),
    ]
    for t1, t2, ls in cases:
        for l in ls:
            new, old = plus_l_signed_array(t1, t2, l), _former_plus_l_signed_array(t1, t2, l)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64)), l
        a = np.broadcast_to(t1, np.broadcast_shapes(np.shape(t1), np.shape(t2)))
        with np.errstate(invalid="ignore"):
            former = (a - t2 + 0.5) % 1.0 - 0.5
        assert np.array_equal(wrap_diff(t1, t2).view(np.uint64), np.asarray(former).view(np.uint64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(u=st.floats(-12.0, -3.0), l=st.floats(0.0, 20.0), f=st.floats(0.01, 0.99))
def test_signed_sum_near_one_matches_fifty_digit_reference(u, l, f, mp50):
    # sin of the rounded product pi t kept few digits of pi (1 - t): at
    # (0.99999999992, 0.3, 19.9) the signed sum was off by 6.8e-9
    t1 = 1.0 - 10.0**u
    di = domain_interval(l, t1)
    t2 = (di.lo + f * di.length()) % 1.0
    for a, b in ((t1, t2), (t2, t1)):
        assert circ_dist(float(plus_l_signed_array(a, b, l)), mp50.plus_l_signed(a, b, l)) <= 1e-14
    far = (0.99999999992, 0.3, 19.9)
    assert circ_dist(float(plus_l_signed_array(*far)), mp50.plus_l_signed(*far)) <= 1e-15


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    t1=st.floats(0.0, 1.0, exclude_max=True),
    u=st.floats(-12.0, -3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    f=st.floats(0.0, 1.0),
)
def test_signed_sum_near_zero_and_one_matches_fifty_digit_reference(t1, u, sign, f, mp50):
    # |sin| from sqrt(1 - cos^2) lost the digits of a sum near 0 or 1: at
    # (0.6709745063742591, 0.3290254936150703, 0) it was off by 6.7e-9, and
    # at (0.96875, 0.03124999999437661, 0) cos rounded past -1 and the sum
    # read NaN
    delta = 10.0**u
    t2, l = (sign * delta - t1) % 1.0, 5.0 * f * delta
    assume(math.sinh(l) * math.sin(math.pi * t1) <= math.tan(math.pi * delta / 2))
    for l in (0.0, l):
        for a, b in ((t1, t2), (t2, t1)):
            assert circ_dist(float(plus_l_signed_array(a, b, l)), mp50.plus_l_signed(a, b, l)) <= 1e-15
    worst = (0.6709745063742591, 0.3290254936150703, 0.0)
    assert circ_dist(float(plus_l_signed_array(*worst)), mp50.plus_l_signed(*worst)) <= 1e-15


# ---------------------------------------------------------------------------
# domain ends against a 50-digit reference, and the l range


def _reference_complement(l: float, theta: float):
    """(midpoint, half-width) of the closed complement arc, to 50 digits: tan(pi h) = sinh|l| sin(pi theta)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lm, a = mpmath.mpf(l), mpmath.pi * mpmath.mpf(theta)
        mid = -mpmath.atan2(mpmath.cosh(lm) * mpmath.sin(a), mpmath.cos(a)) / mpmath.pi
        return mid, mpmath.atan(mpmath.sinh(abs(lm)) * mpmath.sin(a)) / mpmath.pi


def _circle_gap(x: float, y) -> float:
    """Circle distance from the float x to the high-precision y."""
    d = (x - y) % 1
    return float(min(d, 1 - d))


REFERENCE_L = [1e-12, 1e-8, 1e-6, 0.3, 2.0, 38.0, 40.0, 300.0, 709.0]
REFERENCE_THETA = [0.2, 0.5, 0.8, 0.05, 0.37, 0.999999]


@pytest.mark.parametrize("l", REFERENCE_L)
@pytest.mark.parametrize("theta", REFERENCE_THETA)
def test_domain_ends_match_fifty_digit_reference(l, theta):
    # the acos form cancelled to lo == hi == 0 ("defined everywhere but 0")
    # from l ~ 38 on, and collapsed the complement to a point at l = 1e-8
    mid, half = _reference_complement(l, theta)
    di = domain_interval(l, theta)
    assert _circle_gap(di.lo, mid + half) <= 1e-15 and _circle_gap(di.hi, mid - half) <= 1e-15
    assert (di.lo == di.hi) == (half < 1e-16)  # the point encoding only below rounding
    assert abs(di.length() - float(1 - 2 * half)) <= 2e-15


@pytest.mark.parametrize("l", REFERENCE_L)
@pytest.mark.parametrize("theta", REFERENCE_THETA)
def test_rule_r7_keeps_the_whole_excluded_arc(l, theta):
    # R7 keeps {0} and the closed complement; on `gens g; exclude g: ...` it
    # once gave {0} alone at l = 40 and the three points {0, 0.2, 0.8} at l = 1e-8
    from rotforce.forcing import parse_presentation, propagate

    mid, half = _reference_complement(l, theta)
    if half <= 1e-15:
        return  # shrunk by 1e-15 at each end, the arc is empty
    kept = propagate(parse_presentation(f"gens g; exclude g: l={l!r} theta={theta!r}; mark g")).marked["g"]
    for k in range(-4, 5):
        assert kept.contains(float((mid + k * (half - 1e-15) / 4) % 1))


def test_domain_at_large_l_is_a_narrow_arc_around_zero():
    di = domain_interval(38.0, 0.2)
    assert di.length() < 1e-15 and di.lo != di.hi
    with pytest.raises(UndefinedSum):
        plus_l(0.2, 0.5, 38.0)
    # the domain keeps 0 (where the argument is cos(pi theta)) inside its closure at every l
    for l in (38.0, 300.0, 709.0):
        for theta in (1e-9, 0.5, 1 - 2.0**-30):
            di = domain_interval(l, theta)
            assert (di.lo == 0.0 or di.lo > 0.5) and di.hi < 0.5 and di.lo != di.hi


def test_domain_keeps_the_point_encoding_when_undeformed():
    # l = 0, or a complement narrower than rounding, is the point lo == hi at -theta
    for l, theta in ((0.0, 0.3), (0.0, 0.9), (1e-300, 0.2), (2.0, 0.0)):
        di = domain_interval(l, theta)
        assert di.lo == di.hi and di.length() == 1.0
        assert circ_dist(di.lo, -theta) <= 1e-15


L_PAST_RANGE = [800.0, -710.0, 1e308]


@pytest.mark.parametrize("l", L_PAST_RANGE)
@pytest.mark.parametrize("call", [
    lambda l: plus_l(0.2, 0.3, l),
    lambda l: plus_l_oracle(0.2, 0.3, l),
    lambda l: domain_interval(l, 0.2),
    lambda l: PlusL(l=l, left=Var("t"), right=Var("t")),
], ids=["plus_l", "plus_l_oracle", "domain_interval", "PlusL"])
def test_l_past_float_range_is_refused_naming_l(call, l):
    # these once ended in OverflowError("math range error")
    with pytest.raises(ValueError, match=r"^\|l\| must be at most 709\.78 \(e\^l overflows past it\), got "):
        call(l)


def test_l_just_inside_float_range_is_accepted():
    l_max = math.log(sys.float_info.max)
    assert domain_interval(l_max, 0.2).length() < 1e-300
    assert domain_interval(-l_max, 0.2) == dataclasses.replace(domain_interval(l_max, 0.2), l=-l_max)
    assert plus_l(0.0, 0.3, l_max).value == pytest.approx(0.3)
    lhs = PlusL(l=l_max, left=Var("t"), right=Const(Angle(0.0)))
    system = EquationSystem(variables=["t"], equations=[(lhs, Const(Angle(0.25)))])
    assert solve_system(system).values() == pytest.approx([0.25])

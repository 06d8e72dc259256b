"""Tests for angle arithmetic: the deformed sum, its domain, exact
division, and the torus equation solver."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

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
    assert Angle.from_fraction(2, 7).mirrored().exact == Fraction(5, 7)
    with pytest.raises(ValueError):
        Angle()


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
    # each zero set is a curve or more, which meets the grid as hundreds of
    # bracketed cells; no run of grid nodes lies on it
    half, two_fifths = Const(Angle(exact=Fraction(1, 2))), Const(Angle(exact=Fraction(2, 5)))
    sum_xy = (PlusL(0.0, Var("x"), Var("y")), half)
    doubling = (PlusL(0.0, Var("x"), Var("x")), two_fifths)
    rank = "rank < "
    cases = [
        (["x", "y"], [sum_xy, sum_xy], rank),
        (["x", "y"], [doubling, doubling], "'y' appear in no equation"),
        (["x", "y"], [sum_xy, (PlusL(0.0, Var("y"), Var("x")), half)], rank),
        (["x", "y", "z"], [sum_xy, sum_xy, (PlusL(0.3, Var("z"), Var("x")), half)], rank),
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


def test_two_variable_scan_allocation_peak():
    # The benchmark-shaped 2-D system: its residual arrays cover 1024^2 grid
    # cells and set the peak memory of `rotforce solve`.  The scan peaks near
    # 41 MiB; computing the signed sum from the composed matrix entries with
    # `_kernels.elliptic_rotation_numbers` holds more full-grid temporaries at
    # once and peaks near 60 MiB.
    system = EquationSystem(
        variables=["x", "y"],
        equations=[
            (PlusL(0.7, Var("x"), Var("y")), Const(Angle(0.3))),
            (PlusL(0.0, Var("x"), Var("x")), Const(Angle(0.55))),
        ],
    )
    tracemalloc.start()
    try:
        sols = solve_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sols.roots) == 2
    assert peak < 46 * 2**20, f"{peak / 2**20:.1f} MiB"

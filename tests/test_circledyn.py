"""Tests for circle maps, rotation-number estimates, the Euler cocycle,
and the finite-stage orbit blow-up."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotforce import _kernels
from rotforce.circledyn import (
    CircleMap,
    DenjoyLayout,
    MoebiusOnRP1,
    NotMonotone,
    OrbitEntry,
    PiecewiseLinear,
    StabilizerNotTrivial,
    Word,
    certify_monotone,
    circ_dist,
    default_gap_weights,
    denjoy_blowup,
    denjoy_layout,
    euler_cocycle,
    power,
    rotation_number,
    rotation_numbers,
)
from rotforce.moebius import HPoint, MoebiusReal, elliptic_rotation_number, rotation_about, triangle_group_rep
from rotforce.rotarith import Angle, domain_interval, plus_l, plus_l_signed_array
from rotforce.rotset import RotSet

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_rigid_rotation_estimate():
    f = MoebiusOnRP1(MoebiusReal.rotation(math.pi * 0.375))
    est = rotation_number(f, 40_000)
    assert abs(est.value - 0.375) <= est.error_bound
    assert est.error_bound == 2.0 / 40_000


def test_parabolic_estimate_is_zero():
    f = MoebiusOnRP1(MoebiusReal.translation(1.0))
    est = rotation_number(f, 50_000)
    assert min(est.value, 1.0 - est.value) <= est.error_bound


def test_hyperbolic_estimate_is_zero():
    f = MoebiusOnRP1(MoebiusReal.dilation(1.3))
    est = rotation_number(f, 20_000)
    assert min(est.value, 1.0 - est.value) <= est.error_bound


def test_estimate_matches_closed_form_elliptic():
    rng = np.random.default_rng(101)
    n = 50_000
    for _ in range(20):
        p = HPoint(float(rng.normal()), float(np.exp(rng.normal() * 0.5)))
        theta = float(rng.uniform(0.05, 0.95))
        m = rotation_about(p, theta)
        est = rotation_number(MoebiusOnRP1(m), n)
        assert circ_dist(est.value, elliptic_rotation_number(m)) < est.error_bound


def test_batched_estimates_match_single():
    rng = np.random.default_rng(103)
    mats = [rotation_about(HPoint(0.1, 1.0 + k * 0.1), 0.2 + 0.05 * k) for k in range(5)]
    batch = rotation_numbers(mats, 10_000)
    for m, est in zip(mats, batch):
        single = rotation_number(MoebiusOnRP1(m), 10_000)
        assert abs(est.value - single.value) < 1e-12


def _rational_rotations(seed, max_q):
    """(p/q, elliptic matrix) for every reduced p/q with q <= max_q, at seeded centres."""
    rng = np.random.default_rng(seed)
    out = []
    for q in range(1, max_q + 1):
        for p in range(q):
            if math.gcd(p, q) == 1:
                centre = HPoint(float(rng.uniform(-2.0, 2.0)), float(np.exp(rng.uniform(-1.0, 1.0))))
                out.append((p / q, rotation_about(centre, p / q)))
    return out


def test_rational_rotations_within_bound():
    # an orbit that closes up where the canonical lift jumps must not drop a turn
    n = 500
    rots = _rational_rotations(113, 50)
    batch = rotation_numbers([m for _, m in rots], n)
    for (theta, m), est in zip(rots, batch):
        single = rotation_number(MoebiusOnRP1(m), n)
        assert circ_dist(est.value, theta) <= est.error_bound
        assert circ_dist(single.value, theta) <= single.error_bound


def test_rational_rotation_five_eighths():
    (est,) = rotation_numbers([rotation_about(HPoint(0.0, 1.0), 5.0 / 8.0)], 2000)
    assert circ_dist(est.value, 0.625) <= est.error_bound


def test_rational_piecewise_linear_rotation():
    est = rotation_number(PiecewiseLinear([0.0, 0.37], [4.0 / 17.0, 4.0 / 17.0 + 0.37]), 2000)
    assert circ_dist(est.value, 4.0 / 17.0) <= est.error_bound


def test_single_batch_and_word_loop_agree(comparison_loop):
    n = 2000
    h = PiecewiseLinear([0.0, 0.3, 0.55], [0.05, 0.2, 0.7])
    rots = _rational_rotations(127, 12)
    batch = rotation_numbers([m for _, m in rots], n)
    for (theta, m), est in zip(rots, batch):
        single = rotation_number(MoebiusOnRP1(m), n)
        # a piecewise-linear letter sends these through the word loop
        plain = rotation_number(Word([PiecewiseLinear.rotation(0.0), MoebiusOnRP1(m)]), n)
        # h and its inverse cancel, so this takes the closed form; the comparison
        # loop still steps through the whole word
        conj = rotation_number(Word([h, MoebiusOnRP1(m), h.inverse()]), n)
        looped = comparison_loop(Word([h, MoebiusOnRP1(m), h.inverse()]), n, _kernels.ORBIT_START) / n
        assert circ_dist(single.value, est.value) < 1e-9
        assert circ_dist(plain.value, est.value) < 1e-9
        assert circ_dist(conj.value, theta) <= conj.error_bound
        assert circ_dist(conj.value, looped % 1.0) <= 4.0 / n


def test_piecewise_linear_rotation():
    # a PL circle map conjugate to the rigid third rotation
    xs = [0.0, 1.0 / 3.0, 2.0 / 3.0]
    ys = [1.0 / 3.0, 2.0 / 3.0, 1.0]
    f = PiecewiseLinear(xs, ys)
    est = rotation_number(f, 30_000)
    assert circ_dist(est.value, 1.0 / 3.0) <= est.error_bound


def test_piecewise_linear_tiny_negative_point_folds_to_0():
    # -1e-20 % 1.0 rounds up to 1.0, one past the table of a map whose first
    # breakpoint is 0; the scalar and the array evaluation both read it as 0
    f = PiecewiseLinear([0.0, 0.5], [0.0, 0.9])
    ts = [-1e-20, -0.0, 0.0, 1.0, -0.25]
    assert [f(t) for t in ts] == f.eval_array(ts).tolist()
    assert f(-1e-20) == 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(-3, 3).filter(bool))
def test_piecewise_linear_tabulates_its_stored_lift_once(seed, turns):
    # ys lifted by whole turns are shifted back on construction; evaluation and
    # orbits read one table, the one built from the stored ys
    g = _random_pl(seed)
    f = PiecewiseLinear(g.xs, g.ys + turns)
    assert (f._xe, f._ye) == _kernels.pl_table(f.xs, f.ys)


def test_piecewise_linear_rejects_folds_at_construction():
    with pytest.raises(NotMonotone):
        PiecewiseLinear([0.0, 0.25, 0.5, 0.75], [0.1, 0.6, 0.3, 0.9])
    with pytest.raises(NotMonotone):
        PiecewiseLinear([0.0, 0.5, 0.25], [0.1, 0.3, 0.6])


def test_piecewise_linear_rejects_non_finite_breakpoints():
    prefix = "^piecewise-linear map: breakpoint "
    with pytest.raises(ValueError, match=prefix + "images ys must be finite, got nan at index 1$"):
        PiecewiseLinear([0.1, 0.3, 0.5], [0.2, math.nan, 0.6])
    with pytest.raises(ValueError, match=prefix + "positions xs must be finite, got inf at index 2$"):
        PiecewiseLinear([0.1, 0.3, math.inf], [0.2, 0.4, 0.6])


class _Shift(CircleMap):
    """A homeomorphism that no constructor certified."""

    def __call__(self, t):
        return (t + 0.1) % 1.0


class _ShiftedMoebius(MoebiusOnRP1):
    """A subclass of a certified kind may redefine the map, so it is not certified either."""

    def __call__(self, t):
        return (super().__call__(t) + 0.1) % 1.0


def test_certified_kinds_pass_the_kind_check():
    pl = PiecewiseLinear([0.0, 0.3, 0.55], [0.05, 0.2, 0.7])
    m = MoebiusOnRP1(MoebiusReal.dilation(0.7))
    denjoy = denjoy_blowup([rotation_about(HPoint(0.0, 1.0), GOLDEN)], 0.1)[0]
    for f in (pl, m, denjoy, Word([]), Word([pl, m, pl.inverse()]), Word([m, Word([denjoy, m])])):
        assert certify_monotone(f) is None
    assert Word([m, Word([denjoy, m])]).letters == (m, denjoy, m)


_OTHER_KINDS = [_Shift(), _ShiftedMoebius(MoebiusReal.rotation(0.3)), object(), 0.25, lambda t: t]


@pytest.mark.parametrize("other", _OTHER_KINDS, ids=["CircleMap subclass", "kind subclass", "object", "float", "function"])
def test_maps_of_other_kinds_are_refused(other):
    pl = PiecewiseLinear([0.0, 0.3, 0.55], [0.05, 0.2, 0.7])
    m = MoebiusOnRP1(MoebiusReal.rotation(0.3))
    calls = [
        lambda: certify_monotone(other),
        lambda: rotation_number(other, 100),
        lambda: euler_cocycle(other, pl),
        lambda: euler_cocycle(m, other),
        lambda: Word([other]),
        lambda: Word([pl, Word([m]), other]),
        lambda: power(other, -2),
        lambda: power(other, 0),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=type(other).__name__):
            call()


def _spy_loops(monkeypatch):
    """Record the name of each orbit loop entered, in order."""
    calls = []
    for name in ("_word_lift_total", "pl_lift_total"):

        def spy(*args, name=name, original=getattr(_kernels, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(_kernels, name, spy)
    return calls


def test_conjugating_letters_cancel_before_any_loop(monkeypatch):
    n = 2000
    h = PiecewiseLinear([0.0, 0.3, 0.55], [0.05, 0.2, 0.7])
    g = PiecewiseLinear([0.1, 0.45, 0.8], [0.3, 0.5, 1.2])
    r = MoebiusOnRP1(rotation_about(HPoint(0.4, 1.3), 0.3))
    a = MoebiusOnRP1(MoebiusReal(1.5, 0.25, -0.4, 0.6))
    pl = PiecewiseLinear([0.0, 0.37], [0.21, 0.66])
    want, want_pl = rotation_number(r, n), rotation_number(pl, n)
    calls = _spy_loops(monkeypatch)
    assert rotation_number(Word([h, r, h.inverse()]), n) == want
    # either letter may be the one built by inverse()
    assert rotation_number(Word([h.inverse(), r, h]), n) == want
    assert rotation_number(Word([g, h, r, h.inverse(), g.inverse()]), n) == want
    assert rotation_number(Word([h, h.inverse()]), n).value == 0.0
    assert rotation_number(Word([g, h, h.inverse(), g.inverse()]), n).value == 0.0
    assert calls == []
    # a matrix inverse pair around a piecewise-linear letter leaves that letter's loop
    assert rotation_number(Word([a, pl, a.inverse()]), n) == want_pl
    assert rotation_number(Word([a, r, pl, r.inverse(), a.inverse()]), n) == want_pl
    assert calls == ["pl_lift_total"] * 2


def test_inexact_inverse_does_not_cancel(monkeypatch, comparison_loop):
    n = 500
    h = PiecewiseLinear([0.0, 0.3, 0.55], [0.05, 0.2, 0.7])
    r = MoebiusOnRP1(rotation_about(HPoint(0.4, 1.3), 0.3))
    inv = h.inverse()
    xs = inv.xs.copy()
    xs[1] = np.nextafter(xs[1], 1.0)
    near = PiecewiseLinear(xs, inv.ys)
    w = Word([h, r, near])
    looped = comparison_loop(w, n, _kernels.ORBIT_START) / n
    calls = _spy_loops(monkeypatch)
    assert circ_dist(rotation_number(w, n).value, looped % 1.0) <= 1e-12
    assert calls == ["_word_lift_total"]


def test_letter_without_an_inverse_table_does_not_cancel(monkeypatch, comparison_loop):
    # the stored ys shift up by one and round to [1.0, 1.0], so inverse() raises
    n = 500
    h = PiecewiseLinear([0.0, 0.5], [-1e-20, 0.0])
    with pytest.raises(NotMonotone):
        h.inverse()
    r = MoebiusOnRP1(rotation_about(HPoint(0.4, 1.3), 0.3))
    w = Word([h, r, h])
    looped = comparison_loop(w, n, _kernels.ORBIT_START) / n
    calls = _spy_loops(monkeypatch)
    assert circ_dist(rotation_number(w, n).value, looped % 1.0) <= 1e-12
    assert calls == ["_word_lift_total"]


def test_word_orbit_creeping_onto_a_fixed_point_at_0_keeps_its_turn(mp50):
    # the second letter is the identity; the orbit of x0 rises to the attracting fixed point
    # at 0, rounds to 1.0 and folds to 0.0: a turn test against f(0) = 0 counted none there,
    # estimating 0.96910
    w = Word([MoebiusOnRP1(MoebiusReal(5.0, 0.0, 0.0, 0.2)), PiecewiseLinear([0.0, 0.5], [0.0, 0.5])])
    est = rotation_number(w, 20)
    assert est.value == pytest.approx(0.0190983005625, abs=1e-12)
    assert est.value == pytest.approx(mp50.word_lift_total(w, 20) / 20, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(0.2, 5.0),
    sign=st.sampled_from([1.0, -1.0]),
    c=st.sampled_from([0.0, 1e-17, -1e-17]),
    x1=st.floats(0.05, 0.95),
    dy=st.floats(-0.01, 0.01),
    matrix_first=st.booleans(),
    n=st.integers(1, 100),
)
def test_word_estimate_matches_fifty_digit_lift_sum(a, sign, c, x1, dy, matrix_first, n, mp50):
    # a matrix fixing (or within rounding of fixing) 0 and 1/2, and a near-identity
    # piecewise-linear letter fixing 0: orbits creep onto a fixed point near 0
    m = MoebiusOnRP1(MoebiusReal(sign * a, 0.0, c, sign / a))
    h = PiecewiseLinear([0.0, x1], [0.0, x1 + dy])
    w = Word([m, h] if matrix_first else [h, m])
    assert circ_dist(rotation_number(w, n).value, mp50.word_lift_total(w, n) / n % 1.0) <= 1e-12


def test_word_composition_and_inverse():
    f = MoebiusOnRP1(MoebiusReal.rotation(0.3))
    g = MoebiusOnRP1(MoebiusReal.dilation(0.7))
    w = Word([f, g])
    for t in (0.0, 0.21, 0.77):
        assert abs(w(t) - f(g(t))) < 1e-14
    wi = w.inverse()
    for t in (0.1, 0.5, 0.9):
        assert circ_dist(wi(w(t)), t) < 1e-12


def test_word_as_moebius_products():
    a = MoebiusReal.rotation(0.4)
    b = MoebiusReal.dilation(1.1)
    w = Word([MoebiusOnRP1(a), MoebiusOnRP1(b)])
    prod = w.as_moebius()
    want = a @ b
    assert max(abs(x - y) for x, y in zip(prod.entries(), want.entries())) < 1e-12
    assert Word([]).as_moebius().is_identity()


def test_power_negative_and_zero():
    f = MoebiusOnRP1(MoebiusReal.rotation(math.pi * 0.125))
    assert abs(power(f, 0)(0.3) - 0.3) < 1e-15
    assert circ_dist(power(f, 3)(0.1), f(f(f(0.1)))) < 1e-13
    assert circ_dist(power(f, -2)(power(f, 2)(0.1)), 0.1) < 1e-12


def test_euler_cocycle_values_and_identity():
    rng = np.random.default_rng(107)
    maps = []
    for _ in range(12):
        p = HPoint(float(rng.normal()), float(np.exp(rng.normal() * 0.4)))
        maps.append(MoebiusOnRP1(rotation_about(p, float(rng.uniform(0.02, 0.98)))))
    for _ in range(300):
        f, g, h = (maps[i] for i in rng.integers(0, len(maps), 3))
        cf = euler_cocycle(f, g)
        assert cf in (0, 1)
        # cocycle identity: c(f,g) + c(fg,h) = c(g,h) + c(f,gh)
        lhs = cf + euler_cocycle(Word([f, g]), h)
        rhs = euler_cocycle(g, h) + euler_cocycle(f, Word([g, h]))
        assert lhs == rhs


def test_euler_cocycle_rigid_rotations():
    f = MoebiusOnRP1(MoebiusReal.rotation(math.pi * 0.6))
    g = MoebiusOnRP1(MoebiusReal.rotation(math.pi * 0.7))
    # 0.6 + 0.7 wraps once past the origin
    assert euler_cocycle(f, g) == 1
    h = MoebiusOnRP1(MoebiusReal.rotation(math.pi * 0.1))
    assert euler_cocycle(h, h) == 0


# The former lift-based cocycle, kept as an oracle: each kind's canonical
# lift F at y = g(0), minus f(y), checked to be 0 or 1.


def _former_lift(f, x):
    k = math.floor(x)
    if isinstance(f, PiecewiseLinear):
        return k + _kernels.pl_eval(f._xe, f._ye, x - k)
    t0, tp = f(0.0), f(x - k)
    return k + tp + (1.0 if tp < t0 else 0.0)


def _former_euler_cocycle(f, g):
    y = g(0.0)
    c = _former_lift(f, y) - f(y)
    ci = int(round(c))
    if ci not in (0, 1) or abs(c - ci) > 1e-9:
        raise ArithmeticError(f"cocycle value {c!r} escaped {{0, 1}}")
    return ci


def _random_rotation(seed):
    rng = np.random.default_rng(seed)
    centre = HPoint(float(rng.uniform(-3.0, 3.0)), float(np.exp(rng.normal())))
    return MoebiusOnRP1(rotation_about(centre, float(rng.uniform(0.01, 0.99))))


def _random_pl(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    xs = np.sort(rng.choice(1 << 20, n, replace=False)) / (1 << 20)
    steps = rng.uniform(0.05, 1.0, n)
    ys = float(rng.uniform(-2.0, 2.0)) + np.cumsum(steps) / (steps.sum() + float(rng.uniform(0.01, 1.0)))
    return PiecewiseLinear(xs, ys)


_FIXED_MAPS = (
    denjoy_blowup([rotation_about(HPoint(0.0, 1.0), GOLDEN)], 0.1, depth=30)
    + denjoy_blowup([rotation_about(HPoint(0.3, 1.2), 1.0 / math.sqrt(2.0)), MoebiusReal.dilation(0.8)], 0.05, depth=3)
    # matrices whose action rounds the image of 0 up to 1.0
    + [MoebiusOnRP1(MoebiusReal(1.0, 0.0, -1e-17, 1.0)), MoebiusOnRP1(MoebiusReal(2.0, 0.0, -1e-17, 0.5))]
)
_seeds = st.integers(0, 2**32 - 1)
_maps = st.one_of(_seeds.map(_random_rotation), _seeds.map(_random_pl), st.sampled_from(_FIXED_MAPS))
_words = st.lists(_maps, min_size=1, max_size=3).map(lambda ms: ms[0] if len(ms) == 1 else Word(ms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_words, _words)
def test_euler_cocycle_matches_former_lift_oracle(f, g):
    # away from a tie f(g(0)) = f(0) on the circle, where rounding decides
    assume(circ_dist(f(g(0.0)), f(0.0)) > 1e-12)
    assert euler_cocycle(f, g) == _former_euler_cocycle(f, g)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    conj=st.lists(_seeds.map(_random_pl), min_size=1, max_size=3),
    core=st.one_of(_seeds.map(_random_rotation), _seeds.map(_random_pl)),
    n=st.integers(1, 500),
)
def test_cancelled_estimate_agrees_with_the_loop(conj, core, n, comparison_loop):
    # h.inverse() inverts h only up to rounding, so the looped word is a map
    # near the conjugate, and both estimates lie within 2/n of its rotation number
    w = Word([*conj, core, *(h.inverse() for h in reversed(conj))])
    est = rotation_number(w, n)
    assert est == rotation_number(core, n)
    assert circ_dist(est.value, comparison_loop(w, n, _kernels.ORBIT_START) / n % 1.0) <= 4.0 / n


def test_euler_cocycle_where_zero_maps_to_one():
    # the image of 0 is a tiny negative angle, which `% 1.0` rounds up to
    # 1.0; the map folds it to 0.0, so g(0) is 0 itself, and the former
    # lift-based cocycle, which raised on the unfolded 1.0, agrees
    f = MoebiusOnRP1(MoebiusReal(1.0, 0.0, -1e-17, 1.0))
    assert f(0.0) == 0.0
    assert euler_cocycle(f, f) == _former_euler_cocycle(f, f) == 0
    for h in [MoebiusOnRP1(MoebiusReal.rotation(math.pi * k / 10)) for k in range(1, 10)] + [
        PiecewiseLinear.rotation(0.3)
    ]:
        assert euler_cocycle(h, f) == _former_euler_cocycle(h, f) == 0


def test_circle_coordinates_fold_one_to_zero():
    # a tiny negative image angle: `% 1.0` gives 1.0, outside [0, 1)
    assert (-1e-17 / math.pi) % 1.0 == 1.0
    for m in (MoebiusReal(1.0, 0.0, -1e-17, 1.0), MoebiusReal(2.0, 0.0, -1e-17, 0.5)):
        assert m.rp1(0.0) == 0.0
        assert MoebiusOnRP1(m)(0.0) == 0.0
        assert MoebiusOnRP1(m).eval_array(np.array([0.0])).tolist() == [0.0]
        assert _kernels.rp1(*m.entries(), 0.0) == 0.0
    folded = _kernels.unit(np.array([-1e-17, -0.0, 0.25, 1.0, -0.75, np.nan]))
    assert folded[:5].tolist() == [0.0, 0.0, 0.25, 0.0, 0.25] and math.isnan(folded[5])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -1e-17, -5e-324, 1.0, 1 - 2**-53, -1.0, 2.0, -3, 4]),
)
def test_circle_coordinates_lie_in_unit_interval(seed, t, edge):
    ts = np.array([t, edge])
    for f in (_random_rotation(seed), _random_pl(seed)):
        vals = [f(t), f(edge), *f.eval_array(ts)]
        assert all(0.0 <= v < 1.0 for v in vals), (f, vals)
    # every circle point a result reports or stores, from a rotation by t or edge
    mats = [rotation_about(HPoint(0.0, 1.0), x) for x in (t, edge)]
    vals = [e.value for e in rotation_numbers(mats, 64)]
    maps = [*map(MoebiusOnRP1, mats), PiecewiseLinear.rotation(t), PiecewiseLinear.rotation(edge)]
    vals += [rotation_number(f, 64).value for f in maps]
    if circ_dist(t, 0.0) > 1e-3:  # elliptic past CLASS_TOL
        vals.append(elliptic_rotation_number(MoebiusReal.rotation(math.pi * t)))
    for x in (t, edge):
        a = Angle(x)
        di = domain_interval(1.0, x)
        vals += [a.value, a.mirrored().value, plus_l(x, edge, 0.0).value, di.lo, di.hi, di.theta]
    # NaN marks an undefined sum: x + (-x) can round past |argument| = 1
    vals += [v for v in plus_l_signed_array([t, edge, t, edge], [edge, -edge, -t, t], 0.0) if not np.isnan(v)]
    s = RotSet.build(points=[t, edge], intervals=[(edge, t)])
    vals += s.points
    assert all(0.0 <= v < 1.0 for v in vals), vals
    assert all(0 <= lo < hi <= 1 for lo, hi in s.intervals), s


def test_no_lift_methods_and_no_grid_knob():
    for kind in (CircleMap, MoebiusOnRP1, PiecewiseLinear, Word):
        assert not hasattr(kind, "lift"), kind
    assert list(inspect.signature(certify_monotone).parameters) == ["f"]


# ---------------------------------------------------------------------------
# blow-ups


def _golden_generator():
    return rotation_about(HPoint(0.0, 1.0), GOLDEN)


def test_default_gap_weights_budget():
    w = default_gap_weights(10_000)
    assert all(x > 0 for x in w)
    assert sum(w) < 0.5


def test_blowup_rotation_number_preserved():
    maps = denjoy_blowup([_golden_generator()], 0.1, depth=200)
    est = rotation_number(maps[0], 10_000)
    assert circ_dist(est.value, GOLDEN) <= est.error_bound + 1e-9


def test_blowup_gaps_disjoint_and_budgeted():
    layout = denjoy_layout([_golden_generator()], 0.1, depth=120)
    assert layout.total_weight < 1.0
    gaps = sorted(e.gap for e in layout.entries)
    for (alo, ahi), (blo, bhi) in zip(gaps, gaps[1:]):
        assert ahi < blo
    assert all(e.weight > 0 for e in layout.entries)


def test_blowup_collapse_round_trip():
    layout = denjoy_layout([_golden_generator()], 0.1, depth=60)
    rng = np.random.default_rng(109)
    for x in rng.uniform(0.0, 1.0, 200):
        y = layout.expand(float(x))
        assert abs(layout.collapse(y) - float(x)) < 1e-12


def test_blowup_semiconjugate_on_matched_points():
    gen = _golden_generator()
    maps = denjoy_blowup([gen], 0.1, depth=80)
    layout = denjoy_layout([gen], 0.1, depth=80)
    f = MoebiusOnRP1(gen)
    by_word = {e.word: e for e in layout.entries}
    for word, entry in by_word.items():
        succ = ((0, 1),) + word
        if len(word) >= 80 or succ not in by_word:
            continue
        lo, hi = entry.gap
        img_lo = maps[0](lo)
        assert circ_dist(img_lo, by_word[succ].gap[0]) < 1e-10


def test_blowup_two_generators_monotone():
    g1 = rotation_about(HPoint(0.3, 1.2), 1.0 / math.sqrt(2.0))
    g2 = MoebiusReal.dilation(0.8)
    maps = denjoy_blowup([g1, g2], 0.05, depth=3)
    for f in maps:
        certify_monotone(f)


def test_blowup_detects_torsion():
    A, B, _ = __import__("rotforce.moebius", fromlist=["triangle_group_rep"]).triangle_group_rep(2, 3, 7)
    with pytest.raises(StabilizerNotTrivial):
        denjoy_blowup([A, B], 0.1, depth=7)


def test_blowup_rejects_bad_depth():
    with pytest.raises(ValueError):
        denjoy_blowup([_golden_generator()], 0.1, depth=0)


# The former word-tuple builder, kept as an oracle: words reduced by a stack,
# orbit points, weights and gaps in dicts keyed by word tuples.


def _ref_reduce_word(word):
    out = []
    for let in word:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def _ref_word_ball(n_gens, depth):
    ball = [()]
    frontier = [()]
    letters = [(i, s) for i in range(n_gens) for s in (1, -1)]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for let in letters:
                if w and w[0] == (let[0], -let[1]):
                    continue
                nxt.append((let,) + w)
        frontier = nxt
        ball.extend(frontier)
    return ball


def _ref_denjoy_build(generators, orbit_seed, depth):
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = [m if isinstance(m, MoebiusOnRP1) else MoebiusOnRP1(m) for m in generators]
    if not gens:
        return DenjoyLayout(entries=(), total_weight=0.0, maps=())
    seed = orbit_seed % 1.0
    ball = _ref_word_ball(len(gens), depth)

    inv_gens = [g.inverse() for g in gens]
    points = {}
    for w in ball:
        if not w:
            points[w] = seed
            continue
        idx, sign = w[0]
        prev = points[w[1:]]
        points[w] = gens[idx](prev) if sign > 0 else inv_gens[idx](prev)
    for w, t in points.items():
        if w and circ_dist(t, seed) <= 1e-9:
            raise StabilizerNotTrivial(f"word of length {len(w)} fixes the seed within 1e-9")
    positions = sorted(points.values())
    for u, v in zip(positions, positions[1:]):
        if v - u <= 1e-12:
            raise StabilizerNotTrivial("distinct ball words collide at the seed orbit")

    weights = default_gap_weights(len(ball))
    total = sum(weights)
    scale = 1.0 - total

    weight_of = {w: weights[k] for k, w in enumerate(ball)}
    order = sorted(ball, key=lambda w: points[w])
    entries = []
    acc = 0.0
    for w in order:
        lo = scale * points[w] + acc
        entries.append(OrbitEntry(word=w, position=points[w], weight=weight_of[w], gap=(lo, lo + weight_of[w])))
        acc += weight_of[w]
    gap_of = {e.word: e for e in entries}

    out_maps = []
    for gi in range(len(gens)):
        constraints = []
        for e in entries:
            target = _ref_reduce_word(((gi, 1),) + e.word)
            if target in gap_of:
                tgap = gap_of[target].gap
                constraints.append((e.gap[0], tgap[0]))
                constraints.append((e.gap[1], tgap[1]))
        constraints.sort()
        xs = [u for u, _ in constraints]
        ys = []
        for _, v in constraints:
            if not ys:
                ys.append(v)
            else:
                ys.append(v + math.ceil(ys[-1] - v + 1e-15))
        if not xs:
            raise ValueError("depth too small: no gap pair stays inside the ball")
        if not ys[-1] < ys[0] + 1.0:
            raise NotMonotone("blow-up constraints wind more than once")
        out_maps.append(PiecewiseLinear(xs, ys))
    return DenjoyLayout(entries=tuple(entries), total_weight=total, maps=tuple(out_maps))


def _two_generators():
    return [rotation_about(HPoint(0.3, 1.2), 1.0 / math.sqrt(2.0)), MoebiusReal.dilation(0.8)]


_DIFFERENTIAL_CASES = [([_golden_generator()], 0.1, d) for d in (1, 2, 5, 60, 200)] + [
    (_two_generators(), 0.05, d) for d in (1, 2, 3, 4)
]


@pytest.mark.parametrize("gens, seed, depth", _DIFFERENTIAL_CASES)
def test_denjoy_build_matches_word_tuple_oracle(gens, seed, depth):
    got = denjoy_layout(gens, seed, depth)
    want = _ref_denjoy_build(gens, seed, depth)
    assert got.entries == want.entries
    assert got.total_weight == want.total_weight
    assert len(got.maps) == len(want.maps) == len(gens)
    for f, g in zip(got.maps, want.maps):
        assert np.array_equal(f.xs, g.xs) and np.array_equal(f.ys, g.ys)
    blown = denjoy_blowup(gens, seed, depth)
    assert all(np.array_equal(f.xs, g.xs) and np.array_equal(f.ys, g.ys) for f, g in zip(blown, got.maps))


@pytest.mark.parametrize(
    "gens, seed, depth, exc",
    [
        (list(triangle_group_rep(2, 3, 7)[:2]), 0.1, 7, StabilizerNotTrivial),
        ([_golden_generator(), _golden_generator()], 0.1, 1, StabilizerNotTrivial),
        ([_golden_generator()], 0.1, 0, ValueError),
    ],
)
def test_denjoy_build_errors_match_word_tuple_oracle(gens, seed, depth, exc):
    with pytest.raises(exc) as want:
        _ref_denjoy_build(gens, seed, depth)
    with pytest.raises(exc) as got:
        denjoy_layout(gens, seed, depth)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [math.inf, -math.inf, math.nan])
def test_denjoy_rejects_non_finite_seed_point(seed):
    with pytest.raises(ValueError, match="^seed point must be a finite number"):
        denjoy_layout([_golden_generator()], seed, depth=2)


def test_denjoy_every_depth_carries_each_generator():
    # The empty word and each generator's image are in every ball, so each
    # blown-up generator has at least one gap pair: the former "depth too
    # small" error could not be raised for any depth >= 1.
    for gens in ([_golden_generator()], _two_generators()):
        for f in denjoy_blowup(gens, 0.05, depth=1):
            assert len(f.xs) >= 2

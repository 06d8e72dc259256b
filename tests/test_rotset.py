"""Tests for symmetric circle subsets: normalization, set algebra, scaling."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotforce import forcing, rotset
from rotforce.rotset import RotSet

F = Fraction


def test_zero_always_present():
    s = RotSet.build()
    assert s.is_zero_only()
    assert s.contains(0) and s.contains(1) and s.contains(F(0))
    t = RotSet.from_points([F(1, 3)])
    assert t.contains(0)


def test_mirror_symmetry_of_points():
    s = RotSet.from_points([F(1, 5)])
    assert s.contains(F(4, 5))
    assert set(s.points) == {F(0), F(1, 5), F(4, 5)}
    assert {(1 - p) % 1 for p in s.points} == set(s.points)


def test_mirror_symmetry_of_arcs():
    s = RotSet.from_intervals([(F(1, 10), F(2, 10))])
    assert s.contains(F(3, 20)) and s.contains(F(17, 20))
    assert not s.contains(F(1, 2))
    assert len(s.intervals) == 2


def test_full_circle_representations():
    full = RotSet.full()
    assert full.is_full()
    assert RotSet.build(intervals=[(0, 1)]) == full
    assert RotSet.build(intervals=[(0.0, 1.0)]) == full
    assert RotSet.build(intervals=[(F(1, 2), F(3, 2))]) == full
    assert RotSet.build(intervals=[(F(-1, 3), F(2, 3))]) == full
    # more than a full turn also covers everything
    assert RotSet.build(intervals=[(0.25, 1.75)]) == full


def test_full_circle_survives_scaling():
    # regression: a raw span of exactly 1 must not collapse to a point mod 1
    full = RotSet.full()
    assert full.scale_preimage(1) == full
    assert full.scale_image(1) == full
    assert full.scale_preimage(3) == full
    assert full.intersect(full) == full


def test_wrapping_arc_splits_at_zero():
    s = RotSet.build(intervals=[(F(9, 10), F(1, 10))])
    assert s.contains(0) and s.contains(F(19, 20)) and s.contains(F(1, 20))
    assert not s.contains(F(1, 2))
    for lo, hi in s.intervals:
        assert 0 <= lo <= hi <= 1


def test_degenerate_arc_is_a_point():
    s = RotSet.build(intervals=[(F(3, 10), F(3, 10))])
    assert s.intervals == ()
    assert s.contains(F(3, 10)) and s.contains(F(7, 10))


def test_points_absorbed_into_arcs():
    s = RotSet.build(points=[F(1, 4)], intervals=[(F(1, 5), F(3, 10))])
    assert list(s.points) == [F(0)]
    assert s.contains(F(1, 4))


def test_overlapping_arcs_merge():
    s = RotSet.build(intervals=[(F(1, 10), F(2, 10)), (F(15, 100), F(3, 10))])
    ups = [iv for iv in s.intervals if iv[1] <= F(1, 2)]
    assert ups == [(F(1, 10), F(3, 10))]


def test_exact_and_float_interop():
    a = RotSet.from_points([F(1, 4)])
    b = RotSet.from_points([0.25])
    assert a.contains(0.25) and b.contains(F(1, 4))
    assert a.intersect(b).contains(F(1, 4))


def test_union_and_intersect_basics():
    a = RotSet.from_intervals([(F(1, 10), F(3, 10))])
    b = RotSet.from_intervals([(F(2, 10), F(4, 10))])
    u = a.union(b)
    i = a.intersect(b)
    assert u.contains(F(1, 10)) and u.contains(F(4, 10))
    assert i.contains(F(25, 100))
    assert not i.contains(F(35, 100))
    assert i.is_subset(a) and i.is_subset(b)
    assert a.is_subset(u) and b.is_subset(u)


def test_intersect_reduces_to_boundary_point():
    a = RotSet.from_intervals([(F(1, 10), F(2, 10))])
    b = RotSet.from_intervals([(F(2, 10), F(3, 10))])
    i = a.intersect(b)
    assert i.intervals == ()
    assert F(2, 10) in set(i.points)


def test_scale_image_exact():
    s = RotSet.from_points([F(1, 6)])
    assert set(s.scale_image(2).points) == {F(0), F(1, 3), F(2, 3)}
    arcs = RotSet.from_intervals([(F(1, 10), F(15, 100))]).scale_image(2)
    assert arcs.contains(F(1, 5)) and arcs.contains(F(3, 10))
    # sign never matters on a symmetric set
    assert s.scale_image(-2) == s.scale_image(2)


def test_scale_image_wide_arc_covers_circle():
    s = RotSet.from_intervals([(F(1, 10), F(5, 10))])
    assert s.scale_image(3) == RotSet.full()


def test_scale_preimage_exact():
    s = RotSet.from_points([F(1, 3)])
    pre = s.scale_preimage(2)
    expected = {F(0), F(1, 6), F(2, 6), F(4, 6), F(5, 6), F(1, 2)}
    assert expected <= set(pre.points)
    for p in pre.points:
        assert s.contains(2 * p)


def test_scale_roundtrip_subset_property():
    rng = np.random.default_rng(401)
    for _ in range(25):
        pts = [F(int(rng.integers(0, 12)), 12)]
        lo = float(rng.uniform(0, 1))
        s = RotSet.build(points=pts, intervals=[(lo, lo + float(rng.uniform(0, 0.2)))])
        for m in (2, 3, 5):
            assert s.is_subset(s.scale_preimage(m).scale_image(m))


def test_minkowski_points_and_arcs():
    a = RotSet.from_points([F(1, 4)])
    b = RotSet.from_intervals([(F(1, 10), F(2, 10))])
    m = a.minkowski(b)
    assert m.contains(F(1, 4) + F(15, 100))
    assert m.contains(F(15, 100))  # 0 in a keeps b inside
    wide = RotSet.from_intervals([(F(1, 10), F(6, 10))])
    assert wide.minkowski(wide) == RotSet.full()


def test_minkowski_contains_sampled_sums():
    rng = np.random.default_rng(409)
    a = RotSet.from_intervals([(0.1, 0.25)])
    b = RotSet.from_intervals([(0.05, 0.1)])
    m = a.minkowski(b)
    for _ in range(200):
        x = rng.uniform(0.1, 0.25)
        y = rng.uniform(0.05, 0.1)
        assert m.contains((x + y) % 1.0, tol=1e-12)


def test_subset_random_properties():
    rng = np.random.default_rng(419)
    for _ in range(30):
        xs = [float(rng.uniform(0, 1)) for _ in range(2)]
        a = RotSet.from_points(xs[:1])
        b = RotSet.from_points(xs)
        assert a.is_subset(b)
        assert RotSet.zero_only().is_subset(a)
        assert a.is_subset(RotSet.full())


def test_symmetrize_helper():
    # from_intervals is the one name for symmetrizing arcs
    s = RotSet.from_intervals([(F(1, 8), F(1, 4))])
    assert s == RotSet.build(points=[0], intervals=[(F(1, 8), F(1, 4)), (F(3, 4), F(7, 8))])
    assert s.contains(F(3, 4))
    aliases = ("rotset_union", "rotset_intersect", "rotset_symmetrize")
    assert not any(hasattr(module, name) for module in (rotset, forcing) for name in aliases)


def test_to_json_and_str_formats():
    s = RotSet.build(points=[F(1, 7)], intervals=[(0.25, 0.3)])
    d = s.to_json()
    assert "1/7" in d["points"] and "6/7" in d["points"] and "0" in d["points"]
    assert all(isinstance(iv, list) and len(iv) == 2 for iv in d["intervals"])
    text = str(s)
    assert text.startswith("{") and "1/7" in text


def test_contains_tolerance():
    s = RotSet.from_points([F(1, 3)])
    assert not s.contains(1 / 3 + 1e-9)
    assert s.contains(1 / 3 + 1e-9, tol=1e-8)
    assert s.contains(1e-10, tol=1e-9)  # wraps around 0


def test_equality_prefers_exact_endpoints():
    a = RotSet.build(intervals=[(F(1, 4), F(1, 2)), (0.25, 0.5)])
    assert a == RotSet.build(intervals=[(F(1, 4), F(1, 2))])


def test_preimage_by_zero_rejected():
    with pytest.raises(ValueError):
        RotSet.full().scale_preimage(0)


# ---------------------------------------------------------------------------
# The scan-based algebra that the merge and residue paths replaced, kept as
# the reference: every point tested against every point and arc, and every
# result pushed through a full normalization.


def _ref_coerce(v):
    if isinstance(v, (F, int)):
        return F(v) % 1
    return float(v) % 1.0


def _ref_mod1(v):
    return v % 1 if isinstance(v, F) else v % 1.0


def _ref_normalized(pts, arcs):
    merged = []
    for lo, hi in sorted(arcs, key=lambda ab: (ab[0], ab[1])):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    arcs_t = tuple((lo, hi) for lo, hi in merged)

    def covered(v):
        return any(lo <= v <= hi for lo, hi in arcs_t) or (v == 0 and any(hi == 1 for _, hi in arcs_t))

    uniq = []
    for v in sorted(pts):
        if covered(v):
            continue
        if uniq and uniq[-1] == v:
            uniq[-1] = uniq[-1] if isinstance(uniq[-1], F) else v
        else:
            uniq.append(v)
    return RotSet(points=tuple(uniq), intervals=arcs_t)


def _ref_build(points=(), intervals=()):
    pts, arcs = [F(0)], []

    def add_point(v):
        v = _ref_mod1(_ref_coerce(v))
        pts.append(v)
        pts.append(_ref_mod1(1 - v))

    for v in points:
        add_point(v)
    for lo, hi in intervals:
        if hi - lo >= 1:
            arcs.append((F(0), F(1)))
            continue
        lo, hi = _ref_coerce(lo), _ref_coerce(hi)
        if lo == hi:
            add_point(lo)
            continue
        for a, b in ((lo, hi), (_ref_mod1(1 - hi), _ref_mod1(1 - lo))):
            if a < b:
                arcs.append((a, b))
            else:
                if a < 1:
                    arcs.append((a, F(1) if isinstance(a, F) else 1.0))
                if 0 < b:
                    arcs.append((F(0) if isinstance(b, F) else 0.0, b))
    return _ref_normalized(pts, arcs)


def _ref_contains(s, x, tol=0.0):
    x = _ref_mod1(_ref_coerce(x))
    for v in s.points:
        d = abs(x - v)
        if min(d, 1 - d) <= tol:
            return True
    for lo, hi in s.intervals:
        if lo <= x <= hi or x + 1 <= hi or x - 1 >= lo:
            return True
    if tol > 0:
        xf = float(x)
        for lo, hi in s.intervals:
            lof, hif = float(lo), float(hi)
            if lof - tol <= xf <= hif + tol:
                return True
            if xf + 1 <= hif + tol or xf - 1 >= lof - tol:
                return True
    return False


def _ref_intersect(a, b):
    pts = [p for p in a.points if _ref_contains(b, p)]
    pts += [p for p in b.points if _ref_contains(a, p)]
    arcs = []
    for alo, ahi in a.intervals:
        for blo, bhi in b.intervals:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo < hi:
                arcs.append((lo, hi))
            elif lo == hi:
                pts.append(lo)
    return _ref_normalized(pts, arcs)


def _ref_is_subset(a, b):
    return _ref_normalized(list(a.points) + list(b.points), list(a.intervals) + list(b.intervals)) == b


def _ref_scale_image(s, k):
    k = abs(k)
    if k == 0:
        return RotSet.zero_only()
    arcs = []
    for lo, hi in s.intervals:
        if k * (hi - lo) >= 1:
            return RotSet.full()
        arcs.append((_ref_mod1(k * lo), _ref_mod1(k * lo) + k * (hi - lo)))
    return _ref_build([k * p for p in s.points], arcs)


def _ref_scale_preimage(s, m):
    pts = [(p + j) / m for p in s.points for j in range(m)]
    arcs = [((lo + j) / m, (hi + j) / m) for lo, hi in s.intervals for j in range(m)]
    return _ref_build(pts, arcs)


def _ref_minkowski(a, b):
    pts = [p + q for p in a.points for q in b.points]
    arcs = []
    for lo, hi in a.intervals:
        for q in b.points:
            arcs.append((_ref_mod1(lo + q), _ref_mod1(lo + q) + (hi - lo)))
        for blo, bhi in b.intervals:
            span = (hi - lo) + (bhi - blo)
            if span >= 1:
                return RotSet.full()
            arcs.append((_ref_mod1(lo + blo), _ref_mod1(lo + blo) + span))
    for p in a.points:
        for blo, bhi in b.intervals:
            arcs.append((_ref_mod1(blo + p), _ref_mod1(blo + p) + (bhi - blo)))
    return _ref_build(pts, arcs)


# Endpoint pools.  Dyadic floats equal Fractions exactly, so points on arc
# endpoints, touching arcs and equal values of both kinds come up often; the
# random floats are never within a rounding error of a pool Fraction.
_EXACT_POOL = [F(k, d) for d in (2, 3, 4, 5, 6, 8, 12, 16) for k in range(d)] + [F(1)]
_DYADIC_FLOATS = [k / 16 for k in range(17)]


def _random_set(rng, exact_only=False, with_arcs=True):
    def value():
        r = rng.random()
        if exact_only or r < 0.55:
            return _EXACT_POOL[int(rng.integers(len(_EXACT_POOL)))]
        if r < 0.8:
            return _DYADIC_FLOATS[int(rng.integers(len(_DYADIC_FLOATS)))]
        return float(rng.uniform(0, 1))

    pts = [value() for _ in range(int(rng.integers(0, 6)))]
    arcs = []
    for _ in range(int(rng.integers(0, 4)) if with_arcs else 0):
        if rng.random() < 0.04:
            arcs.append((F(1, 3), F(4, 3)))  # the whole circle
        else:
            arcs.append((value(), value()))  # lo > hi wraps through 0
    return pts, arcs


def _probes(rng, *sets):
    xs = [F(0), 0.0, -0.0, 1, 1.0, -1e-20, F(-1, 3), 0.25, F(1, 4), float(rng.uniform(0, 1))]
    assert -1e-20 % 1.0 == 1.0  # a float that reduces to 1.0 before the second reduction
    for s in sets:
        xs += list(s.points)
        for lo, hi in s.intervals:
            xs += [lo, hi, (lo + hi) / 2]
    return xs


def test_differential_against_scan_reference():
    rng = np.random.default_rng(2003)
    for trial in range(300):
        (pa, aa), (pb, ab) = _random_set(rng, with_arcs=trial % 4 != 0), _random_set(rng, with_arcs=trial % 3 != 0)
        a, b = RotSet.build(pa, aa), RotSet.build(pb, ab)
        assert repr(a) == repr(_ref_build(pa, aa))
        assert repr(b) == repr(_ref_build(pb, ab))
        for x in _probes(rng, a, b):
            for tol in (0.0, 1e-9, 0.03):
                assert a.contains(x, tol) == _ref_contains(a, x, tol), (a, x, tol)
        assert repr(a.intersect(b)) == repr(_ref_intersect(a, b))
        assert repr(b.intersect(a)) == repr(_ref_intersect(b, a))
        assert a.is_subset(b) == _ref_is_subset(a, b)
        assert a.intersect(b).is_subset(a) and _ref_is_subset(a.intersect(b), a)
        assert repr(a.minkowski(b)) == repr(_ref_minkowski(a, b))
        for k in (0, 1, 2, 3, -5):
            assert repr(a.scale_image(k)) == repr(_ref_scale_image(a, k))
        for m in (1, 2, 3):
            assert repr(a.scale_preimage(m)) == repr(_ref_scale_preimage(a, m))


def _edge_sets():
    return [RotSet.from_intervals([(F(1, 10), F(1, 5))]), RotSet.from_intervals([(F(1, 5), F(3, 10))]),
            RotSet.from_intervals([(0.2, 0.3)]), RotSet.build([F(1, 5), 0.2], [(F(3, 4), 1)]),
            RotSet.build([0.25], [(0.0, F(1, 8))]), RotSet.from_intervals([(F(7, 8), F(1, 8))]),
            RotSet.full(), RotSet.zero_only(), RotSet.build(intervals=[(0.0, 1.0)])]


def test_differential_edge_cases():
    touching = _edge_sets()
    for a in touching:
        for b in touching:
            assert repr(a.intersect(b)) == repr(_ref_intersect(a, b)), (a, b)
            assert a.is_subset(b) == _ref_is_subset(a, b), (a, b)
            assert repr(a.minkowski(b)) == repr(_ref_minkowski(a, b)), (a, b)
        for x in (0, -0.0, 1.0, -1e-20, 0.2, F(1, 5), F(3, 4), 0.75, F(1, 8), 0.999):
            for tol in (0.0, 1e-12):
                assert a.contains(x, tol) == _ref_contains(a, x, tol), (a, x)
    # touching arcs intersect in their shared endpoint, kept as a point
    assert touching[0].intersect(touching[1]).points == (F(0), F(1, 5), F(4, 5))
    # an arc ending at 1 covers 0 through the wrap, for both kinds of zero
    assert touching[3].contains(-0.0) and touching[3].contains(F(0))
    assert RotSet.build([-0.0]).points == (F(0),)
    # a float arc so short that both ends of its mirror round to 1.0 = 0.0
    # is that arc plus the point 0, not the whole circle through the wrap
    tiny = RotSet.from_intervals([(1e-20, 2e-20)])
    assert tiny.points == (F(0),) and tiny.intervals == ((1e-20, 2e-20),)
    assert not tiny.is_full() and not tiny.contains(0.5)


def _assert_full_laws_match_reference(s):
    # RotSet.full() and a full set that build normalizes, on either side
    for full in (RotSet.full(), RotSet.build(intervals=[(0, 1)])):
        for a, b in ((full, s), (s, full)):
            assert repr(a.intersect(b)) == repr(_ref_intersect(a, b)), (a, b)
            assert repr(a.minkowski(b)) == repr(_ref_minkowski(a, b)), (a, b)
            assert a.is_subset(b) == _ref_is_subset(a, b), (a, b)
        for k in (0, 1, 2, -3):
            assert repr(full.scale_image(k)) == repr(_ref_scale_image(full, k))
        for m in (1, 2, 5):
            assert repr(full.scale_preimage(m)) == repr(_ref_scale_preimage(full, m))


def test_full_set_laws_match_reference_on_edge_sets():
    float_arcs = RotSet.from_intervals([(0.9, 0.1)])
    float_points = RotSet.from_points([0.1])
    for s in _edge_sets() + [float_arcs, float_points, RotSet.from_points([F(1, 3), 2])]:
        _assert_full_laws_match_reference(s)
    # intersecting with the full circle puts its exact endpoints on float arcs
    assert str(float_arcs) == "{[0.0, 0.1], [0.9, 1.0]}"
    assert str(RotSet.full().intersect(float_arcs)) == "{[0, 0.1], [0.9, 1]}"
    # a float point's copy of [0, 1] rounds short of a full turn, so the sum keeps a float end
    assert str(RotSet.full().minkowski(float_points)) == "{[0.0, 1]}"
    assert RotSet.build(intervals=[(0, 1)]) is RotSet.full() is RotSet.full().scale_preimage(4)


def test_contains_is_exact_where_the_scan_rounded():
    # The scan subtracted a float from a Fraction in float arithmetic, so a
    # float one rounding away from an exact point counted as a hit.
    # Membership now compares exactly, as is_subset always did.
    tenth = RotSet.from_points([F(1, 10)])
    assert _ref_contains(tenth, 0.1) and not tenth.contains(0.1)
    assert tenth.contains(F(1, 10)) and tenth.contains(0.1, tol=1e-12)
    assert repr(tenth.intersect(RotSet.from_points([0.1]))) == repr(RotSet.zero_only())


def test_residue_results_skip_normalization_but_match_it():
    a = RotSet.from_points([F(k, 17) for k in range(17)]).scale_image(3)
    b = RotSet.from_points([F(k, 19) for k in range(19)]).scale_image(2)
    s = a.minkowski(b)
    assert s.points == tuple(F(k, 323) for k in range(323))
    pre = s.scale_preimage(5)
    assert pre.points == tuple(F(k, 1615) for k in range(1615))
    assert pre.intersect(s) == s
    assert s.intersect(pre) is s  # an unchanged left side is returned as it is


# ---------------------------------------------------------------------------
# algebraic laws

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_exact = st.builds(F, st.integers(-12, 36), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 24]))
_mixed = st.one_of(_exact, st.sampled_from(_DYADIC_FLOATS), st.floats(0, 1, exclude_max=True))


def _sets(values, max_arcs=3):
    return st.builds(
        RotSet.build, st.lists(values, max_size=6), st.lists(st.tuples(values, values), max_size=max_arcs)
    )


def _mirror_closed(s):
    return {(1 - p) % 1 for p in s.points} == set(s.points) and {
        (1 - hi, 1 - lo) for lo, hi in s.intervals
    } == set(s.intervals)


def _samples(s):
    return list(s.points) + [x for lo, hi in s.intervals for x in (lo, (lo + hi) / 2, hi)]


@SETTINGS
@given(_sets(_mixed), _sets(_mixed))
def test_intersect_laws(a, b):
    ab = a.intersect(b)
    assert ab == b.intersect(a)
    assert a.intersect(a) == a
    assert ab.is_subset(a) and ab.is_subset(b)
    assert all(a.contains(x) and b.contains(x) for x in _samples(ab))


@SETTINGS
@given(_sets(_exact), _sets(_exact))
def test_minkowski_is_symmetric(a, b):
    s = a.minkowski(b)
    assert _mirror_closed(s)
    assert s == b.minkowski(a)


@SETTINGS
@given(_sets(_exact), st.integers(1, 7), st.booleans())
def test_scale_image_then_preimage_keeps_every_point(s, k, negate):
    back = s.scale_image(-k if negate else k).scale_preimage(k)
    assert all(back.contains(x) for x in _samples(s))
    assert s.is_subset(back)


@SETTINGS
@given(_sets(_mixed))
def test_full_set_laws_match_reference(s):
    _assert_full_laws_match_reference(s)


@SETTINGS
@given(_sets(_exact, max_arcs=0), _sets(_exact, max_arcs=0), st.integers(0, 6), st.integers(1, 4))
def test_residue_path_equals_merge_path(rotset_shortcuts_off, a, b, k, m):
    full = RotSet.full()

    def results():
        return [
            a.intersect(b), b.intersect(a), a.minkowski(b), a.scale_image(k), a.scale_preimage(m),
            full.intersect(a), a.intersect(full), full.minkowski(a), a.minkowski(full),
            full.scale_image(k), full.scale_preimage(m), RotSet.from_points([k * p - m for p in a.points + b.points]),
        ]

    fast = results()
    with mock.patch.object(rotset, "_residues", lambda s: None), rotset_shortcuts_off():
        slow = results()
    assert [repr(x) for x in fast] == [repr(x) for x in slow]


_ints = st.integers(-30, 30)


@SETTINGS
@given(st.lists(st.one_of(_ints, _exact), max_size=8), st.lists(st.one_of(_ints, _exact, _mixed), max_size=4))
def test_from_points_matches_build(exact, mixed):
    for vals in (exact, exact + exact[:3], exact + mixed):  # repeats, and floats that take build's path
        # repr spells each endpoint with its type: Fraction(1, 3) or 0.25
        assert repr(RotSet.from_points(vals)) == repr(RotSet.build(points=vals))


@SETTINGS
@given(_sets(_exact, max_arcs=0), _sets(_exact, max_arcs=0), st.lists(_exact, max_size=4), st.integers(1, 6))
def test_residue_cache_equals_recomputation(a, b, vals, k):
    made = []
    real = RotSet._over.__func__

    def recording(cls, den, rs, arcs=()):
        made.append(real(cls, den, rs, arcs))
        return made[-1]

    with mock.patch.object(RotSet, "_over", classmethod(recording)):
        c = RotSet.from_points(vals)
        c.minkowski(a).scale_preimage(k).intersect(b.scale_image(k)).minkowski(c)
    assert made
    for s in made:
        assert s.__dict__["_residues"] == rotset._residues(RotSet(points=s.points, intervals=s.intervals))

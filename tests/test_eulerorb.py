"""Tests for exact orbifold Euler numbers and the feasibility enumeration."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotforce.eulerorb import (
    BudgetExceeded,
    ConeRotTuple,
    OrbifoldSig,
    euler_number,
    feasible_ns,
    feasible_tuples,
    check_manifold_cover,
    lifted_euler_ranges,
    milnor_wood_bound,
    orbifold_euler_char,
)


def test_orbifold_euler_char_values():
    assert orbifold_euler_char(OrbifoldSig(0, (2, 3, 7))) == Fraction(-1, 42)
    assert orbifold_euler_char(OrbifoldSig(0, (2, 3, 6))) == 0
    assert orbifold_euler_char(OrbifoldSig(1, (5,))) == Fraction(-4, 5)
    assert orbifold_euler_char(OrbifoldSig(2, ())) == -2
    assert orbifold_euler_char(OrbifoldSig(0, ())) == 2


def test_euler_number_exact():
    e = euler_number(1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
    assert e == Fraction(1, 42)
    assert e * 168 == 4


def test_milnor_wood_bound():
    assert milnor_wood_bound(-4) == 4
    assert milnor_wood_bound(-2) == 2
    assert milnor_wood_bound(0) == 0
    assert milnor_wood_bound(2) == 0
    with pytest.raises(ValueError):
        milnor_wood_bound(-3)  # closed surfaces have even characteristic
    with pytest.raises(ValueError):
        milnor_wood_bound(4)


def test_feasible_tuples_free_enumeration():
    sig = OrbifoldSig(0, (2, 3, 7))
    out = feasible_tuples(sig, 168, -4)
    assert len(out) == 3
    assert ConeRotTuple(0, (Fraction(0), Fraction(0), Fraction(0))) in out
    assert ConeRotTuple(1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))) in out
    assert ConeRotTuple(2, (Fraction(1, 2), Fraction(2, 3), Fraction(6, 7))) in out


def test_feasible_tuples_pinned_klein_cover():
    sig = OrbifoldSig(0, (2, 3, 7))
    out = feasible_tuples(sig, 168, -4, fixed={0: Fraction(1, 2), 1: Fraction(1, 3)})
    assert [(t.n, t.rots) for t in out] == [
        (1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))),
        (2, (Fraction(1, 2), Fraction(2, 3), Fraction(6, 7))),
    ]


def test_feasible_tuples_mirror_closed():
    sig = OrbifoldSig(0, (2, 3, 7))
    for fixed in (None, {0: Fraction(1, 2), 1: Fraction(1, 3)}):
        out = feasible_tuples(sig, 168, -4, fixed=fixed)
        assert {t.mirrored() for t in out} == set(out)


def test_mirror_involution():
    t = ConeRotTuple(1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
    m = t.mirrored()
    assert m == ConeRotTuple(2, (Fraction(1, 2), Fraction(2, 3), Fraction(6, 7)))
    assert m.mirrored() == t
    assert m.euler_number() == -t.euler_number()


def test_genus_one_maximal_sweep_small():
    for q in (3, 5, 7, 11):
        sig = OrbifoldSig(1, (q,))
        out = feasible_tuples(sig, 2 * q, 2 - 2 * q, maximal=True)
        ps = sorted(int(t.rots[0] * q) for t in out)
        assert ps == [1, q - 1]


def test_integrality_filter():
    # degree-7 cover of (0;2,3,7): only multiples of 1/7 in the lifted
    # Euler number survive, dropping non-integral combinations
    sig = OrbifoldSig(0, (2, 3, 7))
    out = feasible_tuples(sig, 7, 0)
    for t in out:
        assert (t.euler_number() * 7).denominator == 1
        assert abs(t.euler_number() * 7) <= 0


def test_pin_must_match_order():
    sig = OrbifoldSig(0, (2, 3, 7))
    with pytest.raises(ValueError):
        feasible_tuples(sig, 168, -4, fixed={0: Fraction(1, 5)})


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        feasible_tuples(OrbifoldSig(0, (2, 3, 7)), 0, -4)
    for degree in (0, -6):
        with pytest.raises(ValueError, match="cover degree must be positive"):
            feasible_ns(Fraction(1, 2), degree, -4)


def test_enumeration_budget():
    sig = OrbifoldSig(0, (12, 12, 12, 12))
    with pytest.raises(BudgetExceeded):
        feasible_tuples(sig, 24, -4)
    # pinning brings it back under budget
    out = feasible_tuples(sig, 24, -4, fixed={0: Fraction(1, 12), 1: Fraction(1, 12)})
    assert isinstance(out, list)


def test_sorted_output():
    out = feasible_tuples(OrbifoldSig(0, (2, 3, 7)), 168, -4)
    assert out == sorted(out)


# ---------------------------------------------------------------------------
# the closed-form integer part against the former window search


@functools.cache
def _window_search(orders, degree, chi, pin, maximal):
    """The former enumerator: for every slot tuple, try each n in a window
    wide enough for any tuple and keep those whose lifted Euler number
    degree*(n - sum(rots)) is an integer within the Milnor-Wood bound.
    It runs on the numerator and denominator of sum(rots) instead of
    Fractions, and reads only the cone orders, so one run serves every genus.
    """
    bound = milnor_wood_bound(chi)
    slots = [[Fraction(k, p) for k in range(p)] for p in orders]
    if pin is not None:
        slots[0] = [pin]
    n_window = 1 + len(orders) + (bound + degree - 1) // degree
    out = set()
    for rots in itertools.product(*slots):
        s = sum(rots, Fraction(0))
        for n in range(-n_window, n_window + 1):
            lifted, rem = divmod(degree * (n * s.denominator - s.numerator), s.denominator)
            if rem or abs(lifted) > bound or (maximal and abs(lifted) != bound):
                continue
            out.add(ConeRotTuple(n=n, rots=rots))
    out |= {t.mirrored() for t in out}
    return sorted(out)


GRID_ORDERS = [(), (2,), (5,), (2, 3), (2, 3, 7), (3, 4, 5), (2, 2, 3)]
GRID_DEGREES = [1, 2, 3, 6, 7, 12, 42, 60, 84]
GRID_CHIS = [2, 0, -2, -4, -10, -84, -200]


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_closed_form_matches_window_search(genus):
    # Degrees the cone orders do not divide are included on purpose: the
    # listing is parametric and must agree there too.
    for orders, degree, chi, maximal in itertools.product(GRID_ORDERS, GRID_DEGREES, GRID_CHIS, (False, True)):
        sig = OrbifoldSig(genus, orders)
        for pin in [None] + [Fraction(1, p) for p in orders[:1]]:
            fixed = None if pin is None else {0: pin}
            got = feasible_tuples(sig, degree, chi, fixed=fixed, maximal=maximal)
            assert got == _window_search(orders, degree, chi, pin, maximal), (sig, degree, chi, pin, maximal)


# ---------------------------------------------------------------------------
# the Milnor-Wood ranges, and the bucketed listing against the former sorted set


def test_lifted_euler_ranges():
    assert lifted_euler_ranges(-4) == ((-4, 4),)
    assert lifted_euler_ranges(-4, maximal=True) == ((-4, -4), (4, 4))
    for chi in (0, 2):  # bound 0: the two ends are one
        assert lifted_euler_ranges(chi) == lifted_euler_ranges(chi, maximal=True) == ((0, 0),)
    for chi in (-3, 4):
        with pytest.raises(ValueError, match=f"^{chi} is not the Euler characteristic"):
            lifted_euler_ranges(chi)


@pytest.mark.parametrize("sig, degree, chi", [("0;2", 2, 3), ("0", 2, 4), ("0;3,3", 6, 4)])
def test_check_manifold_cover_wants_a_closed_surface(sig, degree, chi):
    # Riemann-Hurwitz holds for each, but no closed orientable surface has
    # an odd characteristic or one above 2
    sig = OrbifoldSig.parse(sig)
    with pytest.raises(ValueError, match=f"^{chi} is not the Euler characteristic"):
        check_manifold_cover(sig, degree, chi)


def _former_feasible_ns(total, degree, chi, maximal):
    bound, s = milnor_wood_bound(chi), degree * total
    if s.denominator != 1:
        return ()
    s = s.numerator
    if maximal:
        return sorted({(s + e) // degree for e in (-bound, bound) if (s + e) % degree == 0})
    return range(-((bound - s) // degree), (s + bound) // degree + 1)


def _former_listing(sig, degree, chi, fixed, maximal):
    """The former feasible_tuples: every tuple into one set, closed under the
    mirror when pinned, then sorted."""
    pins = {i: Fraction(v) % 1 for i, v in (fixed or {}).items()}
    slots = [[pins[i]] if i in pins else [Fraction(k, p) for k in range(p)] for i, p in enumerate(sig.cone_orders)]
    out = set()
    for rots in itertools.product(*slots):
        ns = _former_feasible_ns(sum(rots, Fraction(0)), degree, chi, maximal)
        out.update(ConeRotTuple(n=n, rots=rots) for n in ns)
    if pins:
        out |= {t.mirrored() for t in out}
    return sorted(out)


@st.composite
def _listing_inputs(draw):
    orders = draw(st.lists(st.integers(2, 12), max_size=3))
    sig = OrbifoldSig(draw(st.integers(0, 2)), tuple(orders))
    pinned = draw(st.sets(st.integers(0, len(orders) - 1), max_size=len(orders))) if orders else set()
    fixed = {i: Fraction(draw(st.integers(0, orders[i] - 1)), orders[i]) for i in pinned}
    degree = draw(st.integers(1, 120))
    chi = 2 - 2 * draw(st.integers(0, 60))
    return sig, degree, chi, fixed or None, draw(st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_listing_inputs())
def test_listing_matches_former_sorted_set(case):
    # order included: the buckets by n of the lexicographic walk are the sorted set
    assert feasible_tuples(*case[:3], fixed=case[3], maximal=case[4]) == _former_listing(*case)


def test_listing_matches_former_sorted_set_on_covers():
    for (genus, orders), maximal in itertools.product(
        [(0, (2, 3, 7)), (0, (7, 11, 13)), (1, (5,)), (1, (2, 3)), (2, (3, 4)), (2, ())], (False, True)
    ):
        sig = OrbifoldSig(genus, orders)
        degree = math.lcm(1, *orders) * 2
        chi = int(degree * orbifold_euler_char(sig))
        for fixed in (None, {0: Fraction(1, orders[0])} if orders else None):
            expected = _former_listing(sig, degree, chi, fixed, maximal)
            assert feasible_tuples(sig, degree, chi, fixed=fixed, maximal=maximal) == expected
            assert expected or maximal


# ---------------------------------------------------------------------------
# laws of the integer parts n for a given rotation sum

_totals = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 60))
_covers = st.tuples(st.integers(1, 60), st.integers(-60, 1).map(lambda k: 2 * k), st.booleans())


def _window_ns(total, degree, chi, maximal):
    """Every n in a window wide enough for ``total`` whose lifted Euler number
    degree*(n - total) is an integer within the bound (at it, when maximal)."""
    bound = milnor_wood_bound(chi)
    reach = abs(total) + 1 + bound // degree
    out = []
    for n in range(-int(reach) - 1, int(reach) + 2):
        lifted = degree * (n - total)
        if lifted.denominator == 1 and abs(lifted) <= bound and (not maximal or abs(lifted) == bound):
            out.append(n)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_totals, _covers)
def test_feasible_ns_matches_window_search(total, cover):
    assert list(feasible_ns(total, *cover)) == _window_ns(total, *cover)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_totals, _covers)
def test_feasible_ns_shift_and_mirror(total, cover):
    ns = list(feasible_ns(total, *cover))
    assert list(feasible_ns(total + 1, *cover)) == [n + 1 for n in ns]
    assert sorted(feasible_ns(-total, *cover)) == sorted(-n for n in ns)


# ---------------------------------------------------------------------------
# the text form of a signature


def test_signature_text_form():
    assert str(OrbifoldSig(0, (2, 3, 7))) == "0;2,3,7"
    assert str(OrbifoldSig(1, (5,))) == "1;5"
    assert str(OrbifoldSig(2, ())) == "2"
    assert OrbifoldSig.parse("0;2,3,7") == OrbifoldSig(0, (2, 3, 7))
    assert OrbifoldSig.parse("2") == OrbifoldSig(2, ())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6), st.lists(st.integers(2, 10**6), max_size=8))
def test_signature_text_round_trip(genus, orders):
    sig = OrbifoldSig(genus, tuple(orders))
    assert OrbifoldSig.parse(str(sig)) == sig


@pytest.mark.parametrize(
    "text",
    ["", ";", "x", "0;", "0;2,", "0;,2", "0;2;3", "0,2,3", "-1;2", "0;1", "0;0,3", "0;2, 3", " 0;2", "1.5", "0;+2", "0;x"],
)
def test_signature_malformed_text_rejected(text):
    with pytest.raises(ValueError) as ei:
        OrbifoldSig.parse(text)
    assert repr(text) in str(ei.value)

"""Tests for the polyroots kernels: integer-numerator evaluation, interval
evaluation, bisection, products and pseudo-division against the Fraction
implementations they replaced, and guards on how many Fractions they build."""

import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rotforce.polyroots as pr
from rotforce.quatalg import field_create

F = Fraction

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# the former Fraction kernels, kept verbatim as oracles (internal calls renamed)


def _former_poly(coeffs):
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _former_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _former_poly(out)


def _former_divmod_poly(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    dq, lead = len(q) - 1, q[-1]
    while len(r) - 1 >= dq and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq:
            break
        k = len(r) - 1 - dq
        f = r[-1] / lead
        quo[k] = f
        for i, c in enumerate(q):
            r[i + k] -= f * c
        r.pop()
    return _former_poly(quo), _former_poly(r)


def _former_eval_at(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _former_eval_interval(p, lo, hi):
    alo = ahi = Fraction(0)
    for c in reversed(p):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def _former_refine_root(p, interval, eps):
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if _former_eval_at(p, hi) == 0:
        return hi, hi
    # lo may sit on a neighboring root; nudge inward until the sign is defined
    flo = _former_eval_at(p, lo)
    while flo == 0:
        lo = lo + (hi - lo) / 1024
        flo = _former_eval_at(p, lo)
    fhi = _former_eval_at(p, hi)
    if (flo > 0) == (fhi > 0):
        raise ValueError("interval does not bracket a sign change of a squarefree polynomial")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        fm = _former_eval_at(p, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return lo, hi


def _former_variations(chain, x):
    signs = []
    for c in chain:
        v = _former_eval_at(c, x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _former_count_roots(chain, lo, hi):
    return _former_variations(chain, lo) - _former_variations(chain, hi)


def _former_isolate_real_roots(p):
    chain = pr.sturm_chain(p)
    b = pr.cauchy_bound(p)
    out = []

    def split(lo, hi, count):
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = _former_count_roots(chain, lo, mid)
        split(lo, mid, left)
        split(mid, hi, count - left)

    split(-b, b, _former_count_roots(chain, -b, b))
    out.sort()
    return out


def _former_sturm_chain(p):
    chain = [p, pr.deriv(p)]
    while chain[-1]:
        r = _former_divmod_poly(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(pr.neg(r))
    return [c for c in chain if c]


# ---------------------------------------------------------------------------
# strategies

_big = st.builds(F, st.integers(-(10**13), 10**13), st.integers(1, 10**13))
_small = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
_dyadic = st.builds(lambda n, k: F(n, 2**k), st.integers(-(2**20), 2**20), st.integers(0, 40))
_rational = st.one_of(_big, _small, _dyadic, st.just(F(0)))
# degree 0-8, the zero polynomial () included
_poly = st.lists(_rational, max_size=9).map(pr.poly)
_nonzero = st.lists(_rational, min_size=1, max_size=9).map(pr.poly).filter(bool)


@st.composite
def _interval(draw):
    a, b = draw(_rational), draw(st.one_of(_rational, st.just(None)))
    if b is None:
        return a, a
    return min(a, b), max(a, b)


@st.composite
def _monic_integer(draw, degree=(1, 6)):
    d = draw(st.integers(*degree))
    return pr.poly(draw(st.lists(st.integers(-20, 20), min_size=d, max_size=d)) + [1])


MINPOLYS = ["x^2 - 2", "x^2 - 5", "x^3 - 3*x + 1", "x^4 - 5*x^2 + 5", "x^3 - x^2 - 2*x + 1", "x^4 - 4*x^2 + 2"]


# ---------------------------------------------------------------------------
# exact agreement with the Fraction kernels


@SETTINGS
@given(_poly, _rational)
def test_eval_at_matches_fraction_kernel(p, x):
    assert pr.eval_at(p, x) == _former_eval_at(p, x)
    assert type(pr.eval_at(p, x)) is Fraction


@SETTINGS
@given(_poly, st.integers(-(10**6), 10**6))
def test_eval_at_integer_point(p, x):
    assert pr.eval_at(p, x) == _former_eval_at(p, x)


@SETTINGS
@given(_poly, _interval())
def test_eval_interval_matches_fraction_kernel(p, iv):
    assert pr.eval_interval(p, *iv) == _former_eval_interval(p, *iv)


@pytest.mark.parametrize("p", [(), (F(0),), (F(3),), (F(-7, 3),), (F(10**13 - 1, 10**13),)])
def test_zero_and_constant_polynomials(p):
    for lo, hi in [(F(-1), F(2)), (F(1, 3), F(1, 3)), (F(-5, 7), F(-2, 9))]:
        assert pr.eval_interval(p, lo, hi) == _former_eval_interval(p, lo, hi)
        assert pr.eval_at(p, lo) == _former_eval_at(p, lo)
    assert pr.mul(p, (F(1), F(2))) == _former_mul(p, (F(1), F(2)))
    if pr.poly(p):
        q = pr.poly(p)
        assert pr.divmod_poly((F(1), F(2), F(3)), q) == _former_divmod_poly((F(1), F(2), F(3)), q)


@SETTINGS
@given(_poly, _poly)
def test_mul_matches_fraction_kernel(p, q):
    assert pr.mul(p, q) == _former_mul(p, q)


@SETTINGS
@given(_poly, _nonzero)
def test_divmod_matches_fraction_kernel(p, q):
    quo, rem = pr.divmod_poly(p, q)
    assert (quo, rem) == _former_divmod_poly(p, q)
    assert pr.add(pr.mul(quo, q), rem) == p
    assert pr.degree(rem) < pr.degree(q)


@SETTINGS
@given(_nonzero)
def test_sturm_chain_divisions_match(p):
    # the chain divides by non-monic rational remainders
    assume(pr.degree(p) >= 1)
    assert pr.sturm_chain(p) == _former_sturm_chain(p)


@SETTINGS
@given(_monic_integer(), st.lists(st.lists(st.integers(-9, 9), max_size=6), min_size=1, max_size=3))
def test_division_by_monic_integer_stays_integral(m, elems):
    p = pr.poly((1,))
    for e in elems:
        p = pr.mul(p, pr.poly(e))
    quo, rem = pr.divmod_poly(p, m)
    assert (quo, rem) == _former_divmod_poly(p, m)
    assert all(c.denominator == 1 for c in quo + rem)


@SETTINGS
@given(st.lists(_small, min_size=2, max_size=6))
def test_isolation_and_counts_match(coeffs):
    p = pr.squarefree_part(pr.poly(coeffs))
    assume(pr.degree(p) >= 1)
    assert pr.isolate_real_roots(p) == _former_isolate_real_roots(p)
    chain = pr.sturm_chain(p)
    b = pr.cauchy_bound(p)
    for lo, hi in [(-b, b), (F(-1, 3), F(2, 7)), (F(0), F(1))]:
        assert pr.count_roots(chain, lo, hi) == _former_count_roots(chain, lo, hi)


@pytest.mark.parametrize("text", MINPOLYS)
@pytest.mark.parametrize("k", [1, 7, 40, 200])
def test_refine_minimal_polynomial_roots_match(text, k):
    p = field_create(text).minpoly
    eps = F(1, 2**k)
    for box in pr.isolate_real_roots(p):
        assert pr.refine_root(p, box, eps) == _former_refine_root(p, box, eps)


@SETTINGS
@given(_monic_integer(), st.integers(1, 200), st.integers(0, 8))
def test_refine_monic_integer_roots_match(m, k, shift):
    p = pr.squarefree_part(m)
    assume(pr.degree(p) >= 1)
    eps = F(1, 2**k)
    for lo, hi in pr.isolate_real_roots(p):
        # a non-dyadic box around the same root, moved inward by a third
        lo3 = lo + (hi - lo) / 3 ** (shift + 1)
        if pr.count_roots(pr.sturm_chain(p), lo3, hi) == 1:
            assert pr.refine_root(p, (lo3, hi), eps) == _former_refine_root(p, (lo3, hi), eps)
        assert pr.refine_root(p, (lo, hi), eps) == _former_refine_root(p, (lo, hi), eps)


@SETTINGS
@given(_rational, _rational.filter(lambda w: w > 0), st.integers(1, 12), st.integers(1, 200))
def test_refine_root_hit_at_a_midpoint(r, w, extra, k):
    # the first midpoint of (r - w, r + w] is the root itself
    p = pr.mul(pr.poly((-r, 1)), pr.poly((-(r + w * 3 * extra), 1)))
    box, eps = (r - w, r + w), w / 2**k
    assert pr.refine_root(p, box, eps) == _former_refine_root(p, box, eps) == (r, r)


def test_refine_root_exact_and_nudged_cases():
    cases = [
        (pr.poly((F(-1, 3), 1)), (F(0), F(2, 3))),  # non-dyadic root hit at the first midpoint
        (pr.mul(pr.poly((0, 1)), pr.poly((-3, 1))), (F(-1), F(3))),  # hi is a root
        (pr.mul(pr.mul(pr.poly((0, 1)), pr.poly((-1, 1))), pr.poly((-3, 1))), (F(0), F(2))),  # lo on a neighbor
        (pr.poly((-2, 0, 1)), (F(-7, 3), F(-1, 5))),  # negative, non-dyadic endpoints
    ]
    for p, box in cases:
        for k in (3, 64, 200):
            assert pr.refine_root(p, box, F(1, 2**k)) == _former_refine_root(p, box, F(1, 2**k))


def test_refine_root_rejects_a_sign_match():
    with pytest.raises(ValueError, match="bracket"):
        pr.refine_root(pr.poly((-2, 0, 1)), (F(2), F(3)), F(1, 8))


@pytest.mark.parametrize("eps", [0, F(0), -1, F(-1, 10**9)])
def test_refine_root_rejects_non_positive_eps(eps):
    p = pr.poly((-2, 0, 1))
    with pytest.raises(ValueError, match="eps"):
        pr.refine_root(p, (F(0), F(3)), eps)
    iv = field_create("x^2 - 2").embeddings[1]
    with pytest.raises(ValueError, match="eps"):
        iv.refine(eps)


@SETTINGS
@given(_poly, _poly)
def test_add_returns_trimmed_sums(p, q):
    s = pr.add(p, q)
    assert s == _former_poly([a + b for a, b in zip(p + (0,) * len(q), q + (0,) * len(p))])
    assert not s or s[-1] != 0
    assert all(type(c) is Fraction for c in s)
    assert pr.add(p, pr.neg(p)) == ()
    assert pr.sub(p, p) == ()


def test_add_cancels_to_zero_polynomial():
    p = pr.poly((F(1, 3), 2, F(-5, 7)))
    assert pr.add(p, pr.poly((0, 0, F(5, 7)))) == (F(1, 3), F(2))
    assert pr.add(p, pr.neg(p)) == ()
    assert pr.scale(p, 0) == ()
    assert pr.scale(p, F(7, 5)) == (F(7, 15), F(14, 5), F(-1))


# ---------------------------------------------------------------------------
# no Fraction arithmetic inside the loops


class _Counting(Fraction):
    built = 0

    def __new__(cls, *args, **kw):
        _Counting.built += 1
        return super().__new__(cls, *args, **kw)


@pytest.fixture
def built(monkeypatch):
    """Count the Fractions that rotforce.polyroots constructs."""
    monkeypatch.setattr(pr, "Fraction", _Counting)

    def count(fn, *args):
        _Counting.built = 0
        out = fn(*args)
        return out, _Counting.built

    return count


def _fraction_calls(fn, *args) -> int:
    """Python-level calls into the fractions module made while fn runs:
    arithmetic, comparison and construction.  Reads of the numerator and
    denominator properties do no arithmetic and are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename.endswith("fractions.py") and code.co_name not in ("numerator", "denominator"):
            calls += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return calls


P8 = pr.poly([F(3 * i - 11, 7 + i) for i in range(9)])
Q3 = pr.poly([F(-2, 3), F(5, 11), 0, F(7, 13)])


def test_eval_interval_builds_two(built):
    for p in [(), P8, Q3, field_create("x^4 - 5*x^2 + 5").minpoly]:
        assert built(pr.eval_interval, p, F(-13, 7), F(5, 3))[1] == 2


def test_mul_and_divmod_build_one_per_coefficient(built):
    prod, n = built(pr.mul, P8, Q3)
    assert n == len(prod) == len(P8) + len(Q3) - 1
    (quo, rem), n = built(pr.divmod_poly, P8, Q3)
    assert len(quo) == len(P8) - len(Q3) + 1
    assert n == len(quo) + len(rem)


def test_refine_builds_a_constant_number(built):
    p = pr.poly((-2, 0, 1))
    counts = set()
    for halvings in (1, 8, 64):
        (lo, hi), n = built(pr.refine_root, p, (F(1), F(2)), F(1, 2**halvings))
        assert hi - lo == F(1, 2**halvings)
        counts.add(n)
    assert len(counts) == 1


def test_fraction_calls_do_not_grow_with_the_loops():
    p = pr.poly((-2, 0, 1))
    refines = {_fraction_calls(pr.refine_root, p, (F(1), F(2)), F(1, 2**k)) for k in (8, 64, 256)}
    assert len(refines) == 1
    intervals = {_fraction_calls(pr.eval_interval, q, F(-13, 7), F(5, 3)) for q in (Q3, P8, pr.mul(P8, P8))}
    assert len(intervals) == 1
    small, large = _fraction_calls(pr.mul, Q3, Q3), _fraction_calls(pr.mul, P8, P8)
    assert large * len(pr.mul(Q3, Q3)) == small * len(pr.mul(P8, P8))

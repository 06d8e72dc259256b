"""Tests for exact real-root machinery, totally real fields, quaternion
algebras, their archimedean ramification, and arithmetic rotation numbers."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotforce.polyroots as pr
from rotforce.moebius import NotElliptic, elliptic_rotation_number
from rotforce.quatalg import (
    NumberField,
    NotAdmissible,
    NotIrreducible,
    NotNormOne,
    NotTotallyReal,
    QuatAlgebra,
    Ramification,
    UnsupportedDegree,
    arithmetic_rotation_number,
    embed_psl2,
    embed_unramified,
    field_create,
    is_fuchsian_admissible,
    parse_algebra_spec,
    quat_trace_norm,
    ramification_profile,
    _unramified_place,
)

F = Fraction


# ---------------------------------------------------------------------------
# exact root isolation


def test_sturm_counts():
    # (x^2 - 2)(x^2 - 3): four real roots
    p = pr.mul(pr.poly([-2, 0, 1]), pr.poly([-3, 0, 1]))
    assert pr.count_real_roots(p) == 4
    # x^2 + 1: none
    assert pr.count_real_roots(pr.poly([1, 0, 1])) == 0
    # x^3 - x: three
    assert pr.count_real_roots(pr.poly([0, -1, 0, 1])) == 3


def test_isolation_separates_roots():
    p = pr.mul(pr.poly([-2, 0, 1]), pr.poly([-3, 0, 1]))
    boxes = pr.isolate_real_roots(p)
    assert len(boxes) == 4
    for (alo, ahi), (blo, bhi) in zip(boxes, boxes[1:]):
        assert ahi <= blo
    chain = pr.sturm_chain(p)
    for lo, hi in boxes:
        assert pr.count_roots(chain, lo, hi) == 1


def test_refine_root_converges_to_sqrt2():
    p = pr.poly([-2, 0, 1])
    box = [b for b in pr.isolate_real_roots(p) if b[1] > 0][0]
    lo, hi = pr.refine_root(p, box, F(1, 10**15))
    mid = (lo + hi) / 2
    assert abs(float(mid) - math.sqrt(2.0)) < 1e-14


def test_exact_root_at_endpoint():
    p = pr.poly([0, 1])  # x
    boxes = pr.isolate_real_roots(p)
    assert len(boxes) == 1
    lo, hi = pr.refine_root(p, boxes[0], F(1, 10**12))
    assert lo <= 0 <= hi and hi - lo <= F(1, 10**12)


def test_squarefree_and_gcd():
    p = pr.mul(pr.poly([-1, 1]), pr.poly([-1, 1]))  # (x-1)^2
    sf = pr.squarefree_part(p)
    assert pr.degree(sf) == 1
    g = pr.gcd_poly(pr.poly([-1, 0, 1]), pr.poly([-1, 1]))
    assert pr.degree(g) == 1  # common factor x - 1


def test_interval_evaluation_bounds():
    p = pr.poly([1, -3, 0, 2])
    lo, hi = pr.eval_interval(p, F(-1), F(2))
    for x in (F(-1), F(0), F(1, 3), F(2)):
        assert lo <= pr.eval_at(p, x) <= hi


# ---------------------------------------------------------------------------
# number fields


def test_field_rejects_non_irreducible():
    with pytest.raises(NotIrreducible):
        field_create("x^2 - 4")
    with pytest.raises(NotIrreducible):
        field_create("x^4 + 4")  # (x^2-2x+2)(x^2+2x+2)
    with pytest.raises(NotIrreducible):
        field_create([0, 0, 1])  # x^2


def test_field_rejects_complex_embeddings():
    with pytest.raises(NotTotallyReal):
        field_create("x^2 + 1")
    with pytest.raises(NotTotallyReal):
        field_create("x^3 - x - 1")  # one real, two complex roots


def test_field_rejects_high_degree():
    with pytest.raises(UnsupportedDegree):
        field_create("x^5 - x - 1")


def test_field_embeddings_sorted_and_correct():
    field = field_create("x^2 - 2")
    vals = [field.approx_at(field.gen(), k) for k in range(2)]
    assert abs(vals[0] + math.sqrt(2.0)) < 1e-12
    assert abs(vals[1] - math.sqrt(2.0)) < 1e-12
    quartic = field_create("x^4 - 10*x^2 + 1")  # Q(sqrt2 + sqrt3)
    roots = [quartic.approx_at(quartic.gen(), k) for k in range(4)]
    assert roots == sorted(roots)
    assert abs(roots[-1] - (math.sqrt(2.0) + math.sqrt(3.0))) < 1e-10


def test_field_element_arithmetic():
    field = field_create("x^2 - 2")
    t = field.gen()
    one = field.one()
    assert (t * t).coeffs == pr.poly([2])  # t^2 = 2
    inv = (one + t).inverse()  # 1/(1+sqrt2) = sqrt2 - 1
    assert inv == t - one
    assert (t ** 4).coeffs == pr.poly([4])
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


def test_sign_certification():
    field = field_create("x^2 - 2")
    t = field.gen()
    assert field.sign_at(t, 0) == -1
    assert field.sign_at(t, 1) == 1
    assert field.sign_at(field.zero(), 0) == 0
    # 3 - 2*sqrt2 is positive but tiny at the positive embedding
    assert field.sign_at(field.from_rational(3) - (t + t), 1) == 1


# ---------------------------------------------------------------------------
# quaternion algebras


def _algebra_sqrt2():
    field = field_create("x^2 - 2")
    return QuatAlgebra(field=field, a=field.gen(), b=field.from_rational(-1))


def test_multiplication_table():
    alg = _algebra_sqrt2()
    i, j, k = alg.i(), alg.j(), alg.k()
    assert alg.mul(i, j) == k
    assert alg.mul(j, i) == alg.neg(k)
    assert alg.mul(i, i) == alg.scalar(alg.a)
    assert alg.mul(j, j) == alg.scalar(alg.b)
    assert alg.mul(k, k) == alg.neg(alg.scalar(alg.a * alg.b))


def test_norm_is_multiplicative():
    rng = np.random.default_rng(307)
    alg = _algebra_sqrt2()
    for _ in range(60):
        x = alg.elem(*(int(v) for v in rng.integers(-4, 5, 4)))
        y = alg.elem(*(int(v) for v in rng.integers(-4, 5, 4)))
        _, nx = quat_trace_norm(alg, x)
        _, ny = quat_trace_norm(alg, y)
        _, nxy = quat_trace_norm(alg, alg.mul(x, y))
        assert nxy == nx * ny


def test_conjugate_recovers_trace_and_norm():
    rng = np.random.default_rng(311)
    alg = _algebra_sqrt2()
    for _ in range(40):
        x = alg.elem(*(int(v) for v in rng.integers(-4, 5, 4)))
        tr, nm = quat_trace_norm(alg, x)
        xc = alg.conj(x)
        assert alg.add(x, xc) == alg.scalar(tr)
        assert alg.mul(x, xc) == alg.scalar(nm)


def test_hamilton_is_ramified_everywhere():
    field = field_create([0, 1])  # the rationals: minimal polynomial x
    alg = QuatAlgebra(field=field, a=field.from_rational(-1), b=field.from_rational(-1))
    assert ramification_profile(alg) == (Ramification.RAMIFIED,)
    assert not is_fuchsian_admissible(alg)


def test_matrix_algebra_over_q_is_admissible():
    field = field_create([0, 1])
    alg = QuatAlgebra(field=field, a=field.from_rational(1), b=field.from_rational(1))
    assert ramification_profile(alg) == (Ramification.UNRAMIFIED,)
    assert is_fuchsian_admissible(alg)


def test_sqrt2_algebra_one_unramified_place():
    alg = _algebra_sqrt2()
    profile = ramification_profile(alg)
    assert profile == (Ramification.RAMIFIED, Ramification.UNRAMIFIED)
    assert is_fuchsian_admissible(alg)


def test_admissibility_needs_exactly_one_unramified():
    field = field_create("x^2 - 2")
    # (1, 1): unramified at both real places -> not admissible
    alg = QuatAlgebra(field=field, a=field.one(), b=field.one())
    assert ramification_profile(alg) == (Ramification.UNRAMIFIED, Ramification.UNRAMIFIED)
    assert not is_fuchsian_admissible(alg)


def test_profile_invariant_under_swap_and_squares():
    alg = _algebra_sqrt2()
    field = alg.field
    swapped = QuatAlgebra(field=field, a=alg.b, b=alg.a)
    assert ramification_profile(swapped) == ramification_profile(alg)
    # scaling a by a nonzero square leaves the profile alone
    c = field.from_rational(3)
    scaled = QuatAlgebra(field=field, a=alg.a * c * c, b=alg.b)
    assert ramification_profile(scaled) == ramification_profile(alg)


def test_embedding_generator_relations():
    alg = _algebra_sqrt2()
    mi = embed_unramified(alg, alg.i())
    mj = embed_unramified(alg, alg.j())
    mk = embed_unramified(alg, alg.k())
    eye = np.eye(2)
    sa = alg.field.approx_at(alg.a, 1)  # the unramified place of (sqrt2, -1)
    sb = alg.field.approx_at(alg.b, 1)
    assert np.max(np.abs(mi @ mi - sa * eye)) < 1e-12
    assert np.max(np.abs(mj @ mj - sb * eye)) < 1e-12
    assert np.max(np.abs(mi @ mj - mk)) < 1e-12
    assert np.max(np.abs(mi @ mj + mj @ mi)) < 1e-12


def test_embedding_is_an_algebra_map():
    rng = np.random.default_rng(313)
    alg = _algebra_sqrt2()
    for _ in range(40):
        x = alg.elem(*(int(v) for v in rng.integers(-3, 4, 4)))
        y = alg.elem(*(int(v) for v in rng.integers(-3, 4, 4)))
        mx, my = embed_unramified(alg, x), embed_unramified(alg, y)
        mxy = embed_unramified(alg, alg.mul(x, y))
        assert np.max(np.abs(mx @ my - mxy)) < 1e-10


def test_embedding_trace_and_det():
    rng = np.random.default_rng(317)
    alg = _algebra_sqrt2()
    place = 1
    for _ in range(40):
        x = alg.elem(*(int(v) for v in rng.integers(-5, 6, 4)))
        tr, nm = quat_trace_norm(alg, x)
        m = embed_unramified(alg, x)
        assert abs(np.trace(m) - alg.field.approx_at(tr, place)) < 1e-10
        assert abs(np.linalg.det(m) - alg.field.approx_at(nm, place)) < 1e-9


def test_embedding_swap_branch():
    # a negative at the unramified place forces the (a, b) swap path
    field = field_create("x^2 - 2")
    alg = QuatAlgebra(field=field, a=field.from_rational(-1), b=field.gen())
    assert is_fuchsian_admissible(alg)
    mi = embed_unramified(alg, alg.i())
    mj = embed_unramified(alg, alg.j())
    mk = embed_unramified(alg, alg.k())
    place = 1
    sa = alg.field.approx_at(alg.a, place)
    sb = alg.field.approx_at(alg.b, place)
    eye = np.eye(2)
    assert np.max(np.abs(mi @ mi - sa * eye)) < 1e-12
    assert np.max(np.abs(mj @ mj - sb * eye)) < 1e-12
    assert np.max(np.abs(mi @ mj - mk)) < 1e-12


def test_arithmetic_rotation_number_quarter_turn():
    alg = _algebra_sqrt2()
    t = alg.field.gen()
    half_t = t * alg.field.from_rational(F(1, 2))
    u = alg.elem(half_t, 0, half_t, 0)
    _, nm = quat_trace_norm(alg, u)
    assert nm == alg.field.one()
    theta = arithmetic_rotation_number(alg, u)
    assert theta.exact is None and abs(theta.value - 0.25) < 1e-12
    # numeric cross-check through the projective action, up to mirror
    rho = elliptic_rotation_number(embed_psl2(alg, u))
    assert min(abs(rho - theta.value), abs(1.0 - rho - theta.value)) < 1e-10


def test_arithmetic_rotation_number_half_turn():
    alg = _algebra_sqrt2()
    theta = arithmetic_rotation_number(alg, alg.j())
    assert abs(theta.value - 0.5) < 1e-15


def test_arithmetic_rotation_number_rejections():
    alg = _algebra_sqrt2()
    with pytest.raises(NotNormOne):
        arithmetic_rotation_number(alg, alg.elem(2))
    with pytest.raises(NotElliptic):
        arithmetic_rotation_number(alg, alg.one())
    field = alg.field
    ram = QuatAlgebra(field=field_create([0, 1]), a=field_create([0, 1]).from_rational(-1), b=field_create([0, 1]).from_rational(-1))
    with pytest.raises(NotAdmissible):
        embed_unramified(ram, ram.one())


def test_parse_algebra_spec_round_trip():
    spec = parse_algebra_spec(
        """
        # quadratic example
        field: x^2 - 2
        a: t ; b: -1
        elem u: (t/2) + (t/2)*j
        elem w: 1 + i*j  # k-form
        """
    )
    alg = spec.algebra
    assert alg.a == alg.field.gen()
    u = spec.elements["u"]
    _, nm = quat_trace_norm(alg, u)
    assert nm == alg.field.one()
    assert spec.elements["w"] == alg.add(alg.one(), alg.k())


def test_parse_algebra_spec_errors():
    from rotforce.quatalg import AlgebraSpecError

    with pytest.raises(AlgebraSpecError):
        parse_algebra_spec("a: 1; b: 1")  # missing field
    with pytest.raises(AlgebraSpecError):
        parse_algebra_spec("field: x^2 - 2; a: t; b: -1; elem x: i / j")  # non-scalar division
    with pytest.raises(AlgebraSpecError):
        parse_algebra_spec("field: x^2 - 2; a: nonsense; b: -1")


# ---------------------------------------------------------------------------
# refined embeddings: warm against cold, against the coarse-start path and
# against 50-digit evaluation

# (minimal polynomial, a, b): one field of each degree 1..4, each algebra
# unramified exactly at the largest root (a > 0 only there, b < 0)
ADMISSIBLE = [
    ("x + 3", (2,), (-1,)),
    ("x^2 - 2", (0, 1), (-1,)),
    ("x^2 - 5", (0, 1), (-2,)),
    ("x^3 - 3*x + 1", (-1, 1), (-1,)),
    ("x^4 - 5*x^2 + 5", (F(-3, 2), 1), (-3,)),
    ("x^4 - 10*x^2 + 1", (-1, 1), (-1,)),
]
FIELDS = [text for text, _, _ in ADMISSIBLE]
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# large denominators give small images, whose ulp is far below any fixed
# absolute tolerance
_fraction = st.builds(F, st.integers(-60, 60), st.integers(1, 12) | st.integers(10**5, 10**7))


@st.composite
def _field_elements(draw, count=(1, 6)):
    """A field from FIELDS, a place of it, and a few elements as coefficient lists."""
    text = draw(st.sampled_from(FIELDS))
    degree = pr.degree(field_create(text).minpoly)
    place = draw(st.integers(0, degree - 1))
    elems = draw(st.lists(st.lists(_fraction, min_size=degree, max_size=degree), min_size=count[0], max_size=count[1]))
    return text, place, elems


def _coarse_approx(field: NumberField, coeffs, place: int, eps=F(1, 10**17)) -> float:
    """The approximation path that starts from the coarse isolating interval
    every time and halves it once per refine_root call, stopping when the
    value's enclosure is narrower than eps; returns the enclosure's midpoint."""
    lo, hi = pr.isolate_real_roots(field.minpoly)[place]
    for _ in range(400):
        vlo, vhi = pr.eval_interval(coeffs, lo, hi)
        if vhi - vlo <= eps:
            return float((vlo + vhi) / 2)
        if lo == hi:
            return float(pr.eval_at(coeffs, lo))
        lo, hi = pr.refine_root(field.minpoly, (lo, hi), (hi - lo) / 2)
    raise AssertionError("coarse approximation did not converge")


def _mp_value(field: NumberField, coeffs, place: int) -> mpmath.mpf:
    """The image at the place to 50 digits, at the coarse interval bisected below 2^-180."""
    lo, hi = pr.refine_root(field.minpoly, pr.isolate_real_roots(field.minpoly)[place], F(1, 2**180))
    with mpmath.workdps(50):
        mid = (lo + hi) / 2
        root = mpmath.mpf(mid.numerator) / mid.denominator
        return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * root**k for k, c in enumerate(coeffs))


@SETTINGS
@given(_field_elements())
def test_approx_at_warm_field_matches_fresh_field(case):
    text, place, elems = case
    warm = field_create(text)
    # narrow the place far beyond what one value needs: the sign of the gap
    # between the generator and a float-accurate rational is a ~1e-16 decision
    t = warm.gen()
    warm.sign_at(t - F(warm.approx_at(t, place)), place)
    for coeffs in elems:
        e = warm.elem(coeffs)
        fresh = field_create(text)
        assert warm.approx_at(e, place) == fresh.approx_at(fresh.elem(coeffs), place)
    # every stored interval still isolates the same root as the coarse one
    for (lo, hi), iv in zip(pr.isolate_real_roots(warm.minpoly), warm.embeddings):
        assert lo <= iv.lo <= iv.hi <= hi
        assert iv.lo == iv.hi or pr.count_roots(pr.sturm_chain(warm.minpoly), iv.lo, iv.hi) == 1


@SETTINGS
@given(_field_elements(count=(1, 3)))
def test_approx_at_is_correctly_rounded(case):
    text, place, elems = case
    field = field_create(text)
    for coeffs in elems:
        e = field.elem(coeffs)
        got = field.approx_at(e, place)
        exact = _mp_value(field, e.coeffs, place)
        with mpmath.workdps(50):
            err = abs(exact - mpmath.mpf(got))
        # correctly rounded: within half an ulp of the 50-digit value
        assert err <= mpmath.mpf(math.ulp(got)) / 2
        assert abs(got - _coarse_approx(field, e.coeffs, place)) <= 1e-17 + math.ulp(got)


def _coarse_embedding(alg: QuatAlgebra, x) -> np.ndarray:
    """embed_unramified as written before refinement was cached, over _coarse_approx."""
    f = alg.field
    place = _unramified_place(alg)
    a, b = alg.a, alg.b
    x0, x1, x2, x3 = x.coords()
    if f.sign_at(a, place) < 0:
        a, b = b, a
        x1, x2, x3 = x2, x1, -x3
    av, bv = (_coarse_approx(f, v.coeffs, place) for v in (a, b))
    c0, c1, c2, c3 = (_coarse_approx(f, v.coeffs, place) for v in (x0, x1, x2, x3))
    ra = math.sqrt(av)
    mi = np.array([[ra, 0.0], [0.0, -ra]])
    mj = np.array([[0.0, 1.0], [bv, 0.0]])
    return c0 * np.eye(2) + c1 * mi + c2 * mj + c3 * (mi @ mj)


@settings(SETTINGS, max_examples=25)  # each example runs the coarse path six times
@given(st.sampled_from(ADMISSIBLE), st.booleans(), st.lists(st.integers(-9, 9), min_size=16, max_size=16))
def test_embedding_matches_coarse_path(spec, swap, ints):
    text, a, b = spec
    field = field_create(text)
    a, b = field.elem(a), field.elem(b)
    alg = QuatAlgebra(field=field, a=b, b=a) if swap else QuatAlgebra(field=field, a=a, b=b)
    assert is_fuchsian_admissible(alg)
    d = field.degree
    x = alg.elem(*(field.elem(ints[4 * k : 4 * k + d]) for k in range(4)))
    assert np.max(np.abs(embed_unramified(alg, x) - _coarse_embedding(alg, x))) <= 1e-12


# ---------------------------------------------------------------------------
# sign decisions near zero


# Pell convergents c = p/q with |c - sqrt(D)| ~ 1e-12..1e-13, on both sides
NEAR_ROOTS = [
    ("x^2 - 2", F(665857, 470832), 1),  # 665857^2 - 2*470832^2 = 1: c - sqrt2 ~ 1.6e-12
    ("x^2 - 2", F(275807, 195025), -1),  # 275807^2 - 2*195025^2 = -1: c - sqrt2 ~ -9.3e-12
    ("x^2 - 5", F(930249, 416020), 1),  # 930249^2 - 5*416020^2 = 1: c - sqrt5 ~ 1.3e-12
    ("x^2 - 5", F(3940598, 1762289), -1),  # 3940598^2 - 5*1762289^2 = -1: c - sqrt5 ~ -7.2e-14
]


@pytest.mark.parametrize("text,c,sign", NEAR_ROOTS)
def test_sign_near_zero_cold_and_warm(text, c, sign):
    assert sign == (1 if c * c - int(text[-1]) > 0 else -1)
    field = field_create(text)
    rng = np.random.default_rng(229)
    for state in ("cold", "warm", "warmer"):
        t = field.gen()
        # place 1 is +sqrt(D), where c - t is tiny; at place 0 it is c + sqrt(D) > 0
        assert field.sign_at(c - t, 1) == sign, state
        assert field.sign_at(t - c, 1) == -sign, state
        assert field.sign_at(c - t, 0) == 1, state
        assert field.sign_at(t - c, 0) == -1, state
        for _ in range(20):  # unrelated calls that refine both places further
            e = field.elem([int(v) for v in rng.integers(-50, 51, 2)])
            for place in (0, 1):
                field.approx_at(e, place)
                field.sign_at(e - F(int(rng.integers(-9, 10)), 7), place)


# ---------------------------------------------------------------------------
# work counts: each embedding refines once per field, each profile once per algebra


def _count_calls(monkeypatch, owner, name) -> list[int]:
    count = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


def test_embedding_refines_once_per_field(monkeypatch):
    refines = _count_calls(monkeypatch, pr, "refine_root")
    for text, a, b in ADMISSIBLE[1:]:
        field = field_create(text)
        alg = QuatAlgebra(field=field, a=field.elem(a), b=field.elem(b))
        d = field.degree
        rng = np.random.default_rng(331)
        elems = [alg.elem(*(field.elem([int(v) for v in rng.integers(-9, 10, d)]) for _ in range(4))) for _ in range(41)]
        refines[0] = 0
        embed_unramified(alg, elems[0])
        assert refines[0] > 0, text  # the cold field refines
        refines[0] = 0
        embed_unramified(alg, elems[1])
        assert refines[0] == 0, text
        # a value that sits unusually close to a rounding boundary may take
        # one more step; before the intervals were kept, every element took
        # dozens of refine_root calls per coordinate
        for x in elems[2:]:
            embed_unramified(alg, x)
        assert refines[0] <= 2, text


def test_ramification_profile_computed_once(monkeypatch):
    signs = _count_calls(monkeypatch, NumberField, "sign_at")
    alg = _algebra_sqrt2()
    assert ramification_profile(alg) == (Ramification.RAMIFIED, Ramification.UNRAMIFIED)
    assert signs[0] == 4  # a and b at each of the two places
    for _ in range(3):
        ramification_profile(alg)
        assert is_fuchsian_admissible(alg)
        assert _unramified_place(alg) == 1
    assert signs[0] == 4
    # a new algebra over the same field computes its own
    swapped = QuatAlgebra(field=alg.field, a=alg.b, b=alg.a)
    assert ramification_profile(swapped) == ramification_profile(alg)
    assert signs[0] == 8

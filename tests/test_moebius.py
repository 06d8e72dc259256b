"""Tests for determinant-one matrices, classification, and triangle groups."""

import math

import numpy as np
import pytest

from rotforce.moebius import (
    CLASS_TOL,
    HPoint,
    IsometryClass,
    MoebiusReal,
    NotElliptic,
    NotHyperbolic,
    elliptic_rotation_number,
    hyp_distance,
    rotation_about,
    translation_length,
    triangle_group_rep,
    triangle_side,
)


def _near_identity(m, tol):
    return max(abs(x - y) for x, y in zip(m.entries(), (1.0, 0.0, 0.0, 1.0))) <= tol


def random_matrix(rng):
    while True:
        a, b, c, d = rng.normal(size=4)
        det = a * d - b * c
        if abs(det) > 1e-3:
            break
    if det < 0:
        a, b = b, a
        c, d = d, c
        det = -det
    s = math.sqrt(det)
    return MoebiusReal(a / s, b / s, c / s, d / s)


def test_normalization_determinant_and_sign():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_matrix(rng)
        assert abs(m.det - 1.0) < 1e-12
        # leading nonzero entry is nonnegative
        for e in m.entries():
            if abs(e) > 1e-14:
                assert e > 0
                break


def test_sign_quotient_collapses():
    m = MoebiusReal(2.0, 1.0, 1.0, 1.0)
    n = MoebiusReal(-2.0, -1.0, -1.0, -1.0)
    assert m == n


def test_scaling_invariance():
    m = MoebiusReal(3.0, 0.0, 0.0, 3.0)
    assert m.is_identity()


def test_identity_and_group_ops():
    rng = np.random.default_rng(17)
    eye = MoebiusReal.identity()
    for _ in range(50):
        m = random_matrix(rng)
        assert _near_identity(m @ m.inverse(), 1e-10)
        assert (m @ eye) == m or max(
            abs(x - y) for x, y in zip((m @ eye).entries(), m.entries())
        ) < 1e-12


def test_classification_bands():
    assert MoebiusReal.rotation(0.7).classify() is IsometryClass.ELLIPTIC
    assert MoebiusReal.translation(1.0).classify() is IsometryClass.PARABOLIC
    assert MoebiusReal.dilation(1.0).classify() is IsometryClass.HYPERBOLIC
    assert MoebiusReal.identity().classify() is IsometryClass.IDENTITY
    # just inside the tolerance band around |trace| = 2, but far from identity
    eps = CLASS_TOL / 4
    e = math.sqrt(1.0 + eps)
    assert MoebiusReal(e, 1.0, 0.0, 1.0 / e).classify() is IsometryClass.PARABOLIC


def test_rp1_action_is_a_circle_map():
    rng = np.random.default_rng(23)
    ts = np.linspace(0.0, 1.0, 257, endpoint=False)
    for _ in range(20):
        m = random_matrix(rng)
        vals = np.array([m.rp1(float(t)) for t in ts])
        assert np.all((vals >= 0.0) & (vals < 1.0))
        # degree one: a single descent around the circle
        descents = int(np.sum(np.diff(vals) < 0)) + (1 if vals[-1] > vals[0] else 0)
        assert descents == 1


def test_rotation_matrix_rotation_number():
    for phi in (0.3, 1.1, 2.0, 2.9, -0.7):
        m = MoebiusReal.rotation(phi)
        want = (phi / math.pi) % 1.0
        assert abs(elliptic_rotation_number(m) - want) < 1e-12


def test_elliptic_rotation_number_rejects_non_elliptic():
    with pytest.raises(NotElliptic):
        elliptic_rotation_number(MoebiusReal.dilation(1.0))
    with pytest.raises(NotElliptic):
        elliptic_rotation_number(MoebiusReal.translation(1.0))


def test_rotation_about_fixes_point_and_has_given_angle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = HPoint(float(rng.normal()), float(np.exp(rng.normal())))
        theta = float(rng.uniform(0.01, 0.99))
        m = rotation_about(p, theta)
        q = m.apply_point(p)
        assert hyp_distance(p, q) < 1e-8
        assert abs(elliptic_rotation_number(m) - theta) < 1e-10


def test_rotation_about_composes_angles():
    p = HPoint(0.4, 1.7)
    m = rotation_about(p, 0.2) @ rotation_about(p, 0.3)
    assert abs(elliptic_rotation_number(m) - 0.5) < 1e-10


def test_hyp_distance_on_imaginary_axis():
    for ell in (0.5, 1.0, 2.0):
        assert abs(hyp_distance(HPoint(0, 1), HPoint(0, math.exp(ell))) - ell) < 1e-12


def test_translation_length_frozen_value():
    # trace 3 normalizes to cosh(l/2) = 3/2
    m = MoebiusReal(2.0, 1.0, 1.0, 1.0)
    assert abs(m.trace - 3.0) < 1e-12
    assert abs(translation_length(m) - 1.9248473002384139) < 1e-12
    with pytest.raises(NotHyperbolic):
        translation_length(MoebiusReal.rotation(0.4))


def test_dilation_translation_length():
    for ell in (0.3, 1.0, 2.5):
        assert abs(translation_length(MoebiusReal.dilation(ell)) - ell) < 1e-12


def test_conjugation_preserves_class_and_rotation_number():
    rng = np.random.default_rng(41)
    for _ in range(30):
        g = random_matrix(rng)
        m = rotation_about(HPoint(0.2, 1.3), 0.37)
        c = m.conjugate_by(g)
        assert c.classify() is IsometryClass.ELLIPTIC
        assert abs(elliptic_rotation_number(c) - 0.37) < 1e-9


def test_triangle_side_right_angled_special_case():
    # (pi/2, pi/4, pi/4): cosh c = cos(pi/4)^2 / sin(pi/4)^2 + ... via the rule
    a, b, g = math.pi / 2, math.pi / 4, math.pi / 4
    want = math.acosh((math.cos(a) * math.cos(b) + math.cos(g)) / (math.sin(a) * math.sin(b)))
    assert abs(triangle_side(a, b, g) - want) < 1e-15
    # degenerate euclidean limit: angles summing to pi give side length 0
    assert triangle_side(math.pi / 3, math.pi / 3, math.pi / 3 - 1e-12) < 1e-5


def test_triangle_group_rep_2_3_7():
    A, B, C = triangle_group_rep(2, 3, 7)
    prod = A @ B @ C
    assert _near_identity(prod, 1e-12)
    for m, order in ((A, 2), (B, 3), (C, 7)):
        assert abs(elliptic_rotation_number(m) - 1.0 / order) < 1e-12


def test_triangle_group_rep_other_signatures():
    for p, q, r in ((2, 4, 5), (3, 3, 4), (2, 3, 8)):
        A, B, C = triangle_group_rep(p, q, r)
        assert _near_identity(A @ B @ C, 1e-10)
        for m, order in ((A, p), (B, q), (C, r)):
            assert abs(elliptic_rotation_number(m) - 1.0 / order) < 1e-10


def test_triangle_group_rep_rejects_spherical():
    from rotforce.moebius import NotHyperbolicTriangle

    with pytest.raises(NotHyperbolicTriangle):
        triangle_group_rep(2, 3, 5)  # angle sum exceeds pi
    with pytest.raises(NotHyperbolicTriangle):
        triangle_group_rep(2, 3, 6)  # euclidean


@pytest.mark.parametrize("orders", [(2, 3, -5), (1, 3, 7), (2, 0, 7)])
def test_triangle_group_rep_rejects_orders_below_two(orders):
    # 1/2 + 1/3 + 1/-5 >= 1 was once the reason given for (2, 3, -5)
    with pytest.raises(ValueError, match="^triangle orders must be at least 2") as ei:
        triangle_group_rep(*orders)
    assert type(ei.value) is ValueError


def test_torsion_orders_in_representation():
    A, B, C = triangle_group_rep(2, 3, 7)
    pow_a = A @ A
    assert _near_identity(pow_a, 1e-10)
    pow_c = C
    for _ in range(6):
        pow_c = pow_c @ C
    assert pow_c.is_identity()


def test_apply_moves_upper_half_plane_into_itself():
    rng = np.random.default_rng(53)
    for _ in range(50):
        m = random_matrix(rng)
        z = complex(rng.normal(), float(np.exp(rng.normal())))
        w = m.apply(z)
        assert w.imag > 0


def test_rotation_about_folds_theta_before_scaling():
    # pi * theta once rounded away the fraction: theta = 1e12 + 0.375 read
    # 0.374954..., 1e14 + 0.375 read 0.374381, and 1e308 raised "math domain error"
    from rotforce.circledyn import MoebiusOnRP1, circ_dist, rotation_number

    n = 10_000
    for k in (0.0, 1.0, 1e6, 1e12, 1e14, 1e15):
        est = rotation_number(MoebiusOnRP1(rotation_about(HPoint(0.3, 1.7), k + 0.375)), n)
        assert circ_dist(est.value, 0.375) <= 2.0 / n, k
    assert rotation_about(HPoint(0.0, 1.0), 1e308) == MoebiusReal.identity()


def test_rotation_about_is_bit_identical_on_the_unit_interval():
    # the fold leaves every theta in [0, 1) as it is
    rng = np.random.default_rng(197)
    for theta in [0.0, 0.5, 1.0 - 2.0**-53, *rng.uniform(0.0, 1.0, 50)]:
        p = HPoint(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 3)))
        ry = math.sqrt(p.y)
        g = MoebiusReal(ry, p.x / ry, 0.0, 1.0 / ry)
        assert rotation_about(p, float(theta)) == g @ MoebiusReal.rotation(math.pi * float(theta)) @ g.inverse()

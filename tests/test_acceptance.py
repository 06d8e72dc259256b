"""Top-level acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
with its measured runtime, and enforces the stated tolerance and time
budget.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from rotforce import circledyn, rotarith
from rotforce.circledyn import (
    MoebiusOnRP1,
    denjoy_blowup,
    denjoy_layout,
    euler_cocycle,
    rotation_number,
    rotation_numbers,
)
from rotforce.eulerorb import OrbifoldSig, feasible_tuples
from rotforce.forcing import (
    middle_thirds_cantor,
    outer_approximation,
    parse_presentation,
    propagate,
    replay_certificate,
)
from rotforce.moebius import (
    HPoint,
    MoebiusReal,
    elliptic_rotation_number,
    rotation_about,
    triangle_group_rep,
)
from rotforce.quatalg import (
    QuatAlgebra,
    Ramification,
    _unramified_place,
    embed_unramified,
    field_create,
    is_fuchsian_admissible,
    ramification_profile,
)
from rotforce.rotset import RotSet

F = Fraction


def _report(num: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} ({elapsed:.2f}s)")


def test_criterion_01_klein_quartic_forcing():
    t0 = time.perf_counter()
    sig = OrbifoldSig(0, (2, 3, 7))
    tuples = feasible_tuples(sig, 168, -4, fixed={0: F(1, 2), 1: F(1, 3)})
    ps = sorted(t.rots[2] * 7 for t in tuples)
    # the sign mirror of (1/2, 1/3, 1/7) is (1/2, 2/3, 6/7): p = 1 and 7 - 1
    ok = ps == [1, 6] and len(tuples) == 2
    ok = ok and all(t.rots[0] == F(1, 2) and t.rots[1] in (F(1, 3), F(2, 3)) for t in tuples)
    elapsed = time.perf_counter() - t0
    _report(1, "Klein quartic p=1", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_rational_forcing_sweep():
    t0 = time.perf_counter()
    ok = True
    for q in range(2, 51):
        tuples = feasible_tuples(OrbifoldSig(1, (q,)), 2 * q, -2 * (q - 1), maximal=True)
        ps = sorted({int(t.rots[0] * q) for t in tuples})
        ok = ok and ps == sorted({1, q - 1})
    elapsed = time.perf_counter() - t0
    _report(2, "maximal class p in {1,q-1}", ok and elapsed < 5.0, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_03_deformed_addition_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    count = 0
    worst = 0.0
    sym_worst = 0.0
    while count < 10_000:
        t1 = float(rng.uniform(0.0, 1.0))
        t2 = float(rng.uniform(0.0, 1.0))
        l = float(rng.uniform(0.0, 3.0))
        arg = math.cos(math.pi * t1) * math.cos(math.pi * t2) - math.cosh(l) * math.sin(
            math.pi * t1
        ) * math.sin(math.pi * t2)
        if abs(arg) > 1.0 - 1e-9:
            continue
        count += 1
        v = rotarith.plus_l(t1, t2, l).value
        o = rotarith.plus_l_oracle(t1, t2, l).value
        worst = max(worst, abs(min(v, 1.0 - v) - min(o, 1.0 - o)))
        w = rotarith.plus_l(t2, t1, l).value
        sym_worst = max(sym_worst, abs(v - w))
    add_worst = 0.0
    for _ in range(1000):
        t1, t2 = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        v = rotarith.plus_l(t1, t2, 0.0).value
        s = (t1 + t2) % 1.0
        add_worst = max(add_worst, min(rotarith.circ_dist(v, s), rotarith.circ_dist(v, 1.0 - s)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and sym_worst <= 1e-12 and add_worst <= 1e-12
    _report(3, "plus_l vs oracle on 1e4 samples", ok and elapsed < 10.0, elapsed)
    assert worst <= 1e-9
    assert sym_worst <= 1e-12
    assert add_worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_04_rotation_number_numerics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    mats = []
    for _ in range(100):
        x = float(rng.uniform(-2.0, 2.0))
        y = float(math.exp(rng.uniform(-1.0, 1.0)))
        theta = float(rng.uniform(0.02, 0.98))
        mats.append(rotation_about(HPoint(x, y), theta))
    estimates = rotation_numbers(mats, 200_000)
    worst = max(
        rotarith.circ_dist(est.value, elliptic_rotation_number(m))
        for est, m in zip(estimates, mats)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5
    _report(4, "Poincare estimate vs closed form", ok and elapsed < 30.0, elapsed)
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_criterion_05_triangle_representation():
    t0 = time.perf_counter()
    ma, mb, mc = triangle_group_rep(2, 3, 7)
    eye = np.eye(2)

    def residual(m: MoebiusReal, power: int) -> float:
        acc = m
        for _ in range(power - 1):
            acc = acc @ m
        arr = np.array([[acc.a, acc.b], [acc.c, acc.d]])
        return float(min(np.max(np.abs(arr - eye)), np.max(np.abs(arr + eye))))

    prod = ma @ mb @ mc
    arr = np.array([[prod.a, prod.b], [prod.c, prod.d]])
    res = max(
        residual(ma, 2),
        residual(mb, 3),
        residual(mc, 7),
        float(min(np.max(np.abs(arr - eye)), np.max(np.abs(arr + eye)))),
    )
    rots = [elliptic_rotation_number(m) for m in (ma, mb, mc)]
    rot_err = max(
        abs(rots[0] - 0.5), abs(rots[1] - 1.0 / 3.0), abs(rots[2] - 1.0 / 7.0)
    )
    elapsed = time.perf_counter() - t0
    ok = res <= 1e-9 and rot_err <= 1e-12
    _report(5, "(2,3,7) residuals and rotations", ok, elapsed)
    assert res <= 1e-9
    assert rot_err <= 1e-12


def test_criterion_06_euler_cocycle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)

    def random_map():
        if rng.uniform() < 0.5:
            return MoebiusOnRP1(
                rotation_about(
                    HPoint(float(rng.uniform(-1, 1)), float(math.exp(rng.uniform(-0.7, 0.7)))),
                    float(rng.uniform(0, 1)),
                )
            )
        return MoebiusOnRP1(rotation_about(HPoint(0.0, 1.0), float(rng.uniform(0, 1))))

    ok = True
    for _ in range(1000):
        f, g, h = random_map(), random_map(), random_map()
        c_fg = euler_cocycle(f, g)
        ok = ok and c_fg in (0, 1)
        lhs = c_fg + euler_cocycle(circledyn.Word([f, g]), h)
        rhs = euler_cocycle(g, h) + euler_cocycle(f, circledyn.Word([g, h]))
        ok = ok and lhs == rhs
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(6, "cocycle values and identity", ok, elapsed)
    assert ok


UNIT_TANGENT = """
gens A, B, C, T, X, Y, Z
rels A^2 = T, B^3 = T, C^7 = T, A B C = T
conj (X: A -> A^2)
conj (Y: B -> B^2)
conj (Z: C -> C^2)
mark A, B, C
"""

TRIANGLE_COVER = """
gens A, B, C
rels A B C = 1
torsion A:2, B:3, C:7
orbifold sig=0;2,3,7 degree=168 coverchi=-4 map A:1 map B:2 map C:3
mark C
"""

GENUS_ONE = """
gens alpha, gamma
rels alpha = gamma^2
torsion gamma:5
orbifold sig=1;5 degree=10 coverchi=-8 maximal map gamma:1
mark alpha
"""


def test_criterion_07_constraint_propagation():
    t0 = time.perf_counter()
    ok = True

    p1 = parse_presentation(UNIT_TANGENT)
    r1 = propagate(p1)
    ok = ok and all(r1.marked[g].is_zero_only() for g in ("A", "B", "C"))
    ok = ok and replay_certificate(p1, r1.certificate)

    p2 = parse_presentation(TRIANGLE_COVER)
    r2 = propagate(p2)
    ok = ok and set(r2.marked["C"].points) == {F(0), F(1, 7), F(6, 7)}
    ok = ok and not r2.marked["C"].intervals
    ok = ok and replay_certificate(p2, r2.certificate)

    p3 = parse_presentation(GENUS_ONE)
    r3 = propagate(p3)
    ok = ok and set(r3.marked["alpha"].points) == {F(0), F(2, 5), F(3, 5)}
    ok = ok and replay_certificate(p3, r3.certificate)

    elapsed = time.perf_counter() - t0
    _report(7, "forced sets and certificates", ok, elapsed)
    assert ok


def test_criterion_08_quaternion_module():
    t0 = time.perf_counter()
    rationals = field_create([0, 1])
    hamilton = QuatAlgebra(
        field=rationals, a=rationals.from_rational(-1), b=rationals.from_rational(-1)
    )
    ok = not is_fuchsian_admissible(hamilton)

    field = field_create("x^2 - 2")
    alg = QuatAlgebra(field=field, a=field.gen(), b=field.from_rational(-1))
    profile = ramification_profile(alg)
    ok = ok and is_fuchsian_admissible(alg)
    ok = ok and profile.count(Ramification.UNRAMIFIED) == 1

    place = _unramified_place(alg)
    eye = np.eye(2)
    mi = embed_unramified(alg, alg.i())
    mj = embed_unramified(alg, alg.j())
    mk = embed_unramified(alg, alg.k())
    sa = field.approx_at(alg.a, place)
    sb = field.approx_at(alg.b, place)
    embed_err = max(
        float(np.max(np.abs(mi @ mi - sa * eye))),
        float(np.max(np.abs(mj @ mj - sb * eye))),
        float(np.max(np.abs(mi @ mj - mk))),
        float(np.max(np.abs(mi @ mj + mj @ mi))),
    )
    ok = ok and embed_err <= 1e-12

    rng = np.random.default_rng(80)
    trace_err = 0.0
    for _ in range(1000):
        x = alg.elem(*(int(v) for v in rng.integers(-9, 10, 4)))
        m = embed_unramified(alg, x)
        sigma_tr = field.approx_at(alg.trace(x), place)
        trace_err = max(trace_err, abs(float(np.trace(m)) - sigma_tr))
    ok = ok and trace_err <= 1e-10

    elapsed = time.perf_counter() - t0
    _report(8, "admissibility and embeddings", ok, elapsed)
    assert ok


def test_criterion_09_denjoy_blowup():
    t0 = time.perf_counter()
    theta = (math.sqrt(5.0) - 1.0) / 2.0
    gen = rotation_about(HPoint(0.0, 1.0), theta)
    maps = denjoy_blowup([gen], 0.1, depth=200)
    n = 10_000
    est = rotation_number(maps[0], n)
    deviation = rotarith.circ_dist(est.value, theta)
    ok = deviation <= 2.0 / n + 1e-9

    layout = denjoy_layout([gen], 0.1, depth=200)
    gaps = sorted(e.gap for e in layout.entries)
    disjoint = all(ahi < blo for (_, ahi), (blo, _) in zip(gaps, gaps[1:]))
    ok = ok and disjoint

    elapsed = time.perf_counter() - t0
    _report(9, "golden-mean rotation preserved", ok, elapsed)
    assert deviation <= 2.0 / n + 1e-9
    assert disjoint


def _hausdorff_upper_bound(s: RotSet, anchor_points: list[Fraction]) -> Fraction:
    """Exact sup over x in s of the circular distance to the anchor set."""
    anchors = sorted(set(anchor_points))
    ext = [a - 1 for a in anchors] + anchors + [a + 1 for a in anchors]

    def dist(x: Fraction) -> Fraction:
        i = bisect_left(ext, x)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(ext):
                d = abs(x - ext[j])
                best = d if best is None else min(best, d)
        return best

    worst = F(0)
    pts = [F(p) for p in s.points]
    for lo, hi in s.intervals:
        lo_f, hi_f = F(lo), F(hi)
        pts.extend([lo_f, hi_f])
        inside = [a for a in ext if lo_f < a < hi_f]
        cuts = [lo_f] + inside + [hi_f]
        for a, b in zip(cuts, cuts[1:]):
            pts.append((a + b) / 2)
    for x in pts:
        worst = max(worst, dist(x))
    return worst


def test_criterion_10_outer_approximation():
    t0 = time.perf_counter()
    stages = outer_approximation(lambda i: middle_thirds_cantor(i), 8)
    nested = all(b.is_subset(a) for a, b in zip(stages, stages[1:]))

    # anchor set: stage-8 construction endpoints (all lie in the Cantor set)
    # plus mirrors plus 0; every point of the true symmetrized target is
    # within 3^-8 of an anchor, and conversely anchors lie in the target.
    anchors = [F(0)]
    for lo, hi in middle_thirds_cantor(8):
        anchors.extend([lo, hi, (1 - lo) % 1, (1 - hi) % 1])
    gap = _hausdorff_upper_bound(stages[-1], anchors)
    bound = F(1, 3**8) + F(1, 2**12)
    ok = nested and gap <= bound

    elapsed = time.perf_counter() - t0
    _report(10, "Cantor outer approximation", ok, elapsed)
    assert nested
    assert gap <= bound

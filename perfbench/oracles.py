"""Independent reference computations for the benchmark's answer checks.

Nothing here calls into ``rotforce``: every expected value is derived
from the mathematics, with its own arithmetic (numpy 2x2 matrices,
Python integers and Fractions, 50-digit mpmath roots), so a faster but
wrong program fails its check instead of agreeing with itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product

import numpy as np

# ---------------------------------------------------------------------------
# circle maps and rotation numbers


def circ_dist(a: float, b: float) -> float:
    d = abs(float(a) - float(b)) % 1.0
    return min(d, 1.0 - d)


def rotation_matrix(x: float, y: float, theta: float) -> np.ndarray:
    """The elliptic element fixing x + iy with rotation number theta on RP^1."""
    ry = math.sqrt(y)
    g = np.array([[ry, x / ry], [0.0, 1.0 / ry]])
    c, s = math.cos(math.pi * theta), math.sin(math.pi * theta)
    return g @ np.array([[c, -s], [s, c]]) @ np.linalg.inv(g)


def act(m: np.ndarray, t: float) -> float:
    """Projective action on the coordinate t of RP^1 = R/Z (line at angle pi t)."""
    ct, st = math.cos(math.pi * t), math.sin(math.pi * t)
    return (math.atan2(m[1, 0] * ct + m[1, 1] * st, m[0, 0] * ct + m[0, 1] * st) / math.pi) % 1.0


def elliptic_rot(m: np.ndarray) -> float:
    """Rotation number of an elliptic 2x2 matrix from its trace and lower-left sign.

    Invariant under m -> -m, so the sign normalization of the input is irrelevant.
    """
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    half = (m[0, 0] + m[1, 1]) / (2.0 * math.sqrt(det))
    s = math.sqrt(max(0.0, 1.0 - half * half))
    return (math.atan2(s if m[1, 0] > 0 else -s, half) / math.pi) % 1.0


def cocycle(f: np.ndarray, g: np.ndarray, tie: float = 1e-12) -> int | None:
    """Euler cocycle of two matrix actions with canonical lifts (value at 0 in [0, 1)).

    The lift of f at g(0) in [0, 1) is f(g(0)) plus one exactly when the
    image wrapped below f(0); the composition's canonical lift at 0 is
    f(g(0)) itself.  None marks a numerical tie, where either value is right.
    """
    f0 = act(f, 0.0)
    fg0 = act(f, act(g, 0.0))
    if abs(fg0 - f0) < tie:
        return None
    return 1 if fg0 < f0 else 0


# ---------------------------------------------------------------------------
# deformed addition


def deformed_arg(t1: float, t2: float, l: float) -> float:
    """cos(pi t1) cos(pi t2) - cosh(l) sin(pi t1) sin(pi t2)."""
    a1, a2 = math.pi * t1, math.pi * t2
    return math.cos(a1) * math.cos(a2) - math.cosh(l) * math.sin(a1) * math.sin(a2)


def signed_sum(t1: float, t2: float, l: float) -> float | None:
    """Rotation number of R(i, t1) R(e^l i, t2), composed as matrices; None unless elliptic."""
    m = rotation_matrix(0.0, 1.0, t1 % 1.0) @ rotation_matrix(0.0, math.exp(l), t2 % 1.0)
    if abs(m[0, 0] + m[1, 1]) >= 2.0 - 1e-12:
        return None
    return elliptic_rot(m)


def domain_complement(l: float, theta: float) -> tuple[float, float]:
    """Closed arc [start, end] (ccw) where |deformed_arg(theta, t', l)| >= 1.

    The argument is R cos(pi t' + phi); the arc is centred at -phi/pi with
    half-width acos(1/R)/pi.
    """
    a, b = math.cos(math.pi * theta), math.cosh(l) * math.sin(math.pi * theta)
    r, phi = math.hypot(a, b), math.atan2(b, a)
    half = math.acos(min(1.0, 1.0 / r))
    return ((-half - phi) / math.pi) % 1.0, ((half - phi) / math.pi) % 1.0


def _arc_solutions(amp: float, phase: float, target: float) -> list[float]:
    """t in [0, 1) with amp cos(pi t + phase) = +-target (both signs: lifts of one element)."""
    out = []
    for k in (target, -target):
        if abs(k) <= abs(amp):
            beta = math.acos(max(-1.0, min(1.0, k / amp)))
            out += [((beta - phase) / math.pi) % 1.0, ((-beta - phase) / math.pi) % 1.0]
    return out


def roots_doubling(l: float, c: float) -> list[float]:
    """Every t with t +_l t = c (signed), in closed form."""
    # cos^2 - cosh l sin^2 = ((1 - C) + (1 + C) cos 2 pi t) / 2 with C = cosh l
    big_c = math.cosh(l)
    cands = []
    for k in (math.cos(math.pi * c), -math.cos(math.pi * c)):
        w = (2.0 * k - 1.0 + big_c) / (1.0 + big_c)
        if abs(w) <= 1.0:
            beta = math.acos(w) / (2.0 * math.pi)
            cands += [beta % 1.0, (-beta) % 1.0]
    return _keep_roots([(t,) for t in cands], lambda t: signed_sum(t, t, l), c)


def roots_pair(l: float, a: float, b: float) -> list[tuple[float, float]]:
    """Every (x, y) with x +_l y = a and x +_0 x = b (signed), in closed form."""
    cands = []
    for x in (b / 2.0, (b + 1.0) / 2.0):
        amp_a, amp_b = math.cos(math.pi * x), math.cosh(l) * math.sin(math.pi * x)
        amp, phase = math.hypot(amp_a, amp_b), math.atan2(amp_b, amp_a)
        cands += [(x, y) for y in _arc_solutions(amp, phase, math.cos(math.pi * a))]
    return _keep_roots(cands, lambda x, y: signed_sum(x, y, l), a)


def _keep_roots(cands, fn, target, tol=1e-9):
    out: list = []
    for c in cands:
        v = fn(*c)
        if v is None or circ_dist(v, target) > tol:
            continue
        if not any(max(circ_dist(u, w) for u, w in zip(c, o)) < 1e-6 for o in out):
            out.append(c)
    return sorted(out)


def same_points(found, expected, tol: float) -> bool:
    """Two finite point sets on the torus agree up to tol (coordinatewise circular)."""
    if len(found) != len(expected):
        return False
    used = set()
    for f in found:
        hit = [
            i
            for i, e in enumerate(expected)
            if i not in used and max(circ_dist(u, v) for u, v in zip(f, e)) <= tol
        ]
        if not hit:
            return False
        used.add(hit[0])
    return True


# ---------------------------------------------------------------------------
# orbifold Euler numbers, in integers


def euler_tuples(orders, degree: int, cover_chi: int, maximal=False, pins=None):
    """Set of (n, rots) with the lifted Euler number integral within Milnor-Wood.

    For geometric cover data every cone order divides the degree, so the
    lifted Euler number degree*n - sum k_i degree/p_i is an integer and
    feasibility is |e| <= -chi (== for the maximal class).  Pinned slots
    keep their value; each tuple comes with its orientation mirror.
    """
    if any(degree % p for p in orders):
        raise ValueError("cone orders must divide the degree")
    bound = max(0, -cover_chi)
    pins = pins or {}
    slots = [[int(pins[i] * p)] if i in pins else range(p) for i, p in enumerate(orders)]
    out = set()
    for ks in product(*slots):
        s = sum(k * (degree // p) for k, p in zip(ks, orders))
        # |degree * n - s| <= bound
        for n in range(-((bound - s) // degree), (s + bound) // degree + 1):
            if maximal and abs(degree * n - s) != bound:
                continue
            rots = tuple(Fraction(k, p) for k, p in zip(ks, orders))
            out.add((n, rots))
            nonzero = sum(1 for k in ks if k)
            out.add((nonzero - n, tuple((1 - r) % 1 for r in rots)))
    return out


# ---------------------------------------------------------------------------
# forced sets: a fixed point over finite subsets of Q/Z

FULL = None  # the whole circle


def sym(values) -> frozenset:
    """{0} plus the values and their mirrors, reduced mod 1."""
    out = {Fraction(0)}
    for v in values:
        v = Fraction(v) % 1
        out |= {v, (-v) % 1}
    return frozenset(out)


def multiples(q: int) -> frozenset:
    return frozenset(Fraction(k, q) for k in range(q))


def meet(a, b):
    if a is FULL:
        return b
    if b is FULL:
        return a
    return a & b


def scale(s, k: int):
    return FULL if s is FULL else sym(k * v for v in s)


def preimage(s, m: int):
    m = abs(m)
    return FULL if s is FULL else sym((v + j) / m for v in s for j in range(m))


def plus(a, b):
    if a is FULL or b is FULL:
        return FULL
    return sym(u + v for u in a for v in b)


class ForcingOracle:
    """The greatest simultaneous fixed point of the forcing rules, from the top.

    Every rule intersects one generator's set with a monotone function of
    the others, so chaotic iteration from the full circle reaches the
    same fixed point in any order.  Sets stay finite once torsion applies;
    exclusions are only applied to finite sets.
    """

    def __init__(self, gens):
        self.gens = list(gens)
        self.rules = []

    def torsion(self, g, q):
        self.rules.append(lambda s: {g: multiples(q)})

    def linear(self, m, g, k, h):
        """m rot(g) = k rot(h)."""
        if g == h:
            if m != k:
                self.rules.append(lambda s: {g: multiples(abs(k - m))})
            return
        self.rules.append(lambda s: {g: preimage(scale(s[h], k), m), h: preimage(scale(s[g], m), k)})

    def commuting(self, a, i, b, j, c, k):
        """a^i b^j = c^k with a, b commuting."""
        self.rules.append(
            lambda s: {
                c: preimage(plus(scale(s[a], i), scale(s[b], j)), k),
                a: preimage(plus(scale(s[c], k), scale(s[b], j)), i),
                b: preimage(plus(scale(s[c], k), scale(s[a], i)), j),
            }
        )

    def orbifold(self, orders, degree, cover_chi, maximal, cone_map):
        tuples = euler_tuples(orders, degree, cover_chi, maximal)

        def rule(s):
            live = [
                rots for _, rots in tuples if all(s[g] is FULL or rots[i] in s[g] for g, i in cone_map)
            ]
            return {g: sym(rots[i] for rots in live) for g, i in cone_map}

        self.rules.append(rule)

    def exclude(self, g, l, theta):
        start, end = domain_complement(l, theta)

        def rule(s):
            if s[g] is FULL:
                raise ValueError("exclusion oracle needs a finite set")
            keep = [v for v in s[g] if in_arc(float(v), start, end) or in_arc(float(-v % 1), start, end)]
            return {g: sym(keep)}

        self.rules.append(rule)

    def solve(self, extra_pins=None):
        state = {g: FULL for g in self.gens}
        rules = list(self.rules)
        for g, values in (extra_pins or {}).items():
            rules.insert(0, lambda s, g=g, values=values: {g: sym(values)})
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for g, v in rule(state).items():
                    nxt = meet(state[g], v)
                    if nxt != state[g]:
                        state[g], changed = nxt, True
        return state


def in_arc(x: float, start: float, end: float) -> bool:
    """x on the closed ccw arc from start to end."""
    return (x - start) % 1.0 <= (end - start) % 1.0


# ---------------------------------------------------------------------------
# program sets, read back from RotSet objects or their JSON


def read_endpoint(v):
    if isinstance(v, str):
        return Fraction(v) if "/" in v or v.lstrip("-").isdigit() else float(v)
    return v


def as_finite(points, intervals):
    """A program set as an oracle value: FULL, a frozenset, or False when it has arcs."""
    ivs = [(read_endpoint(a), read_endpoint(b)) for a, b in intervals]
    if ivs == [(0, 1)] and not points:
        return FULL
    if ivs:
        return False
    pts = [read_endpoint(p) for p in points]
    if not all(isinstance(p, Fraction) for p in pts):
        return False
    return frozenset(pts)


def set_subset(inner, outer) -> bool:
    """Containment of two program sets given as (points, intervals) pairs."""
    pts_o = [read_endpoint(p) for p in outer[0]]
    ivs_o = [(read_endpoint(a), read_endpoint(b)) for a, b in outer[1]]

    def has(x):
        return any(x == p for p in pts_o) or any(a <= x <= b for a, b in ivs_o) or (
            x == 0 and any(b == 1 for _, b in ivs_o)
        )

    if not all(has(read_endpoint(p)) for p in inner[0]):
        return False
    for a, b in inner[1]:
        a, b = read_endpoint(a), read_endpoint(b)
        if not any(lo <= a and b <= hi for lo, hi in ivs_o):
            return False
    return True


def certificate_chains(entries, gens, final) -> bool:
    """Each entry shrinks its generator's previous set; the last entries give the final sets.

    ``entries`` are (generator, points, intervals) in order, starting from
    the full circle for every generator in ``gens``; ``final`` maps some
    generators to their reported (points, intervals).
    """
    state = {g: ((), (("0", "1"),)) for g in gens}
    for g, pts, ivs in entries:
        if g not in state:
            return False
        new = (tuple(pts), tuple(tuple(iv) for iv in ivs))
        if not set_subset(new, state[g]) or set_subset(state[g], new):
            return False
        state[g] = new
    return all(set_subset(state[g], final[g]) and set_subset(final[g], state[g]) for g in final)


# ---------------------------------------------------------------------------
# outer approximations: exact containment and Hausdorff distance


def cantor_stage(stage: int) -> list[tuple[Fraction, Fraction]]:
    ivs = [(Fraction(0), Fraction(1))]
    for _ in range(stage):
        ivs = [piece for lo, hi in ivs for piece in ((lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
    return ivs


def _mirror_arcs(arcs):
    """The arcs (inside [0, 1]) together with their images under x -> 1 - x."""
    return [iv for lo, hi in arcs for iv in ((lo, hi), (1 - hi, 1 - lo))]


def hausdorff_ok(points, intervals, cover, near, bound: Fraction) -> bool:
    """Exact check of an outer approximation against its target.

    The target is 0 plus closed arcs and their mirrors.  ``cover`` are arcs
    that hold the target, each of which must lie inside one arc of the set;
    ``near`` are arcs (points as (x, x)) inside the target, and every point
    of the set must lie within ``bound`` of them.  The distance to a union of
    arcs is piecewise linear with corners at arc ends and at midpoints
    between consecutive ends, so its supremum over the set is attained at a
    set point, an arc end, or one of those corners inside an arc.
    """
    arcs = sorted((Fraction(a), Fraction(b)) for a, b in intervals)
    pts = [Fraction(p) for p in points]
    for lo, hi in _mirror_arcs([(Fraction(a), Fraction(b)) for a, b in cover]):
        i = bisect_right(arcs, (lo, Fraction(2))) - 1
        covered = i >= 0 and arcs[i][0] <= lo and hi <= arcs[i][1]
        if not covered and not (lo == hi and lo in pts):
            return False
    target: list[list[Fraction]] = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)]]
    for lo, hi in _mirror_arcs([(Fraction(a), Fraction(b)) for a, b in near]):
        target.append([lo, hi])
    target.sort()
    merged: list[list[Fraction]] = []
    for lo, hi in target:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    starts = [lo for lo, _ in merged]
    ends = sorted({e for iv in merged for e in iv})

    def dist(x: Fraction) -> Fraction:
        i = bisect_right(starts, x) - 1
        if i >= 0 and x <= merged[i][1]:
            return Fraction(0)
        j = bisect_left(ends, x)
        return min(abs(x - ends[k]) for k in (j - 1, j) if 0 <= k < len(ends))

    corners = sorted(set(ends) | {(u + v) / 2 for u, v in zip(ends, ends[1:])})
    probes = list(pts)
    for a, b in arcs:
        probes += [a, b] + corners[bisect_right(corners, a) : bisect_left(corners, b)]
    return all(dist(x) <= bound for x in probes)


def nested(stages) -> bool:
    """Each stage (points, intervals) contains the next."""
    return all(set_subset(b, a) for a, b in zip(stages, stages[1:]))


# ---------------------------------------------------------------------------
# number fields at 50 digits


def field_roots(coeffs):
    """Real roots (ascending, 50 digits) of the ascending-coefficient polynomial."""
    import mpmath

    with mpmath.workdps(60):
        desc = [mpmath.mpf(int(c)) for c in reversed(coeffs)]
        if len(desc) == 2:
            return [-desc[1] / desc[0]]
        roots = mpmath.polyroots(desc, maxsteps=200, extraprec=200)
        return sorted(mpmath.re(r) for r in roots)


def isolates(lo: Fraction, hi: Fraction, root) -> bool:
    """The rational interval (lo, hi] (or the point lo == hi) holds the mpmath root."""
    import mpmath

    with mpmath.workdps(60):
        mlo, mhi = (mpmath.mpf(v.numerator) / v.denominator for v in (Fraction(lo), Fraction(hi)))
        return mlo < root <= mhi or (lo == hi and abs(root - mlo) < mpmath.mpf(10) ** -45)


def at(poly, root):
    """Value at a root of an element given as ascending Fraction coefficients."""
    import mpmath

    with mpmath.workdps(60):
        acc = mpmath.mpf(0)
        for c in reversed(list(poly)):
            acc = acc * root + mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
        return acc


def quat_trace_norm_at(a, b, x, root):
    """(trace, reduced norm) of x0 + x1 i + x2 j + x3 k in (a, b / F) at one real place."""
    va, vb = at(a, root), at(b, root)
    x0, x1, x2, x3 = (at(c, root) for c in x)
    return 2 * x0, x0 * x0 - va * x1 * x1 - vb * x2 * x2 + va * vb * x3 * x3


def profile_at(a, b, roots) -> list[str]:
    """Archimedean ramification: ramified exactly where a and b are both negative."""
    return ["ramified" if at(a, r) < 0 and at(b, r) < 0 else "unramified" for r in roots]


def embedding_ok(matrix, a, b, x, root, tol=1e-10) -> bool:
    """A 2x2 image of x through a real place has x's trace and norm there."""
    m = np.asarray(matrix, dtype=float)
    tr, nrd = quat_trace_norm_at(a, b, x, root)
    return abs(float(m[0, 0] + m[1, 1]) - float(tr)) <= tol * max(1.0, abs(float(tr))) and abs(
        float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) - float(nrd)
    ) <= tol * max(1.0, abs(float(nrd)))


def arithmetic_rot(a, b, x, root) -> float:
    """Unsigned rotation number acos(trace/2)/pi of a norm-one element at a place."""
    import mpmath

    tr, nrd = quat_trace_norm_at(a, b, x, root)
    with mpmath.workdps(60):
        return float(mpmath.acos(tr / (2 * mpmath.sqrt(nrd))) / mpmath.pi)

"""Exact real-root machinery for rational polynomials.

Polynomials are tuples of Fractions in ascending order (index = power).
Root counting uses Sturm chains; root locations are rational intervals
that can be bisected to any width.  Everything is exact -- floats never
enter a sign decision.

The kernels (evaluation, interval evaluation, bisection, products and
division) clear denominators once and then run on Python ints: a
polynomial becomes integer numerators over the least common denominator
of its coefficients, and an interval becomes integer endpoint numerators
over one common denominator q, which bisection doubles.  A Fraction is
built only for a result, one per returned coefficient or endpoint, so
each result costs one gcd rather than one per arithmetic step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Coeffs = tuple[Fraction, ...]


def poly(coeffs: Sequence) -> Coeffs:
    """Normalize to a trimmed ascending Fraction tuple."""
    return _trim([Fraction(x) for x in coeffs])


def _trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _numerators(p: Sequence) -> tuple[list[int], int]:
    """Integer numerators n with p = n / d, for the least common denominator d > 0
    of the rationals (Fractions or ints) in p."""
    d = lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p], d


def _horner(n: list[int], x: int, q: int) -> tuple[int, int]:
    """(a, q**deg) with a / q**deg equal to the polynomial of numerators n at x/q."""
    a, qk = (n[-1] if n else 0), 1
    for c in reversed(n[:-1]):
        qk *= q
        a = a * x + c * qk
    return a, qk


def _sign(n: list[int], x: int, q: int) -> int:
    a = _horner(n, x, q)[0]
    return (a > 0) - (a < 0)


def degree(p: Coeffs) -> int:
    return len(p) - 1


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    return _trim([a + b for a, b in zip(p, q)] + list(p[len(q):]))


def neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return add(p, neg(q))


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    (np_, dp), (nq, dq) = _numerators(p), _numerators(q)
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(np_):
        if a:
            for j, b in enumerate(nq):
                out[i + j] += a * b
    d = dp * dq
    return tuple(Fraction(c, d) for c in _trim(out))


def scale(p: Coeffs, k) -> Coeffs:
    return _trim([k * c for c in p])


def divmod_poly(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder by pseudo-division on integer numerators.

    With p = n/dp and q = m/dq it keeps s*n = quo*m + r in ints, multiplying
    s, quo and r by the smallest factor of m's leading coefficient that
    makes a leading term divide exactly, and only when one does not; a
    monic integer divisor never multiplies."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    (r, dp), (m, dq) = _numerators(p), _numerators(q)
    quo = [0] * max(len(p) - len(q) + 1, 1)
    top_m, s = m[-1], 1
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(m):
        k = len(r) - len(m)
        top = r[-1]
        if top % top_m:
            f = abs(top_m) // gcd(top, top_m)
            s *= f
            r = [c * f for c in r]
            quo = [c * f for c in quo]
            top *= f
        f = top // top_m
        quo[k] = f
        for i, c in enumerate(m):
            r[i + k] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return (
        tuple(Fraction(c * dq, s * dp) for c in _trim(quo)),
        tuple(Fraction(c, s * dp) for c in r),
    )


def deriv(p: Coeffs) -> Coeffs:
    return _trim([i * c for i, c in enumerate(p)][1:])


def eval_at(p: Coeffs, x) -> Fraction:
    """p at the rational x (a Fraction or an int)."""
    n, d = _numerators(p)
    a, qk = _horner(n, x.numerator, x.denominator)
    return Fraction(a, d * qk)


def eval_interval(p: Coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval-arithmetic range bound of p over [lo, hi] (Horner with interval ops)."""
    n, d = _numerators(p)
    (lo_, hi_), q = _numerators((lo, hi))
    alo = ahi = n[-1] if n else 0
    qk = 1
    for c in reversed(n[:-1]):
        qk *= q
        cands = (alo * lo_, alo * hi_, ahi * lo_, ahi * hi_)
        alo, ahi = min(cands) + c * qk, max(cands) + c * qk
    return Fraction(alo, d * qk), Fraction(ahi, d * qk)


def gcd_poly(p: Coeffs, q: Coeffs) -> Coeffs:
    while q:
        p, q = q, divmod_poly(p, q)[1]
    if p and p[-1] != 0:
        p = scale(p, 1 / p[-1])
    return p


def squarefree_part(p: Coeffs) -> Coeffs:
    g = gcd_poly(p, deriv(p))
    if degree(g) <= 0:
        return p
    return divmod_poly(p, g)[0]


def cauchy_bound(p: Coeffs) -> Fraction:
    """All real roots of p lie strictly inside (-B, B)."""
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def sturm_chain(p: Coeffs) -> list[Coeffs]:
    chain = [p, deriv(p)]
    while chain[-1]:
        r = divmod_poly(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(neg(r))
    return [c for c in chain if c]


def _variations(chain: list[list[int]], x: int, q: int) -> int:
    """Sign changes along a chain of numerator lists at x/q."""
    signs = [s for s in (_sign(n, x, q) for n in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Coeffs], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the half-open interval (lo, hi]; p must be squarefree."""
    nums = [_numerators(c)[0] for c in chain]
    (lo_, hi_), q = _numerators((lo, hi))
    return _variations(nums, lo_, q) - _variations(nums, hi_, q)


def count_real_roots(p: Coeffs) -> int:
    p = squarefree_part(p)
    b = cauchy_bound(p)
    return count_roots(sturm_chain(p), -b, b)


def isolate_real_roots(p: Coeffs) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (lo, hi], each holding exactly one real root,
    in ascending order.  p must be squarefree."""
    chain = [_numerators(c)[0] for c in sturm_chain(p)]
    b = cauchy_bound(p)
    out: list[tuple[Fraction, Fraction]] = []

    def split(lo: int, hi: int, q: int, vlo: int, vhi: int):
        # the interval (lo/q, hi/q] holds vlo - vhi roots; its midpoint is (lo + hi)/2q
        if vlo - vhi == 1:
            out.append((Fraction(lo, q), Fraction(hi, q)))
        elif vlo > vhi:
            mid, q2 = lo + hi, 2 * q
            vmid = _variations(chain, mid, q2)
            split(2 * lo, mid, q2, vlo, vmid)
            split(mid, 2 * hi, q2, vmid, vhi)

    bn, bd = b.numerator, b.denominator
    split(-bn, bn, bd, _variations(chain, -bn, bd), _variations(chain, bn, bd))
    return out


def refine_root(p: Coeffs, interval: tuple[Fraction, Fraction], eps: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval (lo, hi] below width eps > 0 by exact bisection.

    The endpoints are lo/q and hi/q for integers lo, hi, q; a halving maps
    them to 2lo, 2hi, 2q with midpoint lo + hi, and a sign is the sign of
    the numerator that Horner's rule gives at x/q."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"refine_root needs eps > 0, got eps = {eps}")
    n = _numerators(p)[0]
    (lo, hi), q = _numerators(interval)
    if _sign(n, hi, q) == 0:
        root = Fraction(hi, q)
        return root, root
    # lo may sit on a neighboring root; nudge inward until the sign is defined
    slo = _sign(n, lo, q)
    while slo == 0:
        lo, hi, q = 1024 * lo + (hi - lo), 1024 * hi, 1024 * q
        slo = _sign(n, lo, q)
    if slo == _sign(n, hi, q):
        raise ValueError("interval does not bracket a sign change of a squarefree polynomial")
    en, ed = eps.numerator, eps.denominator
    while (hi - lo) * ed > en * q:
        mid = lo + hi
        lo, hi, q = 2 * lo, 2 * hi, 2 * q
        sm = _sign(n, mid, q)
        if sm == 0:
            root = Fraction(mid, q)
            return root, root
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, q), Fraction(hi, q)

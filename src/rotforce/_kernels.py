"""The orbit loop behind rotation-number estimates, and its elliptic closed form.

Every estimate is the canonical-lift total F^n(x) - x of a circle
homeomorphism f, where F is the lift with F(0) in [0, 1).  For t in
[0, 1), F(t) = f(t) + [f(t) < f(0)], so one step of an orbit contributes
``f(t) - t + (f(t) < f(0))`` and n steps telescope to F^n(x) - x.
:func:`lift_total` takes that sum step by step, on Python floats for one
orbit or on numpy arrays for a batch of orbits (one per map); it is the
one general path, and the only one for piecewise-linear maps, words and
non-elliptic matrices.  The two primitive map kinds supply their steps
here: the projective action of determinant-one matrices (:func:`rp1`)
and piecewise-linear maps evaluated from an extended breakpoint table
(:func:`pl_table`, :func:`pl_eval`).

An elliptic matrix M (|trace| < 2 - ``CLASS_TOL``, the band of
``MoebiusReal.classify``) is conjugate to a rigid rotation, so
:func:`elliptic_lift_totals` gives the same total in O(1) with no orbit.
Its fixed point in the upper half-plane is x + iy with x = (a - d)/2c
and y = sin(pi rho)/|c|, rho its rotation number in [0, 1).  The upper
triangular g = [[sqrt y, x/sqrt y], [0, 1/sqrt y]] carries i there and
fixes t = 0 on RP^1, so G(t) = atan2(sin pi t, y cos pi t + x sin pi t)/pi
maps [0, 1] onto itself with no branch to choose, and G(t + k) = G(t) + k
lifts g.  The canonical lift of M is then G(G^-1(t) + rho) (its value at
0 is G(rho), in [0, 1)), hence F^n(x) = G(G^-1(x) + n rho).  That is
continuous in n rho and decides no jump, so an orbit that closes up
cannot drop a turn.

Orbits start at the golden section ``ORBIT_START`` = (sqrt 5 - 1)/2, not
at 0.  F jumps at 0, and an orbit of 0 under a rotation by p/q returns
to 0 every q steps, where rounding would decide the jump and could drop
a whole turn each time the orbit closes.  An orbit of the golden section
under a rotation by p/q keeps at least about 0.38/q^2 away from 0.  The
estimate total/n keeps its 2/n error bound from any start, because
|F^n(x) - x - n rot(f)| < 1 for every x.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .moebius import CLASS_TOL

ORBIT_START = (math.sqrt(5.0) - 1.0) / 2.0


def lift_total(step, n: int, start):
    """Canonical-lift displacement F^n(start) - start after n steps of ``step``.

    ``step`` maps circle coordinates in [0, 1) into [0, 1).  ``start`` is a
    float, or a numpy array of starting points that ``step`` maps
    elementwise (one orbit per map of a batch).
    """
    zero = start * 0.0
    f0 = step(zero)
    t = start
    total = zero
    for _ in range(n):
        tp = step(t)
        total += tp - t + (tp < f0)
        t = tp
    return total


def rp1(a, b, c, d, t):
    """Projective action of [[a, b], [c, d]] on RP^1 coordinates, elementwise.

    Vector counterpart of ``MoebiusReal.rp1``: entries and ``t`` may be
    numpy arrays that broadcast together.
    """
    ct = np.cos(np.pi * t)
    st = np.sin(np.pi * t)
    return (np.arctan2(c * ct + d * st, a * ct + b * st) / np.pi) % 1.0


def elliptic_rotation_numbers(a, c, d):
    """Rotation numbers in [0, 1) of elliptic matrices, elementwise.

    The formula of ``moebius.elliptic_rotation_number``: the angle phi of
    the conjugate rotation has cos(phi) = trace/2 and the sign of c.
    """
    half = (a + d) / 2.0
    s = np.sqrt(1.0 - half * half)
    return (np.arctan2(np.copysign(s, c), half) / np.pi) % 1.0


def elliptic_lift_totals(a, b, c, d, n: int):
    """F^n(ORBIT_START) - ORBIT_START in closed form for elliptic matrices.

    Entries are floats or numpy arrays of determinant-one matrices with
    |a + d| < 2 - ``CLASS_TOL``, of either sign.
    """
    rho = elliptic_rotation_numbers(a, c, d)
    x = (a - d) / (2.0 * c)  # fixed point x + iy
    y = np.sin(np.pi * rho) / np.abs(c)
    u = math.pi * ORBIT_START
    # G^-1(ORBIT_START) + n rho, then F^n(ORBIT_START) = G of that
    lifted = np.arctan2(y * math.sin(u), math.cos(u) - x * math.sin(u)) / np.pi + n * rho
    turns = np.floor(lifted)
    r = np.pi * (lifted - turns)
    return turns + np.arctan2(np.sin(r), y * np.cos(r) + x * np.sin(r)) / np.pi - ORBIT_START


def moebius_lift_totals(mats, n: int) -> np.ndarray:
    """Canonical-lift totals after n iterations for a batch of matrices.

    ``mats`` is (m, 4) in (a, b, c, d) order, determinant one.  The
    rotation-number estimate for row i is ``out[i] / n`` reduced mod 1.
    Elliptic rows take :func:`elliptic_lift_totals`, the others one
    batched :func:`lift_total` loop.
    """
    mats = np.asarray(mats, dtype=np.float64).reshape(-1, 4)
    elliptic = np.abs(mats[:, 0] + mats[:, 3]) < 2.0 - CLASS_TOL
    out = np.empty(len(mats))
    out[elliptic] = elliptic_lift_totals(*mats[elliptic].T, n)
    rest = ~elliptic
    if rest.any():
        a, b, c, d = mats[rest].T
        out[rest] = lift_total(lambda t: rp1(a, b, c, d, t), n, np.full(len(a), ORBIT_START))
    return out


def pl_table(xs, ys) -> tuple[list[float], list[float]]:
    """Lift breakpoints extended one period past each end.

    With ``xs`` in [0, 1) and the periodic extension f(x + 1) = f(x) + 1,
    every r in [0, 1) then lies inside a segment of the table.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    return [xs[-1] - 1.0, *xs, xs[0] + 1.0], [ys[-1] - 1.0, *ys, ys[0] + 1.0]


def pl_eval(xe: list[float], ye: list[float], r: float) -> float:
    """Lift value at r in [0, 1) from a table built by :func:`pl_table`."""
    i = bisect_right(xe, r) - 1
    x0, y0 = xe[i], ye[i]
    return y0 + (r - x0) * (ye[i + 1] - y0) / (xe[i + 1] - x0)


def pl_lift_total(xs, ys, n: int) -> float:
    """Canonical-lift total after n iterations of a piecewise-linear map."""
    xe, ye = pl_table(xs, ys)
    return lift_total(lambda t: pl_eval(xe, ye, t) % 1.0, n, ORBIT_START)

"""The orbit loop behind every rotation-number estimate.

Everything expensive in this package reduces to iterating a circle
homeomorphism f and adding up the displacements of its canonical lift F
(the lift with F(0) in [0, 1)).  For t in [0, 1),
F(t) = f(t) + [f(t) < f(0)], so one step of an orbit contributes
``f(t) - t + (f(t) < f(0))`` and n steps telescope to F^n(x) - x.
:func:`lift_total` is the only place that sum is taken.  It runs one
orbit on Python floats, or a batch of orbits (one per map) on numpy
arrays.  The two primitive map kinds supply their steps here: the
projective action of determinant-one matrices (:func:`rp1`) and
piecewise-linear maps evaluated from an extended breakpoint table
(:func:`pl_table`, :func:`pl_eval`).

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


def moebius_lift_totals(mats, n: int) -> np.ndarray:
    """Canonical-lift totals after n iterations for a batch of matrices.

    ``mats`` is (m, 4) in (a, b, c, d) order, determinant one.  The
    rotation-number estimate for row i is ``out[i] / n`` reduced mod 1.
    """
    mats = np.asarray(mats, dtype=np.float64).reshape(-1, 4)
    a, b, c, d = mats.T
    return lift_total(lambda t: rp1(a, b, c, d, t), n, np.full(len(mats), ORBIT_START))


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

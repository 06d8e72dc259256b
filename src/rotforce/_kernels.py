"""Lift totals behind rotation-number estimates: the orbit loops and the matrix closed form.

Every estimate is a lift total F^n(x) - x of a circle homeomorphism f.
The canonical lift F is the one with F(0) in [0, 1); any other lift is
F + k for an integer k, which adds k to the estimate total/n and nothing
to it mod 1.  An orbit loop adds the steps F(t) - t of a lift and folds
only the point it carries forward, so no turn is decided by comparing
two circle points.  A lone piecewise-linear map reads the canonical
lift table its constructor built (:func:`pl_lift_total`).  A word sums
its letters' steps (:func:`_word_lift_total`): a piecewise-linear letter
reads its table, and a matrix letter turns each point by the angle from
v to sMv (:func:`_moebius_lift`).  The two primitive map kinds supply
their steps here: the projective action of determinant-one matrices
(:func:`rp1`) and piecewise-linear maps evaluated from an extended
breakpoint table (:func:`pl_table`, :func:`pl_eval`).  Every circle
point a module returns or stores is folded onto [0, 1) here, by
:func:`unit` for arrays and :func:`unit_float` for one float.

A matrix M takes no orbit (:func:`moebius_lift_totals`).  The total is
``frac`` plus whole turns.  ``frac`` = f^n(x) - x is read off
M^n = s_n M - s_(n-1) I (Cayley-Hamilton), where s_n = sin(n phi)/sin phi
for trace 2 cos phi and s_n = +-sinh(n theta)/sinh theta for trace
+-2 cosh theta.  Only their ratio acts on RP^1, and it stays finite for
any n.  Repeated squaring of M would not do: a parabolic M is a Jordan
block, whose squares lose every digit by n = 2^25 and overflow by 2^30.
The turns come from the class of M:

* Elliptic (|trace| < 2, c != 0): M is conjugate to a rigid rotation, so
  :func:`elliptic_lift_totals` gives the total in O(1).  Its fixed point
  in the upper half-plane is x + iy with x = (a - d)/2c and
  y = sin(pi rho)/|c|, rho its rotation number in [0, 1).  The upper
  triangular g = [[sqrt y, x/sqrt y], [0, 1/sqrt y]] carries i there and
  fixes t = 0 on RP^1, so G(t) = atan2(sin pi t, y cos pi t + x sin pi t)/pi
  maps [0, 1] onto itself with no branch to choose, and G(t + k) = G(t) + k
  lifts g.  The canonical lift of M is then G(G^-1(t) + rho) (its value
  at 0 is G(rho), in [0, 1)), hence F^n(x) = G(G^-1(x) + n rho).  That is
  continuous in n rho and decides no jump, so an orbit that closes up
  cannot drop a turn.  Near |trace| = 2 the conjugacy loses digits, so
  only the turns of this total are kept: total = frac + round(it - frac).
* Otherwise M has a fixed point on the circle.  Up to sign its trace is
  positive, so its eigenvalues are, and no vector v goes to -v.  Turning
  each v by the angle from v to Mv, in (-pi, pi), lifts f to a map that
  fixes every lift of every fixed point.  The canonical lift F is that
  map plus k turns: k is f(0) - atan2(c, a)/pi for the sign of M with
  positive trace, rounded to an integer, with f(0) folded onto [0, 1).
  No fixed point is compared with f(0), which rounding would decide
  when both lie within rounding of 0.  G = F - k fixes every lift of
  every fixed point, so the G-orbit of x stays between two of them and
  moves less than a turn, in the direction of sign(G(x) - x): the total
  is n k plus ``frac`` lifted into [0, 1) or (-1, 0] by that sign.  A
  step G(x) - x within rounding of 0 has no sign, and ``frac`` is lifted
  into [-1/2, 1/2].

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
_STEP_TOL = 1e-15  # a few roundings of a circle coordinate in [0, 1)


def unit(x):
    """x mod 1 in [0, 1), elementwise.

    ``x % 1.0`` rounds a tiny negative x up to 1.0, which is 0 reached
    from below; it is folded to 0.0 here.
    """
    x = x - np.floor(x)
    return x - (x >= 1.0)


def unit_float(x: float) -> float:
    """Scalar twin of :func:`unit` for one Python float."""
    x %= 1.0
    return 0.0 if x == 1.0 else x


def rp1(a, b, c, d, t):
    """Projective action of [[a, b], [c, d]] on RP^1 coordinates, elementwise.

    Vector counterpart of ``MoebiusReal.rp1``: entries and ``t`` may be
    numpy arrays that broadcast together.
    """
    ct = np.cos(np.pi * t)
    st = np.sin(np.pi * t)
    return unit(np.arctan2(c * ct + d * st, a * ct + b * st) / np.pi)


def elliptic_rotation_numbers(a, c, d):
    """Rotation numbers in [0, 1) of elliptic matrices, elementwise.

    The formula of ``moebius.elliptic_rotation_number``: the angle phi of
    the conjugate rotation has cos(phi) = trace/2 and the sign of c.
    """
    half = (a + d) / 2.0
    s = np.sqrt((1.0 - half) * (1.0 + half))
    return unit(np.arctan2(np.copysign(s, c), half) / np.pi)


def elliptic_lift_totals(a, b, c, d, n: int):
    """F^n(ORBIT_START) - ORBIT_START in closed form for elliptic matrices.

    Entries are floats or numpy arrays of determinant-one matrices with
    |a + d| < 2 and c != 0, of either sign.
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
    """F^n(ORBIT_START) - ORBIT_START in closed form for a batch of matrices.

    ``mats`` is (m, 4) in (a, b, c, d) order, determinant one, of either
    sign.  The rotation-number estimate for row i is ``out[i] / n``
    reduced mod 1.  Every row costs O(1) for any n: ``frac`` is read off
    M^n and the whole turns come from the row's class (module docstring).
    """
    mats = np.asarray(mats, dtype=np.float64).reshape(-1, 4)
    # one row as numpy scalars, on which each numpy call costs a third of one on a one-row array
    a, b, c, d = mats.T if len(mats) > 1 else mats[0]
    s = np.sqrt(a * d - b * c)  # determinant one beyond rounding, as M^n assumes; RP^1 sees no scale
    a, b, c, d = a / s, b / s, c / s, d / s
    rotation = (np.abs(a + d) < 2.0) & (c != 0.0)
    if np.ndim(rotation) == 0:
        return np.array([(_rotation_totals if rotation else _fixed_point_totals)(a, b, c, d, n)])
    cols = np.array([a, b, c, d])
    out = np.empty(len(rotation))
    for rows, totals in ((rotation, _rotation_totals), (~rotation, _fixed_point_totals)):
        if rows.any():
            out[rows] = totals(*cols[:, rows], n)
    return out


def _rotation_totals(a, b, c, d, n: int):
    """Totals of elliptic rows (|trace| < 2, c != 0), turns from the conjugacy to a rotation."""
    phi = np.arccos((a + d) / 2.0)  # M^n = s_n M - s_(n-1) I with s_n = sin(n phi)/sin(phi)
    return _lifted(a, b, c, d, np.sin(n * phi), np.sin((n - 1) * phi), elliptic_lift_totals(a, b, c, d, n))


def _fixed_point_totals(a, b, c, d, n: int):
    """Totals of the other rows, which fix a point of the circle: turns from a lift that fixes it."""
    half = (a + d) / 2.0
    e = np.maximum(np.abs(half) - 1.0, 0.0)
    u = e + np.sqrt(e) * np.sqrt(np.abs(half) + 1.0)  # |lambda| - 1, lambda the larger eigenvalue
    # |s_n| = sinh(n theta)/sinh(theta) for |lambda| = e^theta, and theta = 0 has the
    # limit s_(n-1)/s_n = (n - 1)/n, as has any tiny theta
    theta = np.log1p(np.maximum(u, 1e-300))
    ratio = np.exp(-theta) * np.expm1(-2.0 * (n - 1) * theta) / np.expm1(-2.0 * n * theta)
    # F(0) = f0, folded onto [0, 1), lies k turns above the value at 0 of the lift
    # that turns each v by the angle from v to Mv (module docstring)
    sign = np.copysign(1.0, half)  # -M acts as M does; with positive trace no v goes to -v
    f0 = rp1(a, b, c, d, 0.0)
    k = np.rint(f0 - np.arctan2(sign * c, sign * a) / np.pi)  # G = F - k fixes every lift of every fixed point
    f1 = rp1(a, b, c, d, ORBIT_START)
    # the G-orbit moves less than a turn, in the direction of G(x0) - x0; a step
    # within rounding (x0 fixed, as by +-I) is none, so the orbit is taken to stay
    step = f1 - ORBIT_START + (f1 < f0) - k
    guess = n * k + 0.5 * np.sign(step) * (np.abs(step) > _STEP_TOL)
    return _lifted(a, b, c, d, 1.0, np.copysign(ratio, half), guess)


def _lifted(a, b, c, d, s1, s0, guess):
    """``frac`` = f^n(x0) - x0 read off s1 M - s0 I, a multiple of M^n, plus the whole turns nearest ``guess``."""
    frac = rp1(s1 * a - s0, s1 * b, s1 * c, s1 * d - s0, ORBIT_START) - ORBIT_START
    return frac + np.rint(guess - frac)


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


def pl_lift_total(xe: list[float], ye: list[float], n: int) -> float:
    """Canonical-lift total after n iterations of a piecewise-linear map.

    ``xe, ye`` is the map's canonical lift table, :func:`pl_table` of the
    canonical lift values, as ``PiecewiseLinear`` stores it in ``_xe, _ye``.
    Each step adds F(t) - t read off the table, so no turn is counted by
    comparing circle points: an orbit that creeps up to a fixed point at 0
    keeps its turns.
    """
    t = ORBIT_START
    total = 0.0
    for _ in range(n):
        y = pl_eval(xe, ye, t)
        total += y - t
        t = y % 1.0
    return total


def _moebius_lift(a, b, c, d):
    """A lift t -> t + angle(v, sMv)/pi of the action of M = [[a, b], [c, d]].

    v = (cos pi t, sin pi t), and s is the sign of the trace of M.  Up to
    that sign the eigenvalues of M are positive or not real, so sM sends
    no v to -v: the angle stays in (-pi, pi), and the lift is continuous
    in t and decides no turn.  Its value at 0 lies in (-1, 1), so it is the
    canonical lift or one turn below it.
    """
    s = math.copysign(1.0, a + d)
    a, b, c, d = s * a, s * b, s * c, s * d

    def lift(t: float) -> float:
        ct, st = math.cos(math.pi * t), math.sin(math.pi * t)
        u, w = a * ct + b * st, c * ct + d * st
        return t + math.atan2(ct * w - st * u, ct * u + st * w) / math.pi

    return lift


def _word_lift_total(lifts, n: int) -> float:
    """Lift total after n iterations of a word: each letter adds its step F(t) - t.

    ``lifts`` are the letters' lifts in the order they act, each taking t
    in [0, 1) to F(t): :func:`pl_eval` on a canonical table, or
    :func:`_moebius_lift`.  The composed lift may differ from the canonical
    one by whole turns, so only the estimate mod 1 is the word's.
    """
    t = ORBIT_START
    total = 0.0
    for _ in range(n):
        for lift in lifts:
            y = lift(t)
            total += y - t
            t = unit_float(y)
    return total

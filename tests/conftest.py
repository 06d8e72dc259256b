"""Fixtures shared by the tests: rotation-set shortcuts, orbit-loop and 50-digit references."""

import contextlib
import types
from bisect import bisect_right
from unittest import mock

import mpmath
import pytest

from rotforce import _kernels
from rotforce.circledyn import PiecewiseLinear, Word
from rotforce.rotset import RotSet


@contextlib.contextmanager
def _rotset_shortcuts_off():
    # Every operation sees fresh copies of its operands, so none is the shared
    # full set or carries a residue cache, and from_points is build.
    def fresh(x):
        return RotSet(points=x.points, intervals=x.intervals) if isinstance(x, RotSet) else x

    def on_copies(op):
        return lambda self, *args: op(fresh(self), *map(fresh, args))

    with contextlib.ExitStack() as stack:
        for name in ("intersect", "minkowski", "scale_image", "scale_preimage"):
            stack.enter_context(mock.patch.object(RotSet, name, on_copies(getattr(RotSet, name))))
        stack.enter_context(mock.patch.object(RotSet, "from_points", classmethod(lambda cls, v: cls.build(points=v))))
        yield


@pytest.fixture(scope="session")
def rotset_shortcuts_off():
    """A context manager that runs RotSet algebra without the residue cache,
    the full-set laws and the residue path of from_points."""
    return _rotset_shortcuts_off


def _comparison_loop(step, n, start):
    """F^n(start) - start for the canonical lift F, counting each turn by comparing two circle points.

    The orbit loop that words took before they summed their letters' lift
    steps: a step adds f(t) - t + [f(t) < f(0)].  ``step`` maps [0, 1) into
    [0, 1); ``start`` is a float, or a numpy array of starting points that
    ``step`` maps elementwise.  It loses a whole turn when an orbit creeps
    onto a fixed point at 0 from below: the point rounds to 1.0, folds to
    0.0, and the comparison with f(0) counts no turn.  The matrix closed
    form is checked against it only where that does not happen.
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


@pytest.fixture(scope="session")
def comparison_loop():
    """The orbit loop that decides each turn by comparing two circle points (see ``_comparison_loop``)."""
    return _comparison_loop


def _mp_word_lift_total(f, n):
    """F^n(x0) - x0 at 50 digits, x0 = ``_kernels.ORBIT_START``, for a lift F of a map or word f.

    F sums its letters' lifts with no folding: a piecewise-linear letter
    reads its stored canonical table at the fractional part plus the whole
    turns, and a matrix letter adds the angle from v = (cos pi x, sin pi x)
    to sMv over pi, s the sign of its trace.  Letter data are the stored
    floats, taken exactly.
    """
    with mpmath.workdps(50):
        lifts = []
        for h in reversed(f.letters if type(f) is Word else (f,)):
            if type(h) is PiecewiseLinear:
                xe, ye = [mpmath.mpf(v) for v in h._xe], [mpmath.mpf(v) for v in h._ye]

                def lift(x, xe=xe, ye=ye):
                    k = mpmath.floor(x)
                    r = x - k
                    i = bisect_right(xe, r) - 1
                    return k + ye[i] + (r - xe[i]) * (ye[i + 1] - ye[i]) / (xe[i + 1] - xe[i])

            else:
                a, b, c, d = (mpmath.mpf(v) for v in h.matrix.entries())
                s = 1 if a + d >= 0 else -1

                def lift(x, a=a * s, b=b * s, c=c * s, d=d * s):
                    ct, st = mpmath.cospi(x), mpmath.sinpi(x)
                    u, w = a * ct + b * st, c * ct + d * st
                    return x + mpmath.atan2(ct * w - st * u, ct * u + st * w) / mpmath.pi

            lifts.append(lift)
        x0 = x = mpmath.mpf(_kernels.ORBIT_START)
        for _ in range(n):
            for lift in lifts:
                x = lift(x)
        return float(x - x0)


def _mp_plus_l(t1, t2, l):
    """The arccos formula of ``rotarith.plus_l`` at 50 digits, on the floats t1, t2, l taken exactly."""
    with mpmath.workdps(50):
        t1, t2, l = mpmath.mpf(t1), mpmath.mpf(t2), mpmath.mpf(l)
        arg = mpmath.cospi(t1) * mpmath.cospi(t2) - mpmath.cosh(l) * mpmath.sinpi(t1) * mpmath.sinpi(t2)
        return float(mpmath.acos(arg) / mpmath.pi)


def _mp_plus_l_signed(t1, t2, l):
    """``rotarith.plus_l_signed_array`` at 50 digits: the arccos formula, mirrored
    to 1 - theta where the composition's lower-left entry is negative."""
    with mpmath.workdps(50):
        t1, t2, l = mpmath.mpf(t1), mpmath.mpf(t2), mpmath.mpf(l)
        arg = mpmath.cospi(t1) * mpmath.cospi(t2) - mpmath.cosh(l) * mpmath.sinpi(t1) * mpmath.sinpi(t2)
        low = mpmath.sinpi(t1) * mpmath.cospi(t2) + mpmath.cospi(t1) * mpmath.exp(-l) * mpmath.sinpi(t2)
        theta = mpmath.acos(arg) / mpmath.pi
        return float(theta if low > 0 else 1 - theta)


@pytest.fixture(scope="session")
def mp50():
    """50-digit references: ``word_lift_total(f, n)``, ``plus_l(t1, t2, l)``
    and ``plus_l_signed(t1, t2, l)``."""
    return types.SimpleNamespace(word_lift_total=_mp_word_lift_total, plus_l=_mp_plus_l, plus_l_signed=_mp_plus_l_signed)

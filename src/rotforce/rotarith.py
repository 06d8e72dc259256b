"""Arithmetic of rotation numbers: deformed addition, domain intervals, division, equations.

Composing two elliptic rotations about centers a hyperbolic distance l
apart yields (when elliptic) a rotation whose angle obeys

    result = arccos( cos(pi t1) cos(pi t2) - cosh(l) sin(pi t1) sin(pi t2) ) / pi.

At l = 0 this is ordinary addition mod 1; it is even in l.  The arccos
form folds the result onto [0, 1]; the *signed* value (the honest
rotation number of the composition) is recovered either by composing the
matrices (:func:`plus_l_oracle`) or from the closed form for the
composition's lower-left entry (:func:`plus_l_signed_array`).  Equation
solving works with the signed semantics throughout -- that is what makes
``x +_0 x = 0.4`` have the doubling preimages {0.2, 0.7}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .circledyn import circ_dist
from .moebius import HPoint, IsometryClass, elliptic_rotation_number, rotation_about


class UndefinedSum(ValueError):
    """The deformed sum is not an elliptic composition (formula argument outside [-1, 1])."""


class AmbiguousSelection(ValueError):
    """A division selector admitted a number of candidates different from one."""


class NonDiscrete(ValueError):
    """The residual zero set is not a discrete collection of points."""


class NoSolution(ValueError):
    """No root of the system survives constraints and refinement."""


# ---------------------------------------------------------------------------
# angles


@dataclass(frozen=True)
class Angle:
    """A rotation number in [0, 1), optionally exact.

    When ``exact`` is given the float value is derived from it, so the
    two representations can never drift apart.
    """

    value: float = None  # type: ignore[assignment]
    exact: Fraction | None = None

    def __post_init__(self):
        if self.exact is not None:
            ex = Fraction(self.exact) % 1
            object.__setattr__(self, "exact", ex)
            object.__setattr__(self, "value", float(ex))
        elif self.value is None:
            raise ValueError("Angle needs a float value or an exact rational")
        else:
            object.__setattr__(self, "value", float(self.value) % 1.0)

    @classmethod
    def from_fraction(cls, p: int, q: int) -> "Angle":
        return cls(exact=Fraction(p, q))

    def __float__(self) -> float:
        return self.value

    def mirrored(self) -> "Angle":
        if self.exact is not None:
            return Angle(exact=-self.exact)
        return Angle(value=(-self.value) % 1.0)

    def __str__(self) -> str:
        if self.exact is not None:
            return f"{self.exact.numerator}/{self.exact.denominator}"
        return repr(self.value)


AngleLike = Union[Angle, float, int, Fraction]


def _as_float(t: AngleLike) -> float:
    if isinstance(t, Angle):
        return t.value
    return float(t) % 1.0


def wrap_diff(a, b):
    """Signed circle difference in [-0.5, 0.5)."""
    return (np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5


# ---------------------------------------------------------------------------
# deformed addition


def _as_exact(t: AngleLike) -> Fraction | None:
    if isinstance(t, Angle):
        return t.exact
    if isinstance(t, (int, Fraction)):
        return Fraction(t) % 1
    return None


def plus_l(t1: AngleLike, t2: AngleLike, l: float) -> Angle:
    """Unsigned deformed sum via the arccos formula; Angle-normalized (1 -> 0)."""
    if l == 0:
        e1, e2 = _as_exact(t1), _as_exact(t2)
        if e1 is not None and e2 is not None:
            # undeformed sum, folded the way acos folds: x and 2 - x agree
            s = (e1 + e2) % 2
            return Angle(exact=s if s <= 1 else 2 - s)
    a1, a2 = math.pi * _as_float(t1), math.pi * _as_float(t2)
    arg = math.cos(a1) * math.cos(a2) - math.cosh(l) * math.sin(a1) * math.sin(a2)
    if abs(arg) > 1.0 + 1e-12:
        raise UndefinedSum(f"formula argument {arg} outside [-1, 1]")
    arg = min(1.0, max(-1.0, arg))
    return Angle(math.acos(arg) / math.pi)


def plus_l_oracle(t1: AngleLike, t2: AngleLike, l: float) -> Angle:
    """Signed deformed sum by composing actual rotations about points at distance l.

    Centers sit at i and e^l i on the imaginary axis.  An identity
    composition reports 0; parabolic or hyperbolic compositions raise.
    """
    m = rotation_about(HPoint(0.0, 1.0), _as_float(t1)) @ rotation_about(
        HPoint(0.0, math.exp(l)), _as_float(t2)
    )
    cls = m.classify()
    if cls is IsometryClass.IDENTITY:
        return Angle(0.0)
    if cls is not IsometryClass.ELLIPTIC:
        raise UndefinedSum(f"composition is {cls.value}")
    return Angle(elliptic_rotation_number(m))


def plus_l_signed_array(t1, t2, l: float):
    """Vectorized signed deformed sum; NaN where the composition is not elliptic.

    Closed form for the same composition :func:`plus_l_oracle` builds:
    the cosine of the result is the arccos-formula argument and the sign
    of its sine matches the composition's lower-left matrix entry
    sin(pi t1) cos(pi t2) + cos(pi t1) e^{-l} sin(pi t2).
    """
    a1 = np.pi * (np.asarray(t1, dtype=float) % 1.0)
    a2 = np.pi * (np.asarray(t2, dtype=float) % 1.0)
    c1, s1 = np.cos(a1), np.sin(a1)
    c2, s2 = np.cos(a2), np.sin(a2)
    arg = c1 * c2 - np.cosh(l) * s1 * s2
    low = s1 * c2 + c1 * math.exp(-l) * s2
    sin_mag = np.sqrt(np.clip(1.0 - arg * arg, 0.0, None))
    theta = (np.arctan2(np.where(low > 0, sin_mag, -sin_mag), arg) / np.pi) % 1.0
    return np.where(np.abs(arg) <= 1.0, theta, np.nan)


# ---------------------------------------------------------------------------
# domain intervals


@dataclass(frozen=True)
class DomainInterval:
    """Open arc (lo, hi), counterclockwise, where t' -> plus_l(theta, t', l)
    is defined and non-zero.  lo == hi encodes "everything but the single
    point lo" (the undeformed case)."""

    lo: float
    hi: float
    l: float
    theta: float

    def contains(self, tp: float, tol: float = 0.0) -> bool:
        tp = tp % 1.0
        if self.lo == self.hi:
            return circ_dist(tp, self.lo) > max(tol, 1e-15)
        span = (self.hi - self.lo) % 1.0
        off = (tp - self.lo) % 1.0
        return tol < off < span - tol

    def length(self) -> float:
        if self.lo == self.hi:
            return 1.0
        return (self.hi - self.lo) % 1.0

    def complement(self) -> tuple[float, float]:
        """The closed arc [hi, lo] (a point when lo == hi)."""
        return (self.hi, self.lo)


def _abs_formula_arg(l: float, theta: float, tp: float) -> float:
    """|arccos-formula argument| as a function of the second summand; mod-1 periodic."""
    a = math.pi * theta
    return abs(
        math.cos(a) * math.cos(math.pi * tp)
        - math.cosh(l) * math.sin(a) * math.sin(math.pi * tp)
    )


def domain_interval(l: float, theta: AngleLike, tol: float = 1e-12) -> DomainInterval:
    """Definedness-and-nonvanishing interval of t' -> theta +_l t'.

    The squared formula argument is R^2 cos^2(pi t' + phi) with
    R = hypot(cos(pi theta), cosh(l) sin(pi theta)), so the good set is a
    single open arc; its endpoints are pinned down by bisecting
    |argument| - 1 to ``tol``.  The complement always contains -theta.
    """
    t = _as_float(theta)
    if l == 0.0 and t == 0.0:
        raise ValueError("(l, theta) = (0, 0) has no excluded direction")
    a = math.pi * t
    big_a, big_b = math.cos(a), math.cosh(l) * math.sin(a)
    r = math.hypot(big_a, big_b)
    phi = math.atan2(big_b, big_a)
    center = (-phi / math.pi) % 1.0  # complement midpoint: |argument| peaks here
    if r <= 1.0 + 1e-15:
        return DomainInterval(lo=center, hi=center, l=l, theta=t)

    def h(tp: float) -> float:
        return _abs_formula_arg(l, t, tp) - 1.0

    def bisect(lo: float, hi: float) -> float:
        # h(lo) > 0 > h(hi) or vice versa
        flo = h(lo)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (h(mid) > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    left = bisect(center, center + 0.5) % 1.0       # interval start (ccw)
    right = bisect(center + 0.5, center + 1.0) % 1.0  # interval end
    return DomainInterval(lo=left, hi=right, l=l, theta=t)


# ---------------------------------------------------------------------------
# exact division


def divide(t: AngleLike, p: int, select: tuple) -> Angle:
    """The unique candidate (t + k)/p, k = 0..p-1, inside the closed selector arc.

    Exactness follows the input: a rational ``t`` gives a rational result.
    """
    if p < 1:
        raise ValueError("divisor must be a positive integer")
    lo, hi = (_as_float(select[0]), _as_float(select[1]))

    def in_select(x: float) -> bool:
        if lo <= hi:
            return lo <= x <= hi
        return x >= lo or x <= hi

    exact = t.exact if isinstance(t, Angle) else (Fraction(t) % 1 if isinstance(t, (Fraction, int)) else None)
    if exact is not None:
        candidates = [(exact + k) / p for k in range(p)]
        hits = [c for c in candidates if in_select(float(c))]
        if len(hits) != 1:
            raise AmbiguousSelection(f"selector holds {len(hits)} of {p} candidates")
        return Angle(exact=hits[0])
    tv = _as_float(t)
    cands = [((tv + k) / p) % 1.0 for k in range(p)]
    hits = [c for c in cands if in_select(c)]
    if len(hits) != 1:
        raise AmbiguousSelection(f"selector holds {len(hits)} of {p} candidates")
    return Angle(hits[0])


# ---------------------------------------------------------------------------
# equation systems on the torus


@dataclass(frozen=True)
class Const:
    value: Angle


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class PlusL:
    l: float
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, PlusL]


@dataclass
class EquationSystem:
    """Equations between deformed-sum expressions over torus variables.

    ``variables`` fixes the solve order; the first one is the reported
    unknown.  ``constraints`` holds closed circular intervals.
    """

    variables: list[str]
    equations: list[tuple[Expr, Expr]]
    constraints: dict[str, tuple[float, float]] = field(default_factory=dict)


def _eval_expr(expr: Expr, env: dict[str, np.ndarray]) -> np.ndarray:
    if isinstance(expr, Const):
        return np.asarray(expr.value.value)
    if isinstance(expr, Var):
        if expr.name not in env:
            raise KeyError(f"unbound variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, PlusL):
        return plus_l_signed_array(_eval_expr(expr.left, env), _eval_expr(expr.right, env), expr.l)
    raise TypeError(f"not an expression: {expr!r}")


@dataclass(frozen=True)
class Root:
    value: Angle
    isolation_radius: float
    assignment: dict[str, float]
    residual: float


@dataclass(frozen=True)
class SolutionSet:
    roots: tuple[Root, ...]

    def values(self) -> list[float]:
        return [r.value.value for r in self.roots]


def _residual_vec(system: EquationSystem, env: dict[str, np.ndarray]) -> np.ndarray:
    """Stacked wrapped differences, shape (m, ...); NaN marks undefined sums."""
    rows = [wrap_diff(_eval_expr(lhs, env), _eval_expr(rhs, env)) for lhs, rhs in system.equations]
    shape = np.broadcast_shapes(*(np.shape(r) for r in rows))
    return np.stack([np.broadcast_to(r, shape) for r in rows])


def _rho(system: EquationSystem, point: np.ndarray) -> float:
    env = {v: np.asarray(point[i]) for i, v in enumerate(system.variables)}
    res = _residual_vec(system, env)
    if np.any(np.isnan(res)):
        return math.inf
    return float(np.max(np.abs(res)))


def _in_constraint(x: float, arc: tuple[float, float], tol: float) -> bool:
    lo, hi = arc
    x %= 1.0
    if lo <= hi:
        return lo - tol <= x <= hi + tol
    return x >= lo - tol or x <= hi + tol


def _polish(system: EquationSystem, start: np.ndarray, refine_tol: float) -> np.ndarray | None:
    """Damped Gauss-Newton on the wrapped residual vector; None if it fails."""
    x = np.array(start, dtype=float)
    d = len(x)
    h = 1e-7
    for _ in range(60):
        env = {v: np.asarray(x[i]) for i, v in enumerate(system.variables)}
        r0 = _residual_vec(system, env).reshape(-1)
        if np.any(np.isnan(r0)):
            return None
        if np.max(np.abs(r0)) <= refine_tol / 4:
            return x % 1.0
        jac = np.empty((len(r0), d))
        for i in range(d):
            xp = x.copy()
            xp[i] += h
            envp = {v: np.asarray(xp[j]) for j, v in enumerate(system.variables)}
            rp = _residual_vec(system, envp).reshape(-1)
            if np.any(np.isnan(rp)):
                return None
            jac[:, i] = wrap_diff(rp, r0) / h
        try:
            step, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        step = np.clip(step, -0.05, 0.05)
        x = (x + step) % 1.0
        if np.max(np.abs(step)) < refine_tol / 16:
            env = {v: np.asarray(x[i]) for i, v in enumerate(system.variables)}
            rr = _residual_vec(system, env).reshape(-1)
            if not np.any(np.isnan(rr)) and np.max(np.abs(rr)) <= refine_tol:
                return x % 1.0
    env = {v: np.asarray(x[i]) for i, v in enumerate(system.variables)}
    rr = _residual_vec(system, env).reshape(-1)
    if not np.any(np.isnan(rr)) and np.max(np.abs(rr)) <= refine_tol:
        return x % 1.0
    return None


def _solve_1d(system: EquationSystem, grid: int, refine_tol: float) -> list[np.ndarray]:
    name = system.variables[0]
    xs = np.arange(grid) / grid
    env = {name: xs}
    res = _residual_vec(system, env)
    rho = np.where(np.any(np.isnan(res), axis=0), np.inf, np.max(np.abs(res), axis=0))

    # a genuine plateau of zeros means the solution set is not discrete
    flat = rho < 1e-9
    run = 0
    for v in np.concatenate([flat, flat[:3]]):
        run = run + 1 if v else 0
        if run >= 4:
            raise NonDiscrete("residual vanishes along a grid run; solution set has interior")

    d1 = res[0]
    candidates = []
    for k in range(grid):
        k2 = (k + 1) % grid
        a, b = d1[k], d1[k2]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            candidates.append(xs[k])
        elif (a < 0) != (b < 0) and max(abs(a), abs(b)) < 0.25:
            # bisect the first equation's wrapped difference
            lo, hi = xs[k], xs[k] + 1.0 / grid
            flo = a
            while hi - lo > refine_tol / 4:
                mid = 0.5 * (lo + hi)
                fm = float(_residual_vec(system, {name: np.asarray(mid)})[0])
                if math.isnan(fm):
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            candidates.append(0.5 * (lo + hi))
    out = []
    for c in candidates:
        p = _polish(system, np.array([c]), refine_tol)
        if p is not None:
            out.append(p)
    return out


def _solve_nd(system: EquationSystem, grid: int, refine_tol: float) -> list[np.ndarray]:
    d = len(system.variables)
    if len(system.equations) < d:
        raise NonDiscrete(f"{len(system.equations)} equations cannot isolate {d} torus variables")
    per_dim = {2: min(grid, 1024), 3: min(grid, 128), 4: min(grid, 40)}[d]
    axes = [np.arange(per_dim) / per_dim for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    env = {v: mesh[i] for i, v in enumerate(system.variables)}
    res = _residual_vec(system, env)  # (m, per_dim, ..., per_dim)

    sign_ok = np.ones(res.shape[1:], dtype=bool)
    near = np.ones(res.shape[1:], dtype=bool)
    for comp in res:
        lo_any = np.zeros_like(sign_ok)
        hi_any = np.zeros_like(sign_ok)
        small = np.zeros_like(sign_ok)
        for corner in range(1 << d):
            shifted = comp
            for i in range(d):
                if corner >> i & 1:
                    shifted = np.roll(shifted, -1, axis=i)
            lo_any |= shifted < 0
            hi_any |= shifted > 0
            small |= np.abs(shifted) < 0.25
        sign_ok &= lo_any & hi_any
        near &= small
    cells = np.argwhere(sign_ok & near)
    roots = []
    for cell in cells:
        start = (cell + 0.5) / per_dim
        p = _polish(system, start, refine_tol)
        if p is not None:
            roots.append(p)
    return roots


def solve_system(system: EquationSystem, grid: int = 4096, refine_tol: float = 1e-10) -> SolutionSet:
    """All isolated roots of the equation system on the torus.

    Scans a grid (per-dimension resolution is capped in higher dimension,
    with Gauss-Newton refinement recovering ``refine_tol``), brackets
    sign changes of the wrapped residuals, polishes, dedupes, applies
    constraints, and reports each root with an isolation radius on which
    the residual is observed to stay above 10x ``refine_tol``.
    """
    d = len(system.variables)
    if not 1 <= d <= 4:
        raise ValueError("between 1 and 4 variables required")
    if not system.equations:
        raise NonDiscrete("no equations: every point solves the empty system")
    finder = _solve_1d if d == 1 else _solve_nd
    found = finder(system, grid, refine_tol)

    # dedupe (circular, coordinatewise)
    uniq: list[np.ndarray] = []
    for r in found:
        if not any(max(abs(float(wrap_diff(a, b))) for a, b in zip(r, u)) < 1e-6 for u in uniq):
            uniq.append(r)
    # constraints
    kept = []
    for r in uniq:
        ok = True
        for i, v in enumerate(system.variables):
            if v in system.constraints and not _in_constraint(float(r[i]), system.constraints[v], refine_tol):
                ok = False
                break
        if ok:
            kept.append(r)
    if not kept:
        raise NoSolution("no isolated root satisfies the constraints")
    kept.sort(key=lambda r: float(r[0]))

    mesh = 1.0 / grid
    roots = []
    for i, r in enumerate(kept):
        sep = 0.5
        for j, other in enumerate(kept):
            if i != j:
                sep = min(sep, max(abs(float(wrap_diff(a, b))) for a, b in zip(r, other)) / 2)
        radius = max(refine_tol * 10, min(sep, mesh / 2))
        center_rho = _rho(system, r)
        for _ in range(4):
            ring_ok = True
            for axis in range(d):
                for s in (-1.0, 1.0):
                    probe = r.copy()
                    probe[axis] = (probe[axis] + s * radius) % 1.0
                    if _rho(system, probe) <= 10 * refine_tol:
                        ring_ok = False
            if ring_ok:
                break
            radius /= 2
            if radius < refine_tol * 10:
                radius = refine_tol * 10
                break
        roots.append(
            Root(
                value=Angle(float(r[0])),
                isolation_radius=radius,
                assignment={v: float(r[i]) for i, v in enumerate(system.variables)},
                residual=center_rho,
            )
        )
    return SolutionSet(roots=tuple(roots))

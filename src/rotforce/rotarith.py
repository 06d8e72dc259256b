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
from typing import Iterator, Union

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


def domain_interval(l: float, theta: AngleLike) -> DomainInterval:
    """Definedness-and-nonvanishing interval of t' -> theta +_l t'.

    The formula argument is R cos(pi t' + phi) with
    R = hypot(cos(pi theta), cosh(l) sin(pi theta)), so |argument| >= 1
    on the closed arc centred at c = -phi/pi with half-width
    h = acos(1/R)/pi, and the good set is the open arc (c + h, c - h).
    The complement always contains -theta.
    """
    t = _as_float(theta)
    if l == 0.0 and t == 0.0:
        raise ValueError("(l, theta) = (0, 0) has no excluded direction")
    a = math.pi * t
    big_a, big_b = math.cos(a), math.cosh(l) * math.sin(a)
    r = math.hypot(big_a, big_b)
    center = -math.atan2(big_b, big_a) / math.pi  # complement midpoint: |argument| peaks here
    if r <= 1.0 + 1e-15:
        return DomainInterval(lo=center % 1.0, hi=center % 1.0, l=l, theta=t)
    half = math.acos(1.0 / r) / math.pi
    return DomainInterval(lo=(center + half) % 1.0, hi=(center - half) % 1.0, l=l, theta=t)


def _in_arc(x: float, arc: tuple, tol: float = 0.0) -> bool:
    """x lies on the closed arc running ccw from arc[0] to arc[1], widened by tol.

    The endpoints may be lifted (any reals): both are read mod 1, and a
    lifted span hi - lo of at least 1 is the whole circle.
    """
    lo, hi = float(arc[0]), float(arc[1])
    if hi - lo >= 1.0:
        return True
    off = (x - lo) % 1.0
    return off <= (hi - lo) % 1.0 + tol or off >= 1.0 - tol


# ---------------------------------------------------------------------------
# exact division


def divide(t: AngleLike, p: int, select: tuple) -> Angle:
    """The unique candidate (t + k)/p, k = 0..p-1, inside the closed selector arc.

    Exactness follows the input: a rational ``t`` gives a rational result.
    """
    if p < 1:
        raise ValueError("divisor must be a positive integer")
    exact = _as_exact(t)
    base = exact if exact is not None else _as_float(t)
    hits = [c for c in ((base + k) / p for k in range(p)) if _in_arc(float(c), select)]
    if len(hits) != 1:
        raise AmbiguousSelection(f"selector holds {len(hits)} of {p} candidates")
    return Angle(exact=hits[0]) if exact is not None else Angle(hits[0])


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
    unknown.  ``constraints`` holds closed circular arcs (lo, hi), run
    counterclockwise; the endpoints may be given in lifted coordinates.
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


def _residuals_at(system: EquationSystem, x: np.ndarray) -> np.ndarray | None:
    """Flat residual vector at one torus point; None where a deformed sum is undefined."""
    r = _residual_vec(system, {v: np.asarray(x[i]) for i, v in enumerate(system.variables)}).reshape(-1)
    return None if np.isnan(r).any() else r


def _rho(system: EquationSystem, x: np.ndarray) -> float:
    r = _residuals_at(system, x)
    return math.inf if r is None else float(np.max(np.abs(r)))


def _jacobian(system: EquationSystem, x: np.ndarray, r0: np.ndarray, h: float = 1e-7) -> np.ndarray | None:
    """Forward-difference Jacobian of the wrapped residuals; None where a sum is undefined."""
    jac = np.empty((len(r0), len(x)))
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += h
        rp = _residuals_at(system, xp)
        if rp is None:
            return None
        jac[:, i] = wrap_diff(rp, r0) / h
    return jac


def _rank_deficient(system: EquationSystem, x: np.ndarray) -> bool:
    """Whether the residual Jacobian at x has numerical rank below the number of variables."""
    r0 = _residuals_at(system, x)
    jac = None if r0 is None else _jacobian(system, x, r0)
    if jac is None:
        return False
    sv = np.linalg.svd(jac, compute_uv=False)
    return bool(sv[-1] <= 1e-6 * sv[0])


def _variables_in(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, PlusL):
        return _variables_in(expr.left) | _variables_in(expr.right)
    return set()


def _polish(system: EquationSystem, start: np.ndarray, refine_tol: float) -> np.ndarray | None:
    """Damped Gauss-Newton on the wrapped residual vector; None if it fails."""
    x = np.array(start, dtype=float) % 1.0
    for _ in range(60):
        r0 = _residuals_at(system, x)
        if r0 is None:
            return None
        if np.max(np.abs(r0)) <= refine_tol / 4:
            return x
        jac = _jacobian(system, x, r0)
        if jac is None:
            return None
        try:
            step, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        step = np.clip(step, -0.05, 0.05)
        x = (x + step) % 1.0
        if np.max(np.abs(step)) < refine_tol / 16 and _rho(system, x) <= refine_tol:
            return x
    return x if _rho(system, x) <= refine_tol else None


def _scan(system: EquationSystem, grid: int, refine_tol: float) -> Iterator[np.ndarray]:
    """Polished roots started from every grid cell that brackets a zero of
    each residual, polished one at a time as they are consumed.

    The grid has ``grid`` nodes per axis for one variable and at most
    1024, 128 and 40 for two, three and four.
    """
    d = len(system.variables)
    if len(system.equations) < d:
        raise NonDiscrete(f"{len(system.equations)} equations cannot isolate {d} torus variables")
    per_dim = grid if d == 1 else min(grid, {2: 1024, 3: 128, 4: 40}[d])
    axes = tuple(range(d))
    mesh = np.meshgrid(*[np.arange(per_dim) / per_dim] * d, indexing="ij", sparse=True)
    res = _residual_vec(system, dict(zip(system.variables, mesh)))
    res = np.broadcast_to(res, (len(res),) + (per_dim,) * d)

    # a genuine plateau of zeros means the solution set is not discrete
    flat = (np.abs(res) < 1e-9).all(axis=0)
    for axis in axes:
        run = flat & np.roll(flat, -1, axis) & np.roll(flat, -2, axis) & np.roll(flat, -3, axis)
        if run.any():
            raise NonDiscrete("residual vanishes along a grid run; solution set has interior")

    # a cell is kept when every residual is <= 0 at one corner, >= 0 at one
    # corner and small at one corner (so the +-1/2 wrap is no sign change)
    keep = np.ones(res.shape[1:], dtype=bool)
    for comp in res:
        flags = (comp <= 0, comp >= 0, np.abs(comp) < 0.25)
        seen = [f.copy() for f in flags]
        for corner in range(1, 1 << d):
            shift = tuple(-(corner >> i & 1) for i in axes)
            for acc, f in zip(seen, flags):
                acc |= np.roll(f, shift, axes)
        keep &= seen[0] & seen[1] & seen[2]
    starts = (np.argwhere(keep) + 0.5) / per_dim
    return (p for p in (_polish(system, s, refine_tol) for s in starts) if p is not None)


def solve_system(system: EquationSystem, grid: int = 4096, refine_tol: float = 1e-10) -> SolutionSet:
    """All isolated roots of the equation system on the torus.

    One grid scan (``grid`` nodes per axis for one variable, at most 1024,
    128 and 40 for two, three and four) brackets zeros of the wrapped
    residuals; damped Gauss-Newton polishes each bracket to ``refine_tol``.
    The roots are deduped, filtered by the constraint arcs, and reported
    each with an isolation radius on which the residual is observed to
    stay above 10x ``refine_tol``.  A constraint naming no declared
    variable raises ``ValueError``.  A declared variable that appears in
    no equation, or a polished root where the residual Jacobian has rank
    below the number of variables, raises ``NonDiscrete``: the zero set
    runs on through that root.
    """
    d = len(system.variables)
    if not 1 <= d <= 4:
        raise ValueError("between 1 and 4 variables required")
    if not system.equations:
        raise NonDiscrete("no equations: every point solves the empty system")
    unknown = sorted(set(system.constraints) - set(system.variables))
    if unknown:
        raise ValueError(f"constraint on undeclared variable(s): {', '.join(map(repr, unknown))}")
    used = set().union(*(_variables_in(lhs) | _variables_in(rhs) for lhs, rhs in system.equations))
    free = [v for v in system.variables if v not in used]
    if free:
        raise NonDiscrete(f"variable(s) {', '.join(map(repr, free))} appear in no equation")

    # dedupe (circular, coordinatewise)
    uniq: list[np.ndarray] = []
    for r in _scan(system, grid, refine_tol):
        if not any(max(abs(float(wrap_diff(a, b))) for a, b in zip(r, u)) < 1e-6 for u in uniq):
            if _rank_deficient(system, r):
                raise NonDiscrete(f"residual Jacobian has rank < {d} at a root: the zero set is a curve or more")
            uniq.append(r)
    kept = [
        r
        for r in uniq
        if all(_in_arc(float(r[i]), system.constraints[v], refine_tol)
               for i, v in enumerate(system.variables) if v in system.constraints)
    ]
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

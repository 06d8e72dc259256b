"""Arithmetic of rotation numbers: deformed addition, domain intervals, division, equations.

Composing two elliptic rotations about centers a hyperbolic distance l
apart yields (when elliptic) a rotation whose angle obeys

    result = arccos( cos(pi t1) cos(pi t2) - cosh(l) sin(pi t1) sin(pi t2) ) / pi.

At l = 0 this is ordinary addition mod 1; it is even in l.  The arccos
form folds the result onto [0, 1]; the *signed* value (the honest
rotation number of the composition) is recovered either by composing the
matrices (:func:`plus_l_oracle`) or from the closed form for the
composition's entries (:func:`plus_l_signed_array`).  Equation
solving works with the signed semantics throughout -- that is what makes
``x +_0 x = 0.4`` have the doubling preimages {0.2, 0.7}.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from ._kernels import unit, unit_float
from .circledyn import circ_dist, in_arc  # noqa: F401 -- circ_dist stays importable from here
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
            object.__setattr__(self, "value", unit_float(float(self.value)))

    def __float__(self) -> float:
        return self.value

    def mirrored(self) -> "Angle":
        if self.exact is not None:
            return Angle(exact=-self.exact)
        return Angle(value=-self.value)

    def __str__(self) -> str:
        if self.exact is not None:
            return f"{self.exact.numerator}/{self.exact.denominator}"
        return repr(self.value)


AngleLike = Union[Angle, float, int, Fraction]


def _as_float(t: AngleLike) -> float:
    return unit_float(float(t))


# e^l overflows past log(largest float), about 709.78
_L_MAX = math.log(sys.float_info.max)


def _check_args(l: float, **angles: AngleLike) -> None:
    """A ValueError naming the first argument that is NaN or infinite, or ``l`` when |l| is past ``_L_MAX``."""
    for name, x in {"l": l, **angles}.items():
        if not math.isfinite(v := x.value if isinstance(x, Angle) else float(x)):
            raise ValueError(f"{name} must be a finite number, got {v}")
    if abs(l) > _L_MAX:
        raise ValueError(f"|l| must be at most {_L_MAX:.2f} (e^l overflows past it), got {l}")


def wrap_diff(a, b):
    """Signed circle difference in [-0.5, 0.5)."""
    x = np.asarray(a) - np.asarray(b) + 0.5
    return x - np.floor(x) - 0.5


# ---------------------------------------------------------------------------
# deformed addition


def _as_exact(t: AngleLike) -> Fraction | None:
    if isinstance(t, Angle):
        return t.exact
    if isinstance(t, (int, Fraction)):
        return Fraction(t) % 1
    return None


def _cos_sin(t: float) -> tuple[float, float]:
    """cos(pi t) and sin(pi t) for t in [0, 1), taken at min(t, 1 - t) with the sign carried.

    1 - t is exact, so sin(pi t) keeps its digits near t = 1."""
    u = min(t, 1.0 - t)
    return math.copysign(math.cos(math.pi * u), 0.5 - t), math.sin(math.pi * u)


def _composition(c1, s1, c2, s2, l: float):
    """(cos, low, sin^2) of :func:`plus_l_oracle`'s composed angle, from c = cos(pi t), s = sin(pi t).

    Floats or arrays.  cos is the arccos-formula argument, low the
    lower-left entry, whose sign is the sine's.  sin^2 = up low - p^2, with
    up the upper-right entry and p half the diagonal's difference, keeps
    the digits near 0 and 1.
    """
    low = s1 * c2 + c1 * math.exp(-l) * s2
    up = s1 * c2 + c1 * math.exp(l) * s2
    p = math.sinh(l) * s1 * s2
    return c1 * c2 - math.cosh(l) * s1 * s2, low, low * up - p * p


def plus_l(t1: AngleLike, t2: AngleLike, l: float) -> Angle:
    """Unsigned deformed sum, atan2(|sin|, cos) of :func:`_composition`'s angle; Angle-normalized (1 -> 0)."""
    _check_args(l, t1=t1, t2=t2)
    if l == 0:
        e1, e2 = _as_exact(t1), _as_exact(t2)
        if e1 is not None and e2 is not None:
            # undeformed sum, folded the way acos folds: x and 2 - x agree
            s = (e1 + e2) % 2
            return Angle(exact=s if s <= 1 else 2 - s)
    arg, _, sin2 = _composition(*_cos_sin(_as_float(t1)), *_cos_sin(_as_float(t2)), l)
    if abs(arg) > 1.0 + 1e-12:
        raise UndefinedSum(f"formula argument {arg} outside [-1, 1]")
    return Angle(math.atan2(math.sqrt(max(0.0, sin2)), arg) / math.pi)


def plus_l_oracle(t1: AngleLike, t2: AngleLike, l: float) -> Angle:
    """Signed deformed sum by composing actual rotations about points at distance l.

    Centers sit at i and e^l i on the imaginary axis.  An identity
    composition reports 0; parabolic or hyperbolic compositions raise.
    """
    _check_args(l, t1=t1, t2=t2)
    m = rotation_about(HPoint(0.0, 1.0), _as_float(t1)) @ rotation_about(
        HPoint(0.0, math.exp(l)), _as_float(t2)
    )
    cls = m.classify()
    if cls is IsometryClass.IDENTITY:
        return Angle(0.0)
    if cls is not IsometryClass.ELLIPTIC:
        raise UndefinedSum(f"composition is {cls.value}")
    return Angle(elliptic_rotation_number(m))


def _cos_sin_array(t) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_cos_sin` elementwise, for any real t (folded onto [0, 1) first)."""
    t = t - np.floor(t)
    a = np.pi * np.minimum(t, 1.0 - t)
    return np.copysign(np.cos(a), 0.5 - t), np.sin(a)


def plus_l_signed_array(t1, t2, l: float):
    """Vectorized signed deformed sum; NaN where the composition is not elliptic.

    The angle whose cosine and sine^2 :func:`_composition` gives, the sine
    taking the sign of ``low``, from sines and cosines at min(t, 1 - t) as
    in :func:`plus_l`.  NaN needs both |cos| > 1 and sin^2 <= 0, so a
    cosine rounded past +-1 at a sum near 0 or 1 still answers.
    """
    arg, low, sin2 = _composition(*_cos_sin_array(np.asarray(t1, float)), *_cos_sin_array(np.asarray(t2, float)), l)
    sin_mag = np.sqrt(np.maximum(sin2, 0.0))
    # not np.copysign: an exactly cancelled low of +0.0 takes the negative sine
    theta = np.arctan2(np.where(low > 0, sin_mag, -sin_mag), arg) / np.pi
    return np.where((np.abs(arg) <= 1.0) | (sin2 > 0), unit(theta), np.nan)


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
        """tp is off the closed complement [hi, lo] widened by tol (by at least 1e-15 if it is a point)."""
        return not in_arc(tp, self.complement(), max(tol, 1e-15) if self.lo == self.hi else tol)

    def length(self) -> float:
        if self.lo == self.hi:
            return 1.0
        return (self.hi - self.lo) % 1.0

    def complement(self) -> tuple[float, float]:
        """The closed arc [hi, lo] (a point when lo == hi)."""
        return (self.hi, self.lo)


def domain_interval(l: float, theta: AngleLike) -> DomainInterval:
    """Definedness-and-nonvanishing interval of t' -> theta +_l t'.

    The formula argument is A cos(pi t') - B sin(pi t') with
    A = cos(pi theta) and B = cosh(l) sin(pi theta), so |argument| >= 1
    on a closed arc, the complement, whose half-width h has
    tan(pi h) = s = sinh|l| sin(pi theta); the good set is the open arc
    opposite it.  Each end is one closed form, with no difference of two
    numbers near 1/2:

    * the complement's midpoint -atan2(B, A)/pi plus or minus its
      half-width atan(s)/pi, to within about 1e-16 for every l; a
      complement narrower than rounding is the point lo == hi;
    * for s > 2^26, the domain's own midpoint atan2(A, B)/pi plus or
      minus its half-width atan2(1, s)/pi.  The domain is then narrower
      than 1e-8 and shrinks like e^-|l|, which the complement's ends
      could not resolve.

    The complement always contains -theta.  ``l`` must satisfy |l| <= log
    of the largest float, about 709.78.
    """
    _check_args(l, theta=theta)
    t = _as_float(theta)
    if l == 0.0 and t == 0.0:
        raise ValueError("(l, theta) = (0, 0) has no excluded direction")
    big_a, sin_a = _cos_sin(t)
    big_b, s = math.cosh(l) * sin_a, math.sinh(abs(l)) * sin_a
    if s > 2.0**26:
        # the domain holds 0, where the argument is A: rounding keeps its ends on either side
        mid, half = math.atan2(big_a, big_b) / math.pi, math.atan2(1.0, s) / math.pi
        lo, hi = min(mid - half, 0.0), max(mid + half, math.ulp(0.0))
    else:
        mid, half = -math.atan2(big_b, big_a) / math.pi, math.atan(s) / math.pi
        lo, hi = mid + half, mid - half
    return DomainInterval(lo=unit_float(lo), hi=unit_float(hi), l=l, theta=t)


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
    hits = [c for c in ((base + k) / p for k in range(p)) if in_arc(float(c), select)]
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

    def __post_init__(self):
        _check_args(self.l)


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


def _residual_vec(system: EquationSystem, env: dict[str, np.ndarray], shape: tuple[int, ...] = ()) -> np.ndarray:
    """Stacked wrapped differences, shape (m, ...), each broadcast to ``shape``
    at least; NaN marks undefined sums."""
    rows = [wrap_diff(_eval_expr(lhs, env), _eval_expr(rhs, env)) for lhs, rhs in system.equations]
    shape = np.broadcast_shapes(shape, *(np.shape(r) for r in rows))
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
    """Damped Gauss-Newton on the wrapped residuals, one step past refine_tol / 4; None if it fails."""
    x = unit(np.array(start, dtype=float))
    for _ in range(60):
        r0 = _residuals_at(system, x)
        if r0 is None:
            return None
        rho, jac = np.max(np.abs(r0)), _jacobian(system, x, r0)
        try:
            step = None if jac is None else np.linalg.lstsq(jac, -r0, rcond=None)[0]
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            return x if rho <= refine_tol / 4 else None
        step = np.clip(step, -0.05, 0.05)
        if rho <= refine_tol / 4:
            last = unit(x + step)
            return last if _rho(system, last) < rho else x
        x = unit(x + step)
        if np.max(np.abs(step)) < refine_tol / 16 and _rho(system, x) <= refine_tol:
            return x
    return x if _rho(system, x) <= refine_tol else None


# grid nodes per block of the scan, whole rows along the first scanned axis
# (a 40^4 grid's row is 64,000 nodes): 512 KiB per float64 temporary
_SCAN_BLOCK_NODES = 1 << 16
# most nodes on one scanned axis
_MAX_GRID = 1 << 20
_PLATEAU = "residual vanishes along a grid run; solution set has interior"


def _occurrences(expr: Expr, name: str) -> int:
    if isinstance(expr, Var):
        return int(expr.name == name)
    if isinstance(expr, PlusL):
        return _occurrences(expr.left, name) + _occurrences(expr.right, name)
    return 0


def _solvable(lhs: Expr, rhs: Expr, known: set[str]) -> tuple[str, Expr, Expr] | None:
    """(variable, side holding it, other side) when the equation holds one
    variable outside ``known``, and holds it once; otherwise None."""
    free = (_variables_in(lhs) | _variables_in(rhs)) - known
    if len(free) != 1:
        return None
    (name,) = free
    on_lhs, on_rhs = _occurrences(lhs, name), _occurrences(rhs, name)
    if on_lhs + on_rhs != 1:
        return None
    return (name, lhs, rhs) if on_lhs else (name, rhs, lhs)


@dataclass(frozen=True)
class _Plan:
    """How the scan visits a system.

    ``scanned`` are the grid axes, ``per_dim`` nodes each.  Each step
    (variable, side holding it, other side) then solves one equation for
    the one variable in it that is not yet known (:func:`_eliminate`), and
    ``leftover`` holds the equations no step used: their residuals are the
    ones bracketed on the grid.
    """

    scanned: tuple[str, ...]
    per_dim: int
    steps: tuple[tuple[str, Expr, Expr], ...]
    leftover: EquationSystem

    def solve(self, env: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """env, the scanned variables' values, with every step's variable added."""
        for name, side, other in self.steps:
            env[name] = _eliminate(env, name, side, other)
        return env


def _plan(system: EquationSystem, grid: int) -> _Plan:
    """The plan that scans the fewest variables, the first such set in the
    declared order, with every other variable solved for by some chain of
    steps.  Which variables a chain reaches does not depend on the order of
    its steps, so the steps go in equation order.  When nothing can be
    solved for, every variable is scanned, in the declared order: the scan
    is then the plain grid scan of the whole system.
    """
    d = len(system.variables)
    for mask in sorted(range(1, 1 << d), key=int.bit_count):
        scanned = tuple(v for i, v in enumerate(system.variables) if mask >> i & 1)
        known, leftover, steps = set(scanned), list(system.equations), []
        i = 0
        while i < len(leftover):
            step = _solvable(*leftover[i], known)
            if step is None or step[0] not in system.variables:
                i += 1
                continue
            steps.append(step)
            known.add(step[0])
            del leftover[i]
            i = 0
        if known == set(system.variables):
            s = len(scanned)
            per_dim = grid if s == 1 else min(grid, {2: 1024, 3: 128, 4: 40}[s])
            return _Plan(scanned, per_dim, tuple(steps), EquationSystem(system.variables, leftover))
    raise AssertionError("scanning every variable leaves none to solve for")


def _sum_inverse(k, c, l: float, unknown_left: bool) -> np.ndarray:
    """The v with v +_l k = c (``unknown_left``) or k +_l v = c, signed.

    With R cos(phi) = cos(pi k) and R sin(phi) = cosh(l) sin(pi k), the
    formula argument is R cos(pi v + phi) on v in [0, 1), and it is
    +-cos(pi c) where pi v + phi = +-beta (mod pi), cos(beta) =
    cos(pi c) / R: two points v of the circle.  As v runs once round, the
    composition's rotation number rises by 1, strictly on the one arc
    where the composition is elliptic, so it meets c there once: one of
    the two points has the signed sum c, the other -c.  The one kept is
    the one whose sum is nearer c: +beta's, unless c is so near 0 or 1
    that that point lies within rounding of a domain end and rounds off
    it.  R^2 - cos^2(pi c) is sinh^2(l) sin^2(pi k) + sin^2(pi c), so beta
    is taken by atan2.
    """
    (ck, sk), (cc, sc) = _cos_sin_array(k), _cos_sin_array(c)
    phase = np.arctan2(math.cosh(l) * sk, ck)
    beta = np.arctan2(np.hypot(math.sinh(l) * sk, sc), cc)
    v = unit((np.stack((beta, -beta)) - phase) / np.pi)
    s = plus_l_signed_array(v, k, l) if unknown_left else plus_l_signed_array(k, v, l)
    return np.where(np.abs(wrap_diff(s[0], c)) <= np.abs(wrap_diff(s[1], c)), v[0], v[1])


def _eliminate(env: dict[str, np.ndarray], name: str, side: Expr, other: Expr) -> np.ndarray:
    """The value of ``name`` that solves side = other, every other variable
    of the equation bound in env: the sums above it in side are inverted
    outermost first.  NaN where a known sum is undefined."""
    c = _eval_expr(other, env)
    while isinstance(side, PlusL):
        on_left = name in _variables_in(side.left)
        inner, known = (side.left, side.right) if on_left else (side.right, side.left)
        c = _sum_inverse(_eval_expr(known, env), c, side.l, on_left)
        side = inner
    return c


def _scan(system: EquationSystem, grid: int, refine_tol: float) -> Iterator[np.ndarray]:
    """Polished roots started from every grid cell that brackets a zero of
    each residual, polished one at a time as they are consumed.

    Only the variables of :func:`_plan` are scanned; the others are solved
    for in closed form on every grid node, and the residuals of the
    equations left over are bracketed on the scanned axes.  A start is
    the cell centre on the scanned axes with the other variables solved
    for there.  The grid has ``grid`` nodes per scanned axis for one
    scanned variable and at most 1024, 128 and 40 for two, three and four.
    When nothing can be solved for, every variable is scanned.

    The grid is evaluated in blocks of whole rows along the first scanned
    axis, at most ``_SCAN_BLOCK_NODES`` (2^16) nodes each, so its memory
    follows the block, not the number of variables: a few MiB per equation
    (2.0 to 3.3 MiB measured on two to four scanned variables, where the
    whole grid took 21 to 42).  Every node is evaluated once: the tests of
    a row need the next three rows, which are carried over from block to
    block, and the first three rows close the wrap.  The start cells and
    their order are those of a scan of the whole grid at once, and a
    plateau raises ``NonDiscrete`` before any polish.
    """
    d = len(system.variables)
    if len(system.equations) < d:
        raise NonDiscrete(f"{len(system.equations)} equations cannot isolate {d} torus variables")
    plan = _plan(system, grid)
    s, per_dim = len(plan.scanned), plan.per_dim
    nodes = np.arange(per_dim) / per_dim
    rows = max(1, _SCAN_BLOCK_NODES // per_dim ** (s - 1))
    cells = []
    done = 0  # rows before the window have their start cells
    head = window = None
    for lo in range(0, per_dim, rows):
        block = _scan_rows(plan, nodes, lo, min(lo + rows, per_dim))
        window = block if window is None else tuple(map(np.concatenate, zip(window, block)))
        if head is None and len(window[0]) >= min(3, per_dim):
            head = tuple(w[:3].copy() for w in window)
        ready = len(window[0]) - 3
        if ready > 0:
            cells.append(_scan_cells(window, ready, done))
            window = tuple(w[ready:] for w in window)
            done += ready
    wrap = [k % per_dim for k in range(3)]  # rows per_dim .. per_dim + 2 of the torus
    window = tuple(np.concatenate((w, h[wrap])) for w, h in zip(window, head))
    cells.append(_scan_cells(window, per_dim - done, done))
    centres = (np.concatenate(cells) + 0.5) / per_dim
    env = plan.solve(dict(zip(plan.scanned, centres.T)))
    starts = np.column_stack([np.broadcast_to(env[v], len(centres)) for v in system.variables])
    return (p for p in (_polish(system, x0, refine_tol) for x0 in starts) if p is not None)


def _scan_rows(plan: _Plan, nodes: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row scan flags for grid rows lo..hi-1, both with the row first.

    ``zero`` marks nodes where every leftover residual is below 1e-9.  A
    run of four is a plateau of zeros, so the solution set is not discrete;
    along any scanned axis but the first it raises ``NonDiscrete`` here.  A
    cell is kept when every residual is <= 0 at one corner, >= 0 at one
    corner and small (below 1/4, so the +-1/2 wrap is no sign change) at
    one corner.  ``near`` holds those three flags per residual, OR-ed over
    the row's 2^(s-1) corners of the cell one axis at a time, for s
    scanned variables.
    """
    s = len(plan.scanned)
    mesh = np.meshgrid(nodes[lo:hi], *[nodes] * (s - 1), indexing="ij", sparse=True)
    env = plan.solve(dict(zip(plan.scanned, mesh)))
    res = np.moveaxis(_residual_vec(plan.leftover, env, (hi - lo,) + (len(nodes),) * (s - 1)), 0, 1)
    mag = np.abs(res)
    zero = (mag < 1e-9).all(axis=1)
    for axis in range(1, s):
        pair = zero & np.roll(zero, -1, axis)
        if (pair & np.roll(pair, -2, axis)).any():
            raise NonDiscrete(_PLATEAU)
    near = np.concatenate((res <= 0, res >= 0, mag < 0.25), axis=1)
    for axis in range(2, s + 1):
        near |= np.roll(near, -1, axis)
    return zero, near


def _scan_cells(window: tuple[np.ndarray, np.ndarray], n: int, first: int) -> np.ndarray:
    """Grid indices of the cells kept in the window's first n rows (grid rows
    first, first+1, ...); the window holds three more rows after them."""
    zero, near = window
    if (zero[:n] & zero[1 : n + 1] & zero[2 : n + 2] & zero[3 : n + 3]).any():
        raise NonDiscrete(_PLATEAU)
    keep = (near[:n] | near[1 : n + 1]).all(axis=1)
    cells = np.argwhere(keep)
    cells[:, 0] += first
    return cells


def solve_system(system: EquationSystem, grid: int = 4096, refine_tol: float = 1e-10) -> SolutionSet:
    """All isolated roots of the equation system on the torus.

    One grid scan brackets zeros of the wrapped residuals, and damped
    Gauss-Newton polishes each bracket to ``refine_tol``.  The scan covers
    only the variables that cannot be solved for: a variable that occurs
    once in an equation whose other variables are known gets its one value
    in closed form (see :func:`_scan`).
    ``grid`` is the number of nodes on each scanned axis: all of it when
    one axis is scanned, at most 1024, 128 and 40 when two, three and four
    are.  So a system such as x +_l y = a, x +_0 x = b scans x alone.  The
    scan streams the grid in blocks of at most 2^16 nodes, so its memory is
    a few MiB per equation for any number of variables.
    The roots are deduped, filtered by the constraint arcs, and reported
    each with an isolation radius on which the residual is observed to
    stay above 10x ``refine_tol``.  A ``grid`` outside 1 to 2^20, a
    ``refine_tol`` that is not finite and positive, or a constraint naming
    no declared variable raises ``ValueError``.  A declared variable that
    appears in no equation, or a polished root where the residual Jacobian
    has rank below the number of variables, raises ``NonDiscrete``: the
    zero set runs on through that root.
    """
    d = len(system.variables)
    if not 1 <= d <= 4:
        raise ValueError("between 1 and 4 variables required")
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    if grid > _MAX_GRID:
        raise ValueError(f"grid must be at most {_MAX_GRID}, got {grid}")
    if not 0 < refine_tol < math.inf:
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")
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
        if not any(np.abs(wrap_diff(r, u)).max() < 1e-6 for u in uniq):
            if _rank_deficient(system, r):
                raise NonDiscrete(f"residual Jacobian has rank < {d} at a root: the zero set is a curve or more")
            uniq.append(r)
    kept = [
        r
        for r in uniq
        if all(in_arc(float(r[i]), system.constraints[v], refine_tol)
               for i, v in enumerate(system.variables) if v in system.constraints)
    ]
    if not kept:
        raise NoSolution("no isolated root satisfies the constraints")
    kept.sort(key=lambda r: float(r[0]))

    mesh = 1.0 / grid
    roots = []
    for i, r in enumerate(kept):
        sep = min([0.5] + [float(np.abs(wrap_diff(r, o)).max()) / 2 for j, o in enumerate(kept) if j != i])
        radius = max(refine_tol * 10, min(sep, mesh / 2))
        center_rho = _rho(system, r)
        for _ in range(4):
            ring_ok = True
            for axis in range(d):
                for s in (-1.0, 1.0):
                    probe = r.copy()
                    probe[axis] = unit_float(probe[axis] + s * radius)
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

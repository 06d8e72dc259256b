"""Circle homeomorphisms: rotation-number estimates, the Euler cocycle, Denjoy blow-ups.

Maps come in three kinds, each certified by its constructor: the
projective action of a ``MoebiusReal`` on RP^1, a piecewise-linear
homeomorphism given by lift breakpoints, and a word (formal composition)
of those two.  A map of any other kind is refused, not sampled.  All
lifts are normalized the same way -- the canonical lift is the one whose
value at 0 lies in [0, 1) -- which is what makes the Euler cocycle an
honest {0, 1}-valued quantity and keeps displacement bookkeeping uniform
across kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import _kernels
from .moebius import MoebiusReal

class NotMonotone(ValueError):
    """Map data fails the strict-monotonicity certificate."""


class StabilizerNotTrivial(ValueError):
    """A word of the bounded ball fixes (or collides at) the blow-up seed."""


def circ_dist(a: float, b: float) -> float:
    """Distance on R/Z."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def in_arc(x: float, arc: tuple, tol: float = 0.0) -> bool:
    """x lies on the closed arc running ccw from arc[0] to arc[1], widened by tol.

    The endpoints may be lifted (any reals): a lifted span hi - lo of at
    least 1 is the whole circle, and otherwise only ends outside [0, 1)
    are read mod 1.  Ends and a point in [0, 1) are compared as they are,
    with no rounded difference, so a point one ulp past an end is outside.
    """
    lo, hi = float(arc[0]), float(arc[1])
    if hi - lo >= 1.0:
        return True
    # unit_float leaves a value in [0, 1) as it is
    lo, hi, x = _kernels.unit_float(lo), _kernels.unit_float(hi), _kernels.unit_float(x)
    inside = lo <= x <= hi if lo <= hi else not hi < x < lo
    return inside or (tol > 0.0 and min(circ_dist(x, lo), circ_dist(x, hi)) <= tol)


# ---------------------------------------------------------------------------
# map kinds


class CircleMap:
    """Degree-one circle homeomorphism with coordinate in [0, 1): one of the three kinds below."""

    def as_moebius(self) -> MoebiusReal | None:
        """The underlying matrix if this map collapses to one, else None."""
        return None


class MoebiusOnRP1(CircleMap):
    """Projective action of a determinant-one matrix."""

    def __init__(self, matrix: MoebiusReal):
        self.matrix = matrix

    def __call__(self, t: float) -> float:
        return self.matrix.rp1(t)

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        return _kernels.rp1(*self.matrix.entries(), np.asarray(ts, dtype=float))

    def inverse(self) -> "MoebiusOnRP1":
        return MoebiusOnRP1(self.matrix.inverse())

    def as_moebius(self) -> MoebiusReal:
        return self.matrix

    def __repr__(self):
        return f"MoebiusOnRP1({self.matrix.entries()})"


class PiecewiseLinear(CircleMap):
    """Piecewise-linear homeomorphism from lift breakpoints.

    ``xs`` lie in [0, 1) strictly increasing; ``ys`` are the lift values
    there, strictly increasing with ``ys[-1] < ys[0] + 1`` so the
    periodic extension f(x+1) = f(x)+1 stays a homeomorphism.  Stored
    ys are shifted by an integer so the canonical normalization holds.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) == 0:
            raise ValueError("breakpoints must be matching non-empty 1-d arrays")
        for name, vals in (("positions xs", xs), ("images ys", ys)):
            bad = np.flatnonzero(~np.isfinite(vals))
            if len(bad):
                i = int(bad[0])
                raise ValueError(
                    f"piecewise-linear map: breakpoint {name} must be finite, got {vals[i]} at index {i}"
                )
        if xs[0] < 0.0 or xs[-1] >= 1.0:
            raise ValueError("breakpoint positions must lie in [0, 1)")
        if np.any(np.diff(xs) <= 0):
            raise NotMonotone("breakpoint positions not strictly increasing")
        if np.any(np.diff(ys) <= 0) or not ys[-1] < ys[0] + 1.0:
            raise NotMonotone("breakpoint images not strictly increasing around the circle")
        xe, ye = _kernels.pl_table(xs, ys)
        shift = math.floor(_kernels.pl_eval(xe, ye, 0.0))
        self.xs = xs
        self.ys = ys - shift
        # the canonical lift table, read by every evaluation and orbit of this map
        self._xe, self._ye = _kernels.pl_table(xs, self.ys) if shift else (xe, ye)

    @classmethod
    def rotation(cls, theta: float) -> "PiecewiseLinear":
        return cls([0.0], [_kernels.unit_float(theta)])

    def __call__(self, t: float) -> float:
        return _kernels.unit_float(_kernels.pl_eval(self._xe, self._ye, _kernels.unit_float(t)))

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        return _kernels.unit(np.interp(np.asarray(ts, dtype=float) % 1.0, self._xe, self._ye))

    def inverse(self) -> "PiecewiseLinear":
        us = _kernels.unit(self.ys)
        vs = self.xs - (self.ys - us)  # lift drops by the same integer
        order = np.argsort(us)
        return PiecewiseLinear(us[order], vs[order])

    def __repr__(self):
        return f"PiecewiseLinear({len(self.xs)} breakpoints)"


_KINDS = (MoebiusOnRP1, PiecewiseLinear)  # the letter kinds, whose constructors certify them homeomorphisms


class Word(CircleMap):
    """Formal composition of the other two kinds (nested words flatten); ``Word([f, g])`` acts as f(g(t))."""

    def __init__(self, letters: Sequence[CircleMap]):
        flat: list[CircleMap] = []
        for let in letters:
            if type(let) is Word:
                flat.extend(let.letters)
            elif type(let) in _KINDS:
                flat.append(let)
            else:
                raise TypeError(f"word letter must be a MoebiusOnRP1 or a PiecewiseLinear, got {type(let).__name__}")
        self.letters = tuple(flat)

    def __call__(self, t: float) -> float:
        for let in reversed(self.letters):
            t = let(t)
        return t

    def eval_array(self, ts: np.ndarray) -> np.ndarray:
        out = np.asarray(ts, dtype=float)
        for let in reversed(self.letters):
            out = let.eval_array(out)
        return out

    def inverse(self) -> "Word":
        return Word([let.inverse() for let in reversed(self.letters)])

    def as_moebius(self) -> MoebiusReal | None:
        prod = MoebiusReal.identity()
        for let in self.letters:
            m = let.as_moebius()
            if m is None:
                return None
            prod = prod @ m
        return prod

    def __repr__(self):
        return f"Word({len(self.letters)} letters)"


def _exact_inverses(f: CircleMap, g: CircleMap) -> bool:
    """One map's ``inverse()`` has the other's data bit for bit (matrix entries, or PL xs and ys).

    Maps keep identity equality: an ``__eq__`` would make them unhashable.
    """

    def data(h):
        return np.array(h.matrix.entries()).tobytes() if type(h) is MoebiusOnRP1 else h.xs.tobytes() + h.ys.tobytes()

    def inverse_data(h):
        try:
            return data(h.inverse())
        except NotMonotone:  # rounding made two stored images equal: no inverse to compare
            return None

    return type(f) is type(g) and (inverse_data(f) == data(g) or inverse_data(g) == data(f))


def power(f: CircleMap, k: int) -> CircleMap:
    """k-fold composition; negative k composes the inverse."""
    w = Word([f])  # refuses a map of any other kind
    return Word([w.inverse() if k < 0 else w] * abs(k))


# ---------------------------------------------------------------------------
# monotonicity certificate


def certify_monotone(f: CircleMap) -> None:
    """Refuse, with ``TypeError``, a map of a kind that no constructor certified.

    A matrix acts on RP^1 as a homeomorphism, ``PiecewiseLinear`` refuses
    breakpoints not strictly increasing around the circle, and ``Word``
    takes only those two kinds, so no map is sampled.
    """
    if type(f) is not Word and type(f) not in _KINDS:
        raise TypeError(f"circle map must be a MoebiusOnRP1, a PiecewiseLinear or a Word, got {type(f).__name__}")


# ---------------------------------------------------------------------------
# rotation numbers


@dataclass(frozen=True)
class RotationEstimate:
    value: float
    iterations: int
    error_bound: float


def _estimate_from_total(total: float, n: int) -> RotationEstimate:
    return RotationEstimate(value=_kernels.unit_float(total / n), iterations=n, error_bound=2.0 / n)


def rotation_number(f: CircleMap, n: int = 100_000) -> RotationEstimate:
    """Poincare estimate: canonical-lift displacement over n iterates.

    The displacement is F^n(x) - x from x = ``_kernels.ORBIT_START``.  A
    map of a kind that no constructor certified raises ``TypeError``
    (:func:`certify_monotone`).  Each kind of map takes its own path:

    * a matrix action, or a word of them, in closed form, in O(1) for
      any n (``_kernels.moebius_lift_totals``);
    * a word of matrices and piecewise-linear maps is first cut down at
      both ends: while its first and last letters are exact inverses
      (one's ``inverse()`` has the other's data bit for bit), both go,
      since the word is conjugate to what remains.  If only matrices
      remain, or none, the closed form takes over, so h r h^-1 costs
      what r costs;
    * a piecewise-linear map, or what remains of such a word, iterates
      n steps: a lone map sums the steps F(t) - t of the canonical lift
      table its constructor built (``_kernels.pl_lift_total``), a word
      sums its letters' lift steps and folds only the point it carries
      on (``_kernels._word_lift_total``); neither decides a turn by
      comparing two circle points.

    The reported ``error_bound`` 2/n is the conservative a-priori bound
    |(lift^n(x) - x)/n - rot(f)| < 2/n valid for every circle
    homeomorphism and every x, whichever way the displacement was
    computed.  It bounds the distance to the rotation number of the map
    as stored: a matrix whose entries were rounded near |trace| = 2 is a
    different map, and its rotation number may differ from the intended
    one by far more than 2/n.  Likewise a cut-down word: the bound is for
    the word whose cancelled letters are exact inverses, and
    ``h.inverse()`` inverts a piecewise-linear h only up to the rounding
    of its breakpoint table.
    """
    if n <= 0:
        raise ValueError("iteration count must be positive")
    certify_monotone(f)
    g = _conjugate_core(f)
    if (m := g.as_moebius()) is not None:
        return _estimate_from_total(float(_kernels.moebius_lift_totals([m.entries()], n)[0]), n)
    if isinstance(g, PiecewiseLinear):
        return _estimate_from_total(_kernels.pl_lift_total(g._xe, g._ye, n), n)
    lifts = [
        partial(_kernels.pl_eval, h._xe, h._ye) if type(h) is PiecewiseLinear
        else _kernels._moebius_lift(*h.matrix.entries())
        for h in reversed(g.letters)
    ]
    return _estimate_from_total(_kernels._word_lift_total(lifts, n), n)


def _conjugate_core(f: CircleMap) -> CircleMap:
    """f without the exact inverse pairs at both ends of its word.

    f itself when nothing cancels, a lone letter when one is left, else a
    word of what is left.
    """
    letters = f.letters if type(f) is Word else (f,)
    i, j = 0, len(letters)
    while j - i > 1 and _exact_inverses(letters[i], letters[j - 1]):
        i, j = i + 1, j - 1
    if j - i == len(letters):
        return f
    return letters[i] if j - i == 1 else Word(letters[i:j])


def rotation_numbers(mats: Sequence[MoebiusReal], n: int) -> list[RotationEstimate]:
    """Batched estimates for matrix actions (single kernel dispatch).

    The closed form of :func:`rotation_number`, one row per matrix, with
    the same 2/n bound.
    """
    rows = [m.entries() for m in mats]
    totals = _kernels.moebius_lift_totals(rows, n)
    return [_estimate_from_total(float(t), n) for t in totals]


# ---------------------------------------------------------------------------
# Euler cocycle


def euler_cocycle(f: CircleMap, g: CircleMap) -> int:
    """c(f, g) = F(G(0)) - (FG)~(0) for canonical lifts F, G, (FG)~; 0 or 1.

    At y = g(0) in [0, 1), F(y) = f(y) + 1 exactly when f(y) < f(0);
    otherwise F(y) = f(y).  Other kinds raise ``TypeError`` (:func:`certify_monotone`).
    """
    for h in (f, g):
        certify_monotone(h)
    y = g(0.0)
    return int(f(y) < f(0.0))


# ---------------------------------------------------------------------------
# Denjoy blow-up


@dataclass(frozen=True)
class OrbitEntry:
    word: tuple[tuple[int, int], ...]
    position: float
    weight: float
    gap: tuple[float, float]


@dataclass(frozen=True)
class DenjoyLayout:
    """Gap allocation for a finite word ball: where each orbit point's gap sits.

    ``maps`` holds the blown-up generators that carry gap onto gap.
    """

    entries: tuple[OrbitEntry, ...]
    total_weight: float
    maps: tuple[PiecewiseLinear, ...]

    def collapse(self, y: float) -> float:
        """Monotone left inverse of the blow-up: squash gaps back to points."""
        y = _kernels.unit_float(y)
        scale = 1.0 - self.total_weight
        acc = 0.0
        for e in self.entries:  # built in position order
            lo, hi = e.gap
            if y < lo:
                break
            if y <= hi:
                return e.position
            acc += e.weight
        return (y - acc) / scale

    def expand(self, x: float) -> float:
        """Image of a non-orbit point; orbit points map to their gap's left end."""
        x = _kernels.unit_float(x)
        scale = 1.0 - self.total_weight
        acc = sum(e.weight for e in self.entries if e.position < x)
        return scale * x + acc


def default_gap_weights(count: int) -> list[float]:
    """0.5 / ((k+1)(k+2)) for k < count; sums below 1/2 for any count."""
    return [0.5 / ((k + 1) * (k + 2)) for k in range(count)]


def denjoy_blowup(generators: Sequence[MoebiusReal], orbit_seed: float, depth: int = 5) -> list[PiecewiseLinear]:
    """Blow up the word-ball orbit of a seed into gaps; return the induced maps.

    Each orbit point of the reduced word ball of radius ``depth`` receives
    a gap; the returned piecewise-linear generator images carry gap onto
    gap affinely wherever the generator stays inside the ball, so the
    original action is recovered on all matched breakpoints by collapsing
    the gaps.  The k-th word of the ball (breadth-first) gets the gap
    weight of :func:`default_gap_weights`, a summable sequence, so the
    gaps take less than half the circle at any depth.
    """
    return list(denjoy_layout(generators, orbit_seed, depth).maps)


def denjoy_layout(generators: Sequence[MoebiusReal], orbit_seed: float, depth: int = 5) -> DenjoyLayout:
    """The gap allocation of :func:`denjoy_blowup` with the same arguments, carrying the
    blown-up generators as ``maps``; ``StabilizerNotTrivial`` if a ball word fixes the seed."""
    # The reduced words of length <= depth are indexed breadth-first, then by
    # parent index and letter (letter 2i is generator i, 2i+1 its inverse):
    # word k is letter first[k] times an earlier word.  A reduced word can
    # only cancel against the letter put in front of it, so generator i times
    # word k is that earlier word when first[k] = 2i+1, and otherwise the
    # child of k by letter 2i if k is shorter than depth: target[k][i], -1
    # when outside the ball.  Word tuples are built once, for the entries.
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not math.isfinite(orbit_seed):
        raise ValueError(f"seed point must be a finite number, got {orbit_seed}")
    gens = [m if isinstance(m, MoebiusOnRP1) else MoebiusOnRP1(m) for m in generators]
    if not gens:
        return DenjoyLayout(entries=(), total_weight=0.0, maps=())
    seed = _kernels.unit_float(orbit_seed)
    n = len(gens)
    acts = [f for g in gens for f in (g, g.inverse())]
    letters = [(i, s) for i in range(n) for s in (1, -1)]
    words, first, points, target = [()], [-1], [seed], [[-1] * n]
    p = 0
    while p < len(words) and len(words[p]) < depth:  # children come out breadth-first
        for a in range(2 * n):
            if a == first[p] ^ 1:
                continue
            k = len(words)
            words.append((letters[a],) + words[p])
            first.append(a)
            points.append(acts[a](points[p]))
            target.append([-1] * n)
            if a % 2:
                target[k][a // 2] = p
            else:
                target[p][a // 2] = k
        p += 1
    for w, t in zip(words[1:], points[1:]):
        if circ_dist(t, seed) <= 1e-9:
            raise StabilizerNotTrivial(f"word of length {len(w)} fixes the seed within 1e-9")
    order = sorted(range(len(points)), key=points.__getitem__)
    for u, v in zip(order, order[1:]):
        if points[v] - points[u] <= 1e-12:
            raise StabilizerNotTrivial("distinct ball words collide at the seed orbit")

    weights = default_gap_weights(len(points))
    total = sum(weights)
    scale = 1.0 - total

    entries = []
    gaps = [(0.0, 0.0)] * len(points)
    acc = 0.0
    for k in order:
        lo = scale * points[k] + acc
        gaps[k] = (lo, lo + weights[k])
        entries.append(OrbitEntry(word=words[k], position=points[k], weight=weights[k], gap=gaps[k]))
        acc += weights[k]

    out_maps = []
    for i in range(n):
        # each gap pair carried by generator i pins both ends of the gap
        constraints = sorted(c for k, ts in enumerate(target) if ts[i] >= 0 for c in zip(gaps[k], gaps[ts[i]]))
        xs = [u for u, _ in constraints]
        ys: list[float] = []
        for _, v in constraints:
            if not ys:
                ys.append(v)
            else:
                # smallest lift of the circle value strictly above the last one
                ys.append(v + math.ceil(ys[-1] - v + 1e-15))
        out_maps.append(PiecewiseLinear(xs, ys))
    return DenjoyLayout(entries=tuple(entries), total_weight=total, maps=tuple(out_maps))

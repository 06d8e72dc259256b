"""Euler numbers of circle actions over orbifold surfaces, exactly.

A flat circle action over a closed orbifold with cone points is pinned
down, up to the interesting part, by the rotation number at each cone
point (a multiple of the reciprocal cone order) together with an integer
correction ``n``; the fractional Euler number is then ``n`` minus the
sum of the cone rotation numbers.  Pulling back to a manifold cover of
known degree clears denominators, and the resulting integer is subject
to the Milnor-Wood inequality on that cover.  Everything here is exact
Fraction arithmetic -- no floats.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence


class BudgetExceeded(ValueError):
    """Too many unconstrained cone slots to enumerate; pin some of them."""


@dataclass(frozen=True)
class OrbifoldSig:
    """Closed orientable 2-orbifold signature: underlying genus plus cone orders."""

    genus: int
    cone_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cone_orders", tuple(int(p) for p in self.cone_orders))
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if any(p < 2 for p in self.cone_orders):
            raise ValueError("cone orders must be at least 2")

    @classmethod
    def parse(cls, text: str) -> "OrbifoldSig":
        """Read the text form ``g;p1,...,pk``, or ``g`` when there are no cone points."""
        m = re.fullmatch(r"([0-9]+)(?:;([0-9]+(?:,[0-9]+)*))?", text)
        try:
            if not m:
                raise ValueError("want 'g;p1,...,pk' or 'g'")
            return cls(int(m[1]), tuple(map(int, m[2].split(","))) if m[2] else ())
        except ValueError as exc:
            raise ValueError(f"bad orbifold signature {text!r}: {exc}") from None

    def __str__(self) -> str:
        orders = ",".join(map(str, self.cone_orders))
        return f"{self.genus};{orders}" if orders else str(self.genus)


def orbifold_euler_char(sig: OrbifoldSig) -> Fraction:
    """2 - 2g minus one (1 - 1/p) defect per cone point."""
    chi = Fraction(2 - 2 * sig.genus)
    for p in sig.cone_orders:
        chi -= 1 - Fraction(1, p)
    return chi


def check_manifold_cover(sig: OrbifoldSig, degree: int, chi: int) -> None:
    """Raise ValueError unless ``sig`` can have a manifold cover of this degree and characteristic.

    A degree-d cover has Euler characteristic d * chi^orb(sig)
    (Riemann-Hurwitz), and it is a manifold only if every cone order
    divides d; a closed orientable surface has even characteristic at most 2.
    """
    if degree < 1:
        raise ValueError("cover degree must be positive")
    expected = degree * orbifold_euler_char(sig)
    if chi != expected:
        raise ValueError(
            f"a degree-{degree} cover of the {sig} orbifold "
            f"has Euler characteristic {expected}, not {chi}"
        )
    for p in sig.cone_orders:
        if degree % p:
            raise ValueError(f"cone order {p} does not divide the cover degree {degree}")
    milnor_wood_bound(chi)  # and the cover is a closed orientable surface


def euler_number(n: int, rots: Sequence[Fraction]) -> Fraction:
    """Fractional Euler number from the integer part and the cone rotation numbers."""
    return Fraction(n) - sum((Fraction(r) for r in rots), Fraction(0))


def milnor_wood_bound(chi: int) -> int:
    """Largest |Euler number| a flat circle bundle over a closed orientable
    surface of Euler characteristic ``chi`` can carry: max(0, -chi)."""
    chi = int(chi)
    if chi > 2 or chi % 2 != 0:
        raise ValueError(f"{chi} is not the Euler characteristic of a closed orientable surface")
    return max(0, -chi)


def lifted_euler_ranges(chi: int, maximal: bool = False) -> tuple[tuple[int, int], ...]:
    """The Euler numbers a flat circle bundle over a closed orientable surface
    of characteristic ``chi`` may carry, as closed integer ranges (lo, hi) in
    increasing order: the Milnor-Wood interval, or under ``maximal`` its ends."""
    bound = milnor_wood_bound(chi)
    return ((-bound, -bound), (bound, bound)) if maximal and bound else ((-bound, bound),)


@dataclass(frozen=True, order=True)
class ConeRotTuple:
    """One feasible (integer part, cone rotation numbers) combination."""

    n: int
    rots: tuple[Fraction, ...]

    def euler_number(self) -> Fraction:
        return euler_number(self.n, self.rots)

    def mirrored(self) -> "ConeRotTuple":
        """The same action with reversed circle orientation."""
        m = sum(1 for r in self.rots if r != 0)
        return ConeRotTuple(n=m - self.n, rots=tuple((1 - r) % 1 for r in self.rots))


def feasible_ns(total: Fraction, degree: int, chi: int, maximal: bool = False) -> Sequence[int]:
    """The increasing integer parts n for which cone rotation numbers summing to
    ``total`` are feasible: degree*n - degree*total is an integer in one of the
    :func:`lifted_euler_ranges`, so n fills one interval per range.  Whether any
    n works depends on ``total`` mod 1 alone; adding 1 to it adds 1 to each n."""
    if degree < 1:
        raise ValueError("cover degree must be positive")
    s = degree * total
    if s.denominator != 1:
        return ()
    s = s.numerator
    ranges = lifted_euler_ranges(chi, maximal)
    return [n for lo, hi in ranges for n in range(-((-s - lo) // degree), (s + hi) // degree + 1)]


def feasible_tuples(
    sig: OrbifoldSig,
    degree: int,
    chi: int,
    fixed: Mapping[int, Fraction] | None = None,
    maximal: bool = False,
) -> list[ConeRotTuple]:
    """All (n, rots) whose lifted Euler number is an integer within the
    Milnor-Wood bound for the degree-``degree`` cover of characteristic ``chi``.

    ``fixed`` pins chosen cone slots to given rotation numbers.  Since
    reversing the circle orientation is always available, every returned
    tuple is accompanied by its mirror (r -> 1-r per slot, with the
    integer part adjusted), even when the mirror violates a literal pin:
    the mirror describes the same action seen through the other
    orientation.  ``maximal`` keeps only tuples attaining the bound
    exactly.  Results come back lexicographically sorted.
    """
    pins: dict[int, Fraction] = {}
    for i, v in (fixed or {}).items():
        if not 0 <= i < len(sig.cone_orders):
            raise ValueError(f"no cone slot {i}")
        pins[i] = Fraction(v) % 1
        if sig.cone_orders[i] % pins[i].denominator:
            raise ValueError(f"pinned value {pins[i]} is not a multiple of 1/{sig.cone_orders[i]}")
    free = len(sig.cone_orders) - len(pins)
    if free > 3:
        raise BudgetExceeded(f"{free} free cone slots; pin at least {free - 3} of them")

    slots = [[pins[i]] if i in pins else [Fraction(k, p) for k in range(p)] for i, p in enumerate(sig.cone_orders)]
    by_n: dict[int, list[ConeRotTuple]] = {}
    for rots in itertools.product(*slots):  # lexicographic, so each bucket is sorted
        for n in feasible_ns(sum(rots, Fraction(0)), degree, chi, maximal):
            by_n.setdefault(n, []).append(ConeRotTuple(n=n, rots=rots))
    out = [t for n in sorted(by_n) for t in by_n[n]]
    if pins:  # the mirror negates the Euler number, so only a pin can break mirror closure
        return sorted(set(out) | {t.mirrored() for t in out})
    return out

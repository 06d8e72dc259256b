"""Determinant-one 2x2 matrices modulo sign, and the hyperbolic geometry they move.

Conventions, fixed here and relied on by every downstream module:

* Matrices are stored normalized: entries divided by sqrt(det) (det > 0
  required for the real class), then the global sign flipped so the first
  entry of (a, b, c, d) exceeding 1e-14 in absolute value is positive.
* The circle is RP^1 with coordinate t in [0, 1), t <-> the line through
  the origin spanned by (cos(pi t), sin(pi t)).
* ``rotation(phi)`` is [[cos phi, -sin phi], [sin phi, cos phi]]; on RP^1 it
  translates the coordinate by phi/pi, so its rotation number is phi/pi
  mod 1.  ``rotation_about(p, theta)`` conjugates ``rotation(pi*theta)`` to
  fix p and therefore has rotation number theta.
* Classification bands around |trace| = 2 use ``CLASS_TOL``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._kernels import unit_float

CLASS_TOL = 1e-9
_SIGN_TOL = 1e-14


class NotElliptic(ValueError):
    """Raised when an elliptic-only operation meets |trace| >= 2."""


class NotHyperbolic(ValueError):
    """Raised when a translation length is requested of a non-hyperbolic element."""


class NotHyperbolicTriangle(ValueError):
    """Raised for cone orders (p, q, r) with 1/p + 1/q + 1/r >= 1."""


class IsometryClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def _signed(entries):
    """Flip the global sign so the first entry above _SIGN_TOL is positive."""
    for e in entries:
        if abs(e) > _SIGN_TOL:
            if e < 0:
                return tuple(-x for x in entries)
            break
    return tuple(entries)


@dataclass(frozen=True)
class HPoint:
    """A point of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"upper half-plane needs y > 0, got {self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def from_complex(cls, z: complex) -> "HPoint":
        return cls(z.real, z.imag)


@dataclass(frozen=True)
class MoebiusReal:
    """An element of the determinant-one real 2x2 group, taken modulo sign."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = float(self.a) * float(self.d) - float(self.b) * float(self.c)
        if not 0 < det < math.inf:  # an infinite entry makes it inf or nan
            raise ValueError(f"requires a finite positive determinant, got {det!r}")
        s = math.sqrt(det)
        a, b, c, d = _signed((float(self.a) / s, float(self.b) / s, float(self.c) / s, float(self.d) / s))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "MoebiusReal":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, phi: float) -> "MoebiusReal":
        """[[cos phi, -sin phi], [sin phi, cos phi]]: rotation number phi/pi mod 1."""
        return cls(math.cos(phi), -math.sin(phi), math.sin(phi), math.cos(phi))

    @classmethod
    def translation(cls, t: float) -> "MoebiusReal":
        """z -> z + t, parabolic for t != 0."""
        return cls(1.0, t, 0.0, 1.0)

    @classmethod
    def dilation(cls, length: float) -> "MoebiusReal":
        """Hyperbolic translation by ``length`` along the imaginary axis."""
        e = math.exp(length / 2.0)
        return cls(e, 0.0, 0.0, 1.0 / e)

    # -- structure ----------------------------------------------------------

    @property
    def trace(self) -> float:
        return self.a + self.d

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "MoebiusReal") -> "MoebiusReal":
        return MoebiusReal(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusReal":
        return MoebiusReal(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, g: "MoebiusReal") -> "MoebiusReal":
        return g @ self @ g.inverse()

    def is_identity(self) -> bool:
        return max(abs(x - y) for x, y in zip(self.entries(), (1.0, 0.0, 0.0, 1.0))) <= CLASS_TOL

    def classify(self) -> IsometryClass:
        t = abs(self.trace)
        if t < 2.0 - CLASS_TOL:
            return IsometryClass.ELLIPTIC
        if t > 2.0 + CLASS_TOL:
            return IsometryClass.HYPERBOLIC
        if self.is_identity():
            return IsometryClass.IDENTITY
        return IsometryClass.PARABOLIC

    # -- actions ------------------------------------------------------------

    def apply(self, z: complex) -> complex:
        """Action on the upper half-plane."""
        return (self.a * z + self.b) / (self.c * z + self.d)

    def apply_point(self, p: HPoint) -> HPoint:
        return HPoint.from_complex(self.apply(p.z))

    def rp1(self, t: float) -> float:
        """Action on the circle coordinate t in [0, 1)."""
        ct = math.cos(math.pi * t)
        st = math.sin(math.pi * t)
        return unit_float(math.atan2(self.c * ct + self.d * st, self.a * ct + self.b * st) / math.pi)


# ---------------------------------------------------------------------------
# rotation numbers and hyperbolic trigonometry


def elliptic_rotation_number(m: MoebiusReal) -> float:
    """Rotation number in (0, 1) of an elliptic element.

    The angle phi of the conjugate standard rotation satisfies
    cos(phi) = trace/2 and sign(sin(phi)) = sign(c); conjugating preserves
    the lower-left sign because g R(phi) g^-1 has lower-left entry
    sin(phi) * (g_c^2 + g_d^2).
    """
    half = m.trace / 2.0
    if abs(half) >= 1.0 - CLASS_TOL / 2.0:
        raise NotElliptic(f"|trace| = {abs(m.trace)} is not < 2")
    s = math.sqrt((1.0 - half) * (1.0 + half))  # no cancellation near |half| = 1
    phi = math.atan2(s if m.c > 0 else -s, half)
    return unit_float(phi / math.pi)


def rotation_about(p: HPoint, theta: float) -> MoebiusReal:
    """The elliptic element fixing p with rotation number theta (identity for theta = 0).

    theta is folded onto [0, 1) before it is multiplied by pi, so a large
    theta loses none of its fraction's digits to the angle's rounding.
    """
    ry = math.sqrt(p.y)
    g = MoebiusReal(ry, p.x / ry, 0.0, 1.0 / ry)
    return g @ MoebiusReal.rotation(math.pi * unit_float(theta)) @ g.inverse()


def hyp_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance in the upper half-plane."""
    num = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    return math.acosh(max(1.0, 1.0 + num / (2.0 * p.y * q.y)))


def translation_length(m: MoebiusReal) -> float:
    """Axis translation length of a hyperbolic element: 2 acosh(|trace|/2)."""
    if m.classify() is not IsometryClass.HYPERBOLIC:
        raise NotHyperbolic(f"classification is {m.classify().value}")
    return 2.0 * math.acosh(abs(m.trace) / 2.0)


def _point_along(dist: float) -> complex:
    """Point at hyperbolic distance ``dist`` from i along the unit semicircle, rightward."""
    return complex(math.tanh(dist), 1.0 / math.cosh(dist))


def triangle_side(alpha: float, beta: float, gamma: float) -> float:
    """Length of the side joining the alpha- and beta-vertices of an
    (alpha, beta, gamma) hyperbolic triangle, by the angle cosine rule."""
    return math.acosh(
        (math.cos(alpha) * math.cos(beta) + math.cos(gamma)) / (math.sin(alpha) * math.sin(beta))
    )


def triangle_group_rep(p: int, q: int, r: int) -> tuple[MoebiusReal, MoebiusReal, MoebiusReal]:
    """Rotation generators (A, B, C) of the (p, q, r) triangle group.

    A, B, C fix the three vertices of a hyperbolic triangle with angles
    pi/p, pi/q, pi/r, have rotation numbers exactly 1/p, 1/q, 1/r, and
    satisfy A B C = Id (mod sign).  The p-vertex sits at i, the q-vertex
    at distance ``triangle_side(pi/p, pi/q, pi/r)`` along the rightward
    unit-semicircle geodesic; the r-vertex placement makes the vertex
    cycle negatively oriented, which is what lets the three *positive*
    rotation numbers multiply to the identity.
    """
    if min(p, q, r) < 2:
        raise ValueError(f"triangle orders must be at least 2, got {p}, {q}, {r}")
    if p * q + p * r + q * r >= p * q * r:
        raise NotHyperbolicTriangle(f"1/{p} + 1/{q} + 1/{r} >= 1")
    alpha, beta, gamma = math.pi / p, math.pi / q, math.pi / r
    side_ab = triangle_side(alpha, beta, gamma)
    side_ac = triangle_side(alpha, gamma, beta)
    v1 = HPoint(0.0, 1.0)
    v2 = HPoint.from_complex(_point_along(side_ab))
    v3 = HPoint.from_complex(rotation_about(v1, alpha / (2.0 * math.pi)).apply(_point_along(side_ac)))
    return (
        rotation_about(v1, 1.0 / p),
        rotation_about(v2, 1.0 / q),
        rotation_about(v3, 1.0 / r),
    )

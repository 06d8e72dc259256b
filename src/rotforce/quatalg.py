"""Totally real number fields, quaternion algebras, and arithmetic rotation numbers.

A field is presented by a monic integer minimal polynomial; its real
embeddings are isolated rational root intervals that refine on demand,
so every sign decision (ramification, ellipticity) is certified exactly
rather than floated.  A quaternion algebra (a, b / F) has i^2 = a,
j^2 = b, k = ij = -ji; an archimedean place is ramified when both a and
b are negative there.  When exactly one place is unramified the algebra
embeds in 2x2 real matrices through that place, and norm-one elliptic
elements pick up a rotation number arccos(trace/2)/pi.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import polyroots as pr
from .moebius import MoebiusReal, NotElliptic
from .rotarith import Angle


class NotIrreducible(ValueError):
    """The minimal polynomial factors over the rationals."""


class NotTotallyReal(ValueError):
    """The minimal polynomial has fewer real roots than its degree."""


class UnsupportedDegree(ValueError):
    """Irreducibility testing is implemented only through degree 4."""


class SignUndecidable(ArithmeticError):
    """Interval refinement hit its cap without separating a value from zero."""


class NotAdmissible(ValueError):
    """The algebra is not ramified at all but one archimedean place."""


class NotNormOne(ValueError):
    """The element's reduced norm is not exactly 1."""


class AlgebraSpecError(ValueError):
    """A textual algebra description failed to parse."""


_MAX_EXPONENT = 100  # largest exponent and degree in a spec: x^e costs O(e^2) Fraction products
_REFINE_CAP = 400  # interval halvings one sign or approximation query may spend
_STEP_BITS = 16  # halvings per refine_root call


def _power(x, n: int, one, mul):
    """x to the power n >= 0 by repeated squaring, for any ``mul`` with unit ``one``."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


# ---------------------------------------------------------------------------
# number fields


@dataclass(frozen=True)
class RootInterval:
    """A rational interval (lo, hi] isolating one real root of ``poly``;
    lo == hi means the root is exactly rational."""

    poly: pr.Coeffs
    lo: Fraction
    hi: Fraction

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, eps) -> "RootInterval":
        lo, hi = pr.refine_root(self.poly, (self.lo, self.hi), Fraction(eps))
        return RootInterval(self.poly, lo, hi)


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.extend((d, n // d))
    return sorted(set(out))


def _check_irreducible(p: pr.Coeffs):
    d = pr.degree(p)
    if d == 1:
        return
    if d > 4:
        raise UnsupportedDegree(f"degree {d} irreducibility not supported (max 4)")
    a0 = p[0]
    if a0 == 0:
        raise NotIrreducible("divisible by x")
    for r in _int_divisors(int(a0)):
        for root in (r, -r):
            if pr.eval_at(p, root) == 0:
                raise NotIrreducible(f"rational root {root}")
    if d == 4:
        # monic integer quartic with no linear factor: try (x^2+px+q)(x^2+rx+s)
        c0, c1, c2, c3 = (int(p[0]), int(p[1]), int(p[2]), int(p[3]))
        for q in _int_divisors(c0):
            for qq in (q, -q):
                if qq == 0 or c0 % qq != 0:
                    continue
                s = c0 // qq
                disc = c3 * c3 - 4 * (c2 - qq - s)
                if disc < 0:
                    continue
                root = math.isqrt(disc)
                if root * root != disc or (c3 + root) % 2 != 0:
                    continue
                for pp in {(c3 + root) // 2, (c3 - root) // 2}:
                    rr = c3 - pp
                    if pp * s + qq * rr == c1:
                        raise NotIrreducible(f"(x^2{pp:+d}x{qq:+d})(x^2{rr:+d}x{s:+d})")


class NumberField:
    """A totally real field Q[x]/(minpoly) with isolated, ordered real embeddings.

    Each place keeps the narrowest isolating interval found so far.  Sign
    and approximation queries start from it and store back every
    refinement they make, so an embedding is refined once for all the
    elements of the field.  An interval only ever narrows and always
    isolates the same root.
    """

    def __init__(self, minpoly: pr.Coeffs, embeddings: tuple[RootInterval, ...]):
        self.minpoly = minpoly
        self._intervals = list(embeddings)

    @property
    def embeddings(self) -> tuple[RootInterval, ...]:
        """The narrowest isolating interval found so far at each place, in ascending order."""
        return tuple(self._intervals)

    @property
    def degree(self) -> int:
        return pr.degree(self.minpoly)

    # -- elements

    def elem(self, coeffs: Sequence) -> "FieldElem":
        return self._reduced(pr.poly(coeffs))

    def _reduced(self, c: pr.Coeffs) -> "FieldElem":
        """The element of a trimmed Fraction tuple, reduced mod the minimal polynomial."""
        if pr.degree(c) >= self.degree:
            c = pr.divmod_poly(c, self.minpoly)[1]
        return FieldElem(self, c)

    def zero(self) -> "FieldElem":
        return self.elem(())

    def one(self) -> "FieldElem":
        return self.elem((1,))

    def gen(self) -> "FieldElem":
        return self.elem((0, 1))

    def from_rational(self, x) -> "FieldElem":
        return self.elem((x,))

    # -- certified signs and approximation

    def _enclosures(self, e: "FieldElem", place: int):
        """Exact enclosures (lo, hi) of the image of ``e`` at the place, each
        from an interval 2**_STEP_BITS times narrower than the one before,
        until _REFINE_CAP halvings are spent.

        Callers answer rational elements from their constant, so a root
        reached here is irrational (a field of degree 1 has only rational
        elements) and its interval never closes to a point."""
        iv = self._intervals[place]
        for step in range(_REFINE_CAP // _STEP_BITS + 1):
            if step:
                iv = iv.refine(iv.width() / 2**_STEP_BITS)
                self._intervals[place] = iv
            yield pr.eval_interval(e.coeffs, iv.lo, iv.hi)

    def sign_at(self, e: "FieldElem", place: int) -> int:
        """Certified sign of the image of ``e`` under the given real embedding.

        A rational element is its own image, so its sign is read off the
        constant.  Any other element has an irrational, so non-zero, image."""
        if e.is_rational():
            c = e.as_rational()
            return (c > 0) - (c < 0)
        for lo, hi in self._enclosures(e, place):
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise SignUndecidable(f"value straddles 0 after {_REFINE_CAP} refinements")

    def approx_at(self, e: "FieldElem", place: int) -> float:
        """The image of ``e`` under the given real embedding, correctly rounded.

        A rational element is its own image: its constant, rounded.  Any
        other element has an irrational image at every place, which a narrow
        enough enclosure separates from every rounding boundary; the result
        is the float to which both ends of that enclosure round, so it does
        not depend on how far the place has been refined before.
        """
        if e.is_rational():
            return float(e.as_rational())
        for lo, hi in self._enclosures(e, place):
            flo = float(lo)
            if flo == float(hi):
                return flo
        raise SignUndecidable(f"no correctly rounded value after {_REFINE_CAP} refinements")

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField(degree={self.degree})"


def field_create(minpoly) -> NumberField:
    """Build a totally real field from a monic integer polynomial.

    Accepts ascending coefficients or a string like ``"x^2 - 2"``.
    """
    if isinstance(minpoly, str):
        coeffs = _evaluate(minpoly, {"x": pr.poly((0, 1))}, _poly_ops())
    else:
        coeffs = pr.poly(minpoly)
    if pr.degree(coeffs) < 1:
        raise ValueError("minimal polynomial must be non-constant")
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("minimal polynomial must have integer coefficients")
    if coeffs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    _check_irreducible(coeffs)
    # an irreducible polynomial is squarefree, so isolation counts every real root
    roots = pr.isolate_real_roots(coeffs)
    if len(roots) != pr.degree(coeffs):
        raise NotTotallyReal(f"{len(roots)} real roots for degree {pr.degree(coeffs)}")
    return NumberField(coeffs, tuple(RootInterval(coeffs, lo, hi) for lo, hi in roots))


@dataclass(frozen=True)
class FieldElem:
    """Polynomial residue mod the field's minimal polynomial (exact rationals)."""

    field: NumberField
    coeffs: pr.Coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return pr.degree(self.coeffs) <= 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        # a sum of reduced elements is reduced, and pr.add trims it
        return FieldElem(self.field, pr.add(self.coeffs, self._coerce(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, pr.neg(self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return self.field._reduced(pr.mul(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # extended Euclid against the (irreducible) minimal polynomial
        r0, r1 = self.field.minpoly, self.coeffs
        s0, s1 = (), pr.poly((1,))
        while r1:
            q, r = pr.divmod_poly(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, pr.sub(s0, pr.mul(q, s1))
        if pr.degree(r0) != 0:
            raise ZeroDivisionError("element shares a factor with the minimal polynomial")
        return self.field._reduced(pr.scale(s0, 1 / r0[0]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one(), operator.mul)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"-{t}" if c == -1 else f"{c}*{t}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# quaternion algebras


class Ramification(Enum):
    RAMIFIED = "ramified"
    UNRAMIFIED = "unramified"


@dataclass(frozen=True)
class QuatElem:
    """x0 + x1 i + x2 j + x3 k with field-element coordinates."""

    x0: FieldElem
    x1: FieldElem
    x2: FieldElem
    x3: FieldElem

    def coords(self) -> tuple[FieldElem, ...]:
        return (self.x0, self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class QuatAlgebra:
    """The quaternion algebra (a, b / F): i^2 = a, j^2 = b, k = ij = -ji."""

    field: NumberField
    a: FieldElem
    b: FieldElem

    def __post_init__(self):
        if self.a.is_zero() or self.b.is_zero():
            raise ValueError("structure constants a, b must be nonzero")

    @cached_property
    def profile(self) -> tuple[Ramification, ...]:
        """Per real place, in embedding order: ramified iff both a and b are
        negative there.  Computed once per algebra."""
        f = self.field
        out = []
        for place in range(f.degree):
            sa = f.sign_at(self.a, place)
            sb = f.sign_at(self.b, place)
            if sa == 0 or sb == 0:
                raise SignUndecidable("structure constant is zero at a place")
            out.append(Ramification.RAMIFIED if (sa < 0 and sb < 0) else Ramification.UNRAMIFIED)
        return tuple(out)

    @cached_property
    def _embedding(self) -> tuple[int, bool, float, float]:
        """(place, swap, sqrt(a), b) for ``embed_unramified``: the unramified
        place, whether a < 0 there so that a and b trade roles, and the images
        of the pair after that trade.  Computed once per algebra."""
        f = self.field
        place = _unramified_place(self)
        a, b = self.a, self.b
        swap = f.sign_at(a, place) < 0
        if swap:
            a, b = b, a
        return place, swap, math.sqrt(f.approx_at(a, place)), f.approx_at(b, place)

    @cached_property
    def _basis_products(self) -> tuple[tuple[tuple[int, object], ...], ...]:
        """Row r, column s: (t, c) with e_r e_s = c e_t for the basis
        e_0..e_3 = 1, i, j, k; c is 1, -1 or one of the field elements
        a, -a, b, -b, -a b.  Computed once per algebra, with a b formed once."""
        a, b = self.a, self.b
        ab = a * b
        return (
            ((0, 1), (1, 1), (2, 1), (3, 1)),
            ((1, 1), (0, a), (3, 1), (2, a)),
            ((2, 1), (3, -1), (0, b), (1, -b)),
            ((3, 1), (2, -a), (1, b), (0, -ab)),
        )

    # -- constructors

    def scalar(self, x) -> QuatElem:
        fe = x if isinstance(x, FieldElem) else self.field.from_rational(x)
        z = self.field.zero()
        return QuatElem(fe, z, z, z)

    def one(self) -> QuatElem:
        return self.scalar(1)

    def zero(self) -> QuatElem:
        return self.scalar(0)

    def i(self) -> QuatElem:
        z = self.field.zero()
        return QuatElem(z, self.field.one(), z, z)

    def j(self) -> QuatElem:
        z = self.field.zero()
        return QuatElem(z, z, self.field.one(), z)

    def k(self) -> QuatElem:
        z = self.field.zero()
        return QuatElem(z, z, z, self.field.one())

    def elem(self, x0, x1=0, x2=0, x3=0) -> QuatElem:
        conv = lambda v: v if isinstance(v, FieldElem) else self.field.from_rational(v)
        return QuatElem(conv(x0), conv(x1), conv(x2), conv(x3))

    # -- arithmetic

    def add(self, x: QuatElem, y: QuatElem) -> QuatElem:
        return QuatElem(*(u + v for u, v in zip(x.coords(), y.coords())))

    def sub(self, x: QuatElem, y: QuatElem) -> QuatElem:
        return QuatElem(*(u - v for u, v in zip(x.coords(), y.coords())))

    def neg(self, x: QuatElem) -> QuatElem:
        return QuatElem(*(-u for u in x.coords()))

    def mul(self, x: QuatElem, y: QuatElem) -> QuatElem:
        """x y, one field product per pair of non-zero coordinates (and one
        more when the pair's basis product carries a, b or a b)."""
        out = [None] * 4
        for u, row in zip(x.coords(), self._basis_products):
            if u.is_zero():
                continue
            for v, (t, c) in zip(y.coords(), row):
                if v.is_zero():
                    continue
                term = u * v if c == 1 else -(u * v) if c == -1 else c * u * v
                out[t] = term if out[t] is None else out[t] + term
        z = self.field.zero()
        return QuatElem(*(z if w is None else w for w in out))

    def pow(self, x: QuatElem, n: int) -> QuatElem:
        if n < 0:
            raise ValueError("negative quaternion powers unsupported")
        return _power(x, n, self.one(), self.mul)

    def conj(self, x: QuatElem) -> QuatElem:
        return QuatElem(x.x0, -x.x1, -x.x2, -x.x3)

    def trace(self, x: QuatElem) -> FieldElem:
        return x.x0 + x.x0

    def norm(self, x: QuatElem) -> FieldElem:
        """x0^2 - a x1^2 - b x2^2 + a b x3^2: x0^2 less c x_r^2 for each basis
        square e_r e_r = c (r = 1, 2, 3), skipping zero coordinates."""
        out = None
        for r, (u, row) in enumerate(zip(x.coords(), self._basis_products)):
            if not u.is_zero():
                term = u * u if r == 0 else -row[r][1] * u * u
                out = term if out is None else out + term
        return self.field.zero() if out is None else out


def ramification_profile(algebra: QuatAlgebra) -> tuple[Ramification, ...]:
    """Per real place, in embedding order: ramified iff both a and b are negative there."""
    return algebra.profile


def is_fuchsian_admissible(algebra: QuatAlgebra) -> bool:
    return algebra.profile.count(Ramification.UNRAMIFIED) == 1


def _unramified_place(algebra: QuatAlgebra) -> int:
    profile = algebra.profile
    unram = [i for i, p in enumerate(profile) if p is Ramification.UNRAMIFIED]
    if len(unram) != 1:
        raise NotAdmissible(f"{len(unram)} unramified places (need exactly 1)")
    return unram[0]


def embed_unramified(algebra: QuatAlgebra, x: QuatElem) -> np.ndarray:
    """Image of x in 2x2 real matrices through the unramified place.

    i goes to diag(sqrt(a), -sqrt(a)) and j to [[0, 1], [b, 0]]; when a is
    negative there (but b positive, else the place would be ramified), the
    isomorphic algebra with a and b swapped is embedded instead, which
    permutes the element's i/j coordinates and negates the k one.  The
    determinant of the result is the norm of x at that place.
    """
    place, swap, ra, bv = algebra._embedding
    x0, x1, x2, x3 = x.coords()
    if swap:
        x1, x2, x3 = x2, x1, -x3
    c0, c1, c2, c3 = (algebra.field.approx_at(c, place) for c in (x0, x1, x2, x3))
    mi = np.array([[ra, 0.0], [0.0, -ra]])
    mj = np.array([[0.0, 1.0], [bv, 0.0]])
    return c0 * np.eye(2) + c1 * mi + c2 * mj + c3 * (mi @ mj)


def embed_psl2(algebra: QuatAlgebra, x: QuatElem) -> MoebiusReal:
    """The embedded matrix as a normalized Moebius map (norm must be positive there)."""
    m = embed_unramified(algebra, x)
    return MoebiusReal(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def arithmetic_rotation_number(algebra: QuatAlgebra, q: QuatElem, norm: FieldElem | None = None) -> Angle:
    """Rotation number arccos(trace/2)/pi of a norm-one elliptic element
    through the unramified place.  Norm is checked exactly; ellipticity
    (|trace| < 2 at the place) is certified by interval refinement.
    ``norm`` is q's reduced norm when the caller has already computed it.
    """
    f = algebra.field
    nm = algebra.norm(q) if norm is None else norm
    if nm != f.one():
        raise NotNormOne(f"norm is {nm}, not 1")
    place = _unramified_place(algebra)
    tr = algebra.trace(q)
    if not (f.sign_at(tr - 2, place) < 0 < f.sign_at(tr + 2, place)):
        raise NotElliptic("|trace| >= 2 at the unramified place")
    tv = f.approx_at(tr, place)
    return Angle(math.acos(min(1.0, max(-1.0, tv / 2))) / math.pi)


# ---------------------------------------------------------------------------
# textual algebra descriptions


def _evaluate(text: str, env: dict, ops: dict):
    """The value of an expression in ``+ - * /``, unary ``-`` and ``+``,
    ``^`` (or ``**``) to a literal integer from 0 to ``_MAX_EXPONENT``,
    parentheses, decimal integer literals and the names in ``env``.

    Python's own parser reads the text; only the nodes above are evaluated.
    A walk before evaluation bounds the degree of the expression by
    ``_MAX_EXPONENT``: names count 1 and literals 0, ``+`` and ``-`` take
    the larger degree, ``*`` and ``/`` add them, and ``^ e`` multiplies by e.
    ``ops`` maps each ``ast`` operator class to its operation over the
    operand type, and ``ast.Constant`` to the conversion of a literal.
    """
    src = " ".join(text.split())
    if not re.fullmatch(r"[\w +\-*/^()]+", src, re.ASCII):
        raise AlgebraSpecError(f"bad character or empty expression in {text!r}")
    # 007 reads 7, though Python rejects leading zeros; 1_0 and 0x10 are no literals
    src = re.sub(r"\b0+(?=\d)", "", src).replace("^", "**")

    def literal(node) -> bool:
        return isinstance(node, ast.Constant) and src[node.col_offset : node.end_col_offset].isdigit()

    def degree(node) -> int:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not literal(node.right):
                raise AlgebraSpecError(f"exponent must be a literal non-negative integer in {text!r}")
            if node.right.value > _MAX_EXPONENT:
                raise AlgebraSpecError(f"exponent {node.right.value} above {_MAX_EXPONENT} in {text!r}")
            return degree(node.left) * node.right.value
        if isinstance(node, ast.BinOp):
            left, right = degree(node.left), degree(node.right)
            return max(left, right) if isinstance(node.op, (ast.Add, ast.Sub)) else left + right
        if isinstance(node, ast.UnaryOp):
            return degree(node.operand)
        return int(isinstance(node, ast.Name))

    def value(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return ops[ast.Pow](value(node.left), node.right.value)
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = value(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else ops[ast.USub](operand)
        if literal(node):
            return ops[ast.Constant](node.value)
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        raise AlgebraSpecError(f"unsupported {ast.get_source_segment(src, node)!r} in {text!r}")

    try:
        with warnings.catch_warnings():
            # such as "invalid decimal literal" for 1if: a node rejected below
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = ast.parse(src, mode="eval")
        if (d := degree(tree.body)) > _MAX_EXPONENT:
            raise AlgebraSpecError(f"degree {d} above {_MAX_EXPONENT} in {text!r}")
        return value(tree.body)
    except ZeroDivisionError:
        raise AlgebraSpecError(f"division by zero in {text!r}") from None
    except (RecursionError, MemoryError):
        raise AlgebraSpecError("expression nested too deeply") from None
    except SyntaxError as exc:
        if exc.msg == "too many nested parentheses":
            raise AlgebraSpecError("expression nested too deeply") from None
        raise AlgebraSpecError(f"syntax error in {text!r}") from None


def _poly_ops() -> dict:
    def div(p, q):
        if pr.degree(q) > 0:
            raise AlgebraSpecError("polynomial division only by constants")
        return pr.scale(p, 1 / pr.eval_at(q, 0))

    return {
        ast.Add: pr.add,
        ast.Sub: pr.sub,
        ast.USub: pr.neg,
        ast.Mult: pr.mul,
        ast.Div: div,
        ast.Pow: lambda p, n: _power(p, n, pr.poly((1,)), pr.mul),
        ast.Constant: lambda n: pr.poly((n,)),
    }


def _field_ops(f: NumberField) -> dict:
    return {
        ast.Add: operator.add,
        ast.Sub: operator.sub,
        ast.USub: operator.neg,
        ast.Mult: operator.mul,
        ast.Div: operator.truediv,
        ast.Pow: operator.pow,
        ast.Constant: f.from_rational,
    }


def _quat_ops(algebra: QuatAlgebra) -> dict:
    def div(x: QuatElem, y: QuatElem) -> QuatElem:
        if not (y.x1.is_zero() and y.x2.is_zero() and y.x3.is_zero()):
            raise AlgebraSpecError("division only by scalar field elements")
        return algebra.mul(x, algebra.scalar(y.x0.inverse()))

    return {
        ast.Add: algebra.add,
        ast.Sub: algebra.sub,
        ast.USub: algebra.neg,
        ast.Mult: algebra.mul,
        ast.Div: div,
        ast.Pow: algebra.pow,
        ast.Constant: algebra.scalar,
    }


@dataclass(frozen=True)
class AlgebraSpec:
    """A parsed textual algebra description plus its named elements."""

    algebra: QuatAlgebra
    elements: dict[str, QuatElem]


def parse_algebra_spec(text: str) -> AlgebraSpec:
    """Parse a description like ``field: x^2-2 ; a: t ; b: -1``.

    Statements separate on newlines or semicolons.  ``field`` takes a
    monic integer polynomial in ``x``; ``a`` and ``b`` take scalar
    expressions in the field generator ``t``; ``elem <name>`` takes a
    quaternion expression in ``t, i, j, k``.  ``#`` starts a comment.
    Each statement appears once (``elem`` once per name), and an error in
    one names it.
    """
    srcs: dict[str, str] = {}  # statement label -> expression
    names: list[str] = []  # element names, in order
    stmts = [
        frag.strip()
        for line in text.splitlines()
        for frag in line.split("#", 1)[0].split(";")
    ]
    for stmt in stmts:
        if not stmt:
            continue
        if ":" not in stmt:
            raise AlgebraSpecError(f"expected 'key: value' in {stmt!r}")
        key, _, value = stmt.partition(":")
        key, value = key.strip(), value.strip()
        if key.startswith("elem"):
            name = key[4:].strip()
            if not name.isidentifier():
                raise AlgebraSpecError(f"bad element name in {stmt!r}")
            key = f"element {name!r}"
            names.append(name)
        elif key not in ("field", "a", "b"):
            raise AlgebraSpecError(f"unknown key {key!r}")
        if key in srcs:
            raise AlgebraSpecError(f"{key}: repeated statement")
        srcs[key] = value
    if not {"field", "a", "b"} <= srcs.keys():
        raise AlgebraSpecError("need 'field:', 'a:' and 'b:' statements")

    def read(label, parse):
        try:
            return parse(srcs[label])
        except AlgebraSpecError as exc:
            raise AlgebraSpecError(f"{label}: {exc}") from None

    f = read("field", field_create)
    scalar = partial(_evaluate, env={"t": f.gen()}, ops=_field_ops(f))
    algebra = QuatAlgebra(field=f, a=read("a", scalar), b=read("b", scalar))
    qenv = {
        "t": algebra.scalar(f.gen()),
        "i": algebra.i(),
        "j": algebra.j(),
        "k": algebra.k(),
    }
    quaternion = partial(_evaluate, env=qenv, ops=_quat_ops(algebra))
    elements = {name: read(f"element {name!r}", quaternion) for name in names}
    return AlgebraSpec(algebra=algebra, elements=elements)

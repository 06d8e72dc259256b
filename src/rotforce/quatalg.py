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

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
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


_REFINE_CAP = 400  # interval halvings one sign or approximation query may spend
_STEP_BITS = 16  # halvings per refine_root call


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
            if pr.eval_at(p, Fraction(root)) == 0:
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
        c = pr.poly(coeffs)
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
        return self.elem((Fraction(x),))

    # -- certified signs and approximation

    def _enclosures(self, e: "FieldElem", place: int):
        """Exact enclosures (lo, hi) of the image of ``e`` at the place, each
        from an interval 2**_STEP_BITS times narrower than the one before,
        until _REFINE_CAP halvings are spent.  A rational root gives lo == hi."""
        iv = self._intervals[place]
        for step in range(_REFINE_CAP // _STEP_BITS + 1):
            if step:
                iv = iv.refine(iv.width() / 2**_STEP_BITS)
                self._intervals[place] = iv
            if iv.lo == iv.hi:
                v = pr.eval_at(e.coeffs, iv.lo)
                yield v, v
                return
            yield pr.eval_interval(e.coeffs, iv.lo, iv.hi)

    def sign_at(self, e: "FieldElem", place: int) -> int:
        """Certified sign of the image of ``e`` under the given real embedding."""
        if not e.coeffs:
            return 0
        for lo, hi in self._enclosures(e, place):
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if lo == hi:
                return 0
        raise SignUndecidable(f"value straddles 0 after {_REFINE_CAP} refinements")

    def approx_at(self, e: "FieldElem", place: int) -> float:
        """The image of ``e`` under the given real embedding, correctly rounded.

        Returns the float to which both ends of an exact enclosure round.
        A rational value is enclosed exactly; an element outside Q has an
        irrational image at every place, which a narrow enough enclosure
        separates from every rounding boundary.  So the result does not
        depend on how far the place has been refined before.
        """
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
        coeffs = _parse_poly_in_x(minpoly)
    else:
        coeffs = pr.poly(minpoly)
    if pr.degree(coeffs) < 1:
        raise ValueError("minimal polynomial must be non-constant")
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("minimal polynomial must have integer coefficients")
    if coeffs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    _check_irreducible(coeffs)
    if pr.count_real_roots(coeffs) != pr.degree(coeffs):
        raise NotTotallyReal(
            f"{pr.count_real_roots(coeffs)} real roots for degree {pr.degree(coeffs)}"
        )
    roots = tuple(RootInterval(coeffs, lo, hi) for lo, hi in pr.isolate_real_roots(coeffs))
    return NumberField(coeffs, roots)


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
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.from_rational(other)

    def __add__(self, other):
        o = self._coerce(other)
        return self.field.elem(pr.add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, pr.neg(self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return self.field.elem(pr.mul(self.coeffs, o.coeffs))

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
        return self.field.elem(pr.scale(s0, 1 / r0[0]))

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        a, b = self.a, self.b
        x0, x1, x2, x3 = x.coords()
        y0, y1, y2, y3 = y.coords()
        return QuatElem(
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def pow(self, x: QuatElem, n: int) -> QuatElem:
        if n < 0:
            raise ValueError("negative quaternion powers unsupported")
        out, base = self.one(), x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def conj(self, x: QuatElem) -> QuatElem:
        return QuatElem(x.x0, -x.x1, -x.x2, -x.x3)

    def trace(self, x: QuatElem) -> FieldElem:
        return x.x0 + x.x0

    def norm(self, x: QuatElem) -> FieldElem:
        a, b = self.a, self.b
        return x.x0 * x.x0 - a * x.x1 * x.x1 - b * x.x2 * x.x2 + a * b * x.x3 * x.x3


def quat_trace_norm(algebra: QuatAlgebra, x: QuatElem) -> tuple[FieldElem, FieldElem]:
    return algebra.trace(x), algebra.norm(x)


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
    f = algebra.field
    place = _unramified_place(algebra)
    a, b = algebra.a, algebra.b
    x0, x1, x2, x3 = x.coords()
    if f.sign_at(a, place) < 0:
        a, b = b, a
        x1, x2, x3 = x2, x1, -x3
    av = f.approx_at(a, place)
    bv = f.approx_at(b, place)
    ra = math.sqrt(av)
    c0 = f.approx_at(x0, place)
    c1 = f.approx_at(x1, place)
    c2 = f.approx_at(x2, place)
    c3 = f.approx_at(x3, place)
    mi = np.array([[ra, 0.0], [0.0, -ra]])
    mj = np.array([[0.0, 1.0], [bv, 0.0]])
    return c0 * np.eye(2) + c1 * mi + c2 * mj + c3 * (mi @ mj)


def embed_psl2(algebra: QuatAlgebra, x: QuatElem) -> MoebiusReal:
    """The embedded matrix as a normalized Moebius map (norm must be positive there)."""
    m = embed_unramified(algebra, x)
    return MoebiusReal(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def arithmetic_rotation_number(algebra: QuatAlgebra, q: QuatElem) -> Angle:
    """Rotation number arccos(trace/2)/pi of a norm-one elliptic element
    through the unramified place.  Norm is checked exactly; ellipticity
    (|trace| < 2 at the place) is certified by interval refinement.
    """
    f = algebra.field
    if algebra.norm(q) != f.one():
        raise NotNormOne(f"norm is {algebra.norm(q)}, not 1")
    place = _unramified_place(algebra)
    tr = algebra.trace(q)
    if not (f.sign_at(tr - 2, place) < 0 < f.sign_at(tr + 2, place)):
        raise NotElliptic("|trace| >= 2 at the unramified place")
    tv = f.approx_at(tr, place)
    return Angle(math.acos(min(1.0, max(-1.0, tv / 2))) / math.pi)


# ---------------------------------------------------------------------------
# textual algebra descriptions

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\*\*|[-+*/^()])")


def _tokenize(s: str) -> list[str]:
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise AlgebraSpecError(f"bad character {s[pos]!r} in {s!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """Tiny recursive-descent evaluator: +, -, *, /, integer ^ (or **), parentheses.

    Works over any operand type; ``ops`` supplies add/sub/neg/mul/div/pow
    callables, ``env`` the named values, ``from_int`` the literals.
    """

    def __init__(self, tokens: list[str], env: dict, ops: dict):
        self.toks = tokens
        self.pos = 0
        self.env = env
        self.ops = ops

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        if not self.toks:
            raise AlgebraSpecError("empty expression")
        v = self.expr()
        if self.peek() is not None:
            raise AlgebraSpecError(f"trailing input at {self.peek()!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.ops["add"] if self.take() == "+" else self.ops["sub"]
            v = op(v, self.term())
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.ops["mul"] if self.take() == "*" else self.ops["div"]
            v = op(v, self.factor())
        return v

    def factor(self):
        if self.peek() == "-":
            self.take()
            return self.ops["neg"](self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        v = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            exp = self.take()
            if exp is None or not exp.isdigit():
                raise AlgebraSpecError("exponent must be a literal non-negative integer")
            v = self.ops["pow"](v, int(exp))
        return v

    def atom(self):
        t = self.take()
        if t is None:
            raise AlgebraSpecError("unexpected end of expression")
        if t == "(":
            v = self.expr()
            if self.take() != ")":
                raise AlgebraSpecError("missing closing parenthesis")
            return v
        if t.isdigit():
            return self.ops["from_int"](int(t))
        if t in self.env:
            return self.env[t]
        raise AlgebraSpecError(f"unknown symbol {t!r}")


def _poly_ops() -> dict:
    def div(p, q):
        if pr.degree(q) > 0:
            raise AlgebraSpecError("polynomial division only by constants")
        if not q:
            raise AlgebraSpecError("division by zero")
        return pr.scale(p, 1 / q[0])

    def pow_(p, n):
        out = pr.poly((1,))
        for _ in range(n):
            out = pr.mul(out, p)
        return out

    return {
        "add": pr.add,
        "sub": pr.sub,
        "neg": pr.neg,
        "mul": pr.mul,
        "div": div,
        "pow": pow_,
        "from_int": lambda n: pr.poly((n,)),
    }


def _parse_poly_in_x(text: str) -> pr.Coeffs:
    toks = _tokenize(text)
    return _ExprParser(toks, {"x": pr.poly((0, 1))}, _poly_ops()).parse()


def _field_ops(f: NumberField) -> dict:
    return {
        "add": lambda u, v: u + v,
        "sub": lambda u, v: u - v,
        "neg": lambda u: -u,
        "mul": lambda u, v: u * v,
        "div": lambda u, v: u / v,
        "pow": lambda u, n: u**n,
        "from_int": f.from_rational,
    }


def _quat_ops(algebra: QuatAlgebra) -> dict:
    def div(x: QuatElem, y: QuatElem) -> QuatElem:
        if not (y.x1.is_zero() and y.x2.is_zero() and y.x3.is_zero()):
            raise AlgebraSpecError("division only by scalar field elements")
        return algebra.mul(x, algebra.scalar(y.x0.inverse()))

    return {
        "add": algebra.add,
        "sub": algebra.sub,
        "neg": algebra.neg,
        "mul": algebra.mul,
        "div": div,
        "pow": algebra.pow,
        "from_int": lambda n: algebra.scalar(n),
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
    """
    field_src = a_src = b_src = None
    elems_src: list[tuple[str, str]] = []
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
        if key == "field":
            field_src = value
        elif key == "a":
            a_src = value
        elif key == "b":
            b_src = value
        elif key.startswith("elem"):
            name = key[4:].strip()
            if not name.isidentifier():
                raise AlgebraSpecError(f"bad element name in {stmt!r}")
            elems_src.append((name, value))
        else:
            raise AlgebraSpecError(f"unknown key {key!r}")
    if field_src is None or a_src is None or b_src is None:
        raise AlgebraSpecError("need 'field:', 'a:' and 'b:' statements")

    f = field_create(field_src)
    fops = _field_ops(f)
    fenv = {"t": f.gen()}
    a = _ExprParser(_tokenize(a_src), fenv, fops).parse()
    b = _ExprParser(_tokenize(b_src), fenv, fops).parse()
    algebra = QuatAlgebra(field=f, a=a, b=b)
    qops = _quat_ops(algebra)
    qenv = {
        "t": algebra.scalar(f.gen()),
        "i": algebra.i(),
        "j": algebra.j(),
        "k": algebra.k(),
    }
    elements = {}
    for name, src in elems_src:
        try:
            elements[name] = _ExprParser(_tokenize(src), qenv, qops).parse()
        except AlgebraSpecError as exc:
            raise AlgebraSpecError(f"element {name!r}: {exc}") from None
    return AlgebraSpec(algebra=algebra, elements=elements)

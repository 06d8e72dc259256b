"""Tests for the algebra spec language: expressions read by Python's parser
against the former hand-written tokenizer and recursive-descent parser, kept
here as an oracle, plus the statement-level rules of parse_algebra_spec."""

import ast
import functools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotforce.polyroots as pr
from rotforce.quatalg import (
    AlgebraSpecError,
    QuatAlgebra,
    _evaluate,
    _field_ops,
    _poly_ops,
    _quat_ops,
    field_create,
    parse_algebra_spec,
)

F = Fraction


# ---------------------------------------------------------------------------
# the former expression reader, as an oracle

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
    """Recursive descent over +, -, *, /, unary - and +, integer ^ (or **), parentheses."""

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
        try:
            v = self.expr()
        except RecursionError:
            raise AlgebraSpecError("expression nested too deeply") from None
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


def _oracle_ops(ops: dict, one) -> dict:
    """The string-keyed table of the former parser over the same operations,
    with powers by repeated multiplication."""
    mul = ops[ast.Mult]
    return {
        "add": ops[ast.Add],
        "sub": ops[ast.Sub],
        "neg": ops[ast.USub],
        "mul": mul,
        "div": ops[ast.Div],
        "pow": lambda v, n: functools.reduce(mul, [v] * n, one),
        "from_int": ops[ast.Constant],
    }


# ---------------------------------------------------------------------------
# the three levels: polynomials in x, field elements in t, quaternions in t, i, j, k

FIELD = field_create("x^3 - 3*x + 1")
ALGEBRA = QuatAlgebra(field=FIELD, a=FIELD.gen() + 1, b=FIELD.from_rational(-1))
LEVELS = {
    "poly": ({"x": pr.poly((0, 1))}, _poly_ops(), pr.poly((1,))),
    "field": ({"t": FIELD.gen()}, _field_ops(FIELD), FIELD.one()),
    "quat": (
        {"t": ALGEBRA.scalar(FIELD.gen()), "i": ALGEBRA.i(), "j": ALGEBRA.j(), "k": ALGEBRA.k()},
        _quat_ops(ALGEBRA),
        ALGEBRA.one(),
    ),
}

REJECTED = "rejected"


def _outcome(read, text):
    try:
        return read(text)
    except AlgebraSpecError:
        return REJECTED
    except ZeroDivisionError:  # the former reader let division by zero through
        return REJECTED


def _read_new(level, text):
    env, ops, _ = LEVELS[level]
    return _outcome(lambda s: _evaluate(s, env, ops), text)


def _read_old(level, text):
    env, ops, one = LEVELS[level]
    return _outcome(lambda s: _ExprParser(_tokenize(s), env, _oracle_ops(ops, one)).parse(), text)


def _without_edges(text: str) -> str:
    """The text with the documented grammar edges undone for the former
    reader: a parenthesized literal loses its parentheses (so ``t^(2)``
    reads ``t^ 2 ``), and trailing whitespace goes."""
    while True:
        out = re.sub(r"\(\s*(\d+)\s*\)", r" \1 ", text)
        if out == text:
            return text.rstrip()
        text = out


# ---------------------------------------------------------------------------
# a seeded corpus: grammar-shaped expressions, then random edits

_EDITS = [
    "x", "t", "i", "j", "k", "y", "tt", "_", "0", "1", "2", "7", "00", "007",
    "+", "-", "*", "/", "^", "**", "//", "(", ")", "()", " ", "\t", "\n", "\u00a0", "\u2003", "\x1f",
    ".", ",", "#", "%", "~", "=", ";", ":", "'", "[", "]", "\\", "@", "<", "!", "e",
    "1_0", "0x1", "0b1", "1.5", "1e3", "2j", "True", "None", "lambda", "if", " not ",
    " and ", " or ", " in ", "ｔ",  # fullwidth t, which Python would read as t
]


def _random_expr(rng, names, depth) -> str:
    r = rng.random()
    sp = lambda: str(rng.choice(["", "", " ", "  "]))
    if depth == 0 or r < 0.3:
        return str(rng.choice(names + ["0", "1", "2", "3", "5", "007", "12"]))
    if r < 0.55:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return _random_expr(rng, names, depth - 1) + sp() + op + sp() + _random_expr(rng, names, depth - 1)
    if r < 0.65:
        return str(rng.choice(["-", "+", "--", "- "])) + _random_expr(rng, names, depth - 1)
    if r < 0.8:
        exp = str(rng.choice(["0", "1", "2", "3", "4", "02", "(2)", "( 3 )", "-1", "x", "2^2"]))
        return _random_expr(rng, names, depth - 1) + sp() + str(rng.choice(["^", "**"])) + sp() + exp
    return "(" + sp() + _random_expr(rng, names, depth - 1) + sp() + ")"


def _corpus(level: str, size: int, seed: int) -> list[str]:
    names = sorted(LEVELS[level][0]) + ["y"]
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < size:
        s = _random_expr(rng, names, int(rng.integers(0, 5)))
        for _ in range(int(rng.choice([0, 0, 1, 1, 2, 3]))):
            pos = int(rng.integers(0, len(s) + 1))
            cut = int(rng.integers(0, 2))
            s = s[:pos] + str(rng.choice(_EDITS)) + s[pos + cut :]
        # keep the exact polynomial powers cheap for the oracle's repeated products
        if max((int(d) for d in re.findall(r"\d+", s)), default=0) > 12:
            continue
        if level == "poly" and len(re.findall(r"\^|\*\*", s)) > 2:
            continue
        out.append(s)
    return out


@pytest.mark.parametrize("level,seed", [("poly", 101), ("field", 102), ("quat", 103)])
def test_evaluate_matches_former_parser(level, seed):
    accepted = edges = 0
    for text in _corpus(level, 10_000, seed):
        got, want = _read_new(level, text), _read_old(level, text)
        if got != want and want is REJECTED and got is not REJECTED:
            want = _read_old(level, _without_edges(text))
            edges += 1
        assert got == want, text
        accepted += got is not REJECTED
    # the corpus exercises both sides and the edges
    assert 1_000 < accepted < 9_000 and edges > 0, (accepted, edges)


# ---------------------------------------------------------------------------
# the grammar edges, explicitly


def test_parenthesized_exponent_now_reads():
    assert field_create("x^(2) - 2") == field_create("x^2 - 2")
    t = FIELD.gen()
    assert _read_new("field", "t^(2)") == t * t
    assert _read_new("field", "t ** ((3))") == t * t * t
    assert _read_old("field", "t^(2)") is REJECTED
    # still a literal: a parenthesized expression is no exponent
    assert _read_new("field", "t^(1+1)") is REJECTED
    assert _read_new("field", "t^(-1)") is REJECTED


def test_exponents_are_bounded():
    t = FIELD.gen()
    assert _read_new("field", "t^100") == _read_old("field", "t^100") == t**100
    assert _read_new("poly", "x^100") == pr.poly((0,) * 100 + (1,))
    for level in LEVELS:
        name = next(iter(LEVELS[level][0]))
        for text in (f"{name}^101", f"{name} ** 000101", f"(1 + {name})^10000000"):
            assert _read_new(level, text) is REJECTED
    with pytest.raises(AlgebraSpecError, match=r"^exponent 200000 above 100 in 'x\^200000 - 2'$"):
        field_create("x^200000 - 2")


def test_non_ascii_digits_now_rejected():
    assert _read_old("field", "١") == FIELD.one()  # ARABIC-INDIC DIGIT ONE
    for text in ("١", "t + ٢", "t^٢", "２"):
        assert _read_new("field", text) is REJECTED, text
    with pytest.raises(AlgebraSpecError):
        field_create("x^2 - ٢")


def test_trailing_whitespace_accepted():
    # a spec strips each value, so only a direct field_create call can end in
    # whitespace; the former tokenizer read it as a bad character
    assert field_create("x^2 - 2 \t") == field_create("x^2 - 2")
    assert _read_old("poly", "x ") is REJECTED


def _parse_poly_in_x(text):
    return _evaluate(text, *LEVELS["poly"][:2])


def test_literals():
    assert _parse_poly_in_x("007*x + 0") == pr.poly((0, 7))
    assert _parse_poly_in_x("x^02 - 000") == pr.poly((0, 0, 1))
    for text in ("1_0", "0x10", "0b1", "0o7", "1.5", "1e3", "2j", "True", "None", "'1'", "x^1_0"):
        with pytest.raises(AlgebraSpecError):
            _parse_poly_in_x(text)


def test_python_syntax_outside_the_grammar_is_rejected():
    for text in ("x // 2", "x % 2", "x, 1", "(x := 2)", "f(x)", "x[0]", "x.real", "-~x", "not x",
                 "x if x else x", "x < 2", "lambda: x", "x ** -1", "x ^ 2 ^ 2", "x  # comment",
                 "await x", "(yield)", "ｘ^2", "x^2; x", "", "  ", "x @ x", "[x]", "{x}"):
        with pytest.raises(AlgebraSpecError):
            _parse_poly_in_x(text)
    # Python warns of a literal run into a keyword; the reader stays quiet
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for text in ("1if x else 2", "x if 1else 2", "1or x", "1in x", "2and x", "1not in x"):
            with pytest.raises(AlgebraSpecError):
                _parse_poly_in_x(text)
    assert caught == []


def test_nesting_limits():
    assert _read_new("field", "(" * 150 + "t" + ")" * 150) == FIELD.gen()
    assert _read_new("field", "-" * 200 + "t") == FIELD.gen()
    assert _read_new("field", " + ".join(["t"] * 300)) == FIELD.gen() * 300
    for text in ("(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t", " + ".join(["t"] * 5000)):
        with pytest.raises(AlgebraSpecError, match="^expression nested too deeply$"):
            _evaluate(text, *LEVELS["field"][:2])


# ---------------------------------------------------------------------------
# printing and reading back

FIELDS = ["x + 3", "x^2 - 2", "x^2 - 5", "x^3 - 3*x + 1", "x^4 - 5*x^2 + 5", "x^4 - 10*x^2 + 1"]
_fraction = st.builds(F, st.integers(-60, 60), st.integers(1, 12) | st.integers(10**5, 10**7))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIELDS), st.data())
def test_field_element_str_reads_back(text, data):
    field = field_create(text)
    ops, env = _field_ops(field), {"t": field.gen()}
    elems = st.lists(st.lists(_fraction, min_size=field.degree, max_size=field.degree), min_size=1, max_size=6)
    for coeffs in data.draw(elems):
        e = field.elem(coeffs)
        assert _evaluate(str(e), env, ops) == e, str(e)


# ---------------------------------------------------------------------------
# statements


SPEC = "field: x^2 - 2; a: t; b: -1; elem u: (t/2) + (t/2)*j"


@pytest.mark.parametrize(
    "spec,message",
    [
        ("field: x/0; a: t; b: -1", "field: division by zero"),
        ("field: x^2 - 2; a: 1/0; b: -1", "a: division by zero"),
        ("field: x^2 - 2; a: t; b: 1/(t - t)", "b: division by zero"),
        (SPEC + "; elem v: i/0", "element 'v': division by zero"),
        (SPEC + "; elem v: i/(t^2 - 2)", "element 'v': division by zero"),
        ("field: x^2 - 2; a: nonsense; b: -1", "a: unsupported 'nonsense'"),
        ("field: x^2 - 2; a: t; b: t^-1", "b: exponent must be"),
        ("field: x^2 - 2; a: t; b: -1; a: 2", "a: repeated statement"),
        ("field: x^2 - 2; field: x^2 - 3; a: t; b: -1", "field: repeated statement"),
        ("field: x^2 - 2; a: t; b: -1; b: -1", "b: repeated statement"),
        (SPEC + "; elem u: j", "element 'u': repeated statement"),
        (SPEC + "; elemu: j", "element 'u': repeated statement"),
    ],
)
def test_spec_errors_name_their_statement(spec, message):
    with pytest.raises(AlgebraSpecError) as info:
        parse_algebra_spec(spec)
    assert str(info.value).startswith(message), str(info.value)


def test_distinct_elements_keep_their_order():
    spec = parse_algebra_spec(SPEC + "; elem w: k; elem a: i")
    assert list(spec.elements) == ["u", "w", "a"]
    assert spec.elements["w"] == spec.algebra.k()

"""Group presentations, relation checking, and rotation-number forcing.

A presentation is generators plus relators (word equations lhs = rhs)
plus annotations that only propagation reads.  The grammar's ``torsion``,
``conj`` and ``commute`` statements are spellings of relators.

The centerpiece is :func:`propagate`: starting from the full circle for
every generator, it applies a fixed list of sound rules -- conjugacy
invariance, rot(g^n) = n rot(g), the Baumslag-Solitar collapse, addition
for commuting products, torsion, orbifold Euler-number feasibility, and
interval exclusion -- until nothing shrinks, recording each derivation
step in a replayable certificate.  The rules are mined once, and one is
re-derived only when a fact it cites changes; NotStabilized caps sweeps
and arcs.  The outputs are outer sets: every genuine circle action
realizes rotation numbers inside them.  No code checks that a value they
keep is attained by some action, so they are not claimed to be exact.

Also here: nested outer approximations of closed symmetric sets by
dyadically-snapped interval covers, and the synthesis of a presentation
whose marked generator is forced into {0} plus/minus a requested arc.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import circledyn
from ._kernels import unit_float
from .circledyn import CircleMap, circ_dist
from .eulerorb import OrbifoldSig, check_manifold_cover, lifted_euler_ranges
from .rotarith import domain_interval, wrap_diff
from .rotset import RotSet, _fmt

__all__ = [
    "GroupWord",
    "Presentation",
    "OrbifoldData",
    "DialData",
    "parse_presentation",
    "print_presentation",
    "eval_word",
    "check_relations",
    "RelationReport",
    "propagate",
    "PropagationResult",
    "Certificate",
    "CertEntry",
    "replay_certificate",
    "Inconsistent",
    "NotStabilized",
    "outer_approximation",
    "middle_thirds_cantor",
    "InvalidCoverGenerator",
    "emit_interval_group",
    "NotRepresentable",
    "PresentationSyntaxError",
    "UnknownGenerator",
    "UnassignedGenerator",
]


class PresentationSyntaxError(ValueError):
    """Malformed presentation text; message carries the statement index."""


class UnknownGenerator(ValueError):
    """A statement references a generator that was never declared."""


class UnassignedGenerator(ValueError):
    """Word evaluation hit a generator missing from the assignment."""


class Inconsistent(ValueError):
    """Propagation derived an empty set: the annotations admit no action at all."""


class InvalidCoverGenerator(ValueError):
    """An outer-approximation stage failed to nest inside the previous one."""


class NotRepresentable(ValueError):
    """No excluded-interval parameters realize the requested arc."""


class NotStabilized(ValueError):
    """Propagation hit its sweep cap, or a set grew past its arc cap."""


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class GroupWord:
    """A formal product of generator powers; the empty word is the identity."""

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if any(e == 0 for _, e in self.letters):
            raise ValueError("zero exponents are not allowed in words")

    @classmethod
    def parse(cls, text: str) -> "GroupWord":
        text = text.strip()
        if text in ("", "1"):
            return cls(())
        letters = []
        for tok in text.split():
            name, caret, exp = tok.partition("^")
            if not name.isidentifier() or (caret and not exp):
                raise PresentationSyntaxError(f"bad generator token {tok!r}")
            e = _number(exp) if exp else 1
            if e == 0:
                raise PresentationSyntaxError(f"zero exponent in {tok!r}")
            letters.append((name, e))
        return cls(tuple(letters))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def gens(self) -> set[str]:
        return {g for g, _ in self.letters}


def _merge_adjacent(letters) -> list[tuple[str, int]]:
    """Merge neighbouring powers of one generator, dropping zero powers, as a stack."""
    merged: list[tuple[str, int]] = []
    for g, e in letters:
        if merged and merged[-1][0] == g:
            e2 = merged[-1][1] + e
            merged.pop()
            if e2:
                merged.append((g, e2))
        else:
            merged.append((g, e))
    return merged


def _stripped_power(merged: list[tuple[str, int]]) -> tuple[str, int] | None:
    """(g, n) when the merged letters are a pure power of one generator, stripping
    any conjugating dressing u g^n u^-1; None otherwise."""
    # strip matched conjugation: first letter inverse of last.  The merged
    # word has no two adjacent letters on one generator, so neither has
    # what is left after stripping.
    while len(merged) >= 3 and merged[0][0] == merged[-1][0] and merged[0][1] == -merged[-1][1]:
        merged = merged[1:-1]
    return merged[0] if len(merged) == 1 else None


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True)
class OrbifoldData:
    """Orbifold-subgroup annotation: signature, manifold-cover degree and
    Euler characteristic, whether the Euler class is maximal, and which
    generator realizes which cone point (slots are 1-based in the grammar,
    0-based here)."""

    sig: OrbifoldSig
    degree: int
    cover_chi: int
    maximal: bool
    cone_map: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DialData:
    """An order-n dial element; when its rotation number is 0 the controlled
    generators are forced trivial."""

    name: str
    order: int
    controls: tuple[str, ...]


@dataclass(frozen=True)
class Presentation:
    """Generators, relators (lhs, rhs) for lhs = rhs -- every group relation is
    one -- and the annotations propagation reads.  A dial's order stays in its DialData."""

    generators: tuple[str, ...]
    relators: tuple[tuple[GroupWord, GroupWord], ...] = ()
    orbifolds: tuple[OrbifoldData, ...] = ()
    dials: tuple[DialData, ...] = ()
    pins: tuple[tuple[str, tuple], ...] = ()  # (g, rotation values)
    excludes: tuple[tuple[str, float, float], ...] = ()  # (g, l, theta)
    marked: tuple[str, ...] = ()


_KEYWORDS = (
    "gens",
    "rels",
    "commute",
    "conj",
    "torsion",
    "orbifold",
    "dial",
    "mark",
    "pin",
    "exclude",
)


def _statements(text: str) -> list[str]:
    """Split on ';' and newlines; fragments that do not start with a keyword
    are glued back onto the previous statement (so `sig=0;2,3,7` survives)."""
    out: list[str] = []
    for line in text.splitlines():
        for frag in line.split("#", 1)[0].split(";"):
            frag = frag.strip()
            if not frag:
                continue
            head = frag.split(None, 1)[0]
            if head in _KEYWORDS or not out:
                out.append(frag)
            else:
                out[-1] = out[-1] + ";" + frag
    return out


def _number(tok: str, kind=int):
    """``kind(tok)``, with malformed and non-finite numbers as syntax errors."""
    try:
        v = kind(tok)
        if kind is float and not math.isfinite(v):
            raise ValueError
        return v
    except (ValueError, ZeroDivisionError):
        what = "an integer" if kind is int else "a finite number"
        raise PresentationSyntaxError(f"{tok!r} is not {what}") from None


def _parse_value(tok: str):
    tok = tok.strip()
    try:
        return Fraction(int(tok))
    except ValueError:
        return _number(tok, Fraction if "/" in tok else float)


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation grammar.

    Statements end at ';' or newline: ``gens A,B,C``, ``rels A^2 = T, A B C = T``,
    ``commute (a,b)``, ``conj (x: h -> h2)`` (h/h2 words), ``torsion C:7``,
    ``orbifold sig=0;2,3,7 degree=168 coverchi=-4 [maximal]
    map C:3`` (cone slots 1-based), ``dial nu:3 [controls a,b]``,
    ``pin g: 0,1/4``, ``exclude g: l=1.0 theta=0.25``, ``mark C``.
    The token ``1`` is the empty word.  ``commute``, ``conj`` and ``torsion``
    are stored as the relators a b = b a, x h x^-1 = h2 and C^7 = 1, so
    ``torsion a:3`` parses to the same Presentation as ``rels a^3 = 1``.
    """
    stmts = _statements(text)
    gens: list[str] = []
    for stmt in stmts:
        head, _, rest = stmt.partition(" ")
        if head == "gens":
            names = [n.strip() for n in rest.split(",") if n.strip()]
            if not names:
                raise PresentationSyntaxError("empty generator list")
            for n in names:
                if not n.isidentifier():
                    raise PresentationSyntaxError(f"bad generator name {n!r}")
            gens.extend(n for n in names if n not in gens)
    if not gens:
        raise PresentationSyntaxError("no 'gens' statement")
    known = set(gens)

    def need(name: str, where: str) -> str:
        if name not in known:
            raise UnknownGenerator(f"{name!r} in {where!r} was never declared")
        return name

    def parse_word(src: str, where: str) -> GroupWord:
        w = GroupWord.parse(src)
        for g in w.gens():
            need(g, where)
        return w

    relators: list[tuple[GroupWord, GroupWord]] = []
    one = GroupWord(())
    orbifolds: list[OrbifoldData] = []
    dials: list[DialData] = []
    pins: list[tuple[str, tuple]] = []
    excludes: list[tuple[str, float, float]] = []
    marked: list[str] = []

    for idx, stmt in enumerate(stmts):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        try:
            if head == "gens":
                continue
            elif head == "rels":
                for part in rest.split(","):
                    if part.count("=") != 1:
                        raise PresentationSyntaxError(f"relator needs one '=': {part!r}")
                    lhs, rhs = part.split("=")
                    relators.append((parse_word(lhs, part), parse_word(rhs, part)))
            elif head == "commute":
                m = re.fullmatch(r"\(\s*(\w+)\s*,\s*(\w+)\s*\)", rest)
                if not m:
                    raise PresentationSyntaxError(f"expected 'commute (a,b)': {stmt!r}")
                a, b = need(m.group(1), stmt), need(m.group(2), stmt)
                relators.append((GroupWord(((a, 1), (b, 1))), GroupWord(((b, 1), (a, 1)))))
            elif head == "conj":
                m = re.fullmatch(r"\(\s*(\w+)\s*:\s*(.+?)\s*->\s*(.+?)\s*\)", rest)
                if not m:
                    raise PresentationSyntaxError(f"expected 'conj (x: h -> h2)': {stmt!r}")
                x, h = need(m.group(1), stmt), parse_word(m.group(2), stmt)
                relators.append((GroupWord(((x, 1), *h.letters, (x, -1))), parse_word(m.group(3), stmt)))
            elif head == "torsion":
                for part in rest.split(","):
                    name, _, order = part.partition(":")
                    q = _number(order)
                    if q < 1:
                        raise PresentationSyntaxError(f"torsion order must be >= 1: {part!r}")
                    relators.append((GroupWord(((need(name.strip(), stmt), q),)), one))
            elif head == "orbifold":
                orbifolds.append(_parse_orbifold(rest, need))
            elif head == "dial":
                dials.append(_parse_dial(rest, need))
            elif head == "pin":
                name, _, vals = rest.partition(":")
                values = tuple(_parse_value(v) for v in vals.split(",") if v.strip())
                if not values:
                    raise PresentationSyntaxError(f"pin needs at least one value: {stmt!r}")
                pins.append((need(name.strip(), stmt), values))
            elif head == "exclude":
                name, _, params = rest.partition(":")
                kv = dict(re.findall(r"(\w+)\s*=\s*([^\s]+)", params))
                if set(kv) != {"l", "theta"}:
                    raise PresentationSyntaxError(f"expected 'exclude g: l=.. theta=..': {stmt!r}")
                l, theta = _number(kv["l"], float), _number(kv["theta"], float)
                excludes.append((need(name.strip(), stmt), l, theta))
            elif head == "mark":
                for n in rest.split(","):
                    n = n.strip()
                    if n:
                        marked.append(need(n, stmt))
            else:
                raise PresentationSyntaxError(f"unknown statement {head!r}")
        except (PresentationSyntaxError, UnknownGenerator) as exc:
            raise type(exc)(f"statement {idx + 1}: {exc}") from None
    return Presentation(
        generators=tuple(gens),
        relators=tuple(relators),
        orbifolds=tuple(orbifolds),
        dials=tuple(dials),
        pins=tuple(pins),
        excludes=tuple(excludes),
        marked=tuple(marked),
    )


def _parse_orbifold(rest: str, need) -> OrbifoldData:
    fields: dict[str, str] = {}
    maximal = False
    cone_map: list[tuple[str, int]] = []
    toks = iter(rest.split())
    for tok in toks:
        key, eq, value = tok.partition("=")
        if eq and key in ("sig", "degree", "coverchi"):
            fields[key] = value
        elif tok == "maximal":
            maximal = True
        elif tok == "map":
            target = next(toks, None)
            if target is None:
                raise PresentationSyntaxError("dangling 'map'")
            for part in target.split(","):
                name, _, slot = part.partition(":")
                cone_map.append((need(name.strip(), rest), _number(slot) - 1))
        else:
            raise PresentationSyntaxError(f"unknown orbifold token {tok!r}")
    if len(fields) != 3:
        raise PresentationSyntaxError("orbifold needs sig=, degree= and coverchi=")
    degree, cover_chi = _number(fields["degree"]), _number(fields["coverchi"])
    try:
        sig = OrbifoldSig.parse(fields["sig"])
        check_manifold_cover(sig, degree, cover_chi)
    except ValueError as exc:
        raise PresentationSyntaxError(str(exc)) from None
    for _, s in cone_map:
        if not 0 <= s < len(sig.cone_orders):
            raise PresentationSyntaxError(f"cone slot {s + 1} out of range (1..{len(sig.cone_orders)})")
    return OrbifoldData(
        sig=sig,
        degree=degree,
        cover_chi=cover_chi,
        maximal=maximal,
        cone_map=tuple(cone_map),
    )


def _parse_dial(rest: str, need) -> DialData:
    m = re.fullmatch(r"(\w+)\s*:\s*(\d+)(?:\s+controls\s+(.+))?", rest.strip())
    if not m:
        raise PresentationSyntaxError(f"expected 'dial name:order [controls a,b]': {rest!r}")
    order = int(m.group(2))
    if order < 1:
        raise PresentationSyntaxError("dial order must be >= 1")
    controls = tuple(need(n.strip(), rest) for n in (m.group(3) or "").split(",") if n.strip())
    return DialData(name=need(m.group(1), rest), order=order, controls=controls)


def print_presentation(p: Presentation) -> str:
    """Canonical text form; parses back to an equal Presentation."""
    lines = [f"gens {', '.join(p.generators)};"]
    if p.relators:
        lines.append("rels " + ", ".join(f"{a} = {b}" for a, b in p.relators) + ";")
    for ob in p.orbifolds:
        parts = [f"orbifold sig={ob.sig}", f"degree={ob.degree}", f"coverchi={ob.cover_chi}"]
        if ob.maximal:
            parts.append("maximal")
        for g, slot in ob.cone_map:
            parts.append(f"map {g}:{slot + 1}")
        lines.append(" ".join(parts) + ";")
    for d in p.dials:
        ctrl = f" controls {', '.join(d.controls)}" if d.controls else ""
        lines.append(f"dial {d.name}:{d.order}{ctrl};")
    for g, values in p.pins:
        lines.append(f"pin {g}: " + ", ".join(map(_fmt, values)) + ";")
    for g, l, theta in p.excludes:
        lines.append(f"exclude {g}: l={l!r} theta={theta!r};")
    if p.marked:
        lines.append(f"mark {', '.join(p.marked)};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# word evaluation and relation checking


def eval_word(w: GroupWord, assignment: Mapping[str, CircleMap]) -> CircleMap:
    """Compose the assigned circle maps along the word (empty word: identity)."""
    maps = []
    for g, e in w.letters:
        if g not in assignment:
            raise UnassignedGenerator(f"generator {g!r} has no assigned map")
        maps.append(circledyn.power(assignment[g], e))
    return circledyn.Word(maps)


_RELATION_GRID = 1024
_RELATION_TOL = 1e-9


@dataclass(frozen=True)
class RelationCheck:
    relator: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_relations(p: Presentation, assignment: Mapping[str, CircleMap]) -> RelationReport:
    """Max circle distance between the two sides of each relator on a grid of
    1024 points; a relator passes within 1e-9.  Every relation statement is a
    relator (torsion, conj and commute included), so each gets one check."""
    ts = np.arange(_RELATION_GRID) / _RELATION_GRID
    checks = []
    for lhs, rhs in p.relators:
        fx = eval_word(lhs, assignment).eval_array(ts)
        gx = eval_word(rhs, assignment).eval_array(ts)
        residual = float(np.abs(wrap_diff(fx, gx)).max())
        checks.append(RelationCheck(relator=f"{lhs} = {rhs}", residual=residual, passed=residual <= _RELATION_TOL))
    return RelationReport(checks=tuple(checks), tol=_RELATION_TOL)


# ---------------------------------------------------------------------------
# the propagation engine


@dataclass(frozen=True)
class CertEntry:
    index: int
    rule: str
    premises: tuple[str, ...]
    generator: str
    result: RotSet

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "rule": self.rule,
            "premises": list(self.premises),
            "generator": self.generator,
            "result": self.result.to_json(),
        }


@dataclass(frozen=True)
class Certificate:
    entries: tuple[CertEntry, ...]

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


@dataclass(frozen=True)
class PropagationResult:
    sets: dict[str, RotSet]
    marked: dict[str, RotSet]
    certificate: Certificate
    dials: dict[str, dict[str, dict[str, RotSet]]]

    def to_json(self) -> dict:
        out = {
            "marked": {g: s.to_json() for g, s in self.marked.items()},
            "certificate": self.certificate.to_json(),
        }
        if self.dials:
            out["dials"] = {
                name: {val: {g: s.to_json() for g, s in branch.items()} for val, branch in branches.items()}
                for name, branches in self.dials.items()
            }
        return out


# Only arcs need a cap: a finite set only shrinks.  Tests and workloads peak at 2 arcs, 4 sweeps.
_MAX_SWEEPS = 100
_MAX_ARCS = 4096


@functools.lru_cache(maxsize=256)
def _multiples(q: int) -> RotSet:
    return RotSet.from_points([Fraction(k, q) for k in range(q)])


def _euler_projections(ob: OrbifoldData, state: Mapping[str, RotSet]) -> dict[int, list[Fraction]]:
    """Per mapped cone slot, its values that some completion of the other slots
    makes Euler-feasible; slot i ranges over the multiples of 1/p_i in the sets
    of the generators mapped to it.  Feasibility reads the rotation sum only
    mod 1, so a completion is a point r of the sum of the other slots' sets.
    Every cone order divides the degree d (the parser checks the cover), so
    y = d*r is an integer, and v + r is feasible when some e = -y - d*v mod d
    lies in a Milnor-Wood range [lo, hi]: one bisection of the sorted ys per range."""
    slots = [_multiples(p) for p in ob.sig.cone_orders]
    for g, i in ob.cone_map:
        slots[i] = slots[i].intersect(state[g])
    d = ob.degree
    ranges = lifted_euler_ranges(ob.cover_chi, ob.maximal)

    def meets(ys: list[int], start: int, width: int) -> bool:  # ys holds d, above every start
        return ys[bisect.bisect_left(ys, start)] <= start + width

    out = {}
    for i in {i for _, i in ob.cone_map}:
        rest = functools.reduce(RotSet.minkowski, slots[:i] + slots[i + 1 :], RotSet.zero_only()).points
        ys = [r.numerator * d // r.denominator for r in rest]  # sorted, as the points are, from 0
        ys += [y + d for y in ys]  # a second turn, so that every cyclic run is one slice
        out[i] = [
            v for v in slots[i].points
            if any(meets(ys, (-hi - v.numerator * d // v.denominator) % d, hi - lo) for lo, hi in ranges)
        ]
    return out


class _Rule(NamedTuple):
    """A rule instance; derive(state) -> [(generator, set)] reads only the cited
    generators' sets.  A rule that settles derives nothing new from its own updates."""

    rule: str
    premise: str
    cites: tuple[str, ...]
    derive: Callable[[Mapping[str, RotSet]], list[tuple[str, RotSet]]]
    settles: bool = False


def _excluded(l: float, theta: float) -> RotSet:
    """{0} plus the closed complement of the domain arc of theta +_l."""
    return RotSet.build(points=[0], intervals=[domain_interval(l, theta).complement()])


def _euler_rule(ob: OrbifoldData, state: Mapping[str, RotSet]) -> list[tuple[str, RotSet]]:
    projections = _euler_projections(ob, state)
    return [(g, RotSet.from_points(projections[slot])) for g, slot in ob.cone_map]


def _rules(p: Presentation) -> list[_Rule]:
    """The presentation's rule instances, mined in one pass over the relators,
    each side merged once, and listed in firing order: pins; R1-R3 (m rot(g) =
    k rot(h) from relators whose sides reduce to pure powers); R4 (a^i b^j =
    c^k with a, b commuting, as some relator a b = b a with exponents +-1
    says); R5 (g^q = 1, then dials); R6 per orbifold; R7 per exclusion.
    Within a kind, rules follow the relators' order."""

    def fixed(rule: str, premise: str, g: str, make: Callable[..., RotSet], *args) -> _Rule:
        return _Rule(rule, premise, (), lambda state: [(g, make(*args))])

    def solved(rule: str, premise: str, g: str, m: int, *terms: tuple[str, int]) -> _Rule:
        # m rot(g) = the sum of k rot(h) over the terms (h, k), solved for g (sets are symmetric)
        def derive(state):
            total = functools.reduce(RotSet.minkowski, [state[h].scale_image(k) for h, k in terms])
            return [(g, total.scale_preimage(m))]
        return _Rule(rule, premise, tuple(h for h, _ in terms), derive)

    rules = [fixed("pin", f"pin {g}", g, RotSet.from_points, values) for g, values in p.pins]
    # R5 rules; R4 candidates (a^i b^j, c^k, relator), kept once a and b are known to commute
    torsion, products, commuting = [], [], set()
    for lhs, rhs in p.relators:
        left, right = _merge_adjacent(lhs.letters), _merge_adjacent(rhs.letters)
        pl, pr = _stripped_power(left), _stripped_power(right)
        if pl and pr:
            (g, m), (h, k), premise = pl, pr, f"relator {lhs} = {rhs}"
            if g != h:
                rule = "R1" if abs(m) == 1 and abs(k) == 1 else "R2"
                rules += [solved(rule, premise, g, m, (h, k)), solved(rule, premise, h, k, (g, m))]
            elif m != k:
                rules.append(fixed("R3", premise, g, _multiples, abs(k - m)))
        if len(left) == 2 and right == left[::-1] and all(abs(e) == 1 for _, e in left):
            commuting.add(frozenset(g for g, _ in left))
        for side, own, other, pw in ((left, pl, rhs, pr), (right, pr, lhs, pl)):
            if pw and len(side) == 2:
                products.append((side, pw, (lhs, rhs)))
            if own and not other.letters:
                torsion.append(fixed("R5", f"relator {lhs} = {rhs}", own[0], _multiples, abs(own[1])))
    for ((a, i), (b, j)), pw, (lhs, rhs) in products:
        if frozenset((a, b)) in commuting:
            premise = f"relator {lhs} = {rhs} with commute ({a},{b})"
            rules += [
                solved("R4", premise, *pw, (a, i), (b, j)),
                solved("R4", premise, a, i, pw, (b, j)),
                solved("R4", premise, b, j, pw, (a, i)),
            ]
    rules += torsion
    rules += [fixed("R5", f"dial {d.name}:{d.order}", d.name, _multiples, d.order) for d in p.dials]
    for ob in p.orbifolds:
        maximal = " maximal" if ob.maximal else ""
        premise = f"orbifold sig={ob.sig} degree={ob.degree} coverchi={ob.cover_chi}{maximal}"
        # A kept value has a feasible witness tuple of kept values, so when no generator
        # is on two slots, projecting again after R6's own updates keeps every value.
        cites = tuple(g for g, _ in ob.cone_map)
        settles = len(set(ob.cone_map)) == len(set(cites))
        rules.append(_Rule("R6", premise, cites, functools.partial(_euler_rule, ob), settles))
    for g, l, theta in p.excludes:
        rules.append(fixed("R7", f"exclude {g}: l={l!r} theta={theta!r}", g, _excluded, l, theta))
    return rules


class _Engine:
    def __init__(self, p: Presentation):
        self.state: dict[str, RotSet] = {g: RotSet.full() for g in p.generators}
        self.entries: list[CertEntry] = []
        self.last_fact: dict[str, str] = {g: f"init {g}" for g in p.generators}
        self.rules = _rules(p)
        self.derived_from: dict[int, tuple[str, ...]] = {}  # rule index -> cited facts it last derived from

    def update(self, rule: str, g: str, s: RotSet, premises: tuple[str, ...]) -> bool:
        cur = self.state[g]
        nxt = cur.intersect(s)
        if nxt == cur:
            return False
        if not nxt.points and not nxt.intervals:
            raise Inconsistent(f"empty rotation set for {g!r} via {rule}")
        if len(nxt.intervals) > _MAX_ARCS:
            raise NotStabilized(f"rotation set for {g!r} grew past {_MAX_ARCS} arcs via {rule}")
        self.state[g] = nxt
        e = CertEntry(index=len(self.entries), rule=rule, premises=premises, generator=g, result=nxt)
        self.entries.append(e)
        self.last_fact[g] = f"fact:{e.index}"
        return True

    def sweep(self) -> bool:
        """Fire the rules in order, skipping those whose cited facts are as when they
        last derived (or after their own updates, if they settle): they would derive
        the same sets, and their targets lie inside them already."""
        changed = False
        for n, r in enumerate(self.rules):
            cited = lambda: tuple(self.last_fact[h] for h in r.cites)
            if self.derived_from.get(n) == cited():
                continue
            self.derived_from[n] = cited()
            for g, s in r.derive(self.state):
                changed |= self.update(r.rule, g, s, (r.premise,) + cited())
            if r.settles:
                self.derived_from[n] = cited()
        return changed

    def run(self) -> None:
        for _ in range(_MAX_SWEEPS):
            if not self.sweep():
                return
        raise NotStabilized(f"{self.entries[-1].generator!r} still shrinks after {_MAX_SWEEPS} sweeps")


def propagate(p: Presentation) -> PropagationResult:
    """Shrink every generator's rotation set to the rule-application fixed point.

    Returns the final sets, the marked subsets, a replayable certificate
    of every derivation step, and -- when dial elements are present --
    the per-dial-value conditional results.
    """
    engine = _Engine(p)
    engine.run()
    dials: dict[str, dict[str, dict[str, RotSet]]] = {}
    for d in p.dials:
        branches: dict[str, dict[str, RotSet]] = {}
        for k in range(d.order):
            v = Fraction(k, d.order)
            pins = {d.name: (v,)} | {g: (Fraction(0),) for g in d.controls if v == 0}
            sub = _Engine(replace(p, pins=p.pins + tuple(sorted(pins.items()))))
            sub.run()
            branches[str(v)] = {g: sub.state[g] for g in p.marked}
        dials[d.name] = branches
    return PropagationResult(
        sets=dict(engine.state),
        marked={g: engine.state[g] for g in p.marked},
        certificate=Certificate(entries=tuple(engine.entries)),
        dials=dials,
    )


def replay_certificate(p: Presentation, cert: Certificate) -> bool:
    """Re-run propagation and require the identical derivation sequence."""
    engine = _Engine(p)
    engine.run()
    return tuple(engine.entries) == cert.entries


# ---------------------------------------------------------------------------
# outer approximation


def middle_thirds_cantor(stage: int) -> list[tuple[Fraction, Fraction]]:
    """The 2^stage closed intervals of the standard middle-thirds construction,
    in order; their left ends are built as integer numerators over 3^stage."""
    if stage < 0:
        raise ValueError(f"Cantor stage {stage} is negative")
    lows = [0]
    for _ in range(stage):
        lows = [m for n in lows for m in (3 * n, 3 * n + 2)]
    den = 3**stage
    return [(Fraction(n, den), Fraction(n + 1, den)) for n in lows]


def _ratio(v) -> tuple[int, int]:
    """v as (numerator, denominator > 0) in lowest terms; a float by its exact value."""
    try:
        return v.as_integer_ratio()
    except AttributeError:  # a numpy integer, or a string such as "1/3"
        return Fraction(v).as_integer_ratio()


def _covers(arcs: list[tuple[int, int]], starts: list[int], x: int, y: int) -> bool:
    """Whether one of the sorted, disjoint arcs (starting at starts) contains [x, y]."""
    k = bisect.bisect_right(starts, x) - 1
    return k >= 0 and y <= arcs[k][1]


def _inside(pts: list[int], arcs: list[tuple[int, int]], o_pts: set[int], o_arcs: list[tuple[int, int]]) -> bool:
    """Whether points and arcs lie in the set of the points o_pts and the merged arcs o_arcs."""
    starts = [x for x, _ in o_arcs]
    return all(p in o_pts or _covers(o_arcs, starts, p, p) for p in pts) and all(
        _covers(o_arcs, starts, x, y) for x, y in arcs
    )


def _snapped_stage(i: int, cover: Sequence) -> tuple[list[int], list[tuple[int, int]]]:
    """Stage i of an outer approximation in units of 1/g, g = 2^(i+4): the
    uncovered point residues and the merged arcs of {0}, the cover snapped
    outward onto the grid, and the mirror image of both."""
    g = 2 ** (i + 4)
    pts, arcs = [0], []
    for lo, hi in cover:
        (ln, ld), (hn, hd) = _ratio(lo), _ratio(hi)
        if hn * ld < ln * hd:
            raise InvalidCoverGenerator(f"stage {i}: interval ({_fmt(lo)}, {_fmt(hi)}) is reversed")
        a, b = ln * g // ld, -(-hn * g // hd)
        if b - a >= g:  # a full turn or more: the whole circle
            arcs.append((0, g))
            continue
        a, b = a % g, b % g
        if a == b:
            pts += (a, -a % g)
            continue
        for x, y in ((a, b), (-b % g, -a % g)):  # the arc and its mirror image
            if x < y:
                arcs.append((x, y))
            else:  # wraps through 0
                arcs.append((x, g))
                if y:
                    arcs.append((0, y))
    merged: list[tuple[int, int]] = []
    for x, y in sorted(arcs):
        if merged and x <= merged[-1][1]:
            if y > merged[-1][1]:
                merged[-1] = (merged[-1][0], y)
        else:
            merged.append((x, y))
    # The arcs are mirror-symmetric, so one ending at g comes with one from 0,
    # and a point needs no wrap-around test.
    starts = [x for x, _ in merged]
    return [p for p in sorted(set(pts)) if not _covers(merged, starts, p, p)], merged


def outer_approximation(kspec, stages: int) -> list[RotSet]:
    """Nested outer covers of a closed target, one RotSet per stage.

    ``kspec`` is either a finite list of closed intervals (points as
    degenerate pairs) reused at every stage, or a callable stage ->
    interval list producing finer covers.  Stage i snaps every endpoint
    outward to the dyadic grid g = 2^(i+4), adds 0, and symmetrizes; each
    stage must contain the next.  A stage runs on integers over g: each
    end's numerator and denominator give the reversed-interval test and
    the snap by floor and ceiling, arcs are mirrored as (g - b, g - a),
    split at 0 and merged, and the nesting test reads the previous stage
    on the same grid.  RotSet._over then builds the stage's Fractions once.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    cover: Callable[[int], Sequence] = kspec if callable(kspec) else (lambda i: kspec)
    out: list[RotSet] = []
    for i in range(1, stages + 1):
        pts, arcs = _snapped_stage(i, cover(i))
        if out and not _inside(pts, arcs, *outer):
            raise InvalidCoverGenerator(f"stage {i} is not contained in stage {i - 1}")
        out.append(RotSet._over(2 ** (i + 4), pts, arcs))
        outer = {2 * p for p in pts}, [(2 * x, 2 * y) for x, y in arcs]  # on the next grid
    return out


# ---------------------------------------------------------------------------
# interval-group synthesis


def emit_interval_group(interval) -> Presentation:
    """A presentation whose marked generator is forced into {0} plus/minus
    the requested closed arc.

    The arc must be realizable as the excluded set of a deformed-addition
    domain: solve for the hyperbolic distance l and angle theta whose
    complement arc matches, verify with :func:`rotarith.domain_interval`
    to 2^-12, and wrap the (l, theta) exclusion in the standard
    presentation skeleton (placeholder lattice generator, an element
    pinned at theta, its conjugate commuting with the marked generator,
    and a hyperbolic pin forcing the product's rotation number to zero).
    """
    lo = unit_float(float(interval[0]))
    hi = unit_float(float(interval[1]))
    span = (hi - lo) % 1.0
    if span == 0.0 and interval[0] != interval[1]:
        raise NotRepresentable("full circle cannot be the excluded arc")
    # the arc may not contain 0: the excluded set of theta +_l never does
    if lo == 0.0 or hi == 0.0 or lo > hi:
        raise NotRepresentable("arc containing 0 cannot be the excluded arc")
    c = unit_float(lo + span / 2)
    w = span / 2
    big_r = 1.0 / math.cos(math.pi * w)
    phi = (-math.pi * c) % math.pi
    a = big_r * math.cos(phi)
    if abs(a) >= 1.0 - 1e-13:
        raise NotRepresentable(f"arc centered at {c} is too close to 0")
    sin_t = math.sqrt(1.0 - a * a)
    b = big_r * math.sin(phi)
    theta = math.atan2(sin_t, a) / math.pi
    l = math.acosh(max(1.0, b / sin_t))
    di = domain_interval(l, theta)
    err = max(circ_dist(di.hi, lo), circ_dist(di.lo, hi))
    if err > 2**-12:
        raise NotRepresentable(f"best (l, theta) misses the arc by {err:.2e}")
    gens = ("Gamma", "alpha", "alphap", "beta", "gamma", "mu")
    return Presentation(
        generators=gens,
        relators=tuple(
            (GroupWord.parse(lhs), GroupWord.parse(rhs))
            for lhs, rhs in (("gamma alphap", "alphap gamma"), ("beta alpha beta^-1", "alphap"),
                             ("mu alpha gamma mu^-1", "beta"))
        ),
        pins=(("beta", (Fraction(0),)), ("alpha", (theta,))),
        excludes=(("gamma", l, theta),),
        marked=("gamma",),
    )

"""Tests for the presentation grammar, the rotation-set propagation engine,
its certificates, outer approximation, and interval-group synthesis."""

import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotforce import cli, eulerorb, forcing, rotset
from rotforce.forcing import (
    Certificate,
    GroupWord,
    InvalidCoverGenerator,
    NotRepresentable,
    Presentation,
    PresentationSyntaxError,
    UnassignedGenerator,
    UnknownGenerator,
    _merge_adjacent,
    _stripped_power,
    check_relations,
    emit_interval_group,
    eval_word,
    middle_thirds_cantor,
    outer_approximation,
    parse_presentation,
    print_presentation,
    propagate,
    replay_certificate,
)
from rotforce.circledyn import CircleMap, MoebiusOnRP1
from rotforce.moebius import HPoint, rotation_about, triangle_group_rep
from rotforce.rotarith import domain_interval
from rotforce.rotset import RotSet

F = Fraction

UNIT_TANGENT = """
gens A, B, C, T, X, Y, Z
rels A^2 = T, B^3 = T, C^7 = T, A B C = T
conj (X: A -> A^2)
conj (Y: B -> B^2)
conj (Z: C -> C^2)
mark A, B, C
"""

TRIANGLE_COVER = """
gens A, B, C
rels A B C = 1
torsion A:2, B:3, C:7
orbifold sig=0;2,3,7 degree=168 coverchi=-4 map A:1 map B:2 map C:3
mark C
"""

GENUS_ONE = """
gens alpha, gamma
rels alpha = gamma^2
torsion gamma:5
orbifold sig=1;5 degree=10 coverchi=-8 maximal map gamma:1
mark alpha
"""


# ---------------------------------------------------------------------------
# words


def test_word_parse_and_str():
    w = GroupWord.parse("A B^-1 C^3")
    assert w.letters == (("A", 1), ("B", -1), ("C", 3))
    assert str(w) == "A B^-1 C^3"
    assert GroupWord.parse(str(w)) == w
    assert GroupWord.parse("1") == GroupWord(())
    assert str(GroupWord(())) == "1"


def test_word_inverse_and_gens():
    w = GroupWord.parse("A B^2")
    assert w.inverse() == GroupWord.parse("B^-2 A^-1")
    assert w.gens() == {"A", "B"}
    assert GroupWord(()).inverse() == GroupWord(())


def test_word_parse_errors():
    with pytest.raises(PresentationSyntaxError):
        GroupWord.parse("A^x")
    with pytest.raises(PresentationSyntaxError):
        GroupWord.parse("3bad")
    with pytest.raises(PresentationSyntaxError):
        GroupWord.parse("A^0")
    # a dangling caret was once read as exponent 1, so "rels A^ = 1" meant A = 1
    with pytest.raises(PresentationSyntaxError, match="'A\\^'"):
        GroupWord.parse("A^")



def test_word_alias_is_gone():
    # the former name of GroupWord, which clashed with circledyn.Word
    with pytest.raises(AttributeError):
        forcing.Word
    assert "GroupWord" in forcing.__all__ and "Word" not in forcing.__all__


def test_merged_power_reduction():
    for text, power in [
        ("A A", ("A", 2)),
        ("A^3 A^-1", ("A", 2)),
        ("X A^2 X^-1", ("A", 2)),
        ("X Y A Y^-1 X^-1", ("A", 1)),
        ("A B", None),
        ("1", None),
    ]:
        assert _stripped_power(_merge_adjacent(GroupWord.parse(text).letters)) == power


# ---------------------------------------------------------------------------
# grammar


def test_parse_round_trip():
    for text in (UNIT_TANGENT, TRIANGLE_COVER, GENUS_ONE):
        p = parse_presentation(text)
        assert parse_presentation(print_presentation(p)) == p


def test_parse_reports_statement_index():
    with pytest.raises(PresentationSyntaxError) as ei:
        parse_presentation("gens a\ntorsion a:0")
    assert "statement 2" in str(ei.value)
    with pytest.raises(UnknownGenerator) as ei2:
        parse_presentation("gens a\nmark a\npin b: 0")
    assert "statement 3" in str(ei2.value)


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens a; rels a b = 1")
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens a; mark b")
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens a; torsion b:3")


def test_parse_semicolon_inside_comment():
    p = parse_presentation("gens a  # note; includes a semicolon\ntorsion a:3")
    assert p.relators == ((GroupWord.parse("a^3"), GroupWord(())),)


def test_relation_statements_are_relators():
    assert parse_presentation("gens a; torsion a:3") == parse_presentation("gens a; rels a^3 = 1")
    assert parse_presentation("gens a, b; commute (a, b)") == parse_presentation("gens a, b; rels a b = b a")
    assert parse_presentation("gens a, x; conj (x: a -> 1)") == parse_presentation("gens a, x; rels x a x^-1 = 1")
    assert [f.name for f in dataclasses.fields(Presentation)] == [
        "generators", "relators", "orbifolds", "dials", "pins", "excludes", "marked"
    ]


def test_parse_orbifold_fields():
    p = parse_presentation(TRIANGLE_COVER)
    (orb,) = p.orbifolds
    assert orb.sig.genus == 0 and orb.sig.cone_orders == (2, 3, 7)
    assert orb.degree == 168 and orb.cover_chi == -4
    assert orb.maximal is False
    assert dict(orb.cone_map) == {"A": 0, "B": 1, "C": 2}
    q = parse_presentation(GENUS_ONE)
    assert q.orbifolds[0].maximal is True


def test_parse_orbifold_rejects_impossible_cover():
    for data, message in (
        ("sig=0;2,3,7 degree=1 coverchi=-4", "not -4"),
        ("sig=0;2,2,2,4,4 degree=2 coverchi=-2", "cone order 4 does not divide"),
    ):
        with pytest.raises(PresentationSyntaxError) as ei:
            parse_presentation(f"gens A\norbifold {data} map A:1")
        assert "statement 2" in str(ei.value) and message in str(ei.value)


@pytest.mark.parametrize("data", ["sig=0;2 degree=2 coverchi=3 maximal map A:1", "sig=0 degree=2 coverchi=4"])
def test_parse_orbifold_rejects_cover_no_closed_surface_has(data):
    # the cover data agree with Riemann-Hurwitz, but no closed orientable
    # surface has an odd characteristic or one above 2
    with pytest.raises(PresentationSyntaxError) as ei:
        parse_presentation(f"gens A\norbifold {data}\nmark A")
    chi = data.split("coverchi=")[1].split()[0]
    assert str(ei.value) == f"statement 2: {chi} is not the Euler characteristic of a closed orientable surface"


def test_parse_orbifold_without_cone_points_round_trips():
    p = parse_presentation("gens a\norbifold sig=2 degree=1 coverchi=-2\nmark a")
    assert p.orbifolds[0].sig.cone_orders == ()
    assert "orbifold sig=2 degree=1" in print_presentation(p)
    assert parse_presentation(print_presentation(p)) == p


@pytest.mark.parametrize(
    "stmt, token",
    [
        ("pin a: nan", "'nan'"),
        ("pin a: inf", "'inf'"),
        ("pin a: 0, -inf", "'-inf'"),
        ("pin a: x", "'x'"),
        ("pin a: 1/0", "'1/0'"),
        ("exclude a: l=nan theta=0.25", "'nan'"),
        ("exclude a: l=1.0 theta=inf", "'inf'"),
        ("exclude a: l=1.0 theta=x", "'x'"),
        ("torsion a:x", "'x'"),
        ("orbifold sig=0;2,3,7 degree=x coverchi=-4 map a:1", "'x'"),
        ("orbifold sig=0;2,3,7 degree=168 coverchi=x map a:1", "'x'"),
        ("orbifold sig=0;2,3,7 degree=168 coverchi=-4 map a:x", "'x'"),
        ("orbifold sig=0;2,3,7 degree=168 coverchi=-4 map a:4", "cone slot 4 out of range (1..3)"),
        ("orbifold map a:0 sig=0;2,3,7 degree=168 coverchi=-4", "cone slot 0 out of range (1..3)"),
        ("orbifold sig=0;2,x degree=168 coverchi=-4 map a:1", "'0;2,x'"),
        ("orbifold sig=0;2,,3 degree=6 coverchi=0", "'0;2,,3'"),
    ],
)
def test_parse_rejects_bad_numbers(stmt, token):
    with pytest.raises(PresentationSyntaxError) as ei:
        parse_presentation(f"gens a\n{stmt}\nmark a")
    assert str(ei.value).startswith("statement 2: ") and token in str(ei.value)


def test_parse_dial_and_pin_values():
    p = parse_presentation("gens a, nu; dial nu:3 controls a; pin a: 0, 1/4; mark a")
    (d,) = p.dials
    assert d.name == "nu" and d.order == 3 and d.controls == ("a",)
    assert p.pins == (("a", (F(0), F(1, 4))),)


# ---------------------------------------------------------------------------
# evaluation against actual circle maps


def _triangle_assignment():
    ma, mb, mc = triangle_group_rep(2, 3, 7)
    return {"A": MoebiusOnRP1(ma), "B": MoebiusOnRP1(mb), "C": MoebiusOnRP1(mc)}


def test_eval_word_composes_moebius():
    rep = _triangle_assignment()
    m = eval_word(GroupWord.parse("A B"), rep)
    x = 0.123
    assert math.isclose(m(x), rep["A"](rep["B"](x)), abs_tol=1e-12)
    with pytest.raises(UnassignedGenerator):
        eval_word(GroupWord.parse("Q"), rep)


def test_check_relations_triangle_rep():
    # the triangle rep satisfies A^2 = B^3 = C^7 = ABC = 1
    q = Presentation(
        generators=("A", "B", "C"),
        relators=(
            (GroupWord.parse("A^2"), GroupWord(())),
            (GroupWord.parse("B^3"), GroupWord(())),
            (GroupWord.parse("C^7"), GroupWord(())),
            (GroupWord.parse("A B C"), GroupWord(())),
        ),
    )
    report = check_relations(q, _triangle_assignment())
    assert report.all_passed
    assert max(c.residual for c in report.checks) < 1e-9


def test_check_relations_detects_failure():
    p = Presentation(generators=("a",), relators=((GroupWord.parse("a"), GroupWord(())),))
    rep = {"a": MoebiusOnRP1(rotation_about(HPoint(0.0, 1.0), 0.3))}
    report = check_relations(p, rep)
    assert not report.all_passed


# The former check_relations, kept as an oracle: tol and grid were
# parameters, and the circle distance min(d, 1 - d) was written out.


def _former_check_relations(p, assignment, tol=1e-9, grid=1024):
    ts = np.arange(grid) / grid
    out = []
    for lhs, rhs in p.relators:
        d = np.abs(eval_word(lhs, assignment).eval_array(ts) % 1.0 - eval_word(rhs, assignment).eval_array(ts) % 1.0)
        residual = float(np.max(np.minimum(d, 1.0 - d)))
        out.append((residual, residual <= tol))
    return out


def test_check_relations_matches_former_grid_scan():
    triangle = Presentation(
        generators=("A", "B", "C"),
        relators=tuple((GroupWord.parse(w), GroupWord(())) for w in ("A^2", "B^3", "C^7", "A B C")),
    )
    single = Presentation(generators=("a",), relators=((GroupWord.parse("a"), GroupWord(())),))
    centre = HPoint(0.2, 1.3)
    # X commutes with A (same centre) but not with B
    conj = Presentation(
        generators=("A", "B", "X"),
        relators=tuple((GroupWord.parse(f"X {h} X^-1"), GroupWord.parse(h)) for h in ("A", "B")),
    )
    rot = {k: MoebiusOnRP1(rotation_about(c, t)) for k, c, t in (("A", centre, 0.3), ("B", HPoint(0.0, 1.0), 0.2),
                                                                   ("X", centre, 0.45))}
    cases = [
        (triangle, _triangle_assignment()),
        (single, {"a": MoebiusOnRP1(rotation_about(HPoint(0.0, 1.0), 0.3))}),
        (conj, rot),
    ]
    flags = []
    for p, assignment in cases:
        report = check_relations(p, assignment)
        assert report.tol == 1e-9
        want = _former_check_relations(p, assignment)
        assert [c.passed for c in report.checks] == [ok for _, ok in want]
        assert all(abs(c.residual - r) <= 1e-15 for c, (r, _) in zip(report.checks, want))
        flags += [c.passed for c in report.checks]
    assert True in flags and False in flags
    assert list(inspect.signature(check_relations).parameters) == ["p", "assignment"]


class _Shift(CircleMap):
    """A homeomorphism that no constructor certified."""

    def __call__(self, t):
        return (t + 0.1) % 1.0


@pytest.mark.parametrize("other", [_Shift(), object()], ids=["CircleMap subclass", "object"])
@pytest.mark.parametrize("relator", ["a", "a^-1 b", "b a^2 b^-1"])
def test_check_relations_refuses_maps_of_other_kinds(other, relator):
    p = Presentation(generators=("a", "b"), relators=((GroupWord.parse(relator), GroupWord(())),))
    rep = {"a": other, "b": MoebiusOnRP1(rotation_about(HPoint(0.0, 1.0), 0.3))}
    with pytest.raises(TypeError, match=type(other).__name__):
        check_relations(p, rep)


def test_check_relations_checks_torsion_and_commute():
    # torsion and commute statements each get a check, spelled either way
    centre, other = HPoint(0.0, 1.0), HPoint(0.3, 1.2)

    def report(text, a, b):
        return check_relations(parse_presentation(text), {"a": MoebiusOnRP1(a), "b": MoebiusOnRP1(b)})

    cases = [
        (rotation_about(centre, 0.25), rotation_about(other, 0.2), [False, False]),
        (rotation_about(centre, 1 / 3), rotation_about(centre, 0.2), [True, True]),
        (rotation_about(centre, 1 / 3), rotation_about(other, 0.2), [True, False]),
        (rotation_about(centre, 0.25), rotation_about(centre, 0.2), [False, True]),
    ]
    for a, b, want in cases:
        sugar = report("gens a, b; torsion a:3; commute (a, b)", a, b)
        assert [c.passed for c in sugar.checks] == want
        assert [c.relator for c in sugar.checks] == ["a^3 = 1", "a b = b a"]
        assert sugar == report("gens a, b; rels a^3 = 1, a b = b a", a, b)
    (check,) = report("gens a, b; torsion a:3", rotation_about(centre, 0.25), rotation_about(centre, 0.2)).checks
    assert check.residual > 0.2


# ---------------------------------------------------------------------------
# propagation flagships


def test_unit_tangent_extension_forces_zero():
    r = propagate(parse_presentation(UNIT_TANGENT))
    for g in ("A", "B", "C"):
        assert r.marked[g].is_zero_only()
    assert replay_certificate(parse_presentation(UNIT_TANGENT), r.certificate)


def test_triangle_cover_forces_sevenths():
    r = propagate(parse_presentation(TRIANGLE_COVER))
    assert r.marked["C"] == RotSet.from_points([F(1, 7)])
    assert set(r.marked["C"].points) == {F(0), F(1, 7), F(6, 7)}


def test_genus_one_cover_forces_two_fifths():
    r = propagate(parse_presentation(GENUS_ONE))
    assert set(r.marked["alpha"].points) == {F(0), F(2, 5), F(3, 5)}


def test_certificates_replay_and_detect_tampering():
    p = parse_presentation(TRIANGLE_COVER)
    r = propagate(p)
    assert replay_certificate(p, r.certificate)
    entries = r.certificate.entries
    assert entries  # nontrivial derivation
    tampered = Certificate(entries=entries[:-1])
    assert not replay_certificate(p, tampered)
    e = entries[0]
    swapped = Certificate(
        entries=(type(e)(e.index, e.rule, e.premises, e.generator, RotSet.full()),)
        + entries[1:]
    )
    assert not replay_certificate(p, swapped)


def test_certificate_json_shape():
    r = propagate(parse_presentation(TRIANGLE_COVER))
    doc = r.to_json()
    assert doc["marked"]["C"]["points"] == ["0", "1/7", "6/7"]
    assert doc["marked"]["C"]["intervals"] == []
    for entry in doc["certificate"]:
        assert set(entry) == {"index", "rule", "premises", "generator", "result"}
    json.dumps(doc)  # serializable as-is


def test_commuting_product_adds_rotation_numbers():
    p = parse_presentation(
        "gens a, b, c; commute (a, b); rels a b = c; pin a: 1/4; pin b: 1/6; mark c"
    )
    r = propagate(p)
    expected = {F(0), F(1, 12), F(1, 6), F(1, 4), F(5, 12), F(7, 12), F(3, 4), F(5, 6), F(11, 12)}
    assert set(r.marked["c"].points) == expected


def test_conj_statements_reach_r4_and_r5():
    # a conj statement is a relator, so it feeds R4 and R5 like any other
    r = propagate(parse_presentation("gens a, b, c, X; commute (a, b); conj (X: c -> a b); torsion a:4, b:6; mark c"))
    assert r.marked["c"] == RotSet.from_points([F(k, 12) for k in range(12)])
    assert "R4" in {e.rule for e in r.certificate.entries}
    r = propagate(parse_presentation("gens A, X; conj (X: A^3 -> 1); mark A"))
    assert r.marked["A"] == RotSet.from_points([F(1, 3)])
    assert r.certificate.entries[0].premises == ("relator X A^3 X^-1 = 1",)


def test_written_out_commutator_counts_as_commute():
    pins = "rels a b = c; pin a: 1/4; pin b: 1/6; mark c"
    sugar = propagate(parse_presentation(f"gens a, b, c; commute (a, b); {pins}"))
    assert propagate(parse_presentation(f"gens a, b, c; rels a b = b a; {pins}")).to_json() == sugar.to_json()
    inverse = propagate(parse_presentation(f"gens a, b, c; rels a^-1 b = b a^-1; {pins}"))
    assert inverse.marked == sugar.marked
    # a^2 commuting with b does not make a commute with b
    square = propagate(parse_presentation(f"gens a, b, c; rels a^2 b = b a^2; {pins}"))
    assert square.marked["c"] == RotSet.full()


def test_propagation_is_monotone_in_annotations():
    base = parse_presentation("gens a, b; rels a = b^2; torsion b:6; mark a, b")
    more = parse_presentation(
        "gens a, b; rels a = b^2; torsion b:6; pin b: 0, 1/6; mark a, b"
    )
    r0, r1 = propagate(base), propagate(more)
    for g in ("a", "b"):
        assert r1.marked[g].is_subset(r0.marked[g])
        assert r0.marked[g].contains(0)


def test_outputs_always_symmetric_and_contain_zero():
    rng = np.random.default_rng(431)
    for _ in range(10):
        q = int(rng.integers(2, 9))
        p = parse_presentation(f"gens g; torsion g:{q}; mark g")
        s = propagate(p).marked["g"]
        assert s.contains(0)
        for v in s.points:
            assert s.contains(-F(v) % 1)


def test_dial_branches():
    p = parse_presentation(
        "gens a, nu; dial nu:3 controls a; pin a: 0, 1/4; mark a"
    )
    r = propagate(p)
    branches = r.dials["nu"]
    assert set(branches) == {"0", "1/3", "2/3"}
    assert branches["0"]["a"].is_zero_only()
    assert branches["1/3"]["a"] == RotSet.from_points([F(1, 4)])
    assert "dials" in r.to_json()


def test_exclusion_annotation_restricts_to_complement():
    p = parse_presentation("gens g; exclude g: l=1.0 theta=0.25; mark g")
    s = propagate(p).marked["g"]
    di = domain_interval(1.0, 0.25)
    # the open domain arc runs ccw from di.lo through 0 to di.hi; the set
    # keeps {0} plus the symmetrized closed complement [di.hi, di.lo]
    assert s.contains(0)
    assert not s.contains(0.5 * min(di.hi, 1.0 - di.lo))  # deep in the gap near 0
    assert not s.contains(1.0 - 0.5 * min(di.hi, 1.0 - di.lo))
    assert s.contains(di.hi, tol=1e-12) and s.contains(di.lo, tol=1e-12)
    assert s.contains(0.5 * (di.hi + di.lo), tol=1e-12)


# ---------------------------------------------------------------------------
# interval-group synthesis


@pytest.mark.parametrize(
    "arc",
    [
        (0.3, 0.42),
        (0.25, 0.25),
        (0.1, 0.9),
        (F(1, 3), F(2, 5)),
    ],
)
def test_emit_interval_group_round_trip(arc):
    p = emit_interval_group(arc)
    (g,) = p.marked
    s = propagate(p).marked[g]
    target = RotSet.build(points=[0], intervals=[(float(arc[0]), float(arc[1]))])
    lo, hi = float(arc[0]), float(arc[1])
    mids = [lo + t * ((hi - lo) % 1.0 or 0.0) for t in (0.0, 0.37, 1.0)]
    for m in mids:
        assert s.contains(m, tol=2**-11)
    # nothing far outside the symmetrized target sneaks in
    for lo2, hi2 in s.intervals:
        assert target.contains(0.5 * (float(lo2) + float(hi2)), tol=2**-10)


def test_emit_interval_group_rejects_zero_touching():
    with pytest.raises(NotRepresentable):
        emit_interval_group((0.0, 1.0))
    with pytest.raises(NotRepresentable):
        emit_interval_group((1e-15, 0.3))


def test_emit_interval_group_skeleton_shape():
    p = emit_interval_group((0.3, 0.4))
    assert set(p.generators) == {"Gamma", "alpha", "alphap", "beta", "gamma", "mu"}
    assert p.marked == ("gamma",)
    assert p.excludes and p.excludes[0][0] == "gamma"
    # the exclusion parameters reproduce the requested arc as the complement
    _, l, theta = p.excludes[0]
    di = domain_interval(l, theta)
    assert min(abs(di.hi - 0.3), abs(di.hi - 0.3 + 1), abs(di.hi - 0.3 - 1)) < 2**-12
    assert min(abs(di.lo - 0.4), abs(di.lo - 0.4 + 1), abs(di.lo - 0.4 - 1)) < 2**-12


# ---------------------------------------------------------------------------
# outer approximation


def test_middle_thirds_cantor_exact():
    ivs = middle_thirds_cantor(3)
    assert len(ivs) == 8
    assert ivs[0] == (F(0), F(1, 27))
    assert ivs[-1] == (F(26, 27), F(1))
    assert all(hi - lo == F(1, 27) for lo, hi in ivs)
    assert middle_thirds_cantor(0) == [(F(0), F(1))]


def test_outer_approximation_nesting_and_snapping():
    stages = outer_approximation([(F(1, 4), F(1, 3))], 4)
    assert len(stages) == 4
    for a, b in zip(stages, stages[1:]):
        assert b.is_subset(a)
    for i, s in enumerate(stages, start=1):
        assert s.contains(F(1, 4)) and s.contains(F(1, 3)) and s.contains(0)
        for lo, hi in s.intervals:
            assert lo.denominator <= 2 ** (i + 4)
            assert hi.denominator <= 2 ** (i + 4)


def test_outer_approximation_point_target():
    stages = outer_approximation([(F(1, 3), F(1, 3))], 3)
    for i, s in enumerate(stages, start=1):
        assert s.contains(F(1, 3))
        for lo, hi in s.intervals:
            if lo <= F(1, 3) <= hi:
                assert hi - lo <= 2 * Fraction(1, 2 ** (i + 4))


def test_outer_approximation_cantor_counts():
    stages = outer_approximation(lambda i: middle_thirds_cantor(i), 8)
    s8 = stages[-1]
    assert len(s8.intervals) == 120
    for lo, hi in s8.intervals:
        assert lo.denominator <= 2**12 and hi.denominator <= 2**12


def test_outer_approximation_rejects_bad_covers():
    with pytest.raises(InvalidCoverGenerator):
        outer_approximation([(F(1, 3), F(1, 4))], 2)  # reversed
    # a "cover generator" that jumps to a disjoint location breaks nesting
    # (the new location must not be the mirror image of the old one)
    with pytest.raises(InvalidCoverGenerator):
        outer_approximation(
            lambda i: [(F(1, 4), F(1, 3))] if i == 1 else [(F(9, 20), F(11, 20))], 2
        )
    with pytest.raises(ValueError):
        outer_approximation([(F(1, 4), F(1, 3))], 0)


def _ref_middle_thirds_cantor(stage):
    """The Fraction recursion the integer construction replaced."""
    ivs = [(F(0), F(1))]
    for _ in range(stage):
        nxt = []
        for lo, hi in ivs:
            third = (hi - lo) / 3
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        ivs = nxt
    return ivs


def _ref_outer_approximation(kspec, stages):
    """The Fraction path the integer stages replaced: snap, then let
    RotSet.build mirror, sort and merge, and is_subset check nesting."""
    if stages < 1:
        raise ValueError("need at least one stage")
    cover = kspec if callable(kspec) else (lambda i: kspec)
    out = []
    for i in range(1, stages + 1):
        grid = 2 ** (i + 4)
        snapped = []
        for lo, hi in cover(i):
            lo_f, hi_f = F(lo), F(hi)
            if hi_f < lo_f:
                raise InvalidCoverGenerator(f"stage {i}: interval ({rotset._fmt(lo)}, {rotset._fmt(hi)}) is reversed")
            snapped.append((F(math.floor(lo_f * grid), grid), F(math.ceil(hi_f * grid), grid)))
        s = RotSet.build(points=[0], intervals=snapped)
        if out and not s.is_subset(out[-1]):
            raise InvalidCoverGenerator(f"stage {i} is not contained in stage {i - 1}")
        out.append(s)
    return out


def _approx_outcome(approx, kspec, stages):
    """Every stage's repr, whether it is the shared full circle, and its
    residues (cached or computed), or the type and message of what was raised."""
    try:
        return [(repr(s), s is RotSet.full(), rotset._residues(s)) for s in approx(kspec, stages)]
    except Exception as exc:  # noqa: BLE001 - the two paths must fail alike
        return type(exc), str(exc)


def test_middle_thirds_cantor_matches_fraction_recursion():
    for stage in range(11):
        ivs = middle_thirds_cantor(stage)
        assert repr(ivs) == repr(_ref_middle_thirds_cantor(stage))
    with pytest.raises(ValueError, match="negative"):
        middle_thirds_cantor(-1)


# Ends of every kind the library accepts: Fractions on and off the grid,
# ints, and floats, negative and past 1, so arcs cross 0 and 1.
_cover_ends = st.one_of(
    st.builds(F, st.integers(-40, 80), st.sampled_from([1, 2, 3, 7, 16, 32, 64, 97, 1024, 3**7])),
    st.integers(-2, 3),
    st.floats(-1.5, 2.5, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1 / 3, 2**-10, 1 - 2**-53, 5e-324]),
)


_cover_widths = st.one_of(
    st.just(0),
    st.builds(F, st.integers(0, 40), st.sampled_from([64, 97, 1024])),
    st.floats(0, 0.3),
)


@st.composite
def _cover_lists(draw):
    """A cover as (lo, hi) pairs, mostly short arcs and some points, now and
    then two free ends (which may span a full turn) or a reversed pair."""
    pairs = []
    for a, w, b, kind in draw(st.lists(st.tuples(_cover_ends, _cover_widths, _cover_ends, st.integers(0, 39)), max_size=6)):
        if kind < 36:
            pairs.append((a, a + w))
        elif kind < 39:
            pairs.append((a, b) if F(a) <= F(b) else (b, a))
        else:
            pairs.append((a, a - w - 1))
    return pairs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cover_lists(), st.lists(_cover_lists(), min_size=6, max_size=6), st.integers(1, 6))
def test_outer_approximation_matches_fraction_path(fixed, per_stage, stages):
    # A fixed list nests by construction, and so does one that drops an
    # interval per stage; covers drawn per stage mostly do not.
    for kspec in (fixed, lambda i: fixed[i - 1 :], lambda i: per_stage[i - 1]):
        assert _approx_outcome(outer_approximation, kspec, stages) == _approx_outcome(
            _ref_outer_approximation, kspec, stages
        )


def test_outer_approximation_matches_fraction_path_on_cantor_stages():
    for kspec in (middle_thirds_cantor, _ref_middle_thirds_cantor):
        assert _approx_outcome(outer_approximation, kspec, 8) == _approx_outcome(_ref_outer_approximation, kspec, 8)


@pytest.mark.parametrize(
    "kspec",
    [
        [(F(1, 3), F(1, 4))],
        [(0, 0.5), (0.75, 0.25)],
        lambda i: [(F(1, 4), F(1, 3))] if i == 1 else [(F(9, 20), F(11, 20))],
        lambda i: [(F(1, 4), F(1, 3))] if i < 3 else [(F(1, 4), F(1, 3)), (F(1, 2), F(1, 2))],
    ],
)
def test_outer_approximation_fails_as_the_fraction_path(kspec):
    got = _approx_outcome(outer_approximation, kspec, 3)
    assert got == _approx_outcome(_ref_outer_approximation, kspec, 3)
    assert got[0] is InvalidCoverGenerator


def test_outer_approximation_reversed_message_spells_ends_as_json():
    with pytest.raises(InvalidCoverGenerator, match=r"^stage 1: interval \(1/3, 1/4\) is reversed$"):
        outer_approximation([(F(1, 3), F(1, 4))], 2)
    with pytest.raises(InvalidCoverGenerator, match=r"^stage 1: interval \(0.5, 1/4\) is reversed$"):
        outer_approximation([(0.5, F(1, 4))], 2)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["approx", "--cantor", "--stages", "8"], "e7840d2468c50bb2946116185276d992c1336bcb2dc2720f792d9e54f7e07ea6"),
        (
            ["approx", "--intervals", "1/7:2/7,0:1/3,99/100:101/100", "--stages", "6"],
            "4fe7355ed3b6bbe52030e34b91dcef649dc72bdd644e31dae72cc10304747e75",
        ),
    ],
)
def test_approx_output_keeps_its_bytes(capsys, argv, digest):
    # SHA-256 of stdout as the Fraction path printed it
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_outer_approximation_makes_no_fraction_comparisons(monkeypatch):
    # The Fraction path sorted, merged and nested the Cantor stages with
    # 9,394 comparisons; the integer stages need none.  At most one per cover
    # interval (2 + 4 + ... + 256 = 510) gates the algorithm, not the
    # machine's speed.
    compares = 0
    richcmp = Fraction._richcmp

    def counting(self, other, op):
        nonlocal compares
        compares += 1
        return richcmp(self, other, op)

    monkeypatch.setattr(Fraction, "_richcmp", counting)
    stages = outer_approximation(middle_thirds_cantor, 8)
    monkeypatch.undo()
    assert len(stages[-1].intervals) == 120
    assert compares <= 510, compares


def test_commuting_sumset_work_stays_near_linear(monkeypatch):
    # 3*(Z/17) + 2*(Z/19) = (1/323)Z, and its preimage under 5 is (1/1615)Z.
    # The scan-based set algebra made 8.86 M Fraction comparisons here; the
    # residue path needs about 5 k.  Counting them gates the algorithm, not
    # the machine's speed.
    p = parse_presentation(
        "gens a, b, c\ncommute (a, b)\nrels a^3 b^2 = c^5\ntorsion a:17, b:19\nmark c\n"
    )
    compares = 0
    richcmp = Fraction._richcmp

    def counting(self, other, op):
        nonlocal compares
        compares += 1
        return richcmp(self, other, op)

    monkeypatch.setattr(Fraction, "_richcmp", counting)
    r = propagate(p)
    monkeypatch.undo()
    assert len(r.certificate.entries) == 3
    assert r.marked["c"].points == tuple(F(k, 1615) for k in range(1615))
    assert r.marked["c"].intervals == ()
    assert compares <= 300_000, compares


# ---------------------------------------------------------------------------
# R6: per-slot projections against the former listing


def _cover(genus, orders, multiple=1):
    """A degree every cone order divides, with an even cover characteristic."""
    chi = Fraction(2 - 2 * genus) - sum(1 - Fraction(1, p) for p in orders)
    degree = math.lcm(*orders) * multiple
    if (degree * chi) % 2:
        degree *= 2
    return degree, int(degree * chi)


def _orbifold(genus, orders, maps, maximal=False, multiple=1):
    degree, chi = _cover(genus, orders, multiple)
    sig = f"{genus};{','.join(map(str, orders))}"
    return f"orbifold sig={sig} degree={degree} coverchi={chi}{' maximal' * maximal} {maps}"


@functools.cache
def _listing(sig, degree, chi, maximal):
    return eulerorb.feasible_tuples(sig, degree, chi, maximal=maximal)


def _listing_projections(ob, state):
    """The former R6: list every feasible slot tuple, keep those whose every
    mapped slot lies in its generator's set, and read off each slot."""
    tuples = [
        t
        for t in _listing(ob.sig, ob.degree, ob.cover_chi, ob.maximal)
        if all(state[g].contains(t.rots[slot]) for g, slot in ob.cone_map)
    ]
    return {slot: [t.rots[slot] for t in tuples] for _, slot in ob.cone_map}


TRIANGLES = [((2, 3, 7), 1), ((2, 3, 7), 4), ((2, 3, 8), 1), ((2, 4, 6), 1), ((3, 4, 4), 2), ((2, 5, 5), 2)]
TRIANGLE_VARIANTS = [
    ("", "map A:1 map B:2 map C:3"),
    ("rels A B C = 1\ntorsion A:{0}, B:{1}, C:{2}", "map A:1 map B:2 map C:3"),
    ("pin A: 1/{0}, 1/3", "map A:1 map B:2 map C:3"),
    ("pin A: 0.5, 0.25\npin C: 1/{2}", "map A:1 map B:2 map C:3"),
    ("exclude C: l=1.0 theta=0.25", "map A:1 map B:2 map C:3"),
    ("pin A: 1/{0}", "map A:1 map A:2 map C:3"),
    ("pin B: 1/{0}", "map A:1 map B:1 map C:3"),
    ("", "map C:3"),
    ("dial B:{1} controls A\ncommute (A, B)\nrels A B = C", "map A:1 map C:3"),
]


def _r6_grid():
    for (orders, multiple), (body, maps), maximal in itertools.product(
        TRIANGLES, TRIANGLE_VARIANTS, (False, True)
    ):
        orb = _orbifold(0, orders, maps, maximal, multiple)
        yield f"gens A, B, C\n{body.format(*orders)}\n{orb}\nmark A, B, C\n"
    for q, k, maximal in itertools.product((5, 7, 12), (2, 3), (False, True)):
        orb = _orbifold(1, (q,), "map gamma:1", maximal)
        yield f"gens alpha, gamma\nrels alpha = gamma^{k}\n{orb}\nmark alpha, gamma\n"
    yield f"gens A, B\n{_orbifold(2, (3, 4), 'map A:1 map B:2')}\nmark A, B\n"


def test_projection_matches_listing_oracle(monkeypatch):
    texts = list(_r6_grid())
    new = [propagate(parse_presentation(t)).to_json() for t in texts]
    monkeypatch.setattr(forcing, "_euler_projections", _listing_projections)
    old = [propagate(parse_presentation(t)).to_json() for t in texts]
    for text, a, b in zip(texts, new, old):
        assert a == b, text
    # the grid reaches R6 and narrows sets with it
    assert sum(any(e["rule"] == "R6" for e in c["certificate"]) for c in new) > len(texts) // 2


def test_four_cone_slots_propagate():
    p = parse_presentation("gens A; orbifold sig=0;2,2,2,3 degree=12 coverchi=-2 map A:1; mark A")
    assert propagate(p).marked["A"] == RotSet.from_points([F(1, 2)])


def test_r6_never_lists_tuples(monkeypatch):
    # The listing of (2;97,89,83) has 97*89*83 slot tuples; R6 projects per
    # slot instead, so it never calls the listing, whatever the cover.
    def refuse(*args, **kwargs):
        raise AssertionError("R6 called the tuple listing")

    monkeypatch.setattr(eulerorb, "feasible_tuples", refuse)
    monkeypatch.setattr(forcing, "feasible_tuples", refuse, raising=False)
    degree, chi = _cover(2, (97, 89, 83))
    p = parse_presentation(f"gens A\n{_orbifold(2, (97, 89, 83), 'map A:1')}\nmark A\n")
    r = propagate(p)
    assert (degree, chi) == (716539, -3558624)
    assert r.marked["A"].points == tuple(F(k, 97) for k in range(97))
    assert [e.rule for e in r.certificate.entries] == ["R6"]


def _pair_loop_projections(ob, state):
    """The former R6 for every orbifold: one feasible_ns call per pair of a slot
    value and a point of the other slots' sum, until one is feasible."""
    slots = [forcing._multiples(p) for p in ob.sig.cone_orders]
    for g, i in ob.cone_map:
        slots[i] = slots[i].intersect(state[g])
    out = {}
    for i in {i for _, i in ob.cone_map}:
        rest = functools.reduce(RotSet.minkowski, slots[:i] + slots[i + 1 :], RotSet.zero_only()).points
        out[i] = [
            v for v in slots[i].points
            if any(eulerorb.feasible_ns(v + r, ob.degree, ob.cover_chi, ob.maximal) for r in rest)
        ]
    return out


_LARGE_MAXIMAL = [
    ("A, B, C, D", 0, (11, 13, 17, 19)),
    ("A, B, C", 2, (31, 29, 23)),
    ("A, B", 2, (97, 89, 83)),
]


def _large_maximal(gens, genus, orders):
    maps = " ".join(f"map {g}:{k}" for k, g in enumerate(gens.split(", "), 1))
    return f"gens {gens}\n{_orbifold(genus, orders, maps, True)}\nmark {gens}\n"


def _maximal_texts():
    yield from (t for t in _r6_grid() if " maximal " in t)
    for orders, multiple in itertools.product(((5,), (7,), (12,), (2, 3), (3, 4), (2, 5)), (1, 2, 3)):
        maps = "map A:1" if len(orders) == 1 else "map A:1 map B:2"
        yield f"gens A, B\nrels A = B^2\n{_orbifold(1, orders, maps, True, multiple)}\nmark A, B\n"
    for case in _LARGE_MAXIMAL[:2]:
        yield _large_maximal(*case)


def test_maximal_projection_matches_pair_loop(monkeypatch):
    texts = list(_maximal_texts())
    assert len(texts) == 60 + 18 + 2
    new = [propagate(parse_presentation(t)).to_json() for t in texts]
    monkeypatch.setattr(forcing, "_euler_projections", _pair_loop_projections)
    old = [propagate(parse_presentation(t)).to_json() for t in texts]
    for text, a, b in zip(texts, new, old):
        assert a == b, text


@pytest.mark.parametrize("gens, genus, orders", _LARGE_MAXIMAL)
def test_maximal_projection_tests_two_totals(monkeypatch, gens, genus, orders):
    # The feasible sums are the Milnor-Wood ranges mod 1, two points under
    # maximal and one run otherwise; R6 bisects the other slots' sum for them
    # and never asks feasible_ns, with or without maximal.
    assert "feasible_ns" not in vars(forcing) and "milnor_wood_bound" not in vars(forcing)
    calls = []
    feasible_ns = eulerorb.feasible_ns
    monkeypatch.setattr(eulerorb, "feasible_ns", lambda *args: calls.append(args) or feasible_ns(*args))
    for maximal in (True, False):
        text = _large_maximal(gens, genus, orders)
        r = propagate(parse_presentation(text if maximal else text.replace(" maximal", "")))
        assert calls == []
        for g, p in zip(gens.split(", "), orders):
            expected = [F(0), F(1, p), F(p - 1, p)] if maximal else [F(k, p) for k in range(p)]
            assert r.marked[g] == RotSet.from_points(expected)
        assert [e.rule for e in r.certificate.entries] == ["R6"] * len(gens.split(", "))


def _two_branch_projections(ob, state):
    """The former R6: under maximal, the membership of two completions in a
    set of integers; otherwise one feasible_ns call per pair of a slot value
    and a point of the other slots' sum, until one is feasible."""
    slots = [forcing._multiples(p) for p in ob.sig.cone_orders]
    for g, i in ob.cone_map:
        slots[i] = slots[i].intersect(state[g])
    d = ob.degree
    out = {}
    for i in {i for _, i in ob.cone_map}:
        rest = functools.reduce(RotSet.minkowski, slots[:i] + slots[i + 1 :], RotSet.zero_only()).points
        if ob.maximal:
            bound = eulerorb.milnor_wood_bound(ob.cover_chi)
            ys = {r.numerator * d // r.denominator for r in rest}
            out[i] = [
                v for v in slots[i].points
                if (bound - v.numerator * d // v.denominator) % d in ys
                or (-bound - v.numerator * d // v.denominator) % d in ys
            ]
        else:
            out[i] = [v for v in slots[i].points if any(eulerorb.feasible_ns(v + r, d, ob.cover_chi) for r in rest)]
    return out


def test_projection_matches_two_branch_oracle(monkeypatch):
    texts = list(dict.fromkeys(itertools.chain(
        _r6_grid(),
        _maximal_texts(),
        (_large_maximal(*case).replace(" maximal", "") for case in _LARGE_MAXIMAL),
    )))
    # 121 grid texts, and beyond them 18 genus-one and 2 + 3 large covers;
    # _cover's doubled degrees repeat 4 of the genus-one ones
    assert len(texts) == 121 + 18 - 4 + 2 + 3
    new = [json.dumps(propagate(parse_presentation(t)).to_json()) for t in texts]
    monkeypatch.setattr(forcing, "_euler_projections", _two_branch_projections)
    old = [json.dumps(propagate(parse_presentation(t)).to_json()) for t in texts]
    for text, a, b in zip(texts, new, old):
        assert a == b, text


def _negation_closed_subsets(p):
    """Small subsets of the multiples of 1/p that hold 0 and are closed under
    v -> 1 - v; sparse sums put a feasible total at the end of a run."""
    return st.sets(st.integers(1, p // 2), max_size=2).map(
        lambda ks: RotSet.from_points([F(0)] + [F(k, p) for k in ks] + [F(p - k, p) for k in ks])
    )


@st.composite
def _orbifold_states(draw):
    genus = draw(st.integers(0, 2))
    orders = draw(st.lists(st.sampled_from((2, 3, 4, 5, 6, 7, 8, 12)), min_size=1 if genus else 2, max_size=3))
    degree, chi = _cover(genus, orders, draw(st.integers(1, 3)))
    assume(chi <= 2)  # a cover of a spherical orbifold can be too large for a sphere
    mapped = draw(st.sets(st.integers(0, len(orders) - 1), min_size=1))
    ob = forcing.OrbifoldData(
        sig=eulerorb.OrbifoldSig(genus, tuple(orders)),
        degree=degree,
        cover_chi=chi,
        maximal=draw(st.booleans()),
        cone_map=tuple((f"g{i}", i) for i in sorted(mapped)),
    )
    return ob, {f"g{i}": draw(_negation_closed_subsets(orders[i])) for i in mapped}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_orbifold_states())
def test_projection_matches_pair_loop_on_random_sets(case):
    ob, state = case
    assert forcing._euler_projections(ob, state) == _pair_loop_projections(ob, state)


# ---------------------------------------------------------------------------
# the rule list against the seven-block engine it replaced


def _linear_relations(p):
    out = []
    for lhs, rhs in p.relators:
        a, b = (_stripped_power(_merge_adjacent(w.letters)) for w in (lhs, rhs))
        if a and b:
            out.append((a[1], a[0], b[1], b[0], f"relator {lhs} = {rhs}"))
    return out


def _torsion_facts(p):
    out = []
    for lhs, rhs in p.relators:
        for side, other in ((lhs, rhs), (rhs, lhs)):
            if other.letters:
                continue
            pw = _stripped_power(_merge_adjacent(side.letters))
            if pw and pw[1] != 0:
                out.append((pw[0], abs(pw[1]), f"relator {lhs} = {rhs}"))
    for d in p.dials:
        out.append((d.name, d.order, f"dial {d.name}:{d.order}"))
    return out


def _commuting_products(p):
    commuting = set()
    for lhs, rhs in p.relators:
        left = forcing._merge_adjacent(lhs.letters)
        if len(left) == 2 and forcing._merge_adjacent(rhs.letters) == left[::-1] and {abs(e) for _, e in left} == {1}:
            commuting.add(frozenset(g for g, _ in left))
    out = []
    for lhs, rhs in p.relators:
        for side, other in ((lhs, rhs), (rhs, lhs)):
            pw = _stripped_power(_merge_adjacent(other.letters))
            if pw is None:
                continue
            merged = forcing._merge_adjacent(side.letters)
            if len(merged) != 2:
                continue
            (a, i), (b, j) = merged
            if frozenset((a, b)) in commuting:
                out.append(((a, i), (b, j), pw, f"relator {lhs} = {rhs} with commute ({a},{b})"))
    return out


class _SevenBlockEngine:
    """The former engine: it mines the presentation on every sweep and fires
    every rule on every sweep, one block of code per rule."""

    def __init__(self, p, extra_pins=None):
        self.p = p
        self.state = {g: RotSet.full() for g in p.generators}
        self.entries = []
        self.last_fact = {g: f"init {g}" for g in p.generators}
        self.extra_pins = dict(extra_pins or {})

    def cite(self, g):
        return self.last_fact[g]

    def update(self, rule, g, s, premises):
        cur = self.state[g]
        nxt = cur.intersect(s)
        if nxt == cur:
            return False
        if not nxt.points and not nxt.intervals:
            raise forcing.Inconsistent(f"empty rotation set for {g!r} via {rule}")
        self.state[g] = nxt
        e = forcing.CertEntry(index=len(self.entries), rule=rule, premises=premises, generator=g, result=nxt)
        self.entries.append(e)
        self.last_fact[g] = f"fact:{e.index}"
        return True

    def sweep(self):
        changed = False
        p = self.p
        for g, values in list(p.pins) + sorted(self.extra_pins.items()):
            changed |= self.update("pin", g, RotSet.from_points(values), (f"pin {g}",))
        for m, g, k, h, premise in _linear_relations(p):
            if g == h:
                if m != k:
                    changed |= self.update("R3", g, forcing._multiples(abs(k - m)), (premise,))
                continue
            rule = "R1" if abs(m) == 1 and abs(k) == 1 else "R2"
            changed |= self.update(rule, g, self.state[h].scale_image(k).scale_preimage(m), (premise, self.cite(h)))
            changed |= self.update(rule, h, self.state[g].scale_image(m).scale_preimage(k), (premise, self.cite(g)))
        for (a, i), (b, j), (c, k), premise in _commuting_products(p):
            sum_ab = self.state[a].scale_image(i).minkowski(self.state[b].scale_image(j))
            changed |= self.update("R4", c, sum_ab.scale_preimage(k), (premise, self.cite(a), self.cite(b)))
            back_a = self.state[c].scale_image(k).minkowski(self.state[b].scale_image(j))
            changed |= self.update("R4", a, back_a.scale_preimage(i), (premise, self.cite(c), self.cite(b)))
            back_b = self.state[c].scale_image(k).minkowski(self.state[a].scale_image(i))
            changed |= self.update("R4", b, back_b.scale_preimage(j), (premise, self.cite(c), self.cite(a)))
        for g, q, premise in _torsion_facts(p):
            changed |= self.update("R5", g, forcing._multiples(q), (premise,))
        for ob in p.orbifolds:
            projections = forcing._euler_projections(ob, self.state)
            maximal = " maximal" if ob.maximal else ""
            premise_base = f"orbifold sig={ob.sig} degree={ob.degree} coverchi={ob.cover_chi}{maximal}"
            for g, slot in ob.cone_map:
                cites = tuple(self.cite(h) for h, _ in ob.cone_map)
                changed |= self.update("R6", g, RotSet.from_points(projections[slot]), (premise_base,) + cites)
        for g, l, theta in p.excludes:
            di = domain_interval(l, theta)
            if di.lo == di.hi:
                allowed = RotSet.from_points([0, di.lo])
            else:
                allowed = RotSet.build(points=[0], intervals=[(di.hi, di.lo)])
            changed |= self.update("R7", g, allowed, (f"exclude {g}: l={l!r} theta={theta!r}",))
        return changed

    def run(self):
        for _ in range(100):
            if not self.sweep():
                return
        raise RuntimeError("propagation did not stabilize in 100 sweeps")


def _engine_corpus():
    """Presentations for every rule, its premises and the cases where a rule's
    own updates change what it reads: a generator on two cone slots, and a
    commuting product whose target is one of its factors."""
    texts = list(_r6_grid())
    for orders, multiple in ((2, 3, 8), 1), ((2, 4, 6), 1), ((3, 3, 6), 1), ((4, 6, 12), 1), ((2, 4, 8), 2):
        for maps in ("map A:1 map A:2 map C:3", "map A:2 map A:3 map C:1", "map A:1 map A:2 map A:3"):
            orb = _orbifold(0, orders, maps, multiple=multiple)
            texts.append(f"gens A, C\npin A: 0, 1/{orders[1]}, 1/{orders[2]}\n{orb}\nmark A, C\n")
            texts.append(f"gens A, C\n{orb}\nmark A, C\n")
    for k, q in itertools.product((2, 3, -2), (6, 8)):
        texts.append(f"gens A, X; conj (X: A -> A^{k}); torsion A:{q}; mark A")
        texts.append(f"gens A, B, X; conj (X: A -> B^{k}); torsion B:{q}; mark A, B")
        texts.append(f"gens A, B, X; conj (X: A^2 -> B^{k}); pin B: 1/{q}, 0.3; mark A, B")
    for i, j, k in itertools.product((1, 2, -1), (1, 3), (2, 5)):
        texts.append(f"gens a, b, c; commute (a, b); rels a^{i} b^{j} = c^{k}; torsion a:4, b:6; mark a, b, c")
        texts.append(f"gens a, b; commute (a, b); rels a^{i} b^{j} = a^{k}; torsion a:12, b:6; mark a, b")
        texts.append(f"gens a, b; commute (a, b); rels a^{i} b = b^{k}; torsion a:8; pin b: 1/{j + 2}; mark a, b")
    texts += [
        "gens g, h; rels g = h^2; exclude g: l=1.0 theta=0.25; exclude h: l=0.7 theta=0.3; mark g, h",
        "gens g; torsion g:12; exclude g: l=1.0 theta=0.25; mark g",
        "gens g, h; rels g = h^3; exclude g: l=0.0 theta=0.3; mark g, h",  # the excluded arc is a point
        "gens a, nu, c; dial nu:4 controls a; torsion a:6; commute (nu, a); rels nu a = c; mark c, a",
        "gens a, b; rels a^2 = 1, a = b^3, b^4 = b; mark a, b",
        "gens a; pin a: 1/3; torsion a:2; mark a",
        UNIT_TANGENT,
        TRIANGLE_COVER,
        GENUS_ONE,
    ]
    return [parse_presentation(t) for t in texts] + [
        emit_interval_group(arc) for arc in ((0.3, 0.42), (0.25, 0.25), (0.1, 0.9), (F(1, 3), F(2, 5)))
    ]


def _outcome(p):
    try:
        return json.dumps(propagate(p).to_json())
    except forcing.Inconsistent as exc:
        return f"Inconsistent: {exc}"


def test_rule_list_matches_seven_block_engine(monkeypatch):
    corpus = _engine_corpus()
    sweeps = {"new": 0, "old": 0}

    def counted(sweep, key):
        def wrapper(self):
            sweeps[key] += 1
            return sweep(self)
        return wrapper

    monkeypatch.setattr(forcing._Engine, "sweep", counted(forcing._Engine.sweep, "new"))
    monkeypatch.setattr(_SevenBlockEngine, "sweep", counted(_SevenBlockEngine.sweep, "old"))
    new = [_outcome(p) for p in corpus]
    new_sweeps = sweeps["new"]
    for p, doc in zip(corpus, new):
        if not doc.startswith("Inconsistent"):
            assert replay_certificate(p, propagate(p).certificate), print_presentation(p)
    monkeypatch.setattr(forcing, "_Engine", _SevenBlockEngine)
    old = [_outcome(p) for p in corpus]
    for p, a, b in zip(corpus, new, old):
        assert a == b, print_presentation(p)
    assert new_sweeps == sweeps["old"]
    # the corpus fires every rule, and a rule's own updates narrow what it reads
    rules = {e["rule"] for doc in new if doc.startswith("{") for e in json.loads(doc)["certificate"]}
    assert rules == {"pin", "R1", "R2", "R3", "R4", "R5", "R6", "R7"}
    assert sum(doc.startswith("Inconsistent") for doc in new) < len(new) // 10


def test_engine_output_without_rotset_shortcuts(rotset_shortcuts_off):
    corpus = _engine_corpus()
    forcing._multiples.cache_clear()  # its sets come from from_points
    fast = [_outcome(p) for p in corpus]
    forcing._multiples.cache_clear()
    with rotset_shortcuts_off():
        slow = [_outcome(p) for p in corpus]
    forcing._multiples.cache_clear()
    # the JSON lists the certificate, so equal text means equal entries in equal order
    for p, a, b in zip(corpus, fast, slow):
        assert a == b, print_presentation(p)


_GENS = ("a", "b", "c")
_words = st.lists(st.tuples(st.sampled_from(_GENS), st.sampled_from((-2, -1, 1, 2, 3))), max_size=2).map(
    lambda letters: GroupWord(tuple(letters))
)


@st.composite
def _statements(draw):
    """A statement, or two, as (sugar text, the same relations written with rels)."""
    kind = draw(st.sampled_from(("rels", "product", "torsion", "conj", "commute", "pin", "mark")))
    g, h = draw(st.sampled_from(_GENS)), draw(st.sampled_from(_GENS))
    if kind == "rels":
        text = f"rels {draw(_words)} = {draw(_words)}"
        return text, text
    if kind == "product":  # what R4 reads: g^i h = w with g and h commuting
        rel = f"rels {GroupWord(((g, draw(st.integers(1, 3))), (h, 1)))} = {draw(_words)}"
        return f"commute ({g}, {h})\n{rel}", f"rels {g} {h} = {h} {g}\n{rel}"
    if kind == "torsion":
        q = draw(st.integers(1, 8))
        return f"torsion {g}:{q}", f"rels {g}^{q} = 1"
    if kind == "conj":
        w, w2 = draw(_words), draw(_words)
        return f"conj ({g}: {w} -> {w2})", f"rels {GroupWord(((g, 1),) + w.letters + ((g, -1),))} = {w2}"
    if kind == "commute":
        return f"commute ({g}, {h})", f"rels {g} {h} = {h} {g}"
    if kind == "pin":
        q = draw(st.integers(1, 8))
        values = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=2))
        text = f"pin {g}: " + ", ".join(f"{k}/{q}" for k in values)
        return text, text
    return f"mark {g}", f"mark {g}"


def _engine_outcome(engine_type, p):
    engine = engine_type(p)
    try:
        engine.run()
    except forcing.Inconsistent as exc:
        return str(exc)
    return engine.state, engine.entries


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_statements(), min_size=3, max_size=8))
def test_relation_spellings_agree_on_random_presentations(stmts):
    head = "gens " + ", ".join(_GENS) + "\n"
    sugar = parse_presentation(head + "\n".join(a for a, _ in stmts))
    spelled = parse_presentation(head + "\n".join(b for _, b in stmts))
    assert sugar == spelled
    assert parse_presentation(print_presentation(sugar)) == sugar
    assert _outcome(sugar) == _outcome(spelled)
    assert _engine_outcome(forcing._Engine, sugar) == _engine_outcome(_SevenBlockEngine, sugar)


# ---------------------------------------------------------------------------
# work counts and the bounded engine


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(forcing, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(forcing, name, counting)
    return calls


def _count_sweeps(monkeypatch):
    runs = []
    sweep = forcing._Engine.sweep
    monkeypatch.setattr(forcing._Engine, "sweep", lambda self: runs.append(self) or sweep(self))
    return runs


def test_exclusion_is_derived_once_per_engine(monkeypatch):
    # The former engine called domain_interval once per exclusion per sweep.
    p = parse_presentation(
        "gens g, h; rels g = h^2; exclude g: l=1.0 theta=0.25; exclude h: l=0.7 theta=0.3; mark g, h"
    )
    domains = _count_calls(monkeypatch, "domain_interval")
    runs = _count_sweeps(monkeypatch)
    propagate(p)
    assert len(runs) == 3 and len(set(map(id, runs))) == 1
    assert len(domains) == 2


def test_final_sweep_does_not_reproject(monkeypatch):
    # R6 narrows C in the first sweep; projecting again would keep every value,
    # so the second, final sweep skips it.
    projections = _count_calls(monkeypatch, "_euler_projections")
    runs = _count_sweeps(monkeypatch)
    r = propagate(parse_presentation(TRIANGLE_COVER))
    assert r.marked["C"] == RotSet.from_points([F(1, 7)])
    assert len(runs) == 2 and len(projections) == 1


GROWING = "gens A, B; rels A^2 = B, B^3 = A; exclude A: l=1.0 theta=0.25; mark A"


def test_growing_arcs_raise_not_stabilized():
    # A's arcs multiply by about 4.8 a sweep; the arc cap stops the run.
    with pytest.raises(forcing.NotStabilized, match=r"rotation set for 'B' grew past 4096 arcs"):
        propagate(parse_presentation(GROWING))
    assert issubclass(forcing.NotStabilized, ValueError)
    assert "NotStabilized" in forcing.__all__


def test_sweep_cap_raises_not_stabilized(monkeypatch):
    monkeypatch.setattr(forcing, "_MAX_SWEEPS", 3)
    with pytest.raises(forcing.NotStabilized, match=r"'[AB]' still shrinks after 3 sweeps"):
        propagate(parse_presentation(GROWING))


@pytest.mark.parametrize("text", [
    "gens a, nu; dial nu:3 controls a; pin a: 0, 1/4; mark a",
    "gens a, b, nu; dial nu:4 controls a, b; mark a, b",
    "gens nu; dial nu:5; mark nu",
    "gens g; torsion g:7; exclude g: l=1e-300 theta=0.25; mark g",
    "gens g, h; exclude g: l=709.0 theta=0.999999; exclude h: l=-0.3 theta=0.3333333333333333; mark g, h",
])
def test_dials_and_excludes_print_back_to_the_same_presentation(text):
    # print_presentation's dial and exclude lines had no test
    p = parse_presentation(text)
    printed = print_presentation(p)
    assert parse_presentation(printed) == p
    assert printed.count("dial ") == len(p.dials) and printed.count("exclude ") == len(p.excludes)
    assert propagate(parse_presentation(printed)).to_json() == propagate(p).to_json()

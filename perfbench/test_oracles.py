"""Tests of the benchmark's own reference computations and failure accounting.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

F = Fraction


def test_euler_enumerator_criterion_1():
    tuples = O.euler_tuples((2, 3, 7), 168, -4, pins={0: F(1, 2), 1: F(1, 3)})
    assert sorted(rots[2] * 7 for _, rots in tuples) == [1, 6]


def test_euler_enumerator_criterion_2():
    for q in range(2, 51):
        ps = {rots[0] * q for _, rots in O.euler_tuples((q,), 2 * q, -2 * (q - 1), maximal=True)}
        assert ps == {1, q - 1}


def test_forcing_oracle_flagship_sets():
    o = O.ForcingOracle(["A", "B", "C"])
    for g, n in zip("ABC", (2, 3, 7)):
        o.torsion(g, n)
    o.orbifold((2, 3, 7), 168, -4, False, [("A", 0), ("B", 1), ("C", 2)])
    assert o.solve()["C"] == frozenset({F(0), F(1, 7), F(6, 7)})
    g1 = O.ForcingOracle(["alpha", "gamma"])
    g1.torsion("gamma", 5)
    g1.linear(1, "alpha", 2, "gamma")
    g1.orbifold((5,), 10, -8, True, [("gamma", 0)])
    assert g1.solve()["alpha"] == frozenset({F(0), F(2, 5), F(3, 5)})


def test_embedding_oracle_rejects_perturbed_matrix():
    # (sqrt 2, -1 / Q(sqrt 2)) at the place t = sqrt 2: i -> diag(2^1/4, -2^1/4), j -> [[0, 1], [-1, 0]]
    alg = W._Algebra("x^2 - 2", [0, 1], [-1], program=False)
    root = alg.roots()[1]
    r = 2.0**0.25
    x = [[1], [2], [3], [0]]
    m = np.eye(2) + 2 * np.diag([r, -r]) + 3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert O.embedding_ok(m, alg.a, alg.b, x, root)
    assert not O.embedding_ok(m + np.array([[1e-8, 0.0], [0.0, 0.0]]), alg.a, alg.b, x, root)
    assert O.profile_at(alg.a, alg.b, alg.roots()) == ["ramified", "unramified"]


def _addl_answer(value, signed):
    return 0, {"meta": {"command": "addl"}, "value": value, "oracle": signed, "agrees": True, "exact": None}


def test_deformed_sum_check_rejects_perturbed_value():
    t1, t2, l = 0.25, 0.25, 1.0
    value = math.acos(O.deformed_arg(t1, t2, l)) / math.pi
    signed = O.signed_sum(t1, t2, l)
    check = W._addl_check("0.25", "0.25", l)
    assert check(_addl_answer(value, signed))
    assert not check(_addl_answer(value + 1e-7, signed))
    assert not check(_addl_answer(value, signed + 1e-7))


def test_closed_form_roots_and_perturbed_solutions():
    assert O.same_points(O.roots_doubling(0.0, 0.4), [(0.2,), (0.7,)], 1e-12)
    assert not O.same_points([(0.2 + 1e-6,), (0.7,)], O.roots_doubling(0.0, 0.4), 1e-8)
    for x, y in O.roots_pair(0.7, 0.3, 0.4):
        assert O.circ_dist(O.signed_sum(x, y, 0.7), 0.3) < 1e-9
        assert O.circ_dist(2 * x, 0.4) < 1e-12


def _snapped(stage):
    grid = 2 ** (stage + 4)
    arcs = [(F(math.floor(lo * grid), grid), F(math.ceil(hi * grid), grid)) for lo, hi in O.cantor_stage(stage)]
    return [(lo, hi) for a, b in arcs for lo, hi in ((a, b), (1 - b, 1 - a))]


def test_hausdorff_checker_rejects_perturbed_stage():
    cover, near, bound = W._cantor_parts()
    stage = 4
    arcs = sorted(set(_snapped(stage)))
    assert O.hausdorff_ok([0], arcs, cover(stage), near(stage), bound(stage))
    widened = [(lo, hi + F(1, 8)) if i == 3 else (lo, hi) for i, (lo, hi) in enumerate(arcs)]
    assert not O.hausdorff_ok([0], widened, cover(stage), near(stage), bound(stage))
    assert not O.hausdorff_ok([0], arcs[1:], cover(stage), near(stage), bound(stage))
    assert O.nested([((0,), _snapped(3)), ((0,), arcs)])
    assert not O.nested([((0,), arcs), ((0,), _snapped(3))])


def test_rational_rotation_fault_counts_as_failed_without_aborting():
    fault = W._batch_query([(0.0, 1.0, 5 / 8)], 2000, "rational.five_eighths", fault=True)
    fine = W._elliptic_query(0.3, 1.2, 0.3141, 2000)
    boom = W.Query("raises", lambda: 1 / 0, lambda ans: True)
    _, answers, lats, _ = run.run_round([fault, boom, fine])
    assert len(answers) == len(lats) == 3
    assert not fault.check(answers[0])
    assert isinstance(answers[1], run.Failure)
    assert fine.check(answers[2])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_reports_every_layer_metric():
    from tracing import Tracer

    assert set(run.PER_LAYER) - set(Tracer().layer_metrics(1)) == {"trace.overhead_s"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_has_a_hundred_queries(tmp_path, name):
    assert len(W.build(name, 1, str(tmp_path))) >= 100

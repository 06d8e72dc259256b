"""End-to-end tests of the command-line interface (run in-process)."""

import json

import pytest

from rotforce import cli

TRIANGLE_COVER = """
gens A, B, C
rels A B C = 1
torsion A:2, B:3, C:7
orbifold sig=0;2,3,7 degree=168 coverchi=-4 map A:1 map B:2 map C:3
mark C
"""

QUAT_SPEC = """
# totally real quadratic field; ramified at one of the two places
field: x^2 - 2
a: t
b: -1
elem u: (t/2) + (t/2)*j
elem jj: j
"""


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_rotnum_rotation_map(tmp_path, capsys):
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"type": "rotation", "theta": 0.375}))
    doc = run_json(capsys, ["rotnum", "--map", str(path), "--iters", "20000"])
    assert abs(doc["rotation_number"] - 0.375) <= doc["error_bound"] + 1e-12
    assert doc["iterations"] == 20000
    assert doc["meta"]["command"] == "rotnum"
    assert doc["meta"]["version"]


def test_rotnum_word_map(tmp_path, capsys):
    spec = {
        "type": "word",
        "letters": [
            {"type": "rotation", "theta": 0.25},
            {"type": "rotation", "theta": 0.125},
        ],
    }
    path = tmp_path / "word.json"
    path.write_text(json.dumps(spec))
    doc = run_json(capsys, ["rotnum", "--map", str(path), "--iters", "8000"])
    assert abs(doc["rotation_number"] - 0.375) <= doc["error_bound"] + 1e-12


def test_addl_deformed_value(capsys):
    doc = run_json(capsys, ["addl", "0.25", "0.25", "--l", "1.0"])
    assert doc["value"] == pytest.approx(0.5875330293712444, abs=1e-15)
    assert doc["oracle_gap"] <= 1e-12
    assert doc["agrees"] is True
    assert doc["tolerance"] == 1e-9


def test_addl_exact_fractions(capsys):
    doc = run_json(capsys, ["addl", "1/4", "1/8"])
    assert doc["exact"] == "3/8"
    assert doc["value"] == pytest.approx(0.375, abs=0)


def test_addl_out_of_domain_exits_1(capsys):
    code, out, err = run(capsys, ["addl", "0.25", "0.35", "--l", "9.0"])
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_domain_interval(capsys):
    doc = run_json(capsys, ["domain", "--l", "1.0", "--theta", "0.25"])
    assert 0 < doc["hi"] < doc["lo"] < 1  # the arc wraps through 0
    assert doc["complement"] == [doc["hi"], doc["lo"]]
    assert doc["tolerance"] == 1e-12


def test_domain_degenerate_exits_1(capsys):
    code, _, err = run(capsys, ["domain", "--l", "0.0", "--theta", "0.0"])
    assert code == 1 and "error:" in err


def test_solve_doubling(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["t"],
                "equations": [[{"plus_l": {"l": 0.0, "a": "t", "b": "t"}}, "2/5"]],
            }
        )
    )
    doc = run_json(capsys, ["solve", str(path)])
    values = sorted(r["value"] for r in doc["roots"])
    assert values == pytest.approx([0.2, 0.7], abs=1e-9)
    for r in doc["roots"]:
        assert r["residual"] <= 1e-9
        assert r["isolation_radius"] > 0
        assert set(r["assignment"]) == {"t"}


def test_solve_decimal_constant_and_unbound_name(tmp_path, capsys):
    def system(rhs):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps({"variables": ["t"], "equations": [[{"plus_l": {"l": 0.0, "a": "t", "b": "t"}}, rhs]]})
        )
        return str(path)

    doc = run_json(capsys, ["solve", system("0.4")])
    assert sorted(r["value"] for r in doc["roots"]) == pytest.approx([0.2, 0.7], abs=1e-9)
    code, out, err = run(capsys, ["solve", system("s")])
    assert code == 1 and out == "" and "error:" in err and "'s'" in err


def test_solve_rejects_constraint_on_undeclared_variable(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(
        json.dumps(
            {
                "variables": ["t"],
                "equations": [[{"plus_l": {"l": 0.0, "a": "t", "b": "t"}}, "2/5"]],
                "constraints": {"s": [0, 0.25]},
            }
        )
    )
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 1 and out == "" and err.startswith("error:") and "'s'" in err


@pytest.mark.parametrize(
    "sig, degree, chi, message",
    [
        ("0;2,3,7", "1", "-4", "Euler characteristic -1/42, not -4"),
        ("0;2,3,7", "168", "-400", "Euler characteristic -4, not -400"),
        ("0;2,2,2,4,4", "2", "-2", "cone order 4 does not divide the cover degree 2"),
    ],
)
def test_euler_feasible_rejects_impossible_cover(capsys, sig, degree, chi, message):
    code, out, err = run(capsys, ["euler-feasible", "--sig", sig, "--degree", degree, "--cover-chi", chi])
    assert code == 1 and out == "" and "error:" in err and message in err


def test_euler_feasible_klein_pinned(capsys):
    doc = run_json(
        capsys,
        [
            "euler-feasible",
            "--sig", "0;2,3,7",
            "--degree", "168",
            "--cover-chi", "-4",
            "--fix", "1/2,1/3",
            "--free", "7",
        ],
    )
    assert doc["bound"] == 4 and doc["exact"] is True
    assert doc["tuples"] == [
        {"n": 1, "p": 1, "rots": ["1/2", "1/3", "1/7"]},
        {"n": 2, "p": 6, "rots": ["1/2", "2/3", "6/7"]},
    ]


def test_euler_feasible_free_mismatch_exits_1(capsys):
    code, _, err = run(
        capsys,
        [
            "euler-feasible",
            "--sig", "0;2,3,7",
            "--degree", "168",
            "--cover-chi", "-4",
            "--fix", "1/2,1/3",
            "--free", "5",
        ],
    )
    assert code == 1 and "error:" in err


def test_quat_analyze(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(QUAT_SPEC)
    doc = run_json(capsys, ["quat", "analyze", str(path), "--samples", "25", "--seed", "7"])
    assert doc["admissible"] is True
    assert doc["profile"] == ["ramified", "unramified"]
    assert doc["unramified_places"] == 1
    u = doc["elements"]["u"]
    assert u["norm"] == "1"
    assert u["rotation_number"] == pytest.approx(0.25, abs=1e-12)
    assert doc["elements"]["jj"]["rotation_number"] == pytest.approx(0.5, abs=1e-12)
    assert doc["trace_check"]["max_deviation"] <= doc["trace_check"]["tolerance"]
    assert doc["meta"]["seed"] == 7


def test_force_triangle_cover(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(TRIANGLE_COVER)
    doc = run_json(capsys, ["force", str(path)])
    assert doc["marked"]["C"]["points"] == ["0", "1/7", "6/7"]
    assert doc["marked"]["C"]["intervals"] == []
    assert doc["replayed"] is True
    assert doc["certificate"]


def test_force_output_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(TRIANGLE_COVER)
    _, out1, _ = run(capsys, ["force", str(path)])
    _, out2, _ = run(capsys, ["force", str(path)])
    assert out1 == out2
    assert out1.endswith("\n")


def test_approx_cantor(capsys):
    doc = run_json(capsys, ["approx", "--cantor", "--stages", "3"])
    assert doc["snap_grids"] == [32, 64, 128]
    assert doc["nested"] is True
    assert len(doc["stages"]) == 3


def test_approx_requires_a_target(capsys):
    code, _, err = run(capsys, ["approx"])
    assert code == 1 and "error:" in err


def test_approx_explicit_intervals(capsys):
    doc = run_json(capsys, ["approx", "--intervals", "1/4:1/3", "--stages", "2"])
    assert len(doc["stages"]) == 2
    for stage in doc["stages"]:
        assert "0" in stage["points"] or stage["intervals"]


def test_triangle_rep(capsys):
    doc = run_json(capsys, ["triangle", "2", "3", "7"])
    assert doc["expected"] == ["1/2", "1/3", "1/7"]
    rots = doc["rotation_numbers"]
    assert rots[0] == pytest.approx(0.5, abs=1e-12)
    assert rots[1] == pytest.approx(1 / 3, abs=1e-12)
    assert rots[2] == pytest.approx(1 / 7, abs=1e-12)
    assert doc["relator_residual"] < 1e-9


def test_triangle_rejects_non_hyperbolic(capsys):
    code, _, err = run(capsys, ["triangle", "2", "3", "5"])
    assert code == 1 and "error:" in err


def test_denjoy_preserves_rotation_number(capsys):
    doc = run_json(
        capsys,
        ["denjoy", "--theta", "0.3819660112501051", "--depth", "40", "--iters", "4000"],
    )
    assert doc["gaps"] > 0 and doc["breakpoints"] > 2
    assert doc["deviation"] <= doc["estimator_bound"] + 1e-3
    assert 0 < doc["gap_total"] < 1


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, ["rotnum", "--map", "/no/such/file.json"])
    assert code == 1 and "error:" in err


def test_usage_error_exits_2(capsys):
    # the domain arc is closed-form, so `domain` takes no tolerance
    for argv in (["addl"], ["domain", "--l", "1", "--theta", "0.25", "--tol", "1e-9"]):
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["frobnicate"])
    assert ei.value.code == 2


def test_pretty_output(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(TRIANGLE_COVER)
    _, out, _ = run(capsys, ["force", str(path), "--pretty"])
    assert out.count("\n") > 3
    json.loads(out)


def test_meta_records_seed_default(capsys):
    doc = run_json(capsys, ["triangle", "2", "3", "7"])
    assert doc["meta"]["seed"] is None

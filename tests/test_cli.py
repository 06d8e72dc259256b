"""End-to-end tests of the command-line interface (run in-process)."""

import json
import shlex
import subprocess
import time
from pathlib import Path

import pytest

from rotforce import circledyn, cli, forcing
from rotforce.moebius import MoebiusReal

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


def test_rotnum_tiny_negative_rotation_reads_zero(tmp_path, capsys):
    # the estimate -1e-17 would print as 1.0 if folded with % 1.0 alone
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"type": "rotation", "theta": -1e-17}))
    assert run_json(capsys, ["rotnum", "--map", str(path)])["rotation_number"] == 0.0


def test_rotnum_billion_iterations_in_closed_form(tmp_path, capsys):
    # the README rotation is elliptic, so its displacement needs no orbit
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"type": "rotation", "theta": 0.375}))
    t0 = time.perf_counter()
    doc = run_json(capsys, ["rotnum", "--map", str(path), "--iters", "1000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert doc["iterations"] == 10**9
    assert doc["error_bound"] == 2e-9
    assert abs(doc["rotation_number"] - 0.375) <= doc["error_bound"]


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.5, 1.25], [-0.2, 0.5]],  # parabolic: trace 2
        [[2.0, 1.0], [1.0, 1.0]],  # hyperbolic: trace 3
    ],
)
def test_rotnum_billion_iterations_without_a_rotation(tmp_path, capsys, matrix):
    # a fixed point on the circle gives these a closed form too
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": "moebius", "matrix": matrix}))
    t0 = time.perf_counter()
    doc = run_json(capsys, ["rotnum", "--map", str(path), "--iters", "1000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert doc["iterations"] == 10**9
    assert min(doc["rotation_number"], 1.0 - doc["rotation_number"]) <= doc["error_bound"] == 2e-9


@pytest.mark.parametrize(
    "xs,ys,message",
    [
        ("[0.1, 0.3, 0.5]", "[0.2, NaN, 0.6]", "breakpoint images ys must be finite, got nan at index 1"),
        ("[0.1, NaN, 0.5]", "[0.2, 0.4, 0.6]", "breakpoint positions xs must be finite, got nan at index 1"),
        ("[0.1, 0.3, 0.5]", "[0.2, 0.4, Infinity]", "breakpoint images ys must be finite, got inf at index 2"),
    ],
)
def test_rotnum_rejects_non_finite_breakpoints(tmp_path, capsys, xs, ys, message):
    # the map file is refused at its first non-finite token, naming the file;
    # the constructor, reached by library callers, keeps its own check
    path = tmp_path / "m.json"
    path.write_text(f'{{"type": "pl", "xs": {xs}, "ys": {ys}}}')
    code, out, err = run(capsys, ["rotnum", "--map", str(path)])
    token = "NaN" if "NaN" in xs + ys else "Infinity"
    assert (code, out, err) == (1, "", f"error: {path}: {token} is not a finite number\n")
    with pytest.raises(ValueError) as ei:
        circledyn.PiecewiseLinear(json.loads(xs), json.loads(ys))
    assert str(ei.value) == f"piecewise-linear map: {message}"


@pytest.mark.parametrize(
    "matrix,det",
    [
        ("[[Infinity, 0], [0, 1]]", "inf"),
        ("[[1, Infinity], [0, 1]]", "nan"),
        ("[[NaN, 0], [0, 1]]", "nan"),
        ("[[1, 0], [0, NaN]]", "nan"),
        ("[[1e200, 0], [0, 1e200]]", "inf"),  # finite entries, overflowing determinant
    ],
)
def test_rotnum_rejects_non_finite_matrix(tmp_path, capsys, matrix, det):
    # these once printed "rotation_number": NaN and exited 0.  A non-finite
    # token is refused with the file; finite entries reach the constructor
    path = tmp_path / "m.json"
    path.write_text(f'{{"type": "moebius", "matrix": {matrix}}}')
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["rotnum", "--map", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    token = next((t for t in ("NaN", "Infinity") if t in matrix), None)
    if token:
        assert err.splitlines() == [f"error: {path}: {token} is not a finite number"]
    else:
        assert err.splitlines() == [f"error: requires a finite positive determinant, got {det}"]
    with pytest.raises(ValueError, match=f"^requires a finite positive determinant, got {det}$"):
        MoebiusReal(*(float(v) for row in json.loads(matrix) for v in row))


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


@pytest.mark.parametrize("sig", ["0;2,x", "0;", "x", "0;1", "-1;2,3,7", "0,2,3,7"])
def test_euler_feasible_rejects_malformed_signature(capsys, sig):
    code, out, err = run(capsys, ["euler-feasible", f"--sig={sig}", "--degree", "1", "--cover-chi", "2"])
    assert code == 1 and out == "" and err.startswith("error: bad orbifold signature " + repr(sig))


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


def test_quat_deep_nesting_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(QUAT_SPEC + "elem v: " + "(" * 3000 + "t" + ")" * 3000 + "\n")
    code, out, err = run(capsys, ["quat", "analyze", str(path)])
    assert code == 1 and out == "" and err.startswith("error: element 'v': expression nested too deeply")



def test_quat_oversized_exact_value_names_its_element(tmp_path, capsys):
    # 2^(10^7) passes the interpreter's 4300-digit limit for int -> str
    path = tmp_path / "big.txt"
    path.write_text(QUAT_SPEC + "elem v: (((2^100)^100)^100)^10\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["quat", "analyze", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: element 'v': its exact trace or norm has too many digits to print"]


def test_quat_value_past_float_range_names_its_element(tmp_path, capsys):
    # a 361-digit trace prints exactly, but its value at the unramified place is no float
    path = tmp_path / "big.txt"
    path.write_text(QUAT_SPEC + "elem v: ((2^100)^12)\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["quat", "analyze", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: element 'v': its value at the unramified place is past float range"]


@pytest.mark.parametrize(
    "spec,prefix",
    [
        (QUAT_SPEC.replace("a: t", "a: 1/0"), "error: a: division by zero"),
        (QUAT_SPEC + "elem v: i/0\n", "error: element 'v': division by zero"),
        (QUAT_SPEC.replace("x^2 - 2", "x/0"), "error: field: division by zero"),
        (QUAT_SPEC + "b: 2\n", "error: b: repeated statement"),
        (QUAT_SPEC + "elem jj: i\n", "error: element 'jj': repeated statement"),
        ("field: x^200000 - 2\na: t\nb: -1\n", "error: field: exponent 200000 above 100"),
        (QUAT_SPEC + "elem v: (1+t)^10000000\n", "error: element 'v': exponent 10000000 above 100"),
        # nested powers and products are bounded by the degree they build
        ("field: (x^100)^100 - 2\na: t\nb: -1\n", "error: field: degree 10000 above 100"),
        (QUAT_SPEC + "elem v: ((1+t)^100)^100\n", "error: element 'v': degree 10000 above 100"),
        (
            QUAT_SPEC + "elem v: " + "*".join(["(1+t)^100"] * 50) + "\n",
            "error: element 'v': degree 5000 above 100",
        ),
    ],
    ids=[
        "a", "elem", "field", "repeated-b", "repeated-elem", "field-exponent", "elem-exponent",
        "field-nested-power", "elem-nested-power", "elem-power-product",
    ],
)
def test_quat_spec_errors_name_their_statement(tmp_path, capsys, spec, prefix):
    path = tmp_path / "bad.txt"
    path.write_text(spec)
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["quat", "analyze", str(path)])
    # before exponents and degrees were bounded, each such spec ran past 5 s or failed unnamed
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == "" and err.startswith(prefix) and err.count("\n") == 1, err


def test_force_triangle_cover(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(TRIANGLE_COVER)
    doc = run_json(capsys, ["force", str(path)])
    assert doc["marked"]["C"]["points"] == ["0", "1/7", "6/7"]
    assert doc["marked"]["C"]["intervals"] == []
    assert doc["replayed"] is True
    assert doc["certificate"]


def test_force_four_cone_slots(tmp_path, capsys):
    # R6 used to list every feasible slot tuple, which refuses 4 free slots
    # (BudgetExceeded, exit 1); its per-slot projection needs no listing.
    path = tmp_path / "pres.txt"
    path.write_text("gens A; orbifold sig=0;2,2,2,3 degree=12 coverchi=-2 map A:1; mark A\n")
    doc = run_json(capsys, ["force", str(path)])
    assert doc["marked"]["A"] == {"points": ["0", "1/2"], "intervals": []}
    assert doc["replayed"] is True


def test_force_reports_unstable_propagation(tmp_path, capsys, monkeypatch):
    # A's arcs multiply every sweep; propagation stops at the arc cap (lowered
    # here to keep the run short) with an error line, not a traceback or a hang.
    monkeypatch.setattr(forcing, "_MAX_ARCS", 64)
    path = tmp_path / "pres.txt"
    path.write_text("gens A, B; rels A^2 = B, B^3 = A; exclude A: l=1.0 theta=0.25; mark A\n")
    code, out, err = run(capsys, ["force", str(path)])
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: rotation set for 'B' grew past 64 arcs via R2"]


def test_force_output_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(TRIANGLE_COVER)
    _, out1, _ = run(capsys, ["force", str(path)])
    _, out2, _ = run(capsys, ["force", str(path)])
    assert out1 == out2
    assert out1.endswith("\n")


def test_force_rejects_cover_no_closed_surface_has(tmp_path, capsys):
    # 2 * chi^orb(0;2) = 3 passes Riemann-Hurwitz, but no closed orientable
    # surface has an odd characteristic: the parser says so at its statement
    path = tmp_path / "pres.txt"
    path.write_text("gens A; orbifold sig=0;2 degree=2 coverchi=3 maximal map A:1; mark A\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["force", str(path)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: statement 2: 3 is not the Euler characteristic of a closed orientable surface"]


@pytest.mark.parametrize(
    "stmt",
    [
        "pin C: nan",
        "pin C: inf",
        "exclude C: l=nan theta=0.25",
        "torsion C:x",
        "orbifold sig=0;2,3,7 degree=x coverchi=-4 map C:3",
        "orbifold sig=0;2,3,7 degree=168 coverchi=x map C:3",
        "orbifold sig=0;2,3,7 degree=168 coverchi=-4 map C:x",
    ],
)
def test_force_rejects_bad_numbers(tmp_path, capsys, stmt):
    path = tmp_path / "pres.txt"
    path.write_text(f"gens C\n{stmt}\nmark C\n")
    code, out, err = run(capsys, ["force", str(path)])
    assert code == 1 and out == "" and err.startswith("error: statement 2: ")


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(TRIANGLE_COVER)
    argvs = [
        ["force", str(path)],
        ["triangle", "2", "3", "7", "--pretty"],
        ["euler-feasible", "--sig", "0;2,3,7", "--degree", "168", "--cover-chi", "-4"],
        ["addl", "1/4", "1/8"],
        ["approx", "--cantor", "--stages", "2"],
        ["domain", "--l", "1.5", "--theta", "0.25"],
        ["euler-feasible", "--sig", "0;2,x", "--degree", "1", "--cover-chi", "2"],
    ]
    cli._build_parser.cache_clear()
    first = [run(capsys, argv) for argv in argvs]
    with pytest.raises(SystemExit):
        cli.main(["addl"])  # a usage error in between leaves the parser intact
    capsys.readouterr()
    for _ in range(2):
        assert [run(capsys, argv) for argv in argvs] == first
    assert cli._build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("stages", ["0", "-1", "17"])
def test_approx_refuses_stages_out_of_range_before_any_work(capsys, stages):
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["approx", "--cantor", f"--stages={stages}"])
    assert time.perf_counter() - t0 < 0.5
    assert code == 1 and out == ""
    assert err == f"error: --stages must lie in 1..{cli.MAX_APPROX_STAGES}, not {stages}\n"


def test_approx_reversed_interval_spells_its_ends_as_the_json_does(capsys):
    code, out, err = run(capsys, ["approx", "--intervals", "1/3:1/4"])
    assert code == 1 and out == ""
    assert err == "error: stage 1: interval (1/3, 1/4) is reversed\n"


def test_triangle_rep(capsys):
    doc = run_json(capsys, ["triangle", "2", "3", "7"])
    assert doc["expected"] == ["1/2", "1/3", "1/7"]
    rots = doc["rotation_numbers"]
    assert rots[0] == pytest.approx(0.5, abs=1e-12)
    assert rots[1] == pytest.approx(1 / 3, abs=1e-12)
    assert rots[2] == pytest.approx(1 / 7, abs=1e-12)
    assert doc["relator_residual"] < 1e-9


@pytest.mark.parametrize(
    "argv, message",
    [
        (["domain", "--l", "nan", "--theta", "0.25"], "l must be a finite number, got nan"),
        (["domain", "--l", "1.0", "--theta", "inf"], "theta must be a finite number, got inf"),
        (["addl", "0.1", "0.2", "--l", "nan"], "l must be a finite number, got nan"),
        (["denjoy", "--theta", "0.3", "--seed-point", "inf"], "seed point must be a finite number, got inf"),
        (["triangle", "2", "3", "-5"], "triangle orders must be at least 2, got 2, 3, -5"),
        (["euler-feasible", "--sig", "0;2,3,7", "--degree", "168", "--cover-chi", "-4", "--fix", "1/2,1/0"],
         "--fix value '1/0' is not a rational number"),
        # angles: "inf" once reached plus_l as NaN, and "nan" blamed the determinant
        (["addl", "inf", "0.2"], "t1 'inf' is not a finite number"),
        (["addl", "0.2", "1/0"], "t2 '1/0' is not a finite number"),
        (["addl", "0.2", "half"], "t2 'half' is not a number"),
        (["denjoy", "--theta", "nan"], "--theta 'nan' is not a finite number"),
        (["denjoy", "--theta", "1/0"], "--theta '1/0' is not a finite number"),
        # an l past float range once ended in "math range error"
        (["domain", "--l", "800", "--theta", "0.2"], "|l| must be at most 709.78 (e^l overflows past it), got 800.0"),
        (["domain", "--l", "-710", "--theta", "0.2"], "|l| must be at most 709.78 (e^l overflows past it), got -710.0"),
        (["addl", "0.2", "0.3", "--l", "800"], "|l| must be at most 709.78 (e^l overflows past it), got 800.0"),
    ],
)
def test_bad_numbers_exit_1_naming_the_argument(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_solve_grid_help_names_the_scanned_axes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0
    assert "nodes on each scanned axis" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "argv, message",
    [
        # --grid -3 once died with a TypeError traceback, --grid 0 with "integer modulo by zero"
        (["solve", "SYSTEM", "--grid", "-3"], "grid must be at least 1, got -3"),
        (["solve", "SYSTEM", "--grid", "0"], "grid must be at least 1, got 0"),
        # -1 and nan once ended in "no isolated root ...", inf printed Infinity into the JSON
        (["solve", "SYSTEM", "--refine-tol", "-1"], "refine_tol must be finite and > 0, got -1.0"),
        (["solve", "SYSTEM", "--refine-tol", "nan"], "refine_tol must be finite and > 0, got nan"),
        (["solve", "SYSTEM", "--refine-tol", "inf"], "refine_tol must be finite and > 0, got inf"),
        # once reported a trace check over -5 samples
        (["quat", "analyze", "ALGEBRA", "--samples", "-5"], "--samples must be at least 0, got -5"),
        # one scanned axis of --grid nodes: a huge grid would hold every node at once
        (["solve", "SYSTEM", "--grid", "1048577"], "grid must be at most 1048576, got 1048577"),
        (["solve", "SYSTEM", "--grid", str(10**12)], f"grid must be at most 1048576, got {10**12}"),
    ],
)
def test_counts_and_tolerances_outside_their_domain_exit_1(tmp_path, capsys, argv, message):
    files = {"SYSTEM": tmp_path / "sys.json", "ALGEBRA": tmp_path / "alg.txt"}
    files["SYSTEM"].write_text(
        json.dumps({"variables": ["t"], "equations": [[{"plus_l": {"l": 0.0, "a": "t", "b": "t"}}, "2/5"]]})
    )
    files["ALGEBRA"].write_text(QUAT_SPEC)
    code, out, err = run(capsys, [str(files.get(a, a)) for a in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "system, token",
    [
        ('{"variables":["t"],"equations":[[{"plus_l":{"l":NaN,"a":"t","b":"t"}},"2/5"]]}', "NaN"),
        ('{"variables":["t"],"equations":[[{"plus_l":{"l":0.0,"a":"t","b":"t"}},"2/5"]],'
         '"constraints":{"t":[NaN,0.5]}}', "NaN"),
        ('{"variables":["t"],"equations":[[{"plus_l":{"l":1e999,"a":"t","b":"t"}},"2/5"]]}', "1e999"),
        ('{"variables":["t"],"equations":[[{"plus_l":{"l":0.0,"a":"t","b":"t"}},-Infinity]]}', "-Infinity"),
    ],
)
def test_solve_file_rejects_non_finite_numbers(tmp_path, capsys, system, token):
    # these once ended in "no isolated root satisfies the constraints"
    path = tmp_path / "sys.json"
    path.write_text(system)
    code, out, err = run(capsys, ["solve", str(path)])
    assert (code, out, err) == (1, "", f"error: {path}: {token} is not a finite number\n")


@pytest.mark.parametrize(
    "constant, message",
    [
        # these once ended in "no isolated root ..." and "Fraction(1, 0)"
        ("nan", "constant 'nan' is not a finite number, nor a declared variable (t)"),
        ("1/0", "constant '1/0' is not a finite number, nor a declared variable (t)"),
        ("s", "constant 's' is not a number, nor a declared variable (t)"),
    ],
)
def test_solve_rejects_non_finite_constants(tmp_path, capsys, constant, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"variables": ["t"], "equations": [["t", constant]]}))
    code, out, err = run(capsys, ["solve", str(path)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, token", [
    ('{"type": "rotation", "theta": Infinity}', "Infinity"),
    ('{"type": "word", "letters": [{"type": "rotation", "theta": -Infinity}]}', "-Infinity"),
    ('{"type": "rotation", "theta": 1e999}', "1e999"),
])
def test_map_file_rejects_non_finite_numbers(tmp_path, capsys, spec, token):
    # the rotation case once exited with "math domain error", naming neither file nor field
    path = tmp_path / "m.json"
    path.write_text(spec)
    code, out, err = run(capsys, ["rotnum", "--map", str(path)])
    assert (code, out, err) == (1, "", f"error: {path}: {token} is not a finite number\n")


@pytest.mark.parametrize("command, doc, message", [
    ("rotnum", '{"type":"moebius"}', "moebius map has no 'matrix' key"),
    ("rotnum", '{"type":"moebius","matrix":5}', "matrix must be [[a, b], [c, d]], got 5"),
    ("rotnum", '{"type":"moebius","matrix":[[1,0],[0]]}', "matrix must be [[a, b], [c, d]], got [0]"),
    ("rotnum", '{"type":"pl","xs":5,"ys":5}', "xs must be a list, got 5"),
    ("rotnum", '{"type":"pl","xs":[0.0],"ys":[{}]}', "a breakpoint must be a number, got {}"),
    ("rotnum", '{"type":"word","letters":5}', "letters must be a list, got 5"),
    # a number spelled as a string once slipped past the finite-number check
    ("rotnum", '{"type":"rotation","theta":"inf"}', 'theta must be a number, got "inf"'),
    pytest.param("rotnum", '{"type":"pl","xs":[0.0],"ys":[1' + "0" * 400 + ']}',
                 "1000000000000000... (401 characters) is past float range", id="rotnum-huge-int-breakpoint"),
    ("rotnum", '{"type":"word","letters":[{"type":"rotation"}]}', "rotation map has no 'theta' key"),
    ("rotnum", "[1,2]", "map must be a JSON object, got [1, 2]"),
    ("rotnum", '{"type":"word","letters":[{"theta":0.5}]}', "map has no 'type' key"),
    ("solve", '{"equations":[["t","1/2"]]}', "system has no 'variables' key"),
    ("solve", "[1]", "system must be a JSON object, got [1]"),
    ("solve", '{"variables":["t"],"equations":[["t","1/2"]],"constraints":[1]}',
     "constraints must be a JSON object, got [1]"),
    ("solve", '{"variables":["t"],"equations":[["t","1/2"]],"constraints":{"t":0.5}}',
     "constraint 't' must be [lo, hi], got 0.5"),
    ("solve", '{"variables":["x"],"equations":[[{"plus_l":{"a":"x"}},"1/2"]]}', "plus_l has no 'b' key"),
    ("solve", '{"variables":["x"],"equations":[[{"plus_l":5},"1/2"]]}', "plus_l must be a JSON object, got 5"),
    ("solve", '{"variables":["x"],"equations":[["x"]]}', 'an equation must be [lhs, rhs], got ["x"]'),
    ("solve", '{"variables":"x","equations":[["x","1/2"]]}', 'variables must be a list, got "x"'),
    pytest.param("solve", '{"variables":["x"],"equations":[["x",1' + "0" * 400 + ']]}',
                 "1000000000000000... (401 characters) is past float range", id="solve-huge-int-constant"),
    # the interpreter's int digit limit once spoke first, naming neither file nor field
    pytest.param("rotnum", '{"type":"rotation","theta":' + "1" * 5001 + "}",
                 "1111111111111111... (5001 characters) is past float range", id="rotnum-5001-digit-int"),
    pytest.param("rotnum", '{"type":"rotation","theta":' + "2" * 309 + "}",
                 "2222222222222222... (309 characters) is past float range", id="rotnum-int-just-past-float-range"),
    pytest.param("solve", '{"variables":["x"],"equations":[["x",-' + "9" * 400 + ']]}',
                 "-999999999999999... (401 characters) is past float range", id="solve-negative-huge-int"),
    # an empty or broken file once printed the decoder's message without the file
    pytest.param("rotnum", "", "Expecting value: line 1 column 1 (char 0)", id="rotnum-empty-file"),
    pytest.param("solve", '{"variables": ["x"]', "Expecting ',' delimiter: line 1 column 20 (char 19)",
                 id="solve-unclosed"),
])
def test_malformed_json_input_exits_1_naming_the_file(tmp_path, capsys, command, doc, message):
    # each of these once ended in a KeyError, TypeError or AttributeError traceback
    path = tmp_path / "input.json"
    path.write_text(doc)
    argv = ["rotnum", "--map", str(path)] if command == "rotnum" else ["solve", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")
    assert "Traceback" not in err


def _readme_usage_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command-line usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip() and not line.startswith("#")]


def test_readme_usage_commands_run(tmp_path, monkeypatch, capsys):
    # every command the README shows runs as written, after the block's set-up lines
    lines = _readme_usage_block()
    setup = [line for line in lines if line.split()[0] in ("echo", "printf")]
    commands = [line for line in lines if line.split()[0] == "rotforce"]
    assert len(setup) + len(commands) == len(lines) and len(commands) >= 10
    for line in setup:
        subprocess.run(line, shell=True, cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        code, out, err = run(capsys, shlex.split(line)[1:])
        assert code == 0, (line, err)
        assert json.loads(out)["meta"]["command"] == shlex.split(line)[1], line


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


SEEDLESS_ARGVS = [
    ["rotnum", "--map", "m.json"],
    ["addl", "0.1", "0.2"],
    ["domain", "--l", "1", "--theta", "0.25"],
    ["solve", "sys.json"],
    ["euler-feasible", "--sig", "0;2,3,7", "--degree", "168", "--cover-chi", "-4"],
    ["force", "pres.txt"],
    ["approx", "--cantor"],
    ["triangle", "2", "3", "7"],
    ["denjoy", "--theta", "0.3"],  # nor may --seed pass as an abbreviation of --seed-point
]


@pytest.mark.parametrize("argv", SEEDLESS_ARGVS, ids=[a[0] for a in SEEDLESS_ARGVS])
def test_seed_is_a_usage_error_where_nothing_is_sampled(capsys, argv):
    # all ten subcommands once accepted --seed, and nine only echoed it into meta
    with pytest.raises(SystemExit) as ei:
        cli.main(argv + ["--seed", "9"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --seed 9" in capsys.readouterr().err


def test_every_subcommand_but_quat_is_seedless():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    takes_seed = {name for name, p in sub.choices.items() if any(a.dest == "seed" for a in p._actions)}
    assert takes_seed == {"quat"} and {a[0] for a in SEEDLESS_ARGVS} | takes_seed == set(sub.choices)


def test_quat_analyze_still_records_its_seed(tmp_path, capsys):
    path = tmp_path / "alg.txt"
    path.write_text(QUAT_SPEC)
    assert run_json(capsys, ["quat", "analyze", str(path), "--samples", "3", "--seed", "7"])["meta"]["seed"] == 7
    assert run_json(capsys, ["quat", "analyze", str(path)])["meta"]["seed"] is None


def test_integers_in_float_range_still_read(tmp_path, capsys):
    # a 309-digit integer below float overflow passes the parse-time check
    path = tmp_path / "m.json"
    path.write_text('{"type":"rotation","theta":' + "9" * 308 + "}")
    assert run_json(capsys, ["rotnum", "--map", str(path), "--iters", "10"])["rotation_number"] == 0.0


def test_force_and_solve_refuse_l_past_float_range(tmp_path, capsys):
    pres = tmp_path / "pres.txt"
    pres.write_text("gens g\nexclude g: l=800 theta=0.2\nmark g\n")
    system = tmp_path / "sys.json"
    plus_l = {"plus_l": {"l": 800, "a": "t", "b": "t"}}
    system.write_text(json.dumps({"variables": ["t"], "equations": [[plus_l, "2/5"]]}))
    for argv in (["force", str(pres)], ["solve", str(system)]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", "error: |l| must be at most 709.78 (e^l overflows past it), got 800.0\n")


def test_rotation_map_folds_theta_before_scaling(tmp_path, capsys):
    # theta = 1e12 + 0.375 once read 0.374954..., four times past the 2/n bound;
    # theta = 1e308 once ended in "math domain error"
    path = tmp_path / "m.json"
    for theta, want in ((1000000000000.375, 0.375), (1e308, 0.0)):
        path.write_text(json.dumps({"type": "rotation", "theta": theta}))
        doc = run_json(capsys, ["rotnum", "--map", str(path)])
        assert circledyn.circ_dist(doc["rotation_number"], want) <= doc["error_bound"]

"""Command-line front end: reproducible pipelines over the library modules.

Every subcommand prints one canonical JSON document (sorted keys,
compact separators) so identical invocations are byte-identical;
``--pretty`` switches to indented output for reading.  Numeric results
always travel with their tolerance or error bound, and a ``meta`` block
records the package version, the subcommand, and the seed in effect.

Exit codes: 0 on success, 1 when the inputs are outside a routine's
domain (the library's ValueError family), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__, circledyn, forcing, moebius, quatalg, rotarith
from .eulerorb import OrbifoldSig, check_manifold_cover, feasible_tuples, milnor_wood_bound
from .moebius import CLASS_TOL, HPoint, MoebiusReal, elliptic_rotation_number, rotation_about

__all__ = ["main"]

# The last Cantor stage of `approx` then has 2^16 intervals; a far larger
# --stages would hold one big-integer grid of 2^(stages+4) per stage.
MAX_APPROX_STAGES = 16


def _angle_arg(name: str, text: str):
    """'p/q' becomes an exact Angle; anything else parses as a float.

    Text that is no number, a zero denominator, NaN and the infinities
    raise ValueError naming the argument and its text."""
    text = text.strip()
    try:
        value = Fraction(text) if "/" in text else float(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not a number") from None
    except ZeroDivisionError:
        value = math.inf
    if isinstance(value, Fraction):
        return rotarith.Angle(exact=value)
    if not math.isfinite(value):
        raise ValueError(f"{name} {text!r} is not a finite number")
    return rotarith.Angle(value)


def _emit(payload: dict, args) -> None:
    payload["meta"] = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    if args.pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str):
    """A JSON input file's document (a system or a map), each number checked once, as it is parsed: a syntax
    error, NaN, Infinity or a number past float range, integers of any length included, raises ValueError
    naming the file and the (shortened) token.  Integers stay ``int``, so messages print them as written."""
    def finite(tok: str, why: str = "is not a finite number") -> float:
        if not math.isfinite(v := float(tok)):
            shown = tok if len(tok) <= 32 else f"{tok[:16]}... ({len(tok)} characters)"
            raise ValueError(f"{path}: {shown} {why}")
        return v
    def integer(tok: str) -> int:
        finite(tok, "is past float range")
        return int(tok)
    try:
        return json.loads(_read_text(path), parse_float=finite, parse_constant=finite, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _key(doc, key: str, path: str, what: str):
    """``doc[key]`` of a JSON object; ValueError naming the file and the missing key or the shape."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object, got {json.dumps(doc)}")
    if key not in doc:
        raise ValueError(f"{path}: {what} has no {key!r} key")
    return doc[key]


def _array(value, path: str, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{path}: {what} must be a list, got {json.dumps(value)}")
    return value


def _pair(value, path: str, what: str, shape: str) -> list:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{path}: {what} must be {shape}, got {json.dumps(value)}")
    return value


def _number(value, path: str, what: str) -> float:
    """A JSON number as a float; a string such as "inf" would slip past ``_read_json``'s check."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{path}: {what} must be a number, got {json.dumps(value)}")


def _rational(flag: str, tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} value {tok.strip()!r} is not a rational number") from None


# ---------------------------------------------------------------------------
# map files


def _map_from_spec(spec, path: str) -> circledyn.CircleMap:
    kind = _key(spec, "type", path, "map")
    if kind == "moebius":
        rows = _pair(_key(spec, "matrix", path, "moebius map"), path, "matrix", "[[a, b], [c, d]]")
        entries = [x for row in rows for x in _pair(row, path, "matrix", "[[a, b], [c, d]]")]
        return circledyn.MoebiusOnRP1(MoebiusReal(*(_number(x, path, "a matrix entry") for x in entries)))
    if kind == "rotation":
        theta = _number(_key(spec, "theta", path, "rotation map"), path, "theta")
        return circledyn.MoebiusOnRP1(rotation_about(HPoint(0.0, 1.0), theta))
    if kind == "pl":
        xs, ys = (_array(_key(spec, k, path, "pl map"), path, k) for k in ("xs", "ys"))
        xs, ys = ([_number(v, path, "a breakpoint") for v in vs] for vs in (xs, ys))
        return circledyn.PiecewiseLinear(xs, ys)
    if kind == "word":
        letters = _array(_key(spec, "letters", path, "word map"), path, "letters")
        return circledyn.Word([_map_from_spec(s, path) for s in letters])
    raise ValueError(f"unknown map type {kind!r} (want moebius, rotation, pl, or word)")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rotnum(args) -> None:
    f = _map_from_spec(_read_json(args.map), args.map)
    est = circledyn.rotation_number(f, args.iters)
    _emit(
        {
            "rotation_number": est.value,
            "iterations": est.iterations,
            "error_bound": est.error_bound,
        },
        args,
    )


def _cmd_addl(args) -> None:
    t1, t2 = _angle_arg("t1", args.t1), _angle_arg("t2", args.t2)
    value = rotarith.plus_l(t1, t2, args.l)
    oracle = rotarith.plus_l_oracle(t1, t2, args.l)
    gap = abs(circledyn.circ_dist(value.value, 0.0) - circledyn.circ_dist(oracle.value, 0.0))
    _emit(
        {
            "value": value.value,
            "exact": str(value) if value.exact is not None else None,
            "l": args.l,
            "oracle": oracle.value,
            "oracle_gap": gap,
            "agrees": gap <= 1e-9,
            "tolerance": 1e-9,
        },
        args,
    )


def _cmd_domain(args) -> None:
    di = rotarith.domain_interval(args.l, args.theta)
    _emit(
        {
            "lo": di.lo,
            "hi": di.hi,
            "length": di.length(),
            "complement": list(di.complement()),
            "l": args.l,
            "theta": float(args.theta),
            "tolerance": 1e-12,
        },
        args,
    )


def _parse_expr(node, variables, path: str) -> rotarith.Expr:
    if isinstance(node, str):
        if node in variables:
            return rotarith.Var(node)
        try:
            return rotarith.Const(_angle_arg("constant", node))
        except ValueError as exc:
            raise ValueError(f"{exc}, nor a declared variable ({', '.join(variables)})") from None
    if isinstance(node, (int, float)):
        return rotarith.Const(rotarith.Angle(_number(node, path, "a constant")))
    if isinstance(node, dict) and "plus_l" in node:
        body = node["plus_l"]
        left, right = (_parse_expr(_key(body, k, path, "plus_l"), variables, path) for k in ("a", "b"))
        return rotarith.PlusL(l=_number(body.get("l", 0.0), path, "plus_l l"), left=left, right=right)
    raise ValueError(f"{path}: bad expression node {json.dumps(node)}")


def _cmd_solve(args) -> None:
    path = args.system
    doc = _read_json(path)
    variables = _array(_key(doc, "variables", path, "system"), path, "variables")
    if not all(isinstance(v, str) for v in variables):
        raise ValueError(f"{path}: variables must be a list of names, got {json.dumps(variables)}")
    constraints = doc.get("constraints", {})
    if not isinstance(constraints, dict):
        raise ValueError(f"{path}: constraints must be a JSON object, got {json.dumps(constraints)}")
    system = rotarith.EquationSystem(
        variables=variables,
        equations=[
            tuple(_parse_expr(side, variables, path) for side in _pair(eq, path, "an equation", "[lhs, rhs]"))
            for eq in _array(_key(doc, "equations", path, "system"), path, "equations")
        ],
        constraints={
            k: tuple(_number(x, path, f"a bound on {k!r}") for x in _pair(v, path, f"constraint {k!r}", "[lo, hi]"))
            for k, v in constraints.items()
        },
    )
    sols = rotarith.solve_system(system, grid=args.grid, refine_tol=args.refine_tol)
    _emit(
        {
            "roots": [
                {
                    "value": r.value.value,
                    "isolation_radius": r.isolation_radius,
                    "residual": r.residual,
                    "assignment": {k: v for k, v in sorted(r.assignment.items())},
                }
                for r in sols.roots
            ],
            "refine_tol": args.refine_tol,
        },
        args,
    )


def _cmd_euler_feasible(args) -> None:
    sig = OrbifoldSig.parse(args.sig)
    check_manifold_cover(sig, args.degree, args.cover_chi)
    fixed = {}
    if args.fix:
        values = [_rational("--fix", v) for v in args.fix.split(",") if v.strip()]
        if len(values) > len(sig.cone_orders):
            raise ValueError("more pinned values than cone slots")
        fixed = dict(enumerate(values))
    free_slots = [i for i in range(len(sig.cone_orders)) if i not in fixed]
    if args.free is not None:
        if [sig.cone_orders[i] for i in free_slots] != [args.free]:
            raise ValueError(
                f"--free {args.free} does not match the unpinned slots "
                f"{[sig.cone_orders[i] for i in free_slots]}"
            )
    tuples = feasible_tuples(sig, args.degree, args.cover_chi, fixed=fixed or None, maximal=args.maximal)
    rows = []
    for t in tuples:
        row = {"n": t.n, "rots": [str(r) for r in t.rots]}
        if len(free_slots) == 1:
            slot = free_slots[0]
            row["p"] = int(t.rots[slot] * sig.cone_orders[slot])
        rows.append(row)
    _emit(
        {
            "tuples": rows,
            "bound": milnor_wood_bound(args.cover_chi),
            "exact": True,
        },
        args,
    )


def _cmd_quat(args) -> None:
    if args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    spec = quatalg.parse_algebra_spec(_read_text(args.file))
    alg = spec.algebra
    profile = [r.name.lower() for r in quatalg.ramification_profile(alg)]
    admissible = quatalg.is_fuchsian_admissible(alg)
    out = {
        "profile": profile,
        "admissible": admissible,
        "unramified_places": profile.count("unramified"),
        "elements": {},
        "tolerance": 1e-10,
    }
    for name, x in sorted(spec.elements.items()):
        tr, nm = alg.trace(x), alg.norm(x)
        try:
            entry = {"trace": str(tr), "norm": str(nm)}
        except ValueError:  # an integer past the interpreter's digit limit for str
            raise ValueError(f"element {name!r}: its exact trace or norm has too many digits to print") from None
        if admissible:
            try:
                entry["trace_embedding"] = float(np.trace(quatalg.embed_unramified(alg, x)))
                entry["rotation_number"] = quatalg.arithmetic_rotation_number(alg, x, norm=nm).value
            except (quatalg.NotNormOne, moebius.NotElliptic) as exc:
                entry["rotation_number"] = None
                entry["reason"] = type(exc).__name__
            except OverflowError:
                raise ValueError(f"element {name!r}: its value at the unramified place is past float range") from None
        out["elements"][name] = entry
    if admissible and args.samples:
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.samples):
            coords = [alg.field.from_rational(Fraction(int(c))) for c in rng.integers(-5, 6, size=4)]
            x = alg.elem(*coords)
            sigma_tr = alg.field.approx_at(alg.trace(x), quatalg._unramified_place(alg))
            worst = max(worst, abs(float(np.trace(quatalg.embed_unramified(alg, x))) - sigma_tr))
        out["trace_check"] = {"samples": args.samples, "max_deviation": worst, "tolerance": 1e-10}
    _emit(out, args)


def _cmd_force(args) -> None:
    pres = forcing.parse_presentation(_read_text(args.file))
    result = forcing.propagate(pres)
    replayed = forcing.replay_certificate(pres, result.certificate)
    doc = result.to_json()
    doc["replayed"] = replayed
    _emit(doc, args)


def _cmd_approx(args) -> None:
    if not 1 <= args.stages <= MAX_APPROX_STAGES:
        raise ValueError(f"--stages must lie in 1..{MAX_APPROX_STAGES}, not {args.stages}")
    if args.cantor:
        kspec = forcing.middle_thirds_cantor
    elif args.intervals:
        pairs = []
        for part in args.intervals.split(","):
            lo, _, hi = part.partition(":")
            pairs.append((_rational("--intervals", lo), _rational("--intervals", hi)))
        kspec = pairs
    else:
        raise ValueError("need --cantor or --intervals")
    stages = forcing.outer_approximation(kspec, args.stages)
    _emit(
        {
            "stages": [s.to_json() for s in stages],
            "nested": True,
            "snap_grids": [2 ** (i + 4) for i in range(1, args.stages + 1)],
        },
        args,
    )


def _cmd_triangle(args) -> None:
    mats = moebius.triangle_group_rep(args.p, args.q, args.r)
    prod = mats[0] @ mats[1] @ mats[2]
    ia, ib, ic, id_ = prod.entries()
    residual = max(abs(ia - 1.0), abs(ib), abs(ic), abs(id_ - 1.0))
    _emit(
        {
            "matrices": [[[m.a, m.b], [m.c, m.d]] for m in mats],
            "rotation_numbers": [elliptic_rotation_number(m) for m in mats],
            "expected": [str(Fraction(1, n)) for n in (args.p, args.q, args.r)],
            "relator_residual": residual,
            "tolerance": CLASS_TOL,
        },
        args,
    )


def _cmd_denjoy(args) -> None:
    theta = _angle_arg("--theta", args.theta)
    gen = rotation_about(HPoint(0.0, 1.0), theta.value)
    layout = circledyn.denjoy_layout([gen], args.seed_point, depth=args.depth)
    est = circledyn.rotation_number(layout.maps[0], args.iters)
    deviation = circledyn.circ_dist(est.value, theta.value)
    _emit(
        {
            "breakpoints": len(layout.maps[0].xs),
            "gaps": len(layout.entries),
            "gap_total": layout.total_weight,
            "estimate": est.value,
            "target": theta.value,
            "deviation": deviation,
            "estimator_bound": est.error_bound,
            "iterations": est.iterations,
        },
        args,
    )


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented human-readable JSON")

    ap = argparse.ArgumentParser(prog="rotforce", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"rotforce {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotnum", parents=[common], help="Poincare rotation-number estimate")
    p.add_argument("--map", required=True, help="JSON circle-map file")
    p.add_argument("--iters", type=int, default=100_000)
    p.set_defaults(func=_cmd_rotnum)

    p = sub.add_parser("addl", parents=[common], help="deformed angle addition with oracle check")
    p.add_argument("t1", type=str)
    p.add_argument("t2", type=str)
    p.add_argument("--l", type=float, default=0.0)
    p.set_defaults(func=_cmd_addl)

    p = sub.add_parser("domain", parents=[common], help="definedness interval of the deformed sum")
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=_cmd_domain)

    p = sub.add_parser("solve", parents=[common], help="solve a deformed-sum equation system")
    p.add_argument("system", help="JSON system file")
    p.add_argument("--grid", type=int, default=4096, help="nodes on each scanned axis")
    p.add_argument("--refine-tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("euler-feasible", parents=[common], help="integral Euler-number tuples")
    p.add_argument("--sig", required=True, help='orbifold signature, e.g. "0;2,3,7"')
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cover-chi", type=int, required=True)
    p.add_argument("--fix", default=None, help="comma list pinning the leading cone slots")
    p.add_argument("--free", type=int, default=None, help="expected order of the single free slot")
    p.add_argument("--maximal", action="store_true")
    p.set_defaults(func=_cmd_euler_feasible)

    p = sub.add_parser("quat", parents=[common], help="quaternion algebra analysis")
    p.add_argument("action", choices=["analyze"])
    p.add_argument("file", help="algebra spec file")
    p.add_argument("--samples", type=int, default=0, help="random trace-embedding checks")
    p.add_argument("--seed", type=int, default=None, help="seed for the --samples draws")
    p.set_defaults(func=_cmd_quat)

    p = sub.add_parser("force", parents=[common], help="propagate rotation-number constraints")
    p.add_argument("file", help="presentation file")
    p.set_defaults(func=_cmd_force)

    p = sub.add_parser("approx", parents=[common], help="nested outer interval approximations")
    p.add_argument("--cantor", action="store_true", help="middle-thirds Cantor target")
    p.add_argument("--intervals", default=None, help='comma list "lo:hi" of exact arcs')
    p.add_argument("--stages", type=int, default=8, help=f"number of stages, 1 to {MAX_APPROX_STAGES}")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("triangle", parents=[common], help="hyperbolic triangle-rotation matrices")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_triangle)

    # allow_abbrev=False: --seed is not a prefix of --seed-point here
    p = sub.add_parser("denjoy", parents=[common], allow_abbrev=False, help="blow up a rotation orbit into gaps")
    p.add_argument("--theta", required=True, help="rotation number (float or p/q)")
    p.add_argument("--depth", type=int, default=200)
    p.add_argument("--iters", type=int, default=100_000)
    p.add_argument("--seed-point", type=float, default=0.1)
    p.set_defaults(func=_cmd_denjoy)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__, circledyn, forcing, moebius, quatalg, rotarith
from .eulerorb import OrbifoldSig, check_manifold_cover, feasible_tuples, milnor_wood_bound
from .moebius import CLASS_TOL, HPoint, MoebiusReal, elliptic_rotation_number, rotation_about

__all__ = ["main"]


def _fmt_frac(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _angle_arg(text: str):
    """'p/q' becomes an exact Angle; anything else parses as a float."""
    text = text.strip()
    if "/" in text:
        return rotarith.Angle(exact=Fraction(text))
    return rotarith.Angle(float(text))


def _emit(payload: dict, args) -> None:
    payload["meta"] = {
        "command": args.command,
        "seed": args.seed,
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


# ---------------------------------------------------------------------------
# map files


def _map_from_spec(spec: dict) -> circledyn.CircleMap:
    kind = spec.get("type")
    if kind == "moebius":
        (a, b), (c, d) = spec["matrix"]
        return circledyn.MoebiusOnRP1(MoebiusReal(float(a), float(b), float(c), float(d)))
    if kind == "rotation":
        return circledyn.MoebiusOnRP1(rotation_about(HPoint(0.0, 1.0), float(spec["theta"])))
    if kind == "pl":
        return circledyn.PiecewiseLinear(
            [float(x) for x in spec["xs"]], [float(y) for y in spec["ys"]]
        )
    if kind == "word":
        return circledyn.Word([_map_from_spec(s) for s in spec["letters"]])
    raise ValueError(f"unknown map type {kind!r} (want moebius, rotation, pl, or word)")


def _load_map(path: str) -> circledyn.CircleMap:
    return _map_from_spec(json.loads(_read_text(path)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rotnum(args) -> None:
    f = _load_map(args.map)
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
    t1, t2 = _angle_arg(args.t1), _angle_arg(args.t2)
    value = rotarith.plus_l(t1, t2, args.l)
    oracle = rotarith.plus_l_oracle(t1, t2, args.l)
    gap = abs(min(value.value, 1.0 - value.value) - min(oracle.value, 1.0 - oracle.value))
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


def _parse_expr(node, variables) -> rotarith.Expr:
    if isinstance(node, str):
        if node in variables:
            return rotarith.Var(node)
        try:
            return rotarith.Const(_angle_arg(node))
        except ValueError:
            raise ValueError(
                f"{node!r} is neither a number nor a declared variable ({', '.join(variables)})"
            ) from None
    if isinstance(node, (int, float)):
        return rotarith.Const(rotarith.Angle(float(node)))
    if isinstance(node, dict) and "plus_l" in node:
        body = node["plus_l"]
        return rotarith.PlusL(
            l=float(body.get("l", 0.0)),
            left=_parse_expr(body["a"], variables),
            right=_parse_expr(body["b"], variables),
        )
    raise ValueError(f"bad expression node {node!r}")


def _cmd_solve(args) -> None:
    doc = json.loads(_read_text(args.system))
    variables = list(doc["variables"])
    system = rotarith.EquationSystem(
        variables=variables,
        equations=[(_parse_expr(l, variables), _parse_expr(r, variables)) for l, r in doc["equations"]],
        constraints={k: (float(v[0]), float(v[1])) for k, v in doc.get("constraints", {}).items()},
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


def _parse_sig(text: str) -> OrbifoldSig:
    genus_part, _, orders_part = text.partition(";")
    orders = tuple(int(x) for x in orders_part.split(",") if x) if orders_part else ()
    return OrbifoldSig(genus=int(genus_part), cone_orders=orders)


def _cmd_euler_feasible(args) -> None:
    sig = _parse_sig(args.sig)
    check_manifold_cover(sig, args.degree, args.cover_chi)
    fixed = {}
    if args.fix:
        values = [Fraction(v) for v in args.fix.split(",") if v.strip()]
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
        row = {"n": t.n, "rots": [_fmt_frac(r) for r in t.rots]}
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
        tr, nm = quatalg.quat_trace_norm(alg, x)
        entry = {"trace": str(tr), "norm": str(nm)}
        if admissible:
            entry["trace_embedding"] = float(np.trace(quatalg.embed_unramified(alg, x)))
            try:
                entry["rotation_number"] = quatalg.arithmetic_rotation_number(alg, x).value
            except (quatalg.NotNormOne, moebius.NotElliptic) as exc:
                entry["rotation_number"] = None
                entry["reason"] = type(exc).__name__
        out["elements"][name] = entry
    if admissible and args.samples:
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.samples):
            coords = [alg.field.from_rational(Fraction(int(c))) for c in rng.integers(-5, 6, size=4)]
            x = alg.elem(*coords)
            tr, _ = quatalg.quat_trace_norm(alg, x)
            sigma_tr = alg.field.approx_at(tr, quatalg._unramified_place(alg))
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
    if args.cantor:
        kspec = forcing.middle_thirds_cantor
    elif args.intervals:
        pairs = []
        for part in args.intervals.split(","):
            lo, _, hi = part.partition(":")
            pairs.append((Fraction(lo), Fraction(hi)))
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
            "expected": [_fmt_frac(Fraction(1, n)) for n in (args.p, args.q, args.r)],
            "relator_residual": residual,
            "tolerance": CLASS_TOL,
        },
        args,
    )


def _cmd_denjoy(args) -> None:
    theta = _angle_arg(args.theta)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented human-readable JSON")
    common.add_argument("--seed", type=int, default=None, help="seed for randomized sampling")

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
    p.add_argument("--grid", type=int, default=4096)
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
    p.set_defaults(func=_cmd_quat)

    p = sub.add_parser("force", parents=[common], help="propagate rotation-number constraints")
    p.add_argument("file", help="presentation file")
    p.set_defaults(func=_cmd_force)

    p = sub.add_parser("approx", parents=[common], help="nested outer interval approximations")
    p.add_argument("--cantor", action="store_true", help="middle-thirds Cantor target")
    p.add_argument("--intervals", default=None, help='comma list "lo:hi" of exact arcs')
    p.add_argument("--stages", type=int, default=8)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("triangle", parents=[common], help="hyperbolic triangle-rotation matrices")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("denjoy", parents=[common], help="blow up a rotation orbit into gaps")
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

"""Spans around the public functions of every rotforce layer, recorded from outside.

:class:`Tracer` replaces each traced function wherever a rotforce module
(or class) binds it, records one span per call -- layer name, start, end,
parent span, query index -- in memory, and puts the originals back on
:meth:`Tracer.uninstall`.  Layer self time is a span's duration minus
the durations of its direct children.  Work counters (kernel steps,
breakpoints, roots, Euler candidates and tuples, certificate entries)
are read off arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _moebius_steps(c, args, kw, out):
    c["kernels.moebius.steps"] += len(out) * (args[1] if len(args) > 1 else kw["n"])


def _pl_steps(c, args, kw, out):
    c["kernels.pl.steps"] += args[2] if len(args) > 2 else kw["n"]


def _word_steps(c, args, kw, out):
    from rotforce import circledyn as cd

    f = args[0]
    direct = isinstance(f, (cd.MoebiusOnRP1, cd.PiecewiseLinear)) or (
        isinstance(f, cd.Word) and all(isinstance(x, cd.MoebiusOnRP1) for x in f.letters)
    )
    if not direct:  # the per-step Python loop over a composed map
        c["circledyn.word.steps"] += args[1] if len(args) > 1 else kw.get("n", 100_000)


def _breakpoints(c, args, kw, out):
    c["circledyn.denjoy.breakpoints"] += sum(len(m.xs) for m in out)


def _roots(c, args, kw, out):
    c["rotarith.solve.roots"] += len(out.roots)


def _euler(c, args, kw, out):
    sig, degree, chi = args[:3]
    fixed = args[3] if len(args) > 3 else kw.get("fixed")
    slots = math.prod(1 if fixed and i in fixed else p for i, p in enumerate(sig.cone_orders))
    window = 1 + len(sig.cone_orders) + (max(0, -chi) + degree - 1) // degree
    c["eulerorb.feasible.candidates"] += slots * (2 * window + 1)
    c["eulerorb.feasible.tuples"] += len(out)


def _cert(c, args, kw, out):
    c["forcing.cert_entries"] += len(out.certificate.entries)


# (module, attribute path, layer, counter)
TARGETS = [
    ("_kernels", "moebius_lift_totals", "kernels.moebius", _moebius_steps),
    ("_kernels", "pl_lift_total", "kernels.pl", _pl_steps),
    ("circledyn", "rotation_number", "circledyn.rotnum", _word_steps),
    ("circledyn", "rotation_numbers", "circledyn.rotnum", None),
    ("circledyn", "certify_monotone", "circledyn.certify", None),
    ("circledyn", "euler_cocycle", "circledyn.cocycle", None),
    ("circledyn", "denjoy_blowup", "circledyn.denjoy", _breakpoints),
    ("circledyn", "denjoy_layout", "circledyn.denjoy", None),
    ("moebius", "rotation_about", "moebius", None),
    ("moebius", "triangle_group_rep", "moebius", None),
    ("moebius", "elliptic_rotation_number", "moebius", None),
    ("moebius", "MoebiusReal.__matmul__", "moebius", None),
    ("moebius", "MoebiusReal.inverse", "moebius", None),
    ("moebius", "MoebiusReal.classify", "moebius", None),
    ("rotarith", "solve_system", "rotarith.solve", _roots),
    ("rotarith", "plus_l", "rotarith.plus_l", None),
    ("rotarith", "plus_l_oracle", "rotarith.plus_l", None),
    ("rotarith", "domain_interval", "rotarith.domain", None),
    ("eulerorb", "feasible_tuples", "eulerorb.feasible", _euler),
    ("forcing", "parse_presentation", "forcing.parse", None),
    ("forcing", "propagate", "forcing.propagate", _cert),
    ("forcing", "replay_certificate", "forcing.replay", None),
    ("forcing", "outer_approximation", "forcing.approx", None),
    ("forcing", "emit_interval_group", "forcing.emit", None),
    ("polyroots", "refine_root", "polyroots.refine", None),
    ("polyroots", "isolate_real_roots", "polyroots.isolate", None),
    ("quatalg", "field_create", "quatalg.field", None),
    ("quatalg", "embed_unramified", "quatalg.embed", None),
    ("quatalg", "NumberField.approx_at", "quatalg.approx_at", None),
    ("quatalg", "NumberField.sign_at", "quatalg.sign_at", None),
    ("quatalg", "ramification_profile", "quatalg.ramification", None),
    ("quatalg", "arithmetic_rotation_number", "quatalg.rotnum", None),
    ("cli", "main", "cli", None),
] + [
    ("rotset", f"RotSet.{name}", "rotset", None)
    for name in (
        "build", "full", "zero_only", "from_points", "from_intervals", "contains", "union",
        "intersect", "is_subset", "scale_image", "scale_preimage", "minkowski",
    )
]

LAYERS = sorted({layer for _, _, layer, _ in TARGETS})
COUNTERS = (
    "kernels.moebius.steps", "kernels.pl.steps", "circledyn.word.steps", "circledyn.denjoy.breakpoints",
    "rotarith.solve.roots", "eulerorb.feasible.candidates", "eulerorb.feasible.tuples", "forcing.cert_entries",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, query]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.query = -1
        self._undo: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            idx = len(tracer.spans)
            tracer.spans.append([layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.query])
            tracer.stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx][1:3] = (t0, t1)
            if counter is not None:
                counter(tracer.counts, args, kw, out)
            return out

        return traced

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k == "rotforce" or k.startswith("rotforce.")}
        for modname, path, layer, counter in TARGETS:
            owner = mods[f"rotforce.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.span(layer, raw.__func__, counter))
                self._patch(owner, attr, raw, new)
                continue
            new = self.span(layer, raw, counter)
            if cls_path:
                self._patch(owner, attr, raw, new)
                continue
            for mod in mods.values():  # every `from x import f` binding too
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, raw, new)

    def _patch(self, owner, name, old, new) -> None:
        self._undo.append((owner, name, old))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def write(self, path) -> None:
        """One JSON line per span, gzipped: a forcing run records ~10^5 spans."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self, rounds: int, scale: float = 1.0) -> dict[str, float]:
        """Per-round calls, self time and counters for every layer; times multiplied by ``scale``."""
        child = np.zeros(len(self.spans))
        for layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, (layer, t0, t1, _, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += ((t1 - t0) - child[i]) * scale
            total_s[layer] += (t1 - t0) * scale
        r = max(1, rounds)
        m = {}
        for layer in LAYERS:
            m["rotset.ops" if layer == "rotset" else f"{layer}.calls"] = calls[layer] / r
            m[f"{layer}.self_s"] = self_s[layer] / r
        c = self.counts
        for k in COUNTERS:
            m[k] = c[k] / r
        for kind in ("moebius", "pl"):
            steps = c[f"kernels.{kind}.steps"]
            m[f"kernels.{kind}.ns_per_step"] = self_s[f"kernels.{kind}"] / steps * 1e9 if steps else 0.0
        cand = c["eulerorb.feasible.candidates"]
        m["eulerorb.feasible.yield"] = c["eulerorb.feasible.tuples"] / cand if cand else 0.0
        embeds = calls["quatalg.embed"]
        m["quatalg.embed.ms_per_call"] = total_s["quatalg.embed"] / embeds * 1e3 if embeds else 0.0
        return m

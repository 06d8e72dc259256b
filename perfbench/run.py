"""Run one rotforce benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 40 --trace 0

One process, one client, a closed loop: the workload's queries run one at
a time, in whole rounds, until ``--seconds`` have passed.  Every answer is
checked afterwards against an independent computation (``oracles.py``);
a query whose answer fails its check counts as failed.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
the rounds alternate untraced and traced, and it carries the per-layer
metrics from the spans of the traced rounds (written to ``perfbench/out``).

Timings are scaled to the machine's speed and taken median-of-rounds.  The
reference machine is shared, and its speed drifts by up to 1.7 times over
stretches from under a second to tens of seconds.  So a fixed calibration
loop runs before the first query of a round and after every
``CAL_EVERY`` queries; each latency is multiplied by ``CALIBRATION_REF_S``
over the mean of the two calibration times around it, each query keeps
the median of its scaled latencies over the rounds, and ``wall_s`` is the
sum of those (README).
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread: the loop has one client and the machine two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("orbits", "forcing", "arithmetic")
SETUP_PROBES = 7
# queries between two calibrations inside a round
CAL_EVERY = 10
# the calibration loop's time on the reference machine when it is quiet
CALIBRATION_REF_S = 0.016

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
_COUNT, _S = "count", "s"
PER_LAYER = {
    **{f"kernels.{k}.{m}": u for k in ("moebius", "pl")
       for m, u in (("calls", _COUNT), ("self_s", _S), ("steps", _COUNT), ("ns_per_step", "ns"))},
    "circledyn.rotnum.calls": _COUNT, "circledyn.rotnum.self_s": _S, "circledyn.word.steps": _COUNT,
    "circledyn.certify.calls": _COUNT, "circledyn.certify.self_s": _S,
    "circledyn.cocycle.calls": _COUNT, "circledyn.cocycle.self_s": _S,
    "circledyn.denjoy.calls": _COUNT, "circledyn.denjoy.self_s": _S, "circledyn.denjoy.breakpoints": _COUNT,
    "moebius.calls": _COUNT, "moebius.self_s": _S,
    "rotarith.solve.calls": _COUNT, "rotarith.solve.self_s": _S, "rotarith.solve.roots": _COUNT,
    "rotarith.plus_l.calls": _COUNT, "rotarith.plus_l.self_s": _S,
    "rotarith.domain.calls": _COUNT, "rotarith.domain.self_s": _S,
    "rotset.ops": _COUNT, "rotset.self_s": _S,
    "eulerorb.feasible.calls": _COUNT, "eulerorb.feasible.self_s": _S,
    "eulerorb.feasible.candidates": _COUNT, "eulerorb.feasible.tuples": _COUNT,
    "eulerorb.feasible.yield": "ratio",
    **{f"forcing.{k}.self_s": _S for k in ("parse", "propagate", "replay", "approx", "emit")},
    "forcing.propagate.calls": _COUNT, "forcing.replay.calls": _COUNT, "forcing.cert_entries": _COUNT,
    "polyroots.refine.calls": _COUNT, "polyroots.isolate.calls": _COUNT, "polyroots.refine.self_s": _S,
    **{f"quatalg.{k}.{m}": u for k in ("field", "embed", "approx_at") for m, u in (("calls", _COUNT), ("self_s", _S))},
    "quatalg.embed.ms_per_call": "ms",
    "quatalg.ramification.calls": _COUNT, "quatalg.sign_at.calls": _COUNT, "quatalg.rotnum.calls": _COUNT,
    "cli.calls": _COUNT, "cli.self_s": _S,
    "trace.overhead_s": _S,
}


class Failure:
    """The answer of a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _workdir() -> Path:
    path = HERE / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build(workload: str, seed: int, workdir: Path):
    import workloads

    return workloads.build(workload, seed, str(workdir))


def probe(workload: str, seed: int) -> None:
    """Set up as a fresh run would, say so, and exit: the unit timed as setup_s."""
    workdir = _workdir()
    try:
        _build(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def calibration() -> float:
    """Seconds taken by fixed interpreter, numpy and Fraction work: the machine's current speed.

    The fastest of three repeats, so that one scheduling blip does not read as a slow machine.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += (i * 2654435761) % 1000003 * 1e-6
        a = np.arange(64.0)
        for _ in range(1000):
            a = np.arctan2(np.sin(a), np.cos(a)) % 1.0 + 0.5
        x = Fraction(0)
        for k in range(1, 300):
            x = (x + Fraction(k, 97)) % 1
        times.append(time.perf_counter() - t0)
    return min(times)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time from spawn to first query ready, speed-scaled."""
    times = []
    for _ in range(SETUP_PROBES):
        scale = CALIBRATION_REF_S / calibration()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--probe"],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            times.append((time.perf_counter() - t0) * scale)
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return statistics.median(times)


def run_round(queries, tracer=None):
    """Run every query once; return the round's wall time, the answers, the
    speed-scaled latencies and the round's median scale.

    A calibration before the first query and after every ``CAL_EVERY``
    queries tracks the machine's speed; each latency is scaled by the mean
    of the two calibrations around it.
    """
    answers, raw, cals = [], [], [calibration()]
    t_round = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            ans = q.run()
        except Exception as exc:  # a raising query is a failed query, not a failed run
            ans = Failure(exc)
        raw.append(time.perf_counter() - t0)
        answers.append(ans)
        if (i + 1) % CAL_EVERY == 0 or i + 1 == len(queries):
            cals.append(calibration())
    wall = time.perf_counter() - t_round
    scales = [2.0 * CALIBRATION_REF_S / (cals[i // CAL_EVERY] + cals[i // CAL_EVERY + 1]) for i in range(len(raw))]
    return wall, answers, [t * k for t, k in zip(raw, scales)], statistics.median(scales)


def _fingerprint(ans) -> bytes:
    return hashlib.blake2b(pickle.dumps(ans, protocol=pickle.HIGHEST_PROTOCOL), digest_size=16).digest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "rotforce" / "__init__.py").is_file():
        print(f"error: rotforce sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    workdir = _workdir()
    try:
        queries = _build(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        # per round, untraced / traced: latencies scaled to the reference machine's speed
        lats: dict[bool, list[list[float]]] = {False: [], True: []}
        traced_scales: list[float] = []
        first: dict[tuple[int, bytes], object] = {}
        rounds: list[list[tuple[int, bytes]]] = []
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                wall, answers, round_lats, scale = run_round(queries, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            lats[traced].append(round_lats)
            if traced:
                traced_scales.append(scale)
            keys = []
            for i, ans in enumerate(answers):
                key = (i, _fingerprint(ans))
                first.setdefault(key, ans)
                keys.append(key)
            rounds.append(keys)
            # whole rounds only: stop when the next one would overrun the measuring time
            if len(rounds) >= (2 if tracer else 1) and time.perf_counter() - start + wall > args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdict = {}
        for key, ans in first.items():
            try:
                verdict[key] = not isinstance(ans, Failure) and bool(queries[key[0]].check(ans))
            except Exception as exc:  # a check that cannot judge the answer rejects it
                print(f"check of {queries[key[0]].name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                verdict[key] = False
        bad = sorted({k[0] for k, ok in verdict.items() if not ok})
        for i in bad:
            ans = next(a for k, a in first.items() if k[0] == i)
            detail = ans.text if isinstance(ans, Failure) else "wrong answer"
            print(f"failed: #{i} {queries[i].name}{' (rational-rotation fault)' if queries[i].fault else ''}: "
                  f"{detail}", file=sys.stderr)
        attempted = len(rounds) * len(queries)
        failed = sum(1 for keys in rounds for k in keys if not verdict[k])
        correct = all(queries[i].fault for i in bad)

        # each query's median scaled latency over the rounds
        med = {t: [statistics.median(r[i] for r in lats[t]) for i in range(len(queries))] for t in lats if lats[t]}
        if tracer is None:
            values = {
                "setup_s": setup_s,
                "wall_s": sum(med[False]),
                "query_p50_ms": statistics.median(med[False]) * 1e3,
                "query_p90_ms": statistics.quantiles(med[False], n=10)[8] * 1e3,
                "peak_rss_mib": peak_rss_mib,
            }
            units = END_TO_END
        else:
            values = tracer.layer_metrics(len(lats[True]), statistics.median(traced_scales))
            values["trace.overhead_s"] = sum(med[True]) - sum(med[False])
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            units = PER_LAYER
        print(f"rounds: {len(rounds)}, queries per round: {len(queries)}", file=sys.stderr)
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

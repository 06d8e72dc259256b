"""Run workloads over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workloads orbits forcing arithmetic --seeds 1-10 --seconds 40

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- the
figure each end-to-end bound in BENCHMARK.json is set against.  This
regenerates the reference table in README.md; add ``--trace 1`` for the
per-layer figures.  The benchmark stores no other reference data.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    """'1-10' is a range; '3,3,3' repeats one seed to separate machine noise from inputs."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["orbits", "forcing", "arithmetic"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10, or a list such as 3,3,3")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
            doc = json.loads(done.stdout.strip().splitlines()[-1])
            if not doc["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
                return 1
            shares.add((doc["failed"] / doc["attempted"]))
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: failed share {sorted(shares)}", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34s} median {med:12.5g}  spread {spread:7.3f}  runs {' '.join(f'{v:.4g}' for v in vals)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload reduce-rank --seeds 1-10 [--out FILE]

For every end-to-end metric of untraced runs this prints the median, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), the metric's bound from
BENCHMARK.json and the spread as a share of that bound.  ``--out``
merges, per workload, every run's values and these statistics into a
JSON file (baseline.json was written this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = (0.0, "")
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(_seeds(args.seeds))} runs of {seconds:g} s")
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            share = f"{spread / bound:6.2f} of bound {bound}" if bound else ""
            if bound:
                worst = max(worst, (spread / bound, f"{name} on {workload}"))
            print(f"  {name:38} median {med:12.4f}  spread {spread:7.2%}  {share}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        if args.out:
            path = Path(args.out)
            doc = json.loads(path.read_text()) if path.exists() else {}
            doc[workload] = {"seeds": args.seeds, "seconds": seconds, "metrics": summary}
            path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"largest spread as a share of its bound: {worst[0]:.2f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

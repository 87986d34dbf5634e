#!/usr/bin/env python3
"""Self-test of the benchmark: names, result shape and the bare-copy refusal.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics listed
below, runs every workload once untraced and once traced on one short
round, and requires each run to print every metric of its kind with its
unit, correct outputs and no failed op.  Last, it copies BENCHMARK.json
and perfbench/ without src/ into perfbench/out/ and requires the
benchmark to exit non-zero there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ["reduce-rank", "reduce-bigint", "cli-verbs", "oracle-orbit"]
END_TO_END = ["setup_s", "ops_per_s", "op_ms.p50", "op_ms.p90", "ok_frac", "peak_rss_mb", "cert_bits.p50"]
PER_LAYER = [
    "intmat.matmul.calls", "intmat.matmul.s", "intmat.matmul.mults", "intmat.matmul.useful_frac",
    "intmat.matvec.calls", "intmat.matvec.s", "intmat.vecmat.s", "intmat.det.s",
    "isometry.verify_isometry.calls", "isometry.verify_isometry.s",
    "isometry.spinor_norm.calls", "isometry.spinor_norm.s", "isometry.compose.s",
    "isometry.reflection.s", "isometry.fixes_class.s", "isometry.canonical_frame.s",
    "isometry.eichler_transvection.calls", "isometry.eichler_transvection.s",
    "reduction.reduce_even.self_s", "reduction.diagonalize_ops.calls",
    "reduction.diagonalize_ops.ops", "reduction.diagonalize_ops.s",
    "reduction.reduce_in_elliptic.s", "reduction.sphere_reduction.s",
    "elliptic.make_surface.s", "elliptic.min_genus.self_s", "elliptic.adjunction_bound.s",
    "lattice.make_lattice.s", "lattice.hclass_dot.calls", "lattice.hclass_dot.s", "lattice.parse_class.s",
    "oracle.default_generators.s", "oracle.default_generators.count", "oracle.enumerate_vectors.s",
    "oracle.enumerate_vectors.kept_frac", "oracle.orbit_bfs.self_s", "oracle.orbit_bfs.applications",
    "oracle.exhaustive_isometry_search.s",
    "cli.interp_ms", "cli.import_ms", "cli.run.s", "cli.stdout_bytes",
    "cli.exit2_miss_frac", "trace.overhead_ms",
]


def fail(msg: str) -> None:
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        fail("workload names in BENCHMARK.json")
    if sorted(m["name"] for m in spec["end_to_end"]) != sorted(END_TO_END):
        fail("end-to-end metric names in BENCHMARK.json")
    if [m["name"] for m in spec["per_layer"]] != PER_LAYER:
        fail("per-layer metric names in BENCHMARK.json")
    for workload in WORKLOADS:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace {trace}: {proc.stdout.strip().splitlines()[-2]}")
            got = result["metrics"]
            if sorted(got) != sorted(names):
                fail(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(names))}")
            for name, m in got.items():
                if m["unit"] != units[name] or not isinstance(m["value"], (int, float)):
                    fail(f"{workload} trace {trace}: {name} = {m}")
                if trace == 0 and m["value"] == 0:
                    fail(f"{workload}: {name} is 0")
            print(f"selftest: ok {workload} trace {trace} ({result['attempted']} ops)")
    bare = HERE / "out" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare copy exited {proc.returncode} with output {proc.stdout[-200:]!r}")
        print("selftest: ok bare copy refused: " + proc.stderr.strip().splitlines()[-1])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

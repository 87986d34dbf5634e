#!/usr/bin/env python3
"""genlat benchmark: one closed-loop caller, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload reduce-rank --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
One caller issues ops back to back, each a public genlat call or one
``genlat`` process, and checks every output after its clock stops.
The loop runs whole rounds (see workloads.py) until the time spent
inside ops reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference machine speed (see ``Speed``).  ``--trace 1`` replays
every op once with spans around genlat's public functions and once
without, prints the per-layer metrics and writes every span to
``perfbench/out/spans-<workload>.json``.  The last stdout line is the
result object; the line before it holds non-gating metadata.  Metric
definitions and the reasons behind each workload are in README.md.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("cert_bits.p50", "bits"),
    ("setup_s", "s"),
]

# (metric, unit, source): source is ("s"|"self_s"|"calls", span) or
# ("count", counter) or ("ratio", numerator, denominator)
PER_LAYER = [
    ("intmat.matmul.calls", "count", ("calls", "intmat.matmul")),
    ("intmat.matmul.s", "s", ("s", "intmat.matmul")),
    ("intmat.matmul.mults", "count", ("count", "intmat.matmul.mults")),
    ("intmat.matmul.useful_frac", "frac", ("ratio", "intmat.matmul.useful", "intmat.matmul.mults")),
    ("intmat.matvec.calls", "count", ("calls", "intmat.matvec")),
    ("intmat.matvec.s", "s", ("s", "intmat.matvec")),
    ("intmat.vecmat.s", "s", ("s", "intmat.vecmat")),
    ("intmat.det.s", "s", ("s", "intmat.det")),
    ("isometry.verify_isometry.calls", "count", ("calls", "isometry.verify_isometry")),
    ("isometry.verify_isometry.s", "s", ("s", "isometry.verify_isometry")),
    ("isometry.spinor_norm.calls", "count", ("calls", "isometry.spinor_norm")),
    ("isometry.spinor_norm.s", "s", ("s", "isometry.spinor_norm")),
    ("isometry.compose.s", "s", ("s", "isometry.compose")),
    ("isometry.reflection.s", "s", ("s", "isometry.reflection")),
    ("isometry.fixes_class.s", "s", ("s", "isometry.fixes_class")),
    ("isometry.canonical_frame.s", "s", ("s", "isometry.canonical_frame")),
    ("isometry.eichler_transvection.calls", "count", ("calls", "isometry.eichler_transvection")),
    ("isometry.eichler_transvection.s", "s", ("s", "isometry.eichler_transvection")),
    ("reduction.reduce_even.self_s", "s", ("self_s", "reduction.reduce_even")),
    ("reduction.diagonalize_ops.calls", "count", ("calls", "reduction.diagonalize_ops")),
    ("reduction.diagonalize_ops.ops", "count", ("count", "reduction.diagonalize_ops.ops")),
    ("reduction.diagonalize_ops.s", "s", ("s", "reduction.diagonalize_ops")),
    ("reduction.reduce_in_elliptic.s", "s", ("s", "reduction.reduce_in_elliptic")),
    ("reduction.sphere_reduction.s", "s", ("s", "reduction.sphere_reduction")),
    ("elliptic.make_surface.s", "s", ("s", "elliptic.make_surface")),
    ("elliptic.min_genus.self_s", "s", ("self_s", "elliptic.min_genus")),
    ("elliptic.adjunction_bound.s", "s", ("s", "elliptic.adjunction_bound")),
    ("lattice.make_lattice.s", "s", ("s", "lattice.make_lattice")),
    ("lattice.hclass_dot.calls", "count", ("calls", "lattice.hclass_dot")),
    ("lattice.hclass_dot.s", "s", ("s", "lattice.hclass_dot")),
    ("lattice.parse_class.s", "s", ("s", "lattice.parse_class")),
    ("oracle.default_generators.s", "s", ("s", "oracle.default_generators")),
    ("oracle.default_generators.count", "count", ("count", "oracle.default_generators.count")),
    ("oracle.enumerate_vectors.s", "s", ("s", "oracle.enumerate_vectors")),
    ("oracle.enumerate_vectors.kept_frac", "frac",
     ("ratio", "oracle.enumerate_vectors.kept", "oracle.enumerate_vectors.candidates")),
    ("oracle.orbit_bfs.self_s", "s", ("self_s", "oracle.orbit_bfs")),
    ("oracle.orbit_bfs.applications", "count", ("count", "oracle.orbit_bfs.applications")),
    ("oracle.exhaustive_isometry_search.s", "s", ("s", "oracle.exhaustive_isometry_search")),
    ("cli.interp_ms", "ms", None),
    ("cli.import_ms", "ms", None),
    ("cli.run.s", "s", ("s", "cli.run")),
    ("cli.stdout_bytes", "bytes", None),
    ("cli.exit2_miss_frac", "frac", None),
    ("trace.overhead_ms", "ms", None),
]

_SPAN_FIELD = {"calls": 0, "s": 1, "self_s": 2}

IMPORT_CODE = "import time; t = time.perf_counter(); import genlat.cli; print(time.perf_counter() - t)"
# set-up is timed this many times per untraced run: once before the loop,
# the rest at even steps of op time through it
SETUP_SAMPLES = 7
# Times are reported at the machine speed at which one calibration sample
# takes CAL_REF_S.  A sample is taken after every CAL_EVERY_S of op time,
# and a time is scaled by the median of the CAL_NEAR samples on each side.
CAL_REF_S = 0.025
CAL_EVERY_S = 0.5
CAL_NEAR = 5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child_seconds(code: str) -> float:
    """The seconds a fresh interpreter prints for ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_child_env(), cwd=ROOT, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _wall_ms(argv: list[str], runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, env=_child_env(), cwd=ROOT, timeout=60, check=True, capture_output=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Speed:
    """How fast the machine runs a fixed pure-Python kernel, sampled
    between ops.  The machine is shared and its speed changes by up
    to half within minutes; scaling each time by the kernel times taken
    around it cancels most of that drift.  The kernel is this file's
    own code, so no change to genlat moves it."""

    def __init__(self):
        rng = random.Random(0)
        self.a, self.b = ([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(64)] for _ in range(64)]
                          for _ in range(2))
        self.samples: list[float] = []
        self._due = 0.0

    def _kernel(self) -> None:
        # three dense 64x64 products of small integers, half of them 0
        for _ in range(3):
            for row in self.a:
                acc = [0] * 64
                for k, x in enumerate(row):
                    if x:
                        bk = self.b[k]
                        for j in range(64):
                            acc[j] += x * bk[j]

    def sample(self) -> None:
        gc.disable()  # heap left by the ops must not add collections here
        try:
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def mark(self) -> int:
        """Where in the run a time is taken, for ``scale``."""
        return len(self.samples)

    def tick(self, spent: float) -> int:
        """The mark of the op that just ended.  Takes a sample once
        ``spent`` seconds of op time pass the next step."""
        mark = self.mark()
        if spent >= self._due:
            self.sample()
            self._due = spent + CAL_EVERY_S
        return mark

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` taken at ``mark``, at the reference speed."""
        near = self.samples[max(0, mark - CAL_NEAR):mark + CAL_NEAR]
        return seconds * CAL_REF_S / statistics.median(near)


class Loop:
    """The closed loop: whole rounds until ``seconds`` of op time."""

    def __init__(self, wl, ctx, state):
        self.wl, self.ctx, self.state = wl, ctx, state
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.by_kind: dict[str, list[float]] = {}
        self.stdout_bytes = 0
        self.marks: list[int] = []  # per op, its ``Speed.mark``

    def run(self, seconds: float, deadline: float, tracer=None, after_round=None, speed=None):
        """Returns (op latencies in s, certificate bits, tracer overheads
        in s).  ``after_round(time spent)`` is called after each round,
        and ``speed.tick(time spent)`` after each op.
        With ``tracer`` each op is replayed twice more, once traced and once
        not, in alternating order; a cli op is replayed in-process through
        genlat.cli.run.  The overhead of an op is its traced replay minus
        its untraced one.  Replays count towards ``seconds``."""
        lat, bits, overhead = [], [], []
        spent = 0.0
        while spent < seconds:
            for op in self.wl.round(self.ctx, self.state):
                if time.monotonic() > deadline:
                    return lat, bits, overhead
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # a raising op is a failed op
                    out, err = None, exc
                dt = time.perf_counter() - t0
                spent += dt
                lat.append(dt)
                self.by_kind.setdefault(op.kind, []).append(dt)
                self.attempted += 1
                self._check(op, out, err, bits)
                if tracer is not None:
                    plain, traced = _replay_pair(tracer, op.inproc or op.call, self.attempted % 2 == 0)
                    spent += plain + traced
                    overhead.append(traced - plain)
                if speed is not None:
                    self.marks.append(speed.tick(spent))
            if after_round is not None:
                after_round(spent)
        return lat, bits, overhead

    def _check(self, op, out, err, bits) -> None:
        try:
            if err is not None:
                raise RuntimeError(f"raised {type(err).__name__}: {err}")
            b = op.check(out)
        except Exception as exc:  # whatever a check raises, the output did not pass
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind}: {exc}")
            return
        if isinstance(out, tuple) and len(out) == 3:  # a cli op: (code, stdout, stderr)
            self.stdout_bytes += len(out[1].encode())
        if b is not None:
            bits.append(b)


def _replay_pair(tracer, replay, traced_first: bool) -> tuple[float, float]:
    """Seconds of one untraced and one traced call of ``replay``."""
    took = {}
    for traced in (True, False) if traced_first else (False, True):
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.root("op") if traced else nullcontext():
                try:
                    replay()
                except Exception:  # the op's own call already counted it as failed
                    pass
            took[traced] = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
    return took[False], took[True]


def _layer_metrics(summary, extra) -> dict:
    setup, ops = summary["setup"], summary["op"]
    nops = max(ops["ops"], 1)

    def total(kind, key):
        if kind in _SPAN_FIELD:
            i = _SPAN_FIELD[kind]
            return (
                setup["funcs"].get(key, [0, 0.0, 0.0])[i]
                + ops["funcs"].get(key, [0, 0.0, 0.0])[i] / nops
            )
        return setup["counts"].get(key, 0) + ops["counts"].get(key, 0) / nops

    out = {}
    for name, unit, src in PER_LAYER:
        if src is None:
            value = extra[name]
        elif src[0] == "ratio":
            num = setup["counts"].get(src[1], 0) + ops["counts"].get(src[1], 0)
            den = setup["counts"].get(src[2], 0) + ops["counts"].get(src[2], 0)
            value = num / den if den else 0.0
        else:
            value = total(*src)
        out[name] = {"value": value, "unit": unit}
    return out


def _shares(summary) -> dict:
    """Self time per module and per function as shares of op time."""
    ops = summary["op"]
    op_s = ops["op_s"] or 1.0
    modules: dict[str, float] = {}
    for name, (_, _, self_s) in ops["funcs"].items():
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + self_s / op_s
    top = sorted(ops["funcs"].items(), key=lambda kv: -kv[1][2])[:8]
    return {
        "module_self_share": {k: round(v, 4) for k, v in sorted(modules.items(), key=lambda kv: -kv[1])},
        "largest_self_s_per_op": {k: round(v[2] / max(ops["ops"], 1), 6) for k, v in top},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (SRC / "genlat" / "__init__.py").is_file():
        _fail(f"no genlat sources under {SRC}; run from a checkout of the repository")
    # genlat processes load bytecode, as from an installed package, even
    # where PYTHONDONTWRITEBYTECODE keeps Python from caching it
    compileall.compile_dir(str(SRC / "genlat"), quiet=1)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import genlat
    import workloads  # imports genlat.cli
    first_import_s = time.perf_counter() - t0
    if Path(genlat.__file__).resolve().parent != (SRC / "genlat").resolve():
        _fail(f"imported genlat from {genlat.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, str(workdir), out_dir, first_import_s, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir, out_dir, first_import_s, started) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    ctx = workloads.Context(args.workload, args.seed, str(ROOT), workdir)
    loop_deadline = started + 150  # leaves room for checks inside 180 s
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "first_import_s": round(first_import_s, 4),
    }

    if args.trace == 0:
        imports, builds, setup_marks = [], [], []
        speed = Speed()

        def setup_sample():
            setup_marks.append(speed.mark())
            imports.append(_child_seconds(IMPORT_CODE))
            # every build starts from a collected heap, as in a fresh
            # process; garbage left by the ops made builds vary by a third
            gc.collect()
            t0 = time.perf_counter()
            built = wl.setup(ctx)
            builds.append(time.perf_counter() - t0)
            return built

        def after_round(spent):
            # the later set-up samples are spread over the timed loop, so
            # that they see the same machine speed as the ops
            while len(builds) < SETUP_SAMPLES and spent >= args.seconds * len(builds) / (SETUP_SAMPLES - 1):
                state.update(setup_sample())

        state = setup_sample()
        wl.verify_setup(ctx, state)
        loop = Loop(wl, ctx, state)
        lat, bits, _ = loop.run(args.seconds, loop_deadline, after_round=after_round, speed=speed)
        if args.workload == "cli-verbs":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw = {
            "ops_per_s": len(lat) / sum(lat),
            "op_ms.p50": statistics.median(lat) * 1000,
            "op_ms.p90": _quantile(lat, 0.9) * 1000,
            "setup_s": statistics.median(imports) + statistics.median(builds),
        }
        ref_lat = [speed.scale(t, m) for t, m in zip(lat, loop.marks)]
        values = {
            "ops_per_s": len(ref_lat) / sum(ref_lat),
            "op_ms.p50": statistics.median(ref_lat) * 1000,
            "op_ms.p90": _quantile(ref_lat, 0.9) * 1000,
            "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
            "peak_rss_mb": peak_kb / 1024,
            "cert_bits.p50": statistics.median_grouped(bits) if bits else 0,
            "setup_s": (statistics.median(speed.scale(t, m) for t, m in zip(imports, setup_marks))
                        + statistics.median(speed.scale(t, m) for t, m in zip(builds, setup_marks))),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        meta.update(import_s=[round(t, 4) for t in imports], build_s=[round(b, 4) for b in builds])
        meta.update(raw=raw, calibration_ms=[round(t * 1000, 3) for t in speed.samples])
        meta["cert_bits"] = dict(sorted(collections.Counter(bits).items()))
    else:
        from spans import Tracer

        tracer = Tracer()
        extra = {"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.stdout_bytes": 0.0, "cli.exit2_miss_frac": 0.0}
        tracer.install()
        try:
            with tracer.root("setup"):
                state = wl.setup(ctx)
        finally:
            tracer.uninstall()
        wl.verify_setup(ctx, state)
        loop = Loop(wl, ctx, state)
        _, _, overhead = loop.run(args.seconds, loop_deadline, tracer=tracer)
        extra["trace.overhead_ms"] = statistics.median(overhead) * 1000 if overhead else 0.0
        if args.workload == "cli-verbs":
            interp = _wall_ms([sys.executable, "-c", "pass"], 5)
            extra["cli.interp_ms"] = interp
            extra["cli.import_ms"] = _wall_ms([sys.executable, "-c", "import genlat.cli"], 5) - interp
            extra["cli.stdout_bytes"] = loop.stdout_bytes / loop.attempted
            extra["cli.exit2_miss_frac"] = ctx.exit2_misses / loop.attempted
        summary = tracer.summary()
        metrics = _layer_metrics(summary, extra)
        meta.update(_shares(summary))
        meta["spans"] = len(tracer.name_id)
        tracer.dump(out_dir / f"spans-{args.workload}.json")

    meta["wall_s"] = round(time.monotonic() - started, 2)
    meta["ops_by_kind"] = {k: [len(v), round(statistics.median(v) * 1000, 2)] for k, v in sorted(loop.by_kind.items())}
    meta["exit2_misses"] = ctx.exit2_misses
    if loop.failures:
        meta["failures"] = loop.failures
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

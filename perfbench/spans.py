"""Spans around genlat's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every place genlat
binds it: the defining module, every genlat module that imported it by
name, and the package namespace.  ``HClass.dot`` (which ``square`` calls)
is replaced on the class.  ``uninstall`` puts the originals back, so
untraced and traced passes run the same code.

Each span keeps its name, start, end and parent in flat arrays; the
benchmark opens a root span per set-up and per op, so every library span
belongs to one of the two phases.  Counters (multiplications, Euclid
steps, kept vectors) are taken at the same boundaries.
"""

from __future__ import annotations

import json
import operator
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

TRACED = {
    "intmat": ("matmul", "matvec", "vecmat", "det"),
    "isometry": (
        "verify_isometry", "spinor_norm", "compose", "reflection",
        "fixes_class", "canonical_frame", "eichler_transvection",
    ),
    "reduction": ("reduce_even", "diagonalize_ops", "reduce_in_elliptic", "sphere_reduction"),
    "elliptic": ("make_surface", "min_genus", "adjunction_bound"),
    "lattice": ("make_lattice", "parse_class"),
    "oracle": ("default_generators", "enumerate_vectors", "orbit_bfs", "exhaustive_isometry_search"),
    "cli": ("run",),
}
ROOTS = ("setup", "op")


def _matmul_counts(a, b):
    if not a or not b:
        return 0, 0
    inner = len(b)
    col_nz = [0] * inner
    for row in a:
        for k, x in enumerate(row):
            if x:
                col_nz[k] += 1
    useful = 0
    for k, row in enumerate(b):
        if col_nz[k]:
            useful += col_nz[k] * sum(1 for y in row if y)
    return len(a) * inner * len(b[0]), useful


class Tracer:
    def __init__(self):
        self.names: list[str] = list(ROOTS)
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # counters per phase: {"setup": {...}, "op": {...}}
        self.counts = {r: {} for r in ROOTS}
        self._phase = None
        self._patches: list[tuple[object, str, object, object]] = []  # (obj, attr, original, wrapper)

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, phase: str):
        """The root span of one set-up or one op."""
        self._phase = phase
        idx = self._open(ROOTS.index(phase))
        try:
            yield
        finally:
            self._close(idx)
            self._phase = None

    def count(self, key: str, amount) -> None:
        if self._phase is not None:
            d = self.counts[self._phase]
            d[key] = d.get(key, 0) + amount

    def _wrap(self, name: str, fn, before=None, after=None):
        """``before(tracer, args, kwargs)`` and ``after(tracer, args,
        kwargs, result)`` take counts outside the span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        if hasattr(fn, "cache_clear"):  # canonical_frame is an lru_cache
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place.  The places to patch are found on the
        first call; later calls only set them again."""
        if not self._patches:
            self._patches = self._find_patches()
        for obj, attr, _, wrapped in self._patches:
            setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in reversed(self._patches):
            setattr(obj, attr, orig)

    def _find_patches(self) -> list:
        import genlat.lattice

        patches = []
        mods = [m for k, m in sys.modules.items() if k == "genlat" or k.startswith("genlat.")]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"genlat.{mod_name}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                name = f"{mod_name}.{fname}"
                wrapped = self._wrap(name, orig, _BEFORE.get(name), _AFTER.get(name))
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            patches.append((m, attr, orig, wrapped))
        cls = genlat.lattice.HClass
        patches.append((cls, "dot", cls.dot, self._wrap("lattice.hclass_dot", cls.dot)))
        return patches

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per function, for each phase: calls, inclusive seconds and self
        seconds; plus op count, op seconds and generator applications
        made inside orbit_bfs."""
        n = len(self.name_id)
        names = self.names
        nid, par = self.name_id, self.parent
        dur = array("d", map(operator.sub, self.end, self.start))
        child = array("d", bytes(8 * n))
        phase = [-1] * n
        in_orbit = bytearray(n)
        orbit_id = names.index("oracle.orbit_bfs") if "oracle.orbit_bfs" in names else -2
        matvec_id = names.index("intmat.matvec") if "intmat.matvec" in names else -2
        for i in range(n):
            p = par[i]
            if p < 0:
                phase[i] = nid[i] if nid[i] < len(ROOTS) else -1
            else:
                child[p] += dur[i]
                phase[i] = phase[p]
                in_orbit[i] = in_orbit[p] or nid[p] == orbit_id
        out = {r: {"funcs": {}, "ops": 0, "op_s": 0.0} for r in ROOTS}
        applications = {r: 0 for r in ROOTS}
        for i in range(n):
            ph = phase[i]
            if ph < 0:
                continue
            slot = out[ROOTS[ph]]
            name = names[nid[i]]
            if name in ROOTS:
                slot["ops"] += 1
                slot["op_s"] += dur[i]
                f = slot["funcs"].setdefault("(benchmark)", [0, 0.0, 0.0])
                f[2] += dur[i] - child[i]
                continue
            f = slot["funcs"].setdefault(name, [0, 0.0, 0.0])
            f[0] += 1
            if par[i] < 0 or nid[par[i]] != nid[i]:
                f[1] += dur[i]
            f[2] += dur[i] - child[i]
            if nid[i] == matvec_id and in_orbit[i]:
                applications[ROOTS[ph]] += 1
        for r in ROOTS:
            out[r]["counts"] = dict(self.counts[r])
            out[r]["counts"]["oracle.orbit_bfs.applications"] = applications[r]
        return out

    def dump(self, path) -> None:
        """Write every span: name table plus one column per field, times
        in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - t0) * 1e6) for t in self.start],
            "end_us": [round((t - t0) * 1e6) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _matmul_before(tracer, args, kwargs):
    mults, useful = _matmul_counts(*args, **kwargs)
    tracer.count("intmat.matmul.mults", mults)
    tracer.count("intmat.matmul.useful", useful)


def _enumerate_before(tracer, args, kwargs):
    # enumerate_vectors(lattice, square, divisibility, bound, ...)
    lattice = kwargs.get("lattice", args[0] if args else None)
    bound = kwargs["bound"] if "bound" in kwargs else args[3]
    tracer.count("oracle.enumerate_vectors.candidates", (2 * bound + 1) ** lattice.rank)


_BEFORE = {
    "intmat.matmul": _matmul_before,
    "oracle.enumerate_vectors": _enumerate_before,
}
_AFTER = {
    "reduction.diagonalize_ops": lambda t, a, k, out: t.count("reduction.diagonalize_ops.ops", len(out[0])),
    "oracle.default_generators": lambda t, a, k, out: t.count("oracle.default_generators.count", len(out)),
    "oracle.enumerate_vectors": lambda t, a, k, out: t.count("oracle.enumerate_vectors.kept", len(out)),
}

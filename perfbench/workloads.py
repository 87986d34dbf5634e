"""The four workloads: seeded inputs, the ops that call genlat, and the
independent check of every output.

A workload builds its state once (``setup``), then hands the loop one
round of ops at a time.  A round has a fixed composition; only the
inputs and the order come from the seed, so two seeds time the same mix
of work.  Each op is one public genlat call or one ``genlat`` process;
its ``check`` runs after the clock stops and returns the largest
certificate-entry bit-length, or None when the op emits no certificate.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import checks as c
from checks import expect

import genlat
import genlat.cli


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], "int | None"]
    inproc: Callable[[], object] | None = None  # same argv through genlat.cli.run


class Context:
    """What every workload may use: the seeded generators and paths."""

    def __init__(self, name, seed, root, workdir):
        self.name = name
        self.seed = f"{name}:{seed}"
        self.rng = random.Random(self.seed)
        self.check_rng = random.Random(self.seed + ":check")  # picks the sampled Gram checks
        self.root = root
        self.workdir = workdir
        self.src = os.path.join(root, "src")
        self.exit2_misses = 0

    def setup_rng(self):
        """One stream for every set-up of a workload, whatever the seed,
        so that every run times the same set-up work."""
        return random.Random(self.name + ":setup")


def _surfaces(specs):
    genlat.canonical_frame.cache_clear()
    out = {}
    for n, p, q in specs:
        s = genlat.make_surface(n, p, q)
        genlat.canonical_frame(s.lattice)
        out[(n, p, q)] = s
    return out


def _grams(surfaces):
    """Own Grams, checked against the block structure and the library."""
    grams = {}
    for (n, p, q), s in surfaces.items():
        expect(c.lattice_tokens(s.lattice) == c.surface_tokens(n, p, q), f"blocks of E({n};{p},{q})")
        gram = c.SparseGram(c.surface_tokens(n, p, q))
        expect(gram.dense() == s.lattice.gram, f"Gram of E({n};{p},{q})")
        grams[(n, p, q)] = gram
    return grams


def _check_reduction(ctx, gram, x, res, want, fixes_w=True) -> int:
    expect(list(res.input.coords) == list(x), "input echoed")
    expect(list(res.canonical.coords) == want, "canonical form")
    m = res.certificate.matrix
    expect(c.matvec(m, x) == want, "M x = canonical")
    expect(res.spinor == 1 and res.fixes_k and c.fixes_basis(m, c.K), "spinor +1, fixes k")
    if fixes_w:
        expect(res.fixes_W and c.fixes_basis(m, c.W), "fixes W")
    if ctx.check_rng.random() < 0.5:
        expect(c.is_isometry(gram, m), "M^T G M = G")
    return c.max_bits(m)


# -- reduce-rank ---------------------------------------------------------------

class ReduceRank:
    """Small-entry classes on E(6), E(10), E(16) and their (2,3) twins."""

    # Per round and rank: reduce_in_elliptic on classes with B^2 > 0 and
    # with B^2 <= 0 (the first adds a reflection and a product, about
    # twice the cost), sphere_reduction, and min_genus.  The slowest 1/6
    # of a round is the E(16) pair and the E(6) spheres sit at 5/12-7/12,
    # so p90 and p50 each fall inside one kind of op.  Sphere and genus
    # at E(16) would cost 2-4 s each and are left out.
    MIX = {6: (2, 2, 2, 1), 10: (0, 1, 1, 1), 16: (0, 2, 0, 0)}

    def setup(self, ctx):
        specs = [(n, 1, 1) for n in self.MIX] + [(n, 2, 3) for n in self.MIX]
        return {"surfaces": _surfaces(specs)}

    def verify_setup(self, ctx, state):
        state["grams"] = _grams(state["surfaces"])
        state["roots"] = c.e8_roots(3)

    def round(self, ctx, state):
        rng = ctx.rng
        ops = []
        for n, (n_pos, n_neg, n_sph, n_gen) in self.MIX.items():
            ops += [self._reduce(ctx, state, n, rng.randrange(2, 21, 2)) for _ in range(n_pos)]
            ops += [self._reduce(ctx, state, n, rng.randrange(-20, 1, 2)) for _ in range(n_neg)]
            ops += [self._sphere(ctx, state, n) for _ in range(n_sph)]
            ops += [self._genus(ctx, state, n) for _ in range(n_gen)]
        rng.shuffle(ops)
        return ops

    def _reduce(self, ctx, state, n, sq):
        s, gram = state["surfaces"][(n, 1, 1)], state["grams"][(n, 1, 1)]
        x = c.small_class(ctx.rng, n, sq, ctx.rng.randint(-3, 3), state["roots"])
        a = s.lattice.hclass(x)
        want = c.expected_canonical(gram, x)
        return Op(
            f"reduce E({n}) {'B^2>0' if sq > 0 else 'B^2<=0'}",
            lambda: genlat.reduce_in_elliptic(s, a),
            lambda res: _check_reduction(ctx, gram, x, res, want),
        )

    def _sphere(self, ctx, state, n):
        s, gram = state["surfaces"][(n, 1, 1)], state["grams"][(n, 1, 1)]
        x = c.small_class(ctx.rng, n, -2, ctx.rng.randint(-3, 3), state["roots"])
        a = s.lattice.hclass(x)
        want = c.sphere_class(gram.rank)
        return Op(
            f"sphere E({n})",
            lambda: genlat.sphere_reduction(s, a),
            lambda res: _check_reduction(ctx, gram, x, res, want, fixes_w=False),
        )

    def _genus(self, ctx, state, n):
        s, gram = state["surfaces"][(n, 2, 3)], state["grams"][(n, 2, 3)]
        sq = ctx.rng.randrange(2, 21, 2)
        x = c.small_class(ctx.rng, n, sq, 0, state["roots"])
        a = s.lattice.hclass(x)
        want = c.expected_canonical(gram, x)
        genus, _ = c.adjunction_genus(sq, 0, c.surface_d(n, 2, 3))

        def check(v):
            expect(v.status.value == "EXACT" and v.rule.value == "COR_ORTH_KV", "rule path")
            expect(v.lower_bound == genus and v.realized == genus, "genus from adjunction")
            expect(v.certificate is not None, "certificate present")
            return _check_reduction(ctx, gram, x, v.certificate, want)

        return Op(f"genus E({n};2,3)", lambda: genlat.min_genus(s, a), check)


# -- reduce-bigint ---------------------------------------------------------------

class ReduceBigint:
    """40-120-bit coordinates on E(3) and E(6); a fixed share of classes
    has all four pair coordinates divisible by one 40-44-bit prime."""

    # Per round: (n, random classes, shared-prime classes).  Bit sizes are
    # stratified within each kind, and the slowest 20% of a round is the
    # two shared-prime E(6) classes, so p90 falls inside one kind of op.
    MIX = ((3, 6, 1), (6, 1, 2))
    # Shared primes lie in [2^42, 1.25 * 2^42), so trial division up to
    # their square root costs about the same in every op.
    PRIME_LO, PRIME_SPAN = 1 << 42, 1 << 40

    def setup(self, ctx):
        return {"surfaces": _surfaces([(n, 1, 1) for n, _, _ in self.MIX])}

    def verify_setup(self, ctx, state):
        state["grams"] = _grams(state["surfaces"])

    def round(self, ctx, state):
        rng = ctx.rng
        ops = []
        for n, n_rand, n_prime in self.MIX:
            for i in range(n_rand):
                ops.append(self._op(ctx, state, n, c.big_class(rng, n, self._bits(rng, i, n_rand)), "random"))
            for i in range(n_prime):
                x = c.big_class(rng, n, self._bits(rng, i, n_prime))
                p = c.random_prime(rng, self.PRIME_LO, self.PRIME_SPAN)
                for j in (c.R, c.T, c.R + 2, c.T + 2):  # target and helper pairs
                    x[j] = p * rng.choice([t for t in range(-63, 64) if t])
                ops.append(self._op(ctx, state, n, x, "shared prime"))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _bits(rng, i, k) -> int:
        """Stratum i of k over 40-120 bits."""
        return 40 + int(80 * (i + rng.random()) / k)

    def _op(self, ctx, state, n, x, label):
        s, gram = state["surfaces"][(n, 1, 1)], state["grams"][(n, 1, 1)]
        a = s.lattice.hclass(x)
        want = c.expected_canonical(gram, x)
        return Op(
            f"reduce E({n}) {label}",
            lambda: genlat.reduce_in_elliptic(s, a),
            lambda res: _check_reduction(ctx, gram, x, res, want),
        )


# -- cli-verbs -------------------------------------------------------------------

_CLI_BOOT = "import sys; from genlat.cli import main; sys.argv[0] = 'genlat'; main()"


def _sparse(x, n) -> str:
    names = ["k", "W"] + [f"{e}{i}" for i in range(1, 2 * n - 1) for e in "ef"]
    names += [f"x{j}_{t}" for j in range(1, n + 1) for t in range(1, 9)]
    items = [f"{names[i]}={v}" for i, v in enumerate(x) if v]
    return ",".join(items) if items else "k=0"


def _spec(n, p=1, q=1) -> str:
    return f"E({n})" if (p, q) == (1, 1) else f"E({n};{p},{q})"


class CliVerbs:
    """One genlat process per op over every verb and the error paths."""

    def setup(self, ctx):
        """Certificate files for verify/spinor, from library reductions."""
        files = {}
        rng, roots = ctx.setup_rng(), c.e8_roots(3)
        for n, p, q in ((3, 1, 1), (2, 2, 3)):
            s = genlat.make_surface(n, p, q)
            x = c.small_class(rng, n, 2 * rng.randint(-5, 5), 1, roots)
            res = genlat.reduce_in_elliptic(s, s.lattice.hclass(x))
            path = os.path.join(ctx.workdir, f"cert-{n}-{p}-{q}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([list(r) for r in res.certificate.matrix], fh)
            files[(n, p, q)] = (path, res.certificate.matrix)
        return {"files": files}

    def verify_setup(self, ctx, state):
        grams = {k: c.SparseGram(c.surface_tokens(*k)) for k in state["files"]}
        for key, (path, m) in state["files"].items():
            expect(c.is_isometry(grams[key], m), "set-up certificate is an isometry")
        gram = grams[(3, 1, 1)]
        m = state["files"][(3, 1, 1)][1]
        bad = [list(r) for r in m]
        bad[c.R][c.T] += 1
        expect(not c.is_isometry(gram, bad), "corrupted certificate is not an isometry")
        # reflection in v = R + T (square 2): x -> x - (x.v) v, spinor -1
        v = [0] * gram.rank
        v[c.R] = v[c.T] = 1
        gv = gram.apply(v)
        refl = [[int(r == j) - gv[j] * v[r] for j in range(gram.rank)] for r in range(gram.rank)]
        expect(c.is_isometry(gram, refl), "reflection is an isometry")
        paths = {}
        for name, doc in (("corrupt", bad), ("reflection", refl)):
            paths[name] = os.path.join(ctx.workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        paths["not-utf8"] = os.path.join(ctx.workdir, "not-utf8.json")
        with open(paths["not-utf8"], "wb") as fh:
            fh.write(b"\xff\xfe[[1,0],[0,1]]")
        paths["missing"] = os.path.join(ctx.workdir, "missing.json")
        state["paths"] = paths
        state["roots"] = c.e8_roots(3)
        state["gram_cache"] = {}

    def _gram(self, state, n, p=1, q=1):
        key = (n, p, q)
        if key not in state["gram_cache"]:
            state["gram_cache"][key] = c.SparseGram(c.surface_tokens(n, p, q))
        return state["gram_cache"][key]

    def round(self, ctx, state):
        rng = ctx.rng
        ops = [
            self._info(ctx, rng.randint(2, 20), 1, 1, json_out=True),
            self._info(ctx, rng.randint(21, 40), 1, 1, json_out=False),
            self._info(ctx, rng.randint(2, 10), *rng.choice([(2, 3), (3, 5), (2, 5), (4, 3)]), json_out=True),
            self._basic(ctx, rng.randint(2, 12), *rng.choice([(1, 1), (2, 3), (3, 4)])),
            self._class(ctx, state, 3),
            self._class(ctx, state, rng.randint(4, 8)),
            self._genus_k3(ctx, state),
            self._genus_sphere(ctx, state),
            self._genus_main(ctx, state, rng.randint(3, 6)),
            self._genus_orth(ctx, state, rng.choice((2, 3))),
            self._genus_adjunction(ctx, state),
            self._reduce(ctx, state, 3, 1, 1),
            self._reduce(ctx, state, 2, 2, 3),
            self._verify_ok(ctx, state, (3, 1, 1), ["--surface", "E(3)"]),
            self._verify_ok(ctx, state, (2, 2, 3), ["--lattice", "H',2H,2E8-"]),
            self._spinor(ctx, state["files"][(3, 1, 1)][0], "+1"),
            self._spinor(ctx, state["paths"]["reflection"], "-1"),
        ]
        ops += [self._malformed(ctx, argv) for argv in rng.sample(self._bad_argvs(state), 4)]
        ops += [self._known_defect(ctx, argv, env) for argv, env in self._defect_argvs(state)]
        rng.shuffle(ops)
        return ops

    # one process per op

    def _op(self, ctx, kind, argv, check, env=None):
        child_env = dict(os.environ, PYTHONPATH=ctx.src)
        child_env.update(env or {})

        def call():
            proc = subprocess.run(
                [sys.executable, "-c", _CLI_BOOT, *argv],
                capture_output=True, text=True, env=child_env, cwd=ctx.root, timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr

        def inproc():
            out, err = io.StringIO(), io.StringIO()
            saved = {k: os.environ.get(k) for k in (env or {})}
            os.environ.update(env or {})
            try:
                return genlat.cli.run(list(argv), stdout=out, stderr=err)
            except Exception:  # an untyped failure is the output under test
                return None
            finally:
                for k, v in saved.items():
                    if v is None:
                        os.environ.pop(k, None)
                    else:
                        os.environ[k] = v

        return Op(kind, call, check, inproc)

    @staticmethod
    def _json(res, code=0):
        got, out, err = res
        expect(got == code, f"exit {got}, expected {code}: {err[-200:]}")
        return json.loads(out)

    def _info(self, ctx, n, p, q, json_out):
        d = c.surface_d(n, p, q)
        l, m = 2 * n - 2, n
        rank, sig_pos = 2 + 2 * l + 8 * m, 1 + l
        basic = list(range(-d, d + 1, 2))
        argv = ["info", _spec(n, p, q)] + (["--json"] if json_out else [])

        def check(res):
            if json_out:
                doc = self._json(res)
                expect(
                    (doc["d"], doc["rank"], doc["sig_pos"], doc["sig_neg"], doc["spin"])
                    == (d, rank, sig_pos, rank - sig_pos, d % 2 == 0),
                    "info invariants",
                )
                expect(doc["basic_classes"] == basic, "info basic classes")
            else:
                code, out, _ = res
                expect(code == 0, "info exit")
                lines = out.splitlines()
                expect(f"d: {d}" in lines and f"rank: {rank}" in lines, "info text")
                expect(f"signature: ({sig_pos},{rank - sig_pos})" in lines, "info signature")
            return None

        return self._op(ctx, "info", argv, check)

    def _basic(self, ctx, n, p, q):
        d = c.surface_d(n, p, q)

        def check(res):
            expect(self._json(res)["basic_classes"] == list(range(-d, d + 1, 2)), "basic classes")
            return None

        return self._op(ctx, "basic", ["basic", "--surface", _spec(n, p, q), "--json"], check)

    def _class(self, ctx, state, n):
        gram = self._gram(state, n)
        x = c.small_class(ctx.rng, n, 2 * ctx.rng.randint(-8, 8), ctx.rng.randint(-3, 3), state["roots"])
        x[c.W] = ctx.rng.randint(-3, 3)
        gx = gram.apply(x)
        char = all((gx[i] - dict(gram.rows[i]).get(i, 0)) % 2 == 0 for i in range(gram.rank))
        want = {
            "square": gram.square(x),
            "divisibility": math.gcd(*x),
            "characteristic": char,
            "k_dot": x[c.W],
            "K_dot": c.surface_d(n, 1, 1) * x[c.W],
            "coords": x,
        }

        def check(res):
            expect(self._json(res) == want, "class summary")
            return None

        argv = ["class", "--surface", _spec(n), "--class", _sparse(x, n), "--json"]
        return self._op(ctx, "class", argv, check)

    def _genus(self, ctx, n, p, q, x, rule, realized, lower, note, cert_want, gram):
        def check(res):
            doc = self._json(res)
            expect(doc["rule"] == rule, f"rule {doc['rule']}, expected {rule}")
            expect(doc["lower_bound"] == lower and doc["realized"] == realized, "genus values")
            expect(doc["status"] == ("EXACT" if realized is not None else "LOWER_BOUND_ONLY"), "status")
            expect((doc["negative_square_note"] is not None) == note, "negative-square note")
            cert = doc["certificate"]
            if cert_want is None:
                expect(cert is None, "no certificate")
                return None
            m = cert["certificate"]
            expect(cert["canonical"] == cert_want and c.matvec(m, x) == cert_want, "certificate image")
            expect(cert["spinor"] == 1, "spinor +1")
            if ctx.check_rng.random() < 0.5:
                expect(c.is_isometry(gram, m), "M^T G M = G")
            return c.max_bits(m)

        argv = ["genus", "--surface", _spec(n, p, q), "--class", _sparse(x, n), "--json"]
        return self._op(ctx, f"genus {rule}", argv, check)

    def _genus_k3(self, ctx, state):
        gram = self._gram(state, 2)
        sq = ctx.rng.randrange(-2, 11, 2)
        x = c.small_class(ctx.rng, 2, sq, ctx.rng.randint(-3, 3), state["roots"])
        d = math.gcd(*x)
        want = [0] * gram.rank
        want[c.R], want[c.T] = d, sq // (2 * d)
        g, _ = c.adjunction_genus(sq, 0, 0)
        return self._genus(ctx, 2, 1, 1, x, "COR_K3", sq // 2 + 1, g, False, want, gram)

    def _genus_sphere(self, ctx, state):
        gram = self._gram(state, 3)
        x = c.small_class(ctx.rng, 3, -2, ctx.rng.randint(-3, 3), state["roots"])
        g, _ = c.adjunction_genus(-2, 0, c.surface_d(3, 1, 1))
        return self._genus(ctx, 3, 1, 1, x, "PROP_MINUS2", 0, g, False, c.sphere_class(gram.rank), gram)

    def _genus_main(self, ctx, state, n):
        sq = ctx.rng.randrange(0, 21, 2)
        x = c.small_class(ctx.rng, n, sq, ctx.rng.randint(-3, 3), state["roots"])
        g, _ = c.adjunction_genus(sq, 0, c.surface_d(n, 1, 1))
        return self._genus(ctx, n, 1, 1, x, "THM_MAIN_EN", sq // 2 + 1, g, False, None, None)

    def _genus_orth(self, ctx, state, n):
        gram = self._gram(state, n, 2, 3)
        sq = ctx.rng.randrange(0, 21, 2)
        x = c.small_class(ctx.rng, n, sq, 0, state["roots"])
        g, _ = c.adjunction_genus(sq, 0, c.surface_d(n, 2, 3))
        want = c.expected_canonical(gram, x)
        return self._genus(ctx, n, 2, 3, x, "COR_ORTH_KV", sq // 2 + 1, g, False, want, gram)

    def _genus_adjunction(self, ctx, state):
        gram = self._gram(state, 3)
        x = c.small_class(ctx.rng, 3, 2 * ctx.rng.randint(-8, 8), ctx.rng.randint(-3, 3), state["roots"])
        x[c.W] = ctx.rng.choice((-3, -2, -1, 1, 2, 3))
        sq = gram.square(x)
        g, neg = c.adjunction_genus(sq, x[c.W], c.surface_d(3, 1, 1))
        return self._genus(ctx, 3, 1, 1, x, "ADJUNCTION_ONLY", None, g, neg, None, None)

    def _reduce(self, ctx, state, n, p, q):
        gram = self._gram(state, n, p, q)
        x = c.small_class(ctx.rng, n, ctx.rng.randrange(-20, 21, 2), ctx.rng.randint(-3, 3), state["roots"])
        want = c.expected_canonical(gram, x)

        def check(res):
            doc = self._json(res)
            m = doc["certificate"]
            expect(doc["input"] == x and doc["canonical"] == want, "canonical form")
            expect(c.matvec(m, x) == want, "M x = canonical")
            expect(doc["spinor"] == 1 and doc["fixes_k"] and doc["fixes_W"], "spinor +1, fixes k and W")
            expect(c.fixes_basis(m, c.K) and c.fixes_basis(m, c.W), "columns of k and W")
            if ctx.check_rng.random() < 0.5:
                expect(c.is_isometry(gram, m), "M^T G M = G")
            return c.max_bits(m)

        argv = ["reduce", "--surface", _spec(n, p, q), "--class", _sparse(x, n), "--json"]
        return self._op(ctx, "reduce", argv, check)

    def _verify_ok(self, ctx, state, key, where):
        def check(res):
            expect(self._json(res) == {"ok": True}, "verify ok")
            return None

        return self._op(ctx, "verify", ["verify", *where, "--matrix", state["files"][key][0], "--json"], check)

    def _spinor(self, ctx, path, want):
        def check(res):
            code, out, err = res
            expect(code == 0 and out == want + "\n", f"spinor {out.strip()}, expected {want}")
            return None

        return self._op(ctx, "spinor", ["spinor", "--surface", "E(3)", "--matrix", path], check)

    def _bad_argvs(self, state):
        p = state["paths"]
        return [
            ["info", "E(1)"],
            ["info", "E(2;2,4)"],
            ["basic", "--surface", "E(x)"],
            ["class", "--surface", "E(3)", "--class", "k=1,q9=2"],
            ["class", "--surface", "E(3)", "--class", "k=z"],
            ["genus", "--surface", "E(3)", "--class", ",".join(["0"] * 34)],
            ["reduce", "--surface", "E(3)", "--class", "W=1,e1=2"],
            ["verify", "--lattice", "H", "--matrix", p["missing"]],
            ["verify", "--surface", "E(3)", "--matrix", p["corrupt"]],
            ["spinor", "--surface", "E(3)", "--lattice", "H", "--matrix", p["reflection"]],
            ["oracle", "orbit", "--lattice", "2H", "--square", "2", "--bound", "0"],
        ]

    def _defect_argvs(self, state):
        """Malformed inputs that do not yet end in exit code 2."""
        orbit = ["oracle", "orbit", "--lattice", "H", "--square", "0"]
        return [
            (orbit, {"GENUS_LATTICE_BUDGET": "abc"}),
            (orbit, {"GENUS_LATTICE_BUDGET": "0"}),
            (["verify", "--lattice", "H", "--matrix", state["paths"]["not-utf8"]], None),
        ]

    def _malformed(self, ctx, argv):
        def check(res):
            code, out, err = res
            expect(code == 2 and not out and err.startswith("error: "), f"exit {code}, expected 2")
            return None

        return self._op(ctx, "malformed", argv, check)

    def _known_defect(self, ctx, argv, env):
        def check(res):
            code, out, err = res
            expect(code != 0 and not out, f"exit {code} with output")
            if code != 2:
                ctx.exit2_misses += 1
            return None

        return self._op(ctx, "malformed (known defect)", argv, check, env)


# -- oracle-orbit ------------------------------------------------------------------

# orbit counts (full group, spinor-norm-1 subgroup) for the survey cells
ORBITS = {
    ("H", 0, 1): (1, 2), ("H", 2, 1): (1, 2), ("H", 4, 1): (1, 2),
    ("H", -2, 1): (1, 1), ("H", 0, 2): (1, 2),
    ("2H", 0, 1): (1, 1), ("2H", 2, 1): (1, 1), ("2H", 4, 1): (1, 1),
    ("2H", -2, 1): (1, 1), ("2H", 0, 2): (1, 1),
    ("3H", 2, 1): (1, 1),
}
CELLS = [(0, 1), (2, 1), (4, 1), (-2, 1), (0, 2)]


class OracleOrbit:
    """Enumeration, orbits and exhaustive search on H, 2H and 3H."""

    SPECS = ("H", "2H", "3H")

    def setup(self, ctx):
        genlat.canonical_frame.cache_clear()
        lats, gens = {}, {}
        for spec in self.SPECS:
            lats[spec] = genlat.lattice_from_spec(spec)
            genlat.canonical_frame(lats[spec])
            gens[spec] = genlat.default_generators(lats[spec])
        return {"lattices": lats, "gens": gens}

    def verify_setup(self, ctx, state):
        state["grams"] = {}
        for spec, lat in state["lattices"].items():
            gram = c.SparseGram(["H"] * int(spec[:-1] or 1))
            expect(gram.dense() == lat.gram, f"Gram of {spec}")
            for g in state["gens"][spec]:
                expect(c.is_isometry(gram, g.matrix), f"generator of {spec}")
            state["grams"][spec] = gram
        state["found"] = {}

    def round(self, ctx, state):
        # Eight ops under 2 ms (H orbits, searches), the ten 2H orbits at
        # 25-100 ms, the two dearest 2H cells once more, two more copies of
        # each of the 2H cells of square -2 and 2 without witnesses, then
        # 3H at about 1.4 s.  p50 falls inside those six ops at 43-45 ms
        # and p90 among the four witness runs near 100 ms, so neither sits
        # on an edge between kinds whose costs differ.
        ops = [self._orbit(ctx, state, "H", sq, div, 2, True) for sq, div in CELLS]
        ops += [self._orbit(ctx, state, "2H", sq, div, 2, w) for sq, div in CELLS for w in (False, True)]
        ops += [self._orbit(ctx, state, "2H", sq, 1, 2, True) for sq in (0, 4)]
        ops += [self._orbit(ctx, state, "2H", sq, 1, 2, False) for sq in (-2, 2, -2, 2)]
        ops += [self._search(ctx, state, spec) for spec in ("H", "2H", "2H")]
        ops.append(self._orbit(ctx, state, "3H", 2, 1, 1, False))
        ctx.rng.shuffle(ops)
        return ops

    def _found(self, state, spec, sq, div, bound):
        key = (spec, sq, div, bound)
        if key not in state["found"]:
            gram = state["grams"][spec]
            state["found"][key] = sum(
                1
                for v in itertools.product(range(-bound, bound + 1), repeat=gram.rank)
                if math.gcd(*v) == div and gram.square(v) == sq
            )
        return state["found"][key]

    def _orbit(self, ctx, state, spec, sq, div, bound, witnesses):
        lat, gens, gram = state["lattices"][spec], state["gens"][spec], state["grams"][spec]

        def call():
            seeds = genlat.enumerate_vectors(lat, sq, div, bound)
            return genlat.orbit_bfs(lat, seeds, gens, bound, include_witnesses=witnesses)

        def check(rep):
            expect(rep.vectors_found == self._found(state, spec, sq, div, bound), "vectors found")
            expect((rep.orbit_count_full, rep.orbit_count_spinor1) == ORBITS[(spec, sq, div)], "orbit counts")
            if not witnesses:
                expect(rep.witnesses is None, "no witnesses")
                return None
            expect(len(rep.witnesses) == rep.vectors_found, "one witness per vector")
            roots = {can for _, can, _ in rep.witnesses}
            expect(len(roots) == rep.orbit_count_spinor1, "one canonical vector per orbit")
            for vec, can, cert in rep.witnesses:
                expect(c.matvec(cert.matrix, vec) == list(can), "witness maps vector to canonical")
                expect(c.is_isometry(gram, cert.matrix), "witness is an isometry")
            return max(c.max_bits(cert.matrix) for _, _, cert in rep.witnesses)

        kind = f"orbit {spec} sq{sq} div{div} b{bound}" + (" witnesses" if witnesses else "")
        return Op(kind, call, check)

    def _search(self, ctx, state, spec):
        lat, gram = state["lattices"][spec], state["grams"][spec]
        # a generator within the search's entry bound guarantees a hit
        small = [g for g in state["gens"][spec] if max(abs(v) for row in g.matrix for v in row) <= 1]
        while True:
            x = [ctx.rng.randint(-2, 2) for _ in range(gram.rank)]
            if any(x):
                break
        y = c.matvec(ctx.rng.choice(small).matrix, x)
        xa, ya = lat.hclass(x), lat.hclass(y)

        def check(iso):
            expect(iso is not None, "an isometry within the entry bound exists")
            expect(c.matvec(iso.matrix, x) == y, "M x = y")
            expect(c.is_isometry(gram, iso.matrix), "M^T G M = G")
            return c.max_bits(iso.matrix)

        return Op(
            f"search {spec}",
            lambda: genlat.exhaustive_isometry_search(lat, xa, ya, 1),
            check,
        )


WORKLOADS = {
    "reduce-rank": ReduceRank,
    "reduce-bigint": ReduceBigint,
    "cli-verbs": CliVerbs,
    "oracle-orbit": OracleOrbit,
}

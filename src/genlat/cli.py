"""Command-line front end.

Every verb wraps exactly one library operation; no computation lives
here.  Exit codes: 0 success, 2 precondition or parse error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .elliptic import (
    EllipticSurface,
    basic_range,
    canonical_class,
    min_genus,
    parse_surface,
)
from .errors import BudgetExceeded, LatticeError, ParseError
from .isometry import spinor_norm, verify_isometry
from .lattice import HClass, Lattice, json_int_rows, lattice_from_spec
from .oracle import DEFAULT_BUDGET, default_generators, enumerate_vectors, orbit_bfs
from .reduction import reduce_in_elliptic

_BUDGET_ENV = "GENUS_LATTICE_BUDGET"


class _HelpRequested(Exception):
    """--help: carries the usage text for run to write to its stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(prog="genlat", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("info", "surface invariants and basic classes")
    p.add_argument("surface_pos", nargs="?", metavar="SURFACE")
    p.add_argument("--surface")

    p = add("basic", "basic classes of a surface")
    p.add_argument("--surface", required=True)

    p = add("class", "square, divisibility and pairings of a class")
    p.add_argument("--surface", required=True)
    p.add_argument("--class", dest="class_input", required=True)

    p = add("genus", "minimal-genus verdict for a class")
    p.add_argument("--surface", required=True)
    p.add_argument("--class", dest="class_input", required=True)

    p = add("reduce", "reduce a class to its canonical representative")
    p.add_argument("--surface", required=True)
    p.add_argument("--class", dest="class_input", required=True)

    p = add("spinor", "spinor norm of a matrix certificate")
    p.add_argument("--surface")
    p.add_argument("--lattice")
    p.add_argument("--matrix", required=True)

    p = add("verify", "check a matrix certificate")
    p.add_argument("--surface")
    p.add_argument("--lattice")
    p.add_argument("--matrix", required=True)

    p = add("oracle", "brute-force orbit report")
    p.add_argument("mode", choices=["orbit"])
    p.add_argument("--surface")
    p.add_argument("--lattice")
    p.add_argument("--square", type=int, required=True)
    p.add_argument("--div", type=int, default=1)
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--witnesses", action="store_true")
    return parser


def _emit_json(doc, out) -> None:
    out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _load_surface(args) -> EllipticSurface:
    positional = getattr(args, "surface_pos", None)
    if positional and args.surface:
        raise ParseError("give the surface either as SURFACE or as --surface, not both")
    spec = positional or args.surface
    if not spec:
        raise ParseError("a surface spec such as E(2;2,3) is required")
    return parse_surface(spec)


def _load_lattice(args) -> Lattice:
    if getattr(args, "surface", None) and getattr(args, "lattice", None):
        raise ParseError("give either --surface or --lattice, not both")
    if getattr(args, "surface", None):
        return parse_surface(args.surface).lattice
    if getattr(args, "lattice", None):
        return lattice_from_spec(args.lattice)
    raise ParseError("either --surface or --lattice is required")


def _load_matrix(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ParseError(f"matrix file {path!r} is not UTF-8 text") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ParseError(f"cannot read matrix file {path!r}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"matrix file {path!r} is not valid JSON: {exc}") from None
    except ValueError:  # an integer longer than int() converts
        raise ParseError(f"matrix file {path!r} holds a number with too many digits") from None
    return json_int_rows(doc, f"matrix file {path!r}")


def _class_summary(surface: EllipticSurface, a: HClass) -> dict:
    big_k = canonical_class(surface)
    return {
        "coords": list(a.coords),
        "square": a.square(),
        "divisibility": a.divisibility(),
        "characteristic": a.is_characteristic(),
        "k_dot": a.dot(surface.k),
        "K_dot": a.dot(big_k),
    }


def _surface_summary(surface: EllipticSurface) -> dict:
    return {
        "surface": surface.spec,
        "n": surface.n,
        "p": surface.p,
        "q": surface.q,
        "d": surface.d,
        "spin": surface.spin,
        "l": surface.l,
        "m": surface.m,
        "lattice": surface.lattice.spec,
        "rank": surface.lattice.rank,
        "sig_pos": surface.lattice.sig_pos,
        "sig_neg": surface.lattice.sig_neg,
        "basic_classes": list(basic_range(surface)),
    }


def _fmt_basic(rs) -> str:
    return " ".join("0" if r == 0 else f"{r}k" for r in rs)


def _cmd_info(args, out, err) -> None:
    surface = _load_surface(args)
    doc = _surface_summary(surface)
    if args.json:
        _emit_json(doc, out)
        return
    out.write(f"surface: {doc['surface']}\n")
    out.write(f"n: {doc['n']}\np: {doc['p']}\nq: {doc['q']}\n")
    out.write(f"d: {doc['d']}\nspin: {_bool(doc['spin'])}\n")
    out.write(f"l: {doc['l']}\nm: {doc['m']}\n")
    out.write(f"lattice: {doc['lattice']}\n")
    out.write(f"rank: {doc['rank']}\n")
    out.write(f"signature: ({doc['sig_pos']},{doc['sig_neg']})\n")
    rs = doc["basic_classes"]
    out.write(f"basic classes ({len(rs)}): {_fmt_basic(rs)}\n")


def _cmd_basic(args, out, err) -> None:
    surface = _load_surface(args)
    rs = list(basic_range(surface))
    if args.json:
        _emit_json({"surface": surface.spec, "basic_classes": rs}, out)
        return
    out.write(f"basic classes ({len(rs)}): {_fmt_basic(rs)}\n")


def _cmd_class(args, out, err) -> None:
    surface = _load_surface(args)
    a = surface.parse_class(args.class_input)
    doc = _class_summary(surface, a)
    if args.json:
        _emit_json(doc, out)
        return
    out.write(f"class: {a.pretty()}\n")
    out.write(f"square: {doc['square']}\n")
    out.write(f"divisibility: {doc['divisibility']}\n")
    out.write(f"characteristic: {_bool(doc['characteristic'])}\n")
    out.write(f"k.A: {doc['k_dot']}\n")
    out.write(f"K.A: {doc['K_dot']}\n")


def _cmd_genus(args, out, err) -> None:
    surface = _load_surface(args)
    a = surface.parse_class(args.class_input)
    verdict = min_genus(surface, a)
    if args.json:
        _emit_json(verdict.to_json_dict(), out)
        return
    out.write(f"status: {verdict.status.value}\n")
    out.write(f"rule: {verdict.rule.value}\n")
    out.write(f"lower_bound: {verdict.lower_bound}\n")
    out.write(f"realized: {verdict.realized if verdict.realized is not None else '-'}\n")
    if verdict.negative_square_note:
        out.write(f"note: {verdict.negative_square_note}\n")
    if verdict.certificate:
        c = verdict.certificate
        out.write(
            f"certificate: canonical={c.canonical.pretty()} spinor={c.spinor:+d} "
            f"fixes_k={_bool(c.fixes_k)} fixes_W={_bool(c.fixes_W)}\n"
        )


def _cmd_reduce(args, out, err) -> None:
    surface = _load_surface(args)
    a = surface.parse_class(args.class_input)
    res = reduce_in_elliptic(surface, a)
    if args.json:
        _emit_json(res.to_json_dict(), out)
        return
    out.write(f"input: {res.input.pretty()}\n")
    out.write(f"canonical: {res.canonical.pretty()}\n")
    out.write(f"spinor: {res.spinor:+d}\n")
    out.write(f"fixes_k: {_bool(res.fixes_k)}\n")
    out.write(f"fixes_W: {_bool(res.fixes_W)}\n")


def _cmd_spinor(args, out, err) -> None:
    lattice = _load_lattice(args)
    iso = verify_isometry(lattice, _load_matrix(args.matrix))
    nu = spinor_norm(iso)
    if args.json:
        _emit_json({"spinor": nu}, out)
        return
    out.write(f"{nu:+d}\n")


def _cmd_verify(args, out, err) -> None:
    lattice = _load_lattice(args)
    verify_isometry(lattice, _load_matrix(args.matrix))
    if args.json:
        _emit_json({"ok": True}, out)
        return
    out.write("ok\n")


def _budget(args) -> int:
    """--budget, else $GENUS_LATTICE_BUDGET, else the default; positive."""
    budget = args.budget
    if budget is None:
        env = os.environ.get(_BUDGET_ENV)
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise ParseError(f"{_BUDGET_ENV}={env!r} is not an integer") from None
    if budget < 1:
        raise ParseError(f"the state budget must be positive, got {budget}")
    return budget


def _cmd_oracle(args, out, err) -> None:
    lattice = _load_lattice(args)
    budget = _budget(args)
    seeds = enumerate_vectors(lattice, args.square, args.div, args.bound, max_states=budget)
    gens = default_generators(lattice)
    report = orbit_bfs(
        lattice,
        seeds,
        gens,
        args.bound,
        max_states=budget,
        include_witnesses=args.witnesses,
        progress=err,
        square=args.square,
        divisibility=args.div,
    )
    if args.json:
        _emit_json(report.to_json_dict(), out)
        return
    doc = report.to_json_dict()
    for key in (
        "lattice",
        "square",
        "divisibility",
        "coord_bound",
        "vectors_found",
        "orbit_count_full",
        "orbit_count_spinor1",
    ):
        out.write(f"{key}: {doc[key]}\n")
    if report.witnesses is not None:
        out.write(f"witnesses: {len(report.witnesses)}\n")


_COMMANDS = {
    "info": _cmd_info,
    "basic": _cmd_basic,
    "class": _cmd_class,
    "genus": _cmd_genus,
    "reduce": _cmd_reduce,
    "spinor": _cmd_spinor,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def run(argv=None, stdout=None, stderr=None) -> int:
    """Run one verb; its stdout is written only once it has succeeded."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    buf = io.StringIO()
    try:
        args = _build_parser().parse_args(argv)
        _COMMANDS[args.verb](args, buf, err)
    except _HelpRequested as exc:
        buf.write(exc.args[0])
    except BudgetExceeded as exc:
        err.write(f"error: {exc}\n")
        return 3
    except (LatticeError, ValueError) as exc:
        # ValueError: an output integer past Python's int-to-str digit limit
        err.write(f"error: {exc}\n")
        return 2
    out.write(buf.getvalue())
    return 0


def main() -> None:
    sys.exit(run())

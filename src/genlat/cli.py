"""Command-line front end.

Every verb wraps exactly one library operation; no computation lives
here.  Exit codes: 0 success, 2 precondition or parse error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
from .lattice import Lattice, json_int_rows, lattice_from_spec
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
    if args.surface and args.lattice:
        raise ParseError("give either --surface or --lattice, not both")
    if args.surface:
        return parse_surface(args.surface).lattice
    if args.lattice:
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


def _fmt_basic(rs) -> str:
    return " ".join("0" if r == 0 else f"{r}k" for r in rs)


def _cmd_info(args, err):
    surface = _load_surface(args)
    rs = list(basic_range(surface))
    doc = {
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
        "basic_classes": rs,
    }
    text = (
        f"surface: {doc['surface']}\n"
        f"n: {doc['n']}\np: {doc['p']}\nq: {doc['q']}\n"
        f"d: {doc['d']}\nspin: {_bool(doc['spin'])}\n"
        f"l: {doc['l']}\nm: {doc['m']}\n"
        f"lattice: {doc['lattice']}\n"
        f"rank: {doc['rank']}\n"
        f"signature: ({doc['sig_pos']},{doc['sig_neg']})\n"
        f"basic classes ({len(rs)}): {_fmt_basic(rs)}\n"
    )
    return doc, text


def _cmd_basic(args, err):
    surface = _load_surface(args)
    rs = list(basic_range(surface))
    doc = {"surface": surface.spec, "basic_classes": rs}
    return doc, f"basic classes ({len(rs)}): {_fmt_basic(rs)}\n"


def _cmd_class(args, err):
    surface = _load_surface(args)
    a = surface.parse_class(args.class_input)
    doc = {
        "coords": list(a.coords),
        "square": a.square(),
        "divisibility": a.divisibility(),
        "characteristic": a.is_characteristic(),
        "k_dot": a.dot(surface.k),
        "K_dot": a.dot(canonical_class(surface)),
    }
    text = (
        f"class: {a.pretty()}\n"
        f"square: {doc['square']}\n"
        f"divisibility: {doc['divisibility']}\n"
        f"characteristic: {_bool(doc['characteristic'])}\n"
        f"k.A: {doc['k_dot']}\n"
        f"K.A: {doc['K_dot']}\n"
    )
    return doc, text


def _cmd_genus(args, err):
    surface = _load_surface(args)
    verdict = min_genus(surface, surface.parse_class(args.class_input))
    text = (
        f"status: {verdict.status.value}\n"
        f"rule: {verdict.rule.value}\n"
        f"lower_bound: {verdict.lower_bound}\n"
        f"realized: {verdict.realized if verdict.realized is not None else '-'}\n"
    )
    if verdict.negative_square_note:
        text += f"note: {verdict.negative_square_note}\n"
    if verdict.certificate:
        c = verdict.certificate
        text += (
            f"certificate: canonical={c.canonical.pretty()} spinor={c.spinor:+d} "
            f"fixes_k={_bool(c.fixes_k)} fixes_W={_bool(c.fixes_W)}\n"
        )
    return verdict, text


def _cmd_reduce(args, err):
    surface = _load_surface(args)
    res = reduce_in_elliptic(surface, surface.parse_class(args.class_input))
    text = (
        f"input: {res.input.pretty()}\n"
        f"canonical: {res.canonical.pretty()}\n"
        f"spinor: {res.spinor:+d}\n"
        f"fixes_k: {_bool(res.fixes_k)}\n"
        f"fixes_W: {_bool(res.fixes_W)}\n"
    )
    return res, text


def _cmd_spinor(args, err):
    lattice = _load_lattice(args)
    nu = spinor_norm(verify_isometry(lattice, _load_matrix(args.matrix)))
    return {"spinor": nu}, f"{nu:+d}\n"


def _cmd_verify(args, err):
    verify_isometry(_load_lattice(args), _load_matrix(args.matrix))
    return {"ok": True}, "ok\n"


def _int(text: str) -> int:
    """int(text); ArgumentTypeError naming only the length of a digit string
    past int()'s digit limit, so that it is not echoed; else ValueError."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise argparse.ArgumentTypeError(f"has too many digits ({len(text)})") from None
        raise


_int.__name__ = "int"  # argparse words a ValueError as "invalid int value: 'abc'"


def _budget(args) -> int:
    """--budget, else $GENUS_LATTICE_BUDGET, else the default; positive."""
    budget = args.budget
    if budget is None:
        env = os.environ.get(_BUDGET_ENV)
        try:
            budget = _int(env) if env else DEFAULT_BUDGET
        except argparse.ArgumentTypeError as exc:
            raise ParseError(f"{_BUDGET_ENV} {exc}") from None
        except ValueError:
            raise ParseError(f"{_BUDGET_ENV}={env!r} is not an integer") from None
    if budget < 1:
        raise ParseError(f"the state budget must be positive, got {budget}")
    return budget


def _cmd_oracle(args, err):
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
    fields = "square divisibility coord_bound vectors_found orbit_count_full orbit_count_spinor1"
    text = f"lattice: {report.lattice.spec}\n"
    text += "".join(f"{key}: {getattr(report, key)}\n" for key in fields.split())
    if report.witnesses is not None:
        text += f"witnesses: {len(report.witnesses)}\n"
    return report, text


def _build_parser() -> _Parser:
    parser = _Parser(prog="genlat", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text, cmd):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(cmd=cmd)
        return p

    p = add("info", "surface invariants and basic classes", _cmd_info)
    p.add_argument("surface_pos", nargs="?", metavar="SURFACE")
    p.add_argument("--surface")

    p = add("basic", "basic classes of a surface", _cmd_basic)
    p.add_argument("--surface", required=True)

    for name, help_text, cmd in (
        ("class", "square, divisibility and pairings of a class", _cmd_class),
        ("genus", "minimal-genus verdict for a class", _cmd_genus),
        ("reduce", "reduce a class to its canonical representative", _cmd_reduce),
    ):
        p = add(name, help_text, cmd)
        p.add_argument("--surface", required=True)
        p.add_argument("--class", dest="class_input", required=True)

    for name, help_text, cmd in (
        ("spinor", "spinor norm of a matrix certificate", _cmd_spinor),
        ("verify", "check a matrix certificate", _cmd_verify),
    ):
        p = add(name, help_text, cmd)
        p.add_argument("--surface")
        p.add_argument("--lattice")
        p.add_argument("--matrix", required=True)

    p = add("oracle", "brute-force orbit report", _cmd_oracle)
    p.add_argument("mode", choices=["orbit"])
    p.add_argument("--surface")
    p.add_argument("--lattice")
    p.add_argument("--square", type=_int, required=True)
    p.add_argument("--div", type=_int, default=1)
    p.add_argument("--bound", type=_int, default=1)
    p.add_argument("--budget", type=_int, default=None)
    p.add_argument("--witnesses", action="store_true")
    return parser


def run(argv=None, stdout=None, stderr=None) -> int:
    """Run one verb; its stdout is written only once it has succeeded.

    A verb returns its text and its JSON document, or the record whose
    to_json_dict() gives that document, which is built only under --json.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        doc, text = args.cmd(args, err)
        if args.json:
            doc = doc if isinstance(doc, dict) else doc.to_json_dict()
            text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    except _HelpRequested as exc:
        text = exc.args[0]
    except BudgetExceeded as exc:
        err.write(f"error: {exc}\n")
        return 3
    except (LatticeError, ValueError) as exc:
        # ValueError: an output integer past Python's int-to-str digit limit
        err.write(f"error: {exc}\n")
        return 2
    out.write(text)
    return 0


def main() -> None:
    sys.exit(run())

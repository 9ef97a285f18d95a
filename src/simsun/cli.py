"""Command-line front end.

Subcommands: triangle, enumerate, verify, bijection, roots, series.
Everything is deterministic.  Each subcommand builds its rows once and
hands them to one writer, ``_emit``, which prints the chosen format: one
JSON document, a CSV table (header first, every row ending in CRLF) or
text lines; ``bijection`` prints text or json only.  Exit codes: 0
success, 1 identity violation, 2 usage error or ``TooLarge`` (a sweep
level, zigzag array, permutation stream or phi/psi walk over
``perms.ROW_BUDGET`` rows, a phi block over ``bijections.PHI_BLOCK_LIMIT``
or a psi input over ``bijections.PSI_LENGTH_LIMIT``), 141 (128 + SIGPIPE,
no traceback) when the reader closes stdout early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import os
import sys

from . import TooLarge, bijections, classes, perms, series, triangles, verify
from .poly import Poly

ENUM_CLASSES = {
    # cli name -> (members of size n, listing bound)
    "simsun1": (classes.gen_simsun_first, 10),
    "simsun2": (classes.gen_simsun_second, 10),
    "snakes": (perms.snakes, 8),
    "alternating": (perms.alternating_permutations, 10),
    "cud": (lambda n: (perms.from_cycle_word(w) for chunk in perms.permutation_chunks(n)
                       for w in map(tuple, chunk[perms.cycle_up_down(chunk)[0]].tolist())), 9),
}

ROOT_SUITES = tuple(i for i in verify.REGISTRY if i.startswith("roots-"))


class UsageError(Exception):
    pass


def _emit(args, params: dict, results: list, table, lines) -> None:
    """Print ``args.format`` only: the JSON document of ``results``, the
    CSV rows of ``table`` or the text ``lines``.  ``table`` and ``lines``
    may be lazy; the formats not chosen are never read."""
    if args.format == "json":
        print(json.dumps({"command": args.command, "params": params, "results": results}))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(table)
    else:
        for line in lines:
            print(line)


def _checked(convert, value):
    """``convert(value)``, the ValueError it raises on bad input a usage error."""
    try:
        return convert(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _poly_json(p: Poly):
    """Coefficient array (decimal strings, increasing degree) when the
    polynomial is univariate in x; canonical text otherwise."""
    if not p.variables() - {"x"}:
        return [str(c) for c in p.x_coeffs()]
    return p.text()


def parse_perm(text: str):
    """Parse --perm input: a word as digits (n <= 9) or comma-separated
    values, or a cycle form like (1,4,3)(2).  Returns a Word or Cycles."""
    text = text.strip()
    cyclic = text.startswith("(")
    try:
        if cyclic:
            parts = text.replace(")(", ")|(").split("|")
            if not all(part.startswith("(") and part.endswith(")") for part in parts):
                raise ValueError(text)
            value = tuple(tuple(int(v) for v in part[1:-1].split(",")) for part in parts)
        else:
            value = tuple(int(v) for v in (text.split(",") if "," in text else text))
    except ValueError:
        raise UsageError(f"bad {'cycle syntax' if cyclic else 'permutation'}: {text!r}") from None
    return _checked(perms.standardize if cyclic else perms.check_word, value)


def _verdicts(args, key: str, reports: list) -> int:
    """Print reports in ``args.format``, one row of ``IdentityReport``
    fields each, the first named ``key``: the argument that selected them
    ("identity" or "suite").  Exit 1 when any failed."""
    names = [f.name for f in dataclasses.fields(verify.IdentityReport)]
    rows = [[getattr(r, name) for name in names] for r in reports]
    header = [key, *names[1:]]
    _emit(args, {key: getattr(args, key), "n_max": args.n_max},
          [dict(zip(header, row)) for row in rows], [header, *rows],
          (f"{r.identity}: bound {r.bound}: {'pass' if r.ok else f'FAIL ({r.detail})'}"
           for r in reports))
    return 0 if all(r.ok for r in reports) else 1


def _cycle_text(cycles) -> str:
    return "".join(f"({','.join(map(str, cyc))})" for cyc in cycles)


# -- subcommands -----------------------------------------------------------------


def cmd_triangle(args) -> int:
    if args.family not in triangles.FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    polys = triangles.family_polys(args.family, args.n)

    def table():
        if any(p.variables() - {"x"} for p in polys):
            raise UsageError(f"family {args.family} is not univariate; csv unavailable")
        yield ["family", "n", "k", "value"]
        for n, p in enumerate(polys):
            for k, c in enumerate(p.x_coeffs()):
                yield [args.family, n, k, c]

    _emit(args, {"family": args.family, "n": args.n},
          [{"n": n, "poly": _poly_json(p)} for n, p in enumerate(polys)], table(),
          (f"{args.family}_{n} = {p.text()}" for n, p in enumerate(polys)))
    return 0


def cmd_enumerate(args) -> int:
    if args.cls not in ENUM_CLASSES:
        raise UsageError(f"unknown class {args.cls!r}")
    members, bound = ENUM_CLASSES[args.cls]
    if not 0 <= args.n <= bound:
        raise UsageError(f"n={args.n} out of range for {args.cls} (max {bound})")
    rows = []
    for obj in sorted(members(args.n)):
        if args.cls == "snakes":
            rows.append({"perm": ",".join(map(str, obj))})
        elif args.cls == "simsun2":
            rec = perms.cycle_stats(perms.from_cycles(obj))
            rows.append({"perm": _cycle_text(obj), "exc": rec.exc, "fix": rec.fix, "cyc": rec.cyc})
        elif args.cls == "cud":
            cycles = perms.to_cycles(obj)
            rows.append({"perm": _cycle_text(cycles), "cyc": len(cycles)})
        else:
            rec = perms.word_stats(obj)
            rows.append({"perm": ",".join(map(str, obj)), "des": rec.des, "lpk": rec.lpk,
                         "pk": rec.pk, "uprun": rec.uprun})
    count = len(rows)  # at least 1: every class has a member of every size
    _emit(args, {"class": args.cls, "n": args.n}, rows + [{"count": count}],
          itertools.chain([list(rows[0])], map(list, map(dict.values, rows)), [["count", count]]),
          itertools.chain(("  ".join(f"{k}={v}" for k, v in r.items()) for r in rows),
                          [f"count {count}"]))
    return 0


def cmd_verify(args) -> int:
    if args.identity == "all":
        reports = verify.run_all(args.n_max)
    else:
        if args.identity not in verify.REGISTRY:
            raise UsageError(f"unknown identity {args.identity!r}")
        reports = [verify.run(args.identity, args.n_max)]
    return _verdicts(args, "identity", reports)


def cmd_bijection(args) -> int:
    if (args.perm is None) == (args.n is None):
        raise UsageError("bijection needs exactly one of --perm and --n")
    if args.n is not None:
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        report = getattr(bijections, f"verify_{args.map}")(args.n)
        verdict = "pass" if report.ok else f"FAIL ({report.detail})"
        _emit(args, {"map": args.map, "n": args.n},
              [{"ok": report.ok, "detail": report.detail, "counts": report.counts}], None,
              [f"{args.map} exhaustive check at n={args.n}: {verdict}"])
        return 0 if report.ok else 1

    obj = parse_perm(args.perm)
    cyclic = bool(obj) and isinstance(obj[0], tuple)
    if args.map == "phi" and cyclic:
        raise UsageError("the block correspondence takes a word, not cycles")
    forward = bijections.phi_forward if args.map == "phi" else (
        bijections.psi_inverse if cyclic else bijections.psi_forward)
    image = _checked(forward, obj)
    words, cycles = classes.format_labeled_word, classes.format_labeled_cycles
    source = (cycles if cyclic else words)(obj)
    if args.map == "phi":
        images = ["".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w)) for w in image]
        result = {"source": source, "images": images}
    else:
        images = [(words if cyclic else cycles)(image)]
        result = {"source": source, "image": images[0]}
    _emit(args, {"map": args.map, "perm": args.perm}, [result], None,
          [f"source: {source}", *(f"image:  {img}" for img in images)])
    return 0


def cmd_roots(args) -> int:
    if args.suite == "all":
        suites = ROOT_SUITES
    elif args.suite in ROOT_SUITES:
        suites = (args.suite,)
    else:
        raise UsageError(f"unknown suite {args.suite!r}")
    reports = [verify.run(s, args.n_max) for s in suites]
    return _verdicts(args, "suite", reports)


def cmd_series(args) -> int:
    if args.name not in series.BUILDERS:
        raise UsageError(f"unknown series {args.name!r}")
    if not 0 <= args.order <= 24:
        raise UsageError(f"order={args.order} out of range (max 24)")
    rows = list(enumerate(series.build(args.name, args.order).coeffs))
    _emit(args, {"name": args.name, "order": args.order},
          [{"n": n, "poly": _poly_json(p)} for n, p in rows],
          [["n", "value"], *([n, p.text()] for n, p in rows)],
          (f"{n}: {p.text()}" for n, p in rows))
    return 0


# -- argument parsing --------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="simsun",
        description="Exact enumeration and verification for simsun permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("triangle", help="print rows of a polynomial family")
    p.add_argument("family")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("enumerate", help="list the members of a class with statistics")
    p.add_argument("cls", metavar="class")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run identity checks (an id or 'all')")
    p.add_argument("identity")
    p.add_argument("--n-max", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="apply or exhaustively check a bijection")
    p.add_argument("map", choices=("phi", "psi"))
    p.add_argument("--perm", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("roots", help="run root-location suites")
    p.add_argument("suite")
    p.add_argument("--n-max", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("series", help="print EGF coefficient tables")
    p.add_argument("name")
    p.add_argument("--order", type=int, default=series.DEFAULT_ORDER)
    add_format(p)
    p.set_defaults(func=cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("n", "n_max"):
            if (getattr(args, name, None) or 0) < 0:
                raise UsageError(f"--{name.replace('_', '-')} must be nonnegative")
        return args.func(args)
    except (UsageError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the output still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: triangle, enumerate, verify, bijection, roots, series.
Everything is deterministic; output formats are text, csv and json, except
that ``bijection`` prints text or json only.  Exit codes: 0 success, 1
identity violation, 2 usage error or ``TooLarge`` (a sweep level, zigzag
array, permutation stream or phi/psi walk over ``perms.ROW_BUDGET`` rows,
a phi block over ``bijections.PHI_BLOCK_LIMIT`` or a psi input over
``bijections.PSI_LENGTH_LIMIT``), 141 (128 + SIGPIPE, no traceback) when
the reader closes stdout early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import csv
import functools
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


def _emit_json(command: str, params: dict, results: list) -> None:
    print(json.dumps({"command": command, "params": params, "results": results}))


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
    if text.startswith("("):
        cycles = []
        for part in text.replace(")(", ")|(").split("|"):
            if not (part.startswith("(") and part.endswith(")")):
                raise UsageError(f"bad cycle syntax: {text!r}")
            body = part[1:-1]
            try:
                cycles.append(tuple(int(v) for v in body.split(",")))
            except ValueError:
                raise UsageError(f"bad cycle syntax: {text!r}") from None
        try:
            return perms.standardize(tuple(cycles))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        if "," in text:
            word = tuple(int(v) for v in text.split(","))
        else:
            word = tuple(int(ch) for ch in text)
    except ValueError:
        raise UsageError(f"bad permutation: {text!r}") from None
    try:
        return perms.check_word(word)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _verdicts(args, key: str, reports: list) -> int:
    """Print reports in ``args.format`` under ``key``, the argument that
    selected them ("identity" or "suite"); exit 1 when any failed."""
    results = [{key: r.identity, "bound": r.bound, "ok": r.ok, "detail": r.detail,
                "cases": r.cases} for r in reports]
    if args.format == "json":
        _emit_json(args.command, {key: getattr(args, key), "n_max": args.n_max}, results)
    elif args.format == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=[key, "bound", "ok", "detail", "cases"])
        writer.writeheader()
        writer.writerows(results)
    else:
        for r in reports:
            verdict = "pass" if r.ok else f"FAIL ({r.detail})"
            print(f"{r.identity}: bound {r.bound}: {verdict}")
    return 0 if all(r.ok for r in reports) else 1


def _cycle_text(cycles) -> str:
    return "".join(f"({','.join(map(str, cyc))})" for cyc in cycles)


# -- subcommands -----------------------------------------------------------------


def cmd_triangle(args) -> int:
    if args.family not in triangles.FAMILIES:
        raise UsageError(f"unknown family {args.family!r}")
    polys = triangles.family_polys(args.family, args.n)
    if args.format == "csv":
        for p in polys:
            if p.variables() - {"x"}:
                raise UsageError(f"family {args.family} is not univariate; csv unavailable")
        writer = csv.writer(sys.stdout)
        writer.writerow(["family", "n", "k", "value"])
        for n, p in enumerate(polys):
            for k, c in enumerate(p.x_coeffs()):
                writer.writerow([args.family, n, k, c])
    elif args.format == "json":
        _emit_json(
            "triangle",
            {"family": args.family, "n": args.n},
            [{"n": n, "poly": _poly_json(p)} for n, p in enumerate(polys)],
        )
    else:
        for n, p in enumerate(polys):
            print(f"{args.family}_{n} = {p.text()}")
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
    if args.format == "json":
        _emit_json(
            "enumerate", {"class": args.cls, "n": args.n}, rows + [{"count": len(rows)}]
        )
    elif args.format == "csv":
        if rows:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"count,{len(rows)}")
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))
        print(f"count {len(rows)}")
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
        if args.format == "json":
            _emit_json("bijection", {"map": args.map, "n": args.n},
                       [{"ok": report.ok, "detail": report.detail, "counts": report.counts}])
        else:
            verdict = "pass" if report.ok else f"FAIL ({report.detail})"
            print(f"{args.map} exhaustive check at n={args.n}: {verdict}")
        return 0 if report.ok else 1

    obj = parse_perm(args.perm)
    if args.map == "phi":
        if isinstance(obj[0] if obj else 0, tuple):
            raise UsageError("the block correspondence takes a word, not cycles")
        try:
            block = bijections.phi_forward(obj)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        source = classes.format_labeled_word(obj)
        images = ["".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w))
                  for w in block]
        if args.format == "json":
            _emit_json("bijection", {"map": "phi", "perm": args.perm},
                       [{"source": source, "images": images}])
        else:
            print(f"source: {source}")
            for img in images:
                print(f"image:  {img}")
    else:
        if obj and isinstance(obj[0], tuple):
            try:
                word = bijections.psi_inverse(obj)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            source = classes.format_labeled_cycles(obj)
            image = classes.format_labeled_word(word)
        else:
            try:
                cycles = bijections.psi_forward(obj)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            source = classes.format_labeled_word(obj)
            image = classes.format_labeled_cycles(cycles)
        if args.format == "json":
            _emit_json("bijection", {"map": "psi", "perm": args.perm},
                       [{"source": source, "image": image}])
        else:
            print(f"source: {source}")
            print(f"image:  {image}")
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
    f = series.build(args.name, args.order)
    rows = list(enumerate(f.coeffs))
    if args.format == "json":
        _emit_json(
            "series",
            {"name": args.name, "order": args.order},
            [{"n": n, "poly": _poly_json(p)} for n, p in rows],
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value"])
        for n, p in rows:
            writer.writerow([n, p.text()])
    else:
        for n, p in rows:
            print(f"{n}: {p.text()}")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("n", "n_max"):
        if (getattr(args, name, None) or 0) < 0:
            print(f"error: --{name.replace('_', '-')} must be nonnegative", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (UsageError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the output still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())

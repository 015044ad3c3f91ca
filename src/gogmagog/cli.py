"""Command-line front end.

Subcommands: validate, convert, schutzenberger, count, enumerate,
verify, stats.  Exit status 0 on success, 1 when validation or
verification fails, 2 for usage errors; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from .asm import (
    Asm,
    asm_from_json,
    asm_to_gog,
    asm_to_json,
    format_asm,
    gog_to_asm,
    parse_asm,
    validate_asm,
)
from .bijection import (
    Rule,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    magog_row_statistic,
    statistic_x11,
)
from .enumeration import SUITES, FamilySpec, _n2_trapezoids, count, generate, generate_asms, verify
from .schutzenberger import is_gogam, schutzenberger
from .tableaux import Ssyt, format_tableau, triangle_to_tableau
from .triangles import (
    Family,
    GtTriangle,
    format_triangle,
    is_gog,
    is_magog,
    is_trapezoid,
    is_valid_gt,
    parse_triangle,
    triangle_from_json,
    triangle_to_json,
    validate_gt,
)

KINDS = ("gt", "gog", "magog", "gogam", "asm")

# the tableau holds one list element per letter, and its letter count is
# the top-row sum, which a size-1 triangle sets to its single entry
MAX_TABLEAU_LETTERS = 100_000


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load(kind: str, path: str) -> GtTriangle | Asm:
    """The matrix (kind "asm") or triangle in ``path``, text or JSON."""
    text = _read_text(path)
    if kind == "asm":
        parse_text, parse_json = parse_asm, asm_from_json
    else:
        parse_text, parse_json = parse_triangle, triangle_from_json
    return parse_json(text) if text.lstrip().startswith("{") else parse_text(text)


def _emit(obj: GtTriangle | Asm | Ssyt, as_json: bool) -> None:
    if isinstance(obj, Ssyt):
        text = format_tableau(obj)  # text only: convert refuses --json for ssyt
    elif isinstance(obj, Asm):
        text = asm_to_json(obj) + "\n" if as_json else format_asm(obj)
    else:
        text = triangle_to_json(obj) + "\n" if as_json else format_triangle(obj)
    sys.stdout.write(text)


_NOT_MEMBER = {
    "gog": "not a Gog triangle (rows or pinned top row)",
    "magog": "diagonal bound broken: not a Magog triangle",
    "gogam": "involution image is not Magog: not a GOGAm triangle",
}


def _problems(kind: str, obj: GtTriangle | Asm, trapezoid: int | None = None) -> list[str]:
    """Why ``obj`` is not of ``kind`` (and, if given, not a trapezoid of
    that width); empty when it is.  The cheap membership test decides;
    `validate_gt` only lists what a triangle that is not GT breaks."""
    if kind == "asm":
        return validate_asm(obj)
    member = {"gt": is_valid_gt, "gog": is_gog, "magog": is_magog, "gogam": is_gogam}[kind]
    if not member(obj):
        return [str(v) for v in validate_gt(obj)] or [_NOT_MEMBER[kind]]
    if trapezoid is not None and not is_trapezoid(obj, Family(kind), trapezoid):
        return [f"not a ({obj.n},{trapezoid}) {kind} trapezoid"]
    return []


def _report_problems(problems: list[str]) -> int:
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.trapezoid is not None and args.kind in ("gt", "asm"):
        raise ValueError(f"--trapezoid does not apply to --kind {args.kind}")
    obj = _load(args.kind, args.file)
    return _report_problems(_problems(args.kind, obj, args.trapezoid))


_TRAPEZOID_CONVERSIONS = {("gog", "gogam"), ("gogam", "gog")}


def _cmd_convert(args: argparse.Namespace) -> int:
    pair = (args.src, args.dst)
    # built per call, so each map is read from this module's current names
    convert = {
        ("gog", "asm"): gog_to_asm,
        ("asm", "gog"): asm_to_gog,
        ("magog", "gogam"): schutzenberger,
        ("gogam", "magog"): schutzenberger,
        ("gt", "ssyt"): triangle_to_tableau,
        ("gog", "gogam"): lambda t: gog_to_gogam_n2(t)[0],
        ("gogam", "gog"): lambda t: gogam_to_gog_n2(t)[0],
    }.get(pair)
    if convert is None:
        raise ValueError(f"unsupported conversion {args.src} -> {args.dst}")
    trapezoid_map = pair in _TRAPEZOID_CONVERSIONS
    if args.trapezoid is not None and not trapezoid_map:
        raise ValueError("--trapezoid applies only to gog <-> gogam conversion")
    if args.json and args.dst == "ssyt":
        raise ValueError("--json does not apply to --to ssyt")
    obj = _load(args.src, args.file)
    if not trapezoid_map:
        problems = _problems(args.src, obj)
        if problems:
            return _report_problems(problems)
        letters = sum(obj.rows[0]) if args.dst == "ssyt" else 0
        if letters > MAX_TABLEAU_LETTERS:
            raise ValueError(
                f"tableau would hold {letters} letters, over the limit of {MAX_TABLEAU_LETTERS}"
            )
    elif args.trapezoid != 2:
        raise ValueError("gog <-> gogam conversion requires --trapezoid 2")
    try:
        out = convert(obj)
    except ValueError as exc:  # the trapezoid maps validate their own input
        print(str(exc), file=sys.stderr)
        return 1
    _emit(out, args.json)
    return 0


def _cmd_schutzenberger(args: argparse.Namespace) -> int:
    t = _load("gt", args.file)
    problems = _problems("gt", t)
    if problems:
        return _report_problems(problems)
    _emit(schutzenberger(t), args.json)
    return 0


def _spec(args: argparse.Namespace) -> FamilySpec:
    return FamilySpec(Family(args.kind), args.n, k=args.k, bound=args.bound)


def _members(args: argparse.Namespace) -> Iterator[GtTriangle | Asm]:
    if args.kind == "asm":
        if args.k is not None or args.bound is not None:
            raise ValueError("--k and --bound do not apply to --kind asm")
        return generate_asms(args.n)
    return generate(_spec(args))


def _cmd_count(args: argparse.Namespace) -> int:
    # matrices are counted by enumeration, the route independent of the families
    print(sum(1 for _ in _members(args)) if args.kind == "asm" else count(_spec(args)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for obj in _members(args):
        _emit(obj, args.json)
        if not args.json:
            sys.stdout.write("\n")  # blank line between text blocks
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.suite, args.n)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    n = args.n
    rules: dict[Rule, int] = {}  # filled by the walk: each rule's count over all paths
    per_value: dict[int, list[int]] = {}
    for t, out, _ in _n2_trapezoids(n, rules):
        x = statistic_x11(t)
        row = per_value.setdefault(x, [0, 0, 0])
        row[0] += 1
        row[1] += int(statistic_x11(out) == x)
        row[2] += int(magog_row_statistic(schutzenberger(out)) == x)
    named = sorted((rule.value, times) for rule, times in rules.items())
    if args.json:
        bottom = {str(v): {"count": c, "preserved": p, "row_statistic": r}
                  for v, (c, p, r) in sorted(per_value.items())}
        print(json.dumps({"n": n, "rules": dict(named), "bottom_entry": bottom}))
        return 0
    print(f"({n},2) trapezoids: rule usage")
    for rule, times in named:
        print(f"  {rule:5s} {times}")
    print("bottom entry: count / preserved by bijection / matched by row statistic")
    for v, (c, p, r) in sorted(per_value.items()):
        print(f"  {v:3d}: {c} / {p} / {r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gogmagog",
        description="Gog/Magog/GOGAm triangles, ASMs, the Schutzenberger "
        "involution, and the (n,2) trapezoid bijection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a triangle or matrix file")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--trapezoid", type=int, default=None, metavar="K")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("convert", help="convert between object kinds")
    p.add_argument("--from", dest="src", choices=KINDS, required=True)
    p.add_argument("--to", dest="dst", choices=KINDS + ("ssyt",), required=True)
    p.add_argument("--trapezoid", type=int, default=None, metavar="K")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("schutzenberger", help="apply the involution to a triangle")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_schutzenberger)

    for name in ("count", "enumerate"):
        p = sub.add_parser(name, help=f"{name} members of a family")
        p.add_argument("--kind", choices=KINDS, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, default=None, help="trapezoid width")
        p.add_argument("--bound", type=int, default=None, help="entry bound for raw gt")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=_cmd_count if name == "count" else _cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("stats", help="rule and statistic tables for (n,2) trapezoids")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        if sys.stdout is sys.__stdout__:
            # the flush at exit would fail again: point the descriptor at devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0
    except (OSError, ValueError) as exc:  # OSError: a missing or unreadable file
        print(str(exc), file=sys.stderr)
        return 2
    except RecursionError:  # the generators and the (n,2) walk recurse once per row or cell
        print(f"size too large for {args.command}: recursion limit reached", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

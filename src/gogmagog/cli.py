"""Command-line front end.

Subcommands: validate, convert, schutzenberger, count, enumerate,
verify, stats.  Exit status 0 on success, 1 when validation or
verification fails, 2 for usage errors; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
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
    InvalidGogamInput,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    magog_row_statistic,
    statistic_x11,
)
from .enumeration import SUITES, FamilySpec, _n2_trapezoids, generate, generate_asms, verify
from .schutzenberger import is_gogam, schutzenberger
from .tableaux import format_tableau, triangle_to_tableau
from .triangles import (
    Family,
    GtTriangle,
    ShapeError,
    format_triangle,
    is_gog,
    is_magog,
    is_trapezoid,
    parse_triangle,
    triangle_from_json,
    triangle_to_json,
    validate_gt,
)

KINDS = ("gt", "gog", "magog", "gogam", "asm")


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


def _emit(obj: GtTriangle | Asm, as_json: bool) -> None:
    if isinstance(obj, Asm):
        text = asm_to_json(obj) + "\n" if as_json else format_asm(obj)
    else:
        text = triangle_to_json(obj) + "\n" if as_json else format_triangle(obj)
    sys.stdout.write(text)


def _problems(kind: str, obj: GtTriangle | Asm, trapezoid: int | None = None) -> list[str]:
    """Why ``obj`` is not of ``kind`` (and, if given, not a trapezoid of
    that width); empty when it is."""
    if kind == "asm":
        return validate_asm(obj)
    problems = [str(v) for v in validate_gt(obj)]
    if not problems:
        if kind == "gog" and not is_gog(obj):
            problems.append("not a Gog triangle (rows or pinned top row)")
        elif kind == "magog" and not is_magog(obj):
            problems.append("diagonal bound broken: not a Magog triangle")
        elif kind == "gogam" and not is_gogam(obj):
            problems.append("involution image is not Magog: not a GOGAm triangle")
    if not problems and trapezoid is not None and kind != "gt":
        if not is_trapezoid(obj, Family(kind), trapezoid):
            problems.append(f"not a ({obj.n},{trapezoid}) {kind} trapezoid")
    return problems


def _report_problems(problems: list[str]) -> int:
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    obj = _load(args.kind, args.file)
    return _report_problems(_problems(args.kind, obj, args.trapezoid))


_TRAPEZOID_CONVERSIONS = {("gog", "gogam"), ("gogam", "gog")}
_CONVERSIONS = _TRAPEZOID_CONVERSIONS | {
    ("gog", "asm"),
    ("asm", "gog"),
    ("magog", "gogam"),
    ("gogam", "magog"),
    ("gt", "ssyt"),
}


def _cmd_convert(args: argparse.Namespace) -> int:
    pair = (args.src, args.dst)
    if pair not in _CONVERSIONS:
        print(f"unsupported conversion {args.src} -> {args.dst}", file=sys.stderr)
        return 2
    obj = _load(args.src, args.file)
    if pair not in _TRAPEZOID_CONVERSIONS:
        # the trapezoid maps validate their own input
        problems = _problems(args.src, obj)
        if problems:
            return _report_problems(problems)
    if pair == ("asm", "gog"):
        _emit(asm_to_gog(obj), args.json)
        return 0
    if pair == ("gog", "asm"):
        _emit(gog_to_asm(obj), args.json)
        return 0
    if pair == ("gt", "ssyt"):
        sys.stdout.write(format_tableau(triangle_to_tableau(obj)))
        return 0
    if pair in (("magog", "gogam"), ("gogam", "magog")):
        _emit(schutzenberger(obj), args.json)
        return 0
    # the trapezoid bijection
    if args.trapezoid != 2:
        print("gog <-> gogam conversion requires --trapezoid 2", file=sys.stderr)
        return 2
    bijection = gog_to_gogam_n2 if pair == ("gog", "gogam") else gogam_to_gog_n2
    try:
        out = bijection(obj)[0]
    except (ValueError, InvalidGogamInput) as exc:
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


def _members(args: argparse.Namespace) -> Iterator[GtTriangle | Asm]:
    if args.kind == "asm":
        if args.k is not None or args.bound is not None:
            raise ValueError("--k and --bound do not apply to --kind asm")
        return generate_asms(args.n)
    return generate(FamilySpec(Family(args.kind), args.n, k=args.k, bound=args.bound))


def _cmd_count(args: argparse.Namespace) -> int:
    print(sum(1 for _ in _members(args)))
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
    rules: Counter[str] = Counter()
    per_value: dict[int, list[int]] = {}
    for t, out, path in _n2_trapezoids(n):
        rules.update(e.record.rule.value for e in path)
        x = statistic_x11(t)
        row = per_value.setdefault(x, [0, 0, 0])
        row[0] += 1
        row[1] += int(statistic_x11(out) == x)
        row[2] += int(magog_row_statistic(schutzenberger(out)) == x)
    if args.json:
        print(
            json.dumps(
                {
                    "n": n,
                    "rules": dict(sorted(rules.items())),
                    "bottom_entry": {
                        str(v): {"count": c, "preserved": p, "row_statistic": r}
                        for v, (c, p, r) in sorted(per_value.items())
                    },
                }
            )
        )
        return 0
    print(f"({n},2) trapezoids: rule usage")
    for rule, times in sorted(rules.items()):
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
    except (ShapeError, OSError, ValueError) as exc:  # OSError: a missing or unreadable file
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Exhaustive generators, counters, and the verification harness.

Generation is top-down row backtracking: the top row is chosen first,
then each lower row cell-by-cell inside the interval forced by the row
above, with family conditions (pinned trapezoid cells, row strictness,
diagonal caps) applied as the cells are placed.  Triangles are emitted
in lexicographic order of their top-down reading.  GOGAm families are
produced by pushing Magog families through the involution, which is
onto by definition; a filtering generator over bounded triangles exists
as the cross-check.

`verify` runs one of the named property suites up to a given size and
returns a structured report; every suite is deterministic.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

from .asm import (
    Asm,
    asm_inversion_number,
    asm_to_gog,
    bottom_row_one_column,
    format_asm,
    gog_to_asm,
    validate_asm,
)
from .bijection import (
    BijectionState,
    Rule,
    covering_subtraction_map,
    extract_diagonals,
    forward_step,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    inverse_step,
    magog_row_statistic,
    statistic_x11,
)
from .schutzenberger import is_gogam, schutzenberger, schutzenberger_diagonal
from .tableaux import schutzenberger_via_words
from .triangles import (
    Family,
    GtTriangle,
    format_triangle,
    inversions,
    is_gog_trapezoid_n2k,
    is_magog,
    is_magog_trapezoid_n2k,
    is_trapezoid,
)


@dataclass(frozen=True)
class FamilySpec:
    """What to enumerate: family, size, optional trapezoid width and,
    for raw Gelfand-Tsetlin triangles, a mandatory entry bound."""

    family: Family
    n: int
    k: int | None = None
    bound: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("size must be at least 1")
        if self.k is not None and not (1 <= self.k <= self.n):
            raise ValueError(f"trapezoid width must be in 1..{self.n}")
        if self.family is Family.GT:
            if self.bound is None:
                raise ValueError("raw Gelfand-Tsetlin enumeration needs a bound")
            if self.k is not None:
                raise ValueError("trapezoids are defined per family, not for raw GT")


def asm_number(n: int) -> int:
    """The product formula 1, 2, 7, 42, 429, 7436, ... evaluated exactly."""
    if n < 1:
        raise ValueError("size must be at least 1")
    value = Fraction(1)
    for j in range(n):
        value *= Fraction(factorial(3 * j + 1), factorial(n + j))
    if value.denominator != 1:
        raise AssertionError("product formula must be an integer")
    return value.numerator


def _weakly_increasing(length: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    row = [0] * length

    def rec(pos: int, floor: int) -> Iterator[tuple[int, ...]]:
        if pos == length:
            yield tuple(row)
            return
        for val in range(floor, hi + 1):
            row[pos] = val
            yield from rec(pos + 1, val)

    yield from rec(0, lo)


def _descend(
    top: tuple[int, ...],
    n: int,
    cell_ok: Callable[[int, int, int, list[int]], bool],
) -> Iterator[GtTriangle]:
    """Fill rows n-1 .. 1 under the interlacing intervals.

    ``cell_ok(i, j, value, row_so_far)`` may veto a placement; rows are
    built left to right, so strictness checks can look at the previous
    cell.
    """
    rows_top_down: list[tuple[int, ...]] = [top]

    def rec(i: int) -> Iterator[GtTriangle]:
        if i == 0:
            yield GtTriangle._trusted(tuple(rows_top_down))
            return
        above = rows_top_down[-1]
        row: list[int] = []

        def place(j: int) -> Iterator[GtTriangle]:
            if j > i:
                rows_top_down.append(tuple(row))
                yield from rec(i - 1)
                rows_top_down.pop()
                return
            for val in range(above[j - 1], above[j] + 1):
                if cell_ok(i, j, val, row):
                    row.append(val)
                    yield from place(j + 1)
                    row.pop()

        yield from place(1)

    yield from rec(n - 1)


def _generate_gt(n: int, bound: int) -> Iterator[GtTriangle]:
    for top in _weakly_increasing(n, 1, bound):
        yield from _descend(top, n, lambda i, j, val, row: True)


def _generate_gog(n: int, k: int | None) -> Iterator[GtTriangle]:
    top = tuple(range(1, n + 1))

    def ok(i: int, j: int, val: int, row: list[int]) -> bool:
        if row and val <= row[-1]:
            return False
        if k is not None and i - j >= k and val != j:
            return False
        return True

    yield from _descend(top, n, ok)


def _generate_magog(n: int, k: int | None) -> Iterator[GtTriangle]:
    def ok(i: int, j: int, val: int, row: list[int]) -> bool:
        if j == i and val > i:
            return False
        if k is not None and i - j >= k and val != 1:
            return False
        return True

    for top in _weakly_increasing(n, 1, n):
        if top[-1] > n:
            continue
        if k is not None and any(
            top[j - 1] != 1 for j in range(1, n + 1) if n - j >= k
        ):
            continue
        yield from _descend(top, n, ok)


def _generate_gogam(n: int, k: int | None) -> Iterator[GtTriangle]:
    # the involution maps the Magog family onto the GOGAm family; sort to
    # keep the advertised lexicographic emission order
    images = [schutzenberger(t) for t in _generate_magog(n, k)]
    images.sort(key=lambda t: t.rows)
    yield from images


def _generate_gogam_by_filter(n: int, k: int | None) -> Iterator[GtTriangle]:
    """Cross-check route: bounded triangles filtered by the GOGAm test.

    Complete because a GOGAm triangle has corner at most n and the
    corner dominates every entry.
    """
    for t in _generate_gt(n, n):
        if k is not None and not is_trapezoid(t, Family.GOGAM, k):
            continue
        if is_gogam(t):
            yield t


def generate(spec: FamilySpec) -> Iterator[GtTriangle]:
    """Stream every member of the family exactly once, deterministically."""
    if spec.family is Family.GT:
        assert spec.bound is not None
        return _generate_gt(spec.n, spec.bound)
    if spec.family is Family.GOG:
        return _generate_gog(spec.n, spec.k)
    if spec.family is Family.MAGOG:
        return _generate_magog(spec.n, spec.k)
    if spec.family is Family.GOGAM:
        return _generate_gogam(spec.n, spec.k)
    raise ValueError(f"unknown family {spec.family}")


def generate_asms(n: int) -> Iterator[Asm]:
    """Direct row-by-row enumeration, independent of the Gog bijection.

    Column partial sums stay in {0,1} and every finished row sums to 1;
    those two prunes are exactly the alternating-sign conditions.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    cols = [0] * n
    rows: list[tuple[int, ...]] = []

    def fill(r: int) -> Iterator[Asm]:
        if r == n:
            yield Asm(tuple(rows))
            return
        row = [0] * n

        def place(j: int, rsum: int) -> Iterator[Asm]:
            if j == n:
                if rsum == 1:
                    rows.append(tuple(row))
                    yield from fill(r + 1)
                    rows.pop()
                return
            for e in (-1, 0, 1):
                if cols[j] + e not in (0, 1):
                    continue
                if rsum + e not in (0, 1):
                    continue
                if rsum + e + (n - j - 1) < 1:
                    continue
                row[j] = e
                cols[j] += e
                yield from place(j + 1, rsum + e)
                cols[j] -= e
                row[j] = 0

        yield from place(0, 0)

    return fill(0)


def count(spec: FamilySpec) -> int:
    return sum(1 for _ in generate(spec))


# --- verification suites ---------------------------------------------------


@dataclass
class Report:
    suite: str
    n: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    histogram: dict[str, int] = field(default_factory=dict)
    millis: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "n": self.n,
                "checks": self.checks,
                "failures": self.failures,
                "histogram": self.histogram,
                "millis": self.millis,
            }
        )

    def render(self) -> str:
        lines = [
            f"suite {self.suite} up to n={self.n}: "
            f"{self.checks} checks, {len(self.failures)} failures, {self.millis} ms"
        ]
        for f in self.failures:
            lines.append(f"  FAIL {f}")
        if self.histogram:
            for key in sorted(self.histogram):
                lines.append(f"  {key}: {self.histogram[key]}")
        return "\n".join(lines)


def _fail_payload(t: GtTriangle) -> str:
    return format_triangle(t).replace("\n", " / ").strip(" /")


def _suite_counts(n: int, report: Report) -> None:
    spec_counts = (
        count(FamilySpec(Family.GOG, n)),
        count(FamilySpec(Family.MAGOG, n)),
        sum(1 for _ in generate_asms(n)),
    )
    want = asm_number(n)
    report.checks += 3
    for label, got in zip(("gog", "magog", "asm"), spec_counts):
        report.histogram[f"{label}-{n}"] = got
        if got != want:
            report.failures.append(f"n={n}: {label} count {got} != {want}")
    gogam = count(FamilySpec(Family.GOGAM, n))
    report.checks += 1
    if gogam != want:
        report.failures.append(f"n={n}: gogam count {gogam} != {want}")
    if n <= 5:  # the filtering route walks every bounded triangle
        by_filter = sum(1 for _ in _generate_gogam_by_filter(n, None))
        report.checks += 1
        if gogam != by_filter:
            report.failures.append(
                f"n={n}: gogam routes disagree (map {gogam}, filter {by_filter})"
            )


def _suite_involution(n: int, report: Report) -> None:
    bound = n + 1
    for t in _generate_gt(n, bound):
        report.checks += 1
        s = schutzenberger(t)
        if schutzenberger(s) != t:
            report.failures.append(f"involution broke on {_fail_payload(t)}")
        elif s[n, n] != t[n, n]:
            report.failures.append(f"corner moved on {_fail_payload(t)}")


def _suite_oracle(n: int, report: Report) -> None:
    bound = n + 1
    for t in _generate_gt(n, bound):
        report.checks += 1
        if schutzenberger(t) != schutzenberger_via_words(t):
            report.failures.append(f"oracle disagreement on {_fail_payload(t)}")


def _brute_diagonal(t: GtTriangle) -> tuple[int, ...]:
    """Literal maximization over all strictly decreasing chains."""
    from itertools import combinations

    n = t.n
    values = [0] * n
    values[n - 1] = t[n, n]
    for k in range(1, n):
        steps = n - k
        best = None
        for combo in combinations(range(1, n), steps):
            chain = (n,) + tuple(sorted(combo, reverse=True))
            total = 0
            for i in range(steps):
                total += t[chain[i] + i, chain[i]] - t[chain[i + 1] + i, chain[i + 1]]
            total += t[chain[steps] + steps, chain[steps]]
            if best is None or total > best:
                best = total
        values[k - 1] = best
    return tuple(values)


def _suite_lemma1(n: int, report: Report) -> None:
    bound = n + 1
    for t in _generate_gt(n, bound):
        report.checks += 1
        table = schutzenberger_diagonal(t)
        brute = _brute_diagonal(t)
        s = schutzenberger(t)
        s_diag = tuple(s[k, k] for k in range(1, n + 1))
        if table.values != brute:
            report.failures.append(f"dp != brute force on {_fail_payload(t)}")
        elif table.values != s_diag:
            report.failures.append(f"dp != image diagonal on {_fail_payload(t)}")


def _suite_bijection_n2(n: int, report: Report) -> None:
    gogs = list(generate(FamilySpec(Family.GOG, n, k=min(2, n))))
    images = set()
    for t in gogs:
        report.checks += 1
        out, trace = gog_to_gogam_n2(t)
        for rec in trace:
            key = f"rule-{rec.rule.value}"
            report.histogram[key] = report.histogram.get(key, 0) + 1
        if not (is_trapezoid(out, Family.GOGAM, 2) and is_gogam(out)):
            report.failures.append(f"image not GOGAm for {_fail_payload(t)}")
            continue
        if not is_magog(schutzenberger(out)):
            report.failures.append(f"involution image not Magog for {_fail_payload(t)}")
            continue
        back, itrace = gogam_to_gog_n2(out)
        if back != t:
            report.failures.append(f"round trip failed for {_fail_payload(t)}")
            continue
        if [r.rule for r in reversed(itrace)] != [r.rule for r in trace]:
            report.failures.append(f"traces not mirrored for {_fail_payload(t)}")
            continue
        images.add(out)
    magogs = count(FamilySpec(Family.MAGOG, n, k=min(2, n)))
    report.checks += 1
    if not (len(images) == len(gogs) == magogs):
        report.failures.append(
            f"n={n}: cardinalities differ (gog {len(gogs)}, images {len(images)}, "
            f"magog {magogs})"
        )
    report.histogram[f"trapezoids-{n}"] = len(gogs)


def _suite_n1(n: int, report: Report) -> None:
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    trapezoids = list(generate(FamilySpec(Family.GOG, n, k=1)))
    report.checks += 1
    if n < len(catalan) and len(trapezoids) != catalan[n]:
        report.failures.append(
            f"n={n}: (n,1) count {len(trapezoids)} != {catalan[n]}"
        )
    for t in trapezoids:
        report.checks += 1
        via_rules, _ = gog_to_gogam_n2(t)
        direct = covering_subtraction_map(t)
        if via_rules != direct:
            report.failures.append(f"subtraction map disagrees on {_fail_payload(t)}")
        elif not (is_trapezoid(direct, Family.GOGAM, 1) and is_gogam(direct)):
            report.failures.append(f"subtraction image not GOGAm on {_fail_payload(t)}")


def _suite_n2k(n: int, report: Report) -> None:
    gogs = list(generate(FamilySpec(Family.GOG, n, k=min(2, n))))
    forward = {t: gog_to_gogam_n2(t)[0] for t in gogs}
    for k in range(1, n + 1):
        klass = [t for t in gogs if is_gog_trapezoid_n2k(t, k)]
        image_magogs = {schutzenberger(forward[t]) for t in klass}
        target = {
            m
            for m in generate(FamilySpec(Family.MAGOG, n, k=min(2, n)))
            if is_magog_trapezoid_n2k(m, k)
        }
        report.checks += 1
        if image_magogs != target:
            report.failures.append(
                f"n={n} k={k}: class image has {len(image_magogs)} elements, "
                f"predicate selects {len(target)}"
            )
        report.histogram[f"class-{n}-{k}"] = len(klass)


def _suite_statistics(n: int, report: Report) -> None:
    for t in generate(FamilySpec(Family.GOG, n, k=min(2, n))):
        report.checks += 1
        out, _ = gog_to_gogam_n2(t)
        magog = schutzenberger(out)
        if statistic_x11(out) != statistic_x11(t):
            report.failures.append(f"bottom entry moved for {_fail_payload(t)}")
        elif magog_row_statistic(magog) != statistic_x11(t):
            report.failures.append(f"row statistic disagrees for {_fail_payload(t)}")
    if n <= 5:
        for t in generate(FamilySpec(Family.GOG, n)):
            report.checks += 1
            if bottom_row_one_column(gog_to_asm(t)) != statistic_x11(t):
                report.failures.append(f"bottom-row column wrong for {_fail_payload(t)}")


def _suite_asm_roundtrip(n: int, report: Report) -> None:
    for t in generate(FamilySpec(Family.GOG, n)):
        report.checks += 1
        a = gog_to_asm(t)
        if validate_asm(a):
            report.failures.append(f"image not an ASM for {_fail_payload(t)}")
            continue
        if asm_to_gog(a) != t:
            report.failures.append(f"round trip failed for {_fail_payload(t)}")
            continue
        if asm_inversion_number(a) != len(inversions(t)):
            report.failures.append(f"inversion numbers differ for {_fail_payload(t)}")
    count_asm = 0
    for a in generate_asms(n):
        count_asm += 1
        report.checks += 1
        if gog_to_asm(asm_to_gog(a)) != a:
            report.failures.append(f"matrix round trip failed:\n{format_asm(a)}")
    report.checks += 1
    if count_asm != asm_number(n):
        report.failures.append(f"n={n}: ASM count {count_asm} != {asm_number(n)}")


def _replay_forward(t: GtTriangle) -> list[tuple[BijectionState, BijectionState, int, Rule, int | None]]:
    """(state before, state after, k, rule, l) for every forward step."""
    n = t.n
    diags = extract_diagonals(t)
    state = BijectionState(n, (n,), ())
    steps = []
    for k in range(1, n):
        before = state
        state, rec = forward_step(state, diags.b_at(k), diags.a[k - 1])
        steps.append((before, state, k, rec.rule, rec.l))
    return steps


def _base_rule(before: BijectionState, after: BijectionState) -> Rule:
    """Resolve the BASE tag of the opening step to its underlying rule."""
    return Rule.I if after.u[0] == before.u[0] - 1 else Rule.II


def _suite_trace_lemmas(n: int, report: Report) -> None:
    for t in generate(FamilySpec(Family.GOG, n, k=min(2, n))):
        steps = _replay_forward(t)
        rules = []
        for before, after, k, rule, l in steps:
            rules.append(_base_rule(before, after) if rule is Rule.BASE else rule)
        for idx in range(1, len(steps)):
            prev_rule = rules[idx - 1]
            this_rule = rules[idx]
            report.checks += 1
            if this_rule is Rule.IIIB and prev_rule in (Rule.I, Rule.II):
                report.failures.append(
                    f"IIIb follows {prev_rule.value} on {_fail_payload(t)}"
                )
            report.checks += 1
            if this_rule is Rule.IVB and prev_rule not in (Rule.IIIB, Rule.IVB):
                report.failures.append(
                    f"IVb follows {prev_rule.value} on {_fail_payload(t)}"
                )
        for before, after, k, rule, l in steps:
            if rule is Rule.IVB:
                report.checks += 1
                # the second diagonal just below the patch must sit one
                # above the new constant, for l cells
                c = before.constant
                if any(before.v[k - i - 1] != c for i in range(1, l + 1)):
                    report.failures.append(
                        f"IVb fired without the constant run on {_fail_payload(t)}"
                    )
            if rule in (Rule.IIIB, Rule.IVB):
                report.checks += 1
                assert l is not None
                # IVb guarantees a pair strictly below the rewritten run;
                # IIIb only guarantees that the pair survives somewhere
                top = k - l if rule is Rule.IVB else k
                good = any(after.u[i] == after.v[i - 1] for i in range(1, top))
                if not good:
                    report.failures.append(
                        f"no equality pair after {rule.value} on {_fail_payload(t)}"
                    )
        # undoing the subtle rules must also leave an equality pair behind
        if not steps:
            continue
        state = steps[-1][1]
        for k in range(n - 1, 0, -1):
            state, _, rec = inverse_step(state)
            if rec.rule in (Rule.IIIB, Rule.IVB):
                report.checks += 1
                kk = state.k
                if not any(state.u[i] == state.v[i - 1] for i in range(1, kk)):
                    report.failures.append(
                        f"no pair after undoing {rec.rule.value} on {_fail_payload(t)}"
                    )


SUITES: dict[str, Callable[[int, Report], None]] = {
    "counts": _suite_counts,
    "involution": _suite_involution,
    "oracle": _suite_oracle,
    "lemma1": _suite_lemma1,
    "bijection-n2": _suite_bijection_n2,
    "n1-restriction": _suite_n1,
    "n2k-classes": _suite_n2k,
    "statistics": _suite_statistics,
    "asm-roundtrip": _suite_asm_roundtrip,
    "rule-trace-lemmas": _suite_trace_lemmas,
}


def verify(suite: str, n_max: int) -> Report:
    """Run a named property suite for every size 1..n_max."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if n_max < 1:
        raise ValueError(f"verify needs n_max >= 1, got {n_max}")
    start = time.monotonic()
    report = Report(suite, n_max)
    for n in range(1, n_max + 1):
        SUITES[suite](n, report)
    report.failures.sort()
    report.millis = int((time.monotonic() - start) * 1000)
    return report

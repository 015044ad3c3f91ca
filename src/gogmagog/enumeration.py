"""Exhaustive generators, counters, and the verification harness.

Each triangle family is described once: `_tops` gives its top rows and
`_lower_rows` its row function, every row that may sit below a given
one, both in lexicographic order.  Raw GT rows are the product of their
interlacing intervals; Gog and Magog rows take the same product with
their conditions (pinned trapezoid cells, strict rows, the Magog cap)
applied per row.  `_rows` fills each top row, with `_gt_fill` for raw GT
and the recursion `_fill_below` otherwise, so triangles come in
lexicographic order of their top-down reading.  GOGAm families are the
involution's images of Magog families, sorted one top row at a time; a
filtering generator over bounded triangles is the cross-check.  `count`
reads the same two functions, generating nothing.

`verify` runs one of the named property suites up to a given size and
returns a structured report; every suite is deterministic.  The
`involution` and `oracle` suites run on bare top-down rows, through the
per-size row functions of both involution routes fetched once per size.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from itertools import (
    accumulate, chain, combinations, combinations_with_replacement, product, repeat
)
from math import comb, factorial
from operator import lt
from typing import Callable, Generator, Iterable, Iterator, NamedTuple

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
    BijectionStateError,
    Rule,
    _SUBTLE,
    _Diagonals,
    _forward_at,
    _gog_trapezoid,
    _image_check,
    _inverse_at,
    _state_rows,
    covering_subtraction_map,
    gog_to_gogam_n2,
    magog_row_statistic,
    statistic_x11,
)
from .schutzenberger import _involution, is_gogam, schutzenberger, schutzenberger_diagonal
from .tableaux import _word_route
from .triangles import (
    Family,
    GtTriangle,
    _check_int,
    _check_size,
    _per_size,
    _straight_line,
    format_triangle,
    inversions,
    is_gog_trapezoid_n2k,
    is_magog_trapezoid_n2k,
    is_trapezoid,
)

_Row = tuple[int, ...]
_Rows = tuple[_Row, ...]  # a triangle's top-down rows


@dataclass(frozen=True)
class FamilySpec:
    """What to enumerate: family, size, optional trapezoid width and,
    for raw Gelfand-Tsetlin triangles, a mandatory entry bound."""

    family: Family
    n: int
    k: int | None = None
    bound: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown family {self.family!r}")
        _check_size(self.n)
        for name, value in (("k", self.k), ("bound", self.bound)):
            if value is not None:
                _check_int(value, name)
        if self.k is not None and not (1 <= self.k <= self.n):
            raise ValueError(f"trapezoid width must be in 1..{self.n}")
        if self.family is Family.GT:
            if self.bound is None:
                raise ValueError("raw Gelfand-Tsetlin enumeration needs a bound")
            if self.k is not None:
                raise ValueError("trapezoids are defined per family, not for raw GT")
        elif self.bound is not None:
            raise ValueError("an entry bound applies only to raw GT enumeration")


def asm_number(n: int) -> int:
    """The product formula 1, 2, 7, 42, 429, 7436, ... evaluated exactly."""
    _check_size(n)
    value = Fraction(1)
    for j in range(n):
        value *= Fraction(factorial(3 * j + 1), factorial(n + j))
    if value.denominator != 1:
        raise AssertionError("product formula must be an integer")
    return value.numerator


def _fill_below(rows: _Rows, lower_rows: Callable[[_Row], Iterable[_Row]]) -> Iterator[_Rows]:
    """The top-down rows of every triangle whose top rows are ``rows``,
    each lower row drawn from ``lower_rows(above)`` in the order it
    gives; lexicographic row functions give lexicographic triangles.  A
    plain recursion, so each partial triangle is freed by reference
    counting."""
    above = rows[-1]
    if len(above) == 1:
        yield rows
        return
    for row in lower_rows(above):
        yield from _fill_below((*rows, row), lower_rows)


def _gt_rows(above: _Row) -> Iterable[_Row]:
    """The product of the interlacing intervals [above[j], above[j+1]]."""
    return product(*map(range, above, [x + 1 for x in above[1:]]))


def _gog_rows(k: int | None, above: _Row) -> Iterable[_Row]:
    """`_gt_rows` with each cell (i, j), i - j >= k, pinned to j,
    filtered for strictly increasing rows."""
    i = len(above) - 1
    ranges = [
        range(max(lo, j), min(hi, j) + 1) if k is not None and i - j >= k else range(lo, hi + 1)
        for j, lo, hi in zip(range(1, i + 1), above, above[1:])
    ]
    return (row for row in product(*ranges) if all(map(lt, row, row[1:])))


def _magog_rows(k: int | None, above: _Row) -> Iterable[_Row]:
    """`_gt_rows` with cell (i, j) capped at j, as x[i,j] <= x[j,j] <= j
    by interlacing, or pinned to 1 where i - j >= k."""
    i = len(above) - 1
    caps = [1 if k is not None and i - j >= k else j for j in range(1, i + 1)]
    return product(*map(range, above, [min(x, cap) + 1 for x, cap in zip(above[1:], caps)]))


def _gt_fill_kernel(n: int) -> Callable[[_Row], Iterator[_Rows]]:
    """``_fill_below((top,), _gt_rows)`` for a top row of size n as one
    straight-line generator: one ``for`` per lower row over the product
    of its interlacing intervals, the row unpacked into the locals the
    next row's ranges read, yielding the top-down row tuples.

    One loop per row, not per cell: CPython nests at most 20 blocks
    statically, so a loop per cell fails to compile from n = 7 on, while
    n - 1 row loops stay within it up to the cap.
    """
    body = []
    for r in range(1, n):
        indent = "    " * r
        ranges = ", ".join(f"range(x{r - 1}_{c}, x{r - 1}_{c + 1} + 1)" for c in range(n - r))
        body.append(f"{indent}for r{r} in product({ranges}):")
        if r < n - 1:
            body.append(f"{indent}    " + "".join(f"x{r}_{c}, " for c in range(n - r)) + f"= r{r}")
    body.append("    " * n + "yield rows, " + "".join(f"r{r}, " for r in range(1, n)))
    top = "".join(f"x0_{c}, " for c in range(n))
    return _straight_line(n, top, body, "raw gt", product=product)


def _gt_fill_loop(top: _Row) -> Iterator[_Rows]:
    """`_gt_fill_kernel` for a top row of any size: the row recursion."""
    return _fill_below((top,), _gt_rows)


# the top-down rows of every GT triangle with a given top row of size n
_gt_fill = _per_size(_gt_fill_kernel, _gt_fill_loop)


def _tops(spec: FamilySpec) -> Iterator[_Row]:
    """The family's top rows in lexicographic order: weakly increasing over
    1..bound (GT), 1..n itself (Gog), or weakly increasing over 1..n with cells
    (n, j), j <= n - k, pinned to 1 (Magog; GOGAm too, as the involution keeps it)."""
    n, k = spec.n, spec.k
    if spec.family is Family.GT:
        assert spec.bound is not None
        return combinations_with_replacement(range(1, spec.bound + 1), n)
    if spec.family is Family.GOG:
        return iter((tuple(range(1, n + 1)),))
    free = n if k is None else k
    return ((1,) * (n - free) + tail for tail in combinations_with_replacement(range(1, n + 1), free))


def _lower_rows(spec: FamilySpec) -> Callable[[_Row], Iterable[_Row]]:
    """The family's row function (Magog's for a GOGAm family)."""
    if spec.family is Family.GT:
        return _gt_rows
    return partial(_gog_rows if spec.family is Family.GOG else _magog_rows, spec.k)


def _rows(spec: FamilySpec) -> Iterator[_Rows]:
    """The top-down rows of every member of the family, in lexicographic
    order: each top row of `_tops` filled by `_gt_fill` of the size (GT)
    or by `_fill_below` over `_lower_rows`.

    A GOGAm family is the involution's image of the Magog family.  Every
    Bender-Knuth reflection acts on a row below the top, so the images
    of one top row's Magog triangles keep that top row, and sorting
    them one top row at a time gives the sorted stream of all of them.
    """
    n, tops = spec.n, _tops(spec)
    if spec.family is Family.GT:
        return chain.from_iterable(map(_gt_fill(n), tops))
    lower_rows = _lower_rows(spec)
    fills = (_fill_below((top,), lower_rows) for top in tops)
    if spec.family is Family.GOGAM:
        involution = _involution(n)
        fills = (sorted(map(involution, fill)) for fill in fills)
    return chain.from_iterable(fills)


def _generate_gogam_by_filter(n: int, k: int | None) -> Iterator[GtTriangle]:
    """Cross-check route: bounded triangles filtered by the GOGAm test.

    Complete because a GOGAm triangle has corner at most n and the
    corner dominates every entry.
    """
    for t in generate(FamilySpec(Family.GT, n, bound=n)):
        if k is not None and not is_trapezoid(t, Family.GOGAM, k):
            continue
        if is_gogam(t):
            yield t


def generate(spec: FamilySpec) -> Iterator[GtTriangle]:
    """Stream every member of the family exactly once, deterministically."""
    return map(GtTriangle._trusted, _rows(spec))


def generate_asms(n: int) -> Iterator[Asm]:
    """Direct row-by-row enumeration, independent of the Gog bijection.

    Column partial sums stay in {0,1} and every finished row sums to 1;
    those two prunes are exactly the alternating-sign conditions.
    """
    _check_size(n)
    return _place_asm(n, [0] * n, [], [0] * n, 0, 0)


def _place_asm(
    n: int, cols: list[int], rows: list[tuple[int, ...]], row: list[int], j: int, rsum: int
) -> Iterator[Asm]:
    """Every completion of `generate_asms` from cell j of ``row`` on,
    with ``rows`` the finished rows, ``cols`` the column sums over them
    and row[:j], and ``rsum`` the sum of row[:j]; entries -1, 0, 1 are
    tried in that order.  A top-level recursion, not a closure, so
    reference counting alone frees every frame."""
    if j == n:
        if rsum == 1:
            rows.append(tuple(row))
            if len(rows) == n:
                yield Asm(tuple(rows))
            else:
                yield from _place_asm(n, cols, rows, [0] * n, 0, 0)
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
        yield from _place_asm(n, cols, rows, row, j + 1, rsum + e)
        cols[j] -= e
        row[j] = 0


def count(spec: FamilySpec) -> int:
    """How many members the family has, generating none: the number of ways
    to reach each row, carried down from `_tops` one `_lower_rows` level at a time.
    The top rows stream in, one way each, so only the levels below are stored."""
    lower_rows = _lower_rows(spec)
    ways: Iterable[tuple[_Row, int]] = zip(_tops(spec), repeat(1))
    for _ in range(spec.n - 1):
        below: Counter[_Row] = Counter()
        for above, w in ways:
            for row in lower_rows(above):
                below[row] += w
        ways = below.items()
    return sum(w for _, w in ways)


def _count_n2(family: Family, n: int) -> int:
    """Number of (n,2) Gog or Magog trapezoids, by a transfer over rows.

    Cells with i - j >= 2 are pinned, to j (Gog) or to 1 (Magog), so
    row i is free only in p = x[i,i-1] and q = x[i,i].  The pinned cells
    interlace among themselves, and row i interlaces with row i+1 =
    (..., pin(i-1), p', q') exactly when pin(i-1) <= p <= p' <= q <= q'.
    Gog rows below the top are strict, which leaves p < q (the pins
    already sit below p); Magog caps q <= i.  The top row is 1..n (Gog)
    or ends in any 1 <= p <= q <= n (Magog); row 1 is one entry x with
    p <= x <= q, and x <= 1 for Magog.

    ``counts[p][q]`` is the number of ways to fill rows n..i so that row
    i ends in (p, q).  The next row's count at (p, q) is the sum of
    ``counts`` over the rectangle p <= p' <= q, q' >= q: suffix sums
    along q', then a running sum down p.  Each row costs O(n^2), the
    count O(n^3).  Independent of `_walk_n2`'s pair ranges and of the
    generators, so the three routes can disagree.
    """
    if family not in (Family.GOG, Family.MAGOG):
        raise ValueError(f"no (n,2) count for family {family}")
    _check_size(n)
    if n == 1:
        return 1
    gog = family is Family.GOG
    counts = [[0] * (n + 2) for _ in range(n + 2)]
    if gog:
        counts[n - 1][n] = 1
    else:
        for q in range(1, n + 1):
            for p in range(1, q + 1):
                counts[p][q] = 1
    for i in range(n - 1, 1, -1):
        # tails[p'][q] = sum of counts[p'][q'] over q' >= q
        tails = [list(accumulate(reversed(row)))[::-1] for row in counts]
        low = i - 1 if gog else 1  # pin(i-1) = x[i+1,i-1]
        counts = [[0] * (n + 2) for _ in range(n + 2)]
        for q in range(low, (n if gog else i) + 1):
            total = tails[q][q]
            if not gog:
                counts[q][q] = total
            for p in range(q - 1, low - 1, -1):
                total += tails[p][q]
                counts[p][q] = total
    if gog:
        return sum(c * (q - p + 1) for p, row in enumerate(counts) for q, c in enumerate(row))
    return sum(counts[1])  # x <= 1 needs p = 1


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
        return json.dumps(asdict(self))

    def render(self) -> str:
        lines = [
            f"suite {self.suite} up to n={self.n}: "
            f"{self.checks} checks, {len(self.failures)} failures, {self.millis} ms"
        ]
        for f in self.failures:
            lines.append(f"  FAIL {f}")
        for key in sorted(self.histogram):
            lines.append(f"  {key}: {self.histogram[key]}")
        return "\n".join(lines)


def _fail_payload(t: GtTriangle) -> str:
    return format_triangle(t).replace("\n", " / ").strip(" /")


def _suite_counts(n: int, report: Report) -> None:
    streams = generate(FamilySpec(Family.GOG, n)), generate(FamilySpec(Family.MAGOG, n))
    want = asm_number(n)
    report.checks += 3
    for label, stream in zip(("gog", "magog", "asm"), (*streams, generate_asms(n))):
        got = sum(1 for _ in stream)
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
    involution = _involution(n)
    for rows in _rows(FamilySpec(Family.GT, n, bound=n + 1)):
        report.checks += 1
        image = involution(rows)
        if involution(image) != rows:
            failure = "involution broke"
        elif image[0][-1] != rows[0][-1]:  # the corner x[n,n]
            failure = "corner moved"
        else:
            continue
        report.failures.append(f"{failure} on {_fail_payload(GtTriangle._trusted(rows))}")


def _suite_oracle(n: int, report: Report) -> None:
    """Bender-Knuth route against the word route, on bare rows; a word
    route that falls short (None) is a disagreement like any other."""
    involution, word_route = _involution(n), _word_route(n)
    for rows in _rows(FamilySpec(Family.GT, n, bound=n + 1)):
        report.checks += 1
        if involution(rows) != word_route(rows):
            payload = _fail_payload(GtTriangle._trusted(rows))
            report.failures.append(f"oracle disagreement on {payload}")


def _brute_diagonal(t: GtTriangle) -> tuple[int, ...]:
    """Literal maximization over all strictly decreasing chains."""
    n = t.n
    values = [0] * n
    values[n - 1] = t[n, n]
    for k in range(1, n):
        steps = n - k
        best = None
        for combo in combinations(range(1, n), steps):
            cols = (n,) + tuple(sorted(combo, reverse=True))
            total = 0
            for i in range(steps):
                total += t[cols[i] + i, cols[i]] - t[cols[i + 1] + i, cols[i + 1]]
            total += t[cols[steps] + steps, cols[steps]]
            if best is None or total > best:
                best = total
        values[k - 1] = best
    return tuple(values)


def _suite_lemma1(n: int, report: Report) -> None:
    for t in generate(FamilySpec(Family.GT, n, bound=n + 1)):
        report.checks += 1
        diag = schutzenberger_diagonal(t)
        brute = _brute_diagonal(t)
        s = schutzenberger(t)
        s_diag = tuple(s[k, k] for k in range(1, n + 1))
        if diag != brute:
            report.failures.append(f"dp != brute force on {_fail_payload(t)}")
        elif diag != s_diag:
            report.failures.append(f"dp != image diagonal on {_fail_payload(t)}")


class _Edge(NamedTuple):
    """One edge of the (n,2) prefix tree: the forward step took
    ``before`` by ``pair`` to ``after``, and the inverse step of
    ``after`` returned ``undone``, (u, v, pair, tag, l).  ``tag`` and
    ``l`` are what the public step's record holds: the rule, or BASE at
    k = 1."""

    before: _Diagonals
    after: _Diagonals
    pair: tuple[int, int]
    tag: Rule
    l: int | None
    undone: tuple[_Row, _Row, tuple[int, int], Rule, int | None]


_Leaf = tuple[_Diagonals, list[_Edge], int]


def _walk_n2(n: int, usage: dict[Rule, int] | None = None) -> Iterator[_Leaf]:
    """Every (n,2) Gog trapezoid, as the path of its diagonal pairs
    (b_k, a_k) through their prefix tree, depth first.

    The ranges are exactly the pair sequences `extract_diagonals`
    returns: b_1 = n-1 and a_1 in [n-1, n]; for k >= 2, b_k in
    [n-k, min(b_{k-1}, a_{k-1}-1)] and a_k in [b_k, a_{k-1}].  Each edge
    runs the steps once, forward and then inverse on its result, on
    bare diagonals, so trapezoids that share a prefix share its steps;
    each node fetches the steps of its size, `_forward_at` and
    `_inverse_at`, once.  Yields the leaf's (u, v), the path (one list,
    reused: copy it to keep it) and the worst edge grade on the path: 0
    when every inverse returned its parent's diagonals, pair, tag and l,
    1 when only a tag or l differs, 2 when diagonals or a pair differ.
    Since both steps are pure, a path of grade 0 is exactly a trapezoid
    whose full inverse retraces it.  Raises `ValueError` for n < 1 at
    the call, before any step.

    A node at k = n - 1 yields its leaves from its own loop, each child
    (u, v) one tuple that is both the edge's ``after`` and the leaf.
    Each node returns its leaf count, which ``usage`` adds under the
    edge's tag once per edge: the count of tags over all paths, keyed
    in order of first appearance (an inner edge's key goes in before
    its subtree).
    """
    _check_size(n)
    path: list[_Edge] = []
    tally = {} if usage is None else usage
    new_edge = tuple.__new__  # skips the NamedTuple constructor, a Python-level call

    def grow(
        node: _Diagonals, b_prev: int, a_prev: int, grade: int
    ) -> Generator[_Leaf, None, int]:
        u, v = node
        k = len(u)
        forward, inverse = _forward_at(k), _inverse_at(k + 1)
        last = k == n - 1
        leaves = 0
        for b in range(n - k, min(b_prev, a_prev - 1) + 1):
            for a in range(b, a_prev + 1):
                new_u, new_v, tag, l = forward(n, u, v, b, a)
                back_u, back_v, pair, again, l_again = inverse(n, new_u, new_v)
                if k == 1:  # both records say BASE; only l can differ
                    tag = again = Rule.BASE
                if back_u != u or back_v != v or pair != (b, a):
                    worst = 2
                elif again is not tag or l_again != l:
                    worst = max(grade, 1)
                else:
                    worst = grade
                after = new_u, new_v
                undone = back_u, back_v, pair, again, l_again
                path.append(new_edge(_Edge, (node, after, (b, a), tag, l, undone)))
                if last:
                    yield after, path, worst
                    weight = 1
                else:  # the tag's key goes in before its subtree's
                    tally.setdefault(tag, 0)
                    weight = yield from grow(after, b, a, worst)
                tally[tag] = tally.get(tag, 0) + weight
                leaves += weight
                path.pop()
        return leaves

    if n == 1:
        return iter([(((1,), ()), path, 0)])
    # b_0 = n-1 and a_0 = n give the k = 1 ranges
    return grow(((n,), ()), n - 1, n, 0)


def _n2_trapezoids(
    n: int, usage: dict[Rule, int] | None = None
) -> Iterator[tuple[GtTriangle, GtTriangle, list[_Edge]]]:
    """Every (n,2) Gog trapezoid with its `gog_to_gogam_n2` image and
    its `_walk_n2` path (reused, as there), read off one walk that
    tallies its tags into ``usage``.  Keeps the public map's
    postcondition that the image is a (n,2) GOGAm trapezoid, through
    `_image_check`."""
    leaves = _walk_n2(n, usage)  # refuses a bad n before a kernel is built for it
    check = _image_check(n)
    for leaf, path, _ in leaves:
        if check(leaf):
            raise BijectionStateError("forward image failed the GOGAm test")
        gog = _gog_trapezoid(n, [e.pair for e in path])
        yield gog, GtTriangle._trusted(_state_rows(n, *leaf)), path


def _path_payload(n: int, path: list[_Edge]) -> str:
    """`_fail_payload` of the Gog trapezoid a walk path spells out."""
    return _fail_payload(_gog_trapezoid(n, [edge.pair for edge in path]))


_GRADE_FAILURES = (None, "traces not mirrored", "round trip failed")
_IMAGE_FAILURES = (None, "image not GOGAm", "involution image not Magog")

def _suite_bijection_n2(n: int, report: Report) -> None:
    """Every (n,2) Gog trapezoid through the walk, its image checked and
    counted on the leaf's bare diagonals (u, v).

    `_image_check` of the size gives the checks of `is_trapezoid`,
    `is_gogam` and, on the involution's image, `is_magog`; the pinned
    cells are its own materialization of the leaf, the constant 1.  The
    `rule-*` counts are the walk's tally, the count of each rule over
    all paths, new keys in order of first appearance along the walk.
    The distinct-images count keeps one key per image, the bytes
    of u + v.  It is exact: the image copies u and v and fills the rest
    with 1, so distinct images have distinct (u, v); the key has the
    fixed length 2n-1 bytes, so distinct (u, v) give distinct keys; and
    a kept image passed the GOGAm test, so its entries lie in 1..n and
    each fits a byte.  Hence n <= 255.
    """
    if n > 255:
        raise ValueError(f"bijection-n2 keys its images by bytes, so n <= 255, got {n}")
    check = _image_check(n)
    usage: dict[Rule, int] = {}
    images = set()
    leaves = 0
    for leaf, path, grade in _walk_n2(n, usage):
        leaves += 1
        failure = _IMAGE_FAILURES[check(leaf)] or _GRADE_FAILURES[grade]
        if failure:
            report.failures.append(f"{failure} for {_path_payload(n, path)}")
        else:
            u, v = leaf
            images.add(bytes(u + v))
    report.checks += leaves
    histogram = report.histogram
    for rule, times in usage.items():
        key = f"rule-{rule.value}"
        histogram[key] = histogram.get(key, 0) + times
    gogs = _count_n2(Family.GOG, n)
    magogs = _count_n2(Family.MAGOG, n)
    report.checks += 1
    if not (leaves == gogs == len(images) == magogs):
        report.failures.append(
            f"n={n}: cardinalities differ (walk {leaves}, gog {gogs}, "
            f"images {len(images)}, magog {magogs})"
        )
    histogram[f"trapezoids-{n}"] = gogs


def _suite_n1(n: int, report: Report) -> None:
    catalan = comb(2 * n, n) // (n + 1)
    trapezoids = list(generate(FamilySpec(Family.GOG, n, k=1)))
    report.checks += 1
    if len(trapezoids) != catalan:
        report.failures.append(f"n={n}: (n,1) count {len(trapezoids)} != {catalan}")
    for t in trapezoids:
        report.checks += 1
        via_rules, _ = gog_to_gogam_n2(t)
        direct = covering_subtraction_map(t)
        if via_rules != direct:
            report.failures.append(f"subtraction map disagrees on {_fail_payload(t)}")
        elif not (is_trapezoid(direct, Family.GOGAM, 1) and is_gogam(direct)):
            report.failures.append(f"subtraction image not GOGAm on {_fail_payload(t)}")


def _least_class(predicate: Callable[[GtTriangle, int], bool], t: GtTriangle) -> int:
    """The least k in 1..n with ``predicate(t, k)``, n + 1 if there is
    none, by bisection: the classes of `is_gog_trapezoid_n2k` and of
    `is_magog_trapezoid_n2k` are nested, class k inside class k + 1."""
    return bisect_left(range(1, t.n + 1), True, key=partial(predicate, t)) + 1


def _suite_n2k(n: int, report: Report) -> None:
    """Each class k of (n,2) Gog trapezoids, by `is_gog_trapezoid_n2k`:
    the involutions of its images must be the Magog trapezoids that
    `is_magog_trapezoid_n2k` selects.  Each trapezoid's least class is
    found once, by `_least_class`, and class k holds those whose least
    class is at most k.  Each image's involution is computed once, as
    bare rows, and the classes compare rows."""
    involution = _involution(n)
    trapezoids = [(_least_class(is_gog_trapezoid_n2k, gog), involution(image.rows))
                  for gog, image, _ in _n2_trapezoids(n)]
    magogs = [(_least_class(is_magog_trapezoid_n2k, m), m.rows)
              for m in generate(FamilySpec(Family.MAGOG, n, k=min(2, n)))]
    for k in range(1, n + 1):
        klass = [magog for least, magog in trapezoids if least <= k]
        image_magogs = set(klass)
        target = {rows for least, rows in magogs if least <= k}
        report.checks += 1
        if image_magogs != target:
            report.failures.append(
                f"n={n} k={k}: class image has {len(image_magogs)} elements, "
                f"predicate selects {len(target)}"
            )
        report.histogram[f"class-{n}-{k}"] = len(klass)


def _suite_statistics(n: int, report: Report) -> None:
    check, involution = _image_check(n), _involution(n)
    for leaf, path, _ in _walk_n2(n):
        report.checks += 1
        if check(leaf):
            raise BijectionStateError("forward image failed the GOGAm test")
        x11 = path[-1].pair[1] if path else 1  # the Gog trapezoid's a_{n-1}
        if leaf[0][-1] != x11:
            report.failures.append(f"bottom entry moved for {_path_payload(n, path)}")
        elif magog_row_statistic(GtTriangle._trusted(involution(_state_rows(n, *leaf)))) != x11:
            report.failures.append(f"row statistic disagrees for {_path_payload(n, path)}")
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


# the rules IIIb never follows
_I_OR_II = (Rule.I, Rule.II)


def _suite_trace_lemmas(n: int, report: Report) -> None:
    for _, path, _ in _walk_n2(n):
        prev = None  # the rule of the edge before
        for k, e in enumerate(path, 1):
            (u, v), (new_u, new_v), rule, l = e.before, e.after, e.tag, e.l
            if rule is Rule.BASE:  # the opening step: I lowers the corner, II keeps it
                rule = Rule.I if new_u[0] == u[0] - 1 else Rule.II
            if prev is not None:
                report.checks += 2
                if rule is Rule.IIIB and prev in _I_OR_II:
                    report.failures.append(f"IIIb follows {prev.value} on {_path_payload(n, path)}")
                if rule is Rule.IVB and prev not in _SUBTLE:
                    report.failures.append(f"IVb follows {prev.value} on {_path_payload(n, path)}")
            prev = rule
            if rule is Rule.IVB:
                report.checks += 1
                # the second diagonal just below the patch must sit one
                # above the new constant, for l cells
                if any(v[k - i - 1] != n - k + 1 for i in range(1, l + 1)):
                    report.failures.append(
                        f"IVb fired without the constant run on {_path_payload(n, path)}"
                    )
            if rule in _SUBTLE:
                report.checks += 1
                assert l is not None
                # IVb guarantees a pair strictly below the rewritten run;
                # IIIb only guarantees that the pair survives somewhere
                top = k - l if rule is Rule.IVB else k
                if not any(new_u[i] == new_v[i - 1] for i in range(1, top)):
                    report.failures.append(
                        f"no equality pair after {rule.value} on {_path_payload(n, path)}"
                    )
            # undoing the subtle rules must also leave an equality pair behind
            back_u, back_v, _, undone, _ = e.undone
            if undone in _SUBTLE:
                report.checks += 1
                if not any(back_u[i] == back_v[i - 1] for i in range(1, len(back_u))):
                    report.failures.append(
                        f"no pair after undoing {undone.value} on {_path_payload(n, path)}"
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
    _check_size(n_max, "n_max")
    start = time.monotonic()
    report = Report(suite, n_max)
    for n in range(1, n_max + 1):
        SUITES[suite](n, report)
    report.failures.sort()
    report.millis = int((time.monotonic() - start) * 1000)
    return report

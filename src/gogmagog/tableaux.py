"""Semistandard tableaux, reading words, and the word-level involution.

A Gelfand-Tsetlin triangle of size n encodes a semistandard Young
tableau on the alphabet 1..n: row i of the triangle, reversed, is the
shape of the sub-tableau of letters <= i.  Tableaux are kept in French
convention, ``rows[0]`` being the longest bottom row.

The involution is realised on words: read the tableau top row to bottom
row, reverse the word, swap each letter i for n+1-i, and row-insert the
result.  This is the independent oracle against which the triangle-level
composition of row reflections is checked.  The public stages
(`triangle_to_tableau`, `reading_word`, `complement_reverse`,
`rsk_insertion_tableau`, `tableau_to_triangle`) compute the word and
the tableau step by step, each checking its input; the RSK loop
`_insert` and the letter count `_count_letters` back them.  Every
tableau they build goes through the checked constructor `Ssyt(...)`.

`schutzenberger_via_words` runs the stages one after another at every
size.  `_rsk_lines` writes the same route for one size as straight-line
source, which the `oracle` suite's sweep in `enumeration` runs: the word
is a schedule of runs of equal letters fixed by n, and a weakly
increasing run row-inserts as one block, so the lines insert each run
on the tableau's letter counts (the piecewise-linear form of row
insertion; Kirillov 2001, Noumi-Yamada 2004) and the triangle is read
off the counts.  `_staged_route`, the stages on bare top-down rows,
runs in the sweep's loop and is the lines' letter-at-a-time test
reference.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import repeat

from .triangles import GtTriangle, _Value, _check_size, _int_rows

Word = tuple[int, ...]


class Ssyt(_Value):
    """French-convention semistandard tableau over the alphabet 1..n."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: tuple[tuple[int, ...], ...], n: int) -> None:
        _check_size(n, "alphabet size")
        object.__setattr__(self, "rows", _int_rows(rows))
        object.__setattr__(self, "n", n)


def validate_ssyt(s: Ssyt) -> list[str]:
    """Violations of the semistandard conditions (empty = valid)."""
    bad = []
    for r, row in enumerate(s.rows, start=1):
        if any(x < 1 or x > s.n for x in row):
            bad.append(f"row {r} has letters outside 1..{s.n}")
        if any(a > b for a, b in zip(row, row[1:])):
            bad.append(f"row {r} is not weakly increasing")
    for r in range(len(s.rows) - 1):
        lower, upper = s.rows[r], s.rows[r + 1]
        if len(upper) > len(lower):
            bad.append(f"row {r + 2} is longer than row {r + 1}")
            continue
        if any(upper[c] <= lower[c] for c in range(len(upper))):
            bad.append(f"columns between rows {r + 1} and {r + 2} not strict")
    return bad


def triangle_to_tableau(t: GtTriangle) -> Ssyt:
    """Tableau whose letters <= i fill the shape given by triangle row i.

    Tableau row r (0-based) holds x[i, i-r] - x[i-1, i-1-r] copies of
    letter i for i = r+1..n, reading x[r, 0] as 0: the entries of the
    diagonal that starts at x[r+1, 1] and climbs to x[n, n-r].  A
    negative difference (on a triangle that does not interlace) adds
    no letters, so every triangle gives exactly n rows.
    """
    rows = t.rows
    n = len(rows)
    out = []
    for r in range(n):
        row: list[int] = []
        have = 0
        for i in range(r + 1, n + 1):
            length = rows[n - i][i - r - 1]
            row += [i] * (length - have)
            have = length
        out.append(row)
    return Ssyt(out, n)


def tableau_to_triangle(s: Ssyt) -> GtTriangle:
    """Inverse of `triangle_to_tableau`.

    The tableau must be semistandard on 1..``s.n`` with exactly n rows,
    none empty (fewer rows would give zero entries); otherwise
    `ValueError` gives `_tableau_problem`'s reason.  Entry x[i, i-r] is
    the number of letters <= i in tableau row r.
    """
    if problem := _tableau_problem(s):
        raise ValueError(problem)
    return GtTriangle._trusted(_count_letters(s.rows, s.n))


def _count_letters(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The top-down triangle rows of n ``rows`` that form a semistandard
    tableau on 1..n, unchecked: x[i, i-r] counts the letters <= i in
    row r, found by bisection."""
    # rows r >= i hold no letter <= i
    return tuple(
        tuple(map(bisect_right, rows[i - 1::-1], repeat(i))) for i in range(n, 0, -1)
    )


def _tableau_problem(s: Ssyt) -> str | None:
    """Why `tableau_to_triangle` rejects ``s``, or None when it takes it:
    the alphabet bound first, then a letter <= i above row i (largest i
    first), then everything `validate_ssyt` and the empty-row check
    report, then a row count other than n."""
    n = s.n
    if any(x > n for row in s.rows for x in row):
        return f"tableau letters exceed the alphabet bound {n}"
    for i in range(n, 0, -1):
        if any(x <= i for row in s.rows[i:] for x in row):
            return f"letter <= {i} appears above tableau row {i}"
    bad = validate_ssyt(s)
    bad += [f"row {r} is empty" for r, row in enumerate(s.rows, start=1) if not row]
    if bad:
        return "tableau is not semistandard: " + "; ".join(bad)
    if len(s.rows) != n:
        return f"tableau has {len(s.rows)} rows, needs {n}"
    return None


def reading_word(s: Ssyt) -> Word:
    """Concatenate rows from the top row down, each left to right."""
    out: list[int] = []
    for row in reversed(s.rows):
        out.extend(row)
    return tuple(out)


def _check_word(word: Word, n: int) -> None:
    """The alphabet size must pass `_check_size`, and every letter must
    be an ``int`` (not a float, bool or string) in 1..n."""
    _check_size(n, "alphabet size")
    if not set(map(type, word)) <= {int}:  # bool is an int subclass
        raise ValueError(f"letters must be integers, got {word!r}")
    if word and (min(word) < 1 or max(word) > n):
        raise ValueError(f"letters must lie in 1..{n}")


def complement_reverse(word: Word, n: int) -> Word:
    """Reverse the word and replace each letter i by n+1-i."""
    _check_word(word, n)
    return tuple(n + 1 - x for x in reversed(word))


def rsk_insertion_tableau(word: Word, n: int) -> Ssyt:
    """Row-insertion tableau of a word.

    Each letter bumps the leftmost strictly greater entry of the bottom
    row, the bumped entry moving up a row; rows stay weakly increasing
    and columns strictly increasing.  The bottom row length equals the
    longest nondecreasing subsequence of the word.
    """
    _check_word(word, n)
    return Ssyt(_insert(word), n)


def _insert(word: Sequence[int]) -> list[list[int]]:
    """The rows of `rsk_insertion_tableau`, bottom row first, unchecked."""
    rows: list[list[int]] = []
    for x in word:
        for row in rows:
            if x >= row[-1]:
                row.append(x)
                break
            pos = bisect_right(row, x)
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    return rows


def _run_source(x: int, n: int, filled: set[tuple[int, int]]) -> list[str]:
    """Source lines that row-insert a run of ``d`` copies of letter x
    into a tableau kept as letter counts: ``m{q}_{i}`` copies of letter
    i in row q, bottom row first.  ``filled`` holds the counts that
    earlier lines may have made non-zero, and gains those these lines
    may.

    A weakly increasing block bumps a weakly increasing block into the
    next row (the row-bumping lemma), so each row takes the block in
    one pass over its letters i >= x+q, with ``c{i}`` letters i coming
    in and h the letters that came in below i and still bump: each i
    gives up t = min(h, m{q}_{i}) letters to the next row, and keeps
    c{i} - t more.  Where h or the count is known to be 0 nothing is
    bumped, and after letter n h is not written.
    """
    lines: list[str] = []
    incoming = {x: "d"}
    q = 0
    while incoming:
        bumped, carry = {}, False
        for i in range(x + q, n + 1):
            b, m, c, more = incoming.get(i), f"m{q}_{i}", f"c{i}", i < n
            if carry and (q, i) in filled:
                # t is h when h < m{q}_{i}, else m{q}_{i}
                if b is None:
                    then = [f"{m} -= h", f"{c} = h"] + ["h = 0"] * more
                    other = [f"h -= {m}"] * more + [f"{c}, {m} = {m}, 0"]
                else:
                    then = [f"{m} += {b} - h", f"{c}, h = h, {b}" if more else f"{c} = h"]
                    other = [f"h += {b} - {m}"] * more + [f"{c}, {m} = {m}, {b}"]
                lines += [f"if h < {m}:", *("    " + line for line in then)]
                lines += ["else:", *("    " + line for line in other)]
                bumped[i] = c
            elif b is not None:
                lines.append(f"{m} += {b}" if (q, i) in filled else f"{m} = {b}")
                lines += [f"h += {b}" if carry else f"h = {b}"] * more
                filled.add((q, i))
                carry = True
        incoming = bumped
        q += 1
    return lines


def _rsk_lines(n: int) -> tuple[list[str], list[str], list[list[str]]]:
    """The word route on size n as source lines over the cell locals
    ``x{r}_{c}`` of the top-down rows, which no line writes: the
    complement-reversed word read as runs, tableau rows bottom row
    first, each right to left, and each run row-inserted as one block
    by `_run_source` behind ``if d > 0:``.  Tableau row r = n-1-s reads
    the diagonal ``x{k}_{s-k}``, k = 0..s, and ``d``, the difference of
    its cells k-1 and k (cell s+1 read as 0), counts the written letter
    k.  Returned with the lines that sum the letter counts along each
    row, after which cell (r, c) of the image is the count named in
    row r, column c of the third value; x[i, i-q] is the sum of m{q}_l
    over l <= i.  The tableau falls short, as the public stages find
    it, when ``m{n-1}_{n}``, which the sums leave alone, is 0."""
    counts = [f"m{q}_{i}" for q in range(n) for i in range(q + 1, n + 1)]
    body = ["    " + " = ".join(counts) + " = 0"]
    filled: set[tuple[int, int]] = set()
    for s in range(n - 1, -1, -1):
        for k in range(1, s + 2):
            run = f"x{k - 1}_{s - k + 1} - x{k}_{s - k}" if k <= s else f"x{s}_0"
            body += [f"    d = {run}", "    if d > 0:"]
            body += ["        " + line for line in _run_source(k, n, filled)]
    sums = [f"    m{q}_{i} += m{q}_{i - 1}" for q in range(n) for i in range(q + 2, n + 1)]
    image = [[f"m{q}_{i}" for q in range(i - 1, -1, -1)] for i in range(n, 0, -1)]
    return body, sums, image


def _insertion_tableau(t: GtTriangle) -> Ssyt:
    """The word route's public stages, one after another: the insertion
    tableau of the complement-reversed reading word of t's tableau.  The
    letters are checked once, by `complement_reverse`, and insertion
    keeps them in 1..n, so `_insert` runs without a second check."""
    n = len(t.rows)
    word = complement_reverse(reading_word(triangle_to_tableau(t)), n)
    return Ssyt(_insert(word), n)


def _staged_route(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...] | None:
    """The word route on top-down ``rows`` of any size, through the
    public stages `_insertion_tableau`, with the letters counted by
    `_count_letters`; None when the insertion tableau has fewer than n
    rows, which happens only off GT."""
    n = len(rows)
    tableau = _insertion_tableau(GtTriangle._trusted(rows)).rows
    return _count_letters(tableau, n) if len(tableau) == n else None


def schutzenberger_via_words(t: GtTriangle) -> GtTriangle:
    """Involution image computed through the word pipeline.

    triangle -> tableau -> reading word -> complement-reverse -> RSK
    insertion tableau -> triangle.

    Every stage checks its input, apart from the insertion, whose
    letters `complement_reverse` has checked, and no stage touches a
    Bender-Knuth reflection.  When the tableau falls short (fewer than n
    rows, on a triangle that is not GT), `tableau_to_triangle` raises.
    """
    return tableau_to_triangle(_insertion_tableau(t))


def format_tableau(s: Ssyt) -> str:
    """The text format of `convert --to ssyt`: one line per row, top
    row first (shortest row on top), entries right-aligned."""
    width = max((len(str(x)) for row in s.rows for x in row), default=1)
    lines = []
    for row in reversed(s.rows):
        lines.append(" ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines) + "\n"

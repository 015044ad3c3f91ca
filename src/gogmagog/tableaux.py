"""Semistandard tableaux, reading words, and the word-level involution.

A Gelfand-Tsetlin triangle of size n encodes a semistandard Young
tableau on the alphabet 1..n: row i of the triangle, reversed, is the
shape of the sub-tableau of letters <= i.  Tableaux are kept in French
convention, ``rows[0]`` being the longest bottom row.

The involution is realised on words: read the tableau top row to bottom
row, reverse the word, swap each letter i for n+1-i, and row-insert the
result.  This is the independent oracle against which the triangle-level
composition of row reflections is checked.  `schutzenberger_via_words`
reads the complement-reversed word off the triangle in one pass and
row-inserts it without re-checking its letters; the public stages
(`triangle_to_tableau`, `reading_word`, `complement_reverse`,
`rsk_insertion_tableau`, `tableau_to_triangle`) compute the same word
and tableau step by step, and the route runs them on its error path.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import le, lt

from .triangles import GtTriangle, _check_size, _int_rows

Word = tuple[int, ...]


@dataclass(frozen=True)
class Ssyt:
    """French-convention semistandard tableau over the alphabet 1..n."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        _check_size(self.n, "alphabet size")
        object.__setattr__(self, "rows", _int_rows(self.rows))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], n: int) -> "Ssyt":
        """Wrap rows the library built itself: a tuple of int tuples.
        No coercion, no checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "rows", rows)
        object.__setattr__(s, "n", n)
        return s

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)


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
        out.append(tuple(row))
    return Ssyt._trusted(tuple(out), n)


def _is_ssyt_rows(rows: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Whether French-convention ``rows`` form a semistandard tableau on
    1..n with no empty row; stops at the first broken condition."""
    below: tuple[int, ...] | None = None
    for row in rows:
        # non-empty, letters in 1..n, weakly increasing
        if not row or row[0] < 1 or row[-1] > n or not all(map(le, row, row[1:])):
            return False
        # no longer than the row below, columns strict
        if below is not None and (len(row) > len(below) or not all(map(lt, below, row))):
            return False
        below = row
    return True


def tableau_to_triangle(s: Ssyt) -> GtTriangle:
    """Inverse of `triangle_to_tableau`.

    The tableau must be semistandard on 1..``s.n`` with exactly n rows,
    none empty (fewer rows would give zero entries); otherwise
    `ValueError` says why.  Entry x[i, i-r] is the number of letters
    <= i in tableau row r.
    """
    n = s.n
    rows = s.rows
    if len(rows) != n or not _is_ssyt_rows(rows, n):
        raise ValueError(_tableau_problem(s))
    return _count_letters(rows, n)


def _count_letters(rows: Sequence[Sequence[int]], n: int) -> GtTriangle:
    """The triangle of n ``rows`` that form a semistandard tableau on
    1..n, unchecked: x[i, i-r] counts the letters <= i in row r."""
    # rows r >= i hold no letter <= i
    return GtTriangle._trusted(tuple(
        tuple(map(bisect_right, rows[i - 1::-1], repeat(i))) for i in range(n, 0, -1)
    ))


def _tableau_problem(s: Ssyt) -> str:
    """Why `tableau_to_triangle` rejects ``s``: the alphabet bound first,
    then a letter <= i above row i (largest i first), then everything
    `validate_ssyt` and the empty-row check report, then too few rows."""
    n = s.n
    if any(x > n for row in s.rows for x in row):
        return f"tableau letters exceed the alphabet bound {n}"
    for i in range(n, 0, -1):
        if any(x <= i for row in s.rows[i:] for x in row):
            return f"letter <= {i} appears above tableau row {i}"
    bad = validate_ssyt(s)
    bad += [f"row {r} is empty" for r, row in enumerate(s.rows, start=1) if not row]
    if not bad:
        return f"tableau has {len(s.rows)} rows, needs {n}"
    return "tableau is not semistandard: " + "; ".join(bad)


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
    return Ssyt._trusted(tuple(map(tuple, _insert(word))), n)


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


def _complement_reversed_word(t: GtTriangle) -> list[int]:
    """``complement_reverse(reading_word(triangle_to_tableau(t)), n)``
    in one pass over the triangle.

    Tableau rows r = 0..n-1 are read bottom row first, each right to
    left, and letter i is written as n+1-i.  Row r holds
    x[i, i-r] - x[i-1, i-1-r] copies of letter i, as
    `triangle_to_tableau` reads it; in the top-down ``rows`` that
    diagonal is ``rows[k][s-k]`` for k = 0..s, with s = n-1-r, and the
    difference of its cells k-1 and k counts the written letter k,
    reading cell s+1 as 0.  A non-positive difference adds nothing.
    """
    rows = t.rows
    n = len(rows)
    word: list[int] = []
    for s in range(n - 1, -1, -1):
        prev = rows[0][s]
        for k in range(1, s + 1):
            cur = rows[k][s - k]
            word += [k] * (prev - cur)
            prev = cur
        word += [s + 1] * prev
    return word


def schutzenberger_via_words(t: GtTriangle) -> GtTriangle:
    """Involution image computed through the word pipeline.

    triangle -> tableau -> reading word -> complement-reverse -> RSK
    insertion tableau -> triangle.

    The complement-reversed reading word is read off the triangle in
    one pass (`_complement_reversed_word`) and row-inserted without a
    letter check: the library built it, so its letters are ints in
    1..n.  The insertion tableau is semistandard on 1..n with no empty
    row by construction, so its rows are converted without
    `tableau_to_triangle`'s check.  The one way it can fall short is to
    have fewer than n rows, on a triangle that is not GT; the route
    then runs the public stages one after another, and
    `tableau_to_triangle` raises.
    """
    n = t.n
    rows = _insert(_complement_reversed_word(t))
    if len(rows) != n:
        word = complement_reverse(reading_word(triangle_to_tableau(t)), n)
        return tableau_to_triangle(rsk_insertion_tableau(word, n))
    return _count_letters(rows, n)


def format_tableau(s: Ssyt) -> str:
    """The text format of `convert --to ssyt`: one line per row, top
    row first (shortest row on top), entries right-aligned."""
    width = max((len(str(x)) for row in s.rows for x in row), default=1)
    lines = []
    for row in reversed(s.rows):
        lines.append(" ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines) + "\n"

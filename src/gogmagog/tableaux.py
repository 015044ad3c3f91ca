"""Semistandard tableaux, reading words, and the word-level involution.

A Gelfand-Tsetlin triangle of size n encodes a semistandard Young
tableau on the alphabet 1..n: row i of the triangle, reversed, is the
shape of the sub-tableau of letters <= i.  Tableaux are kept in French
convention, ``rows[0]`` being the longest bottom row.

The involution is realised on words: read the tableau top row to bottom
row, reverse the word, swap each letter i for n+1-i, and row-insert the
result.  This is the independent oracle against which the triangle-level
composition of row reflections is checked.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .triangles import GtTriangle

Word = tuple[int, ...]


@dataclass(frozen=True)
class Ssyt:
    """French-convention semistandard tableau over the alphabet 1..n."""

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)

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
    """Tableau whose letters <= i fill the shape given by triangle row i."""
    n = t.n
    rows: list[list[int]] = []
    prev: tuple[int, ...] = ()
    for i in range(1, n + 1):
        shape = tuple(reversed(t.row(i)))
        for r, length in enumerate(shape):
            if r >= len(rows):
                rows.append([])
            have = prev[r] if r < len(prev) else 0
            rows[r].extend([i] * (length - have))
        prev = shape
    return Ssyt(tuple(tuple(r) for r in rows), n)


def tableau_to_triangle(s: Ssyt) -> GtTriangle:
    """Inverse of `triangle_to_tableau`; letters must not exceed ``s.n``."""
    n = s.n
    if any(x > n for row in s.rows for x in row):
        raise ValueError(f"tableau letters exceed the alphabet bound {n}")
    rows_top_down = []
    for i in range(n, 0, -1):
        counts = [sum(1 for x in row if x <= i) for row in s.rows]
        if any(c > 0 for c in counts[i:]):
            raise ValueError(f"letter <= {i} appears above tableau row {i}")
        shape = (counts[:i] + [0] * i)[:i]
        rows_top_down.append(tuple(reversed(shape)))
    return GtTriangle._trusted(tuple(rows_top_down))


def reading_word(s: Ssyt) -> Word:
    """Concatenate rows from the top row down, each left to right."""
    out: list[int] = []
    for row in reversed(s.rows):
        out.extend(row)
    return tuple(out)


def complement_reverse(word: Word, n: int) -> Word:
    """Reverse the word and replace each letter i by n+1-i."""
    if any(x < 1 or x > n for x in word):
        raise ValueError(f"letters must lie in 1..{n}")
    return tuple(n + 1 - x for x in reversed(word))


def rsk_insertion_tableau(word: Word, n: int) -> Ssyt:
    """Row-insertion tableau of a word.

    Each letter bumps the leftmost strictly greater entry of the bottom
    row, the bumped entry moving up a row; rows stay weakly increasing
    and columns strictly increasing.  The bottom row length equals the
    longest nondecreasing subsequence of the word.
    """
    rows: list[list[int]] = []
    for x in word:
        cur = x
        for row in rows:
            pos = bisect_right(row, cur)
            if pos == len(row):
                row.append(cur)
                cur = None
                break
            row[pos], cur = cur, row[pos]
        if cur is not None:
            rows.append([cur])
    return Ssyt(tuple(tuple(r) for r in rows), n)


def schutzenberger_via_words(t: GtTriangle) -> GtTriangle:
    """Involution image computed through the word pipeline.

    triangle -> tableau -> reading word -> complement-reverse -> RSK
    insertion tableau -> triangle.
    """
    n = t.n
    w = reading_word(triangle_to_tableau(t))
    return tableau_to_triangle(rsk_insertion_tableau(complement_reverse(w, n), n))


def format_tableau(s: Ssyt) -> str:
    """Debug rendering, top row first (shortest row on top)."""
    width = max((len(str(x)) for row in s.rows for x in row), default=1)
    lines = []
    for row in reversed(s.rows):
        lines.append(" ".join(str(x).rjust(width) for x in row))
    return "\n".join(lines) + "\n"

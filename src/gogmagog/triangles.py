"""Gelfand-Tsetlin triangles and the Gog / Magog / GOGAm families.

A Gelfand-Tsetlin triangle of size n is a triangular array of positive
integers x[i,j], n >= i >= j >= 1, weakly increasing along both the
NW-SE and SW-NE diagonals:

    x[i+1,j] <= x[i,j] <= x[i+1,j+1]   whenever all three are defined.

Row n is the long top row, row 1 is the single bottom entry.  A Gog
triangle has strictly increasing rows and top row pinned to 1..n (these
are in bijection with alternating sign matrices); a Magog triangle has
x[i,i] <= i (in bijection with totally symmetric self-complementary
plane partitions); trapezoids pin everything far from the right edge.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, TypeVar

_T = TypeVar("_T")


class ShapeError(ValueError):
    """Raised when row data does not form a triangular array."""


class Family(Enum):
    GT = "gt"
    GOG = "gog"
    MAGOG = "magog"
    GOGAM = "gogam"


@dataclass(frozen=True)
class Violation:
    """A single broken constraint, located at the 1-based cell (i, j)."""

    i: int
    j: int
    message: str

    def __str__(self) -> str:
        return f"({self.i},{self.j}): {self.message}"


@dataclass(frozen=True)
class GtTriangle:
    """Triangular integer array; ``rows`` are stored top-down.

    ``rows[0]`` is row n (n entries), ``rows[-1]`` is row 1 (one entry).
    Entry access is 1-based through ``t[i, j]`` so that indices match the
    usual mathematical labelling; the 0-based layout is internal.
    The constructor only enforces the triangular shape.  Value-level
    constraints (positivity, interlacing) are checked by `validate_gt`.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ShapeError("triangle must have at least one row")
        for idx, row in enumerate(rows):
            want = n - idx
            if len(row) != want:
                raise ShapeError(
                    f"row {want} of a size-{n} triangle must have {want} "
                    f"entries, got {len(row)}"
                )

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "GtTriangle":
        """Wrap rows the library built itself: a non-empty top-down tuple
        of int tuples of lengths n, n-1, ..., 1.  No coercion, no checks."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        n = len(self.rows)
        if not (1 <= j <= i <= n):
            raise IndexError(f"no cell ({i},{j}) in a size-{n} triangle")
        return self.rows[n - i][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        """Row i (1-based, row n is the top row)."""
        n = len(self.rows)
        if not (1 <= i <= n):
            raise IndexError(f"no row {i} in a size-{n} triangle")
        return self.rows[n - i]


class Inversion(NamedTuple):
    """Cell (i, j) whose entry equals the one directly above-left of it."""

    i: int
    j: int


def validate_gt(t: GtTriangle) -> list[Violation]:
    """All positivity and interlacing violations of ``t`` (empty = valid).

    Every broken inequality is reported, attributed to the lower-row cell
    of the offending pair, so enumeration failures stay diagnosable.
    """
    bad = []
    rows = t.rows
    n = len(rows)
    for i in range(1, n + 1):
        for j, x in enumerate(rows[n - i], 1):
            if x < 1:
                bad.append(Violation(i, j, f"entry {x} is not positive"))
    for i in range(1, n):
        above = rows[n - i - 1]  # row i+1
        for j, x in enumerate(rows[n - i], 1):
            lo = above[j - 1]
            hi = above[j]
            if x < lo:
                bad.append(
                    Violation(i, j, f"{x} < {lo} breaks x[{i+1},{j}] <= x[{i},{j}]")
                )
            if x > hi:
                bad.append(
                    Violation(i, j, f"{x} > {hi} breaks x[{i},{j}] <= x[{i+1},{j+1}]")
                )
    return bad


def is_valid_gt(t: GtTriangle) -> bool:
    return not validate_gt(t)


def is_gog(t: GtTriangle) -> bool:
    """Strictly increasing rows below the top, top row pinned to 1..n."""
    if validate_gt(t):
        return False
    rows = t.rows
    if rows[0] != tuple(range(1, len(rows) + 1)):
        return False
    for row in rows[1:-1]:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    return True


def is_magog(t: GtTriangle) -> bool:
    """Diagonal bound x[i,i] <= i for every i."""
    if validate_gt(t):
        return False
    rows = t.rows
    n = len(rows)
    return all(rows[n - i][-1] <= i for i in range(1, n + 1))


def is_trapezoid(t: GtTriangle, family: Family, k: int) -> bool:
    """Fixed-entry trapezoid condition for cells with i - j >= k.

    Gog trapezoids pin those cells to j, Magog and GOGAm trapezoids pin
    them to 1.  Family membership itself is not re-checked here.
    """
    if k < 1:
        raise ValueError(f"trapezoid width must be >= 1, got {k}")
    if family not in (Family.GOG, Family.MAGOG, Family.GOGAM):
        raise ValueError(f"no trapezoid condition for family {family}")
    rows = t.rows
    n = len(rows)
    pins = tuple(range(1, n + 1)) if family is Family.GOG else (1,) * n
    for i in range(k + 1, n + 1):
        if rows[n - i][: i - k] != pins[: i - k]:  # cells (i, 1) .. (i, i-k)
            return False
    return True


def is_gog_trapezoid_n2k(t: GtTriangle, k: int) -> bool:
    """(n,2,k) refinement of a (n,2) Gog trapezoid.

    Requires x[j,j] = n for j >= k and x[j,j-1] = max(x[k,k-1], j-1) for
    j >= k.  For k = 1 the reference entry x[k,k-1] does not exist; the
    subdiagonal condition is then read with the reference dropped, i.e.
    x[j,j-1] = j-1 for j >= 2.
    """
    n = t.n
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    for j in range(k, n + 1):
        if t[j, j] != n:
            return False
    ref = t[k, k - 1] if k >= 2 else None
    for j in range(max(k, 2), n + 1):
        want = j - 1 if ref is None else max(ref, j - 1)
        if t[j, j - 1] != want:
            return False
    return True


def is_magog_trapezoid_n2k(t: GtTriangle, k: int) -> bool:
    """(n,2,k) refinement of a (n,2) Magog trapezoid.

    Requires x[j,j] = 1 for j <= n-k together with x[j,j] = j for some
    j > n-k.  This is the class the trapezoid bijection pairs with the
    (n,2,k) Gog class, verified exhaustively through n = 6.
    """
    n = t.n
    if not (1 <= k <= n):
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if any(t[j, j] != 1 for j in range(1, n - k + 1)):
        return False
    return any(t[j, j] == j for j in range(n - k + 1, n + 1))


def inversions(t: GtTriangle) -> list[Inversion]:
    """All pairs (i, j) with x[i,j] = x[i+1,j], in lexicographic order."""
    out = []
    for i in range(1, t.n):
        for j in range(1, i + 1):
            if t[i, j] == t[i + 1, j]:
                out.append(Inversion(i, j))
    return out


def covered_cells(inv: Inversion, n: int) -> list[tuple[int, int]]:
    """Cells (i+p, j+p), 1 <= p <= n-i, lying SE of the inversion."""
    i, j = inv
    return [(i + p, j + p) for p in range(1, n - i + 1)]


def covering_count(t: GtTriangle, i: int, j: int) -> int:
    """Number of inversions of ``t`` covering the cell (i, j)."""
    t[i, j]  # bounds check
    return _covering_walk(set(inversions(t)), i, j)


def _covering_walk(invs: set[Inversion], i: int, j: int) -> int:
    """Inversions among ``invs`` on the ray NW of the cell (i, j)."""
    return sum(1 for p in range(1, j) if (i - p, j - p) in invs)


# --- text / JSON formats ---------------------------------------------------
#
# Text: line 1 is n, then rows top-down (row n first), space-separated.
# JSON: {"n": int, "rows_top_down": [[...], ...]}.
# Matrices use the same layouts (JSON key "rows"); the private helpers
# below serve both and leave the shape check to the constructor.


# ASCII decimal only: int() alone would also read "1_0", "+3" and
# non-ASCII digits such as U+0663.
_INTEGER = re.compile(r"-?[0-9]+")


def _format_sized_rows(rows: tuple[tuple[int, ...], ...]) -> str:
    lines = [str(len(rows))]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _parse_sized_rows(text: str, noun: str) -> tuple[tuple[int, ...], ...]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ShapeError(f"empty {noun} file")
    if not _INTEGER.fullmatch(lines[0].strip()):
        raise ShapeError(f"first line must be the size, got {lines[0]!r}")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ShapeError(f"expected {n} rows after the size line, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        tokens = ln.split()
        if not all(map(_INTEGER.fullmatch, tokens)):
            raise ShapeError(f"non-integer entry in row {ln!r}")
        rows.append(tuple(map(int, tokens)))
    return tuple(rows)


def _rows_to_json(key: str, rows: tuple[tuple[int, ...], ...]) -> str:
    return json.dumps({"n": len(rows), key: [list(r) for r in rows]})


def _rows_from_json(text: str, key: str, make: Callable[..., _T]) -> _T:
    """``make(rows)`` from a JSON object holding ``key``; entries must be
    JSON integers, and an ``n`` field must match the object's size."""
    data = json.loads(text)
    rows = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ShapeError(f"JSON input needs a {key!r} list of rows")
    for row in rows:
        if not all(type(x) is int for x in row):  # bool is an int subclass
            raise ShapeError(f"non-integer entry in row {row!r}")
    obj = make(tuple(tuple(r) for r in rows))
    n = data.get("n", obj.n)
    if type(n) is not int or n != obj.n:
        raise ShapeError("size field does not match the row data")
    return obj


def format_triangle(t: GtTriangle) -> str:
    return _format_sized_rows(t.rows)


def parse_triangle(text: str) -> GtTriangle:
    return GtTriangle(_parse_sized_rows(text, "triangle"))


def triangle_to_json(t: GtTriangle) -> str:
    return _rows_to_json("rows_top_down", t.rows)


def triangle_from_json(text: str) -> GtTriangle:
    return _rows_from_json(text, "rows_top_down", GtTriangle)

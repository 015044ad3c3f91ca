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
from operator import le
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
    The constructor only enforces integer entries and the triangular
    shape.  Value-level constraints (positivity, interlacing) are
    checked by `validate_gt`.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = _int_rows(self.rows)
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


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """``rows`` as a tuple of tuples; every entry must be an ``int``
    (not a float, bool or string), so nothing is truncated silently."""
    rows = tuple(tuple(row) for row in rows)
    for row in rows:
        if not all(type(x) is int for x in row):  # bool is an int subclass
            raise ShapeError(f"non-integer entry in row {list(row)!r}")
    return rows


def _check_int(value: int, name: str) -> None:
    """``value`` must be an ``int``: a bool, float or string is refused,
    not read as 0, 1 or its truncation."""
    if type(value) is not int:  # bool is an int subclass
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_size(n: int, name: str = "size") -> None:
    """``n`` must be an ``int`` (not a bool or a float) with n >= 1."""
    _check_int(n, name)
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


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


def _is_gt_rows(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether top-down ``rows`` are Gelfand-Tsetlin; stops at the first
    broken inequality.

    Interlacing makes the top row weakly increasing and puts every
    entry at or above the top-row entry of its column, so a positive
    top-left entry makes every entry positive.
    """
    if rows[0][0] < 1:
        return False
    above = rows[0]
    for row in rows[1:]:
        # x[i+1,j] <= x[i,j] and x[i,j] <= x[i+1,j+1]
        if not (all(map(le, above, row)) and all(map(le, row, above[1:]))):
            return False
        above = row
    return True


def is_valid_gt(t: GtTriangle) -> bool:
    return _is_gt_rows(t.rows)


def is_gog(t: GtTriangle) -> bool:
    """Strictly increasing rows below the top, top row pinned to 1..n."""
    rows = t.rows
    if not _is_gt_rows(rows):
        return False
    if rows[0] != tuple(range(1, len(rows) + 1)):
        return False
    for row in rows[1:-1]:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    return True


def is_magog(t: GtTriangle) -> bool:
    """Diagonal bound x[i,i] <= i for every i."""
    rows = t.rows
    if not _is_gt_rows(rows):
        return False
    n = len(rows)
    return all(rows[n - i][-1] <= i for i in range(1, n + 1))


def is_trapezoid(t: GtTriangle, family: Family, k: int) -> bool:
    """Fixed-entry trapezoid condition for cells with i - j >= k.

    Gog trapezoids pin those cells to j, Magog and GOGAm trapezoids pin
    them to 1.  Family membership itself is not re-checked here.
    """
    _check_int(k, "trapezoid width")
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
    _check_int(k, "k")
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
    _check_int(k, "k")
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
    if n < 1:
        raise ShapeError(f"size must be at least 1, got {n}")
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
    """``make(rows)`` from a JSON object holding ``key``; ``make`` checks
    that the entries are integers, and an ``n`` field must match the
    object's size."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ShapeError("JSON input is nested too deeply") from None
    rows = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ShapeError(f"JSON input needs a {key!r} list of rows")
    obj = make(rows)
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

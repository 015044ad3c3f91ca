"""Alternating sign matrices and the classical ASM <-> Gog bijection.

An ASM is a square matrix over {-1, 0, +1} whose nonzero entries
alternate in sign along every row and column, each row and column
summing to 1.  Taking column partial sums from a row down to the bottom
yields a 0/1 matrix whose 1-positions, read row by row from the bottom
up, are the rows of the corresponding Gog triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangles import (
    GtTriangle,
    ShapeError,
    _format_sized_rows,
    _int_rows,
    _parse_sized_rows,
    _rows_from_json,
    _rows_to_json,
    is_gog,
)


@dataclass(frozen=True)
class Asm:
    """Square matrix; ``rows[i-1]`` is row i, top to bottom."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = _int_rows(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ShapeError("matrix must have at least one row")
        for idx, row in enumerate(rows):
            if len(row) != n:
                raise ShapeError(f"row {idx + 1} has {len(row)} entries, want {n}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"no cell ({i},{j}) in a {self.n}x{self.n} matrix")
        return self.rows[i - 1][j - 1]


def _alternation_violations(label: str, idx: int, entries: tuple[int, ...]) -> list[str]:
    bad = []
    nonzero = [x for x in entries if x != 0]
    if sum(entries) != 1:
        bad.append(f"{label} {idx} sums to {sum(entries)}, want 1")
    for a, b in zip(nonzero, nonzero[1:]):
        if a == b:
            bad.append(f"{label} {idx} has consecutive nonzeros of equal sign")
            break
    if nonzero and (nonzero[0] != 1 or nonzero[-1] != 1):
        bad.append(f"{label} {idx} must start and end its nonzeros with +1")
    return bad


def validate_asm(a: Asm) -> list[str]:
    """All alternating-sign violations (empty = valid ASM).

    Entries outside {-1, 0, 1} are reported on their own, separately from
    the alternation and sum conditions.
    """
    bad = []
    n = a.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if a[i, j] not in (-1, 0, 1):
                bad.append(f"entry ({i},{j}) is {a[i, j]}, not in {{-1,0,1}}")
    if bad:
        return bad
    for i in range(1, n + 1):
        bad += _alternation_violations("row", i, a.rows[i - 1])
    for j in range(1, n + 1):
        col = tuple(a[i, j] for i in range(1, n + 1))
        bad += _alternation_violations("column", j, col)
    return bad


def asm_to_gog(a: Asm) -> GtTriangle:
    """Gog triangle of an ASM via column partial sums.

    With ps[r][j] = sum of column j from row r down to row n, triangle
    row i lists (in increasing order) the columns where ps[n-i+1] is 1.
    """
    n = a.n
    ps = [[0] * (n + 1) for _ in range(n + 2)]  # ps[r][j], r = n..1
    for r in range(n, 0, -1):
        for j in range(1, n + 1):
            ps[r][j] = ps[r + 1][j] + a[r, j]
    rows_top_down = []
    for i in range(n, 0, -1):
        r = n - i + 1
        cols = tuple(j for j in range(1, n + 1) if ps[r][j] == 1)
        if len(cols) != i:
            raise ValueError(
                f"row {r} of the partial-sum matrix has {len(cols)} ones, "
                f"want {i}; input is not a valid ASM"
            )
        rows_top_down.append(cols)
    return GtTriangle._trusted(tuple(rows_top_down))


def gog_to_asm(t: GtTriangle) -> Asm:
    """Inverse of `asm_to_gog`: difference the 0/1 indicator matrices."""
    if not is_gog(t):
        raise ValueError("input is not a Gog triangle")
    n = t.n
    ind = [[0] * (n + 1) for _ in range(n + 2)]  # ind[r][j], row r of partial sums
    for i in range(1, n + 1):
        r = n - i + 1
        for j in t.row(i):
            ind[r][j] = 1
    rows = []
    for r in range(1, n + 1):
        rows.append(tuple(ind[r][j] - ind[r + 1][j] for j in range(1, n + 1)))
    return Asm(tuple(rows))


def asm_inversion_number(a: Asm) -> int:
    """Sum of m[i,j] * m[i',j'] over pairs with i < i' and j >= j'.

    The weak column inequality is what makes the count agree with the
    inversion count of the associated Gog triangle (on permutation
    matrices both variants reduce to ordinary permutation inversions).
    """
    n = a.n
    total = 0
    # above[j] = sum of m[i,j'] over rows i already seen and columns j' >= j
    above = [0] * (n + 2)
    for r in range(1, n + 1):
        for j in range(1, n + 1):
            if a[r, j] != 0:
                total += a[r, j] * above[j]
        run = 0
        for j in range(n, 0, -1):
            run += a[r, j]
            above[j] += run
    return total


def bottom_row_one_column(a: Asm) -> int:
    """Column of the unique +1 in the bottom row."""
    row = a.rows[-1]
    cols = [j for j, x in enumerate(row, start=1) if x == 1]
    if len(cols) != 1 or any(x == -1 for x in row):
        raise ValueError("bottom row of a valid ASM has exactly one +1 and no -1")
    return cols[0]


# --- text / JSON formats ---------------------------------------------------


def format_asm(a: Asm) -> str:
    return _format_sized_rows(a.rows)


def parse_asm(text: str) -> Asm:
    return Asm(_parse_sized_rows(text, "matrix"))


def asm_to_json(a: Asm) -> str:
    return _rows_to_json("rows", a.rows)


def asm_from_json(text: str) -> Asm:
    return _rows_from_json(text, "rows", Asm)

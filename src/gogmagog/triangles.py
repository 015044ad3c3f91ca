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

Fixed-schedule work on triangles of one size can run as straight-line
functions: `_straight_line` compiles one from generated source, with
its arguments unpacked into locals.  Ten schedules do: up to
`_UNROLL_MAX_N` the GT test here, the involution and its diagonal in
`schutzenberger`, the raw-GT generator and the `involution` suite's
sweep (its loops around the involution's lines, twice) in
`enumeration`, and in `bijection` the state test and the forward and
inverse steps (keyed by the state's size) and the leaf image check,
made of the lines of the GT test, the diagonal and the involution; up
to the lower `enumeration._RSK_MAX_N` the `oracle` suite's sweep, the
generator's loops around the lines of the word route in `tableaux`
and of the involution.  Each runs behind one resolver made by
`_per_size`, which alone chooses between the kernel and the loop for a
size; a kernel is built on the first call of its size, so importing
the package builds none.  Past the cap the GT test is `validate_gt` itself, the state
test its bound listing.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from functools import cache
from typing import Callable, NamedTuple, TypeVar

_T = TypeVar("_T")


class ShapeError(ValueError):
    """Raised when row data does not form a triangular array."""


class Family(Enum):
    GT = "gt"
    GOG = "gog"
    MAGOG = "magog"
    GOGAM = "gogam"


class _Value:
    """An immutable value whose fields are the ``__slots__`` of its class,
    in order.  It equals a value of the same class with equal fields,
    hashes as the tuple of its fields, prints as its constructor call,
    and is copied or pickled through that constructor, which checks the
    fields again.  Constructors set the fields with `object.__setattr__`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(_Value):
    """A single broken constraint, located at the 1-based cell (i, j)."""

    __slots__ = ("i", "j", "message")

    def __init__(self, i: int, j: int, message: str) -> None:
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "message", message)

    def __str__(self) -> str:
        return f"({self.i},{self.j}): {self.message}"


class GtTriangle(_Value):
    """Triangular integer array; ``rows`` are stored top-down.

    ``rows[0]`` is row n (n entries), ``rows[-1]`` is row 1 (one entry).
    Entry access is 1-based through ``t[i, j]`` so that indices match the
    usual mathematical labelling; the 0-based layout is internal.
    The constructor only enforces integer entries and the triangular
    shape.  Value-level constraints (positivity, interlacing) are
    checked by `validate_gt`.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = _int_rows(rows)
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
        object.__setattr__(self, "rows", rows)

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


# Largest n whose fixed-schedule work runs as one `_straight_line`
# function per size: the GT test, the involution and its diagonal, the
# raw-GT generator, the `involution` suite's sweep (keyed by the top
# row's size), the bijection state test and forward and inverse steps
# (their size is the state's k) and the leaf image check.  The
# involution's source, which the image check also holds, has
# (n-1)n(n+1)/6 statements, the state test's and the steps' O(k), the
# others O(n^2).  Each is built once per size and process; on a 2-vCPU
# host under Python 3.11 a build takes, at n = 6 / 7 / 12, at most 0.5
# / 0.6 / 1.9 ms for the state test, the GT test, the diagonal and the
# generator, 0.6-1.1 / 0.9-1.4 / 5-8 ms for the involution, which grows
# as n^3 to 12-20 ms at 16 and 26-31 ms at 20, and 1.1 / 1.6 / 7.7-7.9
# ms for the image check, and 1.3 / 2.1 / 12-14 ms for the sweep, which
# holds the involution twice.  At k = 1..12 the state test takes
# 0.1-0.7 ms, the forward step 0.6-1.5 ms and the inverse step 0.1-1.2
# ms, each step once more the state test of its result's size if that
# is new.
# The generator nests one loop per lower row, n - 1 in all: CPython
# compiles at most 20 statically nested blocks, which a loop per cell
# would pass from n = 7 on.  Past the cap the loops run instead (for the GT test,
# `validate_gt`; for the state test, its bound listing), so no input
# size makes the build cost or the code size unbounded.
_UNROLL_MAX_N = 12


def _row_tuples(n: int) -> str:
    """Source of the top-down rows of size n as a tuple of row tuples of
    locals, cell (row r, column c) being ``x{r}_{c}``: usable both as
    an unpacking target and as a return value."""
    rows = (", ".join(f"x{r}_{c}" for c in range(n - r)) for r in range(n))
    return ", ".join(f"({row},)" for row in rows) + ","


def _cell_locals(n: int, name: str = "x", ones: frozenset[str] = frozenset()) -> list[list[str]]:
    """The locals of top-down rows of size n: the top row's cells
    ``x0_{c}``, every other cell (row r, column c) ``{name}{r}_{c}``; a
    local named in ``ones`` is the literal 1 instead."""
    cells = ([f"{name if r else 'x'}{r}_{c}" for c in range(n - r)] for r in range(n))
    return [[("1" if x in ones else x) for x in row] for row in cells]


def _straight_line(
    n: int, target: str, body: list[str], label: str,
    params: str = "rows", unpacked: str = "rows", **names: object,
) -> Callable:
    """Compile ``body``, source lines over the locals of the unpacking
    ``target``, into a function (a generator function if the body
    yields) of ``params``, by default one argument ``rows`` of size n,
    that first unpacks ``unpacked`` into ``target``; ``names`` are the
    functions and constants the body may read."""
    source = "\n".join([f"def kernel({params}):", f"    {target} = {unpacked}", *body])
    namespace: dict[str, object] = dict(names)
    exec(compile(source, f"<{label} kernel n={n}>", "exec"), namespace)
    return namespace["kernel"]


def _per_size(build: Callable[[int], Callable], loop: Callable, cap: int = _UNROLL_MAX_N):
    """The resolver of one schedule: a cached function of n giving the
    kernel ``build(n)`` up to ``cap`` and ``loop``, of any size, past it."""
    return cache(lambda n: build(n) if n <= cap else loop)


def _gt_expression(n: int, ones: frozenset[str] = frozenset()) -> str:
    """The GT test for size n as one expression over the cell locals: a
    positive top-left entry, then for each row under the one above it
    the merged chain above[0] <= row[0] <= above[1] <= ... <= row[-1]
    <= above[-1], which is weakly increasing exactly when the two rows
    interlace.  Interlacing makes the top row weakly increasing and
    puts every entry at or above the top-row entry of its column, so a
    positive top-left entry makes every entry positive.

    The cells named in ``ones`` hold 1 and are written as the literal:
    a link ``1 <= 1`` is left out, and so is the top-left test when
    that cell is one of them."""
    cell = _cell_locals(n, ones=ones)
    tests = [] if cell[0][0] == "1" else [f"{cell[0][0]} >= 1"]
    for r in range(n - 1):
        above, row = cell[r], cell[r + 1]
        chain = [above[0]]
        for c in range(n - r - 1):
            for x in (row[c], above[c + 1]):
                if not x == chain[-1] == "1":
                    chain.append(x)
        tests.append(" <= ".join(chain))
    return " and ".join(tests)


def _gt_kernel(n: int) -> Callable[[tuple[tuple[int, ...], ...]], bool]:
    """The GT test on top-down rows of size n: `_gt_expression`."""
    return _straight_line(n, _row_tuples(n), [f"    return {_gt_expression(n)}"], "gt test")


def _gt_loop(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether top-down ``rows`` are Gelfand-Tsetlin: `validate_gt` finds nothing."""
    return not validate_gt(GtTriangle._trusted(rows))


# whether top-down rows of size n are Gelfand-Tsetlin
_gt_test = _per_size(_gt_kernel, _gt_loop)


def is_valid_gt(t: GtTriangle) -> bool:
    rows = t.rows
    return _gt_test(len(rows))(rows)


def is_gog(t: GtTriangle) -> bool:
    """Strictly increasing rows below the top, top row pinned to 1..n."""
    rows = t.rows
    if not _gt_test(len(rows))(rows):
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
    n = len(rows)
    if not _gt_test(n)(rows):
        return False
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
    object's size.  An entry that is a list or an object is nested too
    deeply, whether or not the parser's own depth limit (which differs
    between Python versions) was reached."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ShapeError("JSON input is nested too deeply") from None
    rows = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ShapeError(f"JSON input needs a {key!r} list of rows")
    if any(isinstance(x, (list, dict)) for r in rows for x in r):
        raise ShapeError("JSON input is nested too deeply")
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

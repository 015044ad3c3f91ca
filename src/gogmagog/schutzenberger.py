"""The Schutzenberger involution on Gelfand-Tsetlin triangles.

Built from elementary row reflections: the operator on row k replaces
each entry by its mirror image inside the smallest interval allowed by
its (up to four) neighbours.  Sweeping rows 1..j in turn, and composing
the sweeps from the longest down to the shortest, gives the involution;
this is evacuation of the associated semistandard tableau.

The rightmost diagonal of the image has a closed form: a maximum of
telescoping sums over strictly decreasing column chains, evaluated here
by dynamic programming.  A triangle is GOGAm exactly when it is GT and
that diagonal is bounded by the staircase 1, 2, ..., n, which gives an
O(n^2) test that never constructs the image.

Both schedules depend on n alone, so for n up to the shared cap
`_UNROLL_MAX_N` each runs as one straight-line function per size
(`_kernel` for the involution, one assignment per reflected cell;
`_diagonal_kernel` for the diagonal, the dynamic program unrolled),
built by `triangles._straight_line`.  Each equals its loop (`_fold`,
`_diagonal_loop`) on every triangle, GT or not.  Past the cap the
unrolled source would cost too much to build, and the loops run.  The
resolvers `_involution` and `_diagonal`, made by `triangles._per_size`,
give the function of one size on bare top-down rows and hold the one
choice between kernel and loop, so a caller with many triangles
resolves it once.
"""

from __future__ import annotations

from operator import le
from typing import Callable

from .triangles import GtTriangle, _check_int, _gt_test, _per_size, _row_tuples, _straight_line


def _reflect(rows: list[list[int]], k: int) -> None:
    """Reflect every entry of row k inside its neighbour interval, in
    place; ``rows`` is the top-down row list, so row k is ``rows[n-k]``.

    Undefined neighbours drop out of the interval bounds.
    """
    n = len(rows)
    above = rows[n - k - 1]  # row k+1
    row = rows[n - k]
    below = rows[n - k + 1] if k >= 2 else ()  # row k-1
    for j in range(k):  # 0-based column
        lo = above[j]
        if j >= 1 and below[j - 1] > lo:
            lo = below[j - 1]
        hi = above[j + 1]
        if j <= k - 2 and below[j] < hi:
            hi = below[j]
        row[j] = lo + hi - row[j]


def bender_knuth(t: GtTriangle, k: int) -> GtTriangle:
    """Reflect every entry of row k inside its neighbour interval.

    Undefined neighbours drop out of the interval bounds.  An involution
    for each k; different k's do not commute and do not satisfy the
    braid relations.
    """
    n = t.n
    _check_int(k, "row index")
    if not (1 <= k <= n - 1):
        raise ValueError(f"row index must be in 1..{n - 1}, got {k}")
    rows = [list(r) for r in t.rows]
    _reflect(rows, k)
    return GtTriangle._trusted(tuple(tuple(r) for r in rows))


def _kernel(
    n: int,
) -> Callable[[tuple[tuple[int, ...], ...]], tuple[tuple[int, ...], ...]]:
    """The involution on top-down rows of size n, as one straight-line
    function: the schedule of `schutzenberger` unrolled, one assignment
    ``x = lo + hi - x`` per reflected cell, with lo and hi the bounds
    `_reflect` takes over the same neighbours.

    Built from integers only; cell (row r, column c) of
    the top-down rows is the local ``x{r}_{c}``.
    """
    cell = [[f"x{r}_{c}" for c in range(n - r)] for r in range(n)]
    body = []
    for j in range(n - 1, 0, -1):
        for k in range(1, j + 1):
            above, row = cell[n - k - 1], cell[n - k]
            below = cell[n - k + 1] if k >= 2 else ()
            for c in range(k):
                lo = above[c]
                if c >= 1:
                    lo = f"({below[c - 1]} if {below[c - 1]} > {lo} else {lo})"
                hi = above[c + 1]
                if c <= k - 2:
                    hi = f"({below[c]} if {below[c]} < {hi} else {hi})"
                body.append(f"    {row[c]} = {lo} + {hi} - {row[c]}")
    body.append(f"    return {_row_tuples(n)}")
    return _straight_line(n, _row_tuples(n), body, "schutzenberger")


def _fold(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The involution on top-down ``rows``: `_reflect` folded in place
    over one copy of them, sweeps of lengths n-1, n-2, ..., 1."""
    out = [list(r) for r in rows]
    for j in range(len(rows) - 1, 0, -1):
        for k in range(1, j + 1):
            _reflect(out, k)
    return tuple(tuple(r) for r in out)


# the involution on top-down rows of size n
_involution = _per_size(_kernel, _fold)


def schutzenberger(t: GtTriangle) -> GtTriangle:
    """Evacuation on triangles: sweeps of lengths n-1, n-2, ..., 1.

    The longest sweep is applied first; this is the composition order
    under which the result is an involution agreeing with both the word
    oracle and the diagonal formula.  The n(n-1)/2 reflections run as
    `_involution` of the size.
    """
    rows = t.rows
    return GtTriangle._trusted(_involution(len(rows))(rows))


def _diagonal_kernel(n: int) -> Callable[[tuple[tuple[int, ...], ...]], tuple[int, ...]]:
    """`schutzenberger_diagonal` on top-down rows of size n as one
    straight-line function: `_diagonal_loop` unrolled, ``f{k}_{c}``
    holding its ``f[c]`` for k and ``s`` the running suffix maximum.

    The maximum of one step's ``f`` is never computed apart: it is the
    larger of ``f[0]`` and the next step's last suffix maximum, which
    covers ``f[1:]``.
    """
    corner = f"x0_{n - 1}"
    body = [
        f"    f{n - 1}_{c - 1} = x{n - c - 1}_{c - 1} - x{n - c}_{c - 1}"
        for c in range(1, n)
    ]
    for k in range(n - 2, 0, -1):
        body.append(f"    s = f{k + 1}_{k}")
        for c in range(k, 0, -1):
            if c < k:
                body.append(f"    s = f{k + 1}_{c} if f{k + 1}_{c} > s else s")
            body.append(f"    f{k}_{c - 1} = s + x{k - c}_{c - 1} - x{k - c + 1}_{c - 1}")
        body.append(f"    d{k + 1} = {corner} + (f{k + 1}_0 if f{k + 1}_0 > s else s)")
    if n >= 2:
        body.append(f"    d1 = {corner} + f1_0")
    values = "".join(f"d{k}, " for k in range(1, n))
    body.append(f"    return {values}{corner},")
    return _straight_line(n, _row_tuples(n), body, "diagonal")


def _diagonal_loop(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """`schutzenberger_diagonal` on top-down ``rows`` of any size: entry
    k-1 is the corner plus the maximum of ``f``, where for k = n-1 down
    to 1 ``f[c-1]`` is the best sum over chains of m = n-k steps whose
    last column is c, for c = 1..k.

    Step m at column c weighs x[c+m, c] - x[c+m-1, c]; a chain reaches
    column c at step m from any column in (c, k+1] at step m-1, so each
    step takes a running suffix maximum of the previous ``f``.
    """
    n = len(rows)
    corner = rows[0][-1]
    values = [corner] * n
    # step 0, the empty chain at column n: step 1 may go to any c < n
    f = [0] * n
    for k in range(n - 1, 0, -1):
        g = [0] * k
        best = f[k]
        for c in range(k, 0, -1):
            best = max(best, f[c])
            # row index k - c holds row c + m, with m = n - k
            g[c - 1] = best + rows[k - c][c - 1] - rows[k - c + 1][c - 1]
        f = g
        values[k - 1] = corner + max(f)
    return tuple(values)


# `schutzenberger_diagonal` on top-down rows of size n
_diagonal = _per_size(_diagonal_kernel, _diagonal_loop)


def schutzenberger_diagonal(t: GtTriangle) -> tuple[int, ...]:
    """Closed-form rightmost diagonal of the involution image; entry
    k-1 of the tuple is the image entry at (k, k).

    That entry equals x[n,n] plus the maximum, over strictly decreasing
    chains n > c_1 > ... > c_{n-k} >= 1, of

        sum over steps m of  x[c_m + m, c_m] - x[c_m + m - 1, c_m]

    a telescoped form of the chain sum; each step weight is <= 0, and
    the dynamic program runs over (step, column) with suffix maxima.
    For k = n the chain is empty and the corner entry is preserved.
    `_diagonal` of the size runs the dynamic program.
    """
    rows = t.rows
    return _diagonal(len(rows))(rows)


def is_gogam(t: GtTriangle) -> bool:
    """True when the involution image is a Magog triangle.

    Checked through the diagonal formula: every value of
    `schutzenberger_diagonal` is bounded by its row index, the corner,
    its last value, by n.
    """
    rows = t.rows
    n = len(rows)
    return _gt_test(n)(rows) and all(map(le, schutzenberger_diagonal(t), range(1, n + 1)))

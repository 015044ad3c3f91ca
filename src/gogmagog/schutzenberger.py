"""The Schutzenberger involution on Gelfand-Tsetlin triangles.

Built from elementary row reflections: the operator on row k replaces
each entry by its mirror image inside the smallest interval allowed by
its (up to four) neighbours.  Sweeping rows 1..j in turn, and composing
the sweeps from the longest down to the shortest, gives the involution;
this is evacuation of the associated semistandard tableau.

The rightmost diagonal of the image has a closed form: a maximum of
telescoping sums over strictly decreasing column chains, evaluated here
by dynamic programming.  A triangle is GOGAm exactly when that diagonal
is bounded by the staircase 1, 2, ..., n, which gives an O(n^2) test
that never constructs the image.
"""

from __future__ import annotations

from typing import Iterator

from .triangles import GtTriangle, _check_int, _is_gt_rows


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


def schutzenberger(t: GtTriangle) -> GtTriangle:
    """Evacuation on triangles: sweeps of lengths n-1, n-2, ..., 1.

    The longest sweep is applied first; this is the composition order
    under which the result is an involution agreeing with both the word
    oracle and the diagonal formula.
    All n(n-1)/2 reflections run in place on one copy of the rows.
    """
    rows = [list(r) for r in t.rows]
    for j in range(t.n - 1, 0, -1):
        for k in range(1, j + 1):
            _reflect(rows, k)
    return GtTriangle._trusted(tuple(tuple(r) for r in rows))


def _chain_optima(rows: tuple[tuple[int, ...], ...]) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(k, f)`` for k = n-1 down to 1, where ``f[c-1]`` is the
    best sum over chains of m = n-k steps whose last column is c, for
    c = 1..k (see `schutzenberger_diagonal`).

    Step m at column c weighs x[c+m, c] - x[c+m-1, c]; a chain reaches
    column c at step m from any column in (c, k+1] at step m-1, so each
    step takes a running suffix maximum of the previous ``f``.
    """
    n = len(rows)
    if n == 1:
        return
    # m = 1: the chain starts at column n, any column c < n follows
    f = [rows[n - c - 1][c - 1] - rows[n - c][c - 1] for c in range(1, n)]
    yield n - 1, f
    for k in range(n - 2, 0, -1):
        g = [0] * k
        best = f[k]
        for c in range(k, 0, -1):
            x = f[c]
            if x > best:
                best = x
            # row index k - c holds row c + m, with m = n - k
            g[c - 1] = best + rows[k - c][c - 1] - rows[k - c + 1][c - 1]
        f = g
        yield k, f


def schutzenberger_diagonal(t: GtTriangle) -> tuple[int, ...]:
    """Closed-form rightmost diagonal of the involution image; entry
    k-1 of the tuple is the image entry at (k, k).

    That entry equals x[n,n] plus the maximum, over strictly decreasing
    chains n > c_1 > ... > c_{n-k} >= 1, of

        sum over steps m of  x[c_m + m, c_m] - x[c_m + m - 1, c_m]

    a telescoped form of the chain sum; each step weight is <= 0, and
    the dynamic program runs over (step, column) with suffix maxima.
    For k = n the chain is empty and the corner entry is preserved.
    """
    rows = t.rows
    corner = rows[0][-1]
    values = [corner] * len(rows)
    for k, f in _chain_optima(rows):
        values[k - 1] = corner + max(f)
    return tuple(values)


def is_gogam(t: GtTriangle) -> bool:
    """True when the involution image is a Magog triangle.

    Checked through the diagonal formula: the corner is at most n and
    every diagonal value of the image is bounded by its row index.
    Stops at the first row index whose bound breaks.
    """
    rows = t.rows
    if not _is_gt_rows(rows):
        return False
    corner = rows[0][-1]
    if corner > len(rows):
        return False
    for k, f in _chain_optima(rows):
        if corner + max(f) > k:
            return False
    return True

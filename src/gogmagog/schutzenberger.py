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

from dataclasses import dataclass

from .triangles import GtTriangle, validate_gt


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
    if not (1 <= k <= n - 1):
        raise ValueError(f"row index must be in 1..{n - 1}, got {k}")
    rows = [list(r) for r in t.rows]
    _reflect(rows, k)
    return GtTriangle._trusted(tuple(tuple(r) for r in rows))


def bender_knuth_sweep(t: GtTriangle, j: int) -> GtTriangle:
    """Apply the row reflections on rows 1, 2, ..., j in that order."""
    n = t.n
    if not (1 <= j <= n - 1):
        raise ValueError(f"sweep length must be in 1..{n - 1}, got {j}")
    rows = [list(r) for r in t.rows]
    for k in range(1, j + 1):
        _reflect(rows, k)
    return GtTriangle._trusted(tuple(tuple(r) for r in rows))


def schutzenberger(t: GtTriangle) -> GtTriangle:
    """Evacuation on triangles: sweeps of lengths n-1, n-2, ..., 1.

    The longest sweep is applied first; this is the composition order
    under which the result is an involution agreeing with both the word
    oracle and the diagonal formula (checked by the import self-test).
    All n(n-1)/2 reflections run in place on one copy of the rows.
    """
    rows = [list(r) for r in t.rows]
    for j in range(t.n - 1, 0, -1):
        for k in range(1, j + 1):
            _reflect(rows, k)
    return GtTriangle._trusted(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class DiagonalTable:
    """Rightmost diagonal of the involution image, with witness chains.

    ``values[k-1]`` is the image entry at cell (k, k); ``chains[k-1]``
    is one optimizing column chain, strictly decreasing and starting at
    n.  For k = n the chain is the trivial (n,) and the corner entry is
    simply preserved.
    """

    n: int
    values: tuple[int, ...]
    chains: tuple[tuple[int, ...], ...]


def schutzenberger_diagonal(t: GtTriangle) -> DiagonalTable:
    """Closed-form rightmost diagonal of the involution image.

    The image entry at (k, k) equals x[n,n] plus the maximum, over
    strictly decreasing chains n > c_1 > ... > c_{n-k} >= 1, of

        sum over steps m of  x[c_m + m, c_m] - x[c_m + m - 1, c_m]

    a telescoped form of the chain sum; each step weight is <= 0, and
    the dynamic program runs over (step, column) with suffix maxima.
    """
    rows = t.rows
    n = len(rows)
    corner = rows[0][-1]
    values = [0] * n
    chains: list[tuple[int, ...]] = [(n,)] * n
    values[n - 1] = corner

    def w(m: int, c: int) -> int:  # x[c+m, c] - x[c+m-1, c]
        return rows[n - c - m][c - 1] - rows[n - c - m + 1][c - 1]

    # f[m][c]: optimum over chains of m steps ending at column c, with
    # column range 1 <= c <= n - m; back[m][c] remembers the previous column.
    f: list[list[int | None]] = [[None] * (n + 2)]
    back: list[list[int]] = [[0] * (n + 2)]
    for m in range(1, n):
        fm: list[int | None] = [None] * (n + 2)
        bm = [0] * (n + 2)
        if m == 1:
            for c in range(1, n):
                fm[c] = w(1, c)
                bm[c] = n
        else:
            prev = f[m - 1]
            best_val: int | None = None
            best_arg = 0
            for c in range(n - m, 0, -1):
                cand = c + 1  # columns in (c, n-m+1] feed step m at column c
                if cand <= n - m + 1 and prev[cand] is not None:
                    if best_val is None or prev[cand] > best_val:
                        best_val, best_arg = prev[cand], cand
                if best_val is not None:
                    fm[c] = best_val + w(m, c)
                    bm[c] = best_arg
        f.append(fm)
        back.append(bm)
        k = n - m
        val, arg = max((fm[c], c) for c in range(1, n - m + 1) if fm[c] is not None)
        values[k - 1] = corner + val
        chain = [arg]
        for mm in range(m, 1, -1):
            arg = back[mm][arg]
            chain.append(arg)
        chain.append(n)
        chains[k - 1] = tuple(reversed(chain))
    return DiagonalTable(n, tuple(values), tuple(chains))


def is_gogam(t: GtTriangle) -> bool:
    """True when the involution image is a Magog triangle.

    Checked through the diagonal formula: the corner is at most n and
    every diagonal value of the image is bounded by its row index.
    """
    if validate_gt(t):
        return False
    n = t.n
    if t.rows[0][-1] > n:
        return False
    table = schutzenberger_diagonal(t)
    return all(table.values[k - 1] <= k for k in range(1, n + 1))


# The composition order of the sweeps is fixed empirically: both orders
# are involutions, but only longest-sweep-first matches the word oracle
# and the diagonal formula.  Frozen witness: the image of a generic
# size-5 triangle, computed independently through the word pipeline.
_WITNESS_IN = ((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
_WITNESS_OUT = ((1, 2, 2, 3, 6), (1, 2, 3, 5), (1, 3, 4), (2, 4), (4,))


def _self_test() -> None:
    got = schutzenberger(GtTriangle(_WITNESS_IN))
    if got != GtTriangle(_WITNESS_OUT):
        raise AssertionError(
            "sweep composition order broken: involution image of the "
            "witness triangle does not match its frozen value"
        )


_self_test()

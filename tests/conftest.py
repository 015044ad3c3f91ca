import hashlib
import importlib
import json
import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gogmagog import enumeration, tableaux
from gogmagog.triangles import Family, GtTriangle, _gt_kernel, _gt_loop, _gt_test, is_valid_gt

# the package re-exports the function under the module's name
_involutions = importlib.import_module("gogmagog.schutzenberger")

FIXTURES = Path(__file__).parent / "fixtures"

# property tests draw the same examples on every run, so tier-1 stays
# deterministic; no example database is read or written
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def tri(*rows_top_down):
    """Shorthand: tri((1,2,3),(1,3),(2,)) builds the triangle top-down."""
    return GtTriangle(tuple(tuple(r) for r in rows_top_down))


def gt_triangles(n, bound):
    """Every Gelfand-Tsetlin triangle of the given size and entry bound."""
    return enumeration.generate(enumeration.FamilySpec(Family.GT, n, bound=bound))


def descend(top, n, cell_ok):
    """Cell-by-cell oracle for the row generators: every GT triangle with
    top row ``top``, rows n-1 .. 1 filled left to right inside the
    interlacing intervals, in lexicographic order.

    ``cell_ok(i, j, value, row_so_far)`` may veto a placement; rows are
    built left to right, so strictness checks can look at the previous
    cell.
    """
    return _place([top], [], n - 1, 1, cell_ok)


def _place(rows, row, i, j, cell_ok):
    """Every completion of `descend` from cell (i, j) on, with ``rows``
    the finished rows top-down and ``row`` the cells of row i so far."""
    if i == 0:
        yield GtTriangle._trusted(tuple(rows))
        return
    if j > i:
        rows.append(tuple(row))
        yield from _place(rows, [], i - 1, 1, cell_ok)
        rows.pop()
        return
    above = rows[-1]
    for val in range(above[j - 1], above[j] + 1):
        if cell_ok(i, j, val, row):
            row.append(val)
            yield from _place(rows, row, i, j + 1, cell_ok)
            row.pop()


@cache
def gt_up_to_4():
    """Every GT triangle with n <= 4 and entries <= n+1, 2,896 in all,
    built once per session."""
    return tuple(t for n in range(1, 5) for t in gt_triangles(n, n + 1))


def perturbed(t, r, c, delta):
    """``t`` with the entry at top-down row r, column c moved by delta."""
    rows = [list(row) for row in t.rows]
    rows[r][c] += delta
    return GtTriangle(tuple(tuple(row) for row in rows))


def drawn_perturbation(data, t):
    """``t`` with one entry, drawn from ``data``, moved by +-1."""
    r = data.draw(st.integers(0, t.n - 1))
    c = data.draw(st.integers(0, t.n - 1 - r))
    return perturbed(t, r, c, data.draw(st.sampled_from((-1, 1))))


@cache
def gt_perturbations():
    """(t, p) for every single-entry +-1 perturbation p of every
    triangle t of `gt_up_to_4`, 56,848 in all, built once per session."""
    return tuple(
        (t, perturbed(t, r, c, delta))
        for t in gt_up_to_4() for r, row in enumerate(t.rows)
        for c in range(len(row)) for delta in (-1, 1)
    )


@cache
def broken_perturbations():
    """The perturbations of `gt_perturbations` that are not GT, 33,974 in
    all, built once per session."""
    return tuple(p for _, p in gt_perturbations() if not is_valid_gt(p))


# (resolver, kernel builder, loop, cap) of each size-scheduled function,
# with the caps the build costs in `triangles` choose; the raw-GT
# generator maps a top row to triangles, the others map rows
SCHEDULES = {
    "gt test": (_gt_test, _gt_kernel, _gt_loop, 12),
    "involution": (_involutions._involution, _involutions._kernel, _involutions._fold, 12),
    "diagonal": (_involutions._diagonal, _involutions._diagonal_kernel, _involutions._diagonal_loop, 12),
    "word route": (tableaux._word_route, tableaux._rsk_kernel, tableaux._staged_route, 6),
    "gt fill": (enumeration._gt_fill, enumeration._gt_fill_kernel, enumeration._gt_fill_loop, 12),
}


@cache
def kernel(name, n):
    """Schedule ``name``'s function of size n: up to the cap its kernel,
    built once per session apart from the resolver's cache, past it the
    loop, once the resolver is found to make the same choice."""
    resolver, build, loop, cap = SCHEDULES[name]
    assert resolver(n) is resolver(n) and (resolver(n) is loop) == (n > cap), (name, n)
    return build(n) if n <= cap else loop


def composed_word_route(t):
    """The word route as the composition of its public stages, each
    stage checking its own input."""
    n = t.n
    word = tableaux.complement_reverse(tableaux.reading_word(tableaux.triangle_to_tableau(t)), n)
    return tableaux.tableau_to_triangle(tableaux.rsk_insertion_tableau(word, n))


def outcome(route, t):
    """The rows ``route(t)`` gives, or the text of the error it raises."""
    try:
        return route(t).rows
    except ValueError as err:
        return f"ValueError: {err}"


def random_gt(rng: random.Random, n: int, bound: int) -> GtTriangle:
    """One uniform-ish triangle: random top row, then random interlacing."""
    top = sorted(rng.randint(1, bound) for _ in range(n))
    rows = [tuple(top)]
    for i in range(n - 1, 0, -1):
        above = rows[-1]
        rows.append(tuple(rng.randint(above[j], above[j + 1]) for j in range(i)))
    return GtTriangle(tuple(rows))


@st.composite
def drawn_gt(draw, n_min=1, n_max=12):
    """A GT triangle with n_min <= n <= n_max and entries at most n + 2: a
    weakly increasing top row, then each entry drawn inside its
    interlacing interval [x[i+1,j], x[i+1,j+1]]."""
    n = draw(st.integers(n_min, n_max))
    bound = draw(st.integers(1, n + 2))
    rows = [tuple(sorted(draw(st.lists(st.integers(1, bound), min_size=n, max_size=n))))]
    for i in range(n - 1, 0, -1):
        above = rows[-1]
        rows.append(tuple(draw(st.integers(above[j], above[j + 1])) for j in range(i)))
    return GtTriangle(tuple(rows))


def report_digest(report):
    """sha256 of a `verify` report without its timing, as `bench/run.py`
    hashes it: five fields, keys sorted."""
    fields = {k: getattr(report, k) for k in ("suite", "n", "checks", "failures", "histogram")}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@pytest.fixture
def rng():
    return random.Random(0xA5317)

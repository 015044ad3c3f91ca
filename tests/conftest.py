import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gogmagog.triangles import GtTriangle

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
    from gogmagog.enumeration import _generate_gt

    yield from _generate_gt(n, bound)


def gt_perturbations():
    """(t, p) for every single-entry +-1 perturbation p of every GT
    triangle t with n <= 4 and entries <= n+1."""
    for n in range(1, 5):
        for t in gt_triangles(n, n + 1):
            for r in range(n):
                for c in range(n - r):
                    for delta in (-1, 1):
                        rows = [list(row) for row in t.rows]
                        rows[r][c] += delta
                        yield t, GtTriangle(tuple(tuple(row) for row in rows))


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

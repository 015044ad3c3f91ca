import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogmagog.schutzenberger import bender_knuth, is_gogam, schutzenberger, schutzenberger_diagonal
from gogmagog.tableaux import schutzenberger_via_words
from gogmagog.triangles import GtTriangle, is_magog, is_valid_gt, parse_triangle

from conftest import FIXTURES, drawn_gt, gt_perturbations, gt_triangles, random_gt, tri

# the package re-exports the function under the module's name
module = importlib.import_module("gogmagog.schutzenberger")
gt_module = importlib.import_module("gogmagog.triangles")


class TestBenderKnuth:
    def test_reflection_inside_interval(self):
        assert bender_knuth(tri((1, 2), (2,)), 1) == tri((1, 2), (1,))

    def test_each_operator_is_an_involution(self):
        for t in gt_triangles(3, 4):
            for k in (1, 2):
                assert bender_knuth(bender_knuth(t, k), k) == t

    def test_preserves_validity_randomized(self, rng):
        for _ in range(10_000):
            n = rng.randint(2, 5)
            t = random_gt(rng, n, n + 2)
            k = rng.randint(1, n - 1)
            assert is_valid_gt(bender_knuth(t, k))

    def test_row_index_bounds(self):
        with pytest.raises(ValueError):
            bender_knuth(tri((1, 2), (1,)), 2)

    def test_braid_relation_fails_on_fixture(self):
        t = parse_triangle((FIXTURES / "braid_witness.txt").read_text())

        def chain(t, ks):
            for k in ks:
                t = bender_knuth(t, k)
            return t

        assert chain(t, (1, 2, 1)) != chain(t, (2, 1, 2))


class TestInvolution:
    def test_size2(self):
        assert schutzenberger(tri((1, 2), (2,))) == tri((1, 2), (1,))

    def test_frozen_size5_witness(self):
        # The composition order of the sweeps is fixed empirically: both
        # orders are involutions, but only longest-sweep-first matches
        # the word oracle and the diagonal formula.  Frozen image of a
        # generic size-5 triangle, computed through the word pipeline.
        t = tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
        image = tri((1, 2, 2, 3, 6), (1, 2, 3, 5), (1, 3, 4), (2, 4), (4,))
        assert schutzenberger(t) == image
        assert schutzenberger_via_words(t) == image

    def test_involution_and_fixed_corner(self):
        for n, bound in ((2, 4), (3, 4)):
            for t in gt_triangles(n, bound):
                s = schutzenberger(t)
                assert schutzenberger(s) == t
                assert s[n, n] == t[n, n]

    def test_matches_word_oracle(self):
        for t in gt_triangles(3, 5):
            assert schutzenberger(t) == schutzenberger_via_words(t)

    def test_matches_word_oracle_random(self, rng):
        for _ in range(100):
            t = random_gt(rng, 5, 7)
            assert schutzenberger(t) == schutzenberger_via_words(t)


class TestDiagonalFormula:
    def test_size2_by_hand(self):
        assert schutzenberger_diagonal(tri((1, 2), (2,))) == (1, 2)

    def test_constant_triangle(self):
        flat = tri((2, 2, 2), (2, 2), (2,))
        assert schutzenberger_diagonal(flat) == (2, 2, 2)

    def test_matches_image_diagonal(self):
        for n, bound in ((2, 4), (3, 5), (4, 5)):
            for t in gt_triangles(n, bound):
                s = schutzenberger(t)
                got = schutzenberger_diagonal(t)
                assert got == tuple(s[k, k] for k in range(1, n + 1))


class TestGogam:
    def test_size2(self):
        assert is_gogam(tri((1, 2), (2,)))

    def test_worked_output(self):
        assert is_gogam(tri((1, 1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 3), (1, 3), (2,)))

    def test_large_corner_fails(self):
        assert not is_gogam(tri((1, 3), (2,)))

    def test_agrees_with_involution_image(self):
        for n, bound in ((2, 4), (3, 5), (4, 5)):
            for t in gt_triangles(n, bound):
                assert is_gogam(t) == is_magog(schutzenberger(t))


def _diagonal_reference(t):
    """A second implementation of `schutzenberger_diagonal`: one DP over
    (step, column), with a table indexed by 1-based columns."""
    rows = t.rows
    n = len(rows)
    corner = rows[0][-1]
    values = [0] * n
    values[n - 1] = corner

    def w(m, c):  # x[c+m, c] - x[c+m-1, c]
        return rows[n - c - m][c - 1] - rows[n - c - m + 1][c - 1]

    f = [[None] * (n + 2)]
    for m in range(1, n):
        fm = [None] * (n + 2)
        if m == 1:
            for c in range(1, n):
                fm[c] = w(1, c)
        else:
            prev = f[m - 1]
            best_val = None
            for c in range(n - m, 0, -1):
                cand = c + 1
                if cand <= n - m + 1 and prev[cand] is not None:
                    if best_val is None or prev[cand] > best_val:
                        best_val = prev[cand]
                if best_val is not None:
                    fm[c] = best_val + w(m, c)
        f.append(fm)
        values[n - m - 1] = corner + max(fm[c] for c in range(1, n - m + 1) if fm[c] is not None)
    return tuple(values)


def _check_diagonal_kernel(n_max):
    """Diagonals equal to the reference, and `is_gogam` equal to the bound
    test on the reference diagonal, on every GT triangle with n <= n_max
    and entries <= n+1; returns (triangles, GOGAm members)."""
    seen = members = 0
    for n in range(1, n_max + 1):
        for t in gt_triangles(n, n + 1):
            ref = _diagonal_reference(t)
            assert schutzenberger_diagonal(t) == ref
            member = all(ref[k - 1] <= k for k in range(1, n + 1))
            assert is_gogam(t) == member
            seen += 1
            members += member
    return seen, members


class TestDiagonalKernel:
    def test_matches_back_pointer_reference(self):
        assert _check_diagonal_kernel(4) == (2_896, 52)

    @pytest.mark.slow
    def test_matches_back_pointer_reference_n5(self):
        assert _check_diagonal_kernel(5) == (153_904, 481)


def _bender_knuth_reference(t, k):
    """The cell-by-cell definition of `bender_knuth`, through ``t[i, j]``."""
    new_row = []
    for j in range(1, k + 1):
        lo = t[k + 1, j]
        if k >= 2 and j >= 2:
            lo = max(lo, t[k - 1, j - 1])
        hi = t[k + 1, j + 1]
        if j <= k - 1:
            hi = min(hi, t[k - 1, j])
        new_row.append(lo + hi - t[k, j])
    rows = list(t.rows)
    rows[t.n - k] = tuple(new_row)
    return GtTriangle(tuple(rows))


class TestInPlaceReflections:
    """The in-place routes against their definitions, over every GT
    triangle with n <= 4 and entries <= n+1 (2,896 triangles)."""

    def test_reflection_matches_cell_reference(self):
        for n in range(2, 5):
            for t in gt_triangles(n, n + 1):
                for k in range(1, n):
                    assert bender_knuth(t, k) == _bender_knuth_reference(t, k)

    def test_involution_is_the_longest_first_fold_of_sweeps(self):
        checked = 0
        for n in range(1, 5):
            for t in gt_triangles(n, n + 1):
                by_sweeps = by_cells = t
                for j in range(n - 1, 0, -1):
                    for k in range(1, j + 1):
                        by_sweeps = bender_knuth(by_sweeps, k)
                        by_cells = _bender_knuth_reference(by_cells, k)
                assert schutzenberger(t) == by_sweeps == by_cells
                checked += 1
        assert checked == 2896

    def test_input_is_left_untouched(self):
        t = tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
        rows = t.rows
        schutzenberger(t)
        for k in range(1, 5):
            bender_knuth(t, k)
        assert t.rows == rows == ((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))


def _unreachable(*args):
    raise AssertionError("wrong path")


# The straight-line path must reach no loop (the GT loop is the only
# reader of `triangles.le`); the loop path, with both caps at 0, must
# build no kernel.
_LOOPS = ((gt_module, "le"), (module, "_reflect"), (module, "_chain_optima"))
_KERNELS = ((gt_module, "_gt_kernel"), (module, "_kernel"), (module, "_diagonal_kernel"))

# each straight-line kernel behind the function that calls it
_KERNEL_CALLERS = {
    "involution": lambda t: schutzenberger(t).rows,
    "gt": lambda t: gt_module._is_gt_rows(t.rows),
    "diagonal": schutzenberger_diagonal,
    "gogam": is_gogam,
}


def _both_paths(fn, triangles):
    """``fn`` on each triangle through the straight-line kernels, then
    through the loops and folds they unroll, which still run past
    `_UNROLL_MAX_N`; each path runs with the other one patched to fail."""
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in _LOOPS:
            patch.setattr(owner, name, _unreachable)
        unrolled = [fn(t) for t in triangles]
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in _KERNELS:
            patch.setattr(owner, name, _unreachable)
        patch.setattr(gt_module, "_UNROLL_MAX_N", 0)
        patch.setattr(module, "_UNROLL_MAX_N", 0)
        folded = [fn(t) for t in triangles]
    return unrolled, folded


def _kernels_match_loops(triangles):
    """Each kernel caller's results on ``triangles``, once both paths
    agree on them."""
    results = {}
    for caller, fn in _KERNEL_CALLERS.items():
        unrolled, folded = _both_paths(fn, triangles)
        assert unrolled == folded, caller
        results[caller] = unrolled
    return results


class TestUnrolledKernel:
    """The per-size straight-line functions against the loops and folds
    they unroll."""

    def test_matches_the_fold_on_gt(self):
        triangles = [t for n in range(1, 5) for t in gt_triangles(n, n + 1)]
        assert len(triangles) == 2896
        got = _kernels_match_loops(triangles)
        assert all(got["gt"]) and sum(got["gogam"]) == 52

    def test_matches_the_fold_off_gt(self):
        # same results off GT too: the kernels keep the loops' arithmetic
        triangles = [p for _, p in gt_perturbations() if not is_valid_gt(p)]
        assert len(triangles) == 33_974
        got = _kernels_match_loops(triangles)
        assert not any(got["gt"]) and not any(got["gogam"])

    def test_import_builds_no_kernel(self):
        # a fresh interpreter: importing the package and its CLI compiles
        # none of the three kernels
        probe = (
            "import gogmagog, gogmagog.cli, sys; "
            "s = sys.modules['gogmagog.schutzenberger']; "
            "t = sys.modules['gogmagog.triangles']; "
            "print([k.cache_info().currsize "
            "for k in (s._kernel, s._diagonal_kernel, t._gt_kernel)])"
        )
        src = str(Path(module.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout == "[0, 0, 0]\n"


def _perturbed(t, r, c, delta):
    """``t`` with the entry at top-down row r, column c moved by delta."""
    rows = [list(row) for row in t.rows]
    rows[r][c] += delta
    return GtTriangle(tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("n", range(1, module._UNROLL_MAX_N + 1))
@settings(max_examples=25)
@given(data=st.data())
def test_kernels_match_their_loops_on_and_off_drawn_triangles(n, data):
    t = data.draw(drawn_gt(n_min=n, n_max=n))
    r = data.draw(st.integers(0, n - 1))
    p = _perturbed(t, r, data.draw(st.integers(0, n - 1 - r)), data.draw(st.sampled_from((-1, 1))))
    _kernels_match_loops([t, p])


@settings(max_examples=40)
@given(drawn_gt(n_min=module._UNROLL_MAX_N + 1, n_max=16), st.data())
def test_fold_past_the_cap_on_drawn_triangles(t, data):
    assert t.n > module._UNROLL_MAX_N
    # raise a lower-row entry over its upper bound x[i+1,j+1]
    r = data.draw(st.integers(1, t.n - 1))
    c = data.draw(st.integers(0, t.n - 1 - r))
    broken = _perturbed(t, r, c, t.rows[r - 1][c + 1] - t.rows[r][c] + 1)
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in _KERNELS:
            patch.setattr(owner, name, _unreachable)
        s = schutzenberger(t)
        assert s == schutzenberger_via_words(t)
        assert schutzenberger(s) == t
        assert is_gogam(t) == is_magog(s)
        assert schutzenberger_diagonal(t) == tuple(s[k, k] for k in range(1, t.n + 1))
        assert is_valid_gt(t) and not is_valid_gt(broken)


# every Bender-Knuth reflection acts on a row below the top, which is
# what lets the GOGAm generator sort one top-row class at a time


@settings(max_examples=100)
@given(drawn_gt())
def test_involution_keeps_the_top_row(t):
    assert schutzenberger(t).rows[0] == t.rows[0]


@settings(max_examples=40)
@given(drawn_gt(n_min=module._UNROLL_MAX_N + 1, n_max=16))
def test_fold_keeps_the_top_row(t):
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in _KERNELS:
            patch.setattr(owner, name, _unreachable)
        assert schutzenberger(t).rows[0] == t.rows[0]


@pytest.mark.parametrize("index", [True, False, 1.0, 1.5, "1", None], ids=repr)
@pytest.mark.parametrize("call", [bender_knuth])
def test_row_indices_must_be_integers(call, index):
    # never coerced: True is not row 1, nor 1.0 row 1
    with pytest.raises(ValueError, match="must be an integer"):
        call(tri((1, 2, 3), (1, 3), (2,)), index)


@settings(max_examples=200)
@given(drawn_gt())
def test_involution_properties_on_drawn_triangles(t):
    s = schutzenberger(t)
    assert s == schutzenberger_via_words(t)
    assert schutzenberger(s) == t
    assert schutzenberger_diagonal(t) == tuple(s[k, k] for k in range(1, t.n + 1))
    assert is_gogam(t) == is_magog(s)

import ast
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
from gogmagog.triangles import _UNROLL_MAX_N, GtTriangle, is_magog, is_valid_gt, parse_triangle, validate_gt

from conftest import (FIXTURES, SCHEDULES, broken_perturbations, drawn_gt, drawn_perturbation,
                      gt_triangles, gt_up_to_4, kernel, perturbed, random_gt, tri)

# the package re-exports the function under the module's name
module = importlib.import_module("gogmagog.schutzenberger")


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
        assert _check_slice(gt_triangles(3, 5), words=True) == (294, 7)

    def test_matches_word_oracle_random(self, rng):
        triangles = [random_gt(rng, 5, 7) for _ in range(100)]
        assert _check_slice(triangles, words=True)[0] == 100


class TestDiagonalFormula:
    def test_size2_by_hand(self):
        assert schutzenberger_diagonal(tri((1, 2), (2,))) == (1, 2)

    def test_constant_triangle(self):
        flat = tri((2, 2, 2), (2, 2), (2,))
        assert schutzenberger_diagonal(flat) == (2, 2, 2)

    def test_matches_image_diagonal(self):
        # sizes 3 and 4 of this set are `test_matches_word_oracle`'s and
        # `TestUnrolledKernel::test_matches_the_fold_on_gt`'s slices
        assert _check_slice(gt_triangles(2, 4)) == (20, 2)


class TestGogam:
    def test_size2(self):
        assert is_gogam(tri((1, 2), (2,)))

    def test_worked_output(self):
        assert is_gogam(tri((1, 1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 3), (1, 3), (2,)))

    def test_large_corner_fails(self):
        assert not is_gogam(tri((1, 3), (2,)))

    def test_agrees_with_involution_image(self):
        # `_check_rows` compares `is_gogam` with the image's Magog test on
        # each of these triangles (in `_check_slice` or on
        # `gt_up_to_4`); here the members are counted: all the GOGAm
        # triangles of each size, as the corner bounds every entry
        sizes = ((2, 4), (3, 5), (4, 5))
        assert [sum(map(is_gogam, gt_triangles(n, bound))) for n, bound in sizes] == [2, 7, 42]


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
        for t in gt_up_to_4():
            for k in range(1, t.n):
                assert bender_knuth(t, k) == _bender_knuth_reference(t, k)

    def test_involution_is_the_longest_first_fold_of_sweeps(self):
        for t in gt_up_to_4():
            by_sweeps = by_cells = t
            for j in range(t.n - 1, 0, -1):
                for k in range(1, j + 1):
                    by_sweeps = bender_knuth(by_sweeps, k)
                    by_cells = _bender_knuth_reference(by_cells, k)
            assert schutzenberger(t) == by_sweeps == by_cells
        assert len(gt_up_to_4()) == 2_896

    def test_input_is_left_untouched(self):
        t = tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
        rows = t.rows
        schutzenberger(t)
        for k in range(1, 5):
            bender_knuth(t, k)
        assert t.rows == rows == ((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))


class TestUnrolledKernel:
    def test_import_builds_no_kernel(self):
        # a fresh interpreter: importing the package and its CLI compiles
        # no kernel source, and the objects of the package that cache
        # are exactly the five resolvers, none holding a size yet
        probe = (
            "import builtins, sys\n"
            "compiled, real = [], builtins.compile\n"
            "builtins.compile = lambda source, name, *a, **k: "
            "(compiled.append(str(name)), real(source, name, *a, **k))[1]\n"
            "import gogmagog, gogmagog.cli\n"
            "found = {id(f): (k, f.cache_info().currsize)\n"
            "    for name, m in list(sys.modules.items()) if name.startswith('gogmagog')\n"
            "    for k, f in vars(m).items() if hasattr(f, 'cache_info')}\n"
            "print((sorted(found.values()), [c for c in compiled if 'kernel' in c]))"
        )
        src = str(Path(module.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        resolvers, kernels = ast.literal_eval(out.stdout)
        names = ["_diagonal", "_gt_fill", "_gt_test", "_involution", "_word_route"]
        assert resolvers == [(name, 0) for name in names]
        assert kernels == []

    def test_matches_the_fold_on_gt(self):
        got = [_check_rows(t) for t in gt_up_to_4()]
        assert len(got) == 2_896 and all(gt for gt, _ in got)
        assert sum(gogam for _, gogam in got) == 52

    def test_matches_the_fold_off_gt(self):
        # same results off GT too, entries below 1 included: the kernels
        # keep the loops' arithmetic
        cases = [*broken_perturbations(), tri((0,)), tri((-2, 0), (1,))]
        assert len(cases) == 33_976
        assert not any(gt or gogam for gt, gogam in map(_check_rows, cases))


_ROW_SCHEDULES = ("gt test", "involution", "diagonal")


def _check_rows(t):
    """(GT, GOGAm) of ``t``, once the GT test's, the involution's and the
    diagonal's functions of the size give their loops' results, the loops
    agree with references and each other, and the public functions give
    the loops' results."""
    rows = t.rows
    gt, image, diagonal = results = [SCHEDULES[name][2](rows) for name in _ROW_SCHEDULES]
    assert [kernel(name, t.n)(rows) for name in _ROW_SCHEDULES] == results
    assert gt == (validate_gt(t) == [])
    assert schutzenberger(t).rows == image and schutzenberger_diagonal(t) == diagonal
    gogam = is_gogam(t)
    assert gt or not gogam
    if gt:
        # the image's image is the input, the diagonal is the image's
        s = GtTriangle._trusted(image)
        assert module._fold(image) == rows
        assert diagonal == tuple(s[k, k] for k in range(1, t.n + 1))
        assert gogam == is_magog(s)
    return gt, gogam


def _check_slice(triangles, words=False):
    """`_check_rows` on a slice of GT triangles and, with ``words``, the
    word route against the involution; returns (triangles, GOGAm
    members)."""
    seen = members = 0
    for t in triangles:
        gt, gogam = _check_rows(t)
        assert gt
        if words:
            assert schutzenberger_via_words(t) == schutzenberger(t)
        seen += 1
        members += gogam
    return seen, members


def _check_drawn(t, data):
    """`_check_rows` on a drawn GT triangle, a +-1 perturbation of it and,
    from n = 2 on, a lower-row entry raised over its upper bound."""
    assert _check_rows(t)[0]
    _check_rows(drawn_perturbation(data, t))
    if t.n >= 2:
        r = data.draw(st.integers(1, t.n - 1))
        c = data.draw(st.integers(0, t.n - 1 - r))
        assert not _check_rows(perturbed(t, r, c, t.rows[r - 1][c + 1] - t.rows[r][c] + 1))[0]


@pytest.mark.parametrize("n", range(1, _UNROLL_MAX_N + 1))
@settings(max_examples=25)
@given(data=st.data())
def test_kernels_match_their_loops_on_and_off_drawn_triangles(n, data):
    _check_drawn(data.draw(drawn_gt(n_min=n, n_max=n)), data)


@settings(max_examples=40)
@given(drawn_gt(n_min=_UNROLL_MAX_N + 1, n_max=16), st.data())
def test_fold_past_the_cap_on_drawn_triangles(t, data):
    # past the cap each resolver gives its loop, which `kernel` checks
    _check_drawn(t, data)
    assert schutzenberger(t) == schutzenberger_via_words(t)


# every Bender-Knuth reflection acts on a row below the top, which is
# what lets the GOGAm generator sort one top-row class at a time


@settings(max_examples=100)
@given(drawn_gt())
def test_involution_keeps_the_top_row(t):
    assert schutzenberger(t).rows[0] == t.rows[0]


@settings(max_examples=40)
@given(drawn_gt(n_min=_UNROLL_MAX_N + 1, n_max=16))
def test_fold_keeps_the_top_row(t):
    assert kernel("involution", t.n)(t.rows)[0] == t.rows[0]


@pytest.mark.parametrize("index", [True, False, 1.0, 1.5, "1", None], ids=repr)
@pytest.mark.parametrize("call", [bender_knuth])
def test_row_indices_must_be_integers(call, index):
    # never coerced: True is not row 1, nor 1.0 row 1
    with pytest.raises(ValueError, match="must be an integer"):
        call(tri((1, 2, 3), (1, 3), (2,)), index)


@settings(max_examples=200)
@given(drawn_gt())
def test_involution_properties_on_drawn_triangles(t):
    _check_slice([t], words=True)

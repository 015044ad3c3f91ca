import pytest

from gogmagog.schutzenberger import (
    bender_knuth,
    bender_knuth_sweep,
    is_gogam,
    schutzenberger,
    schutzenberger_diagonal,
)
from gogmagog.tableaux import schutzenberger_via_words
from gogmagog.triangles import GtTriangle, is_magog, is_valid_gt, parse_triangle

from conftest import FIXTURES, gt_triangles, random_gt, tri


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


class TestSweep:
    def test_length_one_sweep_is_the_first_operator(self):
        for t in gt_triangles(3, 4):
            assert bender_knuth_sweep(t, 1) == bender_knuth(t, 1)

    def test_sweep_unfolds_into_single_steps(self):
        for t in gt_triangles(3, 4):
            assert bender_knuth_sweep(t, 2) == bender_knuth(bender_knuth(t, 1), 2)

    def test_constant_triangle_is_fixed(self):
        flat = tri((3, 3, 3, 3), (3, 3, 3), (3, 3), (3,))
        assert bender_knuth_sweep(flat, 3) == flat


class TestInvolution:
    def test_size2(self):
        assert schutzenberger(tri((1, 2), (2,))) == tri((1, 2), (1,))

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
        table = schutzenberger_diagonal(tri((1, 2), (2,)))
        assert table.values == (1, 2)
        assert table.chains == ((2, 1), (2,))

    def test_constant_triangle(self):
        flat = tri((2, 2, 2), (2, 2), (2,))
        assert schutzenberger_diagonal(flat).values == (2, 2, 2)

    def test_matches_image_diagonal(self):
        for n, bound in ((2, 4), (3, 5), (4, 5)):
            for t in gt_triangles(n, bound):
                s = schutzenberger(t)
                got = schutzenberger_diagonal(t).values
                assert got == tuple(s[k, k] for k in range(1, n + 1))

    def test_witness_chains_are_strictly_decreasing_from_n(self):
        for t in gt_triangles(4, 5):
            table = schutzenberger_diagonal(t)
            for chain in table.chains:
                assert chain[0] == 4
                assert all(a > b for a, b in zip(chain, chain[1:]))


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
                    by_sweeps = bender_knuth_sweep(by_sweeps, j)
                    for k in range(1, j + 1):
                        by_cells = _bender_knuth_reference(by_cells, k)
                assert schutzenberger(t) == by_sweeps == by_cells
                checked += 1
        assert checked == 2896

    def test_input_is_left_untouched(self):
        t = tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
        rows = t.rows
        schutzenberger(t)
        bender_knuth_sweep(t, 4)
        assert t.rows == rows == ((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))

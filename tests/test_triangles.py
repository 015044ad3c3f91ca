import pytest

from gogmagog.triangles import (
    Family,
    GtTriangle,
    Inversion,
    ShapeError,
    Violation,
    covered_cells,
    covering_count,
    format_triangle,
    inversions,
    is_gog,
    is_gog_trapezoid_n2k,
    is_magog,
    is_magog_trapezoid_n2k,
    is_trapezoid,
    is_valid_gt,
    parse_triangle,
    triangle_from_json,
    triangle_to_json,
    validate_gt,
)

from conftest import gt_triangles, tri

GT5 = tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
GOG5 = tri((1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 4, 5), (2, 4), (3,))
GOG52 = tri((1, 2, 3, 4, 5), (1, 2, 4, 5), (1, 3, 4), (1, 3), (2,))


class TestValidate:
    def test_generic_size5_triangle_is_valid(self):
        assert validate_gt(GT5) == []

    def test_single_entry_triangle(self):
        assert validate_gt(tri((5,))) == []

    def test_interlacing_violation_located_at_lower_cell(self):
        bad = tri((1, 2), (3,))
        problems = validate_gt(bad)
        assert len(problems) == 1
        assert (problems[0].i, problems[0].j) == (1, 1)
        assert "x[1,1] <= x[2,2]" in problems[0].message

    def test_positivity_reported(self):
        problems = validate_gt(tri((0, 1), (1,)))
        assert any("positive" in p.message for p in problems)

    def test_malformed_shape_raises(self):
        with pytest.raises(ShapeError):
            GtTriangle(((1, 2, 3), (1,)))
        with pytest.raises(ShapeError):
            GtTriangle(())

    def test_rows_weakly_increase_in_every_valid_triangle(self):
        for t in gt_triangles(4, 4):
            for i in range(1, 5):
                row = t.row(i)
                assert all(a <= b for a, b in zip(row, row[1:]))


class TestFamilies:
    def test_gog_example(self):
        assert is_gog(GOG5)

    def test_gt_example_is_not_gog(self):
        assert not is_gog(GT5)  # top row is not 1..5

    def test_both_size2_gog_triangles(self):
        assert is_gog(tri((1, 2), (1,)))
        assert is_gog(tri((1, 2), (2,)))

    def test_magog_size2(self):
        assert is_magog(tri((1, 1), (1,)))
        assert is_magog(tri((1, 2), (1,)))
        assert not is_magog(tri((1, 2), (2,)))

    def test_magog_diagonal_bound(self):
        assert not is_magog(tri((1, 1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 3), (1, 3), (2,)))

    def test_exhaustive_size2_magog(self):
        magogs = [t for t in gt_triangles(2, 4) if is_magog(t)]
        assert magogs == [tri((1, 1), (1,)), tri((1, 2), (1,))]

    def test_gog_implies_valid_and_pinned(self):
        for t in gt_triangles(3, 4):
            if is_gog(t):
                assert is_valid_gt(t)
                assert t.row(3) == (1, 2, 3)


class TestTrapezoids:
    def test_five_two_trapezoid(self):
        assert is_trapezoid(GOG52, Family.GOG, 2)

    def test_gog_example_is_not_a_52_trapezoid(self):
        assert not is_trapezoid(GOG5, Family.GOG, 2)

    def test_every_size3_gog_is_a_32_trapezoid(self):
        for t in gt_triangles(3, 3):
            if is_gog(t):
                assert is_trapezoid(t, Family.GOG, 2)

    def test_magog_trapezoid_pins_to_one(self):
        assert is_trapezoid(tri((1, 1, 3), (1, 1), (1,)), Family.MAGOG, 2)
        assert not is_trapezoid(tri((1, 2, 3), (1, 2), (1,)), Family.MAGOG, 1)

    def test_n2k_class_k_equals_n_is_whole_family(self):
        assert is_gog_trapezoid_n2k(GOG52, 5)

    def test_n2k_subdiagonal_reference(self):
        t = tri((1, 2, 3), (1, 3), (1,))
        assert is_gog_trapezoid_n2k(t, 2)

    def test_n2k_k1_requires_staircase_subdiagonal(self):
        # with no reference entry the subdiagonal must follow j-1 exactly
        assert is_gog_trapezoid_n2k(tri((1, 2, 3), (1, 3), (3,)), 1)
        assert not is_gog_trapezoid_n2k(tri((1, 2, 3), (2, 3), (3,)), 1)

    def test_magog_n2k_class(self):
        assert is_magog_trapezoid_n2k(tri((1, 1, 3), (1, 1), (1,)), 1)
        assert not is_magog_trapezoid_n2k(tri((1, 1, 1), (1, 1), (1,)), 2)
        assert is_magog_trapezoid_n2k(tri((1, 1, 1), (1, 1), (1,)), 3)


class TestInversions:
    def test_worked_example_has_three(self):
        assert inversions(GOG5) == [Inversion(2, 2), Inversion(3, 1), Inversion(4, 1)]

    def test_size2(self):
        assert inversions(tri((1, 2), (2,))) == []
        assert inversions(tri((1, 2), (1,))) == [Inversion(1, 1)]

    def test_staircase_has_all_inversions(self):
        for n in (2, 3, 4, 5):
            stair = GtTriangle(tuple(tuple(range(1, i + 1)) for i in range(n, 0, -1)))
            assert len(inversions(stair)) == n * (n - 1) // 2

    def test_covering_figure(self):
        assert covered_cells(Inversion(3, 2), 5) == [(4, 3), (5, 4)]

    def test_covering_counts_on_small_triangle(self):
        t = tri((1, 2, 3), (1, 2), (2,))
        assert inversions(t) == [Inversion(2, 1), Inversion(2, 2)]
        assert covering_count(t, 3, 2) == 1
        assert covering_count(t, 3, 3) == 1
        for i, j in ((1, 1), (2, 1), (2, 2), (3, 1)):
            assert covering_count(t, i, j) == 0

    def test_no_inversions_means_no_covering(self):
        t = tri((1, 2), (2,))
        assert covering_count(t, 2, 1) == 0

    def test_covering_totals_match_ray_lengths(self):
        for t in gt_triangles(4, 4):
            if not is_gog(t):
                continue
            total = sum(
                covering_count(t, i, j)
                for i in range(1, 5)
                for j in range(1, i + 1)
            )
            assert total == sum(4 - inv.i for inv in inversions(t))


class TestFormats:
    def test_text_round_trip(self):
        assert parse_triangle(format_triangle(GT5)) == GT5

    def test_json_round_trip(self):
        assert triangle_from_json(triangle_to_json(GOG5)) == GOG5

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "rows_top_down": [[1.9, 2.5], [true]]}',
            '{"n": 2, "rows_top_down": [[1, 2], [true]]}',
            '{"n": 2, "rows_top_down": [[1, 2], ["2"]]}',
            '{"n": true, "rows_top_down": [[1]]}',
            '{"n": 2}',
            '{"n": 2, "rows_top_down": [1, 2]}',
            '{"n": 2, "rows_top_down": "12"}',
            "[[1, 2], [2]]",
        ],
        ids=["float", "bool", "string", "bool-size", "no-rows", "flat", "text", "list"],
    )
    def test_json_rejects_malformed_rows(self, text):
        with pytest.raises(ShapeError):
            triangle_from_json(text)

    def test_parse_rejects_wrong_row_count(self):
        with pytest.raises(ShapeError):
            parse_triangle("2\n1 2\n")

    def test_parse_rejects_non_integer(self):
        with pytest.raises(ShapeError):
            parse_triangle("1\nx\n")

    @pytest.mark.parametrize(
        "text",
        [
            "2\n1 2\n1_0\n",
            "2\n1 2\n\u0663\n",
            "\u0662\n1 2\n1\n",
            "1_0\n1\n",
            "2\n1 +2\n1\n",
            "2\n1 2\n1.0\n",
        ],
        ids=["underscore", "arabic-indic-entry", "arabic-indic-size", "underscore-size",
             "plus-sign", "decimal-point"],
    )
    def test_parse_accepts_only_ascii_decimal(self, text):
        with pytest.raises(ShapeError):
            parse_triangle(text)

    def test_parse_accepts_negative_and_padded_tokens(self):
        t = parse_triangle(" 2 \n-1   07\n 3\n")
        assert t.rows == ((-1, 7), (3,))

    def test_getitem_is_one_based(self):
        assert GT5[5, 5] == 6
        assert GT5[1, 1] == 3
        with pytest.raises(IndexError):
            GT5[5, 6]


def _validate_gt_reference(t):
    """The cell-by-cell definition of `validate_gt`, through ``t[i, j]``."""
    bad = []
    n = t.n
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            x = t[i, j]
            if x < 1:
                bad.append(Violation(i, j, f"entry {x} is not positive"))
    for i in range(1, n):
        for j in range(1, i + 1):
            x, lo, hi = t[i, j], t[i + 1, j], t[i + 1, j + 1]
            if x < lo:
                bad.append(Violation(i, j, f"{x} < {lo} breaks x[{i+1},{j}] <= x[{i},{j}]"))
            if x > hi:
                bad.append(Violation(i, j, f"{x} > {hi} breaks x[{i},{j}] <= x[{i+1},{j+1}]"))
    return bad


def test_validate_gt_matches_cell_reference_on_perturbations():
    """Every single-entry +-1 perturbation of every GT triangle with
    n <= 4 and entries <= n+1 gets the reference's violations, in order;
    the 2,896 triangles have 56,848 perturbations, 33,974 of them broken."""
    perturbed = broken = 0
    for n in range(1, 5):
        for t in gt_triangles(n, n + 1):
            assert validate_gt(t) == [] == _validate_gt_reference(t)
            for r in range(n):
                for c in range(n - r):
                    for delta in (-1, 1):
                        rows = [list(row) for row in t.rows]
                        rows[r][c] += delta
                        p = GtTriangle(tuple(tuple(row) for row in rows))
                        got = validate_gt(p)
                        assert got == _validate_gt_reference(p)
                        perturbed += 1
                        broken += bool(got)
    assert (perturbed, broken) == (56_848, 33_974)


def test_family_tests_match_cell_reference():
    """`is_gog`, `is_magog` and `is_trapezoid` read rows directly; their
    definitions through ``t[i, j]`` must agree on every GT triangle with
    n <= 4 and entries <= n+1."""
    for n in range(1, 5):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
        for t in gt_triangles(n, n + 1):
            gog = all(t[n, j] == j for j in range(1, n + 1)) and all(
                t[i, j] < t[i, j + 1] for i in range(2, n) for j in range(1, i)
            )
            assert is_gog(t) == gog
            assert is_magog(t) == all(t[i, i] <= i for i in range(1, n + 1))
            for k in range(1, n + 1):
                assert is_trapezoid(t, Family.GOG, k) == all(
                    t[i, j] == j for i, j in cells if i - j >= k
                )
                assert is_trapezoid(t, Family.MAGOG, k) == all(
                    t[i, j] == 1 for i, j in cells if i - j >= k
                )

import pytest

from gogmagog.bijection import _covering_walk
from gogmagog.schutzenberger import is_gogam, schutzenberger
from gogmagog.triangles import (
    Family,
    GtTriangle,
    Inversion,
    ShapeError,
    Violation,
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

from conftest import gt_perturbations, gt_triangles, gt_up_to_4, tri

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

    @pytest.mark.parametrize(
        "rows",
        [((1.9, 2.5), (1,)), ((1, 2), (2.0,)), ((1, 2), (True,)), ((1, 2), ("2",))],
        ids=["float", "integral-float", "bool", "string"],
    )
    def test_constructor_rejects_non_int_entries(self, rows):
        # nothing is truncated: (1.9, 2.5), (True,) would read as (1, 2), (1,)
        with pytest.raises(ShapeError, match="non-integer entry"):
            GtTriangle(rows)

    def test_constructor_accepts_int_lists(self):
        assert GtTriangle([[1, 2], [2]]).rows == ((1, 2), (2,))

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


SIZE3_GOG = tri((1, 2, 3), (1, 3), (2,))


@pytest.mark.parametrize("width", [True, False, 2.0, 1.5, "2", None], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda w: is_trapezoid(SIZE3_GOG, Family.GOG, w),
        lambda w: is_trapezoid(SIZE3_GOG, Family.MAGOG, w),
        lambda w: is_gog_trapezoid_n2k(SIZE3_GOG, w),
        lambda w: is_magog_trapezoid_n2k(SIZE3_GOG, w),
    ],
    ids=["is_trapezoid-gog", "is_trapezoid-magog", "gog_n2k", "magog_n2k"],
)
def test_widths_must_be_integers(call, width):
    # never coerced: True is not width 1, nor 2.0 width 2
    with pytest.raises(ValueError, match="must be an integer"):
        call(width)


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

    def test_covering_counts_on_small_triangle(self):
        t = tri((1, 2, 3), (1, 2), (2,))
        assert inversions(t) == [Inversion(2, 1), Inversion(2, 2)]
        invs = set(inversions(t))
        assert _covering_walk(invs, 3, 2) == 1
        assert _covering_walk(invs, 3, 3) == 1
        for i, j in ((1, 1), (2, 1), (2, 2), (3, 1)):
            assert _covering_walk(invs, i, j) == 0

    def test_no_inversions_means_no_covering(self):
        t = tri((1, 2), (2,))
        assert _covering_walk(set(inversions(t)), 2, 1) == 0

    def test_covering_totals_match_ray_lengths(self):
        for t in gt_triangles(4, 4):
            if not is_gog(t):
                continue
            invs = set(inversions(t))
            total = sum(
                _covering_walk(invs, i, j)
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
    """Every perturbation gets the reference's violations, in order; the
    2,896 triangles have 56,848 perturbations, 33,974 of them broken."""
    perturbed = broken = 0
    for t, p in gt_perturbations():
        assert validate_gt(t) == [] == _validate_gt_reference(t)
        got = validate_gt(p)
        assert got == _validate_gt_reference(p)
        perturbed += 1
        broken += bool(got)
    assert (perturbed, broken) == (56_848, 33_974)


def test_membership_tests_match_definitions_on_perturbations():
    """The early-exit membership tests against their definitions on the
    same 56,848 perturbations, broken ones included."""
    counts = [0, 0, 0, 0]
    for _, p in gt_perturbations():
        valid = not validate_gt(p)
        n = p.n
        gog = valid and all(p[n, j] == j for j in range(1, n + 1)) and all(
            p[i, j] < p[i, j + 1] for i in range(2, n) for j in range(1, i)
        )
        magog = valid and all(p[i, i] <= i for i in range(1, n + 1))
        gogam = valid and is_magog(schutzenberger(p))
        assert is_valid_gt(p) == valid
        assert is_gog(p) == gog
        assert is_magog(p) == magog
        assert is_gogam(p) == gogam
        for idx, member in enumerate((valid, gog, magog, gogam)):
            counts[idx] += member
    assert counts == [22_874, 414, 265, 252]


def test_family_tests_match_cell_reference():
    """`is_gog`, `is_magog` and `is_trapezoid` read rows directly; their
    definitions through ``t[i, j]`` must agree on every GT triangle with
    n <= 4 and entries <= n+1."""
    for t in gt_up_to_4():
        n = t.n
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
        gog = all(t[n, j] == j for j in range(1, n + 1)) and all(
            t[i, j] < t[i, j + 1] for i in range(2, n) for j in range(1, i)
        )
        assert is_gog(t) == gog
        assert is_magog(t) == all(t[i, i] <= i for i in range(1, n + 1))
        for k in range(1, n + 1):
            pinned = [t[i, j] for i, j in cells if i - j >= k]
            assert is_trapezoid(t, Family.GOG, k) == (pinned == [j for i, j in cells if i - j >= k])
            assert is_trapezoid(t, Family.MAGOG, k) == (pinned == [1] * len(pinned))

import pytest

from gogmagog.asm import (
    Asm,
    asm_from_json,
    asm_inversion_number,
    asm_to_gog,
    bottom_row_one_column,
    format_asm,
    gog_to_asm,
    parse_asm,
    validate_asm,
)
from gogmagog.enumeration import FamilySpec, generate, generate_asms
from gogmagog.triangles import Family, ShapeError, inversions

from conftest import tri

ASM5 = Asm(
    (
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (1, -1, 0, 0, 1),
        (0, 1, -1, 1, 0),
        (0, 0, 1, 0, 0),
    )
)
GOG5 = tri((1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 4, 5), (2, 4), (3,))


def identity(n):
    return Asm(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def antidiagonal(n):
    return Asm(tuple(tuple(int(i + j == n - 1) for j in range(n)) for i in range(n)))


class TestValidate:
    def test_worked_matrix(self):
        assert validate_asm(ASM5) == []

    def test_identity(self):
        assert validate_asm(identity(4)) == []

    def test_zero_row(self):
        bad = Asm(((0, 0), (1, 1)))
        assert any("row 1" in p for p in validate_asm(bad))

    def test_bad_entry_reported_separately(self):
        bad = Asm(((2, 0), (0, 1)))
        problems = validate_asm(bad)
        assert problems == ["entry (1,1) is 2, not in {-1,0,1}"]

    def test_sign_alternation(self):
        bad = Asm(((1, -1, 1), (0, 1, 0), (0, 1, 0)))
        assert any("column 2" in p for p in validate_asm(bad))


class TestBijection:
    def test_worked_matrix_to_gog(self):
        assert asm_to_gog(ASM5) == GOG5

    def test_gog_to_worked_matrix(self):
        assert gog_to_asm(GOG5) == ASM5

    def test_identity_gives_shifted_staircase(self):
        # column partial sums of the identity are 1 on suffixes, so row i
        # of the triangle reads n-i+1 .. n
        for n in (2, 3, 5):
            t = asm_to_gog(identity(n))
            for i in range(1, n + 1):
                assert t.row(i) == tuple(range(n - i + 1, n + 1))
            assert gog_to_asm(t) == identity(n)

    def test_antidiagonal_gives_pinned_staircase(self):
        assert asm_to_gog(antidiagonal(2)) == tri((1, 2), (1,))
        for n in (3, 4):
            t = asm_to_gog(antidiagonal(n))
            assert all(t[i, j] == j for i in range(1, n + 1) for j in range(1, i + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_exhaustive(self, n):
        for t in generate(FamilySpec(Family.GOG, n)):
            assert asm_to_gog(gog_to_asm(t)) == t
        for a in generate_asms(n):
            assert gog_to_asm(asm_to_gog(a)) == a


class TestInversionNumber:
    def test_identity_is_zero(self):
        assert asm_inversion_number(identity(5)) == 0

    def test_antidiagonal_n2(self):
        assert asm_inversion_number(antidiagonal(2)) == 1

    def test_worked_matrix_matches_triangle(self):
        assert asm_inversion_number(ASM5) == 3
        assert len(inversions(GOG5)) == 3

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agreement_exhaustive(self, n):
        for t in generate(FamilySpec(Family.GOG, n)):
            assert asm_inversion_number(gog_to_asm(t)) == len(inversions(t))


class TestStatistic:
    def test_worked_bottom_row(self):
        assert bottom_row_one_column(ASM5) == 3
        assert GOG5[1, 1] == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bottom_entry_is_bottom_row_column(self, n):
        for a in generate_asms(n):
            assert bottom_row_one_column(a) == asm_to_gog(a)[1, 1]


def test_text_round_trip():
    assert parse_asm(format_asm(ASM5)) == ASM5


@pytest.mark.parametrize(
    "rows",
    [((0.5, 1), (1, 0)), ((0, 1), (1.0, 0)), ((0, True), (1, 0)), ((0, 1), ("1", 0))],
    ids=["float", "integral-float", "bool", "string"],
)
def test_constructor_rejects_non_int_entries(rows):
    # nothing is truncated: (0.5, 1), (1, 0) would read as a permutation matrix
    with pytest.raises(ShapeError, match="non-integer entry"):
        Asm(rows)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "rows": [[0, 1], [1.5, 0]]}',
        '{"n": 2, "rows": [[0, 1], [true, 0]]}',
        '{"n": 2}',
        '{"n": 2, "rows": [[0, 1], 1]}',
        '"rows"',
    ],
    ids=["float", "bool", "no-rows", "flat-row", "string"],
)
def test_json_rejects_malformed_rows(text):
    with pytest.raises(ShapeError):
        asm_from_json(text)


@pytest.mark.parametrize(
    "text",
    ["2\n0 1\n1 0_0\n", "2\n0 1\n\u0661 0\n", "\u0662\n0 1\n1 0\n", "2\n0 +1\n1 0\n"],
    ids=["underscore", "arabic-indic-entry", "arabic-indic-size", "plus-sign"],
)
def test_text_rejects_non_ascii_decimal(text):
    with pytest.raises(ShapeError):
        parse_asm(text)

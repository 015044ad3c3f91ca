import json

import pytest

from gogmagog.enumeration import (
    FamilySpec,
    SUITES,
    asm_number,
    count,
    generate,
    generate_asms,
    verify,
)
from gogmagog.schutzenberger import is_gogam
from gogmagog.triangles import Family, is_gog, is_magog, is_trapezoid, is_valid_gt


def test_count_formula_values():
    assert [asm_number(n) for n in range(1, 8)] == [1, 2, 7, 42, 429, 7436, 218348]


@pytest.mark.parametrize("n,want", [(1, 1), (2, 2), (3, 7), (4, 42), (5, 429)])
def test_gog_and_magog_counts(n, want):
    assert count(FamilySpec(Family.GOG, n)) == want
    assert count(FamilySpec(Family.MAGOG, n)) == want


def test_gog_trapezoid_32_is_whole_family():
    assert count(FamilySpec(Family.GOG, 3, k=2)) == 7


def test_n1_trapezoid_counts_are_catalan():
    assert [count(FamilySpec(Family.GOG, n, k=1)) for n in range(1, 6)] == [1, 2, 5, 14, 42]


def test_gogam_count_via_involution():
    assert count(FamilySpec(Family.GOGAM, 3)) == 7


def test_generate_gt_requires_bound():
    with pytest.raises(ValueError):
        FamilySpec(Family.GT, 3)


def test_generated_objects_satisfy_their_predicates():
    for t in generate(FamilySpec(Family.GOG, 4)):
        assert is_gog(t)
    for t in generate(FamilySpec(Family.MAGOG, 4)):
        assert is_magog(t)
    for t in generate(FamilySpec(Family.GOGAM, 4, k=2)):
        assert is_gogam(t) and is_trapezoid(t, Family.GOGAM, 2)
    for t in generate(FamilySpec(Family.GT, 3, bound=4)):
        assert is_valid_gt(t)


def test_no_duplicates_and_deterministic_order():
    first = list(generate(FamilySpec(Family.MAGOG, 4)))
    second = list(generate(FamilySpec(Family.MAGOG, 4)))
    assert first == second
    assert len(set(first)) == len(first)


def test_emission_is_lexicographic():
    rows = [t.rows for t in generate(FamilySpec(Family.GOG, 4))]
    assert rows == sorted(rows)


def test_asm_generation_matches_formula():
    for n in range(1, 5):
        assert sum(1 for _ in generate_asms(n)) == asm_number(n)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_passes_small(suite):
    report = verify(suite, 3)
    assert report.ok, report.failures


def test_verify_rejects_empty_range():
    with pytest.raises(ValueError):
        verify("counts", 0)


def test_report_json_shape():
    data = json.loads(verify("counts", 2).to_json())
    assert set(data) == {"suite", "n", "checks", "failures", "histogram", "millis"}
    assert data["suite"] == "counts" and data["failures"] == []

"""Acceptance criteria, one test per criterion, every tolerance exact.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  The heavy criteria state explicit
wall-clock budgets (five minutes for the size-6 counts, ten minutes for
the full size-7 trapezoid sweep) and the tests enforce them.
Criterion 3 runs at n = 4 and at n = 5.  The opt-in slow tier
(``pytest -m slow``) runs criteria 5, 6 and 8 at n = 8, and criteria 5,
6 and 8 at n = 9 alone.
"""

import time

import pytest

from gogmagog.asm import bottom_row_one_column, gog_to_asm
from gogmagog.bijection import Rule, gog_to_gogam_n2
from gogmagog.enumeration import (
    FamilySpec,
    Report,
    SUITES,
    asm_number,
    count,
    generate,
    generate_asms,
    verify,
)
from gogmagog.schutzenberger import (
    bender_knuth,
    is_gogam,
    schutzenberger,
    schutzenberger_diagonal,
)
from gogmagog.tableaux import complement_reverse, reading_word, triangle_to_tableau
from gogmagog.triangles import Family, is_magog, is_trapezoid, parse_triangle

from conftest import FIXTURES, gt_triangles, tri

GOG52 = tri((1, 2, 3, 4, 5), (1, 2, 4, 5), (1, 3, 4), (1, 3), (2,))
GOGAM52 = tri((1, 1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 3), (1, 3), (2,))


def _passed(num, text):
    print(f"CRITERION {num:2d}: PASS - {text}")


def test_criterion_01_counts():
    start = time.monotonic()
    expected = [1, 2, 7, 42, 429]
    for n, want in enumerate(expected, start=1):
        assert count(FamilySpec(Family.GOG, n)) == want
        assert count(FamilySpec(Family.MAGOG, n)) == want
        assert sum(1 for _ in generate_asms(n)) == want
        assert asm_number(n) == want
    assert asm_number(6) == 7436
    assert count(FamilySpec(Family.GOG, 6)) == 7436
    assert count(FamilySpec(Family.MAGOG, 6)) == 7436
    assert sum(1 for _ in generate_asms(6)) == 7436
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"size-6 counting took {elapsed:.0f}s"
    _passed(1, f"counts 1,2,7,42,429,7436 for gog/magog/asm ({elapsed:.1f}s)")


def test_criterion_02_involution():
    checked = 0
    for n in (1, 2, 3, 4):
        for t in gt_triangles(n, 5):
            s = schutzenberger(t)
            assert schutzenberger(s) == t
            assert s[n, n] == t[n, n]
            checked += 1
    _passed(2, f"involution and fixed corner on {checked} triangles")


def test_criterion_03_oracle_equivalence():
    tab = triangle_to_tableau(tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,)))
    word = reading_word(tab)
    assert " ".join(map(str, word)) == "5 4 5 3 3 2 2 5 1 1 1 2 4 5"
    assert " ".join(map(str, complement_reverse(word, 5))) == "1 2 4 5 5 5 1 4 4 3 3 1 2 1"
    report = verify("oracle", 4)
    assert report.ok, report.failures
    _passed(3, f"word pipeline matches operator composite ({report.checks} triangles)")


def test_criterion_03_oracle_equivalence_n5():
    report = verify("oracle", 5)
    assert report.ok and report.failures == []
    assert report.checks == 153_904
    _passed(3, f"word pipeline matches operator composite up to n=5 "
               f"({report.checks} triangles, {report.millis} ms)")


def test_criterion_04_diagonal_formula():
    report = verify("lemma1", 4)
    assert report.ok, report.failures
    checked = report.checks
    for n in range(1, 7):
        for t in generate(FamilySpec(Family.GOG, n, k=min(2, n))):
            out, _ = gog_to_gogam_n2(t)
            diag = schutzenberger_diagonal(out)
            image = schutzenberger(out)
            assert diag == tuple(image[k, k] for k in range(1, n + 1))
            checked += 1
    _passed(4, f"diagonal formula = brute force = image diagonal ({checked} cases)")


def test_criterion_05_n2_bijection():
    start = time.monotonic()
    report = verify("bijection-n2", 7)
    assert report.ok, report.failures
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"size-7 sweep took {elapsed:.0f}s"
    total = sum(v for k, v in report.histogram.items() if k.startswith("trapezoids"))
    _passed(5, f"forward/inverse bijection over {total} trapezoids up to n=7 ({elapsed:.0f}s)")


def test_criterion_06_trace_lemmas():
    report = verify("rule-trace-lemmas", 7)
    assert report.ok, report.failures
    _passed(6, f"rule-sequence lemmas hold over every trace ({report.checks} checks)")


def test_criterion_07_n1_restriction():
    report = verify("n1-restriction", 6)
    assert report.ok, report.failures
    assert [count(FamilySpec(Family.GOG, n, k=1)) for n in range(1, 6)] == [1, 2, 5, 14, 42]
    _passed(7, "covering subtraction equals the general algorithm on (n,1)")


def test_criterion_08_statistic_preservation():
    report = verify("statistics", 6)
    assert report.ok, report.failures
    for n in range(1, 6):
        for t in generate(FamilySpec(Family.GOG, n)):
            assert bottom_row_one_column(gog_to_asm(t)) == t[1, 1]
    _passed(8, "bottom entry preserved and equal to the matrix bottom-row column")


def test_criterion_09_worked_example():
    out, trace = gog_to_gogam_n2(GOG52)
    assert out == GOGAM52
    assert [r.rule for r in trace] == [Rule.BASE, Rule.IIIA, Rule.IIIB, Rule.II]
    assert is_gogam(out) and is_trapezoid(out, Family.GOGAM, 2)
    assert is_magog(schutzenberger(out))
    _passed(9, "worked (5,2) trapezoid maps with trace base, iiia, iiib, ii")


def test_criterion_10_braid_failure_witness():
    t = parse_triangle((FIXTURES / "braid_witness.txt").read_text())
    assert t.n == 4

    def chain(x, ks):
        for k in ks:
            x = bender_knuth(x, k)
        return x

    assert chain(t, (1, 2, 1)) != chain(t, (2, 1, 2))
    _passed(10, "stored size-4 witness breaks the braid relation")


@pytest.mark.slow
def test_criterion_05_n2_bijection_n8():
    report = verify("bijection-n2", 8)
    assert report.ok and report.failures == []
    assert report.histogram["trapezoids-8"] == 113_945
    _passed(5, f"forward/inverse bijection over the (8,2) trapezoids ({report.millis} ms)")


@pytest.mark.slow
def test_criterion_05_n2_bijection_n9():
    # size 9 alone: the 1,070,324 images are kept as one int each
    start = time.monotonic()
    report = Report("bijection-n2", 9)
    SUITES["bijection-n2"](9, report)
    assert report.failures == []
    assert report.checks == 1_070_325
    assert report.histogram == {
        "rule-base": 1_070_324,
        "rule-i": 203_331,
        "rule-ii": 2_324_316,
        "rule-iiia": 639_103,
        "rule-iiib": 180_895,
        "rule-iva": 4_121_375,
        "rule-ivb": 23_248,
        "trapezoids-9": 1_070_324,
    }
    elapsed = time.monotonic() - start
    _passed(5, f"forward/inverse bijection over the (9,2) trapezoids ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_06_trace_lemmas_n8():
    report = verify("rule-trace-lemmas", 8)
    assert report.ok, report.failures
    _passed(6, f"rule-sequence lemmas up to n=8 ({report.checks} checks, {report.millis} ms)")


@pytest.mark.slow
def test_criterion_06_trace_lemmas_n9():
    # size 9 alone, as for criterion 5
    start = time.monotonic()
    report = Report("rule-trace-lemmas", 9)
    SUITES["rule-trace-lemmas"](9, report)
    assert report.failures == []
    assert report.checks == 15_416_070
    elapsed = time.monotonic() - start
    _passed(6, f"rule-sequence lemmas over the (9,2) walk ({report.checks} checks, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_08_statistic_preservation_n8():
    report = verify("statistics", 8)
    assert report.ok and report.failures == []
    assert report.checks == 129_219
    _passed(8, f"bottom entry preserved up to n=8 ({report.checks} checks, {report.millis} ms)")


@pytest.mark.slow
def test_criterion_08_statistic_preservation_n9():
    # size 9 alone: the (n <= 5) ASM part does not run, one check per trapezoid
    start = time.monotonic()
    report = Report("statistics", 9)
    SUITES["statistics"](9, report)
    assert report.failures == []
    assert report.checks == 1_070_324
    elapsed = time.monotonic() - start
    _passed(8, f"bottom entry preserved over the (9,2) trapezoids ({elapsed:.0f}s)")

import re
from bisect import bisect_right
from collections import Counter, namedtuple
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gogmagog.enumeration as enumeration
import gogmagog.tableaux as module
from gogmagog.tableaux import (
    Ssyt,
    complement_reverse,
    reading_word,
    rsk_insertion_tableau,
    schutzenberger_via_words,
    tableau_to_triangle,
    triangle_to_tableau,
    validate_ssyt,
)
from gogmagog.enumeration import _RSK_MAX_N
from gogmagog.schutzenberger import _fold, _involution, schutzenberger
from gogmagog.triangles import _UNROLL_MAX_N, GtTriangle, ShapeError, is_valid_gt

from conftest import (SCHEDULES, broken_perturbations, composed_stages, drawn_gt,
                      drawn_perturbation, gt_perturbations, gt_triangles, gt_up_to_4,
                      outcome, random_gt, tri)

GT5 = tri((1, 2, 2, 3, 6), (1, 2, 2, 5), (2, 2, 4), (2, 4), (3,))
TABLEAU5 = Ssyt(((1, 1, 1, 2, 4, 5), (2, 2, 5), (3, 3), (4, 5), (5,)), 5)
WORD5 = (5, 4, 5, 3, 3, 2, 2, 5, 1, 1, 1, 2, 4, 5)
WORD5_IMAGE = (1, 2, 4, 5, 5, 5, 1, 4, 4, 3, 3, 1, 2, 1)


def brute_longest_nondecreasing(word):
    best = [1] * len(word) if word else []
    for i in range(len(word)):
        for j in range(i):
            if word[j] <= word[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


class TestTriangleTableau:
    def test_generic_size5_triangle(self):
        tab = triangle_to_tableau(GT5)
        assert tab == TABLEAU5
        assert validate_ssyt(tab) == []

    def test_pinned_staircase_size2(self):
        assert triangle_to_tableau(tri((1, 2), (1,))).rows == ((1, 2), (2,))

    def test_single_cell(self):
        assert triangle_to_tableau(tri((4,))).rows == ((1, 1, 1, 1),)

    def test_round_trip_size5(self):
        assert tableau_to_triangle(TABLEAU5) == GT5

    def test_round_trip_exhaustive(self):
        for n, bound in ((2, 4), (3, 5), (4, 5)):
            for t in gt_triangles(n, bound):
                assert tableau_to_triangle(triangle_to_tableau(t)) == t

    def test_letters_above_bound_rejected(self):
        with pytest.raises(ValueError, match="exceed the alphabet bound 2"):
            tableau_to_triangle(Ssyt(((1, 3),), 2))

    def test_small_letter_above_its_row_rejected(self):
        with pytest.raises(ValueError, match="letter <= 1 appears above tableau row 1"):
            tableau_to_triangle(Ssyt(((2,), (1,)), 2))

    @pytest.mark.parametrize(
        "rows, n, why",
        [
            (((2, 1),), 2, "row 1 is not weakly increasing"),
            (((),), 1, "row 1 is empty"),
            (((1, 2), ()), 2, "row 2 is empty"),
            (((0, 1),), 1, "row 1 has letters outside 1..1"),
            (((1,), (2, 2)), 2, "row 2 is longer than row 1"),
            (((1, 2), (2, 2)), 2, "columns between rows 1 and 2 not strict"),
        ],
        ids=["decreasing-row", "empty-row", "empty-upper-row", "letter-0",
             "longer-upper-row", "column-not-strict"],
    )
    def test_non_semistandard_rejected(self, rows, n, why):
        # none may pass: ((2, 1),) would read as ((0, 2), (1,)), ((),) as ((0,),)
        with pytest.raises(ValueError, match=f"not semistandard: .*{why}"):
            tableau_to_triangle(Ssyt(rows, n))

    @pytest.mark.parametrize(
        "s",
        [Ssyt(((1,),), 2), Ssyt(((1, 1), (2,)), 3), rsk_insertion_tableau((), 2)],
        ids=["one-row-of-two", "two-rows-of-three", "empty-word"],
    )
    def test_too_few_rows_rejected(self, s):
        # semistandard, but no GT triangle: ((1,),) on 1..2 would read
        # as ((0, 1), (1,)), the empty tableau as ((0, 0), (0,))
        with pytest.raises(ValueError, match=f"tableau has {len(s.rows)} rows, needs {s.n}"):
            tableau_to_triangle(s)

    def test_rejections_match_reference_on_small_arrays(self):
        """Every array of at most three rows of at most two letters in
        0..n+1, n <= 3: where the parent's conversion raised, the same
        message; where it returned, the same triangle if the array is
        semistandard with n non-empty rows, a row-count rejection if it
        is semistandard with fewer (the reference padded those with zero
        entries), else a semistandard rejection."""
        outcomes = [0, 0, 0, 0]
        for n in range(1, 4):
            letters = range(n + 2)
            row_choices = [()] + [(a,) for a in letters] + list(product(letters, repeat=2))
            for k in range(4):
                for rows in product(row_choices, repeat=k):
                    s = Ssyt(rows, n)
                    try:
                        want = _tableau_to_triangle_reference(s)
                    except ValueError as err:
                        with pytest.raises(ValueError) as got:
                            tableau_to_triangle(s)
                        assert str(got.value) == str(err)
                        outcomes[0] += 1
                        continue
                    if validate_ssyt(s) == [] and all(rows) and len(rows) == n:
                        assert tableau_to_triangle(s).rows == want.rows
                        outcomes[1] += 1
                    elif validate_ssyt(s) == [] and all(rows):
                        assert 0 in (x for row in want.rows for x in row)
                        with pytest.raises(ValueError, match=f"has {len(rows)} rows, needs {n}"):
                            tableau_to_triangle(s)
                        outcomes[3] += 1
                    else:
                        with pytest.raises(ValueError, match="not semistandard"):
                            tableau_to_triangle(s)
                        outcomes[2] += 1
        assert outcomes == [42_164, 14, 676, 34]


class TestSsytEntries:
    @pytest.mark.parametrize(
        "rows",
        [((1.7, 2.2),), ((1, 2.0),), ((1, True),), ((1, "2"),)],
        ids=["float", "integral-float", "bool", "string"],
    )
    def test_constructor_rejects_non_int_entries(self, rows):
        # nothing is truncated: ((1.7, 2.2),) would read as ((1, 2),)
        with pytest.raises(ShapeError, match="non-integer entry"):
            Ssyt(rows, 2)

    def test_constructor_accepts_int_lists(self):
        assert Ssyt([[1, 1, 2], [2]], 2).rows == ((1, 1, 2), (2,))


class TestAlphabetSize:
    # each bad size with the whole message it must raise
    BAD = [
        (2.5, "alphabet size must be an integer, got 2.5"),
        (2.0, "alphabet size must be an integer, got 2.0"),
        (True, "alphabet size must be an integer, got True"),
        ("2", "alphabet size must be an integer, got '2'"),
        (None, "alphabet size must be an integer, got None"),
        (0, "alphabet size must be at least 1, got 0"),
        (-1, "alphabet size must be at least 1, got -1"),
    ]
    IDS = ["float", "integral-float", "bool", "string", "none", "zero", "negative"]

    @pytest.mark.parametrize("n, message", BAD, ids=IDS)
    def test_ssyt_rejects_bad_size(self, n, message):
        # True must not pass as 1, nor 2.5 reach tableau_to_triangle
        with pytest.raises(ValueError) as exc:
            Ssyt(((1,),), n)
        assert str(exc.value) == message

    @pytest.mark.parametrize("fn", [complement_reverse, rsk_insertion_tableau])
    @pytest.mark.parametrize("word", [(1, 2), ()], ids=["word", "empty-word"])
    @pytest.mark.parametrize("n, message", BAD, ids=IDS)
    def test_word_functions_reject_bad_size(self, fn, word, n, message):
        # (1, 2) on 2.5 would give the floats (1.5, 2.5), or a tableau
        # with n = 2.5
        with pytest.raises(ValueError) as exc:
            fn(word, n)
        assert str(exc.value) == message

    def test_size_one_accepted(self):
        assert Ssyt(((1,),), 1).n == 1
        assert complement_reverse((1, 1), 1) == (1, 1)
        assert rsk_insertion_tableau((1, 1), 1) == Ssyt(((1, 1),), 1)


class TestWords:
    def test_size5_reading_word(self):
        assert reading_word(TABLEAU5) == WORD5

    def test_single_row(self):
        assert reading_word(Ssyt(((1, 1, 2),), 3)) == (1, 1, 2)

    def test_single_column_reads_top_down(self):
        col = Ssyt(tuple((i,) for i in range(1, 5)), 4)
        assert reading_word(col) == (4, 3, 2, 1)

    def test_size5_complement_reverse(self):
        assert complement_reverse(WORD5, 5) == WORD5_IMAGE

    def test_empty_word(self):
        assert complement_reverse((), 3) == ()

    def test_involution(self):
        assert complement_reverse(WORD5_IMAGE, 5) == WORD5

    def test_reading_word_runs_are_tableau_rows(self):
        # maximal nondecreasing runs of the reading word recover the rows
        for t in gt_triangles(4, 5):
            tab = triangle_to_tableau(t)
            word = reading_word(tab)
            runs, run = [], []
            for x in word:
                if run and x < run[-1]:
                    runs.append(tuple(run))
                    run = []
                run.append(x)
            runs.append(tuple(run))
            assert tuple(runs) == tuple(reversed(tab.rows))

    @pytest.mark.parametrize("fn", [complement_reverse, rsk_insertion_tableau])
    @pytest.mark.parametrize(
        "word, why",
        [((1.5, 2), "integers"), ((1, True), "integers"), ((1, "2"), "integers"),
         ((0, 2), "lie in 1..2"), ((1, 3), "lie in 1..2"), ((0, 5, -1), "lie in 1..2")],
        ids=["float", "bool", "string", "zero", "above-n", "both-sides"],
    )
    def test_bad_letters_rejected(self, fn, word, why):
        # nothing is truncated or passed through: (1.5, 2) must not read
        # as (1, 2), nor (0, 5, -1) give letters outside 1..2
        with pytest.raises(ValueError, match=why):
            fn(word, 2)


class TestRsk:
    def test_two_letters(self):
        assert rsk_insertion_tableau((2, 1), 2).rows == ((1,), (2,))

    def test_nondecreasing_word_is_one_row(self):
        assert rsk_insertion_tableau((1, 1, 2), 2).rows == ((1, 1, 2),)

    def test_empty_word(self):
        assert rsk_insertion_tableau((), 3) == Ssyt((), 3)

    def test_result_is_semistandard(self, rng):
        for _ in range(200):
            n = rng.randint(1, 6)
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 12)))
            assert validate_ssyt(rsk_insertion_tableau(word, n)) == []

    def test_bottom_row_is_longest_nondecreasing_subsequence(self, rng):
        for _ in range(1000):
            n = rng.randint(1, 7)
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 14)))
            tab = rsk_insertion_tableau(word, n)
            got = len(tab.rows[0]) if tab.rows else 0
            assert got == brute_longest_nondecreasing(word)


class TestWordOracle:
    def test_size2(self):
        assert schutzenberger_via_words(tri((1, 2), (2,))) == tri((1, 2), (1,))
        assert schutzenberger_via_words(tri((1, 1), (1,))) == tri((1, 1), (1,))

    def test_involution_exhaustive(self):
        for t in gt_triangles(3, 4):
            assert schutzenberger_via_words(schutzenberger_via_words(t)) == t

    def test_involution_random_larger(self, rng):
        for _ in range(50):
            t = random_gt(rng, 6, 8)
            assert schutzenberger_via_words(schutzenberger_via_words(t)) == t


# outcomes: top-down rows, None where the staged route falls short, or an error's text
Routes = namedtuple("Routes", "staged public composed")


def _routes(triangles):
    """`Routes` of each of ``triangles``, each route run once:
    `_staged_route`, `schutzenberger_via_words` and `composed_stages`.
    The public route gives the composed stages' rows or error text, and
    the staged route their rows, or None exactly where they raise for a
    short tableau."""
    for t in triangles:
        r = Routes(module._staged_route(t.rows), outcome(schutzenberger_via_words, t),
                   outcome(composed_stages, t))
        short = bool(re.fullmatch(r"ValueError: tableau has \d+ rows, needs \d+", str(r.composed)))
        assert r.staged == (None if short else r.composed) and r.public == r.composed, t
        yield r


@cache
def routes(inputs):
    """`_routes` of `gt_up_to_4` ("gt") or `broken_perturbations` ("broken"), once per session."""
    return list(_routes(gt_up_to_4() if inputs == "gt" else broken_perturbations()))


class TestWordKernels:
    """The staged route, which the `oracle` sweep's loop runs and the
    tests of its fused lines take as their reference, against the
    public route and the composed stages."""

    def test_gt_triangles(self):
        # never short on GT: the involution
        images = [schutzenberger(t).rows for t in gt_up_to_4()]
        assert [r.staged for r in routes("gt")] == images
        assert len(images) == 2_896

    def test_off_gt_perturbations(self):
        assert sum(r.staged is None for r in routes("broken")) == 4_987

    @settings(max_examples=100)
    @given(drawn_gt(), st.data())
    def test_drawn_triangles(self, t, data):
        r, _ = _routes([t, drawn_perturbation(data, t)])
        assert r.staged is not None


def test_word_route_off_gt_matches_the_composed_route():
    """Off GT the route gives the composed stages' rows or error text (`_routes` checks it)."""
    every = [*routes("broken"), *_routes([tri((0,)), tri((-2, 0), (1,))])]
    raised = Counter(re.sub(r"\d+", "k", r.public) for r in every if isinstance(r.public, str))
    assert raised == {"ValueError: tableau has k rows, needs k": 4_989}


def test_word_route_falls_short_exactly_where_the_public_route_raises():
    # `_routes` checks the broken ones; GT ones are never short
    assert sum(isinstance(r.public, str) for r in routes("broken")) == 4_987
    for p in (p for _, p in gt_perturbations() if is_valid_gt(p)):
        assert module._staged_route(p.rows) == schutzenberger_via_words(p).rows


def test_row_functions_give_the_public_rows_on_gt():
    # the GT suites call the per-size row functions directly, fetched
    # once per size; the public routes wrap them
    for t, r in zip(gt_up_to_4(), routes("gt"), strict=True):
        assert _involution(t.n)(t.rows) == schutzenberger(t).rows == r.public


@settings(max_examples=40)
@given(drawn_gt(n_min=_RSK_MAX_N + 1, n_max=16))
def test_loops_past_the_cap_on_drawn_triangles(t):
    # past the `oracle` sweep's cap the word route runs only as its stages
    (r,) = _routes([t])
    assert schutzenberger_via_words(GtTriangle(r.public)) == t
    assert tableau_to_triangle(triangle_to_tableau(t)) == t


@settings(max_examples=40)
@given(drawn_gt(n_min=_UNROLL_MAX_N + 1, n_max=16))
def test_row_functions_past_the_cap_are_the_loops(t):
    for name, (resolver, _, loop, _) in SCHEDULES.items():
        assert resolver(t.n) is loop, name
    assert _involution(t.n)(t.rows) == module._staged_route(t.rows) == _fold(t.rows)


def _sweep_source_lines(n):
    """How many source lines `enumeration._oracle_sweep_kernel` compiles for size n."""
    lines = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_straight_line", lambda n, target, body, label, **names:
                      lines.append(len(body)))
        enumeration._oracle_sweep_kernel(n)
    return lines[0]


def test_rsk_cap_is_the_largest_size_with_a_short_build():
    # `_RSK_MAX_N` bounds the word route's lines through the `oracle`
    # sweep, the one schedule that holds them.  On a 2-vCPU host under
    # Python 3.11 the sweep's build compiles about 5 us a source line in
    # the median timing and up to about 8 us in the slowest, so a build
    # that stays under 10 ms is at most about 1,250 lines
    assert _sweep_source_lines(_RSK_MAX_N) <= 1_250 < _sweep_source_lines(_RSK_MAX_N + 1)


def test_staged_route_checks_its_word_once(monkeypatch):
    # `complement_reverse` checks the letters; the insertion of its
    # complement, whose letters stay in 1..n, checks nothing again
    checked = []
    monkeypatch.setattr(module, "_check_word", lambda word, n: checked.append(word))
    for t in gt_up_to_4():
        module._staged_route(t.rows)
        assert len(checked) == 1, t
        checked.clear()


# The parent commit's conversions, copied before they were rewritten to
# read rows directly: references for the rewritten ones.


def _triangle_to_tableau_reference(t):
    n = t.n
    rows = []
    prev = ()
    for i in range(1, n + 1):
        shape = tuple(reversed(t.row(i)))
        for r, length in enumerate(shape):
            if r >= len(rows):
                rows.append([])
            have = prev[r] if r < len(prev) else 0
            rows[r].extend([i] * (length - have))
        prev = shape
    return Ssyt(tuple(tuple(r) for r in rows), n)


def _tableau_to_triangle_reference(s):
    n = s.n
    if any(x > n for row in s.rows for x in row):
        raise ValueError(f"tableau letters exceed the alphabet bound {n}")
    rows_top_down = []
    for i in range(n, 0, -1):
        counts = [sum(1 for x in row if x <= i) for row in s.rows]
        if any(c > 0 for c in counts[i:]):
            raise ValueError(f"letter <= {i} appears above tableau row {i}")
        shape = (counts[:i] + [0] * i)[:i]
        rows_top_down.append(tuple(reversed(shape)))
    return GtTriangle(tuple(rows_top_down))


def _rsk_reference(word, n):
    rows = []
    for x in word:
        cur = x
        for row in rows:
            pos = bisect_right(row, cur)
            if pos == len(row):
                row.append(cur)
                cur = None
                break
            row[pos], cur = cur, row[pos]
        if cur is not None:
            rows.append([cur])
    return Ssyt(tuple(tuple(r) for r in rows), n)


def _matches_reference(n_max):
    """Tableau, RSK tableau and word-route image of every GT triangle
    with n <= n_max and entries <= n+1 equal the references'."""
    checked = 0
    for n in range(1, n_max + 1):
        for t in gt_triangles(n, n + 1):
            tab = triangle_to_tableau(t)
            want_tab = _triangle_to_tableau_reference(t)
            assert tab == want_tab
            word = tuple(n + 1 - x for x in reversed(reading_word(want_tab)))
            assert complement_reverse(reading_word(tab), n) == word
            rsk = rsk_insertion_tableau(word, n)
            want_rsk = _rsk_reference(word, n)
            assert rsk == want_rsk
            assert tableau_to_triangle(rsk) == _tableau_to_triangle_reference(want_rsk)
            assert schutzenberger_via_words(t) == _tableau_to_triangle_reference(want_rsk)
            checked += 1
    return checked


class TestAgainstParentConversions:
    def test_gt_triangles(self):
        assert _matches_reference(4) == 2_896

    @pytest.mark.slow
    def test_gt_triangles_n5(self):
        assert _matches_reference(5) == 153_904

    def test_tableau_rows_of_broken_perturbations(self):
        """Triangles that are not GT still give the parent's rows, all n
        of them, empty ones included; most of them are not semistandard."""
        broken = rejected = 0
        for _, p in gt_perturbations():
            if not is_valid_gt(p):
                tab = triangle_to_tableau(p)
                assert tab == _triangle_to_tableau_reference(p)
                assert len(tab.rows) == p.n
                broken += 1
                rejected += isinstance(outcome(tableau_to_triangle, tab), str)
        assert (broken, rejected) == (33_974, 18_739)

    def test_rsk_on_every_short_word(self):
        words = 0
        for length in range(7):
            for word in product(range(1, 5), repeat=length):
                assert rsk_insertion_tableau(word, 4) == _rsk_reference(word, 4)
                words += 1
        assert words == 5_461

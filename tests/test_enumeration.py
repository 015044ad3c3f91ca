import gc
import json
import sys
from collections import Counter
import time
import tracemalloc
from functools import cache
from itertools import chain, combinations_with_replacement, islice, product
from math import factorial

import pytest

from gogmagog import bijection, enumeration, tableaux
from gogmagog.bijection import (
    BijectionState,
    BijectionStateError,
    Rule,
    StepRecord,
    _gog_trapezoid,
    _state_rows,
    extract_diagonals,
    forward_step,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    inverse_step,
)
from gogmagog.cli import main
from gogmagog.enumeration import (
    _FRAME_HEADROOM,
    _RSK_MAX_N,
    FamilySpec,
    SUITES,
    _count_n2,
    _fail_payload,
    _generate_gogam_by_filter,
    _gt_fill_loop,
    _least_class,
    _oracle_sweep,
    _rows,
    _tops,
    _walk_n2,
    asm_number,
    count,
    generate,
    generate_asms,
    verify,
)
from gogmagog.schutzenberger import is_gogam, schutzenberger
from gogmagog.triangles import (
    _UNROLL_MAX_N, Family, _per_size, _row_tuples, is_gog, is_gog_trapezoid_n2k,
    is_magog, is_magog_trapezoid_n2k, is_trapezoid, is_valid_gt,
)

from conftest import SCHEDULES, descend, kernel, report_digest


_ASM = (1, 2, 7, 42, 429, 7_436, 218_348)
_CATALAN = (1, 2, 5, 14, 42)
_N2 = (1, 2, 7, 35, 219, 1_594, 12_935, 113_945, 1_070_324, 10_586_856, 109_259_633)
_GOGS = (Family.GOG, Family.MAGOG)
_GT_UNDER_N_PLUS_1 = (2, 10, 112, 2_772, 151_008)  # GT triangles of size n, entries <= n+1


def _pin(n, k):
    pins = _ASM if k in (None, n) else {1: _CATALAN, 2: _N2}.get(k, ())
    return pins[n - 1] if n <= len(pins) else None


# (FamilySpec(family, n, k), want): the family's (n,k) trapezoids, all
# of it for k None, GT triangles with entries <= bound; want None pins
# nothing.  By the (n,k) trapezoid theorem (Mills-Robbins-Rumsey 1986,
# proved by Zeilberger 1996) the three families agree at each (n, k)
COUNTS = [
    *((FamilySpec(family, n, k=k), _pin(n, k)) for family in (*_GOGS, Family.GOGAM)
      for n in range(1, 11) for k in (None, *range(1, n + 1))),
    *((FamilySpec(family, n, k=2), _pin(n, 2)) for family in _GOGS for n in range(11, 41)),
    *((FamilySpec(Family.GT, n, bound=bound), None) for n in range(1, 6) for bound in (n, n + 1)),
]

# each route's count of a spec, None off its reach
_ROUTES = {
    "count": count,
    "generate": lambda spec: sum(1 for _ in generate(spec)),
    "formula": lambda s: asm_number(s.n) if s.family is not Family.GT and s.k in (None, s.n) else None,
    "n2": lambda s: _count_n2(s.family, s.n) if s.family in _GOGS and s.k == min(2, s.n) else None,
}


def _counts(where, *routes):
    """The count at each (n, k, bound) of the `COUNTS` entries that
    ``where(spec)`` selects, in table order, taking each named route
    once per entry: the routes, the families and the pinned want agree."""
    found = {}
    for spec, want in COUNTS:
        if where(spec):
            counts = found.setdefault((spec.n, spec.k, spec.bound), set())
            counts.update((want, *(_ROUTES[route](spec) for route in routes)))
    found = [counts - {None} for counts in found.values()]
    assert all(len(counts) == 1 for counts in found), found
    return [counts.pop() for counts in found]


def test_count_formula_values():
    assert _counts(lambda s: s.family is Family.GOG and s.k is None and s.n <= 7, "formula") == [*_ASM]


@pytest.mark.parametrize("n,want", [(1, 1), (2, 2), (3, 7), (4, 42), (5, 429)])
def test_gog_and_magog_counts(n, want):
    assert _counts(lambda s: s.family in _GOGS and (s.n, s.k) == (n, None), "count") == [want]


def test_gog_trapezoid_32_is_whole_family():
    assert _counts(lambda s: s.family is Family.GOG and s.n == 3 and s.k in (None, 2), "count") == [7, 7]


def test_n1_trapezoid_counts_are_catalan():
    assert _counts(lambda s: s.family is Family.GOG and s.k == 1 and s.n <= 5, "count") == [*_CATALAN]


def test_n1_restriction_checks_the_catalan_count_at_every_size(monkeypatch):
    """A generator that loses one (8,1) trapezoid fails the suite: its
    count is compared with C(2n, n) / (n + 1) at every n, not only
    below some table's end."""
    real = enumeration.generate

    def one_short(spec):
        members = real(spec)
        if spec == FamilySpec(Family.GOG, 8, k=1):
            next(members)
        return members

    monkeypatch.setattr(enumeration, "generate", one_short)
    report = verify("n1-restriction", 8)
    assert report.failures == ["n=8: (n,1) count 1429 != 1430"]


def test_gogam_count_via_involution():
    assert count(FamilySpec(Family.GOGAM, 3)) == 7


def test_generate_gt_requires_bound():
    with pytest.raises(ValueError):
        FamilySpec(Family.GT, 3)


@pytest.mark.parametrize(
    "family, n, extra",
    [
        (Family.GOG, True, {}),
        (Family.GOG, 2.5, {}),
        (Family.GOG, 3, {"k": 2.0}),
        (Family.GOG, 3, {"k": False}),
        (Family.GT, 3, {"bound": 4.0}),
        (Family.GT, 3, {"bound": True}),
        (Family.GOG, 3, {"bound": 9}),
        (Family.MAGOG, 3, {"bound": 3}),
        (Family.GOGAM, 3, {"bound": 3}),
        ("gog", 3, {}),
    ],
    ids=["bool-n", "float-n", "float-k", "bool-k", "float-bound", "bool-bound",
         "gog-bound", "magog-bound", "gogam-bound", "family-name"],
)
def test_family_spec_rejects_ignored_or_non_integer_arguments(family, n, extra):
    with pytest.raises(ValueError):
        FamilySpec(family, n, **extra)


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


def _cell_by_cell(spec):
    """`descend` with the cell vetoes the generators applied before they
    went row by row: the reference for the row functions."""
    n, k = spec.n, spec.k
    if spec.family is Family.GT:
        for top in combinations_with_replacement(range(1, spec.bound + 1), n):
            yield from descend(top, n, lambda *a: True)
    elif spec.family is Family.GOG:

        def strict_and_pinned(i, j, val, row):
            return not (row and val <= row[-1]) and (k is None or i - j < k or val == j)

        yield from descend(tuple(range(1, n + 1)), n, strict_and_pinned)
    else:

        def capped_and_pinned(i, j, val, row):
            return (j < i or val <= i) and (k is None or i - j < k or val == 1)

        free = n if k is None else k
        for tail in combinations_with_replacement(range(1, n + 1), free):
            yield from descend((1,) * (n - free) + tail, n, capped_and_pinned)


def _every_spec(family, n_max):
    """Every spec of ``family`` with n <= n_max: each trapezoid width for
    Gog and Magog, entry bounds 0..6 for raw GT."""
    for n in range(1, n_max + 1):
        if family is Family.GT:
            yield from (FamilySpec(family, n, bound=bound) for bound in range(7))
        else:
            yield from (FamilySpec(family, n, k=k) for k in (None, *range(1, n + 1)))


@pytest.mark.parametrize(
    "family, n_max",
    [(Family.GT, 5), (Family.GOG, 6), (Family.MAGOG, 6)],
    ids=["gt", "gog", "magog"],
)
def test_row_generators_match_the_cell_by_cell_route(family, n_max):
    # same triangles in the same order
    for spec in _every_spec(family, n_max):
        assert list(generate(spec)) == list(_cell_by_cell(spec)), spec


@pytest.mark.slow
def test_magog_rows_match_the_cell_by_cell_route_n7():
    spec = FamilySpec(Family.MAGOG, 7)
    assert list(generate(spec)) == list(_cell_by_cell(spec))


@pytest.mark.parametrize("n", range(1, 6))
def test_gogam_stream_equals_the_filtering_route(n):
    for k in (None, *range(1, n + 1)):
        assert list(generate(FamilySpec(Family.GOGAM, n, k=k))) == list(
            _generate_gogam_by_filter(n, k)
        ), k


@pytest.mark.parametrize("n", range(1, 6))
def test_gt_fill_kernel_equals_the_row_recursion(n):
    # triangle for triangle and in order, under every top row at bounds n and n+1
    fill = kernel("gt fill", n)
    for bound in (n, n + 1):
        tops = list(combinations_with_replacement(range(1, bound + 1), n))
        for top in tops:
            assert list(fill(top)) == list(_gt_fill_loop(top)), top
        assert list(_rows(FamilySpec(Family.GT, n, bound=bound))) == list(
            chain.from_iterable(map(_gt_fill_loop, tops))
        )


def _check_gt_streams(n):
    """The raw GT stream of size n against the kernel's (past the cap,
    the loop's), the loop's and the cell-by-cell `descend`'s: every
    triangle with entries <= 2 (2^n of them) first, so a generator that
    loses triangles fails before the first 2,000 with entries <= n+1."""

    def cells(top):
        return (t.rows for t in descend(top, n, lambda *cell: True))

    for bound, count, want_len in ((2, None, 2**n), (n + 1, 2_000, 2_000)):
        want = list(islice(_rows(FamilySpec(Family.GT, n, bound=bound)), count))
        assert len(want) == want_len, bound
        for fill in (kernel("gt fill", n), _gt_fill_loop, cells):
            tops = combinations_with_replacement(range(1, bound + 1), n)
            assert list(islice(chain.from_iterable(map(fill, tops)), count)) == want, bound


def test_gt_generation_up_to_the_cap_reaches_no_recursion():
    # up to the cap `kernel` finds the resolver's choice is no loop
    for n in range(6, _UNROLL_MAX_N + 1):
        _check_gt_streams(n)


def test_gt_generation_past_the_cap_is_the_row_recursion():
    _check_gt_streams(_UNROLL_MAX_N + 1)


def test_sweeps_loop_the_bottom_cell_over_its_range():
    # no 1-tuple is built and unpacked per triangle
    for n in range(2, _UNROLL_MAX_N + 1):
        loops = enumeration._fill_loops(n, named=False)
        assert loops[-1] == "    " * (n - 1) + f"for x{n - 1}_0 in range(x{n - 2}_0, x{n - 2}_1 + 1):"
        assert all("product(" in loop for loop in loops[:-1])


@pytest.mark.parametrize("name", ["oracle sweep", "involution sweep"])
@pytest.mark.parametrize("n", range(1, 6))
def test_sweep_kernel_is_its_loop(name, n):
    # the same count and the same failure records, top row by top row:
    # every GT top row with entries <= n+1, as the suites read them, and
    # up to n = 4 every top row over 0..n, in or out of order, under
    # most of which the triangles are off GT and the oracle fails
    sweep, loop = kernel(name, n), SCHEDULES[name][2]
    gt = list(_tops(FamilySpec(Family.GT, n, bound=n + 1)))
    tops = gt + list(product(range(n + 1), repeat=n)) * (n <= 4)
    got = [sweep([top]) for top in tops]
    assert got == [loop([top]) for top in tops]
    assert sum(checked for checked, _ in got[:len(gt)]) == _GT_UNDER_N_PLUS_1[n - 1]
    assert not any(failed for _, failed in got[:len(gt)])
    if name == "oracle sweep" and n <= 4:
        assert any(failed for _, failed in got[len(gt):])


def _dropped(lines, index):
    """``lines`` with line ``index`` made a no-op that keeps its name
    bound: a reflection leaves its cell as it was (``y = x`` for ``y =
    lo + hi - x``), and a run line ``d = ...`` inserts nothing."""
    target, value = lines[index].split(" = ")
    kept = "0" if target.strip() == "d" else value.rsplit(" - ", 1)[1]
    return [*lines[:index], f"{target} = {kept}", *lines[index + 1:]]


_REFLECTIONS_4 = 10  # (n-1)n(n+1)/6 reflected cells at n = 4
_RUNS_4 = 10  # n(n+1)/2 runs at n = 4


@pytest.mark.parametrize("dropped", range(_REFLECTIONS_4))
def test_oracle_sweep_without_a_reflection_fails(monkeypatch, dropped):
    reflections = enumeration._reflections
    monkeypatch.setattr(enumeration, "_reflections", lambda *a: _dropped(reflections(*a), dropped))
    checked, failed = enumeration._oracle_sweep_kernel(4)(_tops(FamilySpec(Family.GT, 4, bound=5)))
    assert len(reflections(4, "y")) == _REFLECTIONS_4
    assert checked == 2_772 and failed


@pytest.mark.parametrize("dropped", range(_RUNS_4))
def test_oracle_sweep_without_a_run_fails(monkeypatch, dropped):
    def rsk_lines(n):
        runs, sums, image = tableaux._rsk_lines(n)
        at = [i for i, line in enumerate(runs) if line.startswith("    d = ")]
        assert len(at) == _RUNS_4
        return _dropped(runs, at[dropped]), sums, image

    monkeypatch.setattr(enumeration, "_rsk_lines", rsk_lines)
    checked, failed = enumeration._oracle_sweep_kernel(4)(_tops(FamilySpec(Family.GT, 4, bound=5)))
    assert checked == 2_772 and failed


@pytest.mark.parametrize("dropped", range(2 * _REFLECTIONS_4))
def test_involution_sweep_without_a_reflection_fails(monkeypatch, dropped):
    # a line dropped from the first application or from the second
    calls, reflections = [], enumeration._reflections

    def drop_one(*args):
        lines = reflections(*args)
        calls.append(len(lines))
        at = dropped - sum(calls[:-1])
        return _dropped(lines, at) if 0 <= at < len(lines) else lines

    monkeypatch.setattr(enumeration, "_reflections", drop_one)
    sweep = enumeration._involution_sweep_kernel(4)
    checked, failed = sweep(_tops(FamilySpec(Family.GT, 4, bound=5)))
    assert calls == [_REFLECTIONS_4] * 2
    assert checked == 2_772 and failed
    # the sweep records bare rows; the suite names the failure
    monkeypatch.setattr(enumeration, "_involution_sweep", lambda n: sweep)
    report = enumeration.Report("involution", 4)
    enumeration._suite_involution(4, report)
    assert report.checks == 2_772 and len(report.failures) == len(failed)
    assert all(f.startswith("involution broke on ") for f in report.failures)


@pytest.mark.parametrize("n", range(1, _RSK_MAX_N + 2))
def test_oracle_sweep_records_a_tableau_that_falls_short(n):
    # under an all-zero top row the only triangle is all zeros, whose
    # tableau is empty: the word route falls short (the loop's None, past
    # the cap), and the Bender-Knuth image, all zeros, cannot match it
    zeros = tuple((0,) * (n - r) for r in range(n))
    assert _oracle_sweep(n)([zeros[0]]) == (1, [zeros])


def _widths(sizes):
    return lambda spec: spec.family is not Family.GT and spec.n in sizes and spec.k is not None


def test_trapezoid_counts_agree_across_widths():
    assert len(_counts(_widths(range(1, 10)), "count", "formula", "n2")) == 45


@pytest.mark.slow
def test_trapezoid_counts_agree_across_widths_n10():
    assert len(_counts(_widths([10]), "count", "formula", "n2")) == 10


@pytest.mark.parametrize("n", range(1, 7))
def test_count_equals_enumeration(n):
    # every width of each family, and raw GT at bounds n and n+1 up to 5
    assert len(_counts(lambda spec: spec.n == n, "count", "generate")) == n + 1 + 2 * (n <= 5)


def test_count_generates_nothing(monkeypatch):
    """`count` reads the tops and the row function alone: no generator runs."""

    def unreachable(*args):
        raise AssertionError("count must not enumerate")

    for name in ("generate", "_rows", "_fill_below"):
        monkeypatch.setattr(enumeration, name, unreachable)
    assert count(FamilySpec(Family.MAGOG, 7)) == count(FamilySpec(Family.GOGAM, 7)) == 218_348
    assert count(FamilySpec(Family.GOG, 7, k=2)) == 12_935
    assert count(FamilySpec(Family.GT, 6, bound=7)) == 18_076_916


def _peak(call):
    """``call()`` and its `tracemalloc` peak, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_streams_the_top_rows():
    # only the levels below the top are stored: 1.2 MiB if the 6,435 top
    # rows are, about 0.1-0.3 MiB if not
    members, peak = _peak(lambda: count(FamilySpec(Family.MAGOG, 8)))
    assert members == 10_850_216 and peak < 0.4 * 2**20


def _gogam_pass_peak(n):
    """Members and `tracemalloc` peak, in bytes, of one full GOGAm pass."""
    # build the size-n involution kernel before tracing
    schutzenberger(next(generate(FamilySpec(Family.MAGOG, n))))
    return _peak(lambda: sum(1 for _ in generate(FamilySpec(Family.GOGAM, n))))


def test_gogam_stream_holds_one_top_row_class():
    members, peak = _gogam_pass_peak(6)
    assert members == 7436
    assert peak < 1 << 20


@pytest.mark.slow
def test_gogam_stream_holds_one_top_row_class_n7():
    members, peak = _gogam_pass_peak(7)
    assert members == 218_348
    assert peak < 30 << 20


def test_gog_and_magog_generation_leaves_no_cyclic_garbage():
    # every partial triangle must be freed by reference counting alone,
    # on every family that goes through `_fill_below`, and so must every
    # partial matrix of the direct ASM route
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for stream, members in (
            (generate(FamilySpec(Family.GOG, 6)), 7436),
            (generate(FamilySpec(Family.MAGOG, 6)), 7436),
            (generate(FamilySpec(Family.GT, 5, bound=6)), 151_008),
            (generate_asms(6), 7436),
        ):
            assert sum(1 for _ in stream) == members
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_asm_generation_matches_formula():
    for n in range(1, 5):
        assert sum(1 for _ in generate_asms(n)) == asm_number(n)


def test_asm_number_follows_the_ratio_recurrence():
    # A(n+1) (2n)! (2n+1)! = A(n) (3n+1)! n!, exactly, far past the counted sizes
    for n in range(1, 41):
        assert (asm_number(n + 1) * factorial(2 * n) * factorial(2 * n + 1)
                == asm_number(n) * factorial(3 * n + 1) * factorial(n))


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_passes_small(suite):
    report = verify(suite, 3)
    assert report.ok, report.failures


def test_verify_rejects_empty_range():
    with pytest.raises(ValueError):
        verify("counts", 0)


def test_report_json_shape():
    data = json.loads(verify("counts", 2).to_json())
    assert list(data) == ["suite", "n", "checks", "failures", "histogram", "millis"]
    assert data["suite"] == "counts" and data["failures"] == []


_FAULTY = ((1, 2, 4), (2, 3), (2,))


def test_word_route_fault_is_a_failure_record(monkeypatch, capsys):
    # the word route's lines, where the oracle sweep reads them, with a
    # fault that empties the tableau's top row on one triangle alone, as
    # a route whose tableau fell short would; a fresh resolver builds
    # the sweep from them
    def faulty(n):
        runs, sums, image = tableaux._rsk_lines(n)
        return [*runs, f"    if ({_row_tuples(n)}) == {_FAULTY}: m{n - 1}_{n} = 0"], sums, image

    monkeypatch.setattr(enumeration, "_rsk_lines", faulty)
    monkeypatch.setattr(enumeration, "_oracle_sweep", _per_size(
        enumeration._oracle_sweep_kernel, enumeration._oracle_sweep_loop, _RSK_MAX_N))
    report = verify("oracle", 3)
    assert report.checks == 124
    assert report.failures == ["oracle disagreement on 3 / 1 2 4 / 2 3 / 2"]
    # the command line reports a failed check, not a usage error
    assert main(["verify", "--suite", "oracle", "--n", "3"]) == 1
    assert "FAIL oracle disagreement on 3 / 1 2 4 / 2 3 / 2" in capsys.readouterr().out


@pytest.mark.parametrize("n", [0, -1])
def test_asm_generation_rejects_bad_size(n):
    with pytest.raises(ValueError):
        generate_asms(n)  # raised at the call, before any iteration


@pytest.mark.parametrize("n", [True, False, 2.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize(
    "call",
    [lambda n: verify("counts", n), asm_number, generate_asms],
    ids=["verify", "asm_number", "generate_asms"],
)
def test_sizes_must_be_integers(call, n):
    # never coerced: a bool is not taken as 0 or 1, nor 2.0 as 2
    with pytest.raises(ValueError, match="must be an integer"):
        call(n)


def _free_frames():
    """Frames left under the recursion limit on top of the caller's."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return sys.getrecursionlimit() - depth


@pytest.mark.parametrize("recursion", ["fill", "walk", "asm"])
def test_recursions_keep_their_headroom(monkeypatch, recursion):
    # under a lowered limit, the largest size each recursion takes reaches
    # its deepest frame with at least `_FRAME_HEADROOM` frames free, but
    # no more than one size more would need, and one size more is refused
    # before the recursion's first step
    free = []

    def probed(f):
        def probe(*args):
            free.append(_free_frames())
            return f(*args)
        return probe

    if recursion == "fill":
        rows = probed(enumeration._gt_rows)
        first = lambda n: next(enumeration._fill_below(((1,) * n,), rows))
        step = lambda n: 1  # frames one size more adds
    elif recursion == "walk":
        monkeypatch.setattr(enumeration, "_forward_at", probed(enumeration._forward_at))
        first = lambda n: next(_walk_n2(n))
        step = lambda n: 1
    else:  # the deepest frame builds the ASM
        monkeypatch.setattr(enumeration, "Asm", probed(enumeration.Asm))
        first = lambda n: next(generate_asms(n))
        step = lambda n: 2 * (n + 1)  # n + 1 frames per row
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - _free_frames() + 400)
    try:
        lo, hi = 1, 400  # first(lo) runs, first(hi) is refused
        while hi - lo > 1:
            mid, calls = (lo + hi) // 2, len(free)
            try:
                first(mid)
                lo = mid
            except RecursionError:
                assert len(free) == calls, mid
                hi = mid
        del free[:]
        first(lo)
    finally:
        sys.setrecursionlimit(limit)
    assert lo > 10 and _FRAME_HEADROOM <= min(free) <= _FRAME_HEADROOM + step(lo)


# --- the (n,2) prefix-tree walk behind bijection-n2 and rule-trace-lemmas ---


def test_walk_equals_the_public_maps():
    """Every (n,2) Gog trapezoid with n <= 7: the walk's pairs are its
    `extract_diagonals`, its leaf and tags are `gog_to_gogam_n2`'s image
    and trace, every edge is what `forward_step` and `inverse_step` give
    on its parent (the inverse returning the parent's state, pair and
    record), and `gogam_to_gog_n2` of the image gives the trapezoid
    back.  `_gog_trapezoid` inverts `extract_diagonals`."""
    total = 0
    for n in range(1, 8):
        walked, edges = {}, set()
        for (u, v), path, grade in _walk_n2(n):
            assert grade == 0
            for k, edge in enumerate(path, 1):
                if (edge.before, edge.pair) not in edges:
                    edges.add((edge.before, edge.pair))
                    before = BijectionState(n, *edge.before)
                    after, record = forward_step(before, *edge.pair)
                    back, pair, again = inverse_step(after)
                    assert edge.after == (after.u, after.v)
                    assert edge.undone == (back.u, back.v, pair, again.rule, again.l)
                    assert record == again == StepRecord(k, edge.tag, edge.l)
                    assert (back, pair) == (before, edge.pair)
            pairs = tuple(edge.pair for edge in path)
            walked[pairs] = (_state_rows(n, u, v), [(e.tag, e.l) for e in path])
        gogs = list(generate(FamilySpec(Family.GOG, n, k=min(2, n))))
        assert len(walked) == len(gogs)
        for t in gogs:
            out, trace = gog_to_gogam_n2(t)
            pairs = extract_diagonals(t)
            assert walked[pairs] == (out.rows, [(r.rule, r.l) for r in trace])
            assert _gog_trapezoid(n, pairs) == t
            assert gogam_to_gog_n2(out)[0] == t
        total += len(gogs)
    assert total == 14_793


def _counted(calls, name, fn):
    """``fn``, counting each call under ``name`` in ``calls``."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def _count_steps(monkeypatch, calls):
    """Count the walk's forward and inverse steps in ``calls``."""
    for name in ("forward", "inverse"):
        resolver = getattr(bijection, f"_{name}_at")
        monkeypatch.setattr(enumeration, f"_{name}_at",
                            lambda k, name=name, step=resolver: _counted(calls, name, step(k)))


def test_walk_visits_each_prefix_once(monkeypatch):
    """One forward and one inverse step per tree edge: 1,857 edges for
    the 1,594 (6,2) trapezoids, where one fold per trapezoid takes
    7,970 steps each way."""
    calls = Counter()

    prefixes = set()
    for t in generate(FamilySpec(Family.GOG, 6, k=2)):
        pairs = extract_diagonals(t)
        prefixes.update(pairs[:k] for k in range(1, 6))
    _count_steps(monkeypatch, calls)
    leaves = sum(1 for _ in _walk_n2(6))
    assert leaves == 1_594
    assert calls == {"forward": 1_857, "inverse": 1_857} and len(prefixes) == 1_857


def test_forward_steps_grow_each_state_once(monkeypatch):
    """One `_grown` per forward step of the n <= 6 sweep (2,175), plus
    one for each IIIa trial that falls back to IIIb (94), when the walk
    runs the loop `_forward`: the kernels write the shift out."""
    calls = Counter()
    monkeypatch.setattr(bijection, "_grown", _counted(calls, "grown", bijection._grown))
    forward = _counted(calls, "forward", bijection._forward)
    monkeypatch.setattr(enumeration, "_forward_at", lambda k: forward)
    assert verify("bijection-n2", 6).ok
    assert calls == {"grown": 2_269, "forward": 2_175}


def test_inverse_kernels_call_the_loop_only_on_ivb(monkeypatch):
    """The inverse kernels undo IIIb themselves: the n <= 6 sweep calls
    the loop `_inverse` on its 2 IVb edges alone, not on 94 IIIb edges
    as well."""
    calls = Counter()
    loop = bijection._inverse

    def counted(n, u, v):
        undone = loop(n, u, v)
        calls[undone[3]] += 1
        return undone

    monkeypatch.setattr(bijection, "_inverse", counted)
    # kernels built now bind the counting loop
    monkeypatch.setattr(enumeration, "_inverse_at", cache(bijection._inverse_kernel))
    assert verify("bijection-n2", 6).ok
    assert calls == {Rule.IVB: 2}


def test_walk_tally_counts_each_path_tag():
    """The walk's tally, one weight per edge, is the per-path count of
    tags, keyed in order of first appearance along the walk, n <= 7."""
    for n in range(1, 8):
        usage, want = {}, Counter()
        for _, path, _ in _walk_n2(n, usage):
            want.update(edge.tag for edge in path)
        assert list(usage.items()) == list(want.items())


def test_bijection_histogram_key_order():
    # the CLI prints the histogram in insertion order
    assert list(verify("bijection-n2", 8).histogram) == [
        "trapezoids-1", "rule-base", "trapezoids-2", "rule-i", "rule-ii",
        "rule-iiia", "rule-iva", "trapezoids-3", "rule-iiib", "trapezoids-4",
        "trapezoids-5", "rule-ivb", "trapezoids-6", "trapezoids-7", "trapezoids-8",
    ]


# the (5,2) edge to corrupt: b_1, a_1 = 4, 5 then b_2, a_2 = 3, 4
BROKEN_PREFIX = ((4, 5), (3, 4))


def _corrupt_inverse(monkeypatch, corrupt):
    """Make the walk's `_inverse` return ``corrupt(u, v, pair, rule, l)``
    on the child state of ``BROKEN_PREFIX`` only."""
    state = BijectionState(5, (5,), ())
    for b, a in BROKEN_PREFIX:
        state, _ = forward_step(state, b, a)
    target = state.u, state.v

    def broken(n, u, v):
        undone = bijection._inverse(n, u, v)
        return corrupt(*undone) if (u, v) == target else undone

    monkeypatch.setattr(enumeration, "_inverse_at", lambda size: broken)


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda u, v, p, r, l: (u, v, (p[0], p[1] + 1), r, l), "round trip failed"),
        (lambda u, v, p, r, l: ((u[0] + 1,) + u[1:], v, p, r, l), "round trip failed"),
        (lambda u, v, p, r, l: (u, v, p, r, 7), "traces not mirrored"),
        (lambda u, v, p, r, l: (u, v, p, Rule.IVB, l), "traces not mirrored"),
    ],
    ids=["pair", "state", "run-length", "rule"],
)
def test_broken_edge_marks_every_leaf_below(monkeypatch, corrupt, reason):
    clean = verify("bijection-n2", 5)
    _corrupt_inverse(monkeypatch, corrupt)
    report = verify("bijection-n2", 5)
    below = [
        t for t in generate(FamilySpec(Family.GOG, 5, k=2))
        if extract_diagonals(t)[:2] == BROKEN_PREFIX
    ]
    assert len(below) == 28
    want = sorted(f"{reason} for {_fail_payload(t)}" for t in below)
    assert [f for f in report.failures if f.startswith(reason)] == want
    # the failing leaves are missing from the images, as before the walk
    assert report.failures == sorted(
        want + ["n=5: cardinalities differ (walk 219, gog 219, images 191, magog 219)"]
    )
    assert report.checks == clean.checks == 269
    assert report.histogram == clean.histogram


def test_round_trip_failure_outranks_a_record_mismatch_below(monkeypatch):
    """A broken state above and a broken record below: the leaves under
    both read "round trip failed", as a per-trapezoid check that
    compares the recovered trapezoid before the traces would report."""
    state = BijectionState(5, (5,), ())
    for b, a in BROKEN_PREFIX:
        state, _ = forward_step(state, b, a)
    above = state
    below, _ = forward_step(above, 2, 3)

    def broken(n, u, v):
        back_u, back_v, p, r, l = bijection._inverse(n, u, v)
        if (u, v) == (above.u, above.v):
            return (back_u[0] + 1,) + back_u[1:], back_v, p, r, l
        if (u, v) == (below.u, below.v):
            return back_u, back_v, p, r, 7
        return back_u, back_v, p, r, l

    monkeypatch.setattr(enumeration, "_inverse_at", lambda size: broken)
    report = verify("bijection-n2", 5)
    gogs = list(generate(FamilySpec(Family.GOG, 5, k=2)))
    under_above = sorted(
        _fail_payload(t) for t in gogs if extract_diagonals(t)[:2] == BROKEN_PREFIX
    )
    under_both = [t for t in gogs if extract_diagonals(t)[:3] == BROKEN_PREFIX + ((2, 3),)]
    assert len(under_above) == 28 and len(under_both) == 5
    assert [f for f in report.failures if not f.startswith("n=5")] == [
        f"round trip failed for {payload}" for payload in under_above
    ]


def test_inverse_lemma_reads_each_edge_inverse(monkeypatch):
    """rule-trace-lemmas checks the state each edge's `_inverse`
    returned: an undone IIIb or IVb step that leaves no equality pair
    fails on every trapezoid whose trace holds that step."""

    def no_pair_after_subtle_undo(n, u, v):
        back_u, back_v, p, r, l = bijection._inverse(n, u, v)
        if r in (Rule.IIIB, Rule.IVB):
            back_u, back_v = (n + 5,) * len(back_u), (-1,) * len(back_v)
        return back_u, back_v, p, r, l

    clean = verify("rule-trace-lemmas", 6)
    monkeypatch.setattr(enumeration, "_inverse_at", lambda size: no_pair_after_subtle_undo)
    report = verify("rule-trace-lemmas", 6)
    want = sorted(
        f"no pair after undoing {rec.rule.value} on {_fail_payload(t)}"
        for n in range(1, 7)
        for t in generate(FamilySpec(Family.GOG, n, k=min(2, n)))
        for rec in gog_to_gogam_n2(t)[1]
        if rec.rule in (Rule.IIIB, Rule.IVB)
    )
    assert len(want) == 171
    assert report.failures == want
    assert report.checks == clean.checks


@pytest.mark.parametrize("n", [0, -1])
def test_walk_rejects_bad_size(n):
    with pytest.raises(ValueError, match="size must be at least 1"):
        _walk_n2(n)  # raised at the call, before any step


# --- the (n,2) count DP behind the bijection-n2 cardinality check ---------


def _n2(families, sizes):
    return lambda spec: spec.family in families and spec.n in sizes and spec.k == min(2, spec.n)


@pytest.mark.parametrize("family", [Family.GOG, Family.MAGOG], ids=["gog", "magog"])
@pytest.mark.parametrize("n", range(1, 8))
def test_count_n2_equals_enumeration(family, n):
    assert _counts(_n2([family], [n]), "n2", "generate") == [_N2[n - 1]]


@pytest.mark.slow
@pytest.mark.parametrize("family", [Family.GOG, Family.MAGOG], ids=["gog", "magog"])
def test_count_n2_equals_enumeration_n8(family):
    assert _counts(_n2([family], [8]), "n2", "generate") == [113_945]


def test_count_n2_values():
    assert _counts(_n2([Family.GOG], range(1, 12)), "n2") == [*_N2]


def test_count_n2_gog_equals_magog_to_40():
    # the (n,2) case of the trapezoid theorem, far past what enumeration reaches
    start = time.process_time()
    assert len(_counts(_n2(_GOGS, range(1, 41)), "n2")) == 40
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize(
    "family, n",
    [
        (Family.GT, 3),
        (Family.GOGAM, 3),
        (Family.GOG, 0),
        (Family.MAGOG, 0),
        (Family.GOG, True),
        (Family.MAGOG, 2.0),
    ],
    ids=["gt", "gogam", "gog-0", "magog-0", "bool", "float"],
)
def test_count_n2_rejects_bad_input(family, n):
    with pytest.raises(ValueError):
        _count_n2(family, n)


def test_bijection_n2_cardinality_check_can_fail(monkeypatch):
    def one_gog_too_many(family, n):
        extra = 1 if family is Family.GOG and n == 4 else 0
        return _count_n2(family, n) + extra

    monkeypatch.setattr(enumeration, "_count_n2", one_gog_too_many)
    assert verify("bijection-n2", 4).failures == [
        "n=4: cardinalities differ (walk 35, gog 36, images 35, magog 35)"
    ]


def test_bijection_n2_enumerates_nothing(monkeypatch):
    """The cardinality check reads the DP: no generator runs."""

    def unreachable(*args):
        raise AssertionError("bijection-n2 must not enumerate")

    for name in ("generate", "count", "_fill_below"):
        monkeypatch.setattr(enumeration, name, unreachable)
    report = verify("bijection-n2", 5)
    assert report.ok and report.histogram["trapezoids-5"] == 219


@pytest.mark.parametrize(
    "suite, leaf_checks",
    [
        ("bijection-n2", ("schutzenberger", "is_gogam", "is_trapezoid",
                          "_gt_test", "_diagonal", "_involution", "_state_rows")),
        ("rule-trace-lemmas", ()),
        ("statistics", ("schutzenberger", "is_gogam", "is_trapezoid")),
    ],
    ids=["bijection-n2", "rule-trace-lemmas", "statistics"],
)
def test_walk_suites_stay_bare(monkeypatch, suite, leaf_checks):
    """The walk runs the step cores and checks leaves on bare diagonals:
    no public step, state listing or per-object GOGAm test runs, and
    `bijection-n2` reads each leaf through `_image_check` alone."""

    def unreachable(*args):
        raise AssertionError(f"{suite} must run on bare tuples")

    clean = report_digest(verify(suite, 5))
    for name in ("forward_step", "inverse_step"):
        monkeypatch.setattr(bijection, name, unreachable)
        monkeypatch.setattr(enumeration, name, unreachable, raising=False)
    monkeypatch.setattr(BijectionState, "check_invariants", unreachable)
    for name in leaf_checks:
        monkeypatch.setattr(enumeration, name, unreachable, raising=False)
    assert report_digest(verify(suite, 5)) == clean


def test_bijection_n2_refuses_sizes_past_a_byte(monkeypatch):
    # its image keys hold one byte per diagonal entry, so n <= 255; the
    # refusal comes before the first size, not after 255 sizes are walked
    def unreachable(n, usage=None):
        raise AssertionError("the size check must come before the walk")

    monkeypatch.setattr(enumeration, "_walk_n2", unreachable)
    for n_max in (256, 300):
        with pytest.raises(ValueError, match=f"n <= 255, got {n_max}"):
            verify("bijection-n2", n_max)


# --- statistics and n2k-classes read the same walk -------------------------


@pytest.mark.parametrize(
    "suite, digest",
    [
        ("statistics", "c54015069b8f915c985f36634b240de660fbb80e7418d6b69aa50c9ec39e9481"),
        ("n2k-classes", "343a8e2b5c9326814ffbc2241759241fcb388833ed90eca97ade10dda1ef12e8"),
    ],
)
def test_walk_suites_keep_their_reports(suite, digest):
    # the reports a per-trapezoid `gog_to_gogam_n2` fold gives; the walk keeps them
    assert report_digest(verify(suite, 6)) == digest


@pytest.mark.parametrize("suite", ["statistics", "n2k-classes"])
def test_walk_suites_make_one_sweep(monkeypatch, suite):
    """One forward and one inverse step per prefix-tree edge over sizes
    1..6 (2,175 edges), where a fold per trapezoid takes 8,967 forward
    steps; the public map is never reached."""
    calls = Counter()

    def unreachable(t):
        raise AssertionError("the public map must not run")

    _count_steps(monkeypatch, calls)
    monkeypatch.setattr(enumeration, "gog_to_gogam_n2", unreachable)
    assert verify(suite, 6).ok
    assert calls == {"forward": 2_175, "inverse": 2_175}


def test_n2k_classes_are_nested():
    """Class k lies inside class k + 1 for both predicates on every
    (n,2) Gog and Magog trapezoid with n <= 6, so `_least_class`
    bisects to the least k a linear scan finds."""
    for n in range(1, 7):
        for family, predicate in ((Family.GOG, is_gog_trapezoid_n2k),
                                  (Family.MAGOG, is_magog_trapezoid_n2k)):
            for t in generate(FamilySpec(family, n, k=min(2, n))):
                held = [predicate(t, k) for k in range(1, n + 1)]
                assert held == sorted(held) and held[-1]
                assert _least_class(predicate, t) == held.index(True) + 1


def test_walk_leaves_carry_their_image_involution():
    # each leaf's involution rows are the image's involution, through
    # the row function and through the public map and `schutzenberger`
    for n in range(1, 7):
        leaves = 0
        for leaf, path, magog in enumeration._n2_trapezoids(n):
            leaves += 1
            assert magog == enumeration._involution(n)(_state_rows(n, *leaf))
            image, _ = gog_to_gogam_n2(_gog_trapezoid(n, [e.pair for e in path]))
            assert magog == schutzenberger(image).rows
        assert leaves == _N2[n - 1]


def test_walk_images_keep_the_gogam_postcondition(monkeypatch):
    # both readers of leaf images run the postcondition through `_image_check`
    monkeypatch.setattr(enumeration, "_image_check", lambda n: lambda leaf: 1)
    for suite in ("statistics", "n2k-classes"):
        with pytest.raises(BijectionStateError, match="forward image failed the GOGAm test"):
            verify(suite, 3)

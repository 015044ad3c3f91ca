from itertools import product

import pytest

from gogmagog.bijection import (
    BijectionState,
    BijectionStateError,
    GogamDiagonals,
    InvalidGogamInput,
    Rule,
    covering_subtraction_map,
    extract_diagonals,
    forward_step,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    inverse_step,
    magog_row_statistic,
    statistic_x11,
)
from gogmagog.enumeration import FamilySpec, generate
from gogmagog.schutzenberger import is_gogam, schutzenberger
from gogmagog.triangles import Family, GtTriangle, is_magog, is_trapezoid, is_valid_gt

from conftest import tri

GOG52 = tri((1, 2, 3, 4, 5), (1, 2, 4, 5), (1, 3, 4), (1, 3), (2,))
GOGAM52 = tri((1, 1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 3), (1, 3), (2,))


def staircase(n):
    return GtTriangle(tuple(tuple(range(1, i + 1)) for i in range(n, 0, -1)))


class TestDiagonals:
    def test_five_two_trapezoid(self):
        d = extract_diagonals(GOG52)
        assert d.a == (5, 4, 3, 2)
        assert d.b == (4, 3, 1)
        assert d.b_at(1) == 4

    def test_staircase(self):
        d = extract_diagonals(staircase(5))
        assert d.a == (4, 3, 2, 1)
        assert d.b == (3, 2, 1)

    def test_size2(self):
        assert extract_diagonals(tri((1, 2), (2,))).a == (2,)
        assert extract_diagonals(tri((1, 2), (2,))).b == ()

    def test_rejects_non_trapezoid(self):
        with pytest.raises(ValueError):
            extract_diagonals(tri((1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 4, 5), (2, 4), (3,)))


class TestForwardStep:
    def test_rule_iiib_step(self):
        state = BijectionState(5, (4, 4, 4), (4, 4))
        new, rec = forward_step(state, 3, 3)
        assert new.u == (3, 3, 3, 3)
        assert new.v == (3, 3, 2)
        assert rec.rule is Rule.IIIB and rec.l == 1

    def test_rule_iiia_step(self):
        state = BijectionState(5, (5, 5), (4,))
        new, rec = forward_step(state, 4, 4)
        assert new.u == (4, 4, 4)
        assert new.v == (4, 4)
        assert rec.rule is Rule.IIIA

    def test_base_step_both_branches(self):
        top, _ = forward_step(BijectionState(4, (4,), ()), 3, 4)
        assert top.u == (4, 4) and top.v == (3,)
        low, _ = forward_step(BijectionState(4, (4,), ()), 3, 3)
        assert low.u == (3, 3) and low.v == (3,)

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(BijectionStateError):
            forward_step(BijectionState(4, (4,), ()), 1, 4)


class TestForwardMap:
    def test_worked_example(self):
        out, trace = gog_to_gogam_n2(GOG52)
        assert out == GOGAM52
        assert [r.rule for r in trace] == [Rule.BASE, Rule.IIIA, Rule.IIIB, Rule.II]

    def test_size2_both(self):
        assert gog_to_gogam_n2(tri((1, 2), (2,)))[0] == tri((1, 2), (2,))
        assert gog_to_gogam_n2(tri((1, 2), (1,)))[0] == tri((1, 1), (1,))

    def test_staircase_runs_on_rule_one(self):
        out, trace = gog_to_gogam_n2(staircase(4))
        assert out == tri((1, 1, 1, 1), (1, 1, 1), (1, 1), (1,))
        assert all(r.rule in (Rule.BASE, Rule.I) for r in trace)

    def test_rejects_non_trapezoid(self):
        with pytest.raises(ValueError):
            gog_to_gogam_n2(tri((1, 2, 3, 4, 5), (1, 3, 4, 5), (1, 4, 5), (2, 4), (3,)))


class TestInverseStep:
    def test_worked_example_first_undo(self):
        state = BijectionState(5, (3, 3, 3, 3, 2), (2, 2, 1, 1))
        shrunk, (b, a), rec = inverse_step(state)
        assert rec.rule is Rule.II
        assert (b, a) == (1, 2)
        assert shrunk.u == (3, 3, 3, 3) and shrunk.v == (3, 3, 2)

    def test_iiib_classification(self):
        state = BijectionState(5, (3, 3, 3, 3), (3, 3, 2))
        shrunk, (b, a), rec = inverse_step(state)
        assert rec.rule is Rule.IIIB and rec.l == 1
        assert (b, a) == (3, 3)
        assert shrunk.u == (4, 4, 4) and shrunk.v == (4, 4)

    def test_size2_rule_one(self):
        state = BijectionState(2, (1, 1), (1,))
        shrunk, (b, a), rec = inverse_step(state)
        assert rec.rule is Rule.BASE
        assert (b, a) == (1, 1)
        assert shrunk.u == (2,)

    def test_all_constant_increment(self):
        # undoing rule (i) raises every retained entry by one
        state = BijectionState(4, (2, 2, 2), (2, 2))
        shrunk, (b, a), rec = inverse_step(state)
        assert rec.rule is Rule.I
        assert (b, a) == (2, 2)
        assert shrunk.u == (3, 3) and shrunk.v == (3,)

    def test_garbage_state_rejected(self):
        with pytest.raises(InvalidGogamInput):
            inverse_step(BijectionState(4, (4, 1), (3,)))


class TestInverseMap:
    def test_worked_example(self):
        back, trace = gogam_to_gog_n2(GOGAM52)
        assert back == GOG52
        assert [r.rule for r in trace] == [Rule.II, Rule.IIIB, Rule.IIIA, Rule.BASE]

    def test_size2_fixed_point(self):
        assert gogam_to_gog_n2(tri((1, 2), (2,)))[0] == tri((1, 2), (2,))

    def test_size2_all_ones_recovers_staircase(self):
        assert gogam_to_gog_n2(tri((1, 1), (1,)))[0] == tri((1, 2), (1,))

    def test_round_trip_small(self):
        for n in (2, 3, 4, 5):
            for t in generate(FamilySpec(Family.GOG, n, k=2)):
                out, trace = gog_to_gogam_n2(t)
                back, itrace = gogam_to_gog_n2(out)
                assert back == t
                assert [r.rule for r in reversed(itrace)] == [r.rule for r in trace]

    def test_rejects_non_gogam(self):
        with pytest.raises(InvalidGogamInput):
            gogam_to_gog_n2(tri((1, 1, 4), (1, 4), (4,)))


class TestCoveringSubtraction:
    def test_small_example(self):
        assert covering_subtraction_map(tri((1, 2, 3), (1, 2), (2,))) == tri(
            (1, 1, 2), (1, 2), (2,)
        )

    def test_inversion_free_input_unchanged(self):
        # pinned cells force inversions once n >= 3, so the only
        # inversion-free trapezoids live at n <= 2
        t = tri((1, 2), (2,))
        assert covering_subtraction_map(t) == t

    def test_matches_general_algorithm(self):
        for n in (1, 2, 3, 4, 5):
            for t in generate(FamilySpec(Family.GOG, n, k=1)):
                assert covering_subtraction_map(t) == gog_to_gogam_n2(t)[0]

    def test_output_is_n1_gogam_trapezoid(self):
        for t in generate(FamilySpec(Family.GOG, 4, k=1)):
            out = covering_subtraction_map(t)
            assert is_trapezoid(out, Family.GOGAM, 1)
            assert is_gogam(out)


class TestGogamDiagonals:
    def test_worked_output_passes(self):
        d = GogamDiagonals.from_triangle(GOGAM52)
        assert d.alpha == (3, 3, 3, 3, 2)
        assert d.beta == (2, 2, 1, 1)
        assert d.check() == []

    def test_oversized_corner_fails(self):
        assert GogamDiagonals.from_triangle(tri((1, 1, 4), (1, 4), (4,))).check()

    def test_equivalent_to_general_membership_on_trapezoid_shapes(self):
        # on (n,2)-trapezoid-shaped triangles the diagonal inequalities
        # decide membership exactly like the chain formula
        from gogmagog.enumeration import _descend, _weakly_increasing

        def shapes(n):
            # cells with i - j >= 2 pinned to 1, every entry at most n
            # (a GOGAm corner is at most n and dominates every entry)
            for right in _weakly_increasing(min(n, 2), 1, n):
                top = (1,) * (n - len(right)) + right
                yield from _descend(top, n, lambda i, j, val, row: i - j < 2 or val == 1)

        # shape counts match filtering every triangle bounded by n;
        # member counts are the (n,2) trapezoid numbers
        counts = {2: (4, 2), 3: (27, 7), 4: (236, 35), 5: (2375, 219), 6: (26090, 1594)}
        for n, (want_shapes, want_gogam) in counts.items():
            seen = members = 0
            for t in shapes(n):
                assert is_trapezoid(t, Family.GOGAM, 2)
                member = is_gogam(t)
                assert (GogamDiagonals.from_triangle(t).check() == []) == member
                seen += 1
                members += member
            assert (seen, members) == (want_shapes, want_gogam)


class TestStatistics:
    def test_bottom_entry(self):
        assert statistic_x11(GOG52) == 2
        assert statistic_x11(GOGAM52) == 2

    def test_row_statistic_on_worked_magog(self):
        magog = schutzenberger(GOGAM52)
        assert is_magog(magog)
        assert magog_row_statistic(magog) == 2

    def test_preservation_small(self):
        for n in (2, 3, 4, 5):
            for t in generate(FamilySpec(Family.GOG, n, k=2)):
                out, _ = gog_to_gogam_n2(t)
                assert statistic_x11(out) == statistic_x11(t)
                assert magog_row_statistic(schutzenberger(out)) == statistic_x11(t)


class TestStateInvariants:
    NOT_GT = "materialized triangle is not Gelfand-Tsetlin"

    def test_direct_check_matches_materialized_reference(self):
        """The O(k) check on (n, u, v) against validating the materialized
        triangle, over every state with n <= 4, 1 <= k <= n and entries
        0..n+1."""
        states = gt = 0
        for n in range(1, 5):
            for k in range(1, n + 1):
                for entries in product(range(n + 2), repeat=2 * k - 1):
                    state = BijectionState(n, entries[:k], entries[k:])
                    ref = is_valid_gt(state.materialize())
                    assert (self.NOT_GT not in state.check_invariants()) == ref
                    states += 1
                    gt += ref
        assert (states, gt) == (291_260, 959)

    def test_direct_check_past_k_equals_n(self):
        """k = n+1, n+2 with n <= 2, where the constant n-k+1 drops below 1
        (it shows in the triangle once k >= 3)."""
        states = gt = 0
        for n in range(1, 3):
            for k in range(n + 1, n + 3):
                for entries in product(range(n + 2), repeat=2 * k - 1):
                    state = BijectionState(n, entries[:k], entries[k:])
                    ref = is_valid_gt(state.materialize())
                    assert (self.NOT_GT not in state.check_invariants()) == ref
                    states += 1
                    gt += ref
        assert (states, gt) == (17_678, 4)

    def test_failure_string_comes_first(self):
        problems = BijectionState(3, (3, 4, 1), (2, 1)).check_invariants()
        assert problems[0] == self.NOT_GT

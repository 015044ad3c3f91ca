import hashlib
import random
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogmagog import bijection
from gogmagog.bijection import (
    BijectionState,
    BijectionStateError,
    InvalidGogamInput,
    Rule,
    _diagonal_bound_violations,
    _gog_trapezoid,
    _image_loop,
    _state_loop,
    _two_diagonals,
    covering_subtraction_map,
    extract_diagonals,
    forward_step,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    inverse_step,
    magog_row_statistic,
    statistic_x11,
)
from gogmagog.enumeration import FamilySpec, _walk_n2, generate
from gogmagog.schutzenberger import is_gogam, schutzenberger
from gogmagog.triangles import (
    _UNROLL_MAX_N, Family, GtTriangle, is_gog, is_magog, is_trapezoid, is_valid_gt
)

from conftest import SCHEDULES, descend, kernel, tri

GOG52 = tri((1, 2, 3, 4, 5), (1, 2, 4, 5), (1, 3, 4), (1, 3), (2,))
GOGAM52 = tri((1, 1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 3), (1, 3), (2,))


def staircase(n):
    return GtTriangle(tuple(tuple(range(1, i + 1)) for i in range(n, 0, -1)))


class TestDiagonals:
    def test_five_two_trapezoid(self):
        # (b_k, a_k) for k = 1..4, with the pinned b_1 = 4 first
        assert extract_diagonals(GOG52) == ((4, 5), (4, 4), (3, 3), (1, 2))
        assert _gog_trapezoid(5, extract_diagonals(GOG52)) == GOG52

    def test_staircase(self):
        assert extract_diagonals(staircase(5)) == ((4, 4), (3, 3), (2, 2), (1, 1))

    def test_size2(self):
        assert extract_diagonals(tri((1, 2), (2,))) == ((1, 2),)

    def test_size1(self):
        assert extract_diagonals(tri((1,))) == ()
        with pytest.raises(ValueError):
            extract_diagonals(tri((2,)))

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

    def test_size1(self):
        # the general path: no pairs, no steps
        assert gog_to_gogam_n2(tri((1,))) == (tri((1,)), ())
        with pytest.raises(ValueError):
            gog_to_gogam_n2(tri((2,)))


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

    def test_size1(self):
        assert gogam_to_gog_n2(tri((1,))) == (tri((1,)), ())
        with pytest.raises(InvalidGogamInput):
            gogam_to_gog_n2(tri((2,)))

    @pytest.mark.parametrize(
        "k, corrupt, raised",
        [
            (2, lambda n, b, a: (b + 1, a), 1_205),
            (2, lambda n, b, a: (b, n), 263),
            (3, lambda n, b, a: (a, a), 1_217),
            (1, lambda n, b, a: (b - 1, a), 1_855),
        ],
        ids=["b2-up", "a2-to-n", "b3-to-a3", "b1-down"],
    )
    def test_recovered_pairs_are_checked_by_the_gog_test(self, monkeypatch, k, corrupt, raised):
        """Corrupt the pair that `inverse_step` recovers at step k, on
        each of the 1,855 (n,2) GOGAm images with 3 <= n <= 6.  The final
        Gog test of the rebuilt triangle rejects a non-monotone diagonal
        or a non-strict row; b_1, which `_gog_trapezoid` never writes,
        has its own check."""

        def broken(state):
            shrunk, (b, a), rec = inverse_step(state)
            return shrunk, corrupt(state.n, b, a) if rec.k == k else (b, a), rec

        images = [
            t for n in range(3, 7) for t in generate(FamilySpec(Family.GOGAM, n, k=2))
        ]
        monkeypatch.setattr(bijection, "inverse_step", broken)
        rejected = 0
        for t in images:
            try:
                gogam_to_gog_n2(t)
            except InvalidGogamInput:
                rejected += 1
        assert (len(images), rejected) == (1_855, raised)


def _step_digest(n_max):
    """(calls, sha256) over the repr of each result, or the exception's
    type and text, of `inverse_step` on every state with k <= n <= n_max
    and entries 0..n+1, and of `forward_step` on each with k < n and
    every pair (b, a) in 0..n+1."""
    digest, calls = hashlib.sha256(), 0
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for entries in product(range(n + 2), repeat=2 * k - 1):
                state = BijectionState(n, entries[:k], entries[k:])
                calls_here = [(inverse_step, ())]
                if k < n:
                    calls_here += [(forward_step, p) for p in product(range(n + 2), repeat=2)]
                for step, args in calls_here:
                    try:
                        out = repr(step(state, *args))
                    except (BijectionStateError, InvalidGogamInput) as e:
                        out = f"{type(e).__name__}: {e}"
                    digest.update(out.encode() + b"\n")
                    calls += 1
    return calls, digest.hexdigest()


def test_public_steps_keep_their_results():
    # pinned before the steps became wrappers over `_forward` / `_inverse`;
    # every rule breaks the state test in each direction at n <= 3
    assert _step_digest(3) == (
        6_640, "2537baf774c82b1dcaec5568d639bdda6500092fb7477b925b92e0adcbfebf15"
    )


@pytest.mark.slow
def test_public_steps_keep_their_results_n4():
    assert _step_digest(4) == (
        582_502, "3ad586203aeea44a8d9fb279b240dc9da393dc53d334c642cb9256e55e11c650"
    )


@st.composite
def gog_trapezoids_n2(draw, n_min=2, n_max=12):
    """A (n,2) Gog trapezoid with n_min <= n <= n_max, drawn row by row
    below the top row 1..n: cells with i - j >= 2 are pinned to j, and
    each free cell is drawn inside its interlacing interval, above its
    left neighbour so that the row stays strict."""
    n = draw(st.integers(n_min, n_max))
    rows = [tuple(range(1, n + 1))]
    for i in range(n - 1, 0, -1):
        above = rows[-1]
        row = list(range(1, i - 1))
        for m in range(max(i - 2, 0), i):
            lo = max(above[m], row[-1] + 1) if row else above[m]
            row.append(draw(st.integers(lo, above[m + 1])))
        rows.append(tuple(row))
    return GtTriangle(tuple(rows))


@settings(max_examples=300)
@given(gog_trapezoids_n2())
def test_bijection_properties_on_drawn_trapezoids(t):
    assert is_gog(t) and is_trapezoid(t, Family.GOG, 2)
    assert _gog_trapezoid(t.n, extract_diagonals(t)) == t
    image, trace = gog_to_gogam_n2(t)
    assert gogam_to_gog_n2(image) == (t, trace[::-1])
    assert is_trapezoid(image, Family.GOGAM, 2) and is_gogam(image)
    assert is_magog(schutzenberger(image))
    assert statistic_x11(image) == statistic_x11(t)


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
    """The (n,2) GOGAm bounds on the two rightmost diagonals, read
    through the full-size `BijectionState` of a trapezoid."""

    def test_worked_output_passes(self):
        state = BijectionState(GOGAM52.n, *_two_diagonals(GOGAM52))
        assert state.materialize() == GOGAM52
        assert state.u == (3, 3, 3, 3, 2)
        assert state.v == (2, 2, 1, 1)
        assert state.check_invariants() == []

    def test_oversized_corner_fails(self):
        t = tri((1, 1, 4), (1, 4), (4,))
        assert BijectionState(t.n, *_two_diagonals(t)).check_invariants()

    def test_equivalent_to_general_membership_on_trapezoid_shapes(self):
        # on (n,2)-trapezoid-shaped triangles the diagonal inequalities
        # decide membership exactly like the chain formula
        from itertools import combinations_with_replacement

        def shapes(n):
            # cells with i - j >= 2 pinned to 1, every entry at most n
            # (a GOGAm corner is at most n and dominates every entry)
            for right in combinations_with_replacement(range(1, n + 1), min(n, 2)):
                top = (1,) * (n - len(right)) + right
                yield from descend(top, n, lambda i, j, val, row: i - j < 2 or val == 1)

        # shape counts match filtering every triangle bounded by n;
        # member counts are the (n,2) trapezoid numbers
        counts = {2: (4, 2), 3: (27, 7), 4: (236, 35), 5: (2375, 219), 6: (26090, 1594)}
        for n, (want_shapes, want_gogam) in counts.items():
            seen = members = 0
            for t in shapes(n):
                assert is_trapezoid(t, Family.GOGAM, 2)
                member = is_gogam(t)
                state = BijectionState(t.n, *_two_diagonals(t))
                assert state.materialize() == t
                assert (state.check_invariants() == []) == member
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

    @pytest.mark.parametrize(
        "n, u, v",
        [(3, (3.5, 2), (2,)), (3, (3, 2), (2.0,)), (3, (3, True), (2,)), (3, ("3", 2), (2,)),
         (3.0, (3, 2), (2,))],
        ids=["float", "integral-float", "bool", "string", "float-size"],
    )
    def test_constructor_rejects_non_int_entries(self, n, u, v):
        with pytest.raises(ValueError, match="must be integers"):
            BijectionState(n, u, v)

    @pytest.mark.parametrize(
        "n, u, v",
        [(3, (), ()), (0, (1,), ()), (-1, (1,), ()), (0, (), ())],
        ids=["empty-diagonal", "size-0", "negative-size", "both"],
    )
    def test_constructor_rejects_empty_or_sizeless_state(self, n, u, v):
        with pytest.raises(ValueError, match="n >= 1 and a nonempty rightmost diagonal"):
            BijectionState(n, u, v)

    def test_trusted_state_equals_checked_state(self):
        state = BijectionState(5, [5, 3, 3], [4, 2])
        assert BijectionState._trusted(5, (5, 3, 3), (4, 2)) == state
        assert state.u == (5, 3, 3) and state.v == (4, 2)


def _bound_violations_reference(n, u, v):
    """Every bound of the three (n,2) families checked pair by pair."""
    bad = []
    if u[0] > n:
        bad.append(f"top corner {u[0]} exceeds {n}")
    for i in range(1, len(u)):
        if u[0] - u[i] + v[i - 1] > n - 1:
            bad.append(f"single-dip bound broken at depth {i}")
    for i in range(1, len(u)):
        for j in range(i + 1, len(u)):
            if u[0] - u[i] + v[i - 1] - v[j - 1] + 1 > j - 1:
                bad.append(f"double-dip bound broken at depths ({i},{j})")
    return bad


def _state_misses(test_of_size):
    """(states, passing states, states on which ``test_of_size(k)`` and
    `_state_loop` disagree) over every state (n, u, v) with
    1 <= k <= n <= 4 and entries 0..n+1."""
    states = held = 0
    misses = []
    for n in range(1, 5):
        for k in range(1, n + 1):
            test = test_of_size(k)
            for entries in product(range(n + 2), repeat=2 * k - 1):
                state = (n, entries[:k], entries[k:])
                got = test(state)
                if got != _state_loop(state):
                    misses.append(state)
                states += 1
                held += got
    return states, held, misses


def _sizes_missed_without(monkeypatch, marker):
    """The sizes k at which a kernel built without its lines holding
    ``marker`` disagrees with `_state_loop` (states of `_state_misses`)."""
    real = bijection._straight_line

    def without(k, target, body, label):
        return real(k, target, [line for line in body if marker not in line], label)

    monkeypatch.setattr(bijection, "_straight_line", without)
    return {len(u) for _, u, _ in _state_misses(bijection._state_kernel)[2]}


class TestStateKernel:
    def test_matches_the_loop_exhaustively(self):
        assert _state_misses(partial(kernel, "state")) == (291_260, 84, [])

    def test_a_kernel_without_the_double_dip_bound_is_caught(self, monkeypatch):
        assert _sizes_missed_without(monkeypatch, "top - v") == {3, 4}

    @pytest.mark.parametrize(
        "marker, sizes",
        [("if u0 > n", {1, 2, 3, 4}), ("if top >= n", {2}), ("if d >= n", {3, 4}),
         ("if d > top", {4})],
        ids=["corner", "first-single-dip", "single-dip", "running-max"],
    )
    def test_a_kernel_without_a_bound_line_is_caught(self, monkeypatch, marker, sizes):
        assert _sizes_missed_without(monkeypatch, marker) == sizes

    @settings(max_examples=20)
    @given(gog_trapezoids_n2(n_min=_UNROLL_MAX_N + 1, n_max=16), st.data())
    def test_states_past_the_cap_reach_the_loop(self, t, data):
        # `kernel` checks that the resolver gives the loop past the cap;
        # the last steps of both maps check states of those sizes
        assert kernel("state", t.n) is _state_loop
        assert kernel("image", t.n) is _image_loop
        image, trace = gog_to_gogam_n2(t)
        assert gogam_to_gog_n2(image) == (t, trace[::-1])
        # one entry of the image's state moved by +-1 is listed in full
        n = t.n
        u, v = _two_diagonals(image)
        assert _image_loop((u, v)) == 0
        perturbed = _perturbed((u, v), data.draw(st.integers(0, 2 * n - 2)),
                               data.draw(st.sampled_from((-1, 1))))
        state = BijectionState(n, *perturbed)
        gt = [] if is_valid_gt(state.materialize()) else [TestStateInvariants.NOT_GT]
        assert state.check_invariants() == gt + _bound_violations_reference(n, state.u, state.v)
        assert _image_loop(perturbed) == _image_reference(perturbed)


def _perturbed(leaf, i, delta):
    """The diagonals (u, v) with entry i of u + v moved by delta."""
    u, v = leaf
    entries = [*u, *v]
    entries[i] += delta
    return tuple(entries[: len(u)]), tuple(entries[len(u) :])


def _image_reference(leaf):
    """`_image_check`'s index through the public predicates: 1 when the
    state (u, v) with n = len(u) is not a GOGAm trapezoid, else 2 when
    its involution image is not Magog, else 0."""
    u, v = leaf
    t = BijectionState(len(u), u, v).materialize()
    if not (is_trapezoid(t, Family.GOGAM, 2) and is_gogam(t)):
        return 1
    return 0 if is_magog(schutzenberger(t)) else 2


def _image_results(check_of_size, n_max, seed):
    """{(loop's index, ``check_of_size(n)``'s index): count} over every
    (n,2) walk leaf with n <= n_max and one seeded +-1 perturbation of
    each; every leaf must pass, and the loop must equal the public
    predicates on the perturbations."""
    rng = random.Random(seed)
    results = {}
    for n in range(1, n_max + 1):
        check = check_of_size(n)
        for leaf, _, _ in _walk_n2(n):
            assert check(leaf) == _image_loop(leaf) == 0
            perturbed = _perturbed(leaf, rng.randrange(2 * n - 1), rng.choice((-1, 1)))
            key = _image_loop(perturbed), check(perturbed)
            assert key[0] == _image_reference(perturbed)
            results[key] = results.get(key, 0) + 1
    return results


class TestImageKernel:
    def test_matches_the_loop_on_every_leaf_and_a_perturbation_of_each(self):
        # 14,793 leaves for n <= 7; the perturbations reach indices 0 and 1
        assert _image_results(partial(kernel, "image"), 7, 0x1A6E) == {
            (0, 0): 3_613, (1, 1): 11_180
        }

    def test_the_involution_side_alone_rejects_what_the_staircase_rejects(self, monkeypatch):
        # built without its staircase line, the kernel passes a GT state
        # that is not GOGAm to the involution, whose image is then not
        # Magog: index 2 (never 0) wherever the loop rejects GT rows,
        # 1 only through the GT test
        real = bijection._straight_line

        def without(n, target, body, label):
            return real(n, target, [ln for ln in body if f"x0_{n - 1} <= {n}): " not in ln], label)

        monkeypatch.setattr(bijection, "_straight_line", without)
        assert _image_results(bijection._image_kernel, 6, 0x1A6E) == {
            (0, 0): 378, (1, 1): 1_197, (1, 2): 283
        }


def _agreed(name, *args):
    """What schedule ``name``'s loop gives on ``args``, a result or its
    error's type and text, once its kernel of size len(u) gives the same."""
    outcomes = []
    for step in (SCHEDULES[name][2], kernel(name, len(args[1]))):
        try:
            outcomes.append(step(*args))
        except (BijectionStateError, InvalidGogamInput) as e:
            outcomes.append(f"{type(e).__name__}: {e}")
    assert outcomes[0] == outcomes[1], (name, args)
    return outcomes[0]


def _kind(outcome):
    """The rule of a step's result, or the class of its error."""
    return outcome.split(":")[0] if isinstance(outcome, str) else outcome[-2].value


class TestStepKernels:
    def test_match_the_loops_on_every_walk_edge_and_perturbations(self):
        """Every distinct edge of the (n,2) walks with n <= 7: forward
        from its parent by its pair, by the pair with b or a moved by
        +-1, and from the parent with one cell moved by +-1; inverse of
        its child, and of the child with one cell moved by +-1."""
        rng = random.Random(0x29E)
        edges = {(n, e.before, e.pair): e.after
                 for n in range(1, 8) for _, path, _ in _walk_n2(n) for e in path}
        kinds = Counter()
        for (n, before, (b, a)), after in edges.items():
            db, da = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            moved = [_perturbed(s, rng.randrange(2 * len(s[0]) - 1), rng.choice((-1, 1)))
                     for s in (before, after)]
            for state, pair in ((before, (b, a)), (before, (b + db, a + da)), (moved[0], (b, a))):
                kinds["forward", _kind(_agreed("forward", n, *state, *pair))] += 1
            for state in (after, moved[1]):
                kinds["inverse", _kind(_agreed("inverse", n, *state))] += 1
        # every rule is reached both ways, and both errors
        assert len(edges) == 16_967
        assert kinds == {
            ("forward", "BijectionStateError"): 19_871, ("forward", "i"): 3_191,
            ("forward", "ii"): 11_500, ("forward", "iiia"): 3_477, ("forward", "iiib"): 1_544,
            ("forward", "iva"): 10_957, ("forward", "ivb"): 361,
            ("inverse", "InvalidGogamInput"): 12_751, ("inverse", "i"): 2_595,
            ("inverse", "ii"): 7_781, ("inverse", "iiia"): 2_526, ("inverse", "iiib"): 1_007,
            ("inverse", "iva"): 7_222, ("inverse", "ivb"): 52,
        }

    def test_inverse_undoes_every_iiib_walk_edge_itself(self, monkeypatch):
        """Built with a loop that must not run, the inverse kernels give
        the loop's result on each of the 791 distinct IIIb children of
        the walks with n <= 7, 129 of them with v[k-1-l] + l == u_k."""
        loop = SCHEDULES["inverse"][2]
        children = {(n, e.after) for n in range(1, 8) for _, path, _ in _walk_n2(n)
                    for e in path if e.undone[3] is Rule.IIIB}

        def unreachable(n, u, v):
            raise AssertionError("the kernel must undo IIIb itself")

        monkeypatch.setattr(bijection, "_inverse", unreachable)
        kernels = {size: bijection._inverse_kernel(size) for size in range(2, 8)}
        assert len(children) == 791
        for n, (u, v) in children:
            assert kernels[len(u)](n, u, v) == loop(n, u, v)

    @settings(max_examples=300)
    @given(st.data())
    def test_match_the_loops_on_drawn_states(self, data):
        # entries in 0..n+1 and sizes up to n + 2: states past k = n and
        # states that are not GT
        n = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, n + 2))
        entry = st.integers(0, n + 1)
        u, v = (tuple(data.draw(st.lists(entry, min_size=m, max_size=m))) for m in (k, k - 1))
        _agreed("forward", n, u, v, data.draw(entry), data.draw(entry))
        _agreed("inverse", n, u, v)


class TestDiagonalBounds:
    def test_matches_pair_reference_exhaustively(self):
        """Every (u, v) with n <= 4, 1 <= k <= n and entries 0..n+1."""
        seen = held = 0
        for n in range(1, 5):
            for k in range(1, n + 1):
                for entries in product(range(n + 2), repeat=2 * k - 1):
                    u, v = entries[:k], entries[k:]
                    got = _diagonal_bound_violations(n, u, v)
                    assert got == _bound_violations_reference(n, u, v)
                    seen += 1
                    held += not got
        assert (seen, held) == (291_260, 66_938)

    def test_matches_pair_reference_random(self):
        """20,000 seeded (u, v) with n <= 8; half draw every entry from
        0..n+1, half keep both diagonals nonincreasing, as in a state."""
        rng = random.Random(0x6A3E)
        held = 0
        for draw in range(20_000):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            u = [rng.randint(0, n + 1) for _ in range(k)]
            v = [rng.randint(0, n + 1) for _ in range(k - 1)]
            if draw % 2:
                u.sort(reverse=True)
                v.sort(reverse=True)
            got = _diagonal_bound_violations(n, tuple(u), tuple(v))
            assert got == _bound_violations_reference(n, tuple(u), tuple(v))
            held += not got
        assert held == 8_100

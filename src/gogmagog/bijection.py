"""The explicit bijection between (n,2) Gog and (n,2) GOGAm trapezoids.

A (n,2) Gog trapezoid is determined by its two rightmost NW-SE
diagonals: a_1 >= ... >= a_{n-1} down the rightmost diagonal (below the
pinned corner n) and b_2 >= ... >= b_{n-1} down the second one (below
the pinned n-1).  The forward algorithm consumes these diagonals left
of an already-built triangle, one per step, and patches the partial
triangle according to which of six mutually exclusive rules matches the
inversion pattern of the appended diagonal.  Each intermediate triangle
is kept in compressed form: a constant filling, the rightmost diagonal
u_0..u_{k-1} and the second diagonal v_1..v_{k-1}, both read top to
bottom.

The inverse algorithm classifies the same six cases from the finished
triangle alone and undoes them, recovering the Gog trapezoid diagonal
by diagonal.  Rule tags are recorded at every step; the tag of the
opening size-1 -> size-2 step is BASE (it is degenerate: only the two
simplest rules can match there).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .schutzenberger import is_gogam
from .triangles import Family, GtTriangle, Inversion, inversions, is_gog, is_trapezoid


class BijectionStateError(RuntimeError):
    """An invariant of the forward algorithm broke: bug or bad input."""


class InvalidGogamInput(ValueError):
    """Input to the inverse algorithm is not an image of the forward map."""


class Rule(Enum):
    BASE = "base"
    I = "i"
    II = "ii"
    IIIA = "iiia"
    IIIB = "iiib"
    IVA = "iva"
    IVB = "ivb"

    # members compare by identity, so the identity hash agrees with
    # equality; `Enum`'s own hash is a Python-level call per dict lookup
    __hash__ = object.__hash__


@dataclass(frozen=True)
class StepRecord:
    """One algorithm step: the step index k, the rule fired, and, for
    rules IIIb/IVb, the run length l used by the inverse classifier."""

    k: int
    rule: Rule
    l: int | None = None


Trace = tuple[StepRecord, ...]


def _two_diagonals(t: GtTriangle) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(u, v) with ``u[m]`` the cell (n-m, n-m) of the rightmost diagonal
    and ``v[m-1]`` the cell (n-m+1, n-m) of the second one."""
    rows = t.rows
    return tuple(row[-1] for row in rows), tuple(row[-2] for row in rows[:-1])


def _diagonal_bounds_hold(n: int, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Whether all three families of `_diagonal_bound_violations` hold,
    in O(k): the double-dip bound holds for every i < j exactly when it
    holds for the largest v[i-1] - u[i] with i < j."""
    top = u[0]
    if top > n:
        return False
    if len(u) == 1:
        return True
    dip = v[0] - u[1]  # running max of v[i-1] - u[i] over i < j
    if top + dip > n - 1:
        return False
    for j in range(2, len(u)):
        vj = v[j - 1]
        if top + dip - vj + 1 > j - 1:
            return False
        d = vj - u[j]
        if top + d > n - 1:
            return False
        if d > dip:
            dip = d
    return True


def _diagonal_bound_violations(
    n: int, u: tuple[int, ...], v: tuple[int, ...]
) -> list[str]:
    """The three (n,2) inequality families on the diagonals (u, v):

    u[0] <= n;  u[0] - u[i] + v[i-1] <= n-1;  and for i < j
    u[0] - u[i] + v[i-1] - v[j-1] + 1 <= j - 1.

    Every broken bound is listed, but the O(k^2) listing only runs
    once the O(k) `_diagonal_bounds_hold` has found one.
    """
    if _diagonal_bounds_hold(n, u, v):
        return []
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


@dataclass(frozen=True)
class BijectionState:
    """Partial triangle of size k = len(u) in compressed form.

    ``u[m]`` is the rightmost-diagonal entry m cells below the top,
    ``v[m-1]`` the second-diagonal entry at depth m; every other cell
    holds the constant n - k + 1.
    """

    n: int
    u: tuple[int, ...]
    v: tuple[int, ...]

    def __post_init__(self) -> None:
        u, v = tuple(self.u), tuple(self.v)
        if not all(type(x) is int for x in (self.n, *u, *v)):  # bool is an int subclass
            raise ValueError("size and diagonal entries must be integers")
        if self.n < 1 or not u:
            raise ValueError("a state needs n >= 1 and a nonempty rightmost diagonal")
        if len(v) != len(u) - 1:
            raise ValueError("second diagonal must be one entry shorter")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def _trusted(cls, n: int, u: tuple[int, ...], v: tuple[int, ...]) -> "BijectionState":
        """A state the steps built themselves: int tuples with
        len(v) == len(u) - 1.  No coercion, no checks."""
        state = object.__new__(cls)
        object.__setattr__(state, "n", n)
        object.__setattr__(state, "u", u)
        object.__setattr__(state, "v", v)
        return state

    @property
    def k(self) -> int:
        return len(self.u)

    @property
    def constant(self) -> int:
        return self.n - self.k + 1

    def materialize(self) -> GtTriangle:
        u, v = self.u, self.v
        k, c = self.k, self.constant
        rows_top_down = [(c,) * (k - m - 2) + (v[m], u[m]) for m in range(k - 1)]
        rows_top_down.append((u[k - 1],))
        return GtTriangle._trusted(tuple(rows_top_down))

    def check_invariants(self) -> list[str]:
        """Growth conditions plus the three inequality families of
        `_diagonal_bound_violations`."""
        bad = []
        if not _is_gt_state(self.n, self.u, self.v):
            bad.append("materialized triangle is not Gelfand-Tsetlin")
        return bad + _diagonal_bound_violations(self.n, self.u, self.v)


def _is_gt_state(n: int, u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether the materialized state (n, u, v) is Gelfand-Tsetlin, read
    off the diagonals in O(k).

    With c = n - k + 1, a row at depth m holds c, ..., c, v[m], u[m], so
    the interlacing inequalities reduce to v[m-1] <= u[m] <= u[m-1] and
    c <= v[m] <= v[m-1]; c itself appears (and must be positive) once
    k >= 3.
    """
    k = len(u)
    c = n - k + 1
    if k >= 3 and c < 1:
        return False
    if min(u) < 1 or (v and min(v) < 1):
        return False
    for m in range(1, k):
        if not (v[m - 1] <= u[m] <= u[m - 1]):
            return False
    for m in range(1, k - 1):
        if not (c <= v[m] <= v[m - 1]):
            return False
    return True


def extract_diagonals(t: GtTriangle) -> tuple[tuple[int, int], ...]:
    """The pairs ((b_1, a_1), ..., (b_{n-1}, a_{n-1})) of a (n,2) Gog
    trapezoid (validated), which `_gog_trapezoid` turns back into ``t``:
    a_k sits at cell (n-k, n-k) and b_k at (n-k+1, n-k), with b_1 = n-1
    pinned.  Interlacing, strict rows and the pinned cells force the
    ranges `forward_step` needs: a_k nonincreasing, n-k <= b_k <= b_{k-1}
    and b_k < a_{k-1}.
    """
    if not (is_gog(t) and is_trapezoid(t, Family.GOG, 2)):
        raise ValueError("input is not a (n,2) Gog trapezoid")
    u, v = _two_diagonals(t)
    return tuple(zip(v, u[1:]))


def forward_step(
    state: BijectionState, b_k: int, a_k: int
) -> tuple[BijectionState, StepRecord]:
    """Append the next diagonal (constant, ..., constant, b_k, a_k).

    Exactly one of the six rules matches; its patch is applied and the
    grown state is returned together with the step record.  The bottom
    entry is never modified, so it always equals a_k afterwards.
    """
    n, k = state.n, state.k
    c = n - k  # constant of the grown triangle
    u, v = list(state.u), list(state.v)
    u_k, v_k = a_k, b_k
    prev_u_last = u[-1]
    if not (c <= v_k <= u_k and v_k < prev_u_last and u_k <= prev_u_last and u_k <= n):
        raise BijectionStateError(
            f"appended pair (b,a) = ({b_k},{a_k}) out of range at step {k}"
        )

    if v_k == c and u_k == c:
        rule = Rule.I
        new_u = [x - 1 for x in u] + [u_k]
        new_v = [x - 1 for x in v] + [v_k]
    elif v_k == c and u_k > c:
        rule = Rule.II
        new_u = u + [u_k]
        new_v = [x - 1 for x in v] + [v_k]
    elif v_k == u_k:  # c < v_k
        dec_u = [x - 1 for x in u] + [u_k]
        if _is_gt_state(n, dec_u, v + [v_k]):
            rule = Rule.IIIA
            new_u = dec_u
            new_v = v + [v_k]
        else:
            rule = Rule.IIIB
            new_u = dec_u
            new_v = [x - 1 for x in v] + [c]
    elif k == 1 or v_k <= v[-1]:  # c < v_k < u_k
        rule = Rule.IVA
        new_u = u + [u_k]
        new_v = v + [v_k]
    else:  # c < v_k < u_k and v_k > v[k-1]
        rule = Rule.IVB
        l = 1
        while l + 1 <= k - 1 and v[k - (l + 1) - 1] <= v_k - (l + 1):
            l += 1
        new_u = u + [u_k]
        new_v = v + [v_k]
        for m in range(k - l + 1, k + 1):
            new_v[m - 1] = c
        new_v[k - l - 1] = v_k - l

    new_state = BijectionState._trusted(n, tuple(new_u), tuple(new_v))
    problems = new_state.check_invariants()
    if problems:
        raise BijectionStateError(
            f"rule {rule.value} at step {k} broke invariants: {problems}"
        )

    l_rec = _trailing_run_length(new_state) if rule in (Rule.IIIB, Rule.IVB) else None
    if rule is Rule.IVB and l_rec != l:
        raise BijectionStateError("run length disagrees with its inverse reading")
    tag = Rule.BASE if k == 1 else rule
    return new_state, StepRecord(k, tag, l_rec)


def _trailing_run_length(state: BijectionState) -> int:
    """1 + length of the run of second-diagonal entries equal to the
    constant, counted upward from just above the bottom; the quantity
    the inverse classifier calls l."""
    k = state.k - 1
    c = state.constant
    v = state.v
    l = 1
    while l <= k - 1 and v[k - l - 1] == c:
        l += 1
    return l


def gog_to_gogam_n2(t: GtTriangle) -> tuple[GtTriangle, Trace]:
    """Map a (n,2) Gog trapezoid to its (n,2) GOGAm partner.

    Returns the image triangle and the full rule trace (n-1 records).
    The image is verified to be a GOGAm trapezoid before it is returned;
    its bottom entry is a_{n-1}, which no rule modifies.
    """
    state = BijectionState(t.n, (t.n,), ())
    trace: list[StepRecord] = []
    for b_k, a_k in extract_diagonals(t):
        state, rec = forward_step(state, b_k, a_k)
        trace.append(rec)
    out = state.materialize()
    if not (is_trapezoid(out, Family.GOGAM, 2) and is_gogam(out)):
        raise BijectionStateError("forward image failed the GOGAm test")
    return out, tuple(trace)


def inverse_step(
    state: BijectionState,
) -> tuple[BijectionState, tuple[int, int], StepRecord]:
    """Strip the leftmost diagonal after undoing the rule that built it.

    The rule is read off the state alone: the bottom two entries of the
    stripped diagonal split the cases, and the tie between the subtle
    rules is broken by comparing v[k-l] + l against the bottom entry.
    Raises `InvalidGogamInput` when no rule can have produced the state.
    """
    size = state.k
    if size < 2:
        raise InvalidGogamInput("nothing to strip from a size-1 state")
    k = size - 1
    n = state.n
    c = n - k  # constant of this state
    u, v = list(state.u), list(state.v)
    u_k, v_k = u[k], v[k - 1]
    l = None

    if v_k == c and u_k == c:
        rule = Rule.I
        old_u = [x + 1 for x in u[:k]]
        old_v = [x + 1 for x in v[: k - 1]]
        emit = (v_k, u_k)
    elif v_k > c and v_k == u_k:
        rule = Rule.IIIA
        old_u = [x + 1 for x in u[:k]]
        old_v = list(v[: k - 1])
        emit = (v_k, u_k)
    elif v_k > c and v_k < u_k:
        rule = Rule.IVA
        old_u = list(u[:k])
        old_v = list(v[: k - 1])
        emit = (v_k, u_k)
    elif v_k == c and v_k < u_k:
        if all(v[i - 1] < u[i] for i in range(1, k)):
            rule = Rule.II
            old_u = list(u[:k])
            old_v = [x + 1 for x in v[: k - 1]]
            emit = (v_k, u_k)
        else:
            l = _trailing_run_length(state)
            if k - l < 1:
                raise InvalidGogamInput("equality pair with an all-constant diagonal")
            if v[k - l - 1] + l < u_k:
                rule = Rule.IVB
                old_u = list(u[:k])
                old_v = list(v[: k - 1])
                for m in range(k - l, k):
                    old_v[m - 1] = n - k + 1
                emit = (v[k - l - 1] + l, u_k)
            else:
                rule = Rule.IIIB
                old_u = [x + 1 for x in u[:k]]
                old_v = [x + 1 for x in v[: k - 1]]
                emit = (u_k, u_k)
    else:
        raise InvalidGogamInput(
            f"stripped diagonal pair ({v_k},{u_k}) matches no rule at step {k}"
        )

    shrunk = BijectionState._trusted(n, tuple(old_u), tuple(old_v))
    problems = shrunk.check_invariants()
    if problems:
        raise InvalidGogamInput(f"undoing rule {rule.value} broke invariants: {problems}")
    b_k, a_k = emit
    if not (n - k <= b_k <= a_k <= n and b_k < old_u[-1] and a_k <= old_u[-1]):
        raise InvalidGogamInput(f"recovered pair ({b_k},{a_k}) is out of range")
    tag = Rule.BASE if k == 1 else rule
    return shrunk, emit, StepRecord(k, tag, l)  # l is set only for IIIb and IVb


def gogam_to_gog_n2(t: GtTriangle) -> tuple[GtTriangle, Trace]:
    """Inverse of `gog_to_gogam_n2` on (n,2) GOGAm trapezoids.

    The trace is returned in execution order (step n-1 first); it is
    the reverse of the forward trace of the recovered trapezoid.
    """
    n = t.n
    # is_gogam is False on input that is not Gelfand-Tsetlin
    if not (is_trapezoid(t, Family.GOGAM, 2) and is_gogam(t)):
        raise InvalidGogamInput("input is not a (n,2) GOGAm trapezoid")
    # the trapezoid test pins every cell left of the two diagonals to the
    # full-size constant 1, so the state materializes back to t
    state = BijectionState._trusted(n, *_two_diagonals(t))
    pairs: list[tuple[int, int]] = []  # (b_k, a_k) for k = n-1 down to 1
    trace: list[StepRecord] = []
    for _ in range(n - 1):
        state, pair, rec = inverse_step(state)
        pairs.append(pair)
        trace.append(rec)
    if state.u != (n,):
        raise InvalidGogamInput("peeling did not terminate at the pinned corner")
    pairs.reverse()
    # _gog_trapezoid never writes b_1, so the Gog test below cannot see it
    if pairs and pairs[0][0] != n - 1:
        raise InvalidGogamInput("recovered second diagonal must start at n-1")
    # the Gog test decides monotone diagonals and strict rows
    gog = _gog_trapezoid(n, pairs)
    if not (is_gog(gog) and is_trapezoid(gog, Family.GOG, 2)):
        raise InvalidGogamInput("recovered triangle is not a (n,2) Gog trapezoid")
    return gog, tuple(trace)


def _gog_trapezoid(n: int, pairs: Sequence[tuple[int, int]]) -> GtTriangle:
    """The (n,2) Gog trapezoid shape with ``pairs[k-1] = (b_k, a_k)``
    on its two rightmost diagonals; no checks."""
    rows = [[j if i - j >= 2 else 0 for j in range(1, i + 1)] for i in range(1, n + 1)]
    for j in range(1, n + 1):
        rows[n - 1][j - 1] = j
    for k, (b_k, a_k) in enumerate(pairs, 1):
        rows[n - k - 1][n - k - 1] = a_k  # cell (n-k, n-k)
        if k >= 2:
            rows[n - k][n - k - 1] = b_k  # cell (n-k+1, n-k)
    return GtTriangle._trusted(tuple(tuple(r) for r in reversed(rows)))


def _covering_walk(invs: set[Inversion], i: int, j: int) -> int:
    """Inversions among ``invs`` on the ray NW of the cell (i, j)."""
    return sum(1 for p in range(1, j) if (i - p, j - p) in invs)


def covering_subtraction_map(t: GtTriangle) -> GtTriangle:
    """Subtract from each entry the number of inversions covering it.

    On (n,1) Gog trapezoids this equals the general algorithm and lands
    on (n,1) GOGAm trapezoids.
    """
    n = t.n
    if not (is_gog(t) and is_trapezoid(t, Family.GOG, 1)):
        raise ValueError("input is not a (n,1) Gog trapezoid")
    invs = set(inversions(t))
    return GtTriangle._trusted(
        tuple(
            tuple(x - _covering_walk(invs, i, j) for j, x in enumerate(t.rows[n - i], 1))
            for i in range(n, 0, -1)
        )
    )


def statistic_x11(t: GtTriangle) -> int:
    """Bottom entry; for a Gog triangle this is the column of the +1 in
    the bottom row of the associated alternating sign matrix."""
    return t[1, 1]


def magog_row_statistic(t: GtTriangle) -> int:
    """Top-row sum minus second-row sum of a Magog triangle.

    The Magog-side counterpart of the bottom-entry statistic; equality
    with the Gog-side value is checked empirically by the harness.
    """
    if t.n == 1:
        return t[1, 1]
    return sum(t.row(t.n)) - sum(t.row(t.n - 1))

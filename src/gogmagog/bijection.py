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
from .triangles import (
    Family,
    GtTriangle,
    _covering_walk,
    inversions,
    is_gog,
    is_trapezoid,
    is_valid_gt,
)


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


def _diagonal_bound_violations(
    n: int, u: tuple[int, ...], v: tuple[int, ...]
) -> list[str]:
    """The three (n,2) inequality families on the diagonals (u, v):

    u[0] <= n;  u[0] - u[i] + v[i-1] <= n-1;  and for i < j
    u[0] - u[i] + v[i-1] - v[j-1] + 1 <= j - 1.
    """
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
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        if len(self.v) != max(len(self.u) - 1, 0):
            raise ValueError("second diagonal must be one entry shorter")

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

    @classmethod
    def from_triangle(cls, t: GtTriangle) -> "BijectionState":
        """Full-size state of a (n,2)-trapezoid-shaped triangle."""
        state = cls(t.n, *_two_diagonals(t))
        if state.materialize() != t:
            raise InvalidGogamInput(
                "triangle is not constant left of its two rightmost diagonals"
            )
        return state

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


@dataclass(frozen=True)
class TrapezoidDiagonals:
    """The free entries of a (n,2) Gog trapezoid.

    ``a[j-1]`` is the rightmost-diagonal entry at cell (n-j, n-j) for
    j = 1..n-1; ``b[j-2]`` the second-diagonal entry at (n-j+1, n-j)
    for j = 2..n-1.  The entry above a_1 is pinned to n and the entry
    above b_2 is pinned to n-1.
    """

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def b_at(self, j: int) -> int:
        """Second-diagonal value at depth j, with the pinned b_1 = n-1."""
        if j == 1:
            return self.n - 1
        return self.b[j - 2]


@dataclass(frozen=True)
class GogamDiagonals:
    """Free diagonals of a (n,2) GOGAm trapezoid.

    ``alpha[i]`` is the rightmost-diagonal entry i cells below the top
    corner, ``beta[i-1]`` the second-diagonal entry at depth i.  On
    trapezoid-shaped triangles the full GOGAm membership test collapses
    to three inequality families on these two diagonals alone.
    """

    n: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    @classmethod
    def from_triangle(cls, t: GtTriangle) -> "GogamDiagonals":
        return cls(t.n, *_two_diagonals(t))

    def check(self) -> list[str]:
        """Violations of the trapezoid-level membership inequalities."""
        return _diagonal_bound_violations(self.n, self.alpha, self.beta)


def extract_diagonals(t: GtTriangle) -> TrapezoidDiagonals:
    """Free diagonals of a (n,2) Gog trapezoid (validated)."""
    n = t.n
    if not (is_gog(t) and is_trapezoid(t, Family.GOG, 2)):
        raise ValueError("input is not a (n,2) Gog trapezoid")
    u, v = _two_diagonals(t)
    diags = TrapezoidDiagonals(n, u[1:], v[1:])
    prev = n
    for j in range(1, n):
        if diags.a[j - 1] > prev:
            raise ValueError("rightmost diagonal must be nonincreasing")
        prev = diags.a[j - 1]
    for j in range(2, n):
        if not (n - j <= diags.b[j - 2] <= diags.b_at(j - 1)):
            raise ValueError("second diagonal out of range")
        if diags.b[j - 2] >= diags.a[j - 2]:
            raise ValueError("second diagonal must stay strictly left of the first")
    return diags


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
    elif v_k < u_k and (k == 1 or v_k <= v[-1]):
        rule = Rule.IVA
        new_u = u + [u_k]
        new_v = v + [v_k]
    elif v_k < u_k:  # v_k > v[k-1]
        rule = Rule.IVB
        l = 1
        while l + 1 <= k - 1 and v[k - (l + 1) - 1] <= v_k - (l + 1):
            l += 1
        new_u = u + [u_k]
        new_v = v + [v_k]
        for m in range(k - l + 1, k + 1):
            new_v[m - 1] = c
        new_v[k - l - 1] = v_k - l
    else:  # pragma: no cover - the guards above are exhaustive
        raise BijectionStateError(f"no rule matches (b,a) = ({b_k},{a_k}) at step {k}")

    new_state = BijectionState(n, tuple(new_u), tuple(new_v))
    problems = new_state.check_invariants()
    if problems:
        raise BijectionStateError(
            f"rule {rule.value} at step {k} broke invariants: {problems}"
        )
    if new_state.u[-1] != a_k:
        raise BijectionStateError("bottom entry must be preserved")

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
    The image is verified to be a GOGAm trapezoid with the same bottom
    entry before it is returned.
    """
    n = t.n
    if n == 1:
        if t != GtTriangle(((1,),)):
            raise ValueError("the only size-1 Gog triangle is [1]")
        return t, ()
    diags = extract_diagonals(t)
    state = BijectionState(n, (n,), ())
    trace: list[StepRecord] = []
    for k in range(1, n):
        state, rec = forward_step(state, diags.b_at(k), diags.a[k - 1])
        trace.append(rec)
    out = state.materialize()
    if not (is_trapezoid(out, Family.GOGAM, 2) and is_gogam(out)):
        raise BijectionStateError("forward image failed the GOGAm test")
    if out.rows[-1] != t.rows[-1]:
        raise BijectionStateError("bottom entry was not preserved")
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

    shrunk = BijectionState(n, tuple(old_u), tuple(old_v))
    problems = shrunk.check_invariants()
    if problems:
        raise InvalidGogamInput(f"undoing rule {rule.value} broke invariants: {problems}")
    b_k, a_k = emit
    if not (n - k <= b_k <= a_k <= n and b_k < old_u[-1] and a_k <= old_u[-1]):
        raise InvalidGogamInput(f"recovered pair ({b_k},{a_k}) is out of range")
    l_rec = l if rule in (Rule.IIIB, Rule.IVB) else None
    assert l_rec is None or l_rec >= 1
    tag = Rule.BASE if k == 1 else rule
    return shrunk, emit, StepRecord(k, tag, l_rec)


def gogam_to_gog_n2(t: GtTriangle) -> tuple[GtTriangle, Trace]:
    """Inverse of `gog_to_gogam_n2` on (n,2) GOGAm trapezoids.

    The trace is returned in execution order (step n-1 first); it is
    the reverse of the forward trace of the recovered trapezoid.
    """
    n = t.n
    if n == 1:
        if t != GtTriangle(((1,),)):
            raise InvalidGogamInput("the only size-1 GOGAm trapezoid is [1]")
        return t, ()
    if not (is_valid_gt(t) and is_trapezoid(t, Family.GOGAM, 2) and is_gogam(t)):
        raise InvalidGogamInput("input is not a (n,2) GOGAm trapezoid")
    state = BijectionState.from_triangle(t)
    emitted: dict[int, tuple[int, int]] = {}
    trace: list[StepRecord] = []
    for k in range(n - 1, 0, -1):
        state, (b_k, a_k), rec = inverse_step(state)
        emitted[k] = (b_k, a_k)
        trace.append(rec)
    if state.u != (n,):
        raise InvalidGogamInput("peeling did not terminate at the pinned corner")
    if emitted[1][0] != n - 1:
        raise InvalidGogamInput("recovered second diagonal must start at n-1")
    for k in range(2, n):
        if emitted[k][0] > emitted[k - 1][0]:
            raise InvalidGogamInput("recovered second diagonal is not monotone")
        if emitted[k][1] > emitted[k - 1][1]:
            raise InvalidGogamInput("recovered rightmost diagonal is not monotone")
        if emitted[k][0] >= emitted[k - 1][1]:
            raise InvalidGogamInput("recovered diagonals violate row strictness")

    rows = [[j if i - j >= 2 else 0 for j in range(1, i + 1)] for i in range(1, n + 1)]
    for j in range(1, n + 1):
        rows[n - 1][j - 1] = j
    for k in range(1, n):
        rows[n - k - 1][n - k - 1] = emitted[k][1]  # cell (n-k, n-k)
        if k >= 2:
            rows[n - k][n - k - 1] = emitted[k][0]  # cell (n-k+1, n-k)
    gog = GtTriangle._trusted(tuple(tuple(r) for r in reversed(rows)))
    if not (is_gog(gog) and is_trapezoid(gog, Family.GOG, 2)):
        raise InvalidGogamInput("recovered triangle is not a (n,2) Gog trapezoid")
    return gog, tuple(trace)


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

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
by diagonal.  Both steps classify first and then apply the rule's
entry of one table, `_SHIFT`: the amount the rule lowers every kept
entry of the two diagonals by, which `forward_step` subtracts and
`inverse_step` adds back.  Only rule IIIb's new second-diagonal cell,
and rule IVb's run of constants with the pair it gives back, are
patched case by case.  Rule tags are recorded at every step; the tag
of the opening size-1 -> size-2 step is BASE (it is degenerate: only
the two simplest rules can match there).

Each step is a thin wrapper over a step on bare diagonals, found by
the state size k = len(u) through a resolver, `_forward_at` or
`_inverse_at`; the (n,2) walk in `enumeration` calls the same steps,
fetched once per tree node.  Up to `_UNROLL_MAX_N` a step is a
straight-line kernel of its size, `_forward_kernel` or
`_inverse_kernel`: the rule's tests, its `_SHIFT` written out as cells
x - 1 or x + 1, and the state test of the result's size.  On every
path a kernel does not clear (a pair out of range, a rejected state,
rule IVb either way, an inverse state that matches no rule) it returns
what the loop, `_forward` or `_inverse`, returns by calling it, so
every error keeps its type and text; past the cap the loop is the
step.  Every state a step returns passes `_state_ok`, one
straight-line test per state size; past the cap it is the GT test and
the bound-by-bound listing, asked for an empty list.  Only a state the test rejects is
listed, by `BijectionState.check_invariants`, for the error.  The walk
and `gog_to_gogam_n2` check each finished image with `_image_check`,
one function per size built from the lines of the GT test, the
diagonal and the involution.  Those generators are told which cells
the image pins to 1, every cell left of the two diagonals, and write
them as the literal, so what the pins fix is worked out once, when the
function is built: no pinned cell is a local, and the involution's
reflections of pinned cells, which leave them at 1 on GT rows, are
left out.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate
from operator import le
from typing import Callable, Sequence

from .schutzenberger import _diagonal, _diagonal_lines, _involution, _reflections, is_gogam
from .triangles import (
    Family, GtTriangle, Inversion, _Value, _gt_expression, _gt_test, _per_size, _straight_line,
    inversions, is_gog, is_trapezoid
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

    # members compare by identity, so the identity hash agrees with
    # equality; `Enum`'s own hash is a Python-level call per dict lookup
    __hash__ = object.__hash__


class StepRecord(_Value):
    """One algorithm step: the step index k, the rule fired, and, for
    rules IIIb/IVb, the run length l used by the inverse classifier."""

    __slots__ = ("k", "rule", "l")

    def __init__(self, k: int, rule: Rule, l: int | None = None) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "l", l)


Trace = tuple[StepRecord, ...]

# the two rules that patch more than the shift; a module-level tuple,
# since reading a member off the `Enum` class is slow
_SUBTLE = (Rule.IIIB, Rule.IVB)

# (du, dv): what each rule subtracts from every kept entry of the
# rightmost and second diagonals; `inverse_step` adds it back
_SHIFT = {
    Rule.I: (1, 1),
    Rule.II: (0, 1),
    Rule.IIIA: (1, 0),
    Rule.IIIB: (1, 1),
    Rule.IVA: (0, 0),
    Rule.IVB: (0, 0),
}


def _grown(
    rule: Rule, u: tuple[int, ...], v: tuple[int, ...], u_k: int, v_k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The diagonals (u, v) shifted by ``rule``, with u_k and v_k appended."""
    du, dv = _SHIFT[rule]
    # a zero shift reuses the entries: cheaper than a comprehension on Python 3.11
    new_u = [x - du for x in u] if du else u
    new_v = [x - dv for x in v] if dv else v
    return (*new_u, u_k), (*new_v, v_k)


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

    Every broken bound is listed, in this order; a Gelfand-Tsetlin
    state passes `_state_loop` exactly when the list is empty.  The pair
    (i, j) breaks the last family when d = u[0] - u[i] + v[i-1] exceeds
    v[j-1] + j - 2, so the pairs of i are read only when d exceeds the
    least of these over j > i: O(k) on a good state.
    """
    k = len(u)
    dips = [u[0] - u[i] + v[i - 1] for i in range(1, k)]  # d for i = 1 .. k-1
    bad = [f"top corner {u[0]} exceeds {n}"] if u[0] > n else []
    bad += [f"single-dip bound broken at depth {i}" for i, d in enumerate(dips, 1) if d > n - 1]
    least = [*accumulate([v[j - 1] + j - 2 for j in range(k - 1, 1, -1)], min)][::-1]
    for i, d in enumerate(dips[:-1], 1):
        if d > least[i - 1]:  # the least over j = i+1 .. k-1
            bad += [f"double-dip bound broken at depths ({i},{j})"
                    for j in range(i + 1, k) if d > v[j - 1] + j - 2]
    return bad


class BijectionState(_Value):
    """Partial triangle of size k = len(u) in compressed form.

    ``u[m]`` is the rightmost-diagonal entry m cells below the top,
    ``v[m-1]`` the second-diagonal entry at depth m; every other cell
    holds the constant n - k + 1.
    """

    __slots__ = ("n", "u", "v")

    def __init__(self, n: int, u: tuple[int, ...], v: tuple[int, ...]) -> None:
        u, v = tuple(u), tuple(v)
        if not all(type(x) is int for x in (n, *u, *v)):  # bool is an int subclass
            raise ValueError("size and diagonal entries must be integers")
        if n < 1 or not u:
            raise ValueError("a state needs n >= 1 and a nonempty rightmost diagonal")
        if len(v) != len(u) - 1:
            raise ValueError("second diagonal must be one entry shorter")
        object.__setattr__(self, "n", n)
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

    def materialize(self) -> GtTriangle:
        return GtTriangle._trusted(_state_rows(self.n, self.u, self.v))

    def check_invariants(self) -> list[str]:
        """Growth conditions plus the three inequality families of
        `_diagonal_bound_violations`.  One test, `_state_ok`, clears a
        good state; only a state it rejects is listed."""
        n, u, v = self.n, self.u, self.v
        if _state_ok(len(u))((n, u, v)):
            return []
        bad = []
        if not _is_gt_state(n, u, v):
            bad.append("materialized triangle is not Gelfand-Tsetlin")
        return bad + _diagonal_bound_violations(n, u, v)


def _state_rows(n: int, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The top-down rows of the state (n, u, v): row m is the constant
    n - k + 1 repeated, then v[m] and u[m]; the bottom row is u[k-1]."""
    k = len(u)
    c = n - k + 1
    return (*[(c,) * (k - m - 2) + (v[m], u[m]) for m in range(k - 1)], (u[-1],))


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


def _cells(name: str, k: int) -> list[str]:
    """The locals ``{name}0 .. {name}{k-1}`` a kernel unpacks a diagonal into."""
    return [f"{name}{m}" for m in range(k)]


def _tuple_of(cells: list[str]) -> str:
    """Source of the tuple of ``cells``, also usable as a target."""
    return f"({''.join(x + ', ' for x in cells)})"


def _unpacking(us: list[str], vs: list[str]) -> str:
    """The target that unpacks (u, v) into the cells ``us`` and ``vs``."""
    return f"{_tuple_of(us)}, {_tuple_of(vs)}"


def _shifted(cells: list[str], by: int) -> list[str]:
    """``cells`` plus ``by``, as expressions."""
    if not by:
        return cells
    return [f"{x} {'+' if by > 0 else '-'} {abs(by)}" for x in cells]


def _indented(lines: list[str], depth: int) -> list[str]:
    """``lines`` nested ``depth`` blocks deep."""
    return [" " * (4 * depth) + line for line in lines]


def _state_gt(us: list[str], vs: list[str]) -> str:
    """`_is_gt_state` on the state with cells ``us`` and ``vs``
    (expressions over n and a kernel's locals) as one chained
    comparison: u and v nonincreasing, v[m-1] <= u[m], the last u and
    the last v at least 1, and from k = 3 on the constant n - k + 1
    between 1 and the last v."""
    k = len(us)
    gt = [" <= ".join(["1", *reversed(us)])]
    if k >= 3:
        gt.append(" <= ".join(["1", f"n - {k - 1}", *reversed(vs)]))
    elif k == 2:
        gt.append(f"1 <= {vs[0]}")
    gt += [f"{vs[m - 1]} <= {us[m]}" for m in range(1, k)]
    return " and ".join(gt)


def _state_kernel(k: int) -> Callable[[tuple[int, tuple[int, ...], tuple[int, ...]]], bool]:
    """`_state_loop` for states with k = len(u), as straight-line code:
    first `_state_gt`, then `_diagonal_bound_violations` in O(k).  The
    double-dip bound holds for all i < j exactly when it holds for the
    largest u[0] + v[i-1] - u[i] with i < j, whose running max ``top``
    keeps."""
    us, vs = _cells("u", k), _cells("v", k - 1)
    body = [f"    if not ({_state_gt(us, vs)}): return False", "    if u0 > n: return False"]
    if k >= 2:
        body += ["    top = u0 + v0 - u1", "    if top >= n: return False"]
    for j in range(2, k):
        body += [
            f"    if top - v{j - 1} > {j - 2}: return False",
            f"    d = u0 + v{j - 1} - u{j}",
            "    if d >= n: return False",
        ]
        if j < k - 1:
            body.append("    if d > top: top = d")
    body.append("    return True")
    return _straight_line(k, f"n, {_unpacking(us, vs)}", body, "state test")


def _state_loop(state: tuple[int, tuple[int, ...], tuple[int, ...]]) -> bool:
    """Whether the state (n, u, v) is Gelfand-Tsetlin and breaks none of
    the three (n,2) bound families."""
    n, u, v = state
    return _is_gt_state(n, u, v) and not _diagonal_bound_violations(n, u, v)


# whether a state (n, u, v) with k = len(u) passes `check_invariants`
_state_ok = _per_size(_state_kernel, _state_loop)


_Diagonals = tuple[tuple[int, ...], tuple[int, ...]]  # a state's (u, v)


def _image_kernel(n: int) -> Callable[[_Diagonals], int]:
    """`_image_loop` for n = len(u), composed from the GT test's, the
    diagonal's and the involution's lines: (u, v) unpacked into their
    cells, each other cell 1, as `_state_rows` writes it at k = n, and
    folded into the lines as the literal.  The reflections run after
    the GT test passes, as their fold requires."""
    us = [f"x{m}_{n - m - 1}" for m in range(n)]
    vs = [f"x{m}_{n - m - 2}" for m in range(n - 1)]
    ones = frozenset(f"x{m}_{c}" for m in range(n - 2) for c in range(n - m - 2))
    gt = _gt_expression(n, ones)
    diagonal, values = _diagonal_lines(n, ones)
    staircase = " and ".join(f"{d} <= {k}" for k, d in enumerate(values, 1))
    magog = " and ".join(f"{x} <= {n - m}" for m, x in enumerate(us))
    body = [
        f"    if not ({gt}): return 1",
        *diagonal,
        f"    if not ({staircase}): return 1",
        *_reflections(n, ones=ones),
        f"    return 0 if {gt} and {magog} else 2",
    ]
    return _straight_line(n, _unpacking(us, vs), body, "image check")


def _image_loop(leaf: _Diagonals) -> int:
    """Which check a finished state (u, v), n = len(u), fails: 0 none, 1
    GOGAm (GT, image diagonal under 1..n), 2 Magog on the involution's
    image (GT, x[i,i] <= i)."""
    n = len(leaf[0])
    rows = _state_rows(n, *leaf)
    if not (_gt_test(n)(rows) and all(map(le, _diagonal(n)(rows), range(1, n + 1)))):
        return 1
    image = _involution(n)(rows)
    magog = all(map(le, [row[-1] for row in image], range(n, 0, -1)))
    return 0 if _gt_test(n)(image) and magog else 2


# the failure index of a finished state's image, n = len(u)
_image_check = _per_size(_image_kernel, _image_loop)


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


def _forward(
    n: int, u: tuple[int, ...], v: tuple[int, ...], b_k: int, a_k: int
) -> tuple[tuple[int, ...], tuple[int, ...], Rule, int | None]:
    """`forward_step` on bare diagonals: the grown (u, v), the rule that
    fired (I or II at k = 1, where the step's record says BASE) and the
    record's l.  Same checks and errors as the step.  The loop of
    `_forward_at`: past the cap the step itself, up to it what the
    kernel of the size calls on every path it does not clear."""
    k = len(u)
    c = n - k  # constant of the grown triangle
    u_k, v_k = a_k, b_k
    prev_u_last = u[-1]
    if not (c <= v_k <= u_k and v_k < prev_u_last and u_k <= prev_u_last and u_k <= n):
        raise BijectionStateError(
            f"appended pair (b,a) = ({b_k},{a_k}) out of range at step {k}"
        )

    l = grown = None  # IVb's run length; IIIa's trial, kept if IIIa is
    if v_k == c and u_k == c:
        rule = Rule.I
    elif v_k == c and u_k > c:
        rule = Rule.II
    elif v_k == u_k:  # c < v_k: IIIa unless its patch leaves the state not GT
        rule = Rule.IIIA
        grown = _grown(rule, u, v, u_k, v_k)
        if not _is_gt_state(n, *grown):  # IIIb: the constant as the new cell
            rule, grown = Rule.IIIB, _grown(Rule.IIIB, u, v, u_k, c)
    elif k == 1 or v_k <= v[-1]:  # c < v_k < u_k
        rule = Rule.IVA
    else:  # c < v_k < u_k and v_k > v[k-1]
        rule = Rule.IVB
        l = 1
        while l + 1 <= k - 1 and v[k - (l + 1) - 1] <= v_k - (l + 1):
            l += 1
    new_u, new_v = grown or _grown(rule, u, v, u_k, v_k)
    if l is not None:  # IVb: the cell above the run, then the run
        new_v = new_v[: k - l - 1] + (v_k - l,) + (c,) * l

    if not _state_ok(k + 1)((n, new_u, new_v)):
        problems = BijectionState._trusted(n, new_u, new_v).check_invariants()
        raise BijectionStateError(
            f"rule {rule.value} at step {k} broke invariants: {problems}"
        )

    l_rec = _trailing_run_length(c, new_v) if rule in _SUBTLE else None
    if rule is Rule.IVB and l_rec != l:
        raise BijectionStateError("run length disagrees with its inverse reading")
    return new_u, new_v, rule, l_rec


# the rules by name, for the step kernels to return
_RULES = {rule.name: rule for rule in Rule}


def _forward_kernel(k: int) -> Callable[..., tuple]:
    """`_forward` for states with k = len(u), as straight-line code.

    The pair's range and the rule's tests are the loop's, IIIa's trial
    through `_state_gt`.  Each rule's `_SHIFT` is written out as cells
    ``x - 1``, and the grown state is cleared by the state test of its
    size, bound by name.  Rule IVb, a pair out of range and a rejected
    state return what `_forward` returns on the same input, errors
    included, by calling it.
    """
    us, vs = _cells("u", k), _cells("v", k - 1)
    fail = "return _forward(n, u, v, b_k, a_k)"

    def grown(rule: Rule, last_v: str = "b_k") -> tuple[list[str], list[str]]:
        du, dv = _SHIFT[rule]
        return [*_shifted(us, -du), "a_k"], [*_shifted(vs, -dv), last_v]

    def kept(rule: Rule, last_v: str = "b_k") -> list[str]:
        """The lines that build, clear and return ``rule``'s grown state."""
        new_u, new_v = grown(rule, last_v)
        l = "_trailing_run_length(c, new_v)" if rule is Rule.IIIB else "None"
        return [
            f"new_u = {_tuple_of(new_u)}; new_v = {_tuple_of(new_v)}",
            f"if not state_ok((n, new_u, new_v)): {fail}",
            f"return new_u, new_v, {rule.name}, {l}",
        ]

    body = [
        f"    c = n - {k}",
        f"    if not (c <= b_k <= a_k <= u{k - 1} and b_k < u{k - 1} and a_k <= n): {fail}",
        "    if b_k == c:",
        "        if a_k == c:",
        *_indented(kept(Rule.I), 3),
        *_indented(kept(Rule.II), 2),
        "    if b_k == a_k:",
        f"        if {_state_gt(*grown(Rule.IIIA))}:",
        *_indented(kept(Rule.IIIA), 3),
        *_indented(kept(Rule.IIIB, "c"), 2),
    ]
    if k == 1:
        body += _indented(kept(Rule.IVA), 1)
    else:  # IVb when b exceeds the last v
        body += [f"    if b_k <= v{k - 2}:", *_indented(kept(Rule.IVA), 2), f"    {fail}"]
    return _straight_line(
        k, _unpacking(us, vs), body, "forward step", params="n, u, v, b_k, a_k",
        unpacked="u, v", _forward=_forward, _trailing_run_length=_trailing_run_length,
        state_ok=_state_ok(k + 1), **_RULES,
    )


# `_forward` on states with k = len(u)
_forward_at = _per_size(_forward_kernel, _forward)


def forward_step(
    state: BijectionState, b_k: int, a_k: int
) -> tuple[BijectionState, StepRecord]:
    """Append the next diagonal (constant, ..., constant, b_k, a_k).

    Exactly one of the six rules matches; its patch is applied and the
    grown state is returned together with the step record.  The bottom
    entry is never modified, so it always equals a_k afterwards.
    """
    n, k = state.n, state.k
    new_u, new_v, rule, l = _forward_at(k)(n, state.u, state.v, b_k, a_k)
    tag = Rule.BASE if k == 1 else rule
    return BijectionState._trusted(n, new_u, new_v), StepRecord(k, tag, l)


def _trailing_run_length(c: int, v: tuple[int, ...]) -> int:
    """1 + length of the run of second-diagonal entries equal to the
    constant c, counted upward from just above the bottom of v; the
    quantity the inverse classifier calls l."""
    k = len(v)
    l = 1
    while l <= k - 1 and v[k - l - 1] == c:
        l += 1
    return l


def gog_to_gogam_n2(t: GtTriangle) -> tuple[GtTriangle, Trace]:
    """Map a (n,2) Gog trapezoid to its (n,2) GOGAm partner.

    Returns the image triangle and the full rule trace (n-1 records).
    The image passes `_image_check`, as each leaf of the walk must,
    before it is returned; its bottom entry is a_{n-1}, which no rule
    modifies.
    """
    state = BijectionState(t.n, (t.n,), ())
    trace: list[StepRecord] = []
    for b_k, a_k in extract_diagonals(t):
        state, rec = forward_step(state, b_k, a_k)
        trace.append(rec)
    if _image_check(t.n)((state.u, state.v)):
        raise BijectionStateError("forward image failed the GOGAm test")
    return state.materialize(), tuple(trace)


def _inverse(
    n: int, u: tuple[int, ...], v: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, int], Rule, int | None]:
    """`inverse_step` on bare diagonals: the shrunk (u, v), the recovered
    pair, the rule undone (I or II at k = 1, where the step's record
    says BASE) and the record's l.  Same checks and errors as the step.
    The loop of `_inverse_at`: past the cap the step itself, up to it
    what the kernel of the size calls on every path it does not clear."""
    size = len(u)
    if size < 2:
        raise InvalidGogamInput("nothing to strip from a size-1 state")
    k = size - 1
    c = n - k  # constant of this state
    u_k, v_k = u[k], v[k - 1]
    l = None
    emit = (v_k, u_k)

    if v_k == c and u_k == c:
        rule = Rule.I
    elif v_k > c and v_k == u_k:
        rule = Rule.IIIA
    elif v_k > c and v_k < u_k:
        rule = Rule.IVA
    elif v_k == c and v_k < u_k:
        if all(v[i - 1] < u[i] for i in range(1, k)):
            rule = Rule.II
        else:
            l = _trailing_run_length(c, v)
            if k - l < 1:
                raise InvalidGogamInput("equality pair with an all-constant diagonal")
            if v[k - l - 1] + l < u_k:
                rule, emit = Rule.IVB, (v[k - l - 1] + l, u_k)
            else:
                rule, emit = Rule.IIIB, (u_k, u_k)
    else:
        raise InvalidGogamInput(
            f"stripped diagonal pair ({v_k},{u_k}) matches no rule at step {k}"
        )
    du, dv = _SHIFT[rule]
    old_u = tuple([x + du for x in u[:k]]) if du else u[:k]
    old_v = tuple([x + dv for x in v[: k - 1]]) if dv else v[: k - 1]
    if rule is Rule.IVB:  # the run of constants it rewrote
        old_v = old_v[: k - l - 1] + (n - k + 1,) * l

    if not _state_ok(k)((n, old_u, old_v)):
        problems = BijectionState._trusted(n, old_u, old_v).check_invariants()
        raise InvalidGogamInput(f"undoing rule {rule.value} broke invariants: {problems}")
    b_k, a_k = emit
    if not (n - k <= b_k <= a_k <= n and b_k < old_u[-1] and a_k <= old_u[-1]):
        raise InvalidGogamInput(f"recovered pair ({b_k},{a_k}) is out of range")
    return old_u, old_v, emit, rule, l  # l is set only for IIIb and IVb


def _inverse_kernel(size: int) -> Callable[..., tuple]:
    """`_inverse` for states with size = len(u), as straight-line code.

    The rule's tests are the loop's.  Each rule's `_SHIFT` is written
    out as cells ``x + 1``, the shrunk state is cleared by the state
    test of its size, bound by name, and the pair by its range.  When
    II's test fails on an equality pair, IIIb is told as the loop tells
    it, by l = `_trailing_run_length` and v[k-1-l] + l >= u_k, and
    undone with the pair (u_k, u_k) and that l.  IVb, a state that
    matches no rule, a rejected state or pair and size 1 return what
    `_inverse` returns on the same input, errors included, by calling
    it.
    """
    us, vs = _cells("u", size), _cells("v", size - 1)
    fail = "return _inverse(n, u, v)"
    k = size - 1
    names = dict(params="n, u, v", unpacked="u, v", _inverse=_inverse, **_RULES)
    if not k:  # nothing to strip
        return _straight_line(size, _unpacking(us, vs), [f"    {fail}"], "inverse step", **names)
    u_k, v_k = us[k], vs[k - 1]

    def undone(rule: Rule, b_k: str = v_k, l: str = "None") -> list[str]:
        """The lines that undo ``rule``, clear and return the shrunk state."""
        du, dv = _SHIFT[rule]
        old_u, old_v = _shifted(us[:k], du), _shifted(vs[: k - 1], dv)
        last = old_u[-1]
        return [
            f"old_u = {_tuple_of(old_u)}; old_v = {_tuple_of(old_v)}",
            f"if not state_ok((n, old_u, old_v)): {fail}",
            f"if not (c <= {b_k} <= {u_k} <= n and {b_k} < {last} and {u_k} <= {last}): {fail}",
            f"return old_u, old_v, ({b_k}, {u_k}), {rule.name}, {l}",
        ]

    ii = " and ".join(f"v{i - 1} < u{i}" for i in range(1, k)) or "True"
    body = [
        f"    c = n - {k}",
        f"    if {v_k} == c:",
        f"        if {u_k} == c:",
        *_indented(undone(Rule.I), 3),
        f"        if {v_k} < {u_k}:",
        f"            if {ii}:",
        *_indented(undone(Rule.II), 4),
        "            l = _trailing_run_length(c, v)",
        f"            if l < {k} and v[{k - 1} - l] + l >= {u_k}:",
        *_indented(undone(Rule.IIIB, u_k, "l"), 4),
        f"        {fail}",
        f"    if {v_k} > c:",
        f"        if {v_k} == {u_k}:",
        *_indented(undone(Rule.IIIA), 3),
        f"        if {v_k} < {u_k}:",
        *_indented(undone(Rule.IVA), 3),
        f"    {fail}",
    ]
    return _straight_line(
        size, _unpacking(us, vs), body, "inverse step", state_ok=_state_ok(k),
        _trailing_run_length=_trailing_run_length, **names,
    )


# `_inverse` on states with size = len(u)
_inverse_at = _per_size(_inverse_kernel, _inverse)


def inverse_step(
    state: BijectionState,
) -> tuple[BijectionState, tuple[int, int], StepRecord]:
    """Strip the leftmost diagonal after undoing the rule that built it.

    The rule is read off the state alone: the bottom two entries of the
    stripped diagonal split the cases, and the tie between the subtle
    rules is broken by comparing v[k-l] + l against the bottom entry.
    Raises `InvalidGogamInput` when no rule can have produced the state.
    """
    n, u = state.n, state.u
    old_u, old_v, pair, rule, l = _inverse_at(len(u))(n, u, state.v)
    k = len(old_u)
    tag = Rule.BASE if k == 1 else rule
    return BijectionState._trusted(n, old_u, old_v), pair, StepRecord(k, tag, l)


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

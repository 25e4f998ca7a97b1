"""Mixed-binary layer over the convex solver: enumeration and branch & bound.

Both strategies share one acceptance rule and one incumbent (_Incumbent):
an assignment counts only when its solve with every binary fixed ends
'optimal', as solve_convex certified it, and objective ties between accepted
assignments (within _TIE_TOL) resolve to the lexicographically smallest
binary vector. With none accepted, the result is 'tolerance_not_met' when a
leaf certified nothing, else 'infeasible'. Only an 'optimal' solve bounds a
subtree or seeds a warm start.

Enumeration solves every assignment and is the brute-force reference. It
visits them in reflected Gray-code order (the first binary most
significant), so each node differs from the one before in one binary, and
starts each solve from the last 'optimal' solve of the call. When the
winning assignment was solved warm, it is solved once more cold and that
solve is returned, the bytes a cold solve of the winner gives.

Branch & bound runs best-first on the dual lower bounds of the optimal
relaxations, branching on the most fractional binary (ties to the lowest
index), and prunes only bounds above the incumbent by more than _TIE_TOL,
so a subtree that can tie is still searched. A node whose solve certifies
nothing (unbounded or 'tolerance_not_met') has no bound of its own: its
children inherit the bound it was popped with, and it branches on its first
free binary; such a leaf is skipped, as enumeration skips it, except that
an unbounded leaf makes the result 'unbounded'. An integral relaxation is
offered as its leaf; when that solve fails, the node is branched on.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time

import numpy as np

from .conic import ConicProgram, MixedBinaryProgram, Solution, SolveStats
from .errors import TooManyBinaries
from .ipm import solve_convex

_INT_TOL = 1e-6
_TIE_TOL = 1e-9
_ENUMERATE_CAP = 4096  # most assignments enumeration solves


def _full_x(base_n: int, keep: np.ndarray, x_reduced: np.ndarray, fixed: dict[int, float]):
    x = np.empty(base_n)
    x[keep] = x_reduced
    for k, v in fixed.items():
        x[k] = v
    return x


def _solve_fixed(base: ConicProgram, fixed: dict[int, float], tol: float, warm_start=None):
    """Solve a node subproblem with the variables in fixed held at their values.

    The solve starts from warm_start, an earlier optimal Solution of a node
    of the same sizes, when one is given. Returns (sol, keep, offset): the
    reduced solve, the kept variables' indices and the objective constant of
    the fixed ones; sol.status is solve_convex's own.
    """
    reduced, keep, offset = base.fix_variables(fixed)
    return solve_convex(reduced, tol=tol, warm_start=warm_start), keep, offset


class _Incumbent:
    """The best accepted assignment of one solve_mixed_binary call."""

    def __init__(self, prog: MixedBinaryProgram):
        self.base = prog.base
        self.bidx = prog.binary_indices
        self.objective = math.inf
        self.assign: tuple[float, ...] | None = None
        self.sol: Solution | None = None
        self.uncertified = False  # some leaf solve ended 'tolerance_not_met'

    def leaf(self, assign: tuple[float, ...], sol: Solution, keep: np.ndarray, **fields) -> Solution:
        """A copy of sol, solved with the binaries fixed to assign, over every variable."""
        x = _full_x(self.base.n, keep, sol.x, dict(zip(self.bidx, assign)))
        return dataclasses.replace(sol, x=x, binary_values=assign, **fields)

    def offer(self, assign: tuple[float, ...], sol: Solution, keep: np.ndarray, offset: float) -> bool:
        """Take the fixed solve of assign if it is better or ties and is
        lexicographically smaller; False when the solve is not 'optimal'."""
        if sol.status != "optimal":
            self.uncertified |= sol.status == "tolerance_not_met"
            return False
        obj = sol.objective + offset
        better = obj < self.objective - _TIE_TOL
        if better or (abs(obj - self.objective) <= _TIE_TOL and assign < self.assign):
            self.objective = obj if better else min(self.objective, obj)
            self.assign = assign
            self.sol = self.leaf(assign, sol, keep)
        return True

    def result(self, node_count: int, stats: SolveStats, unbounded: bool = False) -> Solution:
        """The incumbent, or with none an empty result: 'unbounded' when a
        node was, else 'tolerance_not_met' when a leaf certified nothing,
        else 'infeasible'."""
        if self.sol is None:
            status = "tolerance_not_met" if self.uncertified else "infeasible"
            return Solution(
                x=np.zeros(self.base.n),
                objective=-math.inf if unbounded else math.nan,
                status="unbounded" if unbounded else status,
                kkt_residuals=(math.inf, math.inf, math.inf),
                solve_time=0.0,
                node_count=node_count,
                stats=stats,
            )
        return dataclasses.replace(
            self.sol, objective=self.objective, node_count=node_count, stats=stats
        )


def solve_mixed_binary(
    prog: MixedBinaryProgram,
    strategy: str = "auto",
    tol: float = 1e-9,
    incumbent_hint=None,
    warm_starts: dict | None = None,
) -> Solution:
    """Globally optimize over binary assignments of the convex base program.

    strategy 'auto' enumerates up to _ENUMERATE_CAP (4096) assignments and runs
    branch & bound above it. `incumbent_hint` (a binary assignment) seeds branch &
    bound with an initial incumbent; it never changes the returned optimum.
    `warm_starts`, a dict the caller keeps across calls on programs of one
    shape, lets branch & bound start each node from the last optimal solve
    with the same fixed (index, value) pairs. Enumeration ignores it: it
    warm-starts each assignment from its Gray-code neighbour within the call
    and returns a cold solve of the winner, so its result depends on no
    earlier call. node_count counts the convex solves run (at most 2^k + 1
    for enumeration, 1 with no binaries), and the result's stats sum their
    work.
    """
    t0 = time.perf_counter()
    if strategy == "auto":
        strategy = "enumerate" if 2**prog.n_binaries <= _ENUMERATE_CAP else "branch_and_bound"
    if strategy == "enumerate":
        out = _enumerate(prog, tol)
    elif strategy == "branch_and_bound":
        out = _branch_and_bound(prog, tol, incumbent_hint, warm_starts)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    out.solve_time = time.perf_counter() - t0
    return out


def _enumerate(prog: MixedBinaryProgram, tol: float) -> Solution:
    bidx = prog.binary_indices
    k = len(bidx)
    if 2**k > _ENUMERATE_CAP:
        raise TooManyBinaries(f"{k} binaries give {2**k} combinations, cap is {_ENUMERATE_CAP}")
    best = _Incumbent(prog)
    work = SolveStats()
    warm = None  # the last 'optimal' solve of this call
    cold = set()  # assignments solved without a warm start
    for count in range(1, 2**k + 1):
        code = (count - 1) ^ ((count - 1) >> 1)  # reflected Gray code
        assign = tuple(float(code >> (k - 1 - j) & 1) for j in range(k))
        if warm is None:
            cold.add(assign)
        sol, keep, offset = _solve_fixed(prog.base, dict(zip(bidx, assign)), tol, warm)
        work = work + sol.stats
        if sol.status == "unbounded":
            return best.leaf(assign, sol, keep, node_count=count, stats=work)
        best.offer(assign, sol, keep, offset)
        if sol.status == "optimal":
            warm = sol
    if best.assign is not None and best.assign not in cold:
        # return the winner's cold solve, the bytes B&B and a cold caller get
        sol, keep, offset = _solve_fixed(prog.base, dict(zip(bidx, best.assign)), tol)
        count += 1
        work = work + sol.stats
        if sol.status == "optimal":
            best.objective, best.sol = sol.objective + offset, best.leaf(best.assign, sol, keep)
    return best.result(count, work)


def _branch_and_bound(prog: MixedBinaryProgram, tol: float, incumbent_hint, warm_starts) -> Solution:
    base = prog.base
    bidx = list(prog.binary_indices)
    best = _Incumbent(prog)
    # (Solution, keep, offset) per fixed assignment solved in this call: the
    # hint and a fully fixed leaf are solved again as incumbents otherwise
    solved: dict[tuple, tuple[Solution, np.ndarray, float]] = {}

    def solve_node(fixed: dict[int, float]):
        key = tuple(sorted(fixed.items()))
        if key not in solved:
            warm = None if warm_starts is None else warm_starts.get(key)
            sol, keep, offset = _solve_fixed(base, fixed, tol, warm)
            if sol.status == "optimal" and warm_starts is not None:
                warm_starts[key] = sol
            solved[key] = sol, keep, offset
        return solved[key]

    def work() -> SolveStats:
        return sum((sol.stats for sol, _, _ in solved.values()), SolveStats())

    def offer(assign: tuple[float, ...]) -> bool:
        return best.offer(assign, *solve_node(dict(zip(bidx, assign))))

    if incumbent_hint is not None:
        hint = tuple(float(round(v)) for v in incumbent_hint)
        if len(hint) != len(bidx):
            raise ValueError("incumbent hint length must match binary count")
        offer(hint)

    counter = itertools.count()
    heap = [(-math.inf, next(counter), {})]
    saw_unbounded = False
    while heap:
        bound, _, fixed = heapq.heappop(heap)
        if bound > best.objective + _TIE_TOL:
            break
        sol, keep, offset = solve_node(fixed)
        if sol.status == "infeasible":
            continue
        free = [i for i in range(len(bidx)) if bidx[i] not in fixed]
        if sol.status == "optimal":
            bound = max(bound, sol.dual_objective + offset)
            if bound > best.objective + _TIE_TOL:
                continue
            vals = _full_x(base.n, keep, sol.x, fixed)[bidx]
            frac = np.abs(vals - np.round(vals))
            frac[frac <= _INT_TOL] = 0.0
            # an integral relaxation is the subtree optimum: take its leaf's
            # solve, the one enumeration makes, or branch on the first free
            # binary when that fails
            if not frac[free].any() and offer(tuple(float(round(v)) for v in vals)):
                continue
            branch = max(free, key=lambda i: (frac[i], -i))
        else:  # certifies nothing: no bound, no fractions
            if not free:
                assign = tuple(fixed[i] for i in bidx)
                if sol.status == "unbounded":
                    return best.leaf(assign, sol, keep, node_count=len(solved), stats=work())
                offer(assign)  # never accepted, only counted as uncertified
                continue
            saw_unbounded |= sol.status == "unbounded"
            branch = free[0]
        for value in (0.0, 1.0):
            heapq.heappush(heap, (bound, next(counter), {**fixed, bidx[branch]: value}))
    return best.result(len(solved), work(), unbounded=saw_unbounded)

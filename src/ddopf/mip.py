"""Mixed-binary layer over the convex solver: enumeration and branch & bound.

Enumeration solves one convex program per binary assignment and is the
brute-force reference. Branch & bound runs best-first on certified dual
lower bounds of the relaxations, branching on the most fractional binary
(ties to the lowest index). Both are deterministic; objective ties between
assignments resolve to the lexicographically smallest binary vector.
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
_PRUNE_EPS = 1e-8  # a node is pruned when its bound reaches the incumbent less this
_ENUMERATE_CAP = 4096  # most assignments enumeration solves


def _full_x(base_n: int, keep: np.ndarray, x_reduced: np.ndarray, fixed: dict[int, float]):
    x = np.empty(base_n)
    x[keep] = x_reduced
    for k, v in fixed.items():
        x[k] = v
    return x


def _solve_fixed(base: ConicProgram, fixed: dict[int, float], tol: float, warm_starts=None):
    """Solve a node subproblem; near-floor iterates count as solved.

    Degenerate subproblems can stall a shade above the requested tolerance;
    such iterates stay usable (their residuals are reported verbatim), so a
    node is accepted when its residuals reach max(100 * tol, 1e-7).

    warm_starts, when given, maps the sorted fixed indices to the last
    optimal solve of that node shape: the solve starts from it, and an
    optimal result replaces it. The result is stored before a near-floor
    iterate is relabelled 'optimal', so such an iterate never seeds a warm
    start.
    """
    reduced, keep, offset = base.fix_variables(fixed)
    if warm_starts is None:
        sol = solve_convex(reduced, tol=tol)
    else:
        shape = tuple(sorted(fixed))
        sol = solve_convex(reduced, tol=tol, warm_start=warm_starts.get(shape))
        if sol.status == "optimal":
            warm_starts[shape] = sol
    if sol.status == "tolerance_not_met" and max(sol.kkt_residuals) <= max(100.0 * tol, 1e-7):
        sol.status = "optimal"
    return sol, keep, offset


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
    with the same fixed indices (_solve_fixed); enumeration ignores it. The
    result's stats sum the work of every convex solve of the call.
    """
    t0 = time.perf_counter()
    bidx = prog.binary_indices
    if not bidx:
        sol = solve_convex(prog.base, tol=tol)
        sol.binary_values = ()
        return sol
    if strategy == "auto":
        strategy = "enumerate" if 2 ** len(bidx) <= _ENUMERATE_CAP else "branch_and_bound"
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
    if 2 ** len(bidx) > _ENUMERATE_CAP:
        raise TooManyBinaries(
            f"{len(bidx)} binaries give {2 ** len(bidx)} combinations, cap is {_ENUMERATE_CAP}"
        )
    base = prog.base
    best: Solution | None = None
    best_obj = math.inf
    best_assign: tuple[float, ...] | None = None
    count = 0
    work = SolveStats()
    residuals = (math.inf, math.inf, math.inf)
    for assign in itertools.product((0.0, 1.0), repeat=len(bidx)):
        count += 1
        fixed = dict(zip(bidx, assign))
        sol, keep, offset = _solve_fixed(base, fixed, tol)
        work = work + sol.stats
        if sol.status == "unbounded":
            sol.x = _full_x(base.n, keep, sol.x, fixed)
            sol.binary_values = assign
            sol.node_count = count
            sol.stats = work
            return sol
        if sol.status != "optimal":
            continue
        obj = sol.objective + offset
        better = obj < best_obj - _TIE_TOL
        tie = abs(obj - best_obj) <= _TIE_TOL and best_assign is not None and assign < best_assign
        if better or tie:
            best_obj = obj if better else min(best_obj, obj)
            best_assign = assign
            best = sol
            best.x = _full_x(base.n, keep, sol.x, fixed)
            residuals = sol.kkt_residuals
    if best is None:
        return Solution(
            x=np.zeros(base.n),
            objective=math.nan,
            status="infeasible",
            kkt_residuals=residuals,
            solve_time=0.0,
            node_count=count,
            stats=work,
        )
    best.objective = best_obj
    best.binary_values = best_assign
    best.node_count = count
    best.stats = work
    return best


def _branch_and_bound(prog: MixedBinaryProgram, tol: float, incumbent_hint, warm_starts) -> Solution:
    base = prog.base
    bidx = list(prog.binary_indices)

    incumbent: Solution | None = None
    incumbent_obj = math.inf
    incumbent_assign: tuple[float, ...] | None = None
    nodes_solved = 0
    # (Solution, keep, offset) per fixed assignment solved in this call: the
    # hint and a fully fixed leaf are solved again as incumbents otherwise
    solved: dict[tuple, tuple[Solution, np.ndarray, float]] = {}

    def solve_node(fixed: dict[int, float]):
        """_solve_fixed, once per assignment; callers get a copy to modify."""
        nonlocal nodes_solved
        key = tuple(sorted(fixed.items()))
        if key not in solved:
            solved[key] = _solve_fixed(base, fixed, tol, warm_starts)
            nodes_solved += 1
        sol, keep, offset = solved[key]
        return dataclasses.replace(sol), keep, offset

    def work() -> SolveStats:
        return sum((sol.stats for sol, _, _ in solved.values()), SolveStats())

    def try_incumbent(assign: tuple[float, ...]) -> bool:
        nonlocal incumbent, incumbent_obj, incumbent_assign
        fixed = dict(zip(bidx, assign))
        sol, keep, offset = solve_node(fixed)
        if sol.status != "optimal":
            return False
        obj = sol.objective + offset
        better = obj < incumbent_obj - _TIE_TOL
        tie = (
            abs(obj - incumbent_obj) <= _TIE_TOL
            and incumbent_assign is not None
            and assign < incumbent_assign
        )
        if better or tie:
            sol.x = _full_x(base.n, keep, sol.x, fixed)
            sol.binary_values = assign
            incumbent, incumbent_obj, incumbent_assign = sol, min(obj, incumbent_obj), assign
        return True

    if incumbent_hint is not None:
        hint = tuple(float(round(v)) for v in incumbent_hint)
        if len(hint) != len(bidx):
            raise ValueError("incumbent hint length must match binary count")
        try_incumbent(hint)

    counter = itertools.count()
    heap: list = []

    def push(bound: float, fixed: dict[int, float]):
        heapq.heappush(heap, (bound, next(counter), fixed))

    push(-math.inf, {})
    saw_unbounded_root = False

    while heap:
        bound, _, fixed = heapq.heappop(heap)
        if bound >= incumbent_obj - _PRUNE_EPS:
            break
        sol, keep, offset = solve_node(fixed)
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            if len(fixed) == len(bidx):
                sol.x = _full_x(base.n, keep, sol.x, fixed)
                sol.binary_values = tuple(fixed[i] for i in bidx)
                sol.node_count = nodes_solved
                sol.stats = work()
                return sol
            saw_unbounded_root = True
            # relaxation ray may not survive integrality; dive on both children
            node_bound = -math.inf
            relax_vals = None
        else:
            dual = sol.dual_objective if sol.dual_objective is not None else sol.objective
            node_bound = max(bound, dual + offset)
            if node_bound >= incumbent_obj - _PRUNE_EPS:
                continue
            full = _full_x(base.n, keep, sol.x, fixed)
            relax_vals = np.array([full[i] for i in bidx])

        if relax_vals is not None:
            frac = np.abs(relax_vals - np.round(relax_vals))
            free = [i for i in range(len(bidx)) if bidx[i] not in fixed]
            if not free or np.all(frac[free] <= _INT_TOL):
                # integral relaxation: this assignment is the subtree optimum;
                # solve it with the binaries eliminated (or reuse that solve)
                # so the incumbent value is the same deterministic solve
                # enumeration would report
                assign = tuple(float(round(relax_vals[i])) for i in range(len(bidx)))
                if not try_incumbent(assign):
                    # fixed re-solve failed numerically; keep the relaxation point
                    obj = sol.objective + offset
                    if obj < incumbent_obj - _TIE_TOL:
                        full[bidx] = assign
                        sol.x = full
                        sol.binary_values = assign
                        incumbent, incumbent_obj, incumbent_assign = sol, obj, assign
                continue
            branch_local = max(free, key=lambda i: (frac[i], -i))
        else:
            free = [i for i in range(len(bidx)) if bidx[i] not in fixed]
            if not free:
                continue
            branch_local = free[0]

        var = bidx[branch_local]
        for value in (0.0, 1.0):
            child = dict(fixed)
            child[var] = value
            push(node_bound, child)

    if incumbent is None:
        status = "unbounded" if saw_unbounded_root else "infeasible"
        return Solution(
            x=np.zeros(base.n),
            objective=-math.inf if status == "unbounded" else math.nan,
            status=status,
            kkt_residuals=(math.inf, math.inf, math.inf),
            solve_time=0.0,
            node_count=nodes_solved,
            stats=work(),
        )
    incumbent.objective = incumbent_obj
    incumbent.node_count = nodes_solved
    incumbent.stats = work()
    return incumbent

"""Conic program containers for the embedded solver.

A ConicProgram is a linear objective over n variables with linear
equalities, linear inequalities, box bounds, and two-dimensional unit-ball
constraints x_i^2 + x_j^2 <= 1 on disjoint index pairs. There is no
modeling sugar here: absolute values and max(0, .) terms must be
pre-linearized by the caller.

Programs that differ only in c, the right-hand sides and the bounds share
one Structure, which holds what depends on A_eq, A_in and the balls alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp


def _as_csr(mat, n_cols: int) -> sp.csr_matrix:
    """mat as a float CSR matrix; a float CSR matrix is used as given, not copied."""
    if mat is None:
        return sp.csr_matrix((0, n_cols))
    if sp.issparse(mat):
        out = mat.tocsr().astype(float, copy=False)
    else:
        out = sp.csr_matrix(np.atleast_2d(np.asarray(mat, dtype=float)))
    if out.shape[1] != n_cols:
        raise ValueError(f"matrix has {out.shape[1]} columns, expected {n_cols}")
    return out


class Structure:
    """The constraint structure of a program: its A_eq, A_in and balls, and
    the work that depends on them alone.

    Every ConicProgram holds a structure that owns it (owns: the same A_eq,
    A_in and balls objects). The programs dataclasses.replace derives from
    one share its structure for as long as they keep those three objects;
    any other program gets a structure of its own. fix_variables keeps its
    reductions here, a (keep, Structure) pair per fixed index set, which
    depends on that set alone since no ball member may be fixed, and the
    solver its plan (ipm writes `solver`). Its matrices are immutable:
    nothing may write into or reassign the A_eq, A_in or balls of a
    program. It lives as long as its programs, so its memory goes with
    their owner (an MPC template, a model or a grid).
    """

    __slots__ = ("A_eq", "A_in", "balls", "ball_members", "reductions", "solver")

    def __init__(self, A_eq: sp.csr_matrix, A_in: sp.csr_matrix, balls: tuple):
        self.A_eq, self.A_in, self.balls = A_eq, A_in, balls
        self.ball_members = frozenset(k for pair in balls for k in pair)
        self.reductions: dict[frozenset, tuple[np.ndarray, Structure]] = {}
        self.solver = None

    def owns(self, prog: "ConicProgram") -> bool:
        return prog.A_eq is self.A_eq and prog.A_in is self.A_in and prog.balls is self.balls


@dataclass
class ConicProgram:
    """min c'x  s.t.  A_eq x = b_eq,  A_in x <= b_in,  lb <= x <= ub, balls.

    structure is the program's Structure (see there): the one it is given
    when that owns the program, else a new one.
    """

    c: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_in: sp.csr_matrix
    b_in: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    balls: tuple[tuple[int, int], ...] = ()
    structure: Structure = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.structure is None or not self.structure.owns(self):
            self.structure = Structure(self.A_eq, self.A_in, self.balls)

    @classmethod
    def build(
        cls,
        c,
        A_eq=None,
        b_eq=None,
        A_in=None,
        b_in=None,
        lb=None,
        ub=None,
        balls: Iterable[Sequence[int]] = (),
    ) -> "ConicProgram":
        c = np.asarray(c, dtype=float).ravel()
        n = c.size
        prog = cls(
            c=c,
            A_eq=_as_csr(A_eq, n),
            b_eq=np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel(),
            A_in=_as_csr(A_in, n),
            b_in=np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float).ravel(),
            lb=np.full(n, -np.inf) if lb is None else np.asarray(lb, dtype=float).ravel(),
            ub=np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float).ravel(),
            balls=tuple((int(i), int(j)) for i, j in balls),
        )
        prog.validate()
        return prog

    @property
    def n(self) -> int:
        return self.c.size

    def validate(self) -> None:
        """Check shapes, ball pairs and values: NaN nowhere, and +-inf only
        in lb and ub, where it means no bound."""
        n = self.n
        for name in ("A_eq", "A_in"):
            if (cols := getattr(self, name).shape[1]) != n:
                raise ValueError(f"{name} has {cols} columns, n is {n}")
        if self.A_eq.shape[0] != self.b_eq.size:
            raise ValueError("A_eq rows != b_eq length")
        if self.A_in.shape[0] != self.b_in.size:
            raise ValueError("A_in rows != b_in length")
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound vectors must have length n")
        for name in ("c", "b_eq", "b_in", "A_eq", "A_in"):
            value = getattr(self, name)
            if not np.isfinite(value.data if sp.issparse(value) else value).all():
                raise ValueError(f"{name} must be finite")
        # standard_form reads any other value as no bound
        if not ((self.lb < np.inf).all() and (self.ub > -np.inf).all()):
            raise ValueError("lb must be below +inf and ub above -inf, neither NaN")
        seen: set[int] = set()
        for i, j in self.balls:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad ball index pair ({i}, {j})")
            if i in seen or j in seen:
                raise ValueError(f"ball index pairs must be disjoint; ({i}, {j}) reuses a variable")
            seen.update((i, j))

    def fix_variables(self, fixed: Mapping[int, float]):
        """Substitute fixed variables; returns (reduced, keep_indices, cost_offset).

        The reduced matrices depend on the fixed index set alone: they are
        computed once per index set and kept on the structure, and the
        reductions of one set share them and a structure of their own. An
        index outside [0, n) or a ball member raises ValueError.
        """
        fixed = {int(k): float(v) for k, v in fixed.items()}
        n = self.n
        structure = self.structure
        for k in fixed:
            if not 0 <= k < n:
                raise ValueError(f"fixed index {k} outside [0, {n})")
            if k in structure.ball_members:
                raise ValueError(f"fixed index {k} is a ball member")
        vals = np.zeros(n)
        for k, v in fixed.items():
            vals[k] = v
        key = frozenset(fixed)
        red = structure.reductions.get(key)
        if red is None:
            red = structure.reductions[key] = self._reduce(key)
        keep, sub = red
        reduced = ConicProgram(
            c=self.c[keep],
            A_eq=sub.A_eq,
            b_eq=self.b_eq - self.A_eq @ vals,
            A_in=sub.A_in,
            b_in=self.b_in - self.A_in @ vals,
            lb=self.lb[keep],
            ub=self.ub[keep],
            balls=sub.balls,
            structure=sub,
        )
        return reduced, keep, float(np.dot(self.c, vals))

    def _reduce(self, fixed: frozenset) -> tuple[np.ndarray, Structure]:
        keep = np.array([k for k in range(self.n) if k not in fixed], dtype=int)
        old_to_new = {int(o): m for m, o in enumerate(keep)}
        balls = tuple((old_to_new[i], old_to_new[j]) for i, j in self.balls)
        return keep, Structure(self.A_eq[:, keep].tocsr(), self.A_in[:, keep].tocsr(), balls)


@dataclass
class MixedBinaryProgram:
    """Conic program plus a set of variable indices restricted to {0, 1}.

    A binary must carry box bounds [0, 1] and lie outside every ball, since
    the nodes of a search fix binaries and fix_variables fixes no ball member.
    """

    base: ConicProgram
    binary_indices: tuple[int, ...] = ()

    def __post_init__(self):
        self.binary_indices = tuple(int(i) for i in self.binary_indices)
        for i in self.binary_indices:
            if not 0 <= i < self.base.n:
                raise ValueError(f"binary index {i} out of range")
            if i in self.base.structure.ball_members:
                raise ValueError(f"binary variable {i} is a ball member")
            if self.base.lb[i] != 0.0 or self.base.ub[i] != 1.0:
                raise ValueError(f"binary variable {i} must carry box bounds [0, 1]")

    @property
    def n_binaries(self) -> int:
        return len(self.binary_indices)


@dataclass
class SolveStats:
    """Work counts of convex solves; they never change a computed number.

    iterations counts the IPM iterations run, those of a dropped warm
    attempt and those after the best iterate of a 'tolerance_not_met' solve
    included; factorizations counts LU factorizations run, retries at a
    larger regularization included, but not the W = I factorization a cold
    start adopts from its structure's plan (ipm._Plan); kkt_solves counts
    KKT solve calls, refinements the iterative-refinement passes over all
    of them, reg_bumps the retries at a larger regularization after a
    non-finite solve, and warm_restarts the warm attempts dropped for a
    cold solve. The stats of a solve_convex result count that one call;
    those of a solve_mixed_binary result are the sum (+) over every convex
    solve of the call.
    """

    iterations: int = 0
    factorizations: int = 0
    kkt_solves: int = 0
    refinements: int = 0
    reg_bumps: int = 0
    warm_restarts: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


@dataclass
class Solution:
    """Solver output; status 'optimal' certifies the KKT residuals <= tol.

    On an 'optimal' convex solve y, z and s hold the final dual iterate of
    the equalities and of the cone rows, and the cone slack, each scaled by
    1/tau as x is; they are None otherwise.
    """

    x: np.ndarray
    objective: float
    status: str  # optimal | infeasible | unbounded | tolerance_not_met
    kkt_residuals: tuple[float, float, float]  # (primal, dual, gap)
    solve_time: float
    iterations: int = 0
    dual_objective: float | None = None
    binary_values: tuple[float, ...] | None = None
    node_count: int | None = None
    stats: SolveStats | None = None  # solver work, see SolveStats
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    s: np.ndarray | None = None


def check_feasibility(prog: ConicProgram, x: np.ndarray) -> float:
    """Largest constraint violation of x, replayed independently of any solver."""
    x = np.asarray(x, dtype=float)
    worst = 0.0
    if prog.b_eq.size:
        worst = max(worst, float(np.max(np.abs(prog.A_eq @ x - prog.b_eq))))
    if prog.b_in.size:
        worst = max(worst, float(np.max(prog.A_in @ x - prog.b_in, initial=0.0)))
    finite_lb = np.isfinite(prog.lb)
    if finite_lb.any():
        worst = max(worst, float(np.max(prog.lb[finite_lb] - x[finite_lb], initial=0.0)))
    finite_ub = np.isfinite(prog.ub)
    if finite_ub.any():
        worst = max(worst, float(np.max(x[finite_ub] - prog.ub[finite_ub], initial=0.0)))
    for i, j in prog.balls:
        worst = max(worst, x[i] * x[i] + x[j] * x[j] - 1.0)
    return worst

"""Conic program containers for the embedded solver.

A ConicProgram is a linear objective over n variables with linear
equalities, linear inequalities, box bounds, and two-dimensional unit-ball
constraints x_i^2 + x_j^2 <= 1 on disjoint index pairs. There is no
modeling sugar here: absolute values and max(0, .) terms must be
pre-linearized by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


@dataclass
class ConicProgram:
    """min c'x  s.t.  A_eq x = b_eq,  A_in x <= b_in,  lb <= x <= ub, balls."""

    c: np.ndarray
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_in: sp.csr_matrix
    b_in: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    balls: tuple[tuple[int, int], ...] = ()

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

        Ball pairs with one fixed member become box bounds on the survivor;
        a fully fixed pair that violates its ball is encoded as an
        unsatisfiable inequality so the solver reports infeasibility.
        """
        fixed = {int(k): float(v) for k, v in fixed.items()}
        keep = np.array([k for k in range(self.n) if k not in fixed], dtype=int)
        vals = np.zeros(self.n)
        for k, v in fixed.items():
            vals[k] = v
        old_to_new = {int(o): m for m, o in enumerate(keep)}

        c = self.c[keep]
        offset = float(np.dot(self.c, vals))
        A_eq = self.A_eq[:, keep]
        b_eq = self.b_eq - self.A_eq @ vals
        in_rows = [self.A_in[:, keep]]
        in_rhs = [self.b_in - self.A_in @ vals]
        lb, ub = self.lb[keep].copy(), self.ub[keep].copy()

        balls = []
        for i, j in self.balls:
            fi, fj = i in fixed, j in fixed
            if not fi and not fj:
                balls.append((old_to_new[i], old_to_new[j]))
            elif fi and fj:
                if fixed[i] ** 2 + fixed[j] ** 2 > 1.0 + 1e-12:
                    row = sp.csr_matrix((1, keep.size))
                    in_rows.append(row)
                    in_rhs.append(np.array([-1.0]))
            else:
                fixed_val = fixed[i] if fi else fixed[j]
                free_new = old_to_new[j] if fi else old_to_new[i]
                slack = 1.0 - fixed_val * fixed_val
                if slack < -1e-12:
                    row = sp.csr_matrix((1, keep.size))
                    in_rows.append(row)
                    in_rhs.append(np.array([-1.0]))
                else:
                    r = math.sqrt(max(slack, 0.0))
                    lb[free_new] = max(lb[free_new], -r)
                    ub[free_new] = min(ub[free_new], r)

        reduced = ConicProgram(
            c=c,
            A_eq=A_eq.tocsr(),
            b_eq=b_eq,
            A_in=sp.vstack(in_rows).tocsr() if len(in_rows) > 1 else in_rows[0].tocsr(),
            b_in=np.concatenate(in_rhs),
            lb=lb,
            ub=ub,
            balls=tuple(balls),
        )
        return reduced, keep, offset


@dataclass
class MixedBinaryProgram:
    """Conic program plus a set of variable indices restricted to {0, 1}."""

    base: ConicProgram
    binary_indices: tuple[int, ...] = ()

    def __post_init__(self):
        self.binary_indices = tuple(int(i) for i in self.binary_indices)
        for i in self.binary_indices:
            if not 0 <= i < self.base.n:
                raise ValueError(f"binary index {i} out of range")
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
    included; factorizations counts LU factorizations, retries at a larger
    regularization included; kkt_solves counts KKT solve calls, refinements
    the iterative-refinement passes over all of them, reg_bumps the retries
    at a larger regularization after a non-finite solve, and warm_restarts
    the warm attempts dropped for a cold solve. The stats of a
    solve_convex result count that one call; those of a solve_mixed_binary
    result are the sum (+) over every convex solve of the call.
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

"""Primal-dual interior-point solver for the package's conic programs.

The method runs Mehrotra-style predictor-corrector steps on the homogeneous
self-dual embedding of

    min c'x  s.t.  A x = b,  G x + s = h,  s in K,

where K is a product of a nonnegative orthant and 3-dimensional second-order
cones, one per unit-ball constraint. Nesterov-Todd scaling
keeps the linearized complementarity symmetric; each iteration factors one
quasidefinite KKT matrix (dense for small programs, sparse LU otherwise)
and recovers the embedding variables (tau, kappa) from two extra solves.

Feasibility, optimality and infeasibility certificates follow the usual
self-dual classification: tau -> positive gives an optimal pair, kappa ->
positive gives a primal or dual infeasibility certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .conic import ConicProgram, Solution, SolveStats
from .errors import NumericalBreakdown

_STEP = 0.99
_DENSE_LIMIT = 260
# static KKT regularization, and the cap of its retry ladder (x1e3 per retry)
_REG = 1e-14
_REG_MAX = 1e-4
# SuperLU supernode panel width and relaxation: the KKT matrices have tiny
# supernodes, so the library's wider defaults cost more in per-panel work
# arrays than they save in arithmetic
_PANEL_SIZE = 1
_RELAX = 1
# SuperLU's diagonal pivot threshold on the symmetrically permuted sparse
# KKT matrix: a diagonal entry at least this fraction of its column's
# largest stays the pivot, which keeps most of the fill of the COLAMD
# order; at 0.01 or 0.03 the fill is lower, but the less accurate solves
# stall two marginal steps of the 336-step case study (README)
_PIVOT_THRESH = 0.1
# warm start: weight of the earlier optimum in the starting point, and the
# iterations a warm attempt may run before the solve restarts cold
_WARM_LAMBDA = 0.9
_WARM_MAX_ITER = 30


class ConeDims:
    """Cone layout of the inequality block: leading orthant, then n_socs
    3-dimensional second-order cones, one per unit ball."""

    __slots__ = ("orthant", "n_socs", "total", "degree")

    def __init__(self, orthant: int, n_socs: int):
        self.orthant = orthant
        self.n_socs = n_socs
        self.total = orthant + 3 * n_socs
        self.degree = orthant + n_socs

    def soc_view(self, v: np.ndarray) -> np.ndarray:
        """(..., n_socs, 3) view of the SOC region of v (..., total), one
        row per cone; v may stack several cone vectors as leading rows."""
        return v[..., self.orthant :].reshape(v.shape[:-1] + (self.n_socs, 3))


@dataclass
class StandardForm:
    """A program as min c'x s.t. A x = b, G x + s = h, s in K: c, b and h
    per program, and A, G and the cone layout from its plan (_Plan)."""

    c: np.ndarray
    b: np.ndarray
    h: np.ndarray
    plan: _Plan

    @property
    def A(self) -> sp.csr_matrix:
        return self.plan.A

    @property
    def G(self) -> sp.csr_matrix:
        return self.plan.G

    @property
    def dims(self) -> ConeDims:
        return self.plan.dims


def standard_form(prog: ConicProgram) -> StandardForm:
    """Rewrite a ConicProgram with bounds and balls as cone rows.

    G stacks, in this order: the rows of A_in, one +e_k row per finite upper
    bound, one -e_k row per finite lower bound, then three rows per ball
    (i, j) with -1 at (1, i) and (2, j) of the block, so that h - G x is
    (1, x_i, x_j). A program with no cone rows gets one empty placeholder
    row with h = 1. G and the rest of the plan are built once per structure
    and finite-bound pattern (_Plan.of); h per call.
    """
    finite_ub = np.flatnonzero(np.isfinite(prog.ub))
    finite_lb = np.flatnonzero(np.isfinite(prog.lb))
    plan = prog.structure.solver
    if plan is None or not plan.fits(finite_ub, finite_lb):
        plan = prog.structure.solver = _Plan.of(prog, finite_ub, finite_lb)
    h = np.concatenate(
        [
            prog.b_in,
            prog.ub[finite_ub],
            -prog.lb[finite_lb],
            np.ones(plan.placeholder),
            np.tile(np.array([1.0, 0.0, 0.0]), plan.dims.n_socs),
        ]
    )
    return StandardForm(c=prog.c.astype(float), b=prog.b_eq.astype(float), h=h, plan=plan)


# --- Jordan-algebra helpers on cone-partitioned vectors ----------------------
#
# Every cone is 3-dimensional, so the helpers work on the components of the
# (n_socs, 3) SOC view directly: a handful of ufunc calls per helper, whatever
# the number of cones.


def cone_e(dims: ConeDims) -> np.ndarray:
    e = np.zeros(dims.total)
    e[: dims.orthant] = 1.0
    dims.soc_view(e)[:, 0] = 1.0
    return e


def jprod(dims: ConeDims, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = u * v  # right on the orthant; the SOC blocks are overwritten
    ub, vb, ob = dims.soc_view(u), dims.soc_view(v), dims.soc_view(out)
    ob[:, 0] = np.vecdot(ub, vb)
    ob[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
    return out


def _soc_det(u: np.ndarray) -> np.ndarray:
    """det u = u_0^2 - |u_1|^2 of each of the stacked (..., 3) SOC blocks.

    The difference form (u_0 - |u_1|)(u_0 + |u_1|) keeps the relative
    accuracy of points grazing the boundary; its first factor is at least
    1e-15 max(u_0, 1e-30), so that roundoff negatives leave it positive.
    """
    u0 = u[..., 0]
    n1 = np.hypot(u[..., 1], u[..., 2])
    return np.maximum(u0 - n1, 1e-15 * np.maximum(u0, 1e-30)) * (u0 + n1)


def jdiv(dims: ConeDims, lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve lam o x = w blockwise (lam interior; determinant clamped)."""
    out = np.empty_like(w)
    l = dims.orthant
    np.divide(w[:l], lam[:l], out=out[:l])
    lb, wb, ob = dims.soc_view(lam), dims.soc_view(w), dims.soc_view(out)
    x0 = np.divide(
        lb[:, 0] * wb[:, 0] - np.vecdot(lb[:, 1:], wb[:, 1:]), _soc_det(lb), out=ob[:, 0]
    )
    np.divide(wb[:, 1:] - x0[:, None] * lb[:, 1:], lb[:, :1], out=ob[:, 1:])
    return out


def jmineig(dims: ConeDims, u: np.ndarray) -> float:
    """Smallest eigenvalue of u; over all rows when u stacks several cone
    vectors as rows (..., total)."""
    ub = dims.soc_view(u)
    soc = ub[..., 0] - np.hypot(ub[..., 1], ub[..., 2])
    return float(min(u[..., : dims.orthant].min(initial=math.inf), soc.min(initial=math.inf)))


def _soc_rates(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """1/alpha of each of the stacked (..., 3) SOC blocks, alpha its max step.

    The hyperbolic rotation that maps u to sqrt(det u) * e maps du to
    sqrt(det u) * rho, and e + alpha * rho stays in the cone exactly while
    alpha * (|rho_1| - rho_0) <= 1 (the line search of ECOS: Domahidi, Chu
    and Boyd 2013). With s = sqrt(det u) and j = u' J du that rate is
    (|du_1 - c u_1| - j / s) / s, c = (j + s du_0) / (s (u_0 + s)). det u
    is _soc_det's, as in jdiv and NTScaling.
    """
    u0, u1 = u[..., 0], u[..., 1:]
    d0, d1 = du[..., 0], du[..., 1:]
    s = np.sqrt(_soc_det(u))
    j = u0 * d0 - np.vecdot(u1, d1)
    c = (j + s * d0) / (s * (u0 + s))
    v = d1 - c[..., None] * u1
    return (np.hypot(v[..., 0], v[..., 1]) - j / s) / s


def max_step(dims: ConeDims, u: np.ndarray, du: np.ndarray) -> float:
    """Largest alpha with u + alpha*du still in the cone (u interior).

    u and du may stack several cone vectors as rows (..., total); the step
    then keeps every row in the cone, and equals the least of the rows'
    single steps exactly.
    """
    l = dims.orthant
    rate = max(
        -(du[..., :l] / u[..., :l]).min(initial=0.0),
        _soc_rates(dims.soc_view(u), dims.soc_view(du)).max(initial=0.0),
    )
    return 1.0 / rate if rate > 0.0 else math.inf


_J_DIAG = np.array([1.0, -1.0, -1.0])
_J = np.diag(_J_DIAG)
_J_OUTER = np.outer(_J_DIAG, _J_DIAG)
_E0 = np.array([1.0, 0.0, 0.0])


class NTScaling:
    """Nesterov-Todd scaling W with lambda = W z = W^{-T} s.

    SOC blocks are held stacked: each scaling builds the dense (n_socs, 3, 3)
    blocks of W and W^2 once, so every apply is one orthant multiply and one
    stacked matmul. The IPM iteration never applies W^{-1}; apply_Winv
    builds its blocks on demand. The scaled point lambda uses the
    cancellation-free closed form, which stays strictly interior even when
    the iterate grazes the cone boundary.
    """

    def __init__(self, dims: ConeDims, s: np.ndarray, z: np.ndarray):
        self.dims = dims
        l = dims.orthant
        self.w2_orth = s[:l] / z[:l]
        self.w_orth = np.sqrt(self.w2_orth)
        lam = np.empty_like(s)
        np.sqrt(s[:l] * z[:l], out=lam[:l])

        # s and z cones as the two rows of one stack, so that one pass takes
        # both sqrt(det u); its clamp keeps near-boundary iterates' scaling finite
        u = np.array((dims.soc_view(s), dims.soc_view(z)))
        root = np.sqrt(_soc_det(u))
        sbar, zbar = u / root[..., None]
        a_s, a_z = root
        gamma = np.sqrt((1.0 + np.vecdot(sbar, zbar)) / 2.0)
        wbar = (sbar + zbar * _J_DIAG) / (2.0 * gamma)[:, None]
        eta2 = a_s / a_z
        scale = np.sqrt(a_s * a_z)
        lam_soc = dims.soc_view(lam)
        np.multiply(scale, gamma, out=lam_soc[:, 0])
        denom = sbar[:, 0] + zbar[:, 0] + 2.0 * gamma
        lam_soc[:, 1:] = (scale / denom)[:, None] * (
            (gamma + zbar[:, 0])[:, None] * sbar[:, 1:]
            + (gamma + sbar[:, 0])[:, None] * zbar[:, 1:]
        )
        self.lam = lam

        # dense 3 x 3 blocks of each cone: W = eta M and W^2 =
        # eta^2 (2 wbar wbar' - J), where M = [[w0, w1'], [w1, I + w1 w1' /
        # (1 + w0)]] = v v' / (1 + w0) - J with v = wbar + e
        v = wbar + _E0
        m = v[:, :, None] * (v / v[:, :1])[:, None, :] - _J
        self.eta = np.sqrt(eta2)
        self.soc_w = self.eta[:, None, None] * m
        self.soc_w2 = eta2[:, None, None] * (wbar[:, :, None] * (2.0 * wbar)[:, None, :] - _J)

    def _apply(self, orth: np.ndarray, blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        l = self.dims.orthant
        np.multiply(orth, v[:l], out=out[:l])
        np.matmul(blocks, self.dims.soc_view(v)[:, :, None], out=out[l:].reshape(-1, 3, 1))
        return out

    def apply_W(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.w_orth, self.soc_w, v)

    def apply_Winv(self, v: np.ndarray) -> np.ndarray:
        # W^{-1} = J M J / eta = J W J / eta^2
        winv = (self.soc_w * _J_OUTER) / (self.eta**2)[:, None, None]
        return self._apply(1.0 / self.w_orth, winv, v)

    def apply_W2(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.w2_orth, self.soc_w2, v)


# --- KKT factorization -------------------------------------------------------


class _Plan:
    """The structure-only work of standard_form and KktSolver: A, G, the
    cone layout and the KKT data that depends on them alone.

    Programs that share a conic.Structure and their finite-bound pattern
    (finite_ub, finite_lb) share one plan, kept in the structure's `solver`
    slot; the slot holds one, replaced when a program with another pattern
    is solved. placeholder is 1 when G has the placeholder row, else 0.

    `dense` is whether the KKT matrix, of dimension n + p + m, is factored
    by dense LU (at most _DENSE_LIMIT rows) or sparse. `fixed` is the part
    of the matrix no scaling changes, [0 A' G'; A 0 0; G 0 0], in the
    natural order: one CSR matrix assembled from the COO entries of A and
    G, kept as an array on the dense path. w_pos are the positions of the
    variable entries, in KktSolver._w_values' order, in the matrix as it is
    factored: the row-major dense matrix, or on the sparse path the data
    `values` of the CSC matrix (indices, indptr) of KKT[perm][:, perm],
    whose rows and columns are permuted symmetrically by a COLAMD order of
    the pattern, computed here once; `values` holds the fixed entries and
    zeros, iperm is perm's inverse, and reg_sign, the sign of the
    regularization on each diagonal entry, is in the same order.

    `eye` is the factorization at W = I and _REG that every cold start
    begins with: None until the first solver that needs it makes it
    (KktSolver.factor_identity), then (scaling, lu, piv, splu). Nothing else
    is written after construction, and nothing writes into the plan's
    arrays or `eye`'s.
    """

    def __init__(
        self,
        A: sp.csr_matrix,
        G: sp.csr_matrix,
        dims: ConeDims,
        finite_ub: np.ndarray | None = None,
        finite_lb: np.ndarray | None = None,
        placeholder: int = 0,
    ):
        self.A, self.G, self.dims = A, G, dims
        self.finite_ub, self.finite_lb, self.placeholder = finite_ub, finite_lb, placeholder
        p, n = A.shape
        dim = n + p + G.shape[0]
        self.dense = dim <= _DENSE_LIMIT
        self.reg_sign = np.concatenate([np.ones(n), -np.ones(dim - n)])
        self.eye = None

        # the variable entries: the regularized x/y diagonals, the orthant's
        # -W^2 diagonal, then the dense 3 x 3 -W^2 blocks, block after block,
        # each row-major
        k, l = n + p, dims.orthant
        starts = k + l + 3 * np.arange(dims.n_socs)
        rr, cc = np.divmod(np.arange(9), 3)
        w_rows = np.concatenate([np.arange(k + l), (starts[:, None] + rr).ravel()])
        w_cols = np.concatenate([np.arange(k + l), (starts[:, None] + cc).ravel()])
        self.n_w = w_rows.size

        A, G = A.tocoo(), G.tocoo()
        fixed_rows = np.concatenate([A.row + n, A.col, G.row + k, G.col]).astype(np.int64)
        fixed_cols = np.concatenate([A.col, A.row + n, G.col, G.row + k]).astype(np.int64)
        fixed_vals = np.concatenate([A.data, A.data, G.data, G.data])
        self.fixed = sp.csr_matrix((fixed_vals, (fixed_rows, fixed_cols)), shape=(dim, dim))
        if self.dense:
            self.fixed = self.fixed.toarray()
            self.w_pos = w_rows * dim + w_cols
            # LAPACK's LU called directly: the routines scipy.linalg's
            # lu_factor/lu_solve wrap, without their per-call checks
            self.getrf, self.getrs = sla.get_lapack_funcs(("getrf", "getrs"), (self.fixed,))
            return

        # every entry, the fixed ones first, then the variable ones
        rows = np.concatenate([fixed_rows, w_rows])
        cols = np.concatenate([fixed_cols, w_cols])

        def csc(data, perm_rows, perm_cols):
            order = np.lexsort((perm_rows, perm_cols))
            indptr = np.searchsorted(perm_cols[order], np.arange(dim + 1)).astype(np.int32)
            mat = sp.csc_matrix(
                (data[order], perm_rows[order].astype(np.int32), indptr), shape=(dim, dim)
            )
            return mat, order

        # COLAMD orders the pattern once; a diagonally dominant matrix of
        # the pattern (every diagonal entry is a variable one) factors
        # whatever A and G hold, and the order depends on the pattern alone
        dominant = np.where(rows == cols, float(dim), 1.0)
        colamd = spla.splu(
            csc(dominant, rows, cols)[0], permc_spec="COLAMD", relax=_RELAX, panel_size=_PANEL_SIZE
        )
        self.perm = np.argsort(colamd.perm_c)
        self.iperm = np.argsort(self.perm)
        self.reg_sign = self.reg_sign[self.perm]
        mat, order = csc(
            np.concatenate([fixed_vals, np.zeros(self.n_w)]), self.iperm[rows], self.iperm[cols]
        )
        self.values, self.indices, self.indptr = mat.data, mat.indices, mat.indptr
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        self.w_pos = where[fixed_vals.size :]

    @classmethod
    def of(cls, prog: ConicProgram, finite_ub: np.ndarray, finite_lb: np.ndarray) -> _Plan:
        """The plan of prog's structure and finite-bound pattern, its G in
        the row layout of standard_form."""
        n = prog.n
        A_in = prog.A_in.tocsr()
        n_balls = len(prog.balls)
        orthant = A_in.shape[0] + finite_ub.size + finite_lb.size
        # keep the cone block nonempty so the embedding stays uniform
        placeholder = int(orthant == 0 and n_balls == 0)
        orthant += placeholder

        # entries per appended row: one per bound row, none in the placeholder,
        # (0, 1, 1) per ball block
        row_nnz = np.concatenate(
            [
                np.ones(finite_ub.size + finite_lb.size, dtype=np.int64),
                np.zeros(placeholder, dtype=np.int64),
                np.tile(np.array([0, 1, 1]), n_balls),
            ]
        )
        indptr = np.concatenate([A_in.indptr, A_in.nnz + np.cumsum(row_nnz)])
        ball_cols = np.asarray(prog.balls, dtype=np.int64).reshape(-1)
        indices = np.concatenate([A_in.indices, finite_ub, finite_lb, ball_cols])
        data = np.concatenate(
            [A_in.data, np.ones(finite_ub.size), -np.ones(finite_lb.size), -np.ones(2 * n_balls)]
        )
        G = sp.csr_matrix((data, indices, indptr), shape=(orthant + 3 * n_balls, n))
        dims = ConeDims(orthant=orthant, n_socs=n_balls)
        return cls(prog.A_eq.tocsr(), G, dims, finite_ub, finite_lb, placeholder)

    def fits(self, finite_ub: np.ndarray, finite_lb: np.ndarray) -> bool:
        return np.array_equal(self.finite_ub, finite_ub) and np.array_equal(
            self.finite_lb, finite_lb
        )


class KktSolver:
    """Factor/solve of the 3x3 block system [0 A' G'; A 0 0; G 0 -W^2].

    Both LU paths pivot, so a nonsingular KKT matrix needs no diagonal
    shift. The static regularization _REG (+ on the x block, - on y and z)
    only keeps structurally singular systems factorizable, such as redundant
    equalities or a variable in no row; iterative refinement against the
    unregularized operator removes its effect.

    The structure-only data are the form's plan (_Plan), shared by every
    solver of its structure and finite-bound pattern. `fixed` is the plan's
    part of the matrix no scaling changes, [0 A' G'; A 0 0; G 0 0], as a
    dense array or CSR matrix: the IPM forms its residuals and certificate
    checks from one product with it. `_mat` is the solver's own copy of the
    matrix it factors, on either path: the dense array, or the CSC matrix
    of the plan's pattern; refinement multiplies by it.

    Every matrix of a plan has the same sparsity pattern. The sparse path
    therefore factors KKT[perm][:, perm], permuted symmetrically by the
    plan's COLAMD order, with no reordering and SuperLU's diagonal pivot
    threshold at _PIVOT_THRESH: the quasidefinite matrix keeps most of its
    diagonal pivots and so the fill of the order. solve() permutes the
    right-hand side into that order, solves and refines there, and permutes
    the solution back.

    A cold start factors at W = I (factor_identity); the first solver of a
    plan makes that factorization and leaves it on the plan, and later
    solvers adopt it instead of factoring. Each solver keeps its own value
    buffers, factors and stats, and a regularization retry refactors into
    its own buffers.
    """

    def __init__(self, form: StandardForm):
        self.form = form
        plan = self._plan = form.plan
        n, p, m = form.c.size, form.b.size, form.h.size
        self.n, self.p, self.m = n, p, m
        self.dim = n + p + m
        self.dense = plan.dense
        self.fixed = plan.fixed
        # sign of the regularization on each diagonal entry, in the plan's layout
        self._reg_sign = plan.reg_sign
        self._w_vals = np.empty(plan.n_w)
        # the matrix factored last, in the plan's layout, and its factors
        self._lu = self._piv = self._splu = None
        if self.dense:
            self._mat = plan.fixed.copy()
            self._values = self._mat.reshape(-1)
            self._getrf, self._getrs = plan.getrf, plan.getrs
        else:
            self._mat = sp.csc_matrix(
                (plan.values.copy(), plan.indices, plan.indptr),
                shape=(self.dim, self.dim),
            )
            self._values = self._mat.data
        # counts of LU factorizations, solve calls, refinement passes and
        # regularization bumps over the solver's lifetime
        self.stats = SolveStats()

    def _w_values(self, scaling: NTScaling, reg: float) -> np.ndarray:
        """The variable entries at regularization reg, written into the
        solver's own buffer."""
        w = self._w_vals
        n, k = self.n, self.n + self.p
        kl = k + self.form.dims.orthant
        w[:n] = reg
        w[n:k] = -reg
        np.subtract(-reg, scaling.w2_orth, out=w[k:kl])
        np.negative(scaling.soc_w2.reshape(-1), out=w[kl:])
        w[kl:].reshape(-1, 9)[:, ::4] -= reg
        return w

    def _write(self, reg: float) -> None:
        """Write the variable entries at self.scaling and reg into the
        solver's own matrix; reg becomes the current regularization."""
        self._current_reg = reg
        self._values[self._plan.w_pos] = self._w_values(self.scaling, reg)

    def _factor_at(self, reg: float) -> None:
        self.stats.factorizations += 1
        self._write(reg)
        if self.dense:
            # an exactly singular factor (info > 0) is kept: its solve is not
            # finite, and solve() retries with more regularization
            self._lu, self._piv, _ = self._getrf(self._mat)
        else:
            self._splu = spla.splu(
                self._mat,
                permc_spec="NATURAL",
                diag_pivot_thresh=_PIVOT_THRESH,
                relax=_RELAX,
                panel_size=_PANEL_SIZE,
            )

    def factor(self, scaling: NTScaling) -> None:
        self.scaling = scaling
        self._factor_at(_REG)

    def factor_identity(self, e: np.ndarray) -> None:
        """Factor at W = I, the scaling of a cold start, e the cone's
        identity: adopt the plan's factors of it, or make them (one factor
        call, counted in stats) and leave them on the plan."""
        plan = self._plan
        if plan.eye is None:
            self.factor(NTScaling(self.form.dims, e * 2.0, e * 2.0))
            plan.eye = (self.scaling, self._lu, self._piv, self._splu)
            return
        self.scaling, self._lu, self._piv, self._splu = plan.eye
        self._write(_REG)

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the factors, in the layout of the factored matrix."""
        if self.dense:
            return self._getrs(self._lu, self._piv, rhs)[0]
        return self._splu.solve(rhs)

    def _exact_matvec(self, sol: np.ndarray) -> np.ndarray:
        """Unregularized KKT operator times sol, from the matrix just factored,
        in its layout.

        One matvec on the assembled matrix, less its regularization diagonal.
        """
        return self._mat @ sol - (self._current_reg * self._reg_sign) * sol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """[x | y | z] with K [x | y | z] = rhs for the exact operator K,
        via the regularized factorization.

        A singular or non-finite factorization bumps the regularization
        (x1e3 per retry, at most _REG_MAX) and refactors; iterative
        refinement then removes the perturbation. The sparse path solves and
        refines in its factored layout, permuted by the plan's order.
        """
        self.stats.kkt_solves += 1
        scale = max(1.0, float(np.abs(rhs).max()))
        if not self.dense:
            rhs = rhs[self._plan.perm]
        sol = self._raw_solve(rhs)
        while not np.isfinite(sol).all():
            if self._current_reg >= _REG_MAX:
                raise FloatingPointError("KKT factorization unusable at maximum regularization")
            self.stats.reg_bumps += 1
            self._factor_at(min(self._current_reg * 1e3, _REG_MAX))
            sol = self._raw_solve(rhs)
        best_resid = math.inf
        for _ in range(4):
            resid = rhs - self._exact_matvec(sol)
            err = float(np.abs(resid).max())
            if err <= 1e-12 * scale or err >= best_resid:
                break
            best_resid = err
            self.stats.refinements += 1
            sol = sol + self._raw_solve(resid)
        return sol if self.dense else sol[self._plan.iperm]


# --- main loop ---------------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector, as np.linalg.norm computes it."""
    return math.sqrt(v @ v)


def _initial_point(kkt: KktSolver, form: StandardForm, e: np.ndarray):
    dims = form.dims
    kkt.factor_identity(e)
    n, k = kkt.n, kkt.n + kkt.p
    x_z = kkt.solve(np.concatenate([np.zeros(n), form.b, form.h]))
    y_z = kkt.solve(np.concatenate([-form.c, np.zeros(kkt.dim - n)]))
    # s and z, each moved into the cone's interior when not safely inside it
    inside = []
    for u in (-x_z[k:], y_z[k:]):
        shift = -jmineig(dims, u)
        inside.append(u + (1.0 + shift) * e if shift >= -1e-8 else u)
    s, z = inside
    return x_z[:n], y_z[n:k], z, s


def _warm_point(form: StandardForm, e: np.ndarray, warm: Solution | None):
    """Starting point near an earlier optimum, or None when it does not fit.

    The warm start of Skajaa, Andersen and Ye 2013 for this embedding:
    x = lam x*, y = lam y*, s = lam s~ + (1 - lam) e, z = lam z* + (1 - lam) e,
    tau = 1 and kappa = s'z / degree, with lam = _WARM_LAMBDA. It needs the
    dual iterate of an optimal solve whose x, y and z sizes match the program.

    The start assumes s~ is the slack x* leaves in the program being solved;
    s* is the slack of the earlier program, whose h may differ. So the
    orthant part of s~ is max(h - G x*, 0) with this program's h, and its
    SOC part is s*: a row that x* now violates starts at 1 - lam, and a row
    that x* now leaves slack starts from its new slack. One sparse product.
    """
    if warm is None or warm.y is None:
        return None
    if (warm.x.size, warm.y.size, warm.z.size) != (form.c.size, form.b.size, form.h.size):
        return None
    lam = _WARM_LAMBDA
    orth = form.dims.orthant
    slack = warm.s.copy()
    slack[:orth] = np.maximum(form.h[:orth] - (form.G @ warm.x)[:orth], 0.0)
    s = lam * slack + (1.0 - lam) * e
    z = lam * warm.z + (1.0 - lam) * e
    return lam * warm.x, lam * warm.y, z, s, 1.0, (s @ z) / form.dims.degree


def solve_convex(
    prog: ConicProgram,
    tol: float = 1e-8,
    max_iter: int = 100,
    warm_start: Solution | None = None,
) -> Solution:
    """Solve the conic program; see Solution.status for the outcome class.

    status 'optimal' guarantees primal/dual residuals and relative gap at or
    below tol. 'infeasible' / 'unbounded' carry a certificate verified to the
    same tolerance. 'tolerance_not_met' returns the best iterate found.
    Raises NumericalBreakdown when steps collapse far from any certificate.

    warm_start, an earlier optimal Solution of a program of the same sizes,
    starts the iteration near its optimum (_warm_point) instead of at the
    cold initial point: from its x, y and z and the slack its x leaves in
    this program's orthant rows, whose h may have moved. A warm attempt that
    ends without a certificate within _WARM_MAX_ITER iterations, or breaks
    down, is dropped and the program is solved cold; the result then counts
    the work of both attempts and has stats.warm_restarts = 1.
    """
    t0 = time.perf_counter()
    prog.validate()
    form = standard_form(prog)
    e = cone_e(form.dims)
    kkt = KktSolver(form)
    start = _warm_point(form, e, warm_start)
    if start is None:
        return _iterate(kkt, form, e, None, tol, max_iter, t0)
    try:
        sol = _iterate(kkt, form, e, start, tol, min(max_iter, _WARM_MAX_ITER), t0)
        if sol.status != "tolerance_not_met":
            return sol
        ran = sol.stats.iterations
    except NumericalBreakdown as exc:
        ran = exc.iteration
    warm_work = replace(kkt.stats, iterations=ran, warm_restarts=1)
    # a fresh solver, whose stats count the cold solve alone
    sol = _iterate(KktSolver(form), form, e, None, tol, max_iter, t0)
    sol.iterations += ran
    sol.stats = sol.stats + warm_work
    return sol


def _step_length(dims, zs, tau, kappa, dzs, dtau, dkappa) -> float:
    """Largest step along (dzs, dtau, dkappa) that keeps both rows of zs,
    z and s, in their cones and tau and kappa nonnegative."""
    alpha = max_step(dims, zs, dzs)
    if dtau < 0.0:
        alpha = min(alpha, -tau / dtau)
    if dkappa < 0.0:
        alpha = min(alpha, -kappa / dkappa)
    return alpha


def _iterate(kkt: KktSolver, form: StandardForm, e: np.ndarray, start, tol, max_iter, t0):
    """The predictor-corrector loop of solve_convex from start, an
    (x, y, z, s, tau, kappa) tuple, or from _initial_point when it is None.

    The iterate is one vector v = [x | y | z | s] and a search direction one
    d = [dx | dy | dz | ds], so that [x | y | z] is the KKT solver's
    unknown and z and s are the rows of one (2, m) stack.
    """
    dims = form.dims
    nu = dims.degree + 1
    if start is None:
        try:
            x, y, z, s = _initial_point(kkt, form, e)
        except (FloatingPointError, RuntimeError) as exc:
            raise NumericalBreakdown(0, f"initial point: {exc}") from exc
        tau, kappa = 1.0, 1.0
    else:
        x, y, z, s, tau, kappa = start
    v = np.concatenate([x, y, z, s])
    n, k, dim = kkt.n, kkt.n + kkt.p, kkt.dim

    c, b, h = form.c, form.b, form.h
    # residuals: [r1 | r2 | r3] = fixed @ [x | y | z] + tau q, plus s on r3,
    # and r4 = g'[x | y | z] + kappa
    q = np.concatenate([c, -b, -h])
    g = np.concatenate([c, b, h])
    norm_b = 1.0 + _norm(b)
    norm_h = 1.0 + _norm(h)
    norm_c = 1.0 + _norm(c)

    best = None
    best_score = math.inf
    tiny_steps = 0

    def package(status, xs, metrics, iters, ran):
        """Solution of the solve; ran counts the iterations run, iters
        those up to the iterate returned."""
        pres, dres, relgap, pcost, dcost = metrics
        if status == "infeasible":
            obj = math.nan
        elif status == "unbounded":
            obj = -math.inf
        else:
            obj = pcost
        return Solution(
            x=xs,
            objective=obj,
            status=status,
            kkt_residuals=(pres, dres, relgap),
            solve_time=time.perf_counter() - t0,
            iterations=iters,
            dual_objective=dcost,
            stats=replace(kkt.stats, iterations=ran),
        )

    for it in range(max_iter + 1):
        x, z, s = v[:n], v[k:dim], v[dim:]
        zs = v[k:].reshape(2, -1)
        # fixed @ [x | y | z] = [A'y + G'z | A x | G x]
        kv = kkt.fixed @ v[:dim]
        r = kv + tau * q
        r[k:] += s
        r1, r2, r3 = r[:n], r[n:k], r[k:]
        cx = c @ x
        byhz = g[n:] @ v[n:dim]
        r4 = cx + byhz + kappa
        sz = s @ z
        mu = (sz + tau * kappa) / nu

        pcost = cx / tau
        dcost = -byhz / tau
        pres = max(_norm(r2) / norm_b, _norm(r3) / norm_h) / tau
        dres = _norm(r1) / norm_c / tau
        gap = sz / (tau * tau)
        relgap = gap / max(1.0, abs(pcost))
        score = max(pres, dres, relgap)
        metrics = (pres, dres, relgap, pcost, dcost)
        if score < best_score:
            best_score = score
            best = (x / tau, metrics, it)

        if pres <= tol and dres <= tol and relgap <= tol:
            sol = package("optimal", x / tau, metrics, it, it)
            sol.y, sol.z, sol.s = v[n:k] / tau, z / tau, s / tau
            return sol

        # certificates (checked on the raw embedding variables)
        if -byhz > tol:
            pinf_res = _norm(kv[:n]) / -byhz / norm_c
            if pinf_res <= tol:
                return package("infeasible", x / tau, metrics, it, it)
        if -cx > tol:
            dinf_res = max(_norm(kv[n:k]) / norm_b, _norm(kv[k:] + s) / norm_h) / -cx
            if dinf_res <= tol:
                return package("unbounded", x / -cx, metrics, it, it)

        if it == max_iter:
            xs, met, its = best
            return package("tolerance_not_met", xs, met, its, it)

        scaling = NTScaling(dims, s, z)
        lam = scaling.lam

        def fallback(detail: str):
            if best_score <= 1e3 * tol:
                xs, met, its = best
                return package("tolerance_not_met", xs, met, its, it)
            raise NumericalBreakdown(it, detail)

        try:
            kkt.factor(scaling)
            sol1 = kkt.solve(-q)
        except (FloatingPointError, RuntimeError) as exc:
            return fallback(str(exc))
        denom = g @ sol1 - kappa / tau

        def direction(fac, wg, rhs_kappa):
            """d = [dx | dy | dz | ds], dtau and dkappa for the complementarity
            right-hand side whose scaled form is wg."""
            rhs = r * -fac
            rhs[k:] -= wg
            sol0 = kkt.solve(rhs)
            dtau = (-fac * r4 - g @ sol0 - rhs_kappa / tau) / denom
            d = np.empty(v.size)
            np.multiply(sol1, dtau, out=d[:dim])
            d[:dim] += sol0
            np.subtract(wg, scaling.apply_W2(d[k:dim]), out=d[dim:])
            dkappa = (rhs_kappa - kappa * dtau) / tau
            return d, dtau, dkappa

        try:
            # predictor: jdiv(lam, -lam o lam) = -lam, so wg = -W lam
            w_lam = scaling.apply_W(lam)
            da, dta, dka = direction(1.0, -w_lam, -tau * kappa)
            dzs_a = da[k:].reshape(2, -1)
            alpha = min(1.0, _step_length(dims, zs, tau, kappa, dzs_a, dta, dka))
            zs_a = zs + alpha * dzs_a
            mu_aff = (zs_a[0] @ zs_a[1] + (tau + alpha * dta) * (kappa + alpha * dka)) / nu
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector: ds_a = -W lam - W^2 dz_a, so W^{-1} ds_a = -lam - W dz_a,
            # and jdiv(lam, -(lam o lam + gamma - sigma mu e)) =
            # -lam - jdiv(lam, gamma - sigma mu e)
            w_dz = scaling.apply_W(da[k:dim])
            gamma_corr = jprod(dims, -(lam + w_dz), w_dz)
            gamma_corr -= (sigma * mu) * e
            wg = -(w_lam + scaling.apply_W(jdiv(dims, lam, gamma_corr)))
            d, dtau, dkappa = direction(1.0 - sigma, wg, -tau * kappa + sigma * mu - dta * dka)
        except (FloatingPointError, RuntimeError) as exc:
            return fallback(str(exc))
        if not (np.isfinite(d).all() and math.isfinite(dtau) and math.isfinite(dkappa)):
            return fallback("non-finite search direction")
        dzs = d[k:].reshape(2, -1)
        step = min(1.0, _STEP * _step_length(dims, zs, tau, kappa, dzs, dtau, dkappa))
        if step <= 1e-10:
            tiny_steps += 1
            if tiny_steps >= 3:
                return fallback(f"step length collapsed ({step:.2e})")
            step = max(step, 1e-10)
        else:
            tiny_steps = 0

        # roundoff can overshoot the boundary at very small complementarity;
        # back off until the new iterate is strictly inside the cone
        for _ in range(40):
            tau_new = tau + step * dtau
            kappa_new = kappa + step * dkappa
            v_new = v + step * d
            if tau_new > 0.0 and kappa_new > 0.0 and jmineig(dims, v_new[k:].reshape(2, -1)) > 0.0:
                break
            step *= 0.5
        else:
            return fallback("cannot keep the iterate interior")
        v = v_new
        tau, kappa = tau_new, kappa_new

    raise NumericalBreakdown(max_iter, "iteration limit fell through")

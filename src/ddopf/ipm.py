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
    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    G: sp.csr_matrix
    h: np.ndarray
    dims: ConeDims
    # the structure-only set-up A, G and dims come from; see _Setup
    setup: _Setup | None = None


class _Setup:
    """The structure-only work of standard_form and KktSolver: A, G, the
    cone layout and, once a KktSolver has built it, the KKT data that
    depends on A and G alone (_KktPattern).

    Programs that share a conic.Structure and their finite-bound pattern
    share one _Setup, kept in the structure's `solver` slot; the slot holds
    one, replaced when a program with another pattern is solved. Nothing
    writes into a _Setup's arrays once it is built.
    """

    __slots__ = ("finite_ub", "finite_lb", "placeholder", "A", "G", "dims", "kkt")

    def __init__(self, prog: ConicProgram, finite_ub: np.ndarray, finite_lb: np.ndarray):
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
        self.finite_ub, self.finite_lb = finite_ub, finite_lb
        self.placeholder = placeholder
        self.A = prog.A_eq.tocsr()
        self.G = sp.csr_matrix((data, indices, indptr), shape=(orthant + 3 * n_balls, n))
        self.dims = ConeDims(orthant=orthant, n_socs=n_balls)
        self.kkt: _KktPattern | None = None

    def fits(self, finite_ub: np.ndarray, finite_lb: np.ndarray) -> bool:
        return np.array_equal(self.finite_ub, finite_ub) and np.array_equal(
            self.finite_lb, finite_lb
        )

    def owns(self, form: StandardForm) -> bool:
        return form.A is self.A and form.G is self.G and form.dims is self.dims


def standard_form(prog: ConicProgram) -> StandardForm:
    """Rewrite a ConicProgram with bounds and balls as cone rows.

    G stacks, in this order: the rows of A_in, one +e_k row per finite upper
    bound, one -e_k row per finite lower bound, then three rows per ball
    (i, j) with -1 at (1, i) and (2, j) of the block, so that h - G x is
    (1, x_i, x_j). A program with no cone rows gets one empty placeholder
    row with h = 1. G is assembled directly in CSR, row by row, once per
    shared structure and finite-bound pattern (_Setup); h per call.
    """
    finite_ub = np.flatnonzero(np.isfinite(prog.ub))
    finite_lb = np.flatnonzero(np.isfinite(prog.lb))
    structure = prog.structure
    shared = structure is not None and structure.owns(prog)
    setup = structure.solver if shared else None
    if setup is None or not setup.fits(finite_ub, finite_lb):
        setup = _Setup(prog, finite_ub, finite_lb)
        if shared:
            structure.solver = setup
    h = np.concatenate(
        [
            prog.b_in,
            prog.ub[finite_ub],
            -prog.lb[finite_lb],
            np.ones(setup.placeholder),
            np.tile(np.array([1.0, 0.0, 0.0]), setup.dims.n_socs),
        ]
    )
    return StandardForm(
        c=prog.c.astype(float),
        A=setup.A,
        b=prog.b_eq.astype(float),
        G=setup.G,
        h=h,
        dims=setup.dims,
        setup=setup,
    )


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


def jdiv(dims: ConeDims, lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve lam o x = w blockwise (lam interior; determinant clamped)."""
    out = np.empty_like(w)
    l = dims.orthant
    np.divide(w[:l], lam[:l], out=out[:l])
    lb, wb, ob = dims.soc_view(lam), dims.soc_view(w), dims.soc_view(out)
    l0 = lb[:, 0]
    n1 = np.hypot(lb[:, 1], lb[:, 2])
    det = np.maximum(l0 - n1, 1e-15 * np.maximum(l0, 1e-30)) * (l0 + n1)
    x0 = np.divide(l0 * wb[:, 0] - np.vecdot(lb[:, 1:], wb[:, 1:]), det, out=ob[:, 0])
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
    uses the difference form, as NTScaling does, so that points grazing the
    boundary keep their relative accuracy.
    """
    u0, u1 = u[..., 0], u[..., 1:]
    d0, d1 = du[..., 0], du[..., 1:]
    n1 = np.hypot(u[..., 1], u[..., 2])
    s = np.sqrt(np.maximum(u0 - n1, 1e-15 * u0) * (u0 + n1))
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
        # both sqrt(u0^2 - |u1|^2): the difference form, with roundoff
        # negatives clamped so near-boundary iterates keep a finite scaling
        u = np.array((dims.soc_view(s), dims.soc_view(z)))
        u0 = u[..., 0]
        n1 = np.hypot(u[..., 1], u[..., 2])
        root = np.sqrt(np.maximum(u0 - n1, 1e-15 * np.maximum(u0, 1e-30)) * (u0 + n1))
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


class _KktPattern:
    """The KKT data that depends on A and G alone, shared by every KktSolver
    of one _Setup and never written after construction.

    `fixed` is the part of the matrix no scaling changes, [0 A' G'; A 0 0;
    G 0 0], as a dense array or CSR matrix; w_flat (dense path) or the tail
    of raw (sparse path) are the positions of the variable entries, in
    KktSolver._w_values' order; the sparse path's scatter order and
    natural-order column pattern place raw's entries into the matrix.
    """

    def __init__(self, form: StandardForm, dense: bool):
        n, p = form.c.size, form.b.size
        dim = n + p + form.h.size
        self.reg_sign = np.concatenate([np.ones(n), -np.ones(dim - n)])

        # the variable entries: the regularized x/y diagonals, the orthant's
        # -W^2 diagonal, then the dense 3 x 3 -W^2 blocks, block after block,
        # each row-major
        k, l = n + p, form.dims.orthant
        starts = k + l + 3 * np.arange(form.dims.n_socs)
        rr, cc = np.divmod(np.arange(9), 3)
        w_rows = np.concatenate([np.arange(k + l), (starts[:, None] + rr).ravel()])
        w_cols = np.concatenate([np.arange(k + l), (starts[:, None] + cc).ravel()])
        self.n_w = w_rows.size

        if dense:
            A, G = form.A.toarray(), form.G.toarray()
            self.fixed = np.zeros((dim, dim))
            self.fixed[n:k, :n] = A
            self.fixed[:n, n:k] = A.T
            self.fixed[k:, :n] = G
            self.fixed[:n, k:] = G.T
            self.w_flat = w_rows * dim + w_cols
            # LAPACK's LU called directly: the routines scipy.linalg's
            # lu_factor/lu_solve wrap, without their per-call checks
            self.getrf, self.getrs = sla.get_lapack_funcs(("getrf", "getrs"), (self.fixed,))
        else:
            A, G = form.A.tocoo(), form.G.tocoo()
            fixed_rows = np.concatenate([A.row + n, A.col, G.row + k, G.col]).astype(np.int64)
            fixed_cols = np.concatenate([A.col, A.row + n, G.col, G.row + k]).astype(np.int64)
            fixed_vals = np.concatenate([A.data, A.data, G.data, G.data])
            self.fixed = sp.csr_matrix((fixed_vals, (fixed_rows, fixed_cols)), shape=(dim, dim))
            # every entry in scatter order: the fixed values, then the
            # variable ones
            self.raw = np.concatenate([fixed_vals, np.zeros(self.n_w)])
            all_rows = np.concatenate([fixed_rows, w_rows])
            all_cols = np.concatenate([fixed_cols, w_cols])
            self.order = np.lexsort((all_rows, all_cols))
            self.indices = all_rows[self.order].astype(np.int32)
            self.indptr = np.searchsorted(all_cols[self.order], np.arange(dim + 1)).astype(np.int32)


class KktSolver:
    """Factor/solve of the 3x3 block system [0 A' G'; A 0 0; G 0 -W^2].

    Both LU paths pivot, so a nonsingular KKT matrix needs no diagonal
    shift. The static regularization _REG (+ on the x block, - on y and z)
    only keeps structurally singular systems factorizable, such as redundant
    equalities or a variable in no row; iterative refinement against the
    unregularized operator removes its effect.

    Every matrix one solver factors has the same sparsity pattern. The sparse
    path therefore orders the columns once, with COLAMD on the first matrix,
    and factors every later matrix in that column order with no reordering.

    `fixed` holds the part of the matrix no scaling changes,
    [0 A' G'; A 0 0; G 0 0], as a dense array or CSR matrix: the IPM forms
    its residuals and certificate checks from one product with it. It and
    the rest of the structure-only data (_KktPattern) are built once per
    form.setup, by the first solver on a form whose A, G and dims are the
    setup's own, and shared; any other form gets a pattern of its own.
    Each solver keeps its own value buffers, factors, column order and
    stats.
    """

    def __init__(self, form: StandardForm):
        self.form = form
        n, p, m = form.c.size, form.b.size, form.h.size
        self.n, self.p, self.m = n, p, m
        self.dim = n + p + m
        self.dense = self.dim <= _DENSE_LIMIT
        setup = form.setup
        if setup is not None and setup.owns(form):
            if setup.kkt is None:
                setup.kkt = _KktPattern(form, self.dense)
            pattern = setup.kkt
        else:
            pattern = _KktPattern(form, self.dense)
        self._pattern = pattern
        self.fixed = pattern.fixed
        # sign of the regularization on each diagonal entry
        self._reg_sign = pattern.reg_sign
        if self.dense:
            # the matrix factored last: fixed with the variable entries written in
            self._kmat = pattern.fixed.copy()
            self._w_vals = np.empty(pattern.n_w)
            self._getrf, self._getrs = pattern.getrf, pattern.getrs
            self._lu = self._piv = None
        else:
            # every entry in scatter order, of which _w_values writes the
            # variable ones in place
            self._raw = pattern.raw.copy()
            self._w_vals = self._raw[self._raw.size - pattern.n_w :]
            self._order = pattern.order
            # the matrix factored last, once the first factorization has
            # built it in its column order: _mat[:, j] holds column _cols[j]
            # of the KKT matrix
            self._mat = None
            self._cols = None
            self._splu = None
            self._splu_cols = None
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

    def _factor_at(self, reg: float) -> None:
        self.stats.factorizations += 1
        w_vals = self._w_values(self.scaling, reg)
        if self.dense:
            self._kmat.ravel()[self._pattern.w_flat] = w_vals
            # an exactly singular factor (info > 0) is kept: its solve is not
            # finite, and solve() retries with more regularization
            self._lu, self._piv, _ = self._getrf(self._kmat)
        elif self._cols is None:
            pattern = self._pattern
            self._mat = sp.csc_matrix(
                (self._raw[self._order], pattern.indices, pattern.indptr),
                shape=(self.dim, self.dim),
            )
            self._splu = spla.splu(self._mat, relax=_RELAX, panel_size=_PANEL_SIZE)
            self._splu_cols = None
            self._permute_columns(np.argsort(self._splu.perm_c))
        else:
            # the columns are already in COLAMD order (postordered by
            # SuperLU): the fill is the same without reordering again
            self._mat.data[:] = self._raw[self._order]
            self._splu = spla.splu(
                self._mat, permc_spec="NATURAL", relax=_RELAX, panel_size=_PANEL_SIZE
            )
            self._splu_cols = self._cols

    def _permute_columns(self, cols: np.ndarray) -> None:
        """Rebuild _mat, and its scatter order, as KKT[:, cols]."""
        mat = self._mat
        lengths = np.diff(mat.indptr)[cols]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        src = np.repeat(mat.indptr[cols] - indptr[:-1], lengths) + np.arange(indptr[-1])
        self._order = self._order[src]
        self._mat = sp.csc_matrix(
            (mat.data[src], mat.indices[src], indptr.astype(np.int32)), shape=mat.shape
        )
        self._cols = cols

    def factor(self, scaling: NTScaling) -> None:
        self.scaling = scaling
        self._current_reg = _REG
        self._factor_at(self._current_reg)

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.dense:
            return self._getrs(self._lu, self._piv, rhs)[0]
        sol = self._splu.solve(rhs)
        if self._splu_cols is None:
            return sol
        out = np.empty_like(sol)
        out[self._splu_cols] = sol
        return out

    def _exact_matvec(self, sol: np.ndarray) -> np.ndarray:
        """Unregularized KKT operator times sol, from the matrix just factored.

        One matvec on the assembled matrix, less its regularization diagonal.
        """
        if self.dense:
            kv = self._kmat @ sol
        else:
            kv = self._mat @ sol[self._cols]
        return kv - (self._current_reg * self._reg_sign) * sol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """[x | y | z] with K [x | y | z] = rhs for the exact operator K,
        via the regularized factorization.

        A singular or non-finite factorization bumps the regularization
        (x1e3 per retry, at most _REG_MAX) and refactors; iterative
        refinement then removes the perturbation.
        """
        self.stats.kkt_solves += 1
        scale = max(1.0, float(np.abs(rhs).max()))
        sol = self._raw_solve(rhs)
        while not np.isfinite(sol).all():
            if self._current_reg >= _REG_MAX:
                raise FloatingPointError("KKT factorization unusable at maximum regularization")
            self._current_reg = min(self._current_reg * 1e3, _REG_MAX)
            self.stats.reg_bumps += 1
            self._factor_at(self._current_reg)
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
        return sol


# --- main loop ---------------------------------------------------------------


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector, as np.linalg.norm computes it."""
    return math.sqrt(v @ v)


def _initial_point(kkt: KktSolver, form: StandardForm, e: np.ndarray):
    dims = form.dims
    eye = NTScaling(dims, e * 2.0, e * 2.0)  # W = I
    kkt.factor(eye)
    n, k = kkt.n, kkt.n + kkt.p
    x_z = kkt.solve(np.concatenate([np.zeros(n), form.b, form.h]))
    x, s = x_z[:n], -x_z[k:]
    shift = -jmineig(dims, s)
    if shift >= -1e-8:
        s = s + (1.0 + shift) * e
    y_z = kkt.solve(np.concatenate([-form.c, np.zeros(kkt.dim - n)]))
    y, z = y_z[n:k], y_z[k:]
    shift = -jmineig(dims, z)
    if shift >= -1e-8:
        z = z + (1.0 + shift) * e
    return x, y, z, s


def _warm_point(form: StandardForm, e: np.ndarray, warm: Solution | None):
    """Starting point near an earlier optimum, or None when it does not fit.

    The warm start of Skajaa, Andersen and Ye 2013 for this embedding:
    x = lam x*, y = lam y*, s = lam s* + (1 - lam) e, z = lam z* + (1 - lam) e,
    tau = 1 and kappa = s'z / degree, with lam = _WARM_LAMBDA. It needs the
    dual iterate of an optimal solve whose x, y and z sizes match the program.
    """
    if warm is None or warm.y is None:
        return None
    if (warm.x.size, warm.y.size, warm.z.size) != (form.c.size, form.b.size, form.h.size):
        return None
    lam = _WARM_LAMBDA
    s = lam * warm.s + (1.0 - lam) * e
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
    cold initial point. A warm attempt that ends without a certificate
    within _WARM_MAX_ITER iterations, or breaks down, is dropped and the
    program is solved cold; the result then counts the work of both
    attempts and has stats.warm_restarts = 1.
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
    # a fresh solver, so that the cold solve chooses its column order as a
    # call without a warm start does and returns the same bytes
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

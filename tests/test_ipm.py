import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from ddopf.behavior import DataDrivenLineModel
from ddopf import ipm, mip
from ddopf.conic import ConicProgram, MixedBinaryProgram, SolveStats, check_feasibility
from ddopf.errors import NumericalBreakdown
from ddopf.excitation import generate_excitation
from ddopf.ipm import (
    _DENSE_LIMIT,
    _REG,
    _REG_MAX,
    ConeDims,
    KktSolver,
    NTScaling,
    StandardForm,
    _Plan,
    cone_e,
    jdiv,
    jprod,
    jmineig,
    max_step,
    solve_convex,
    standard_form,
)
from ddopf.microgrid import (
    build_mpc_step,
    default_config,
    default_grid,
    generate_profiles,
    initial_state,
)


def random_cone_point(rng, dims, margin=0.5):
    """Random strictly interior point of the cone."""
    v = np.empty(dims.total)
    v[: dims.orthant] = rng.uniform(margin, 3.0, size=dims.orthant)
    for cone in dims.soc_view(v):
        cone[1:] = rng.normal(size=2)
        cone[0] = np.linalg.norm(cone[1:]) + rng.uniform(margin, 2.0)
    return v


def closed_form_scaling(dims, s, z):
    """W, W^{-1} and W^2 applied blockwise from the closed forms of the NT
    scaling (Vandenberghe 2010, CVXOPT's coneqp): on each cone
    W v = eta M(wbar) v, W^{-1} v = M(J wbar) v / eta and
    W^2 v = eta^2 (2 (wbar' v) wbar - J v)."""
    l = dims.orthant
    sb, zb = dims.soc_view(s), dims.soc_view(z)

    def jdet_sqrt(u):
        n1 = np.linalg.norm(u[:, 1:], axis=1)
        return np.sqrt(np.maximum(u[:, 0] - n1, 1e-15 * u[:, 0]) * (u[:, 0] + n1))

    a_s, a_z = jdet_sqrt(sb), jdet_sqrt(zb)
    sbar, zbar = sb / a_s[:, None], zb / a_z[:, None]
    gamma = np.sqrt((1.0 + np.einsum("ij,ij->i", sbar, zbar)) / 2.0)
    wbar = (sbar + zbar * [1.0, -1.0, -1.0]) / (2.0 * gamma[:, None])
    eta = np.sqrt(a_s / a_z)

    def m_apply(w, v):
        dot = np.einsum("ij,ij->i", w[:, 1:], v[:, 1:])
        out = np.empty_like(v)
        out[:, 0] = w[:, 0] * v[:, 0] + dot
        out[:, 1:] = v[:, 1:] + (v[:, 0] + dot / (1.0 + w[:, 0]))[:, None] * w[:, 1:]
        return out

    def assemble(orth, soc):
        return lambda v: np.concatenate([orth * v[:l], soc(dims.soc_view(v)).ravel()])

    w_orth = np.sqrt(s[:l] / z[:l])
    apply_w = assemble(w_orth, lambda vb: eta[:, None] * m_apply(wbar, vb))
    apply_winv = assemble(
        1.0 / w_orth, lambda vb: m_apply(wbar * [1.0, -1.0, -1.0], vb) / eta[:, None]
    )
    apply_w2 = assemble(
        s[:l] / z[:l],
        lambda vb: (eta**2)[:, None]
        * (2.0 * np.einsum("ij,ij->i", wbar, vb)[:, None] * wbar - vb * [1.0, -1.0, -1.0]),
    )
    return apply_w, apply_winv, apply_w2


class TestConeAlgebra:
    dims = ConeDims(orthant=4, n_socs=2)
    cones_only = ConeDims(orthant=0, n_socs=3)

    def test_jordan_identity_element(self, rng):
        for dims in (self.dims, self.cones_only):
            u = random_cone_point(rng, dims)
            np.testing.assert_allclose(jprod(dims, cone_e(dims), u), u, atol=1e-14)

    def test_division_inverts_product(self, rng):
        for dims in (self.dims, self.cones_only):
            lam = random_cone_point(rng, dims)
            w = rng.normal(size=dims.total)
            x = jdiv(dims, lam, w)
            np.testing.assert_allclose(jprod(dims, lam, x), w, atol=1e-12)

    def test_nt_scaling_identities(self, rng):
        for _ in range(25):
            s = random_cone_point(rng, self.dims)
            z = random_cone_point(rng, self.dims)
            sc = NTScaling(self.dims, s, z)
            # lambda = W z = W^{-T} s, and W^{-1} W = id
            np.testing.assert_allclose(sc.lam, sc.apply_W(z), atol=1e-10)
            np.testing.assert_allclose(sc.lam, sc.apply_Winv(s), atol=1e-10)
            v = rng.normal(size=self.dims.total)
            np.testing.assert_allclose(sc.apply_Winv(sc.apply_W(v)), v, atol=1e-10)
            np.testing.assert_allclose(
                sc.apply_W2(v), sc.apply_W(sc.apply_W(v)), atol=1e-10
            )
            # scaled point is interior
            assert jmineig(self.dims, sc.lam) > 0

    def test_w2_soc_blocks_match_apply(self, rng):
        s = random_cone_point(rng, self.dims)
        z = random_cone_point(rng, self.dims)
        sc = NTScaling(self.dims, s, z)
        for k, blk in enumerate(sc.soc_w2):
            v = rng.normal(size=self.dims.total)
            np.testing.assert_allclose(
                blk @ self.dims.soc_view(v)[k], self.dims.soc_view(sc.apply_W2(v))[k], atol=1e-10
            )

    @pytest.mark.parametrize("orthant,n_socs", [(4, 2), (0, 3), (5, 0)])
    def test_stacked_blocks_match_closed_forms(self, rng, orthant, n_socs):
        dims = ConeDims(orthant, n_socs)
        for _ in range(10):
            s, z = random_cone_point(rng, dims), random_cone_point(rng, dims)
            sc = NTScaling(dims, s, z)
            applies = (sc.apply_W, sc.apply_Winv, sc.apply_W2)
            for stacked, closed in zip(applies, closed_form_scaling(dims, s, z)):
                v = rng.normal(size=dims.total)
                np.testing.assert_allclose(stacked(v), closed(v), rtol=1e-12, atol=1e-12)

    def test_max_step_is_boundary(self, rng):
        # the third shape has points as close as 1e-9 * u0 to the boundary
        balls = ConeDims(orthant=6, n_socs=8)
        for trial in range(150):
            dims = (self.cones_only, self.dims, balls)[trial % 3]
            u = random_cone_point(rng, dims)
            if dims is balls:
                for cone in dims.soc_view(u):
                    gap = 10.0 ** rng.uniform(-9.0, -1.0)
                    cone[0] = np.linalg.norm(cone[1:]) / (1.0 - gap)
            du = rng.normal(size=dims.total)
            alpha = max_step(dims, u, du)
            if math.isinf(alpha):
                for t in np.linspace(0.0, 10.0, 25):
                    assert jmineig(dims, u + t * du) >= -1e-9
            else:
                assert jmineig(dims, u + 0.999 * alpha * du) >= -1e-9
                assert jmineig(dims, u + 1.01 * alpha * du + 1e-9 * du) <= 1e-7

    @staticmethod
    def near_boundary(rng, dims, gap=1e-9, margin=0.5):
        """Interior point whose cones lie gap (relative) from the boundary."""
        u = random_cone_point(rng, dims, margin)
        for cone in dims.soc_view(u):
            cone[0] = np.linalg.norm(cone[1:]) / (1.0 - gap)
        return u

    def test_stacked_max_step_and_mineig_are_the_least_of_the_rows(self, rng):
        dims = ConeDims(orthant=6, n_socs=8)
        for trial in range(60):
            s = random_cone_point(rng, dims) if trial % 2 else self.near_boundary(rng, dims)
            z = random_cone_point(rng, dims)
            ds, dz = rng.normal(size=(2, dims.total))
            zs, dzs = np.array([z, s]), np.array([dz, ds])
            assert max_step(dims, zs, dzs) == min(max_step(dims, z, dz), max_step(dims, s, ds))
            assert jmineig(dims, zs) == min(jmineig(dims, z), jmineig(dims, s))

    def test_predictor_identity(self, rng):
        # -lam solves lam o x = -lam o lam, so the predictor's scaled
        # right-hand side W jdiv(lam, -lam o lam) is -W lam
        for trial in range(40):
            near = trial % 2 == 1
            lam = self.near_boundary(rng, self.dims) if near else random_cone_point(rng, self.dims)
            sq = jprod(self.dims, lam, lam)
            np.testing.assert_array_equal(jprod(self.dims, lam, -lam), -sq)
            if not near:
                # away from the boundary, jdiv itself reproduces -lam
                np.testing.assert_allclose(
                    jdiv(self.dims, lam, -sq), -lam, rtol=0, atol=1e-12 * np.abs(lam).max()
                )

    def test_corrector_identity(self, rng):
        # ds_a = -W lam - W^2 dz_a, so W^{-1} ds_a = -lam - W dz_a: the
        # corrector never applies W^{-1}
        for trial in range(40):
            near = trial % 2 == 1
            point = self.near_boundary if near else random_cone_point
            s, z = point(rng, self.dims), point(rng, self.dims)
            sc = NTScaling(self.dims, s, z)
            dz = rng.normal(size=self.dims.total)
            ds = -sc.apply_W(sc.lam) - sc.apply_W2(dz)
            winv_ds = -sc.lam - sc.apply_W(dz)
            scale = np.abs(ds).max()
            np.testing.assert_allclose(sc.apply_W(winv_ds), ds, rtol=0, atol=1e-12 * scale)
            if not near:
                # W^{-1} is well conditioned here: apply it and compare
                np.testing.assert_allclose(
                    sc.apply_Winv(ds), winv_ds, rtol=0, atol=1e-12 * np.abs(winv_ds).max()
                )


def plan_kkt(A, G, dims):
    """KktSolver over a _Plan of its own for A, G and dims, with zero c, b and h."""
    (p, n), m = A.shape, G.shape[0]
    form = StandardForm(c=np.zeros(n), b=np.zeros(p), h=np.zeros(m), plan=_Plan(A, G, dims))
    kkt = KktSolver(form)
    assert kkt.dense == (n + p + m <= _DENSE_LIMIT)
    return kkt


def random_kkt(rng, n, p, orth, n_socs):
    """KktSolver over random dense A and G with the given cone layout."""
    dims = ConeDims(orthant=orth, n_socs=n_socs)
    A = sp.csr_matrix(rng.normal(size=(p, n)))
    return plan_kkt(A, sp.csr_matrix(rng.normal(size=(dims.total, n))), dims)


def assert_matches_dense_assembly(rng, kkt, s, z):
    """Factor at NT(s, z), solve one random right-hand side and compare
    with np.linalg.solve on the explicitly assembled KKT matrix."""
    form, dims = kkt.form, kkt.form.dims
    n, p, m = kkt.n, kkt.p, kkt.m
    sc = NTScaling(dims, s, z)
    kkt.factor(sc)
    rhs = np.concatenate([rng.normal(size=n), rng.normal(size=p), rng.normal(size=m)])
    sol = kkt.solve(rhs)
    A, G = form.A.toarray(), form.G.toarray()
    w2 = np.column_stack([sc.apply_W2(col) for col in np.eye(m)])
    K = np.block(
        [
            [np.zeros((n, n)), A.T, G.T],
            [A, np.zeros((p, p)), np.zeros((p, m))],
            [G, np.zeros((m, p)), -w2],
        ]
    )
    np.testing.assert_allclose(sol, np.linalg.solve(K, rhs), atol=1e-8)


# the last case is above the dense limit: the sparse path, whose second
# factorization reuses the column order the first one chose
KKT_SHAPES = [(4, 2, 3, 1), (8, 3, 6, 3), (100, 30, 50, 30)]


class TestKktSolver:
    @pytest.mark.parametrize("n,p,orth,n_socs", KKT_SHAPES)
    def test_solve_matches_dense_assembly(self, rng, n, p, orth, n_socs):
        kkt = random_kkt(rng, n, p, orth, n_socs)
        dims = kkt.form.dims
        for _ in range(2):
            assert_matches_dense_assembly(
                rng, kkt, random_cone_point(rng, dims), random_cone_point(rng, dims)
            )

    def test_dense_fixed_part_matches_coo_assembly(self, rng):
        # the dense fixed part, the plan's CSR assembly as an array, equals
        # bit for bit the scatter of the COO entries of A, A', G and G' into
        # zeros
        for n, p, orth, n_socs in KKT_SHAPES[:2] * 3:
            form = random_kkt(rng, n, p, orth, n_socs).form
            mats = []
            for shape in (form.A.shape, form.G.shape):
                mat = sp.random(*shape, density=0.5, random_state=rng, format="csr")
                mat.data[::3] *= -1.0
                mat.data[::5] = -0.0  # explicit negative zeros
                mats.append(mat)
            kkt = plan_kkt(*mats, form.dims)
            A, G = mats[0].tocoo(), mats[1].tocoo()
            rows = np.concatenate([A.row + n, A.col, G.row + n + p, G.col])
            cols = np.concatenate([A.col, A.row + n, G.col, G.row + n + p])
            ref = np.zeros((kkt.dim, kkt.dim))
            np.add.at(ref, (rows, cols), np.concatenate([A.data, A.data, G.data, G.data]))
            assert kkt.dense
            np.testing.assert_array_equal(kkt.fixed.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("n,p,orth,n_socs", KKT_SHAPES[1:])
    def test_ill_scaled_solve_matches_dense_assembly(self, rng, n, p, orth, n_socs):
        # late-iteration scaling: orthant s/z spans 1e-8 to 1e8 and every
        # SOC point lies within 1e-9 (relative) of the cone boundary
        kkt = random_kkt(rng, n, p, orth, n_socs)
        dims = kkt.form.dims
        for _ in range(2):
            s = random_cone_point(rng, dims)
            z = random_cone_point(rng, dims)
            s[:orth] = 10.0 ** rng.uniform(-4.0, 4.0, size=orth)
            z[:orth] = 10.0 ** rng.uniform(-4.0, 4.0, size=orth)
            s[:2], z[:2] = [1e-4, 1e4], [1e4, 1e-4]
            for u in (s, z):
                for cone in dims.soc_view(u):
                    cone[0] = np.linalg.norm(cone[1:]) / (1.0 - 10.0 ** rng.uniform(-12.0, -9.0))
            ratio = s[:orth] / z[:orth]
            assert ratio.min() == pytest.approx(1e-8) and ratio.max() == pytest.approx(1e8)
            assert_matches_dense_assembly(rng, kkt, s, z)

    @pytest.mark.parametrize("n_rows", [2, 200])
    def test_structurally_singular_kkt_factors(self, rng, n_rows):
        # the last variable is in no row and has zero cost: its KKT column
        # holds only the static regularization (dense path, then sparse)
        n = n_rows + 1
        A_eq = np.hstack([rng.normal(size=(n_rows // 2, n_rows)), np.zeros((n_rows // 2, 1))])
        prog = ConicProgram.build(
            c=np.append(rng.normal(size=n_rows), 0.0),
            A_eq=A_eq,
            b_eq=np.zeros(n_rows // 2),
            lb=np.append(-np.ones(n_rows), -np.inf),
            ub=np.append(np.ones(n_rows), np.inf),
        )
        form = standard_form(prog)
        kkt = KktSolver(form)
        assert kkt.dense == (n_rows == 2)
        e = cone_e(form.dims)
        kkt.factor(NTScaling(form.dims, 2.0 * e, 2.0 * e))
        sol = kkt.solve(rng.normal(size=kkt.dim))
        assert np.all(np.isfinite(sol))
        assert kkt.stats.reg_bumps == 0
        assert_optimal(solve_convex(prog))

    def test_exactly_singular_dense_kkt_climbs_ladder(self, rng):
        # the last cone row holds no variable, and its W^2 entry cancels the
        # static regularization exactly: at _REG that KKT row is all zero, so
        # LAPACK's LU reports an exact zero pivot and the solve is not finite
        n, p, orth = 4, 2, 4
        G = np.vstack([rng.normal(size=(orth - 1, n)), np.zeros((1, n))])
        form = random_kkt(rng, n, p, orth, 0).form
        kkt = plan_kkt(form.A, sp.csr_matrix(G), form.dims)
        dims = kkt.form.dims
        s, z = random_cone_point(rng, dims), random_cone_point(rng, dims)
        s[-1], z[-1] = -_REG, 1.0
        with np.errstate(invalid="ignore"):
            scaling = NTScaling(dims, s, z)
        kkt.factor(scaling)
        assert kkt.dense and kkt._getrf(kkt._mat)[2] > 0
        # a right-hand side the exact operator reaches: K v with v = 0 on the
        # empty row, whose exact entry -W^2 = _REG no rung of the ladder holds
        A = kkt.form.A.toarray()
        K = np.block(
            [
                [np.zeros((n, n)), A.T, G.T],
                [A, np.zeros((p, p)), np.zeros((p, orth))],
                [G, np.zeros((orth, p)), -np.diag(s / z)],
            ]
        )
        v = rng.normal(size=n + p + orth)
        v[-1] = 0.0
        rhs = K @ v
        sol = kkt.solve(rhs)
        assert kkt.stats.reg_bumps == 1 and kkt.stats.factorizations == 2
        np.testing.assert_allclose(sol, v, atol=1e-10)

    def test_non_finite_solve_climbs_capped_ladder(self, rng, monkeypatch):
        kkt = random_kkt(rng, 8, 3, 6, 3)
        regs = []

        def non_finite(rhs):
            regs.append(kkt._current_reg)
            return np.full_like(rhs, np.nan)

        monkeypatch.setattr(kkt, "_raw_solve", non_finite)
        dims = kkt.form.dims
        kkt.factor(NTScaling(dims, random_cone_point(rng, dims), random_cone_point(rng, dims)))
        with pytest.raises(FloatingPointError):
            kkt.solve(np.zeros(kkt.dim))
        assert regs == pytest.approx([1e-14, 1e-11, 1e-8, 1e-5, 1e-4], rel=1e-12)
        assert max(regs) == _REG_MAX
        assert kkt.stats.reg_bumps == 4
        assert kkt.stats.factorizations == 5


class TestStandardForm:
    def test_row_layout(self):
        # 1 inequality row, ub finite on x0 and x2, lb finite on x1, ball (2, 3)
        prog = ConicProgram.build(
            c=np.zeros(4),
            A_in=[[1.0, 2.0, 0.0, 0.0]],
            b_in=[5.0],
            lb=[-np.inf, -1.5, -np.inf, -np.inf],
            ub=[0.5, np.inf, 0.25, np.inf],
            balls=[(2, 3)],
        )
        form = standard_form(prog)
        assert form.dims.orthant == 4
        assert form.dims.n_socs == 1
        np.testing.assert_array_equal(
            form.G.toarray(),
            [
                [1.0, 2.0, 0.0, 0.0],  # A_in
                [1.0, 0.0, 0.0, 0.0],  # ub of x0
                [0.0, 0.0, 1.0, 0.0],  # ub of x2
                [0.0, -1.0, 0.0, 0.0],  # lb of x1
                [0.0, 0.0, 0.0, 0.0],  # ball head
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
            ],
        )
        np.testing.assert_array_equal(form.h, [5.0, 0.5, 0.25, 1.5, 1.0, 0.0, 0.0])

    def test_placeholder_row_without_cone_rows(self):
        form = standard_form(ConicProgram.build(c=[1.0, -1.0], A_eq=[[1.0, 1.0]], b_eq=[2.0]))
        assert form.dims.orthant == 1
        assert form.dims.n_socs == 0
        np.testing.assert_array_equal(form.G.toarray(), [[0.0, 0.0]])
        np.testing.assert_array_equal(form.h, [1.0])


def assert_optimal(sol, tol=1e-8):
    assert sol.status == "optimal"
    assert max(sol.kkt_residuals) <= tol


class TestAnalyticPrograms:
    def test_min_x0_over_disk(self):
        prog = ConicProgram.build(c=[1.0, 0.0], balls=[(0, 1)])
        sol = solve_convex(prog)
        assert_optimal(sol)
        assert sol.objective == pytest.approx(-1.0, abs=1e-8)
        assert sol.x[0] == pytest.approx(-1.0, abs=1e-6)

    def test_diagonal_disk_optimum(self):
        prog = ConicProgram.build(c=[-1.0, -1.0], balls=[(0, 1)])
        sol = solve_convex(prog)
        assert_optimal(sol)
        assert sol.objective == pytest.approx(-math.sqrt(2.0), abs=1e-8)
        np.testing.assert_allclose(sol.x, [math.sqrt(2) / 2] * 2, atol=1e-6)

    def test_contradictory_equalities_infeasible(self):
        prog = ConicProgram.build(
            c=[0.0], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]
        )
        sol = solve_convex(prog)
        assert sol.status == "infeasible"

    def test_contradictory_bounds_infeasible(self):
        prog = ConicProgram.build(c=[1.0], lb=[1.0], ub=[0.0])
        sol = solve_convex(prog)
        assert sol.status == "infeasible"

    def test_unbounded_direction(self):
        prog = ConicProgram.build(c=[-1.0, 0.0], lb=[0.0, 0.0], ub=[np.inf, 1.0])
        sol = solve_convex(prog)
        assert sol.status == "unbounded"

    def test_box_lp(self):
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[1.0])
        sol = solve_convex(prog)
        assert_optimal(sol)
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    def test_pure_equality_program(self):
        prog = ConicProgram.build(c=[1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[0.5])
        # objective decreases along (t, t - 0.5): unbounded below? c'x = 2t - 0.5
        sol = solve_convex(prog)
        assert sol.status == "unbounded"

    def test_equality_pinned_point(self):
        prog = ConicProgram.build(
            c=[1.0, 1.0], A_eq=[[1.0, 0.0], [0.0, 1.0]], b_eq=[0.3, -0.2]
        )
        sol = solve_convex(prog)
        assert_optimal(sol)
        np.testing.assert_allclose(sol.x, [0.3, -0.2], atol=1e-8)


def random_lp(rng, n=6, p=2, m=8):
    x0 = rng.uniform(-1.0, 1.0, size=n)
    A_eq = rng.normal(size=(p, n))
    b_eq = A_eq @ x0
    A_in = rng.normal(size=(m, n))
    b_in = A_in @ x0 + rng.uniform(0.05, 1.0, size=m)
    lb = x0 - rng.uniform(0.5, 2.0, size=n)
    ub = x0 + rng.uniform(0.5, 2.0, size=n)
    c = rng.normal(size=n)
    return ConicProgram.build(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub)


def infeasible_lp(rng):
    """A random_lp and its neighbour of the same sizes whose first inequality
    row asks for less than that row's minimum over the box."""
    feasible = random_lp(rng)
    a = feasible.A_in[[0]].toarray().ravel()
    b_in = feasible.b_in.copy()
    b_in[0] = np.minimum(a * feasible.lb, a * feasible.ub).sum() - rng.uniform(0.1, 1.0)
    return feasible, dataclasses.replace(feasible, b_in=b_in)


def unbounded_lp(rng, n=6, p=2, m=8):
    """A bounded LP and its neighbour of the same sizes whose objective falls
    along the program's one recession direction, e_0."""
    x0 = rng.uniform(-1.0, 1.0, size=n)
    A_eq = rng.normal(size=(p, n))
    A_eq[:, 0] = 0.0
    A_in = rng.normal(size=(m, n))
    A_in[:, 0] = -np.abs(A_in[:, 0])
    lb = x0 - rng.uniform(0.5, 2.0, size=n)
    ub = x0 + rng.uniform(0.5, 2.0, size=n)
    ub[0] = np.inf
    c = rng.normal(size=n)
    c[0] = rng.uniform(0.1, 1.0)
    bounded = ConicProgram.build(
        c=c, A_eq=A_eq, b_eq=A_eq @ x0, A_in=A_in,
        b_in=A_in @ x0 + rng.uniform(0.05, 1.0, size=m), lb=lb, ub=ub,
    )
    c = c.copy()
    c[0] = -c[0]
    return bounded, dataclasses.replace(bounded, c=c)


def highs(prog):
    return scipy.optimize.linprog(
        prog.c,
        A_ub=prog.A_in.toarray(),
        b_ub=prog.b_in,
        A_eq=prog.A_eq.toarray(),
        b_eq=prog.b_eq,
        bounds=list(zip(prog.lb, prog.ub)),
        method="highs",
    )


class TestAgainstLinprog:
    def test_random_lps_match_highs(self, rng):
        for trial in range(40):
            prog = random_lp(rng)
            ref = highs(prog)
            sol = solve_convex(prog)
            assert ref.status == 0, "generator should produce feasible bounded LPs"
            assert_optimal(sol)
            assert sol.objective == pytest.approx(ref.fun, abs=2e-7, rel=2e-7)
            assert check_feasibility(prog, sol.x) <= 1e-7

    @pytest.mark.parametrize(
        "neighbours, status, highs_status",
        [(infeasible_lp, "infeasible", 2), (unbounded_lp, "unbounded", 3)],
        ids=["infeasible", "unbounded"],
    )
    def test_certificates_match_highs_cold_and_warm(self, rng, neighbours, status, highs_status):
        # warm-started from the optimum of a feasible neighbour of the same
        # sizes, as an enumeration node starts from the node before it
        for trial in range(20):
            feasible, prog = neighbours(rng)
            assert highs(prog).status == highs_status
            warm = solve_convex(feasible)
            assert_optimal(warm)
            assert solve_convex(prog).status == status
            assert solve_convex(prog, warm_start=warm).status == status


def random_known_socp(rng, n=8, p=2, m=6, n_balls=2):
    """Program constructed around a KKT point: optimum value is known exactly."""
    x = rng.uniform(-0.9, 0.9, size=n)
    # scale ball pairs: first active (норм 1), rest inactive
    pairs = [(2 * k, 2 * k + 1) for k in range(n_balls)]
    mults = []
    for idx, (i, j) in enumerate(pairs):
        r = math.hypot(x[i], x[j])
        if idx == 0 and r > 1e-6:
            x[i], x[j] = x[i] / r, x[j] / r
            mults.append(rng.uniform(0.2, 1.0))
        else:
            x[i], x[j] = 0.5 * x[i] / max(r, 0.5), 0.5 * x[j] / max(r, 0.5)
            mults.append(0.0)
    A_eq = rng.normal(size=(p, n))
    b_eq = A_eq @ x
    y = rng.normal(size=p)
    A_in = rng.normal(size=(m, n))
    lam = np.zeros(m)
    b_in = A_in @ x + rng.uniform(0.1, 1.0, size=m)
    active = rng.choice(m, size=m // 2, replace=False)
    lam[active] = rng.uniform(0.2, 1.0, size=active.size)
    b_in[active] = A_in[active] @ x
    grad_balls = np.zeros(n)
    for (i, j), mu in zip(pairs, mults):
        grad_balls[i] += mu * 2 * x[i]
        grad_balls[j] += mu * 2 * x[j]
    c = -(A_eq.T @ y + A_in.T @ lam + grad_balls)
    prog = ConicProgram.build(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, balls=pairs)
    return prog, float(c @ x)


class TestKnownSocp:
    def test_random_known_optima(self, rng):
        for trial in range(40):
            prog, opt = random_known_socp(rng)
            sol = solve_convex(prog)
            assert_optimal(sol)
            assert sol.objective == pytest.approx(opt, abs=2e-7, rel=2e-7)
            assert check_feasibility(prog, sol.x) <= 1e-7

    def test_duality_gap_certificate(self, rng):
        prog, _ = random_known_socp(rng)
        sol = solve_convex(prog, tol=1e-9)
        assert sol.dual_objective == pytest.approx(sol.objective, abs=1e-7)


class TestSolveStats:
    def test_counts_of_optimal_solve(self, rng):
        prog, _ = random_known_socp(rng)
        sol = solve_convex(prog)
        assert_optimal(sol)
        st = sol.stats
        # one factorization for the initial point plus one per iteration;
        # two initial solves plus three per iteration
        assert st.iterations == sol.iterations
        assert st.factorizations == sol.iterations + 1
        assert st.kkt_solves == 3 * sol.iterations + 2
        assert st.reg_bumps == 0
        assert 0 <= st.refinements <= 4 * st.kkt_solves

    def test_case_study_node_refines_rarely(self):
        # the root node of the case study's first dd-convex MPC step
        sol = solve_convex(case_study_step().base, tol=1e-8)
        assert_optimal(sol)
        assert sol.stats.factorizations == sol.iterations + 1
        assert sol.stats.refinements <= 0.2 * sol.stats.kkt_solves


def solution_bytes(sol, adopted=False):
    """Arrays and counts of an optimal solve as bytes. adopted: the solve
    started cold from the W = I factorization an earlier solve of its
    structure made, so it ran one factorization fewer than one that makes
    it; that one is counted back in."""
    stats = dataclasses.replace(sol.stats, factorizations=sol.stats.factorizations + adopted)
    return [sol.x.tobytes(), sol.y.tobytes(), sol.z.tobytes(), sol.s.tobytes(),
            repr((sol.status, sol.objective, sol.kkt_residuals, sol.iterations)),
            dataclasses.astuple(stats)]


def case_study_step(variant="dd-convex"):
    """The MPC program of the case study's first step."""
    grid, config = default_grid(), default_config()
    model = DataDrivenLineModel.from_trajectory(generate_excitation(grid, 9, seed=2024))
    window = generate_profiles(2024, 12, config).window(0, config.horizon)
    prog, _ = build_mpc_step(config, grid, variant, initial_state(config), window, model)
    return prog


def lu_bytes(lu, piv, splu):
    """Bytes of the dense factors (lu, piv) or of the SuperLU factors."""
    if splu is None:
        return [lu.tobytes(), piv.tobytes()]
    out = [splu.perm_c.tobytes(), splu.perm_r.tobytes()]
    for m in (splu.L, splu.U):
        out.append(m.data.tobytes() + m.indices.tobytes() + m.indptr.tobytes())
    return out


def kkt_bytes(kkt, rhs):
    """Bytes of kkt's solve of rhs, its factors and the matrix it factored."""
    sol = kkt.solve(rhs).tobytes()
    return [sol, kkt._values.tobytes(), *lu_bytes(kkt._lu, kkt._piv, kkt._splu)]


def factor_bytes(kkt, s, z, rhs):
    """Bytes of two factorizations of kkt at NT(s, z) and solves of rhs."""
    out = []
    for _ in range(2):
        kkt.factor(NTScaling(kkt.form.dims, s, z))
        out += kkt_bytes(kkt, rhs)
    return out


def plan_bytes(plan):
    """Bytes of every KKT array of a _Plan, its W = I factorization's included."""
    fixed = plan.fixed
    out = [fixed.tobytes()] if isinstance(fixed, np.ndarray) else [fixed.data.tobytes()]
    for name in ("w_pos", "reg_sign", "values", "indices", "indptr", "perm", "iperm"):
        if hasattr(plan, name):
            out.append(getattr(plan, name).tobytes())
    scaling, lu, piv, splu = plan.eye
    return out + [scaling.w2_orth.tobytes(), scaling.soc_w2.tobytes(), *lu_bytes(lu, piv, splu)]


class TestSharedSetup:
    # the second size is above the dense limit: the sparse path
    @pytest.mark.parametrize("n,p,m,n_balls", [(8, 2, 6, 2), (80, 20, 150, 10)])
    def test_shared_setup_factors_the_bytes_of_a_fresh_one(self, rng, n, p, m, n_balls):
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        assert_optimal(solve_convex(prog))  # builds the structure's set-up
        shared = perturbed(prog, rng)
        plain = dataclasses.replace(shared, structure=None)
        shared_form, plain_form = standard_form(shared), standard_form(plain)
        plan = prog.structure.solver
        assert shared.structure is prog.structure and plain.structure is not prog.structure
        assert shared_form.plan is plan and shared_form.G is plan.G
        assert plain_form.plan is not plan and plain_form.G is not plan.G
        shared_kkt, plain_kkt = KktSolver(shared_form), KktSolver(plain_form)
        assert shared_kkt.dense == (n + p + m + 3 * n_balls <= _DENSE_LIMIT)
        assert shared_kkt._plan is plan and plain_kkt._plan is not plan
        assert shared_kkt.fixed is plan.fixed
        dims = shared_form.dims
        s, z = random_cone_point(rng, dims), random_cone_point(rng, dims)
        rhs = rng.normal(size=shared_kkt.dim)
        assert factor_bytes(shared_kkt, s, z, rhs) == factor_bytes(plain_kkt, s, z, rhs)
        # shared starts from the W = I factorization prog's solve made
        assert solution_bytes(solve_convex(shared), adopted=True) == solution_bytes(
            solve_convex(plain)
        )

    @pytest.mark.parametrize("n,p,m,n_balls", [(8, 2, 6, 2), (80, 20, 150, 10)])
    def test_shared_cold_start_factors_the_bytes_of_a_fresh_one(self, rng, n, p, m, n_balls):
        # a solver of the structure adopts the W = I factorization its first
        # solve made; one of its own makes it: the same bytes either way
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        assert_optimal(solve_convex(prog))
        shared = perturbed(prog, rng)
        shared_kkt = KktSolver(standard_form(shared))
        plain_kkt = KktSolver(standard_form(dataclasses.replace(shared, structure=None)))
        assert shared_kkt._plan is prog.structure.solver is not plain_kkt._plan
        rhs = rng.normal(size=shared_kkt.dim)
        out = []
        for kkt in (shared_kkt, plain_kkt):
            kkt.factor_identity(cone_e(kkt.form.dims))
            out.append(kkt_bytes(kkt, rhs))
        assert out[0] == out[1]
        assert (shared_kkt.stats.factorizations, plain_kkt.stats.factorizations) == (0, 1)
        assert shared_kkt._lu is shared_kkt._plan.eye[1]
        assert shared_kkt._splu is shared_kkt._plan.eye[3]

    def test_new_finite_bound_pattern_gets_its_own_setup(self, rng):
        prog, _ = random_known_socp(rng)
        assert_optimal(solve_convex(prog))
        first = prog.structure.solver
        boxed = dataclasses.replace(prog, ub=np.where(np.arange(prog.n) == 0, 5.0, np.inf))
        sol = solve_convex(boxed)
        second = prog.structure.solver
        assert second is not first and second.G.shape[0] == first.G.shape[0] + 1
        plain = dataclasses.replace(boxed, structure=None)
        assert solution_bytes(sol) == solution_bytes(solve_convex(plain))
        # the first pattern again: the slot holds one plan, so it is rebuilt
        assert solution_bytes(solve_convex(prog)) == solution_bytes(
            solve_convex(dataclasses.replace(prog, structure=None))
        )
        assert prog.structure.solver not in (first, second)

    @pytest.mark.parametrize("n,p,m,n_balls", [(8, 2, 6, 2), (80, 20, 150, 10)])
    def test_replaced_matrix_gets_a_structure_of_its_own(self, rng, n, p, m, n_balls):
        # a program derived with another A_eq gets a structure that owns it:
        # its solves are those of a fresh build, and the old structure's
        # plan is never read
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        assert_optimal(solve_convex(prog))
        # rows scaled by d: the same feasible set and optimum, other bytes
        d = rng.uniform(0.5, 2.0, size=p)
        moved = dataclasses.replace(
            prog, A_eq=sp.csr_matrix(sp.diags(d) @ prog.A_eq), b_eq=d * prog.b_eq
        )
        assert moved.structure is not prog.structure and moved.structure.owns(moved)
        fresh = ConicProgram.build(
            c=moved.c, A_eq=moved.A_eq.copy(), b_eq=moved.b_eq, A_in=moved.A_in.copy(),
            b_in=moved.b_in, lb=moved.lb, ub=moved.ub, balls=moved.balls,
        )

        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"the old structure's plan was read: {name}")

        prog.structure.solver = Unreadable()
        # twice: the second solves, of looser inequalities so that they are
        # solved and not reused, adopt the W = I factorization of the first
        for _ in range(2):
            assert solution_bytes(solve_convex(moved)) == solution_bytes(solve_convex(fresh))
            b_in = moved.b_in + rng.uniform(0.0, 0.05, size=moved.b_in.size)
            moved, fresh = (dataclasses.replace(q, b_in=b_in) for q in (moved, fresh))


class TestFactorPlan:
    @pytest.mark.parametrize("n,p,m,n_balls", [(8, 2, 6, 2), (80, 20, 150, 10)])
    def test_cold_solve_adopting_the_identity_factorization(self, rng, n, p, m, n_balls):
        # the first cold solve of a structure makes the W = I factorization
        # and counts it; a later one, of other right-hand sides so that it
        # is solved and not reused, adopts it, runs one factorization fewer
        # and returns the bytes of a solve on a fresh structure
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        first = solve_convex(prog)
        assert_optimal(first)
        assert prog.structure.solver.eye is not None
        assert first.stats.factorizations == first.iterations + 1
        nxt = perturbed(prog, rng)
        again = solve_convex(nxt)
        assert again.stats.factorizations == again.iterations
        fresh = solve_convex(dataclasses.replace(nxt, structure=None))
        assert fresh.stats.factorizations == fresh.iterations + 1
        assert solution_bytes(again, adopted=True) == solution_bytes(fresh)

    @pytest.mark.parametrize("n,p,m,n_balls", [(8, 2, 6, 2), (80, 20, 150, 10)])
    def test_regularization_bump_leaves_the_shared_factorization(
        self, rng, monkeypatch, n, p, m, n_balls
    ):
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        assert_optimal(solve_convex(prog))
        plan = prog.structure.solver
        before = plan_bytes(plan)
        kkt = KktSolver(standard_form(prog))
        kkt.factor_identity(cone_e(kkt.form.dims))
        adopted = kkt._values.copy()
        # the first solve at W = I comes out non-finite: one bump, which
        # refactors into the solver's own buffers
        raw_solve, regs = kkt._raw_solve, []

        def first_non_finite(rhs):
            regs.append(kkt._current_reg)
            sol = raw_solve(rhs)
            return np.full_like(sol, np.nan) if len(regs) == 1 else sol

        monkeypatch.setattr(kkt, "_raw_solve", first_non_finite)
        assert np.isfinite(kkt.solve(rng.normal(size=kkt.dim))).all()
        assert regs[:2] == pytest.approx([_REG, 1e3 * _REG], rel=1e-12)
        assert (kkt.stats.reg_bumps, kkt.stats.factorizations) == (1, 1)
        factors = kkt._lu if kkt.dense else kkt._splu
        assert factors is not plan.eye[1 if kkt.dense else 3]
        assert not np.array_equal(kkt._values, adopted)
        assert plan_bytes(plan) == before

    def test_colamd_runs_once_per_structure(self, monkeypatch):
        # a 16-node enumeration of one reduced structure orders its KKT
        # pattern once; every factorization after that is in natural order
        prog = case_study_step()
        specs = []
        splu = ipm.spla.splu

        def recording(*args, **kwargs):
            specs.append(kwargs.get("permc_spec"))
            return splu(*args, **kwargs)

        monkeypatch.setattr(ipm.spla, "splu", recording)
        enum = mip.solve_mixed_binary(
            MixedBinaryProgram(prog.base, prog.binary_indices[:4]), strategy="enumerate", tol=1e-8
        )
        assert_optimal(enum)
        assert enum.node_count == 16
        assert len(specs) - specs.count("NATURAL") == 1
        assert specs.count("NATURAL") == enum.stats.factorizations

    def test_late_iterations_meet_the_refinement_test(self, monkeypatch):
        # every KKT solve of the last three iterations of each node of a
        # case-study enumeration, where W^2 spans many orders of magnitude:
        # the search directions meet solve()'s refinement test, and every
        # solve, the one of -q included, has a roundoff-level backward error
        prog = case_study_step()
        solves = {}
        solve = KktSolver.solve

        def recording(self, rhs):
            sol = solve(self, rhs)
            solves.setdefault(self, []).append((self.scaling, rhs, sol))
            return sol

        monkeypatch.setattr(KktSolver, "solve", recording)
        enum = mip.solve_mixed_binary(
            MixedBinaryProgram(prog.base, prog.binary_indices[:4]), strategy="enumerate", tol=1e-8
        )
        assert_optimal(enum)
        assert enum.stats.reg_bumps == 0 and len(solves) == 16
        checked = 0
        for kkt, records in solves.items():
            k = kkt.n + kkt.p
            late = records[-9:]  # three iterations of three solves each
            assert len({id(scaling) for scaling, _, _ in late}) == 3
            for i, (scaling, rhs, sol) in enumerate(late):
                K = kkt.fixed + sp.block_diag(
                    [sp.csr_matrix((k, k)), sp.diags(-scaling.w2_orth), *-scaling.soc_w2]
                )
                err = np.abs(rhs - K @ sol).max()
                norm_k = np.abs(K).sum(axis=1).max()
                assert err <= 1e-15 * (norm_k * np.abs(sol).max() + np.abs(rhs).max())
                if i % 3:
                    assert err <= 1e-12 * max(1.0, np.abs(rhs).max())
                checked += 1
        assert checked == 16 * 9


def certificate_bytes(sol):
    """Arrays and certificate of a convex solve as bytes, its stats left out."""
    arrays = [None if a is None else a.tobytes() for a in (sol.x, sol.y, sol.z, sol.s)]
    return arrays + [
        repr((sol.status, sol.objective, sol.kkt_residuals, sol.iterations, sol.dual_objective))
    ]


class TestColdSolveReuse:
    # the second size is above the dense limit: the sparse path
    SIZES = pytest.mark.parametrize("n,p,m,n_balls", [(8, 2, 6, 2), (80, 20, 150, 10)])

    @SIZES
    @pytest.mark.parametrize("max_iter", [100, 3])
    def test_repeat_returns_the_bytes_of_a_fresh_solve(self, rng, n, p, m, n_balls, max_iter):
        # a repeated cold solve, optimal or not, is not run again: it returns
        # the bytes a solve on a fresh structure gives, and reports no work
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        first = solve_convex(prog, max_iter=max_iter)
        assert first.status == ("optimal" if max_iter == 100 else "tolerance_not_met")
        assert prog.structure.solver.dense == (n + p + m + 3 * n_balls <= _DENSE_LIMIT)
        t0 = time.perf_counter()
        again = solve_convex(prog, max_iter=max_iter)
        elapsed = time.perf_counter() - t0
        assert again.stats == SolveStats(reused=1)
        # its own call's time, not the earlier solve's
        assert 0.0 < again.solve_time <= elapsed
        fresh = solve_convex(dataclasses.replace(prog, structure=None), max_iter=max_iter)
        assert fresh.stats.reused == 0 and fresh.stats.iterations > 0
        assert certificate_bytes(again) == certificate_bytes(fresh) == certificate_bytes(first)

    @SIZES
    def test_other_data_limits_or_a_warm_start_miss(self, rng, monkeypatch, n, p, m, n_balls):
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        # finite bounds, so that lb and ub are rows of h
        prog = dataclasses.replace(prog, lb=np.full(n, -10.0), ub=np.full(n, 10.0))
        first = solve_convex(prog)
        assert_optimal(first)
        plan = prog.structure.solver

        def moved(name, by):
            value = getattr(prog, name).copy()
            value[0] += by
            return dataclasses.replace(prog, **{name: value})

        changes = [
            lambda: solve_convex(moved("c", 1e-3)),
            lambda: solve_convex(moved("b_eq", 1e-3)),
            lambda: solve_convex(moved("b_in", 1e-3)),
            lambda: solve_convex(moved("lb", -1.0)),
            lambda: solve_convex(moved("ub", 1.0)),
            lambda: solve_convex(prog, tol=1e-9),
            lambda: solve_convex(prog, max_iter=99),
        ]
        for change in changes:
            solve_convex(prog)  # the plan's last solve is prog's again
            sol = change()
            assert prog.structure.solver is plan
            assert sol.stats.reused == 0 and sol.stats.iterations == sol.iterations > 0
        # a fitting warm start solves warm and leaves the kept solve; so does
        # the cold solve after a dropped warm attempt
        solve_convex(prog)
        kept = plan.last
        warm = solve_convex(prog, warm_start=first)
        assert (warm.stats.reused, warm.stats.warm_restarts) == (0, 0)
        assert 0 < warm.stats.iterations < first.iterations
        monkeypatch.setattr(ipm, "_WARM_MAX_ITER", 1)
        restarted = solve_convex(prog, warm_start=first)
        assert (restarted.stats.reused, restarted.stats.warm_restarts) == (0, 1)
        assert plan.last is kept
        again = solve_convex(prog)
        assert again.stats == SolveStats(reused=1)
        assert restarted.x.tobytes() == again.x.tobytes() != warm.x.tobytes()

    @SIZES
    def test_writes_into_a_result_leave_the_kept_solve(self, rng, n, p, m, n_balls):
        prog, _ = random_known_socp(rng, n, p, m, n_balls)
        first = solve_convex(prog)
        expected = certificate_bytes(first)
        for sol in (first, solve_convex(prog)):
            for name in ("x", "y", "z", "s"):
                getattr(sol, name)[:] = np.nan
        again = solve_convex(prog)
        assert again.stats == SolveStats(reused=1)
        assert certificate_bytes(again) == expected


def perturbed(prog, rng):
    """prog with its b_eq moved by N(0, 0.01) and its b_in loosened by up to 0.05."""
    return dataclasses.replace(
        prog,
        b_eq=prog.b_eq + rng.normal(scale=1e-2, size=prog.b_eq.size),
        b_in=prog.b_in + rng.uniform(0.0, 0.05, size=prog.b_in.size),
    )


class TestWarmStart:
    def test_optimal_solve_carries_scaled_dual_iterate(self, rng):
        prog, _ = random_known_socp(rng)
        sol = solve_convex(prog)
        assert_optimal(sol)
        form = standard_form(prog)
        # the scaled iterate is primal-dual feasible to the solve's tolerance
        np.testing.assert_allclose(form.G @ sol.x + sol.s, form.h, atol=1e-7)
        np.testing.assert_allclose(form.A.T @ sol.y + form.G.T @ sol.z, -form.c, atol=1e-7)
        assert jmineig(form.dims, sol.s) > 0 and jmineig(form.dims, sol.z) > 0
        unsolved = solve_convex(prog, max_iter=2)
        assert unsolved.status == "tolerance_not_met"
        assert unsolved.y is None and unsolved.z is None and unsolved.s is None

    def test_data_change_solves_warm_in_fewer_iterations(self, rng):
        for trial in range(8):
            prog = random_lp(rng) if trial % 2 == 0 else random_known_socp(rng)[0]
            first = solve_convex(prog)
            assert_optimal(first)
            nxt = perturbed(prog, rng)
            cold = solve_convex(nxt)
            warm = solve_convex(nxt, warm_start=first)
            assert_optimal(cold)
            assert_optimal(warm)
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-8 * max(1.0, abs(cold.objective))
            )
            assert warm.iterations < cold.iterations
            # no initial-point factorization: one per iteration
            assert warm.stats.factorizations == warm.iterations == warm.stats.iterations
            assert warm.stats.kkt_solves == 3 * warm.iterations
            assert warm.stats.warm_restarts == 0

    def test_mismatched_sizes_start_cold(self, rng):
        small = solve_convex(random_lp(rng, n=5))
        prog = random_lp(rng)
        solve_convex(prog)  # the plan's last cold solve, which both solves below reuse
        cold = solve_convex(prog)
        warm = solve_convex(prog, warm_start=small)
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.y.tobytes() == cold.y.tobytes()
        assert (warm.iterations, warm.stats) == (cold.iterations, cold.stats)

    def test_unfinished_warm_attempt_restarts_cold(self, rng, monkeypatch):
        prog = random_lp(rng)
        nxt = perturbed(prog, rng)
        # first makes the W = I factorization that cold and the restart adopt
        first = solve_convex(prog)
        cold = solve_convex(nxt)
        monkeypatch.setattr(ipm, "_WARM_MAX_ITER", 1)
        sol = solve_convex(nxt, warm_start=first)
        assert_optimal(sol)
        assert sol.x.tobytes() == cold.x.tobytes()
        # one warm iteration (one factorization, three KKT solves) and the
        # cold solve, all counted by the one call
        assert sol.iterations == cold.iterations + 1
        st = sol.stats
        assert st.warm_restarts == 1
        assert st.iterations == cold.stats.iterations + 1
        assert st.factorizations == cold.stats.factorizations + 1
        assert st.kkt_solves == cold.stats.kkt_solves + 3

    def test_broken_down_warm_attempt_restarts_cold(self, rng, monkeypatch):
        prog = random_lp(rng)
        nxt = perturbed(prog, rng)
        first, cold = solve_convex(prog), solve_convex(nxt)
        factor = KktSolver.factor
        solvers = []

        def failing_first_solver(self, scaling):
            if not solvers:
                solvers.append(self)
            if self is solvers[0]:
                raise FloatingPointError("injected factorization failure")
            factor(self, scaling)

        monkeypatch.setattr(KktSolver, "factor", failing_first_solver)
        sol = solve_convex(nxt, warm_start=first)
        assert sol.x.tobytes() == cold.x.tobytes()
        assert sol.stats.warm_restarts == 1
        assert sol.stats.iterations == cold.stats.iterations

    def test_infeasible_neighbour_stays_infeasible(self):
        # x0 + x1 = b on the unit box: b = 1 is feasible, b = 3 is not
        def box_sum(b):
            return ConicProgram.build(
                c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[b], lb=[0.0, 0.0], ub=[1.0, 1.0]
            )

        feasible = solve_convex(box_sum(1.0))
        assert_optimal(feasible)
        sol = solve_convex(box_sum(3.0), warm_start=feasible)
        assert sol.status == "infeasible"
        assert sol.y is None
        assert sol.stats.warm_restarts == 0

    def test_stats_count_iterations_past_the_best_iterate(self, rng):
        # below roundoff the iterates stall, so the best one comes early
        sol = solve_convex(random_lp(rng), tol=1e-16, max_iter=40)
        assert sol.status == "tolerance_not_met"
        assert sol.iterations < sol.stats.iterations == 40

    def test_warm_point_formula(self, rng):
        prog, _ = random_known_socp(rng)
        sol = solve_convex(prog)
        form = standard_form(perturbed(prog, rng))
        e = cone_e(form.dims)
        x, y, z, s, tau, kappa = ipm._warm_point(form, e, sol)
        lam, orth = ipm._WARM_LAMBDA, form.dims.orthant
        # the orthant slack is the one x* leaves in the program being solved,
        # the SOC slack the earlier solve's
        slack = sol.s.copy()
        slack[:orth] = np.maximum(form.h[:orth] - (form.G @ sol.x)[:orth], 0.0)
        np.testing.assert_array_equal(x, lam * sol.x)
        np.testing.assert_array_equal(y, lam * sol.y)
        np.testing.assert_array_equal(z, lam * sol.z + (1.0 - lam) * e)
        np.testing.assert_array_equal(s, lam * slack + (1.0 - lam) * e)
        assert tau == 1.0
        assert kappa == pytest.approx((s @ z) / form.dims.degree, rel=1e-15)
        assert ipm._warm_point(form, e, None) is None

    def test_moved_rows_start_from_their_new_slack(self, rng):
        # an LP with a known interior point x0; at its optimum x* some rows
        # of A_in are active
        n, p, m = 6, 2, 8
        x0 = rng.uniform(-1.0, 1.0, size=n)
        A_eq, A_in = rng.normal(size=(p, n)), rng.normal(size=(m, n))
        prog = ConicProgram.build(
            c=rng.normal(size=n), A_eq=A_eq, b_eq=A_eq @ x0, A_in=A_in,
            b_in=A_in @ x0 + rng.uniform(0.05, 1.0, size=m),
            lb=x0 - rng.uniform(0.5, 2.0, size=n), ub=x0 + rng.uniform(0.5, 2.0, size=n),
        )
        first = solve_convex(prog)
        assert_optimal(first)
        # tighten every active row halfway back to x0, which x* then
        # violates and x0 still meets; loosen every other row by 0.3
        at_x0, at_opt = A_in @ x0, A_in @ first.x
        active = prog.b_in - at_opt < 1e-6
        assert active.any() and not active.all()
        b_in = np.where(active, 0.5 * (at_x0 + at_opt), prog.b_in + 0.3)
        moved = dataclasses.replace(prog, b_in=b_in)
        form = standard_form(moved)
        e = cone_e(form.dims)
        lam, orth = ipm._WARM_LAMBDA, form.dims.orthant
        s = ipm._warm_point(form, e, first)[3]
        new_slack = form.h[:orth] - (form.G @ first.x)[:orth]
        assert (new_slack[:m][active] < 0).all() and (new_slack[:m][~active] > 0.3).all()
        np.testing.assert_array_equal(s[:orth], lam * np.maximum(new_slack, 0.0) + (1.0 - lam))
        np.testing.assert_array_equal(s[:m][active], 1.0 - lam)
        assert (s[:m][~active] > lam * first.s[:m][~active] + (1.0 - lam) + 0.26).all()

        cold = solve_convex(moved)
        warm = solve_convex(moved, warm_start=first)
        assert_optimal(cold)
        assert_optimal(warm)
        assert warm.stats.warm_restarts == 0
        assert warm.objective == pytest.approx(
            cold.objective, abs=1e-8 * max(1.0, abs(cold.objective))
        )
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    def test_enumeration_warm_solves_beat_the_earlier_slack(self, monkeypatch):
        # enumeration over 4 of the 12 commitment binaries of the case
        # study's first dd-convex MPC step: each warm solve crosses one
        # flipped binary, so h moves under x*. Starting from x*'s new slack
        # must take fewer iterations in total than the start that blends
        # in the earlier solve's slack s*.
        prog = case_study_step()
        calls = []

        def recording(p, tol, max_iter=100, warm_start=None):
            sol = solve_convex(p, tol=tol, max_iter=max_iter, warm_start=warm_start)
            calls.append((p, tol, warm_start, sol))
            return sol

        monkeypatch.setattr(mip, "solve_convex", recording)
        enum = mip.solve_mixed_binary(
            MixedBinaryProgram(prog.base, prog.binary_indices[:4]), strategy="enumerate", tol=1e-8
        )
        assert_optimal(enum)
        lam = ipm._WARM_LAMBDA
        ours = earlier = 0
        for p, tol, warm, sol in calls:
            if warm is None:
                continue
            assert_optimal(sol)
            assert sol.stats.warm_restarts == 0
            form = standard_form(p)
            e = cone_e(form.dims)
            s, z = lam * warm.s + (1.0 - lam) * e, lam * warm.z + (1.0 - lam) * e
            start = (lam * warm.x, lam * warm.y, z, s, 1.0, (s @ z) / form.dims.degree)
            old = ipm._iterate(KktSolver(form), form, e, start, tol, ipm._WARM_MAX_ITER, 0.0)
            assert_optimal(old)
            ours += sol.stats.iterations
            earlier += old.stats.iterations
        assert len(calls) == 16
        assert ours < earlier


def test_factor_failure_far_from_certificate_raises(rng, monkeypatch):
    # every factorization after the initial point's fails, at iteration 0,
    # where the residuals are far above 1e3 * tol
    prog = random_lp(rng)
    factor = KktSolver.factor

    def failing(self, scaling):
        if hasattr(self, "scaling"):  # set by the initial point's factor
            raise FloatingPointError("injected factorization failure")
        factor(self, scaling)

    monkeypatch.setattr(KktSolver, "factor", failing)
    with pytest.raises(NumericalBreakdown, match="at iteration 0: injected") as info:
        solve_convex(prog)
    assert info.value.iteration == 0
    # a breakdown is not kept: the plan has no last cold solve to reuse
    assert prog.structure.solver.last is None


def test_initial_point_factor_failure_raises_breakdown():
    # c overflows the initial point's right-hand side: every rung of the
    # regularization ladder leaves a non-finite solve
    prog = ConicProgram.build(
        c=[1e308, -1e308], A_eq=[[1.0, 1.0]], b_eq=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalBreakdown, match="at iteration 0: initial point") as info:
            solve_convex(prog)
    assert info.value.iteration == 0


def test_tolerance_not_met_reported():
    prog = ConicProgram.build(c=[1.0, 0.0], balls=[(0, 1)])
    sol = solve_convex(prog, max_iter=3)
    assert sol.status == "tolerance_not_met"
    assert np.all(np.isfinite(sol.x))

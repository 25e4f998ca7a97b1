import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ddopf import opf
from ddopf.behavior import DataDrivenLineModel, cos_indices, lift_grid, sin_indices
from ddopf.conic import SolveStats
from ddopf.errors import DimensionMismatch, ModelNotPE, ProjectionInfeasible
from ddopf.excitation import generate_excitation
from ddopf.grid import Grid, LineParams
from ddopf.ipm import solve_convex
from ddopf.microgrid import Profiles, build_mpc_step, default_config, default_grid, initial_state
from ddopf.opf import (
    AppConstraints,
    LinearObjective,
    build_dd_opf,
    build_generalized_dd_opf,
    build_reference_opf,
    demand_instance,
    pf_template,
    restore_tightness,
    solve_opf,
    tightness_report,
)
from ddopf.physics import grid_line_powers, injections_from_flows, solve_radial_pf


def five_bus():
    edges = [(1, 2), (2, 4), (2, 5), (3, 5)]
    return Grid([1, 2, 3, 4, 5], edges, {e: LineParams(g=2.0, b=-20.0) for e in edges})


GRID = five_bus()
EDGE_MODEL = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=101))
PAIR_MODEL = DataDrivenLineModel.from_trajectory(
    generate_excitation(GRID, 21, seed=102, mode="all-pairs"), include_injections=True
)

# the case study's grid and models (tests/test_acceptance.py)
CASE_GRID = default_grid()
CASE_EDGE_MODEL = DataDrivenLineModel.from_trajectory(generate_excitation(CASE_GRID, 9, seed=2024))
CASE_PAIR_MODEL = DataDrivenLineModel.from_trajectory(
    generate_excitation(CASE_GRID, 21, seed=2025, mode="all-pairs"), include_injections=True
)


def model_for(variant):
    if variant == "reference":
        return None
    return PAIR_MODEL if variant == "dd-generalized" else EDGE_MODEL


ALL_VARIANTS = ("reference", "dd", "dd-convex", "dd-generalized")


class TestBuilders:
    def test_alpha_dimension_per_edge(self):
        # alpha is substituted out: the program is [phi | p_e | p_g]
        prog, layout = build_dd_opf(GRID, EDGE_MODEL)
        assert not hasattr(layout, "alpha")
        assert layout.n == prog.n == 22
        assert layout.phi == slice(0, 9)
        assert prog.balls == layout.ball_pairs()
        assert len(layout.ball_pairs()) == 4

    def test_alpha_dimension_all_pairs(self):
        prog, layout = build_generalized_dd_opf(GRID, PAIR_MODEL)
        assert not hasattr(layout, "alpha")
        assert layout.n == prog.n == 34
        assert layout.phi == slice(0, 21)
        assert len(layout.ball_pairs()) == 10

    def test_generalized_rejects_per_edge_model(self):
        with pytest.raises(DimensionMismatch):
            build_generalized_dd_opf(GRID, EDGE_MODEL)

    def test_dd_rejects_missing_model(self):
        with pytest.raises(ModelNotPE):
            build_dd_opf(GRID, None)

    def test_generalized_needs_injection_block(self):
        no_pg = DataDrivenLineModel(
            H_phi=PAIR_MODEL.H_phi, H_pe=PAIR_MODEL.H_pe, pe_report=PAIR_MODEL.pe_report
        )
        with pytest.raises(DimensionMismatch):
            build_generalized_dd_opf(GRID, no_pg)

    def test_generalized_map_ignores_phantom_pairs(self):
        # flows depend only on actual edges: the model's output map has
        # exactly zero gain from the six non-edge pair columns, so the
        # all-pairs data give the grid's edges
        gain = PAIR_MODEL.output_map()
        pair_cols = {p: k for k, p in enumerate(PAIR_MODEL_PAIRS)}
        phantom = [k for p, k in pair_cols.items() if p not in GRID.edges]
        assert len(phantom) == 6
        for k in phantom:
            np.testing.assert_array_equal(gain[:, 1 + 2 * k], 0.0)
            np.testing.assert_array_equal(gain[:, 2 + 2 * k], 0.0)

    def test_dd_template_has_the_reference_pattern(self):
        # on noiseless data each line's rows of K read only its own lifted
        # entries, as the line physics does
        grid = default_grid()
        model = DataDrivenLineModel.from_trajectory(generate_excitation(grid, 9, seed=2024))
        reference = pf_template(grid, "reference").eq
        dd = pf_template(grid, "dd-convex", model).eq
        np.testing.assert_array_equal(dd != 0, reference != 0)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_template_rows_hold_at_consistent_points(self, variant, rng):
        # reference: random angles through the line physics; dd variants:
        # every training column
        model = model_for(variant)
        tpl = pf_template(GRID, variant, model)
        layout = tpl.layout
        points = []
        if model is None:
            for _ in range(5):
                theta = rng.uniform(-0.5, 0.5, size=GRID.n_edges)
                x = np.zeros(layout.n)
                x[layout.phi] = lift_grid(GRID, theta)
                x[layout.p_e] = grid_line_powers(GRID, theta)
                x[layout.p_g] = injections_from_flows(GRID, x[layout.p_e])
                points.append(x)
        else:
            for j in range(model.n_columns):
                x = np.zeros(layout.n)
                x[layout.phi] = model.H_phi[:, j]
                x[layout.p_e] = model.H_pe[:, j]
                if variant == "dd-generalized":
                    x[layout.p_g] = model.H_pg[:, j]
                else:
                    x[layout.p_g] = injections_from_flows(GRID, model.H_pe[:, j])
                points.append(x)
        for x in points:
            np.testing.assert_allclose(tpl.eq @ x, tpl.eq_rhs, rtol=0.0, atol=1e-12)


class TestAppConstraints:
    @pytest.mark.parametrize("block, index", [("phi", 9), ("p_e", 8), ("p_g", 5), ("p_g", -1)])
    def test_out_of_range_index_is_a_dimension_mismatch(self, block, index):
        app = AppConstraints().add_ineq({block: {index: 1.0}}, 0.0)
        with pytest.raises(DimensionMismatch, match=rf"{block}\[{index}\]"):
            build_reference_opf(GRID, app)

    def test_unknown_block_is_rejected(self):
        with pytest.raises(ValueError, match="unknown app-constraint block 'alpha'"):
            AppConstraints().add_eq({"alpha": {0: 1.0}}, 0.0)


PAIR_MODEL_PAIRS = tuple(
    (i, j) for a, i in enumerate(GRID.nodes) for j in GRID.nodes[a + 1 :]
)


class TestZeroDemand:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_everything_zero(self, variant):
        app = AppConstraints()
        for node in GRID.nodes:
            app.fix_injection(GRID, node, 0.0)
        sol = solve_opf(GRID, variant, model_for(variant), app)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.p_e, 0.0, atol=1e-6)
        np.testing.assert_allclose(sol.p_g, 0.0, atol=1e-6)
        assert sol.objective == pytest.approx(0.0, abs=1e-6)
        assert sol.tightness.passed


class TestDemandInstances:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_tight_and_physical(self, variant):
        app, obj = demand_instance(GRID, {5: 0.4})
        sol = solve_opf(GRID, variant, model_for(variant), app, obj)
        assert sol.status == "optimal"
        assert sol.tightness.max_residual <= 1e-6
        # served demand shows up as negative injection
        assert sol.p_g[4] == pytest.approx(-0.4, abs=1e-6)

    def test_cross_variant_agreement(self):
        # distinct supply costs keep the optimizer unique across variants
        app, obj = demand_instance(GRID, {5: 0.5}, source_costs={1: 0.2, 2: 0.35, 3: 0.1, 4: 0.5})
        sols = {v: solve_opf(GRID, v, model_for(v), app, obj) for v in ALL_VARIANTS}
        ref = sols["reference"]
        for v in ("dd", "dd-convex", "dd-generalized"):
            np.testing.assert_allclose(sols[v].p_e, ref.p_e, atol=1e-4)
            np.testing.assert_allclose(sols[v].p_g, ref.p_g, atol=1e-4)

    def test_losses_only_variants_agree(self):
        # no source costs: the objective is the losses alone, 7.7e-5 here; with
        # the balls of its non-edge pairs presolved away, dd-generalized's p_g
        # sits 5.7e-5 from the reference's (1.498e-3 when the IPM carried them)
        app, obj = demand_instance(GRID, {5: 0.1755}, source_cap=0.9618)
        sols = {v: solve_opf(GRID, v, model_for(v), app, obj) for v in ALL_VARIANTS}
        assert all(sol.status == "optimal" for sol in sols.values())
        ref = sols["reference"]
        for v in ("dd", "dd-convex", "dd-generalized"):
            np.testing.assert_allclose(sols[v].p_g, ref.p_g, atol=1e-4)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the gap test is absolute below |pcost| = 1, so a losses-only optimum "
        "is certified on a nearly flat face (ROADMAP open item 2)",
    )
    def test_losses_only_case_study_models_agree(self):
        # the 12th draw of np.random.default_rng(7) (demand ~ U(0.1, 0.7), then
        # cap ~ U(0.6, 1.0)) on the case study's grid and models: every solve
        # ends 'optimal', yet dd's and dd-convex's p_g sit 1.137e-4 from the
        # reference's
        models = {"reference": None, "dd": CASE_EDGE_MODEL, "dd-convex": CASE_EDGE_MODEL,
                  "dd-generalized": CASE_PAIR_MODEL}
        app, obj = demand_instance(
            CASE_GRID, {5: 0.46752376256381845}, source_cap=0.6175768031845533
        )
        sols = {v: solve_opf(CASE_GRID, v, models[v], app, obj) for v in ALL_VARIANTS}
        assert all(sol.status == "optimal" for sol in sols.values())
        ref = sols["reference"]
        for v in ("dd", "dd-convex", "dd-generalized"):
            np.testing.assert_allclose(sols[v].p_g, ref.p_g, atol=1e-4)

    def test_theta_round_trip_against_radial_pf(self):
        app, obj = demand_instance(GRID, {5: 0.45})
        sol = solve_opf(GRID, "dd-convex", EDGE_MODEL, app, obj)
        inj = {n: sol.p_g[GRID.node_index(n)] for n in (1, 2, 3, 4)}
        res = solve_radial_pf(GRID, inj, slack=5)
        np.testing.assert_allclose(sol.theta, res.theta, atol=1e-6)

    def test_infeasible_demand_detected(self):
        # demand beyond what capped sources can supply
        app, obj = demand_instance(GRID, {5: 10.0}, source_cap=1.0)
        sol = solve_opf(GRID, "reference", None, app, obj)
        assert sol.status == "infeasible"

    def test_training_column_pinned(self):
        app = AppConstraints().fix_phi(EDGE_MODEL.H_phi[:, 0])
        sol = solve_opf(GRID, "dd-convex", EDGE_MODEL, app)
        np.testing.assert_allclose(sol.p_e, EDGE_MODEL.H_pe[:, 0], atol=1e-8)

    def test_wide_inconsistent_data_use_the_least_squares_map(self):
        # 30 samples of a 9-dimensional lift with 1e-6 noise on the flows: the
        # raw Hankel rows let p_e move along H_pe null(H_phi); K = H_pe H_phi^+
        # does not
        traj = generate_excitation(GRID, 30, seed=11)
        noise = 1e-6 * np.random.default_rng(3).standard_normal(traj.p_e.shape)
        model = DataDrivenLineModel.from_samples(traj.phi, traj.p_e + noise)
        app, obj = demand_instance(GRID, {5: 0.5}, source_costs={1: 0.2, 2: 0.35, 3: 0.1, 4: 0.5})
        ref = solve_opf(GRID, "reference", None, app, obj)
        sol = solve_opf(GRID, "dd-convex", model, app, obj)
        assert sol.status == ref.status == "optimal"
        np.testing.assert_allclose(sol.p_e, ref.p_e, atol=1e-4)
        np.testing.assert_allclose(sol.p_g, ref.p_g, atol=1e-4)

    def test_training_column_pinned_generalized(self):
        app = AppConstraints().fix_phi(PAIR_MODEL.H_phi[:, 0])
        sol = solve_opf(GRID, "dd-generalized", PAIR_MODEL, app)
        np.testing.assert_allclose(sol.p_g, PAIR_MODEL.H_pg[:, 0], atol=1e-8)


class TestTightnessAndRestoration:
    def test_report_on_circle(self):
        phi = np.array([1.0, 1.0, 0.0, 0.6, 0.8])
        rep = tightness_report(phi)
        assert rep.passed and rep.max_residual == pytest.approx(0.0, abs=1e-15)

    def test_report_inside_disk(self):
        phi = np.array([1.0, 0.5, 0.5])
        rep = tightness_report(phi)
        assert not rep.passed
        assert rep.residuals[0] == pytest.approx(0.5, abs=1e-15)

    def test_restore_identity_when_tight(self):
        app, obj = demand_instance(GRID, {5: 0.4})
        sol = solve_opf(GRID, "dd-convex", EDGE_MODEL, app, obj)
        restored = restore_tightness(sol)
        np.testing.assert_allclose(restored.p_e, sol.p_e, atol=1e-7)
        assert abs(restored.objective - sol.objective) <= 1e-6
        assert restored.tightness.max_residual <= 1e-12
        # projection is the identity on points already on the circles
        again = restore_tightness(restored)
        np.testing.assert_allclose(again.phi, restored.phi, atol=1e-10)
        np.testing.assert_allclose(again.p_e, restored.p_e, atol=1e-10)

    def test_relaxation_lower_bounds_circle_equality_optimum(self):
        # ball relaxation without the cosine bonus bounds the equality-
        # constrained optimum from below (its feasible set is a superset)
        app, obj = demand_instance(GRID, {5: 0.45}, source_costs={1: 0.3, 2: 0.1, 3: 0.2})
        relaxed = solve_opf(GRID, "dd-convex", EDGE_MODEL, app, obj, beta=0.0)
        projected = solve_opf(GRID, "dd", EDGE_MODEL, app, obj, beta=1.0)
        assert relaxed.objective <= projected.objective + 1e-7

    def test_solution_replays_feasibly(self):
        app, obj = demand_instance(GRID, {5: 0.4})
        for variant, model in (("dd-convex", EDGE_MODEL), ("dd-generalized", PAIR_MODEL)):
            sol = solve_opf(GRID, variant, model, app, obj)
            alpha = sol.alpha
            assert np.max(np.abs(model.H_phi @ alpha - sol.phi)) <= 1e-7
            assert np.max(np.abs(model.H_pe @ alpha - sol.p_e)) <= 1e-7
            if variant == "dd-generalized":
                assert np.max(np.abs(model.H_pg @ alpha - sol.p_g)) <= 1e-7
            n_pairs = len(sol.layout.pairs)
            c, s = sol.phi[cos_indices(n_pairs)], sol.phi[sin_indices(n_pairs)]
            assert np.max(c * c + s * s - 1.0) <= 1e-7
            # re-lifting the recovered angles reproduces phi when tight
            np.testing.assert_allclose(np.cos(sol.theta), c, atol=1e-9)
            np.testing.assert_allclose(np.sin(sol.theta), s, atol=1e-9)

    def test_restore_scales_pairs_radially(self):
        app, obj = demand_instance(GRID, {5: 0.4})
        sol = solve_opf(GRID, "dd-convex", EDGE_MODEL, app, obj)
        loose = sol
        loose.phi = sol.phi.copy()
        ci, si = cos_indices(4), sin_indices(4)
        loose.phi[ci[0]], loose.phi[si[0]] = 0.6, 0.0
        loose.app = None  # projected point no longer meets the fixed demand
        restored = restore_tightness(loose)
        assert restored.phi[ci[0]] == pytest.approx(1.0, abs=1e-12)
        assert restored.phi[si[0]] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_pair_maps_to_angle_zero(self, caplog):
        # a (0, 0) pair has no direction: it goes to (1, 0) with a warning,
        # and every other pair is scaled radially onto its circle
        phi = np.array([0.5, 0.0, 0.0, 0.3, 0.4, -0.6, 0.0, 0.0, 2.0])
        with caplog.at_level("WARNING", logger="ddopf.opf"):
            projected, p_e, p_g = opf.project_onto_circles("reference", GRID, None, phi)
        assert "1 degenerate (0, 0) pairs" in caplog.text
        expected = np.array([1.0, 1.0, 0.0, 0.6, 0.8, -1.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(projected, expected, rtol=0, atol=1e-15)
        assert phi[1] == 0.0  # the input is left as it was
        x = np.concatenate([projected, p_e, p_g])
        template = pf_template(GRID, "reference")
        assert np.max(np.abs(template.eq @ x - template.eq_rhs)) <= 1e-12

    @pytest.mark.parametrize("variant", ["reference", "dd-generalized"])
    def test_restore_meets_the_template_rows(self, variant):
        # p_g comes from the coupling M p_e (reference) or from the flow
        # map's injection rows (dd-generalized, which has no coupling); the
        # latter's model measures a constant 0.01 more at node 1, so that
        # M p_e misses its rows
        model = model_for(variant)
        if variant == "dd-generalized":
            H_pg = model.H_pg.copy()
            H_pg[0] += 0.01  # H_phi's first row is phi_0 = 1
            model = DataDrivenLineModel(model.H_phi, model.H_pe, H_pg, model.pe_report)
        app, obj = demand_instance(GRID, {5: 0.4})
        sol = solve_opf(GRID, variant, model, app, obj)
        sol.phi = sol.phi.copy()
        sol.phi[1:3] *= 0.6  # pull the first pair inside its circle
        sol.app = None  # projected point no longer meets the fixed demand
        restored = restore_tightness(sol)
        assert restored.restored and restored.tightness.max_residual <= 1e-12
        radius = np.hypot(*sol.phi[1:3])
        np.testing.assert_allclose(restored.phi[1:3], sol.phi[1:3] / radius, rtol=0, atol=1e-15)
        x = np.concatenate([restored.phi, restored.p_e, restored.p_g])
        template = pf_template(GRID, variant, model)
        assert np.max(np.abs(template.eq @ x - template.eq_rhs)) <= 1e-12

    def test_restore_detects_app_violation(self):
        app, obj = demand_instance(GRID, {5: 0.4})
        sol = solve_opf(GRID, "dd-convex", EDGE_MODEL, app, obj)
        sol.phi = sol.phi.copy()
        sol.phi[cos_indices(4)[2]] = 0.7  # break the pair feeding the load
        sol.phi[sin_indices(4)[2]] = 0.0
        with pytest.raises(ProjectionInfeasible):
            restore_tightness(sol)

    def test_dd_variant_comes_back_restored(self):
        app, obj = demand_instance(GRID, {5: 0.4})
        sol = solve_opf(GRID, "dd", EDGE_MODEL, app, obj)
        assert sol.restored
        assert sol.tightness.max_residual <= 1e-12


class TestObjectiveVector:
    def test_beta_lands_on_cosines(self):
        prog, layout = build_reference_opf(GRID, beta=2.5)
        c = prog.c
        np.testing.assert_allclose(c[layout.cos_cols()], -2.5)
        np.testing.assert_allclose(c[layout.sin_cols()], 0.0)

    def test_losses_objective_counts_injections(self):
        obj = LinearObjective(c_pg=np.ones(5))
        assert obj.value(np.zeros(8), np.array([0.1, 0.2, 0.0, 0.0, -0.25])) == pytest.approx(0.05)


def raw_bytes(sol, adopted=False):
    """Every array and count of a convex Solution, as bytes. adopted: the
    solve started cold from the W = I factorization an earlier solve of its
    structure made, so it ran one factorization fewer than a fresh build
    does; that one is counted back in."""
    arrays = (sol.x, sol.y, sol.z, sol.s)
    stats = dataclasses.replace(sol.stats, factorizations=sol.stats.factorizations + adopted)
    return [a.tobytes() for a in arrays] + [
        repr((sol.status, sol.objective, sol.kkt_residuals, sol.iterations, sol.dual_objective)),
        dataclasses.astuple(stats),
    ]


def fresh_solve(grid, variant, app, obj, model=None):
    """build_*_opf and solve_convex, bypassing solve_opf's program cache."""
    model = model or model_for(variant)
    if variant == "reference":
        prog, _ = build_reference_opf(grid, app, obj)
    elif variant == "dd-generalized":
        prog, _ = build_generalized_dd_opf(grid, model, app, obj)
    else:
        prog, _ = build_dd_opf(grid, model, app, obj)
    return solve_convex(prog, tol=1e-8)


def counting_builders(monkeypatch):
    """Names of the build_*_opf calls solve_opf makes from now on."""
    calls = []
    for name in ("build_reference_opf", "build_dd_opf", "build_generalized_dd_opf"):
        def wrapped(*args, _name=name, _orig=getattr(opf, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(opf, name, wrapped)
    return calls


class TestProgramCache:
    INSTANCES = [
        ({5: 0.4}, 1.0, {1: 0.2, 2: 0.35, 3: 0.1, 4: 0.5}),
        ({5: 0.55}, 0.9, {1: 0.4, 2: 0.05, 3: 0.3, 4: 0.15}),
        ({5: 0.3}, 1.1, None),
    ]

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_cold_and_cached_calls_are_byte_identical(self, variant, monkeypatch):
        # the first call builds the program, the later ones write c, b_eq and
        # b_in into it: each returns the bytes of a fresh build and solve
        grid = five_bus()
        instances = [
            demand_instance(grid, demands, source_cap=cap, source_costs=costs)
            for demands, cap, costs in self.INSTANCES
        ]
        calls = counting_builders(monkeypatch)
        sols = [solve_opf(grid, variant, model_for(variant), app, obj) for app, obj in instances]
        assert len(calls) == 1
        for i, (sol, (app, obj)) in enumerate(zip(sols, instances)):
            assert sol.status == "optimal"
            # the later calls adopt the first one's W = I factorization
            assert sol.raw.stats.factorizations == sol.raw.iterations + (i == 0)
            expected = raw_bytes(fresh_solve(grid, variant, app, obj))
            assert raw_bytes(sol.raw, adopted=i > 0) == expected
            # a cold call over a grid of its own gives the same bytes too
            cold = solve_opf(five_bus(), variant, model_for(variant), app, obj)
            assert raw_bytes(cold.raw) == expected
            for name in ("p_e", "p_g", "phi", "theta"):
                assert getattr(cold, name).tobytes() == getattr(sol, name).tobytes()

    def test_structure_changes_miss_the_cache(self, monkeypatch):
        grid = five_bus()
        calls = counting_builders(monkeypatch)
        app, obj = demand_instance(grid, {5: 0.4})

        def solve(grid=grid, model=EDGE_MODEL, app=app):
            before = len(calls)
            sol = solve_opf(grid, "dd-convex", model, app, obj)
            builds = len(calls)
            # a cached program adopts the W = I factorization of its first solve
            assert raw_bytes(sol.raw, adopted=builds == before) == raw_bytes(
                fresh_solve(grid, "dd-convex", app, obj, model)
            )
            del calls[builds:]
            return builds

        assert solve() == 1
        # new right-hand sides, same structure: cached
        assert solve(app=demand_instance(grid, {5: 0.6}, source_cap=0.8)[0]) == 1
        # dd and dd-convex pose one program
        solve_opf(grid, "dd", EDGE_MODEL, app, obj)
        assert len(calls) == 1
        # an app coefficient changes the structure
        scaled = demand_instance(grid, {5: 0.4})[0]
        scaled.ineq_rows[0][0]["p_g"] = {0: 2.0}
        assert solve(app=scaled) == 2
        assert solve() == 3
        # so do one row more, another model and another grid
        assert solve(app=demand_instance(grid, {5: 0.4})[0].bound_injection(grid, 5, lo=-1.0)) == 4
        other_model = DataDrivenLineModel.from_trajectory(generate_excitation(grid, 9, seed=7))
        assert solve(model=other_model) == 5
        assert solve() == 6
        assert solve(grid=five_bus()) == 7

    def test_cache_lives_on_the_owner(self):
        # the last OPF program and MPC template per family are kept with the
        # grid (reference) or the model (data-driven families); an entry holds
        # neither its grid nor its config alive, and goes when its owner does
        grid = five_bus()
        model = DataDrivenLineModel.from_trajectory(generate_excitation(grid, 9, seed=8))
        config = default_config()
        app, obj = demand_instance(grid, {5: 0.4})
        window = Profiles(w_r=np.zeros((config.horizon, 2)), w_d=np.zeros(config.horizon))
        for variant, m in (("reference", None), ("dd", model), ("dd-convex", model)):
            solve_opf(grid, variant, m, app, obj)
            build_mpc_step(config, grid, variant, initial_state(config), window, m)
        assert list(opf._kept[grid]) == [("opf", "reference"), ("mpc", "reference")]
        assert list(opf._kept[model]) == [("opf", "dd-convex"), ("mpc", "dd-convex")]
        owners = len(opf._kept)
        grid_ref, model_ref, config_ref = weakref.ref(grid), weakref.ref(model), weakref.ref(config)
        del config
        gc.collect()
        assert config_ref() is None and len(opf._kept) == owners
        del grid
        gc.collect()
        assert grid_ref() is None and len(opf._kept) == owners - 1
        del model, m
        gc.collect()
        assert model_ref() is None and len(opf._kept) == owners - 2

    def test_rebuilt_grid_gets_a_fresh_program(self, monkeypatch):
        # a kept program cannot go stale: a line's parameters change only by
        # building a new Grid, which gets a program of its own
        grid = default_grid()
        app, obj = demand_instance(grid, {5: 0.4}, source_cap=0.9)
        before = solve_opf(grid, "reference", None, app, obj)
        e0 = grid.edges[0]
        tripled = LineParams(*(3.0 * v for v in dataclasses.astuple(grid.lines[e0])))
        with pytest.raises(TypeError):
            grid.lines[e0] = tripled
        rebuilt = Grid(grid.nodes, grid.edges, {**grid.lines, e0: tripled}, grid.voltages)
        calls = counting_builders(monkeypatch)
        after = solve_opf(rebuilt, "reference", None, app, obj)
        assert calls == ["build_reference_opf"]
        assert after.status == "optimal"
        assert raw_bytes(after.raw) == raw_bytes(fresh_solve(rebuilt, "reference", app, obj))
        assert np.max(np.abs(after.p_g - before.p_g)) > 1e-4


def test_dd_convex_after_dd_reuses_its_solve():
    # dd and dd-convex pose one program: run in VARIANTS order, dd-convex
    # gets dd's certificate back without a solve, the bytes of a fresh one
    grid = five_bus()
    app, obj = demand_instance(grid, {5: 0.4})
    sols = {v: solve_opf(grid, v, model_for(v), app, obj) for v in opf.VARIANTS}
    for variant, sol in sols.items():
        assert sol.status == "optimal"
        assert (sol.raw.stats == SolveStats(reused=1)) == (variant == "dd-convex")
    reused = sols["dd-convex"]
    # every byte of the solve, its stats aside
    assert raw_bytes(reused.raw)[:-1] == raw_bytes(fresh_solve(grid, "dd-convex", app, obj))[:-1]
    # a cold call over a grid of its own builds and solves the program
    cold = solve_opf(five_bus(), "dd-convex", EDGE_MODEL, app, obj)
    assert cold.raw.stats.reused == 0
    for name in ("p_e", "p_g", "phi", "theta"):
        assert getattr(reused, name).tobytes() == getattr(cold, name).tobytes()

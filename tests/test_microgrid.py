import numpy as np
import pytest

from ddopf import microgrid, mip
from ddopf.behavior import DataDrivenLineModel
from ddopf.errors import (
    DdopfError,
    DimensionMismatch,
    ForecastTooShort,
    InfeasibleProfile,
    SchemaError,
    StateBoundViolation,
)
from ddopf.excitation import generate_excitation
from ddopf.microgrid import (
    MicrogridConfig,
    MpcTemplate,
    PlantState,
    Profiles,
    audit_closed_loop,
    build_mpc_step,
    compute_kpis,
    default_config,
    default_grid,
    generate_profiles,
    initial_state,
    load_config,
    load_profiles,
    read_results_csv,
    run_closed_loop,
    save_config,
    save_profiles,
    save_results,
    save_solve_times,
    step_plant,
)
from ddopf.mip import solve_mixed_binary
from ddopf.opf import pf_template

CFG = default_config()
GRID = default_grid()
EDGE_MODEL = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=11))
PAIR_MODEL = DataDrivenLineModel.from_trajectory(
    generate_excitation(GRID, 21, seed=12, mode="all-pairs"), include_injections=True
)


def model_for(variant):
    if variant == "reference":
        return None
    return PAIR_MODEL if variant == "dd-generalized" else EDGE_MODEL


def zero_window(h):
    return Profiles(w_r=np.zeros((h, 2)), w_d=np.zeros(h))


class TestConfig:
    def test_default_is_valid(self):
        CFG.validate()

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        save_config(CFG, path)
        back = load_config(path)
        for name in ("c0", "c5", "pt_max", "x_soft_max", "x0"):
            np.testing.assert_array_equal(getattr(back, name), getattr(CFG, name))
        assert back.beta == CFG.beta
        assert back.load_node == CFG.load_node

    def test_missing_key_is_named(self, tmp_path):
        import yaml

        path = tmp_path / "cfg.yaml"
        save_config(CFG, path)
        doc = yaml.safe_load(path.read_text())
        del doc["beta"]
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert "beta" in str(exc.value)

    def test_bound_order_enforced(self):
        with pytest.raises(ValueError):
            MicrogridConfig(
                **{
                    **{k: getattr(CFG, k) for k in CFG.__dataclass_fields__},
                    "x_soft_min": [8.0, 8.0],
                }
            )

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("c2", [np.nan, 1.0], "c2 must not be NaN"),
            ("pe_max", [np.nan], "pe_max must not be NaN"),
            ("beta", np.inf, "beta must be finite"),
            ("pt_max", [np.inf, 0.6], "pt_max must be finite"),
            ("b_s", np.diag([np.inf, 0.5]), "b_s must be finite"),
        ],
    )
    def test_non_finite_values_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            MicrogridConfig(**{**{k: getattr(CFG, k) for k in CFG.__dataclass_fields__}, name: value})

    def test_infinite_limits_mean_no_limit(self):
        cfg = MicrogridConfig(
            **{
                **{k: getattr(CFG, k) for k in CFG.__dataclass_fields__},
                "ps_min": [-np.inf, -1.0], "ps_max": [np.inf, 1.0],
                "pe_min": [-np.inf], "pe_max": [np.inf],
                "x_min": [-np.inf, 0.0], "x_max": [np.inf, 4.0],
            }
        )
        profiles = generate_profiles(7, 8, cfg)
        res = run_closed_loop(cfg, GRID, profiles, "reference", steps=2)
        assert audit_closed_loop(res, profiles).passed

    def test_unit_map_columns(self):
        u = CFG.unit_map(GRID)
        assert u.shape == (5, 7)
        np.testing.assert_array_equal(u.sum(axis=0), np.ones(7))
        assert u[GRID.node_index(5), 6] == 1.0
        assert u[GRID.node_index(1), 0] == 1.0


class TestProfiles:
    def test_deterministic_and_nonnegative(self):
        a = generate_profiles(0, 336, CFG)
        b = generate_profiles(0, 336, CFG)
        np.testing.assert_array_equal(a.w_d, b.w_d)
        np.testing.assert_array_equal(a.w_r, b.w_r)
        assert np.all(a.w_d >= 0) and np.all(a.w_r >= 0)

    def test_infeasible_peak_rejected(self):
        with pytest.raises(InfeasibleProfile):
            generate_profiles(0, 10, CFG, demand_peak=5.0)

    def test_pv_zero_at_night(self):
        p = generate_profiles(3, 336, CFG)
        hour = np.mod(np.arange(336) * CFG.ts_hours, 24.0)
        night = (hour < 7.0) | (hour > 19.0)
        np.testing.assert_array_equal(p.w_r[night, 1], 0.0)

    def test_csv_round_trip(self, tmp_path):
        p = generate_profiles(1, 48, CFG)
        path = tmp_path / "profiles.csv"
        save_profiles(p, path)
        back = load_profiles(path)
        np.testing.assert_array_equal(back.w_d, p.w_d)
        np.testing.assert_array_equal(back.w_r, p.w_r)

    @pytest.mark.parametrize("column, value", [("w_r", np.nan), ("w_d", np.inf)])
    def test_non_finite_values_rejected(self, column, value):
        data = {"w_r": np.zeros((3, 2)), "w_d": np.zeros(3)}
        data[column][1] = value
        with pytest.raises(ValueError, match="profiles must be finite"):
            Profiles(**data)

    def test_window_pads_by_repetition(self):
        p = Profiles(w_r=np.arange(6).reshape(3, 2), w_d=np.array([1.0, 2.0, 3.0]))
        w = p.window(2, 4)
        np.testing.assert_array_equal(w.w_d, [3.0, 3.0, 3.0, 3.0])


class TestBuildMpcStep:
    def test_binary_count_matches_horizon(self):
        prog, layout = build_mpc_step(
            CFG, GRID, "dd-convex", initial_state(CFG), zero_window(6), EDGE_MODEL
        )
        assert prog.n_binaries == 12
        assert len(layout.binary_indices) == 12

    def test_zero_conditions_all_off(self):
        state = PlantState(x=[1.0, 1.0], delta_prev=[0.0, 0.0])
        cfg = default_config()
        cfg.x_soft_min = np.array([0.0, 0.0])  # keep the soft band inactive
        cfg.x0 = np.array([1.0, 1.0])
        prog, layout = build_mpc_step(cfg, GRID, "reference", state, zero_window(6))
        sol = solve_mixed_binary(prog, strategy="branch_and_bound", tol=1e-8)
        assert sol.status == "optimal"
        assert sol.binary_values == (0.0,) * 12
        for h in range(6):
            np.testing.assert_allclose(sol.x[layout.unit_slice("p_t", h)], 0.0, atol=1e-7)
            np.testing.assert_allclose(sol.x[layout.pf_slice("p_e", h)], 0.0, atol=1e-6)
        # solver objective only carries the relaxation bonus, all cos at 1
        assert sol.objective == pytest.approx(-cfg.beta * 4 * 6, abs=1e-6)

    def test_res_preferred_over_generators(self):
        # one-step horizon, demand at the load, ample renewables
        cfg = default_config()
        cfg.horizon = 1
        window = Profiles(w_r=np.array([[0.8, 0.8]]), w_d=np.array([0.5]))
        prog, layout = build_mpc_step(cfg, GRID, "reference", initial_state(cfg), window)
        sol = solve_mixed_binary(prog, strategy="enumerate", tol=1e-8)
        assert sol.status == "optimal"
        assert sol.binary_values == (0.0, 0.0)
        p_r = sol.x[layout.unit_slice("p_r", 0)]
        assert p_r.sum() > 0.5  # renewables serve the load (negative cost)

    def test_forecast_too_short(self):
        with pytest.raises(ForecastTooShort):
            build_mpc_step(CFG, GRID, "reference", initial_state(CFG), zero_window(3))

    @pytest.mark.parametrize("n_res", [1, 3])
    def test_renewable_column_count_is_checked(self, n_res):
        window = Profiles(w_r=np.zeros((6, n_res)), w_d=np.zeros(6))
        with pytest.raises(DimensionMismatch, match=f"window has {n_res} renewable columns"):
            build_mpc_step(CFG, GRID, "reference", initial_state(CFG), window)

    @pytest.mark.parametrize("variant", ["reference", "dd", "dd-convex", "dd-generalized"])
    def test_stage_zero_power_flow_rows_are_the_template(self, variant):
        model = model_for(variant)
        pf = pf_template(GRID, variant, model)
        base = MpcTemplate(CFG, GRID, variant, model).base
        rows = base.A_eq[: pf.eq.shape[0]].toarray()
        np.testing.assert_array_equal(rows[:, : pf.layout.n], pf.eq)
        assert not rows[:, pf.layout.n :].any()
        np.testing.assert_array_equal(base.b_eq[: pf.eq.shape[0]], pf.eq_rhs)

    def test_dd_variant_requires_model(self):
        from ddopf.errors import ModelNotPE

        with pytest.raises(ModelNotPE):
            build_mpc_step(CFG, GRID, "dd-convex", initial_state(CFG), zero_window(6))

    def test_commitment_epigraph_cost(self):
        # forcing generator 1 on for one step must pay switch + running cost
        cfg = default_config()
        cfg.horizon = 1
        state = PlantState(x=cfg.x0, delta_prev=[0.0, 0.0])
        window = Profiles(w_r=np.zeros((1, 2)), w_d=np.array([0.4]))
        prog, layout = build_mpc_step(cfg, GRID, "reference", state, window)
        sol = solve_mixed_binary(prog, strategy="enumerate", tol=1e-8)
        assert sol.status == "optimal"
        delta = sol.x[layout.unit_slice("delta", 0)]
        sigma = sol.x[layout.unit_slice("sigma", 0)]
        np.testing.assert_allclose(sigma, np.abs(delta - state.delta_prev), atol=1e-6)

    @pytest.mark.parametrize("variant", ["reference", "dd-convex"])
    @pytest.mark.parametrize(
        "x, start, held", [([3.5, 2.0], 22, False), ([6.0, 3.0], 36, True)],
        ids=["mid-band", "near-full"],
    )
    def test_whole_plan_replays_the_model_equations(self, variant, x, start, held):
        # every stage of the H=6 plan, not only the first move, satisfies the
        # unit model; the cross-stage terms exist only at h >= 1. Near the top
        # of the band a generator stays committed over consecutive stages,
        # which exercises the previous-stage switch terms.
        state = PlantState(x=x, delta_prev=[1.0, 0.0])
        window = generate_profiles(7, 96, CFG).window(start, CFG.horizon)
        assert np.all(window.w_d > 0) and np.any(window.w_r > 0)
        prog, layout = build_mpc_step(CFG, GRID, variant, state, window, model_for(variant))
        sol = solve_mixed_binary(prog, strategy="branch_and_bound", tol=1e-8)
        assert sol.status == "optimal"
        u_map = CFG.unit_map(GRID)
        x_prev, delta_prev = state.x, state.delta_prev
        moved, stayed_on = 0.0, False
        for h in range(CFG.horizon):
            unit = {
                name: sol.x[layout.unit_slice(name, h)]
                for name in ("p_t", "p_s", "p_r", "delta", "sigma", "x_next")
            }
            x_next = unit["x_next"]
            np.testing.assert_allclose(x_next, CFG.a_s @ x_prev + CFG.b_s @ unit["p_s"], atol=1e-6)
            units = np.concatenate([unit["p_t"], unit["p_s"], unit["p_r"], [-window.w_d[h]]])
            np.testing.assert_allclose(sol.x[layout.pf_slice("p_g", h)], u_map @ units, atol=1e-6)
            delta = unit["delta"]
            assert np.all(CFG.pt_min * delta <= unit["p_t"] + 1e-6)
            assert np.all(unit["p_t"] <= CFG.pt_max * delta + 1e-6)
            # sigma >= |delta - delta_prev|, tight because c0 > 0
            np.testing.assert_allclose(unit["sigma"], np.abs(delta - delta_prev), atol=1e-6)
            assert np.all(unit["p_r"] >= -1e-6) and np.all(unit["p_r"] <= window.w_r[h] + 1e-6)
            moved = max(moved, float(np.max(np.abs(x_next - x_prev))))
            stayed_on = stayed_on or (h > 0 and bool(np.any(delta * delta_prev > 0.5)))
            x_prev, delta_prev = x_next, delta
        assert moved > 1e-3  # the storage plan is not trivially flat
        if held:  # the previous-stage switch terms were exercised
            assert stayed_on

    def test_steps_from_one_template_do_not_share_data(self):
        template = MpcTemplate(CFG, GRID, "reference")
        profiles = generate_profiles(4, 48, CFG)
        first, _ = build_mpc_step(
            CFG, GRID, "reference", PlantState(x=[1.0, 2.0], delta_prev=[1.0, 0.0]),
            profiles.window(20, 6), None, template,
        )
        kept = {name: getattr(first.base, name).copy() for name in ("b_eq", "b_in", "ub")}
        second, _ = build_mpc_step(
            CFG, GRID, "reference", PlantState(x=[3.0, 0.5], delta_prev=[0.0, 1.0]),
            profiles.window(30, 6), None, template,
        )
        for name, before in kept.items():
            np.testing.assert_array_equal(getattr(first.base, name), before)
            assert not np.array_equal(getattr(second.base, name), before)
        assert second.base.A_eq is first.base.A_eq  # the fixed part is shared


class TestPlantStep:
    def test_idle_storage_keeps_state(self):
        state = PlantState(x=[0.5, 0.5], delta_prev=[1.0, 0.0])
        nxt = step_plant(CFG, state, np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_allclose(nxt.x, [0.5, 0.5])
        assert nxt.k == 1

    def test_half_gain_integrator(self):
        state = PlantState(x=[0.5, 0.5], delta_prev=[0.0, 0.0])
        nxt = step_plant(CFG, state, np.array([1.0, 0.0]), np.zeros(2))
        np.testing.assert_allclose(nxt.x, [1.0, 0.5])

    def test_bound_violation_detected(self):
        state = PlantState(x=[0.5, 0.5], delta_prev=[0.0, 0.0])
        # exact landing on the lower bound is fine
        nxt = step_plant(CFG, state, np.array([-1.0, -1.0]), np.zeros(2))
        np.testing.assert_allclose(nxt.x, [0.0, 0.0])
        with pytest.raises(StateBoundViolation):
            step_plant(CFG, state, np.array([-1.1, 0.0]), np.zeros(2))


class TestClosedLoop:
    def test_single_zero_step(self):
        cfg = default_config()
        cfg.x_soft_min = np.array([0.0, 0.0])
        cfg.x0 = np.array([1.0, 1.0])
        cfg.delta_init = np.array([0.0, 0.0])
        profiles = Profiles(w_r=np.zeros((8, 2)), w_d=np.zeros(8))
        res = run_closed_loop(cfg, GRID, profiles, "reference", steps=1)
        l_op, l_loss = compute_kpis(res)
        rec = res.records[0]
        assert l_op == pytest.approx(rec.cost_sw + rec.cost_p, abs=1e-12)
        assert l_loss == pytest.approx(rec.cost_loss, abs=1e-12)
        assert l_op == pytest.approx(0.0, abs=1e-6)

    def test_uncertified_step_raises_with_its_status(self, monkeypatch):
        real = mip.solve_convex

        def stalling(prog, **kwargs):
            sol = real(prog, **kwargs)
            sol.status, sol.kkt_residuals = "tolerance_not_met", (1e-3, 1e-3, 1e-3)
            return sol

        monkeypatch.setattr(mip, "solve_convex", stalling)
        cfg = default_config()
        cfg.horizon = 1  # 2 binaries: B&B solves all 7 nodes of the tree
        with pytest.raises(DdopfError, match="step 0: solver status 'tolerance_not_met'"):
            run_closed_loop(cfg, GRID, generate_profiles(7, 4, cfg), "reference", steps=1)

    @pytest.mark.parametrize("variant", ["reference", "dd", "dd-convex", "dd-generalized"])
    def test_short_runs_audit_clean(self, variant):
        profiles = generate_profiles(7, 20, CFG)
        res = run_closed_loop(CFG, GRID, profiles, variant, steps=12, model=model_for(variant))
        audit = audit_closed_loop(res, profiles)
        assert audit.passed, audit.violations
        assert res.column("tightness").max() <= 1e-6

    def test_non_finite_replay_fails_audit(self):
        # max(0.0, nan) is 0.0 in Python: a NaN must not read as no violation
        profiles = generate_profiles(7, 20, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "reference", steps=2)
        assert audit_closed_loop(res, profiles).passed
        p_e = res.records[1].p_e.copy()
        res.records[1].p_e[0] = np.nan
        audit = audit_closed_loop(res, profiles)
        assert not audit.passed and np.isnan(audit.violations["line_limits"])
        assert np.isnan(audit.max_violation)
        res.records[1].p_e = p_e
        profiles.w_r[0, 1] = np.nan  # past Profiles' own check
        audit = audit_closed_loop(res, profiles)
        assert not audit.passed and np.isnan(audit.violations["res_availability"])

    def test_dd_steps_are_projected_onto_circles(self):
        # every dd first move is projected, as solve_opf projects every dd OPF
        profiles = generate_profiles(7, 20, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "dd", steps=2, model=EDGE_MODEL)
        assert res.steps == 2
        assert res.column("tightness").max() <= 1e-12

    def test_energy_accounting_telescopes(self):
        profiles = generate_profiles(3, 20, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "reference", steps=10)
        total = CFG.b_s @ res.column("p_s").sum(axis=0)
        np.testing.assert_allclose(res.x_final - CFG.x0, total, atol=1e-9)

    def test_switch_cost_recomputable(self):
        profiles = generate_profiles(5, 20, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "reference", steps=10)
        deltas = res.column("delta")
        prev = CFG.delta_init
        for k in range(10):
            expected = CFG.c0 @ np.abs(deltas[k] - prev) + CFG.c1 @ deltas[k]
            assert res.records[k].cost_sw == pytest.approx(float(expected), abs=1e-9)
            prev = deltas[k]

    def test_kpis_single_record(self):
        profiles = generate_profiles(1, 10, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "reference", steps=1)
        rec = res.records[0]
        l_op, l_loss = compute_kpis(res)
        assert l_op == pytest.approx(rec.cost_sw + rec.cost_p, abs=1e-12)
        assert l_loss == pytest.approx(rec.cost_loss, abs=1e-12)

    @pytest.mark.parametrize("profile_seed", [7, 2024])
    def test_dd_is_dd_convex_with_projected_first_moves(self, profile_seed):
        # dd and dd-convex pose one program per step, and the plant and the
        # hint read only the unprojected solution: the loops are one loop,
        # and only the quantities derived from the projected phi differ
        model = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=2024))
        profiles = generate_profiles(profile_seed, 12 + CFG.horizon, CFG)
        dd, convex = (
            run_closed_loop(CFG, GRID, profiles, variant, steps=12, model=model)
            for variant in ("dd", "dd-convex")
        )
        assert dd.x_final.tobytes() == convex.x_final.tobytes()
        for col in (
            "delta", "p_t", "p_s", "p_r", "x", "cost_sw", "cost_p", "cost_x",
            "nodes", "ipm_iterations", "warm_restarts",
        ):
            assert dd.column(col).tobytes() == convex.column(col).tobytes(), col
        for col in ("p_e", "p_g", "theta", "cost_loss"):
            np.testing.assert_allclose(dd.column(col), convex.column(col), rtol=0, atol=1e-8)

    def test_res_bounded_by_availability(self):
        profiles = generate_profiles(9, 20, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "dd-convex", steps=10, model=EDGE_MODEL)
        p = res.column("cost_p")
        w = profiles.w_r[:10]
        # cost_p >= c3' w_r pointwise (renewable term bounded by availability)
        floor = w @ CFG.c3
        assert np.all(p >= floor - 1e-9)


class TestWarmStartedLoop:
    def test_steps_after_the_first_run_fewer_iterations(self, monkeypatch):
        profiles = generate_profiles(7, 20, CFG)
        warm = run_closed_loop(CFG, GRID, profiles, "dd-convex", steps=6, model=EDGE_MODEL)
        iters = warm.column("ipm_iterations")
        assert np.all(iters[1:] < iters[0])
        assert np.all(warm.column("nodes") == 2)

        # cold replay: the same loop with every solve started cold
        real = microgrid.solve_mixed_binary

        def cold(prog, **kwargs):
            kwargs.pop("warm_starts")
            return real(prog, **kwargs)

        monkeypatch.setattr(microgrid, "solve_mixed_binary", cold)
        replay = run_closed_loop(CFG, GRID, profiles, "dd-convex", steps=6, model=EDGE_MODEL)
        assert np.all(replay.column("warm_restarts") == 0)
        assert replay.column("ipm_iterations").sum() > iters.sum()
        for col in ("delta", "p_t", "p_s", "p_r", "p_g", "p_e", "theta", "x", "cost_p", "cost_loss"):
            np.testing.assert_allclose(warm.column(col), replay.column(col), rtol=0, atol=1e-6)


class TestResultFiles:
    def test_results_csv_round_trip(self, tmp_path):
        profiles = generate_profiles(2, 16, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "reference", steps=6)
        path = tmp_path / "results.csv"
        save_results(res, path)
        cols = read_results_csv(path)
        assert cols["k"].size == 6
        np.testing.assert_allclose(cols["conv1_power"], res.column("p_t")[:, 0], atol=0)
        np.testing.assert_allclose(cols["pe_12"], res.column("p_e")[:, 0], atol=0)
        np.testing.assert_allclose(cols["stored_energy_2"], res.column("x")[:, 1], atol=0)
        header = path.read_text().splitlines()[0].split(",")
        assert header == [
            "k", "time_h", "conv1_power", "conv2_power", "bess1_power", "bess2_power",
            "res1_power", "res2_power", "load", "stored_energy_1", "stored_energy_2",
            "pe_12", "pe_21", "pe_24", "pe_42", "pe_25", "pe_52", "pe_35", "pe_53",
            "cost_sw", "cost_p", "cost_x", "cost_loss", "solve_time_s",
            "nodes", "ipm_iterations", "warm_restarts",
        ]
        for col in ("nodes", "ipm_iterations", "warm_restarts"):
            np.testing.assert_array_equal(cols[col], res.column(col))

    def test_solve_times_csv(self, tmp_path):
        profiles = generate_profiles(2, 14, CFG)
        res = run_closed_loop(CFG, GRID, profiles, "reference", steps=4)
        path = tmp_path / "times.csv"
        save_solve_times(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,solve_time_s"
        assert len(lines) == 5

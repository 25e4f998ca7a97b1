"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one summary line so a verbose run reads as a checklist.
The closed-loop case study is shared between the trajectory-equivalence and
solve-time criteria through a module-scoped fixture.
"""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ddopf.behavior import (
    DataDrivenLineModel,
    dd_predict,
    hankel,
    is_persistently_exciting,
    lift_grid,
    lift_line,
)
from ddopf.conic import ConicProgram, MixedBinaryProgram
from ddopf.excitation import generate_excitation
from ddopf.grid import LineParams
from ddopf.ipm import solve_convex
from ddopf.microgrid import (
    audit_closed_loop,
    build_mpc_step,
    compute_kpis,
    default_config,
    default_grid,
    generate_profiles,
    initial_state,
    run_closed_loop,
    save_solve_times,
)
from ddopf.mip import solve_mixed_binary
from ddopf.opf import demand_instance, pf_template, restore_tightness, solve_opf
from ddopf.physics import (
    effective_coeffs,
    grid_line_powers,
    injection_matrix,
    injections_from_flows,
    line_power,
    solve_radial_pf,
)

GRID = default_grid()
CONFIG = default_config()
CASE_STEPS = 336
VARIANTS = ("reference", "dd", "dd-convex", "dd-generalized")


@pytest.fixture(scope="module")
def models():
    edge = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=2024))
    pair = DataDrivenLineModel.from_trajectory(
        generate_excitation(GRID, 21, seed=2025, mode="all-pairs"), include_injections=True
    )
    return {"reference": None, "dd": edge, "dd-convex": edge, "dd-generalized": pair}


@pytest.fixture(scope="module")
def case_study(models):
    profiles = generate_profiles(2024, CASE_STEPS + CONFIG.horizon, CONFIG)
    results = {}
    t0 = time.perf_counter()
    for variant in VARIANTS:
        results[variant] = run_closed_loop(
            CONFIG, GRID, profiles, variant, CASE_STEPS, model=models[variant]
        )
    elapsed = time.perf_counter() - t0
    return profiles, results, elapsed


def random_instance(rng):
    """Generic instance: distinct supply costs keep the optimizer unique, so
    the comparison measures the representations rather than tie-breaking."""
    demand = float(rng.uniform(0.1, 0.7))
    while True:
        draws = rng.uniform(0.0, 0.8, size=4)
        if np.min(np.diff(np.sort(draws))) >= 0.05:
            break
    costs = {n: float(c) for n, c in zip((1, 2, 3, 4), draws)}
    cap = float(rng.uniform(0.6, 1.2))
    return demand_instance(GRID, {5: demand}, source_cap=cap, source_costs=costs)


def test_criterion_1_hankel_pe_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        width = int(rng.integers(1, 4))
        order = int(rng.integers(1, n + 1))
        samples = rng.normal(size=(n, width))
        h = hankel(samples, order).data
        assert h.shape == (width * order, n - order + 1)
        for r in range(order):
            np.testing.assert_array_equal(
                h[r * width : (r + 1) * width, :], samples[r : r + (n - order + 1)].T
            )
    # rank semantics at the 1e-9 singular-value threshold
    const = np.ones((5, 2))
    rep = is_persistently_exciting(const, 1, rank_tol=1e-9)
    assert not rep.pe and rep.rank == 1
    lifted9 = lift_grid(GRID, rng.uniform(-0.3, 0.3, size=(9, 4)))
    assert is_persistently_exciting(lifted9, 1, rank_tol=1e-9).pe
    node_angles = rng.uniform(-0.15, 0.15, size=(21, 5))
    node_angles[:, 0] = 0.0
    from ddopf.behavior import lift_all_pairs

    lifted21 = lift_all_pairs(GRID, node_angles)
    assert is_persistently_exciting(lifted21, 1, rank_tol=1e-9).pe
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 1] hankel/pe property suite: PASS ({elapsed:.2f}s)")


def test_criterion_2_physics_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    with mpmath.workdps(50):
        for _ in range(1000):
            g = rng.uniform(0.1, 5.0)
            b = rng.uniform(-30.0, 30.0)
            g_sh = rng.uniform(0.0, 0.5)
            v_i, v_j = rng.uniform(0.8, 1.2, size=2)
            theta = rng.uniform(-math.pi / 2, math.pi / 2)
            k = effective_coeffs(LineParams(g=g, b=b, g_shunt_from=g_sh), v_i, v_j)
            want = float(
                (mpmath.mpf(g_sh) + g) * mpmath.mpf(v_i) ** 2
                - mpmath.mpf(v_i) * v_j * (g * mpmath.cos(theta) + b * mpmath.sin(theta))
            )
            assert abs(line_power(k, theta, "from") - want) <= 1e-12 * max(1.0, abs(want))
    # per-line loss identity at equal voltages and zero shunts
    for _ in range(1000):
        g = rng.uniform(0.1, 5.0)
        b = rng.uniform(-30.0, 30.0)
        v = rng.uniform(0.8, 1.2)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        k = effective_coeffs(LineParams(g=g, b=b), v, v)
        loss = line_power(k, theta, "from") + line_power(k, theta, "to")
        assert abs(loss - 2.0 * k.cos_coeff * (1.0 - math.cos(theta))) <= 1e-12

    for trial in range(100):
        inj = {n: float(rng.uniform(-0.8, 0.8)) for n in (1, 2, 3, 4)}
        res = solve_radial_pf(GRID, inj, slack=5, tol=1e-10)
        p_g = injections_from_flows(GRID, grid_line_powers(GRID, res.theta))
        for n in (1, 2, 3, 4):
            assert abs(p_g[GRID.node_index(n)] - inj[n]) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 2] physics oracle: PASS ({elapsed:.2f}s)")


def test_criterion_3_representation_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for edge in GRID.edges:
        coeffs = effective_coeffs(GRID.lines[edge], GRID.voltages[edge[0]], GRID.voltages[edge[1]])
        for n_cols in (9, 30):
            theta_train = rng.uniform(-0.4, 0.4, size=n_cols)
            phi = lift_line(theta_train)
            pe = np.column_stack(
                [line_power(coeffs, theta_train, "from"), line_power(coeffs, theta_train, "to")]
            )
            model = DataDrivenLineModel.from_samples(phi, pe)
            for theta in rng.uniform(-math.pi / 2, math.pi / 2, size=100):
                pred = dd_predict(model, lift_line(theta))
                assert abs(pred[0] - line_power(coeffs, theta, "from")) <= 1e-8
                assert abs(pred[1] - line_power(coeffs, theta, "to")) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 3] representation equivalence: PASS ({elapsed:.2f}s)")


def test_criterion_4_relaxation_tightness(models):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst_resid = 0.0
    worst_delta = 0.0
    for trial in range(20):
        app, objective = random_instance(rng)
        sol = solve_opf(GRID, "dd-convex", models["dd-convex"], app, objective, beta=1.0)
        assert sol.status == "optimal"
        worst_resid = max(worst_resid, sol.tightness.max_residual)
        restored = restore_tightness(sol)
        worst_delta = max(worst_delta, abs(restored.objective - sol.objective))
    assert worst_resid <= 1e-6
    assert worst_delta <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\n[criterion 4] relaxation tightness: PASS "
        f"(max residual {worst_resid:.2e}, max objective shift {worst_delta:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_5_cross_variant_opf_equivalence(models):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        app, objective = random_instance(rng)
        sols = {
            v: solve_opf(GRID, v, models[v], app, objective, beta=1.0) for v in VARIANTS
        }
        ref = sols["reference"]
        assert ref.status == "optimal"
        for v in ("dd", "dd-convex", "dd-generalized"):
            worst = max(worst, float(np.max(np.abs(sols[v].p_e - ref.p_e))))
            worst = max(worst, float(np.max(np.abs(sols[v].p_g - ref.p_g))))
    assert worst <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 5] cross-variant OPF equivalence: PASS (max deviation {worst:.2e}, {elapsed:.1f}s)")


def solve_alpha_form(variant, model, app, objective, beta=1.0):
    """(p_e, p_g) of the paper's program over [alpha | phi | p_e | p_g], built
    from the raw Hankel blocks: H_phi alpha = phi, H_pe alpha = p_e, and
    H_pg alpha = p_g (dd-generalized) or p_g = M p_e."""
    n_alpha = model.n_columns
    layout = pf_template(GRID, variant, model).layout

    def shift(s):
        return slice(s.start + n_alpha, s.stop + n_alpha)

    layout = replace(
        layout, n=layout.n + n_alpha, phi=shift(layout.phi), p_e=shift(layout.p_e),
        p_g=shift(layout.p_g),
    )
    blocks = [(model.H_phi, layout.phi), (model.H_pe, layout.p_e)]
    if variant == "dd-generalized":
        blocks.append((model.H_pg, layout.p_g))
    rows = []
    for block, target in blocks:
        row = np.zeros((block.shape[0], layout.n))
        row[:, :n_alpha] = block
        row[:, target] = -np.eye(block.shape[0])
        rows.append(row)
    if variant != "dd-generalized":
        row = np.zeros((GRID.n_nodes, layout.n))
        row[:, layout.p_g] = np.eye(GRID.n_nodes)
        row[:, layout.p_e] = -injection_matrix(GRID)
        rows.append(row)
    row = np.zeros((1, layout.n))
    row[0, layout.phi.start] = 1.0
    rows.append(row)
    a_eq, app_b_eq, A_in, b_in = app.materialize(layout)
    A_eq = np.vstack(rows + [a_eq])
    b_eq = np.concatenate([np.zeros(A_eq.shape[0] - app_b_eq.size - 1), [1.0], app_b_eq])
    c = objective.vector(layout)
    c[layout.cos_cols()] -= beta
    prog = ConicProgram.build(
        c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, balls=layout.ball_pairs()
    )
    raw = solve_convex(prog, tol=1e-8)
    assert raw.status == "optimal"
    return raw.x[layout.p_e], raw.x[layout.p_g]


def test_output_map_matches_paper_alpha_form(models):
    """The output map F = H_out H_phi^+ poses the paper's program with alpha
    substituted out: same p_e and p_g on the criterion-5 instances."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        app, objective = random_instance(rng)
        for v in ("dd-convex", "dd-generalized"):
            sol = solve_opf(GRID, v, models[v], app, objective, beta=1.0)
            p_e, p_g = solve_alpha_form(v, models[v], app, objective)
            worst = max(worst, float(np.max(np.abs(sol.p_e - p_e))),
                        float(np.max(np.abs(sol.p_g - p_g))))
    assert worst <= 1e-6
    print(f"\n[alpha form] output map against H alpha = [phi; p]: PASS (max deviation {worst:.2e})")


@pytest.mark.slow
def test_criterion_6_closed_loop_case_study(case_study):
    profiles, results, elapsed = case_study
    for variant in VARIANTS:
        assert results[variant].steps == CASE_STEPS

    worst = 0.0
    ref = results["reference"]
    for variant in ("dd", "dd-convex", "dd-generalized"):
        res = results[variant]
        for col in ("delta", "p_t", "p_s", "p_r", "p_g", "p_e", "x", "p_d"):
            dev = float(np.max(np.abs(res.column(col) - ref.column(col))))
            worst = max(worst, dev)
    assert worst <= 1e-4

    for variant in VARIANTS:
        audit = audit_closed_loop(results[variant], profiles, tol=1e-6)
        assert audit.passed, (variant, audit.violations)

    kpis = {v: compute_kpis(results[v]) for v in VARIANTS}
    spread_op = max(k[0] for k in kpis.values()) - min(k[0] for k in kpis.values())
    spread_loss = max(k[1] for k in kpis.values()) - min(k[1] for k in kpis.values())
    assert spread_op <= 1e-4 and spread_loss <= 1e-4

    assert elapsed < 1800.0
    l_op, l_loss = kpis["dd-convex"]
    print(
        f"\n[criterion 6] closed-loop case study: PASS "
        f"(max pairwise deviation {worst:.2e}, KPIs on these synthetic profiles: "
        f"mean unit cost {l_op:.4f}, mean loss cost {l_loss:.4f}, "
        f"all four variants in {elapsed:.0f}s)"
    )


@pytest.mark.slow
def test_criterion_7_solver_correctness():
    """Cross-strategy agreement on 50 random programs (the full 12-binary
    case runs in test_case_study_step_enumerate_equals_branch_and_bound)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    prog = ConicProgram.build(c=[-1.0, -1.0], balls=[(0, 1)])
    sol = solve_convex(prog)
    assert abs(sol.objective + math.sqrt(2.0)) <= 1e-8

    sizes = [int(rng.integers(2, 8)) for _ in range(46)] + [8, 8, 9, 9]
    for trial, n_bin in enumerate(sizes):
        n_cont = int(rng.integers(2, 5))
        n = n_cont + n_bin
        bidx = tuple(range(n_cont, n))
        x0 = np.concatenate(
            [rng.uniform(-0.5, 0.5, size=n_cont), rng.uniform(0.2, 0.8, size=n_bin)]
        )
        lb = np.concatenate([np.full(n_cont, -3.0), np.zeros(n_bin)])
        ub = np.concatenate([np.full(n_cont, 3.0), np.ones(n_bin)])
        m = int(rng.integers(3, 8))
        A_in = rng.normal(size=(m, n))
        b_in = A_in @ x0 + rng.uniform(0.2, 1.5, size=m)
        balls = [(0, 1)] if n_cont >= 2 and rng.uniform() < 0.5 else []
        base = ConicProgram.build(
            c=rng.normal(size=n), A_in=A_in, b_in=b_in, lb=lb, ub=ub, balls=balls
        )
        mbp = MixedBinaryProgram(base, bidx)
        enum = solve_mixed_binary(mbp, strategy="enumerate")
        bnb = solve_mixed_binary(mbp, strategy="branch_and_bound")
        assert enum.status == bnb.status == "optimal"
        assert abs(enum.objective - bnb.objective) <= 1e-7, (trial, n_bin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 7] solver correctness: PASS (50 programs, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_8_solve_time_reporting(case_study, tmp_path):
    profiles, results, _ = case_study
    medians = {}
    for variant in VARIANTS:
        path = tmp_path / f"solve_times_{variant}.csv"
        save_solve_times(results[variant], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,solve_time_s"
        assert len(lines) == CASE_STEPS + 1
        medians[variant] = float(np.median(results[variant].column("solve_time")))
    # dd and dd-convex pose the same program, so no ordering is expected
    ordering = sorted(medians, key=medians.get)
    print(
        "\n[criterion 8] solve-time reporting: PASS "
        f"(medians {', '.join(f'{v}={medians[v]*1000:.0f}ms' for v in ordering)})"
    )


@pytest.mark.slow
def test_case_study_step_enumerate_equals_branch_and_bound(models):
    """Full-scale cross-strategy oracle: one MPC step, 12 binaries, H = 6."""
    profiles = generate_profiles(77, 12, CONFIG)
    prog, _ = build_mpc_step(
        CONFIG, GRID, "dd-convex", initial_state(CONFIG), profiles.window(0, 6), models["dd-convex"]
    )
    enum = solve_mixed_binary(prog, strategy="enumerate", tol=1e-8)
    bnb = solve_mixed_binary(prog, strategy="branch_and_bound", tol=1e-8)
    assert enum.status == bnb.status == "optimal"
    assert abs(enum.objective - bnb.objective) <= 1e-8
    assert enum.binary_values == bnb.binary_values

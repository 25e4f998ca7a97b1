import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddopf.behavior import lift_grid
from ddopf.errors import (
    AngleOutOfTrustRegion,
    DimensionMismatch,
    NoConvergence,
    NonpositiveVoltage,
    UnknownNode,
)
from ddopf.grid import Grid, LineParams
from ddopf.physics import (
    effective_coeffs,
    flow_map,
    grid_line_powers,
    injection_matrix,
    injections_from_flows,
    line_power,
    solve_radial_pf,
)

TABLE_LINE = LineParams(g=2.0, b=-20.0)
TABLE_COEFFS = effective_coeffs(TABLE_LINE, 1.0, 1.0)


def oracle_line_power(g, b, g_sh, v_i, v_j, theta, sign=1):
    """High-precision evaluation of the constant-voltage flow formula."""
    with mpmath.workdps(50):
        t = mpmath.mpf(theta) * sign
        val = (mpmath.mpf(g_sh) + g) * mpmath.mpf(v_i) ** 2 - mpmath.mpf(v_i) * v_j * (
            g * mpmath.cos(t) + b * mpmath.sin(t)
        )
        return float(val)


class TestEffectiveCoeffs:
    def test_table_line(self):
        k = TABLE_COEFFS
        assert (k.const_from, k.const_to, k.cos_coeff, k.sin_coeff) == (2.0, 2.0, 2.0, -20.0)

    def test_voltage_products(self):
        k = effective_coeffs(LineParams(g=1.0, b=0.1), 2.0, 3.0)
        assert k.cos_coeff == 6.0
        assert k.const_from == 4.0
        assert k.const_to == 9.0

    def test_shunt_sum_rule(self):
        k = effective_coeffs(LineParams(g=2.0, b=-20.0, g_shunt_from=0.1), 1.0, 1.0)
        assert k.const_from == pytest.approx(2.1, abs=1e-15)

    def test_nonpositive_voltage(self):
        with pytest.raises(NonpositiveVoltage):
            effective_coeffs(TABLE_LINE, 0.0, 1.0)


class TestLinePower:
    def test_zero_angle_zero_flow(self):
        assert line_power(TABLE_COEFFS, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_known_value_at_tenth_radian(self):
        expected = oracle_line_power(2.0, -20.0, 0.0, 1.0, 1.0, 0.1)
        assert expected == pytest.approx(2.00666, abs=5e-6)
        assert line_power(TABLE_COEFFS, 0.1) == pytest.approx(expected, abs=1e-12)

    def test_loss_formula_at_tenth_radian(self):
        p_ij = line_power(TABLE_COEFFS, 0.1, "from")
        p_ji = line_power(TABLE_COEFFS, 0.1, "to")
        assert p_ij + p_ji == pytest.approx(4 * (1 - math.cos(0.1)), abs=1e-14)
        assert p_ij + p_ji == pytest.approx(0.019983, abs=5e-7)

    def test_matches_oracle_over_random_draws(self, rng):
        for _ in range(300):
            g = rng.uniform(0.1, 5.0)
            b = rng.uniform(-30.0, -0.5)
            g_sh = rng.uniform(0.0, 0.5)
            v_i, v_j = rng.uniform(0.8, 1.2, size=2)
            theta = rng.uniform(-1.5, 1.5)
            k = effective_coeffs(LineParams(g=g, b=b, g_shunt_from=g_sh), v_i, v_j)
            got = line_power(k, theta, "from")
            want = oracle_line_power(g, b, g_sh, v_i, v_j, theta)
            assert got == pytest.approx(want, abs=1e-12)

    def test_reverse_direction_is_forward_at_negated_angle(self, rng):
        for _ in range(50):
            theta = rng.uniform(-1.0, 1.0)
            k = effective_coeffs(LineParams(g=1.3, b=-7.0), 1.0, 1.0)
            assert line_power(k, theta, "to") == pytest.approx(
                line_power(k, -theta, "from"), abs=1e-14
            )

    def test_periodicity(self, rng):
        theta = rng.uniform(-1.0, 1.0, size=20)
        np.testing.assert_allclose(
            line_power(TABLE_COEFFS, theta),
            line_power(TABLE_COEFFS, theta + 2 * math.pi),
            atol=1e-12,
        )

    @given(st.floats(-math.pi / 2, math.pi / 2), st.floats(0.01, 5.0), st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_per_line_loss_nonnegative(self, theta, g, b):
        k = effective_coeffs(LineParams(g=g, b=b), 1.0, 1.0)
        loss = line_power(k, theta, "from") + line_power(k, theta, "to")
        assert loss >= -1e-12


def test_flow_map_matches_grid_line_powers(rng):
    edges = [(1, 2), (2, 4), (2, 5), (3, 5)]
    lines = {e: LineParams(g=rng.uniform(0.5, 3.0), b=rng.uniform(-25.0, -5.0),
                           g_shunt_from=0.05, g_shunt_to=0.02) for e in edges}
    grid = Grid([1, 2, 3, 4, 5], edges, lines, voltages={1: 1.02, 2: 0.97, 3: 1.05, 4: 0.95, 5: 1.0})
    theta = rng.uniform(-math.pi / 2, math.pi / 2, size=(50, grid.n_edges))
    np.testing.assert_allclose(
        lift_grid(grid, theta) @ flow_map(grid).T, grid_line_powers(grid, theta), rtol=0, atol=1e-13
    )


class TestInjections:
    def test_zero_flows(self, five_bus_grid):
        np.testing.assert_array_equal(
            injections_from_flows(five_bus_grid, np.zeros(8)), np.zeros(5)
        )

    def test_single_flow_lands_on_from_node(self, five_bus_grid):
        p_e = np.zeros(8)
        p_e[0] = 0.5  # edge (1, 2), direction 1->2
        p_g = injections_from_flows(five_bus_grid, p_e)
        np.testing.assert_allclose(p_g, [0.5, 0, 0, 0, 0])

    def test_sum_identity(self, five_bus_grid, rng):
        p_e = rng.normal(size=8)
        p_g = injections_from_flows(five_bus_grid, p_e)
        assert np.sum(p_g) == pytest.approx(float(p_e.sum()), abs=1e-12)

    def test_dimension_mismatch(self, five_bus_grid):
        with pytest.raises(DimensionMismatch):
            injections_from_flows(five_bus_grid, np.zeros(7))

    def test_injection_matrix_columns(self, five_bus_grid):
        m = injection_matrix(five_bus_grid)
        assert m.shape == (5, 8)
        np.testing.assert_array_equal(m.sum(axis=0), np.ones(8))


class TestTotalLosses:
    # the losses are the sum of the nodal injections
    def test_consistent_with_per_line_losses(self, five_bus_grid, rng):
        theta = rng.uniform(-0.3, 0.3, size=4)
        p_e = grid_line_powers(five_bus_grid, theta)
        per_line = p_e[0::2] + p_e[1::2]
        total = np.sum(injections_from_flows(five_bus_grid, p_e))
        assert total == pytest.approx(float(per_line.sum()), abs=1e-12)


class TestSolveRadialPf:
    def test_two_bus_zero_injection(self):
        g = Grid([1, 2], [(1, 2)], {(1, 2): TABLE_LINE})
        res = solve_radial_pf(g, {1: 0.0}, slack=2)
        assert res.theta[0] == pytest.approx(0.0, abs=1e-12)
        assert res.slack_injection == pytest.approx(0.0, abs=1e-12)

    def test_two_bus_half_pu(self):
        # oracle: bisection on 2 - 2 cos t + 20 sin t = 0.5
        f = lambda t: 2 - 2 * math.cos(t) + 20 * math.sin(t) - 0.5
        lo, hi = 0.0, 0.1
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        g = Grid([1, 2], [(1, 2)], {(1, 2): TABLE_LINE})
        res = solve_radial_pf(g, {1: 0.5}, slack=2)
        assert res.theta[0] == pytest.approx(lo, abs=1e-12)
        assert res.theta[0] == pytest.approx(0.02497, abs=5e-6)

    def test_round_trip_on_five_bus_grid(self, five_bus_grid, rng):
        for _ in range(25):
            inj = {n: rng.uniform(-0.8, 0.8) for n in (1, 2, 3, 4)}
            res = solve_radial_pf(five_bus_grid, inj, slack=5, tol=1e-10)
            p_e = grid_line_powers(five_bus_grid, res.theta)
            p_g = injections_from_flows(five_bus_grid, p_e)
            for n in (1, 2, 3, 4):
                assert p_g[five_bus_grid.node_index(n)] == pytest.approx(inj[n], abs=1e-10)
            assert p_g[4] == pytest.approx(res.slack_injection, abs=1e-10)

    def test_unreachable_flow_raises(self):
        g = Grid([1, 2], [(1, 2)], {(1, 2): TABLE_LINE})
        with pytest.raises(AngleOutOfTrustRegion):
            solve_radial_pf(g, {1: 50.0}, slack=2)

    def test_sweep_limit_raises_no_convergence(self, five_bus_grid):
        # one leaf-to-root sweep solves a radial grid up to roundoff, so the
        # replayed residual check fails only for a tolerance below roundoff
        inj = {1: 0.6, 2: -0.3, 3: 0.5, 4: -0.4}
        with pytest.raises(NoConvergence) as info:
            solve_radial_pf(five_bus_grid, inj, slack=5, tol=1e-18)
        assert info.value.iterations == 1 and 1e-18 < info.value.residual < 1e-12

    def test_missing_injection_rejected(self, five_bus_grid):
        with pytest.raises(UnknownNode):
            solve_radial_pf(five_bus_grid, {1: 0.0}, slack=5)

    def test_slack_choice_consistency(self, five_bus_grid, rng):
        grid = five_bus_grid
        inj = {n: rng.uniform(-0.4, 0.4) for n in (1, 2, 3, 4)}
        res5 = solve_radial_pf(grid, inj, slack=5)
        inj_with_5 = dict(inj)
        total = res5.slack_injection
        del inj_with_5[1]
        inj_with_5[5] = total
        res1 = solve_radial_pf(grid, inj_with_5, slack=1)
        np.testing.assert_allclose(res1.theta, res5.theta, atol=1e-9)


def test_package_import_leaves_scipy_optimize_unloaded():
    # solve_radial_pf imports brentq when it runs, so `import ddopf` stays
    # clear of scipy.optimize's import time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ddopf; assert 'scipy.optimize' not in sys.modules, 'loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)

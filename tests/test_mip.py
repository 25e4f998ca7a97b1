import math

import numpy as np
import pytest

from ddopf.conic import ConicProgram, MixedBinaryProgram, check_feasibility
from ddopf.errors import TooManyBinaries
from ddopf.mip import solve_mixed_binary


def binary_box(n, lb=None, ub=None, nb=None):
    lo = np.full(n, -3.0) if lb is None else np.asarray(lb, float)
    hi = np.full(n, 3.0) if ub is None else np.asarray(ub, float)
    for k in nb or ():
        lo[k], hi[k] = 0.0, 1.0
    return lo, hi


def random_mbp(rng, n_cont=4, n_bin=4, n_balls=1, m=6, p=1):
    """Feasible, bounded mixed-binary program around a random interior point."""
    n = n_cont + n_bin
    bidx = tuple(range(n_cont, n))
    x0 = np.concatenate([rng.uniform(-0.5, 0.5, size=n_cont), rng.uniform(0.2, 0.8, size=n_bin)])
    lb, ub = binary_box(n, nb=bidx)
    A_in = rng.normal(size=(m, n))
    b_in = A_in @ x0 + rng.uniform(0.3, 1.5, size=m)
    A_eq = rng.normal(size=(p, n_cont))
    A_eq = np.hstack([A_eq, np.zeros((p, n_bin))])
    b_eq = A_eq @ x0
    balls = [(2 * k, 2 * k + 1) for k in range(n_balls) if 2 * k + 1 < n_cont]
    c = rng.normal(size=n)
    prog = ConicProgram.build(
        c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub, balls=balls
    )
    return MixedBinaryProgram(prog, bidx)


class TestSpecExamples:
    def test_single_binary(self):
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[1.0])
        sol = solve_mixed_binary(MixedBinaryProgram(prog, (0,)))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.binary_values == (0.0,)

    def test_coupled_binary_and_ball(self):
        # min -x0 - 2 d  s.t.  x0 <= d,  d binary,  x0^2 + x1^2 <= 1
        prog = ConicProgram.build(
            c=[-1.0, 0.0, -2.0],
            A_in=[[1.0, 0.0, -1.0]],
            b_in=[0.0],
            lb=[-np.inf, -np.inf, 0.0],
            ub=[np.inf, np.inf, 1.0],
            balls=[(0, 1)],
        )
        mbp = MixedBinaryProgram(prog, (2,))
        for strategy in ("enumerate", "branch_and_bound"):
            sol = solve_mixed_binary(mbp, strategy=strategy)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(-3.0, abs=1e-7)
            assert sol.binary_values == (1.0,)
            assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


class TestStrategyEquivalence:
    def test_random_programs_agree(self, rng):
        for trial in range(25):
            mbp = random_mbp(
                rng,
                n_cont=int(rng.integers(2, 5)),
                n_bin=int(rng.integers(2, 7)),
                n_balls=int(rng.integers(0, 2)),
            )
            a = solve_mixed_binary(mbp, strategy="enumerate")
            b = solve_mixed_binary(mbp, strategy="branch_and_bound")
            assert a.status == b.status == "optimal"
            assert a.objective == pytest.approx(b.objective, abs=1e-7)
            assert check_feasibility(mbp.base, b.x) <= 1e-6
            assert all(v in (0.0, 1.0) for v in b.binary_values)

    def test_relaxation_lower_bounds_integer_optimum(self, rng):
        from ddopf.ipm import solve_convex

        for _ in range(10):
            mbp = random_mbp(rng)
            relaxed = solve_convex(mbp.base)
            integer = solve_mixed_binary(mbp, strategy="enumerate")
            assert relaxed.objective <= integer.objective + 1e-7

    def test_determinism(self, rng):
        mbp = random_mbp(rng, n_bin=5)
        sols = [solve_mixed_binary(mbp, strategy="branch_and_bound") for _ in range(2)]
        assert sols[0].binary_values == sols[1].binary_values
        np.testing.assert_array_equal(sols[0].x, sols[1].x)

    def test_hinted_root_reuses_hint_solve(self):
        # the relaxation is integral at the hint (1, 1). At tol=1e-6 its dual
        # bound sits more than the pruning margin (mip._PRUNE_EPS, 1e-8) below
        # the hint's objective, so the root is expanded and its integral
        # assignment offered as incumbent: that solve is the hint's, reused,
        # and not counted again
        from ddopf.ipm import solve_convex

        prog = ConicProgram.build(
            c=[-1.0, 0.0, -2.0, -1.0],
            A_in=[[1.0, 0.0, -1.0, 0.0]],
            b_in=[0.0],
            lb=[-np.inf, -np.inf, 0.0, 0.0],
            ub=[np.inf, np.inf, 1.0, 1.0],
            balls=[(0, 1)],
        )
        mbp = MixedBinaryProgram(prog, (2, 3))
        np.testing.assert_allclose(solve_convex(prog, tol=1e-6).x[2:], [1.0, 1.0], atol=1e-6)
        hinted = solve_mixed_binary(
            mbp, strategy="branch_and_bound", tol=1e-6, incumbent_hint=(1.0, 1.0)
        )
        enum = solve_mixed_binary(mbp, strategy="enumerate", tol=1e-6)
        assert hinted.node_count == 2  # the hint's solve and the root relaxation
        assert hinted.binary_values == enum.binary_values == (1.0, 1.0)
        assert hinted.objective == pytest.approx(enum.objective, abs=1e-8)

    def test_hint_does_not_change_optimum(self, rng):
        mbp = random_mbp(rng, n_bin=6)
        plain = solve_mixed_binary(mbp, strategy="branch_and_bound")
        hinted = solve_mixed_binary(
            mbp, strategy="branch_and_bound", incumbent_hint=(1.0,) * 6
        )
        assert hinted.objective == pytest.approx(plain.objective, abs=1e-8)


class TestEdgeCases:
    def test_no_binaries_is_convex_solve(self):
        prog = ConicProgram.build(c=[-1.0, -1.0], balls=[(0, 1)])
        sol = solve_mixed_binary(MixedBinaryProgram(prog, ()))
        assert sol.objective == pytest.approx(-math.sqrt(2), abs=1e-8)
        assert sol.binary_values == ()

    def test_enumerate_cap(self):
        prog = ConicProgram.build(c=np.ones(13), lb=np.zeros(13), ub=np.ones(13))
        mbp = MixedBinaryProgram(prog, tuple(range(13)))
        with pytest.raises(TooManyBinaries):
            solve_mixed_binary(mbp, strategy="enumerate")

    def test_auto_picks_bb_above_cap(self):
        n = 13
        prog = ConicProgram.build(c=np.ones(n), lb=np.zeros(n), ub=np.ones(n))
        mbp = MixedBinaryProgram(prog, tuple(range(n)))
        sol = solve_mixed_binary(mbp, strategy="auto")
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    def test_infeasible_all_assignments(self):
        # x binary and 0.25 <= x <= 0.75 impossible
        prog = ConicProgram.build(
            c=[1.0], A_in=[[1.0], [-1.0]], b_in=[0.75, -0.25], lb=[0.0], ub=[1.0]
        )
        mbp = MixedBinaryProgram(prog, (0,))
        for strategy in ("enumerate", "branch_and_bound"):
            sol = solve_mixed_binary(mbp, strategy=strategy)
            assert sol.status == "infeasible"

    def test_unbounded_propagates(self):
        prog = ConicProgram.build(
            c=[-1.0, 0.0], lb=[0.0, 0.0], ub=[np.inf, 1.0]
        )
        mbp = MixedBinaryProgram(prog, (1,))
        sol = solve_mixed_binary(mbp, strategy="enumerate")
        assert sol.status == "unbounded"

    def test_lexicographic_tie_break(self):
        # two binaries, objective ignores them: ties resolve to (0, 0)
        prog = ConicProgram.build(c=[0.0, 0.0, 1.0], lb=[0.0, 0.0, 0.5], ub=[1.0, 1.0, 2.0])
        mbp = MixedBinaryProgram(prog, (0, 1))
        for strategy in ("enumerate", "branch_and_bound"):
            sol = solve_mixed_binary(mbp, strategy=strategy)
            assert sol.binary_values == (0.0, 0.0), strategy

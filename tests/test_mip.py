import math

import numpy as np
import pytest

from ddopf import mip
from ddopf.conic import ConicProgram, MixedBinaryProgram, SolveStats, check_feasibility
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
        # the relaxation is integral at the hint (1, 1). Its dual bound does
        # not exceed the hint's objective by more than the tie tolerance, so
        # the root is expanded and its integral assignment offered as
        # incumbent: that solve is the hint's, reused, and not counted again
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

    @pytest.mark.parametrize(
        "node_n, node_b_in, residuals, dual_objective, expected",
        [
            # the (1, 1) leaf stalls: its relaxation's point is not an answer
            (1, 6.0, (1e-3,) * 3, None, ((0.0, 1.0), -1.0)),
            # the root stalls with a dual objective above the hint's: no bound
            (3, 9.0, (1e-3,) * 3, 10.0, ((1.0, 1.0), -2.0)),
            # the (1, 1) leaf stalls a shade above tol 1e-8, at the residuals
            # of the case study's step-115 root (reference variant)
            (1, 6.0, (1.5e-9, 2.5e-14, 1.06e-8), None, ((0.0, 1.0), -1.0)),
        ],
        ids=["leaf-not-met", "root-not-met", "leaf-near-tol"],
    )
    def test_node_that_certifies_nothing_is_skipped(
        self, monkeypatch, node_n, node_b_in, residuals, dual_objective, expected
    ):
        # min -x0 - x1 + y, x0 and x1 binary, 0 <= y <= 5. The row
        # x0 + 2 x1 + y <= 9 never binds; it gives every node a reduced
        # program of its own (size, right-hand side), so one node's solve can
        # be made to end 'tolerance_not_met'
        real = mip.solve_convex

        def stalling(prog, **kwargs):
            sol = real(prog, **kwargs)
            if prog.n == node_n and prog.b_in[0] == node_b_in:
                sol.status, sol.kkt_residuals = "tolerance_not_met", residuals
                sol.dual_objective = dual_objective
            return sol

        monkeypatch.setattr(mip, "solve_convex", stalling)
        prog = ConicProgram.build(
            c=[-1.0, -1.0, 1.0], A_in=[[1.0, 2.0, 1.0]], b_in=[9.0], lb=[0.0] * 3, ub=[1.0, 1.0, 5.0]
        )
        mbp = MixedBinaryProgram(prog, (0, 1))
        enum = solve_mixed_binary(mbp, strategy="enumerate", tol=1e-8)
        assert (enum.binary_values, round(enum.objective, 6)) == expected
        for hint in (None, (0.0, 1.0)):
            bnb = solve_mixed_binary(
                mbp, strategy="branch_and_bound", tol=1e-8, incumbent_hint=hint
            )
            assert bnb.status == "optimal"
            assert bnb.binary_values == enum.binary_values, hint
            assert bnb.objective == pytest.approx(enum.objective, abs=1e-8)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_tied_optima_give_enumerations_assignment(self, k):
        # min -sum(x) + y, sum(x) <= 1, 0 <= y <= 5: every assignment with one
        # x set ties at -1; the lexicographically smallest is (0, ..., 0, 1)
        prog = ConicProgram.build(
            c=[-1.0] * k + [1.0], A_in=[[1.0] * k + [0.0]], b_in=[1.0],
            lb=[0.0] * (k + 1), ub=[1.0] * k + [5.0],
        )
        mbp = MixedBinaryProgram(prog, tuple(range(k)))
        enum = solve_mixed_binary(mbp, strategy="enumerate")
        bnb = solve_mixed_binary(mbp, strategy="branch_and_bound")
        assert enum.binary_values == bnb.binary_values == (0.0,) * (k - 1) + (1.0,)
        assert bnb.objective == pytest.approx(enum.objective, abs=1e-8)

    def test_hint_does_not_change_optimum(self, rng):
        mbp = random_mbp(rng, n_bin=6)
        plain = solve_mixed_binary(mbp, strategy="branch_and_bound")
        hinted = solve_mixed_binary(
            mbp, strategy="branch_and_bound", incumbent_hint=(1.0,) * 6
        )
        assert hinted.objective == pytest.approx(plain.objective, abs=1e-8)


def loosened(mbp, rng):
    """mbp with its inequality right-hand side loosened by up to 0.05."""
    base = mbp.base
    prog = ConicProgram.build(
        c=base.c, A_eq=base.A_eq, b_eq=base.b_eq, A_in=base.A_in,
        b_in=base.b_in + rng.uniform(0.0, 0.05, size=base.b_in.size),
        lb=base.lb, ub=base.ub, balls=base.balls,
    )
    return MixedBinaryProgram(prog, mbp.binary_indices)


class TestWarmStarts:
    def test_warm_dict_keeps_the_optimum(self, rng):
        # sequences of nearby programs of one shape, as a closed loop poses
        for trial in range(6):
            mbp = random_mbp(rng, n_bin=int(rng.integers(2, 6)), n_balls=trial % 2)
            warm: dict = {}
            hint = None
            for _ in range(4):
                plain = solve_mixed_binary(mbp, strategy="branch_and_bound", incumbent_hint=hint)
                warmed = solve_mixed_binary(
                    mbp, strategy="branch_and_bound", incumbent_hint=hint, warm_starts=warm
                )
                assert plain.status == warmed.status == "optimal"
                assert warmed.binary_values == plain.binary_values
                assert warmed.objective == pytest.approx(plain.objective, abs=1e-8)
                hinted, hint = hint, plain.binary_values
                mbp = loosened(mbp, rng)
            # keyed by the sorted fixed (index, value) pairs: the root fixes
            # none, the hinted node all of them
            assert () in warm and tuple(zip(mbp.binary_indices, hinted)) in warm
            assert all(sol.status == "optimal" for sol in warm.values())

    def test_each_node_starts_from_its_own_shape(self, rng, monkeypatch):
        real = mip.solve_convex
        starts = []

        def recording(prog, warm_start=None, **kwargs):
            starts.append((prog.n, None if warm_start is None else warm_start.x.size))
            return real(prog, warm_start=warm_start, **kwargs)

        monkeypatch.setattr(mip, "solve_convex", recording)
        mbp = random_mbp(rng, n_bin=3)
        hint = solve_mixed_binary(mbp, strategy="enumerate").binary_values
        warm: dict = {}
        for call in range(3):
            del starts[:]
            sol = solve_mixed_binary(
                mbp, strategy="branch_and_bound", incumbent_hint=hint, warm_starts=warm
            )
            assert sol.node_count == len(starts) == 2  # the hinted node and the root
            n_free = (mbp.base.n - mbp.n_binaries, mbp.base.n)
            expected = [(n, None if call == 0 else n) for n in n_free]
            assert starts == expected
            mbp = loosened(mbp, rng)

    def test_uncertified_node_does_not_seed_warm_starts(self, monkeypatch):
        real = mip.solve_convex

        def near_tol(prog, **kwargs):
            sol = real(prog, **kwargs)
            sol.status = "tolerance_not_met"  # at the residuals of an optimal solve
            return sol

        monkeypatch.setattr(mip, "solve_convex", near_tol)
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[1.0])
        warm: dict = {}
        sol = solve_mixed_binary(
            MixedBinaryProgram(prog, (0,)), strategy="branch_and_bound", warm_starts=warm
        )
        assert sol.status == "tolerance_not_met"
        assert warm == {}

    def test_enumeration_ignores_warm_dict(self, rng):
        warm: dict = {}
        solve_mixed_binary(random_mbp(rng), strategy="enumerate", warm_starts=warm)
        assert warm == {}

    @pytest.mark.parametrize("strategy", ["enumerate", "branch_and_bound"])
    def test_stats_sum_every_convex_solve(self, rng, monkeypatch, strategy):
        real = mip.solve_convex
        seen = []

        def recording(prog, **kwargs):
            sol = real(prog, **kwargs)
            seen.append(sol.stats)
            return sol

        monkeypatch.setattr(mip, "solve_convex", recording)
        sol = solve_mixed_binary(random_mbp(rng, n_bin=4), strategy=strategy)
        assert len(seen) == sol.node_count > 1
        assert sol.stats == sum(seen, SolveStats())


def spy_enumeration(monkeypatch, stall=()):
    """Record every convex solve of solve_mixed_binary as (fixed binaries,
    warm start, solution, status). Optimal solves whose position is in stall
    end 'tolerance_not_met' instead, at their optimal residuals, so they are
    neither accepted nor a warm start."""
    real_fixed, real_convex = mip._solve_fixed, mip.solve_convex
    calls, current = [], {}

    def solve_fixed(base, fixed, tol, warm_start=None):
        current["fixed"] = tuple(fixed[i] for i in sorted(fixed))
        return real_fixed(base, fixed, tol, warm_start)

    def solve_convex(prog, warm_start=None, **kwargs):
        sol = real_convex(prog, warm_start=warm_start, **kwargs)
        if len(calls) in stall and sol.status == "optimal":
            sol.status = "tolerance_not_met"
        calls.append((current["fixed"], warm_start, sol, sol.status))
        return sol

    monkeypatch.setattr(mip, "_solve_fixed", solve_fixed)
    monkeypatch.setattr(mip, "solve_convex", solve_convex)
    return calls


def sum_at_most(k, cap):
    """Binaries x (k) and a continuous y in [0, 5]: min -sum(x) + y s.t.
    sum(x) + y / 10 <= cap."""
    prog = ConicProgram.build(
        c=[-1.0] * k + [1.0], A_in=[[1.0] * k + [0.1]], b_in=[cap],
        lb=[0.0] * (k + 1), ub=[1.0] * k + [5.0],
    )
    return MixedBinaryProgram(prog, tuple(range(k)))


class TestGrayCodeEnumeration:
    def test_neighbours_differ_in_one_binary(self, rng, monkeypatch):
        calls = spy_enumeration(monkeypatch)
        k = 4
        solve_mixed_binary(random_mbp(rng, n_bin=k), strategy="enumerate")
        visited = [fixed for fixed, *_ in calls[: 2**k]]
        assert visited[0] == (0.0,) * k
        assert len(set(visited)) == 2**k
        for a, b in zip(visited, visited[1:]):
            assert sum(u != v for u, v in zip(a, b)) == 1
        # reflected Gray code, the first binary most significant
        assert visited[:4] == [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0),
                               (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 1.0, 0.0)]

    def test_warm_start_is_the_last_own_optimal_solve(self, monkeypatch):
        # sum(x) <= 1.5 with 3 binaries: every assignment with two or more
        # ones is infeasible, and in Gray order (0, 1, 1) follows (0, 0, 1).
        # The solve of (0, 1, 0), the fourth, stalls
        calls = spy_enumeration(monkeypatch, stall={3})
        sol = solve_mixed_binary(sum_at_most(3, 1.5), strategy="enumerate")
        assert sol.status == "optimal"
        statuses = [status for *_, status in calls]
        assert statuses[:8] == ["optimal", "optimal", "infeasible", "tolerance_not_met",
                                "infeasible", "infeasible", "infeasible", "optimal"]
        seed = None
        for fixed, warm_start, node, status in calls[:8]:
            assert warm_start is seed, fixed
            if status == "optimal":
                seed = node

    def test_all_infeasible_gets_no_warm_start(self, monkeypatch):
        calls = spy_enumeration(monkeypatch)
        mbp = sum_at_most(3, -0.5)
        sol = solve_mixed_binary(mbp, strategy="enumerate")
        assert sol.status == "infeasible"
        assert sol.node_count == len(calls) == 8
        assert all(warm_start is None for _, warm_start, _, _ in calls)

    def test_first_unbounded_leaf_in_gray_order(self, monkeypatch):
        # y has no upper bound and a falling cost; sum(x) >= 1.5 leaves only
        # assignments with two ones or more feasible, the first of them in
        # Gray order (0, 1, 1)
        calls = spy_enumeration(monkeypatch)
        prog = ConicProgram.build(
            c=[0.0, 0.0, 0.0, -1.0], A_in=[[-1.0, -1.0, -1.0, 0.0]], b_in=[-1.5],
            lb=[0.0] * 4, ub=[1.0, 1.0, 1.0, np.inf],
        )
        sol = solve_mixed_binary(MixedBinaryProgram(prog, (0, 1, 2)), strategy="enumerate")
        assert sol.status == "unbounded"
        assert sol.binary_values == (0.0, 1.0, 1.0)
        assert sol.node_count == len(calls) == 3

    def test_winner_is_a_cold_solve(self, rng, monkeypatch):
        from ddopf.ipm import solve_convex

        calls = spy_enumeration(monkeypatch)
        checked = 0
        while checked < 3:
            mbp = random_mbp(rng, n_bin=int(rng.integers(2, 5)))
            del calls[:]
            sol = solve_mixed_binary(mbp, strategy="enumerate")
            k = mbp.n_binaries
            if sol.status != "optimal" or sol.binary_values == (0.0,) * k:
                continue
            # solved warm among the 2^k nodes, then once more cold
            assert sol.node_count == len(calls) == 2**k + 1
            assert calls[-1][0] == sol.binary_values and calls[-1][1] is None
            reduced, keep, offset = mbp.base.fix_variables(
                dict(zip(mbp.binary_indices, sol.binary_values))
            )
            cold = solve_convex(reduced, tol=1e-9)
            assert sol.x[keep].tobytes() == cold.x.tobytes()
            assert sol.objective == cold.objective + offset
            assert sol.stats == sum((node.stats for _, _, node, _ in calls), SolveStats())
            checked += 1


class TestEdgeCases:
    def test_no_binaries_is_convex_solve(self):
        # k = 0 runs each strategy's one node: the base program, nothing fixed
        from ddopf.ipm import solve_convex

        programs = {
            "optimal": ConicProgram.build(c=[-1.0, -1.0], balls=[(0, 1)]),
            "unbounded": ConicProgram.build(c=[-1.0, 0.0], lb=[0.0, 0.0], ub=[np.inf, 1.0]),
            "infeasible": ConicProgram.build(c=[0.0], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]),
        }
        for status, prog in programs.items():
            direct = solve_convex(prog)
            assert direct.status == status
            for strategy in ("auto", "enumerate", "branch_and_bound"):
                sol = solve_mixed_binary(MixedBinaryProgram(prog, ()), strategy=strategy)
                assert sol.status == status
                np.testing.assert_equal(sol.objective, direct.objective)
                assert (sol.node_count, sol.stats.iterations) == (1, direct.stats.iterations)
                assert sol.binary_values == (None if status == "infeasible" else ())
                if status == "optimal":
                    assert sol.objective == pytest.approx(-math.sqrt(2), abs=1e-8)
                    assert sol.x.tobytes() == direct.x.tobytes()

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

    @pytest.mark.parametrize("strategy, solves", [("enumerate", 2), ("branch_and_bound", 3)])
    def test_uncertified_leaves_are_not_reported_infeasible(self, monkeypatch, strategy, solves):
        # every solve stalls: nothing is accepted, and nothing is certified
        # infeasible either
        real = mip.solve_convex

        def stalling(prog, **kwargs):
            sol = real(prog, **kwargs)
            sol.status, sol.kkt_residuals = "tolerance_not_met", (1e-3, 1e-3, 1e-3)
            return sol

        monkeypatch.setattr(mip, "solve_convex", stalling)
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[1.0])
        sol = solve_mixed_binary(MixedBinaryProgram(prog, (0,)), strategy=strategy)
        assert (sol.status, sol.node_count) == ("tolerance_not_met", solves)

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

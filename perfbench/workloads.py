"""The benchmark's three workloads over the public ddopf API.

All three are closed loops: one caller in one process, each call waiting for
the previous one. A workload makes every input from its seed (the models
are fitted to the case study's excitation draws), splits its work into
units that are indexed deterministically, and checks each unit's outputs
against the acceptance suite's tolerances. An op that raised, returned a non-optimal
status or failed its unit's check counts as failed; only the last kind is a
wrong output. Ops whose output cannot be checked, because the reference
they are compared with failed, count as failed but not as wrong.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ddopf import conic, microgrid, mip, opf
from ddopf.behavior import DataDrivenLineModel
from ddopf.excitation import generate_excitation

from hostclock import HostClock
from tracer import Tracer, call_marks

GRID = microgrid.default_grid()
CONFIG = microgrid.default_config()
VARIANTS = opf.VARIANTS
CASE_STEPS = 336  # the paper's week of 30-minute steps

# acceptance tolerances (tests/test_acceptance.py), unchanged
TRAJ_TOL = 1e-4
AUDIT_TOL = 1e-6
KPI_TOL = 1e-4
OPF_TOL = 1e-4
TIGHT_TOL = 1e-6
ENUM_OBJ_TOL = 1e-8


@dataclass
class UnitResult:
    """Outcome of one unit of work.

    failed counts every failed op, wrong those among them whose output failed
    a correctness gate. ops holds (tag, start, end) perf_counter() times for
    each op that ran; busy holds (start, end) of the package calls that
    contain the ops; expected_solves is the number of convex solves the
    package reports for the unit (node counts plus direct solves).
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    ops: list[tuple[str, float, float]] = field(default_factory=list)
    busy: list[tuple[float, float]] = field(default_factory=list)
    expected_solves: int = 0


def _seed_ints(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _fit_models() -> dict:
    """Per-edge and all-pairs models fitted as in the case study.

    The excitation draws are the acceptance suite's (seeds 2024 and 2025), so
    every seed measures the same models and only the traffic varies. Seeded
    draws would make per-op cost follow the draw's conditioning: with an
    ill-conditioned all-pairs draw dd-generalized needs 10-13 IPM iterations
    instead of 7.8 and some of its solves end tolerance_not_met (README.md).
    """
    edge = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=2024))
    pair = DataDrivenLineModel.from_trajectory(
        generate_excitation(GRID, 21, seed=2025, mode="all-pairs"), include_injections=True
    )
    return {"reference": None, "dd": edge, "dd-convex": edge, "dd-generalized": pair}


def _boundary_ops(tag: str, marks: list[float], end: float) -> list[tuple[str, float, float]]:
    bounds = marks + [end]
    return [(tag, bounds[i], bounds[i + 1]) for i in range(len(marks))]


class MpcLoop:
    """Case-study receding-horizon loop, all four variants over one window.

    A unit is STEPS closed-loop steps from the initial plant state, run by
    each variant in turn on the same forecast window; one op is one MPC step
    (build, B&B solve with the incumbent hint, dd restoration, plant update).
    Step cost depends on the time of day, so consecutive units walk the day's
    phases in a spread order, and on the weather: one seeded week of profiles
    costs up to 15% more or less than another. A run holds only about a dozen
    units, so set-up makes PROFILES seeded weeks and unit i uses week
    i % PROFILES; the seed also picks each unit's day.
    """

    name = "mpc-loop"
    STEPS = 4
    PHASES = (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11)  # the 12 four-step phases of a day
    STEPS_PER_DAY = 48
    PROFILES = 12
    TRACE_UNITS = 6

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.models = _fit_models()
        self.profiles = [
            microgrid.generate_profiles(
                int(_seed_ints(self.seed, 1, k).integers(0, 2**31)),
                CASE_STEPS + CONFIG.horizon,
                CONFIG,
            )
            for k in range(self.PROFILES)
        ]

    def unit(self, i: int):
        day = int(_seed_ints(self.seed, 2, i).integers(0, CASE_STEPS // self.STEPS_PER_DAY))
        phase = self.PHASES[i % len(self.PHASES)]
        offset = day * self.STEPS_PER_DAY + phase * self.STEPS
        return self.profiles[i % self.PROFILES], offset, self.STEPS

    def warmup_unit(self):
        profiles, offset, _ = self.unit(0)
        return profiles, offset, 2

    def run(self, unit, tracer: Tracer, clock: HostClock) -> UnitResult:
        profiles, offset, steps = unit
        models = self.models
        window = profiles.window(offset, steps + CONFIG.horizon)
        out = UnitResult()
        results = {}
        for variant in VARIANTS:
            with call_marks(microgrid, "build_mpc_step", clock.tick) as marks:
                t0 = time.perf_counter()
                try:
                    results[variant] = microgrid.run_closed_loop(
                        CONFIG, GRID, window, variant, steps, model=models[variant]
                    )
                except Exception as exc:  # an op failure, counted and reported
                    traceback.print_exception(exc, file=sys.stderr)
                t1 = time.perf_counter()
            out.busy.append((t0, t1))
            out.ops += _boundary_ops(variant, marks, t1)
            if variant in results:
                out.expected_solves += sum(rec.nodes for rec in results[variant].records)
        with tracer.paused():
            wrong = self._check(results, window)
        out.attempted = steps * len(VARIANTS)
        # without the reference no variant can be checked
        failed = set(VARIANTS) if "reference" not in results else set(VARIANTS) - set(results)
        out.failed = steps * len(failed | wrong)
        out.wrong = steps * len(wrong)
        return out

    @staticmethod
    def _check(results: dict, window) -> set[str]:
        """Variants with wrong steps: drifted from the reference or failed the
        audit; every variant is wrong when the KPI spread is too wide."""
        if "reference" not in results:
            return set()
        ref = results["reference"]
        wrong = set()
        for variant, res in results.items():
            for col in ("delta", "p_t", "p_s", "p_r", "p_g", "p_e", "x", "p_d"):
                if float(np.max(np.abs(res.column(col) - ref.column(col)))) > TRAJ_TOL:
                    wrong.add(variant)
            if not microgrid.audit_closed_loop(res, window, tol=AUDIT_TOL).passed:
                wrong.add(variant)
        kpis = [microgrid.compute_kpis(res) for res in results.values()]
        for col in range(2):
            vals = [k[col] for k in kpis]
            if max(vals) - min(vals) > KPI_TOL:
                return set(results)
        return wrong


class OpfSweep:
    """Seeded single-step OPF instances, each solved by all four variants.

    Instances follow the acceptance suite's criterion-5 generator: a demand
    at node 5, distinct supply costs at nodes 1-4 and a random source cap.
    A unit is one instance; one op is one solve_opf call.
    """

    name = "opf-sweep"
    TRACE_UNITS = 100

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.models = _fit_models()

    def unit(self, i: int):
        rng = _seed_ints(self.seed, 3, i)
        demand = float(rng.uniform(0.1, 0.7))
        while True:
            draws = rng.uniform(0.0, 0.8, size=4)
            if np.min(np.diff(np.sort(draws))) >= 0.05:
                break
        costs = {n: float(c) for n, c in zip((1, 2, 3, 4), draws)}
        cap = float(rng.uniform(0.6, 1.2))
        return opf.demand_instance(GRID, {5: demand}, source_cap=cap, source_costs=costs)

    def warmup_unit(self):
        return self.unit(0)

    def run(self, unit, tracer: Tracer, clock: HostClock) -> UnitResult:
        app, objective = unit
        out = UnitResult()
        sols = {}
        for variant in VARIANTS:
            clock.tick()
            t0 = time.perf_counter()
            try:
                sols[variant] = opf.solve_opf(
                    GRID, variant, self.models[variant], app, objective, beta=1.0
                )
            except Exception as exc:  # an op failure, counted and reported
                traceback.print_exception(exc, file=sys.stderr)
            t1 = time.perf_counter()
            out.busy.append((t0, t1))
            out.ops.append((f"opf.{variant}", t0, t1))
        out.expected_solves = len(VARIANTS)
        with tracer.paused():
            failed = {v for v in VARIANTS if v not in sols or sols[v].status != "optimal"}
            wrong = set()
            if "reference" in failed:  # without the reference no variant can be checked
                failed = set(VARIANTS)
            ref = sols.get("reference")
            for variant in set(VARIANTS) - failed:
                sol = sols[variant]
                dev = max(
                    float(np.max(np.abs(sol.p_e - ref.p_e))),
                    float(np.max(np.abs(sol.p_g - ref.p_g))),
                )
                if dev > OPF_TOL:
                    wrong.add(variant)
            if "dd-convex" not in failed and sols["dd-convex"].tightness.max_residual > TIGHT_TOL:
                wrong.add("dd-convex")
        out.attempted = len(VARIANTS)
        out.failed = len(failed | wrong)
        out.wrong = len(wrong)
        return out


class MipEnumerate:
    """Seeded case-study MPC steps (dd-convex, H=6) solved by enumeration.

    Enumeration runs over the first BINARIES of the step's 12 commitment
    binaries; the others stay continuous in [0, 1]. A unit is one program,
    cross-checked by hint-free branch & bound; one op is one node solve.
    """

    name = "mip-enumerate"
    BINARIES = 4
    TRACE_UNITS = 12

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.model = _fit_models()["dd-convex"]
        self.profiles = microgrid.generate_profiles(
            int(_seed_ints(self.seed, 1).integers(0, 2**31)),
            CASE_STEPS + CONFIG.horizon,
            CONFIG,
        )

    def unit(self, i: int, binaries: int | None = None):
        rng = _seed_ints(self.seed, 4, i)
        offset = int(rng.integers(0, CASE_STEPS))
        state = microgrid.PlantState(
            x=rng.uniform(CONFIG.x_soft_min, CONFIG.x_soft_max),
            delta_prev=rng.integers(0, 2, size=2).astype(float),
        )
        prog, _ = microgrid.build_mpc_step(
            CONFIG,
            GRID,
            "dd-convex",
            state,
            self.profiles.window(offset, CONFIG.horizon),
            self.model,
        )
        keep = prog.binary_indices[: binaries or self.BINARIES]
        return conic.MixedBinaryProgram(prog.base, keep)

    def warmup_unit(self):
        return self.unit(0, binaries=2)

    def run(self, unit, tracer: Tracer, clock: HostClock) -> UnitResult:
        out = UnitResult()
        n_nodes = 2 ** unit.n_binaries
        enum = None
        with call_marks(conic.ConicProgram, "fix_variables", clock.tick) as marks:
            t0 = time.perf_counter()
            try:
                enum = mip.solve_mixed_binary(unit, strategy="enumerate", tol=1e-8)
            except Exception as exc:  # an op failure, counted and reported
                traceback.print_exception(exc, file=sys.stderr)
            t1 = time.perf_counter()
        out.busy = [(t0, t1)]
        out.ops = _boundary_ops("node", marks, t1)
        out.expected_solves = enum.node_count if enum is not None else 0
        ok, agree = enum is not None and enum.status == "optimal", True
        if ok:
            with tracer.paused():
                try:
                    bnb = mip.solve_mixed_binary(unit, strategy="branch_and_bound", tol=1e-8)
                except Exception as exc:  # the cross-check cannot run: unchecked
                    traceback.print_exception(exc, file=sys.stderr)
                    ok = False
                else:
                    ok = bnb.status == "optimal"
                    agree = not ok or (
                        abs(enum.objective - bnb.objective) <= ENUM_OBJ_TOL
                        and enum.binary_values == bnb.binary_values
                    )
        out.attempted = n_nodes
        out.failed = 0 if ok and agree else n_nodes
        out.wrong = 0 if agree else n_nodes
        return out


WORKLOADS = {w.name: w for w in (MpcLoop, OpfSweep, MipEnumerate)}

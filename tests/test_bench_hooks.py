"""The package calls the benchmark's tracer (perfbench/layers.py) wraps by name.

The tracer wraps functions where their callers look them up, so a renamed or
inlined layer silently drops out of the traced metrics. These tests run the
tracer over real calls and check that the spans still appear.
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

from ddopf import conic, ipm, microgrid, mip, opf
from ddopf.behavior import DataDrivenLineModel
from ddopf.excitation import generate_excitation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GRID = microgrid.default_grid()
EDGE_MODEL = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=101))
PAIR_MODEL = DataDrivenLineModel.from_trajectory(
    generate_excitation(GRID, 21, seed=102, mode="all-pairs"), include_injections=True
)
MODELS = {"reference": None, "dd": EDGE_MODEL, "dd-convex": EDGE_MODEL, "dd-generalized": PAIR_MODEL}
OWNERS = (ipm, mip, opf, microgrid, conic.ConicProgram, ipm.KktSolver, ipm.NTScaling)


def _attributes():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


@pytest.fixture
def traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        yield tracer
    finally:
        tracer.close()


@pytest.mark.parametrize("variant", opf.VARIANTS)
def test_solve_opf_records_template_and_build(traced, variant):
    # the first call of a structure builds its program; a repeat call reuses
    # it, so it records a solve but no template or build span
    grid = microgrid.default_grid()
    app, objective = opf.demand_instance(grid, {5: 0.4})
    spans = ("opf.pf_template", "opf.build", "ipm.solve_convex")
    counts = []
    for _ in range(2):
        sol = opf.solve_opf(grid, variant, MODELS[variant], app, objective)
        assert sol.status == "optimal"
        counts.append([traced.names.count(name) for name in spans])
    assert counts == [[1, 1, 1], [1, 1, 2]]


@pytest.mark.parametrize("path", ["dense", "sparse"])
def test_adopted_cold_start_records_only_the_factorizations_run(traced, path):
    # a second cold solve of a structure, of looser inequalities so that it
    # is solved and not reused, adopts the W = I factorization the first
    # one made: it neither calls factor for it nor counts it
    if path == "dense":
        app, objective = opf.demand_instance(GRID, {5: 0.4})
        prog, _ = opf.build_reference_opf(GRID, app, objective)
    else:
        config = microgrid.default_config()
        window = microgrid.generate_profiles(3, config.horizon, config).window(0, config.horizon)
        prog = microgrid.build_mpc_step(
            config, GRID, "reference", microgrid.initial_state(config), window
        )[0].base
    first = ipm.solve_convex(prog)
    before = traced.names.count("ipm.kkt_factor")
    sol = ipm.solve_convex(dataclasses.replace(prog, b_in=prog.b_in + 1e-3))
    assert sol.status == first.status == "optimal"
    assert ipm.KktSolver(ipm.standard_form(prog)).dense == (path == "dense")
    spans = traced.names.count("ipm.kkt_factor") - before
    assert spans == sol.stats.factorizations == sol.iterations
    assert first.stats.factorizations == first.iterations + 1


def test_dd_convex_after_dd_records_a_solve_but_no_factorization(traced):
    # the four variants of one instance make four solve_convex spans, but
    # dd-convex reuses dd's solve: three solves' worth of factorizations
    grid = microgrid.default_grid()
    app, objective = opf.demand_instance(grid, {5: 0.4})
    sols = [opf.solve_opf(grid, v, MODELS[v], app, objective) for v in opf.VARIANTS]
    assert [sol.raw.stats.reused for sol in sols] == [0, 0, 1, 0]
    assert traced.names.count("ipm.solve_convex") == 4
    factors = [sol.raw.stats.factorizations for sol in sols]
    assert traced.names.count("ipm.kkt_factor") == sum(factors)
    assert factors[2] == 0 and min(factors[:2] + factors[3:]) > 0


def test_closed_loop_records_mpc_step(traced):
    config = microgrid.default_config()
    profiles = microgrid.generate_profiles(3, 1 + config.horizon, config)
    microgrid.run_closed_loop(config, GRID, profiles, "reference", 1)
    assert traced.names.count("microgrid.run_closed_loop") == 1
    assert traced.names.count("microgrid.build_mpc_step") == 1
    assert traced.names.count("opf.pf_template") == 1
    assert traced.names.count("mip.solve_mixed_binary") == 1


def test_closed_loop_taken_from_the_kept_run_records_no_solve(traced):
    # dd-convex after dd on the same inputs still builds every step, but
    # takes each from dd's run: no branch & bound, 0 nodes, so the solve
    # spans still add up to the nodes the runs report
    config = microgrid.default_config()
    model = DataDrivenLineModel.from_trajectory(generate_excitation(GRID, 9, seed=101))
    profiles = microgrid.generate_profiles(3, 2 + config.horizon, config)
    runs = [
        microgrid.run_closed_loop(config, GRID, profiles, variant, 2, model=model)
        for variant in ("dd", "dd-convex")
    ]
    assert traced.names.count("microgrid.build_mpc_step") == 4
    assert traced.names.count("mip.solve_mixed_binary") == 2
    assert [rec.nodes for rec in runs[1].records] == [0, 0]
    nodes = sum(rec.nodes for run in runs for rec in run.records)
    assert traced.names.count("ipm.solve_convex") == nodes > 0


def test_close_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    before = _attributes()
    tracer = Tracer()
    layers.install(tracer)
    try:
        wrapped = opf.pf_template
    finally:
        tracer.close()
    assert wrapped is not before[(opf, "pf_template")]
    assert inspect.unwrap(wrapped) is before[(opf, "pf_template")]
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key[1] for key in before if after[key] is not before[key]] == []

"""The package calls the benchmark's tracer (perfbench/layers.py) wraps by name.

The tracer wraps functions where their callers look them up, so a renamed or
inlined layer silently drops out of the traced metrics. These tests run the
tracer over real calls and check that the spans still appear.
"""

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


def test_closed_loop_records_mpc_step(traced):
    config = microgrid.default_config()
    profiles = microgrid.generate_profiles(3, 1 + config.horizon, config)
    microgrid.run_closed_loop(config, GRID, profiles, "reference", 1)
    assert traced.names.count("microgrid.run_closed_loop") == 1
    assert traced.names.count("microgrid.build_mpc_step") == 1
    assert traced.names.count("opf.pf_template") == 1
    assert traced.names.count("mip.solve_mixed_binary") == 1


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

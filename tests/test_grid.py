import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddopf.errors import (
    CycleDetected,
    Disconnected,
    EdgeOrderViolation,
    UnknownNode,
)
from ddopf.grid import (
    Grid,
    LineParams,
    adjacent_nodes,
    all_node_pairs,
    canonical_edge_order,
    load_grid,
    save_grid,
    validate_radial,
)

LP = LineParams(g=2.0, b=-20.0)


def grid_of(nodes, edges, **kw):
    return Grid(nodes, edges, {tuple(sorted(e)): LP for e in edges}, **kw)


class TestLineParams:
    def test_zero_series_admittance_rejected(self):
        with pytest.raises(ValueError):
            LineParams(g=0.0, b=0.0)

    def test_negative_shunt_conductance_rejected(self):
        with pytest.raises(ValueError):
            LineParams(g=1.0, b=0.0, g_shunt_from=-0.1)

    @pytest.mark.parametrize(
        "params", [dict(g=np.nan, b=-20.0), dict(g=2.0, b=-np.inf), dict(g=2.0, b=-20.0, b_shunt_to=np.nan)]
    )
    def test_non_finite_parameters_rejected(self, params):
        with pytest.raises(ValueError, match="line parameters must be finite"):
            LineParams(**params)

    def test_negative_shunt_susceptance_allowed(self):
        LineParams(g=1.0, b=0.0, b_shunt_from=-0.5, b_shunt_to=-0.5)


class TestValidateRadial:
    def test_five_bus_grid_ok(self, five_bus_grid):
        validate_radial(five_bus_grid)

    def test_triangle_cycle(self):
        g = grid_of([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
        with pytest.raises(CycleDetected) as exc:
            validate_radial(g)
        assert set(exc.value.cycle_edges) == {(1, 2), (1, 3), (2, 3)}

    def test_disconnected(self):
        g = grid_of([1, 2, 3, 4], [(1, 2)])
        with pytest.raises(Disconnected) as exc:
            validate_radial(g)
        comps = {frozenset(c) for c in exc.value.components}
        assert frozenset({1, 2}) in comps
        assert frozenset({3}) in comps and frozenset({4}) in comps

    def test_edge_order_violation_reports_index(self):
        g = grid_of([1, 2, 3, 4], [(2, 3), (1, 2), (3, 4)])
        with pytest.raises(EdgeOrderViolation) as exc:
            validate_radial(g)
        assert exc.value.index == 1

    def test_tree_has_n_minus_one_edges(self, five_bus_grid):
        assert five_bus_grid.n_edges == five_bus_grid.n_nodes - 1


class TestAdjacency:
    def test_hub_node(self, five_bus_grid):
        assert adjacent_nodes(five_bus_grid, 2) == {1, 4, 5}

    def test_leaf_node(self, five_bus_grid):
        assert adjacent_nodes(five_bus_grid, 1) == {2}

    def test_isolated_single_node(self):
        g = Grid([1], [], {})
        assert adjacent_nodes(g, 1) == set()

    def test_unknown_node(self, five_bus_grid):
        with pytest.raises(UnknownNode):
            adjacent_nodes(five_bus_grid, 99)


class TestAllNodePairs:
    def test_five_bus_count(self, five_bus_grid):
        pairs = all_node_pairs(five_bus_grid)
        assert len(pairs) == 10

    def test_two_nodes(self):
        g = grid_of([1, 2], [(1, 2)])
        assert all_node_pairs(g) == [(1, 2)]

    def test_four_node_order(self):
        g = grid_of([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        assert all_node_pairs(g) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_contains_every_edge_no_duplicates(self, five_bus_grid):
        pairs = all_node_pairs(five_bus_grid)
        assert len(set(pairs)) == len(pairs)
        for e in five_bus_grid.edges:
            assert e in pairs


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=15,
        unique=True,
    )
)
def test_canonical_edge_order_is_total(pairs):
    normalized = {tuple(sorted(p)) for p in pairs}
    once = canonical_edge_order(normalized)
    assert canonical_edge_order(reversed(once)) == once
    assert sorted(once) == once


@given(st.integers(2, 14), st.integers(0, 2**31 - 1))
def test_random_trees_are_radial(n_nodes, seed):
    rng = np.random.default_rng(seed)
    nodes = list(range(1, n_nodes + 1))
    edges = [(int(rng.integers(1, k)), k) for k in range(2, n_nodes + 1)]
    g = grid_of(nodes, canonical_edge_order(edges))
    validate_radial(g)
    assert g.n_edges == g.n_nodes - 1
    # every node reachable from the smallest node id
    seen = {min(g.nodes)}
    frontier = [min(g.nodes)]
    while frontier:
        nxt = adjacent_nodes(g, frontier.pop()) - seen
        seen |= nxt
        frontier.extend(nxt)
    assert seen == set(g.nodes)
    # one extra chord creates a cycle
    chords = [p for p in all_node_pairs(g) if p not in g.edges]
    if chords:
        bad = grid_of(nodes, canonical_edge_order(list(g.edges) + [chords[0]]))
        with pytest.raises(CycleDetected):
            validate_radial(bad)


def test_grid_yaml_roundtrip(tmp_path, five_bus_grid):
    path = tmp_path / "grid.yaml"
    save_grid(five_bus_grid, path)
    loaded = load_grid(path)
    assert loaded.nodes == five_bus_grid.nodes
    assert loaded.edges == five_bus_grid.edges
    assert loaded.voltages == five_bus_grid.voltages
    for e in loaded.edges:
        assert loaded.lines[e] == five_bus_grid.lines[e]


def test_package_import_leaves_yaml_unloaded():
    # load_grid, save_grid, load_config and save_config import PyYAML when
    # they run, so `import ddopf` stays clear of its memory and import time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ddopf; assert 'yaml' not in sys.modules, 'loaded'"
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_load_grid_sorts_edges(tmp_path):
    path = tmp_path / "grid.yaml"
    path.write_text(
        "nodes: [1, 2, 3]\n"
        "lines:\n"
        "  - {nodes: [2, 3], g: 2.0, b: -20.0}\n"
        "  - {nodes: [2, 1], g: 2.0, b: -20.0}\n"
    )
    g = load_grid(path)
    assert g.edges == ((1, 2), (2, 3))
    validate_radial(g)


def test_load_grid_missing_key(tmp_path):
    from ddopf.errors import SchemaError

    path = tmp_path / "bad.yaml"
    path.write_text("nodes: [1, 2]\nlines:\n  - {nodes: [1, 2], g: 2.0}\n")
    with pytest.raises(SchemaError):
        load_grid(path)


def test_voltage_defaults_and_overrides():
    g = grid_of([1, 2], [(1, 2)], voltages={1: 1.05})
    assert g.voltages == {1: 1.05, 2: 1.0}
    with pytest.raises(ValueError):
        grid_of([1, 2], [(1, 2)], voltages={1: -1.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_voltages_rejected(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        grid_of([1, 2], [(1, 2)], voltages={2: bad})


def test_grid_state_is_read_only():
    # a grid with other parameters is a new Grid: nothing kept per grid goes stale
    lines = {(1, 2): LP}
    g = Grid([1, 2], [(1, 2)], lines)
    with pytest.raises(TypeError):
        g.lines[(1, 2)] = LineParams(g=6.0, b=-60.0)
    with pytest.raises(TypeError):
        g.voltages[1] = 1.1
    with pytest.raises(TypeError):
        del g.lines[(1, 2)]
    # the caller's mapping is copied, so writing it leaves the grid as it was
    lines[(1, 2)] = LineParams(g=6.0, b=-60.0)
    assert g.lines[(1, 2)] is LP

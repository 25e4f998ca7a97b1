"""Radial grid model: buses, pi-equivalent line parameters, edge ordering.

A grid is an undirected weighted graph. Edges are unordered node pairs
stored as (i, j) with i < j, and the edge list follows a canonical
lexicographic order so that every edge-indexed vector in the package has a
single well-defined layout. Direction-stamped quantities (line powers) use
two consecutive entries per edge, [value_ij, value_ji].
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    CycleDetected,
    Disconnected,
    EdgeOrderViolation,
    SchemaError,
    UnknownNode,
)
from .files import read_mapping, write_mapping

Edge = tuple[int, int]


@dataclass(frozen=True)
class LineParams:
    """Pi-equivalent circuit parameters of one line, in per-unit.

    g/b are the series admittance components; the four shunt values sit at
    the from- and to-ends of the pi circuit and default to zero.
    """

    g: float
    b: float
    g_shunt_from: float = 0.0
    b_shunt_from: float = 0.0
    g_shunt_to: float = 0.0
    b_shunt_to: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("line parameters must be finite")
        if self.g * self.g + self.b * self.b <= 0.0:
            raise ValueError("series admittance must be nonzero")
        if self.g_shunt_from < 0.0 or self.g_shunt_to < 0.0:
            raise ValueError("shunt conductances must be nonnegative")


def normalize_edge(pair: Iterable[int]) -> Edge:
    i, j = pair
    i, j = int(i), int(j)
    if i == j:
        raise ValueError(f"self-loop edge ({i}, {j}) not allowed")
    return (i, j) if i < j else (j, i)


def canonical_edge_order(edges: Iterable[Iterable[int]]) -> list[Edge]:
    """Sort edges by (i, j) with i < j inside each pair."""
    return sorted(normalize_edge(e) for e in edges)


class Grid:
    """Radial-grid description that cannot change after construction.

    Node ids are arbitrary nonnegative integers; a dense index maps them to
    0..N_b-1 in sorted order. Construction validates membership and shapes
    but not topology; call :func:`validate_radial` for that. No attribute
    can be assigned or deleted, and `lines` and `voltages` are read-only
    mappings: a grid with other parameters is a new Grid.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        edges: Iterable[Iterable[int]],
        lines: Mapping[tuple[int, int], LineParams],
        voltages: Mapping[int, float] | float | None = None,
    ):
        node_list = [int(n) for n in nodes]
        if any(n < 0 for n in node_list):
            raise ValueError("node ids must be nonnegative")
        if len(set(node_list)) != len(node_list):
            raise ValueError("duplicate node ids")
        node_tuple = tuple(sorted(node_list))
        node_index = {n: k for k, n in enumerate(node_tuple)}

        edge_tuple = tuple(normalize_edge(e) for e in edges)
        if len(set(edge_tuple)) != len(edge_tuple):
            raise ValueError("duplicate edges")
        for i, j in edge_tuple:
            if i not in node_index or j not in node_index:
                raise UnknownNode(f"edge ({i}, {j}) references a node not in the grid")

        line_map = {normalize_edge(key): params for key, params in lines.items()}
        missing = [e for e in edge_tuple if e not in line_map]
        if missing:
            raise ValueError(f"missing line parameters for edges {missing}")

        uniform = isinstance(voltages, (int, float))
        volt = {n: float(voltages) if uniform else 1.0 for n in node_tuple}
        for n, v in ({} if voltages is None or uniform else voltages).items():
            if int(n) not in node_index:
                raise UnknownNode(f"voltage given for unknown node {n}")
            volt[int(n)] = float(v)
        if not all(0.0 < v < math.inf for v in volt.values()):
            raise ValueError("voltage magnitudes must be positive and finite")

        adjacency: dict[int, set[int]] = {n: set() for n in node_tuple}
        for i, j in edge_tuple:
            adjacency[i].add(j)
            adjacency[j].add(i)

        # the one write: __setattr__ refuses every later one
        vars(self).update(
            nodes=node_tuple,
            _node_index=node_index,
            edges=edge_tuple,
            lines=MappingProxyType(line_map),
            voltages=MappingProxyType(volt),
            _adjacency=adjacency,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"Grid is read-only; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Grid is read-only; cannot delete {name!r}")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_index(self, node: int) -> int:
        try:
            return self._node_index[node]
        except KeyError:
            raise UnknownNode(f"node {node} not in grid") from None

    def __repr__(self):
        return f"Grid(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def all_node_pairs(grid: Grid) -> list[Edge]:
    """All unordered node pairs in canonical order; length N_b*(N_b-1)/2."""
    nodes = grid.nodes
    return [(nodes[a], nodes[b]) for a in range(len(nodes)) for b in range(a + 1, len(nodes))]


def validate_radial(grid: Grid) -> None:
    """Check canonical edge order, connectivity and absence of cycles.

    Raises EdgeOrderViolation, Disconnected or CycleDetected; returns None
    when the grid is a tree in canonical form.
    """
    for k in range(1, len(grid.edges)):
        if grid.edges[k - 1] >= grid.edges[k]:
            raise EdgeOrderViolation(k)

    # Union-find over nodes; a redundant union marks a cycle.
    parent = {n: n for n in grid.nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in grid.edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            raise CycleDetected(_find_cycle(grid, (i, j)))
        parent[ri] = rj

    roots: dict[int, list[int]] = {}
    for n in grid.nodes:
        roots.setdefault(find(n), []).append(n)
    if len(roots) > 1:
        raise Disconnected(list(roots.values()))


def _find_cycle(grid: Grid, closing_edge: Edge) -> list[Edge]:
    """Edges of the cycle closed by `closing_edge`, for error reporting."""
    i, j = closing_edge
    # BFS from i to j avoiding the closing edge itself.
    prev: dict[int, int] = {i: i}
    queue = [i]
    while queue:
        cur = queue.pop(0)
        if cur == j:
            break
        for nxt in grid._adjacency[cur]:
            if {cur, nxt} == {i, j} or nxt in prev:
                continue
            prev[nxt] = cur
            queue.append(nxt)
    path = [j]
    while path[-1] != i:
        path.append(prev[path[-1]])
    cycle = [normalize_edge((path[k], path[k + 1])) for k in range(len(path) - 1)]
    cycle.append(normalize_edge(closing_edge))
    return cycle


# --- configuration file ------------------------------------------------------
#
# Grid YAML schema (all values IEEE-754 doubles):
#   nodes: [1, 2, ...]
#   voltages: {node: value}           # optional, default 1.0 everywhere
#   lines:
#     - nodes: [i, j]
#       g: <series conductance, pu>
#       b: <series susceptance, pu>
#       g_shunt_from / b_shunt_from / g_shunt_to / b_shunt_to: optional, pu
#
# Loading sorts the edge list into canonical order.


def load_grid(path) -> Grid:
    raw = read_mapping(path, "grid config")
    if "nodes" not in raw:
        raise SchemaError("grid config missing required key", column="nodes")
    if "lines" not in raw:
        raise SchemaError("grid config missing required key", column="lines")
    entries = raw["lines"]
    if not isinstance(entries, list):
        raise SchemaError("grid config key 'lines' must be a list", column="lines")
    try:
        edges = []
        lines = {}
        for k, entry in enumerate(entries):
            if "nodes" not in entry:
                raise SchemaError(f"line entry {k} missing 'nodes'", column="lines.nodes")
            for req in ("g", "b"):
                if req not in entry:
                    raise SchemaError(f"line entry {k} missing {req!r}", column=f"lines.{req}")
            pair = normalize_edge(entry["nodes"])
            edges.append(pair)
            lines[pair] = LineParams(
                g=float(entry["g"]),
                b=float(entry["b"]),
                g_shunt_from=float(entry.get("g_shunt_from", 0.0)),
                b_shunt_from=float(entry.get("b_shunt_from", 0.0)),
                g_shunt_to=float(entry.get("g_shunt_to", 0.0)),
                b_shunt_to=float(entry.get("b_shunt_to", 0.0)),
            )
        voltages = raw.get("voltages")
        if voltages is not None:
            if not isinstance(voltages, dict):
                raise SchemaError("grid config key 'voltages' must be a mapping", column="voltages")
            voltages = {int(k): float(v) for k, v in voltages.items()}
        return Grid(raw["nodes"], canonical_edge_order(edges), lines, voltages)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid grid config: {exc}") from exc


def save_grid(grid: Grid, path) -> None:
    doc = {
        "nodes": list(grid.nodes),
        "voltages": {int(n): float(v) for n, v in grid.voltages.items()},
        "lines": [
            {
                "nodes": list(e),
                "g": p.g,
                "b": p.b,
                "g_shunt_from": p.g_shunt_from,
                "b_shunt_from": p.b_shunt_from,
                "g_shunt_to": p.g_shunt_to,
                "b_shunt_to": p.b_shunt_to,
            }
            for e in grid.edges
            for p in [grid.lines[e]]
        ],
    }
    write_mapping(path, doc)

"""Exact nonlinear line-power physics and a radial power-flow solver.

Under the constant-voltage assumption, the active power leaving node i over
line {i, j} is

    p_ij(theta) = const_from - (cos_coeff * cos(theta) + sin_coeff * sin(theta)),

with theta = theta_i - theta_j. This module evaluates that map, aggregates
directional flows into nodal injections, and inverts the map on trees
(fixing injections everywhere except one slack node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    AngleOutOfTrustRegion,
    DimensionMismatch,
    NoConvergence,
    NonpositiveVoltage,
    UnknownNode,
)
from .grid import Grid, LineParams, validate_radial


@dataclass(frozen=True)
class EffectiveLineCoeffs:
    """Constant-voltage coefficients of one line.

    const_from/const_to are the angle-independent terms of the from- and
    to-direction flows; cos_coeff and sin_coeff multiply cos/sin of the
    from-minus-to angle difference.
    """

    const_from: float
    const_to: float
    cos_coeff: float
    sin_coeff: float


def effective_coeffs(line: LineParams, v_from: float, v_to: float) -> EffectiveLineCoeffs:
    if v_from <= 0.0 or v_to <= 0.0:
        raise NonpositiveVoltage(f"voltages must be positive, got ({v_from}, {v_to})")
    return EffectiveLineCoeffs(
        const_from=(line.g_shunt_from + line.g) * v_from * v_from,
        const_to=(line.g_shunt_to + line.g) * v_to * v_to,
        cos_coeff=line.g * v_from * v_to,
        sin_coeff=line.b * v_from * v_to,
    )


def line_power(coeffs: EffectiveLineCoeffs, theta, direction: str = "from"):
    """Directional line power at angle difference theta (from-node minus to-node).

    Accepts scalars or arrays. direction "to" evaluates the reverse flow,
    i.e. the same formula at -theta with the to-side constant term.
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    if direction == "from":
        out = coeffs.const_from - (coeffs.cos_coeff * c + coeffs.sin_coeff * s)
    elif direction == "to":
        out = coeffs.const_to - (coeffs.cos_coeff * c - coeffs.sin_coeff * s)
    else:
        raise ValueError(f"direction must be 'from' or 'to', got {direction!r}")
    return float(out) if out.ndim == 0 else out


def edge_coeff_arrays(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(const_from, const_to, cos_coeff, sin_coeff) arrays in edge order."""
    cf = np.empty(grid.n_edges)
    ct = np.empty(grid.n_edges)
    cc = np.empty(grid.n_edges)
    sc = np.empty(grid.n_edges)
    for l, (i, j) in enumerate(grid.edges):
        k = effective_coeffs(grid.lines[(i, j)], grid.voltages[i], grid.voltages[j])
        cf[l], ct[l], cc[l], sc[l] = k.const_from, k.const_to, k.cos_coeff, k.sin_coeff
    return cf, ct, cc, sc


def flow_map(grid: Grid) -> np.ndarray:
    """F, (2 N_e) x (2 N_e + 1), with grid_line_powers(grid, theta) = F @ lift_grid(grid, theta)."""
    cf, ct, cc, sc = edge_coeff_arrays(grid)
    k = np.arange(2 * grid.n_edges)
    line = k // 2
    out = np.zeros((k.size, k.size + 1))
    out[:, 0] = np.column_stack([cf, ct]).ravel()
    out[k, 1 + 2 * line] = -cc[line]
    out[k, 2 + 2 * line] = np.tile([-1.0, 1.0], grid.n_edges) * sc[line]
    return out


def grid_line_powers(grid: Grid, theta: np.ndarray) -> np.ndarray:
    """Directional line powers [p_ij, p_ji] per edge for angle differences theta.

    theta has shape (N_e,) or (N, N_e); output appends a doubled last axis.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != grid.n_edges:
        raise DimensionMismatch(
            f"theta width {theta.shape[-1]} != n_edges {grid.n_edges}"
        )
    cf, ct, cc, sc = edge_coeff_arrays(grid)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape[:-1] + (2 * grid.n_edges,))
    out[..., 0::2] = cf - cc * c - sc * s
    out[..., 1::2] = ct - cc * c + sc * s
    return out


def injection_matrix(grid: Grid) -> np.ndarray:
    """Linear map M with p_g = M @ p_e (directional layout), shape (N_b, 2 N_e)."""
    m = np.zeros((grid.n_nodes, 2 * grid.n_edges))
    for l, (i, j) in enumerate(grid.edges):
        m[grid.node_index(i), 2 * l] = 1.0
        m[grid.node_index(j), 2 * l + 1] = 1.0
    return m


def injections_from_flows(grid: Grid, p_e: np.ndarray) -> np.ndarray:
    """Nodal injections: each node sums the power it sends into incident lines."""
    p_e = np.asarray(p_e, dtype=float)
    if p_e.shape[-1] != 2 * grid.n_edges:
        raise DimensionMismatch(
            f"p_e width {p_e.shape[-1]} != 2*n_edges {2 * grid.n_edges}"
        )
    return p_e @ injection_matrix(grid).T


@dataclass
class RadialPfResult:
    theta: np.ndarray
    slack_injection: float
    residual: float


def solve_radial_pf(
    grid: Grid,
    injections: Mapping[int, float],
    slack: int,
    tol: float = 1e-10,
) -> RadialPfResult:
    """Solve for edge angle differences matching the given injections.

    `injections` must assign a value to every node except `slack`; the slack
    absorbs the imbalance. The tree is swept leaf-to-root, solving one
    scalar flow equation per edge with a bracketed root finder inside the
    angle trust region |theta| <= pi/2. Each edge's flow depends only on its
    own angle, so one sweep solves the tree up to roundoff; the replayed
    balance residual is checked against `tol` (NoConvergence above it).
    """
    # imported here: scipy.optimize takes about a quarter second to import,
    # and nothing else in the package needs it
    from scipy.optimize import brentq

    validate_radial(grid)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid.node_index(slack)
    targets = {}
    for node, value in injections.items():
        grid.node_index(node)
        if node == slack:
            raise ValueError("slack node must not carry a target injection")
        targets[node] = float(value)
    missing = set(grid.nodes) - {slack} - set(targets)
    if missing:
        raise UnknownNode(f"missing injections for nodes {sorted(missing)}")

    # Root the tree at the slack: children lists + leaf-to-root order.
    parent: dict[int, int | None] = {slack: None}
    order = [slack]
    for node in order:
        for nxt in sorted(grid._adjacency[node]):
            if nxt not in parent:
                parent[nxt] = node
                order.append(nxt)
    coeffs = {e: effective_coeffs(grid.lines[e], grid.voltages[e[0]], grid.voltages[e[1]]) for e in grid.edges}
    theta = {e: 0.0 for e in grid.edges}

    def flow(a: int, b: int) -> float:
        """Power leaving node a over edge {a, b} at the current angles."""
        e = (a, b) if a < b else (b, a)
        return line_power(coeffs[e], theta[e], "from" if a == e[0] else "to")

    def solve_edge(node: int, par: int, target: float) -> None:
        e = (node, par) if node < par else (par, node)
        k = coeffs[e]
        if node == e[0]:
            f = lambda t: k.const_from - k.cos_coeff * math.cos(t) - k.sin_coeff * math.sin(t) - target
        else:
            f = lambda t: k.const_to - k.cos_coeff * math.cos(t) + k.sin_coeff * math.sin(t) - target
        hi = math.pi / 2
        lo = -hi
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            theta[e] = lo
            return
        if fhi == 0.0:
            theta[e] = hi
            return
        if flo * fhi > 0.0:
            raise AngleOutOfTrustRegion(
                f"flow {target:.6g} from node {node} over edge {e} is not reachable "
                f"within |theta| <= {hi:.4g}"
            )
        theta[e] = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)

    for node in reversed(order):
        if node == slack:
            continue
        par = parent[node]
        required = targets[node]
        for nxt in grid._adjacency[node]:
            if nxt != par:
                required -= flow(node, nxt)
        solve_edge(node, par, required)
    residual = max(
        (abs(sum(flow(n, m) for m in grid._adjacency[n]) - targets[n]) for n in targets),
        default=0.0,
    )
    if residual > tol:
        raise NoConvergence(1, residual)
    theta_vec = np.array([theta[e] for e in grid.edges])
    slack_inj = sum(flow(slack, m) for m in grid._adjacency[slack])
    return RadialPfResult(theta_vec, float(slack_inj), residual)

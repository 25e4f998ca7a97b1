"""Synthetic excitation trajectories and trajectory CSV import/export.

Generation draws random angles, evaluates the exact line physics and the
lift, and certifies persistency of excitation before returning; it retries
with fresh draws (same RNG stream) up to a fixed number of attempts.

CSV schema, one sample per row, values printed with 17 significant digits:

    k, theta_<i>_<j>..., phi_0..., pe_<i>_<j>, pe_<j>_<i>..., pg_<i>...

theta columns cover the trajectory's pair set (grid edges in per-edge mode,
all node pairs otherwise); pe columns come in from/to pairs per grid edge.
"""

from __future__ import annotations

import math

import numpy as np

from .behavior import Trajectory, is_persistently_exciting, lift_pairs, pair_differences
from .errors import ExcitationFailed, SchemaError
from .files import numbers, read_csv, write_csv
from .grid import Grid, all_node_pairs
from .physics import grid_line_powers, injection_matrix

MAX_ATTEMPTS = 10


def generate_excitation(
    grid: Grid,
    n_samples: int,
    angle_range: float = 0.3,
    seed: int = 0,
    mode: str = "per-edge",
    rank_tol: float = 1e-9,
) -> Trajectory:
    """Draw a physics-consistent trajectory whose lifted block is PE of order 1.

    Per-edge mode draws i.i.d. uniform edge angle differences in
    [-angle_range, angle_range]. All-pairs mode draws node angles (first
    node pinned to zero) in [-angle_range/2, angle_range/2] so pair
    differences stay within the same range, and lifts all node pairs.
    """
    if not 0.0 < angle_range <= math.pi / 2:
        raise ValueError("angle_range must be in (0, pi/2]")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if mode not in ("per-edge", "all-pairs"):
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(seed)
    inj = injection_matrix(grid)
    pairs = tuple(grid.edges) if mode == "per-edge" else tuple(all_node_pairs(grid))

    last_report = None
    for _ in range(MAX_ATTEMPTS):
        if mode == "per-edge":
            theta = rng.uniform(-angle_range, angle_range, size=(n_samples, grid.n_edges))
            pair_theta = theta
        else:
            node_angles = rng.uniform(
                -angle_range / 2, angle_range / 2, size=(n_samples, grid.n_nodes)
            )
            node_angles[:, 0] = 0.0
            pair_theta = pair_differences(grid, node_angles)
            edge_cols = [pairs.index(e) for e in grid.edges]
            theta = pair_theta[:, edge_cols]
        phi = lift_pairs(pair_theta)
        report = is_persistently_exciting(phi, 1, rank_tol)
        last_report = report
        if report.pe:
            p_e = grid_line_powers(grid, theta)
            return Trajectory(
                theta=pair_theta,
                phi=phi,
                p_e=p_e,
                p_g=p_e @ inj.T,
                theta_pairs=pairs,
                edges=tuple(grid.edges),
                node_ids=tuple(grid.nodes),
            )
    raise ExcitationFailed(
        f"no persistently exciting draw in {MAX_ATTEMPTS} attempts "
        f"(rank {last_report.rank}/{last_report.required_rank}; "
        f"need at least {last_report.required_rank} samples)"
    )


def export_trajectory(traj: Trajectory, path) -> None:
    """Write the trajectory to CSV with full double round-trip precision."""
    header = ["k"]
    header += [f"theta_{i}_{j}" for i, j in traj.theta_pairs]
    header += [f"phi_{m}" for m in range(traj.phi.shape[1])]
    for i, j in traj.edges:
        header += [f"pe_{i}_{j}", f"pe_{j}_{i}"]
    header += [f"pg_{i}" for i in traj.node_ids]
    data = np.hstack([traj.theta, traj.phi, traj.p_e, traj.p_g]).tolist()
    write_csv(path, header, ([k, *row] for k, row in enumerate(data)))


def _split_header(header: list[str]):
    if not header or header[0] != "k":
        raise SchemaError("first column must be 'k'", column="k")
    theta_pairs, n_phi, pe_cols, pg_nodes = [], 0, [], []
    for name in header[1:]:
        kind, *ids = name.split("_")
        try:
            ids = [int(i) for i in ids]
        except ValueError:
            raise SchemaError("unrecognized column name", column=name) from None
        if kind == "theta" and len(ids) == 2:
            theta_pairs.append(tuple(ids))
        elif kind == "phi" and len(ids) == 1:
            n_phi += 1
        elif kind == "pe" and len(ids) == 2:
            pe_cols.append(tuple(ids))
        elif kind == "pg" and len(ids) == 1:
            pg_nodes.append(ids[0])
        else:
            raise SchemaError("unrecognized column name", column=name)
    for block, cols in (("theta", theta_pairs), ("phi", n_phi), ("pe", pe_cols), ("pg", pg_nodes)):
        if not cols:
            raise SchemaError("missing column block", column=block)
    if len(pe_cols) % 2 != 0:
        raise SchemaError("pe columns must come in from/to pairs", column="pe")
    edges = []
    for m in range(0, len(pe_cols), 2):
        (i, j), (j2, i2) = pe_cols[m], pe_cols[m + 1]
        if (i, j) != (i2, j2):
            raise SchemaError("pe column pair mismatch", column=f"pe_{j2}_{i2}")
        edges.append((i, j))
    if n_phi != 2 * len(theta_pairs) + 1:
        raise SchemaError(
            f"expected {2 * len(theta_pairs) + 1} phi columns, found {n_phi}", column="phi"
        )
    return theta_pairs, n_phi, edges, pg_nodes


def import_trajectory(path) -> Trajectory:
    """Read a trajectory CSV written by :func:`export_trajectory`."""
    header, rows = read_csv(path, "trajectory")
    theta_pairs, n_phi, edges, pg_nodes = _split_header(header)
    data = numbers(rows, len(header), "trajectory")[:, 1:]
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise SchemaError(f"trajectory row {rows[np.argmin(finite)][0]}: values must be finite")
    widths = np.cumsum([len(theta_pairs), n_phi, 2 * len(edges)])
    theta, phi, p_e, p_g = np.split(data, widths, axis=1)
    return Trajectory(theta, phi, p_e, p_g, theta_pairs, edges, pg_nodes)

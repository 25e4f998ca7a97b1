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

import csv
import math

import numpy as np

from .behavior import Trajectory, is_persistently_exciting, lift_pairs, pair_differences
from .errors import ExcitationFailed, SchemaError
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.n_samples):
            row = [str(k)]
            for block in (traj.theta[k], traj.phi[k], traj.p_e[k], traj.p_g[k]):
                row += [f"{v:.17g}" for v in block]
            writer.writerow(row)


def _split_header(header: list[str]):
    if not header or header[0] != "k":
        raise SchemaError("first column must be 'k'", column="k")
    theta_pairs, n_phi, pe_cols, pg_nodes = [], 0, [], []
    for name in header[1:]:
        parts = name.split("_")
        if parts[0] == "theta" and len(parts) == 3:
            theta_pairs.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "phi" and len(parts) == 2:
            n_phi += 1
        elif parts[0] == "pe" and len(parts) == 3:
            pe_cols.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "pg" and len(parts) == 2:
            pg_nodes.append(int(parts[1]))
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty trajectory file") from None
        theta_pairs, n_phi, edges, pg_nodes = _split_header(header)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"row {line_no} has {len(row)} fields, expected {len(header)}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise SchemaError(f"row {line_no}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise SchemaError(f"row {line_no}: values must be finite")
            rows.append(values)
    if not rows:
        raise SchemaError("trajectory file has no samples")
    data = np.asarray(rows)
    n_theta = len(theta_pairs)
    ofs = 0
    theta = data[:, ofs : ofs + n_theta]
    ofs += n_theta
    phi = data[:, ofs : ofs + n_phi]
    ofs += n_phi
    p_e = data[:, ofs : ofs + 2 * len(edges)]
    ofs += 2 * len(edges)
    p_g = data[:, ofs:]
    return Trajectory(
        theta=theta,
        phi=phi,
        p_e=p_e,
        p_g=p_g,
        theta_pairs=tuple(theta_pairs),
        edges=tuple(edges),
        node_ids=tuple(pg_nodes),
    )

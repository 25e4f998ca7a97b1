"""Hankel-matrix algebra, persistency of excitation, and trigonometric lifts.

The lifted input of a line is [1, cos(theta), sin(theta)]; grid-wide lifts
concatenate the per-pair cos/sin entries behind a single leading 1. Because
the line-power map is algebraic (no internal state), order-1 Hankel blocks
of lifted inputs and measured outputs fully represent the behavior once the
lifted data has full row rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InconsistentQuery, ModelNotPE, OrderTooLarge
from .grid import Grid, all_node_pairs


def _as_samples(values) -> np.ndarray:
    """Coerce to a (N, width) sample matrix; 1-D input means width 1."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch(f"samples must be 1- or 2-dimensional, got shape {arr.shape}")
    return arr


@dataclass
class Trajectory:
    """Time-indexed measurement record backing Hankel matrices.

    All blocks share the sample count N (rows). theta holds angle
    differences for `theta_pairs` (grid edges, or all node pairs in the
    topology-agnostic mode); phi is the lifted block; p_e the directional
    line powers for `edges`; p_g the nodal injections for `node_ids`.
    """

    theta: np.ndarray
    phi: np.ndarray
    p_e: np.ndarray
    p_g: np.ndarray
    theta_pairs: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    node_ids: tuple[int, ...]

    def __post_init__(self):
        self.theta = _as_samples(self.theta)
        self.phi = _as_samples(self.phi)
        self.p_e = _as_samples(self.p_e)
        self.p_g = _as_samples(self.p_g)
        self.theta_pairs = tuple(tuple(p) for p in self.theta_pairs)
        self.edges = tuple(tuple(e) for e in self.edges)
        self.node_ids = tuple(int(n) for n in self.node_ids)
        n = self.theta.shape[0]
        for name, block in (("phi", self.phi), ("p_e", self.p_e), ("p_g", self.p_g)):
            if block.shape[0] != n:
                raise DimensionMismatch(f"block {name} has {block.shape[0]} samples, theta has {n}")
        if self.theta.shape[1] != len(self.theta_pairs):
            raise DimensionMismatch("theta width does not match theta_pairs")
        if self.phi.shape[1] != 2 * len(self.theta_pairs) + 1:
            raise DimensionMismatch("phi width must be 2*len(theta_pairs)+1")
        if self.p_e.shape[1] != 2 * len(self.edges):
            raise DimensionMismatch("p_e width must be 2*len(edges)")
        if self.p_g.shape[1] != len(self.node_ids):
            raise DimensionMismatch("p_g width must match node_ids")

    @property
    def n_samples(self) -> int:
        return self.theta.shape[0]

    @property
    def mode(self) -> str:
        return "per-edge" if self.theta_pairs == self.edges else "all-pairs"

    def max_lift_error(self) -> float:
        """Largest deviation of the stored phi block from lifting stored theta."""
        return float(np.max(np.abs(self.phi - lift_pairs(self.theta))))


@dataclass
class HankelMatrix:
    """Order-L Hankel matrix of a sequence of width-N_w samples."""

    order: int
    source_width: int
    data: np.ndarray


def hankel(samples: np.ndarray, order: int) -> HankelMatrix:
    """Stack shifted sample windows into the (N_w * L) x (N - L + 1) Hankel matrix.

    Block-row r, column c holds sample w(r + c).
    """
    samples = _as_samples(samples)
    n, width = samples.shape
    if order < 1 or order > n:
        raise OrderTooLarge(f"order {order} not in [1, {n}] for {n} samples")
    cols = n - order + 1
    data = np.empty((width * order, cols))
    for r in range(order):
        data[r * width : (r + 1) * width, :] = samples[r : r + cols].T
    return HankelMatrix(order=order, source_width=width, data=data)


@dataclass
class PeReport:
    """Numeric-rank certificate for persistency of excitation of order L."""

    pe: bool
    rank: int
    required_rank: int
    smallest_kept_singular_value: float
    sigma_max: float
    threshold: float


def is_persistently_exciting(samples: np.ndarray, order: int, rank_tol: float = 1e-9) -> PeReport:
    """Check full row rank of the order-L Hankel matrix by SVD thresholding."""
    h = hankel(samples, order)
    sigma = np.linalg.svd(h.data, compute_uv=False)
    sigma_max = float(sigma[0]) if sigma.size else 0.0
    threshold = rank_tol * sigma_max
    rank = int(np.sum(sigma > threshold)) if sigma_max > 0.0 else 0
    required = h.source_width * order
    smallest = float(sigma[rank - 1]) if rank > 0 else 0.0
    return PeReport(
        pe=(rank == required and h.data.shape[1] >= required),
        rank=rank,
        required_rank=required,
        smallest_kept_singular_value=smallest,
        sigma_max=sigma_max,
        threshold=threshold,
    )


def lift_line(theta) -> np.ndarray:
    """Single-line lift [1, cos(theta), sin(theta)]; broadcasts over arrays."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta)], axis=-1)


def lift_pairs(theta: np.ndarray) -> np.ndarray:
    """Lift a (..., n_pairs) array of angle differences to (..., 2*n_pairs + 1)."""
    theta = np.asarray(theta, dtype=float)
    n_pairs = theta.shape[-1]
    out = np.empty(theta.shape[:-1] + (2 * n_pairs + 1,))
    out[..., 0] = 1.0
    out[..., 1::2] = np.cos(theta)
    out[..., 2::2] = np.sin(theta)
    return out


def cos_indices(n_pairs: int) -> np.ndarray:
    """Indices of the cosine entries inside a lifted vector of n_pairs pairs."""
    return 1 + 2 * np.arange(n_pairs)


def sin_indices(n_pairs: int) -> np.ndarray:
    return 2 + 2 * np.arange(n_pairs)


def lift_grid(grid: Grid, theta: np.ndarray) -> np.ndarray:
    """Grid-wide lift over the grid's edges, in canonical edge order."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != grid.n_edges:
        raise DimensionMismatch(f"theta width {theta.shape[-1]} != n_edges {grid.n_edges}")
    return lift_pairs(theta)


def lift_all_pairs(grid: Grid, node_angles: np.ndarray) -> np.ndarray:
    """Topology-agnostic lift over all node pairs from per-node angles."""
    node_angles = np.asarray(node_angles, dtype=float)
    if node_angles.shape[-1] != grid.n_nodes:
        raise DimensionMismatch(
            f"node_angles width {node_angles.shape[-1]} != n_nodes {grid.n_nodes}"
        )
    pairs = all_node_pairs(grid)
    idx_i = np.array([grid.node_index(i) for i, _ in pairs])
    idx_j = np.array([grid.node_index(j) for _, j in pairs])
    diffs = node_angles[..., idx_i] - node_angles[..., idx_j]
    return lift_pairs(diffs)


@dataclass
class DataDrivenLineModel:
    """Order-1 Hankel blocks of lifted inputs and measured outputs.

    H_phi must have full row rank (certified at construction); H_pg is
    present only for the topology-agnostic representation.
    """

    H_phi: np.ndarray
    H_pe: np.ndarray
    H_pg: np.ndarray | None = None
    pe_report: PeReport | None = None
    _pinv: np.ndarray | None = field(default=None, repr=False)
    _out: np.ndarray | None = field(default=None, repr=False)
    # solve_opf's last program per variant family over this model (opf._program)
    _opf_programs: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_samples(
        cls,
        phi: np.ndarray,
        p_e: np.ndarray,
        p_g: np.ndarray | None = None,
        rank_tol: float = 1e-9,
    ) -> "DataDrivenLineModel":
        phi = _as_samples(phi)
        p_e = _as_samples(p_e)
        if phi.shape[0] != p_e.shape[0]:
            raise DimensionMismatch("phi and p_e sample counts differ")
        report = is_persistently_exciting(phi, 1, rank_tol)
        if not report.pe:
            raise ModelNotPE(
                f"lifted data rank {report.rank} < {report.required_rank}; "
                "not persistently exciting of order 1"
            )
        h_pg = None
        if p_g is not None:
            p_g = _as_samples(p_g)
            if p_g.shape[0] != phi.shape[0]:
                raise DimensionMismatch("phi and p_g sample counts differ")
            h_pg = hankel(p_g, 1).data
        return cls(
            H_phi=hankel(phi, 1).data,
            H_pe=hankel(p_e, 1).data,
            H_pg=h_pg,
            pe_report=report,
        )

    @classmethod
    def from_trajectory(
        cls, traj: Trajectory, include_injections: bool = False, rank_tol: float = 1e-9
    ) -> "DataDrivenLineModel":
        return cls.from_samples(
            traj.phi,
            traj.p_e,
            traj.p_g if include_injections else None,
            rank_tol=rank_tol,
        )

    @property
    def lifted_dim(self) -> int:
        return self.H_phi.shape[0]

    @property
    def n_columns(self) -> int:
        return self.H_phi.shape[1]

    def phi_pinv(self) -> np.ndarray:
        if self._pinv is None:
            self._pinv = np.linalg.pinv(self.H_phi)
        return self._pinv

    def output_map(self) -> np.ndarray:
        """K = [H_pe; H_pg] H_phi^+, so that a lifted input phi has outputs K phi.

        Exact on noiseless data, the least-squares fit on inconsistent wide
        data. Solved as min ||K H_phi - H_out||: the product with H_phi^+
        leaves a residual K H_phi - H_out that grows with H_phi's condition.
        """
        if self._out is None:
            outputs = self.H_pe if self.H_pg is None else np.vstack([self.H_pe, self.H_pg])
            self._out = np.linalg.lstsq(self.H_phi.T, outputs.T, rcond=None)[0].T
        return self._out


def dd_predict(model: DataDrivenLineModel, phi_query: np.ndarray) -> np.ndarray:
    """Line powers for a lifted query: the p_e rows of the model's output map.

    Raises InconsistentQuery when the query is outside the span of the
    stored lifted inputs (impossible for persistently exciting data), that is
    when projecting it onto that span moves it by more than 1e-8 (1 + |query|).
    """
    phi_query = np.asarray(phi_query, dtype=float)
    if phi_query.shape != (model.lifted_dim,):
        raise DimensionMismatch(
            f"query has shape {phi_query.shape}, expected ({model.lifted_dim},)"
        )
    residual = float(np.linalg.norm(model.H_phi @ (model.phi_pinv() @ phi_query) - phi_query))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(phi_query))):
        raise InconsistentQuery(f"query outside lifted-input span (residual {residual:.3e})")
    return model.output_map()[: model.H_pe.shape[0]] @ phi_query

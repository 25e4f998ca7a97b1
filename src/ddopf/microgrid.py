"""Microgrid energy management: constraints, costs, MPC variants, closed loop.

The plant has two committable generators, two storage units with integrator
dynamics, two curtailable renewable units and one fixed load. Each MPC step
builds one mixed-binary conic program over the horizon: unit constraints and
pre-linearized stage costs around a per-step power-flow block shared with
the single-step OPF builders. The closed loop applies the first move,
steps the stored energy, and records everything needed to replay the hard
constraints independently.

Sign conventions: unit powers enter nodal injections positively and the
load is a fixed negative injection -w_d. Storage follows x(k+1) = A_s x(k)
+ B_s p_s(k) with the B_s from the parameter table, so positive storage
power simultaneously injects into the grid and raises the state; the state
is an affine accounting variable, bounded both ways, not a physical charge
level.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp
import yaml

from .behavior import DataDrivenLineModel, cos_indices, sin_indices
from .conic import ConicProgram, MixedBinaryProgram
from .errors import (
    DdopfError,
    DimensionMismatch,
    ForecastTooShort,
    InfeasibleProfile,
    SchemaError,
    StateBoundViolation,
)
from .grid import Grid, LineParams
from .mip import solve_mixed_binary
from .opf import OpfLayout, PfTemplate, pf_template, project_onto_circles, tightness_report

N_GEN = 2
N_STO = 2
N_RES = 2
UNIT_BLOCKS = ("p_t", "p_s", "p_r", "delta", "sigma", "ps_pos", "ps_neg", "u_soft", "o_soft", "x_next")

_SOLVER_TOL = 1e-8

_CONFIG_KEYS = (
    "c0", "c1", "c2", "c3", "c4", "c5", "c6", "gamma", "horizon", "ts_hours",
    "pt_min", "pt_max", "ps_min", "ps_max", "pe_min", "pe_max", "a_s", "b_s",
    "x_min", "x_max", "x_soft_min", "x_soft_max", "x0", "delta_init", "beta",
    "generator_nodes", "storage_nodes", "res_nodes", "load_node",
)


@dataclass
class MicrogridConfig:
    """Full parameterization of the microgrid model and its MPC."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    c5: np.ndarray
    c6: float
    gamma: float
    horizon: int
    ts_hours: float
    pt_min: np.ndarray
    pt_max: np.ndarray
    ps_min: np.ndarray
    ps_max: np.ndarray
    pe_min: np.ndarray
    pe_max: np.ndarray
    a_s: np.ndarray
    b_s: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    x_soft_min: np.ndarray
    x_soft_max: np.ndarray
    x0: np.ndarray
    delta_init: np.ndarray
    beta: float
    generator_nodes: tuple[int, int]
    storage_nodes: tuple[int, int]
    res_nodes: tuple[int, int]
    load_node: int

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "c3", "c4", "c5", "pt_min", "pt_max", "ps_min",
                     "ps_max", "x_min", "x_max", "x_soft_min", "x_soft_max", "x0", "delta_init"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(2))
        self.pe_min = np.asarray(self.pe_min, dtype=float).ravel()
        self.pe_max = np.asarray(self.pe_max, dtype=float).ravel()
        self.a_s = np.asarray(self.a_s, dtype=float).reshape(2, 2)
        self.b_s = np.asarray(self.b_s, dtype=float).reshape(2, 2)
        self.generator_nodes = tuple(int(n) for n in self.generator_nodes)
        self.storage_nodes = tuple(int(n) for n in self.storage_nodes)
        self.res_nodes = tuple(int(n) for n in self.res_nodes)
        self.load_node = int(self.load_node)
        self.validate()

    def validate(self) -> None:
        def nonneg(name):
            if np.any(getattr(self, name) < 0):
                raise ValueError(f"{name} must be nonnegative")

        for name in ("c0", "c1", "c2", "c4", "c5"):
            nonneg(name)
        if np.any(self.c3 > 0):
            raise ValueError("c3 must be nonpositive (renewable incentive)")
        if self.c6 < 0:
            raise ValueError("c6 must be nonnegative")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.ts_hours <= 0.0:
            raise ValueError("ts_hours must be positive")
        for lo, hi in (("pt_min", "pt_max"), ("ps_min", "ps_max"), ("x_min", "x_max")):
            if np.any(getattr(self, lo) > getattr(self, hi)):
                raise ValueError(f"{lo} must not exceed {hi}")
        if np.any(self.pt_min < 0):
            raise ValueError("pt_min must be nonnegative")
        if np.any(self.ps_min > 0) or np.any(self.ps_max < 0):
            raise ValueError("storage power limits must bracket zero")
        order = (self.x_min <= self.x_soft_min) & (self.x_soft_min <= self.x_soft_max) & (
            self.x_soft_max <= self.x_max
        )
        if not np.all(order):
            raise ValueError("energy bounds must satisfy x_min <= soft_min <= soft_max <= x_max")
        if np.any(self.x0 < self.x_min) or np.any(self.x0 > self.x_max):
            raise ValueError("x0 must respect the hard energy bounds")
        if not set(np.unique(self.delta_init)) <= {0.0, 1.0}:
            raise ValueError("delta_init entries must be 0 or 1")

    # unit column order in the node-coupling map: [p_t, p_s, p_r, p_d]
    def unit_nodes(self) -> tuple[int, ...]:
        return (*self.generator_nodes, *self.storage_nodes, *self.res_nodes, self.load_node)

    def unit_map(self, grid: Grid) -> np.ndarray:
        """Boolean unit-to-node map, one column per unit/load."""
        u = np.zeros((grid.n_nodes, 7))
        for col, node in enumerate(self.unit_nodes()):
            u[grid.node_index(node), col] = 1.0
        return u

    def pe_bounds(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.pe_min, self.pe_max
        width = 2 * grid.n_edges
        lo = np.full(width, lo[0]) if lo.size == 1 else lo
        hi = np.full(width, hi[0]) if hi.size == 1 else hi
        if lo.size != width or hi.size != width:
            raise DimensionMismatch("pe bounds must be scalar or one per flow direction")
        return lo, hi


def default_config() -> MicrogridConfig:
    """Parameter set of the bundled 5-bus case study."""
    return MicrogridConfig(
        c0=[0.2, 0.1],
        c1=[0.13, 0.07],
        c2=[1.56, 1.43],
        c3=[-0.8, -1.0],
        c4=[0.1, 0.05],
        c5=[1e3, 1e3],
        c6=1.0,
        gamma=0.9,
        horizon=6,
        ts_hours=0.5,
        pt_min=[0.3, 0.1],
        pt_max=[0.9, 0.6],
        ps_min=[-1.0, -1.0],
        ps_max=[1.0, 1.0],
        pe_min=[-1.0],
        pe_max=[1.0],
        a_s=np.eye(2),
        b_s=0.5 * np.eye(2),
        x_min=[0.0, 0.0],
        x_max=[7.0, 4.0],
        x_soft_min=[0.5, 0.5],
        x_soft_max=[6.5, 3.5],
        x0=[0.5, 0.5],
        delta_init=[1.0, 0.0],
        beta=1.0,
        generator_nodes=(1, 3),
        storage_nodes=(2, 4),
        res_nodes=(2, 4),
        load_node=5,
    )


def default_grid(g: float = 2.0, b: float = -20.0) -> Grid:
    """5-bus radial grid of the case study, unit voltages, symmetric lines."""
    edges = [(1, 2), (2, 4), (2, 5), (3, 5)]
    return Grid([1, 2, 3, 4, 5], edges, {e: LineParams(g=g, b=b) for e in edges})


def load_config(path) -> MicrogridConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise SchemaError("microgrid config must be a mapping")
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise SchemaError(f"microgrid config missing required key(s)", column=", ".join(missing))
    return MicrogridConfig(**{k: raw[k] for k in _CONFIG_KEYS})


def save_config(config: MicrogridConfig, path) -> None:
    doc = {}
    for key in _CONFIG_KEYS:
        value = getattr(config, key)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        doc[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


# --- profiles ------------------------------------------------------------------


@dataclass
class Profiles:
    """Available renewable power and demand, one row per step."""

    w_r: np.ndarray  # (K, 2), nonnegative
    w_d: np.ndarray  # (K,), nonnegative

    def __post_init__(self):
        self.w_r = np.atleast_2d(np.asarray(self.w_r, dtype=float))
        self.w_d = np.asarray(self.w_d, dtype=float).ravel()
        if self.w_r.shape[0] != self.w_d.size:
            raise DimensionMismatch("w_r and w_d lengths differ")
        if np.any(self.w_r < 0) or np.any(self.w_d < 0):
            raise ValueError("profiles must be nonnegative")

    @property
    def length(self) -> int:
        return self.w_d.size

    def window(self, start: int, steps: int) -> "Profiles":
        """Forecast window, padding past the end by repeating the last row."""
        idx = np.minimum(np.arange(start, start + steps), self.length - 1)
        return Profiles(w_r=self.w_r[idx], w_d=self.w_d[idx])


def generate_profiles(
    seed: int,
    steps: int,
    config: MicrogridConfig,
    demand_peak: float = 0.7,
    demand_base: float = 0.2,
    res_caps: tuple[float, float] = (0.8, 0.8),
    noise: float = 0.02,
) -> Profiles:
    """Deterministic synthetic demand and weather profiles.

    Demand is a daily sinusoid plus small noise, the first renewable behaves
    like wind (persistent, day and night), the second like photovoltaics
    (daylight bell, per-day cloudiness). Peak demand is checked against the
    largest possible fleet output.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    fleet = float(np.sum(config.pt_max) + np.sum(config.ps_max))
    if demand_peak > fleet:
        raise InfeasibleProfile(
            f"peak demand {demand_peak} exceeds fleet capability {fleet}"
        )
    rng = np.random.default_rng(seed)
    t_h = np.arange(steps) * config.ts_hours
    hour = np.mod(t_h, 24.0)

    shape = 0.5 * (1.0 - np.cos(2.0 * math.pi * (hour - 5.0) / 24.0))
    w_d = demand_base + (demand_peak - demand_base) * shape
    w_d = w_d + noise * rng.uniform(-1.0, 1.0, size=steps)
    w_d = np.clip(w_d, 0.02, demand_peak)

    wind = np.empty(steps)
    level = rng.uniform(0.3, 0.7)
    for k in range(steps):
        level = 0.97 * level + 0.03 * 0.5 + 0.08 * rng.normal()
        wind[k] = level
    w_r1 = res_caps[0] * np.clip(wind, 0.0, 1.0)

    day_index = (t_h // 24.0).astype(int)
    n_days = int(day_index.max()) + 1
    cloud = rng.uniform(0.25, 1.0, size=n_days)
    daylight = np.clip(np.sin(math.pi * (hour - 7.0) / 12.0), 0.0, None)
    daylight[(hour < 7.0) | (hour > 19.0)] = 0.0
    w_r2 = res_caps[1] * daylight * cloud[day_index]

    return Profiles(w_r=np.column_stack([w_r1, w_r2]), w_d=w_d)


def save_profiles(profiles: Profiles, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "wd_1", "wr_1", "wr_2"])
        for k in range(profiles.length):
            row = [str(k), f"{profiles.w_d[k]:.17g}"]
            row += [f"{v:.17g}" for v in profiles.w_r[k]]
            writer.writerow(row)


def load_profiles(path) -> Profiles:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty profiles file") from None
        if header[:2] != ["k", "wd_1"] or not all(h.startswith("wr_") for h in header[2:]):
            raise SchemaError("profiles header must be k, wd_1, wr_*...", column=header[0])
        rows = [list(map(float, row[1:])) for row in reader if row]
    if not rows:
        raise SchemaError("profiles file has no rows")
    data = np.asarray(rows)
    return Profiles(w_r=data[:, 1:], w_d=data[:, 0])


# --- MPC step program -----------------------------------------------------------


@dataclass
class MpcLayout:
    """Index bookkeeping for the horizon-stacked MPC program."""

    variant: str
    horizon: int
    stride: int
    pf: OpfLayout  # per-step layout of the power-flow block
    unit_offsets: dict
    binary_indices: tuple[int, ...]

    def unit_slice(self, name: str, h: int) -> slice:
        base = h * self.stride + self.unit_offsets[name]
        return slice(base, base + 2)

    def pf_slice(self, name: str, h: int) -> slice:
        s = getattr(self.pf, name)
        return slice(h * self.stride + s.start, h * self.stride + s.stop)

    def cos_cols(self, h: int) -> np.ndarray:
        return h * self.stride + self.pf.cos_cols()

    def sin_cols(self, h: int) -> np.ndarray:
        return h * self.stride + self.pf.sin_cols()


class _Coo:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, row, col, val):
        self.rows.append(int(row))
        self.cols.append(int(col))
        self.vals.append(float(val))

    def add_block(self, row0: int, col0: int, block: sp.coo_matrix):
        self.rows.extend((block.row + row0).tolist())
        self.cols.extend((block.col + col0).tolist())
        self.vals.extend(block.data.tolist())

    def matrix(self, shape) -> sp.csr_matrix:
        return sp.csr_matrix((self.vals, (self.rows, self.cols)), shape=shape)


@dataclass
class PlantState:
    x: np.ndarray
    delta_prev: np.ndarray
    k: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).reshape(2)
        self.delta_prev = np.asarray(self.delta_prev, dtype=float).reshape(2)


def initial_state(config: MicrogridConfig) -> PlantState:
    return PlantState(x=config.x0.copy(), delta_prev=config.delta_init.copy(), k=0)


def build_mpc_step(
    config: MicrogridConfig,
    grid: Grid,
    variant: str,
    state: PlantState,
    window: Profiles,
    model: DataDrivenLineModel | None = None,
    template: PfTemplate | None = None,
) -> tuple[MixedBinaryProgram, MpcLayout]:
    """One receding-horizon program: unit constraints, pre-linearized stage
    costs, and the variant's power-flow block repeated over the horizon.

    States x(k+1|k)..x(k+H|k) carry the hard and soft energy bounds, so the
    final storage move stays accountable. The relaxation term -beta * cos
    enters undiscounted, matching the convex variant's objective.
    """
    H = config.horizon
    if window.length < H:
        raise ForecastTooShort(f"window has {window.length} steps, horizon needs {H}")
    if template is None:
        template = pf_template(grid, variant, model)
    pf = template.layout
    n_pf = pf.n
    unit_offsets = {}
    ofs = n_pf
    for name in UNIT_BLOCKS:
        unit_offsets[name] = ofs
        ofs += 2
    stride = ofs
    n = H * stride

    layout = MpcLayout(
        variant=variant,
        horizon=H,
        stride=stride,
        pf=pf,
        unit_offsets=unit_offsets,
        binary_indices=(),
    )

    u_map = config.unit_map(grid)
    template_coo = template.eq.tocoo()
    n_eq_pf = template.eq.shape[0]

    eq = _Coo()
    eq_rhs = []
    row = 0
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    cost = np.zeros(n)
    ineq = _Coo()
    in_rhs = []
    irow = 0
    balls = []
    binaries = []

    pe_lo, pe_hi = config.pe_bounds(grid)

    for h in range(H):
        base = h * stride
        # power-flow block
        eq.add_block(row, base, template_coo)
        eq_rhs.extend(template.eq_rhs.tolist())
        row += n_eq_pf
        for pair in pf.ball_pairs():
            balls.append((base + pair[0], base + pair[1]))

        sl = {name: layout.unit_slice(name, h) for name in UNIT_BLOCKS}
        pg = layout.pf_slice("p_g", h)

        # unit-to-node coupling: p_g = U [p_t p_s p_r p_d], load fixed at -w_d
        for i in range(grid.n_nodes):
            eq.add(row + i, pg.start + i, 1.0)
            for u_col, block in ((0, "p_t"), (2, "p_s"), (4, "p_r")):
                for j in range(2):
                    if u_map[i, u_col + j]:
                        eq.add(row + i, sl[block].start + j, -u_map[i, u_col + j])
            eq_rhs.append(-u_map[i, 6] * window.w_d[h])
        row += grid.n_nodes

        # storage dynamics: x_next(h) = A_s x_prev + B_s p_s(h)
        for i in range(2):
            eq.add(row + i, sl["x_next"].start + i, 1.0)
            for j in range(2):
                if config.b_s[i, j]:
                    eq.add(row + i, sl["p_s"].start + j, -config.b_s[i, j])
            if h == 0:
                eq_rhs.append(float(config.a_s[i] @ state.x))
            else:
                prev = layout.unit_slice("x_next", h - 1)
                for j in range(2):
                    if config.a_s[i, j]:
                        eq.add(row + i, prev.start + j, -config.a_s[i, j])
                eq_rhs.append(0.0)
        row += 2

        # |p_s| split
        for i in range(2):
            eq.add(row + i, sl["p_s"].start + i, 1.0)
            eq.add(row + i, sl["ps_pos"].start + i, -1.0)
            eq.add(row + i, sl["ps_neg"].start + i, 1.0)
            eq_rhs.append(0.0)
        row += 2

        # generator limits tied to commitment
        for i in range(2):
            ineq.add(irow, sl["delta"].start + i, config.pt_min[i])
            ineq.add(irow, sl["p_t"].start + i, -1.0)
            in_rhs.append(0.0)
            irow += 1
            ineq.add(irow, sl["p_t"].start + i, 1.0)
            ineq.add(irow, sl["delta"].start + i, -config.pt_max[i])
            in_rhs.append(0.0)
            irow += 1

        # commitment-switch epigraph: sigma >= |delta_h - delta_{h-1}|
        for i in range(2):
            for sign in (1.0, -1.0):
                ineq.add(irow, sl["delta"].start + i, sign)
                ineq.add(irow, sl["sigma"].start + i, -1.0)
                if h == 0:
                    in_rhs.append(sign * state.delta_prev[i])
                else:
                    prev = layout.unit_slice("delta", h - 1)
                    ineq.add(irow, prev.start + i, -sign)
                    in_rhs.append(0.0)
                irow += 1

        # soft energy-range epigraphs on x(k+h+1|k)
        for i in range(2):
            ineq.add(irow, sl["x_next"].start + i, -1.0)
            ineq.add(irow, sl["u_soft"].start + i, -1.0)
            in_rhs.append(-config.x_soft_min[i])
            irow += 1
            ineq.add(irow, sl["x_next"].start + i, 1.0)
            ineq.add(irow, sl["o_soft"].start + i, -1.0)
            in_rhs.append(config.x_soft_max[i])
            irow += 1

        # bounds
        lb[sl["p_t"]], ub[sl["p_t"]] = 0.0, config.pt_max
        lb[sl["p_s"]], ub[sl["p_s"]] = config.ps_min, config.ps_max
        lb[sl["p_r"]], ub[sl["p_r"]] = 0.0, window.w_r[h]
        lb[sl["delta"]], ub[sl["delta"]] = 0.0, 1.0
        lb[sl["sigma"]] = 0.0
        lb[sl["ps_pos"]] = 0.0
        lb[sl["ps_neg"]] = 0.0
        lb[sl["u_soft"]] = 0.0
        lb[sl["o_soft"]] = 0.0
        lb[sl["x_next"]], ub[sl["x_next"]] = config.x_min, config.x_max
        pe = layout.pf_slice("p_e", h)
        lb[pe], ub[pe] = pe_lo, pe_hi

        # discounted stage cost + undiscounted relaxation term
        g = config.gamma**h
        cost[sl["sigma"]] += g * config.c0
        cost[sl["delta"]] += g * config.c1
        cost[sl["p_t"]] += g * config.c2
        cost[sl["p_r"]] += g * config.c3
        cost[sl["ps_pos"]] += g * config.c4
        cost[sl["ps_neg"]] += g * config.c4
        cost[sl["u_soft"]] += g * config.c5
        cost[sl["o_soft"]] += g * config.c5
        cost[pg] += g * config.c6
        cost[layout.cos_cols(h)] -= config.beta

        binaries.extend(range(sl["delta"].start, sl["delta"].stop))

    prog = ConicProgram.build(
        c=cost,
        A_eq=eq.matrix((row, n)),
        b_eq=np.asarray(eq_rhs),
        A_in=ineq.matrix((irow, n)),
        b_in=np.asarray(in_rhs),
        lb=lb,
        ub=ub,
        balls=balls,
    )
    layout.binary_indices = tuple(binaries)
    return MixedBinaryProgram(prog, layout.binary_indices), layout


# --- plant and closed loop -------------------------------------------------------


@dataclass
class StepRecord:
    """Realized quantities of one closed-loop step."""

    delta: np.ndarray
    p_t: np.ndarray
    p_s: np.ndarray
    p_r: np.ndarray
    p_d: float
    p_g: np.ndarray
    p_e: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    cost_sw: float
    cost_p: float
    cost_x: float
    cost_loss: float
    solve_time: float
    tightness: float
    nodes: int


def step_plant(
    config: MicrogridConfig, state: PlantState, p_s: np.ndarray, delta: np.ndarray, tol: float = 1e-6
) -> PlantState:
    """Advance the stored energy one step and update the commitment memory."""
    x_next = config.a_s @ state.x + config.b_s @ np.asarray(p_s, dtype=float)
    if np.any(x_next < config.x_min - tol) or np.any(x_next > config.x_max + tol):
        raise StateBoundViolation(
            f"stored energy {x_next} outside [{config.x_min}, {config.x_max}]"
        )
    return PlantState(x=x_next, delta_prev=np.round(np.asarray(delta, dtype=float)), k=state.k + 1)


@dataclass
class ClosedLoopResult:
    variant: str
    config: MicrogridConfig = field(repr=False)
    grid: Grid = field(repr=False)
    records: list[StepRecord] = field(repr=False)
    x_final: np.ndarray = None

    @property
    def steps(self) -> int:
        return len(self.records)

    def column(self, name: str) -> np.ndarray:
        return np.asarray([getattr(r, name) for r in self.records])

    def kpis(self) -> tuple[float, float]:
        return compute_kpis(self)


def compute_kpis(result: ClosedLoopResult) -> tuple[float, float]:
    """(mean unit running cost, mean transmission-loss cost) over the run."""
    sw = result.column("cost_sw")
    p = result.column("cost_p")
    loss = result.column("cost_loss")
    k = len(sw)
    return float((sw + p).sum() / k), float(loss.sum() / k)


def run_closed_loop(
    config: MicrogridConfig,
    grid: Grid,
    profiles: Profiles,
    variant: str,
    steps: int,
    model: DataDrivenLineModel | None = None,
) -> ClosedLoopResult:
    """Receding-horizon simulation: build, solve, apply first move, record.

    Each step runs branch & bound, seeded with the previous plan's shifted
    commitments. The plant is exactly the prediction physics. The
    circle-equality variant ('dd') projects every first move onto the
    circles, as opf.solve_opf does.
    """
    if profiles.length < steps:
        raise ForecastTooShort(f"profiles cover {profiles.length} steps, run needs {steps}")
    state = initial_state(config)
    records: list[StepRecord] = []
    hint = None
    H = config.horizon
    template = pf_template(grid, variant, model)

    for k in range(steps):
        window = profiles.window(k, H)
        prog, layout = build_mpc_step(config, grid, variant, state, window, model, template)
        t0 = time.perf_counter()
        sol = solve_mixed_binary(
            prog, strategy="branch_and_bound", tol=_SOLVER_TOL, incumbent_hint=hint
        )
        if sol.status != "optimal":
            raise DdopfError(f"closed loop failed at step {k}: solver status {sol.status!r}")

        x_full = sol.x
        n_pairs = len(layout.pf.pairs)
        phi0 = x_full[layout.pf_slice("phi", 0)].copy()
        p_e0 = x_full[layout.pf_slice("p_e", 0)].copy()
        p_g0 = x_full[layout.pf_slice("p_g", 0)].copy()
        if variant == "dd":
            phi0, _, p_e0, p_g0 = project_onto_circles(variant, grid, model, phi0)
        tight = tightness_report(phi0, n_pairs).max_residual
        # the restoration step belongs to the circle-equality variant's solve
        solve_time = time.perf_counter() - t0

        delta = np.round(x_full[layout.unit_slice("delta", 0)])
        p_t = x_full[layout.unit_slice("p_t", 0)].copy()
        p_s = x_full[layout.unit_slice("p_s", 0)].copy()
        p_r = x_full[layout.unit_slice("p_r", 0)].copy()
        theta = _edge_angles(grid, layout, phi0)

        cost_sw = float(config.c0 @ np.abs(delta - state.delta_prev) + config.c1 @ delta)
        cost_p = float(config.c2 @ p_t + config.c3 @ p_r + config.c4 @ np.abs(p_s))
        cost_x = float(
            config.c5
            @ (
                np.maximum(0.0, config.x_soft_min - state.x)
                + np.maximum(0.0, state.x - config.x_soft_max)
            )
        )
        cost_loss = float(config.c6 * np.sum(p_g0))

        records.append(
            StepRecord(
                delta=delta,
                p_t=p_t,
                p_s=p_s,
                p_r=p_r,
                p_d=float(-window.w_d[0]),
                p_g=p_g0,
                p_e=p_e0,
                theta=theta,
                x=state.x.copy(),
                cost_sw=cost_sw,
                cost_p=cost_p,
                cost_x=cost_x,
                cost_loss=cost_loss,
                solve_time=solve_time,
                tightness=tight,
                nodes=sol.node_count or 1,
            )
        )

        deltas = [np.round(x_full[layout.unit_slice("delta", h)]) for h in range(1, H)]
        deltas.append(deltas[-1] if deltas else delta)
        hint = tuple(float(v) for d in deltas for v in d)
        state = step_plant(config, state, p_s, delta)

    return ClosedLoopResult(variant=variant, config=config, grid=grid, records=records, x_final=state.x)


def _edge_angles(grid: Grid, layout: MpcLayout, phi0: np.ndarray) -> np.ndarray:
    pairs = layout.pf.pairs
    c = phi0[cos_indices(len(pairs))]
    s = phi0[sin_indices(len(pairs))]
    theta_pairs = np.arctan2(s, c)
    cols = [pairs.index(e) for e in grid.edges]
    return theta_pairs[cols]


# --- audits ---------------------------------------------------------------------


@dataclass
class AuditReport:
    """Independent replay of the hard operating constraints."""

    violations: dict
    tol: float

    @property
    def max_violation(self) -> float:
        return max(self.violations.values())

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def audit_closed_loop(
    result: ClosedLoopResult, profiles: Profiles, tol: float = 1e-6
) -> AuditReport:
    """Replay generator limits, storage limits/dynamics, energy bounds, RES
    availability, line limits and the unit-to-node balance on the records."""
    cfg = result.config
    grid = result.grid
    u_map = cfg.unit_map(grid)
    pe_lo, pe_hi = cfg.pe_bounds(grid)
    v = {key: 0.0 for key in (
        "generator_limits", "storage_power", "storage_dynamics", "energy_bounds",
        "res_availability", "line_limits", "node_balance",
    )}
    x = result.records[0].x if result.records else cfg.x0

    for k, rec in enumerate(result.records):
        v["generator_limits"] = max(
            v["generator_limits"],
            float(np.max(cfg.pt_min * rec.delta - rec.p_t, initial=0.0)),
            float(np.max(rec.p_t - cfg.pt_max * rec.delta, initial=0.0)),
        )
        v["storage_power"] = max(
            v["storage_power"],
            float(np.max(cfg.ps_min - rec.p_s, initial=0.0)),
            float(np.max(rec.p_s - cfg.ps_max, initial=0.0)),
        )
        v["storage_dynamics"] = max(
            v["storage_dynamics"], float(np.max(np.abs(rec.x - x)))
        )
        x_next = cfg.a_s @ rec.x + cfg.b_s @ rec.p_s
        v["energy_bounds"] = max(
            v["energy_bounds"],
            float(np.max(cfg.x_min - x_next, initial=0.0)),
            float(np.max(x_next - cfg.x_max, initial=0.0)),
        )
        v["res_availability"] = max(
            v["res_availability"],
            float(np.max(-rec.p_r, initial=0.0)),
            float(np.max(rec.p_r - profiles.w_r[k], initial=0.0)),
        )
        v["line_limits"] = max(
            v["line_limits"],
            float(np.max(pe_lo - rec.p_e, initial=0.0)),
            float(np.max(rec.p_e - pe_hi, initial=0.0)),
        )
        units = np.concatenate([rec.p_t, rec.p_s, rec.p_r, [rec.p_d]])
        v["node_balance"] = max(
            v["node_balance"], float(np.max(np.abs(rec.p_g - u_map @ units)))
        )
        x = x_next
    if result.records:
        v["storage_dynamics"] = max(
            v["storage_dynamics"], float(np.max(np.abs(result.x_final - x)))
        )
    return AuditReport(violations=v, tol=tol)


# --- result files ----------------------------------------------------------------


def results_header(grid: Grid) -> list[str]:
    cols = [
        "k", "time_h", "conv1_power", "conv2_power", "bess1_power", "bess2_power",
        "res1_power", "res2_power", "load", "stored_energy_1", "stored_energy_2",
    ]
    for i, j in grid.edges:
        cols += [f"pe_{i}{j}", f"pe_{j}{i}"]
    cols += ["cost_sw", "cost_p", "cost_x", "cost_loss", "solve_time_s"]
    return cols


def save_results(result: ClosedLoopResult, path) -> None:
    cfg = result.config
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(results_header(result.grid))
        for k, rec in enumerate(result.records):
            row = [k, f"{k * cfg.ts_hours:.17g}"]
            row += [f"{val:.17g}" for val in rec.p_t]
            row += [f"{val:.17g}" for val in rec.p_s]
            row += [f"{val:.17g}" for val in rec.p_r]
            row.append(f"{rec.p_d:.17g}")
            row += [f"{val:.17g}" for val in rec.x]
            row += [f"{val:.17g}" for val in rec.p_e]
            row += [
                f"{rec.cost_sw:.17g}", f"{rec.cost_p:.17g}", f"{rec.cost_x:.17g}",
                f"{rec.cost_loss:.17g}", f"{rec.solve_time:.17g}",
            ]
            writer.writerow(row)


def save_solve_times(result: ClosedLoopResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "solve_time_s"])
        for k, rec in enumerate(result.records):
            writer.writerow([k, f"{rec.solve_time:.17g}"])


def read_results_csv(path) -> dict[str, np.ndarray]:
    """Results file as named columns, for run-to-run comparisons."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty results file") from None
        rows = [list(map(float, row)) for row in reader if row]
    if not rows:
        raise SchemaError("results file has no rows")
    data = np.asarray(rows)
    if data.shape[1] != len(header):
        raise SchemaError("results file is ragged")
    return {name: data[:, i] for i, name in enumerate(header)}

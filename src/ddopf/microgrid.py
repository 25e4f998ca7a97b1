"""Microgrid energy management: constraints, costs, MPC variants, closed loop.

The plant has two committable generators, two storage units with integrator
dynamics, two curtailable renewable units and one fixed load. Each
closed-loop run builds one mixed-binary conic program over the horizon
(MpcTemplate): unit constraints and pre-linearized stage costs around a
per-step power-flow block shared with the single-step OPF builders. Each MPC
step then writes only the measured state and the forecasts, into copies of
the three vectors that carry them. The closed loop applies the first move,
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
from dataclasses import dataclass, field, fields, replace
import numpy as np

from .behavior import DataDrivenLineModel
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
from .opf import OpfLayout, _recover_theta, pf_template, project_onto_circles, tightness_report

# the config fields that may be infinite, meaning no limit; the generator
# limits pt_min and pt_max scale the commitment binaries, so they stay finite
_LIMITS = ("ps_min", "ps_max", "pe_min", "pe_max", "x_min", "x_max")

N_GEN = 2
N_STO = 2
N_RES = 2
UNIT_BLOCKS = ("p_t", "p_s", "p_r", "delta", "sigma", "ps_pos", "ps_neg", "u_soft", "o_soft", "x_next")

_SOLVER_TOL = 1e-8


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
        for lo, hi in (
            ("pt_min", "pt_max"), ("ps_min", "ps_max"), ("pe_min", "pe_max"), ("x_min", "x_max")
        ):
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
        for f in fields(self):
            value = np.asarray(getattr(self, f.name), dtype=float)
            if np.isnan(value).any():
                raise ValueError(f"{f.name} must not be NaN")
            if f.name not in _LIMITS and np.isinf(value).any():
                raise ValueError(f"{f.name} must be finite")

    def unit_map(self, grid: Grid) -> np.ndarray:
        """Boolean unit-to-node map, one column per unit/load."""
        u = np.zeros((grid.n_nodes, 7))
        # unit column order in the node-coupling map: [p_t, p_s, p_r, p_d]
        units = (*self.generator_nodes, *self.storage_nodes, *self.res_nodes, self.load_node)
        for col, node in enumerate(units):
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


_CONFIG_KEYS = tuple(f.name for f in fields(MicrogridConfig))


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


def default_grid() -> Grid:
    """5-bus radial grid of the case study, unit voltages, symmetric lines."""
    edges = [(1, 2), (2, 4), (2, 5), (3, 5)]
    return Grid([1, 2, 3, 4, 5], edges, {e: LineParams(g=2.0, b=-20.0) for e in edges})


def load_config(path) -> MicrogridConfig:
    # imported here: only the four YAML load and save functions need
    # PyYAML, so `import ddopf` does without it
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise SchemaError("microgrid config must be a mapping")
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise SchemaError(f"microgrid config missing required key(s)", column=", ".join(missing))
    try:
        return MicrogridConfig(**{k: raw[k] for k in _CONFIG_KEYS})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid microgrid config: {exc}") from exc


def save_config(config: MicrogridConfig, path) -> None:
    doc = {}
    for key in _CONFIG_KEYS:
        value = getattr(config, key)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        doc[key] = value
    import yaml

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
        if not (np.isfinite(self.w_r).all() and np.isfinite(self.w_d).all()):
            raise ValueError("profiles must be finite")
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
) -> Profiles:
    """Deterministic synthetic demand and weather profiles.

    Demand is a daily sinusoid from 0.2 up to demand_peak plus noise of up to
    0.02, the first renewable behaves like wind (persistent, day and night),
    the second like photovoltaics (daylight bell, per-day cloudiness); both
    have capacity 0.8. Peak demand is checked against the largest possible
    fleet output.
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
    w_d = 0.2 + (demand_peak - 0.2) * shape
    w_d = w_d + 0.02 * rng.uniform(-1.0, 1.0, size=steps)
    w_d = np.clip(w_d, 0.02, demand_peak)

    wind = np.empty(steps)
    level = rng.uniform(0.3, 0.7)
    for k in range(steps):
        level = 0.97 * level + 0.03 * 0.5 + 0.08 * rng.normal()
        wind[k] = level
    w_r1 = 0.8 * np.clip(wind, 0.0, 1.0)

    day_index = (t_h // 24.0).astype(int)
    n_days = int(day_index.max()) + 1
    cloud = rng.uniform(0.25, 1.0, size=n_days)
    daylight = np.clip(np.sin(math.pi * (hour - 7.0) / 12.0), 0.0, None)
    daylight[(hour < 7.0) | (hour > 19.0)] = 0.0
    w_r2 = 0.8 * daylight * cloud[day_index]

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
        if header[:2] != ["k", "wd_1"]:
            raise SchemaError(
                "profiles header must be k, wd_1, wr_*...", column=header[0] if header else None
            )
        renewables = [f"wr_{i + 1}" for i in range(N_RES)]
        if header[2:] != renewables:
            raise SchemaError(
                f"profiles need the renewable columns {', '.join(renewables)}, "
                f"found {', '.join(header[2:]) or 'none'}"
            )
        rows = [row[1:] for row in reader if row]
    if not rows:
        raise SchemaError("profiles file has no rows")
    try:
        data = np.asarray([list(map(float, row)) for row in rows])
        return Profiles(w_r=data[:, 1:], w_d=data[:, 0])
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"invalid profiles: {exc}") from exc


# --- MPC step program -----------------------------------------------------------


@dataclass
class MpcLayout:
    """Index bookkeeping for the horizon-stacked MPC program."""

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


class MpcTemplate:
    """The receding-horizon program of one closed-loop run, built once.

    Unit constraints, pre-linearized stage costs and the variant's power-flow
    block repeated over the horizon. States x(k+1|k)..x(k+H|k) carry the hard
    and soft energy bounds, so the final storage move stays accountable. The
    relaxation term -beta * cos enters undiscounted, matching the convex
    variant's objective.

    One stage's rows are small dense blocks, plus a second pair for the terms
    on the previous stage (-A_s on x_next, -sign on delta); the horizon
    stacks them as kron(I_H, stage) + kron(eye(H, k=-1), previous). Only the
    measured state and the forecasts change between steps, so program()
    copies b_eq, b_in and ub and writes them; every step shares c, A_eq,
    A_in, lb, the balls and the binaries, which no solver layer writes into,
    and so the base's conic.Structure: the solver's plan and the
    fix_variables reductions of the run's nodes are built once per run.
    """

    def __init__(
        self,
        config: MicrogridConfig,
        grid: Grid,
        variant: str,
        model: DataDrivenLineModel | None = None,
    ):
        H = config.horizon
        pf_tpl = pf_template(grid, variant, model)
        pf = pf_tpl.layout
        offsets = {name: pf.n + 2 * k for k, name in enumerate(UNIT_BLOCKS)}
        stride = pf.n + 2 * len(UNIT_BLOCKS)
        cols = {name: slice(ofs, ofs + 2) for name, ofs in offsets.items()}
        cols.update(pf=slice(0, pf.n), p_g=pf.p_g)

        def rows(height: int, **terms) -> np.ndarray:
            out = np.zeros((height, stride))
            for name, block in terms.items():
                out[:, cols[name]] = block
            return out

        def pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
            # the two rows of unit 0, then those of unit 1
            return np.stack([first, second], axis=1).reshape(-1, *first.shape[1:])

        def horizon(idx, step: int) -> np.ndarray:
            # idx in every stage, one row per stage
            return np.arange(H)[:, None] * step + np.asarray(idx)

        i2 = np.eye(2)
        u_map = config.unit_map(grid)
        n_pf, n_nodes = pf_tpl.eq.shape[0], grid.n_nodes
        # power flow; p_g = U [p_t p_s p_r -w_d]; x_next = A_s x_prev + B_s p_s;
        # p_s = ps_pos - ps_neg
        eq = np.vstack([
            rows(n_pf, pf=pf_tpl.eq),
            rows(n_nodes, p_g=np.eye(n_nodes), p_t=-u_map[:, 0:2], p_s=-u_map[:, 2:4],
                 p_r=-u_map[:, 4:6]),
            rows(2, x_next=i2, p_s=-config.b_s),
            rows(2, p_s=i2, ps_pos=-i2, ps_neg=i2),
        ])
        eq_prev = np.vstack([rows(n_pf + n_nodes), rows(2, x_next=-config.a_s), rows(2)])
        # pt_min delta <= p_t <= pt_max delta; sigma >= |delta - delta_prev|;
        # soft energy-range epigraphs on x_next
        ineq = np.vstack([
            pair(rows(2, delta=np.diag(config.pt_min), p_t=-i2),
                 rows(2, p_t=i2, delta=-np.diag(config.pt_max))),
            pair(rows(2, delta=i2, sigma=-i2), rows(2, delta=-i2, sigma=-i2)),
            pair(rows(2, x_next=-i2, u_soft=-i2), rows(2, x_next=i2, o_soft=-i2)),
        ])
        ineq_prev = np.vstack([rows(4), pair(rows(2, delta=-i2), rows(2, delta=i2)), rows(4)])

        def stack(stage: np.ndarray, previous: np.ndarray) -> np.ndarray:
            # kron(I_H, stage) + kron(eye(H, k=-1), previous), as (stage, row,
            # stage, column) blocks
            out = np.zeros((H, stage.shape[0], H, stride))
            h = np.arange(H)
            out[h, :, h] = stage
            out[h[1:], :, h[:-1]] = previous
            return out.reshape(H * stage.shape[0], H * stride)

        # discounted stage cost + undiscounted relaxation term
        gamma = np.array([config.gamma**h for h in range(H)])
        cost = np.zeros((H, stride))
        for name, coeff in (
            ("sigma", config.c0), ("delta", config.c1), ("p_t", config.c2), ("p_r", config.c3),
            ("ps_pos", config.c4), ("ps_neg", config.c4), ("u_soft", config.c5),
            ("o_soft", config.c5),
        ):
            cost[:, cols[name]] += np.outer(gamma, coeff)
        cost[:, pf.p_g] += (gamma * config.c6)[:, None]
        cost[:, pf.cos_cols()] -= config.beta

        # p_r's upper bound is the forecast, written per step
        lb = np.full((H, stride), -np.inf)
        ub = np.full((H, stride), np.inf)
        for name, lo, hi in (
            ("p_t", 0.0, config.pt_max), ("p_s", config.ps_min, config.ps_max),
            ("p_r", 0.0, np.inf), ("delta", 0.0, 1.0), ("sigma", 0.0, np.inf),
            ("ps_pos", 0.0, np.inf), ("ps_neg", 0.0, np.inf), ("u_soft", 0.0, np.inf),
            ("o_soft", 0.0, np.inf), ("x_next", config.x_min, config.x_max),
        ):
            lb[:, cols[name]], ub[:, cols[name]] = lo, hi
        lb[:, pf.p_e], ub[:, pf.p_e] = config.pe_bounds(grid)

        self.base = ConicProgram.build(
            c=cost.ravel(),
            A_eq=stack(eq, eq_prev),
            b_eq=np.tile(np.concatenate([pf_tpl.eq_rhs, np.zeros(n_nodes + 4)]), H),
            A_in=stack(ineq, ineq_prev),
            b_in=np.tile(
                np.concatenate([np.zeros(8), pair(-config.x_soft_min, config.x_soft_max)]), H
            ),
            lb=lb.ravel(),
            ub=ub.ravel(),
            balls=horizon(np.reshape(pf.ball_pairs(), -1), stride).reshape(-1, 2),
        )
        binaries = horizon(offsets["delta"] + np.arange(2), stride).ravel()
        self.layout = MpcLayout(H, stride, pf, offsets, tuple(binaries.tolist()))
        self._a_s = config.a_s
        self._load = -u_map[:, 6]
        # entries written per step: the h = 0 storage and switch rows, every
        # stage's coupling rows and p_r upper bounds
        self._load_rows = horizon(n_pf + np.arange(n_nodes), eq.shape[0])
        self._storage_rows = n_pf + n_nodes + np.arange(2)
        self._switch_rows = 4 + np.arange(4)
        self._res_cols = horizon(offsets["p_r"] + np.arange(2), stride)

    def program(
        self, state: PlantState, window: Profiles
    ) -> tuple[MixedBinaryProgram, MpcLayout]:
        """This step's program: the template with x(k), delta(k-1) and the
        window's first H forecasts written in."""
        H = self.layout.horizon
        base = self.base
        b_eq, b_in, ub = base.b_eq.copy(), base.b_in.copy(), base.ub.copy()
        b_eq[self._load_rows] = self._load * window.w_d[:H, None]
        b_eq[self._storage_rows] = self._a_s @ state.x
        b_in[self._switch_rows] = np.stack([state.delta_prev, -state.delta_prev], axis=1).ravel()
        ub[self._res_cols] = window.w_r[:H]
        prog = replace(base, b_eq=b_eq, b_in=b_in, ub=ub)
        return MixedBinaryProgram(prog, self.layout.binary_indices), self.layout


def build_mpc_step(
    config: MicrogridConfig,
    grid: Grid,
    variant: str,
    state: PlantState,
    window: Profiles,
    model: DataDrivenLineModel | None = None,
    template: MpcTemplate | None = None,
) -> tuple[MixedBinaryProgram, MpcLayout]:
    """One receding-horizon program (see MpcTemplate) at `state` over `window`.

    A closed-loop run passes its MpcTemplate, built once for (config, grid,
    variant, model), so a step only writes the state and the forecasts;
    without one, the step builds its own template.
    """
    H = config.horizon
    if window.length < H:
        raise ForecastTooShort(f"window has {window.length} steps, horizon needs {H}")
    if window.w_r.shape[1] != N_RES:
        raise DimensionMismatch(
            f"window has {window.w_r.shape[1]} renewable columns, the plant has {N_RES}"
        )
    if template is None:
        template = MpcTemplate(config, grid, variant, model)
    return template.program(state, window)


# --- plant and closed loop -------------------------------------------------------


@dataclass
class StepRecord:
    """Realized quantities of one closed-loop step.

    nodes, ipm_iterations and warm_restarts are the solver work of the
    step's branch & bound call: convex solves, IPM iterations run over them,
    and warm attempts dropped for a cold solve.
    """

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
    ipm_iterations: int
    warm_restarts: int


def step_plant(
    config: MicrogridConfig, state: PlantState, p_s: np.ndarray, delta: np.ndarray
) -> PlantState:
    """Advance the stored energy one step and update the commitment memory;
    the energy may leave its hard bounds by at most 1e-6."""
    x_next = config.a_s @ state.x + config.b_s @ np.asarray(p_s, dtype=float)
    if np.any(x_next < config.x_min - 1e-6) or np.any(x_next > config.x_max + 1e-6):
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
    commitments. From step 1 on, each node starts from the last optimal
    solve with the same fixed binaries and values in this run
    (mip.solve_mixed_binary's warm_starts): the hinted assignment from the
    last step that solved it, the root relaxation from the previous root. The plant is exactly the prediction
    physics. The circle-equality variant ('dd') projects every first move
    onto the circles, as opf.solve_opf does.
    """
    if profiles.length < steps:
        raise ForecastTooShort(f"profiles cover {profiles.length} steps, run needs {steps}")
    state = initial_state(config)
    records: list[StepRecord] = []
    hint = None
    H = config.horizon
    template = MpcTemplate(config, grid, variant, model)
    warm_starts: dict = {}

    for k in range(steps):
        window = profiles.window(k, H)
        prog, layout = build_mpc_step(config, grid, variant, state, window, model, template)
        t0 = time.perf_counter()
        sol = solve_mixed_binary(
            prog,
            strategy="branch_and_bound",
            tol=_SOLVER_TOL,
            incumbent_hint=hint,
            warm_starts=warm_starts,
        )
        if sol.status != "optimal":
            raise DdopfError(f"closed loop failed at step {k}: solver status {sol.status!r}")

        x_full = sol.x
        phi0 = x_full[layout.pf_slice("phi", 0)].copy()
        p_e0 = x_full[layout.pf_slice("p_e", 0)].copy()
        p_g0 = x_full[layout.pf_slice("p_g", 0)].copy()
        if variant == "dd":
            phi0, p_e0, p_g0 = project_onto_circles(variant, grid, model, phi0)
        tight = tightness_report(phi0).max_residual
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
                nodes=sol.node_count,
                ipm_iterations=sol.stats.iterations,
                warm_restarts=sol.stats.warm_restarts,
            )
        )

        deltas = [np.round(x_full[layout.unit_slice("delta", h)]) for h in range(1, H)]
        deltas.append(deltas[-1] if deltas else delta)
        hint = tuple(float(v) for d in deltas for v in d)
        state = step_plant(config, state, p_s, delta)

    return ClosedLoopResult(variant=variant, config=config, grid=grid, records=records, x_final=state.x)


def _edge_angles(grid: Grid, layout: MpcLayout, phi0: np.ndarray) -> np.ndarray:
    pairs = layout.pf.pairs
    return _recover_theta(phi0)[[pairs.index(e) for e in grid.edges]]


# --- audits ---------------------------------------------------------------------


@dataclass
class AuditReport:
    """Independent replay of the hard operating constraints."""

    violations: dict
    tol: float

    @property
    def max_violation(self) -> float:
        return float(np.max(list(self.violations.values())))

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

    def update(key, *excess):
        # np.max keeps NaN, so a non-finite replayed quantity fails the audit
        v[key] = float(np.max([v[key], *(np.max(e, initial=0.0) for e in excess)]))

    for k, rec in enumerate(result.records):
        update("generator_limits", cfg.pt_min * rec.delta - rec.p_t, rec.p_t - cfg.pt_max * rec.delta)
        update("storage_power", cfg.ps_min - rec.p_s, rec.p_s - cfg.ps_max)
        update("storage_dynamics", np.abs(rec.x - x))
        x_next = cfg.a_s @ rec.x + cfg.b_s @ rec.p_s
        update("energy_bounds", cfg.x_min - x_next, x_next - cfg.x_max)
        update("res_availability", -rec.p_r, rec.p_r - profiles.w_r[k])
        update("line_limits", pe_lo - rec.p_e, rec.p_e - pe_hi)
        units = np.concatenate([rec.p_t, rec.p_s, rec.p_r, [rec.p_d]])
        update("node_balance", np.abs(rec.p_g - u_map @ units))
        x = x_next
    if result.records:
        update("storage_dynamics", np.abs(result.x_final - x))
    return AuditReport(violations=v, tol=tol)


# --- result files ----------------------------------------------------------------


# trailing columns of results.csv: solver work, which differs between runs
# that agree on every computed quantity
WORK_COLUMNS = ("nodes", "ipm_iterations", "warm_restarts")


def results_header(grid: Grid) -> list[str]:
    cols = [
        "k", "time_h", "conv1_power", "conv2_power", "bess1_power", "bess2_power",
        "res1_power", "res2_power", "load", "stored_energy_1", "stored_energy_2",
    ]
    for i, j in grid.edges:
        cols += [f"pe_{i}{j}", f"pe_{j}{i}"]
    cols += ["cost_sw", "cost_p", "cost_x", "cost_loss", "solve_time_s"]
    cols += list(WORK_COLUMNS)
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
                rec.nodes, rec.ipm_iterations, rec.warm_restarts,
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

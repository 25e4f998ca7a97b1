"""Single-step optimal power flow variants over one solver stack.

Four variants share a lifted-variable program layout [phi | p_e | p_g]
with per-pair unit-ball constraints on the (cos, sin) entries of phi, and
one power-flow form p_out = F phi:

* reference      -- F is the line physics, plus nodal coupling p_g = M p_e.
* dd             -- F = H_pe H_phi^+ from order-1 Hankel data of (phi, p_e),
                    plus the coupling; solved through the relaxation and then
                    projected back onto the circles (the nonconvex target).
* dd-convex      -- same program, relaxation kept as-is (balls <= 1) with the
                    cosine-maximizing objective term.
* dd-generalized -- all-pairs lift, F = [H_pe; H_pg] H_phi^+ gives the
                    injections too; no explicit coupling (topology-agnostic).

F = H_out H_phi^+ substitutes alpha = H_phi^+ phi out of the paper's
H alpha = [phi; p], exactly on noiseless data; alpha is recovered after the solve.

The relaxation adds -beta * sum(cos entries) to the cost so the balls bind
at the optimum; tightness is always verified, never assumed.
"""

from __future__ import annotations

import logging
import math
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .behavior import DataDrivenLineModel, cos_indices, sin_indices
from .conic import ConicProgram, Solution
from .errors import DimensionMismatch, ModelNotPE, ProjectionInfeasible
from .grid import Grid, all_node_pairs
from .ipm import solve_convex
from .physics import flow_map, injection_matrix

logger = logging.getLogger(__name__)

VARIANTS = ("reference", "dd", "dd-convex", "dd-generalized")
_SOLVER_TOL = 1e-8
# largest circle residual 1 - (cos^2 + sin^2) a tight solution may keep, and
# largest application-constraint violation a projected point may keep
_TIGHT_TOL = 1e-6
_FEAS_TOL = 1e-6


@dataclass
class OpfLayout:
    """Column layout of the lifted OPF variable vector."""

    n: int
    phi: slice
    p_e: slice
    p_g: slice
    pairs: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]
    nodes: tuple[int, ...]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def ball_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.cos_cols().tolist(), self.sin_cols().tolist()))

    def cos_cols(self) -> np.ndarray:
        return self.phi.start + cos_indices(self.n_pairs)

    def sin_cols(self) -> np.ndarray:
        return self.phi.start + sin_indices(self.n_pairs)


@dataclass
class LinearObjective:
    """f(p) = c_pe . p_e + c_pg . p_g; defaults to total transmission losses."""

    c_pe: np.ndarray | None = None
    c_pg: np.ndarray | None = None

    def vector(self, layout: OpfLayout) -> np.ndarray:
        c = np.zeros(layout.n)
        if self.c_pe is not None:
            pe = np.asarray(self.c_pe, dtype=float)
            if pe.size != layout.p_e.stop - layout.p_e.start:
                raise DimensionMismatch("c_pe length does not match the directional flow block")
            c[layout.p_e] = pe
        if self.c_pg is not None:
            pg = np.asarray(self.c_pg, dtype=float)
            if pg.size != layout.p_g.stop - layout.p_g.start:
                raise DimensionMismatch("c_pg length does not match the injection block")
            c[layout.p_g] = pg
        return c

    def value(self, p_e: np.ndarray, p_g: np.ndarray) -> float:
        out = 0.0
        if self.c_pe is not None:
            out += float(np.dot(self.c_pe, p_e))
        if self.c_pg is not None:
            out += float(np.dot(self.c_pg, p_g))
        return out


def losses_objective(grid: Grid) -> LinearObjective:
    return LinearObjective(c_pg=np.ones(grid.n_nodes))


class AppConstraints:
    """Application-dependent linear hooks over the (phi, p_e, p_g) blocks.

    Rows are sparse term maps {block: {index: coeff}}; equality rows read
    sum(terms) = rhs and inequality rows sum(terms) <= rhs.
    """

    BLOCKS = ("phi", "p_e", "p_g")

    def __init__(self):
        self.eq_rows: list[tuple[dict, float]] = []
        self.ineq_rows: list[tuple[dict, float]] = []

    def add_eq(self, terms: Mapping[str, Mapping[int, float]], rhs: float) -> "AppConstraints":
        self._check(terms)
        self.eq_rows.append((dict(terms), float(rhs)))
        return self

    def add_ineq(self, terms: Mapping[str, Mapping[int, float]], rhs: float) -> "AppConstraints":
        self._check(terms)
        self.ineq_rows.append((dict(terms), float(rhs)))
        return self

    def _check(self, terms):
        for block in terms:
            if block not in self.BLOCKS:
                raise ValueError(f"unknown app-constraint block {block!r}")

    # convenience builders -------------------------------------------------

    def fix_injection(self, grid: Grid, node: int, value: float) -> "AppConstraints":
        return self.add_eq({"p_g": {grid.node_index(node): 1.0}}, value)

    def bound_injection(
        self, grid: Grid, node: int, lo: float | None = None, hi: float | None = None
    ) -> "AppConstraints":
        k = grid.node_index(node)
        if hi is not None:
            self.add_ineq({"p_g": {k: 1.0}}, hi)
        if lo is not None:
            self.add_ineq({"p_g": {k: -1.0}}, -lo)
        return self

    def fix_phi(self, values: Sequence[float]) -> "AppConstraints":
        for k, v in enumerate(values):
            self.add_eq({"phi": {k: 1.0}}, float(v))
        return self

    # materialization -------------------------------------------------------

    def structure(self) -> tuple:
        """The rows' term maps without their right-hand sides: apps of equal
        structure materialize the same matrices over one layout."""
        return tuple(
            tuple(
                tuple((block, tuple(coeffs.items())) for block, coeffs in terms.items())
                for terms, _ in rows
            )
            for rows in (self.eq_rows, self.ineq_rows)
        )

    def rhs(self) -> tuple[np.ndarray, np.ndarray]:
        """(b_eq, b_in), the right-hand sides of the equality and inequality rows."""
        b_eq = np.array([b for _, b in self.eq_rows], dtype=float)
        b_in = np.array([b for _, b in self.ineq_rows], dtype=float)
        return b_eq, b_in

    @staticmethod
    def _matrix(rows, layout: OpfLayout) -> np.ndarray:
        mat = np.zeros((len(rows), layout.n))
        for r, (terms, _) in enumerate(rows):
            for block, coeffs in terms.items():
                cols = getattr(layout, block)
                width = cols.stop - cols.start
                for k, v in coeffs.items():
                    if not 0 <= int(k) < width:
                        raise DimensionMismatch(
                            f"app constraint touches {block}[{k}], width {width}"
                        )
                    mat[r, cols.start + int(k)] += float(v)
        return mat

    def materialize(self, layout: OpfLayout):
        """(A_eq, b_eq, A_in, b_in), the rows dense over the layout's columns."""
        b_eq, b_in = self.rhs()
        return self._matrix(self.eq_rows, layout), b_eq, self._matrix(self.ineq_rows, layout), b_in


# --- power-flow constraint templates ------------------------------------------


@dataclass
class PfTemplate:
    """Per-step power-flow block shared by the OPF builders and the MPC."""

    layout: OpfLayout
    eq: np.ndarray  # dense rows over layout's columns
    eq_rhs: np.ndarray


def _make_layout(grid: Grid, pairs) -> OpfLayout:
    e0 = 2 * len(pairs) + 1
    g0 = e0 + 2 * grid.n_edges
    return OpfLayout(
        n=g0 + grid.n_nodes,
        phi=slice(0, e0),
        p_e=slice(e0, g0),
        p_g=slice(g0, g0 + grid.n_nodes),
        pairs=tuple(pairs),
        edges=tuple(grid.edges),
        nodes=tuple(grid.nodes),
    )


def _check_model(model: DataDrivenLineModel | None, n_phi: int, n_pe: int, need_pg: int | None):
    if model is None:
        raise ModelNotPE("data-driven variants need a persistently exciting model")
    if model.pe_report is None or not model.pe_report.pe:
        raise ModelNotPE("model lifted block is not certified persistently exciting")
    if model.H_phi.shape[0] != n_phi:
        raise DimensionMismatch(
            f"model lifted dimension {model.H_phi.shape[0]}, grid needs {n_phi}"
        )
    if model.H_pe.shape[0] != n_pe:
        raise DimensionMismatch(f"model has {model.H_pe.shape[0]} flow rows, grid needs {n_pe}")
    if need_pg is not None:
        if model.H_pg is None:
            raise DimensionMismatch("topology-agnostic variant needs the injection Hankel block")
        if model.H_pg.shape[0] != need_pg:
            raise DimensionMismatch(
                f"model has {model.H_pg.shape[0]} injection rows, grid needs {need_pg}"
            )


def _flow_map(grid: Grid, variant: str, model: DataDrivenLineModel | None) -> np.ndarray:
    """F of p_out = F phi: the line physics (reference) or the model's output
    map. p_out is p_e, followed by p_g for dd-generalized only."""
    if variant == "reference":
        return flow_map(grid)
    out = model.output_map()
    return out if variant == "dd-generalized" else out[: 2 * grid.n_edges]


def pf_template(
    grid: Grid,
    variant: str,
    model: DataDrivenLineModel | None = None,
) -> PfTemplate:
    """Equality rows tying [phi | p_e | p_g] together for one time step.

    Row blocks, top to bottom: p_out - F phi = 0, one row per line direction
    and, for dd-generalized, per node (see _flow_map); the nodal coupling
    p_g = M p_e (every other variant); then phi_0 = 1.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n_pe = 2 * grid.n_edges
    n_pg = grid.n_nodes
    general = variant == "dd-generalized"
    pairs = tuple(all_node_pairs(grid) if general else grid.edges)
    n_phi = 2 * len(pairs) + 1
    if variant != "reference":
        _check_model(model, n_phi, n_pe, n_pg if general else None)
    layout = _make_layout(grid, pairs)
    # p_g follows p_e in the layout, so p_out is one contiguous block
    flow = _flow_map(grid, variant, model)
    n_out = flow.shape[0]
    eq = np.zeros((n_out + (0 if general else n_pg) + 1, layout.n))
    eq[:n_out, layout.phi] = -flow
    eq[:n_out, layout.p_e.start : layout.p_e.start + n_out] = np.eye(n_out)
    if not general:
        eq[n_out:-1, layout.p_g] = np.eye(n_pg)
        eq[n_out:-1, layout.p_e] = -injection_matrix(grid)
    eq[-1, layout.phi.start] = 1.0
    rhs = np.zeros(eq.shape[0])
    rhs[-1] = 1.0
    return PfTemplate(layout, eq, rhs)


# --- program builders ----------------------------------------------------------


def _objective_vector(
    grid: Grid, layout: OpfLayout, objective: LinearObjective | None, beta: float
) -> np.ndarray:
    c = (objective or losses_objective(grid)).vector(layout)
    c[layout.cos_cols()] -= beta
    return c


def _assemble(
    grid: Grid,
    template: PfTemplate,
    app: AppConstraints | None,
    objective: LinearObjective | None,
    beta: float,
) -> tuple[ConicProgram, OpfLayout]:
    """The template's rows, then the application's, with the objective
    (losses by default) and the relaxation term -beta * cos."""
    layout = template.layout
    c = _objective_vector(grid, layout, objective, beta)
    A_eq, b_eq = template.eq, template.eq_rhs
    A_in = b_in = None
    if app is not None:
        app_eq, app_b_eq, A_in, b_in = app.materialize(layout)
        A_eq, b_eq = np.vstack([A_eq, app_eq]), np.concatenate([b_eq, app_b_eq])
    prog = ConicProgram.build(
        c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, balls=layout.ball_pairs()
    )
    return prog, layout


def build_reference_opf(
    grid: Grid,
    app: AppConstraints | None = None,
    objective: LinearObjective | None = None,
    beta: float = 1.0,
) -> tuple[ConicProgram, OpfLayout]:
    return _assemble(grid, pf_template(grid, "reference"), app, objective, beta)


def build_dd_opf(
    grid: Grid,
    model: DataDrivenLineModel,
    app: AppConstraints | None = None,
    objective: LinearObjective | None = None,
    beta: float = 1.0,
) -> tuple[ConicProgram, OpfLayout]:
    """Hankel-represented OPF, the program of both dd and dd-convex: dd, the
    circle-equality target, projects its solution afterwards (solve_opf)."""
    return _assemble(grid, pf_template(grid, "dd-convex", model), app, objective, beta)


def build_generalized_dd_opf(
    grid: Grid,
    model: DataDrivenLineModel,
    app: AppConstraints | None = None,
    objective: LinearObjective | None = None,
    beta: float = 1.0,
) -> tuple[ConicProgram, OpfLayout]:
    return _assemble(grid, pf_template(grid, "dd-generalized", model), app, objective, beta)


# --- solutions, tightness, restoration ---------------------------------------


@dataclass
class TightnessReport:
    residuals: np.ndarray  # per pair: 1 - (cos^2 + sin^2)
    max_residual: float
    tol: float
    passed: bool


def tightness_report(phi: np.ndarray) -> TightnessReport:
    """Circle residuals of the lifted vector phi = [1, cos, sin, ...]."""
    n_pairs = (phi.size - 1) // 2
    c = phi[cos_indices(n_pairs)]
    s = phi[sin_indices(n_pairs)]
    residuals = 1.0 - (c * c + s * s)
    worst = float(np.max(np.abs(residuals))) if n_pairs else 0.0
    return TightnessReport(
        residuals=residuals, max_residual=worst, tol=_TIGHT_TOL, passed=worst <= _TIGHT_TOL
    )


@dataclass
class OpfSolution:
    variant: str
    p_e: np.ndarray
    p_g: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray | None
    objective: float
    solver_objective: float
    status: str
    tightness: TightnessReport
    solve_time: float
    grid: Grid = field(repr=False, default=None)
    model: DataDrivenLineModel | None = field(repr=False, default=None)
    app: AppConstraints | None = field(repr=False, default=None)
    objective_spec: LinearObjective | None = field(repr=False, default=None)
    layout: OpfLayout | None = field(repr=False, default=None)
    raw: Solution | None = field(repr=False, default=None)
    restored: bool = False


def _recover_theta(phi: np.ndarray, n_pairs: int) -> np.ndarray:
    c = phi[cos_indices(n_pairs)]
    s = phi[sin_indices(n_pairs)]
    return np.arctan2(s, c)


def solve_opf(
    grid: Grid,
    variant: str,
    model: DataDrivenLineModel | None = None,
    app: AppConstraints | None = None,
    objective: LinearObjective | None = None,
    beta: float = 1.0,
) -> OpfSolution:
    """Build, solve, and post-process one OPF instance.

    The 'dd' variant (circle equalities) runs the relaxation and then
    projects onto the circles, re-deriving p_e and p_g. alpha is H_phi^+ phi.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    objective = objective or losses_objective(grid)
    prog, layout = _program(grid, variant, model, app, objective, beta)
    raw = solve_convex(prog, tol=_SOLVER_TOL)
    empty = np.zeros(0)
    sol = OpfSolution(
        variant=variant,
        p_e=empty,
        p_g=empty,
        theta=empty,
        phi=empty,
        alpha=None,
        objective=math.nan,
        solver_objective=raw.objective,
        status=raw.status,
        tightness=TightnessReport(np.zeros(len(layout.pairs)), math.inf, _TIGHT_TOL, False),
        solve_time=raw.solve_time,
        grid=grid,
        model=model,
        app=app,
        objective_spec=objective,
        layout=layout,
        raw=raw,
    )
    if raw.status != "optimal":
        return sol
    sol = _at_point(sol, raw.x[layout.phi], raw.x[layout.p_e], raw.x[layout.p_g])
    if variant == "dd":
        sol = restore_tightness(sol)
    return sol


@dataclass
class _CachedProgram:
    """One program of solve_opf with the structure of its inputs."""

    grid: weakref.ref  # to the grid: a program kept with its grid must not keep it alive
    app_structure: tuple | None  # AppConstraints.structure(), None without an app
    program: ConicProgram
    layout: OpfLayout
    eq_rhs: np.ndarray  # the right-hand side of the template's rows


# solve_opf's last program per variant family, by owner, for as long as the owner lives
_opf_programs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _program(
    grid: Grid,
    variant: str,
    model: DataDrivenLineModel | None,
    app: AppConstraints | None,
    objective: LinearObjective,
    beta: float,
) -> tuple[ConicProgram, OpfLayout]:
    """The program of solve_opf, built only when its structure changes.

    A program's A_eq, A_in and balls depend on the grid, the variant's
    family (dd and dd-convex pose one program), the model and the app's
    structure alone. The last program of a family is kept in _opf_programs
    with its owner, the model (data-driven variants) or the grid
    (reference); both are immutable, so it cannot go stale. A call of the
    same structure writes only c, b_eq and b_in into a copy of it, and a
    call of another structure builds and replaces it. Both give the same
    bytes. solve_convex validates the program it is given, so the copy is
    not validated here.
    """
    family = "dd-convex" if variant == "dd" else variant
    owner = grid if family == "reference" else model
    key = None if app is None else app.structure()
    # a missing model is never a key (its build raises ModelNotPE)
    entry = _opf_programs[owner].get(family) if owner in _opf_programs else None
    if entry is None or entry.grid() is not grid or entry.app_structure != key:
        if family == "reference":
            prog, layout = build_reference_opf(grid, app, objective, beta)
        elif family == "dd-convex":
            prog, layout = build_dd_opf(grid, model, app, objective, beta)
        else:
            prog, layout = build_generalized_dd_opf(grid, model, app, objective, beta)
        n_rows = prog.b_eq.size - (0 if app is None else len(app.eq_rows))
        _opf_programs.setdefault(owner, {})[family] = _CachedProgram(
            weakref.ref(grid), key, prog, layout, prog.b_eq[:n_rows].copy()
        )
        return prog, layout
    b_eq, b_in = entry.eq_rhs, np.zeros(0)
    if app is not None:
        app_b_eq, b_in = app.rhs()
        b_eq = np.concatenate([b_eq, app_b_eq])
    prog = replace(
        entry.program,
        c=_objective_vector(grid, entry.layout, objective, beta),
        b_eq=b_eq,
        b_in=b_in,
    )
    return prog, entry.layout


def _at_point(sol: OpfSolution, phi, p_e, p_g) -> OpfSolution:
    """sol at the point (phi, p_e, p_g), with its alpha, angles, objective and tightness."""
    return replace(
        sol,
        p_e=p_e,
        p_g=p_g,
        theta=_recover_theta(phi, len(sol.layout.pairs)),
        phi=phi,
        alpha=None if sol.variant == "reference" else sol.model.phi_pinv() @ phi,
        objective=sol.objective_spec.value(p_e, p_g) if sol.objective_spec else math.nan,
        tightness=tightness_report(phi),
    )


def project_onto_circles(
    variant: str, grid: Grid, model: DataDrivenLineModel | None, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project the (cos, sin) pairs of phi onto their circles: (phi, p_e, p_g).

    p_e and p_g follow from the variant's flow map, as in pf_template. A
    (0, 0) pair has no direction and maps to angle 0.
    """
    phi = phi.copy()
    n_pairs = (phi.size - 1) // 2
    ci, si = cos_indices(n_pairs), sin_indices(n_pairs)
    radius = np.hypot(phi[ci], phi[si])
    degenerate = radius < 1e-12
    if np.any(degenerate):
        logger.warning(
            "projection hit %d degenerate (0, 0) pairs; mapping them to angle 0",
            int(np.sum(degenerate)),
        )
        phi[ci[degenerate]] = 1.0
        phi[si[degenerate]] = 0.0
    ok = ~degenerate
    phi[ci[ok]] /= radius[ok]
    phi[si[ok]] /= radius[ok]
    phi[0] = 1.0

    p_out = _flow_map(grid, variant, model) @ phi
    p_e = p_out[: 2 * grid.n_edges]
    if variant == "dd-generalized":
        return phi, p_e, p_out[p_e.size :]
    return phi, p_e, injection_matrix(grid) @ p_e


def restore_tightness(sol: OpfSolution) -> OpfSolution:
    """Project the (cos, sin) pairs onto their circles and re-derive the rest.

    See project_onto_circles. Raises ProjectionInfeasible when the projected
    point violates the application constraints beyond _FEAS_TOL.
    """
    t0 = time.perf_counter()
    phi, p_e, p_g = project_onto_circles(sol.variant, sol.grid, sol.model, sol.phi)
    if sol.app is not None:
        A_eq, b_eq, A_in, b_in = sol.app.materialize(sol.layout)
        x = np.concatenate([phi, p_e, p_g])
        violation = np.max(np.concatenate([np.abs(A_eq @ x - b_eq), A_in @ x - b_in]), initial=0.0)
        if violation > _FEAS_TOL:
            raise ProjectionInfeasible(
                f"projected point violates application constraints by {violation:.3e}"
            )
    return replace(
        _at_point(sol, phi, p_e, p_g),
        solve_time=sol.solve_time + (time.perf_counter() - t0),
        restored=True,
    )


def demand_instance(
    grid: Grid,
    demands: Mapping[int, float],
    source_cap: float = 1.0,
    source_costs: Mapping[int, float] | None = None,
) -> tuple[AppConstraints, LinearObjective]:
    """Serve fixed demands from capped injections elsewhere, minimizing losses
    plus optional per-node supply costs."""
    app = AppConstraints()
    for node, value in demands.items():
        app.fix_injection(grid, node, -abs(float(value)))
    for node in grid.nodes:
        if node not in demands:
            app.bound_injection(grid, node, lo=0.0, hi=source_cap)
    c_pg = np.ones(grid.n_nodes)
    if source_costs:
        for node, cost in source_costs.items():
            c_pg[grid.node_index(node)] += float(cost)
    return app, LinearObjective(c_pg=c_pg)

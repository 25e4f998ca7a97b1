"""Command-line interface: data generation, OPF solves, MPC runs, comparisons.

Exit codes: 0 success, 2 infeasible instance, 3 numerical failure, 4 schema
or I/O error, 5 dimension mismatch, 1 other failures.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .behavior import DataDrivenLineModel, is_persistently_exciting
from .errors import DdopfError, DimensionMismatch, NumericalBreakdown, SchemaError
from .excitation import export_trajectory, generate_excitation, import_trajectory
from .grid import load_grid, validate_radial
from .microgrid import (
    WORK_COLUMNS,
    audit_closed_loop,
    compute_kpis,
    generate_profiles,
    load_config,
    load_profiles,
    read_results_csv,
    run_closed_loop,
    save_results,
    save_solve_times,
)
from .opf import VARIANTS, demand_instance, solve_opf

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3
EXIT_SCHEMA = 4
EXIT_DIMENSION = 5


def _grid_and_model(args):
    """The radial grid of --grid and, for a data-driven --variant, the --data trajectory's model."""
    grid = load_grid(args.grid)
    validate_radial(grid)
    traj = import_trajectory(args.data) if args.data else None
    if args.variant == "reference":
        return grid, None
    if traj is None:
        raise SchemaError("data-driven variants need --data with a trajectory file")
    include_pg = args.variant == "dd-generalized"
    return grid, DataDrivenLineModel.from_trajectory(traj, include_injections=include_pg)


def _check_flag(flag: str, value, ok: bool, requirement: str) -> None:
    """SchemaError naming the flag when its parsed value fails ok."""
    if not ok:
        raise SchemaError(f"--{flag} must be {requirement}, got {value}")


def cmd_generate_data(args) -> int:
    _check_flag("samples", args.samples, args.samples >= 1, "at least 1")
    _check_flag("range", args.range, 0.0 < args.range <= math.pi / 2, "in (0, pi/2]")
    _check_flag("seed", args.seed, args.seed >= 0, "nonnegative")
    grid = load_grid(args.grid)
    validate_radial(grid)
    traj = generate_excitation(
        grid, args.samples, angle_range=args.range, seed=args.seed, mode=args.mode
    )
    export_trajectory(traj, args.out)
    report = is_persistently_exciting(traj.phi, 1)
    print(
        f"PE: rank {report.rank}/{report.required_rank} "
        f"(threshold {report.threshold:.3e}, smallest kept singular value "
        f"{report.smallest_kept_singular_value:.3e})"
    )
    print(f"wrote {traj.n_samples} samples to {args.out}")
    return EXIT_OK


def _parse_demands(specs, grid):
    demands = {}
    for spec in specs:
        try:
            node, value = spec.split("=")
            node, value = int(node), float(value)
        except ValueError:
            raise SchemaError(f"demand must look like NODE=VALUE, got {spec!r}") from None
        if not math.isfinite(value):
            raise SchemaError(f"demand must be finite, got {spec!r}")
        _check_flag("demand", spec, node in grid.nodes, "at a node of the grid")
        demands[node] = value
    return demands


def cmd_solve_opf(args) -> int:
    _check_flag("cap", args.cap, math.isfinite(args.cap), "finite")
    _check_flag("beta", args.beta, math.isfinite(args.beta), "finite")
    grid, model = _grid_and_model(args)
    demands = _parse_demands(args.demand, grid) if args.demand else {grid.nodes[-1]: 0.4}
    app, objective = demand_instance(grid, demands, source_cap=args.cap)
    sol = solve_opf(grid, args.variant, model, app, objective, beta=args.beta)
    if sol.status == "infeasible":
        print("instance infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if sol.status != "optimal":
        print(f"solver did not reach optimality: {sol.status}", file=sys.stderr)
        return EXIT_NUMERICAL

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "label", "value"])
        writer.writerow(["objective", "", f"{sol.objective:.17g}"])
        writer.writerow(["solver_objective", "", f"{sol.solver_objective:.17g}"])
        writer.writerow(["tightness_max", "", f"{sol.tightness.max_residual:.17g}"])
        for (i, j), v_fwd, v_rev in zip(sol.layout.edges, sol.p_e[0::2], sol.p_e[1::2]):
            writer.writerow(["p_e", f"{i}->{j}", f"{v_fwd:.17g}"])
            writer.writerow(["p_e", f"{j}->{i}", f"{v_rev:.17g}"])
        for node, v in zip(sol.layout.nodes, sol.p_g):
            writer.writerow(["p_g", str(node), f"{v:.17g}"])
        for pair, v in zip(sol.layout.pairs, sol.theta):
            writer.writerow(["theta", f"{pair[0]}-{pair[1]}", f"{v:.17g}"])
        for k, v in enumerate(sol.phi):
            writer.writerow(["phi", str(k), f"{v:.17g}"])
        if sol.alpha is not None:
            for k, v in enumerate(sol.alpha):
                writer.writerow(["alpha", str(k), f"{v:.17g}"])
        for pair, r in zip(sol.layout.pairs, sol.tightness.residuals):
            writer.writerow(["tightness", f"{pair[0]}-{pair[1]}", f"{r:.17g}"])
    print(f"status {sol.status}; max tightness residual {sol.tightness.max_residual:.3e}")
    print(f"wrote solution to {args.out}")
    return EXIT_OK


def _profiles_seed(spec: str) -> int | None:
    """The seed of a seed:<int> --profiles value, None for a file path."""
    if not spec.startswith("seed:"):
        return None
    try:
        seed = int(spec.split(":", 1)[1])
    except ValueError:
        seed = -1
    _check_flag("profiles", spec, seed >= 0, "a profiles CSV path or seed:<nonnegative integer>")
    return seed


def cmd_run_mpc(args) -> int:
    _check_flag("steps", args.steps, args.steps >= 1, "at least 1")
    seed = _profiles_seed(args.profiles)
    config = load_config(args.config)
    grid, model = _grid_and_model(args)

    if seed is not None:
        profiles = generate_profiles(seed, args.steps + config.horizon, config)
    else:
        profiles = load_profiles(args.profiles)

    result = run_closed_loop(
        config, grid, profiles, args.variant, args.steps, model=model
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_results(result, out_dir / "results.csv")
    save_solve_times(result, out_dir / "solve_times.csv")
    l_op, l_loss = compute_kpis(result)
    with open(out_dir / "kpis.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kpi", "value"])
        writer.writerow(["mean_unit_running_cost", f"{l_op:.17g}"])
        writer.writerow(["mean_transmission_loss_cost", f"{l_loss:.17g}"])
    audit = audit_closed_loop(result, profiles)
    times = result.column("solve_time")
    print(f"completed {result.steps} steps ({args.variant})")
    print(f"mean unit running cost: {l_op:.6f}; mean loss cost: {l_loss:.6f}")
    print(f"median solve time: {np.median(times):.4f} s; audit max violation: {audit.max_violation:.2e}")
    print(f"wrote results to {out_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_flag("tol", args.tol, 0.0 <= args.tol < math.inf, "finite and nonnegative")
    runs = [read_results_csv(Path(d) / "results.csv") for d in args.runs]
    lengths = {cols["k"].size for cols in runs}
    if len(lengths) != 1:
        print(f"step counts differ across runs: {sorted(lengths)}", file=sys.stderr)
        return EXIT_DIMENSION
    # timing and solver work may differ between agreeing runs, and results
    # files written before the work columns existed lack them
    skip = ("k", "time_h", "solve_time_s", *WORK_COLUMNS)
    names = [c for c in runs[0] if c not in skip]
    worst_overall = 0.0
    failed = []
    for name in names:
        if any(name not in other for other in runs[1:]):
            print(f"column {name} missing from a run", file=sys.stderr)
            return EXIT_DIMENSION
        # np.max keeps NaN, so a non-finite deviation fails its column
        worst = float(np.max([np.abs(other[name] - runs[0][name]) for other in runs[1:]]))
        ok = worst <= args.tol
        print(f"{name:>20s}  max |dev| = {worst:.3e}  {'ok' if ok else 'FAIL'}")
        worst_overall = float(np.max([worst_overall, worst]))
        if not ok:
            failed.append(name)
    print(f"overall max deviation {worst_overall:.3e} (tolerance {args.tol:g})")
    if failed:
        print(f"columns over tolerance: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAIL
    print("PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddopf",
        description="Data-driven optimal power flow and microgrid MPC toolkit.",
        epilog=(
            "exit codes: 0 success, 2 infeasible, 3 numerical failure, "
            "4 schema/io error, 5 dimension mismatch, 1 other errors"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="synthesize a persistently exciting trajectory")
    p.add_argument("--grid", required=True, help="grid YAML file")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--range", type=float, default=0.3, help="angle range in radians")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("per-edge", "all-pairs"), default="per-edge")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("solve-opf", help="solve one optimal power flow instance")
    p.add_argument("--grid", required=True)
    p.add_argument("--data", help="trajectory CSV (data-driven variants)")
    p.add_argument("--variant", choices=VARIANTS, default="dd-convex")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument(
        "--demand",
        action="append",
        metavar="NODE=VALUE",
        help="fixed demand (repeatable); default: 0.4 pu at the highest node id",
    )
    p.add_argument("--cap", type=float, default=1.0, help="injection cap at source nodes")
    p.add_argument("--out", required=True, help="solution CSV to write")
    p.set_defaults(func=cmd_solve_opf)

    p = sub.add_parser("run-mpc", help="closed-loop microgrid simulation")
    p.add_argument("--config", required=True, help="microgrid YAML file")
    p.add_argument("--grid", required=True)
    p.add_argument("--data", help="trajectory CSV (data-driven variants)")
    p.add_argument(
        "--profiles", required=True, help="profiles CSV path, or seed:<int> to synthesize"
    )
    p.add_argument("--variant", choices=VARIANTS, default="dd-convex")
    p.add_argument("--steps", type=int, default=336)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run_mpc)

    p = sub.add_parser("compare", help="compare result directories column by column")
    p.add_argument("--runs", nargs="+", required=True, help="two or more run directories")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except NumericalBreakdown as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DdopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

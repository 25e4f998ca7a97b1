"""Per-layer metrics of the traced run, and the package calls they come from.

Every span is recorded from the benchmark's own files, around the public
calls into a layer. Times are self seconds per op: the summed self time of
a layer's spans in the traced work divided by the number of ops, so the
layer times of one workload add up to its mean op latency. Counts are totals
over the traced work, which is fixed per seed so that they repeat exactly.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import defaultdict

from ddopf import conic, ipm, microgrid, mip, opf

from tracer import Tracer

VARIANTS = opf.VARIANTS

# name, unit, better; README.md maps each to the end-to-end metric and
# workloads it should move
LAYER_METRICS = (
    ("ipm.solve_convex.calls", "count", "lower"),
    ("ipm.solve_convex.self_s", "s", "lower"),
    ("ipm.iters_per_solve", "count", "lower"),
    ("ipm.standard_form.s", "s", "lower"),
    ("ipm.kkt_init.s", "s", "lower"),
    ("ipm.kkt_factor.calls", "count", "lower"),
    ("ipm.kkt_factor.s", "s", "lower"),
    ("ipm.kkt_solve.calls", "count", "lower"),
    ("ipm.kkt_solve.s", "s", "lower"),
    ("ipm.max_step.s", "s", "lower"),
    ("ipm.nt_scaling.s", "s", "lower"),
    ("ipm.kkt_dim.mean", "rows", "lower"),
    ("ipm.dense_share", "ratio", "higher"),
    ("ipm.inexact_share", "ratio", "lower"),
    ("conic.fix_variables.s", "s", "lower"),
    ("mip.solve_mixed_binary.self_s", "s", "lower"),
    ("mip.nodes_per_call", "count", "lower"),
    ("mip.distinct_node_ratio", "ratio", "higher"),
    ("mip.hint_hit_ratio", "ratio", "higher"),
    ("opf.pf_template.s", "s", "lower"),
    ("opf.build.s", "s", "lower"),
    ("opf.restore_tightness.s", "s", "lower"),
    ("microgrid.build_mpc_step.s", "s", "lower"),
    ("microgrid.loop_self_s", "s", "lower"),
    *((f"microgrid.step_p50_s.{v}", "s", "lower") for v in VARIANTS),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _solve_attrs(args, kwargs, sol):
    attrs = {"iters": sol.iterations}
    if sol.status == "tolerance_not_met":
        # mip accepts some of these by rewriting sol.status; read it at the end
        attrs["inexact"] = sol
    return attrs


def _kkt_attrs(args, kwargs, result):
    return {"dim": args[0].dim, "dense": args[0].dense}


def _fix_attrs(args, kwargs, result):
    fixed = args[1] if len(args) > 1 else kwargs["fixed"]
    return {"prog": args[0], "fixed": tuple(sorted((int(k), float(v)) for k, v in fixed.items()))}


def _mip_attrs(args, kwargs, sol):
    hint = kwargs.get("incumbent_hint")
    return {
        "nodes": sol.node_count or 0,
        "hint": None if hint is None else tuple(float(round(v)) for v in hint),
        "assign": sol.binary_values,
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced call where its caller looks it up."""
    for module in (mip, opf):
        tracer.wrap(module, "solve_convex", "ipm.solve_convex", _solve_attrs)
    tracer.wrap(ipm, "standard_form", "ipm.standard_form")
    tracer.wrap(ipm.KktSolver, "__init__", "ipm.kkt_init", _kkt_attrs)
    tracer.wrap(ipm.KktSolver, "factor", "ipm.kkt_factor")
    tracer.wrap(ipm.KktSolver, "solve", "ipm.kkt_solve")
    tracer.wrap(ipm, "max_step", "ipm.max_step")
    tracer.wrap(ipm.NTScaling, "__init__", "ipm.nt_scaling")
    tracer.wrap(conic.ConicProgram, "fix_variables", "conic.fix_variables", _fix_attrs)
    for module in (microgrid, mip):
        tracer.wrap(module, "solve_mixed_binary", "mip.solve_mixed_binary", _mip_attrs)
    for module in (microgrid, opf):
        tracer.wrap(module, "pf_template", "opf.pf_template")
    for builder in ("build_reference_opf", "build_dd_opf", "build_generalized_dd_opf"):
        tracer.wrap(opf, builder, "opf.build")
    tracer.wrap(opf, "restore_tightness", "opf.restore_tightness")
    tracer.wrap(microgrid, "build_mpc_step", "microgrid.build_mpc_step")
    tracer.wrap(microgrid, "run_closed_loop", "microgrid.run_closed_loop")


def _program_key(prog: conic.ConicProgram) -> str:
    h = hashlib.sha1()
    for arr in (
        prog.c, prog.A_eq.data, prog.A_eq.indices, prog.A_eq.indptr, prog.b_eq,
        prog.A_in.data, prog.A_in.indices, prog.A_in.indptr, prog.b_in, prog.lb, prog.ub,
    ):
        h.update(arr.tobytes())
    h.update(repr(prog.balls).encode())
    return h.hexdigest()


def solve_spans(tracer: Tracer) -> int:
    return sum(1 for name in tracer.names if name == "ipm.solve_convex")


def compute(
    tracer: Tracer, ops: int, step_latencies: dict[str, list[float]], overhead_frac: float
) -> dict[str, float]:
    """Every metric of LAYER_METRICS, from the spans of the traced work.

    A layer the workload never calls reads 0.
    """
    spans = defaultdict(list)
    for idx, name in enumerate(tracer.names):
        spans[name].append(idx)
    self_t = tracer.self_times()

    def per_op(name):
        return sum(self_t[i] for i in spans[name]) / ops

    def share(hits, base):
        return hits / base if base else 0.0

    solves = spans["ipm.solve_convex"]
    kkts = [tracer.attrs[i] for i in spans["ipm.kkt_init"]]
    mips = [tracer.attrs[i] for i in spans["mip.solve_mixed_binary"]]
    fixes = [tracer.attrs[i] for i in spans["conic.fix_variables"]]
    keys: dict[int, str] = {}  # the spans keep each program alive, so ids stay unique
    for a in fixes:
        if id(a["prog"]) not in keys:
            keys[id(a["prog"])] = _program_key(a["prog"])
    distinct = {(keys[id(a["prog"])], a["fixed"]) for a in fixes}
    hinted = [a for a in mips if a["hint"] is not None]
    accepted = sum(
        1
        for i in solves
        if "inexact" in tracer.attrs[i] and tracer.attrs[i]["inexact"].status == "optimal"
    )

    out = {
        "ipm.solve_convex.calls": len(solves),
        "ipm.solve_convex.self_s": per_op("ipm.solve_convex"),
        "ipm.iters_per_solve": share(sum(tracer.attrs[i]["iters"] for i in solves), len(solves)),
        "ipm.standard_form.s": per_op("ipm.standard_form"),
        "ipm.kkt_init.s": per_op("ipm.kkt_init"),
        "ipm.kkt_factor.calls": len(spans["ipm.kkt_factor"]),
        "ipm.kkt_factor.s": per_op("ipm.kkt_factor"),
        "ipm.kkt_solve.calls": len(spans["ipm.kkt_solve"]),
        "ipm.kkt_solve.s": per_op("ipm.kkt_solve"),
        "ipm.max_step.s": per_op("ipm.max_step"),
        "ipm.nt_scaling.s": per_op("ipm.nt_scaling"),
        "ipm.kkt_dim.mean": share(sum(a["dim"] for a in kkts), len(kkts)),
        "ipm.dense_share": share(sum(1 for a in kkts if a["dense"]), len(kkts)),
        "ipm.inexact_share": share(accepted, len(solves)),
        "conic.fix_variables.s": per_op("conic.fix_variables"),
        "mip.solve_mixed_binary.self_s": per_op("mip.solve_mixed_binary"),
        "mip.nodes_per_call": share(sum(a["nodes"] for a in mips), len(mips)),
        "mip.distinct_node_ratio": share(len(distinct), len(fixes)),
        "mip.hint_hit_ratio": share(sum(1 for a in hinted if a["assign"] == a["hint"]), len(hinted)),
        "opf.pf_template.s": per_op("opf.pf_template"),
        "opf.build.s": per_op("opf.build"),
        "opf.restore_tightness.s": per_op("opf.restore_tightness"),
        "microgrid.build_mpc_step.s": per_op("microgrid.build_mpc_step"),
        "microgrid.loop_self_s": per_op("microgrid.run_closed_loop"),
    }
    for v in VARIANTS:
        lat = step_latencies.get(v)
        out[f"microgrid.step_p50_s.{v}"] = statistics.median(lat) if lat else 0.0
    out["trace.ops"] = ops
    out["trace.overhead_frac"] = overhead_frac
    return out

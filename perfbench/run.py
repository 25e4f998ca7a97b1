"""ddopf benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mpc-loop --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the workload runs untraced for --seconds of busy time (in the
normalized seconds of hostclock.py) and the result holds the end-to-end
metrics. With --trace 1 a fixed, seed-determined amount of work runs under
the outside-in tracer (so its counts repeat exactly) and the result holds
the per-layer metrics; the spans are written to .bench_out/. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; earlier lines start with '#'.
`failed` counts ops that raised, returned a non-optimal status or failed a
correctness gate; `correct` is false, and the exit code 1, when an output
failed a gate or the trace self-check failed. Exit code 2: the package
cannot be imported from this checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
WALL_CAP = 1.2  # most busy wall time of a timed run, in --seconds


def pin_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_package():
    """Import ddopf from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ddopf
    except ImportError as exc:
        print(f"cannot import ddopf from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(ddopf.__file__).resolve().parent.parent != src:
        print(f"ddopf resolved to {ddopf.__file__}, not to {src}", file=sys.stderr)
        sys.exit(2)


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order
    statistics around the middle. mpc-loop's step latencies form clusters by
    B&B node count, and the plain sample median jumps between them as the
    share of 3-node steps moves across one half; this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc  # loaded by ddopf already, unlike scipy.stats

    n = len(values)
    a = (n + 1) / 2
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(np.dot(weights, np.sort(values)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(work, tracer, clock, seconds: float, setup_s: float):
    """Untraced units until their package calls were busy for `seconds`.

    Times are normalized seconds of the host clock (hostclock.py), so a seed
    runs the same units whatever the host's speed, unless busy wall time
    reaches WALL_CAP * `seconds` first; the wall times are printed on '#'
    lines.
    """
    timed = []
    busy = busy_norm = 0.0
    clock.probe()
    while busy_norm < seconds and busy < WALL_CAP * seconds:
        with tracer.paused():
            unit = work.unit(len(timed))
        timed.append(work.run(unit, tracer, clock))
        clock.tick()
        busy += sum(clock.seconds(a, b, normalized=False) for a, b in timed[-1].busy)
        busy_norm += sum(clock.seconds(a, b) for a, b in timed[-1].busy)
    clock.probe()
    spans = [(a, b) for r in timed for _, a, b in r.ops]
    latencies = [clock.seconds(a, b) for a, b in spans]
    wall = [clock.seconds(a, b, normalized=False) for a, b in spans]
    busy_norm = sum(clock.seconds(a, b) for r in timed for a, b in r.busy)  # with the last probe
    attempted = sum(r.attempted for r in timed)
    failed = sum(r.failed for r in timed)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (hd_median(latencies), "s"),
        "ops_per_s": ((attempted - failed) / busy_norm, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    probes = clock.probe_s()
    print(f"# {work.name}: {len(timed)} units, {len(latencies)} ops; busy {busy_norm:.2f} s "
          f"normalized, {busy:.2f} s wall")
    print(f"# host probe: {len(probes)} samples, median {statistics.median(probes):.6g} s, "
          f"quartiles {' '.join(f'{q:.6g}' for q in statistics.quantiles(probes, n=4))} s, "
          f"reference {clock.REFERENCE_S} s")
    print(f"# sample median op latency = {statistics.median(latencies):.6g} s")
    print(f"# wall: op_p50_s = {hd_median(wall):.6g} s, "
          f"ops_per_s = {(attempted - failed) / busy:.6g} 1/s")
    # printed, not in the result: too noisy for a bound, or 0 (README.md)
    print(f"# op_tail_s = {tail_s:.6g} s, p{tail_pct:.2f} of {len(latencies)} samples, "
          f"{beyond} beyond it")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return metrics, timed, True


def run_traced(work, tracer, clock, layers, out_dir: Path, seed: int):
    """The fixed traced work of the workload, plus the overhead reference.

    Times are wall seconds: `clock` is disabled and does not probe.
    """
    layers.install(tracer)
    with tracer.paused():
        work_units = [work.unit(i) for i in range(work.TRACE_UNITS)]
    # overhead: the first quarter of the units (at least two) also run
    # untraced, in alternating order so that drift of the host's speed cancels
    n_reference = max(2, len(work_units) // 4)
    reference, traced = [], []
    for i, unit in enumerate(work_units):
        if i < n_reference and i % 2 == 0:
            reference.append(work.run(unit, tracer, clock))
        tracer.enabled = True
        traced.append(work.run(unit, tracer, clock))
        tracer.enabled = False
        if i < n_reference and i % 2 == 1:
            reference.append(work.run(unit, tracer, clock))
    tracer.close()

    def busy_s(results):
        return sum(b - a for r in results for a, b in r.busy)

    overhead = busy_s(traced[: len(reference)]) / busy_s(reference) - 1.0
    ops = [op for r in traced for op in r.ops]
    by_tag: dict[str, list[float]] = {}
    for tag, a, b in ops:
        by_tag.setdefault(tag, []).append(b - a)
    values = layers.compute(tracer, len(ops), by_tag, overhead)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.LAYER_METRICS}

    spans = layers.solve_spans(tracer)
    expected = sum(r.expected_solves for r in traced)
    print(f"# trace: {len(tracer)} spans; solve_convex spans {spans}, solves reported "
          f"by the package {expected}: {'ok' if spans == expected else 'MISMATCH'}")
    print(f"# trace overhead: {overhead:+.1%} over the first {len(reference)} units, "
          "traced vs untraced")
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"trace-{work.name}-{seed}.jsonl")
    return metrics, reference + traced, spans == expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = pin_threads()
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostclock
    import layers
    import workloads
    from tracer import Tracer

    imported = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    print("# env " + json.dumps(environment(nproc), sort_keys=True))

    # set-up: fit models, make inputs, one untimed warm-up pass; median of
    # repeats, each bracketed by host probes, plus the one-off imports
    tracer = Tracer(enabled=False)
    clock = hostclock.HostClock()
    for _ in range(IMPORT_PROBES):
        clock.probe()
    # the imports ran before any probe: scale them by the median of the probes
    # right after, as one probe sample alone varies by 15% or more
    import_s = (imported - T_START) * clock.REFERENCE_S / statistics.median(clock.probe_s())
    setups, results = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work = workloads.WORKLOADS[args.workload](args.seed)
        work.setup()
        results.append(work.run(work.warmup_unit(), tracer, clock))
        setups.append(clock.seconds(t0, time.perf_counter()))
        clock.probe()
    setup_s = import_s + statistics.median(setups)
    print(f"# setup: imports {import_s:.6g} s, set-ups {' '.join(f'{x:.6g}' for x in setups)} s")

    if args.trace:
        clock.enabled = False
        metrics, ran, span_ok = run_traced(
            work, tracer, clock, layers, ROOT / ".bench_out", args.seed
        )
    else:
        metrics, ran, span_ok = run_timed(work, tracer, clock, args.seconds, setup_s)
    results += ran

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    wrong = sum(r.wrong for r in results)
    if failed:
        print(f"# {failed} failed ops, {wrong} of them with wrong outputs")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    correct = wrong == 0 and span_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark: exact counts and metric names.

    python3 perfbench/check_counts.py [--seed N]

For every workload it runs the traced benchmark twice with the same seed and
asserts that the exact counts repeat, that both runs pass their correctness
gates (the solve_convex span count among them), and that the metrics printed
in both modes are the ones BENCHMARK.json lists. Exit code 0 when all hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = (
    "ipm.solve_convex.calls",
    "ipm.iters_per_solve",
    "ipm.kkt_factor.calls",
    "ipm.kkt_solve.calls",
    "mip.nodes_per_call",
    "mip.distinct_node_ratio",
    "mip.hint_hit_ratio",
    "trace.ops",
)


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, args.seed, 0, 2)
        if sorted(untraced["metrics"]) != sorted(end_to_end):
            problems.append(f"{workload}: untraced metrics differ from BENCHMARK.json")
        first, second = (run(workload, args.seed, 1, 2)["metrics"] for _ in range(2))
        if sorted(first) != sorted(per_layer):
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json")
        for name in EXACT:
            a, b = first[name]["value"], second[name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:14s} {name:28s} {a!r:>22} {b!r:>22} {status}")
            if a != b:
                problems.append(f"{workload}: {name} {a!r} != {b!r}")
    for problem in problems:
        print("FAIL", problem)
    print("all checks passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload, untraced and traced, and record the results.

    python3 bench/record.py

Runs bench/run.py for each workload with --trace 0 and --trace 1, with
seed 1 and BENCHMARK.json's run_seconds, prints every metric with its
unit and each workload's fail_frac, and writes bench/results/<git
rev>.json with the machine, the Python version, the git revision and,
per workload, the end-to-end metrics, the per-layer metrics and the
share of traced time each module took.  Run it from a git checkout.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from workloads import JOBS

BENCH = Path(__file__).resolve().parent
SEED = 1


def run(workload: str, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.splitlines()[-1])


def module_shares(metrics: dict) -> dict[str, float]:
    """Share of the traced span time spent in each module's own code."""
    total = metrics["trace.span_s"]["value"]
    shares: dict[str, float] = defaultdict(float)
    for name, metric in metrics.items():
        if metric["unit"] == "s" and not name.startswith("trace."):
            shares[name.split(".")[0]] += metric["value"] / total if total else 0.0
    return dict(shares)


def main() -> int:
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH, capture_output=True,
                         text=True, check=True).stdout.strip()
    record = {
        "git_rev": rev,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in JOBS:
        untraced = run(workload, seconds, 0)
        traced = run(workload, seconds, 1)
        record["workloads"][workload] = {
            "end_to_end": untraced["metrics"],
            "fail_frac": untraced["failed"] / untraced["attempted"],
            "attempted": untraced["attempted"],
            "per_layer": traced["metrics"],
            "traced_fail_frac": traced["failed"] / traced["attempted"],
            "module_share_of_traced_time": module_shares(traced["metrics"]),
        }
    path = BENCH / "results" / f"{rev[:12]}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

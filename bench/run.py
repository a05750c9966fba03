"""The splitstat benchmark.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; splitstat is used from its src/
directory, so there is nothing to build.  Workloads (see workloads.py
and bench/README.md):

  tables   cold CLI jobs on the table route, one fresh process each
  census   cold CLI verify/irreducibles jobs over prime and extension fields
  session  a warm library process answering 348 queries

With --trace 0 the run repeats passes for --seconds and reports the
end-to-end metrics.  With --trace 1 it alternates untraced passes with
traced ones (bench/job.py, bench/session.py with spans) and reports
per-layer self times, work counters, cache counters and the tracing
overhead; spans go to bench/out/ as JSON lines.  Every output is checked
(check.py); the last line of stdout is one JSON object with "correct",
"attempted", "failed" and "metrics".

Times are medians over the run's passes, in seconds of a reference host
(hostspeed.py): on the 2-core virtual machine this was written on, other
tenants changed the speed of every process by a fifth or more for tens of
seconds at a time, so raw times of one run differed from the next by more
than any useful bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

import hostspeed
from check import check, check_census_counts, fields
from tracing import CACHED, SPAN_NAMES, self_times
from workloads import JOBS, parse_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PYTHON = sys.executable
# A process still running after this long, or past the run's deadline, is
# killed and counted as failed, so that a run always ends within 180 s.
TIMEOUT_S = 120
RUN_LIMIT_S = 160
DEADLINE: float | None = None  # set by main()

# Every process is bracketed by calibrations run in this process, and its
# times are scaled to the reference host (hostspeed.py).
SCALER = hostspeed.Scaler()
SCALES: list[float] = []  # every process's scale, for the report


@dataclass
class Proc:
    wall: float  # scaled to the reference host, as is cpu
    cpu: float
    scale: float  # the factor for wall times
    rss_mb: float
    rc: int
    out: str
    err: str


def spawn(args: list[str], stdin: str = "") -> Proc:
    """Run a Python process to completion; time it, read its rusage and
    scale both to the reference host."""
    SCALER.start()
    # Bytecode caches are always written and used, as for an installed
    # package, so that timings do not depend on PYTHONDONTWRITEBYTECODE.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    limit = TIMEOUT_S if DEADLINE is None else max(0.0, min(TIMEOUT_S, DEADLINE - perf_counter()))
    start = perf_counter()
    proc = subprocess.Popen(
        [PYTHON, *args], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    scale, cpu_scale = SCALER.scale()
    SCALES.append(scale)
    return Proc(wall * scale, (usage.ru_utime + usage.ru_stime) * cpu_scale, scale,
                usage.ru_maxrss / 1024, proc.returncode, out, err)


def failure(proc: Proc) -> str:
    return f"exit {proc.rc}: {proc.err.strip()[-300:]}"


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_metrics(seconds: list[float]) -> dict:
    """p50 and p95 over every request latency of the run."""
    latencies = [1000 * t for t in seconds]
    return {"query_p50_ms": statistics.median(latencies), "query_p95_ms": percentile(latencies, 95)}


def cli_payload(job: str, rc: int, out: str, err: str) -> tuple[dict | None, list[str]]:
    """A CLI job's JSON payload and everything wrong with it."""
    if rc != 0:
        return None, [f"exit {rc}: {err.strip()[-300:]}"]
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    return payload, check(job, payload, REFS)


def import_time() -> float:
    proc = spawn(["-c", "import splitstat.cli"])
    if proc.rc != 0:
        sys.exit(f"import splitstat.cli failed: {failure(proc)}")
    return proc.wall


def cli_pass(jobs: list[str], tally: Tally, setup_samples: list | None = None) -> tuple[list[Proc], dict]:
    """Run each job once; when asked, time one bare import after each job."""
    procs, payloads = [], {}
    for job in jobs:
        proc = spawn(["-m", "splitstat.cli", *job.split(), "--json"])
        if setup_samples is not None:
            setup_samples.append(import_time())
        payloads[job], problems = cli_payload(job, proc.rc, proc.out, proc.err)
        tally.add(job, problems)
        procs.append(proc)
    return procs, payloads


def run_cli(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Passes over the jobs for `seconds`, with set-up samples in between."""
    jobs = JOBS[name](seed)
    import_time()  # the first import writes bytecode caches; not counted
    setup_samples: list[float] = []
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(cli_pass(jobs, tally, setup_samples)[0])
    return {
        "wall_s": statistics.median(sum(p.wall for p in procs) for procs in passes),
        "cpu_s": statistics.median(sum(p.cpu for p in procs) for procs in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(p.rss_mb for procs in passes for p in procs),
        **latency_metrics([p.wall for procs in passes for p in procs]),
    }


def session_pass(queries: list[str], tally: Tally, trace: bool = False) -> tuple[Proc, dict | None]:
    """One fresh session process (set up, answer the queries once), checked."""
    spec = {"queries": queries, "calibration": SCALER.start(),
            "launched": clock_gettime(CLOCK_MONOTONIC), "trace": trace}
    proc = spawn([str(BENCH / "session.py")], json.dumps(spec))
    try:
        result = json.loads(proc.out) if proc.rc == 0 else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        tally.add("session worker", [failure(proc)])
        return proc, None
    for job, payload in zip(queries, result["payloads"]):
        tally.add(job, check(job, payload, REFS))
    return proc, result


def run_session(seed: int, seconds: float, tally: Tally) -> dict:
    """Fresh session processes one after another for `seconds`, at least
    three; each gives one set-up sample and one pass."""
    queries = JOBS["session"](seed)
    import_time()  # the first import writes bytecode caches; not counted
    procs, results = [], []
    start = perf_counter()
    while len(results) < 3 or perf_counter() - start < seconds:
        proc, result = session_pass(queries, tally)
        if result is None:
            sys.exit(f"the session process failed: {failure(proc)}")
        procs.append(proc)
        results.append(result)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(p.rss_mb for p in procs),
        **latency_metrics([t for r in results for t in r["latency_s"]]),
    }


# ---------------------------------------------------------------- tracing


def traced_cli_pass(jobs: list[str], untraced: dict, tally: Tally, spans_out: list) -> dict:
    """One pass of traced jobs: wall time, self times and counters."""
    wall, times, counters = 0.0, defaultdict(float), defaultdict(int)
    for job in jobs:
        proc = spawn([str(BENCH / "job.py"), *job.split()])
        wall += proc.wall
        try:
            result = json.loads(proc.out)
        except json.JSONDecodeError:
            tally.add(f"traced {job}", [failure(proc)])
            continue
        payload, problems = cli_payload(job, result["rc"], result["stdout"], proc.err)
        problems += check_census_counts(job, result["counters"])
        if comparable(job, payload) != comparable(job, untraced[job]):
            problems.append("traced output differs from the untraced output")
        tally.add(f"traced {job}", problems)
        spans_out.append((job, result["spans"]))
        for name, seconds in self_times(result["spans"]).items():
            times[name] += seconds * proc.scale
        for key, value in result["counters"].items():
            counters[key] += value
    return {"wall": wall, "times": times, "counters": counters}


def comparable(job: str, payload: dict | None):
    if payload is None or parse_job(job)[0] in ("verify", "irreducibles"):
        return payload
    return fields(job, payload)


def traced_session_pass(queries: list[str], tally: Tally, spans_out: list) -> dict:
    proc, result = session_pass(queries, tally, trace=True)
    if result is None:
        return {"wall": proc.wall, "times": {}, "counters": {}}
    spans_out.append(("session", result["spans"]))
    times = {name: seconds * proc.scale for name, seconds in self_times(result["spans"]).items()}
    return {"wall": proc.wall, "times": times, "counters": result["counters"]}


COUNTERS = ("partitions.count", "gf.polys_enumerated", "gf.sieve_candidates", "gf.irreducibles_found") + tuple(
    f"cache.{fn}.{kind}" for _, fn in CACHED for kind in ("hits", "misses", "size")
)


def run_traced(name: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, list]:
    """Alternate untraced and traced passes for `seconds`; per-layer times
    are medians over traced passes, counters those of the last one."""
    jobs = JOBS[name](seed)
    spans_out: list = []
    untraced_walls, traced = [], []
    import_time()  # the first import writes bytecode caches; not counted
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        if name == "session":
            untraced_walls.append(session_pass(jobs, tally)[0].wall)
            traced.append(traced_session_pass(jobs, tally, spans_out))
        else:
            procs, payloads = cli_pass(jobs, tally)
            untraced_walls.append(sum(p.wall for p in procs))
            traced.append(traced_cli_pass(jobs, payloads, tally, spans_out))

    metrics = {
        f"{span}.self_s" if span == "cli.main" else f"{span}.s":
            statistics.median(t["times"].get(span, 0.0) for t in traced)
        for span in SPAN_NAMES
    }
    counters = traced[-1]["counters"]
    for key in COUNTERS:
        metrics[key] = counters.get(key, 0)
    candidates = counters.get("gf.sieve_candidates", 0)
    metrics["gf.sieve_yield"] = counters.get("gf.irreducibles_found", 0) / candidates if candidates else 0.0
    metrics["gf.threads2_speedup"] = 0.0
    for job in jobs:
        if "--threads" in job:
            proc = spawn([str(BENCH / "job.py"), "--speedup", *job.split()])
            tally.add(f"speedup {job}", [] if proc.rc == 0 else [failure(proc)])
            if proc.rc == 0:
                metrics["gf.threads2_speedup"] = json.loads(proc.out)["speedup"]
    metrics["trace.wall_s"] = statistics.median(t["wall"] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    metrics["trace.span_s"] = statistics.median(sum(t["times"].values()) for t in traced)
    return metrics, spans_out


def write_spans(name: str, seed: int, spans_out: list) -> Path:
    """Write every span as one JSON line; job ids are "<n>:<job>"."""
    path = BENCH / "out" / f"trace-{name}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for n, (job, spans) in enumerate(spans_out):
            for i, (span, start, end, parent, arg) in enumerate(spans):
                fh.write(json.dumps({"job": f"{n}:{job}", "id": i, "name": span, "start": start,
                                     "end": end, "parent": parent, "arg": arg}) + "\n")
    return path


def main() -> int:
    global DEADLINE
    parser = argparse.ArgumentParser(description="Run one workload of the splitstat benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "splitstat" / "__init__.py").is_file():
        print(f"no splitstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    DEADLINE = perf_counter() + RUN_LIMIT_S

    tally = Tally()
    if args.trace:
        metrics, spans_out = run_traced(args.workload, args.seed, args.seconds, tally)
        print(f"spans: {write_spans(args.workload, args.seed, spans_out).relative_to(ROOT)}")
    elif args.workload == "session":
        metrics = run_session(args.seed, args.seconds, tally)
    else:
        metrics = run_cli(args.workload, args.seed, args.seconds, tally)

    # Exactly the metrics BENCHMARK.json lists for this mode, with its units.
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}; times in reference-host seconds, "
          f"the host ran at {statistics.median(SCALES):.3f}x the reference speed (median over processes)")
    for name, metric in report.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_frac':<40} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report,
    }))
    return 0


REFS = json.loads((BENCH / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

if __name__ == "__main__":
    sys.exit(main())

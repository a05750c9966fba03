"""A warm splitstat library session: set up once, then answer queries.

Reads one JSON object from stdin:
    {"queries": [...], "calibration": <the parent's last calibration
     time>, "launched": <CLOCK_MONOTONIC when the parent started this
     process>, "trace": false}
Set-up builds the psi and phi tables for d = 1..16 (and with them both
splitting measures) and the irreducible characters of every degree the
decompose queries use.  The worker then answers the query list once,
timing each query, and prints one JSON object: the set-up time from
launch, the pass's wall and CPU time, each query's latency and payload
and, when tracing, the spans and counters.

Every time is scaled to the reference host (hostspeed.py): start-up and
imports by the parent's calibration before launch and this process's
first one, then each set-up step and each chunk of CHUNK queries by the
calibrations before and after it.

Queries are CLI command lines (see workloads.py) answered by library
calls, so their payloads have the fields of the CLI's JSON output.
Needs splitstat on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter, process_time

import splitstat as ss
import splitstat.cli as cli

import hostspeed
from tracing import Tracer
from workloads import SESSION_DECOMPOSE_DEGREES, SESSION_TABLE_DEGREE, parse_job

# About half a second of queries between calibrations.
CHUNK = 29


def build_tables(degrees) -> None:
    for d in degrees:
        ss.psi_table(d)
        ss.phi_table(d)


def build_characters() -> None:
    for d in SESSION_DECOMPOSE_DEGREES:
        for shape in ss.partitions_of(d):
            ss.irreducible_character(shape)


# Set-up in steps of at most about half a second.
SETUP_STEPS = (
    [partial(build_tables, range(1, 14))]
    + [partial(build_tables, [d]) for d in range(14, SESSION_TABLE_DEGREE + 1)]
    + [build_characters]
)


def answer(job: str):
    """Run one query; the result is turned into a payload by `payload`."""
    command, opts = parse_job(job)
    if command == "limit":
        return ss.stable_limit(ss.builtin_polynomial(opts["stat"]), int(opts["order"]))
    d = int(opts["d"])
    P = cli.resolve_stat(opts["stat"], d)
    if command == "expect":
        return ss.expected(d, P, name=opts["stat"])
    if command == "sf-expect":
        return ss.expected_sf(d, P, normalization=ss.NORM_SF_COUNT, name=opts["stat"])
    if command == "decompose":
        return ss.decompose(P)
    raise ValueError(f"the session does not answer {command!r}")


def payload(job: str, result) -> dict:
    command, _ = parse_job(job)
    if command == "decompose":
        return {"components": {shape.label(): ss.format_rational(c) for shape, c in result.items()}}
    if command == "limit":
        return {"coeffs": [ss.format_rational(c) for c in result.coeffs]}
    return {"coeffs": result.value.json_coeffs()}


def run(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    scaler = hostspeed.Scaler(tuple(spec["calibration"]))
    setup_s = (clock_gettime(CLOCK_MONOTONIC) - spec["launched"]) * scaler.scale()[0]
    for step in SETUP_STEPS:
        start = perf_counter()
        step()
        setup_s += (perf_counter() - start) * scaler.scale()[0]
    out: dict = {"setup_s": setup_s, "wall_s": 0.0, "cpu_s": 0.0}
    queries = spec["queries"]
    latencies, results = [], []
    for first in range(0, len(queries), CHUNK):
        chunk = []
        wall, cpu = perf_counter(), process_time()
        for job in queries[first:first + CHUNK]:
            t = perf_counter()
            try:
                results.append(answer(job))
            except Exception as exc:  # a failed query is counted, the pass goes on
                results.append(exc)
            chunk.append(perf_counter() - t)
        wall, cpu = perf_counter() - wall, process_time() - cpu
        scale, cpu_scale = scaler.scale()
        out["wall_s"] += wall * scale
        out["cpu_s"] += cpu * cpu_scale
        latencies += [t * scale for t in chunk]
    out["latency_s"] = latencies
    out["payloads"] = [
        {"error": repr(r)} if isinstance(r, Exception) else payload(job, r)
        for job, r in zip(queries, results)
    ]
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters()
    return out


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)

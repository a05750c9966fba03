"""Run one splitstat CLI job in this process with layer spans.

    python bench/job.py expect --d 22 --stat Q
    python bench/job.py --speedup verify --d 13 --q 2 --threads 2 --stat Q

Prints one JSON object: the exit code, the CLI's captured stdout, the
spans and the work counters.  Needs splitstat on PYTHONPATH.

Finite-field jobs first build their field bottom-up, each step in its own
span: make_field, then irreducibles (the sieve), then type_counts (the
enumeration).  The field caches both, so the CLI, handed the same field,
then spends only the census sum.  The sieve and the enumeration are
private to gf; warming the field is how they are timed apart from
outside.  All other layers nest inside cli.main.

With --speedup, times type_counts on fresh fields at one thread and at
the job's thread count, twice in alternating order, and prints the
ratio of the summed times.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

import splitstat.cli as cli
from splitstat import gf

from tracing import Tracer
from workloads import parse_job, parse_q


def warm_field(command: str, opts: dict, counters: dict):
    p, n = parse_q(opts["q"])
    field = gf.make_field(p, n)
    q = field.q
    degree = int(opts["max_degree"]) if command == "irreducibles" else int(opts["d"]) // 2
    found = gf.irreducibles(field, degree)
    counters["gf.sieve_candidates"] = sum(q**j for j in range(1, degree + 1))
    counters["gf.irreducibles_found"] = sum(len(polys) for polys in found.values())
    if command == "verify":
        d = int(opts["d"])
        gf.type_counts(field, d, threads=int(opts.get("threads", 1)))
        counters["gf.polys_enumerated"] = q**d
    return field


def traced(job: str) -> dict:
    tracer = Tracer()
    tracer.install()
    command, opts = parse_job(job)
    counters: dict = {}
    field = None
    if command in ("verify", "irreducibles"):
        field = warm_field(command, opts, counters)
        cli.make_field = tracer.wrap("gf.make_field", lambda p, n=1: field)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), tracer.span("cli.main"):
        rc = cli.main(job.split() + ["--json"])
    counters.update(tracer.counters())
    if command == "verify":
        type_counts, d = tracer.originals["type_counts"], int(opts["d"])
        counters["hist_total"] = sum(type_counts(field, d).values())
        counters["hist_sf_total"] = sum(type_counts(field, d, squarefree_only=True).values())
    return {"rc": rc, "stdout": out.getvalue(), "spans": tracer.spans, "counters": counters}


def speedup(job: str) -> dict:
    _, opts = parse_job(job)
    p, n = parse_q(opts["q"])
    d, threads = int(opts["d"]), int(opts["threads"])
    seconds = {1: 0.0, threads: 0.0}
    for count in (1, threads, threads, 1):
        field = gf.make_field(p, n)
        gf.irreducibles(field, d // 2)
        start = perf_counter()
        gf.type_counts(field, d, threads=count)
        seconds[count] += perf_counter() - start
    return {"threads": threads, "seconds": seconds[1] / 2, "seconds_threaded": seconds[threads] / 2,
            "speedup": seconds[1] / seconds[threads]}


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[0] == "--speedup":
        result = speedup(" ".join(args[1:]))
    else:
        result = traced(" ".join(args))
    json.dump(result, sys.stdout)

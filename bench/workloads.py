"""Seeded job and query lists for the three benchmark workloads.

Every job is written as a splitstat CLI command line without `--json`,
e.g. "expect --d 22 --stat Q".  The CLI workloads run it as a command;
the session workload runs the same line as library calls, so one
reference file and one checker serve all three.

The seed picks statistics only.  Sizes are fixed, and every pool below
holds statistics of the same cost class, so that runs on different seeds
do the same amount of work.
"""

from __future__ import annotations

import random
from math import comb

# Each statistic with its value on the identity class [1^d], where x1 = d
# and every other xj = 0.  E_d(P) at q = 1 equals that value.
BUILTINS = {
    "one": lambda d: 1,
    "sgn": lambda d: 1,
    "ET": lambda d: 1,
    "R": lambda d: d,
    "Q": lambda d: comb(d, 2),
}
EXPRESSIONS = {
    "x1*x2": lambda d: 0,
    "x1^2-x2": lambda d: d * d,
    "x2": lambda d: 0,
    "x1*x3": lambda d: 0,
    "(x1-1)*x1/2": lambda d: comb(d, 2),
    "x1^3": lambda d: d**3,
}
# Statistics for the CLI jobs: dense built-ins and expressions.
CLI_STATS = ("Q", "R", "ET", "sgn", "x1*x2", "x1^2-x2")
# Two-part expressions whose limits to order 12 all need E_d for
# d = 1..17, so every choice costs the same.
LIMIT_STATS = ("x1*x2", "2*x1*x2", "x1*x2-x2", "(x1-1)*x2", "x1*x2+x1")

SESSION_DEGREES = range(4, 17)
SESSION_DECOMPOSE_DEGREES = (8, 10, 12, 14)
# Highest degree the session's warm-up builds tables for; stable_limit
# walks d = 1, 2, ... so the warm-up starts at 1.
SESSION_TABLE_DEGREE = 16


def indicators(d: int) -> tuple[str, ...]:
    """The indicator statistics the session draws from at degree d."""
    shapes = ([d], [1] * d, [d - 1, 1], [2] + [1] * (d - 2))
    return tuple("ind:[" + ",".join(map(str, s)) + "]" for s in shapes)


def at_identity(stat: str, d: int) -> int:
    """Value of a pool statistic on the identity class [1^d]."""
    if stat.startswith("ind:"):
        return 1 if stat == indicators(d)[1] else 0
    if stat in BUILTINS:
        return BUILTINS[stat](d)
    return EXPRESSIONS[stat](d)


def parse_job(job: str) -> tuple[str, dict[str, str]]:
    """Split "expect --d 22 --stat Q" into ("expect", {"d": "22", "stat": "Q"})."""
    command, *rest = job.split()
    if len(rest) % 2:
        raise ValueError(f"odd number of option tokens in {job!r}")
    opts = {}
    for flag, value in zip(rest[::2], rest[1::2]):
        if not flag.startswith("--"):
            raise ValueError(f"expected an option, got {flag!r} in {job!r}")
        opts[flag[2:].replace("-", "_")] = value
    return command, opts


def parse_q(text: str) -> tuple[int, int]:
    """Split a field size "p" or "p^n" into (p, n)."""
    p, _, n = text.partition("^")
    return int(p), int(n or 1)


def tables_jobs(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        f"expect --d 22 --stat {rng.choice(CLI_STATS)}",
        f"sf-expect --d 20 --stat {rng.choice(CLI_STATS)} --normalization sfcount",
        "psi --d 20",
        "phi --d 20",
        f"decompose --d 14 --stat {rng.choice(CLI_STATS)}",
        f"limit --stat {rng.choice(LIMIT_STATS)} --order 12",
    ]


def census_jobs(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        f"verify --d 8 --q 3 --stat {rng.choice(CLI_STATS)}",
        f"verify --d 6 --q 2^2 --stat {rng.choice(CLI_STATS)}",
        f"verify --d 4 --q 3^2 --stat {rng.choice(CLI_STATS)}",
        f"verify --d 13 --q 2 --threads 2 --stat {rng.choice(CLI_STATS)}",
        "irreducibles --q 5 --max-degree 6",
    ]


def session_queries(seed: int) -> list[str]:
    """348 queries, shuffled: for each d and each of expect/sf-expect, every
    built-in and expression and two of the four indicators; two
    decompositions at each of four degrees; the limit of Q to order 9
    twice.  Every seed asks for the same mix of costs."""
    rng = random.Random(seed)
    queries = []
    for d in SESSION_DEGREES:
        for head, tail in (("expect", ""), ("sf-expect", " --normalization sfcount")):
            stats = sorted(BUILTINS) + sorted(EXPRESSIONS) + rng.sample(indicators(d), 2)
            queries += [f"{head} --d {d} --stat {s}{tail}" for s in stats]
    for d in SESSION_DECOMPOSE_DEGREES:
        queries += [f"decompose --d {d} --stat {s}" for s in rng.sample(CLI_STATS, 2)]
    queries += ["limit --stat Q --order 9"] * 2
    rng.shuffle(queries)
    return queries


def reference_jobs() -> list[str]:
    """Every job or query any seed can produce whose payload is compared
    with a recorded reference (psi/phi tables by digest)."""
    jobs = [f"expect --d 22 --stat {s}" for s in CLI_STATS]
    jobs += [f"sf-expect --d 20 --stat {s} --normalization sfcount" for s in CLI_STATS]
    jobs += ["psi --d 20", "phi --d 20"]
    jobs += [f"decompose --d 14 --stat {s}" for s in CLI_STATS]
    jobs += [f"limit --stat {s} --order 12" for s in LIMIT_STATS]
    # verify compares its census values with these u-polynomials at 1/q.
    for d in (8, 6, 4, 13):
        jobs += [f"expect --d {d} --stat {s}" for s in CLI_STATS]
        jobs += [f"sf-expect --d {d} --stat {s}" for s in CLI_STATS]
    for d in SESSION_DEGREES:
        stats = sorted(BUILTINS) + sorted(EXPRESSIONS) + list(indicators(d))
        jobs += [f"expect --d {d} --stat {s}" for s in stats]
        jobs += [f"sf-expect --d {d} --stat {s} --normalization sfcount" for s in stats]
    for d in SESSION_DECOMPOSE_DEGREES:
        jobs += [f"decompose --d {d} --stat {s}" for s in CLI_STATS]
    jobs.append("limit --stat Q --order 9")
    return list(dict.fromkeys(jobs))


JOBS = {"tables": tables_jobs, "census": census_jobs, "session": session_queries}

"""Output checks for benchmark jobs, independent of the code under test.

Where the paper gives a closed form, the check recomputes it here with
integer and Fraction arithmetic:
  * E_d(R) = sum_{k<d} u^k and E_d(sgn) = u^floor(d/2);
  * E_d(P) at q = 1 equals P on the identity class (C(d,2) for Q);
  * psi rows sum to the regular character, and the identity column of
    psi and phi holds the Betti numbers prod_{j<d} (1 + j t);
  * census values equal the recorded u-polynomial evaluated at 1/q;
  * census histogram totals equal q^d (q^d - q^(d-1) squarefree);
  * irreducible counts equal the Moebius sum (1/n) sum_{e|n} mu(e) q^(n/e).
Everything else is compared, field by field, with the mathematical
payload recorded at the seed commit in reference.json.  Labels such as
`checks` and `route` are not compared: they describe how the value was
computed, not the value.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial

from workloads import at_identity, parse_job, parse_q


def fields(job: str, payload: dict) -> dict:
    """The mathematical content of a job's JSON payload."""
    command, _ = parse_job(job)
    if command in ("expect", "sf-expect", "limit"):
        return {"coeffs": payload["coeffs"]}
    if command == "decompose":
        return {"components": payload["components"]}
    if command in ("psi", "phi"):
        text = json.dumps(payload, sort_keys=True).encode()
        return {"sha256": hashlib.sha256(text).hexdigest()}
    raise ValueError(f"no reference payload for {job!r}")


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def irreducible_count(q: int, n: int) -> int:
    return sum(_mobius(e) * q ** (n // e) for e in range(1, n + 1) if n % e == 0) // n


def betti(d: int) -> list[int]:
    """Coefficients of prod_{j=1}^{d-1} (1 + j t)."""
    coeffs = [1]
    for j in range(1, d):
        coeffs = [a + j * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def at_u(coeffs: list[str], q: int) -> Fraction:
    u = Fraction(1, q)
    return sum((Fraction(c) * u**k for k, c in enumerate(coeffs)), Fraction(0))


def _check_expect(opts: dict, payload: dict) -> list[str]:
    d, stat = int(opts["d"]), opts["stat"]
    coeffs = [Fraction(c) for c in payload["coeffs"]]
    problems = []
    if sum(coeffs) != at_identity(stat, d):
        problems.append(f"E_{d}({stat}) at q=1 is {sum(coeffs)}, not {at_identity(stat, d)}")
    closed = {"R": [1] * d, "sgn": [0] * (d // 2) + [1]}.get(stat)
    if closed is not None and coeffs != closed:
        problems.append(f"E_{d}({stat}) is not the closed form {closed}")
    return problems


def _check_table(command: str, opts: dict, payload: dict) -> list[str]:
    d = int(opts["d"])
    identity = "[" + ",".join(["1"] * d) + "]"
    rows = [payload[str(k)] for k in range(d)]
    problems = []
    if [row[identity] for row in rows] != betti(d):
        problems.append(f"{command} identity column is not the Betti numbers")
    if command == "psi":
        for label in rows[0]:
            total = sum(row[label] for row in rows)
            if total != (factorial(d) if label == identity else 0):
                problems.append(f"psi rows do not sum to the regular character at {label}")
                break
    return problems


def _check_verify(opts: dict, payload: dict, refs: dict) -> list[str]:
    d, stat = opts["d"], opts["stat"]
    p, n = parse_q(opts["q"])
    q = p**n
    problems = [] if payload["q"] == q else [f"q is {payload['q']}, not {q}"]
    for label, ref_job in (("all", f"expect --d {d} --stat {stat}"),
                           ("squarefree", f"sf-expect --d {d} --stat {stat}")):
        row = payload["results"][label]
        if ref_job not in refs:
            problems.append(f"no reference for {ref_job!r}")
            continue
        want = at_u(refs[ref_job]["coeffs"], q)
        if Fraction(row["census"]) != want or Fraction(row["formula"]) != want:
            problems.append(f"{label}: census {row['census']}, formula {row['formula']}, expected {want}")
        if row["match"] is not True:
            problems.append(f"{label}: match flag is not true")
    if payload["ok"] is not True:
        problems.append("ok flag is not true")
    return problems


def _check_irreducibles(opts: dict, payload: dict) -> list[str]:
    p, n = parse_q(opts["q"])
    q, top = p**n, int(opts["max_degree"])
    want = {str(k): irreducible_count(q, k) for k in range(1, top + 1)}
    problems = [] if payload["counts"] == want else [f"counts {payload['counts']} != {want}"]
    if payload["count_polynomial_match"] is not True:
        problems.append("count_polynomial_match is not true")
    return problems


def check(job: str, payload: dict, refs: dict) -> list[str]:
    """Every way the payload of `job` is wrong; empty when it is right."""
    command, opts = parse_job(job)
    try:
        if command == "verify":
            return _check_verify(opts, payload, refs)
        if command == "irreducibles":
            return _check_irreducibles(opts, payload)
        problems = []
        if job not in refs:
            problems.append("no reference recorded")
        elif fields(job, payload) != refs[job]:
            problems.append("payload differs from the reference")
        if command == "expect":
            problems += _check_expect(opts, payload)
        elif command in ("psi", "phi"):
            problems += _check_table(command, opts, payload)
        return problems
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed payload: {exc!r}"]


def check_census_counts(job: str, counters: dict) -> list[str]:
    """Histogram totals that a traced census job read from type_counts."""
    _, opts = parse_job(job)
    if "hist_total" not in counters:
        return []
    d = int(opts["d"])
    p, n = parse_q(opts["q"])
    q = p**n
    problems = []
    if counters["hist_total"] != q**d:
        problems.append(f"type histogram totals {counters['hist_total']}, not q^d = {q**d}")
    sf_want = q**d - q ** (d - 1) if d >= 2 else q
    if counters["hist_sf_total"] != sf_want:
        problems.append(f"squarefree histogram totals {counters['hist_sf_total']}, not {sf_want}")
    return problems

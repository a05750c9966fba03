"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json

import pytest

import run
from check import check, fields
from workloads import JOBS, parse_job, reference_jobs


def test_corrupted_coefficient_is_caught():
    job = "expect --d 22 --stat Q"
    payload = {"coeffs": list(run.REFS[job]["coeffs"])}
    assert check(job, payload, run.REFS) == []
    payload["coeffs"][3] = str(int(payload["coeffs"][3]) + 1)
    assert check(job, payload, run.REFS)


def test_closed_forms_catch_errors_without_a_reference():
    good = {"coeffs": ["1", "1", "1", "1", "1"]}
    assert check("expect --d 5 --stat R", good, {}) == ["no reference recorded"]
    bad = {"coeffs": ["1", "1", "1", "1", "2"]}
    assert len(check("expect --d 5 --stat R", bad, {})) == 3


def test_wrong_census_and_irreducible_counts_are_caught():
    refs = run.REFS
    verify = json.loads(run.spawn(["-m", "splitstat.cli", "verify", "--d", "4", "--q", "3^2",
                                   "--stat", "Q", "--json"]).out)
    assert check("verify --d 4 --q 3^2 --stat Q", verify, refs) == []
    verify["results"]["squarefree"]["census"] = "0"
    assert check("verify --d 4 --q 3^2 --stat Q", verify, refs)
    counts = {"q": 5, "counts": {"1": 5, "2": 10, "3": 40}, "count_polynomial_match": True}
    assert check("irreducibles --q 5 --max-degree 3", counts, refs) == []
    counts["counts"]["3"] = 41
    assert check("irreducibles --q 5 --max-degree 3", counts, refs)


def test_same_seed_gives_same_lists():
    for make in JOBS.values():
        assert make(7) == make(7)
    assert JOBS["session"](7) != JOBS["session"](8)


def test_every_seeded_job_has_a_reference():
    wanted = set(reference_jobs())
    for seed in range(40):
        for make in JOBS.values():
            for job in make(seed):
                command, opts = parse_job(job)
                if command == "verify":
                    assert f"expect --d {opts['d']} --stat {opts['stat']}" in wanted
                elif command != "irreducibles":
                    assert job in wanted
    assert wanted == set(run.REFS)


@pytest.mark.parametrize("job", ["expect --d 9 --stat Q", "psi --d 7",
                                 "verify --d 4 --q 2^2 --stat R", "irreducibles --q 3 --max-degree 4"])
def test_traced_output_equals_untraced(job):
    untraced = run.spawn(["-m", "splitstat.cli", *job.split(), "--json"])
    traced = json.loads(run.spawn([str(run.BENCH / "job.py"), *job.split()]).out)
    assert untraced.rc == traced["rc"] == 0
    assert traced["stdout"] == untraced.out
    names = {span[0] for span in traced["spans"]}
    assert "cli.main" in names
    if job.startswith(("verify", "irreducibles")):
        assert {"gf.make_field", "gf.irreducibles"} <= names


def test_traced_session_answers_equal_untraced():
    queries = JOBS["session"](3)[:40]
    tally = run.Tally()
    _, untraced = run.session_pass(queries, tally)
    _, traced = run.session_pass(queries, tally, trace=True)
    assert (tally.attempted, tally.failed) == (80, 0)
    assert traced["payloads"] == untraced["payloads"]
    assert traced["counters"]["cache.psi_table.size"] == 16
    assert {"expect.expected", "lie_chars.psi_table"} <= {s[0] for s in traced["spans"]}
    assert 0 < untraced["setup_s"] < 60


def test_reference_fields_ignore_labels():
    payload = {"d": 3, "stat": "Q", "coeffs": ["1", "1"], "route": "x", "checks": ["y"]}
    assert fields("expect --d 3 --stat Q", payload) == {"coeffs": ["1", "1"]}

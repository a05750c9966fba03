"""Command-line interface: output schemas, exit codes, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import char_table_json, char_table_text, measure_json, measure_text
from splitstat import cli, measures
from splitstat.cli import main
from splitstat.exact import Q_VAR, UPoly
from splitstat.gf import FqPoly, make_field, type_counts

ROOT = Path(__file__).resolve().parent.parent

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_expect_json_golden_row(capsys):
    got = run_json(capsys, "expect", "--d", "3", "--stat", "Q", "--json")
    assert got["coeffs"] == ["0", "2", "1"]
    assert got["d"] == 3
    assert got["stat"] == "Q"
    assert got["route"] == "series"
    assert got["checks"] == []


def test_expect_text_mirrors_table_layout(capsys):
    code, out, _ = run(capsys, "expect", "--d", "3", "--stat", "Q")
    assert code == 0
    assert "3 | 2/q + 1/q^2" in out


def test_psi_json_example(capsys):
    got = run_json(capsys, "psi", "--d", "2", "--json")
    assert got == {"0": {"[2]": 1, "[1,1]": 1}, "1": {"[2]": -1, "[1,1]": 1}}


def test_phi_json(capsys):
    got = run_json(capsys, "phi", "--d", "2", "--json")
    assert got == {"0": {"[2]": 1, "[1,1]": 1}, "1": {"[2]": 1, "[1,1]": 1}}


def test_measure_json(capsys):
    got = run_json(capsys, "measure", "--d", "2", "--json")
    assert got["d"] == 2
    assert got["flavor"] == "all"
    assert got["values"] == {"[2]": ["1/2", "-1/2"], "[1,1]": ["1/2", "1/2"]}


def test_measure_squarefree_json(capsys):
    got = run_json(capsys, "measure", "--d", "2", "--sf", "--json")
    assert got["flavor"] == "squarefree"
    assert got["values"]["[1,1]"] == ["1/2", "-1/2"]


def test_verify_roots_reports_exact_value(capsys):
    code, out, err = run(capsys, "verify", "--d", "4", "--q", "3", "--stat", "R")
    assert code == 0, err
    assert "40/27" in out
    assert "MISMATCH" not in out


def test_verify_json_prime_power(capsys):
    got = run_json(capsys, "verify", "--d", "2", "--q", "2^2", "--stat", "Q", "--json")
    assert got["q"] == 4
    assert got["ok"] is True
    assert got["results"]["all"]["match"] is True
    assert got["results"]["squarefree"]["match"] is True
    assert got["results"]["all"]["census"] == got["results"]["all"]["formula"]


@pytest.mark.parametrize("argv", [
    ("verify", "--d", "3", "--stat", "Q"),
    ("verify", "--d", "3", "--stat", "Q", "--json"),
    ("irreducibles", "--max-degree", "2", "--list"),
    ("irreducibles", "--max-degree", "2", "--list", "--json"),
], ids=["verify", "verify-json", "irreducibles", "irreducibles-json"])
def test_q_as_a_prime_power_names_the_same_field(capsys, argv):
    for plain, power in (("4", "2^2"), ("9", "3^2"), ("4^2", "2^4")):
        assert run(capsys, *argv, "--q", plain) == run(capsys, *argv, "--q", power)
    assert run(capsys, *argv, "--q", "4")[0] == 0


def test_verify_threads_do_not_change_output(capsys):
    outs = set()
    for threads in ("1", "3"):
        code, out, _ = run(
            capsys, "verify", "--d", "3", "--q", "3", "--stat", "ET",
            "--threads", threads, "--json",
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_sf_expect_conditional_mean(capsys):
    got = run_json(
        capsys, "sf-expect", "--d", "4", "--stat", "ET",
        "--normalization", "sfcount", "--json",
    )
    assert got["coeffs"] == ["1/2"]
    assert got["normalization"] == "sf_count"


def test_sf_expect_default_normalization(capsys):
    got = run_json(capsys, "sf-expect", "--d", "2", "--stat", "R", "--json")
    assert got["coeffs"] == ["1", "-1"]
    assert got["normalization"] == "q_power"


def test_sf_expect_degree_one_conditional_mean_is_one(capsys):
    code, out, err = run(
        capsys, "sf-expect", "--d", "1", "--stat", "one", "--normalization", "sfcount"
    )
    assert code == 0, err
    assert out == "  1 | 1\n"
    got = run_json(
        capsys, "sf-expect", "--d", "1", "--stat", "one",
        "--normalization", "sfcount", "--json",
    )
    assert got["coeffs"] == ["1"]
    assert got["checks"] == ["exact_division"]
    assert "truncated_at" not in got


def test_sf_expect_checks_name_only_what_ran(capsys):
    got = run_json(capsys, "sf-expect", "--d", "3", "--stat", "R", "--json")
    assert got["checks"] == []


def test_sf_expect_order_flag_is_gone(capsys):
    code, _, err = run(
        capsys, "sf-expect", "--d", "1", "--stat", "one",
        "--normalization", "sfcount", "--order", "3",
    )
    assert code == 2
    assert "--order" in err


def test_decompose_roots(capsys):
    got = run_json(capsys, "decompose", "--d", "4", "--stat", "R", "--json")
    assert got["components"] == {"[4]": "1", "[3,1]": "1"}


def test_decompose_even_type(capsys):
    got = run_json(capsys, "decompose", "--d", "4", "--stat", "ET", "--json")
    assert got["components"] == {"[4]": "1/2", "[1,1,1,1]": "1/2"}


def test_limit_quadratic_excess(capsys):
    got = run_json(capsys, "limit", "--stat", "Q", "--order", "4", "--json")
    assert got["coeffs"] == ["0", "2", "2", "4", "4"]
    assert set(got["stabilized_at"]) == {"0", "1", "2", "3", "4"}


def test_limit_accepts_expressions(capsys):
    got = run_json(
        capsys, "limit", "--stat", "x1*(x1-1)/2 - x2", "--order", "3", "--json"
    )
    assert got["coeffs"] == ["0", "2", "2", "4"]


def test_limit_below_weight(capsys):
    got = run_json(capsys, "limit", "--stat", "x4", "--order", "0", "--json")
    assert got["coeffs"] == ["1/4"]
    assert got["stabilized_at"] == {"0": 4}
    code, out, _ = run(capsys, "limit", "--stat", "x4", "--order", "0")
    assert code == 0
    assert "k=0: 1/4  (stable from d=4)" in out


def test_limit_high_order(capsys):
    got = run_json(capsys, "limit", "--stat", "Q", "--order", "40", "--json")
    assert got["coeffs"][39:] == ["40", "40"]


def test_irreducibles_counts(capsys):
    got = run_json(capsys, "irreducibles", "--q", "2", "--max-degree", "4", "--json")
    assert got["counts"] == {"1": 2, "2": 1, "3": 2, "4": 3}
    assert got["count_polynomial_match"] is True


def test_irreducibles_listing(capsys):
    got = run_json(
        capsys, "irreducibles", "--q", "2", "--max-degree", "2", "--list", "--json"
    )
    assert got["polys"]["2"] == [[1, 1, 1]]


def test_stat_indicator(capsys):
    got = run_json(capsys, "expect", "--d", "2", "--stat", "ind:[2]", "--json")
    assert got["coeffs"] == ["1/2", "-1/2"]


def test_stat_expression(capsys):
    got = run_json(capsys, "expect", "--d", "3", "--stat", "x1^2", "--json")
    # x1^2 = 2*C(x1,2) + x1: expected value is computable and exact
    assert got["d"] == 3


def test_stat_from_json_file(capsys, tmp_path):
    table = tmp_path / "stat.json"
    table.write_text(json.dumps({"[2]": "1", "[1,1]": "0"}))
    got = run_json(capsys, "expect", "--d", "2", "--stat", f"@{table}", "--json")
    assert got["coeffs"] == ["1/2", "-1/2"]


def test_stat_file_must_hold_an_object(capsys, tmp_path):
    table = tmp_path / "stat.json"
    table.write_text(json.dumps([1, 2]))
    code, _, err = run(capsys, "expect", "--d", "2", "--stat", f"@{table}")
    assert code == 2
    assert err.startswith("error:")
    assert "JSON object" in err


def test_stat_file_numbers_are_read_exactly(capsys, tmp_path):
    # a JSON number is read from its source text, not through a float
    # (which would round 0.30000000000000001 to 3/10)
    got = []
    for values in (
        '{"[2]": 0.30000000000000001, "[1,1]": -15e-4}',
        '{"[2]": "30000000000000001/100000000000000000", "[1,1]": "-3/2000"}',
    ):
        table = tmp_path / "stat.json"
        table.write_text(values)
        got.append(run_json(capsys, "expect", "--d", "2", "--stat", f"@{table}", "--json"))
    assert got[0]["coeffs"] == got[1]["coeffs"] == [
        "29850000000000001/200000000000000000",
        "-30150000000000001/200000000000000000",
    ]


def test_stat_file_zero_denominator_is_usage_error(capsys, tmp_path):
    table = tmp_path / "stat.json"
    table.write_text(json.dumps({"[2]": "1/0"}))
    code, _, err = run(capsys, "expect", "--d", "2", "--stat", f"@{table}")
    assert code == 2
    assert err.startswith("error:")
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "text", ['{"[2]": "1", "[ 2 ]": "5", "[1,1]": "0"}', '{"[2]": "1", "[1,1]": "0", "[2]": "5"}'],
    ids=["two-spellings", "one-key-twice"],
)
def test_stat_file_naming_a_type_twice_is_usage_error(capsys, tmp_path, text):
    # neither value may silently win
    table = tmp_path / "stat.json"
    table.write_text(text)
    code, out, err = run(capsys, "expect", "--d", "2", "--stat", f"@{table}")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "names the type [2] twice" in err


def test_unknown_statistic_is_usage_error(capsys):
    code, _, err = run(capsys, "expect", "--d", "3", "--stat", "bogus stat !")
    assert code == 2
    assert "error" in err.lower()


def test_indicator_size_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "expect", "--d", "3", "--stat", "ind:[2]")
    assert code == 2
    assert "size" in err


def test_budget_exceeded_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "--d", "5", "--q", "5", "--stat", "R", "--budget", "100"
    )
    assert code == 2
    assert "budget" in err


def test_budget_checked_before_field_construction(capsys, monkeypatch):
    def no_field(p, n=1):
        raise AssertionError("make_field called before the budget check")

    monkeypatch.setattr(cli, "make_field", no_field)
    for argv in (
        ("irreducibles", "--q", "7^9", "--max-degree", "2"),
        ("verify", "--d", "2", "--q", "7^9", "--stat", "R"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "budget" in err


def test_irreducible_counts_do_not_build_polynomials(capsys, monkeypatch):
    def no_poly(self, *args, **kwargs):
        raise AssertionError("FqPoly built without --list")

    monkeypatch.setattr(FqPoly, "__init__", no_poly)
    code, out, err = run(capsys, "irreducibles", "--q", "2", "--max-degree", "4")
    assert code == 0, err
    assert "degree 4: 3" in out


def test_only_the_printed_output_is_formatted(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("formatted output that is not printed")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "format_inverse_powers", refuse)
        for argv in (("measure", "--d", "6"), ("expect", "--d", "6", "--stat", "Q")):
            code, out, err = run(capsys, *argv, "--json")
            assert code == 0, err
            assert json.loads(out)["d"] == 6
    with monkeypatch.context() as patch:
        patch.setattr(UPoly, "json_coeffs", refuse)
        for argv in (("measure", "--d", "6"), ("expect", "--d", "6", "--stat", "Q")):
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert "q" in out.splitlines()[-1]


@pytest.mark.parametrize("kind", ["psi", "phi"])
def test_char_tables_stream_their_reference_output(capsys, kind):
    for d in range(1, 13):
        code, out, err = run(capsys, kind, "--d", str(d), "--json")
        assert code == 0, err
        assert out == json.dumps(char_table_json(kind, d), indent=2) + "\n"
        code, out, err = run(capsys, kind, "--d", str(d))
        assert code == 0, err
        assert out.splitlines() == char_table_text(kind, d)


@pytest.mark.parametrize("flags", [(), ("--sf",)], ids=["all", "squarefree"])
def test_measures_stream_their_reference_output(capsys, flags):
    squarefree = bool(flags)
    for d in range(1, 13):
        code, out, err = run(capsys, "measure", *flags, "--d", str(d), "--json")
        assert code == 0, err
        assert out == json.dumps(measure_json(d, squarefree), indent=2) + "\n"
        code, out, err = run(capsys, "measure", *flags, "--d", str(d))
        assert code == 0, err
        assert out.splitlines() == measure_text(d, squarefree)


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("argv", [
    ("phi", "--d", "23", "--json"),
    ("psi", "--d", "23"),
    ("measure", "--d", "23", "--json"),
    ("measure", "--sf", "--d", "23", "--json"),
], ids=" ".join)
def test_tables_print_in_memory_of_one_row(argv):
    # rows and partitions built first; then only the writing is traced
    with contextlib.redirect_stdout(_Discard()):
        assert main(list(argv)) == 0
        tracemalloc.start()
        try:
            assert main(list(argv)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


def test_the_measure_is_read_by_columns_with_no_rows_built(monkeypatch, capsys):
    # `measure` and the splitting-measure views read the packed columns
    # straight out; no d rows are built and transposed back
    def forbidden(*args, **kwargs):
        raise AssertionError("the measure is read by columns, not through measure_rows")

    want = {sf: (measure_json(12, sf), measure_text(12, sf)) for sf in (False, True)}
    views = {False: measures.splitting_measure, True: measures.sf_splitting_measure}
    monkeypatch.setattr(measures, "measure_rows", forbidden)
    monkeypatch.setattr(cli, "measure_rows", forbidden, raising=False)
    for sf, (payload, lines) in want.items():
        flags = ("--sf",) * sf
        assert run_json(capsys, "measure", *flags, "--d", "12", "--json") == payload
        code, out, err = run(capsys, "measure", *flags, "--d", "12")
        assert code == 0, err
        assert out.splitlines() == lines
        assert views[sf].__wrapped__(12) == views[sf](12)


def _cold_traced_peak(*argv: str) -> int:
    # tracemalloc's peak over one command in a fresh process, stdout discarded
    code = (
        "import sys, tracemalloc; from splitstat.cli import main; "
        "tracemalloc.start(); status = main(sys.argv[1:]); "
        "print(tracemalloc.get_traced_memory()[1], status, file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=60,
    )
    peak, status = map(int, done.stderr.split())
    assert done.returncode == status == 0
    return peak


def test_phi_holds_one_copy_of_its_rows():
    # phi is the squarefree rows signed in place, not a signed copy beside
    # them: built cold, it peaks where psi does (a copy of the odd rows
    # costs about 6% at d = 23)
    phi = _cold_traced_peak("phi", "--d", "23", "--json")
    psi = _cold_traced_peak("psi", "--d", "23", "--json")
    assert phi <= psi * 1.03


@pytest.mark.parametrize("argv", [
    (command, *flags, "--d", d, *json_flag)
    for command, flags in (("psi", ()), ("phi", ()), ("measure", ()), ("measure", ("--sf",)))
    for d in ("0", "-3", "24", "1000000000")
    for json_flag in ((), ("--json",))
], ids=" ".join)
@pytest.mark.usefixtures("partitions_of_refused_past_the_cap")
def test_table_refusals_print_nothing(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("expect", "--d", "3"),
    ("sf-expect", "--d", "3"),
    ("sf-expect", "--d", "3", "--normalization", "sfcount"),
    ("decompose", "--d", "3"),
    ("limit", "--order", "3"),
    ("verify", "--d", "3", "--q", "3"),
], ids=["expect", "sf-expect", "sf-expect-sfcount", "decompose", "limit", "verify"])
def test_stat_value_may_start_with_a_minus(capsys, argv):
    attached = run(capsys, *argv, "--stat=-x1+3")
    assert attached[0] == 0, attached[2]
    assert run(capsys, *argv, "--stat", "-x1+3") == attached
    assert run(capsys, *argv, "--stat", "-x1+3", "--json") == run(
        capsys, *argv, "--stat=-x1+3", "--json"
    )


def test_the_longest_series_terms_the_budget_admits(capsys):
    # x1^142 at d = 286 has binomial terms of up to 142 parts, the longest
    # LIMIT_BUDGET admits there (x1^143 is refused); the answer is pinned
    # by its digest.  test_measures checks that the walk takes no frame
    # per part.
    code, out, err = run(capsys, "expect", "--d", "286", "--stat", "x1^142", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cfe610a696667e95eb20754db733ba6a224e101709ef3db9a22cae38bdceb7bc"
    )


def test_negative_stat_expected_value(capsys):
    code, out, err = run(capsys, "expect", "--d", "3", "--stat", "-x1+3")
    assert (code, out, err) == (0, "  3 | 2 - 1/q - 1/q^2\n", "")


def test_verify_reports_broken_unique_factorization(capsys, monkeypatch):
    field = make_field(3)
    field._irr[1] = (0, 0, 1, 2)  # x listed twice: x + c has sieve index c
    monkeypatch.setattr(cli, "make_field", lambda p, n=1: field)
    code, _, err = run(capsys, "verify", "--d", "2", "--q", "3", "--stat", "R")
    assert code == 1
    assert "internal consistency failure" in err


@pytest.mark.parametrize(
    "q, n, d",
    [("11", 1, 4), ("2^2", 2, 2), ("17^2", 2, 2)],
    ids=["F_11 d=4", "F_4 tables", "F_289 tables built by the walk"],
)
def test_verify_reports_broken_unique_factorization_on_tuple_kernels(capsys, monkeypatch, q, n, d):
    field = make_field(int(q.split("^")[0]), n)
    type_counts(field, d - 1)  # the lower degrees, sieved correctly
    field._irr[1] = (0,) + tuple(field._irr[1])  # x listed twice
    monkeypatch.setattr(cli, "make_field", lambda p, n=1: field)
    code, _, err = run(capsys, "verify", "--d", str(d), "--q", q, "--stat", "R")
    assert code == 1
    assert "internal consistency failure" in err


def test_verify_exits_1_when_census_and_formula_disagree(capsys, monkeypatch):
    real = cli.census
    monkeypatch.setattr(cli, "census", lambda *args, **kw: real(*args, **kw) + Fraction(1, 9))
    argv = ("verify", "--d", "2", "--q", "3", "--stat", "R")
    code, out, err = run(capsys, *argv, "--json")
    got = json.loads(out)
    assert code == 1 and got["ok"] is False
    assert [got["results"][label]["match"] for label in ("all", "squarefree")] == [False, False]
    assert err == "verification failed: census and formula disagree\n"
    code, out, err = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert all(line.endswith(": MISMATCH") for line in lines[1:])
    assert err == "verification failed: census and formula disagree\n"


def test_irreducibles_exits_1_when_counts_disagree_with_the_polynomial(capsys, monkeypatch):
    # q**deg counts every monic polynomial: right at degree 1, wrong at 2
    monkeypatch.setattr(cli, "necklace", lambda deg: UPoly(Q_VAR, [0] * deg + [1]))
    argv = ("irreducibles", "--q", "3", "--max-degree", "2")
    code, out, err = run(capsys, *argv, "--json")
    assert code == 1 and json.loads(out)["count_polynomial_match"] is False
    assert err == "irreducible counts disagree with the count polynomial\n"
    code, out, err = run(capsys, *argv)
    assert code == 1 and out.endswith("  counts match the count polynomial: NO\n")
    assert err == "irreducible counts disagree with the count polynomial\n"


def test_limit_rejects_non_polynomial_statistics(capsys):
    code, _, err = run(capsys, "limit", "--stat", "sgn", "--order", "2")
    assert code == 2
    assert "character polynomial" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_bad_flag_is_usage_error(capsys):
    assert main(["expect", "--d", "not-a-number", "--stat", "Q"]) == 2
    capsys.readouterr()


def test_byte_identical_reruns(capsys):
    first = run(capsys, "psi", "--d", "4", "--json")
    second = run(capsys, "psi", "--d", "4", "--json")
    assert first == second


# Bad inputs, each with a fragment of the message it must give.
def primes_between(lo, hi):
    """The primes p with lo <= p < hi, by a sieve of the segment."""
    sieve = bytearray([1]) * (hi - lo)
    for f in range(2, isqrt(hi) + 1):
        sieve[-lo % f :: f] = bytes(len(range(-lo % f, hi - lo, f)))
    return [lo + i for i, prime in enumerate(sieve) if prime]


HUGE_PRIME = "1000000000000000000000000000057"
NINES = "9" * 4300  # an exponent n with n * d past the 4300-digit print limit

BAD_INPUTS = {
    "expect-division-by-zero": (("expect", "--d", "3", "--stat", "x1/0"), "division by zero"),
    "limit-division-by-zero": (("limit", "--stat", "x1/0", "--order", "1"), "division by zero"),
    "limit-dangling-power": (("limit", "--stat", "x1^", "--order", "1"), "unexpected end"),
    "limit-negative-order": (("limit", "--stat", "Q", "--order", "-1"), "nonnegative"),
    "limit-d-cap": (("limit", "--stat", "Q", "--order", "3", "--d-cap", "30"), "--d-cap"),
    "limit-sign": (("limit", "--stat", "sgn", "--order", "2"), "character polynomial"),
    "limit-huge-power": (("limit", "--stat", "x1^100000000", "--order", "1"), "cap of"),
    "limit-huge-order": (("limit", "--stat", "Q", "--order", "10000000"), "cap of"),
    "expect-deep-nesting": (
        ("expect", "--d", "3", "--stat", "(" * 200 + "x1" + ")" * 200),
        "deeper than 150 levels",
    ),
    "expect-power-of-sum": (
        ("expect", "--d", "3", "--stat", "(x1+x2)^2000"),
        "'(x1+x2)^2000' needs more than the cap of 200000 work units",
    ),
    "limit-power-of-sum": (
        ("limit", "--stat", "(x1+x2)^2000", "--order", "1"),
        "'(x1+x2)^2000' needs more than the cap of 200000 work units",
    ),
    "limit-huge-power-of-sum": (
        ("limit", "--stat", "(x1+x2)^100000", "--order", "1"),
        "needs more than the cap of 200000 work units",
    ),
    "expect-huge-power": (
        ("expect", "--d", "3", "--stat", "x1^100000000"),
        "values of x1^100000000 at d=3 can exceed",
    ),
    "expect-unprintable-power": (
        ("expect", "--d", "3", "--stat", "x1^10000"),
        "values of x1^10000 at d=3 can exceed",
    ),
    # the sum's lcm of denominators passes the print limit after about 480
    # of these 2000 terms, and is refused there
    "expect-sum-over-many-primes": (
        (
            "expect", "--d", "3", "--stat",
            " + ".join(f"x1/{p}" for p in primes_between(10**9, 10**9 + 50_000)[:2000]),
        ),
        "coefficients of 'x1/1000000007 + x1/1000000009 + x1/10000'... can exceed 4300 digits",
    ),
    "expect-huge-coefficient": (
        ("expect", "--d", "3", "--stat", "2^100000000"),
        "coefficients of '2^100000000' can exceed",
    ),
    "verify-degree-0": (
        ("verify", "--d", "0", "--q", "2^36", "--stat", "R"),
        "census needs degree at least 1",
    ),
    "verify-negative-degree": (
        ("verify", "--d", "-1", "--q", "2^36", "--stat", "R"),
        "census needs degree at least 1",
    ),
    "irreducibles-degree-0": (
        ("irreducibles", "--q", "2^36", "--max-degree", "0"),
        "census needs degree at least 1",
    ),
    "verify-huge-degree": (
        ("verify", "--d", "1000000", "--q", "2", "--stat", "R"),
        "census of q^d = 2^1000000 polynomials is above the budget of 10000000",
    ),
    "verify-huge-field": (
        ("verify", "--d", "1", "--q", "2^100000000", "--stat", "R"),
        "census of q^d = 2^100000000 polynomials is above the budget of 10000000",
    ),
    "irreducibles-huge-field": (
        ("irreducibles", "--q", "3^10000000", "--max-degree", "1"),
        "needs at least q^1 = 3^10000000 polynomial enumerations over F_3^10000000",
    ),
    "irreducibles-base-one": (
        ("irreducibles", "--q", "1", "--max-degree", "1000000000"),
        "1 is not prime",
    ),
    "irreducibles-base-six": (("irreducibles", "--q", "6", "--max-degree", "2"), "6 is not prime"),
    "irreducibles-composite-power": (
        ("irreducibles", "--q", "12^2", "--max-degree", "2"),
        "12 is not prime",
    ),
    "verify-base-one": (("verify", "--d", "3", "--q", "1", "--stat", "Q"), "1 is not prime"),
    "verify-base-six": (("verify", "--d", "3", "--q", "6", "--stat", "Q"), "6 is not prime"),
    "verify-composite-power": (
        ("verify", "--d", "3", "--q", "12^2", "--stat", "Q"),
        "12 is not prime",
    ),
    "verify-prime-power-to-the-0": (
        ("verify", "--d", "3", "--q", "4^0", "--stat", "Q"),
        "extension degree must be at least 1",
    ),
    "decompose-over-cap": (
        ("decompose", "--d", "22", "--stat", "Q"),
        "decompose at d=22 needs p(d)^2 (shape, class) pairs of character values, "
        "more than the cap of 150000",
    ),
    "decompose-huge-degree": (
        ("decompose", "--d", "1000000000", "--stat", "Q"),
        "more than the cap of 150000",
    ),
    "expect-huge-degree": (
        ("expect", "--d", "1000000000", "--stat", "Q"),
        "the series route for Q at d=1000000000 needs more than the cap of 5000000 work units",
    ),
    "sf-expect-over-cap": (
        ("sf-expect", "--d", "60", "--stat", "ind:[60]"),
        "the partition route at d=60 needs p(d) factorization types",
    ),
    "expect-just-over-cap": (
        ("expect", "--d", "24", "--stat", "ind:[24]"),
        "the partition route at d=24 needs p(d) factorization types",
    ),
    "psi-degree-0": (("psi", "--d", "0"), "error: splitting measures start at degree 1\n"),
    "phi-degree-0": (("phi", "--d", "0"), "error: splitting measures start at degree 1\n"),
    "phi-negative-degree": (("phi", "--d", "-3"), "error: splitting measures start at degree 1\n"),
    "psi-huge-degree": (("psi", "--d", "1000000000"), "more than the cap of 1255"),
    "phi-just-over-cap": (("phi", "--d", "24"), "more than the cap of 1255"),
    "measure-over-cap": (("measure", "--d", "200"), "more than the cap of 1255"),
    "measure-sf-over-cap": (("measure", "--sf", "--d", "25"), "more than the cap of 1255"),
    "verify-over-partition-cap": (
        ("verify", "--d", "24", "--q", "2", "--stat", "ind:[24]", "--budget", "100000000"),
        "the partition route at d=24 needs p(d) factorization types",
    ),
    "expect-table-huge-exponent": (
        ("expect", "--d", "2", "--stat", "@huge_exponent.json"),
        "'1e100000000' has an exponent beyond the print limit of 4300 digits",
    ),
    "expect-table-unprintable-exponent": (
        ("expect", "--d", "2", "--stat", "@unprintable_exponent.json"),
        "'1e5000' has an exponent beyond the print limit of 4300 digits",
    ),
    "sf-expect-table-huge-negative-exponent": (
        ("sf-expect", "--d", "2", "--stat", "@huge_negative_exponent.json"),
        "'1e-100000000' has an exponent beyond the print limit of 4300 digits",
    ),
    "expect-table-too-many-digits": (
        ("expect", "--d", "2", "--stat", "@too_many_digits.json"),
        "'7777777777777777777777777777777777777777'... has more digits than the print limit of 4300",
    ),
    # a table nested past the JSON reader's recursion, or a file longer
    # than any table within the caps, is refused naming its path
    "expect-table-deep-nesting": (
        ("expect", "--d", "2", "--stat", "@deep_nesting.json"),
        "deep_nesting.json nests JSON too deeply to read",
    ),
    "expect-table-endless-file": (
        ("expect", "--d", "2", "--stat", "@/dev/zero"),
        "/dev/zero is longer than the cap of 10793000 characters",
    ),
    # 2^10000 polynomials are within this budget: the census never starts
    "verify-over-series-cap": (
        ("verify", "--d", "10000", "--q", "2", "--stat", "x1^100", "--budget", "1" + "0" * 4000),
        "the series route for x1^100 at d=10000 needs more than the cap of 5000000 work units",
    ),
    # a long type label is quoted short; one with more than d parts is
    # refused before it is parsed
    "expect-table-long-label": (
        ("expect", "--d", "2", "--stat", "@long_label.json"),
        "type label '[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1'... is not a partition of d=2",
    ),
    "expect-indicator-long-label": (
        ("expect", "--d", "2", "--stat", "ind:[" + ",".join(["1"] * 200_000) + "]"),
        "type label '[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1'... is not a partition of d=2",
    ),
    "expect-indicator-long-part": (
        ("expect", "--d", "2", "--stat", "ind:[" + "9" * 5000 + "]"),
        f"type label '[{'9' * 39}'... is not a partition of d=2",
    ),
    # a long statistic or --q is named by its first 40 characters
    "expect-long-unprintable-sum": (
        ("expect", "--d", "3", "--stat", "x1^10000" + "+x2" * 1999),
        "values of x1^10000" + "+x2" * 10 + "+x... at d=3 can exceed 4300 digits",
    ),
    "expect-long-sum-stray-parenthesis": (
        ("expect", "--d", "3", "--stat", "+".join(["x1"] * 2000) + ")"),
        "trailing input ')' in statistic '" + "x1+" * 13 + "x'...",
    ),
    "expect-long-sum-unknown-character": (
        ("expect", "--d", "3", "--stat", "+".join(["x1"] * 1500) + "+y"),
        "unexpected character 'y' in statistic '" + "x1+" * 13 + "x'...",
    ),
    "limit-long-unknown-character": (
        ("limit", "--stat", "Q" + " " * 3000 + "x", "--order", "1"),
        "unexpected character 'Q' in statistic 'Q" + " " * 39 + "'...",
    ),
    "verify-long-base": (
        ("verify", "--d", "1", "--q", "1" + "0" * 2000, "--stat", "R"),
        "census of q^d = 1" + "0" * 39 + "...^1 polynomials is above the budget",
    ),
    "irreducibles-long-exponent": (
        ("irreducibles", "--q", "2^1" + "0" * 2000, "--max-degree", "1"),
        "needs at least q^1 = 2^1" + "0" * 39 + "... polynomial enumerations over F_2^1",
    ),
    "irreducibles-long-max-degree": (
        ("irreducibles", "--q", "2", "--max-degree", "1" + "0" * 3000),
        "sieving irreducibles to degree 1" + "0" * 39 + "... needs at least q^1" + "0" * 39 + "... = 2^",
    ),
    "verify-long-budget": (
        ("verify", "--d", "1", "--q", "2^20000", "--stat", "R", "--budget", "1" + "0" * 3000),
        "polynomials is above the budget of 1" + "0" * 39 + "...; raise the budget",
    ),
    "irreducibles-long-composite-base": (
        ("irreducibles", "--q", "1" + "0" * 2000 + "^0", "--max-degree", "1"),
        "1" + "0" * 39 + "... is not prime",
    ),
    "verify-long-q": (
        ("verify", "--d", "2", "--q", "2" * 2999 + "x", "--stat", "R"),
        "--q expects p or p^n, got '" + "2" * 40 + "'...",
    ),
    "expect-long-sum-huge-degree": (
        ("expect", "--d", "1000000000", "--stat", "+".join(["x1"] * 1000)),
        "the series route for " + "x1+" * 13 + "x... at d=1000000000 needs more than",
    ),
    "limit-long-huge-power": (
        ("limit", "--stat", "x1^100000000" + "+x2" * 1000, "--order", "1"),
        "limit of x1^100000000" + "+x2" * 9 + "+... to order 1 needs more than",
    ),
    "limit-long-indicator": (
        ("limit", "--stat", "ind:[" + "1," * 1500 + "1]", "--order", "1"),
        "'ind:[" + "1," * 17 + "1'... is not a character polynomial",
    ),
    "expect-long-table-path": (
        ("expect", "--d", "2", "--stat", "@" + "a" * 3000),
        "File name too long: '" + "a" * 40 + "...'",
    ),
    # a base with no prime factor up to 10^6 and past 10^12 is refused
    # after the budget check, where trial division would run on for hours
    "verify-huge-prime-base": (
        ("verify", "--d", "1", "--q", HUGE_PRIME, "--stat", "R", "--budget", "1" + "0" * 32),
        f"{HUGE_PRIME} has no prime factor up to 1000000, where trial division stops",
    ),
    "irreducibles-huge-prime-base": (
        ("irreducibles", "--q", HUGE_PRIME, "--max-degree", "1", "--budget", "1" + "0" * 32),
        f"{HUGE_PRIME} has no prime factor up to 1000000, where trial division stops",
    ),
    # n * d past the print limit is named by its leading digits
    "irreducibles-unprintable-exponent": (
        ("irreducibles", "--q", f"2^{NINES}", "--max-degree", "2"),
        "needs at least q^2 = 2^1" + "9" * 39 + "... polynomial enumerations over F_2^" + "9" * 40,
    ),
    "verify-unprintable-exponent": (
        ("verify", "--d", "3", "--q", f"3^{NINES}", "--stat", "R"),
        "census of q^d = 3^2" + "9" * 39 + "... polynomials is above the budget",
    ),
    # argparse drops "--" from a value written "--opt=--", leaving no value
    "verify-q-dashes": (
        ("verify", "--d", "2", "--q=--", "--stat", "R"),
        "argument --q: expected one argument",
    ),
    "expect-stat-dashes": (("expect", "--d", "2", "--stat=--"), "argument --stat: expected one"),
    "expect-d-dashes": (("expect", "--d=--", "--stat", "R"), "argument --d: expected one argument"),
    "limit-order-dashes": (
        ("limit", "--stat", "Q", "--order=--"),
        "argument --order: expected one argument",
    ),
    "verify-budget-dashes": (
        ("verify", "--d", "2", "--q", "2", "--stat", "R", "--budget=--"),
        "argument --budget: expected one argument",
    ),
    "irreducibles-max-degree-dashes": (
        ("irreducibles", "--q", "2", "--max-degree=--"),
        "argument --max-degree: expected one argument",
    ),
    # digits in an expression are ASCII
    "expect-superscript-digit": (
        ("expect", "--d", "3", "--stat", "x1\u00b2"),
        "unexpected character '\u00b2' in statistic 'x1\u00b2'",
    ),
    "expect-arabic-indic-digit": (
        ("expect", "--d", "3", "--stat", "x\u0663"),
        "unexpected character '\u0663' in statistic 'x\u0663'",
    ),
    # a number in an expression is read only within the print limit
    "expect-number-too-many-digits": (
        ("expect", "--d", "3", "--stat", "1" * 5000),
        "'1111111111111111111111111111111111111111'... in statistic "
        "'1111111111111111111111111111111111111111'... has more digits than the print limit of 4300",
    ),
    "expect-exponent-too-many-digits": (
        ("expect", "--d", "3", "--stat", "x1^" + "1" * 5000),
        "'1111111111111111111111111111111111111111'... in statistic "
        "'x1^1111111111111111111111111111111111111'... has more digits than the print limit of 4300",
    ),
    "expect-variable-too-many-digits": (
        ("expect", "--d", "3", "--stat", "x" + "1" * 5000),
        "'1111111111111111111111111111111111111111'... in statistic "
        "'x111111111111111111111111111111111111111'... has more digits than the print limit of 4300",
    ),
    # the degree is checked before a label is read or a table opened
    "expect-over-cap-bad-label": (
        ("expect", "--d", "30", "--stat", "ind:[x]"),
        "the partition route at d=30 needs p(d) factorization types",
    ),
    "sf-expect-over-cap-missing-table": (
        ("sf-expect", "--d", "30", "--stat", "@missing.json"),
        "the partition route at d=30 needs p(d) factorization types",
    ),
    "expect-degree-0-indicator": (
        ("expect", "--d", "0", "--stat", "ind:[2,1]"),
        "indicator partition [2,1] has size 3, not d=0",
    ),
}


# @table.json files that BAD_INPUTS name, written to the working directory
BAD_TABLES = {
    "huge_exponent.json": '{"[2]": "1e100000000"}',
    "unprintable_exponent.json": '{"[2]": "1e5000", "[1,1]": 0}',
    "huge_negative_exponent.json": '{"[2]": 1e-100000000}',
    "too_many_digits.json": '{"[2]": ' + "7" * 5000 + "}",
    "long_label.json": '{"[' + ",".join(["1"] * 200_000) + ']": 1}',
    "deep_nesting.json": "[" * 200_000,
}


@pytest.mark.parametrize("argv,message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_fast(capsys, tmp_path, monkeypatch, argv, message):
    for name, text in BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert "set_int_max_str_digits" not in err
    assert len(err) < 1024


# --q texts: short text of any characters or of those a size is written
# in, "p^n" over integers of either sign, bases or exponents with
# thousands of digits, and exponents about as long as the 4300-digit
# print limit, so that n * d may pass it.
Q_TEXTS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="0123456789^*+- _", max_size=40),
    st.builds("{}^{}".format, st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40)),
    st.builds(
        lambda base, k, tail: base + "0" * k + tail,
        st.sampled_from(["1", "2", "-1", "2^1"]),
        st.integers(0, 3000),
        st.sampled_from(["", "^0", "^1", "^-1", "^2"]),
    ),
    st.builds(
        lambda base, digit, k: f"{base}^{digit * k}",
        st.sampled_from(["2", "3", "4"]),
        st.sampled_from("159"),
        st.integers(4290, 4310),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([
        ("verify", "--d", "2", "--stat", "R", "--budget", "1000"),
        ("irreducibles", "--max-degree", "2", "--budget", "1000"),
    ]),
    Q_TEXTS,
)
@example(("verify", "--d", "2", "--stat", "R", "--budget", "1000"), "--")
@example(("irreducibles", "--max-degree", "2", "--budget", "1000"), f"2^{NINES}")
def test_any_q_text_answers_or_is_refused_fast(argv, text):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, f"--q={text}"])
    assert time.perf_counter() - start < 1.0
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().encode()) < 1024


def test_values_just_within_the_print_limit(capsys):
    # x1^9000 at d = 3 has values up to 3^9000 (4294 digits); its constant
    # term is <x1^9000, 1> = 3^9000/3! + 1^9000/2
    got = run_json(capsys, "expect", "--d", "3", "--stat", "x1^9000", "--json")
    assert got["coeffs"][0] == f"{(3**9000 + 3) // 6}"


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_splitstat_matches_the_cli_module():
    env = _src_env()
    console_script = "import sys; from splitstat.cli import run; sys.exit(run())"
    cases = (
        (["psi", "--d", "3", "--json"], 0),
        (["expect", "--d", "3"], 2),  # usage refusal
        (["expect", "--d", "24", "--stat", "ind:[24]"], 2),  # budget refusal
    )
    for argv, code in cases:
        package, module, entry = (
            subprocess.run(
                [sys.executable, *target, *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            for target in (["-m", "splitstat"], ["-m", "splitstat.cli"], ["-c", console_script])
        )
        assert (package.returncode, package.stdout) == (module.returncode, module.stdout)
        assert (package.returncode, package.stdout) == (entry.returncode, entry.stdout)
        assert package.returncode == code
        assert package.stderr == module.stderr == entry.stderr
        assert bool(package.stderr) == bool(code)


@pytest.mark.parametrize("argv, lines", [
    (["psi", "--d", "23"], 1),
    (["psi", "--d", "23", "--json"], 1),
    (["measure", "--d", "23"], 2),
])
def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(argv, lines):
    # as `splitstat psi --d 23 | head -1`: the output is far larger than a
    # pipe holds, so the command writes into a closed pipe
    with subprocess.Popen(
        [sys.executable, "-m", "splitstat.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_src_env(),
    ) as proc:
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert all(head)
    assert err == ""
    assert code == 2


def test_main_never_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    assert main(["psi", "--d", "3"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_run_freezes_the_collector_after_the_command():
    code = (
        "import gc, sys; from splitstat.cli import run; status = run(); "
        "print(gc.get_freeze_count(), status)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, "psi", "--d", "3"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    table, _, last = done.stdout.rstrip("\n").rpartition("\n")
    assert table.startswith("psi character table, d=3")
    frozen, status = map(int, last.split())
    assert frozen > 0
    assert status == 0


def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize, which would add
    # their import time to every CLI process.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, splitstat.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

"""Golden digests of whole CLI payloads.

Each case runs one command and hashes (exit code, stdout, stderr); the
digests in cli_golden.json pin every byte of those runs across d (across
--max-degree for irreducibles, --order for limit).  Most groups run with
--json; the measure, psi, phi, decompose, irreducibles and limit groups
pin the text output too.
To re-record after a deliberate output change, run this file as a
script: `PYTHONPATH=src python tests/test_golden.py`.  With `--check` the
script compares the digests instead and writes nothing; it needs no
pytest, so any Python the package supports can run it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from splitstat.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

STATS = ("one", "sgn", "ET", "R", "Q", "x1*x3", "ind:[2,1]")

# decompose also runs these: a square, and non-integer coefficients
DECOMPOSE_STATS = STATS + ("x1^2-x2", "(x1-1)*x1/2", "x1^3/7")

# The session benchmark's degrees above 8 pin these: the built-ins with a
# polynomial or sign form, its six expressions, and a non-integer
# coefficient.
SESSION_STATS = (
    "one", "sgn", "ET", "R", "Q",
    "x1*x2", "x1^2-x2", "x2", "x1*x3", "(x1-1)*x1/2", "x1^3", "x1^3/7",
)

# Census fields, each with the highest degree its groups run to: packed
# and unpacked prime-field kernels (F_11 switches at degree 4) and
# extension fields, whose walks build q^2 lookup tables (F_4 to F_289).
CENSUS_FIELDS = {
    "2": 8, "3": 6, "5": 4, "7": 4, "11": 4, "2^2": 4, "3^2": 3, "2^8": 2, "17^2": 2,
}
CENSUS_STATS = ("R", "Q", "sgn")

# limit runs these: built-ins, a product, a shifted and a non-integer
# coefficient, and a product over two part sizes.
LIMIT_STATS = ("Q", "R", "x1*x2", "(x1-1)*x2", "x1^3/7", "x1*x3")

# group name -> (argv before --d or --max-degree, degrees)
GROUPS = {
    "measure": (("measure", "--json"), range(1, 11)),
    "measure --sf": (("measure", "--sf", "--json"), range(1, 11)),
    "psi": (("psi", "--json"), range(1, 11)),
    "phi": (("phi", "--json"), range(1, 11)),
}
# The stored tables above d = 10, up to the partition cap (d = 23).
for _group, (_prefix, _) in list(GROUPS.items()):
    GROUPS[f"{_group} d12-23"] = (_prefix, (12, 16, 20, 23))
# Their text output, at the same degrees.
for _group in ("measure", "measure --sf", "psi", "phi"):
    _prefix = GROUPS[_group][0][:-1]  # without --json
    GROUPS[f"{_group} text"] = (_prefix, range(1, 11))
    GROUPS[f"{_group} text d12-23"] = (_prefix, (12, 16, 20, 23))
for _stat in STATS:
    GROUPS[f"expect {_stat}"] = (("expect", "--stat", _stat, "--json"), range(1, 9))
    for _norm in ("qpower", "sfcount"):
        GROUPS[f"sf-expect {_norm} {_stat}"] = (
            ("sf-expect", "--normalization", _norm, "--stat", _stat, "--json"),
            range(1, 9),
        )
for _stat in SESSION_STATS:
    GROUPS[f"expect d9-16 {_stat}"] = (("expect", "--stat", _stat, "--json"), range(9, 17))
    GROUPS[f"sf-expect sfcount d9-16 {_stat}"] = (
        ("sf-expect", "--normalization", "sfcount", "--stat", _stat, "--json"),
        range(9, 17),
    )
for _stat in DECOMPOSE_STATS:
    GROUPS[f"decompose {_stat}"] = (("decompose", "--stat", _stat, "--json"), range(1, 13))
    GROUPS[f"decompose text {_stat}"] = (("decompose", "--stat", _stat), range(1, 13))
# The character table above d = 12, up to the decompose cap (d = 18).
for _stat in ("Q", "sgn", "ind:[2,1]"):
    GROUPS[f"decompose d14-18 {_stat}"] = (("decompose", "--stat", _stat, "--json"), (14, 16, 18))
    GROUPS[f"decompose text d14-18 {_stat}"] = (("decompose", "--stat", _stat), (14, 16, 18))
for _q, _top in CENSUS_FIELDS.items():
    GROUPS[f"irreducibles {_q}"] = (("irreducibles", "--q", _q, "--list", "--json"), range(1, _top + 1))
    GROUPS[f"irreducibles text {_q}"] = (("irreducibles", "--q", _q, "--list"), range(1, _top + 1))
    for _stat in CENSUS_STATS:
        GROUPS[f"verify {_q} {_stat}"] = (
            ("verify", "--q", _q, "--stat", _stat, "--json"), range(1, _top + 1),
        )
for _stat in LIMIT_STATS:
    GROUPS[f"limit {_stat}"] = (("limit", "--stat", _stat, "--json"), range(13))
    GROUPS[f"limit text {_stat}"] = (("limit", "--stat", _stat), range(13))
# A large expansion: 400 binomial terms, numerators of up to 139 bits.
GROUPS["limit x1^20*x2^20"] = (("limit", "--stat", "x1^20*x2^20", "--json"), (0, 6, 12))


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    run = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(run.encode()).hexdigest()


def digests(group: str) -> dict[str, str]:
    prefix, degrees = GROUPS[group]
    flag = {"irreducibles": "--max-degree", "limit": "--order"}.get(prefix[0], "--d")
    return {str(d): digest([*prefix, flag, str(d)]) for d in degrees}


def pytest_generate_tests(metafunc):
    # one test per group, parametrized without importing pytest
    if "group" in metafunc.fixturenames:
        metafunc.parametrize("group", GROUPS)


def test_cli_json_matches_golden(group):
    assert digests(group) == json.loads(GOLDEN.read_text())[group]


def script(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Record the golden CLI digests.")
    parser.add_argument(
        "--check", action="store_true",
        help="compare the digests with cli_golden.json and write nothing",
    )
    args = parser.parse_args(argv)
    got = {g: digests(g) for g in GROUPS}
    if not args.check:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        return 0
    recorded = json.loads(GOLDEN.read_text())
    differ = sorted(g for g in got.keys() | recorded.keys() if got.get(g) != recorded.get(g))
    for group in differ:
        print(f"differs: {group}")
    count = sum(map(len, got.values()))
    print(f"{len(got)} groups, {count} digests: {len(differ)} groups differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))

"""Command-line front end.

Every command is pure with respect to its arguments and prints
deterministic output; rationals are rendered as "a/b" strings, never
floats.  Exit codes: 0 on success, 2 on usage errors (unknown statistic,
a statistic over a parse or print-size cap, exceeded budget, limit,
decompose, series-route or partition-route cost cap, bad flags), 1 on an
internal consistency failure, i.e. a violated identity that should never
occur.  A reader that closes stdout early (``| head``) ends the command
quietly with status 2.

``run()`` is the process entry, behind ``splitstat``, ``python -m
splitstat`` and ``python -m splitstat.cli``.  It calls ``main()``, then
``gc.freeze()``: the interpreter's collections at exit then skip every
object that start-up, the imports and the command left alive (teardown
took 5-6 ms of a 35-50 ms process on a 2-core host, and takes about
1.2 ms frozen).  ``main()`` never freezes, since
in-process callers (tests, the benchmark, library users) go on running
and must still collect the cycles among those objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import starmap
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConsistencyError, SplitstatError, UnknownStatistic
from .exact import UPoly, format_ratio, format_rational, join_signed, quote_short, strip_zeros
from .expect import (
    NORM_Q_POWER,
    NORM_SF_COUNT,
    expected,
    expected_sf,
    stable_limit,
)
from .gf import (
    DEFAULT_BUDGET,
    FqField,
    FqPoly,
    census,
    check_census_budget,
    check_sieve_budget,
    irreducibles,
    make_field,
)
from .lie_chars import phi_table, psi_table
from .measures import measure_columns, necklace
from .partitions import partitions_of
from .sym_chars import check_decompose_budget, decompose, polynomial_statistic, statistic
from .sym_chars import resolve as resolve_stat  # a --stat argument at degree d


def _field(text: str, check: Callable[..., None], *limits: int) -> FqField:
    # The field --q names, "p" or "p^n": check(p, n, *limits), the command's
    # budget check, sees it as written; make_field reads a prime-power p.
    body = text.strip().replace("**", "^")
    p_str, caret, n_str = body.partition("^")
    try:
        p, n = int(p_str), int(n_str) if caret else 1
    except ValueError:
        raise UnknownStatistic(f"--q expects p or p^n, got {quote_short(text)}") from None
    if n > 0:
        check(p, n, *limits)
    return make_field(p, n)


def format_inverse_powers(p: UPoly) -> str:
    """Render a u-polynomial in the 1/q table style: "2/q + 1/q^2"."""
    return _inverse_powers(p.numerators, p.denominator)


def _inverse_powers(numerators: Iterable[int], denominator: int) -> str:
    # integers over a denominator, index = power of u = 1/q, in that style
    parts = []
    for k, n in enumerate(numerators):
        if n and k == 0:
            parts.append(format_ratio(n, denominator))
        elif n:
            num, den = abs(n) // (g := gcd(n, denominator)), denominator // g
            qk = "q" if k == 1 else f"q^{k}"
            term = f"{num}/({den}*{qk})" if den > 1 else f"{num}/{qk}"
            parts.append(f"-{term}" if n < 0 else term)
    return join_signed(parts)


def _emit(
    args: argparse.Namespace,
    json_chunks: Callable[[], Iterable[str]],
    text_lines: Callable[[], Iterable[str]],
) -> None:
    # Only the output that is printed is formatted: the JSON under
    # --json, the text lines otherwise.  Each chunk is printed as it is
    # produced, so a p(d)-sized table is held one row at a time; a
    # command does whatever may fail (budget checks, rows) before it
    # calls this, so a refusal prints nothing.  A small command yields
    # its one json.dumps(..., indent=2).
    for chunk in (json_chunks if args.json else text_lines)():
        print(chunk)


def _json_members(members: Iterable[str]) -> Iterator[str]:
    # members of a JSON object, each but the last followed by a comma, as
    # json.dumps(..., indent=2) lays them out
    pending = None
    for member in members:
        if pending is not None:
            yield pending + ","
        pending = member
    if pending is not None:
        yield pending


def cmd_measure(args: argparse.Namespace) -> int:
    columns = measure_columns(args.d, squarefree=args.sf)
    lams = partitions_of(args.d)
    labels = [lam.label() for lam in lams]
    flavor = "squarefree" if args.sf else "all"

    def measures() -> Iterator[tuple[str, Sequence[int], int]]:
        # per type lam: its label, and nu(lam) as its column over z_lam
        for label, lam, column in zip(labels, lams, columns):
            yield label, column, lam.centralizer_order()

    def json_member(label: str, column: Sequence[int], z: int) -> str:
        coeffs = ",".join(f'\n      "{format_ratio(n, z)}"' for n in strip_zeros(column))
        return f'    "{label}": [{coeffs}\n    ]' if coeffs else f'    "{label}": []'

    def json_chunks() -> Iterator[str]:
        yield f'{{\n  "d": {args.d},\n  "flavor": "{flavor}",\n  "values": {{'
        yield from _json_members(starmap(json_member, measures()))
        yield "  }\n}"

    def lines() -> Iterator[str]:
        yield f"splitting measure, d={args.d}, flavor={flavor}"
        width = max(map(len, labels))
        for label, column, z in measures():
            yield f"  {label:<{width}}  {_inverse_powers(column, z)}"

    _emit(args, json_chunks, lines)
    return 0


def cmd_char_table(args: argparse.Namespace) -> int:
    kind = args.command
    rows = psi_table(args.d) if kind == "psi" else phi_table(args.d)
    labels = [lam.label() for lam in partitions_of(args.d)]

    # One format template per table holds the labels; a row fills in its values.
    def json_chunks() -> Iterator[str]:
        row = '  "{}": {{' + ",".join(f'\n    "{label}": {{}}' for label in labels) + "\n  }}"
        yield "{"
        yield from _json_members(row.format(k, *values) for k, values in enumerate(rows))
        yield "}"

    def lines() -> Iterator[str]:
        width = max(map(len, labels))
        row = "{:>3} | " + " ".join([f"{{:>{width}}}"] * len(labels))
        yield f"{kind} character table, d={args.d}"
        yield "  k | " + " ".join(f"{label:>{width}}" for label in labels)
        for k, values in enumerate(rows):
            yield row.format(k, *values)

    _emit(args, json_chunks, lines)
    return 0


def cmd_expect(args: argparse.Namespace) -> int:
    P = statistic(args.stat).at_degree(args.d)  # an @table is read here, once
    if args.command == "expect":
        result = expected(args.d, P, name=args.stat)
    else:
        normalization = NORM_SF_COUNT if args.normalization == "sfcount" else NORM_Q_POWER
        result = expected_sf(args.d, P, normalization=normalization, name=args.stat)

    def json_chunks() -> Iterator[str]:
        out = {"d": result.d, "stat": result.statistic}
        if result.normalization is not None:
            out["normalization"] = result.normalization
        out.update(
            coeffs=result.value.json_coeffs(), route=result.route, checks=list(result.checks)
        )
        yield json.dumps(out, indent=2)

    _emit(args, json_chunks, lambda: [f"{args.d:>3} | {format_inverse_powers(result.value)}"])
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    check_decompose_budget(args.d)  # before resolve_stat enumerates the partitions of d
    P = resolve_stat(args.stat, args.d)
    # in partition order, formatted before anything is printed
    components = {shape.label(): format_rational(c) for shape, c in decompose(P).items()}

    def json_chunks() -> Iterator[str]:
        yield json.dumps({"d": args.d, "stat": args.stat, "components": components}, indent=2)

    def lines() -> Iterator[str]:
        yield f"decomposition of {args.stat} into irreducibles, d={args.d}"
        for label, c in components.items():
            yield f"  {label}: {c}"
        if not components:
            yield "  (zero class function)"

    _emit(args, json_chunks, lines)
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    P = polynomial_statistic(args.stat)
    result = stable_limit(P, args.order)
    coeffs = [format_rational(c) for c in result.coeffs]  # before anything is printed

    def json_chunks() -> Iterator[str]:
        yield json.dumps({
            "stat": result.statistic,
            "order": result.order,
            "coeffs": coeffs,
            "stabilized_at": {str(k): d for k, d in enumerate(result.stabilized_at)},
        }, indent=2)

    def lines() -> Iterator[str]:
        yield f"limit of expected {args.stat} as d grows (coefficients of 1/q^k)"
        for k, (c, d) in enumerate(zip(coeffs, result.stabilized_at)):
            yield f"  k={k}: {c}  (stable from d={d})"

    _emit(args, json_chunks, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    field = _field(args.q, check_census_budget, args.d, args.budget)
    P = statistic(args.stat).at_degree(args.d)
    # both formulas before any census, so a cost cap refuses at once
    formulas = {
        True: expected_sf(args.d, P, name=args.stat).at_q(field.q),
        False: expected(args.d, P, name=args.stat).at_q(field.q),
    }
    ok = True
    rows = []
    for label, squarefree in (("all", False), ("squarefree", True)):
        c = census(field, args.d, P, squarefree_only=squarefree, budget=args.budget)
        formula = formulas[squarefree]
        match = c == formula
        ok = ok and match
        rows.append((label, format_rational(c), format_rational(formula), match))

    def json_chunks() -> Iterator[str]:
        yield json.dumps({
            "d": args.d,
            "q": field.q,
            "stat": args.stat,
            "results": {
                label: {"census": c, "formula": f, "match": match}
                for label, c, f, match in rows
            },
            "ok": ok,
        }, indent=2)

    def lines() -> Iterator[str]:
        yield f"verify d={args.d} q={field.q} stat={args.stat}"
        for label, c, f, match in rows:
            status = "OK" if match else "MISMATCH"
            yield f"  {label:<10} census {c} vs formula {f}: {status}"

    _emit(args, json_chunks, lines)
    if not ok:
        print("verification failed: census and formula disagree", file=sys.stderr)
        return 1
    return 0


def cmd_irreducibles(args: argparse.Namespace) -> int:
    if args.max_degree < 1:
        raise ValueError("census needs degree at least 1")
    field = _field(args.q, check_sieve_budget, args.max_degree, args.budget)
    table = irreducibles(field, args.max_degree, args.budget)  # FqPoly only for --list
    counts = {deg: len(table[deg]) for deg in sorted(table)}
    match = all(
        counts[deg] == necklace(deg).evaluate(field.q) for deg in counts
    )

    def json_chunks() -> Iterator[str]:
        out: dict = {
            "q": field.q,
            "counts": {str(deg): counts[deg] for deg in counts},
            "count_polynomial_match": match,
        }
        if args.list:
            out["polys"] = {str(deg): [list(f) for f in table[deg]] for deg in counts}
        yield json.dumps(out, indent=2)

    def lines() -> Iterator[str]:
        yield f"monic irreducibles over F_{field.q}"
        for deg in counts:
            yield f"  degree {deg}: {counts[deg]}"
        yield f"  counts match the count polynomial: {'yes' if match else 'NO'}"
        if args.list:
            for deg in counts:
                for f in table[deg]:
                    yield f"    {FqPoly(field, f)}"

    _emit(args, json_chunks, lines)
    if not match:
        print("irreducible counts disagree with the count polynomial", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitstat",
        description=(
            "Exact expected values of factorization statistics on monic "
            "polynomials over finite fields, the symmetric-group characters "
            "behind them, and a brute-force census to verify everything."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help_text)
        s.set_defaults(fn=fn)
        s.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return s

    s = add("measure", cmd_measure, "splitting measure for one degree")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--sf", action="store_true", help="squarefree flavor")

    s = add("psi", cmd_char_table, "character table of configuration-space cohomology (R^3)")
    s.add_argument("--d", type=int, required=True)

    s = add("phi", cmd_char_table, "character table of configuration-space cohomology (R^2)")
    s.add_argument("--d", type=int, required=True)

    s = add("expect", cmd_expect, "expected value of a statistic")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--stat", required=True)

    s = add("sf-expect", cmd_expect, "squarefree expected value of a statistic")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--stat", required=True)
    s.add_argument(
        "--normalization", choices=("qpower", "sfcount"), default="qpower",
        help="divide by q^d (qpower) or by the squarefree count (sfcount)",
    )

    s = add("decompose", cmd_decompose, "decompose a statistic into irreducibles")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--stat", required=True)

    s = add("limit", cmd_limit, "coefficientwise limit of expected values as d grows")
    s.add_argument("--stat", required=True)
    s.add_argument("--order", type=int, required=True)

    s = add("verify", cmd_verify, "compare the brute-force census with the formula")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--q", required=True, help="field size, a prime power such as 4 or 2^2")
    s.add_argument("--stat", required=True)
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility: enumeration is single-threaded "
        "and the value never changes a result",
    )

    s = add("irreducibles", cmd_irreducibles, "sieve monic irreducibles and check counts")
    s.add_argument("--q", required=True, help="field size, a prime power such as 4 or 2^2")
    s.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    s.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    s.add_argument("--list", action="store_true", help="list the polynomials")

    return parser


def _attach_stat_values(argv: list[str]) -> list[str]:
    # argparse reads a value such as "-x1+3" after --stat as an unknown
    # flag; written as "--stat=-x1+3" it is unambiguous.
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--stat" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_stat_values(sys.argv[1:] if argv is None else argv))
        # argparse drops "--" from a value written "--q=--", which leaves []
        if empty := [name for name, value in vars(args).items() if value == []]:
            parser.error(f"argument --{empty[0].replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 2  # the reader closed stdout; nothing more to say
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except (SplitstatError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """Run main() as a whole process and return its exit status."""
    status = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # A closed stdout: point fd 1 at /dev/null, so the flush at exit
        # writes what is left there instead of raising again (the recipe
        # of the signal module's "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())

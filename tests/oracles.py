"""Independent references that the tests compare the package against.

Nothing here is part of splitstat: no command reaches it.  Polynomials
are plain lists of exact rationals, index = exponent; the tests wrap a
result in `UPoly`, through `upoly`, to compare it with a package value.
Over a finite field they are coefficient tuples, low-to-high, divided
here by schoolbook long division on the field's own methods, `F.sub` and
`F.mul`: none of gf's polynomial arithmetic is used.  The measure
route's packed pairing is compared with `measure_sum_by_rows`, the same
stored rows paired one row at a time.  The streamed `psi`, `phi` and
`measure` output is compared with the payloads and text lines below,
built whole from the tables' rows and the measure mappings,
and `partitions_of` with the recursive enumeration `descending_parts`.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from splitstat.cli import format_inverse_powers
from splitstat.exact import U_VAR, UPoly, over_one_denominator
from splitstat.lie_chars import phi_table, psi_table
from splitstat.measures import measure_rows, sf_splitting_measure, splitting_measure
from splitstat.partitions import Partition, partitions_of
from splitstat.sym_chars import class_weights


def _coeff(p, k):
    return p[k] if k < len(p) else 0


def upoly(coeffs, var=U_VAR):
    """The UPoly with these rational coefficients, over their one denominator."""
    return UPoly(var, *over_one_denominator(coeffs))


def poly_add(a, b):
    """Coefficient list of a + b."""
    return [_coeff(a, k) + _coeff(b, k) for k in range(max(len(a), len(b)))]


def poly_mul(a, b):
    """Coefficient list of a * b, by schoolbook multiplication."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sum(polys):
    """Coefficient list of the sum of coefficient lists."""
    out = []
    for p in polys:
        out = poly_add(out, p)
    return out


def series_expand(numer, denom, order):
    """Power-series coefficients c_0..c_order of numer/denom.

    Long division; the denominator's constant term must be nonzero.
    """
    out = []
    for k in range(order + 1):
        s = Fraction(_coeff(numer, k))
        for i in range(1, k + 1):
            s -= _coeff(denom, i) * out[k - i]
        out.append(s / denom[0])
    return out


def measure_sum_by_rows(P, squarefree):
    """The integer u**k totals of E_d(P), squarefree or not, and their one
    denominator: row k of `measure_rows` paired with `class_weights(P)`,
    one integer dot product per row."""
    weights, den = class_weights(P)
    return [sum(map(mul, weights, row)) for row in measure_rows(P.d, squarefree=squarefree)], den


def descending_parts(n, max_part):
    """The partitions of n with parts at most max_part, as weakly
    decreasing tuples in reverse-lexicographic order, by recursion on the
    first part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in descending_parts(n - first, first):
            yield (first,) + rest


def _char_table(kind, d):
    return psi_table(d) if kind == "psi" else phi_table(d)


def char_table_json(kind, d):
    """The `psi`/`phi --json` payload: {k: {label: value}}, one row
    index per entry."""
    lams = partitions_of(d)
    rows = _char_table(kind, d)
    return {str(k): {lam.label(): row[i] for i, lam in enumerate(lams)} for k, row in enumerate(rows)}


def char_table_text(kind, d):
    """The `psi`/`phi` text lines: a header, the labels, then one row per k."""
    lams = partitions_of(d)
    width = max(len(lam.label()) for lam in lams)
    lines = [
        f"{kind} character table, d={d}",
        "  k | " + " ".join(f"{lam.label():>{width}}" for lam in lams),
    ]
    for k, row in enumerate(_char_table(kind, d)):
        lines.append(f"{k:>3} | " + " ".join(f"{v:>{width}}" for v in row))
    return lines


def _measure(d, squarefree):
    return sf_splitting_measure(d) if squarefree else splitting_measure(d)


def measure_json(d, squarefree):
    """The `measure --json` payload, from the measure mapping's u-polynomials."""
    values = {lam.label(): nu.json_coeffs() for lam, nu in _measure(d, squarefree).items()}
    return {"d": d, "flavor": "squarefree" if squarefree else "all", "values": values}


def measure_text(d, squarefree):
    """The `measure` text lines, from the measure mapping's u-polynomials."""
    m = _measure(d, squarefree)
    width = max(len(lam.label()) for lam in m)
    flavor = "squarefree" if squarefree else "all"
    return [f"splitting measure, d={d}, flavor={flavor}"] + [
        f"  {lam.label():<{width}}  {format_inverse_powers(nu)}" for lam, nu in m.items()
    ]


def divrem(F, num, den):
    """(quotient, remainder) of coefficient tuples over F by a monic den,
    the remainder's trailing zeros stripped."""
    rem = list(num)
    dd = len(den) - 1
    quo = [0] * max(len(rem) - dd, 0)
    for shift in range(len(rem) - len(den), -1, -1):
        c = rem[shift + dd]
        if c:
            quo[shift] = c
            for i, dc in enumerate(den):
                rem[shift + i] = F.sub(rem[shift + i], F.mul(c, dc))
    del rem[dd:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


@lru_cache(maxsize=16)
def irreducibles_by_division(F, max_degree):
    """{k: monic irreducibles of degree k over F} for k = 1..max_degree.

    A monic polynomial of degree k is irreducible iff no irreducible of
    degree at most k // 2 divides it.
    """
    out = {}
    for k in range(1, max_degree + 1):
        lower = [g for j in range(1, k // 2 + 1) for g in out[j]]
        candidates = (tail + (1,) for tail in product(range(F.q), repeat=k))
        out[k] = tuple(f for f in candidates if all(divrem(F, f, g)[1] for g in lower))
    return out


def factorization_type(F, coeffs, irr_by_deg=None):
    """(factorization type, squarefree) of a monic polynomial over F.

    Trial division in (degree, lex) order by the irreducibles, by default
    `irreducibles_by_division`'s.  Once all factors of degree < s are
    removed, a remainder of degree < 2s must itself be irreducible, which
    bounds the irreducibles at half the degree.  Repeated factors count
    repeatedly: x**2 has type [1,1].
    """
    if irr_by_deg is None:
        irr_by_deg = irreducibles_by_division(F, (len(coeffs) - 1) // 2)
    rest = tuple(coeffs)
    degs = []
    squarefree = True
    for step in range(1, (len(coeffs) - 1) // 2 + 1):
        if len(rest) - 1 < 2 * step:
            break
        for irr in irr_by_deg.get(step, ()):
            mult = 0
            while len(rest) >= len(irr):
                quo, rem = divrem(F, rest, irr)
                if rem:
                    break
                rest = quo
                mult += 1
            if mult:
                degs += [step] * mult
                squarefree = squarefree and mult == 1
                if len(rest) - 1 < 2 * step:
                    break
    if len(rest) > 1:
        degs.append(len(rest) - 1)
    return Partition(degs), squarefree

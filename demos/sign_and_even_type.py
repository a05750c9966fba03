"""Where the sign representation lives, and the even-type bias it causes.

A polynomial has even type when its factorization type is an even
partition.  Naively the even/odd split should be 50/50.  It almost is:
the expected sign works out to exactly one inverse power of q,

    E_d(sgn) = 1 / q^floor(d/2),

because the sign representation occurs in exactly one cohomological
degree of the configuration space of d points in R^3.  Since the
even-type indicator is (1 + sgn)/2, that single surviving term is a
bias: random polynomials lean slightly toward even type.  Restricting to
squarefree polynomials kills the bias exactly.
"""

from fractions import Fraction

from splitstat import (
    NORM_SF_COUNT,
    ClassFunction,
    even_type,
    expected,
    expected_sf,
    inner,
    psi_table,
    sgn,
)
from splitstat.cli import format_inverse_powers

print("expected sign value:")
for d in range(2, 11):
    result = expected(d, sgn(d))
    print(f"  d={d:>2}: E_d(sgn) = {format_inverse_powers(result.value)}")

print()
print("the sign character sits in exactly one row of the character table:")
for d in (4, 5, 6, 7):
    rows = [
        k for k, row in enumerate(psi_table(d))
        if inner(sgn(d), ClassFunction.from_integers(d, row)) != 0
    ]
    print(f"  d={d}: <sgn, row k> is nonzero only at k = {rows} (floor(d/2) = {d // 2})")

print()
print("even-type probability, all polynomials vs squarefree only:")
for d in range(2, 9):
    biased = expected(d, even_type(d)).value
    fair = expected_sf(d, even_type(d), NORM_SF_COUNT).value
    assert fair.coeffs == (Fraction(1, 2),)
    print(f"  d={d}: all = {format_inverse_powers(biased)}    squarefree = 1/2 exactly")

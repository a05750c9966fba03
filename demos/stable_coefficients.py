"""Coefficients of expected values freeze as the degree grows.

For a statistic written as a polynomial in the part-count functions
x_1, x_2, ... (the same expression for every d), each coefficient of the
expected value is eventually constant in d.  The limit can also be
computed in closed form as a rational function of q; for the quadratic
excess the two computations agree to every order we ask for.
"""

from fractions import Fraction

from splitstat import builtin_polynomial, expected, stable_limit
from splitstat.cli import format_inverse_powers

Q = builtin_polynomial("Q")

print("watch the coefficients of E_d(Q) freeze (rows d, columns k):")
for d in range(3, 14):
    value = expected(d, Q.class_function(d)).value
    cells = " ".join(f"{int(value.coeff(k)):>2}" for k in range(10))
    print(f"  d={d:>2}: {cells}")

limit = stable_limit(Q, 9)
print(f"\nstable limit:  {[int(c) for c in limit.coeffs]}")
print(f"stable from d:  {list(limit.stabilized_at)} (each coefficient holds from there on)")

# (1/2)(1 + u)/(1 - u)^2 - (1/2)(1 - u)/(1 - u^2) has u^k coefficient
# ((2k + 1) - (-1)^k)/2.
closed = [Fraction((2 * k + 1) - (-1) ** k, 2) for k in range(10)]
print(f"closed form:   {[int(c) for c in closed]}")
assert list(limit.coeffs) == closed

R = builtin_polynomial("R")
geometric = stable_limit(R, 8)
print(f"\nroot statistic limit is the geometric series: {[int(c) for c in geometric.coeffs]}")
print(f"matching E_d(R) = 1 + 1/q + ... + 1/q^(d-1); e.g. d=6 gives "
      f"{format_inverse_powers(expected(6, R.class_function(6)).value)}")

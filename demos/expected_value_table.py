"""The expected quadratic excess of a random monic polynomial.

The quadratic excess Q(f) counts reducible quadratic factors of f minus
irreducible ones.  Averaged over all monic degree-d polynomials over F_q
the answer is a polynomial in 1/q, and three things about it are striking:

  * the coefficients are nonnegative integers,
  * evaluating at q = 1 gives the binomial coefficient C(d, 2),
  * the coefficients freeze as d grows.

None of that is visible from the definition.  All three are explained by
the fact that Q is the trace of the second exterior power of the
permutation representation, so each coefficient is a multiplicity of an
honest representation: the character table of configuration-space
cohomology is doing the bookkeeping.
"""

from math import comb

from splitstat import eval_q1, expected, quadratic_excess
from splitstat.cli import format_inverse_powers

print("  d | E_d(Q)")
print("----+" + "-" * 60)
for d in range(2, 11):
    result = expected(d, quadratic_excess(d))
    print(f" {d:>2} | {format_inverse_powers(result.value)}")

print()
print("evaluating at q = 1 recovers the pair count C(d, 2):")
for d in range(2, 11):
    value = eval_q1(d, quadratic_excess(d))
    assert value == comb(d, 2)
    print(f"  d={d:>2}: {value} == C({d},2)")

print()
print("each C(d, 2) above was asserted exactly; `splitstat verify` checks the")
print("expected values independently against a brute-force census over F_q.")

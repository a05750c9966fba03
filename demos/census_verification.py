"""Brute force agrees with the formula, exactly, field by field.

Nothing here is approximate: the census builds every monic degree-d
polynomial over F_q as a product of irreducibles, checking that none is
reached twice, and averages the statistic as an exact rational.  The
formula side never touches a polynomial: it sums the statistic against
the splitting measure.  The two must match at u = 1/q -- including over
genuine prime-power fields like F_4, where the arithmetic runs in an
extension field.
"""

from fractions import Fraction

from splitstat import builtin, census, expected, expected_sf, make_field

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]
STATS = ("one", "sgn", "ET", "R", "Q")

checked = 0
for p, n in FIELDS:
    field = make_field(p, n)
    for d in (2, 3, 4):
        for name in STATS:
            P = builtin(name, d)
            u = Fraction(1, field.q)
            counted = census(field, d, P)
            predicted = expected(d, P).value.evaluate(u)
            assert counted == predicted, (field, d, name)
            counted_sf = census(field, d, P, squarefree_only=True)
            predicted_sf = expected_sf(d, P).value.evaluate(u)
            assert counted_sf == predicted_sf, (field, d, name)
            checked += 2
    print(f"F_{field.q}: all statistics match for d = 2, 3, 4 (census == formula)")

print(f"\n{checked} exact comparisons, zero mismatches.")

field = make_field(3)
P = builtin("R", 4)
print("\none comparison spelled out, d = 4 over F_3, statistic = root count:")
print(f"  census : {census(field, 4, P)}   (enumerated all 81 quartics)")
print(f"  formula: {expected(4, P).value.evaluate(Fraction(1, 3))}   (1 + 1/3 + 1/9 + 1/27)")

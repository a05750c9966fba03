"""Reading the cohomology of configuration spaces out of polynomial counting.

The probability that a random monic degree-d polynomial has factorization
type lam is a polynomial in u = 1/q whose coefficients, scaled by the
centralizer order z_lam, are the character values of the symmetric-group
action on the cohomology of d ordered points in R^3.  So exact counting
over finite fields computes character tables of topological spaces.

Two structural facts fall out immediately:

  * the rows sum to the regular representation (dimensions add to d!),
  * decomposing each row into irreducibles gives nonnegative integers,
    locating every irreducible in a specific cohomological degree.
"""

from math import factorial

from splitstat import (
    Partition,
    decompose,
    irr_dim,
    partitions_of,
    phi_table,
    psi_table,
)

D = 5
table = psi_table(D)
identity = Partition([1] * D)

print(f"character table of H^(2k) for d = {D} (columns are cycle types):")
labels = [lam.label() for lam in partitions_of(D)]
width = max(len(s) for s in labels) + 1
print("  k |" + "".join(f"{s:>{width}}" for s in labels))
for k in table.degrees:
    row = "".join(f"{table.value(k, lam):>{width}}" for lam in partitions_of(D))
    print(f"  {k} |{row}")

dims = [table.value(k, identity) for k in table.degrees]
print(f"\ndimensions by degree: {dims}, total {sum(dims)} = {D}! = {factorial(D)}")
sums = [sum(table.value(k, lam) for k in table.degrees) for lam in partitions_of(D)]
regular = [factorial(D) if lam == identity else 0 for lam in partitions_of(D)]
print(f"rows sum to the regular character: {sums == regular}")

print("\neach row decomposed into irreducibles (shape: multiplicity):")
for k in table.degrees:
    parts = decompose(table.row(k))
    text = ", ".join(
        f"{shape.label()}x{mult}" for shape, mult in sorted(parts.items(), key=lambda t: t[0].parts, reverse=True)
    )
    print(f"  k={k}: {text}")

print("\nsanity: multiplicities weighted by dimensions reproduce each row's dimension")
for k in table.degrees:
    total = sum(int(m) * irr_dim(shape) for shape, m in decompose(table.row(k)).items())
    assert total == table.value(k, identity)
print("  ok")

print("\nthe squarefree story runs through the plane instead of R^3;")
print("its table for d = 3 (these are braid-arrangement cohomology characters):")
planar = phi_table(3)
for k in planar.degrees:
    row = {lam.label(): planar.value(k, lam) for lam in partitions_of(3)}
    print(f"  k={k}: {row}")

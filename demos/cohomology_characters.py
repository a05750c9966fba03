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
    ClassFunction,
    Partition,
    decompose,
    irr_dim,
    partitions_of,
    phi_table,
    psi_table,
)

D = 5
rows = psi_table(D)  # row k holds the characters of H^(2k), in partition order
identity = Partition([1] * D)

print(f"character table of H^(2k) for d = {D} (columns are cycle types):")
labels = [lam.label() for lam in partitions_of(D)]
width = max(len(s) for s in labels) + 1
print("  k |" + "".join(f"{s:>{width}}" for s in labels))
for k, row in enumerate(rows):
    print(f"  {k} |" + "".join(f"{v:>{width}}" for v in row))

dims = [row[-1] for row in rows]  # the identity column, last in partition order
print(f"\ndimensions by degree: {dims}, total {sum(dims)} = {D}! = {factorial(D)}")
sums = [sum(column) for column in zip(*rows)]
regular = [factorial(D) if lam == identity else 0 for lam in partitions_of(D)]
print(f"rows sum to the regular character: {sums == regular}")

decompositions = [decompose(ClassFunction.from_integers(D, row)) for row in rows]
print("\neach row decomposed into irreducibles (shape: multiplicity):")
for k, parts in enumerate(decompositions):
    text = ", ".join(
        f"{shape.label()}x{mult}" for shape, mult in sorted(parts.items(), key=lambda t: t[0].parts, reverse=True)
    )
    print(f"  k={k}: {text}")

print("\nsanity: multiplicities weighted by dimensions reproduce each row's dimension")
for parts, dim in zip(decompositions, dims):
    assert sum(int(m) * irr_dim(shape) for shape, m in parts.items()) == dim
print("  ok")

print("\nthe squarefree story runs through the plane instead of R^3;")
print("its table for d = 3 (these are braid-arrangement cohomology characters):")
for k, row in enumerate(phi_table(3)):
    print(f"  k={k}: {dict(zip((lam.label() for lam in partitions_of(3)), row))}")

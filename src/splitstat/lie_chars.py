"""Symmetric-group characters of configuration-space cohomology.

The splitting measure of type lam is (1/z_lam) * sum over k of
psi_d^k(lam) u**k, where psi_d^k is the character of the S_d-action on
H^{2k} of the configuration space of d ordered points in R^3 (the higher
Lie character).  Inverting coefficientwise recovers the characters from
the measure: psi_d^k(lam) = z_lam * [u**k] nu(lam).  The squarefree
measure likewise encodes the characters phi_d^k of H^k of configurations
in the plane, with an alternating sign: phi_d^k(lam) =
(-1)**k * z_lam * [u**k] nu_sf(lam).

Every value produced this way must be an integer; a non-integer is a
correctness failure and raises loudly rather than rounding.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .errors import ConsistencyError
from .exact import UPoly
from .measures import SplittingMeasure, sf_splitting_measure, splitting_measure
from .partitions import Partition, partitions_of
from .sym_chars import ClassFunction

KIND_PSI = "psi"
KIND_PHI = "phi"


class CharTable:
    """Character values indexed by cohomological degree k and partition.

    Rows run over k = 0..d-1; cohomology vanishes beyond that range, and
    table construction checks it.  Values are stored as one integer
    column per partition; `row(k)` builds a class function on request.
    """

    __slots__ = ("d", "kind", "_columns")

    def __init__(
        self, d: int, kind: str, columns: dict[Partition, tuple[int, ...]]
    ) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_columns", columns)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("CharTable is immutable")

    @property
    def degrees(self) -> range:
        return range(self.d)

    def row(self, k: int) -> ClassFunction:
        return ClassFunction(
            self.d,
            {lam: self.value(k, lam) for lam in partitions_of(self.d)},
            name=f"{self.kind}[{self.d},{k}]",
        )

    def value(self, k: int, lam: Partition) -> int:
        if k not in self.degrees:
            raise KeyError(f"degree {k} is outside 0..{self.d - 1}")
        return self._columns[lam][k]

    def to_json(self) -> dict[str, dict[str, int]]:
        return {
            str(k): {lam.label(): self.value(k, lam) for lam in partitions_of(self.d)}
            for k in self.degrees
        }

    def __repr__(self) -> str:
        return f"<CharTable {self.kind} d={self.d}>"


def _invert(measure: SplittingMeasure, kind: str) -> CharTable:
    d = measure.d
    sign = -1 if kind == KIND_PHI else 1
    columns: dict[Partition, tuple[int, ...]] = {}
    for lam in partitions_of(d):
        poly: UPoly = measure.value(lam)
        if poly.degree > d - 1:
            raise ConsistencyError(
                f"measure value for {lam} has u-degree {poly.degree}, "
                f"beyond the cohomological range {d - 1}"
            )
        z = lam.centralizer_order()
        col = []
        for k in range(d):
            v = poly.coeff(k) * z * (sign**k)
            if v.denominator != 1:
                raise ConsistencyError(
                    f"non-integer character value {v} at k={k}, lam={lam}"
                )
            col.append(int(v))
        columns[lam] = tuple(col)
    return CharTable(d, kind, columns)


@lru_cache(maxsize=None)
def psi_table(d: int) -> CharTable:
    """Characters of H^{2k} of d ordered points in R^3, k = 0..d-1."""
    if d < 1:
        raise ValueError("character tables start at degree 1")
    return _invert(splitting_measure(d), KIND_PSI)


@lru_cache(maxsize=None)
def phi_table(d: int) -> CharTable:
    """Characters of H^k of d ordered points in the plane, k = 0..d-1."""
    if d < 1:
        raise ValueError("character tables start at degree 1")
    return _invert(sf_splitting_measure(d), KIND_PHI)


def regular_check(d: int) -> bool:
    """Whether the rows of the table sum to the regular character.

    The sum over k of psi_d^k must be d! at [1^d] and 0 at every other
    partition: the total cohomology carries the regular representation.
    """
    table = psi_table(d)
    for lam in partitions_of(d):
        total = sum(table.value(k, lam) for k in table.degrees)
        expected = factorial(d) if lam.mult(1) == d else 0
        if total != expected:
            return False
    return True

"""Symmetric-group characters of configuration-space cohomology.

The splitting measure of type lam is (1/z_lam) * sum over k of
psi_d^k(lam) u**k, where psi_d^k is the character of the S_d-action on
H^{2k} of the configuration space of d ordered points in R^3 (the higher
Lie character).  So psi_d^k(lam) = z_lam * [u**k] nu(lam) is exactly
the integer column that `measures.measure_columns` stores, and a table
here wraps those columns without an inversion pass.  The squarefree
measure likewise encodes the characters phi_d^k of H^k of configurations
in the plane, with an alternating sign: phi_d^k(lam) =
(-1)**k * z_lam * [u**k] nu_sf(lam), the sign applied when a value is
read.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from math import factorial

from .measures import measure_columns
from .partitions import Partition, partitions_of
from .sym_chars import ClassFunction

KIND_PSI = "psi"
KIND_PHI = "phi"


class CharTable:
    """Character values indexed by cohomological degree k and partition.

    Rows run over k = 0..d-1; cohomology vanishes beyond that range, and
    `measure_columns` checks it.  Values are read from the measure's
    integer columns, with the sign (-1)**k applied for phi; `row(k)`
    builds a class function on request.
    """

    __slots__ = ("d", "kind", "_columns")

    def __init__(
        self, d: int, kind: str, columns: Mapping[Partition, tuple[int, ...]]
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
        values = [self.value(k, lam) for lam in self._columns]
        return ClassFunction.from_integers(self.d, values, name=f"{self.kind}[{self.d},{k}]")

    def value(self, k: int, lam: Partition) -> int:
        if k not in self.degrees:
            raise KeyError(f"degree {k} is outside 0..{self.d - 1}")
        v = self._columns[lam][k]
        return -v if self.kind == KIND_PHI and k % 2 else v

    def to_json(self) -> dict[str, dict[str, int]]:
        return {
            str(k): {lam.label(): self.value(k, lam) for lam in partitions_of(self.d)}
            for k in self.degrees
        }

    def __repr__(self) -> str:
        return f"<CharTable {self.kind} d={self.d}>"


@lru_cache(maxsize=None)
def psi_table(d: int) -> CharTable:
    """Characters of H^{2k} of d ordered points in R^3, k = 0..d-1."""
    if d < 1:
        raise ValueError("character tables start at degree 1")
    return CharTable(d, KIND_PSI, measure_columns(d, squarefree=False))


@lru_cache(maxsize=None)
def phi_table(d: int) -> CharTable:
    """Characters of H^k of d ordered points in the plane, k = 0..d-1."""
    if d < 1:
        raise ValueError("character tables start at degree 1")
    return CharTable(d, KIND_PHI, measure_columns(d, squarefree=True))


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

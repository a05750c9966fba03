"""Symmetric-group characters of configuration-space cohomology.

The splitting measure of type lam is (1/z_lam) * sum over k of
psi_d^k(lam) u**k, where psi_d^k is the character of the S_d-action on
H^{2k} of the configuration space of d ordered points in R^3 (the higher
Lie character).  So psi_d^k(lam) = z_lam * [u**k] nu(lam), and row k of
`measures.measure_rows` is exactly psi_d^k; a table here wraps those rows
without an inversion pass.  The squarefree measure likewise encodes the
characters phi_d^k of H^k of configurations in the plane, with an
alternating sign: phi_d^k(lam) = (-1)**k * z_lam * [u**k] nu_sf(lam), the
sign applied when a row or value is read.  `CharTable.values(k)` reads one
row as integers; the `psi` and `phi` commands print the table from it, a
row at a time.
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg

from .exact import Immutable
from .measures import measure_rows
from .partitions import Partition, positions
from .sym_chars import ClassFunction

KIND_PSI = "psi"
KIND_PHI = "phi"


class CharTable(Immutable):
    """Character values indexed by cohomological degree k and partition.

    Rows run over k = 0..d-1; cohomology vanishes beyond that range, and
    the measure product behind `measure_rows` checks it.  The table holds
    the measure's integer rows, read from `measure_rows` at construction
    and stored as they are; `values(k)` reads row k in partition order,
    with the sign (-1)**k applied for phi, and `row(k)` wraps those
    values as a class function.
    """

    __slots__ = ("d", "kind", "_rows")

    def __init__(self, d: int, kind: str) -> None:
        if d < 1:
            raise ValueError("character tables start at degree 1")
        if kind not in (KIND_PSI, KIND_PHI):
            raise ValueError(f"unknown character table kind {kind!r}")
        self._store(d, kind, measure_rows(d, squarefree=kind == KIND_PHI))

    @property
    def degrees(self) -> range:
        return range(self.d)

    def _sign(self, k: int) -> int:
        # the stored row k is (-1)**k phi_d^k
        if k not in self.degrees:
            raise KeyError(f"degree {k} is outside 0..{self.d - 1}")
        return -1 if self.kind == KIND_PHI and k % 2 else 1

    def values(self, k: int) -> tuple[int, ...]:
        """The characters of degree k, in partition order."""
        sign, row = self._sign(k), self._rows[k]
        return row if sign == 1 else tuple(map(neg, row))

    def row(self, k: int) -> ClassFunction:
        name = f"{self.kind}[{self.d},{k}]"
        return ClassFunction.from_integers(self.d, self.values(k), name=name)

    def value(self, k: int, lam: Partition) -> int:
        return self._sign(k) * self._rows[k][positions(self.d)[lam.parts]]


@lru_cache(maxsize=None)
def psi_table(d: int) -> CharTable:
    """Characters of H^{2k} of d ordered points in R^3, k = 0..d-1."""
    return CharTable(d, KIND_PSI)


@lru_cache(maxsize=None)
def phi_table(d: int) -> CharTable:
    """Characters of H^k of d ordered points in the plane, k = 0..d-1."""
    return CharTable(d, KIND_PHI)

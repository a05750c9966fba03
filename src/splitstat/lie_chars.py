"""Symmetric-group characters of configuration-space cohomology.

The splitting measure of type lam is (1/z_lam) * sum over k of
psi_d^k(lam) u**k, where psi_d^k is the character of the S_d-action on
H^{2k} of the configuration space of d ordered points in R^3 (the higher
Lie character).  So psi_d^k(lam) = z_lam * [u**k] nu(lam): row k of
`measures.measure_rows` is exactly psi_d^k, and `psi_table(d)` is those
rows.  The squarefree measure likewise encodes the characters phi_d^k of
H^k of configurations in the plane, with an alternating sign:
phi_d^k(lam) = (-1)**k * z_lam * [u**k] nu_sf(lam); `phi_table(d)` holds
the one copy of the squarefree rows, signed in place.  A table is d rows
of integers, k = 0..d-1, in partition order, printed a row at a time.
"""

from __future__ import annotations

from functools import lru_cache

from .measures import measure_rows


@lru_cache(maxsize=None)
def psi_table(d: int) -> tuple[tuple[int, ...], ...]:
    """Characters of H^{2k} of d ordered points in R^3: row k, k = 0..d-1."""
    return measure_rows(d, squarefree=False)


@lru_cache(maxsize=None)
def phi_table(d: int) -> tuple[tuple[int, ...], ...]:
    """Characters of H^k of d ordered points in the plane: row k, k = 0..d-1."""
    # Past measure_rows' cache, each int popped as it is negated: one copy is held, never 1.5.
    rows = list(measure_rows.__wrapped__(d, squarefree=True))
    for k in range(1, d, 2):
        row, rows[k] = list(reversed(rows[k])), ()
        rows[k] = tuple([-row.pop() for _ in range(len(row))])
    return tuple(rows)

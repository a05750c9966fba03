"""Integer partitions and the combinatorial scalars attached to them.

A partition indexes three things at once here: a conjugacy class of the
symmetric group, a factorization type of a monic polynomial, and an
irreducible representation.  The canonical enumeration order is
reverse-lexicographic ([4] before [3,1] before [2,2] ...), which fixes
all table layouts and JSON output.  The two p(d) kernels recurse on a
partition's parts in their own modules: the measure on parts[1:]
(`measures`), the character table on shapes with a rim hook removed
(`sym_chars`).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm
from operator import index
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing tuple of positive integers; multiplicities are counted from the parts."""

    __slots__ = ("parts", "d", "_z")

    def __init__(self, parts: Iterable[int] = ()) -> None:
        try:  # operator.index refuses a part that is not an integer
            ps = tuple(sorted(map(index, parts), reverse=True))
        except TypeError:
            pass
        else:
            if not ps or ps[-1] > 0:
                return self._fill(ps, sum(ps))
        raise ValueError("partition parts must be positive integers")

    @classmethod
    def _descending(cls, parts: tuple[int, ...], d: int) -> "Partition":
        # parts known to be weakly decreasing, positive and summing to d:
        # no sort, conversion or check
        lam = object.__new__(cls)
        lam._fill(parts, d)
        return lam

    def _fill(self, parts: tuple[int, ...], d: int) -> None:
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_z", 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Partition is immutable")

    def __reduce__(self) -> tuple:
        return Partition, (self.parts,)

    def mult(self, j: int) -> int:
        """Number of parts equal to j (the statistic x_j)."""
        if j < 1:
            raise ValueError("part sizes start at 1")
        return self.parts.count(j)

    def multiplicities(self) -> tuple[tuple[int, int], ...]:
        """(part size, multiplicity) pairs, ascending in part size."""
        return tuple((j, self.parts.count(j)) for j in sorted(set(self.parts)))

    def centralizer_order(self) -> int:
        """prod_j j**m_j * m_j!; the conjugacy class has size d!/this."""
        if not self._z:  # computed once per partition
            z = 1
            for j in set(self.parts):
                m = self.parts.count(j)
                z *= j**m * factorial(m)
            object.__setattr__(self, "_z", z)
        return self._z

    def sign(self) -> int:
        """+1 iff this is the cycle type of an even permutation."""
        return -1 if (self.d - len(self.parts)) % 2 else 1

    def label(self) -> str:
        """Compact bracket form, e.g. "[3,1,1]"; used as JSON keys."""
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "[3,1,1]" (brackets optional)."""
        body = text.strip()
        if body.startswith("[") and body.endswith("]"):
            body = body[1:-1]
        if not body.strip():
            return cls(())
        try:
            return cls(int(piece) for piece in body.split(","))
        except ValueError as exc:
            raise ValueError(f"not a partition: {text!r}") from exc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return self.label()


def _descending_parts(d: int) -> Iterator[tuple[int, ...]]:
    # The partitions of d in reverse-lexicographic order, each the step
    # after the last: the parts above 1 are kept in `big`, the 1s counted.
    # The last big part v+1 becomes v, and the 1s freed with it are
    # regrouped into parts v, then one remainder part.
    big, ones = ([d] if d > 1 else []), int(d == 1)
    while True:
        yield (*big, *(1,) * ones)
        if not big:
            return
        v = big.pop() - 1
        if v == 1:
            ones += 2
            continue
        q, r = divmod(ones + 1, v)
        big += [v] * (q + 1)
        if r > 1:
            big.append(r)
        ones = int(r == 1)


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d, exactly once, in reverse-lexicographic order."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return tuple(Partition._descending(parts, d) for parts in _descending_parts(d))


@lru_cache(maxsize=None)
def class_scales(d: int) -> tuple[tuple[int, ...], int]:
    """lcm(z) // z_lam per partition lam of d in partition order, and lcm(z),
    the lcm of the centralizer orders z_lam."""
    zs = [lam.centralizer_order() for lam in partitions_of(d)]
    lcm_z = lcm(*zs)
    return tuple(lcm_z // z for z in zs), lcm_z


@lru_cache(maxsize=None)
def positions(d: int) -> dict[tuple[int, ...], int]:
    """The index of each partition of d in partition order, keyed by its parts."""
    return {lam.parts: i for i, lam in enumerate(partitions_of(d))}


@lru_cache(maxsize=None)
def _partition_count(n: int) -> int:
    # p(n) by Euler's pentagonal number recurrence, with no partition
    # enumerated.  Callers step n upward, so every p(m), m < n, is cached
    # and the recursion is one level deep.
    if n == 0:
        return 1
    p, k = 0, 1
    while (g := k * (3 * k - 1) // 2) <= n:
        pair = _partition_count(n - g) + (_partition_count(n - g - k) if g + k <= n else 0)
        p, k = p + (pair if k % 2 else -pair), k + 1
    return p


def partition_count_exceeds(d: int, cap: int) -> bool:
    """Whether p(d), the number of partitions of d, is above cap.

    Reads p(0), p(1), ..., each counted once per process.  p(n) grows
    with n, so the walk stops at the first n over the cap: a huge d costs
    no more than a small one.
    """
    n = 0
    while n < d and _partition_count(n) <= cap:
        n += 1
    return _partition_count(n) > cap

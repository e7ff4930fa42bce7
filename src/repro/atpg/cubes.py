"""Cubes and exact cube covers over a fixed variable ordering.

A :class:`Cube` is a partial assignment (care-mask + values) over an
ordered variable list — the representation of the paper's *failing
patterns* (Fig. 4(b): ``x x 0 x 0`` etc.).  :func:`exact_cover` compresses
a minterm set into a cube cover that equals the set exactly (no
off-set minterm is covered), which is the property the restore circuitry
needs: the comparator must fire on *all and only* the failing patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Cube:
    """Partial assignment: bit *i* of *mask* set => variable *i* cared,
    with value taken from bit *i* of *values* (bits outside mask are 0)."""

    mask: int
    values: int

    def __post_init__(self) -> None:
        if self.values & ~self.mask:
            raise ValueError("value bits outside the care mask")

    def contains(self, minterm: int) -> bool:
        """True when *minterm* (full assignment) lies inside the cube."""
        return (minterm & self.mask) == self.values

    def care_count(self) -> int:
        """Number of cared (specified) variables — key bits it consumes."""
        return self.mask.bit_count()

    def num_minterms(self, num_vars: int) -> int:
        return 1 << (num_vars - self.care_count())

    def literals(self, variables: Sequence[str]) -> list[tuple[str, int]]:
        """``(variable, value)`` pairs for the cared positions."""
        out: list[tuple[str, int]] = []
        for index, name in enumerate(variables):
            bit = 1 << index
            if self.mask & bit:
                out.append((name, 1 if self.values & bit else 0))
        return out

    def to_pattern_string(self, num_vars: int) -> str:
        """Render like the paper's Fig. 4(b), MSB-left: ``x 1 1 1 0``."""
        chars = []
        for index in reversed(range(num_vars)):
            bit = 1 << index
            if not self.mask & bit:
                chars.append("x")
            else:
                chars.append("1" if self.values & bit else "0")
        return " ".join(chars)


def expand_cube(cube: Cube, num_vars: int) -> Iterable[int]:
    """Enumerate all minterms inside *cube*."""
    free = [i for i in range(num_vars) if not cube.mask & (1 << i)]
    for combo in range(1 << len(free)):
        minterm = cube.values
        for position, var in enumerate(free):
            if combo & (1 << position):
                minterm |= 1 << var
        yield minterm


def cover_minterms(cover: Iterable[Cube], num_vars: int) -> set[int]:
    """Union of all minterms covered by the cubes."""
    covered: set[int] = set()
    for cube in cover:
        covered.update(expand_cube(cube, num_vars))
    return covered


def exact_cover(
    minterms: set[int],
    num_vars: int,
    max_minterms: int | None = 4096,
) -> list[Cube]:
    """Compress *minterms* into cubes covering exactly that set.

    Uses Quine-McCluskey prime generation restricted to the on-set (the
    off-set acts as a blocking set, so no prime ever covers an off-set
    minterm) followed by a greedy unate cover.  Raises ``ValueError`` when
    the on-set exceeds *max_minterms* (callers prefilter faults by failing
    count, mirroring the paper's cost-driven fault selection).

    Minterms must lie below ``2 ** num_vars``.  Sets of minterms are held
    as one int over the ``2 ** num_vars`` lanes (bit *m* = minterm *m*),
    so a cube's membership test and its greedy gain are a few big-int
    operations.
    """
    if not minterms:
        return []
    if max_minterms is not None and len(minterms) > max_minterms:
        raise ValueError(
            f"on-set of {len(minterms)} minterms exceeds limit {max_minterms}"
        )
    on_set = 0
    for minterm in minterms:
        on_set |= 1 << minterm
    full_mask = (1 << num_vars) - 1

    # Grow each minterm into a maximal cube by greedily dropping literals
    # (prime generation by expansion — equivalent result to classic QM
    # merging for exactness purposes, far cheaper on sparse on-sets).
    # Dropping literal i is legal when the cube's lanes, mirrored across
    # variable i, stay inside the on-set.
    primes: dict[Cube, int] = {}
    for minterm in minterms:
        mask, lanes = full_mask, 1 << minterm
        for index in range(num_vars):
            shift = 1 << index
            mirror = lanes >> shift if minterm >> index & 1 else lanes << shift
            if not mirror & ~on_set:
                mask &= ~shift
                lanes |= mirror
        primes[Cube(mask, minterm & mask)] = lanes

    # Greedy unate covering: repeatedly take the cube covering the most
    # uncovered minterms; ties broken toward fewer care bits (fewer key
    # bits, smaller comparator).
    uncovered = on_set
    cover: list[Cube] = []
    prime_list = sorted(primes, key=lambda c: (c.care_count(), c.mask, c.values))
    while uncovered:
        best = None
        best_gain = -1
        for cube in prime_list:
            gain = (primes[cube] & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best = cube
        if best is None or best_gain <= 0:  # pragma: no cover - defensive
            raise RuntimeError("covering failed to progress")
        cover.append(best)
        uncovered &= ~primes[best]
    return cover


def cover_care_bits(cover: Sequence[Cube]) -> int:
    """Total care bits across the cover = key bits the restore unit holds."""
    return sum(cube.care_count() for cube in cover)

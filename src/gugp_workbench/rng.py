"""Seeded pseudo-random stream used by every generator in the workbench.

The generator is splitmix64.  Its output sequence for a given seed is part of
the reproducibility contract: identical generation requests must produce
byte-identical instance files, here and in any reimplementation.  The update
and output constants below therefore are normative, as is the draw order
documented on each generator.  Bounded draws use plain modulo reduction
(``next_u64() % n``) -- simple and portable; the slight bias is irrelevant for
test-instance sampling.

``below_each(bounds)`` is ``[below(b) for b in bounds]``: draw i mixes
``state + i * gamma``, so it mixes many draws at once as the 128-bit lanes of
one integer, each masked to 64 bits around every multiply, whose product
then stays in its lane; a list of any length takes this one route.
``next_u64`` and ``below`` remain the definition; the generators draw
through ``below_each`` a pass at a time, order unchanged.
"""

from __future__ import annotations

import operator
import sys
from array import array
from typing import Sequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_LANES = 256
# a 1, and a 64-bit mask, in the low half of every 128-bit lane
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
# lane i holds (i + 1) * gamma mod 2^64, as lane i of _ONES squared is i + 1
_STEPS = (_ONES * _ONES & (1 << 128 * _LANES) - 1) * _GAMMA & _LOW


def fisher_yates(items: list, js) -> list:
    """Swap ``items[i]`` with the next ``items[j]`` of ``js``, i descending
    from the last index to 1; return ``items``.  Distinct js, distinct orders."""
    for i, j in zip(range(len(items) - 1, 0, -1), js):
        items[i], items[j] = items[j], items[i]
    return items


class SplitMix64:
    """64-bit splitmix64 stream seeded with an arbitrary integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def below_each(self, bounds: Sequence[int]) -> list[int]:
        """``[self.below(b) for b in bounds]``, drawn in lanes."""
        if min(bounds, default=1) <= 0:
            raise ValueError("bound must be positive")
        out: list[int] = []
        state = self._state
        for start in range(0, len(bounds), _LANES):
            chunk = bounds[start : start + _LANES]
            keep = (1 << (len(chunk) << 7)) - 1  # the lanes this pass draws
            z = (state * (_ONES & keep) + (_STEPS & keep)) & _LOW
            z = ((z ^ (z >> 30)) & _LOW) * _MIX1 & _LOW
            z = ((z ^ (z >> 27)) & _LOW) * _MIX2 & _LOW
            z ^= z >> 31
            lanes = array("Q", z.to_bytes(len(chunk) << 4, "little"))
            if sys.byteorder == "big":
                lanes.byteswap()
            out += map(operator.mod, lanes[0::2], chunk)
            state = (state + len(chunk) * _GAMMA) & _MASK
        self._state = state
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, descending index order (normative)."""
        fisher_yates(items, self.below_each(range(len(items), 1, -1)))

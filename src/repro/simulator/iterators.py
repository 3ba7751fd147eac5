"""Iterator Tables: the specialized on-chip data access mechanism.

Section 3.2 / Figure 7: each namespace has an Iterator Table whose
entries hold an (offset, stride-per-loop-level) tuple. A compute operand
``(ns id, iter idx)`` selects one entry; the front-end computes
``offset + sum(stride[l] * loop_counter[l])`` in its own pipeline stage,
in parallel with compute — no address-arithmetic instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..isa import Namespace


class IteratorError(ValueError):
    """Bad iterator configuration (index overflow, missing entry)."""


@dataclass
class IteratorEntry:
    """One Iterator Table entry: base offset + one stride per loop level.

    Strides are configured by consecutive ``ITERATOR_CONFIG.STRIDE``
    instructions, outermost loop level first (the compiler emits them in
    the same order it emits ``LOOP.SET_ITER``).
    """

    base: int = 0
    strides: List[int] = field(default_factory=list)

    def address(self, counters: Sequence[int]) -> int:
        addr = self.base
        for stride, counter in zip(self.strides, counters):
            addr += stride * counter
        return addr

    @property
    def innermost_stride(self) -> int:
        return self.strides[-1] if self.strides else 0


class IteratorTable:
    """The per-namespace table of iterator entries."""

    def __init__(self, namespace: Namespace, entries: int):
        self.namespace = namespace
        self.capacity = entries
        self.entries: Dict[int, IteratorEntry] = {}

    def _entry(self, idx: int) -> IteratorEntry:
        if not 0 <= idx < self.capacity:
            raise IteratorError(
                f"{self.namespace.name}: iterator index {idx} exceeds the "
                f"{self.capacity}-entry table (5-bit field)"
            )
        return self.entries.setdefault(idx, IteratorEntry())

    def set_base(self, idx: int, base: int) -> None:
        entry = self._entry(idx)
        entry.base = base
        entry.strides.clear()

    def push_stride(self, idx: int, stride: int) -> None:
        self._entry(idx).strides.append(stride)

    def lookup(self, idx: int) -> IteratorEntry:
        if idx not in self.entries:
            raise IteratorError(
                f"{self.namespace.name}: iterator {idx} used before configuration"
            )
        return self.entries[idx]


def build_iterator_tables(entries: int) -> Dict[Namespace, IteratorTable]:
    return {ns: IteratorTable(ns, entries) for ns in Namespace}

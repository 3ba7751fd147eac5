"""Vectorized (instruction-major) nest execution for the machine.

The detailed machine replays loop bodies point-major, exactly like the
Code Repeater — bit-exact but slow in Python. Because the compiler's
dependency relaxation (Section 6) makes body instructions point-wise
independent, a nest can instead be executed *instruction-major* with
numpy over the whole iteration grid. This module implements that fast
path with a hazard check that falls back to the scalar interpreter when
independence cannot be proven, so results are always identical.

Three writer classes are proven safe (``supported``):

* **injective** destinations (each grid point writes a distinct
  element) — readers must share the writer's walk;
* **reductions** (MACC / ADD / MAX / MIN into a duplicated destination)
  — folded over the duplicated levels; trailing consumers may read the
  accumulator when their own duplicated levels cover the reduction's,
  so last-wins stores observe only the fully-reduced value;
* **streamed temporaries** (any other opcode writing a duplicated
  destination, e.g. a per-row scalar recomputed at every point of a
  softmax body) — the full per-point value grid is *forwarded* to later
  same-walk readers, and memory receives the last point's slice, which
  is exactly the point-major final state. A temporary may also be
  read-modify-written *within* one point (RMSNorm's shift / divide /
  scale chain through one scratch slot): the aliasing read is safe when
  an earlier statement already wrote this point's value on the same
  walk, because the forwarded grid is exact per point.

Legality is proved once per execution plan, not per run: the machine's
plan builder (:func:`repro.simulator.machine.build_plan`) resolves each
nest's iterator entries, asks ``supported`` whether instruction-major
order equals point-major order and, if so, ``bind``s every statement to
its address grids and its one numpy kernel. ``run`` then only executes
those kernels on a machine's scratchpads.

Write-back matches the scalar ALU: an active DATATYPE_CAST mode clips
the unwrapped value (a MUL product, a MACC sum, a DIV quotient) and only
then wraps to 32 bits. An accumulating reduction (MACC or ADD into a
duplicated destination) saturates at every point under a cast, which one
vectorized sum cannot express, so such a nest is not ``cast_exact`` and
the machine replays it point-major while a cast mode is active.

Enabled with ``TandemMachine(..., fast=True)``; equivalence against the
scalar path is asserted by tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..compiler.integer_ops import (
    v_add,
    v_and,
    v_lshift,
    v_max,
    v_min,
    v_or,
    v_quot,
    v_rshift,
    v_sub,
    w32,
)
from ..isa import AluFunc, CalculusFunc, ComparisonFunc, Instruction, Opcode
from .alu import is_unary

#: Binary kernels on the value *before* write-back: MUL keeps the 64-bit
#: product and DIV the unwrapped quotient, as the scalar ALU does, so a
#: cast mode saturates them before they wrap.
_BINARY = {
    AluFunc.ADD: v_add, AluFunc.SUB: v_sub, AluFunc.MUL: np.multiply,
    AluFunc.DIV: v_quot, AluFunc.MAX: v_max, AluFunc.MIN: v_min,
    AluFunc.RSHIFT: v_rshift, AluFunc.LSHIFT: v_lshift,
    AluFunc.AND: v_and, AluFunc.OR: v_or,
}
_CALCULUS = {
    CalculusFunc.ABS: lambda x: w32(np.abs(x)),
    CalculusFunc.SIGN: np.sign,
    CalculusFunc.NEG: lambda x: w32(-x),
}
_COMPARE = {
    ComparisonFunc.EQ: np.equal, ComparisonFunc.NE: np.not_equal,
    ComparisonFunc.GT: np.greater, ComparisonFunc.GE: np.greater_equal,
    ComparisonFunc.LT: np.less, ComparisonFunc.LE: np.less_equal,
}

#: Accumulation modes for read-modify-write destinations, used to prove
#: two same-buffer accumulations commute.
_REDUCER_MODE = {AluFunc.ADD: "add", AluFunc.MAX: "max", AluFunc.MIN: "min"}

#: Saturation bounds per DATATYPE_CAST mode (``None``: plain INT32).
_CAST_BOUNDS = {f"fxp{bits}": (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
                for bits in (16, 8, 4)}

_INJECTIVE, _REDUCTION, _TEMP = "inj", "red", "temp"


def _saturate(values, bounds):
    """Scalar write-back: clip to the cast width if one is active, else
    wrap to 32 bits."""
    if bounds is not None:
        return np.clip(values, *bounds)
    return w32(values)


def _full(values: np.ndarray, counts: Tuple[int, ...]) -> np.ndarray:
    """``values`` over the whole loop grid (most already are)."""
    if values.shape == counts:
        return values
    return np.broadcast_to(values, counts)


@lru_cache(maxsize=4096)
def address_grid(base: int, strides: Tuple[int, ...],
                  counts: Tuple[int, ...]) -> np.ndarray:
    """Flat, read-only addresses of a walk over the loop grid ``counts``
    (C order); equal walks share one array across nests and plans."""
    addr = np.full(counts, base, dtype=np.int64)
    for level, count in enumerate(counts):
        stride = strides[level] if level < len(strides) else 0
        if stride:
            shape = [1] * len(counts)
            shape[level] = count
            addr = addr + stride * np.arange(count).reshape(shape)
    flat = addr.reshape(-1)
    flat.flags.writeable = False
    return flat


def _walk_key(entry, levels: int) -> Tuple:
    strides = tuple(entry.strides[:levels]) + (0,) * max(
        0, levels - len(entry.strides))
    return (entry.base, strides)


#: A bound statement: ``kernel(pads, bounds, fwd)`` over the machine's
#: scratchpad dict, the active cast bounds and this run's forwarded grids.
Kernel = Callable[[Dict, object, Dict], None]


class FastNestExecutor:
    """One nest, instruction-major: ``supported`` gates, ``bind`` resolves
    once, ``run`` executes on a machine."""

    def __init__(self, counts: Sequence[int], body: Sequence[Instruction],
                 entries: Dict):
        self.counts = tuple(counts)
        self.body = body
        self.levels = len(self.counts)
        #: Operand -> its resolved iterator entry at this nest.
        self._entries = entries
        self._kernels: Tuple[Kernel, ...] = ()
        #: False when a kernel sums a reduction, which a cast mode would
        #: have to saturate at every point.
        self.cast_exact = True

    # -- legality ----------------------------------------------------------------
    def _entry(self, operand):
        return self._entries[operand]

    def _reads_of(self, inst: Instruction):
        if is_unary(inst):
            reads = [inst.src1]
        else:
            reads = [inst.src1, inst.src2]
        if inst.opcode == Opcode.ALU and inst.func == int(AluFunc.MACC):
            # MACC reads its destination as the accumulator.
            reads.append(inst.dst)
        return reads

    def _dup_levels(self, entry) -> Tuple[int, ...]:
        return tuple(
            level for level, count in enumerate(self.counts)
            if count > 1 and (level >= len(entry.strides)
                              or entry.strides[level] == 0))

    def _classify(self, inst: Instruction, dst_entry, dup: Tuple[int, ...]):
        """Writer class for a duplicated destination, or None if unsafe."""
        if inst.opcode == Opcode.ALU:
            func = AluFunc(inst.func)
            if func == AluFunc.MACC:
                return (_REDUCTION, "add")
            if func == AluFunc.COND_MOVE:
                # Predicated partial writes along duplicated levels keep
                # a point-order-dependent carry; not expressible here.
                return None
            if func in _REDUCER_MODE:
                src1_entry = self._entry(inst.src1)
                if (inst.src1.ns, _walk_key(src1_entry, self.levels)) == (
                        inst.dst.ns, _walk_key(dst_entry, self.levels)):
                    return (_REDUCTION, _REDUCER_MODE[func])
        # Every remaining compute opcode overwrites the destination with
        # a pure function of its sources: a streamed temporary.
        return (_TEMP, None)

    def supported(self) -> bool:
        """Instruction-major == point-major for this nest?

        The proof obligations, per writer class, are spelled out in the
        module docstring; this routine classifies every statement and
        rejects the nest on the first unprovable hazard.
        """
        infos = []
        forwarded: set = set()   # (ns, walk-key) of dup writers so far
        for inst in self.body:
            dst_entry = self._entry(inst.dst)
            dup = self._dup_levels(dst_entry)
            wclass, mode = _INJECTIVE, None
            if dup:
                classified = self._classify(inst, dst_entry, dup)
                if classified is None:
                    return False
                wclass, mode = classified
                acc_reads = ([inst.src1] if wclass == _REDUCTION
                             and inst.opcode == Opcode.ALU
                             and inst.func != int(AluFunc.MACC) else [])
                dst_key = _walk_key(dst_entry, self.levels)
                for read in self._reads_of(inst):
                    if read is None or read is inst.dst or read in acc_reads:
                        continue
                    if read.ns == inst.dst.ns and \
                            self._entry(read).base == dst_entry.base:
                        if wclass == _TEMP and \
                                _walk_key(self._entry(read),
                                          self.levels) == dst_key and \
                                (read.ns, dst_key) in forwarded:
                            # Same-point RMW chain on a streamed
                            # temporary: an earlier statement wrote this
                            # point's value on the same walk, so the
                            # forwarded grid the read observes is exact.
                            continue
                        # Otherwise the read observes the previous
                        # point's write: a loop-carried dependence.
                        return False
                forwarded.add((inst.dst.ns, dst_key))
            infos.append((inst, dst_entry, dup, wclass, mode))

        # Write-write hazards: two writers of one allocation must be the
        # same class on the same walk (and commuting, for reductions),
        # otherwise the final memory state depends on the schedule.
        for i, (wi, ei, _di, ci, mi) in enumerate(infos):
            ki = _walk_key(ei, self.levels)
            for wj, ej, _dj, cj, mj in infos[i + 1:]:
                if wj.dst.ns != wi.dst.ns or ej.base != ei.base:
                    continue
                if _walk_key(ej, self.levels) != ki or cj != ci or mj != mi:
                    return False

        # Group writers by allocation; the write-write rules above made
        # each group homogeneous (one walk, one class, one mode).
        groups: Dict[Tuple, Dict] = {}
        for i, (inst, entry, dup, wclass, _mode) in enumerate(infos):
            group = groups.setdefault((inst.dst.ns, entry.base), {
                "key": (inst.dst.ns, _walk_key(entry, self.levels)),
                "class": wclass, "dup": dup, "writers": []})
            group["writers"].append(i)

        tainted: List[int] = []
        for r, (reader, _r_entry, r_dup, r_class, _r_mode) in \
                enumerate(infos):
            for read in self._reads_of(reader):
                if read is None:
                    continue
                read_entry = self._entry(read)
                group = groups.get((read.ns, read_entry.base))
                if group is None:
                    continue  # nothing in this nest writes it
                if (read.ns, _walk_key(read_entry, self.levels)) != \
                        group["key"]:
                    return False  # same buffer, different walk
                writers = group["writers"]
                if not group["dup"]:
                    continue  # injective: any order matches
                if group["class"] == _REDUCTION:
                    if r in writers:
                        # Its own RMW source, or a commuting
                        # co-accumulation into the same buffer.
                        continue
                    # A trailing consumer of the accumulator is only
                    # final-state-correct after every accumulation, and
                    # only where its own duplicated levels cover the
                    # reduction's.
                    if r < max(writers) or r_class != _TEMP or \
                            not set(group["dup"]) <= set(r_dup):
                        return False
                    tainted.append(r)
                elif not any(w < r for w in writers):
                    # Streamed temporary never yet written this point:
                    # the read would observe the previous point's value
                    # (a loop-carried dependence). With a prior writer,
                    # the forwarded grid is exact per-point.
                    return False

        # A value computed from a fully-reduced accumulator is only
        # correct at the final point; nobody may consume it in-body.
        for t in tainted:
            t_inst, t_entry = infos[t][0], infos[t][1]
            for x, (other, _e, _d, _c, _m) in enumerate(infos):
                if x == t:
                    continue
                for read in self._reads_of(other):
                    if read is not None and read.ns == t_inst.dst.ns and \
                            self._entry(read).base == t_entry.base:
                        return False
        return True

    # -- binding -------------------------------------------------------------------
    def bind(self) -> None:
        """Resolve every statement to its grids and kernel, in body order.

        ``forwarded`` tracks the (namespace, walk) keys a streamed
        temporary has written so far: a later load of one reads the
        forwarded per-point grid instead of memory.
        """
        forwarded: set = set()
        self._kernels = tuple(self._bind(inst, forwarded)
                              for inst in self.body)

    def run(self, machine) -> None:
        """Execute the bound kernels on ``machine``'s scratchpads."""
        pads = machine.pads.pads
        bounds = _CAST_BOUNDS.get(machine.cast_mode)
        fwd: Dict[Tuple, np.ndarray] = {}
        for kernel in self._kernels:
            kernel(pads, bounds, fwd)

    def _grid(self, entry, counts: Sequence[int]) -> np.ndarray:
        return address_grid(entry.base, tuple(entry.strides), tuple(counts))

    def _collapsed(self, reduced: Tuple[int, ...]) -> List[int]:
        return [1 if level in reduced else count
                for level, count in enumerate(self.counts)]

    def _loader(self, operand, forwarded: set):
        entry = self._entry(operand)
        ns = operand.ns
        key = (ns, _walk_key(entry, self.levels))
        if key in forwarded:
            def load(pads, fwd):
                value = fwd[key]
                pads[ns].reads += value.size
                return value
            return load
        addr = self._grid(entry, self.counts)
        shape, size = self.counts, addr.size

        def load(pads, fwd):
            pad = pads[ns]
            pad.reads += size
            return pad.data[addr].reshape(shape)
        return load

    def _storer(self, operand, forwarded: set):
        entry = self._entry(operand)
        ns, counts = operand.ns, self.counts
        dup = self._dup_levels(entry)
        if dup:
            # Streamed temporary: forward the full per-point grid to
            # later readers; memory keeps the last point's slice (the
            # point-major final state — duplicate-index fancy assignment
            # would leave the winner unspecified).
            key = (ns, _walk_key(entry, self.levels))
            forwarded.add(key)
            last = tuple(-1 if level in dup else slice(None)
                         for level in range(self.levels))
            addr = self._grid(entry, self._collapsed(dup))

            def store(pads, bounds, fwd, values):
                full = _full(_saturate(values, bounds), counts)
                fwd[key] = full
                pad = pads[ns]
                pad.writes += full.size
                pad.data[addr] = np.asarray(full[last]).reshape(-1)
            return store
        addr = self._grid(entry, counts)
        size = addr.size

        def store(pads, bounds, fwd, values):
            pad = pads[ns]
            pad.writes += size
            pad.data[addr] = _full(_saturate(values, bounds),
                                   counts).reshape(-1)
        return store

    def _reduced_loader(self, operand, reduced: Tuple[int, ...]):
        counts = self._collapsed(reduced)
        addr = self._grid(self._entry(operand), counts)
        ns, size = operand.ns, addr.size
        shape = tuple(c for level, c in enumerate(counts)
                      if level not in reduced)

        def load(pads):
            pad = pads[ns]
            pad.reads += size
            return pad.data[addr].reshape(shape)
        return load

    def _reduced_storer(self, operand, reduced: Tuple[int, ...]):
        addr = self._grid(self._entry(operand), self._collapsed(reduced))
        ns, size = operand.ns, addr.size

        def store(pads, bounds, values):
            pad = pads[ns]
            pad.writes += size
            pad.data[addr] = _saturate(values, bounds).reshape(-1)
        return store

    def _bind(self, inst: Instruction, forwarded: set) -> Kernel:
        """One statement's kernel; loads are bound before the store, so a
        statement never reads its own forwarded grid."""
        if inst.opcode == Opcode.CALCULUS:
            x = self._loader(inst.src1, forwarded)
            op = _CALCULUS[CalculusFunc(inst.func)]
            store = self._storer(inst.dst, forwarded)
            return lambda pads, bounds, fwd: store(
                pads, bounds, fwd, op(x(pads, fwd)))
        if inst.opcode == Opcode.COMPARISON:
            a = self._loader(inst.src1, forwarded)
            b = self._loader(inst.src2, forwarded)
            op = _COMPARE[ComparisonFunc(inst.func)]
            store = self._storer(inst.dst, forwarded)
            return lambda pads, bounds, fwd: store(
                pads, bounds, fwd,
                op(a(pads, fwd), b(pads, fwd)).astype(np.int64))

        func = AluFunc(inst.func)
        if func == AluFunc.MOVE:
            x = self._loader(inst.src1, forwarded)
            store = self._storer(inst.dst, forwarded)
            return lambda pads, bounds, fwd: store(
                pads, bounds, fwd, x(pads, fwd))
        if func == AluFunc.NOT:
            x = self._loader(inst.src1, forwarded)
            store = self._storer(inst.dst, forwarded)
            return lambda pads, bounds, fwd: store(
                pads, bounds, fwd, w32(~x(pads, fwd)))
        if func == AluFunc.COND_MOVE:
            return self._bind_cond_move(inst, forwarded)

        reduced = self._dup_levels(self._entry(inst.dst))
        if reduced and func == AluFunc.MACC:
            a = self._loader(inst.src1, forwarded)
            b = self._loader(inst.src2, forwarded)
            current = self._reduced_loader(inst.dst, reduced)
            store = self._reduced_storer(inst.dst, reduced)
            self.cast_exact = False

            def macc(pads, bounds, fwd):
                summed = (a(pads, fwd) * b(pads, fwd)).sum(axis=reduced)
                store(pads, bounds, current(pads) + summed)
            return macc
        if reduced and func in _REDUCER_MODE and (
                inst.src1.ns, _walk_key(self._entry(inst.src1),
                                        self.levels)) == (
                inst.dst.ns, _walk_key(self._entry(inst.dst), self.levels)):
            # Read-modify-write accumulation: combine src2 over the
            # reduced axes, seeded with the current destination values.
            x = self._loader(inst.src2, forwarded)
            current = self._reduced_loader(inst.dst, reduced)
            store = self._reduced_storer(inst.dst, reduced)
            if func == AluFunc.ADD:
                self.cast_exact = False

                def combine(cur, src):
                    return w32(cur + src.sum(axis=reduced))
            elif func == AluFunc.MAX:
                def combine(cur, src):
                    return np.maximum(cur, src.max(axis=reduced))
            else:
                def combine(cur, src):
                    return np.minimum(cur, src.min(axis=reduced))

            def accumulate(pads, bounds, fwd):
                src = x(pads, fwd)
                store(pads, bounds, combine(current(pads), src))
            return accumulate

        a = self._loader(inst.src1, forwarded)
        b = self._loader(inst.src2, forwarded)
        if func == AluFunc.MACC:
            acc = self._loader(inst.dst, forwarded)
            store = self._storer(inst.dst, forwarded)

            def macc_point(pads, bounds, fwd):
                av, bv = a(pads, fwd), b(pads, fwd)
                store(pads, bounds, fwd, acc(pads, fwd) + av * bv)
            return macc_point
        op = _BINARY[func]
        store = self._storer(inst.dst, forwarded)
        return lambda pads, bounds, fwd: store(
            pads, bounds, fwd, op(a(pads, fwd), b(pads, fwd)))

    def _bind_cond_move(self, inst: Instruction, forwarded: set) -> Kernel:
        flags = self._loader(inst.src2, forwarded)
        values = self._loader(inst.src1, forwarded)
        addr = self._grid(self._entry(inst.dst), self.counts)
        ns, counts = inst.dst.ns, self.counts

        def cond_move(pads, bounds, fwd):
            mask = np.broadcast_to(flags(pads, fwd) != 0, counts).reshape(-1)
            picked = np.broadcast_to(values(pads, fwd), counts).reshape(-1)
            pad = pads[ns]
            pad.writes += int(mask.sum())
            pad.data[addr[mask]] = _saturate(picked, bounds)[mask]
        return cond_move

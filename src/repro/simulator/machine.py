"""The detailed Tandem Processor machine.

Runs a compiled :class:`~repro.isa.TandemProgram` from its execution
plan. :func:`build_plan` walks the program's words once, the way the
hardware configures its Iterator Tables and Code Repeater once per
nest: it resolves every compute operand to its (base, strides) walk,
times each nest with the shared :mod:`pipeline` model, proves once per
plan whether the nest may run instruction-major
(:mod:`~repro.simulator.fastexec`), and folds all static cycles, energy
and telemetry counters. Plans are memoized per distinct program
(:func:`plan_for`); every program starts from empty Iterator Tables.

:meth:`TandemMachine.run` then replays only what depends on data or
bindings, in program order: immediate writes, datatype casts, the
loop nests on real scratchpad data, SYNC events stamped with the
running cycle count, PERMUTE through the permute engine and TILE_LD_ST
through the Data Access Engine.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..isa import (
    AluFunc,
    CalculusFunc,
    ComparisonFunc,
    DatatypeConfigFunc,
    Instruction,
    IteratorConfigFunc,
    LdStFunc,
    LoopFunc,
    Namespace,
    Opcode,
    Operand,
    PermuteFunc,
    SyncFunc,
    TandemProgram,
)
from ..isa.encoding import EncodingError
from ..telemetry import get_telemetry
from .alu import (
    ALU_OPS,
    CALCULUS_OPS,
    COMPARISON_OPS,
    cast_value,
    is_unary,
    wrap32,
)
from .dae import DataAccessEngine, DramStore, TileTransfer
from .energy import EnergyLedger
from .fastexec import FastNestExecutor, address_grid
from .iterators import IteratorEntry, build_iterator_tables
from .params import SimParams
from .pipeline import BodyOpMeta, NestTiming, nest_points, nest_timing
from .scratchpad import ScratchpadFile


class MachineError(RuntimeError):
    """Illegal instruction sequence (compiler bug surfaced at runtime)."""


@dataclass(frozen=True)
class PermuteBinding:
    """Resolved operands for one PERMUTE.START (layout transformation)."""

    src_ns: Namespace
    src_base: int
    dst_ns: Namespace
    dst_base: int
    shape: Tuple[int, ...]
    perm: Tuple[int, ...]
    cross_lane: bool = True


@dataclass
class SyncEvent:
    """A synchronization instruction observed at a given cycle."""

    func: SyncFunc
    group_id: int
    cycle: int


@dataclass
class MachineResult:
    """Outcome of running one program (one tile's non-GEMM work)."""

    cycles: int = 0
    compute_cycles: int = 0
    dae_cycles: int = 0
    config_cycles: int = 0
    permute_cycles: int = 0
    vector_issues: int = 0
    scalar_ops: int = 0
    instructions_decoded: int = 0
    energy: EnergyLedger = field(default_factory=EnergyLedger)
    sync_events: List[SyncEvent] = field(default_factory=list)
    obuf_release_cycle: Optional[int] = None

    @property
    def pipelined_cycles(self) -> int:
        """Tile latency with the DAE double-buffered against compute.

        Section 3.1: tile transfers appear only at tile boundaries and
        the Data Access Engine streams the next tile while the pipeline
        computes on the current one, so the slower of the two paths sets
        the tile rate.
        """
        compute = (self.compute_cycles + self.config_cycles
                   + self.permute_cycles)
        return max(compute, self.dae_cycles)

    def merge(self, other: "MachineResult") -> None:
        self.cycles += other.cycles
        self.compute_cycles += other.compute_cycles
        self.dae_cycles += other.dae_cycles
        self.config_cycles += other.config_cycles
        self.permute_cycles += other.permute_cycles
        self.vector_issues += other.vector_issues
        self.scalar_ops += other.scalar_ops
        self.instructions_decoded += other.instructions_decoded
        self.energy = self.energy.add(other.energy)


def charge_nest(timing: NestTiming, params: SimParams,
                result: MachineResult) -> None:
    """Charge one nest's cycles and energy onto ``result``.

    Shared by the detailed machine and the analytic model so the two
    agree by construction on nest bodies.
    """
    energy = params.energy
    result.cycles += timing.cycles
    result.compute_cycles += timing.cycles
    result.vector_issues += timing.vector_issues
    result.scalar_ops += timing.scalar_points
    result.energy.alu_pj += timing.scalar_points * energy.alu_pj_per_lane_op
    result.energy.spad_pj += timing.spad_accesses * energy.spad_pj_per_word
    result.energy.other_pj += (timing.vector_issues *
                               energy.pipeline_pj_per_issue)
    if params.overlay.explicit_address_calc:
        # Address arithmetic runs as ordinary instructions: decode + one
        # scalar ALU op each, no specialized loop/addr logic to charge.
        result.energy.other_pj += (timing.addr_calc_issues *
                                   energy.decode_pj_per_inst)
        result.energy.alu_pj += (timing.addr_calc_issues *
                                 energy.alu_pj_per_lane_op)
    else:
        result.energy.loop_addr_pj += (timing.vector_issues *
                                       energy.loop_addr_pj_per_issue)
    if timing.regfile_issues:
        lanes = params.tandem.lanes
        result.energy.regfile_pj += (timing.regfile_issues * lanes *
                                     (energy.regfile_pj_per_word +
                                      energy.spad_pj_per_word))
        result.energy.other_pj += (timing.regfile_issues *
                                   energy.decode_pj_per_inst)
    if params.overlay.regfile_loads:
        # Compute operands read from / written to the multi-ported vector
        # register file instead of the scratchpads.
        result.energy.regfile_pj += (timing.scalar_points * 3 *
                                     energy.regfile_pj_per_word)
    if timing.loop_branch_cycles:
        result.energy.other_pj += (timing.loop_branch_cycles *
                                   energy.decode_pj_per_inst)


# ---------------------------------------------------------------------------
# Execution plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NestPlan:
    """One Code Repeater nest, resolved when its plan was built."""

    counts: Tuple[int, ...]
    body: Tuple[Instruction, ...]
    #: Each operand's iterator entry (base, strides) at this nest.
    entries: Dict[Operand, IteratorEntry]
    metas: Tuple[BodyOpMeta, ...]
    timing: NestTiming
    #: The bound instruction-major executor, or ``None`` when
    #: :meth:`FastNestExecutor.supported` rejected the nest.
    fast: Optional[FastNestExecutor]

    @cached_property
    def point_ops(self) -> Tuple[tuple, ...]:
        """The body for the point-major interpreter, resolved on its
        first use: per instruction its kind, scalar function and each
        read or written operand's (namespace, address per point)."""
        return tuple(_point_op(inst, self.entries, self.counts)
                     for inst in self.body)


#: Point-major statement kinds (see :meth:`TandemMachine._run_points`).
_UNARY, _BINARY, _MACC, _COND_MOVE = range(4)


def _point_op(inst: Instruction, entries: Dict[Operand, IteratorEntry],
              counts: Tuple[int, ...]) -> tuple:
    if inst.opcode == Opcode.ALU:
        func = AluFunc(inst.func)
        if func == AluFunc.MACC:
            kind, fn = _MACC, None
        elif func == AluFunc.COND_MOVE:
            kind, fn = _COND_MOVE, None
        elif func in (AluFunc.NOT, AluFunc.MOVE):
            op = ALU_OPS[func]
            kind, fn = _UNARY, lambda a: op(a, 0)
        else:
            kind, fn = _BINARY, ALU_OPS[func]
    elif inst.opcode == Opcode.CALCULUS:
        kind, fn = _UNARY, CALCULUS_OPS[CalculusFunc(inst.func)]
    elif inst.opcode == Opcode.COMPARISON:
        kind, fn = _BINARY, COMPARISON_OPS[ComparisonFunc(inst.func)]
    else:  # pragma: no cover
        raise MachineError(f"not a compute opcode: {inst.opcode}")

    def walk(operand):
        entry = entries[operand]
        return operand.ns, address_grid(entry.base, tuple(entry.strides),
                                        counts).tolist()
    src2 = walk(inst.src2) if kind != _UNARY else (None, None)
    return (kind, fn) + walk(inst.dst) + walk(inst.src1) + src2


#: Dynamic plan steps, replayed in program order by ``TandemMachine.run``.
_NEST, _IMM, _CAST, _SYNC, _PERMUTE, _LDST = range(6)


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything about one program that does not depend on data.

    ``steps`` holds the dynamic work as ``(kind, arg)`` pairs. ``static``
    holds the static totals; its energy sums the decode and nest charges
    in the order the words issue them, with ``spad_pj``/``loop_addr_pj``
    cut at the first PERMUTE.START (each START step carries the static
    charges that follow it, to be added after its own).
    """

    instructions: List[Instruction]
    steps: Tuple[Tuple[int, object], ...]
    static: MachineResult
    counters: Dict[str, int]


class _PlanBuilder:
    """One pass over a program's words (see :func:`build_plan`)."""

    _FUNC_ENUMS = {Opcode.ALU: AluFunc, Opcode.CALCULUS: CalculusFunc,
                   Opcode.COMPARISON: ComparisonFunc}

    def __init__(self, params: SimParams):
        self.params = params
        self.tables = build_iterator_tables(params.tandem.iter_table_entries)
        #: (ns, iter idx) -> entry snapshot, until that entry is rewritten.
        self.snapshots: Dict[Tuple[Namespace, int], IteratorEntry] = {}
        self.static = MachineResult()
        self.steps: List[Tuple[int, object]] = []
        self.counters: Dict[str, int] = {}
        self.imms: Optional[list] = None
        #: spad/loop-addr energy at the first PERMUTE.START, and the
        #: static addends since the latest one.
        self.heads: Optional[Tuple[float, float]] = None
        self.tail: Optional[list] = None

    def build(self, program: TandemProgram) -> ExecutionPlan:
        static = self.static
        decode_pj = self.params.energy.decode_pj_per_inst
        pending_loops: List[Tuple[int, int]] = []
        collecting: Optional[int] = None
        body: List[Instruction] = []
        for inst in program:
            static.instructions_decoded += 1
            static.energy.other_pj += decode_pj
            if collecting is not None:
                body.append(inst)
                if len(body) == collecting:
                    self._nest(pending_loops, body)
                    pending_loops = []
                    collecting = None
                    body = []
                continue
            self._word(inst, pending_loops)
            if inst.opcode == Opcode.LOOP and \
                    inst.func == int(LoopFunc.SET_NUM_INST):
                collecting = inst.imm
                if collecting <= 0:
                    raise MachineError(
                        "LOOP.SET_NUM_INST with non-positive body")
        if collecting is not None:
            raise MachineError("program ended while collecting a loop body")

        if self.heads is not None:
            static.energy.spad_pj, static.energy.loop_addr_pj = self.heads
        return ExecutionPlan(
            instructions=list(program.instructions),
            steps=tuple((kind, tuple(arg) if kind in (_IMM, _PERMUTE)
                         else arg) for kind, arg in self.steps),
            static=static, counters=self.counters)

    # -- helpers -------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _emit(self, kind: int, arg) -> None:
        self.imms = None
        self.steps.append((kind, arg))

    def _config_cycle(self) -> None:
        self.static.cycles += 1
        self.static.config_cycles += 1

    # -- one word outside a loop body ----------------------------------------
    def _word(self, inst: Instruction,
              pending_loops: List[Tuple[int, int]]) -> None:
        opcode = inst.opcode
        if opcode == Opcode.SYNC:
            self._config_cycle()
            func = SyncFunc(inst.func)
            self._emit(_SYNC, (func, inst.field5, self.static.cycles))
            self._count("sim.sync.events")
            if func == SyncFunc.SIMD_END_BUF:
                self._count("sim.obuf.handoffs")
        elif opcode == Opcode.ITERATOR_CONFIG:
            self._configure_iterator(inst)
            self._config_cycle()
            self._count("sim.iter_table.writes")
        elif opcode == Opcode.DATATYPE_CONFIG or \
                opcode == Opcode.DATATYPE_CAST:
            mode = DatatypeConfigFunc(inst.func).name.lower()
            self._emit(_CAST, None if mode == "fxp32" else mode)
            self._config_cycle()
        elif opcode == Opcode.LOOP:
            self._configure_loop(inst, pending_loops)
            self._config_cycle()
        elif opcode == Opcode.PERMUTE:
            if PermuteFunc(inst.func) != PermuteFunc.START:
                self._config_cycle()
                return
            if self.heads is None:
                energy = self.static.energy
                self.heads = (energy.spad_pj, energy.loop_addr_pj)
            self.tail = []
            self._emit(_PERMUTE, self.tail)
        elif opcode == Opcode.TILE_LD_ST:
            func = LdStFunc(inst.func)
            if func not in (LdStFunc.LD_START, LdStFunc.ST_START):
                self._config_cycle()
                return
            self._emit(_LDST, func)
        elif opcode in (Opcode.ALU, Opcode.CALCULUS, Opcode.COMPARISON):
            # Bare compute instruction outside a loop body: one point.
            self._nest([], [inst])
        else:  # pragma: no cover - all opcodes handled
            raise MachineError(f"unhandled opcode {opcode}")

    def _configure_iterator(self, inst: Instruction) -> None:
        func = IteratorConfigFunc(inst.func)
        ns = Namespace(inst.field3)
        if func == IteratorConfigFunc.BASE_ADDR:
            self.tables[ns].set_base(inst.field5, inst.imm)
            self.snapshots.pop((ns, inst.field5), None)
        elif func == IteratorConfigFunc.STRIDE:
            self.tables[ns].push_stride(inst.field5, inst.imm)
            self.snapshots.pop((ns, inst.field5), None)
        else:
            # Immediates are data: the write happens when the program
            # runs. The 16-bit field is sign-extended by the decoder; an
            # IMM_HIGH follow-up overwrites the upper half if needed.
            high = func == IteratorConfigFunc.IMM_HIGH
            value = inst.imm & 0xFFFF
            if not high and value >= 1 << 15:
                value -= 1 << 16
            if self.imms is None:
                self.imms = []
                self.steps.append((_IMM, self.imms))
            self.imms.append((inst.field5, value, high))

    def _configure_loop(self, inst: Instruction,
                        pending_loops: List[Tuple[int, int]]) -> None:
        func = LoopFunc(inst.func)
        if func == LoopFunc.SET_ITER:
            if len(pending_loops) >= self.params.tandem.max_loop_levels:
                raise MachineError("loop nest deeper than 8 levels")
            if inst.imm <= 0:
                raise MachineError(
                    f"loop {inst.field3} with {inst.imm} iterations")
            pending_loops.append((inst.field3, inst.imm))
        elif func == LoopFunc.SET_INDEX:
            # Iterator binding metadata; address mapping is carried by the
            # iterator-table strides in this implementation.
            pass

    # -- one nest ------------------------------------------------------------
    def _resolve(self, operand: Operand,
                 entries: Dict[Operand, IteratorEntry]) -> IteratorEntry:
        entry = entries.get(operand)
        if entry is None:
            key = (operand.ns, operand.iter_idx)
            entry = self.snapshots.get(key)
            if entry is None:
                live = self.tables[operand.ns].lookup(operand.iter_idx)
                entry = IteratorEntry(live.base, list(live.strides))
                self.snapshots[key] = entry
            entries[operand] = entry
        return entry

    def _nest(self, loops: List[Tuple[int, int]],
              body: List[Instruction]) -> None:
        params = self.params
        counts = tuple(count for _, count in loops) or (1,)
        entries: Dict[Operand, IteratorEntry] = {}
        metas = []
        for inst in body:
            dst_entry = self._resolve(inst.dst, entries)
            sources = (inst.src1,) if is_unary(inst) else (inst.src1,
                                                            inst.src2)
            src_strides = []
            mem_reads = 0
            for src in sources:
                if src is None:
                    continue
                src_strides.append(
                    self._resolve(src, entries).innermost_stride)
                if src.ns != Namespace.IMM:
                    mem_reads += 1
            metas.append(BodyOpMeta(
                dst_inner_stride=dst_entry.innermost_stride,
                src_inner_strides=tuple(src_strides),
                mem_reads=mem_reads,
                mem_writes=1,
            ))
        timing = nest_timing(counts, metas, params.tandem, params.overlay)
        charge_nest(timing, params, self.static)
        if self.tail is not None:
            # After a PERMUTE.START these two sums continue from a
            # data-dependent value, so keep this nest's own addends.
            probe = MachineResult()
            charge_nest(timing, params, probe)
            self.tail.append((probe.energy.spad_pj,
                              probe.energy.loop_addr_pj))
        executor = FastNestExecutor(counts, tuple(body), entries)
        fast = None
        if executor.supported():
            executor.bind()
            fast = executor
        self._count_nest(body, counts, timing)
        self._emit(_NEST, NestPlan(counts, tuple(body), entries,
                                   tuple(metas), timing, fast))

    def _count_nest(self, body: List[Instruction], counts: Tuple[int, ...],
                    timing: NestTiming) -> None:
        """Per-nest counters, derived statically from the body + counts.

        Derivation from the instruction shapes (not from observed
        scratchpad accesses) keeps the dumps identical between the
        point-major interpreter and the instruction-major fast path.
        """
        count = self._count
        points = nest_points(counts)
        word_bytes = 4
        count("sim.code_repeater.fetches", len(body))
        if points > 1:
            count("sim.code_repeater.replays", (points - 1) * len(body))
        count("sim.pipeline.vector_issues", timing.vector_issues)
        if timing.reduce_tree_cycles:
            count("sim.stall.reduce_tree_cycles", timing.reduce_tree_cycles)
        count("sim.stall.pipeline_fill_cycles",
              self.params.tandem.pipeline_depth)
        for inst in body:
            func_name = self._FUNC_ENUMS[inst.opcode](inst.func).name.lower()
            count(f"sim.alu.ops.{inst.opcode.name.lower()}.{func_name}",
                  points)
            sources = ((inst.src1,) if is_unary(inst)
                       else (inst.src1, inst.src2))
            srcs = [src for src in sources if src is not None]
            count("sim.iter_table.reads", points * (1 + len(srcs)))
            dst_ns = inst.dst.ns.name.lower()
            count(f"sim.spad.{dst_ns}.writes", points)
            count(f"sim.spad.{dst_ns}.write_bytes", points * word_bytes)
            if inst.opcode == Opcode.ALU and inst.func == int(AluFunc.MACC):
                # The accumulator destination is read-modify-write.
                count(f"sim.spad.{dst_ns}.reads", points)
                count(f"sim.spad.{dst_ns}.read_bytes", points * word_bytes)
            for src in srcs:
                if src.ns != Namespace.IMM:
                    src_ns = src.ns.name.lower()
                    count(f"sim.spad.{src_ns}.reads", points)
                    count(f"sim.spad.{src_ns}.read_bytes",
                          points * word_bytes)


def build_plan(program: TandemProgram, params: SimParams) -> ExecutionPlan:
    """Walk ``program``'s words once into its :class:`ExecutionPlan`.

    The walk starts from empty Iterator Tables, so a compute operand
    whose iterator this program never configured raises
    :class:`~repro.simulator.IteratorError`. Malformed loop structure
    raises :class:`MachineError`. Nothing about the plan depends on
    scratchpad data, bindings or the machine it later runs on.
    """
    return _PlanBuilder(params).build(program)


#: Most programs a process keeps plans for (least recently run first out).
PLAN_CACHE_SIZE = 256
_PLANS: "OrderedDict[Tuple, ExecutionPlan]" = OrderedDict()


def plan_for(program: TandemProgram, params: SimParams) -> ExecutionPlan:
    """The plan of ``program`` under ``params``, built once per distinct
    program.

    The key is the program's words (:meth:`TandemProgram.words_key`) and
    the parameters a plan reads. A :class:`TandemProgram` is mutable, and
    an instruction whose field does not fit the word packs like another,
    so a hit also requires the plan's instructions to equal the
    program's: for programs decoded from the same words that is an
    identity check per word.
    """
    try:
        key = (program.words_key(), params.tandem, params.energy,
               params.overlay)
    except EncodingError:
        return build_plan(program, params)
    plan = _PLANS.get(key)
    if plan is None or plan.instructions != program.instructions:
        plan = build_plan(program, params)
        _PLANS[key] = plan
        if len(_PLANS) > PLAN_CACHE_SIZE:
            _PLANS.popitem(last=False)
    _PLANS.move_to_end(key)
    return plan


class TandemMachine:
    """Functional + cycle-level model of the Tandem Processor pipeline."""

    def __init__(self, params: Optional[SimParams] = None,
                 dram: Optional[DramStore] = None, fast: bool = False):
        self.params = params or SimParams()
        #: Instruction-major numpy execution of hazard-free nests
        #: (see :mod:`repro.simulator.fastexec`); falls back to the
        #: point-major interpreter whenever independence is unproven.
        self.fast = fast
        tp = self.params.tandem
        self.pads = ScratchpadFile.build(
            interim_words=tp.interim_buf_words,
            obuf_words=tp.obuf_words,
            imm_slots=tp.imm_slots,
            vmem_words=tp.interim_buf_words,
        )
        self.dram = dram or DramStore()
        self.dae = DataAccessEngine(self.dram, self.pads, self.params.dram,
                                    tp.frequency_hz)
        self.cast_mode: Optional[str] = None
        #: Active telemetry session while ``run`` executes with telemetry
        #: enabled; ``None`` otherwise, so instrumented paths pay one
        #: attribute check and nothing else.
        self._tel = None
        self._first_transfer = True

    # -- public API -----------------------------------------------------------
    def run(self, program: TandemProgram,
            transfers: Iterable[TileTransfer] = (),
            permutes: Iterable[PermuteBinding] = ()) -> MachineResult:
        """Execute a program; bindings are consumed in instruction order."""
        plan = plan_for(program, self.params)
        result = replace(plan.static, energy=replace(plan.static.energy),
                         sync_events=[])
        transfer_queue: Deque[TileTransfer] = deque(transfers)
        permute_queue: Deque[PermuteBinding] = deque(permutes)
        self._first_transfer = True
        tel = get_telemetry()
        self._tel = tel if tel.enabled else None
        bytes_loaded0 = self.dae.bytes_loaded
        bytes_stored0 = self.dae.bytes_stored

        for kind, arg in plan.steps:
            if kind == _NEST:
                self._run_nest(arg)
            elif kind == _IMM:
                self._write_immediates(arg)
            elif kind == _LDST:
                self._tile_ldst(arg, result, transfer_queue)
            elif kind == _SYNC:
                func, group_id, static_cycles = arg
                # Static cycles up to this word, plus the data-dependent
                # DAE and permute cycles issued so far.
                cycle = (static_cycles + result.dae_cycles
                         + result.permute_cycles)
                result.sync_events.append(SyncEvent(func, group_id, cycle))
                if func == SyncFunc.SIMD_END_BUF:
                    result.obuf_release_cycle = cycle
            elif kind == _CAST:
                self.cast_mode = arg
            else:
                self._permute(arg, result, permute_queue)
        result.cycles += result.dae_cycles + result.permute_cycles

        if self._tel is not None:
            for name, value in plan.counters.items():
                self._tel.count(name, value)
            self._finish_run_counters(result, bytes_loaded0, bytes_stored0)
            self._tel = None
        return result

    # -- telemetry -----------------------------------------------------------
    def _finish_run_counters(self, result: MachineResult,
                             bytes_loaded0: int, bytes_stored0: int) -> None:
        """Program-level counters: cycle breakdown, DAE overlap, traffic.

        The overlap/stall split mirrors :meth:`MachineResult.pipelined_cycles`:
        the DAE double-buffers against compute, so the shorter path hides
        entirely and the difference stalls the tile on the longer one.
        """
        count = self._tel.count
        compute = (result.compute_cycles + result.config_cycles
                   + result.permute_cycles)
        count("sim.cycles.total", result.cycles)
        count("sim.cycles.compute", result.compute_cycles)
        count("sim.cycles.config", result.config_cycles)
        count("sim.cycles.permute", result.permute_cycles)
        count("sim.cycles.dae", result.dae_cycles)
        count("sim.insts.decoded", result.instructions_decoded)
        count("sim.dae.overlap_cycles", min(compute, result.dae_cycles))
        count("sim.stall.dae_bound_cycles",
              max(0, result.dae_cycles - compute))
        count("sim.stall.compute_bound_cycles",
              max(0, compute - result.dae_cycles))
        count("sim.dae.bytes_loaded", self.dae.bytes_loaded - bytes_loaded0)
        count("sim.dae.bytes_stored", self.dae.bytes_stored - bytes_stored0)

    # -- immediates ------------------------------------------------------------
    def _write_immediates(self, writes) -> None:
        imm = self.pads[Namespace.IMM]
        for slot, value, high in writes:
            if high:
                value = wrap32((value << 16) | (imm.read(slot) & 0xFFFF))
            imm.write(slot, value)

    # -- loop-nest execution ------------------------------------------------------
    def _run_nest(self, nest: NestPlan) -> None:
        fast = nest.fast
        if self.fast and fast is not None and (
                self.cast_mode is None or fast.cast_exact):
            fast.run(self)
        else:
            self._run_points(nest)

    def _run_points(self, nest: NestPlan) -> None:
        """Point-major replay, exactly the order the Code Repeater issues
        the body: every point in C order, the whole body at each."""
        pads = self.pads.pads
        cast = self.cast_mode
        ops = [(kind, fn, pads[d_ns], d, pads[a_ns], a,
                pads[b_ns] if b_ns is not None else None, b)
               for kind, fn, d_ns, d, a_ns, a, b_ns, b in nest.point_ops]
        for p in range(nest_points(nest.counts)):
            for kind, fn, dst, d, src1, a, src2, b in ops:
                x = src1.read(a[p])
                if kind == _BINARY:
                    value = fn(x, src2.read(b[p]))
                elif kind == _UNARY:
                    value = fn(x)
                elif kind == _MACC:
                    y = src2.read(b[p])
                    value = dst.read(d[p]) + x * y
                elif src2.read(b[p]):
                    value = x
                else:
                    continue  # COND_MOVE with a false predicate
                if cast is not None:
                    value = cast_value(value, cast)
                dst.write(d[p], value)

    # -- permute engine ----------------------------------------------------------
    def _permute(self, tail, result: MachineResult,
                 permute_queue: Deque[PermuteBinding]) -> None:
        """PERMUTE.START; ``tail`` is the plan's static spad/loop-addr
        energy between this START and the next one."""
        if not permute_queue:
            raise MachineError("PERMUTE.START without a bound permutation")
        binding = permute_queue.popleft()
        src = self.pads[binding.src_ns].store_block(
            binding.src_base, int(np.prod(binding.shape)))
        permuted = np.ascontiguousarray(
            src.reshape(binding.shape).transpose(binding.perm))
        self.pads[binding.dst_ns].load_block(binding.dst_base, permuted)
        lanes = self.params.tandem.lanes
        words = permuted.size
        cycles = math.ceil(words / lanes) * (2 if binding.cross_lane else 1)
        cycles += self.params.tandem.pipeline_depth
        result.permute_cycles += cycles
        if self._tel is not None:
            self._tel.count("sim.permute.starts")
            self._tel.count("sim.permute.words", words)
        energy = self.params.energy
        result.energy.spad_pj += 2 * words * energy.spad_pj_per_word
        result.energy.loop_addr_pj += (math.ceil(words / lanes) *
                                       energy.loop_addr_pj_per_issue)
        for spad_pj, loop_addr_pj in tail:
            result.energy.spad_pj += spad_pj
            result.energy.loop_addr_pj += loop_addr_pj

    # -- Data Access Engine --------------------------------------------------------
    def _tile_ldst(self, func: LdStFunc, result: MachineResult,
                   transfer_queue: Deque[TileTransfer]) -> None:
        if not transfer_queue:
            raise MachineError(f"{func.name} without a bound tile transfer")
        transfer = transfer_queue.popleft()
        expected = "ld" if func == LdStFunc.LD_START else "st"
        if transfer.direction != expected:
            raise MachineError(
                f"{func.name} bound to a {transfer.direction!r} transfer")
        cycles, energy_pj = self.dae.execute(transfer, self._first_transfer)
        self._first_transfer = False
        result.dae_cycles += cycles
        result.energy.dram_pj += energy_pj
        if self._tel is not None:
            self._tel.count("sim.dae.loads" if func == LdStFunc.LD_START
                            else "sim.dae.stores")

"""INT32 lane ALU semantics (Section 3.4).

One function per primitive; all arithmetic wraps to 32 bits like the RTL
datapath. Multiplies produce a 64-bit internal product (Python ints are
exact) and the *compiler* is responsible for shifting products back into
range — mirroring how fixed-point non-GEMM kernels are generated.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..isa import AluFunc, CalculusFunc, ComparisonFunc, Instruction, Opcode

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def wrap32(value: int) -> int:
    value &= 0xFFFFFFFF
    if value >= 1 << 31:
        value -= 1 << 32
    return value


def _div(a: int, b: int) -> int:
    """Truncating signed division; divide-by-zero saturates like the RTL."""
    if b == 0:
        return INT32_MAX if a >= 0 else INT32_MIN
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _rshift(a: int, b: int) -> int:
    """Arithmetic right shift (rounding toward negative infinity)."""
    return a >> (b & 31)


def _lshift(a: int, b: int) -> int:
    return wrap32(a << (b & 31))


ALU_OPS: Dict[AluFunc, Callable[[int, int], int]] = {
    AluFunc.ADD: lambda a, b: wrap32(a + b),
    AluFunc.SUB: lambda a, b: wrap32(a - b),
    AluFunc.MUL: lambda a, b: a * b,  # 64-bit product; writeback wraps
    AluFunc.DIV: _div,
    AluFunc.MAX: max,
    AluFunc.MIN: min,
    AluFunc.RSHIFT: _rshift,
    AluFunc.LSHIFT: _lshift,
    AluFunc.NOT: lambda a, _b: wrap32(~a),
    AluFunc.AND: lambda a, b: a & b,
    AluFunc.OR: lambda a, b: a | b,
    AluFunc.MOVE: lambda a, _b: a,
}

CALCULUS_OPS: Dict[CalculusFunc, Callable[[int], int]] = {
    CalculusFunc.ABS: lambda a: wrap32(abs(a)),
    CalculusFunc.SIGN: lambda a: (a > 0) - (a < 0),
    CalculusFunc.NEG: lambda a: wrap32(-a),
}

COMPARISON_OPS: Dict[ComparisonFunc, Callable[[int, int], int]] = {
    ComparisonFunc.EQ: lambda a, b: int(a == b),
    ComparisonFunc.NE: lambda a, b: int(a != b),
    ComparisonFunc.GT: lambda a, b: int(a > b),
    ComparisonFunc.GE: lambda a, b: int(a >= b),
    ComparisonFunc.LT: lambda a, b: int(a < b),
    ComparisonFunc.LE: lambda a, b: int(a <= b),
}


def cast_value(value: int, target: str) -> int:
    """DATATYPE_CAST semantics: saturate into the target fixed-point width."""
    bits = {"fxp32": 32, "fxp16": 16, "fxp8": 8, "fxp4": 4}[target]
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return min(max(value, lo), hi)


def is_unary(inst: Instruction) -> bool:
    """True when ``inst`` never reads its ``src2`` operand."""
    if inst.opcode == Opcode.CALCULUS:
        return True
    return inst.opcode == Opcode.ALU and inst.func in (
        int(AluFunc.MOVE), int(AluFunc.NOT))

"""Fast (instruction-major) execution == scalar (point-major) execution.

The fast path may only be used where the hazard checker proves
independence, so outputs must be bit-identical for every operator.
"""

import numpy as np
import pytest

from repro.compiler import compile_model
from repro.graph import GraphBuilder
from repro.isa import (
    AluFunc,
    DatatypeConfigFunc,
    Namespace,
    Operand,
    TandemProgram,
    alu,
    datatype_cast,
    iterator_base,
    iterator_stride,
    loop_iter,
    loop_num_inst,
)
from repro.models import build_tinynet
from repro.npu import FunctionalRunner
from repro.simulator import TandemMachine


def _outputs(graph, bindings, fast):
    model = compile_model(graph)
    runner = FunctionalRunner(model, fast=fast)
    runner.bind(bindings)
    outs = runner.run({k: v for k, v in bindings.items()
                       if k in graph.graph_inputs})
    return {name: outs[name] for name in graph.graph_outputs}


def _assert_modes_agree(graph, bindings):
    slow = _outputs(graph, bindings, fast=False)
    fast = _outputs(graph, bindings, fast=True)
    for name in slow:
        np.testing.assert_array_equal(fast[name], slow[name],
                                      err_msg=name)


OPS = [
    ("relu", (-300, 300), {}),
    ("gelu", (-800, 800), {}),
    ("sigmoid", (-700, 700), {}),
    ("softmax", (-500, 500), {}),
    ("tanh", (-500, 500), {}),
    ("leaky_relu", (-400, 400), {"alpha": 0.1}),
    ("clip", (-900, 900), {}),
]


@pytest.mark.parametrize("op,bounds,attrs", OPS, ids=[o[0] for o in OPS])
def test_unary_ops_agree(op, bounds, attrs, rng):
    b = GraphBuilder("t")
    x = b.input("x", (5, 23), dtype="int32")
    y = getattr(b, op)(x, **attrs)
    graph = b.finish([y])
    _assert_modes_agree(graph, {"x": rng.integers(*bounds, (5, 23))})


def test_reductions_agree(rng):
    b = GraphBuilder("t")
    x = b.input("x", (1, 6, 9, 9), dtype="int32")
    pooled = b.maxpool(x, 3, 2, pad=1)
    gap = b.global_avgpool(x)
    graph = b.finish([pooled, gap])
    _assert_modes_agree(graph, {"x": rng.integers(-200, 200, (1, 6, 9, 9))})


def test_depthwise_agrees(rng):
    b = GraphBuilder("t")
    x = b.input("x", (1, 4, 10, 10), dtype="int32")
    y = b.depthwise_conv(x, 3, stride=2)
    graph = b.finish([y])
    weight = next(t for t in graph.tensors if t.startswith("w_dw"))
    _assert_modes_agree(graph, {
        "x": rng.integers(-30, 30, (1, 4, 10, 10)),
        weight: rng.integers(-5, 5, (4, 1, 3, 3)),
    })


def test_tinynet_agrees_end_to_end(rng):
    graph = build_tinynet()
    bindings = {name: rng.integers(-8, 8, spec.shape)
                for name, spec in graph.tensors.items()
                if graph.producer(name) is None}
    _assert_modes_agree(graph, bindings)


def test_cast_saturation_agrees(rng):
    b = GraphBuilder("t")
    x = b.input("x", (4, 16), dtype="int32")
    y = b.cast(x, "int8")
    graph = b.finish([y])
    _assert_modes_agree(graph, {"x": rng.integers(-5000, 5000, (4, 16))})


def test_where_agrees(rng):
    b = GraphBuilder("t")
    a = b.input("a", (3, 11), dtype="int32")
    c = b.input("c", (3, 11), dtype="int32")
    flag = b.emit("Greater", [a, c], (3, 11), "int32")
    out = b.emit("Where", [flag, a, c], (3, 11), "int32")
    graph = b.finish([out])
    _assert_modes_agree(graph, {
        "a": rng.integers(-50, 50, (3, 11)),
        "c": rng.integers(-50, 50, (3, 11)),
    })


# ---------------------------------------------------------------------------
# DATATYPE_CAST: the scalar write-back saturates the unwrapped value
# (a 64-bit MUL product, a MACC sum) and only then wraps to 32 bits.
# ---------------------------------------------------------------------------
def _cast_nest(mode, func, walks, points):
    """``DATATYPE_CAST mode`` then one ``func`` nest over IBUF1 walks
    ``(base, stride)`` for iterators 0 (src1), 1 (src2) and 2 (dst)."""
    program = TandemProgram("cast")
    program.append(datatype_cast(mode))
    for idx, (base, stride) in enumerate(walks):
        program.append(iterator_base(Namespace.IBUF1, idx, base))
        program.append(iterator_stride(Namespace.IBUF1, idx, stride))
    program.append(loop_iter(0, points))
    program.append(loop_num_inst(1))
    program.append(alu(func, Operand(Namespace.IBUF1, 2),
                       Operand(Namespace.IBUF1, 0),
                       Operand(Namespace.IBUF1, 1)))
    return program


def _run_both(program, data, words):
    outs = []
    for fast in (False, True):
        machine = TandemMachine(fast=fast)
        machine.pads[Namespace.IBUF1].load_block(0, np.array(data))
        machine.run(program)
        outs.append(list(machine.pads[Namespace.IBUF1].store_block(0, words)))
    return outs


def test_cast_saturates_a_product_before_wrapping(nest_paths):
    program = _cast_nest(DatatypeConfigFunc.FXP16, AluFunc.MUL,
                         [(0, 1), (4, 1), (8, 1)], 4)
    data = [60000, 70000, -60000, 3, 60000, 70000, 60000, 5, 0, 0, 0, 0]
    scalar, fast = _run_both(program, data, 12)
    assert scalar[8:] == [32767, 32767, -32768, 15]
    assert fast == scalar
    assert nest_paths == [False, True]  # the fast machine ran it fast


def test_cast_saturates_every_accumulation_step(nest_paths):
    # A MACC dot product saturates at each point under a cast, which a
    # vectorized sum cannot do: the fast machine replays it point-major.
    program = _cast_nest(DatatypeConfigFunc.FXP16, AluFunc.MACC,
                         [(0, 1), (4, 0), (5, 0)], 4)
    data = [30000, 30000, -30000, -30000, 1, 0]
    scalar, fast = _run_both(program, data, 6)
    assert scalar[5] == 32767 - 60000
    assert fast == scalar
    assert nest_paths == [False, False]


def test_cast_saturates_cond_move(nest_paths):
    program = _cast_nest(DatatypeConfigFunc.FXP8, AluFunc.COND_MOVE,
                         [(0, 1), (3, 1), (6, 1)], 3)
    data = [300, -300, 5, 1, 1, 0, 9, 9, 9]
    scalar, fast = _run_both(program, data, 9)
    assert scalar[6:] == [127, -128, 9]
    assert fast == scalar
    assert nest_paths == [False, True]


# ---------------------------------------------------------------------------
# Shapes newly covered by the widened hazard checker: streamed recipe
# temporaries (softmax's i-exp chain), reductions with trailing
# consumers, and LayerNorm-style ReduceMean chains.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(1, 64), (7, 33), (13, 96)], ids=str)
def test_softmax_streamed_temps_agree(shape, rng):
    b = GraphBuilder("t")
    x = b.input("x", shape, dtype="int32")
    graph = b.finish([b.softmax(x)])
    _assert_modes_agree(graph, {"x": rng.integers(-500, 500, shape)})


@pytest.mark.parametrize("keepdims", [True, False])
def test_reduce_mean_agrees(keepdims, rng):
    b = GraphBuilder("t")
    x = b.input("x", (6, 32), dtype="int32")
    graph = b.finish([b.reduce_mean(x, axis=-1, keepdims=keepdims)])
    _assert_modes_agree(graph, {"x": rng.integers(-200, 200, (6, 32))})


def test_reduce_mean_chain_agrees(rng):
    # The LayerNorm front half: a reduction whose result feeds a
    # broadcast consumer, as in the paper's GPT-2 hot path.
    b = GraphBuilder("t")
    x = b.input("x", (6, 32), dtype="int32")
    mean = b.reduce_mean(x, axis=-1, keepdims=True)
    graph = b.finish([b.sub(x, mean)])
    _assert_modes_agree(graph, {"x": rng.integers(-200, 200, (6, 32))})


def test_avgpool_agrees(rng):
    b = GraphBuilder("t")
    x = b.input("x", (1, 4, 9, 9), dtype="int32")
    graph = b.finish([b.avgpool(x, 3, 2, pad=1)])
    _assert_modes_agree(graph, {"x": rng.integers(-200, 200, (1, 4, 9, 9))})


@pytest.mark.parametrize("op", ["softmax", "gelu", "sigmoid", "tanh"])
def test_emerging_ops_take_fast_path(op, rng, nest_paths):
    """The hazard checker must accept every nest in these programs.

    Softmax in particular streams its exp-recipe temporaries and
    re-accumulates into reduction registers; before the checker learned
    those patterns it fell back to the scalar interpreter.
    """
    b = GraphBuilder("t")
    x = b.input("x", (5, 23), dtype="int32")
    graph = b.finish([getattr(b, op)(x)])
    _outputs(graph, {"x": rng.integers(-400, 400, (5, 23))}, fast=True)
    assert nest_paths, "no nest was executed"
    assert all(nest_paths), f"{nest_paths.count(False)} nests fell back"


def test_fast_mode_actually_faster_on_large_nests(rng):
    import time
    b = GraphBuilder("t")
    x = b.input("x", (32, 128), dtype="int32")
    y = b.gelu(x)
    graph = b.finish([y])
    data = rng.integers(-500, 500, (32, 128))

    def run(fast):
        runner = FunctionalRunner(compile_model(graph), fast=fast)
        start = time.perf_counter()
        runner.run({"x": data})
        return time.perf_counter() - start

    slow_t = run(False)
    fast_t = run(True)
    assert fast_t < slow_t

"""The LLM operator lowerings: fast == scalar == reference, bit-exact.

Every operator added for autoregressive decoding — RMSNorm, SiLU /
SwiGLU, rotary embeddings, the fused causal-softmax attention tail, and
``CacheAppend`` — must execute identically on the instruction-major
fast path, the point-major scalar interpreter, and the integer
reference, including odd sequence lengths and the single-token decode
shape. The detailed machine's cycle counters must also be identical
between the two interpreter modes: fast mode is an implementation
strategy, not a different machine.
"""

import numpy as np
import pytest

from repro.compiler import ReferenceExecutor, compile_model
from repro.graph import GraphBuilder
from repro.npu import FunctionalRunner


def _run(graph, bindings, fast):
    model = compile_model(graph)
    runner = FunctionalRunner(model, fast=fast)
    runner.bind(bindings)
    outs = runner.run({k: v for k, v in bindings.items()
                       if k in graph.graph_inputs})
    return ({name: outs[name] for name in graph.graph_outputs},
            runner.total_machine_result())


def _assert_all_paths_agree(graph, bindings):
    """fast == scalar == reference on outputs; fast == scalar on cycles."""
    slow, slow_result = _run(graph, bindings, fast=False)
    fast, fast_result = _run(graph, bindings, fast=True)
    reference = ReferenceExecutor(graph).run(bindings)
    for name in graph.graph_outputs:
        np.testing.assert_array_equal(fast[name], slow[name],
                                      err_msg=f"fast vs scalar: {name}")
        np.testing.assert_array_equal(slow[name], reference[name],
                                      err_msg=f"scalar vs reference: {name}")
    for field in ("cycles", "compute_cycles", "dae_cycles",
                  "config_cycles", "permute_cycles"):
        assert getattr(fast_result, field) == getattr(slow_result, field), \
            f"counter {field} differs between fast and scalar modes"


def test_silu_agrees(rng):
    b = GraphBuilder("t")
    x = b.input("x", (3, 17), dtype="int32")
    graph = b.finish([b.silu(x)])
    _assert_all_paths_agree(graph, {"x": rng.integers(-1200, 1200, (3, 17))})


@pytest.mark.parametrize("shape", [(2, 5, 9), (1, 1, 7)], ids=str)
def test_swiglu_agrees(shape, rng):
    b = GraphBuilder("t")
    x = b.input("x", shape, dtype="int32")
    y = b.input("y", shape, dtype="int32")
    graph = b.finish([b.swiglu(x, y)])
    _assert_all_paths_agree(graph, {
        "x": rng.integers(-900, 900, shape),
        "y": rng.integers(-900, 900, shape),
    })


@pytest.mark.parametrize("shape", [(4, 13), (1, 32)], ids=str)
def test_rms_norm_agrees(shape, rng):
    b = GraphBuilder("t")
    x = b.input("x", shape, dtype="int32")
    graph = b.finish([b.rms_norm(x)])
    gamma = next(t for t in graph.tensors if t.startswith("w_rms"))
    _assert_all_paths_agree(graph, {
        "x": rng.integers(-2000, 2000, shape),
        gamma: rng.integers(-512, 512, (shape[-1],)),
    })


def test_rms_norm_all_zero_row_agrees(rng):
    # The epsilon path: a zero row must not divide by zero anywhere.
    b = GraphBuilder("t")
    x = b.input("x", (2, 8), dtype="int32")
    graph = b.finish([b.rms_norm(x)])
    gamma = next(t for t in graph.tensors if t.startswith("w_rms"))
    data = rng.integers(-2000, 2000, (2, 8))
    data[0] = 0
    _assert_all_paths_agree(graph, {"x": data,
                                    gamma: rng.integers(-512, 512, (8,))})


@pytest.mark.parametrize("shape", [(2, 7, 6), (1, 3, 5, 8), (1, 2, 1, 4)],
                         ids=str)
def test_rope_agrees(shape, rng):
    # Covers odd sequence lengths (7, 5) and the single-token decode
    # shape (seq == 1).
    b = GraphBuilder("t")
    x = b.input("x", shape, dtype="int32")
    graph = b.finish([b.rope(x)])
    cos = next(t for t in graph.tensors if t.startswith("c_ropecos"))
    sin = next(t for t in graph.tensors if t.startswith("c_ropesin"))
    tab_shape = (shape[-2], shape[-1] // 2)
    _assert_all_paths_agree(graph, {
        "x": rng.integers(-1000, 1000, shape),
        cos: rng.integers(-256, 256, tab_shape),
        sin: rng.integers(-256, 256, tab_shape),
    })


@pytest.mark.parametrize("shape,offset", [
    ((2, 3, 5, 5), 0),     # square prefill
    ((1, 2, 1, 9), 4),     # single-token decode over a partial cache
    ((1, 2, 3, 11), 2),    # odd lengths, mid-stream chunk
], ids=str)
def test_causal_softmax_agrees(shape, offset, rng):
    b = GraphBuilder("t")
    x = b.input("x", shape, dtype="int32")
    graph = b.finish([b.causal_softmax(x, offset=offset)])
    _assert_all_paths_agree(graph, {"x": rng.integers(-700, 700, shape)})


def test_cache_append_v_style_agrees(rng):
    # V layout (1, h, ctx, hd): append along the context axis directly.
    b = GraphBuilder("t")
    cache = b.input("v_cache", (1, 2, 8, 4), dtype="int32")
    new = b.input("v_new", (1, 2, 3, 4), dtype="int32")
    graph = b.finish([b.cache_append(cache, new, axis=2, offset=2)])
    _assert_all_paths_agree(graph, {
        "v_cache": rng.integers(-50, 50, (1, 2, 8, 4)),
        "v_new": rng.integers(-50, 50, (1, 2, 3, 4)),
    })


def test_cache_append_k_style_perm_agrees(rng):
    # K layout (1, h, hd, ctx): the new slice is permuted on the way
    # into the pre-transposed cache.
    b = GraphBuilder("t")
    cache = b.input("k_cache", (1, 2, 4, 8), dtype="int32")
    new = b.input("k_new", (1, 2, 3, 4), dtype="int32")
    graph = b.finish([b.cache_append(cache, new, axis=3, offset=5,
                                     perm=(0, 1, 3, 2))])
    _assert_all_paths_agree(graph, {
        "k_cache": rng.integers(-50, 50, (1, 2, 4, 8)),
        "k_new": rng.integers(-50, 50, (1, 2, 3, 4)),
    })


def test_cache_append_single_token_agrees(rng):
    # The decode-step shape proper: one new token at an odd offset.
    b = GraphBuilder("t")
    cache = b.input("v_cache", (1, 2, 9, 4), dtype="int32")
    new = b.input("v_new", (1, 2, 1, 4), dtype="int32")
    graph = b.finish([b.cache_append(cache, new, axis=2, offset=7)])
    _assert_all_paths_agree(graph, {
        "v_cache": rng.integers(-50, 50, (1, 2, 9, 4)),
        "v_new": rng.integers(-50, 50, (1, 2, 1, 4)),
    })


@pytest.mark.parametrize("op", ["silu", "rms_norm"])
def test_llm_ops_take_fast_path(op, rng, nest_paths):
    """The hazard checker must accept every nest the lowerings emit."""
    b = GraphBuilder("t")
    x = b.input("x", (5, 16), dtype="int32")
    graph = b.finish([getattr(b, op)(x)])
    bindings = {"x": rng.integers(-400, 400, (5, 16))}
    for name, spec in graph.tensors.items():
        if graph.producer(name) is None and name not in graph.graph_inputs:
            bindings[name] = rng.integers(-64, 64, spec.shape)
    _run(graph, bindings, fast=True)
    assert nest_paths, "no nest was executed"
    assert all(nest_paths), f"{nest_paths.count(False)} nests fell back"

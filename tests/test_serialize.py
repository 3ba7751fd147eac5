"""Compiled-model serialization: the deployable artifact round-trips."""

import json

import numpy as np
import pytest

from repro.compiler import compile_model, dump_model, load_blocks
from repro.isa import ProgramDecodeError, TandemProgram
from repro.models import build_tinynet
from repro.npu import FunctionalRunner
from repro.simulator import estimate


@pytest.fixture(scope="module")
def compiled():
    return compile_model(build_tinynet())


def test_dump_is_valid_json(compiled):
    data = json.loads(dump_model(compiled))
    assert data["model"] == "tinynet"
    assert len(data["blocks"]) == len(compiled.blocks)


def test_programs_roundtrip_bit_exact(compiled):
    blocks = load_blocks(dump_model(compiled))
    for original, restored in zip(compiled.blocks, blocks):
        assert restored["kind"] == original.kind
        assert restored["tiles"] == original.tiles
        if original.tile is None:
            assert restored["tile"] is None
            continue
        assert restored["tile"].program.pack() == original.tile.program.pack()
        assert restored["tile"].imm_values == original.tile.imm_values
        assert len(restored["tile"].transfers) == len(original.tile.transfers)


def test_restored_metadata_estimates_identically(compiled):
    blocks = load_blocks(dump_model(compiled))
    for original, restored in zip(compiled.blocks, blocks):
        if original.tile is None:
            continue
        a = estimate(original.tile.meta, compiled.sim_params)
        b = estimate(restored["tile"].meta, compiled.sim_params)
        assert a.cycles == b.cycles
        assert a.energy.total_pj() == pytest.approx(b.energy.total_pj())


def test_restored_tile_runs_functionally(compiled, rng):
    """A deserialized program drives the machine to the same outputs."""
    blocks = load_blocks(dump_model(compiled))
    # Patch the restored tiles into a copy of the compiled model.
    for cb, restored in zip(compiled.blocks, blocks):
        if cb.tile is not None:
            cb.tile.program = restored["tile"].program
            cb.tile.transfers = restored["tile"].transfers
            cb.tile.permutes = restored["tile"].permutes
    graph = compiled.graph
    bindings = {name: rng.integers(-5, 5, spec.shape)
                for name, spec in graph.tensors.items()
                if graph.producer(name) is None}
    runner = FunctionalRunner(compiled)
    runner.bind(bindings)
    outputs = runner.run({"image": bindings["image"]})
    assert outputs[graph.graph_outputs[0]].size == 10


def test_version_check():
    with pytest.raises(ValueError, match="format"):
        load_blocks(json.dumps({"format_version": 99, "blocks": []}))


@pytest.mark.parametrize("corrupt, error", [
    (lambda words: "!" + words[1:], ValueError),     # not base64
    (lambda words: words[:-4], ProgramDecodeError),  # a partial last word
])
def test_corrupt_word_blob_raises(compiled, corrupt, error):
    artifact = json.loads(dump_model(compiled))
    tile = next(b["tile"] for b in artifact["blocks"] if b["tile"])
    tile["words"] = corrupt(tile["words"])
    with pytest.raises(error):
        load_blocks(artifact)


def test_undecodable_word_keeps_its_pc_on_every_decode(compiled):
    good = next(b.tile.program for b in compiled.blocks if b.tile).pack()
    bad = 0xFFFFFFFF
    # The same word fails at a different pc each time: no error is cached.
    cases = [(good[:3] + [bad], 3), ([bad], 0), (good + [bad], len(good))]
    for words, pc in cases:
        with pytest.raises(ProgramDecodeError) as info:
            TandemProgram.unpack("t", words)
        assert info.value.pc == pc
        assert info.value.word == bad


def test_unpack_roundtrips_with_a_filled_memo(compiled):
    for cb in compiled.blocks:
        if cb.tile is None:
            continue
        words = cb.tile.program.pack()
        first = TandemProgram.unpack("a", words)
        second = TandemProgram.unpack("b", words)
        assert second.pack() == first.pack() == words
        assert second.instructions == cb.tile.program.instructions
        # Decoded instructions are shared; each program owns its list.
        assert second.instructions is not first.instructions
        assert all(a is b for a, b in zip(first.instructions,
                                          second.instructions))

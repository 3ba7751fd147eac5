"""Golden fixture for the detailed machine's per-program results.

``fixtures/machine_golden.json`` pins, for every program the machine
runs in two workloads, every :class:`~repro.simulator.MachineResult`
field: the cycle breakdown, ``vector_issues``, ``scalar_ops``,
``instructions_decoded``, each :class:`~repro.simulator.EnergyLedger`
field by ``repr`` (so float addition order is pinned too), the sync
events and ``obuf_release_cycle``. It also pins the ``sim.*`` telemetry
counters the machine emits with telemetry on. The workloads:

* a seeded ``tinyllm`` session (prefill + greedy decode to the window)
  on the fast path and on the scalar path;
* one ``tinynet`` :class:`~repro.npu.FunctionalRunner` run, both paths.

Both paths must reproduce the same fixture, byte for byte, which is
also the fast == scalar counter contract.

Run this file as a script to re-record the fixture from the current
machine (only when a change to the machine's semantics is intended).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.compiler import compile_model
from repro.llm import DecodeSession, get_llm_config
from repro.models import build_tinynet
from repro.npu import FunctionalRunner
from repro.runtime import EvalCache, seeded_rng, set_cache
from repro.simulator import TandemMachine
from repro.telemetry import Telemetry, scoped_telemetry

FIXTURE = Path(__file__).parent / "fixtures" / "machine_golden.json"
PROMPT = [3, 1, 4, 1]
_ENERGY = ("dram_pj", "spad_pj", "alu_pj", "loop_addr_pj", "other_pj",
           "regfile_pj")


def _result_record(name, result):
    return {
        "program": name,
        "cycles": [result.cycles, result.compute_cycles, result.dae_cycles,
                   result.config_cycles, result.permute_cycles],
        "vector_issues": result.vector_issues,
        "scalar_ops": result.scalar_ops,
        "instructions_decoded": result.instructions_decoded,
        "energy": [repr(getattr(result.energy, f)) for f in _ENERGY],
        "sync_events": [[e.func.name, e.group_id, e.cycle]
                        for e in result.sync_events],
        "obuf_release_cycle": result.obuf_release_cycle,
    }


def _recorded(workload, fast, monkeypatch):
    """Run ``workload(fast)`` recording every program's result."""
    records = []
    original = TandemMachine.run

    def spy(self, program, *args, **kwargs):
        result = original(self, program, *args, **kwargs)
        records.append(_result_record(program.name, result))
        return result

    monkeypatch.setattr(TandemMachine, "run", spy)
    with scoped_telemetry(Telemetry(enabled=True)) as tel:
        extra = workload(fast)
    monkeypatch.undo()
    counters = {name: value
                for name, value in tel.counters.as_dict().items()
                if name.startswith("sim.")}
    return {"programs": records, "counters": counters, **extra}


def _tinyllm(fast):
    cfg = get_llm_config("tinyllm")
    session = DecodeSession(cfg, fast=fast)
    session.prefill(PROMPT)
    tokens = session.decode(cfg.max_context - len(PROMPT))
    return {"tokens": tokens}


def _tinynet(fast):
    graph = build_tinynet()
    rng = seeded_rng("machine-golden")
    bindings = {name: rng.integers(-8, 8, spec.shape)
                for name, spec in graph.tensors.items()
                if graph.producer(name) is None}
    runner = FunctionalRunner(compile_model(graph), fast=fast)
    runner.bind(bindings)
    runner.run({k: v for k, v in bindings.items()
                if k in graph.graph_inputs})
    return {}


WORKLOADS = {"tinyllm": _tinyllm, "tinynet": _tinynet}


def record(monkeypatch):
    return {name: _recorded(workload, True, monkeypatch)
            for name, workload in WORKLOADS.items()}


def _canonical(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_machine_matches_golden(workload, fast, golden, monkeypatch):
    got = _recorded(WORKLOADS[workload], fast, monkeypatch)
    want = golden[workload]
    assert len(got["programs"]) == len(want["programs"])
    for index, (g, w) in enumerate(zip(got["programs"], want["programs"])):
        assert g == w, f"program {index} ({w['program']})"
    assert got["counters"] == want["counters"]
    assert _canonical(got) == _canonical(want)


if __name__ == "__main__":
    set_cache(EvalCache(directory=tempfile.mkdtemp()))

    class _Patch:
        """Just enough of pytest's ``monkeypatch`` for :func:`record`."""

        def __init__(self):
            self._undo = []

        def setattr(self, target, name, value):
            self._undo.append((target, name, getattr(target, name)))
            setattr(target, name, value)

        def undo(self):
            while self._undo:
                target, name, value = self._undo.pop()
                setattr(target, name, value)

    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_canonical(record(_Patch())))
    print(f"wrote {FIXTURE}", file=sys.stderr)

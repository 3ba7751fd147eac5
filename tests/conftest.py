"""Shared fixtures: cached model builds and design evaluations.

RNG discipline: every stochastic test derives its generator from
``repro.runtime.seeded_rng``, so the whole suite replays exactly under
one ``REPRO_SEED`` environment variable.
"""

import pytest

from repro.models import MODEL_ORDER, build_model
from repro.npu import NPUTandem
from repro.runtime import EvalCache, seeded_rng, set_cache


@pytest.fixture(scope="session", autouse=True)
def _isolated_eval_cache(tmp_path_factory):
    """Point the runtime cache at a session-private directory.

    Keeps tests hermetic (no reuse of a developer's ``.repro_cache``)
    and keeps test artifacts out of the working tree.
    """
    set_cache(EvalCache(directory=tmp_path_factory.mktemp("repro_cache")))
    yield
    set_cache(None)


@pytest.fixture(scope="session")
def rng():
    return seeded_rng("tests-shared")


@pytest.fixture(scope="session")
def all_models():
    """The seven benchmark graphs (memoized by the zoo)."""
    return {name: build_model(name) for name in MODEL_ORDER}


@pytest.fixture(scope="session")
def npu_results():
    """NPU-Tandem end-to-end results for all benchmarks (computed once)."""
    npu = NPUTandem()
    return {name: npu.evaluate(name) for name in MODEL_ORDER}


@pytest.fixture
def nest_paths(monkeypatch):
    """Per executed loop nest, in order: True when it ran instruction-major
    (``FastNestExecutor.run``), False when it replayed point-major."""
    from repro.simulator import TandemMachine
    from repro.simulator.fastexec import FastNestExecutor

    paths = []
    fast_run = FastNestExecutor.run
    point_run = TandemMachine._run_points

    def run(self, machine):
        paths.append(True)
        fast_run(self, machine)

    def run_points(self, nest):
        paths.append(False)
        point_run(self, nest)

    monkeypatch.setattr(FastNestExecutor, "run", run)
    monkeypatch.setattr(TandemMachine, "_run_points", run_points)
    return paths

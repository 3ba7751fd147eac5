"""Benchmark entry point for the ``repro`` host stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-day --seed 12345 \\
        --seconds 10 --trace 0

Workloads: ``fleet-day``, ``serve-observed`` and ``decode-functional``
(see ``perfbench/README.md``). Each run:

1. byte-compiles ``src/`` once, so set-up times never include it;
2. sets the workload up ``SETUP_PROBES + 1`` times, each time in two
   fresh processes over a fresh compile cache (``worker.py``): one fills
   the empty cache (``cold_s``), the next fills again through a fresh
   cache over it (``warm_s``) and warms up the body. A set-up sample
   (``setup_s``) is both processes' time from start until done, and the
   run reports the median of each kind of sample;
3. in the last set-up's second process, times the workload body for
   ``--seconds``, single-threaded, and checks every output; every
   end-to-end time is scaled to a reference machine speed
   (``calibrate.py``);
4. prints, as the last stdout line, ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
   ledger with ``--trace 1``. The line before it holds the run's
   deterministic counts.

Every process gets a pinned environment: ``REPRO_SEED`` from ``--seed``,
``REPRO_JOBS=1``, every other ``REPRO_*`` variable removed (so each takes
its default) and a fresh cache directory inside the checkout's
``.perfbench_tmp/``, removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-day", "serve-observed", "decode-functional")
#: Default seed, and a held-out one for re-checking a claim on a seed
#: that was not used while the claim was written.
DEFAULT_SEED = 12345
HELD_OUT_SEED = 271828
#: Set-ups made only for their samples; with the measuring one they give
#: ``SETUP_PROBES + 1`` samples of ``setup_s``, ``cold_s`` and ``warm_s``.
SETUP_PROBES = 3
#: What ``calibrate.calibrate`` takes at the reference machine speed, to
#: which every end-to-end time is scaled.
REFERENCE_CALIBRATION_S = 0.03
#: Wall-clock budget of a whole run, inside the 180 s it must end in.
RUN_BUDGET_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the repro host stack on one workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def worker_env(seed: int, scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_SEED": str(seed),
        "REPRO_JOBS": "1",
        "REPRO_CACHE_DIR": str(scratch / "default-cache"),
    })
    return env


class Runner:
    """Starts worker processes under one deadline and one scratch dir."""

    def __init__(self, args, scratch: Path):
        self.args = args
        self.scratch = scratch
        self.env = worker_env(args.seed, scratch)
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("run budget exhausted")
        return left

    def build(self) -> None:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(ROOT / "src")], env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=self.remaining())

    def worker(self, phase: str, pair: Path) -> dict:
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", self.args.workload,
                   "--seed", str(self.args.seed),
                   "--seconds", str(self.args.seconds),
                   "--trace", str(self.args.trace),
                   "--phase", phase, "--pair", str(pair)]
        if self.args.tiny:
            command.append("--tiny")
        command += ["--t0", repr(time.monotonic())]
        done = subprocess.run(command, env=self.env, cwd=pair,
                              stdout=subprocess.PIPE, text=True,
                              timeout=self.remaining())
        if done.returncode != 0:
            raise RuntimeError(f"{phase} worker exited {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def setup(self, index: int, phase: str) -> Tuple[dict, dict]:
        """One set-up: the cold fill's process, then ``phase``'s."""
        pair = self.scratch / f"setup-{index}"
        pair.mkdir()
        return self.worker("fill", pair), self.worker(phase, pair)


def scaled(record: dict, kind: str) -> float:
    """``<kind>_s`` scaled to the reference machine speed by the
    ``<kind>_calibration_s`` measured next to it (``calibrate.py``)."""
    return (record[kind + "_s"] * REFERENCE_CALIBRATION_S
            / record[kind + "_calibration_s"])


def end_to_end(setups, run) -> dict:
    """The end-to-end metrics from the set-ups and the main run.

    ``setups`` holds each set-up's two processes' ``setup`` records: the
    cold fill's and the warm one's.
    """
    wall_s = statistics.median(
        w * REFERENCE_CALIBRATION_S / c
        for w, c in zip(run["wall_s"], run["calibration_s"]))
    counts = run["counts"]
    values = {
        "setup_s": (statistics.median(
            scaled(fill, "fill") + scaled(warm, "setup")
            for fill, warm in setups), "s"),
        "wall_s": (wall_s, "s"),
        "cold_s": (statistics.median(
            scaled(fill, "cold") for fill, _ in setups), "s"),
        "warm_s": (statistics.median(
            scaled(warm, "warm") for _, warm in setups), "s"),
        "sim_req_per_s": (counts["sim_requests"] / wall_s, "req/s"),
        "sim_cycles_per_s": (counts["sim_cycles"] / wall_s, "cycles/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def per_layer(run, attempted: int, failed: int) -> dict:
    """The traced run's ledger, plus the share of operations that failed."""
    values = dict(run["per_layer"], error_rate=failed / attempted)
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(values.items())}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "rate", "coverage", "overhead")):
        return "fraction"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("dollars"):
        return "USD"
    if "bytes" in name:
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        runner = Runner(args, scratch)
        runner.build()
        setups = [runner.setup(i, "setup")
                  for i in range(0 if args.trace else SETUP_PROBES)]
        setups.append(runner.setup(len(setups), "run"))
    except (RuntimeError, TimeoutError, subprocess.SubprocessError,
            ValueError, OSError) as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    run = setups[-1][1]
    # The main run counts its own warm fill; every other set-up process
    # made one cache fill, which fails if its checks found a problem.
    others = [p for fill, warm in setups for p in (fill, warm)][:-1]
    problems = [p for other in others for p in other["problems"]]
    problems += run["problems"]
    attempted = run["attempted"] + len(others)
    failed = run["failed"] + sum(bool(other["problems"]) for other in others)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if args.trace and "per_layer" not in run:
        print(f"perfbench: {args.workload}: no traced iteration finished",
              file=sys.stderr)
        return 1
    correct = not problems and failed == 0
    metrics = (per_layer(run, attempted, failed) if args.trace
               else end_to_end([(fill["setup"], warm["setup"])
                                for fill, warm in setups], run))
    print(json.dumps({"counts": run["counts"],
                      "missing_targets": run.get("missing_targets", [])},
                     sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

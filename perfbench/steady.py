"""Steadiness mode: independent sets of benchmark runs of the same code.

Usage (from the repository root)::

    python3 perfbench/steady.py --sets 2 --seeds 10
    python3 perfbench/steady.py --sets 1 --seeds 5 --workloads fleet-day
    python3 perfbench/steady.py --held-out

Each set runs every chosen workload once per seed (seeds 1 to
``--seeds``), untraced and for ``run_seconds`` from ``BENCHMARK.json``,
interleaving the workloads so that slow drift of the machine reaches all
of them alike. For every workload and end-to-end metric it prints each
set's median, quartiles and spread, ``(q3 - q1) / median``, next to the
metric's bound, and how far each later set's median moved from the
first's in the metric's worse direction.

The exit code is 1 when a run fails or is not correct, when a spread
exceeds its bound, when a later set's median is worse than the first's
by more than the bound, or when a seed's deterministic counts differ
between sets.

``--held-out`` runs every workload on the held-out seed, untraced and
traced, and checks that each run is correct and that the traced run's
``trace.coverage`` is at least ``MIN_COVERAGE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import HELD_OUT_SEED  # noqa: E402

#: Share of a traced iteration's wall time the layer ledger must explain.
MIN_COVERAGE = 0.9


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of ``run.py``: its result line and its counts line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return {"correct": False, "returncode": done.returncode}
    result = json.loads(lines[-1])
    result["counts"] = json.loads(lines[-2])["counts"]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of it."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def report(spec: dict, runs: dict, n_sets: int) -> list:
    """Print the table; return the problems it shows."""
    problems = []
    header = (f"{'workload':<18} {'metric':<17} {'bound':>5}  "
              + "  ".join(f"{'set ' + str(i + 1) + ' median [q1, q3]':>36}"
                          f" {'spread':>6}" for i in range(n_sets))
              + f"  {'worse':>6}")
    print(header)
    for workload in spec_workloads(spec, runs):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for s in range(n_sets):
                values = [r["metrics"][name]["value"]
                          for r in runs[workload][s].values()
                          if r.get("correct")]
                if not values:
                    cells.append(f"{'no correct runs':>43}")
                    medians.append(None)
                    continue
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median
                medians.append(median)
                flag = "!" if spread > bound else " "
                if flag == "!":
                    problems.append(f"{workload} {name} set {s + 1}: spread "
                                    f"{spread:.3f} > bound {bound}")
                cells.append(f"{median:>12.5g} [{q1:>10.5g}, {q3:>10.5g}]"
                             f" {spread:>6.3f}{flag}")
            worst = max((worse_by(metric, medians[0], m)
                         for m in medians[1:]
                         if m is not None and medians[0] is not None),
                        default=0.0)
            if worst > bound:
                problems.append(f"{workload} {name}: later set worse by "
                                f"{worst:.3f} > bound {bound}")
            print(f"{workload:<18} {name:<17} {bound:>5}  "
                  + " ".join(cells) + f"  {worst:>6.3f}")
    return problems


def spec_workloads(spec: dict, runs: dict):
    return [w["name"] for w in spec["workloads"] if w["name"] in runs]


def check_runs(runs: dict) -> list:
    """Problems with single runs and with counts that differ by set."""
    problems = []
    for workload, sets in runs.items():
        for s, by_seed in enumerate(sets):
            for seed, result in by_seed.items():
                if not result.get("correct") or result.get("failed"):
                    problems.append(f"{workload} seed {seed} set {s + 1}: "
                                    f"not correct ({result})")
        for seed, first in sets[0].items():
            for s, by_seed in enumerate(sets[1:], start=2):
                later = by_seed.get(seed, {})
                if first.get("counts") != later.get("counts"):
                    problems.append(f"{workload} seed {seed}: counts of set "
                                    f"{s} differ from set 1")
    return problems


def held_out(spec: dict, workloads) -> list:
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            result = bench(workload, HELD_OUT_SEED, spec["run_seconds"],
                           trace)
            ok = result.get("correct") and not result.get("failed")
            line = f"held-out seed {HELD_OUT_SEED} {workload} trace {trace}:" \
                   f" {'correct' if ok else 'NOT correct'}"
            if not ok:
                problems.append(line)
            if trace and ok:
                coverage = result["metrics"]["trace.coverage"]["value"]
                line += f", trace.coverage {coverage:.3f}"
                if coverage < MIN_COVERAGE:
                    problems.append(f"{workload}: trace.coverage "
                                    f"{coverage:.3f} < {MIN_COVERAGE}")
            print(line, flush=True)
    return problems


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run sets of benchmark runs and compare their spread.")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--held-out", action="store_true",
                        help="check the held-out seed instead")
    args = parser.parse_args(argv)

    if args.held_out:
        problems = held_out(spec, args.workloads)
    else:
        seeds = range(1, args.seeds + 1)
        runs = {w: [{} for _ in range(args.sets)] for w in args.workloads}
        for s in range(args.sets):
            for seed in seeds:
                for workload in args.workloads:
                    start = time.monotonic()
                    result = bench(workload, seed, spec["run_seconds"], 0)
                    runs[workload][s][seed] = result
                    print(f"set {s + 1} seed {seed} {workload}: "
                          f"{'correct' if result.get('correct') else 'FAIL'}"
                          f" in {time.monotonic() - start:.0f} s",
                          file=sys.stderr, flush=True)
        problems = check_runs(runs) + report(spec, runs, args.sets)
    for problem in problems:
        print(f"steady: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

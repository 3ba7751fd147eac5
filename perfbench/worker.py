"""One workload in one single-threaded process: set-up, timed loop, checks.

Started by ``run.py``, never by hand, in pairs that share a directory
(``--pair``) holding one compile cache. ``--phase fill`` fills the empty
cache (``cold_s``) and leaves the fill's result for its partner.
``--phase setup`` fills again through a fresh cache over the same
directory (``warm_s``), checks the result against the cold fill's and
stops once the first timed iteration would be ready; ``--phase run`` goes
on to the timed loop and the correctness checks. The last stdout line is
one JSON object for ``run.py``.

With ``--trace 1`` the loop alternates untraced and traced iterations;
traced ones run with the layer ledger installed (``ledger.py``), and the
untraced ones give the base for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import calibrate

#: Fewest iterations of each kind (untraced, traced) a run measures.
MIN_ITERATIONS = {False: 3, True: 2}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("fill", "setup", "run"),
                        required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--pair", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was started")
    return parser.parse_args(argv)


def emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    first_mark = calibrate()
    first_spent_s = time.monotonic() - start
    from workloads import WORKLOADS, Context, timed_fill
    import layers
    from ledger import Ledger, Patches

    ctx = Context(scratch=args.pair / args.phase,
                  cache_dir=args.pair / "cache", seed=args.seed,
                  tiny=args.tiny, marks=[first_mark],
                  spent_s=first_spent_s)
    ctx.scratch.mkdir()
    workload = WORKLOADS[args.workload]()
    trace = bool(args.trace)
    patches = Patches(layers.targets()) if trace else None
    filling = args.phase == "fill"

    setup_ledger = Ledger()
    if trace:
        patches.install(setup_ledger)
    try:
        workload.prepare(ctx)
        samples, result = timed_fill(ctx, workload,
                                     "cold" if filling else "warm")
        if not filling:
            workload.body(ctx, -1)
    finally:
        if trace:
            patches.remove()
    ctx.calibrate()
    # Set-up's speed is the mean of the calibrations spread through it,
    # whose own time is not set-up.
    kind = "fill" if filling else "setup"
    setup = {kind + "_s": time.monotonic() - args.t0 - ctx.spent_s,
             kind + "_calibration_s": statistics.fmean(ctx.marks),
             **samples}

    # Checks of the fill, after set-up's clock has stopped.
    record, problems = workload.record(result)
    cold_file = args.pair / "cold.pickle"
    if filling:
        cold_file.write_bytes(pickle.dumps(
            {"record": record,
             "ledger": setup_ledger.state() if trace else None}))
        emit({"setup": setup, "problems": problems})
        return 0
    cold = pickle.loads(cold_file.read_bytes())
    if record != cold["record"]:
        problems.append("the warm cache fill's result differs from the "
                        "cold fill's")
    if samples["warm_hit_ratio"] != 1.0:
        problems.append(f"the warm cache fill hit "
                        f"{samples['warm_hit_ratio']:.3f} of its lookups, "
                        f"not all")
    if args.phase == "setup":
        emit({"setup": setup, "problems": problems})
        return 0
    if trace:
        setup_ledger.absorb(cold["ledger"])

    # traced? -> [(wall_s, calibration_s, outcome, ledger)]
    runs = {False: [], True: []}
    before_s = ctx.marks[-1]
    # The warm fill is the first operation; its problems fail it.
    attempted, failed = 1, int(bool(problems))
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = trace and index % 2 == 1
        ledger = Ledger()
        if traced:
            patches.install(ledger)
        start = time.perf_counter()
        try:
            outcome = workload.body(ctx, index)
        except Exception:  # one failed operation ends the timed loop
            traceback.print_exc()
            problems.append(f"iteration {index} raised")
            attempted += 1
            failed += 1
            break
        finally:
            wall_s = time.perf_counter() - start
            if traced:
                patches.remove()
        reference = (runs[False] or runs[True] or [(0, 0, outcome, 0)])[0][2]
        if outcome.output != reference.output:
            problems.append(f"iteration {index} output differs from "
                            f"iteration 0")
            outcome.failed = outcome.ops
        attempted += outcome.ops
        failed += outcome.failed
        after_s = calibrate()
        runs[traced].append((wall_s, (before_s + after_s) / 2, outcome,
                             ledger))
        before_s = after_s
        index += 1
        if time.perf_counter() >= deadline and all(
                len(runs[kind]) >= MIN_ITERATIONS[trace]
                for kind in ({False, True} if trace else {False})):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counts = {}
    if runs[False]:
        try:
            check_problems, counts = workload.check(
                ctx, [o for _, _, o, _ in runs[False] + runs[True]])
        except Exception:  # a check that raises is a failed check
            traceback.print_exc()
            check_problems = ["correctness check raised"]
        problems += check_problems
    ledger_metrics = None
    if trace and runs[True]:
        ledger_metrics = per_layer(workload, runs, setup_ledger, samples,
                                   counts, problems)
    if problems:
        failed = max(failed, 1)

    untraced = runs[False]
    result = {
        "setup": setup,
        "wall_s": [w for w, _, _, _ in untraced],
        "calibration_s": [c for _, c, _, _ in untraced],
        "counts": counts,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
    }
    if ledger_metrics is not None:
        result["per_layer"] = ledger_metrics
        result["missing_targets"] = patches.missing
    emit(result)
    return 0


def per_layer(workload, runs, setup_ledger, samples, counts, problems):
    """Per-layer metrics: medians of self times, counts of one iteration."""
    import layers
    traced = runs[True]
    exact = [layers.exact_metrics(ledger) for _, _, _, ledger in traced]
    if any(e != exact[0] for e in exact):
        problems.append("per-layer counts differ between traced iterations")
    timings = [layers.time_metrics(ledger, wall)
               for wall, _, _, ledger in traced]
    metrics = {name: statistics.median(t[name] for t in timings)
               for name in timings[0]}
    metrics.update(exact[0])
    metrics.update(layers.setup_metrics(setup_ledger))
    metrics["report.bytes"] = counts.get("report_bytes", 0)
    metrics["cache.warm_hit_ratio"] = samples["warm_hit_ratio"]
    metrics["machine.scalar_replay_s"] = getattr(
        workload, "scalar_replay_s", 0.0)
    # Both sides at the same machine speed (see ``calibrate.py``).
    untraced_s, traced_s = (statistics.median(w / c for w, c, _, _ in kind)
                            for kind in (runs[False], traced))
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())

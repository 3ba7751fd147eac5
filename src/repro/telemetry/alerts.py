"""Deterministic burn-rate rule evaluation producing fire/resolve events.

The :class:`AlertEngine` consumes one ``(good, bad)`` observation per
monitor interval and evaluates every :class:`BurnRateRule` against the
window sums, emitting :class:`AlertEvent` fire/resolve pairs.  The
evaluation is a pure function of the observation sequence: integer
prefix sums, no wall-clock reads, no randomness — so the alert stream
for a seeded run is byte-identical between serial and ``--jobs N``
execution, which ``benchmarks/test_perf_monitoring.py`` asserts.

Semantics (each pinned by a hand-computed scenario in
``tests/test_monitoring.py``):

* **fire** — a rule fires at the first interval boundary where the
  burn rate over BOTH its long and short windows reaches its factor;
* **hysteresis** — a firing rule resolves only after both windows
  stay below ``factor * hysteresis`` for ``resolve_intervals``
  consecutive intervals, so threshold-straddling noise cannot flap;
* **no data** — an empty window burns 0.0 and can never fire (and
  counts toward resolving), because "the service saw no traffic" is
  not an SLO violation;
* windows shorter than one interval round **up** to one interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .slo import BurnRateRule, SLOObjective, budget_burn

__all__ = ["AlertEngine", "AlertEvent"]


@dataclass(frozen=True)
class AlertEvent:
    """One fire or resolve transition of one rule, at a boundary time."""

    kind: str            # "fire" | "resolve"
    rule: str
    severity: str
    t_s: float           # interval-boundary sim time of the transition
    burn_long: float
    burn_short: float

    def as_dict(self) -> dict:
        """JSON-ready form for the monitor report payload."""
        return {
            "kind": self.kind,
            "rule": self.rule,
            "severity": self.severity,
            "t_s": self.t_s,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
        }


class _RuleState:
    """Mutable evaluation state for one rule."""

    __slots__ = ("rule", "long_n", "short_n", "firing", "quiet_streak")

    def __init__(self, rule: BurnRateRule, interval_s: float) -> None:
        self.rule = rule
        # Windows round up to whole intervals so a short window never
        # degenerates to zero samples.
        self.long_n = max(1, -(-int(rule.long_window_s * 1e9)
                               // int(interval_s * 1e9)))
        self.short_n = max(1, -(-int(rule.short_window_s * 1e9)
                                // int(interval_s * 1e9)))
        self.firing = False
        self.quiet_streak = 0


class AlertEngine:
    """Evaluates burn-rate rules over per-interval good/bad counts.

    Call :meth:`observe` once per closed interval with the counts of
    requests that became good/bad during that interval; it returns the
    events that transitioned at that boundary (also accumulated on
    :attr:`events`).  :meth:`burn_rates` exposes the current window
    burns so the monitor can record them as time series.
    """

    def __init__(self, objective: SLOObjective,
                 rules: Tuple[BurnRateRule, ...], interval_s: float) -> None:
        if not (math.isfinite(interval_s) and interval_s > 0.0):
            raise ValueError(f"interval must be finite and positive, "
                             f"got {interval_s}")
        if len({r.name for r in rules}) != len(rules):
            raise ValueError("rule names must be unique")
        self.objective = objective
        self.interval_s = float(interval_s)
        self._states = [_RuleState(rule, interval_s) for rule in rules]
        # Prefix sums over intervals; index k holds totals of the first
        # k intervals, so a window of n intervals at interval k is
        # sums[k] - sums[k - n].
        self._good = [0]
        self._bad = [0]
        self.events: List[AlertEvent] = []

    @property
    def intervals(self) -> int:
        """Number of intervals observed so far."""
        return len(self._good) - 1

    @property
    def good_total(self) -> int:
        """Good events observed over the whole run."""
        return self._good[-1]

    @property
    def bad_total(self) -> int:
        """Bad events observed over the whole run."""
        return self._bad[-1]

    @property
    def any_firing(self) -> bool:
        """True while at least one rule is in the firing state."""
        return any(state.firing for state in self._states)

    def firing_rules(self) -> List[str]:
        """Names of the rules currently firing, in rule order."""
        return [s.rule.name for s in self._states if s.firing]

    def firing_severities(self) -> List[str]:
        """Severities with at least one firing rule, in rule order.

        Deduplicated, so a consumer reacting per severity class (the
        autoscaler scales out on *any* firing severity but reports the
        loudest) gets a stable, deterministic list.
        """
        out: List[str] = []
        for state in self._states:
            if state.firing and state.rule.severity not in out:
                out.append(state.rule.severity)
        return out

    def _window_burn(self, n_intervals: int) -> float:
        k = self.intervals
        start = max(0, k - n_intervals)
        good = self._good[k] - self._good[start]
        bad = self._bad[k] - self._bad[start]
        return budget_burn(good, bad, self.objective)

    def burn_rates(self, rule_name: str) -> Tuple[float, float]:
        """Current ``(burn_long, burn_short)`` for a rule by name."""
        for state in self._states:
            if state.rule.name == rule_name:
                return (self._window_burn(state.long_n),
                        self._window_burn(state.short_n))
        raise KeyError(f"unknown rule {rule_name!r}")

    def observe(self, good: int, bad: int, t_s: float) -> List[AlertEvent]:
        """Close one interval ending at ``t_s``; return its transitions."""
        self._good.append(self._good[-1] + int(good))
        self._bad.append(self._bad[-1] + int(bad))
        emitted: List[AlertEvent] = []
        for state in self._states:
            rule = state.rule
            burn_long = self._window_burn(state.long_n)
            burn_short = self._window_burn(state.short_n)
            if not state.firing:
                if burn_long >= rule.factor and burn_short >= rule.factor:
                    state.firing = True
                    state.quiet_streak = 0
                    emitted.append(AlertEvent(
                        "fire", rule.name, rule.severity, t_s,
                        burn_long, burn_short))
            else:
                clear = rule.factor * rule.hysteresis
                if burn_long < clear and burn_short < clear:
                    state.quiet_streak += 1
                    if state.quiet_streak >= rule.resolve_intervals:
                        state.firing = False
                        state.quiet_streak = 0
                        emitted.append(AlertEvent(
                            "resolve", rule.name, rule.severity, t_s,
                            burn_long, burn_short))
                else:
                    state.quiet_streak = 0
        self.events.extend(emitted)
        return emitted

    def counts(self) -> Dict[str, int]:
        """Fire/resolve totals by severity, for the report summary."""
        out: Dict[str, int] = {}
        for event in self.events:
            key = f"{event.severity}_{event.kind}"
            out[key] = out.get(key, 0) + 1
        return out

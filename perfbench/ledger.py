"""Outside-in layer ledger: spans and counts recorded around public calls.

The ledger patches functions and methods of the ``repro`` package from the
benchmark's side, at the attribute each caller resolves at call time, so
``src/`` carries no benchmark hooks. Each patched call records a span
(layer, start, end, parent span) in memory. A layer's *self time* is its
spans' duration minus the part covered by child spans, so self times of
all layers sum to at most the traced wall time; their share of it is the
trace coverage.

Counts come from ``after`` hooks that read a patched call's arguments and
return value, and from shims that also need state from before the call.
The program's own telemetry stays off, so its per-nest counters do not
inflate the machine's traced time.

A target that no longer exists is skipped and listed in ``missing``, so a
later refactor degrades the ledger instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

After = Callable[["Ledger", tuple, dict, Any], None]


class Ledger:
    """Spans and counts for one traced region."""

    def __init__(self) -> None:
        #: (span id, layer, start_s, end_s, parent span id or -1), in
        #: end order.
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.values: Dict[str, float] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def state(self) -> dict:
        """Self times, counts and values, for :meth:`absorb` elsewhere."""
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "values": dict(self.values)}

    def absorb(self, state: dict) -> None:
        """Add another ledger's :meth:`state`, e.g. another process's."""
        for layer, seconds in state["self_s"].items():
            self.self_s[layer] += seconds
        self.counts.update(state["counts"])
        self.values.update(state["values"])

    def wrap(self, layer: str, fn: Callable, calls: Optional[str] = None,
             after: Optional[After] = None) -> Callable:
        """``fn`` timed as one span of ``layer``; optional call counter."""
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if calls is not None:
                self.counts[calls] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, layer, start, end, parent))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced


def _resolve(path: str):
    """``'pkg.mod'`` or ``'pkg.mod:Class'`` -> the object, or None."""
    module_name, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Patches:
    """Installs ledger wrappers on the targets and restores them."""

    def __init__(self, targets) -> None:
        #: (owner path, attribute, layer, calls counter, after hook,
        #: shim). A shim maps ``(ledger, fn)`` to a replacement for ``fn``
        #: that records counts needing state from before the call.
        self.targets = [tuple(t) + (None,) * (6 - len(t)) for t in targets]
        self.missing: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self, ledger: Ledger) -> None:
        self.missing = []
        for owner_path, attr, layer, calls, after, shim in self.targets:
            owner = _resolve(owner_path)
            raw = None
            if owner is not None:
                raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            if raw is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            kind = type(raw) if isinstance(
                raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind is not None else raw
            if shim is not None:
                fn = shim(ledger, fn)
            patched = ledger.wrap(layer, fn, calls, after)
            if kind is not None:
                patched = kind(patched)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def public_methods(owner_path: str, layer: str):
    """Targets for every public method a class defines itself."""
    cls = _resolve(owner_path)
    if not isinstance(cls, type):
        return [(owner_path, "<class>", layer)]
    return [(owner_path, name, layer)
            for name, value in vars(cls).items()
            if not name.startswith("_") and (
                callable(value)
                or isinstance(value, (classmethod, staticmethod)))]

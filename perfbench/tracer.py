"""Span tracer that wraps the public functions of the dna_necklace modules.

Tracing happens entirely from the benchmark's side: `install` replaces
every public function of every loaded `dna_necklace` module with a
wrapper, under every name that binds it (so `numtheory.binomial`,
`series.binomial`, `counting.binomial` and the package's `binomial` all
record into the span named ``numtheory.binomial``).  Of the `cli` module
only `main` is wrapped, so `cli.main` self time is the front end itself:
argument parsing, rendering and writing.

Each call records a span (id, name, start, end, parent id, operation id).
Self time is a span's duration minus the time its child spans cover; it
is accumulated per name as calls return, so `calls` and `self_s` stay
exact however many spans are kept.  The hot leaves run millions of times
per distribution, so only the first `max_spans` spans are kept for the
span file; the rest are counted in `dropped`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "dna_necklace"


class Tracer:
    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # name -> hook(tracer, args, result, duration), run after each call
        self.hooks: dict = {}
        # Counters the hooks fill: computed sizes, not measured ones.
        self.counters: dict[str, float] = {}
        self.op_id: int | None = None
        self._next_id = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append(
                        (span_id, name, start, end,
                         parent[0] if parent else None, self.op_id)
                    )
                else:
                    self.dropped += 1
            hook = self.hooks.get(name)
            if hook is not None:
                hook(self, args, result, end - start)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function under every module name binding it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (short != "cli" or attr == "main")
                ):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "spans_columns": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
        }

"""In-memory spans around library functions, installed from outside.

The library has no tracing of its own.  ``Tracer.install`` replaces a
function at the module attribute its caller resolves (for example
``otrelabel.transport.knn_transfer``, which ``sbm_transport`` looks up in
its own module) with a wrapper that records a span, and ``restore`` puts
every original back.  Spans hold name, start, end and the index of the
parent span; they stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``on_result(counts, args,
        result)`` adds the call's work counts after it returns."""
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, args, result)
            return result
        return traced

    def install(self, module, attr: str, name: str,
                on_result: Optional[Callable] = None) -> bool:
        """Wrap ``module.attr``; False when the module has no such name."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms (duration minus the
        time its direct children cover; children never overlap)."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span, covered in zip(self.spans, child_s):
            row = out[span.name]
            row["calls"] += 1
            row["ms"] += (span.end - span.start) * 1e3
            row["self_ms"] += (span.end - span.start - covered) * 1e3
        return out

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]

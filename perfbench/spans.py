"""In-memory span recorder and the summary statistics the benchmark reports.

Spans are recorded only by the benchmark's own code, around its calls into
the program's public functions; nothing inside ``src/`` is instrumented.
A span is ``(name, start, end, parent, job)``: ``start``/``end`` are
``time.perf_counter()`` seconds, ``parent`` is the id of the span that
caused it (``None`` for a root) and ``job`` groups the spans of one job.
Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

_NULL = nullcontext()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    """Collects spans when ``enabled``; otherwise every call is a no-op.

    The untraced end-to-end measurement and the traced per-layer run drive
    the identical code path: only this object's ``enabled`` flag differs.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> Optional[int]:
        """Reserve a span id, so children can name a parent that ends later."""
        if not self.enabled:
            return None
        with self._lock:
            return next(self._ids)

    def add(self, name: str, start: float, end: float, *,
            parent: Optional[int] = None, job: Optional[str] = None,
            span_id: Optional[int] = None, **attrs) -> Optional[int]:
        """Record a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            if span_id is None:
                span_id = next(self._ids)
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "job": job}
            record.update(attrs)
            self.spans.append(record)
        return span_id

    @contextmanager
    def _span(self, name, parent, job, attrs):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent=parent, job=job, **attrs)

    def span(self, name: str, *, parent: Optional[int] = None,
             job: Optional[str] = None, **attrs):
        """Context manager timing the enclosed block as one span."""
        if not self.enabled:
            return _NULL
        return self._span(name, parent, job, attrs)

    def durations_ms(self, name: str) -> List[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name]

    def p50_ms(self, name: str) -> float:
        return median(self.durations_ms(name))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def named(self, name: str) -> Iterable[dict]:
        return (s for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}

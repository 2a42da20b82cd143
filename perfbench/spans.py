"""In-memory spans around calls into the library, and what they add up to.

A span records its name, start, end, parent span and operation id.  Spans
are kept in a list while the workload runs and written out once at the end,
so tracing costs one tuple per call and no I/O inside the timed region.
"""

from __future__ import annotations

import gzip
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

ROOT_SPAN = "bench.op"


class Tracer:
    """Collects spans; ``wrap`` turns a library function into a traced one."""

    def __init__(self):
        self.records: list[tuple] = []  # (op, parent, name, start_ns, end_ns, ok)
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        sid = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self.records.append((self.op, parent, name, perf_counter_ns(), 0, True))
        return sid

    def end(self, sid: int, ok: bool = True) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        op, parent, name, start, _, _ = self.records[sid]
        self.records[sid] = (op, parent, name, start, end, ok)

    def wrap(self, name: str, fn, variant=None):
        """Traced stand-in for ``fn``; ``variant(args)`` appends a suffix to the name."""

        def traced(*args, **kwargs):
            label = name if variant is None else f"{name}.{variant(args, kwargs)}"
            sid = self.begin(label)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.end(sid, ok)

        return traced

    def namespace(self, table: dict) -> SimpleNamespace:
        """Traced namespace from ``{attr: (span name, fn, variant)}``."""
        return SimpleNamespace(
            **{attr: self.wrap(name, fn, variant) for attr, (name, fn, variant) in table.items()}
        )

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: span,op,parent,name,start_ns,end_ns,ok."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span,op,parent,name,start_ns,end_ns,ok\n")
            for sid, (op, parent, name, start, end, ok) in enumerate(self.records):
                out.write(f"{sid},{op},{parent},{name},{start},{end},{int(ok)}\n")


def plain_namespace(table: dict) -> SimpleNamespace:
    """Untraced namespace with the same attributes as ``Tracer.namespace``."""
    return SimpleNamespace(**{attr: fn for attr, (_, fn, _) in table.items()})


class SpanSummary:
    """Per-name durations and per-module self time of a list of spans."""

    def __init__(self, records):
        children = defaultdict(int)
        for op, parent, name, start, end, ok in records:
            if parent >= 0:
                children[parent] += end - start
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.failures: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        for sid, (op, parent, name, start, end, ok) in enumerate(records):
            duration = end - start
            self.durations[name].append(duration)
            if not ok:
                self.failures[name] += 1
            self.self_ns[name.split(".", 1)[0]] += duration - children[sid]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def busy_ms(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / 1e6

    def p50_us(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    def self_ms(self, module: str) -> float:
        return self.self_ns.get(module, 0) / 1e6

    def accepted(self, name: str) -> int:
        return self.calls(name) - self.failures.get(name, 0)

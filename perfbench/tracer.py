"""Outside-in span recorder for the traced benchmark run.

The library is not modified: `Tracer.install` replaces public functions
and methods of the `locbound` modules by wrappers that record one span per
call (name, start, end, parent span, task tag), and `Tracer.uninstall`
puts the originals back. Spans stay in memory until `dump` writes them.
Standard library only.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, tag]
        self.tag = ""
        self.peaks: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.tag]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every target: (layer, "func" or "Class.method", on_result).

        A module-level function is also replaced wherever another locbound
        module imported it by name, so calls between layers are seen too.
        """
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "locbound" or n.startswith("locbound."))]
        for layer, qualname, on_result in targets:
            owner = importlib.import_module(f"locbound.{layer}")
            *classes, attr = qualname.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self._wrap(f"{layer}.{attr}", original, on_result)
            holders = [owner] if classes else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per (name, tag): calls, self time and inclusive time."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            row = out[(span[NAME], span[TAG])]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += span[END] - span[START]
        return dict(out)

    def top_level_s(self, since: float) -> float:
        """Wall time covered by spans with no parent, started after `since`."""
        return sum(s[END] - s[START] for s in self.spans
                   if s[PARENT] < 0 and s[START] >= since)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tag"],
                       "spans": self.spans}, fh)

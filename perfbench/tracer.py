"""Outside-in tracer: wraps module-level names of the package at run time.

The package resolves the names it calls (``nlft_forward`` inside
``su2nlft.verify`` and so on) through its module globals at call time, so
replacing a global with a timing wrapper records a span for every call
without touching the package's files.  Each span is ``[name, start, end,
parent, item]``; spans stay in memory and are written out at the end.
A name that the package no longer defines is recorded as absent and
skipped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._item = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._item])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def item(self, index: int):
        """Span around one benchmark item; inner spans carry its index."""
        self._item = index
        idx = self._open("bench.item")
        try:
            yield
        finally:
            self._close(idx)
            self._item = -1

    # -- installing wrappers -------------------------------------------------

    def wrap(self, module, attr: str, span_name: str, keep_result: bool = False):
        """Replace ``module.attr`` by a span-recording wrapper."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep_result:
                self.results[span_name].append(result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, fn))

    def count(self, owner, attr: str, counter: str):
        """Count calls of ``owner.attr`` without recording spans."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- summaries ---------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s``, ``self_s`` and ``p50_ms``.

        ``busy_s`` sums the spans of a name that have no ancestor of the
        same name; ``self_s`` subtracts the time covered by direct
        children.  Children of one span never overlap: the run has one
        thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            d = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            d["calls"] += 1
            d["self_s"] += (end - start) - child_time[i]
            durations[name].append(end - start)
            if not self._has_ancestor(i, name):
                d["busy_s"] += end - start
        for name, ds in durations.items():
            out[name]["p50_ms"] = float(np.median(ds)) * 1e3
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, item."""
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

"""Bench-side span recorder.

A span is recorded around one call of the benchmark into a layer's public
function: name, start, end, parent span and a batch or session tag.  Spans
stay in memory and are written out when the run ends.  Counts (hits,
probes, bytes) are taken by the workloads at the same call boundaries.

Layers that run inside one opaque call (the means, resolve and vote steps
inside ``recognize_records``) are measured by replaying the same batch
through each step's public function in a separate top-level span; the
replayed seconds then split the opaque span's self time, and what they do
not cover is reported as a remainder row.  :meth:`Tracer.layer_table`
builds that table; its rows add up to the accounted wall time by
construction, so that sum checks nothing.  :func:`replay_check` is the
check that can fail: a remainder below zero (the replayed steps cost more
than the call), or above the share of the call its workload allows, means
the replay does not describe the call.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``span name -> (component seconds by row name, remainder row name)``.
Decomposition = Dict[str, Tuple[Dict[str, float], str]]

#: Smallest share of the split call a remainder row may take; timing noise
#: between a call and its replay allows a little below zero.
REMAINDER_FLOOR = -0.05
#: Largest share of a call its replay may leave uncovered, when the
#: remainder is not a layer of its own.
REPLAY_GAP_CEILING = 0.5


class Tracer:
    """Spans of one traced run; thread-safe appends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[id, name, start, end, parent, tag]`` per span.
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block; nested spans on the same thread get
        it as their parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            record = [sid, name, self.clock(), None, parent, tag]
            self.spans.append(record)
        stack.append(sid)
        try:
            yield record
        finally:
            stack.pop()
            record[3] = self.clock()

    # -- analysis -----------------------------------------------------------
    def _trees(self, roots: Iterable[str]) -> Tuple[List[list], float]:
        """Spans under top-level spans named in ``roots``, and the summed
        duration of those top-level spans."""
        roots = set(roots)
        keep: Dict[int, bool] = {}
        wall = 0.0
        out = []
        for sid, name, start, end, parent, _ in self.spans:
            if parent is None:
                keep[sid] = name in roots
                if keep[sid]:
                    wall += end - start
            else:
                keep[sid] = keep[parent]
            if keep[sid]:
                out.append(self.spans[sid])
        return out, wall

    def wall(self, roots: Iterable[str]) -> float:
        return self._trees(roots)[1]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def self_times(self, roots: Iterable[str]) -> Dict[str, float]:
        """Self seconds by span name within the ``roots`` trees: each
        span's duration minus the part its children cover."""
        spans, _ = self._trees(roots)
        child = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def layer_table(
        self, roots: Iterable[str], decompose: Optional[Decomposition] = None
    ) -> Tuple[Dict[str, float], float]:
        """Rows of self seconds that add up to the wall time of the
        ``roots`` spans.

        A span named in ``decompose`` is replaced by its replayed component
        rows plus a remainder row: its self time minus the components.
        """
        roots = list(roots)
        rows = self.self_times(roots)
        for name, (components, remainder) in (decompose or {}).items():
            own = rows.pop(name, 0.0)
            for part, seconds in components.items():
                rows[part] = rows.get(part, 0.0) + seconds
            rows[remainder] = rows.get(remainder, 0.0) + own - sum(
                components.values()
            )
        return rows, self.wall(roots)

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Spans as JSON lines, then ``extra`` as one line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "tag": tag,
                }) + "\n")
            fh.write(json.dumps(extra or {}) + "\n")


def replay_check(
    remainders: Dict[str, Tuple[float, float, float]]
) -> Dict[str, dict]:
    """``remainder row -> (seconds, seconds of the call it splits, largest
    share allowed)`` to each row's share of its call and whether it lies
    between ``REMAINDER_FLOOR`` and that ceiling."""
    out = {}
    for name, (rest, whole, ceiling) in remainders.items():
        share = rest / whole if whole > 0 else 0.0
        out[name] = {"share": share,
                     "ok": REMAINDER_FLOOR <= share <= ceiling}
    return out


def interleaved(slot: int) -> bool:
    """Whether measurement ``slot`` is traced: untraced and traced slots
    alternate in ABBA order, so a drift over the run cancels out."""
    return slot % 4 in (1, 2)


def overhead(traced: List[float], untraced: List[float]) -> float:
    """Mean traced wall time over mean untraced wall time."""
    if not traced or not untraced:
        return 0.0
    return (sum(traced) / len(traced)) / (sum(untraced) / len(untraced))


class NullTracer(Tracer):
    """Tracing off: spans cost one context-manager entry and record nothing."""

    @contextmanager
    def span(self, name: str, tag=None):
        yield None

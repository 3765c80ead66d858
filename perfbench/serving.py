"""``serve``: the ``efd serve <file>`` path, run in process.

NDJSON lines are read from the seed's feed file in 256-line chunks, parsed
with ``read_samples`` and handed to ``IngestService.submit_many`` under
``ServeConfig()`` defaults (block backpressure) against the local columnar
store; one closed loop.  Jobs start evenly spread in feed time, so a few
hundred sessions are open at once and readiness is spread over the run.
Verdict latency runs from the hand-off of the chunk that holds a job's
readiness-completing line until ``on_verdict`` fires.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.streaming import StreamSession
from repro.engine import BatchRecognizer, load_columnar
from repro.serve import IngestService, ServeConfig, read_samples

from perfbench.common import (
    DEPTH, INTERVAL, METRIC, HostSpeed, count_mismatches, quantile_ms,
    vm_hwm_mb,
)
from perfbench.inputs import SeedInputs
from perfbench.spans import NullTracer, Tracer, overhead

CHUNK = 256
SETUP_REPEATS = 5
#: Host-speed samples taken just before and just after the timed pass.
SPEED_SAMPLES = 60
#: Line rate far above any this service reaches; the feed check counts
#: readiness events within one ``batch_max_delay`` of feed at this rate,
#: so a feed passes only if it spreads readiness at any realistic speed.
FEED_CHECK_LINES_PER_S = 1_000_000


def max_ready_burst(ready_line: np.ndarray, window_lines: int) -> int:
    """Most readiness-completing lines within any ``window_lines`` lines."""
    ready = np.sort(ready_line)
    ends = np.searchsorted(ready, ready + window_lines, side="left")
    return int((ends - np.arange(len(ready))).max()) if len(ready) else 0


def check_feed(ready_line: np.ndarray, config: ServeConfig) -> int:
    """Reject a feed whose sessions become ready in bursts larger than one
    micro-batch; returns the largest burst."""
    window = max(1, int(FEED_CHECK_LINES_PER_S * config.batch_max_delay))
    burst = max_ready_burst(ready_line, window)
    if burst > config.batch_max_sessions:
        raise ValueError(
            f"feed readiness burst of {burst} sessions within {window} "
            f"lines exceeds one micro-batch ({config.batch_max_sessions})"
        )
    return burst


class TimedEngine:
    """Engine wrapper handed to the service in traced runs: once
    ``recording`` is set, times every ``recognize_sessions`` call and
    keeps its sessions for the replays."""

    def __init__(self, engine: BatchRecognizer, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer
        self.recording = False
        self.batches: List[List[StreamSession]] = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def recognize_sessions(self, sessions, force=False):
        if not self.recording:
            return self._engine.recognize_sessions(sessions, force=force)
        with self._tracer.span("serve.service.resolve", tag=len(sessions)):
            results = self._engine.recognize_sessions(sessions, force=force)
        self.batches.append(list(sessions))
        return results


class Feed:
    """The seed's feed file plus, per job, its oracle digest and the line
    that completes its readiness."""

    def __init__(self, inp: SeedInputs):
        meta = np.load(inp.feed_file("feed.npz"))
        self.path = inp.feed_file("feed.ndjson")
        self.expected = meta["expected"]
        self.ready_line = meta["ready_line"]
        self.steady_line = int(meta["steady_line"])
        order = np.argsort(self.ready_line, kind="stable")
        self.ready_sorted = self.ready_line[order]
        self.ready_jobs = order


async def _start(store_dir: str, on_verdict, tracer: Optional[Tracer] = None):
    t0 = time.perf_counter()
    store = load_columnar(store_dir)
    engine = BatchRecognizer(store, metric=METRIC, depth=DEPTH,
                             interval=INTERVAL)
    if tracer is not None:
        engine = TimedEngine(engine, tracer)
    service = IngestService(engine, ServeConfig(), on_verdict=on_verdict)
    await service.start()
    return service, time.perf_counter() - t0


async def _pass(service, feed: Feed, seconds: float, tracer):
    """Feed the ramp-up lines untimed, then chunks for ``seconds``, then
    drain.  Returns per-job hand-off times, the first timed line, lines fed
    while timed, wall seconds, the late samples counted before timing and
    whether the feed ran out before ``seconds``."""
    handoff = np.full(len(feed.expected), np.nan)
    ready, jobs = feed.ready_sorted, feed.ready_jobs
    line_no = 0
    gc.collect()
    with open(feed.path, "r", encoding="ascii") as fh:
        while line_no < feed.steady_line:
            chunk = list(itertools.islice(fh, CHUNK))
            await service.submit_many(list(read_samples(chunk)))
            line_no += len(chunk)
        start = line_no
        rp = int(np.searchsorted(ready, start))
        if isinstance(service.engine, TimedEngine):
            service.engine.recording = True
        late_before = service.stats.n_late
        t_start = time.perf_counter()
        exhausted = False
        with tracer.span("pass"):
            while True:
                chunk = list(itertools.islice(fh, CHUNK))
                if not chunk:
                    exhausted = True
                    break
                with tracer.span("serve.stream.parse"):
                    samples = list(read_samples(chunk))
                end = line_no + len(chunk)
                now = time.perf_counter()
                while rp < len(ready) and ready[rp] < end:
                    handoff[jobs[rp]] = now
                    rp += 1
                with tracer.span("serve.service.submit"):
                    await service.submit_many(samples)
                line_no = end
                if time.perf_counter() - t_start >= seconds:
                    break
            with tracer.span("serve.service.drain"):
                await service.drain()
        wall = time.perf_counter() - t_start
    if exhausted:
        # Sessions stop opening near the end of the feed, so the last
        # seconds measure a winding-down service.
        print(f"warning: the feed ran out after {wall:.1f} s of "
              f"{seconds:.1f} s", file=sys.stderr)
    return handoff, start, line_no - start, wall, late_before, exhausted


def _collect(feed: Feed, handoff, done, results, stats) -> dict:
    fed = np.flatnonzero(~np.isnan(handoff))
    got = np.array([j for j in fed.tolist() if j in results], dtype=int)
    failed = len(fed) - len(got) + stats.n_shed + stats.n_evicted
    failed += count_mismatches(
        [results[j] for j in got.tolist()], feed.expected[got]
    )
    latency = done[got] - handoff[got]
    return {"attempted": len(fed), "failed": failed, "verdicts": len(got),
            "latency": latency}


def _recorder(done: np.ndarray, results: Dict[int, object]):
    def on_verdict(job: str, result) -> None:
        j = int(job[1:])
        done[j] = time.perf_counter()
        results[j] = result
    return on_verdict


async def _run_async(inp: SeedInputs, seconds: float) -> dict:
    feed = Feed(inp)
    burst = check_feed(feed.ready_line, ServeConfig())
    done = np.full(len(feed.expected), np.nan)
    results: Dict[int, object] = {}
    setup_s = []
    service = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            await service.close(force=False)
            service = None  # let the collection below free it
        gc.collect()
        service, took = await _start(inp.file("store"),
                                     _recorder(done, results))
        setup_s.append(took)
    # The feed loop has no pause to sample the host's speed in without
    # changing what the service sees, so it is sampled around the run.
    speed = HostSpeed()
    speed.sample(SPEED_SAMPLES)
    handoff, _, lines, wall, _, exhausted = await _pass(
        service, feed, seconds, NullTracer()
    )
    speed.sample(SPEED_SAMPLES)
    stats = service.stats
    await service.close(force=False)
    out = _collect(feed, handoff, done, results, stats)
    latency = out["latency"]
    raw = {
        "execs_per_s": out["verdicts"] / wall,
        "setup_s": float(np.median(setup_s)),
        "verdict_p50_ms": quantile_ms(latency, 50),
        "verdict_p99_ms": quantile_ms(latency, 99),
        "peak_rss_mb": vm_hwm_mb(),
    }
    return {
        "attempted": out["attempted"],
        "failed": out["failed"],
        # Most of a verdict's latency is the service's micro-batch timer
        # (``batch_max_delay``), which host speed does not move.
        "metrics": speed.scale(
            raw, unscaled=("verdict_p50_ms", "verdict_p99_ms")
        ),
        "info": {
            "lines": lines, "wall_s": wall, "verdict_samples": len(latency),
            "feed_max_ready_burst": burst, "feed_exhausted": exhausted,
            "late": stats.n_late,
            "setup_samples": len(setup_s), **speed.info(raw),
        },
    }


def run(inp: SeedInputs, seed: int, seconds: float) -> dict:
    return asyncio.run(_run_async(inp, seconds))


# -- traced run ---------------------------------------------------------------

def _replay(tracer: Tracer, feed: Feed, start: int, lines: int,
            engine: TimedEngine) -> None:
    """Streaming and lookup layers replayed on the traced pass's input."""
    with open(feed.path, "r", encoding="ascii") as fh:
        samples = list(read_samples(
            itertools.islice(fh, start, start + lines)
        ))
    ready = feed.ready_line
    sessions: Dict[str, StreamSession] = {}
    items = []
    for line, s in enumerate(samples, start=start):
        j = int(s.job[1:])
        if line > ready[j]:
            continue  # the service drops it as late
        session = sessions.get(s.job)
        if session is None:
            session = sessions[s.job] = StreamSession(
                engine.dictionary, METRIC, DEPTH, INTERVAL,
                s.n_nodes or ServeConfig().default_nodes, session_id=s.job,
            )
        items.append((session.ingest, s.node, s.time, s.value))
    with tracer.span("replay"):
        with tracer.span("core.streaming.ingest"):
            for ingest, node, t, value in items:
                ingest(node, t, value)
        done = [s for s in sessions.values() if s.ready]
        with tracer.span("core.streaming.fingerprints"):
            for session in done:
                session.fingerprints()
        store = engine.dictionary
        for batch in engine.batches:
            unique = list(dict.fromkeys(
                fp for s in batch for fp in s.fingerprints()
                if fp is not None
            ))
            with tracer.span("engine.columnar.lookup_many"):
                store.lookup_many(unique)


async def _traced_async(inp: SeedInputs, seconds: float) -> dict:
    feed = Feed(inp)
    check_feed(feed.ready_line, ServeConfig())
    store_dir = inp.file("store")
    gc.collect()
    t0 = time.perf_counter()
    store = load_columnar(store_dir)
    t1 = time.perf_counter()
    store.warm_index()
    open_s, index_build_s = t1 - t0, time.perf_counter() - t1
    del store

    # Untraced, traced, untraced: a drift over the run cancels out of the
    # per-line overhead ratio.
    passes = []
    tracer = Tracer()
    for traced in (False, True, False):
        done = np.full(len(feed.expected), np.nan)
        results: Dict[int, object] = {}
        service, _ = await _start(store_dir, _recorder(done, results),
                                  tracer if traced else None)
        handoff, start, lines, wall, late_before, _ = await _pass(
            service, feed, seconds / 3, tracer if traced else NullTracer(),
        )
        stats = service.stats
        await service.close(force=False)
        passes.append({
            "traced": traced, "start": start, "lines": lines,
            "per_line": wall / max(lines, 1), "service": service,
            "late": stats.n_late - late_before,
            "out": _collect(feed, handoff, done, results, stats),
        })
    on = passes[1]
    engine = on["service"].engine
    _replay(tracer, feed, on["start"], on["lines"], engine)
    rows, wall = tracer.layer_table(["pass"])
    sizes = [len(b) for b in engine.batches]
    stats = on["service"].stats
    untraced = [p["per_line"] for p in passes if not p["traced"]]
    metrics = {
        "serve.stream.parse_s": rows.get("serve.stream.parse", 0.0),
        "serve.service.submit_s": rows.get("serve.service.submit", 0.0),
        "serve.service.drain_s": rows.get("serve.service.drain", 0.0),
        "serve.service.resolve_s": tracer.total("serve.service.resolve"),
        "serve.service.batch_sessions_mean":
            float(np.mean(sizes)) if sizes else 0.0,
        "serve.service.late_share": on["late"] / max(on["lines"], 1),
        "serve.service.queue_peak": stats.queue_peak,
        "core.streaming.ingest_s": tracer.total("core.streaming.ingest"),
        "core.streaming.fingerprints_s":
            tracer.total("core.streaming.fingerprints"),
        "engine.columnar.lookup_many_s":
            tracer.total("engine.columnar.lookup_many"),
        "engine.columnar.open_s": open_s,
        "engine.columnar.index_build_s": index_build_s,
        "trace.overhead": overhead([on["per_line"]], untraced),
    }
    return {
        "attempted": sum(p["out"]["attempted"] for p in passes),
        "failed": sum(p["out"]["failed"] for p in passes),
        "metrics": metrics, "tracer": tracer, "rows": rows, "wall": wall,
    }


def run_traced(inp: SeedInputs, seed: int, seconds: float) -> dict:
    return asyncio.run(_traced_async(inp, seconds))

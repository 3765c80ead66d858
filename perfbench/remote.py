"""``remote``: ``recognize_sessions`` over two ``efd shardserve`` children.

Sessions are windowed before timing and resolved in micro-batches of
``ServeConfig().batch_max_sessions`` through a ``BatchRecognizer`` on a
``RemoteShardBackend``: two ``efd shardserve`` processes on loopback TCP,
one shard each, one pooled connection per host, filter mirrors on; about
30% of sessions are unknown.  Each server gets a fresh copy of the
seed's remote store.  The servers boot on every CPU, as separate hosts
would, and once they listen they join the client on CPU 0: a round trip
then never waits for the other CPU to be scheduled, which on a shared
host put 10-20 ms stalls into up to a tenth of the micro-batches and made
the tail unsteady.  The session pool is built and frozen
before the servers boot, so the client's collections in the timed phase
scan the program's objects, not the benchmark's sessions.  The records
path over a remote store is left out on purpose: it downloads the whole
dictionary through ``entries()``.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from repro._util import framing
from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.streaming import StreamSession
from repro.engine import BatchRecognizer, RemoteShardBackend, load_sharded
from repro.engine.sharded import shard_index
from repro.serve import ServeConfig

from perfbench.common import (
    DEPTH, INTERVAL, METRIC, N_NODES, N_SAMPLES, N_SHARDS, ROOT, HostSpeed,
    count_mismatches, freeze_inputs, node_series, pin_to_cpu, quantile_ms,
    vm_hwm_mb,
)
from perfbench.inputs import SeedInputs
from perfbench.offline import Workdir
from perfbench.spans import (
    REPLAY_GAP_CEILING, NullTracer, Tracer, interleaved, overhead,
)

N_SESSIONS = 4_096
UNKNOWN_SHARE = 0.3
SETUP_REPEATS = 5
MICRO_BATCH = ServeConfig().batch_max_sessions
BOOT_TIMEOUT_S = 60.0
#: Micro-batches between two host-speed samples (one sample takes about
#: two micro-batches' time).
SPEED_EVERY = 32


def _unpin() -> None:
    """Let the calling thread run on every CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, range(os.cpu_count() or 1))


def _pin_process(pid: int, cpu: int) -> None:
    """Move every thread of the running process ``pid`` onto one CPU."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            pin_to_cpu(int(tid), cpu)
        except ProcessLookupError:  # the thread has ended
            pass


class Fleet:
    """Two shard servers plus the client engine talking to them."""

    def __init__(self, inp: SeedInputs, work: Workdir):
        self.procs: List[subprocess.Popen] = []
        self.backend = None
        self.engine = None
        self.warm_s = 0.0
        dirs = [work.fresh_store("remote_store") for _ in range(N_SHARDS)]
        self._log = open(os.path.join(work.root, "shardserve.log"), "a")
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        gc.collect()
        t0 = time.perf_counter()
        try:
            for shard, directory in enumerate(dirs):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "shardserve",
                     "--dir", directory, "--shards", str(shard),
                     "--n-shards", str(N_SHARDS), "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, stderr=self._log, text=True,
                    env=env, preexec_fn=_unpin,
                ))
            specs = [
                f"{shard}@{self._endpoint(proc)}"
                for shard, proc in enumerate(self.procs)
            ]
            for proc in self.procs:
                _pin_process(proc.pid, 0)
            self.backend = RemoteShardBackend(specs, n_shards=N_SHARDS,
                                              pool_size=1)
            t1 = time.perf_counter()
            if not self.backend.warm_filter_mirrors():
                raise RuntimeError("filter mirrors did not warm")
            self.warm_s = time.perf_counter() - t1
            self.engine = BatchRecognizer(
                self.backend, metric=METRIC, depth=DEPTH, interval=INTERVAL
            )
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _endpoint(self, proc: subprocess.Popen) -> str:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"efd shardserve exited with {proc.wait()} before "
                    f"listening"
                )
            if line.startswith("listening on "):
                return line.split()[-1].replace("tcp://", "")
        raise RuntimeError("efd shardserve did not report its endpoint")

    def children_hwm_mb(self) -> float:
        return sum(vm_hwm_mb(p.pid) for p in self.procs)

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        self.procs = []
        self._log.close()


class SessionPool:
    """Windowed sessions cycled through micro-batches, with the oracle
    digest of each.  Verdicts come from ``recognize_sessions`` on the
    fleet's engine, so the sessions' own dictionary stays empty."""

    def __init__(self, inp: SeedInputs, seed: int):
        dictionary = ExecutionFingerprintDictionary()
        rng = np.random.default_rng([seed, 3])
        n_unknown = round(N_SESSIONS * UNKNOWN_SHARE)
        known_digest = inp.array("remote_known_digest")
        unknown_digest = inp.array("remote_unknown_digest")
        k = rng.integers(0, len(known_digest), N_SESSIONS - n_unknown)
        u = rng.integers(0, len(unknown_digest), n_unknown)
        values = np.concatenate([
            inp.array("known")[k], inp.array("unknown")[u],
        ])
        expected = np.concatenate([known_digest[k], unknown_digest[u]])
        order = rng.permutation(N_SESSIONS)
        self.expected = expected[order]
        block = node_series(values[order])
        times = np.arange(N_SAMPLES, dtype=np.float64)
        self.sessions = []
        for i in range(N_SESSIONS):
            session = StreamSession(dictionary, METRIC, DEPTH, INTERVAL,
                                    N_NODES, session_id=f"s{i}")
            for node in range(N_NODES):
                session.ingest_many(node, times, block[i, node])
            self.sessions.append(session)
        self._at = 0

    def next_batch(self):
        lo = self._at
        self._at = (lo + MICRO_BATCH) % N_SESSIONS
        idx = (lo + np.arange(MICRO_BATCH)) % N_SESSIONS
        return [self.sessions[i] for i in idx.tolist()], self.expected[idx]


def _degraded_sessions(backend, batch) -> int:
    degraded = backend.last_degraded
    if not degraded:
        return 0
    return sum(
        any(fp in degraded for fp in s.fingerprints() if fp is not None)
        for s in batch
    )


def _boot(inp: SeedInputs, work: Workdir):
    setup_s: List[float] = []
    fleet = None
    for _ in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        fleet = Fleet(inp, work)
        setup_s.append(fleet.setup_s)
    return fleet, setup_s


def run(inp: SeedInputs, seed: int, seconds: float) -> dict:
    work = Workdir(inp)
    os.makedirs(work.root, exist_ok=True)
    fleet = None
    try:
        pool = SessionPool(inp, seed)
        freeze_inputs()
        fleet, setup_s = _boot(inp, work)
        gc.collect()
        speed = HostSpeed()
        walls: List[float] = []
        timed = 0.0
        attempted = failed = 0
        engine = fleet.engine
        while timed < seconds:
            if len(walls) % SPEED_EVERY == 0:
                speed.sample()
            batch, expected = pool.next_batch()
            t0 = time.perf_counter()
            results = engine.recognize_sessions(batch)
            wall = time.perf_counter() - t0
            timed += wall
            walls.append(wall)
            attempted += len(results)
            failed += count_mismatches(results, expected)
            failed += _degraded_sessions(fleet.backend, batch)
        walls_a = np.array(walls)
        raw = {
            "execs_per_s": attempted / timed,
            "setup_s": float(np.median(setup_s)),
            "verdict_p50_ms": quantile_ms(walls_a, 50),
            "verdict_p99_ms": quantile_ms(walls_a, 99),
            "peak_rss_mb": vm_hwm_mb() + fleet.children_hwm_mb(),
        }
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": speed.scale(raw),
            "info": {
                "micro_batches": len(walls), "timed_s": timed,
                "verdict_samples": len(walls),
                "setup_samples": len(setup_s), **speed.info(raw),
            },
        }
    finally:
        if fleet is not None:
            fleet.close()
        work.close()


# -- traced run ---------------------------------------------------------------

_COUNTERS = ("remote_bytes_sent", "remote_bytes_received", "remote_calls",
             "remote_pool_checkouts", "remote_pool_reuses",
             "filter_mirror_hits", "remote_retries", "remote_hedges",
             "remote_degraded")


def _replay(tracer: Tracer, tag, fleet: Fleet, local, batch) -> int:
    """Streaming, lookup, codec and server steps of one micro-batch,
    replayed through their public functions; returns the unique probes."""
    backend = fleet.backend
    with tracer.span("replay", tag=tag):
        with tracer.span("core.streaming.fingerprints", tag=tag):
            fps = [s.fingerprints() for s in batch]
        unique = list(dict.fromkeys(
            fp for row in fps for fp in row if fp is not None
        ))
        with tracer.span("engine.remote.lookup", tag=tag):
            backend.lookup_many(unique)
        buckets: Dict[int, list] = {}
        for fp in unique:
            shard = shard_index(fp, N_SHARDS)
            if local.shards[shard].lookup(fp):  # keys that cross the wire
                buckets.setdefault(shard, []).append(fp)
        for shard, keys in sorted(buckets.items()):
            with tracer.span("util.framing.encode", tag=tag):
                n = len(keys)
                request = framing.encode_probe_request(
                    tag, shard, np.zeros(n, "<i4"), np.zeros(n, "<i4"),
                    np.fromiter((fp.node for fp in keys), "<i8", n),
                    np.fromiter((fp.value for fp in keys), "<f8", n),
                )
            with tracer.span("engine.remote.server_lookup", tag=tag):
                framing.decode_probe_request(request)
                found = local.shards[shard].lookup_many(keys)
                table: Dict[str, int] = {}
                ids = [table.setdefault(l, len(table))
                       for labels in found for l in labels]
                reply = framing.encode_probe_reply(
                    tag, 0, np.array([len(f) for f in found], "<u4"),
                    np.array(ids, "<i4"), new_labels=list(table),
                )
            with tracer.span("util.framing.decode", tag=tag):
                rep = framing.decode_probe_reply(reply)
                labels = rep["new_labels"]
                id_list = rep["label_ids"].tolist()
                pos = 0
                for k in rep["match_counts"].tolist():
                    # The client builds one label list per key.
                    [labels[j] for j in id_list[pos:pos + k]]
                    pos += k
    return len(unique)


def run_traced(inp: SeedInputs, seed: int, seconds: float) -> dict:
    """Untraced and traced micro-batches alternate; each traced one is
    replayed layer by layer."""
    work = Workdir(inp)
    os.makedirs(work.root, exist_ok=True)
    fleet = None
    tracer = Tracer()
    try:
        pool = SessionPool(inp, seed)
        freeze_inputs()
        fleet = Fleet(inp, work)
        local = load_sharded(work.fresh_store("remote_store"))
        stats = fleet.backend.engine_stats
        delta = dict.fromkeys(_COUNTERS, 0)
        null = NullTracer()
        traced: List[float] = []
        untraced: List[float] = []
        attempted = failed = n = unique = 0
        gc.collect()
        # The loop, replays included, runs for ``seconds`` of wall time.
        t_loop = time.perf_counter()
        while time.perf_counter() - t_loop < seconds:
            batch, expected = pool.next_batch()
            on = interleaved(n)
            tr = tracer if on else null
            before = {c: getattr(stats, c) for c in _COUNTERS}
            t0 = time.perf_counter()
            with tr.span("batch", tag=n):
                with tr.span("engine.batch.recognize", tag=n):
                    results = fleet.engine.recognize_sessions(batch)
            wall = time.perf_counter() - t0
            attempted += len(results)
            failed += count_mismatches(results, expected)
            failed += _degraded_sessions(fleet.backend, batch)
            if on:
                traced.append(wall)
                for c in _COUNTERS:
                    delta[c] += getattr(stats, c) - before[c]
                unique += _replay(tracer, n, fleet, local, batch)
            else:
                untraced.append(wall)
            n += 1
        parts = {
            name: tracer.total(name) for name in (
                "core.streaming.fingerprints", "util.framing.encode",
                "util.framing.decode", "engine.remote.server_lookup",
            )
        }
        lookup_s = tracer.total("engine.remote.lookup")
        wire_s = lookup_s - sum(
            v for k, v in parts.items() if k != "core.streaming.fingerprints"
        )
        components = {f"{k}_s": v for k, v in parts.items()}
        components["engine.remote.wire_s"] = wire_s
        rows, wall = tracer.layer_table(["batch"], decompose={
            "engine.batch.recognize": (components,
                                       "engine.batch.replay_gap_s"),
        })
        probes = max(unique, 1)
        metrics = {
            "engine.batch.recognize_s": tracer.total("engine.batch.recognize"),
            "core.streaming.fingerprints_s":
                parts["core.streaming.fingerprints"],
            "engine.batch.replay_gap_s": rows["engine.batch.replay_gap_s"],
            "engine.remote.warm_s": fleet.warm_s,
            "engine.remote.lookup_s": lookup_s,
            "util.framing.encode_s": parts["util.framing.encode"],
            "util.framing.decode_s": parts["util.framing.decode"],
            "engine.remote.server_lookup_s":
                parts["engine.remote.server_lookup"],
            "engine.remote.wire_s": wire_s,
            "engine.remote.bytes_per_probe": (
                delta["remote_bytes_sent"] + delta["remote_bytes_received"]
            ) / probes,
            "engine.remote.mirror_share": delta["filter_mirror_hits"] / probes,
            "engine.remote.pool_reuse_ratio": (
                delta["remote_pool_reuses"]
                / max(delta["remote_pool_checkouts"], 1)
            ),
            "engine.remote.calls_per_batch":
                delta["remote_calls"] / max(len(traced), 1),
            "engine.remote.retries": delta["remote_retries"],
            "engine.remote.hedges": delta["remote_hedges"],
            "engine.remote.degraded": delta["remote_degraded"],
            "trace.overhead": overhead(traced, untraced),
        }
        return {
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "tracer": tracer, "rows": rows, "wall": wall,
            "remainders": {
                "engine.batch.replay_gap_s": (
                    rows["engine.batch.replay_gap_s"],
                    tracer.total("engine.batch.recognize"),
                    REPLAY_GAP_CEILING,
                ),
                # The wire is a layer of its own; only a negative
                # remainder is wrong.
                "engine.remote.wire_s": (wire_s, lookup_s, 1.0),
            },
        }
    finally:
        if fleet is not None:
            fleet.close()
        work.close()

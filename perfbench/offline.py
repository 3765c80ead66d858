"""``records`` and ``learn``: offline ``BatchRecognizer.recognize_records``.

Both run closed loops of 10k-execution batches against the seed's
columnar store; batches are materialised as records from NumPy levels
outside the timed phase, and only the program's own calls are timed.

- ``records``: every known execution of a batch hits rows no earlier
  batch has touched since the store was opened.  When the stored
  executions run out the store is reopened outside the timed phase (the
  reopen is one more ``setup_s`` sample), so rows are cold again.
- ``learn``: ``HOT`` recurring executions keep their rows in the label
  cache, ``LEARN_PER_BATCH`` of each batch's unknown executions are
  learned back under new labels with ``add_many`` after the batch (timed),
  and the ones learned by the previous batch return as hits on the
  delta overlay.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import time
from typing import Dict, List

import numpy as np

from repro.core.matcher import MatchResult, vote
from repro.engine import BatchRecognizer, load_columnar
from repro.engine.batch import build_fingerprints_batch

from perfbench.common import (
    BATCH, DEPTH, INTERVAL, METRIC, N_NODES, OUT_DIR, UNKNOWN_SHARE,
    HostSpeed, RecordBlock, count_mismatches, digests, freeze_inputs,
    make_records, quantile_ms, vm_hwm_mb,
)
from perfbench.inputs import N_LEARNABLE, SeedInputs, learned_label
from perfbench.spans import (
    REPLAY_GAP_CEILING, NullTracer, Tracer, interleaved, overhead,
)

SETUP_REPEATS = 5
HOT = 4_000
LEARN_PER_BATCH = 100
N_UNKNOWN_PER_BATCH = round(BATCH * UNKNOWN_SHARE)


def _cycle(perm: np.ndarray, at: int, n: int):
    """``n`` items of ``perm`` from ``at``, wrapping; and the new cursor."""
    idx = perm[(at + np.arange(n)) % len(perm)]
    return idx, (at + n) % len(perm)


class RecordsTraffic:
    """Cold known executions plus ``UNKNOWN_SHARE`` unknown ones."""

    learn = False

    def __init__(self, inp: SeedInputs, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.known = inp.array("known")
        self.unknown = inp.array("unknown")
        self.known_digest = inp.array("known_digest")
        self.unknown_digest = inp.array("unknown_digest")
        self.n_known = BATCH - N_UNKNOWN_PER_BATCH
        self._perm = self.rng.permutation(len(self.known))
        self._at = 0
        self._uperm = self.rng.permutation(len(self.unknown))
        self._uat = 0

    @property
    def needs_reopen(self) -> bool:
        return self._at + self.n_known > len(self._perm)

    def reopened(self) -> None:
        self._perm = self.rng.permutation(len(self.known))
        self._at = 0

    def next_batch(self):
        k = self._perm[self._at:self._at + self.n_known]
        self._at += self.n_known
        u, self._uat = _cycle(self._uperm, self._uat, N_UNKNOWN_PER_BATCH)
        order = self.rng.permutation(BATCH)
        values = np.concatenate([self.known[k], self.unknown[u]])[order]
        expected = np.concatenate(
            [self.known_digest[k], self.unknown_digest[u]]
        )[order]
        return values, expected, (), ()


class LearnTraffic:
    """Hot recurring executions, cold ones, returning learned ones and
    unknown ones, of which ``LEARN_PER_BATCH`` get learned."""

    learn = True
    needs_reopen = False

    def __init__(self, inp: SeedInputs, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.known = inp.array("known")
        self.unknown = inp.array("unknown")
        self.known_digest = inp.array("known_digest")
        self.unknown_digest = inp.array("unknown_digest")
        self.learned_digest = inp.array("learned_digest")
        perm = self.rng.permutation(len(self.known))
        self.hot, self._cold = perm[:HOT], perm[HOT:]
        self._cat = 0
        self._regular = N_LEARNABLE + self.rng.permutation(
            len(self.unknown) - N_LEARNABLE
        )
        self._rat = 0
        self.learned = np.zeros(N_LEARNABLE, dtype=bool)
        self.batch = 0

    def _learnable(self, b: int) -> np.ndarray:
        return (b * LEARN_PER_BATCH + np.arange(LEARN_PER_BATCH)) % N_LEARNABLE

    def next_batch(self):
        b = self.batch
        returning = self._learnable(b - 1) if b else np.empty(0, dtype=int)
        to_learn = self._learnable(b)
        n_cold = BATCH - N_UNKNOWN_PER_BATCH - HOT - LEARN_PER_BATCH
        cold, self._cat = _cycle(self._cold, self._cat, n_cold)
        regular, self._rat = _cycle(
            self._regular, self._rat, N_UNKNOWN_PER_BATCH - LEARN_PER_BATCH
        )
        ud, ld = self.unknown_digest, self.learned_digest
        parts = [
            (self.known[self.hot], self.known_digest[self.hot]),
            (self.known[cold], self.known_digest[cold]),
            (self.unknown[returning], ld[returning]),
            (self.unknown[to_learn],
             np.where(self.learned[to_learn], ld[to_learn], ud[to_learn])),
            (self.unknown[regular], ud[regular]),
        ]
        values = np.concatenate([p[0] for p in parts])
        expected = np.concatenate([p[1] for p in parts])
        first = HOT + n_cold + len(returning)
        order = self.rng.permutation(len(values))
        pos = np.flatnonzero((order >= first) & (order < first + len(to_learn)))
        learn_ids = to_learn[order[pos] - first]
        return values[order], expected[order], pos, learn_ids

    def learned_now(self, learn_ids: np.ndarray) -> None:
        self.learned[learn_ids] = True
        self.batch += 1


def open_engine(store_dir: str) -> BatchRecognizer:
    store = load_columnar(store_dir)
    return BatchRecognizer(
        store, metric=METRIC, depth=DEPTH, interval=INTERVAL
    ).warm()


def learn_back(engine: BatchRecognizer, records, learn_ids, tracer) -> float:
    """Learn ``records`` under their new labels; returns the seconds spent
    in ``add_many``."""
    with tracer.span("engine.batch.learn_fingerprints"):
        fps = build_fingerprints_batch(records, METRIC, DEPTH, INTERVAL)
    t0 = time.perf_counter()
    with tracer.span("engine.deltalog.add"):
        for fp_list, u in zip(fps, learn_ids.tolist()):
            engine.dictionary.add_many(fp_list, learned_label(u))
    return time.perf_counter() - t0


class Workdir:
    """Fresh store copies for one run, removed when the run ends."""

    def __init__(self, inp: SeedInputs):
        self.inp = inp
        self.root = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self._n = 0

    def fresh_store(self, name: str = "store") -> str:
        self._n += 1
        return self.inp.copy_store(
            name, os.path.join(self.root, f"{name}-{self._n}")
        )

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class OfflineRun:
    """One run of ``records`` or ``learn``; the engine can be reopened."""

    def __init__(self, inp: SeedInputs, seed: int, learn: bool):
        self.inp = inp
        self.traffic = (LearnTraffic if learn else RecordsTraffic)(inp, seed)
        self.work = Workdir(inp)
        self.setup_s: List[float] = []
        self.engine = None
        self.store_dir = inp.file("store")
        self.block = RecordBlock(BATCH)
        freeze_inputs()

    def setup(self) -> None:
        """Open the store and warm the engine; one ``setup_s`` sample."""
        if self.traffic.learn:
            self.store_dir = self.work.fresh_store()
        self.engine = None
        gc.collect()
        t0 = time.perf_counter()
        engine = open_engine(self.store_dir)
        self.setup_s.append(time.perf_counter() - t0)
        self.engine = engine

    def batches(self):
        """Materialised batches, reopening the store when rows run out."""
        while True:
            if self.traffic.needs_reopen:
                self.traffic.reopened()
                self.setup()
                yield "reopen", None
            values, expected, learn_pos, learn_ids = self.traffic.next_batch()
            records = self.block.fill(values)
            yield "batch", (records, expected, learn_pos, learn_ids)

    def step(self, records, learn_pos, learn_ids, tracer, tag):
        """The timed part of one batch: recognize, then learn back."""
        add_s = 0.0
        t0 = time.perf_counter()
        with tracer.span("batch", tag=tag):
            with tracer.span("engine.batch.recognize", tag=tag):
                results = self.engine.recognize_records(records)
            t1 = time.perf_counter()
            if self.traffic.learn:
                add_s = learn_back(
                    self.engine, [records[p] for p in learn_pos], learn_ids,
                    tracer,
                )
        t2 = time.perf_counter()
        if self.traffic.learn:
            self.traffic.learned_now(learn_ids)
        return results, t1 - t0, t2 - t0, add_s

    def close(self) -> None:
        self.engine = None
        self.work.close()


def run(inp: SeedInputs, seed: int, seconds: float, learn: bool) -> dict:
    """End-to-end metrics of one untraced run."""
    r = OfflineRun(inp, seed, learn)
    try:
        for _ in range(SETUP_REPEATS):
            r.setup()
        null = NullTracer()
        speed = HostSpeed()
        timed = 0.0
        walls: List[float] = []
        attempted = failed = 0
        gc.collect()
        for kind, batch in r.batches():
            if kind != "batch":
                continue
            records, expected, learn_pos, learn_ids = batch
            results, call_s, step_s, _ = r.step(
                records, learn_pos, learn_ids, null, len(walls)
            )
            timed += step_s
            walls.append(call_s)
            attempted += len(results)
            failed += count_mismatches(results, expected)
            speed.sample()
            if timed >= seconds:
                break
        # Every verdict of a batch arrives when its call returns, so the
        # batch walls are the latency samples.
        walls_a = np.array(walls)
        raw = {
            "execs_per_s": attempted / timed,
            "setup_s": float(np.median(r.setup_s)),
            "verdict_p50_ms": quantile_ms(walls_a, 50),
            "verdict_p99_ms": quantile_ms(walls_a, 99),
            "peak_rss_mb": vm_hwm_mb(),
        }
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": speed.scale(raw),
            "info": {
                "batches": len(walls), "timed_s": timed,
                "verdict_samples": len(walls),
                "setup_samples": len(r.setup_s), **speed.info(raw),
            },
        }
    finally:
        r.close()


# -- traced run ---------------------------------------------------------------

def _probe_columns(fps) -> tuple:
    nodes = np.tile(np.arange(N_NODES, dtype=np.int64), len(fps))
    values = np.array(
        [math.nan if fp is None else fp.value for row in fps for fp in row]
    )
    return nodes, values


def _replay(tracer, tag, store, records, results, position, seen, counts):
    """Replay one batch step by step on a second store instance; returns
    how many replayed verdicts differ from the real call's."""
    with tracer.span("replay", tag=tag):
        with tracer.span("engine.batch.fingerprints", tag=tag):
            fps = build_fingerprints_batch(records, METRIC, DEPTH, INTERVAL)
        nodes, values = _probe_columns(fps)
        index = store.batch_index(METRIC, INTERVAL)
        with tracer.span("engine.columnar.resolve_cold", tag=tag):
            table = index.resolve_probes(nodes, values)
        with tracer.span("engine.columnar.resolve_warm", tag=tag):
            index.resolve_probes(nodes, values)
        lookups = []
        for row in fps:
            lookups.append([
                table.get((fp.node, fp.value), ((), ()))[0]
                for fp in row if fp is not None
            ])
        with tracer.span("engine.batch.vote", tag=tag):
            voted = [vote(lk, position=position) for lk in lookups]
    replayed = []
    for row, lk, (ranked, votes) in zip(fps, lookups, voted):
        matched: Dict[str, int] = {}
        for labels in lk:
            for label in labels:
                matched[label] = matched.get(label, 0) + 1
        n_fp = sum(fp is not None for fp in row)
        replayed.append(MatchResult(
            ranked=ranked, votes=votes, matched_labels=matched,
            n_fingerprints=n_fp, n_missing=len(row) - n_fp,
        ))
    usable = [
        (fp.node, fp.value) for row in fps for fp in row if fp is not None
    ]
    hit = [key for key in usable if key in table]
    counts["probes"] += len(usable)
    counts["hits"] += len(hit)
    counts["unique"] += len(set(usable))
    fresh = set(hit) - seen
    counts["first_seen_rows"] += len(fresh)
    seen |= fresh
    return count_mismatches(results, digests(replayed))


def _open_costs(store_dir: str, probe) -> tuple:
    """``load_columnar`` seconds and index-build seconds of a fresh open."""
    gc.collect()
    t0 = time.perf_counter()
    store = load_columnar(store_dir)
    t1 = time.perf_counter()
    index = store.batch_index(METRIC, INTERVAL)
    index.resolve_probes(*probe)  # the filter guard builds on first hit
    store.warm_index()
    return t1 - t0, time.perf_counter() - t1


def run_traced(inp: SeedInputs, seed: int, seconds: float,
               learn: bool) -> dict:
    """Per-layer metrics: untraced and traced batches alternate; each
    traced batch is replayed step by step on a second store instance."""
    r = OfflineRun(inp, seed, learn)
    tracer = Tracer()
    try:
        known = inp.array("known")[:1]
        probe = _probe_columns(
            build_fingerprints_batch(make_records(known), METRIC, DEPTH,
                                     INTERVAL)
        )
        open_s, index_build_s = _open_costs(
            r.work.fresh_store() if learn else r.store_dir, probe
        )
        r.setup()

        def replay_store():
            path = r.work.fresh_store() if learn else r.store_dir
            store = load_columnar(path)
            store.batch_index(METRIC, INTERVAL).resolve_probes(*probe)
            return store

        shadow = replay_store()
        null = NullTracer()
        counts = {"probes": 0, "hits": 0, "unique": 0, "first_seen_rows": 0}
        seen: set = set()
        traced_walls: List[float] = []
        untraced_walls: List[float] = []
        add_s = after_write = 0.0
        attempted = failed = 0
        n = slot = 0
        # The first batch after an open builds the engine's index; it is
        # run untraced and left out of the overhead ratio.
        first = True
        # The loop, replays included, runs for ``seconds`` of wall time.
        t_loop = time.perf_counter()
        for kind, batch in r.batches():
            if kind == "reopen":
                shadow, seen, first = replay_store(), set(), True
                continue
            records, expected, learn_pos, learn_ids = batch
            on = not first and interleaved(slot)
            before = tracer.total("engine.batch.recognize")
            results, _, step_s, batch_add_s = r.step(
                records, learn_pos, learn_ids, tracer if on else null, n
            )
            attempted += len(results)
            failed += count_mismatches(results, expected)
            if on:
                traced_walls.append(step_s)
                add_s += batch_add_s
                if learn and n > 0:
                    after_write += tracer.total(
                        "engine.batch.recognize") - before
                position = {
                    a: i for i, a in enumerate(shadow.app_names())
                }
                failed += _replay(tracer, n, shadow, records, results,
                                  position, seen, counts)
            elif not first:
                untraced_walls.append(step_s)
            slot += not first
            first = False
            if learn:
                sub = [records[p] for p in learn_pos]
                fps = build_fingerprints_batch(sub, METRIC, DEPTH, INTERVAL)
                for fp_list, u in zip(fps, learn_ids.tolist()):
                    shadow.add_many(fp_list, learned_label(u))
            n += 1
            if time.perf_counter() - t_loop >= seconds:
                break
        parts = {
            name: tracer.total(name) for name in (
                "engine.batch.fingerprints", "engine.columnar.resolve_cold",
                "engine.batch.vote",
            )
        }
        rows, wall = tracer.layer_table(["batch"], decompose={
            "engine.batch.recognize": (
                {f"{k}_s": v for k, v in parts.items()},
                "engine.batch.replay_gap_s",
            ),
        })
        probes = max(counts["probes"], 1)
        metrics = {
            "engine.batch.recognize_s": tracer.total("engine.batch.recognize"),
            "engine.batch.fingerprints_s": parts["engine.batch.fingerprints"],
            "engine.batch.vote_s": parts["engine.batch.vote"],
            "engine.batch.replay_gap_s": rows["engine.batch.replay_gap_s"],
            "engine.columnar.open_s": open_s,
            "engine.columnar.index_build_s": index_build_s,
            "engine.columnar.resolve_cold_s":
                parts["engine.columnar.resolve_cold"],
            "engine.columnar.resolve_warm_s":
                tracer.total("engine.columnar.resolve_warm"),
            "engine.columnar.hit_ratio": counts["hits"] / probes,
            "engine.columnar.unique_ratio": counts["unique"] / probes,
            "engine.columnar.first_seen_rows": counts["first_seen_rows"],
            "engine.columnar.index_demotions":
                r.engine.stats.index_demotions,
            "trace.overhead": overhead(traced_walls, untraced_walls),
        }
        if learn:
            metrics.update({
                "engine.deltalog.add_s": add_s,
                "engine.deltalog.records": r.engine.dictionary.delta_pending,
                "engine.batch.recognize_after_write_s": after_write,
            })
        return {
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "tracer": tracer, "rows": rows, "wall": wall,
            "remainders": {"engine.batch.replay_gap_s": (
                rows["engine.batch.replay_gap_s"],
                tracer.total("engine.batch.recognize"),
                REPLAY_GAP_CEILING,
            )},
            "info": {"traced_batches": len(traced_walls),
                     "untraced_batches": len(untraced_walls)},
        }
    finally:
        r.close()

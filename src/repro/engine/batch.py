"""Batch recognition: many executions against one (sharded) EFD.

The single-execution path — :func:`repro.core.matcher.match_fingerprints`
after :func:`repro.core.fingerprint.build_fingerprints` — pays Python
overhead per node (scalar interval means, per-lookup dataclass hashing)
and per execution (rebuilding the application order).  At batch scale
all of that amortizes:

- interval means are computed as one NumPy matrix reduction over all
  nodes of the batch (bit-identical to the scalar path: clean rows
  reduce over the same contiguous data, rows with dropout fall back to
  the exact scalar routine);
- rounding is vectorized (:func:`~repro.core.rounding.round_depth_array`
  mirrors the scalar function bit-for-bit);
- stored records resolve and vote in integer-id space
  (:class:`~repro.engine.kernel.RecordKernel`); label and app strings
  are only built into the returned dicts;
- live sessions look each distinct fingerprint up once, fanned out
  shard-parallel via :func:`repro.parallel.pool.parallel_map`, and the
  application order for tie-breaking is computed once per batch.

The result list is element-wise equal to a sequential loop of
``match_fingerprints`` calls — property-tested across shard counts and
pool backends in ``tests/test_engine_properties.py``.
"""

from __future__ import annotations

import os
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import DEFAULT_INTERVAL, Fingerprint
from repro.core.matcher import MatchResult, vote
from repro.core.rounding import round_depth_array
from repro.core.streaming import StreamSession
from repro.data.dataset import ExecutionRecord
from repro.telemetry.timeseries import TimeSeries
from repro.engine.columnar import ColumnarDictionary
from repro.engine.kernel import RecordKernel
from repro.engine.remote import RemoteShardBackend
from repro.engine.sharded import ShardedDictionary, shard_index
from repro.engine.stats import EngineStats
from repro.parallel.partition import chunk_evenly
from repro.parallel.pool import parallel_map

AnyDictionary = Union[ExecutionFingerprintDictionary, ShardedDictionary]


def _lookup_chunk(
    task: Tuple[AnyDictionary, List[Fingerprint]]
) -> List[List[str]]:
    """Look a chunk of unique fingerprints up in one store (pool worker)."""
    store, fps = task
    return [store.lookup(fp) for fp in fps]


def _batch_lookup(
    dictionary: AnyDictionary,
    unique: List[Fingerprint],
    backend: str,
    n_workers: Optional[int],
    stats: Optional[EngineStats] = None,
) -> Dict[Fingerprint, List[str]]:
    """Resolve each unique fingerprint to its label list.

    For a columnar store the whole batch resolves vectorized against the
    column arrays (``base ∪ delta overlay``) — no shard is hydrated and
    no pool is spun up.  For a sharded store the work units are the
    shards themselves (each worker queries only the shard that owns its
    keys); a flat store is split into even chunks.
    """
    overlay_keys: frozenset = frozenset()
    if isinstance(dictionary, RemoteShardBackend):
        # Remote stores must never fall through to per-key lookups (one
        # round trip per key): probe_many IS the batch path — a parallel
        # scatter/gather with the resilience layer around every call.
        label_lists = dictionary.lookup_many(unique)
        return dict(zip(unique, label_lists))
    if isinstance(dictionary, ColumnarDictionary):
        label_lists = dictionary.lookup_many(unique)
        if label_lists is not None:
            return dict(zip(unique, label_lists))
        # A shard was mutated behind the delta-log (or the rank space
        # overflowed): fall through to the generic shard-bucket path,
        # which sees the live shard state — and count the demotion so
        # `efd engine info --stats` surfaces the lost fast path.
        if stats is not None:
            stats.record_index_demotion()
        # The shard buckets below cannot see pending overlay keys;
        # their slots are patched from the merged point path after.
        overlay_keys = frozenset(dictionary.overlay_keys())
    if isinstance(dictionary, ShardedDictionary):
        buckets: List[List[Fingerprint]] = [
            [] for _ in range(dictionary.n_shards)
        ]
        for fp in unique:
            buckets[shard_index(fp, dictionary.n_shards)].append(fp)
        tasks = [
            (dictionary.shards[i], bucket)
            for i, bucket in enumerate(buckets)
            if bucket
        ]
    else:
        tasks = [
            (dictionary, chunk) for chunk in chunk_evenly(unique, _n_tasks(n_workers))
        ]
    label_lists = parallel_map(
        _lookup_chunk, tasks, backend=backend, n_workers=n_workers
    )
    table: Dict[Fingerprint, List[str]] = {}
    for (_, fps), labels in zip(tasks, label_lists):
        for fp, found in zip(fps, labels):
            table[fp] = found
    if overlay_keys:
        for fp in unique:
            if fp in overlay_keys:
                table[fp] = dictionary.lookup(fp)  # merged live state
    return table


def _n_tasks(n_workers: Optional[int]) -> int:
    if n_workers is not None:
        return max(n_workers, 1)
    return max(os.cpu_count() or 1, 1)


def match_fingerprints_batch(
    dictionary: AnyDictionary,
    fingerprint_lists: Sequence[Sequence[Optional[Fingerprint]]],
    backend: str = "serial",
    n_workers: Optional[int] = None,
    stats: Optional[EngineStats] = None,
) -> Tuple[List[MatchResult], int]:
    """Match many executions' fingerprints in one pass.

    Returns ``(results, n_hits)`` where ``results[i]`` equals
    ``match_fingerprints(dictionary, fingerprint_lists[i])`` and
    ``n_hits`` counts lookups (fingerprint occurrences) that matched at
    least one label.  ``stats``, when given, receives the
    index-demotion counter (the only stat this function can observe
    that its caller cannot).
    """
    unique: Dict[Fingerprint, None] = {}
    for fps in fingerprint_lists:
        for fp in fps:
            if fp is not None:
                unique.setdefault(fp, None)
    table = _batch_lookup(dictionary, list(unique), backend, n_workers, stats)
    position = {app: i for i, app in enumerate(dictionary.app_names())}
    results: List[MatchResult] = []
    n_hits = 0
    for fps in fingerprint_lists:
        lookups: List[List[str]] = []
        matched_labels: Dict[str, int] = {}
        n_missing = 0
        n_fingerprints = 0
        for fp in fps:
            if fp is None:
                n_missing += 1
                continue
            n_fingerprints += 1
            labels = table[fp]
            lookups.append(labels)
            if labels:
                n_hits += 1
                for label in labels:
                    matched_labels[label] = matched_labels.get(label, 0) + 1
        ranked, votes = vote(lookups, position=position)
        results.append(
            MatchResult(
                ranked=ranked,
                votes=votes,
                matched_labels=matched_labels,
                n_fingerprints=n_fingerprints,
                n_missing=n_missing,
            )
        )
    return results, n_hits


def _check_metric(record: ExecutionRecord, metric: str) -> None:
    """Same guard (and message) as ``build_fingerprints``."""
    telemetry = record.telemetry
    for node in range(record.n_nodes):
        if (metric, node) in telemetry:
            return
    raise KeyError(
        f"record {record.record_id} ({record.label}) has no telemetry "
        f"for metric {metric!r}"
    )


def _node_series(
    records: Sequence[ExecutionRecord], metric: str
) -> List[TimeSeries]:
    """Every record's ``metric`` series, record-major, node-minor."""
    keys: Dict[int, List[Tuple[str, int]]] = {}
    slots: List[TimeSeries] = []
    for record in records:
        n_nodes = record.n_nodes
        if n_nodes not in keys:
            keys[n_nodes] = [(metric, node) for node in range(n_nodes)]
        try:
            slots.extend(map(record.telemetry.__getitem__, keys[n_nodes]))
        except KeyError:
            # Raise what build_fingerprints raises: no series at all for
            # the metric, or the first node that lacks one.
            _check_metric(record, metric)
            for node in range(n_nodes):
                record.series(metric, node)
            raise
    return slots


def _batch_rounded_means(
    records: Sequence[ExecutionRecord],
    metric: str,
    depth: int,
    start: float,
    end: float,
) -> np.ndarray:
    """Rounded interval means for every (record, node) slot, flattened.

    All series across the whole batch that share period and origin (the
    common case — one cluster, one sampler config) and cover the window
    are copied into a single matrix and reduced in one NumPy call.  A
    clean row reduces over exactly the same contiguous samples as the
    scalar path, so the result is bit-identical; rows containing dropout
    (NaN) and series the fixed window overruns defer to the exact scalar
    routine.  Slots are ordered record-major, node-minor; NaN marks a
    node with no usable fingerprint.
    """
    slots = _node_series(records, metric)
    if not slots:
        return np.empty(0)
    periods = list(map(attrgetter("period"), slots))
    origins = list(map(attrgetter("t0"), slots))
    arrays = list(map(attrgetter("values"), slots))
    lengths = list(map(len, arrays))
    if periods.count(periods[0]) == len(slots) and \
            origins.count(origins[0]) == len(slots):
        groups = {(periods[0], origins[0]): range(len(slots))}
    else:
        groups = {}
        for pos, key in enumerate(zip(periods, origins)):
            groups.setdefault(key, []).append(pos)
    means = np.empty(len(slots))
    for (period, t0), positions in groups.items():
        lo = max(int(np.ceil((start - t0) / period)), 0)
        hi = int(np.ceil((end - t0) / period))
        if hi <= lo:
            stacked: Sequence[int] = ()
        elif min(map(lengths.__getitem__, positions)) >= hi:
            stacked = positions
        else:
            stacked = [pos for pos in positions if lengths[pos] >= hi]
        if len(stacked) < len(positions):
            # The window overruns (or misses) these series — the scalar
            # routine clips and may mean a shorter window; defer.
            for pos in set(positions).difference(stacked):
                means[pos] = slots[pos].interval_mean(start, end)
        if not stacked:
            continue
        windows = map(itemgetter(slice(lo, hi)),
                      map(arrays.__getitem__, stacked))
        matrix = np.concatenate(list(windows)).reshape(len(stacked), hi - lo)
        row_means = matrix.mean(axis=1)  # NaN rows poison themselves only
        for i in np.flatnonzero(np.isnan(row_means)).tolist():
            # Dropout: the scalar path compacts NaNs before the mean.
            row_means[i] = slots[stacked[i]].interval_mean(start, end)
        if len(stacked) == len(slots):
            means = row_means
        else:
            means[np.asarray(stacked, dtype=np.int64)] = row_means
    return round_depth_array(means, depth)


def build_fingerprints_batch(
    records: Sequence[ExecutionRecord],
    metric: str,
    depth: int,
    interval: Tuple[float, float] = DEFAULT_INTERVAL,
) -> List[List[Optional[Fingerprint]]]:
    """Vectorized :func:`~repro.core.fingerprint.build_fingerprints` over
    many records; element-wise identical output."""
    start, end = float(interval[0]), float(interval[1])
    values = _batch_rounded_means(records, metric, depth, start, end).tolist()
    out: List[List[Optional[Fingerprint]]] = []
    pos = 0
    for record in records:
        fps: List[Optional[Fingerprint]] = []
        for node in range(record.n_nodes):
            value = values[pos]
            pos += 1
            if value != value:  # NaN — no valid samples in the interval
                fps.append(None)
                continue
            fps.append(
                Fingerprint(
                    metric=metric, node=node, interval=(start, end), value=value
                )
            )
        out.append(fps)
    return out


class BatchRecognizer:
    """Recognize batches of executions against one dictionary.

    Parameters
    ----------
    dictionary:
        A flat :class:`ExecutionFingerprintDictionary` or a
        :class:`~repro.engine.sharded.ShardedDictionary`.
    metric / depth / interval / unknown_label:
        Fingerprint configuration, as in
        :class:`~repro.core.recognizer.EFDRecognizer`.
    backend / n_workers:
        :func:`~repro.parallel.pool.parallel_map` configuration for the
        session path's shard fan-out (``"serial"``, ``"thread"``, or
        ``"process"``); the records path runs in-process NumPy.
    """

    def __init__(
        self,
        dictionary: AnyDictionary,
        metric: str = "nr_mapped_vmstat",
        depth: int = 3,
        interval: Tuple[float, float] = DEFAULT_INTERVAL,
        unknown_label: str = "unknown",
        backend: str = "serial",
        n_workers: Optional[int] = None,
    ):
        if len(dictionary) == 0:
            raise ValueError("cannot recognize against an empty dictionary")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        start, end = interval
        if end <= start:
            raise ValueError(f"interval end must exceed start, got {interval}")
        self.dictionary = dictionary
        self.metric = metric
        self.depth = int(depth)
        self.interval = (float(start), float(end))
        self.unknown_label = unknown_label
        self.backend = backend
        self.n_workers = n_workers
        self.stats = EngineStats()
        self._index: Optional[RecordKernel] = None
        self._index_version: Optional[int] = None

    def warm(self, for_sessions: bool = False) -> "BatchRecognizer":
        """Prebuild the lookup structures so the first batch pays less setup.

        :meth:`recognize_records` runs the ``(metric, interval)`` records
        kernel, :meth:`recognize_sessions` resolves full fingerprint
        keys; ``for_sessions`` selects which path to warm
        (:class:`repro.serve.IngestService` warms the session path at
        startup).  Idempotent.  On a filtered columnar store the records
        kernel's sorted key table is deferred to the first batch with a
        probe that passes the Bloom filters, so unknown-only traffic
        never reads a column file; a remote store has nothing to
        prebuild for records.
        """
        if for_sessions:
            if isinstance(self.dictionary, ColumnarDictionary):
                # Explicitly build the full-key index: cold lookups
                # would otherwise answer through the negative-lookup
                # filters and defer the build until a batch actually
                # needs it.
                self.dictionary.warm_index()
        elif not isinstance(self.dictionary, RemoteShardBackend):
            self._kernel()
        return self

    @classmethod
    def from_recognizer(
        cls,
        recognizer,
        n_shards: int = 1,
        backend: str = "serial",
        n_workers: Optional[int] = None,
    ) -> "BatchRecognizer":
        """Bind to a fitted :class:`~repro.core.recognizer.EFDRecognizer`.

        ``n_shards > 1`` re-partitions the learned dictionary into a
        :class:`~repro.engine.sharded.ShardedDictionary` first.
        """
        recognizer._check_fitted()
        dictionary: AnyDictionary = recognizer.dictionary_
        if n_shards > 1:
            dictionary = ShardedDictionary.from_flat(dictionary, n_shards)
        return cls(
            dictionary=dictionary,
            metric=recognizer.metric,
            depth=recognizer.depth_,
            interval=recognizer.interval,
            unknown_label=recognizer.unknown_label,
            backend=backend,
            n_workers=n_workers,
        )

    # -- batch over stored executions --------------------------------------
    def recognize_records(
        self, records: Sequence[ExecutionRecord]
    ) -> List[MatchResult]:
        """Full match detail for each record, one batched pass.

        ``results[i]`` equals the sequential
        ``match_fingerprints(dictionary, build_fingerprints(records[i], ...))``.
        Node means are reduced batch-wide, rounded in one vectorized
        call, and resolved and voted in integer-id space by the store's
        :class:`~repro.engine.kernel.RecordKernel`.  A remote store keeps
        no client-side copy: its records go through ``probe_many``, so
        keys learned through any client are seen.
        """
        if isinstance(self.dictionary, RemoteShardBackend):
            return self._match(build_fingerprints_batch(
                records, self.metric, self.depth, self.interval
            ))
        values = _batch_rounded_means(
            records, self.metric, self.depth, *self.interval
        )
        sizes = np.fromiter((r.n_nodes for r in records), np.int64,
                            len(records))
        results, n_hits = self._kernel().recognize(values, sizes)
        self._record_stats(results, n_hits)
        return results

    def _kernel(self) -> RecordKernel:
        """The records kernel for this store version: from a columnar
        store's columns, else from one ``entries()`` walk (a columnar
        store mutated behind its delta-log counts an index demotion)."""
        version = self.dictionary.version
        if self._index is not None and self._index_version == version:
            return self._index
        kernel = None
        if isinstance(self.dictionary, ColumnarDictionary):
            kernel = self.dictionary.batch_index(self.metric, self.interval)
            if kernel is None:
                self.stats.record_index_demotion()
        if kernel is None:
            kernel = RecordKernel.from_entries(
                self.dictionary, self.metric, self.interval
            )
        self._index = kernel
        self._index_version = version
        return kernel

    def predict(self, records: Sequence[ExecutionRecord]) -> List[str]:
        """Application name per record (``unknown_label`` on no match)."""
        return [
            r.prediction if r.prediction else self.unknown_label
            for r in self.recognize_records(records)
        ]

    # -- batch over live streaming sessions --------------------------------
    def recognize_sessions(
        self, sessions: Sequence[StreamSession], force: bool = False
    ) -> List[MatchResult]:
        """Verdicts for many concurrent streaming sessions in one pass.

        ``results[i]`` equals ``sessions[i].verdict()`` — but sessions
        are only read, never concluded, so callers that want the session
        object to cache its verdict keep using
        :meth:`StreamSession.verdict`.  Raises :class:`RuntimeError`
        unless every session is ready (all interval windows elapsed) or
        ``force`` is set.  This is the resolution primitive under
        :class:`repro.serve.IngestService`, which adds queuing,
        micro-batch coalescing, and backpressure on top.
        """
        if not force:
            pending = [i for i, s in enumerate(sessions) if not s.ready]
            if pending:
                raise RuntimeError(
                    f"{len(pending)} of {len(sessions)} sessions not yet "
                    f"complete (first: session {pending[0]}); pass "
                    f"force=True to decide early"
                )
        fingerprint_lists = [s.fingerprints() for s in sessions]
        return self._match(fingerprint_lists)

    # -- internals ----------------------------------------------------------
    def _match(
        self, fingerprint_lists: Sequence[Sequence[Optional[Fingerprint]]]
    ) -> List[MatchResult]:
        results, n_hits = match_fingerprints_batch(
            self.dictionary,
            fingerprint_lists,
            backend=self.backend,
            n_workers=self.n_workers,
            stats=self.stats,
        )
        self._record_stats(results, n_hits)
        return results

    def _record_stats(self, results: Sequence[MatchResult], n_hits: int) -> None:
        occupancy = (
            self.dictionary.shard_sizes()
            if isinstance(
                self.dictionary, (ShardedDictionary, RemoteShardBackend)
            )
            else [len(self.dictionary)]
        )
        self.stats.record_batch(results, n_hits, shard_occupancy=occupancy)

    def __repr__(self) -> str:
        kind = type(self.dictionary).__name__
        return (
            f"BatchRecognizer({kind}, metric={self.metric!r}, "
            f"depth={self.depth}, backend={self.backend!r})"
        )

"""Property tests for the records kernel (:mod:`repro.engine.kernel`).

``BatchRecognizer.recognize_records`` resolves and votes in integer-id
space; the flat ``ExecutionFingerprintDictionary`` with
``match_fingerprints`` is the oracle.  Every store kind — flat, sharded,
columnar npz and mmap, with and without negative-lookup filters — must
return element-wise equal verdicts, down to the first-seen order of the
vote and label dicts, on randomized dictionaries whose keys span several
applications, on records with NaN nodes and different node counts, on
delta-overlay writes that bring new labels and apps, and after a shard
is mutated behind the delta-log.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np
import pytest

from repro.core.dictionary import ExecutionFingerprintDictionary
from repro.core.fingerprint import Fingerprint, build_fingerprints
from repro.core.matcher import match_fingerprints
from repro.data.dataset import ExecutionRecord
from repro.engine import (
    BatchRecognizer,
    ShardedDictionary,
    load_columnar,
    save_columnar,
    shard_index,
)
from repro.engine.batch import build_fingerprints_batch
from repro.engine.kernel import RecordKernel
from repro.telemetry.timeseries import TimeSeries

METRIC = "m"
INTERVAL = (60.0, 120.0)
DEPTH = 2
N_SAMPLES = 150
LABELS = [f"{app}_{size}" for app in ("ft", "mg", "sp", "bt")
          for size in "XYZ"]


def _fp(node: int, value: float, metric: str = METRIC,
        interval=INTERVAL) -> Fingerprint:
    return Fingerprint(metric=metric, node=node, interval=interval,
                       value=value)


def _flat(seed: int) -> ExecutionFingerprintDictionary:
    """~250 keys over 5 nodes; many carry labels of several apps, and
    keys of another metric and interval are distractors."""
    rng = random.Random(seed)
    flat = ExecutionFingerprintDictionary()
    for _ in range(400):
        fp = _fp(rng.randrange(5), float(rng.randrange(10, 60) * 100))
        for label in rng.sample(LABELS, rng.choice((1, 1, 1, 2, 3, 4))):
            flat.add(fp, label)
    for _ in range(40):
        node, value = rng.randrange(5), float(rng.randrange(10, 60) * 100)
        flat.add(_fp(node, value, metric="other"), rng.choice(LABELS))
        flat.add(_fp(node, value, interval=(0.0, 60.0)), rng.choice(LABELS))
    return flat


def _record(values: List[Optional[float]], record_id: int = 0):
    """A record whose node ``i`` has interval mean ``values[i]`` (None:
    every sample in the window dropped)."""
    telemetry = {}
    for node, value in enumerate(values):
        series = np.full(N_SAMPLES, np.nan if value is None else value)
        telemetry[(METRIC, node)] = TimeSeries(series)
    return ExecutionRecord(
        record_id=record_id, app_name="job", input_size="X",
        n_nodes=len(values), duration=float(N_SAMPLES), telemetry=telemetry,
    )


def _records(flat, seed: int, n: int = 60) -> List[ExecutionRecord]:
    """Executions of 1–5 nodes: stored hits, grid values that may
    miss, and NaN nodes."""
    rng = random.Random(seed)
    stored = {}
    for fp, _ in flat.entries():
        if fp.metric == METRIC and fp.interval == INTERVAL:
            stored.setdefault(fp.node, []).append(fp.value)
    out = []
    for i in range(n):
        values: List[Optional[float]] = []
        for node in range(rng.randrange(1, 6)):
            roll = rng.random()
            if roll < 0.6 and stored.get(node):
                values.append(rng.choice(stored[node]))
            elif roll < 0.85:
                values.append(float(rng.randrange(10, 99) * 100))
            else:
                values.append(None)
        out.append(_record(values, i))
    return out


def _expected(flat, records):
    return [
        match_fingerprints(flat, build_fingerprints(r, METRIC, DEPTH,
                                                    INTERVAL))
        for r in records
    ]


def _assert_same(got, want):
    assert got == want
    for g, w in zip(got, want):
        # The kernel also keeps the sequential path's dict order.
        assert list(g.votes) == list(w.votes)
        assert list(g.matched_labels) == list(w.matched_labels)


def _stores(flat, tmp_path, n_shards: int = 4):
    sharded = ShardedDictionary.from_flat(flat, n_shards)
    stores = {"flat": flat, "sharded": sharded}
    for storage in ("npz", "mmap"):
        for filters in (True, False):
            name = f"columnar-{storage}-{'filtered' if filters else 'plain'}"
            directory = str(tmp_path / name)
            save_columnar(sharded, directory, storage=storage,
                          filters=filters)
            stores[name] = load_columnar(directory)
    return stores


def _engine(store) -> BatchRecognizer:
    return BatchRecognizer(store, metric=METRIC, depth=DEPTH,
                           interval=INTERVAL)


class TestKernelEqualsFlat:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_batches_on_every_store(self, seed, tmp_path):
        flat = _flat(seed)
        records = _records(flat, seed)
        expected = _expected(flat, records)
        assert any(r.is_tie for r in expected)
        assert any(r.is_unknown for r in expected)
        assert any(r.n_missing for r in expected)
        for name, store in _stores(flat, tmp_path).items():
            engine = _engine(store)
            _assert_same(engine.recognize_records(records), expected)
            # Cached kernel, and a differently sliced batch.
            _assert_same(engine.recognize_records(records[::-1]),
                         expected[::-1])
            assert engine.stats.index_demotions == 0, name

    def test_ties_follow_app_position_not_probe_order(self, tmp_path):
        flat = ExecutionFingerprintDictionary()
        flat.add(_fp(0, 1000.0), "zz_X")     # zz learned first ...
        flat.add(_fp(1, 2000.0), "aa_X")     # ... then aa
        flat.add(_fp(2, 3000.0), "aa_Y")
        flat.add(_fp(2, 3000.0), "mm_Y")     # one key, two apps
        flat.add(_fp(0, 5000.0), "aa_Z")
        flat.add(_fp(3, 6000.0), "zz_Y")
        records = [
            _record([None, 2000.0]),
            _record([1000.0, 2000.0]),
            _record([5000.0, None, None, 6000.0]),  # aa probed first
            _record([4000.0, 2000.0, 3000.0]),      # aa 2 beats mm 1
            _record([1000.0, 9900.0, 3000.0]),      # three-way tie
        ]
        expected = _expected(flat, records)
        assert expected[1].ranked == ("zz", "aa")
        assert expected[2].ranked == ("zz", "aa")
        assert list(expected[2].votes) == ["aa", "zz"]
        assert expected[3].ranked == ("aa",)
        assert expected[4].ranked == ("zz", "aa", "mm")
        for name, store in _stores(flat, tmp_path, n_shards=2).items():
            _assert_same(_engine(store).recognize_records(records),
                         expected)

    def test_duplicate_patterns_return_independent_objects(self, tmp_path):
        flat = _flat(3)
        record = next(r for r in _records(flat, 3)
                      if not _expected(flat, [r])[0].is_unknown)
        for name, store in _stores(flat, tmp_path).items():
            a, b, c = _engine(store).recognize_records(
                [record, record, record]
            )
            assert a == b == c
            assert a.votes is not b.votes
            assert a.matched_labels is not b.matched_labels
            a.votes["poisoned"] = 1
            a.matched_labels["poisoned"] = 1
            assert "poisoned" not in b.votes
            assert "poisoned" not in c.matched_labels

    def test_empty_batch_and_all_nan_batch(self, tmp_path):
        flat = _flat(4)
        nan_only = [_record([None, None]), _record([None])]
        for name, store in _stores(flat, tmp_path).items():
            engine = _engine(store)
            assert engine.recognize_records([]) == []
            assert engine.recognize_records(nan_only) == _expected(
                flat, nan_only
            )

    def test_resolve_probes_matches_point_lookups(self, tmp_path):
        flat = _flat(5)
        keys = [fp for fp, _ in flat.entries()
                if fp.metric == METRIC and fp.interval == INTERVAL]
        nodes = [fp.node for fp in keys] + [0, 1, 2]
        values = [fp.value for fp in keys] + [123.0, float("nan"), -1.0]
        for name, store in _stores(flat, tmp_path).items():
            table = _engine(store)._kernel().resolve_probes(nodes, values)
            assert set(table) == {(fp.node, fp.value) for fp in keys}
            for fp in keys:
                labels, apps = table[(fp.node, fp.value)]
                assert labels == flat.lookup(fp), name
                assert list(apps) == list(dict.fromkeys(
                    label.rsplit("_", 1)[0] for label in labels
                ))

    def test_from_entries_interns_unregistered_labels(self):
        class Bare:
            """A store whose label table misses a label its keys use."""

            def labels(self):
                return ["ft_X"]

            def app_names(self):
                return ["ft"]

            def entries(self):
                yield _fp(0, 1000.0), ["ft_X", "new_Y"]

        kernel = RecordKernel.from_entries(Bare(), METRIC, INTERVAL)
        assert kernel.labels == ["ft_X", "new_Y"]
        assert kernel.apps == ["ft", "new"]
        results, n_hits = kernel.recognize(np.array([1000.0]),
                                           np.array([1]))
        assert n_hits == 1
        assert results[0].ranked == ("ft", "new")
        assert results[0].matched_labels == {"ft_X": 1, "new_Y": 1}


class TestKernelUnderWrites:
    @pytest.mark.parametrize("storage", ("npz", "mmap"))
    @pytest.mark.parametrize("filters", (True, False))
    def test_overlay_brings_new_labels_and_apps(self, storage, filters,
                                                tmp_path):
        flat = _flat(6)
        directory = str(tmp_path / "col")
        save_columnar(ShardedDictionary.from_flat(flat, 3), directory,
                      storage=storage, filters=filters)
        store = load_columnar(directory)
        records = _records(flat, 6)
        engine = _engine(store).warm()
        _assert_same(engine.recognize_records(records),
                     _expected(flat, records))
        rng = random.Random(7)
        hit_fps = [
            fp for r in records
            for fp in build_fingerprints(r, METRIC, DEPTH, INTERVAL)
            if fp is not None and flat.lookup(fp)
        ]
        fresh: List[ExecutionRecord] = []
        for round_no in range(4):
            # A new app on a stored key, a brand-new key, a repeat, and
            # a second write to the key written (and read) last round.
            for fp, label in (
                (rng.choice(hit_fps), f"new{round_no}_Q"),
                (_fp(round_no % 5, 9100.0 + 100 * round_no),
                 f"fresh{round_no}_R"),
                (rng.choice(hit_fps), LABELS[round_no]),
                (_fp((round_no - 1) % 5, 9000.0 + 100 * round_no),
                 f"again{round_no}_S"),
            ):
                store.add(fp, label)
                flat.add(fp, label)
            fresh.append(_record([9100.0 + 100 * round_no
                                  if n == round_no % 5 else None
                                  for n in range(5)]))
            batch = records + fresh
            _assert_same(engine.recognize_records(batch),
                         _expected(flat, batch))
        assert store.delta_pending > 0
        assert store.pristine
        assert engine.stats.index_demotions == 0

    def test_mutated_base_builds_from_entries_and_counts_demotion(
        self, tmp_path
    ):
        flat = _flat(8)
        directory = str(tmp_path / "col")
        save_columnar(ShardedDictionary.from_flat(flat, 4), directory)
        store = load_columnar(directory)
        records = _records(flat, 8)
        engine = _engine(store)
        engine.recognize_records(records)
        hit = next(
            fp for fp in build_fingerprints(records[0], METRIC, DEPTH,
                                            INTERVAL)
            if fp is not None
        )
        overlay_fp = _fp(4, 9800.0)
        store.add(overlay_fp, "ov_Z")          # through the delta-log
        flat.add(overlay_fp, "ov_Z")
        store.shards[shard_index(hit, 4)].add(hit, "behind_Q")  # not
        flat.add(hit, "behind_Q")
        assert not store.pristine
        batch = records + [_record([None, None, None, None, 9800.0])]
        _assert_same(engine.recognize_records(batch), _expected(flat, batch))
        assert engine.stats.index_demotions == 1
        # Rebuilt once per version, not per batch.
        engine.recognize_records(batch)
        assert engine.stats.index_demotions == 1

    def test_records_batch_materialises_no_rows(self, tmp_path):
        flat = _flat(9)
        directory = str(tmp_path / "col")
        save_columnar(ShardedDictionary.from_flat(flat, 2), directory)
        store = load_columnar(directory)
        records = _records(flat, 9)
        _assert_same(_engine(store).recognize_records(records),
                     _expected(flat, records))
        # No per-row label lists or (labels, apps) entries are built.
        assert not hasattr(store, "_row_entries")
        assert store._row_labels == {}
        assert not any(shard.hydrated for shard in store.shards)


class TestFilteredWarmIsLazy:
    def test_warm_reads_no_column_until_a_probe_passes(self, tmp_path):
        flat = _flat(10)
        directory = str(tmp_path / "col")
        save_columnar(ShardedDictionary.from_flat(flat, 2), directory)
        store = load_columnar(directory)
        engine = _engine(store).warm()
        assert store._concat_cache is None
        misses = [_record([99.0, 98.0]), _record([None, 97.0])]
        assert engine.recognize_records(misses) == _expected(flat, misses)
        assert store._concat_cache is None     # filters answered
        records = _records(flat, 10)
        _assert_same(engine.recognize_records(records),
                     _expected(flat, records))
        assert store._concat_cache is not None


class TestBatchRoundedMeansFallbacks:
    def test_dropout_overrun_and_mixed_clocks_in_one_batch(self):
        rng = np.random.default_rng(3)

        def series(n=200, period=1.0, t0=0.0, nan_at=()):
            values = rng.uniform(1e3, 9e3, n)
            values[list(nan_at)] = np.nan
            return TimeSeries(values, period=period, t0=t0)

        layouts = [
            [series(), series(), series()],                 # clean
            [series(nan_at=(70, 71)), series()],            # dropout
            [series(nan_at=range(60, 120)), series()],      # window all NaN
            [series(n=90), series(n=121), series(n=120)],   # overruns
            [series(period=2.0), series(t0=30.0)],          # other clocks
            [series(period=0.5, nan_at=(130,)), series(t0=200.0)],
            [series(t0=-10.5, n=40), series()],             # window missed
        ]
        records = []
        for i, layout in enumerate(layouts * 3):
            telemetry = {(METRIC, node): s for node, s in enumerate(layout)}
            records.append(ExecutionRecord(
                record_id=i, app_name="job", input_size="X",
                n_nodes=len(layout), duration=200.0, telemetry=telemetry,
            ))
        for depth in (1, 3, 6):
            batched = build_fingerprints_batch(records, METRIC, depth,
                                               INTERVAL)
            assert batched == [
                build_fingerprints(r, METRIC, depth, INTERVAL)
                for r in records
            ]
        assert any(fp is None for fps in batched for fp in fps)

    def test_missing_series_raise_like_the_scalar_path(self):
        partial = ExecutionRecord(
            record_id=5, app_name="job", input_size="X", n_nodes=2,
            duration=200.0,
            telemetry={(METRIC, 0): TimeSeries(np.ones(200))},
        )
        ok = _record([1000.0])
        with pytest.raises(KeyError, match="node=1"):
            build_fingerprints_batch([ok, partial], METRIC, DEPTH, INTERVAL)
        with pytest.raises(KeyError, match="no telemetry for metric"):
            build_fingerprints_batch([ok], "absent", DEPTH, INTERVAL)

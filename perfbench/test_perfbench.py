"""Tests of the benchmark's own code: seeded inputs, the oracle check, the
serve feed check and the span accounting."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import load_columnar
from repro.serve import ServeConfig, interleave_records

from perfbench.common import (
    INTERVAL, METRIC, N_NODES, REF_NOMINAL_S, HostSpeed, count_mismatches,
    make_records,
)
from perfbench.inputs import SeedInputs, generate_corpus, generate_feed
from perfbench.offline import RecordsTraffic, learn_back, open_engine
from perfbench.serving import check_feed, max_ready_burst
from perfbench.spans import NullTracer, Tracer, replay_check

SMALL = dict(n_stored=300, n_unknown=120, n_remote=50)
FEED_JOBS = 40


def _files(path):
    out = {}
    for root, _, names in os.walk(path):
        for name in names:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


@pytest.fixture(scope="module")
def inp(tmp_path_factory):
    """The corpus plus seed 5's feed."""
    base = tmp_path_factory.mktemp("perfbench")
    corpus, feed = str(base / "corpus"), str(base / "feed5")
    generate_corpus(corpus, **SMALL)
    generate_feed(5, corpus, feed, feed_jobs=FEED_JOBS)
    return SeedInputs(corpus, feed)


def test_generator_is_deterministic_per_seed(inp, tmp_path):
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, **SMALL)
    assert _files(inp.path) == _files(corpus)
    again, other = str(tmp_path / "again"), str(tmp_path / "other")
    generate_feed(5, corpus, again, feed_jobs=FEED_JOBS)
    generate_feed(6, corpus, other, feed_jobs=FEED_JOBS)
    first = _files(inp.feed_path)
    assert first == _files(again)
    assert first["feed.ndjson"] != _files(other)["feed.ndjson"]
    # The seed also orders the executions the offline workloads send.
    order = RecordsTraffic(inp, 5)._perm
    assert np.array_equal(order, RecordsTraffic(inp, 5)._perm)
    assert not np.array_equal(order, RecordsTraffic(inp, 6)._perm)


def test_oracle_check_fails_a_corrupted_verdict(inp):
    known, unknown = inp.array("known"), inp.array("unknown")
    values = np.concatenate([known[:40], unknown[:10]])
    expected = np.concatenate([
        inp.array("known_digest")[:40], inp.array("unknown_digest")[:10],
    ])
    engine = open_engine(inp.file("store"))
    results = engine.recognize_records(make_records(values))
    assert count_mismatches(results, expected) == 0
    assert sum(1 for r in results if r.prediction is None) == 10

    results[3].votes[results[3].ranked[0]] += 1
    assert count_mismatches(results, expected) == 1
    results[7] = results[45]  # a known execution answered as unknown
    assert count_mismatches(results, expected) == 2
    assert count_mismatches(results[:-1], expected) == len(expected)


def test_learned_oracle_matches_the_store_after_add_many(inp, tmp_path):
    store_dir = inp.copy_store("store", str(tmp_path / "store"))
    engine = open_engine(store_dir)
    unknown = inp.array("unknown")[:5]
    learn_back(engine, make_records(unknown), np.arange(5), NullTracer())
    results = engine.recognize_records(make_records(unknown))
    assert count_mismatches(results, inp.array("learned_digest")[:5]) == 0
    assert load_columnar(store_dir).delta_pending > 0


def test_feed_check_passes_staggered_and_rejects_burst(inp):
    config = ServeConfig()
    feed = np.load(inp.feed_file("feed.npz"))
    assert check_feed(feed["ready_line"], config) <= config.batch_max_sessions
    # Round-robin interleaving makes every session ready in one burst.
    records = make_records(inp.array("known")[:100])
    crossed, ready = {}, []
    stream = interleave_records(records, METRIC)
    for line, sample in enumerate(stream):
        if sample.time >= INTERVAL[1]:
            nodes = crossed.setdefault(sample.job, set())
            if sample.node not in nodes:
                nodes.add(sample.node)
                if len(nodes) == N_NODES:
                    ready.append(line)
    assert max_ready_burst(np.array(ready), 1000) == 100
    with pytest.raises(ValueError, match="exceeds one micro-batch"):
        check_feed(np.array(ready), config)


def test_layer_table_adds_up_to_traced_wall():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    for tag in range(2):
        with tracer.span("batch", tag=tag):          # 0..7 / 10..17
            with tracer.span("call", tag=tag):       # 1..4
                with tracer.span("inner", tag=tag):  # 2..3
                    pass
            with tracer.span("learn", tag=tag):      # 5..6
                pass
        with tracer.span("replay", tag=tag):         # not accounted
            with tracer.span("step", tag=tag):
                pass
    assert tracer.self_times(["batch"]) == {
        "batch": 6.0, "call": 4.0, "inner": 2.0, "learn": 2.0,
    }
    rows, wall = tracer.layer_table(
        ["batch"], decompose={"call": ({"a_s": 1.5, "b_s": 1.0}, "gap_s")},
    )
    assert wall == 14.0
    assert rows["gap_s"] == 1.5 and "call" not in rows
    assert sum(rows.values()) == pytest.approx(wall)


def test_layer_table_adds_up_with_real_clock():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("batch"):
            with tracer.span("call"):
                sum(range(20000))
    replayed = tracer.total("call") / 2
    rows, wall = tracer.layer_table(
        ["batch"], decompose={"call": ({"step_s": replayed}, "gap_s")},
    )
    assert sum(rows.values()) == pytest.approx(wall, rel=1e-9)


def test_replay_check_flags_a_replay_that_does_not_describe_the_call():
    check = replay_check({
        "fits_s": (0.2, 1.0, 0.5), "over_s": (-0.3, 1.0, 0.5),
        "thin_s": (0.8, 1.0, 0.5), "wire_s": (0.8, 1.0, 1.0),
    })
    assert check["fits_s"]["ok"]
    assert not check["over_s"]["ok"] and check["over_s"]["share"] == -0.3
    assert not check["thin_s"]["ok"]
    assert check["wire_s"]["ok"]


def test_host_speed_scales_cpu_bound_metrics_only():
    speed = HostSpeed()
    speed.sample(3)
    assert len(speed.samples) == 3 and min(speed.samples) > 0
    speed.samples = [REF_NOMINAL_S * 2] * 3  # a host at half speed
    raw = {"execs_per_s": 100.0, "setup_s": 1.0, "verdict_p50_ms": 10.0,
           "verdict_p99_ms": 30.0, "peak_rss_mb": 50.0}
    assert speed.scale(raw, unscaled=("verdict_p99_ms",)) == {
        "execs_per_s": 200.0, "setup_s": 0.5, "verdict_p50_ms": 5.0,
        "verdict_p99_ms": 30.0, "peak_rss_mb": 50.0,
    }

"""Tuning knobs of the async ingestion service.

Every operational decision the service makes — how much telemetry it
buffers, when it refuses work, how long it coalesces ready sessions,
when it gives up on a silent job — is a field on :class:`ServeConfig`,
so a deployment is describable as one frozen value (and loggable /
diffable as ``asdict``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Accepted ``ServeConfig.backpressure`` values.
BACKPRESSURE_POLICIES = ("block", "shed")

#: Accepted ``ServeConfig.evict`` values.
EVICT_POLICIES = ("force", "drop")


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of an :class:`~repro.serve.service.IngestService`.

    Parameters
    ----------
    max_pending_samples:
        Capacity of the bounded ingest queue, in samples.  This is the
        service's only buffer between producers and the session table.
        Each :meth:`~repro.serve.service.IngestService.submit_many` call
        enqueues its samples as one block; the bound counts samples
        across blocks, and a block larger than the free room is split.
        When the queue is full, the ``backpressure`` policy decides what
        happens to the rest.
    backpressure:
        ``"block"`` — :meth:`~repro.serve.service.IngestService.submit`
        awaits until queue space frees up, propagating pressure to the
        producer (lossless).  ``"shed"`` — the sample is dropped on the
        floor, counted in :attr:`EngineStats.n_shed`, and ``submit``
        returns ``False`` (lossy, bounded latency).
    max_sessions:
        Cap on concurrently *active* sessions, enforced at submission:
        a sample that would open a session beyond the cap is subject to
        the same ``backpressure`` policy (block the producer until a
        slot frees, or shed the sample).  With ``"block"`` and no
        ``session_timeout``, a stream interleaving more concurrent jobs
        than the cap will stall the producer — lossless systems should
        pair the cap with a timeout.
    batch_max_sessions:
        Upper bound on the size of one recognition micro-batch.
    batch_max_delay:
        Seconds the batcher waits for more ready sessions before
        dispatching a partial micro-batch.  Trades verdict latency for
        batch efficiency; 0 dispatches every ready session immediately.
    max_inflight_batches:
        How many micro-batches may be resolving on the worker executor
        at once.  Recognition itself is serialized per engine (the
        engine's stats and index cache are not thread-safe), so values
        above 1 only overlap executor scheduling with ingestion.
    session_timeout:
        Seconds of *wall-clock* inactivity (no samples accepted) after
        which a session that never became ready is evicted.  ``None``
        disables eviction.
    evict:
        What eviction does.  ``"force"`` — decide early from whatever
        samples arrived (the verdict a crashed/truncated job would get).
        ``"drop"`` — fail the session's awaitable with
        :class:`~repro.serve.service.SessionEvicted`.
    default_nodes:
        Node count for sessions whose first sample does not carry an
        explicit ``nodes`` field.
    retention_max_age:
        Seconds a *completed* session's verdict is retained after
        resolution before the retention loop auto-forgets it.  ``None``
        disables age-based pruning.  A pruned job's
        :meth:`~repro.serve.service.IngestService.verdict` raises
        :class:`KeyError` afterwards, so consume verdicts via the
        awaitable or ``on_verdict`` before they age out.
    retention_max_done:
        Cap on completed sessions retained for verdict retrieval; when
        a verdict resolves past the cap, the oldest completed sessions
        are forgotten first.  ``None`` disables size-based pruning.
        This is the knob that bounds memory over a week-long campaign.
    retention_interval:
        Seconds between retention sweeps (age-based pruning only; the
        size cap is enforced immediately at resolution time).
    net_batch_samples:
        Per-connection micro-batch size of the network listener: how
        many parsed samples one connection accumulates before calling
        :meth:`~repro.serve.service.IngestService.submit_many`.  Larger
        batches amortize the submit path; smaller ones cut per-sample
        latency.
    net_batch_delay:
        Seconds a connection's batch waits for more lines before a
        partial batch is submitted anyway — bounds the latency a slow
        producer adds to its own verdicts.
    max_line_bytes:
        Upper bound on one NDJSON line on the wire; a longer line is a
        protocol error that closes the offending connection (and only
        that connection).
    compact_on_close:
        When the engine's dictionary is a columnar store with pending
        delta-log records (a learn-while-serving deployment), fold the
        log into the ``shard-NN.npz`` base at service shutdown so the
        next boot opens a clean directory.  The log is write-ahead, so
        disabling this loses nothing — the records replay on the next
        load; it only defers the fold.  Forced off in replica mode
        (``efd serve --follow``): a replica folding its log would
        advance its generation past the leader's.
    repl_poll_interval:
        Seconds between a publishing leader's idle delta-log polls, per
        follower stream — the floor on record-shipping latency
        (:class:`~repro.engine.replicate.ReplicationPublisher`).
    repl_heartbeat:
        Seconds between ``sync`` heartbeat frames to an idle follower,
        keeping replica lag gauges honest with no write traffic.
    repl_reconnect_delay:
        *Base* seconds a replica waits before redialing a lost leader
        (:class:`~repro.engine.replicate.ReplicationFollower`).  The
        actual delay backs off exponentially from this base with full
        jitter (capped at 32x), resetting after a successful subscribe,
        so a replica fleet does not hammer a restarting leader in
        lockstep.
    remote_deadline:
        Wall-clock budget, in seconds, for one remote scatter/gather
        batch (:class:`~repro.engine.remote.RemoteShardBackend`).
        Every per-host timeout inside the batch is derived from the
        remaining budget; when it runs out, unreachable keys resolve as
        explicit degraded verdicts.
    remote_try_timeout:
        Per-attempt socket timeout (connect + round trip) on one remote
        call, further clipped to the remaining batch budget.
    remote_retries:
        Bounded retry count per logical remote request (0 disables
        retries; the first attempt is not a retry).
    remote_backoff_base / remote_backoff_cap:
        Exponential-backoff envelope (full jitter) between remote
        retries, shared with the replication redial policy
        (:class:`repro._util.backoff.BackoffPolicy`).
    remote_hedge_delay:
        Floor, in seconds, on how long the primary host may stay quiet
        before the same probe is hedged to the shard's next replica.
        Raised automatically to the observed latency percentile below
        once enough calls have been measured.
    remote_hedge_percentile:
        Latency percentile (0..1) of recent successful calls past which
        a quiet primary triggers a hedge.
    remote_breaker_failures:
        Consecutive failures that trip a host's circuit breaker open
        (a dead host then costs one timeout per reset window, not one
        per batch).
    remote_breaker_reset:
        Seconds an open breaker waits before admitting one half-open
        probe call; the probe's success closes it, failure re-opens it.
    remote_pool_size:
        Persistent connections kept per shard host.  Checked out per
        call, evicted on any transport fault, redialed lazily behind
        the retry ladder's backoff.
    remote_pipeline_chunk:
        Keys per binary v2 probe frame; a bucket larger than this is
        split into pipelined chunks with a bounded in-flight window.
    remote_filter_mirrors:
        Mirror each shard's Bloom key filter client-side (fetched in
        the background, refreshed when a reply reveals a new store
        version).  Definitely-absent keys then resolve locally —
        unknown-heavy traffic mostly never crosses the wire.
    remote_protocol:
        ``"auto"`` negotiates protocol v2 via the hello handshake
        (falling back to framed JSON against v1 servers);
        ``"json"`` pins v1 and skips the handshake.
    family_mode:
        Serve verdicts through a :class:`~repro.family.FamilyCascade`
        fronting the engine's dictionary: a coarse family tier at
        ``family_coarse_depth`` rejects or routes probes before the
        full-depth dictionary is consulted, and verdicts carry the
        ``match`` / ``near-family`` / ``unknown`` outcome distinction
        ("same app, new version" stops being reported as unknown).
    family_coarse_depth:
        Rounding depth of the coarse family tier; must be <= the
        engine's recognition depth.  Depth 1 keeps the coarse tier
        smallest; paper Table 1 suggests 2 when families sit close.
    family_spec_path:
        Optional path to an ``efd family build`` spec JSON mapping
        application names to families.  ``None`` derives families from
        version suffixes of the dictionary's application names.
    """

    max_pending_samples: int = 4096
    backpressure: str = "block"
    max_sessions: int = 10_000
    batch_max_sessions: int = 64
    batch_max_delay: float = 0.01
    max_inflight_batches: int = 2
    session_timeout: Optional[float] = None
    evict: str = "force"
    default_nodes: int = 4
    retention_max_age: Optional[float] = None
    retention_max_done: Optional[int] = None
    retention_interval: float = 0.5
    net_batch_samples: int = 256
    net_batch_delay: float = 0.005
    max_line_bytes: int = 1 << 16
    compact_on_close: bool = True
    repl_poll_interval: float = 0.02
    repl_heartbeat: float = 0.5
    repl_reconnect_delay: float = 0.2
    remote_deadline: float = 2.0
    remote_try_timeout: float = 0.5
    remote_retries: int = 2
    remote_backoff_base: float = 0.05
    remote_backoff_cap: float = 1.0
    remote_hedge_delay: float = 0.05
    remote_hedge_percentile: float = 0.95
    remote_breaker_failures: int = 3
    remote_breaker_reset: float = 1.0
    remote_pool_size: int = 4
    remote_pipeline_chunk: int = 4096
    remote_filter_mirrors: bool = True
    remote_protocol: str = "auto"
    family_mode: bool = False
    family_coarse_depth: int = 1
    family_spec_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_pending_samples < 1:
            raise ValueError(
                f"max_pending_samples must be >= 1, got {self.max_pending_samples}"
            )
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.batch_max_sessions < 1:
            raise ValueError(
                f"batch_max_sessions must be >= 1, got {self.batch_max_sessions}"
            )
        if self.batch_max_delay < 0:
            raise ValueError(
                f"batch_max_delay must be >= 0, got {self.batch_max_delay}"
            )
        if self.max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be >= 1, got {self.max_inflight_batches}"
            )
        if self.session_timeout is not None and self.session_timeout <= 0:
            raise ValueError(
                f"session_timeout must be positive or None, got {self.session_timeout}"
            )
        if self.evict not in EVICT_POLICIES:
            raise ValueError(
                f"evict must be one of {EVICT_POLICIES}, got {self.evict!r}"
            )
        if self.default_nodes < 1:
            raise ValueError(f"default_nodes must be >= 1, got {self.default_nodes}")
        if self.retention_max_age is not None and self.retention_max_age <= 0:
            raise ValueError(
                f"retention_max_age must be positive or None, "
                f"got {self.retention_max_age}"
            )
        if self.retention_max_done is not None and self.retention_max_done < 0:
            raise ValueError(
                f"retention_max_done must be >= 0 or None, "
                f"got {self.retention_max_done}"
            )
        if self.retention_interval <= 0:
            raise ValueError(
                f"retention_interval must be positive, "
                f"got {self.retention_interval}"
            )
        if self.net_batch_samples < 1:
            raise ValueError(
                f"net_batch_samples must be >= 1, got {self.net_batch_samples}"
            )
        if self.net_batch_delay < 0:
            raise ValueError(
                f"net_batch_delay must be >= 0, got {self.net_batch_delay}"
            )
        if self.max_line_bytes < 64:
            raise ValueError(
                f"max_line_bytes must be >= 64, got {self.max_line_bytes}"
            )
        if self.repl_poll_interval <= 0:
            raise ValueError(
                f"repl_poll_interval must be positive, "
                f"got {self.repl_poll_interval}"
            )
        if self.repl_heartbeat <= 0:
            raise ValueError(
                f"repl_heartbeat must be positive, got {self.repl_heartbeat}"
            )
        if self.repl_reconnect_delay <= 0:
            raise ValueError(
                f"repl_reconnect_delay must be positive, "
                f"got {self.repl_reconnect_delay}"
            )
        if self.remote_deadline <= 0:
            raise ValueError(
                f"remote_deadline must be positive, got {self.remote_deadline}"
            )
        if self.remote_try_timeout <= 0:
            raise ValueError(
                f"remote_try_timeout must be positive, "
                f"got {self.remote_try_timeout}"
            )
        if self.remote_retries < 0:
            raise ValueError(
                f"remote_retries must be >= 0, got {self.remote_retries}"
            )
        if self.remote_backoff_base <= 0:
            raise ValueError(
                f"remote_backoff_base must be positive, "
                f"got {self.remote_backoff_base}"
            )
        if self.remote_backoff_cap < self.remote_backoff_base:
            raise ValueError(
                f"remote_backoff_cap must be >= remote_backoff_base, "
                f"got {self.remote_backoff_cap}"
            )
        if self.remote_hedge_delay <= 0:
            raise ValueError(
                f"remote_hedge_delay must be positive, "
                f"got {self.remote_hedge_delay}"
            )
        if not 0.0 < self.remote_hedge_percentile <= 1.0:
            raise ValueError(
                f"remote_hedge_percentile must be in (0, 1], "
                f"got {self.remote_hedge_percentile}"
            )
        if self.remote_breaker_failures < 1:
            raise ValueError(
                f"remote_breaker_failures must be >= 1, "
                f"got {self.remote_breaker_failures}"
            )
        if self.remote_breaker_reset <= 0:
            raise ValueError(
                f"remote_breaker_reset must be positive, "
                f"got {self.remote_breaker_reset}"
            )
        if self.remote_pool_size < 1:
            raise ValueError(
                f"remote_pool_size must be >= 1, got {self.remote_pool_size}"
            )
        if self.remote_pipeline_chunk < 1:
            raise ValueError(
                f"remote_pipeline_chunk must be >= 1, "
                f"got {self.remote_pipeline_chunk}"
            )
        if self.remote_protocol not in ("auto", "json"):
            raise ValueError(
                f"remote_protocol must be 'auto' or 'json', "
                f"got {self.remote_protocol!r}"
            )
        if self.family_coarse_depth < 1:
            raise ValueError(
                f"family_coarse_depth must be >= 1, "
                f"got {self.family_coarse_depth}"
            )
        if self.family_spec_path is not None and not self.family_mode:
            raise ValueError(
                "family_spec_path requires family_mode=True"
            )

"""Async ingestion service: live-session recognition with backpressure.

:class:`IngestService` is the event-loop front-end the ROADMAP asks for
on top of :meth:`~repro.engine.batch.BatchRecognizer.recognize_sessions`:
telemetry samples for thousands of concurrent jobs flow in as blocks
(one per ``submit_many`` call), each job accumulates into its own
:class:`~repro.core.streaming.StreamSession`, and the moment a session
crosses the fingerprint interval mark it is coalesced with other ready
sessions into a recognition micro-batch that resolves on a worker
executor — while ingestion keeps running.

The pipeline, all on one event loop::

    submit_many(block) ──> [ingest queue] ──> _ingest_loop
                             │ full, counted          │ routes each block into
                             │ in samples?            │ per-job StreamSession
                             │ block / shed           │
                             ▼                        ▼ session.ready?
                        backpressure            [ready queue] ──> _batch_loop
                                                                     │ coalesce
                                                                     ▼
                                           executor: recognize_sessions(batch)
                                                                     │
                                              futures / callbacks <──┘

Guarantees (property-tested in ``tests/test_serve_service.py``):

- **Equivalence** — with no samples shed and no sessions evicted, every
  verdict is element-wise identical to calling
  ``BatchRecognizer.recognize_sessions`` synchronously on sessions fed
  the same samples, for every backpressure configuration.  Ingestion is
  commutative (interval sums), so neither queueing order nor micro-batch
  composition can change a verdict.  One delivery assumption: per-node
  timestamps are non-decreasing (a monitoring bus's normal order) —
  a sample retransmitted *out of order* after its session crossed the
  interval mark is dropped as late rather than folded in.
- **Bounded memory** — the ingest queue and the *active* session table
  are the only buffers, both capped by
  :class:`~repro.serve.config.ServeConfig`.  Completed sessions are
  retained for verdict retrieval until :meth:`IngestService.forget` —
  or, with ``retention_max_age`` / ``retention_max_done`` configured,
  until the retention loop auto-prunes them (the week-long-campaign
  mode; see ``docs/serving.md``).
- **Explicit failure** — a recognition worker crash is isolated to the
  failing session and surfaces as a
  :class:`~repro.parallel.pool.WorkerError` carrying that session's job
  id; healthy sessions in the same micro-batch still resolve.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.matcher import MatchResult
from repro.core.streaming import StreamSession
from repro.engine.batch import BatchRecognizer
from repro.parallel.pool import WorkerError
from repro.serve.config import ServeConfig
from repro.serve.stream import Sample

#: Signature of the optional verdict callback: ``(job_id, result)``.
VerdictCallback = Callable[[str, MatchResult], None]


class ServeError(RuntimeError):
    """Base class for ingestion-service errors."""


class SessionEvicted(ServeError):
    """A session timed out under the ``evict="drop"`` policy.

    Raised from the session's verdict awaitable; carries the job id and
    the configured timeout.
    """

    def __init__(self, job: str, timeout: float):
        self.job = job
        self.timeout = timeout
        super().__init__(
            f"session {job!r} evicted: no samples for {timeout:g}s and the "
            f"fingerprint interval never completed"
        )


class SessionWorkerError(WorkerError):
    """Recognition crashed on one session of a micro-batch.

    A :class:`~repro.parallel.pool.WorkerError` (so existing handlers
    keep working) that additionally names the failing session's job id
    (:attr:`session_id`).
    """

    def __init__(self, session_id: str, index: int, n_items: int,
                 original: BaseException):
        super().__init__(index, n_items, original)
        self.session_id = session_id
        # Rebuild the message with the job id front and center.
        self.args = (
            f"recognition failed for session {session_id!r} "
            f"(item {index} of {n_items}): "
            f"{type(original).__name__}: {original}",
        )


class _Phase(Enum):
    ACTIVE = "active"      # accepting samples, not yet ready
    QUEUED = "queued"      # on the ready queue / in a resolving batch
    DONE = "done"          # future resolved (verdict or error)


@dataclass
class _SessionState:
    """Service-side bookkeeping around one StreamSession."""

    job: str
    session: StreamSession
    future: "asyncio.Future[MatchResult]"
    last_activity: float
    phase: _Phase = _Phase.ACTIVE
    ready_at: float = 0.0
    done_at: float = 0.0
    forced: bool = False


class IngestService:
    """Asyncio front-end resolving live sessions through a batch engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.engine.batch.BatchRecognizer`; its dictionary /
        metric / depth / interval configure every session, and its
        :class:`~repro.engine.stats.EngineStats` accumulates both the
        recognition counters and the service counters (queue depth,
        sheds, evictions, latency).
    config:
        :class:`~repro.serve.config.ServeConfig`; defaults are sized for
        an interactive demo, not a production deployment.
    on_verdict:
        Optional callback invoked on the event loop as
        ``on_verdict(job_id, result)`` whenever a session resolves
        successfully (including forced/evicted verdicts).

    Use as an async context manager::

        async with IngestService(engine, config) as svc:
            async for sample in feed:
                await svc.submit(sample)
            await svc.drain()
            verdict = await svc.verdict("j-1042")

    The service itself is single-loop: every public coroutine must be
    awaited on the loop that entered the context.  Recognition runs on a
    thread executor so the loop never blocks on a batch.
    """

    def __init__(
        self,
        engine: BatchRecognizer,
        config: Optional[ServeConfig] = None,
        on_verdict: Optional[VerdictCallback] = None,
    ):
        self.engine = engine
        self.config = config or ServeConfig()
        self.on_verdict = on_verdict
        self.n_callback_errors = 0
        self.stats = engine.stats
        self._sessions: Dict[str, _SessionState] = {}
        self._pending_opens: "set[str]" = set()  # admitted, not yet routed
        self._n_active = 0            # sessions not yet DONE
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ingest_q: Optional["asyncio.Queue[List[Sample]]"] = None
        self._n_queued = 0            # samples in the ingest queue's blocks
        self._room: Optional[asyncio.Event] = None
        self._interval_end = 0.0
        self._ready_q: Optional["asyncio.Queue[str]"] = None
        self._ingest_task: Optional["asyncio.Task[None]"] = None
        self._batch_task: Optional["asyncio.Task[None]"] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._batches: "set[asyncio.Task[None]]" = set()
        self._inflight: Optional[asyncio.Semaphore] = None
        self._session_freed: Optional[asyncio.Event] = None
        self._n_unresolved = 0        # QUEUED sessions not yet resolved
        self._quiescent: Optional[asyncio.Event] = None
        self._engine_lock = threading.Lock()
        self._running = False
        # Completed sessions in resolution order, for retention pruning.
        # Entries are (job, done_at); a manually forgotten job leaves a
        # stale entry behind, detected by comparing done_at on prune.
        self._done_order: Deque[Tuple[str, float]] = deque()
        self._n_done = 0              # DONE sessions still in _sessions
        # Ids of retention-pruned jobs, oldest first, capped at
        # max_sessions (a dict used as an ordered set).
        self._pruned: Dict[str, None] = {}

    @property
    def engine_lock(self) -> threading.Lock:
        """The lock serializing engine access across executor threads.

        Anything mutating the engine's dictionary from outside the
        service — a :class:`~repro.engine.replicate.ReplicationFollower`
        applying the leader's stream, an operator folding the delta-log
        — must hold this, exactly as :meth:`learn` and the recognition
        path do, or batches would read a store mid-mutation.
        """
        return self._engine_lock

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "IngestService":
        """Create the queues and start the ingest/batch/reaper tasks."""
        if self._running:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        # Unbounded in blocks; submit_many bounds it in samples.
        self._ingest_q = asyncio.Queue()
        self._n_queued = 0
        self._room = asyncio.Event()
        self._interval_end = float(self.engine.interval[1])
        self._ready_q = asyncio.Queue()
        self._inflight = asyncio.Semaphore(self.config.max_inflight_batches)
        self._session_freed = asyncio.Event()
        self._quiescent = asyncio.Event()
        self._quiescent.set()
        self._running = True
        # Warm-start: prebuild the engine's session-path lookup index on
        # the executor (for a columnar shard directory that is the
        # vectorized full-key index — the negative-lookup filters alone
        # load at open and would otherwise defer this build to the
        # first batch that survives them), so the first micro-batch —
        # and the event loop — never pays for it.  With mmap storage
        # the build also reads through the OS page cache, prefaulting
        # pages every serve worker then shares.
        warm = getattr(self.engine, "warm", None)
        if warm is not None:
            await self._loop.run_in_executor(
                None, partial(warm, for_sessions=True)
            )
        self._ingest_task = self._loop.create_task(
            self._ingest_loop(), name="efd-serve-ingest"
        )
        self._batch_task = self._loop.create_task(
            self._batch_loop(), name="efd-serve-batch"
        )
        self._tasks = [self._ingest_task, self._batch_task]
        if self.config.session_timeout is not None:
            self._tasks.append(
                self._loop.create_task(self._reaper_loop(), name="efd-serve-reaper")
            )
        if self.config.retention_max_age is not None:
            self._tasks.append(
                self._loop.create_task(
                    self._retention_loop(), name="efd-serve-retention"
                )
            )
        return self

    async def __aenter__(self) -> "IngestService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(force=exc_type is None)

    async def close(self, force: bool = True) -> None:
        """Drain and stop the service.

        With ``force`` (default), sessions still mid-stream when the
        feed ends are decided early from whatever samples arrived —
        the operational behavior for a stream that simply stops.
        Without it, their awaitables are cancelled.
        """
        if not self._running:
            return
        await self.drain()
        if force:
            for state in self._sessions.values():
                if state.phase is _Phase.ACTIVE:
                    self._queue_ready(state, forced=True)
            await self.drain()
        self._running = False
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        # _finish may cascade into a size-cap prune, which mutates
        # _sessions — iterate over a snapshot.
        for state in list(self._sessions.values()):
            if not state.future.done():
                state.future.cancel()
            if state.phase is not _Phase.DONE:
                # Finalize abandoned sessions (close(force=False) with the
                # stream mid-flight): without this the active-session
                # gauge stays pinned and `forget` refuses them forever.
                self._finish(state)
        if self.config.compact_on_close:
            # Learn-while-serving leaves pending delta-log records on a
            # columnar dictionary; fold them into the base so the next
            # boot opens a clean directory.  No-op on other backends.
            compact = getattr(self.engine.dictionary, "compact_delta", None)
            if compact is not None:

                def _fold() -> int:
                    with self._engine_lock:
                        return compact()

                await self._loop.run_in_executor(None, _fold)

    async def drain(self) -> None:
        """Wait until every accepted sample is ingested and every ready
        (or force-queued) session has resolved.

        Robust against dead pipeline tasks: if the ingest or batch loop
        has stopped (crash, cancellation), drain returns instead of
        waiting on progress that can no longer happen.
        """
        if not await self._watch(self._ingest_q.join(), self._ingest_task):
            return
        while self._n_unresolved:
            self._quiescent.clear()
            if not await self._watch(self._quiescent.wait(), self._batch_task):
                return
            # Re-join: resolving a batch may have unblocked a producer.
            if not await self._watch(self._ingest_q.join(), self._ingest_task):
                return

    async def _watch(self, coro, task: "asyncio.Task[None]") -> bool:
        """Await ``coro``, bailing out if the pipeline ``task`` dies.

        Returns True when ``coro`` completed, False when the watched
        task is (or becomes) done first — meaning the condition can
        never be satisfied by normal progress.
        """
        waiter = asyncio.ensure_future(coro)
        if task is None or task.done():
            waiter.cancel()
            await asyncio.gather(waiter, return_exceptions=True)
            return False
        await asyncio.wait({waiter, task}, return_when=asyncio.FIRST_COMPLETED)
        if waiter.done() and not waiter.cancelled():
            waiter.result()  # propagate unexpected errors
            return True
        waiter.cancel()
        await asyncio.gather(waiter, return_exceptions=True)
        return False

    # -- ingestion -----------------------------------------------------------
    async def submit(self, sample: Sample) -> bool:
        """Offer one sample to the service: a one-sample block.

        Returns ``True`` if the sample was accepted.  Under the
        ``"block"`` policy this coroutine suspends while the ingest
        queue is full, or while the sample would open a session beyond
        ``max_sessions`` (lossless backpressure — note that a blocked
        producer can only resume once verdicts or the eviction reaper
        free a slot, so a lossless deployment whose streams interleave
        more jobs than ``max_sessions`` should configure
        ``session_timeout``).  Under ``"shed"`` the sample is dropped
        instead, ``False`` is returned, and the drop is counted in
        :attr:`EngineStats.n_shed`.
        """
        return await self.submit_many((sample,)) == 1

    async def submit_many(self, samples: Iterable[Sample]) -> int:
        """Offer a block of samples; returns how many were accepted.

        A sample of a job the service already tracks (or has already
        admitted) passes a synchronous membership test; only a
        first-seen job's sample runs the session-cap check of
        :meth:`_admit`, with the :meth:`submit` semantics.  The admitted
        samples go on the ingest queue as one block, routed in one step.
        ``max_pending_samples`` bounds the queue in samples, across
        blocks: a block larger than the free room is split, and the rest
        waits for room under ``"block"`` or is shed sample by sample,
        each after one yield, under ``"shed"``.  Before waiting for a
        session slot the samples gathered so far are enqueued — they may
        be the very samples that make a session ready and free the slot.
        """
        self._check_running()
        sessions = self._sessions
        opens = self._pending_opens
        cfg = self.config
        bound = cfg.max_pending_samples
        block: List[Sample] = []
        append = block.append
        # Jobs this call admitted as new -> index in ``block`` of their
        # first sample: the slots a cancelled put must give back.
        fresh: Dict[str, int] = {}
        accepted = 0
        for sample in samples:
            if len(block) >= bound:
                # Hold at most one queue's worth: a long iterable
                # streams through in bounded pieces.
                accepted += await self._put_admitted(block, fresh)
                block, fresh = [], {}
                append = block.append
            job = sample.job
            if job not in sessions and job not in opens:
                if block and self._n_active + len(opens) >= cfg.max_sessions:
                    # Hold nothing while waiting for a session slot.
                    accepted += await self._put_admitted(block, fresh)
                    block, fresh = [], {}
                    append = block.append
                admitted, is_new = await self._admit(sample)
                if not admitted:
                    continue
                if is_new:
                    fresh[job] = len(block)
            append(sample)
        if block:
            accepted += await self._put_admitted(block, fresh)
        return accepted

    async def _put_admitted(
        self, block: List[Sample], fresh: Dict[str, int]
    ) -> int:
        """Enqueue an admitted block within the sample bound; returns how
        many of its samples went on the queue.

        If the caller cancels the wait (e.g. an ``asyncio.wait_for``
        timeout), the admission slots of ``fresh`` jobs none of whose
        samples were enqueued are given back — otherwise such a job
        would hold a ``max_sessions`` slot forever without a session
        ever opening.
        """
        q = self._ingest_q
        bound = self.config.max_pending_samples
        shed = self.config.backpressure == "shed"
        n = len(block)
        done = 0
        accepted = 0
        try:
            while done < n:
                room = bound - self._n_queued
                if room <= 0:
                    if not shed:
                        self._room.clear()
                        await self._room.wait()
                        continue
                    # Yield once so the ingest loop can drain, then shed
                    # only if the queue is *still* full — i.e. ingestion
                    # genuinely cannot keep up.
                    await asyncio.sleep(0)
                    room = bound - self._n_queued
                    if room <= 0:
                        self._shed(block, done, fresh)
                        done += 1
                        continue
                piece = block[done:done + room]
                q.put_nowait(piece)
                self._n_queued += len(piece)
                self.stats.record_queue_depth(self._n_queued)
                done += len(piece)
                accepted += len(piece)
            # Cooperative flood: give the ingest loop a turn per block,
            # so routing (and readiness) keeps pace with a fast producer.
            await asyncio.sleep(0)
        except asyncio.CancelledError:
            for job, first in fresh.items():
                if first >= done:
                    self._pending_opens.discard(job)
            raise
        return accepted

    def _shed(self, block: List[Sample], i: int, fresh: Dict[str, int]) -> None:
        """Shed ``block[i]``; a fresh job keeps its admission slot only
        while a later sample of it is still to be enqueued."""
        job = block[i].job
        if fresh.get(job) == i:
            for k in range(i + 1, len(block)):
                if block[k].job == job:
                    fresh[job] = k
                    break
            else:
                del fresh[job]
                self._pending_opens.discard(job)
        self.stats.record_shed()

    async def _admit(self, sample: Sample) -> Tuple[bool, bool]:
        """Session-cap admission control, applied at the producer side.

        Returns ``(admitted, is_new)``.  Blocking here (rather than in
        the routing loop) keeps routing live for every already-admitted
        session, so verdicts — which free slots — can always make
        progress.  Jobs admitted but not yet routed are counted against
        the cap via ``_pending_opens``, so a burst of first-sight jobs
        cannot blow past it.  A trailing sample of a retention-pruned
        job takes no slot: routing drops it as late.
        """
        job = sample.job
        while True:
            if job in self._sessions or job in self._pending_opens:
                return True, False
            if self._pruned_late(sample):
                return True, False
            if (self._n_active + len(self._pending_opens)
                    < self.config.max_sessions):
                self._pending_opens.add(job)
                return True, True
            if self.config.backpressure == "shed":
                self.stats.record_shed()
                return False, False
            self._session_freed.clear()
            await self._session_freed.wait()

    # -- verdict access -------------------------------------------------------
    async def verdict(self, job: str) -> MatchResult:
        """Await ``job``'s :class:`MatchResult`.

        Valid before, during, or after resolution.  A submitted-but-not-
        yet-routed job is waited for (the ingest queue is flushed first);
        a job the service has truly never seen raises :class:`KeyError`.
        Raises :class:`SessionEvicted` for dropped sessions and
        :class:`~repro.parallel.pool.WorkerError` when recognition
        crashed on this session.  Wrap in :func:`asyncio.wait_for` for a
        deadline — cancelling this coroutine never cancels the verdict
        itself (the underlying future is shielded).
        """
        state = self._sessions.get(job)
        if state is None and self._running:
            # The first sample may still be sitting in the ingest queue.
            await self._watch(self._ingest_q.join(), self._ingest_task)
            state = self._sessions.get(job)
        if state is None:
            raise KeyError(f"unknown job {job!r}: no samples ever accepted")
        return await asyncio.shield(state.future)

    @property
    def results(self) -> Dict[str, MatchResult]:
        """Verdicts of all successfully resolved sessions, by job id."""
        return {
            job: state.future.result()
            for job, state in self._sessions.items()
            if state.future.done() and not state.future.cancelled()
            and state.future.exception() is None
        }

    @property
    def n_sessions(self) -> int:
        """Sessions currently tracked (any phase)."""
        return len(self._sessions)

    async def learn(self, job: str, label: str) -> int:
        """Fold a resolved session's fingerprints into the dictionary.

        This is the paper's learn-while-recognizing loop at serving
        time: once ``job``'s verdict is out (and, say, confirmed by an
        operator or the scheduler's ground truth), its fingerprints
        become dictionary observations under ``label`` — the very next
        micro-batch sees them.  Works against every storage backend
        through the :class:`~repro.engine.backend.DictionaryBackend`
        write surface; on a columnar store the observations land in the
        write-ahead delta-log, so the vectorized lookup index stays hot
        and the learnings survive a restart (folded into the base by
        ``compact_on_close`` or ``efd engine compact``).

        Returns the number of fingerprints inserted (nodes without a
        usable fingerprint are skipped).  Raises :class:`KeyError` for
        an unknown job and :class:`RuntimeError` for a session that has
        not resolved yet — learning from an undecided session would
        race the recognition worker that is still reading it.
        """
        state = self._sessions.get(job)
        if state is None:
            raise KeyError(f"unknown job {job!r}: no samples ever accepted")
        if state.phase is not _Phase.DONE:
            raise RuntimeError(
                f"session {job!r} is still {state.phase.value}: learn only "
                f"after its verdict resolves"
            )
        fingerprints = state.session.fingerprints()
        engine = self.engine

        def _apply() -> int:
            with self._engine_lock:
                return engine.dictionary.add_many(fingerprints, label)

        return await self._loop.run_in_executor(None, _apply)

    def forget(self, job: str, _pruned: bool = False) -> None:
        """Drop a *completed* session's state (verdict included).

        Active sessions are capped by ``max_sessions``, but completed
        ones are retained so :meth:`verdict` stays answerable after the
        fact; a long-running deployment that has consumed a verdict
        (e.g. via ``on_verdict``) calls this to reclaim the entry — or
        configures ``retention_max_age`` / ``retention_max_done`` and
        lets the retention loop do it.  Sessions that never concluded
        (an errored, evicted, or close-cancelled verdict) are completed
        too: forgetting them must leave every
        :class:`~repro.engine.stats.EngineStats` session gauge at its
        true value.
        """
        state = self._sessions.get(job)
        if state is None:
            return
        if state.phase is not _Phase.DONE:
            raise RuntimeError(f"session {job!r} is still {state.phase.value}")
        future = state.future
        if future.done() and not future.cancelled():
            # Mark an errored verdict retrieved, so discarding it never
            # trips the event loop's "exception never retrieved" alarm.
            future.exception()
        del self._sessions[job]
        self._n_done -= 1
        self.stats.record_session_forgotten(pruned=_pruned)

    # -- internals: routing ---------------------------------------------------
    async def _ingest_loop(self) -> None:
        q = self._ingest_q
        while True:
            block = await q.get()
            self._n_queued -= len(block)
            self._room.set()
            try:
                self._route(block)
            finally:
                q.task_done()

    def _route(self, block: List[Sample]) -> None:
        """Feed one block into its sessions; never awaits."""
        sessions = self._sessions
        active = _Phase.ACTIVE
        now = self._loop.time()
        for sample in block:
            state = sessions.get(sample.job)
            if state is None:
                if self._pruned_late(sample):
                    self.stats.record_late()
                    continue
                state = self._open(sample)
            if state.phase is not active:
                # Verdict already queued/decided; the session may be in
                # the hands of the worker executor, so mutating it now
                # would race.  Dropping is sound for in-order feeds:
                # once every node's clock passed the interval end, an
                # in-order sample lies outside the interval and cannot
                # change a fingerprint.  (An out-of-order retransmission
                # landing here is dropped too — see the module docstring
                # caveat.)
                self.stats.record_late()
                continue
            session = state.session
            try:
                session.ingest(sample.node, sample.time, sample.value)
            except Exception as exc:  # bad node rank, concluded session, ...
                self._resolve_error(state, exc)
                continue
            state.last_activity = now
            if session.ready:
                self._queue_ready(state)

    def _pruned_late(self, sample: Sample) -> bool:
        """A trailing sample of a job whose verdict was delivered and
        then pruned by retention: late, not the first of a new session.
        (One inside the interval is a restarted job and reopens.)"""
        return (sample.job in self._pruned
                and sample.time >= self._interval_end)

    def _open(self, sample: Sample) -> _SessionState:
        """Create the session for a first-seen job id.

        Capacity was already checked at admission (:meth:`_admit`);
        never blocks, so routing stays live for existing sessions.
        """
        self._pending_opens.discard(sample.job)
        self._pruned.pop(sample.job, None)  # a restarted job reopens
        n_nodes = sample.n_nodes or self.config.default_nodes
        engine = self.engine
        session = StreamSession(
            dictionary=engine.dictionary,
            metric=engine.metric,
            depth=engine.depth,
            interval=engine.interval,
            n_nodes=n_nodes,
            unknown_label=engine.unknown_label,
            session_id=sample.job,
        )
        state = _SessionState(
            job=sample.job,
            session=session,
            future=self._loop.create_future(),
            last_activity=self._loop.time(),
        )
        self._sessions[sample.job] = state
        self._n_active += 1
        self.stats.record_session_open()
        return state

    def _queue_ready(self, state: _SessionState, forced: bool = False) -> None:
        state.phase = _Phase.QUEUED
        state.forced = forced
        state.ready_at = self._loop.time()
        self._n_unresolved += 1
        self._quiescent.clear()
        self._ready_q.put_nowait(state.job)

    # -- internals: batching --------------------------------------------------
    async def _batch_loop(self) -> None:
        cfg = self.config
        while True:
            job = await self._ready_q.get()
            batch = [job]
            deadline = self._loop.time() + cfg.batch_max_delay
            while len(batch) < cfg.batch_max_sessions:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._ready_q.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            await self._inflight.acquire()
            task = self._loop.create_task(self._resolve_batch(batch))
            self._batches.add(task)
            task.add_done_callback(self._batches.discard)

    async def _resolve_batch(self, jobs: List[str]) -> None:
        try:
            states = [self._sessions[job] for job in jobs]
            sessions = [state.session for state in states]
            try:
                results = await self._loop.run_in_executor(
                    None, partial(self._recognize, sessions)
                )
            except Exception:
                await self._isolate_failure(states)
                return
            for state, result in zip(states, results):
                self._resolve(state, result)
        finally:
            self._inflight.release()

    def _recognize(self, sessions: List[StreamSession]) -> List[MatchResult]:
        """Executor entry point.  The lock serializes engine access:
        EngineStats and the engine's lookup caches are loop-confined
        everywhere else, and micro-batches may overlap."""
        with self._engine_lock:
            return self.engine.recognize_sessions(sessions, force=True)

    async def _isolate_failure(self, states: List[_SessionState]) -> None:
        """A batch crashed: retry sessions one by one so only the truly
        failing session(s) surface the error, wrapped with their job id."""
        n = len(states)
        for index, state in enumerate(states):
            try:
                result = await self._loop.run_in_executor(
                    None, partial(self._recognize, [state.session])
                )
            except Exception as exc:
                original = exc.original if isinstance(exc, WorkerError) else exc
                self._resolve_error(
                    state, SessionWorkerError(state.job, index, n, original)
                )
            else:
                self._resolve(state, result[0])

    # -- internals: resolution ------------------------------------------------
    def _resolve(self, state: _SessionState, result: MatchResult) -> None:
        if state.future.done():
            return
        self.stats.record_latency(self._loop.time() - state.ready_at)
        state.future.set_result(result)
        self._finish(state)
        if self.on_verdict is not None:
            try:
                self.on_verdict(state.job, result)
            except Exception:
                # A crashing callback must not take down the batch task
                # (its remaining sessions would hang unresolved).  The
                # verdict itself is already delivered via the future.
                self.n_callback_errors += 1

    def _resolve_error(self, state: _SessionState, exc: BaseException) -> None:
        if state.future.done():
            return
        state.future.set_exception(exc)
        self._finish(state)

    def _finish(self, state: _SessionState) -> None:
        if state.phase is _Phase.QUEUED:
            self._n_unresolved -= 1
            if self._n_unresolved == 0:
                self._quiescent.set()
        state.phase = _Phase.DONE
        state.done_at = self._loop.time()
        self._n_active -= 1
        self._n_done += 1
        self.stats.record_session_done()
        cfg = self.config
        if (cfg.retention_max_age is not None
                or cfg.retention_max_done is not None):
            # Only retention drains this deque; without a knob set,
            # appending would leak one entry per session forever under
            # the consume-verdict-then-forget() deployment pattern.
            self._done_order.append((state.job, state.done_at))
            if cfg.retention_max_done is not None:
                self._prune_over_cap()
        self._session_freed.set()

    # -- internals: eviction --------------------------------------------------
    async def _reaper_loop(self) -> None:
        timeout = self.config.session_timeout
        tick = min(timeout / 4, 0.5)
        while True:
            await asyncio.sleep(tick)
            now = self._loop.time()
            for state in list(self._sessions.values()):
                if state.phase is not _Phase.ACTIVE:
                    continue
                if now - state.last_activity < timeout:
                    continue
                self.stats.record_eviction()
                if self.config.evict == "force":
                    self._queue_ready(state, forced=True)
                else:
                    self._resolve_error(
                        state, SessionEvicted(state.job, timeout)
                    )

    # -- internals: retention -------------------------------------------------
    async def _retention_loop(self) -> None:
        """Age-based auto-prune of completed sessions.

        Runs only when ``retention_max_age`` is set; the size cap
        (``retention_max_done``) is enforced synchronously in
        :meth:`_finish`, so a burst between sweeps can never exceed it.
        """
        max_age = self.config.retention_max_age
        tick = min(self.config.retention_interval, max_age / 2)
        while True:
            await asyncio.sleep(tick)
            cutoff = self._loop.time() - max_age
            self._prune_older_than(cutoff)

    def _pop_done(self, job: str, done_at: float) -> bool:
        """Forget one completed session from the retention queue.

        Returns False for a stale queue entry: the job was already
        forgotten manually, or its id was reused by a newer session
        (detected by ``done_at`` mismatch) — in either case the entry
        must be skipped, not acted on.
        """
        state = self._sessions.get(job)
        if (state is None or state.phase is not _Phase.DONE
                or state.done_at != done_at):
            return False
        self.forget(job, _pruned=True)
        # Remember the id, so the job's trailing samples count as late
        # instead of opening a second session (and verdict) for it.
        pruned = self._pruned
        pruned[job] = None
        if len(pruned) > self.config.max_sessions:
            del pruned[next(iter(pruned))]
        return True

    def _prune_older_than(self, cutoff: float) -> None:
        while self._done_order and self._done_order[0][1] <= cutoff:
            job, done_at = self._done_order.popleft()
            self._pop_done(job, done_at)

    def _prune_over_cap(self) -> None:
        cap = self.config.retention_max_done
        while self._n_done > cap and self._done_order:
            job, done_at = self._done_order.popleft()
            self._pop_done(job, done_at)

    # -- misc -----------------------------------------------------------------
    def _check_running(self) -> None:
        if not self._running:
            raise RuntimeError(
                "service not running: use `async with IngestService(...)` "
                "or await start()"
            )

    def __repr__(self) -> str:
        return (
            f"IngestService(sessions={len(self._sessions)}, "
            f"active={self._n_active}, "
            f"policy={self.config.backpressure!r}, "
            f"running={self._running})"
        )

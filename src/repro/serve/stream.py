"""Telemetry sample streams: the wire format of the ingestion service.

One :class:`Sample` is one monitoring observation — job id, node rank,
seconds since job start, metric value.  The on-the-wire encoding is
JSON-lines (one object per line), the least-common-denominator format
every HPC monitoring stack (LDMS CSV relays, Kafka topics, syslog
shippers) can produce::

    {"job": "j-1042", "node": 0, "t": 61.0, "value": 182000.0, "nodes": 4}

``nodes`` (the job's node count) is only required on a job's first
sample — it sizes the :class:`~repro.core.streaming.StreamSession`; a
missing field falls back to the service's ``default_nodes``.  ``value``
may be ``null`` for a dropped sample (the session skips it but still
advances that node's clock).

:func:`interleave_records` turns stored
:class:`~repro.data.dataset.ExecutionRecord` telemetry back into the
interleaved multi-job live stream a cluster-wide monitoring bus would
deliver — the replay source for demos, benchmarks, and equivalence
tests.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

from repro.data.dataset import ExecutionRecord


class Sample(NamedTuple):
    """One telemetry observation of one node of one job.

    A ``NamedTuple`` rather than a dataclass on purpose: the network
    listener constructs one per wire line, and tuple construction is
    ~3x cheaper than a frozen dataclass ``__init__`` — measurable at
    hundreds of thousands of samples per second.
    """

    job: str
    node: int
    time: float
    value: float
    n_nodes: Optional[int] = None

    def to_json(self) -> str:
        """Encode as one JSONL line (no trailing newline)."""
        obj = {"job": self.job, "node": self.node, "t": self.time,
               "value": None if math.isnan(self.value) else self.value}
        if self.n_nodes is not None:
            obj["nodes"] = self.n_nodes
        return json.dumps(obj)


def parse_sample(line: str, lineno: int = 0) -> Sample:
    """Decode one JSONL line into a :class:`Sample`.

    The canonical decoder: it coerces numeric strings, bools and floats
    the way ``str``/``int``/``float`` do, and raises :class:`ValueError`
    naming the offending line number for malformed JSON, missing fields,
    or out-of-domain values.
    """
    where = f"sample line {lineno}" if lineno else "sample line"
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    try:
        job = str(obj["job"])
        node = int(obj["node"])
        time = float(obj["t"])
        raw = obj["value"]
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: bad field value: {exc}") from exc
    if not job:
        raise ValueError(f"{where}: job id must be non-empty")
    if node < 0:
        raise ValueError(f"{where}: node must be >= 0, got {node}")
    try:
        value = float("nan") if raw is None else float(raw)
        n_nodes = obj.get("nodes")
        if n_nodes is not None:
            n_nodes = int(n_nodes)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: bad field value: {exc}") from exc
    if n_nodes is not None and n_nodes < 1:
        raise ValueError(f"{where}: nodes must be >= 1, got {n_nodes}")
    return Sample(job=job, node=node, time=time, value=value, n_nodes=n_nodes)


_scan_once = json.JSONDecoder().scan_once
_NAN = float("nan")
#: ``Sample``'s own ``__new__`` is a Python-level function; the tuple
#: constructor builds the same object in a fraction of the time.
_new_sample = tuple.__new__


def decode_sample(text: str, lineno: int = 0) -> Sample:
    """Decode one stripped, non-blank JSONL line: the one ingest parser.

    The fast path takes the common line as it comes off the wire: one C
    scanner call that must consume the whole line, then exact type
    checks — a non-empty ``str`` job, an ``int`` node >= 0, an
    ``int``/``float`` time, an ``int``/``float``/``null`` value and an
    absent, ``null`` or ``int`` >= 1 node count.  Any other line goes to
    :func:`parse_sample`, so coercions and line-numbered errors are
    exactly the canonical decoder's.  Lines are decoded one by one, never
    as one joined array: a line that opens a bracket must fail by its
    own number, not close over its neighbour.
    """
    try:
        obj, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return parse_sample(text, lineno)
    if end == len(text) and obj.__class__ is dict:
        try:
            job = obj["job"]
            node = obj["node"]
            t = obj["t"]
            value = obj["value"]
        except KeyError:
            return parse_sample(text, lineno)
        n_nodes = obj.get("nodes")
        t_cls = t.__class__
        v_cls = value.__class__
        if (job.__class__ is str and job
                and node.__class__ is int and node >= 0
                and (t_cls is float or t_cls is int)
                and (v_cls is float or v_cls is int or value is None)
                and (n_nodes is None
                     or (n_nodes.__class__ is int and n_nodes >= 1))):
            try:
                return _new_sample(Sample, (
                    job, node,
                    t if t_cls is float else float(t),
                    value if v_cls is float else
                    (_NAN if value is None else float(value)),
                    n_nodes,
                ))
            except OverflowError:  # an int beyond float range
                pass
    return parse_sample(text, lineno)


def read_samples(stream: Union[TextIO, Iterable[str]]) -> Iterator[Sample]:
    """Iterate :class:`Sample` objects from a JSONL stream.

    Blank lines and ``#`` comment lines are skipped; anything else must
    decode (:func:`decode_sample`), or :func:`parse_sample` raises with
    the line number.
    """
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if text and text[0] != "#":
            yield decode_sample(text, lineno)


def record_samples(
    record: ExecutionRecord, metric: str, job: str
) -> Iterator[Sample]:
    """One job's telemetry as a time-ordered sample stream.

    Yields every node's series merged in ``(time, node)`` order, with
    the job's node count attached to each sample (so a consumer can open
    the session from whichever sample arrives first).
    """
    merged = []
    for node in range(record.n_nodes):
        series = record.series(metric, node)
        for t, v in zip(series.times, series.values):
            merged.append((float(t), node, float(v)))
    merged.sort(key=lambda s: (s[0], s[1]))
    for t, node, v in merged:
        yield Sample(job=job, node=node, time=t, value=v, n_nodes=record.n_nodes)


def interleave_records(
    records: Sequence[ExecutionRecord],
    metric: str,
    job_ids: Optional[Sequence[str]] = None,
) -> Iterator[Sample]:
    """Interleave many jobs' telemetry into one live-feed-shaped stream.

    Jobs advance round-robin, one sample each per turn — the shape a
    system-wide monitoring bus delivers when many jobs run concurrently.
    Per-job sample order is preserved (time-major), so feeding the
    stream into per-job sessions accumulates exactly the same state as
    feeding each job alone.

    ``job_ids`` defaults to ``job-0000 .. job-NNNN``.
    """
    if job_ids is None:
        job_ids = [f"job-{i:04d}" for i in range(len(records))]
    if len(job_ids) != len(records):
        raise ValueError(
            f"{len(job_ids)} job ids for {len(records)} records"
        )
    feeds = [
        record_samples(record, metric, job)
        for record, job in zip(records, job_ids)
    ]
    while feeds:
        exhausted = []
        for i, feed in enumerate(feeds):
            sample = next(feed, None)
            if sample is None:
                exhausted.append(i)
            else:
                yield sample
        for i in reversed(exhausted):
            del feeds[i]

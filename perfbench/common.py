"""Shared pieces of the benchmark: workload shape, oracle digests, records,
run metadata, memory and result reporting."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import ExecutionRecord
from repro.telemetry.timeseries import TimeSeries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

METRIC = "nr_mapped_vmstat"
DEPTH = 3
INTERVAL = (60.0, 120.0)
N_NODES = 4
N_SHARDS = 2
#: Seconds of telemetry per stored execution (1 s period).  The first
#: ``WARMUP`` seconds run at half level, so only the fingerprint window
#: [60, 120) gives the stored key.
N_SAMPLES = 125
WARMUP = 60

#: Executions per ``recognize_records`` batch.
BATCH = 10_000
#: Share of each records/learn batch that is unknown executions.
UNKNOWN_SHARE = 0.2


def digest(result) -> int:
    """Order-independent 64-bit digest of one ``MatchResult``.

    Two results digest equal exactly when every field compares equal, up
    to a hash collision: the vote and label dicts are compared as sorted
    items, as ``MatchResult.__eq__`` compares them as dicts.
    """
    canon = repr((
        tuple(result.ranked),
        sorted(result.votes.items()),
        sorted(result.matched_labels.items()),
        result.n_fingerprints,
        result.n_missing,
    ))
    return int.from_bytes(
        hashlib.blake2b(canon.encode(), digest_size=8).digest(), "little"
    )


def digests(results: Iterable) -> np.ndarray:
    return np.fromiter((digest(r) for r in results), dtype=np.uint64)


def count_mismatches(results: Sequence, expected: np.ndarray) -> int:
    """Verdicts that differ from the oracle's digests, element-wise."""
    if len(results) != len(expected):
        return max(len(results), len(expected))
    return int(np.count_nonzero(digests(results) != expected))


def node_series(values: np.ndarray) -> np.ndarray:
    """Per-(execution, node) sample matrix for raw levels ``values``
    of shape ``(n, N_NODES)``: half level before ``WARMUP``, then the
    level itself."""
    block = np.empty(values.shape + (N_SAMPLES,))
    block[...] = values[..., None]
    block[..., :WARMUP] *= 0.5
    return block


class RecordBlock:
    """Execution records whose series are views of one NumPy block.

    The record objects are built once; :meth:`fill` writes a new batch of
    levels into the block in place, so every batch reuses the same
    objects and the benchmark adds no garbage per batch.
    """

    def __init__(self, capacity: int):
        self.block = np.empty((capacity, N_NODES, N_SAMPLES))
        self.records = []
        for i in range(capacity):
            row = self.block[i]
            telemetry = {
                (METRIC, node): TimeSeries(row[node])
                for node in range(N_NODES)
            }
            self.records.append(ExecutionRecord(
                record_id=i, app_name="job", input_size="X",
                n_nodes=N_NODES, duration=float(N_SAMPLES),
                telemetry=telemetry,
            ))

    def fill(self, values: np.ndarray) -> List[ExecutionRecord]:
        """Records of the levels ``values`` (shape ``(n, N_NODES)``)."""
        n = len(values)
        self.block[:n] = node_series(values)
        return self.records[:n]


def make_records(values: np.ndarray) -> List[ExecutionRecord]:
    """Records of the levels ``values`` in a block of their own."""
    return RecordBlock(len(values)).fill(values)


def freeze_inputs() -> None:
    """Move every object alive now out of the collector's reach.

    Called once the benchmark has built its own inputs and before it opens
    the program's store, so the program's collections in the timed phase
    scan the program's objects and not the benchmark's input records or
    sessions.  Objects the program creates later are collected as usual.
    """
    gc.collect()
    gc.freeze()


def pin_to_cpu(pid: int, cpu: int) -> None:
    """Keep a process (``pid`` 0: the calling thread and the threads it
    starts later) on one CPU; a no-op on one CPU or without affinity."""
    n_cpus = os.cpu_count() or 1
    if n_cpus > 1 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu % n_cpus})


#: Seconds :func:`reference_s` takes at the nominal host speed that the
#: end-to-end times and rates are scaled to.
REF_NOMINAL_S = 0.007
_REF_LINES = [
    json.dumps({"job": f"j{i:05d}", "node": i % N_NODES, "t": float(i % 300),
                "value": i * 1.5e3})
    for i in range(500)
]


def reference_s() -> float:
    """Seconds of one pass of a fixed kernel of the kinds of work the
    program does (tuple-keyed dict writes and lookups, JSON parsing, small
    NumPy calls, a sort), with the collector off so that the program's
    heap does not change it.  Only the host's speed moves it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(6000):
            table[(i & 3, i * 0.5)] = (f"app{i % 40:02d}_X",)
        hits = 0
        for i in range(12000):
            hits += len(table.get((i & 3, i * 0.25), ()))
        parsed = [json.loads(line) for line in _REF_LINES]
        values = np.array([p["value"] for p in parsed])
        for _ in range(50):
            np.round(values * 1.1, 3)
        sorted(table, key=lambda k: -k[1])
        del table, parsed
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """How much slower than nominal the host runs during one run.

    A shared host's speed drifts by tens of percent over minutes, and the
    program's times move with it.  The workloads sample
    :func:`reference_s` outside their timed calls, interleaved with them
    or just before and after, and the end-to-end times and rates are
    reported at nominal speed: divided (rates: multiplied) by the median
    sample over ``REF_NOMINAL_S``.  A change to the program moves them in
    full; the raw values are kept in the run's metadata.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(reference_s())

    @property
    def slowdown(self) -> float:
        return float(np.median(self.samples)) / REF_NOMINAL_S

    def scale(self, raw: Dict[str, float],
              unscaled: Sequence[str] = ()) -> Dict[str, float]:
        """End-to-end metrics at nominal speed: ``execs_per_s`` times the
        slowdown, the other times divided by it; memory, and the times
        named in ``unscaled`` (ones a timer, not the CPU, sets), as they
        are."""
        k = self.slowdown
        out = {}
        for name, value in raw.items():
            if name == "execs_per_s":
                out[name] = value * k
            elif name == "peak_rss_mb" or name in unscaled:
                out[name] = value
            else:
                out[name] = value / k
        return out

    def info(self, raw: Dict[str, float]) -> dict:
        return {"host_slowdown": self.slowdown,
                "host_samples": len(self.samples), "raw": raw}


def quantile_ms(samples_s: np.ndarray, q: float) -> float:
    return float(np.percentile(samples_s, q)) * 1e3


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """High-water resident set of a process in MiB (Linux ``VmHWM``)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine and tree identity recorded beside the numbers."""
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "dirty": None if status is None else bool(status),
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple], meta: dict) -> None:
    """Print the metadata line, then the result object as the last line."""
    print("# meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)

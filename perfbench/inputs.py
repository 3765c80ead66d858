"""Seeded inputs and their oracle, generated once and cached.

Generation runs in a child process, so the flat oracle dictionary never
adds to the measured process's memory.  The inputs come in two parts.

The corpus is the same for every seed and is built once per checkout
(``.perfbench_cache/corpus-<tag>/``): the dictionary under test and the
executions run against it, with their oracle verdicts.

- ``store/``: a two-shard columnar dictionary of ``N_STORED`` stored
  executions, four distinct keys each (``4 * N_STORED`` keys), and
  ``remote_store/``, the first ``N_REMOTE`` of them in the JSON layout;
- ``known.npy`` / ``unknown.npy``: raw per-node levels of the stored
  executions and of ``N_UNKNOWN`` executions whose probes all miss;
- ``known_digest.npy`` / ``unknown_digest.npy``: the oracle verdict of
  each, from the flat ``ExecutionFingerprintDictionary`` and
  ``match_fingerprints`` over the fingerprints the execution is built to
  produce (its window levels, rounded);
- ``remote_known_digest.npy`` / ``remote_unknown_digest.npy``: the same
  against the remote store;
- ``learned_digest.npy``: the oracle verdict of each unknown execution
  once it is learned under the label ``learned_label(u)``.

The seed chooses the traffic: which executions each workload sends, in
what order (drawn by the workloads from the seed, outside timing), and
the serve feed, generated per seed on first use by ``serve``
(``.perfbench_cache/feed-seed<N>-<tag>/``):

- ``feed.ndjson`` + ``feed.npz``: the serve feed and, per job, its source
  execution, oracle digest and readiness-completing line, plus the line
  where the number of open sessions stops ramping up.

Run as a script to generate one part: ``python3 perfbench/inputs.py
--out DIR`` (the corpus) or ``python3 perfbench/inputs.py --out DIR
--seed 1 --corpus DIR`` (a feed).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from typing import Iterator, List, Optional, Sequence

import numpy as np

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:1] = [_ROOT, os.path.join(_ROOT, "src")]

from perfbench.common import (  # noqa: E402
    CACHE_DIR, DEPTH, INTERVAL, METRIC, N_NODES, N_SHARDS, WARMUP, digest,
)

N_STORED = 51_000
N_UNKNOWN = 20_000
#: Unknown executions ``[0, N_LEARNABLE)`` are the ones the learn
#: workload labels; the oracle knows their verdict once learned.
N_LEARNABLE = 2_000
#: The remote shard servers serve a JSON-layout store of the first
#: ``N_REMOTE`` stored executions.  ``efd shardserve`` walks
#: ``entries()`` of its store for the first status and the first probe;
#: over a columnar store that walk runs a scalar Bloom check per key,
#: which at 16k keys already outlasts the client's default deadline.
N_REMOTE = 4_000
N_APPS = 40
INPUT_SIZES = ("X", "Y", "Z", "L")
#: How many labels a stored key carries, and the share of multi-label keys
#: whose labels are all input sizes of one application.  Measured by
#: ``perfbench/labelmix.py --seeds 1 2 3 4 5 --repetitions 10`` on
#: dictionaries fitted from the repo's own workload models at the
#: benchmark's metric, interval and depth (1654 keys; five or more labels,
#: 0.06% of keys, are counted as four).
LABELS_PER_KEY = (0.644, 0.086, 0.232, 0.038)
SHARED_ONE_APP = 0.988

#: Serve feed: jobs start ``FEED_STAGGER`` feed-seconds apart and run
#: ``FEED_DURATION`` seconds (uniform), four samples per second.  A run
#: must not reach the end of the feed, where sessions stop opening: the
#: serve loop has reached ~180 verdicts/s, and 7000 jobs last a 20 s run
#: up to ~330/s.
FEED_JOBS = 7_000
FEED_STAGGER = 1
FEED_DURATION = (200, 300)
FEED_KNOWN_SHARE = 0.8
#: Readiness completes with the last node's sample at the window end.
READY_T = int(INTERVAL[1])
#: Seeds whose feed the input cache keeps (each feed is ~370 MB).
CACHE_KEEP = 12
#: Seed of the corpus: the dictionary and the executions run against it.
CORPUS_SEED = 0


def learned_label(u: int) -> str:
    return f"learned{u:05d}_X"


def _grid(exponents: np.ndarray) -> np.ndarray:
    """Values with three significant digits, so depth-3 rounding maps
    each to itself."""
    mantissas = np.arange(100, 1000, dtype=np.float64)
    return (mantissas[None, :] * 10.0 ** exponents[:, None]).ravel()


def _levels(rng, grid: np.ndarray, n: int) -> np.ndarray:
    """``n`` executions of per-node levels, distinct on every node."""
    out = np.empty((n, N_NODES))
    for node in range(N_NODES):
        out[:, node] = grid[rng.permutation(len(grid))[:n]]
    return out


def design_fingerprints(values: np.ndarray):
    """The fingerprints each execution is built to produce: its window
    levels rounded to the dictionary's depth, one per node."""
    from repro.core.fingerprint import Fingerprint
    from repro.core.rounding import round_depth_array

    return [
        [Fingerprint(metric=METRIC, node=node, interval=INTERVAL, value=v)
         for node, v in enumerate(row)]
        for row in round_depth_array(values, DEPTH).tolist()
    ]


def _oracle(flat, fingerprint_lists) -> np.ndarray:
    """Digest of each execution's verdict against the flat dictionary."""
    from repro.core.matcher import match_fingerprints

    return np.fromiter(
        (digest(match_fingerprints(flat, fps)) for fps in fingerprint_lists),
        dtype=np.uint64, count=len(fingerprint_lists),
    )


def stored_pairs(rng, known_fps):
    """The (fingerprint, label) observations of the stored executions.

    Each execution has one label; each of its keys independently carries
    ``k`` labels with probability ``LABELS_PER_KEY[k - 1]``.  The extra
    labels are other input sizes of the same application, except on a
    ``1 - SHARED_ONE_APP`` share of multi-label keys, where one of them
    belongs to another application.
    """
    n = len(known_fps)
    n_sizes = len(INPUT_SIZES)
    app = rng.integers(0, N_APPS, n)
    size = rng.integers(0, n_sizes, n)
    k = 1 + rng.choice(len(LABELS_PER_KEY), size=(n, N_NODES),
                       p=LABELS_PER_KEY)
    cross = rng.random((n, N_NODES)) >= SHARED_ONE_APP
    other_app = (app[:, None] + rng.integers(1, N_APPS, (n, N_NODES))) % N_APPS
    per_exec = []
    for e, fps in enumerate(known_fps):
        a, z = int(app[e]), int(size[e])
        pairs = []
        for node, fp in enumerate(fps):
            sizes = [(z + j) % n_sizes for j in range(int(k[e, node]))]
            apps = [a] * len(sizes)
            if len(sizes) > 1 and cross[e, node]:
                apps[-1] = int(other_app[e, node])
            pairs += [
                (fp, f"app{x:02d}_{INPUT_SIZES[y]}")
                for x, y in zip(apps, sizes)
            ]
        per_exec.append(pairs)
    return per_exec


def build_store(directory: str, per_exec, save=None):
    """Write the store of these executions' observations (columnar unless
    ``save`` names another writer) and return the flat oracle dictionary
    holding the same ones."""
    from repro.core.dictionary import ExecutionFingerprintDictionary
    from repro.engine import ShardedDictionary, save_columnar

    flat = ExecutionFingerprintDictionary()
    sharded = ShardedDictionary(N_SHARDS)
    for pairs in per_exec:
        for fp, label in pairs:
            flat.add(fp, label)
            sharded.add(fp, label)
    (save or save_columnar)(sharded, directory)
    return flat


def _feed_text(levels: np.ndarray, job, t, node) -> Iterator[str]:
    """The feed's NDJSON text in pieces, one line per ``(job, t, node)``:
    half level before ``WARMUP``, then the level; only a job's first
    sample carries its node count."""
    n_jobs = len(levels)
    heads = [f'{{"job":"j{j:05d}","node":{n},"t":'
             for j in range(n_jobs) for n in range(N_NODES)]
    # Per (job, node): the tail at full level, at half level, and at half
    # level with the node count.
    tails = []
    for v in levels.ravel().tolist():
        full, half = repr(v), repr(v * 0.5)
        tails += [f'.0,"value":{full}}}\n', f'.0,"value":{half}}}\n',
                  f'.0,"value":{half},"nodes":{N_NODES}}}\n']
    times = [str(i) for i in range(int(t.max()) + 1)]
    key = job * N_NODES + node
    kind = np.where(t >= WARMUP, 0, np.where((t == 0) & (node == 0), 2, 1))
    tail = key * 3 + kind
    step = 1 << 18
    for lo in range(0, len(job), step):
        part = slice(lo, lo + step)
        yield "".join([
            heads[h] + times[ti] + tails[x] for h, ti, x in zip(
                key[part].tolist(), t[part].tolist(), tail[part].tolist()
            )
        ])


def build_feed(rng, corpus: str, directory: str, n_jobs: int) -> None:
    """Write the serve feed: staggered jobs, merged in feed-time order."""
    known_digest = np.load(os.path.join(corpus, "known_digest.npy"))
    unknown_digest = np.load(os.path.join(corpus, "unknown_digest.npy"))
    is_known = rng.random(n_jobs) < FEED_KNOWN_SHARE
    src = np.where(
        is_known,
        rng.integers(0, len(known_digest), n_jobs),
        rng.integers(0, len(unknown_digest), n_jobs),
    )
    expected = np.empty(n_jobs, dtype=np.uint64)
    expected[is_known] = known_digest[src[is_known]]
    expected[~is_known] = unknown_digest[src[~is_known]]
    duration = rng.integers(FEED_DURATION[0], FEED_DURATION[1] + 1, n_jobs)
    job = np.repeat(np.arange(n_jobs), duration * N_NODES)
    within = np.concatenate([np.arange(d * N_NODES) for d in duration])
    t = within // N_NODES
    node = within % N_NODES
    feed_time = job * FEED_STAGGER + t
    order = np.lexsort((node, job, feed_time))
    job, t, node = job[order], t[order], node[order]
    ready_pos = np.flatnonzero((t == READY_T) & (node == N_NODES - 1))
    ready_line = np.empty(n_jobs, dtype=np.int64)
    ready_line[job[ready_pos]] = ready_pos
    # From this line on every running job started inside the feed and the
    # number of open sessions has stopped ramping up.
    steady_line = np.searchsorted(feed_time[order], FEED_DURATION[1])
    np.savez(
        os.path.join(directory, "feed.npz"), is_known=is_known, src=src,
        expected=expected, ready_line=ready_line,
        steady_line=np.int64(steady_line), n_lines=np.int64(len(job)),
    )
    known = np.load(os.path.join(corpus, "known.npy"))
    unknown = np.load(os.path.join(corpus, "unknown.npy"))
    levels = np.empty((n_jobs, N_NODES))
    levels[is_known] = known[src[is_known]]
    levels[~is_known] = unknown[src[~is_known]]
    with open(os.path.join(directory, "feed.ndjson"), "w",
              encoding="ascii") as fh:
        for text in _feed_text(levels, job, t, node):
            fh.write(text)


def generate_corpus(out: str, n_stored: int = N_STORED,
                    n_unknown: int = N_UNKNOWN,
                    n_remote: int = N_REMOTE) -> None:
    """The corpus, written into the fresh directory ``out``."""
    from repro.engine import save_sharded

    rng = np.random.default_rng(CORPUS_SEED)
    os.makedirs(out)
    known = _levels(rng, _grid(np.arange(0, 60, dtype=np.float64)), n_stored)
    unknown = _levels(
        rng, _grid(np.arange(-60, 0, dtype=np.float64)), n_unknown
    )
    np.save(os.path.join(out, "known.npy"), known)
    np.save(os.path.join(out, "unknown.npy"), unknown)
    known_fps = design_fingerprints(known)
    unknown_fps = design_fingerprints(unknown)
    per_exec = stored_pairs(rng, known_fps)
    arrays = {}
    remote = build_store(os.path.join(out, "remote_store"),
                         per_exec[:n_remote], save=save_sharded)
    arrays["remote_known_digest"] = _oracle(remote, known_fps[:n_remote])
    arrays["remote_unknown_digest"] = _oracle(remote, unknown_fps)
    del remote
    flat = build_store(os.path.join(out, "store"), per_exec)
    arrays["known_digest"] = _oracle(flat, known_fps)
    arrays["unknown_digest"] = _oracle(flat, unknown_fps)
    learnable = unknown_fps[:N_LEARNABLE]
    for u, fps in enumerate(learnable):
        flat.add_many(fps, learned_label(u))
    arrays["learned_digest"] = _oracle(flat, learnable)
    for name, array in arrays.items():
        np.save(os.path.join(out, f"{name}.npy"), array)


def generate_feed(seed: int, corpus: str, out: str,
                  feed_jobs: int = FEED_JOBS) -> None:
    """``seed``'s serve feed over ``corpus``, written into the fresh
    directory ``out``."""
    os.makedirs(out)
    build_feed(np.random.default_rng([seed, 4]), corpus, out, feed_jobs)


class SeedInputs:
    """Read-only view of the corpus and, for ``serve``, a seed's feed."""

    def __init__(self, corpus: str, feed: Optional[str] = None):
        self.path = corpus
        self.feed_path = feed

    def array(self, name: str) -> np.ndarray:
        return np.load(os.path.join(self.path, f"{name}.npy"))

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def feed_file(self, name: str) -> str:
        if self.feed_path is None:
            raise ValueError("these inputs hold no feed")
        return os.path.join(self.feed_path, name)

    def copy_store(self, name: str, dest: str) -> str:
        """A fresh copy of a store directory at ``dest``."""
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(self.file(name), dest)
        return dest


def _source_tag() -> str:
    """Cache key: the generator's own code and sizes."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("inputs.py", "common.py"):
        with open(os.path.join(here, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def _prune_cache(keep: Sequence[str]) -> None:
    """Drop every entry of another generator version, and all but the
    ``CACHE_KEEP`` most recently used feeds."""
    tag = _source_tag()
    feeds = []
    for name in os.listdir(CACHE_DIR):
        full = os.path.join(CACHE_DIR, name)
        if full in keep or not os.path.isdir(full):
            continue
        if not name.endswith(f"-{tag}"):
            shutil.rmtree(full, ignore_errors=True)
        elif name.startswith("feed-"):
            feeds.append((os.path.getmtime(full), full))
    for _, full in sorted(feeds)[:max(0, len(feeds) - CACHE_KEEP + 1)]:
        shutil.rmtree(full, ignore_errors=True)


def _cached(name: str, args: List[str]) -> str:
    """The cache entry ``name``, generated by a child process running
    this module with ``args`` if it is not there yet."""
    path = os.path.join(CACHE_DIR, f"{name}-{_source_tag()}")
    if os.path.isdir(path):
        os.utime(path)
        return path
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--out", tmp, *args],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        os.replace(tmp, path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # Write the new inputs back now, not while the run is being timed.
    os.sync()
    return path


def ensure_inputs(seed: int, feed: bool = False) -> SeedInputs:
    """The corpus and, if ``feed``, ``seed``'s feed; each is generated by a
    child process on first use."""
    corpus = _cached("corpus", [])
    feed_path = None
    if feed:
        feed_path = _cached(f"feed-seed{seed}",
                            ["--seed", str(seed), "--corpus", corpus])
    _prune_cache(keep=[corpus, feed_path])
    return SeedInputs(corpus, feed_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int,
                        help="generate this seed's feed, not the corpus")
    parser.add_argument("--corpus", help="the corpus the feed draws from")
    args = parser.parse_args(argv)
    if args.seed is None:
        generate_corpus(args.out)
    else:
        if args.corpus is None:
            parser.error("--seed needs --corpus")
        generate_feed(args.seed, args.corpus, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

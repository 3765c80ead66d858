"""The records kernel: ``(node, value)`` probe columns in, verdicts out.

The paper's recognition step — one rounded interval mean per node, one
key lookup per node, a vote — done for a whole batch in integer-id
space: probes resolve to row ids of a sorted key table
(:class:`RankPackedIndex`), hit rows' label ids come from a CSR table (a
columnar store's own ``label_offsets``/``label_ids`` columns), and
``np.unique`` over packed integers counts matched labels per
(execution, label id) and votes per (execution, app id).  An app id is
the app's position in ``app_names()``, so the tie order is the id order.
Strings appear only in the returned
:class:`~repro.core.matcher.MatchResult` dicts, which equal
``match_fingerprints`` over the flat dictionary (``tests/test_kernel.py``).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dictionary import app_of_label
from repro.core.matcher import MatchResult


def value_bits(values: np.ndarray) -> np.ndarray:
    """float64 keys as order-stable int64 bit patterns.

    ``+ 0.0`` first collapses ``-0.0`` onto ``+0.0`` so the two equal
    fingerprint values share one bit pattern (dictionary keys are
    equality-deduped, but a ``0.0`` probe must still hit a ``-0.0`` key).
    """
    return (np.asarray(values, dtype=np.float64) + 0.0).view(np.int64)


class RankPackedIndex:
    """Exact-match lookup over composite int64 keys, all NumPy.

    Each key component is rank-compressed against its sorted distinct
    values, the ranks are packed into a single ``uint64`` per key, and
    the packed keys are sorted once.  A batch of probes then resolves
    with one :func:`numpy.searchsorted` per component plus one over the
    packed table — no Python per-key work at all.

    Raises :class:`OverflowError` if the rank-space product cannot fit
    in 64 bits.  Two components never overflow below 2**32 keys.
    """

    __slots__ = ("_uniques", "_packed", "_rows", "_n")

    def __init__(self, components: Sequence[np.ndarray], rows: np.ndarray):
        self._n = len(rows)
        self._uniques: List[np.ndarray] = []
        capacity = 1
        packed = np.zeros(self._n, dtype=np.uint64)
        for component in components:
            component = np.asarray(component, dtype=np.int64)
            values = np.unique(component)
            capacity *= max(len(values), 1)
            if capacity >= 1 << 64:
                raise OverflowError("rank space exceeds 64 bits")
            self._uniques.append(values)
            ranks = np.searchsorted(values, component).astype(np.uint64)
            packed = packed * np.uint64(max(len(values), 1)) + ranks
        order = np.argsort(packed, kind="stable")
        self._packed = packed[order]
        self._rows = np.asarray(rows, dtype=np.int64)[order]

    def resolve(self, probes: Sequence[np.ndarray]) -> np.ndarray:
        """Row id per probe tuple; ``-1`` where no key matches."""
        n_probes = len(probes[0]) if probes else 0
        if self._n == 0 or n_probes == 0:
            return np.full(n_probes, -1, dtype=np.int64)
        valid = np.ones(n_probes, dtype=bool)
        packed = np.zeros(n_probes, dtype=np.uint64)
        for component, values in zip(probes, self._uniques):
            component = np.asarray(component, dtype=np.int64)
            idx = np.searchsorted(values, component)
            idx_c = np.minimum(idx, len(values) - 1)
            valid &= (idx < len(values)) & (values[idx_c] == component)
            packed = packed * np.uint64(len(values)) + idx_c.astype(np.uint64)
        pos = np.searchsorted(self._packed, packed)
        pos_c = np.minimum(pos, self._n - 1)
        found = valid & (pos < self._n) & (self._packed[pos_c] == packed)
        return np.where(found, self._rows[pos_c], np.int64(-1))


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    before = np.cumsum(lengths) - lengths
    return np.repeat(starts - before, lengths) + np.arange(int(lengths.sum()))


class ProbeTable:
    """Sorted ``(node, value bits)`` keys whose row ``rows[k]`` indexes a
    CSR table of label ids (``offsets``/``ids``, shared, never copied)."""

    __slots__ = ("_index", "_offsets", "_ids")

    def __init__(self, nodes: np.ndarray, bits: np.ndarray, rows: np.ndarray,
                 offsets: np.ndarray, ids: np.ndarray):
        self._index = RankPackedIndex([nodes, bits], rows)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._ids = np.asarray(ids, dtype=np.int64)

    @classmethod
    def from_lists(cls, nodes: Sequence[int], values: Sequence[float],
                   label_ids: Sequence[Sequence[int]]) -> "ProbeTable":
        """A table whose key ``k`` holds the label ids ``label_ids[k]``."""
        offsets = np.zeros(len(label_ids) + 1, dtype=np.int64)
        np.cumsum([len(ids) for ids in label_ids], out=offsets[1:])
        return cls(
            np.asarray(nodes, dtype=np.int64), value_bits(values),
            np.arange(len(label_ids)), offsets,
            np.fromiter(chain.from_iterable(label_ids), np.int64,
                        int(offsets[-1])),
        )

    def resolve(self, nodes: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Row per ``(node, value bits)`` probe; ``-1`` on a miss."""
        return self._index.resolve([nodes, bits])

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(label count per row, the rows' label ids concatenated)``."""
        starts = self._offsets[rows]
        lengths = self._offsets[rows + 1] - starts
        return lengths, self._ids[expand_ranges(starts, lengths)]


class RecordKernel:
    """Batch verdicts for one (metric, interval) of one store version.

    ``base`` resolves probes to CSR rows (``resolve``/``gather``, as
    :class:`ProbeTable`); hits of the optional ``patch`` table (a
    columnar store's delta-overlay keys, merged labels) override it and
    are encoded as rows ``-2 - row``.  ``labels`` is the table the label
    ids index and ``apps`` is ``app_names()``.
    """

    __slots__ = ("_base", "_patch", "labels", "apps", "_label_app",
                 "_label_names", "_app_names", "_ranked")

    def __init__(self, base, labels: Sequence[str], apps: Sequence[str],
                 patch: Optional[ProbeTable] = None):
        self._base = base
        self._patch = patch
        self.labels = list(labels)
        position = {app: i for i, app in enumerate(apps)}
        for app in map(app_of_label, self.labels):  # stores register all
            position.setdefault(app, len(position))
        self.apps = list(position)
        self._label_app = np.asarray(
            [position[app_of_label(label)] for label in self.labels],
            dtype=np.int64,
        )
        self._label_names = np.asarray(self.labels, dtype=object)
        self._app_names = np.asarray(self.apps, dtype=object)
        # The one-app arrays, shared by every verdict; [-1] is unknown's.
        self._ranked = [(app,) for app in self.apps] + [()]

    @classmethod
    def from_entries(cls, store, metric: str,
                     interval: Tuple[float, float]) -> "RecordKernel":
        """The kernel of any store, built from one ``entries()`` walk."""
        label_id = {label: i for i, label in enumerate(store.labels())}
        keys = [
            (fp.node, fp.value,
             [label_id.setdefault(l, len(label_id)) for l in labels])
            for fp, labels in store.entries()
            if fp.metric == metric and fp.interval == interval
        ]
        nodes, values, lists = zip(*keys) if keys else ((), (), ())
        return cls(ProbeTable.from_lists(nodes, values, lists),
                   list(label_id), store.app_names())

    def _rows(self, nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
        """CSR row per probe (patch rows as ``-2 - row``; ``-1`` miss)."""
        bits = value_bits(values)
        rows = self._base.resolve(nodes, bits)
        if self._patch is not None:
            patched = self._patch.resolve(nodes, bits)
            rows = np.where(patched >= 0, -2 - patched, rows)
        return rows

    def _gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Label counts and ids of sorted distinct hit ``rows``."""
        n_patch = int(np.searchsorted(rows, 0))
        if n_patch == 0:
            return self._base.gather(rows)
        p_len, p_ids = self._patch.gather(-2 - rows[:n_patch])
        b_len, b_ids = self._base.gather(rows[n_patch:])
        return np.concatenate([p_len, b_len]), np.concatenate([p_ids, b_ids])

    def _hits(self, nodes: np.ndarray, values: np.ndarray):
        """Hitting probes, their distinct rows (with each hit's index into
        them) and those rows' label counts and ids.  NaN never hits."""
        usable = np.flatnonzero(values == values)
        rows = self._rows(nodes[usable], values[usable])
        found = rows != -1
        unique, local = np.unique(rows[found], return_inverse=True)
        return (usable[found], unique, local) + self._gather(unique)

    def resolve_probes(
        self, nodes: np.ndarray, values: np.ndarray
    ) -> Dict[Tuple[int, float], Tuple[List[str], Tuple[str, ...]]]:
        """``(node, value) -> (labels, distinct apps)`` per hitting probe —
        the string view of the resolve step."""
        nodes = np.asarray(nodes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        hit, _, local, lengths, ids = self._hits(nodes, values)
        names = _split(self._label_names[ids].tolist(),
                       np.repeat(np.arange(len(lengths)), lengths),
                       len(lengths))
        return {
            (int(nodes[p]), float(values[p])): (
                names[r], tuple(dict.fromkeys(map(app_of_label, names[r])))
            )
            for p, r in zip(hit.tolist(), local.tolist())
        }

    def recognize(
        self, values: np.ndarray, sizes: np.ndarray
    ) -> Tuple[List[MatchResult], int]:
        """``(results, n_hits)`` for executions whose rounded node values
        are ``values`` (record-major; NaN marks a node without a
        fingerprint) and whose node counts are ``sizes``: ``results[i]``
        equals ``match_fingerprints`` over execution ``i``, and
        ``n_hits`` counts probes that matched a key."""
        n = len(sizes)
        sizes = np.asarray(sizes, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        execution = np.repeat(np.arange(n), sizes)
        nodes = np.arange(len(values)) - np.repeat(np.cumsum(sizes) - sizes,
                                                   sizes)
        n_missing = sizes - np.bincount(execution[values == values],
                                        minlength=n)
        hit, _, local, lengths, ids = self._hits(nodes, values)
        # One slot per (hit probe, label of its row), in probe order.
        counts = lengths[local]
        slot_hit = np.repeat(np.arange(len(hit)), counts)
        labels = ids[expand_ranges((np.cumsum(lengths) - lengths)[local],
                                   counts)]
        owner = execution[hit][slot_hit]
        apps = self._label_app[labels]
        # A key votes once for each distinct app among its labels.
        _, first = np.unique(slot_hit * len(self.apps) + apps,
                             return_index=True)
        first.sort()
        v_exe, v_app, v_count, votes = _tally(
            owner[first], apps[first], self._app_names, n
        )
        matched = _tally(owner, labels, self._label_names, n)[3]
        # The paper's returned array: every app at the top count, in
        # app-id (= first-learned) order — the tally's sorted order.
        top = np.zeros(n, dtype=np.int64)
        np.maximum.at(top, v_exe, v_count)
        tied = v_count == top[v_exe]
        tie_exe, tie_app = v_exe[tied], v_app[tied]
        winner = np.full(n, -1, dtype=np.int64)
        winner[tie_exe] = tie_app
        ranked = list(map(self._ranked.__getitem__, winner.tolist()))
        n_tied = np.bincount(tie_exe, minlength=n)
        multi = np.flatnonzero(n_tied > 1)
        names = self._app_names[tie_app].tolist()
        for e, a, k in zip(multi.tolist(),
                           np.searchsorted(tie_exe, multi).tolist(),
                           n_tied[multi].tolist()):
            ranked[e] = tuple(names[a:a + k])
        return list(map(
            MatchResult, ranked, votes, matched,
            (sizes - n_missing).tolist(), n_missing.tolist(),
        )), len(hit)


def _tally(owner: np.ndarray, ids: np.ndarray, names: np.ndarray, n: int):
    """Count ``(owner, id)`` pairs of owner-grouped slots.

    Returns ``(owner, id, count)`` sorted by owner then id, and one
    ``{names[id]: count}`` dict per owner ``0..n-1`` in first-seen order.
    Equal ``(name, count)`` items are one shared tuple.
    """
    width = max(len(names), 1)
    unique, first, counts = np.unique(owner * width + ids,
                                      return_index=True, return_counts=True)
    order = np.argsort(first)
    codes, inverse = np.unique((counts * width + unique % width)[order],
                               return_inverse=True)
    items = list(zip(names[codes % width].tolist(), (codes // width).tolist()))
    dicts = map(dict, _split(list(map(items.__getitem__, inverse.tolist())),
                             unique[order] // width, n))
    return unique // width, unique % width, counts, dicts


def _split(items: list, owner: np.ndarray, n: int) -> List[list]:
    """Owner-grouped ``items`` cut into one list per owner ``0..n-1``."""
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=bounds[1:])
    bounds = bounds.tolist()
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]

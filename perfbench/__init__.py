"""User-path benchmark of the execution fingerprint dictionary.

Four workloads drive the three user paths end to end:

- ``records``: offline ``BatchRecognizer.recognize_records`` over cold rows;
- ``learn``: the same call with hot rows and delta-log writes between
  batches;
- ``serve``: NDJSON text through ``read_samples`` into ``IngestService``;
- ``remote``: ``recognize_sessions`` against ``efd shardserve`` children.

Run one workload with::

    python3 perfbench/run.py --workload records --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 1`` reports the
per-layer metrics of a separate traced run instead of the end-to-end ones.
Generated inputs (a corpus shared by every seed, and a feed per seed for
``serve``) are cached under ``.perfbench_cache/`` and trace spans are
written to ``.perfbench_out/``, both at the repository root.
"""

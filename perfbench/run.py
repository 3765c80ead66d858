"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload records --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of an untraced run;
``--trace 1`` runs a separate traced run and reports the per-layer
metrics (a layer a workload does not exercise reads 0).  End-to-end times
and rates are reported at a nominal host speed (``common.HostSpeed``);
the raw values and the host's measured slowdown are in the ``# meta``
line.  Run from the repository root; inputs are generated on first use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [_ROOT, os.path.join(_ROOT, "src")]

from perfbench import offline, remote, serving  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT_DIR, emit, pin_to_cpu, run_metadata,
)
from perfbench.inputs import ensure_inputs  # noqa: E402
from perfbench.spans import replay_check  # noqa: E402

WORKLOADS = ("records", "learn", "serve", "remote")


def _metric_units(kind: str) -> dict:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run(workload: str, inp, seed: int, seconds: float, trace: bool) -> dict:
    if workload in ("records", "learn"):
        learn = workload == "learn"
        if trace:
            return offline.run_traced(inp, seed, seconds, learn)
        return offline.run(inp, seed, seconds, learn)
    module = serving if workload == "serve" else remote
    return (module.run_traced if trace else module.run)(inp, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    meta = run_metadata(args.workload, args.seed, args.seconds, trace)
    inp = ensure_inputs(args.seed, feed=args.workload == "serve")
    # One CPU for the measured process and its threads.  Unpinned on a
    # two-CPU machine, the serve executor thread can lose every GIL
    # hand-off to the event loop running on the other CPU, and verdict
    # latency jumps from milliseconds to seconds for whole runs.
    pin_to_cpu(0, 0)
    out = _run(args.workload, inp, args.seed, args.seconds, trace)
    meta.update(out.get("info", {}))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if trace:
        rows, wall = out["rows"], out["wall"]
        meta["replay_check"] = check = replay_check(out.get("remainders", {}))
        out["tracer"].write(f"{stem}.trace.jsonl", {
            "layer_table": rows, "wall_s": wall,
            "accounted_s": sum(rows.values()), "replay_check": check,
        })
        for name, row in check.items():
            if not row["ok"]:
                print(f"warning: {name} is {row['share']:+.1%} of the call "
                      f"it splits; the replay does not describe that call",
                      file=sys.stderr)
    got = out["metrics"]
    metrics = {
        # A layer the workload does not exercise reads 0.
        name: (float(got.get(name, 0.0) if trace else got[name]), unit)
        for name, unit in _metric_units(
            "per_layer" if trace else "end_to_end"
        ).items()
    }
    with open(f"{stem}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    failed = out["failed"]
    emit(failed == 0, out["attempted"], failed, metrics, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())

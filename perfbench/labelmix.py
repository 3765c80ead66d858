"""Measure how labels share keys in a dictionary fitted from the repo's
own workload models, the source of the label mix in ``inputs.py``.

    python3 perfbench/labelmix.py --seeds 1 2 3 --repetitions 5

For each seed it generates a Taxonomist-style dataset of the benchmark's
metric (``repro generate``), fits a dictionary at the benchmark's depth and
interval (``repro fit``) and counts, over the dictionary's keys, how many
labels each key carries and, for keys with more than one, whether those
labels all belong to one application.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:1] = [_ROOT, os.path.join(_ROOT, "src")]

from repro.core.dictionary import app_of_label  # noqa: E402
from repro.core.recognizer import EFDRecognizer  # noqa: E402
from repro.data.taxonomist import (  # noqa: E402
    DatasetConfig, TaxonomistDatasetGenerator,
)

from perfbench.common import DEPTH, INTERVAL, METRIC  # noqa: E402


def label_mix(seeds, repetitions: int, duration_cap=None) -> dict:
    """Labels-per-key counts and the one-application share of shared keys,
    summed over the dictionaries fitted for ``seeds``."""
    per_key: Counter = Counter()
    one_app = 0
    for seed in seeds:
        dataset = TaxonomistDatasetGenerator(DatasetConfig(
            metrics=(METRIC,), repetitions=repetitions, seed=seed,
            duration_cap=duration_cap,
        )).generate()
        recognizer = EFDRecognizer(
            metric=METRIC, interval=INTERVAL, depth=DEPTH
        ).fit(dataset)
        for _, labels in recognizer.dictionary_.entries():
            labels = set(labels)
            per_key[len(labels)] += 1
            if len(labels) > 1 and len({app_of_label(l) for l in labels}) == 1:
                one_app += 1
    keys = sum(per_key.values())
    shared = keys - per_key[1]
    return {
        "seeds": list(seeds),
        "repetitions": repetitions,
        "keys": keys,
        "labels_per_key": {
            str(k): per_key[k] / keys for k in sorted(per_key)
        },
        "shared_one_app_share": one_app / shared if shared else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args(argv)
    print(json.dumps(label_mix(args.seeds, args.repetitions), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

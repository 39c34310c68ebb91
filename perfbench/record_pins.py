#!/usr/bin/env python3
"""Record the correctness pins the benchmark checks (``pins.json``).

For each workload and seed, executes the scenario once exactly as the
benchmark does and stores its committed event count and the sha256 of
its sorted-key result JSON.  Run from the repository root, only at a
commit whose results are trusted::

    python3 perfbench/record_pins.py --seeds 0-31

An execution on the wrong engine (the accel storm falling back to
Python, the mp storm running single-process) is refused, not pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import PINS, RepFailed, check, launch
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="first-last, inclusive")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    doc = json.loads(PINS.read_text()) if PINS.is_file() else {"workloads": {}}
    for name in args.workload or sorted(WORKLOADS):
        pins = doc["workloads"].setdefault(name, {})
        for seed in seeds:
            record = launch(WORKLOADS[name](seed), "full", 600.0)
            try:
                check(name, record, None)
            except RepFailed as exc:
                print(f"{name} seed {seed}: not pinned: {exc}", file=sys.stderr)
                return 1
            pins[str(seed)] = {"events": record["events"], "sha256": record["sha256"]}
            print(f"{name} seed {seed}: {record['events']} events {record['sha256'][:16]}",
                  flush=True)
            tmp = PINS.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, PINS)
    return 0


if __name__ == "__main__":
    sys.exit(main())

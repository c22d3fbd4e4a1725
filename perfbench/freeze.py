#!/usr/bin/env python3
"""Regenerate expected.json: run every pool item once and freeze what it
observes.

    python3 perfbench/freeze.py

Run it only in a change that redefines the benchmark; the frozen values
are the reference every later commit is checked against.  Refuses to
write if an item raises or fails one of its workload's anchors.
"""

import json
import sys

from run import NAMES, SRC, environment, item_steps
import workloads


def run_item(wl, item):
    steps = item_steps(wl, item, 0)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def main():
    sys.path.insert(0, str(SRC))
    frozen = {}
    for name in NAMES:
        wl = workloads.setup(name, frozen={})
        frozen[name] = {}
        for item in wl.items:
            obs = wl.observe(item, run_item(wl, item))
            problems = wl.anchors(item, obs)
            if problems:
                sys.exit("%s %s: %s" % (name, item.key, "; ".join(problems)))
            frozen[name][item.key] = obs
        print("%s: %d items" % (name, len(wl.items)), flush=True)
    env = environment()
    source = {k: env[k] for k in ("git_sha", "src_sha256", "python")}
    with open(workloads.EXPECTED, "w") as fh:
        json.dump({"source": source, "items": frozen}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Per-op slit-quadrature counts of the benchmark's `orders` workload.

For each draw of one seed it runs the `orders` op of bench/workloads.py
and prints, as one JSON object per line, counts that do not depend on the
machine:

    core_calls   slit-quadrature kernel calls (each runs one setup)
    items        slit integrals evaluated, one b-row each
    outer_nodes  Gauss-Legendre nodes of the coarse and fine passes
    cos_entries  cosines formed (b values times nodes, every product)
    escalations  items that ran the escalation pass

A last line gives the totals over all ops.  The counts come from wrapping
grating._cos_dot, the one place cosines are formed: a product on real
nodes with two columns is an item's pass pair, one with a single column an
escalation, and products made under the same frame of the nearest
enclosing `_slit*` function belong to one kernel call.  Run from anywhere:

    python scripts/kernel_counts.py --seed 1 --ops 24
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from vdwgrating import grating  # noqa: E402

KEYS = ("core_calls", "items", "outer_nodes", "cos_entries", "escalations")


def _kernel_frame():
    frame = sys._getframe(2)
    while frame is not None and not frame.f_code.co_name.startswith("_slit"):
        frame = frame.f_back
    return frame


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=workloads.PASS)
    args = parser.parse_args()
    os.chdir(ROOT)  # the workload's config paths are relative to the root
    cfgs = workloads.load_configs()
    cos_dot = grating._cos_dot
    counts, frames = {}, []

    def counted(bs, nodes, core, half):
        frame = _kernel_frame()
        if not any(frame is f for f in frames):
            frames.append(frame)
        counts["cos_entries"] += bs.size * nodes.size
        if np.isrealobj(nodes):
            pair = core.shape[1] == 2
            counts["items" if pair else "escalations"] += 1
            counts["outer_nodes"] += nodes.size if pair else 0
        return cos_dot(bs, nodes, core, half)

    grating._cos_dot = counted
    totals = dict.fromkeys(KEYS, 0)
    try:
        for i in range(args.ops):
            spec = workloads.draw(args.seed, i)
            counts.update(dict.fromkeys(KEYS, 0))
            frames.clear()
            workloads.orders_op(spec, cfgs, None)
            counts["core_calls"] = len(frames)
            for key in KEYS:
                totals[key] += counts[key]
            print(json.dumps({"op": i, "species": spec["species"],
                              **{key: int(counts[key]) for key in KEYS}}))
    finally:
        grating._cos_dot = cos_dot
    print(json.dumps({"seed": args.seed, "ops": args.ops,
                      "total": {key: int(totals[key]) for key in KEYS}}))


if __name__ == "__main__":
    main()

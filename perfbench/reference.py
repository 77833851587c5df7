"""Regenerate perfbench/reference.json from the program in ``src/``.

    python3 perfbench/reference.py

The file holds what the benchmark's validation compares against: the lap
time of every solve operation and, for each eval56 pool vector, the
objective value, the gradient norm and the gradient's projection on a fixed
direction.  It was written from the seed program; regenerate it only on
purpose, because a later program that is merely faster must reproduce it.
"""

from __future__ import annotations

import json
import math

import numpy as np

import workloads as wl

RANDOM3_SEEDS = tuple(range(100, 110))


def main():
    laps = {}
    no_bound = {f"loop7/{m}": math.inf for m in wl.LOOP7_MODES}
    no_bound.update({f"random3/seed{s}": math.inf for s in RANDOM3_SEEDS},
                    laps28=math.inf)
    jobs = [("loop7", {"track_file": wl.loop7_track_file()}),
            ("laps28", {}), ("random3", {"random3_seeds": RANDOM3_SEEDS})]
    for name, kwargs in jobs:
        inputs = wl.setup(name, **kwargs)
        for op_name, run, check in wl.operations(name, inputs, no_bound, 0):
            op = wl.Op(op_name)
            check(op, run())
            laps[op_name] = op.lap_time_s
            print(op_name, op.lap_time_s, op.failures, flush=True)

    inputs = wl.setup("eval56")
    dec0, seq, track = inputs["dec0"], inputs["seq"], inputs["track"]
    probe = wl.gradient_probe(len(dec0.to_flat()))
    pool = []
    for i in range(wl.EVAL56_POOL):
        rep = wl.cost.objective(dec0.with_flat(wl.eval56_vector(dec0, i)), seq,
                                track.quad, *wl._hover(track))
        g = rep.gradient.to_flat()
        pool.append({"total": rep.total, "grad_norm": float(np.linalg.norm(g)),
                     "grad_probe": float(g @ probe)})
    path = wl.HERE / "reference.json"
    path.write_text(json.dumps({"lap_time_s": laps, "eval56": pool}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

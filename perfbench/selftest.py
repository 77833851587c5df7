"""Self-test of the benchmark's tracing; exits 1 on any failure.

    python3 perfbench/selftest.py

Solves one small random3 track and evaluates two eval56 vectors, untraced
and then traced, and checks that:
  - iterations, evaluations, lap times and objective values are identical;
  - while installed, the wrappers sit at every name callers look up,
    including ``raceplan.cli.solve`` and the package re-exports;
  - after uninstalling, every wrapped name holds its original object again;
  - spans nest, and the self times inside each solve add up to it.
"""

from __future__ import annotations

import importlib
import json
import sys

import run
import tracing
import workloads as wl

RANDOM3_SEED = 101   # the fastest of the default random3 tracks


def _resolve(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def check_pass(ops, names, originals, errors):
    """Run ``ops`` untraced, then traced; return the traced ops and spans."""
    untraced = run.run_pass(wl, ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missing = [n for n in names if _resolve(n) is originals[n]]
        if missing:
            errors.append(f"not wrapped while tracing: {missing}")
        traced = run.run_pass(wl, ops, tracer)
    finally:
        tracer.uninstall()

    for a, b in zip(untraced, traced):
        if a.failed or b.failed:
            errors.append(f"{a.name} failed: {a.failures or b.failures}")
        if repr(a.signature()) != repr(b.signature()):
            errors.append(f"{a.name}: {a.signature()} untraced, {b.signature()} traced")
    changed = [n for n in names if _resolve(n) is not originals[n]]
    if changed or tracing.leftover_wrappers():
        errors.append(f"not restored: {changed + tracing.leftover_wrappers()}")
    spans = tracer.spans
    for i, s in enumerate(spans):
        p = s.parent
        if p is not None and not (p < i and spans[p].start <= s.start
                                  <= s.end <= spans[p].end):
            errors.append(f"span {i} ({s.name}) does not nest in span {p}")
            break
    return traced, spans


def main():
    errors = []
    doc = json.loads((wl.HERE / "reference.json").read_text())
    ref = {**doc["lap_time_s"], "eval56": doc["eval56"]}
    names = tracing.wrapped_names() + ["raceplan.cli.solve", "raceplan.solve",
                                       "raceplan.objective", "raceplan.decode"]
    originals = {n: _resolve(n) for n in names}

    solve_ops = wl.operations(
        "random3", wl.setup("random3", random3_seeds=[RANDOM3_SEED]), ref, 0)
    traced, spans = check_pass(solve_ops, names, originals, errors)
    metrics, solve_s = run.per_layer(spans, traced, traced)
    layers = sum(metrics[k] for k in run.SOLVE_LAYERS)
    if not solve_s or abs(solve_s - layers) > 1e-6 * solve_s:
        errors.append(f"layer self times {layers} do not add up to solve time {solve_s}")
    if metrics["optimizer.evals"] + 1 != metrics["cost.objective_calls"]:
        errors.append("objective calls are not the solver's evaluations plus export's")

    eval_ops = wl.operations("eval56", wl.setup("eval56"), ref, 0)[:2]
    check_pass(eval_ops, names, originals, errors)

    for e in errors:
        print(f"FAIL: {e}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""raceplan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--random3-seeds 100,101]

NAME is loop7, laps28, random3, eval56, or ``all`` (each workload in its
own process, one after the other).  The operations run in a closed loop:
one caller, each operation starting when the previous one returned.  Whole
passes over a workload's operations repeat until S seconds have passed, at
least one pass.  Every operation is validated.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the passes
untraced for S/2 seconds, then the same passes with span wrappers installed
around the calls into each raceplan module, and reports the per-layer
metrics.  Spans and the full result, with the environment, are written under
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

SETUP_REPEATS = 3
# Self times of these spans are the solver's own work: iteration and line
# search logic, initialization, restoration and export bookkeeping.
OPTIMIZER_SPANS = ("optimizer.solve", "optimizer.minimize",
                   "optimizer.restore", "optimizer.sample")
# Layer self times that together make up traced solve time.
SOLVE_LAYERS = ("gates.decode_s", "spline.construct_s", "spline.eval_s",
                "spline.adjoint_s", "model.flatness_s", "cost.penalty_self_s",
                "cost.objective_self_s", "optimizer.self_s")


def contract_metrics(trace: int) -> dict:
    """Name -> unit of the metrics that BENCHMARK.json lists for this kind
    of run."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    bench = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="raceplan benchmark")
    p.add_argument("--workload", required=True, choices=(*names, "all"))
    p.add_argument("--seed", type=int, default=0,
                   help="selects the eval56 decision vectors")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--random3-seeds", default="100,101",
                   help="random_track seeds of the random3 workload")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# running operations

def run_pass(wl, ops, tracer=None, label=""):
    done = []
    for name, run, check in ops:
        op = wl.Op(name)
        if tracer is not None:
            tracer.trace_id = name + label
        t0 = time.perf_counter()
        try:
            outcome = run()
        except Exception as exc:  # a raising operation is a failed one
            op.wall_s = time.perf_counter() - t0
            op.failures.append(f"raised {type(exc).__name__}: {exc}")
        else:
            op.wall_s = time.perf_counter() - t0
            try:
                check(op, outcome)
            except Exception as exc:  # unreadable output fails validation
                op.failures.append(f"validation raised {type(exc).__name__}: {exc}")
        done.append(op)
    return done


def run_passes(wl, ops, seconds=0.0, count=None, tracer=None):
    """Whole passes until ``seconds`` have passed (at least one), or
    exactly ``count`` passes."""
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(wl, ops, tracer, f"#{len(passes)}"))
        if len(passes) == count or (count is None and time.perf_counter() >= t_end):
            return passes


def setup_seconds(name, args, track_file):
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name,
           "--random3-seeds", args.random3_seeds]
    if track_file is not None:
        cmd += ["--track-file", str(track_file)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# metrics

def end_to_end(passes, setup_s):
    """Timings use each operation's fastest pass: other tenants of the
    host only ever slow an operation down."""
    best = {}
    for op in (op for p in passes for op in p):
        if op.name not in best or op.wall_s < best[op.name].wall_s:
            best[op.name] = op
    ops = best.values()
    solver_s = sum(op.solver_s for op in ops)
    return {
        "wall_s": sum(op.wall_s for op in ops),
        "evals_per_s": sum(op.evals for op in ops) / solver_s if solver_s else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, ops_traced, ops_untraced):
    in_solve, in_restore = [], []
    for s in spans:
        p = s.parent
        in_solve.append(s.name == "optimizer.solve" or (p is not None and in_solve[p]))
        in_restore.append(s.name == "optimizer.restore"
                          or (p is not None and in_restore[p]))

    def named(name, where=None):
        return [s for i, s in enumerate(spans)
                if s.name == name and (where is None or where[i])]

    def self_s(name):
        return sum(s.self_s for s in named(name))

    def inclusive(group):
        return sum(s.duration for s in group)

    objective = named("cost.objective")
    diags = [s.count for s in named("optimizer.minimize") if s.count is not None]
    iterations = sum(d.iterations for d in diags)
    evals = sum(d.function_evals for d in diags)
    solve_objective_calls = len(named("cost.objective", in_solve))
    samples = sum(s.count for s in named("model.flatness"))
    export = [s for s in objective
              if s.parent is not None and spans[s.parent].name == "optimizer.solve"]
    traced = sum(op.wall_s for op in ops_traced)
    m = {
        "model.flatness_s": self_s("model.flatness"),
        "model.flatness_samples": samples,
        "model.flatness_us_per_sample":
            1e6 * self_s("model.flatness") / samples if samples else 0.0,
        "spline.construct_s": self_s("spline.construct"),
        "spline.eval_s": self_s("spline.eval"),
        "spline.adjoint_s": self_s("spline.adjoint"),
        "cost.objective_calls": len(objective),
        "cost.ms_per_eval": 1e3 * inclusive(objective) / len(objective) if objective else 0.0,
        "cost.penalty_self_s": self_s("cost.penalty"),
        "cost.objective_self_s": self_s("cost.objective"),
        "gates.decode_s": self_s("gates.decode"),
        "gates.decode_calls": len(named("gates.decode")),
        "optimizer.iterations": iterations,
        "optimizer.evals": evals,
        "optimizer.evals_per_iter": evals / iterations if iterations else 0.0,
        "optimizer.line_search_failures":
            sum(d.termination == "line_search_failure" for d in diags),
        "optimizer.self_s": sum(self_s(n) for n in OPTIMIZER_SPANS),
        "optimizer.best_start_eval_share":
            sum(op.evals for op in ops_traced) / solve_objective_calls
            if solve_objective_calls else 0.0,
        "optimizer.restore_s": inclusive(named("optimizer.restore")),
        "optimizer.restore_evals": len(named("cost.penalty", in_restore)),
        "optimizer.export_s": inclusive(export) + inclusive(named("optimizer.sample")),
        "trackio.parse_s": inclusive(named("trackio.parse")),
        "cli.plan_self_s": self_s("cli.plan"),
        "cli.check_s": self_s("cli.check"),
        "cli.csv_rows": sum(op.csv_rows for op in ops_traced),
        "traced_wall_s": traced,
        "trace_overhead_s": traced - sum(op.wall_s for op in ops_untraced),
    }
    solve_s = inclusive(named("optimizer.solve"))
    return m, solve_s


# ---------------------------------------------------------------------------
# environment

def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas": _blas(numpy),
    }


def host_probe_ms():
    """Best of five timings of a fixed numpy and Python kernel that does not
    involve raceplan: how fast the shared host ran around this result."""
    import numpy

    x = numpy.random.default_rng(0).normal(size=(256, 3))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            numpy.cross(x, x[::-1]) @ numpy.ones(3)
            sum(range(3000))
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def _blas(numpy):
    info = {k: os.environ[k] for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["threads"] = int(getattr(handle, sym)())
                return info
    return info


# ---------------------------------------------------------------------------

def run_workload(wl, args):
    name = args.workload
    seeds = [int(s) for s in args.random3_seeds.split(",") if s]
    wl.OUT.mkdir(parents=True, exist_ok=True)
    env = environment()
    env["host_probe_ms_before"] = host_probe_ms()
    print(f"raceplan benchmark: workload {name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env))
    with open(Path(wl.HERE) / "reference.json") as fh:
        doc = json.load(fh)
    ref = {**doc["lap_time_s"], "eval56": doc["eval56"]}

    track_file = wl.loop7_track_file() if name == "loop7" else None
    setup_s = None if args.trace else setup_seconds(name, args, track_file)
    inputs = wl.setup(name, random3_seeds=seeds, track_file=track_file)
    ops = wl.operations(name, inputs, ref, args.seed)

    problems = []   # reasons the run is not correct beyond known defects
    spans_path = None
    if args.trace:
        untraced = run_passes(wl, ops, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, ops, count=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        leftover = tracing.leftover_wrappers()
        if leftover:
            problems.append(f"wrappers left installed: {leftover}")
        for pu, pt in zip(untraced, traced):
            for a, b in zip(pu, pt):
                if repr(a.signature()) != repr(b.signature()):
                    problems.append(f"{a.name}: traced run differs from untraced: "
                                    f"{a.signature()} vs {b.signature()}")
        ops_u = [op for p in untraced for op in p]
        ops_t = [op for p in traced for op in p]
        metrics, solve_s = per_layer(tracer.spans, ops_t, ops_u)
        if solve_s:
            layers = sum(metrics[k] for k in SOLVE_LAYERS)
            print(f"accounting: traced solve_s {solve_s:.4f} s = "
                  + " + ".join(f"{k} {metrics[k]:.4f}" for k in SOLVE_LAYERS)
                  + f" (residual {solve_s - layers:.2e} s)")
            if abs(solve_s - layers) > 1e-6 * solve_s:
                problems.append("layer self times do not add up to solve time")
        spans_path = wl.OUT / f"trace-{name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        all_ops = ops_u + ops_t
    else:
        passes = run_passes(wl, ops, seconds=args.seconds)
        metrics = end_to_end(passes, setup_s)
        all_ops = [op for p in passes for op in p]
        print(f"passes: {len(passes)}")
        if name != "eval56":
            # loop7's solve time is what plan reports in summary.json.
            solve_s = statistics.median(
                sum(op.solver_s if name == "loop7" else op.wall_s for op in p)
                for p in passes)
            print(f"solve_s: {solve_s:.4f} s; lap_time_s: "
                  f"{sum(op.lap_time_s for op in passes[0]):.6f} s")
    if name == "eval56":
        fd = wl.eval56_fd_failures(inputs, args.seed)
        all_ops[0].failures += fd

    env["host_probe_ms_after"] = host_probe_ms()
    print(f"host probe: {env['host_probe_ms_before']:.3f} ms before, "
          f"{env['host_probe_ms_after']:.3f} ms after")
    for op in all_ops:
        status = "ok" if not op.failed else (
            "FAILED (known defect)" if op.known else "FAILED")
        print(f"op {op.name}: {status}; wall {op.wall_s:.4f} s"
              + (f", solver {op.solver_s:.4f} s, {op.iterations} iterations, "
                 f"{op.evals} evals, lap {op.lap_time_s:.6f} s"
                 if op.iterations else "")
              + "".join(f"; {f}" for f in op.failures))
        if op.failed and not op.known:
            problems.append(f"{op.name}: {'; '.join(op.failures)}")
    failed = sum(op.failed for op in all_ops)
    print(f"failed_frac: {failed / len(all_ops):.4g} ({failed}/{len(all_ops)})")
    units = contract_metrics(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from those BENCHMARK.json lists")
    for k, v in metrics.items():
        print(f"{k}: {v:.6g} {units[k]}")
    for p in problems:
        print(f"INCORRECT: {p}")

    result = {
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"args": vars(args), "environment": env, "result": result,
              "problems": problems, "spans": spans_path and str(spans_path),
              "operations": [vars(op) for op in all_ops]}
    out = wl.OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def run_all(names, args):
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--random3-seeds", args.random3_seeds]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, wl.NAMES)
    if args.workload == "all":
        return run_all(wl.NAMES, args)
    return run_workload(wl, args)


if __name__ == "__main__":
    sys.exit(main())

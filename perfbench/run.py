#!/usr/bin/env python3
"""Seeded benchmark of the emgpr pipeline.

    python3 perfbench/run.py --workload loto_proposed_qda --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  The program is imported from `src/` as it
stands; nothing under `src/` is changed.  Each workload runs in one process
with BLAS pinned to one thread.  Inputs are generated from `--seed`; set-up
runs SETUPS times, spread over the run, and `setup_s` is the median.
Repetitions are timed until `--seconds` is spent, every output is checked
(see workloads.py), and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, their times scaled to
a reference machine speed by probes run between requests (see speed.py;
stderr and the run record give them unscaled too); with `--trace 1`
untraced and traced repetitions alternate and the metrics are per layer
(see tracing.py).  Environment, input record and spans go to perfbench/out/.
The exit code is 1 when any output is wrong, 2 when the program is missing.
"""

import os

# Pinned before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from speed import Meter
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5
COST_BLOCK_WINDOWS = 200
COST_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decisions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "macro_f1": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import emgpr
    except ImportError as exc:
        die(f"cannot import emgpr from {SRC}: {exc}", 2)
    if Path(emgpr.__file__).resolve().parent.parent != SRC.resolve():
        die(f"emgpr was imported from {emgpr.__file__}, not {SRC}", 2)
    return emgpr


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "seed": seed,
    }


def load_reference(workload, seed):
    path = HERE / "references" / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def measure(wl, seed, seconds):
    """Set up, then time repetitions until `seconds` is spent.

    The SETUPS timed set-ups are spread over the run between repetitions
    rather than done back to back; only the first one's state is used.  Each
    set-up and each request is bracketed by speed probes (speed.py).
    """
    meter = Meter()
    setup_spans = []

    def timed_setup():
        meter.probe()
        with meter.ticking():
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setup_spans.append((t0, time.perf_counter()))
        meter.probe()
        return state

    start = time.perf_counter()
    state = timed_setup()
    first = setup_spans[0][1] - setup_spans[0][0]
    reps, every = [], None
    while True:
        t0 = time.perf_counter()
        rep = wl.rep(state, meter)
        rep.wall = time.perf_counter() - t0
        reps.append(rep)
        if every is None:
            every = max(1, int(seconds / (first + rep.wall)) // SETUPS)
        if len(setup_spans) < SETUPS and len(reps) % every == 0:
            timed_setup()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    while len(setup_spans) < SETUPS:
        timed_setup()
    return state, reps, setup_spans, meter


def check_reps(wl, state, reps, ref):
    attempted = failed = 0
    ok = []
    for rep in reps:
        a, f, notes = wl.check(state, rep, ref)
        attempted += a
        failed += f
        for note in notes:
            print(f"perfbench: {wl.name}: {note}", file=sys.stderr)
        if f == 0:
            ok.append(rep)
    return attempted, failed, ok


def end_to_end(wl, state, ok, setup_spans, meter, attempted, failed):
    """End-to-end metrics, with every time scaled to the reference speed.

    Also returns the same timings unscaled, for the run record.
    """
    setups = [meter.scaled(*span) for span in setup_spans]
    metrics = {"setup_s": statistics.median(setups),
               "ok_ratio": 1.0 - failed / attempted,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raw = {"setup_s": statistics.median(e - s for s, e in setup_spans),
           "probe_s_p10_p50_p90": [percentile(meter.probes, q) for q in (10, 50, 90)]}
    if ok:
        # Latency percentiles are taken per repetition and their median
        # reported, so one repetition hit by a burst of host load does not
        # move them.  The tail (p90, p99) is recorded but not reported: every
        # online request does the same work, so its tail is set by the host's
        # load and state, and spread between runs by 0.12 to 0.28 of its
        # median even when scaled.
        latencies = [[meter.scaled(*q) for q in r.requests] for r in ok]
        raw_latencies = [[e - s for s, e in r.requests] for r in ok]

        def latency_ms(values, q):
            return 1e3 * statistics.median(percentile(v, q) for v in values)

        walls = [sum(lat) for lat in latencies]
        metrics.update({
            "wall_s": statistics.median(walls),
            "decisions_per_s": sum(r.decisions for r in ok) / sum(walls),
            "latency_p50_ms": latency_ms(latencies, 50),
            "macro_f1": statistics.median(wl.macro_f1(state, r) for r in ok),
        })
        raw.update({"wall_s": statistics.median(sum(v) for v in raw_latencies),
                    **{f"latency_p{q}_ms": latency_ms(raw_latencies, q) for q in (50, 90, 99)},
                    **{f"scaled_latency_p{q}_ms": latency_ms(latencies, q) for q in (90, 99)}})
    return {k: metrics[k] for k in END_TO_END if k in metrics}, raw


def feature_costs(emgpr, windows):
    """Microseconds per window (all channels) of each catalog feature alone.

    A single-feature AR_k set fits an order-k model, so AR_k here costs
    what it costs alone, not what it costs inside a set with a larger lag.
    """
    out = {}
    for fid in emgpr.CATALOG:
        spec = emgpr.feature_set("CUSTOM", [fid])
        times = []
        for _ in range(COST_REPEATS):
            t0 = time.perf_counter()
            emgpr.extract_matrix(spec, windows)
            times.append(time.perf_counter() - t0)
        out[f"features.{fid}.us_per_window"] = 1e6 * statistics.median(times) / len(windows)
    return out


def cost_block(emgpr, wl, state):
    windows = []
    for rec in wl.recordings(state):
        windows.extend(emgpr.segment(emgpr.apply_filters(rec), 250.0))
        if len(windows) >= COST_BLOCK_WINDOWS:
            return windows[:COST_BLOCK_WINDOWS]
    return windows


def layer_metrics(tracer, run, wall):
    st, sc, c = tracer.self_times(run), tracer.span_counts(run), tracer.counts[run]
    computed, distinct = tracer.cells(run)
    fits = sc["reduce.fit_ulda"]
    m = {
        "preprocess.design_filters.s": st["preprocess.design_filters"],
        "preprocess.design_filters.calls": sc["preprocess.design_filters"],
        "preprocess.design_filters.unique_ratio":
            tracer.unique_ratio(run, "preprocess.design_filters"),
        "preprocess.apply_filters.s": st["preprocess.apply_filters"],
        "preprocess.apply_filters.calls": sc["preprocess.apply_filters"],
        "preprocess.apply_filters.unique_ratio":
            tracer.unique_ratio(run, "preprocess.apply_filters"),
        "preprocess.segment.s": st["preprocess.segment"],
        "preprocess.segment.windows": c["preprocess.segment.windows"],
        "preprocess.normalize_features.s": st["preprocess.normalize_features"],
        "features.extract.s": st["features.extract_matrix"] + st["features.extract"],
        "features.cells": computed,
        "features.cells_unique_ratio": distinct / computed if computed else 0.0,
        "classify.train.s": st["classify.train"],
        "classify.train.calls": sc["classify.train"],
        "classify.predict.s": st["classify.predict"],
        "classify.predict.rows": c["classify.predict.rows"],
        "reduce.fit_ulda.s": st["reduce.fit_ulda"],
        "reduce.fit_ulda.calls": sc["reduce.fit_ulda"],
        "reduce.project.s": st["reduce.project"],
        "reduce.d_out": c["reduce.d_out_sum"] / fits if fits else 0.0,
        "dataset.mix_awgn.s": st["dataset.mix_awgn"],
        "dataset.mix_awgn.calls": sc["dataset.mix_awgn"],
        "evaluate.crossvalidate.calls": sc["evaluate.crossvalidate"],
        "evaluate.self_s": st["evaluate.crossvalidate"],
        "evaluate.folds": c["evaluate.folds"],
        "selection.self_s": st["selection.forward_select"],
        "selection.steps": c["selection.steps"],
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = sum(v for k, v in st.items()
                                  if k.split(".")[0] == layer) / wall
    m["trace.hook_s"] = tracer.hook_seconds(run)
    m["trace.unaccounted_s"] = wall - sum(st.values()) - m["trace.hook_s"]
    return m


def traced_run(emgpr, wl, seed, seconds):
    """Per-layer metrics: alternate untraced and traced repetitions."""
    import workloads

    tracer, unprobed = Tracer(), Meter(enabled=False)
    tracer.run = "setup"
    tracer.install(emgpr, workloads)
    try:
        state = wl.setup(seed)
    finally:
        tracer.uninstall()
    costs = feature_costs(emgpr, cost_block(emgpr, wl, state))

    plain, traced, start = [], [], time.perf_counter()
    while True:
        for reps, trace_on in ((plain, False), (traced, True)):
            tracer.run = f"rep{len(traced)}"
            if trace_on:
                tracer.install(emgpr, workloads)
            try:
                t0 = time.perf_counter()
                rep = wl.rep(state, unprobed)
                rep.wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break

    runs = [f"rep{i}" for i in range(len(traced))]
    spans = {}
    for run in ["setup"] + runs:
        for name, n in tracer.span_counts(run).items():
            spans[name] = spans.get(name, 0) + n
    missing = [layer for layer in wl.required_layers
               if not any(name.split(".")[0] == layer for name in spans)]
    if missing:
        die(f"{wl.name}: no spans recorded for layer(s) {missing}; "
            "a wrapper was routed around")

    per_run = [layer_metrics(tracer, run, rep.wall) for run, rep in zip(runs, traced)]
    metrics = {k: statistics.mean(m[k] for m in per_run) for k in per_run[0]}
    metrics["dataset.generate_synthetic.s"] = tracer.self_times("setup")[
        "dataset.generate_synthetic"]
    # Properties of every SVM trained in the run, set-up included (the online
    # loop trains its SVM there).
    svm = {k: sum(tracer.counts[r][f"classify.svm.{k}"] for r in ["setup"] + runs)
           for k in ("models", "converged", "support_vectors")}
    metrics["classify.svm.support_vectors"] = (
        svm["support_vectors"] / svm["models"] if svm["models"] else 0.0)
    metrics["classify.svm.converged_ratio"] = (
        svm["converged"] / svm["models"] if svm["models"] else 0.0)
    metrics.update(costs)
    metrics["trace.wall_s"] = statistics.median(r.wall for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        r.wall for r in plain)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-seed{seed}.json")
    return state, plain + traced, metrics


def run_workload(emgpr, wl, args):
    ref = load_reference(wl.name, args.seed)
    if ref is None:
        print(f"perfbench: {wl.name}: no recorded reference for seed {args.seed}; "
              "checking invariants only", file=sys.stderr)

    raw = {}
    if args.trace:
        state, reps, metrics = traced_run(emgpr, wl, args.seed, args.seconds)
        attempted, failed, _ = check_reps(wl, state, reps, ref)
    else:
        state, reps, setup_spans, meter = measure(wl, args.seed, args.seconds)
        attempted, failed, ok = check_reps(wl, state, reps, ref)
        metrics, raw = end_to_end(wl, state, ok, setup_spans, meter, attempted, failed)
        print(f"perfbench: {wl.name}: unscaled {json.dumps(raw)}", file=sys.stderr)

    record = {"workload": wl.name, "environment": environment(args.seed),
              "inputs": wl.describe(state), "repetitions": len(reps),
              "rep_walls_s": [r.wall for r in reps],
              "requests": sum(len(r.requests) for r in reps),
              "trace": bool(args.trace), "metrics": metrics, "unscaled": raw}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str))
    print(json.dumps({k: record[k] for k in ("environment", "inputs")},
                     sort_keys=True, default=str), file=sys.stderr)

    for name, value in metrics.items():
        print(f"{wl.name:>18} {name:<42} {value:>14.6g} {unit(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".us_per_window"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", ".share")):
        return "ratio"
    return "count"


def run_all(args, names):
    """Each workload in its own process; a table, then one JSON line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    emgpr = import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {list(WORKLOADS)} or all")
    return run_workload(emgpr, WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())

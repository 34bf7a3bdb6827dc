"""One benchmark run in a fresh single-threaded process.

Started by run.py. Builds the workload's inputs, prints ``READY`` so
the parent can time set-up, runs closed-loop operations for the given
seconds, checks the outputs, and prints ``RESULT <json>``. With
``--trace 1`` the seconds are split between an untraced phase and a
traced phase, so the tracing overhead is measured in the same process.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYER_FUNCTIONS, LAYERS, Tracer
from workloads import ORACLE_METRICS, WORKLOADS


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _digest(outdir: Path) -> dict[str, str]:
    return {str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def _one_op(wl, outdir: Path, tracer: Tracer | None) -> dict:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    if tracer:
        before, top_before = tracer.snapshot(), tracer.top_level_s
    error = None
    cpu0 = _cpu_s()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = wl.run(outdir)
    except Exception:
        rc = None
        error = traceback.format_exc()
    wall = perf_counter() - t0
    op = {"wall": wall, "cpu": _cpu_s() - cpu0, "rc": rc, "error": error, "traced": tracer is not None}
    if tracer:
        after = tracer.snapshot()
        op["spans"] = {k: tuple(a - b for a, b in zip(after[k], before[k])) for k in LAYER_FUNCTIONS}
        op["unattributed"] = wall - (tracer.top_level_s - top_before)
    op["digest"] = _digest(outdir)
    return op


def _layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-operation means of the traced ops' span statistics."""
    traced = [op for op in ops if op["traced"]]
    n = len(traced)
    out = {}
    module_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, item, _) in LAYER_FUNCTIONS.items():
        calls = sum(op["spans"][name][0] for op in traced) / n
        self_s = sum(op["spans"][name][1] for op in traced) / n
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        if item:
            out[f"{name}.{item}"] = sum(op["spans"][name][2] for op in traced) / n
        module_self[name.split(".")[0]] += self_s
    for layer, s in module_self.items():
        out[f"{layer}.self_s"] = s
    built = out["queue_sim.packet_fifo.calls"] + out["queue_sim.fluid_queue.calls"]
    out["queue_sim.path_use_ratio"] = out["queue_sim.QueuePath.write_csv.calls"] / built if built else 0.0
    simulated = out["queue_sim.fluid_queue.cycles"]
    out["queue_sim.prefix_useful_ratio"] = (
        out["queue_sim.prefix_mean_queue.cycles"] / simulated if simulated else 0.0)
    plain = [op["wall"] for op in ops if not op["traced"]]
    out["harness.tracing_overhead_s"] = statistics.median(op["wall"] for op in traced) - statistics.median(plain)
    out["harness.unattributed_s"] = statistics.median(op["unattributed"] for op in traced)
    out["harness.traced_ops"] = n
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    protocol = sys.stdout

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.size, args.seed, args.workdir)
    wl.setup()
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        return 0

    # (traced, seconds, minimum ops); an untraced run needs two ops so
    # that the rerun byte check always has a pair to compare
    phases = [(False, args.seconds / 2, 1), (True, args.seconds / 2, 1)] if args.trace else \
        [(False, args.seconds, 2)]
    outdir = args.workdir / "out"
    ops = []
    items = 0
    for traced, seconds, min_ops in phases:
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(wl.extra_modules)
        start = perf_counter()
        n = 0
        while n < min_ops or perf_counter() - start < seconds:
            ops.append(_one_op(wl, outdir, tracer))
            n += 1
            if len(ops) == 1 and ops[0]["rc"] == 0:
                items = wl.items(outdir)  # outside the timed op
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    reference = ops[0]["digest"]
    for i, op in enumerate(ops):
        op["failed"] = op["rc"] != 0 or op["digest"] != reference
        if op["error"]:
            failures.append(f"op {i}: {op['error']}")
        elif op["rc"] != 0:
            failures.append(f"op {i}: exit code {op['rc']}")
        elif op["digest"] != reference:
            failures.append(f"op {i}: output bytes differ from op 0 with the same seed")
        if op["traced"]:
            for name, want in wl.expected_calls().items():
                got = op["spans"][name][0]
                if got != want:
                    op["failed"] = True
                    failures.append(f"op {i}: {name} ran {got} times, expected {want}; "
                                    "a binding site was missed or the call graph changed")
    oracle_metrics, oracle_failures = {}, ["no successful operation to check"]
    if ops[-1]["rc"] == 0:
        # the last op's outputs are still on disk and match op 0's bytes
        try:
            oracle_metrics, oracle_failures = wl.check(outdir)
        except Exception:
            oracle_failures = [traceback.format_exc()]
    if oracle_failures:
        failures += [f"oracle: {f}" for f in oracle_failures]
        for op in ops:
            if op["digest"] == ops[-1]["digest"]:
                op["failed"] = True
    failed = sum(op["failed"] for op in ops)

    plain = [op for op in ops if not op["traced"]]
    wall = statistics.median(op["wall"] for op in plain)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(op["cpu"] for op in plain),
        "items_per_s": items / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        metrics.update(_layer_metrics(ops))
    metrics.update(dict.fromkeys(ORACLE_METRICS, 0.0))  # oracles of other workloads
    metrics.update(oracle_metrics)
    metrics["harness.oracle_failures"] = len(oracle_failures)
    metrics["harness.rerun_mismatches"] = sum(op["digest"] != reference for op in ops)
    metrics["harness.error_rate"] = failed / len(ops)
    result = {
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "walls": [op["wall"] for op in ops],
        "numpy": np.__version__,
    }
    print("RESULT " + json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

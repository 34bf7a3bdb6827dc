#!/usr/bin/env python3
"""Run the benchmark at a git revision and in the checkout, in
alternating pairs, and write every run and its summary to one JSON file.

    python3 scripts/bench_pairs.py REV --out BENCH_<n>.json [--pairs N] [--first-seed S]
    python3 scripts/bench_pairs.py --report BENCH_<n>.json

REV (any git revision) is exported with `git archive` into a temporary
directory; the checkout is used as it stands, uncommitted edits
included. For each workload in the checkout's BENCHMARK.json, pair k runs
`perfbench/run.py --workload W --seed S+k --seconds R --trace 0` once
on each side, each in its own tree, with R the file's run_seconds; REV
runs first in even pairs and the checkout in odd ones.
The file holds every pair and, per workload and side, the median and
quartiles of each end-to-end metric, the pairs each side won on it
(ties count for neither), the runs that were correct, the operations
attempted and failed, and the `env` block run.py printed. After its
pairs, each workload runs once more per side with `--trace 1` and seed
S+N, for N pairs; the file keeps that run's correct, attempted and
failed counts and its `*.calls` metrics, which run.py checks against
the workload's `expected_calls`. Its self times are left out: the
tracer's span stack is shared between threads, so the self times of
spans run on a pool mix. The host's speed moves by up to 2x between
sessions, so only pairs from one session compare. The host also has
windows in which two threads run no faster than one, so before each
pair a short calibration (calibrate) times two threads against one on
a numpy loop that releases the GIL, and the file keeps the ratio with
the pair. --report prints the summary table of a written file,
recomputed from its pairs alone, whether the two sides' traced runs
made the same calls, and the pairs run in such a window.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from compare_outputs import export

REPO = Path(__file__).resolve().parent.parent
SIDES = ("rev", "checkout")
NOTE = ("Pairs ran back to back in one session, alternating which side ran first. The host's speed "
        "moves by up to 2x between sessions, so compare only pairs within this file.")


# np.sin over 2**16 floats releases the GIL for about 0.7 ms a call (2-core
# VM, numpy 2.4.6), so one loop of these calls takes about 14 ms
_CALIBRATION_CALLS = 20
# a calibration ratio above this flags its pair: on two free cores two
# threads took 0.49-0.56 of the time of one thread doing both loops, and
# in the slow windows 0.8-1.1
SLOW_WINDOW = 0.75


def calibrate() -> float:
    """Wall time of two threads each running the calibration loop side by
    side, over that of one thread running both loops in a row, the best
    of three tries each: about 0.5 when the host runs two threads at
    once, about 1 in a window where it runs them no faster than one."""
    x = np.linspace(0.0, 1.0, 2**16)
    outs = [np.empty_like(x) for _ in range(2)]

    def loop(out):
        for _ in range(_CALIBRATION_CALLS):
            np.sin(x, out=out)

    def one_thread():
        start = time.perf_counter()
        loop(outs[0])
        loop(outs[0])
        return time.perf_counter() - start

    def two_threads():
        threads = [threading.Thread(target=loop, args=(out,)) for out in outs]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    return min(two_threads() for _ in range(3)) / min(one_thread() for _ in range(3))


def parse_run(stdout: str) -> dict:
    """One run.py run: its end-to-end metric values, its counts and its env block."""
    *_, record_line, result_line = stdout.splitlines()
    record = json.loads(record_line)["perfbench"]
    result = json.loads(result_line)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "env": {**record["env"], "numpy": record["numpy"]},
    }


def traced_run(run: dict) -> dict:
    """A --trace 1 run, as parsed by parse_run, kept as its counts and its *.calls metrics."""
    return {**{key: run[key] for key in ("correct", "attempted", "failed")},
            "calls": {name: v for name, v in run["metrics"].items() if name.endswith(".calls")}}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per side: median and quartiles of each metric, with the pairs the
    side won on it; and the correct runs, attempted and failed operations.
    better maps each metric to "lower" or "higher"."""
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        wins = {side: 0 for side in SIDES}
        for a, b in zip(values["rev"], values["checkout"]):
            if a != b:
                wins["rev" if sign * (a - b) < 0 else "checkout"] += 1
        metrics[name] = {"better": direction,
                         **{side: {**_spread(values[side]), "won": wins[side]} for side in SIDES}}
    counts = {side: {key: sum(int(p[side][key]) for p in pairs) for key in ("correct", "attempted", "failed")}
              for side in SIDES}
    return {"pairs": len(pairs), "metrics": metrics, "counts": counts}


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    return parse_run(proc.stdout)


def report(bench: dict) -> str:
    """A markdown table of the file's medians [quartiles] and wins, recomputed from its pairs."""
    lines = [f"REV {bench['rev']['sha'][:12]} against the checkout at {bench['checkout']['sha'][:12]}"
             f"{' with edits' if bench['checkout']['dirty'] else ''}",
             "", "| workload | metric | REV median [q1, q3] | checkout median [q1, q3] | ratio | checkout won |",
             "|---|---|---|---|---|---|"]
    for workload, entry in bench["workloads"].items():
        summary = summarize(entry["pairs"], {k: v["better"] for k, v in entry["summary"]["metrics"].items()})
        for name, m in summary["metrics"].items():
            a, b = m["rev"], m["checkout"]
            lines.append(f"| {workload} | {name} | {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}] | "
                         f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] | {b['median'] / a['median']:.3f} | "
                         f"{b['won']}/{summary['pairs']} |")
        counts = summary["counts"]
        lines.append(f"| {workload} | correct runs, ops attempted/failed | "
                     + " | ".join(f"{counts[s]['correct']}, {counts[s]['attempted']}/{counts[s]['failed']}"
                                  for s in SIDES) + " | | |")
        ratios = {p["seed"]: p["calibration"] for p in entry["pairs"] if "calibration" in p}
        if ratios:
            slow = ", ".join(str(seed) for seed, ratio in ratios.items() if ratio > SLOW_WINDOW)
            lines.append(f"| {workload} | two threads' time over one's before each pair | "
                         f"min {min(ratios.values()):.2f} | max {max(ratios.values()):.2f} | | "
                         + (f"above {SLOW_WINDOW} at seeds {slow} |" if slow else f"none above {SLOW_WINDOW} |"))
        traced = entry.get("traced")
        if traced:
            a, b = traced["rev"]["calls"], traced["checkout"]["calls"]
            differ = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
            lines.append(f"| {workload} | traced run (seed {traced['seed']}): correct, ops attempted/failed | "
                         + " | ".join(f"{traced[s]['correct']}, {traced[s]['attempted']}/{traced[s]['failed']}"
                                      for s in SIDES)
                         + f" | | calls {'differ: ' + ', '.join(differ) if differ else 'equal'} |")
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare the checkout against")
    ap.add_argument("--out", help="file to write, relative to the repository root")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair; pair k runs seed + k")
    ap.add_argument("--report", metavar="FILE", help="print the summary of a written file and exit")
    args = ap.parse_args(argv)
    if args.report:
        print(report(json.loads(Path(args.report).read_text())))
        return 0
    if not args.rev or not args.out:
        ap.error("give REV and --out, or --report FILE")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tree = Path(tmp)
        bench = {
            "note": NOTE,
            "rev": {"name": args.rev, "sha": export(args.rev, tree)},
            "checkout": {"sha": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))},
            "settings": {"seconds": seconds, "pairs": args.pairs, "first_seed": args.first_seed,
                         "command": "perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0",
                         "traced_command": "perfbench/run.py --workload W --seed S+PAIRS --seconds SECONDS --trace 1",
                         "calibration": f"before each pair, two threads' wall time over one's on {_CALIBRATION_CALLS} "
                                        f"np.sin calls over 2**16 floats per thread, best of 3; above {SLOW_WINDOW} "
                                        "the pair ran in a window where two threads ran no faster than one"},
            "workloads": {},
        }
        trees = {"rev": tree, "checkout": REPO}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0], "calibration": calibrate()}
                for side in order:
                    pair[side] = _run(trees[side], workload, seed, seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: calibration {pair['calibration']:.2f}, " + ", ".join(
                    f"{side} cpu_s {pair[side]['metrics']['cpu_s']:.3f}" for side in SIDES), file=sys.stderr)
            seed = args.first_seed + args.pairs
            traced = {"seed": seed, **{side: traced_run(_run(trees[side], workload, seed, seconds, trace=1))
                                       for side in SIDES}}
            bench["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better), "traced": traced}
    (REPO / args.out).write_text(json.dumps(bench, indent=1) + "\n")
    print(report(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())

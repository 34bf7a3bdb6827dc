#!/usr/bin/env python3
"""trafficlab benchmark, one workload run per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; trafficlab is imported from
``src/``. Each run starts fresh single-threaded child processes, one at
a time: SETUP_REPEATS of them build the workload's inputs from the seed
(set-up is timed from process start to the child's READY line and
reported as the median), and the last one goes on to run closed-loop
operations for S seconds and check every output. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics listed in BENCHMARK.json: the end-to-end set with ``--trace 0``,
the per-layer set with ``--trace 1``. The line before it records the
machine, the per-operation times and any failure. Exit code 0 means
every operation passed its checks.

``--size small`` shrinks every workload for the harness self-check in
perfbench/tests; its numbers are not benchmark numbers.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_blocks_onoff", "trace_pipeline_1m", "divergence_fluid")
REQUIRED = ("BENCHMARK.json", "src/trafficlab/__init__.py", "scripts/divergence_experiment.py")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
    }


def _run_child(argv: list[str], env: dict, timeout: float) -> tuple[float, dict | None]:
    """Set-up seconds (start to READY) and the RESULT payload, if any."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line == "READY\n" and setup_s is None:
                setup_s = perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if rc != 0 or setup_s is None:
        raise ChildFailed(f"child {' '.join(argv)} exited with {rc}")
    return setup_s, result


def main(argv=None) -> int:
    start = perf_counter()
    ap = argparse.ArgumentParser(description="trafficlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be nonnegative and --seconds positive")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a trafficlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": _environment()}

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            child = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--size", args.size, "--workdir", str(tmp / f"run{i}")]
            if i < SETUP_REPEATS - 1:
                child.append("--setup-only")
            setup_s, result = _run_child(child, env, DEADLINE_S - (perf_counter() - start))
            setups.append(setup_s)
            shutil.rmtree(tmp / f"run{i}", ignore_errors=True)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run's directory is still there

    if result is None:
        print("error: the measuring child printed no result", file=sys.stderr)
        return 1
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    not_computed = [m["name"] for m in wanted if m["name"] not in values]
    if not_computed:
        print(f"error: metrics not computed: {', '.join(not_computed)}", file=sys.stderr)
        return 1
    record.update(numpy=result["numpy"], setup_s=setups, op_walls=result["walls"],
                  failures=result["failures"])
    print(json.dumps({"perfbench": record}))
    for failure in result["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: set-up, one operation, and oracles.

Each workload builds its inputs from the seed in ``setup`` (outside the
timed region), runs one closed-loop operation per ``run`` call, and
checks the outputs of an operation in ``check`` against oracles that
do not share code with the path under test. ``expected_calls`` lists
how often each traced function must run per operation; a zero marks a
layer the workload bypasses.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from trafficlab import cli
from trafficlab.rng import substream
from trafficlab.synth import GeneratorSpec, HeavyTailSpec, SyntheticSource

REPO = Path(__file__).resolve().parent.parent

# on/off recipe of scripts/shuffle_experiment.py's defaults
ALPHA, XMIN, M, LAMBDA, PACKET_SIZE, RATE = 1.2, 1.0 / 60.0, 2.0, 0.5, 1000, 1e6
ONOFF_FLAGS = ["--model", "onoff", "--alpha", repr(ALPHA), "--xmin", repr(XMIN), "--m", repr(M),
               "--lambda", repr(LAMBDA), "--packet-size", str(PACKET_SIZE), "--rate", repr(RATE)]


def _onoff_source(cycles: int) -> SyntheticSource:
    tail = HeavyTailSpec(ALPHA, XMIN)
    spec = GeneratorSpec(m=M, tail=tail, n_cycles=cycles, lambda_target=LAMBDA)
    return SyntheticSource(spec=spec, packet_size=PACKET_SIZE, server_rate=RATE)


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _data_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


class Workload:
    name = ""
    sizes: dict = {}
    extra_modules: tuple = ()

    def __init__(self, size: str, seed: int, workdir: Path):
        self.p = self.sizes[size]
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def run(self, outdir: Path) -> int:
        raise NotImplementedError

    def items(self, outdir: Path) -> int:
        raise NotImplementedError

    def expected_calls(self) -> dict[str, int]:
        raise NotImplementedError

    def check(self, outdir: Path) -> tuple[dict[str, float], list[str]]:
        """Oracle metrics and the list of failed checks."""
        raise NotImplementedError


class SweepBlocksOnoff(Workload):
    """``sweep-blocks`` on a generated on/off trace, the shuffle ablation."""

    name = "sweep_blocks_onoff"
    sizes = {
        "full": dict(cycles=8000, reps=2, blocks=(1, 10, 100, 1000, 10_000), packets=1_600_000),
        "small": dict(cycles=400, reps=1, blocks=(1, 10, 100), packets=80_000),
    }
    # the trace drawn for the sweep is kept within this share of `packets`,
    # so that the work per operation does not swing with the heavy tail
    PACKET_TOLERANCE = 0.01
    # Lindley recursion versus packet_fifo's prefix-sum departures; the
    # error grows with horizon/sojourn and was at most 2e-10 over 20 seeds
    LINDLEY_BOUND = 1e-8

    def _packet_count(self, cli_seed: int) -> int:
        # same draws as synth.generate_onoff and the packet count of synth._emit
        u = 1.0 - np.random.default_rng(np.random.SeedSequence((cli_seed,))).random(self.p["cycles"])
        on = XMIN * u ** (-1.0 / ALPHA)
        return int(np.floor(on * (M * RATE) / PACKET_SIZE).astype(np.int64).sum())

    def setup(self) -> None:
        target = self.p["packets"]
        for k in range(1_000_000):
            self.cli_seed = self.seed * 1_000_000 + k
            self.packets = self._packet_count(self.cli_seed)
            if abs(self.packets / target - 1.0) <= self.PACKET_TOLERANCE:
                return
        raise RuntimeError(f"no trace within {self.PACKET_TOLERANCE:.0%} of {target} packets")

    def _argv(self, outdir: Path) -> list[str]:
        return ["sweep-blocks", *ONOFF_FLAGS, "--cycles", str(self.p["cycles"]),
                "--blocks", ",".join(map(str, self.p["blocks"])), "--reps", str(self.p["reps"]),
                "--seed", str(self.cli_seed), "--rho", "0.5", "--out-prefix", str(outdir / "blocks")]

    def run(self, outdir: Path) -> int:
        return cli.main(self._argv(outdir))

    def _shuffles(self) -> int:
        return len(self.p["blocks"]) * self.p["reps"]

    def items(self, outdir: Path) -> int:
        return self.packets * (1 + self._shuffles())

    def expected_calls(self) -> dict[str, int]:
        s = self._shuffles()
        return {"cli.main": 1, "cli.cmd_sweep_blocks": 1, "synth.SyntheticSource.trace": 1,
                "synth.generate_onoff": 1, "synth.packetize": 1, "synth.sample_heavy_tail": 1,
                "experiments.blocksize_sweep": 1, "experiments.block_shuffle": s,
                "queue_sim.packet_fifo": 1 + s, "rng.substream": 1 + s,
                "traces.load_trace": 0, "traces.save_trace": 0, "queue_sim.QueuePath.write_csv": 0,
                "queue_sim.fluid_queue": 0, "estimators.bin_counts": 0}

    @staticmethod
    def lindley_mean_queue(arrivals: list[float], service: list[float]) -> float:
        """Sequential waiting-time recursion W_i = max(0, W_{i-1} + S_{i-1} - (a_i - a_{i-1}))."""
        wait, prev_a, prev_s = 0.0, arrivals[0], 0.0
        sojourns = []
        for a, s in zip(arrivals, service):
            wait = max(0.0, wait + prev_s - (a - prev_a))
            sojourns.append(wait + s)
            prev_a, prev_s = a, s
        return math.fsum(sojourns) / (prev_a + wait + prev_s)

    def check(self, outdir: Path):
        failures = []
        text = (outdir / "blocks.csv").read_text()
        baseline = float(text.split("# baseline_mean_queue: ")[1].split("\n")[0])
        rows = _data_rows(outdir / "blocks.csv")
        if [float(r[0]) for r in rows] != [float(b) for b in self.p["blocks"]]:
            failures.append("blocks.csv rows do not match the block sizes")
        if any(len(r) != 3 + self.p["reps"] or not all(math.isfinite(float(c)) for c in r) for r in rows):
            failures.append("blocks.csv has a short or non-finite row")

        trace = _onoff_source(self.p["cycles"]).trace(substream(self.cli_seed))
        if trace.packet_count != self.packets:
            failures.append(f"trace has {trace.packet_count} packets, predicted {self.packets}")
        bandwidth = trace.total_bytes / (trace.duration * 0.5)
        reference = self.lindley_mean_queue(trace.timestamps.tolist(), (trace.sizes / bandwidth).tolist())
        err = _rel_err(baseline, reference)
        if not err <= self.LINDLEY_BOUND:
            failures.append(f"baseline mean queue {baseline!r} vs Lindley {reference!r}: rel err {err:.3g}")
        return {"queue_sim.packet_fifo.oracle_rel_err": err}, failures


class TracePipeline1M(Workload):
    """The CLI commands that read a recorded trace, on a Bellcore-sized stand-in."""

    name = "trace_pipeline_1m"
    sizes = {"full": dict(lines=1_000_000), "small": dict(lines=100_000)}
    MAX_SIZE = 1518

    def setup(self) -> None:
        n = self.p["lines"]
        ts = _onoff_source(8000).trace(substream(self.seed), n_packets=n).timestamps
        sizes = substream(self.seed, 1).integers(64, self.MAX_SIZE + 1, n)
        self.input = self.workdir / "standin.txt"
        with open(self.input, "w") as fh:
            fh.write(f"# seeded stand-in trace, {n} packets: seconds bytes\n")
            fh.write("".join([f"{t:.6f} {s}\n" for t, s in zip(ts.tolist(), sizes.tolist())]))
        self.size_hist = np.bincount(sizes, minlength=self.MAX_SIZE + 1)
        self.total_bytes = int(sizes.sum())
        self._items = None

    def _commands(self, outdir: Path) -> list[list[str]]:
        inp = str(self.input)
        return [
            ["summarize", inp, "-o", str(outdir / "summary.csv")],
            ["hurst", inp, "--unit", "bytes", "-o", str(outdir / "hurst.csv")],
            ["tailfit", inp, "--ccdf-out", str(outdir / "ccdf.csv"), "-o", str(outdir / "tailfit.csv")],
            ["queue", inp, "--rho", "0.46", "--path-out", str(outdir / "path.csv"),
             "-o", str(outdir / "queue.csv")],
            ["shuffle", inp, "--block-size", "100", "--seed", str(self.seed),
             "-o", str(outdir / "shuffled.csv")],
        ]

    def run(self, outdir: Path) -> int:
        for argv in self._commands(outdir):
            rc = cli.main(argv)
            if rc:
                return rc
        return 0

    def items(self, outdir: Path) -> int:
        """Trace lines read by the five commands plus CSV lines written."""
        if self._items is None:
            written = sum(p.read_bytes().count(b"\n") for p in outdir.glob("*.csv"))
            self._items = len(self._commands(outdir)) * self.p["lines"] + written
        return self._items

    def expected_calls(self) -> dict[str, int]:
        return {"cli.main": 5, "cli.cmd_summarize": 1, "cli.cmd_hurst": 1, "cli.cmd_tailfit": 1,
                "cli.cmd_queue": 1, "cli.cmd_shuffle": 1, "traces.load_trace": 5, "traces.save_trace": 1,
                "queue_sim.packet_fifo": 1, "queue_sim.QueuePath.write_csv": 1,
                "experiments.block_shuffle": 1, "estimators.bin_counts": 1,
                "estimators.hurst_aggregated_variance": 1, "estimators.empirical_ccdf": 2,
                "estimators.fit_tail_index": 1, "rng.substream": 1,
                "synth.SyntheticSource.trace": 0, "queue_sim.fluid_queue": 0,
                "experiments.blocksize_sweep": 0}

    def check(self, outdir: Path):
        failures = []
        n = self.p["lines"]
        (summary,) = _data_rows(outdir / "summary.csv")
        if float(summary[0]) != n or float(summary[2]) != self.total_bytes:
            failures.append(f"summary {summary[:3]} disagrees with {n} packets, {self.total_bytes} bytes")

        (queue,) = _data_rows(outdir / "queue.csv")
        area = float(queue[5])
        path = np.loadtxt(outdir / "path.csv", delimiter=",", comments="#")
        times, levels = path[:, 0], path[:, 1]
        integral = math.fsum(levels[:-1] * np.diff(times))
        # times are written to 1e-9 s, so each interval is off by at most 1e-9
        tolerance = 1e-9 * math.fsum(levels[:-1]) + 1e-12 * area
        if len(path) != 2 * n + 1 or tuple(path[0]) != (0.0, 0.0) or levels[-1] != 0.0:
            failures.append("queue path does not start at (0, 0), end empty and hold 2n+1 rows")
        if not abs(integral - area) <= tolerance:
            failures.append(f"queue path integrates to {integral!r}, queue.csv reports area {area!r}")

        shuffled = np.loadtxt(outdir / "shuffled.csv", delimiter=",", comments="#")
        sizes = shuffled[:, 1].astype(np.int64)
        hist = np.bincount(sizes, minlength=self.MAX_SIZE + 1)
        mismatches = int(np.abs(hist[: len(self.size_hist)] - self.size_hist).sum()
                         + hist[len(self.size_hist):].sum())
        if len(sizes) != n or mismatches:
            failures.append(f"shuffled trace: {len(sizes)} packets, {mismatches} sizes off the input multiset")
        return {"queue_sim.QueuePath.write_csv.area_rel_err": _rel_err(integral, area),
                "experiments.block_shuffle.size_mismatches": mismatches}, failures


class DivergenceFluid(Workload):
    """``scripts/divergence_experiment.py`` uncapped and with ``--x-max 1000``."""

    name = "divergence_fluid"
    sizes = {
        "full": dict(prefixes=(100, 1000, 10_000, 100_000, 1_000_000), reps=2),
        "small": dict(prefixes=(100, 1000, 10_000), reps=1),
    }
    TAILS = (("uncapped", None), ("capped", 1000.0))
    # the script's defaults, which the oracle formula needs
    ALPHA, X_MIN, M, LAM = 1.5, 1.0, 2.0, 0.5
    ORACLE_BOUND = 1e-9

    def setup(self) -> None:
        spec = importlib.util.spec_from_file_location(
            "divergence_experiment", REPO / "scripts" / "divergence_experiment.py")
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)
        self.extra_modules = (self.script,)

    def run(self, outdir: Path) -> int:
        for label, x_max in self.TAILS:
            argv = ["--alpha", repr(self.ALPHA), "--sizes", *map(str, self.p["prefixes"]),
                    "--reps", str(self.p["reps"]), "--seed", str(self.seed), "--out", str(outdir / label)]
            if x_max is not None:
                argv += ["--x-max", repr(x_max)]
            rc = self.script.main(argv)
            if rc:
                return rc
        return 0

    def items(self, outdir: Path) -> int:
        return max(self.p["prefixes"]) * self.p["reps"] * len(self.TAILS)

    def expected_calls(self) -> dict[str, int]:
        runs = self.p["reps"] * len(self.TAILS)
        return {"queue_sim.fluid_queue": len(self.p["prefixes"]) * runs,
                "queue_sim.prefix_mean_queue": runs, "synth.sample_heavy_tail": runs,
                "synth.reorder_nonoverlap": runs, "rng.substream": runs,
                "queue_sim.packet_fifo": 0, "traces.load_trace": 0, "cli.main": 0,
                "experiments.block_shuffle": 0, "queue_sim.QueuePath.write_csv": 0}

    def check(self, outdir: Path):
        """Each prefix mean against lam (m-1) sum X^2 / (2 sum X), which holds
        because every burst drains inside its own cycle."""
        failures = []
        worst = 0.0
        prefixes = self.p["prefixes"]
        for label, x_max in self.TAILS:
            rows = _data_rows(outdir / label / "divergence.csv")
            if [int(float(r[0])) for r in rows] != list(prefixes):
                failures.append(f"{label}: rows do not match the prefix sizes")
                continue
            for i in range(self.p["reps"]):
                u = 1.0 - np.random.default_rng(np.random.SeedSequence((self.seed, i))).random(max(prefixes))
                x = self.X_MIN * u ** (-1.0 / self.ALPHA)
                if x_max is not None:
                    x = np.minimum(x, x_max)
                for row in rows:
                    n = int(float(row[0]))
                    head = x[:n]
                    ref = self.LAM * (self.M - 1.0) * math.fsum(head * head) / (2.0 * math.fsum(head))
                    err = _rel_err(float(row[4 + i]), ref)
                    worst = max(worst, err)
                    if not err <= self.ORACLE_BOUND:
                        failures.append(f"{label} rep {i + 1} prefix {n}: rel err {err:.3g}")
        return {"queue_sim.fluid_queue.oracle_rel_err": worst}, failures


ORACLE_METRICS = ("queue_sim.packet_fifo.oracle_rel_err", "queue_sim.fluid_queue.oracle_rel_err",
                  "queue_sim.QueuePath.write_csv.area_rel_err", "experiments.block_shuffle.size_mismatches")

WORKLOADS = {w.name: w for w in (SweepBlocksOnoff, TracePipeline1M, DivergenceFluid)}

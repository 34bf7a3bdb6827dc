"""Replicated experiments: how the observed mean queue moves with sample
size, and what survives when arrival order is shuffled in blocks.

Every randomized step draws from a substream keyed by the replication
index (and sweep-point index where applicable), so results are
bit-for-bit reproducible and independent of execution order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .queue_sim import packet_fifo
from .rng import as_generator, substream
from .synth import SyntheticSource
from .traces import PacketTrace, bandwidth_for_utilization, window, write_rows

__all__ = [
    "ReplicationPlan",
    "SweepPoint",
    "SweepResult",
    "aggregate_replications",
    "sample_size_sweep",
    "block_shuffle",
    "blocksize_sweep",
]


@dataclass(frozen=True)
class ReplicationPlan:
    """How many independent repetitions to run and the master seed they
    all derive from. Replication i of sweep point j draws from
    substream (master_seed, i, j)."""

    master_seed: int
    replications: int = 10

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


@dataclass(frozen=True)
class SweepPoint:
    x: float
    mean: float
    std: float
    rep_means: tuple[float, ...]


@dataclass(eq=False)
class SweepResult:
    x_label: str
    points: list[SweepPoint] = field(default_factory=list)
    baseline: float | None = None  # unshuffled reference, block sweeps only

    def write_csv(self, fh, comments: tuple[str, ...] = ()) -> None:
        k = len(self.points[0].rep_means) if self.points else 0
        reps = ",".join(f"rep_{i + 1}" for i in range(k))
        comments = (*comments, f"{self.x_label},mean,std,{reps}")
        if self.baseline is not None:
            comments += (f"baseline_mean_queue: {float(self.baseline)!r}",)
        table = np.array([(p.x, p.mean, p.std, *p.rep_means) for p in self.points], dtype=np.float64)
        write_rows(fh, ",".join(["%r"] * (3 + k)), table.reshape(-1, 3 + k).T, comments)


def aggregate_replications(values) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator; 0 when n=1)."""
    v = np.asarray(list(values), dtype=np.float64)
    if len(v) == 0:
        raise ValueError("no replication values")
    std = float(v.std(ddof=1)) if len(v) > 1 else 0.0
    return float(v.mean()), std


def _resolve_bandwidth(trace: PacketTrace, bandwidth: float | None, rho: float | None) -> float:
    if (bandwidth is None) == (rho is None):
        raise ValueError("give exactly one of bandwidth or rho")
    if bandwidth is not None:
        return bandwidth
    return bandwidth_for_utilization(trace, rho)


def sample_size_sweep(
    source,
    sizes,
    plan: ReplicationPlan,
    bandwidth: float | None = None,
    rho: float | None = None,
) -> SweepResult:
    """Mean queue versus sample size, replicated.

    For a PacketTrace source each replication simulates a contiguous
    window of the requested size at a seeded uniform start offset; the
    service rate is fixed once for the sweep (explicitly or via rho on
    the full trace). For a SyntheticSource each replication generates
    a fresh trace of exactly that many packets and is served at the
    source's own rate unless bandwidth overrides it.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be positive packet counts")
    if isinstance(source, PacketTrace):
        b = _resolve_bandwidth(source, bandwidth, rho)
        n = source.packet_count
        if sizes[-1] > n:
            raise ValueError(f"sample size {sizes[-1]} exceeds trace length {n}")

        def make_trace(size, rng):
            return window(source, int(rng.integers(0, n - size + 1)), size)

    elif isinstance(source, SyntheticSource):
        if rho is not None:
            raise ValueError("rho needs a fixed trace; synthetic sweeps take bandwidth directly")
        b = bandwidth if bandwidth is not None else source.server_rate

        def make_trace(size, rng):
            return source.trace(rng, n_packets=size)

    else:
        raise TypeError("source must be a PacketTrace or SyntheticSource")
    return _replicate(SweepResult(x_label="sample_size"), sizes, plan, b, make_trace)


def _replicate(result: SweepResult, xs, plan: ReplicationPlan, bandwidth: float, make_trace) -> SweepResult:
    """Append one point per x to result: the mean queue of make_trace(x, rng)
    at bandwidth, replicated with rng = substream(master_seed, i, j) for
    replication i of the j-th x."""
    for j, x in enumerate(xs):
        means = []
        for i in range(plan.replications):
            # the last path stays bound until the next run returns: freed sooner, its
            # pages go back to the OS and fault in again each run (7x the minor faults)
            stats, _ = packet_fifo(make_trace(x, substream(plan.master_seed, i, j)), bandwidth)
            means.append(stats.mean_queue)
        mean, std = aggregate_replications(means)
        result.points.append(SweepPoint(float(x), mean, std, tuple(means)))
    return result


def block_shuffle(trace: PacketTrace, block_size: int, seed) -> PacketTrace:
    """Permute the trace in blocks of block_size packets.

    The trace is viewed as (gap, size) pairs, the first gap taken as 0.
    Blocks of block_size consecutive pairs (last block possibly short)
    are reordered by a seeded uniform permutation and timestamps are
    rebuilt by accumulating the permuted gaps. Structure inside a
    block survives; structure across blocks is destroyed. Sizes and
    gaps themselves are only moved, never changed.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    rng = as_generator(seed)
    n = trace.packet_count
    gaps = np.empty(n, dtype=np.float64)
    gaps[0] = 0.0
    gaps[1:] = np.diff(trace.timestamps)
    n_blocks = -(-n // block_size)
    order = rng.permutation(n_blocks)
    # gather the blocks in their new order: a block starting at
    # order*B in the input starts at the running total of the lengths
    # placed before it
    lengths = np.minimum(block_size, n - order * block_size)
    offsets = np.cumsum(lengths) - lengths
    perm = np.arange(n) - np.repeat(offsets - order * block_size, lengths)
    new_ts = np.cumsum(gaps[perm])
    return PacketTrace(
        new_ts,
        trace.sizes[perm],
        origin=f"block_shuffle(B={block_size}) of {trace.origin}",
    )


def blocksize_sweep(
    trace: PacketTrace,
    block_sizes,
    plan: ReplicationPlan,
    bandwidth: float | None = None,
    rho: float | None = None,
) -> SweepResult:
    """Mean queue versus shuffle block size, replicated over permutations.

    The unshuffled trace is simulated once at the same service rate
    and reported as the baseline.
    """
    block_sizes = sorted(int(b) for b in block_sizes)
    if not block_sizes or block_sizes[0] < 1:
        raise ValueError("block_sizes must be positive")
    b = _resolve_bandwidth(trace, bandwidth, rho)
    # bind only the mean, so the baseline's queue path is freed before the sweep
    baseline = packet_fifo(trace, b)[0].mean_queue
    result = SweepResult(x_label="block_size", baseline=baseline)
    return _replicate(result, block_sizes, plan, b, lambda blk, rng: block_shuffle(trace, blk, rng))

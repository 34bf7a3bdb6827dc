"""Replicated experiments: how the observed mean queue moves with sample
size, and what survives when arrival order is shuffled in blocks.

Every randomized step draws from a substream keyed by the replication
index (and sweep-point index where applicable), so results are
bit-for-bit reproducible and independent of execution order.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .queue_sim import _CHUNK, packet_fifo, prefix_mean_queue
from .rng import substream
from .synth import GeneratorSpec, SyntheticSource, generate_onoff
from .traces import PacketTrace, _equal_sizes, _in_order, _one_size, window, write_rows

__all__ = [
    "ReplicationPlan",
    "SweepPoint",
    "SweepResult",
    "aggregate_replications",
    "sample_size_sweep",
    "prefix_mean_sweep",
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
        if self.replications > sys.maxsize:  # replication i is an index
            raise ValueError(f"replications must be <= {sys.maxsize}")
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
    points: list[SweepPoint]
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


def _points(xs, rep_means) -> list[SweepPoint]:
    """One point per x from the tuple of its replication means: the fold of both replication loops."""
    return [SweepPoint(float(x), *aggregate_replications(means), means) for x, means in zip(xs, rep_means)]


def sample_size_sweep(source, sizes, plan: ReplicationPlan, bandwidth: float) -> SweepResult:
    """Mean queue versus sample size, replicated, every queue served at
    bandwidth bytes/s (bandwidth_for_utilization gives the rate of a
    target load on a trace).

    For a PacketTrace source each replication simulates a contiguous
    window of the requested size at a seeded uniform start offset. For
    a SyntheticSource each replication generates a fresh trace of
    exactly that many packets; a size past the largest array length is
    refused before any replication.
    """
    sizes = sorted(int(s) for s in sizes)
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be positive packet counts")
    if isinstance(source, PacketTrace):
        n = source.packet_count
        if sizes[-1] > n:
            raise ValueError(f"sample size {sizes[-1]} exceeds trace length {n}")

        def make_trace(size, rng):
            return window(source, int(rng.integers(0, n - size + 1)), size)

    elif isinstance(source, SyntheticSource):
        if sizes[-1] > sys.maxsize:
            raise ValueError(f"sample size {sizes[-1]} is past the largest array length")

        def make_trace(size, rng):
            return source.trace(rng, n_packets=size)

    else:
        raise TypeError("source must be a PacketTrace or SyntheticSource")
    return _replicate("sample_size", sizes, plan, bandwidth, make_trace)


def _replicate(x_label: str, xs, plan: ReplicationPlan, bandwidth: float, make_trace,
               baseline: PacketTrace | None = None) -> SweepResult:
    """One point per x: the mean queue of make_trace(x, rng) at bandwidth,
    replicated with rng = substream(master_seed, i, j) for replication i
    of the j-th x, and a baseline trace's mean queue as the baseline.

    The tasks run on traces._in_order's pool, which bounds what they
    hold: the baseline, -1, then each (x, replication) cell k, x-major,
    whose trace a worker thread makes and serves, with (j, i) =
    divmod(k, replications). One task per replication, serving each x
    in turn, made sweep-blocks 0-20% slower (6 runs, 2-core VM): fewer,
    larger tasks leave a thread idle while the last one runs. The
    means come back in order, so the points hold a serial loop's bits,
    and an error in a replication comes out at it.
    """
    reps = plan.replications

    def mean_queue(k):
        if k < 0:
            return packet_fifo(baseline, bandwidth).mean_queue
        j, i = divmod(k, reps)
        return packet_fifo(make_trace(xs[j], substream(plan.master_seed, i, j)), bandwidth).mean_queue

    means = _in_order(mean_queue, range(0 if baseline is None else -1, len(xs) * reps))
    baseline_mean = None if baseline is None else next(means)
    return SweepResult(x_label, _points(xs, (tuple(islice(means, reps)) for _ in xs)), baseline_mean)


def prefix_mean_sweep(spec: GeneratorSpec, sizes, plan: ReplicationPlan) -> SweepResult:
    """Mean queue of the fluid on/off model of spec over growing prefixes, replicated.

    Replication i draws generate_onoff(spec, substream(master_seed, i)),
    of any off model, and takes the mean queue of every prefix of the
    sorted distinct sizes from one prefix_mean_queue call; so each mean
    is fluid_queue of that process's prefix. A size past spec.n_cycles
    is refused before any replication.

    The replications run on traces._in_order's pool, which bounds what
    they hold, one task each, as perfbench pins one prefix_mean_queue
    call per replication and one fluid_queue call per prefix. A worker
    thread draws a replication's process, for the reordered model one
    n_cycles-length array of bursts whose silences the queue kernel
    computes a run at a time, and runs prefix_mean_queue on it. The
    means come back in order, so the points hold a serial loop's bits,
    and an error in a replication comes out at it.
    """
    sizes = sorted({int(n) for n in sizes})
    if not sizes or sizes[0] < 1:
        raise ValueError("sizes must be positive cycle counts")
    if sizes[-1] > spec.n_cycles:
        raise ValueError(f"size {sizes[-1]} is past the spec's {spec.n_cycles} cycles")

    def prefix_means(i):
        return [q for _, q in prefix_mean_queue(generate_onoff(spec, substream(plan.master_seed, i)), sizes)]

    return SweepResult("cycles", _points(sizes, zip(*_in_order(prefix_means, range(plan.replications)))))


# the largest source duration whose shuffles stream: see block_shuffle
_STREAMED_DURATION = float(np.finfo(np.float64).max) / 2


class _BlockShuffled(PacketTrace):
    """The blocks of b packets of source in the order `order`; see
    block_shuffle. The columns are built and frozen on first read, copied
    from the runs of _slices; sizes that the source stores once stay
    stored once, in a column of their own."""

    def __init__(self, source: PacketTrace, b: int, order: np.ndarray):
        self._source, self._b, self._order = source, b, order

    def __len__(self) -> int:
        return len(self._source)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        sizes, n = self._source.sizes, len(self)
        one_size = _one_size(sizes)
        ts = np.empty(n)
        sz = _equal_sizes(sizes[0], n) if one_size else np.empty(n, np.int64)
        lo = 0
        for t, z in self._slices(_CHUNK):
            hi = lo + len(t)
            ts[lo:hi] = t
            if not one_size:
                sz[lo:hi] = z
            lo = hi
        for x in (ts, sz):
            x.setflags(write=False)
        return ts, sz

    timestamps = property(lambda self: self._columns[0])
    sizes = property(lambda self: self._columns[1])

    def _slices(self, size: int):
        """The runs of PacketTrace._slices. A run's source timestamps are
        gathered by whole blocks into a buffer, its gaps computed from
        them as ts[i] - ts[i-1], with 0.0 for the trace's first packet,
        and its timestamps summed from the gaps into the same buffer.
        Its sizes are gathered into another buffer, or read as a slice
        when the source stores them once (np.take would first copy such
        a column whole). The buffers are reused by the next run."""
        ts, sizes = self._source.timestamps, self._source.sizes
        n, b, order = len(ts), self._b, self._order
        full = n // b
        one_size = _one_size(sizes)
        ts_rows, size_rows = (x[: full * b].reshape(full, b) for x in (ts, sizes))
        per = size // b  # whole blocks per run, when a block fits in one
        # the short last block, input block `full`, sits at position k
        k = int(np.argmax(order == full)) if n % b else full

        def spans(lo, hi):
            """The source packets lo to hi, at most size at a time."""
            for at in range(lo, hi, size):
                yield slice(at, min(at + size, hi))

        def runs(blocks):
            """Row indices of at most `per` whole blocks, or the spans of
            each block when one is longer than size."""
            if per:
                for j in range(0, len(blocks), per):
                    yield blocks[j : j + per]
            else:
                for i in blocks.tolist():
                    yield from spans(i * b, (i + 1) * b)

        def parts():
            yield from runs(order[:k])
            yield from spans(full * b, n)
            yield from runs(order[k + 1 :])

        ts_buf, gs = np.empty(min(n, size)), np.empty(min(n, size))
        sz = None if one_size else np.empty(min(n, size), np.int64)
        # a run's block indices and then the packet before each block, in
        # intp: their product with b may not fit the order's int32, and
        # take copies indices of any other dtype
        index = np.empty(min(per, full), np.intp)
        carry = 0.0
        for part in parts():
            if isinstance(part, slice):
                m = part.stop - part.start
                g = gs[:m]
                np.subtract(ts[part.start + 1 : part.stop], ts[part.start : part.stop - 1], out=g[1:])
                g[0] = ts[part.start] - ts[part.start - 1] if part.start else 0.0
                z = sizes[part]
            else:
                m = len(part) * b
                t, g, starts = ts_buf[:m], gs[:m], index[: len(part)]
                np.copyto(starts, part)
                # mode="clip" lets take write into out directly; every index is in range
                np.take(ts_rows, starts, axis=0, out=t.reshape(-1, b), mode="clip")
                if one_size:
                    z = sizes[:m]
                else:
                    z = sz[:m]
                    np.take(size_rows, starts, axis=0, out=z.reshape(-1, b), mode="clip")
                np.subtract(t[1:], t[:-1], out=g[1:])
                # a block's first gap reaches back to the packet before it in
                # the source; clip takes packet 0 for packet -1, so the
                # trace's first packet gets ts[0] - ts[0] = 0.0
                starts *= b
                starts -= 1
                heads = g[::b]
                np.take(ts, starts, out=heads, mode="clip")
                np.subtract(t[::b], heads, out=heads)
            # one cumsum over the whole permuted gaps, carried from run to
            # run; the first carry, 0.0, changes no bit of a gap. It writes
            # to a buffer other than its input, as a cumsum into its own
            # input holds the GIL (see queue_sim._fifo_slices)
            g[0] += carry
            t = np.cumsum(g, out=ts_buf[:m])
            carry = t[-1]
            yield t, z


def block_shuffle(trace: PacketTrace, block_size: int, rng: np.random.Generator) -> PacketTrace:
    """Permute the trace in blocks of block_size packets.

    The trace is viewed as (gap, size) pairs, the first gap taken as 0.
    Blocks of block_size consecutive pairs (last block possibly short)
    are reordered by a uniform permutation drawn from rng, and
    timestamps are rebuilt by accumulating the permuted gaps. Structure
    inside a block survives; structure across blocks is destroyed.
    Sizes and gaps themselves are only moved, never changed.

    The result holds only the trace, the block order and the block size.
    The order of the k blocks is rng.shuffle of arange(k), in place, as
    int32 when k < 2**31: the same draws as permutation(k), so the
    same order and the same generator state after, in half the bytes.
    packet_fifo reads the result in runs of at most 2**16 packets
    (_BlockShuffled._slices). A run gathers whole blocks of the trace's
    timestamps into a buffer and computes their gaps ts[i] - ts[i-1]
    from them, with the cumsum carried across runs;
    its sizes are gathered into a second buffer, or, when the trace
    stores one size once (a zero-stride column, as packetize's and
    generate_poisson's traces do), read as a slice. A replication so
    makes the order and those buffers, and no array as long as the
    trace. The result's timestamps and sizes are copied from the same
    runs into new arrays that hold no view of the input, only when
    something reads them; sizes stored once stay stored once.

    The gaps are finite and nonnegative, so the timestamps are
    nondecreasing from the first, which is >= 0, and finite unless a
    running sum rounds past the largest float M. That cannot happen when
    the trace's duration D = fl(t_last - t_0) is at most M/2. Let u =
    2**-53. Each gap is fl(t_i - t_{i-1}) <= (1 + u)(t_i - t_{i-1}), and
    these differences add up exactly to t_last - t_0 <= D / (1 - u), so
    the gaps add up to at most G = D (1 + u) / (1 - u). Recursive
    summation of nonnegative terms rounds each partial sum up by at
    most a factor 1 + u, so the k-th running sum of any order of the
    gaps is at most (1 + u)**k G (Higham 2002, section 4.2), as long as
    none before it overflowed. With n < 2**51 packets (their int64 sizes
    alone would fill 2**54 bytes), (1 + u)**n < e**(1/4) < 1.3, so every
    running sum stays under 1.3 G < 0.7 M. A trace longer than M/2 has
    its columns built at once, and a non-finite timestamp among them is
    a ValueError here.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    n = len(trace)
    b = min(block_size, n)  # every B >= n is one block
    k = -(-n // b)
    # the draws and the order of permutation(k), in half its bytes
    order = np.arange(k, dtype=np.int32 if k < 2**31 else np.int64)
    rng.shuffle(order)
    shuffled = _BlockShuffled(trace, b, order)
    if not trace.duration <= _STREAMED_DURATION:
        # the sum past the largest float is the error below, not a numpy warning
        with np.errstate(over="ignore"):
            if not np.isfinite(shuffled.timestamps[-1]):
                raise ValueError("non-finite timestamp")
    return shuffled


def blocksize_sweep(trace: PacketTrace, block_sizes, plan: ReplicationPlan, bandwidth: float) -> SweepResult:
    """Mean queue versus shuffle block size, replicated over permutations,
    every queue served at bandwidth bytes/s.

    The unshuffled trace is simulated once at the same service rate,
    on the replications' pool, and reported as the baseline.
    """
    block_sizes = sorted(int(b) for b in block_sizes)
    if not block_sizes or block_sizes[0] < 1:
        raise ValueError("block_sizes must be positive")
    if block_sizes[-1] > sys.float_info.max:  # the sweep's x column is float(block size)
        raise ValueError(f"block size {block_sizes[-1]} is past the largest float")
    return _replicate("block_size", block_sizes, plan, bandwidth, lambda blk, rng: block_shuffle(trace, blk, rng),
                      baseline=trace)

"""Single-server queue simulation, exact in both the fluid and packet views.

Both simulators integrate the queue-length process in closed form over
the intervals where it is linear (fluid) or constant (packets), so the
reported means carry only floating-point rounding, no discretization.
The queue starts empty at t=0 and the horizon runs to the end of the
last cycle (fluid) or the last departure (packets).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .synth import FluidOnOffProcess
from .traces import TIMESTAMP_DIGITS, PacketTrace, write_rows

__all__ = [
    "QueueStats",
    "QueuePath",
    "QueueRun",
    "fluid_queue",
    "packet_fifo",
    "prefix_mean_queue",
]


@dataclass(frozen=True)
class QueueStats:
    """Summary of one queue run.

    mean_queue is area/horizon. utilization is busy time over the
    horizon, where the packet server is busy while any packet is in
    the system and the fluid server while work is arriving or queued.
    """

    mean_queue: float
    peak_queue: float
    horizon: float
    utilization: float
    empty_fraction: float
    area: float


@dataclass(eq=False)
class QueuePath:
    """Queue level breakpoints, enough to reconstruct Q_t exactly.

    interpolation is "linear" for fluid runs (level ramps between
    breakpoints) and "step" for packet runs (level holds until the
    next breakpoint). The path always starts at (0, 0).
    """

    times: np.ndarray
    levels: np.ndarray
    interpolation: str

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        q = np.asarray(self.levels, dtype=np.float64)
        if t.shape != q.shape or t.ndim != 1:
            raise ValueError("times and levels must be 1-d and equal length")
        if self.interpolation not in ("linear", "step"):
            raise ValueError("interpolation must be 'linear' or 'step'")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "levels", q)

    def write_csv(self, fh, comments: tuple[str, ...] = ()) -> None:
        fixed = f"%.{TIMESTAMP_DIGITS}f"
        write_rows(fh, f"{fixed},{fixed}", (self.times, self.levels), (*comments, "time,level"))


class QueueRun:
    """One queue run.

    mean_queue, area and horizon are computed by the simulator itself.
    stats (a QueueStats) and path (a QueuePath) are built on first read
    and then kept, so a caller that reads only the mean pays for
    neither.
    """

    def __init__(self, area: float, horizon: float, stats, path):
        self.area = area
        self.horizon = horizon
        self.mean_queue = area / horizon
        self._stats = stats  # called with the run
        self._path = path

    @cached_property
    def stats(self) -> QueueStats:
        return self._stats(self)

    @cached_property
    def path(self) -> QueuePath:
        return self._path()


# _fsum sums at most _CHUNK terms per numpy pass, so its temporaries stay
# small; it is exact for up to _MAX_TERMS terms whose biased exponent is
# below _MAX_EXPONENT, that is |x| < 2**977
_CHUNK = 1 << 16
_MAX_TERMS = 1 << 26
_MAX_EXPONENT = 2000
_HI_MASK = ~np.int64((1 << 26) - 1)  # clears the low 26 of the 52 mantissa bits


def _fsum(x) -> float:
    """math.fsum of the float64 values of the 1-d x, bit for bit.

    Each value goes to the bucket of its biased exponent E and is split
    exactly into hi, its upper 26 mantissa bits, and lo = x - hi. In
    bucket E every hi is a whole number of units 2**(E-1049) below 2**27
    of them, and every lo a whole number of units 2**(E-1075) below 2**26
    of them (read E as 1 in bucket 0, the zeros and subnormals). With
    at most 2**26 terms, every partial sum of one bucket's hi (or lo)
    values is a whole number of those units below 2**53, which float64
    holds exactly, in any order. So np.bincount adds each bucket
    without rounding, and one math.fsum over the at most 4096 nonzero
    bucket sums rounds their exact total once, as math.fsum rounds the
    exact total of x (Zhu & Hayes 2010, Algorithm 908; Shewchuk 1997).
    With |x| < 2**977 no bucket sum and no partial sum inside math.fsum
    can overflow. Any other input (more than 2**26 terms, a value at or
    above 2**977, inf or nan) is summed by math.fsum itself, read through
    a buffer so each element arrives as a Python float.
    """
    x = np.asarray(x)
    sums = _bucket_sums(x)
    if sums is None:
        return math.fsum(memoryview(np.ascontiguousarray(x, dtype=np.float64)))
    return math.fsum(sums[sums != 0.0].tolist())


def _bucket_sums(x: np.ndarray) -> np.ndarray | None:
    """The exact hi and lo sums of x per biased exponent, as rows of a
    (2, 2048) array, or None when x is outside the domain of _fsum."""
    if len(x) > _MAX_TERMS:
        return None
    sums = np.zeros((2, 2048))
    for start in range(0, len(x), _CHUNK):
        chunk = np.ascontiguousarray(x[start : start + _CHUNK], dtype=np.float64)
        bits = chunk.view(np.int64)
        e = (bits >> 52) & 0x7FF
        if e.max() >= _MAX_EXPONENT:
            return None
        hi = (bits & _HI_MASK).view(np.float64)
        sums[0] += np.bincount(e, weights=hi, minlength=2048)
        sums[1] += np.bincount(e, weights=chunk - hi, minlength=2048)
    return sums


def fluid_queue(process: FluidOnOffProcess) -> QueueRun:
    """Exact workload process of the on/off source against a unit server.

    During an on period the queue rises at m-1; afterwards it drains
    at 1 until empty. Each cycle is a trapezoid or triangle. The on and
    off areas of the cycles are each summed exactly and rounded once
    (_fsum), so summing adds no rounding beyond that of each cycle's terms.

    The run holds the process and three new arrays of one value per
    cycle, the levels at each cycle's end and peak and the drain times,
    from which stats and path are built. Every other array is freed on
    return.
    """
    on = process.on_lengths
    off = process.off_lengths
    m = process.m
    on_total = _fsum(on)
    horizon = on_total + _fsum(off)
    rise = (m - 1.0) * on
    # queue level at cycle ends follows q_i = max(0, q_{i-1} + rise_i - off_i)
    w = np.subtract(rise, off)
    np.cumsum(w, out=w)
    q_end = np.minimum.accumulate(w)
    np.minimum(q_end, 0.0, out=q_end)
    np.subtract(w, q_end, out=q_end)
    # a cycle starts at the level the previous one ended at, the first
    # at 0; w becomes the peaks q_start + rise
    q_peak = w
    q_peak[0] = 0.0 + rise[0]
    np.add(q_end[:-1], rise[1:], out=q_peak[1:])
    drain = np.minimum(off, q_peak)  # time the queue stays positive while off

    # rise becomes the on areas (0.5 * (q_start + q_peak)) * on, then the
    # off areas drain * (q_peak - 0.5 * drain)
    buf = rise
    buf[0] = 0.0 + q_peak[0]
    np.add(q_end[:-1], q_peak[1:], out=buf[1:])
    buf *= 0.5
    buf *= on
    area_on = _fsum(buf)
    np.multiply(drain, 0.5, out=buf)
    np.subtract(q_peak, buf, out=buf)
    buf *= drain
    area = area_on + _fsum(buf)

    def stats(run):
        busy = on_total + _fsum(drain)
        return QueueStats(
            mean_queue=run.mean_queue,
            peak_queue=float(q_peak.max()),
            horizon=horizon,
            utilization=busy / horizon,
            empty_fraction=(horizon - busy) / horizon,
            area=area,
        )

    def path():
        cycle_ends = np.cumsum(on + off)
        on_ends = cycle_ends - off
        # breakpoints: peak at on-end, zero where the drain finishes early,
        # and the level at the cycle end
        drains_fully = q_peak <= off
        t3 = np.stack([on_ends, on_ends + drain, cycle_ends], axis=1)
        q3 = np.stack([q_peak, q_peak - drain, q_end], axis=1)
        keep = np.stack([np.ones(len(on), dtype=bool), drains_fully, np.ones(len(on), dtype=bool)], axis=1)
        times = np.concatenate(([0.0], t3.ravel()[keep.ravel()]))
        levels = np.concatenate(([0.0], q3.ravel()[keep.ravel()]))
        return QueuePath(times, levels, "linear")

    return QueueRun(area, horizon, stats, path)


def packet_fifo(trace: PacketTrace, bandwidth: float) -> QueueRun:
    """FIFO service of the trace at `bandwidth` bytes/second.

    Departure times obey d_i = max(a_i, d_{i-1}) + size_i/bandwidth.
    The queue level counts every packet in the system, including the
    one in service. The mean is the packet sojourn total over the
    horizon, which equals the piecewise-constant integral exactly.
    Reading stats builds the path too, since the peak is read from it.

    The run holds the trace and one new array, the departure times;
    stats divides the sizes by the bandwidth again when first read. A
    bandwidth so small that the horizon or the sojourn total is not a
    finite float is a ValueError.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    a = trace.timestamps
    # d_i = S_i + max_{j<=i}(a_j - S_{j-1}) with S the service prefix sum
    # and S_0 = 0; s holds the service times, then S, then the sojourns
    with np.errstate(over="ignore"):
        s = np.divide(trace.sizes, bandwidth)
        np.cumsum(s, out=s)
        d = np.empty(len(a))
        d[0] = a[0] - 0.0
        np.subtract(a[1:], s[:-1], out=d[1:])
        np.maximum.accumulate(d, out=d)
        d += s
    horizon = float(d[-1])
    np.subtract(d, a, out=s)
    try:
        area = _fsum(s)  # sum of sojourns = integral of the level
    except OverflowError:  # math.fsum found the total past the largest float
        area = math.inf
    if not (math.isfinite(horizon) and math.isfinite(area)):
        raise ValueError(f"bandwidth {float(bandwidth)!r} is too small: the horizon or sojourn total is not finite")

    def stats(run):
        busy = min(_fsum(trace.sizes / bandwidth), horizon)  # min() guards cumsum/fsum rounding skew
        # the queue is empty before the first arrival and wherever an
        # arrival finds every earlier packet gone
        idle = a[1:] - d[:-1]
        empty = _fsum(idle[idle > 0.0]) + float(a[0])
        return QueueStats(
            mean_queue=run.mean_queue,
            peak_queue=float(run.path.levels.max()),
            horizon=horizon,
            utilization=busy / horizon,
            empty_fraction=empty / horizon,
            area=area,
        )

    def path():
        # a and d are each sorted, so a stable sort of the departures
        # followed by the arrivals merges two runs, and at a tie it keeps
        # the departure first: the level never counts a packet that has
        # already left
        n = len(a)
        times = np.concatenate([d, a])
        order = np.argsort(times, kind="stable")
        path_times = np.zeros(2 * n + 1)
        path_levels = np.zeros(2 * n + 1)
        np.take(times, order, out=path_times[1:])
        np.cumsum(np.where(order >= n, 1.0, -1.0), out=path_levels[1:])
        return QueuePath(path_times, path_levels, "step")

    return QueueRun(area, horizon, stats, path)


def prefix_mean_queue(process: FluidOnOffProcess, sizes) -> list[tuple[int, float]]:
    """Mean queue of each prefix of sizes cycles, simulated independently
    from empty. sizes must be nondecreasing and within the process length.
    """
    sizes = list(sizes)
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be nondecreasing")
    return [(n, fluid_queue(process.prefix(n)).mean_queue) for n in sizes]

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
from math import frexp, ldexp

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


# the chunk size, magnitude limit and sigma floor of _fsum, whose
# temporaries are two chunk-sized buffers
_CHUNK = 1 << 16
_LIMIT = 2.0**977
_FLOOR = 2.0**-1000


def _fsum(x) -> float:
    """math.fsum of the float64 values of the 1-d x, bit for bit.

    Each chunk p of at most 2**16 terms is split exactly by magnitude
    (Rump, Ogita & Oishi 2008, ExtractVector). Let |p| <= 2**e and
    sigma = 2**(e+17). Then fl(sigma + p) lies within [sigma/2, 2*sigma],
    so q = fl(fl(sigma + p) - sigma) subtracts exactly (Sterbenz), is a
    whole number of units 2**-53 * sigma, and has |q| <= 2**e. p - q is
    the rounding error of sigma + p, so it is exact too, and at most one
    unit in size. Every partial sum of the chunk's q is a whole number
    of units and at most 2**16 * 2**e = sigma / 2 in size, that is at
    most 2**52 units, which float64 holds exactly: q.sum() adds without
    rounding in any order. The remainder p - q meets the same bound for
    sigma * 2**(17-53), and the next level extracts from it, until it is
    all zero. One math.fsum over the exact level sums then rounds their
    exact total once, as math.fsum rounds the exact total of x.

    The domain: every |x| < 2**977, so sigma <= 2**994 and neither
    sigma + p nor any sum overflows; and sigma at or above 2**-1000, so
    sigma + p is never subnormal. Each level lowers sigma by 36 bits, so
    the floor ends every chunk within 56 levels; real traffic needs 2 or
    3. Outside the domain (inf, nan, a value at or above 2**977, or a
    remainder that lasts until sigma falls under the floor, as a tail
    near the subnormals does) x is summed by math.fsum itself, read
    through a buffer so each element arrives as a Python float.
    """
    x = np.asarray(x, dtype=np.float64)
    sums = _level_sums(x)
    if sums is None:
        return math.fsum(memoryview(np.ascontiguousarray(x)))
    return math.fsum(sums)


def _level_sums(x: np.ndarray) -> list[float] | None:
    """The exact sum of each extraction level of each chunk of x, or None
    when x is outside the domain of _fsum."""
    sums = []
    p = np.empty(min(len(x), _CHUNK))
    q = np.empty_like(p)
    for start in range(0, len(x), _CHUNK):
        rest = x[start : start + _CHUNK]  # the first level reads x itself
        p, q = p[: len(rest)], q[: len(rest)]
        top = float(np.abs(rest, out=q).max())
        if not top < _LIMIT:  # also inf and nan
            return None
        sigma = ldexp(1.0, frexp(top)[1] + 17)
        while True:
            if sigma < _FLOOR:
                return None
            np.add(rest, sigma, out=q)
            q -= sigma  # q = fl(fl(sigma + rest) - sigma)
            rest = np.subtract(rest, q, out=p)  # exact
            sums.append(float(q.sum()))
            if not p.any():
                break
            sigma *= 2.0**-36
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
    # queue level at cycle ends follows q_i = max(0, q_{i-1} + rise_i - off_i);
    # w is a cumsum of finite values, so it holds no nan and no -0.0, and
    # fmin, the faster scan, gives the bits of minimum
    w = np.subtract(rise, off)
    np.cumsum(w, out=w)
    q_end = np.fmin.accumulate(w)
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
        # a is finite and S finite or +inf, so a - S is never nan, and
        # fmax, the faster scan, differs from maximum at most in the sign
        # of a zero, which d += S erases
        np.fmax.accumulate(d, out=d)
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

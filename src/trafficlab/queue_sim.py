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

import numpy as np

from .synth import FluidOnOffProcess
from .traces import PacketTrace, write_rows

__all__ = [
    "QueueStats",
    "QueuePath",
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
    diagnostic is None for a normal run; it names the degenerate case
    otherwise (for example an on rate that can never build a queue).
    """

    mean_queue: float
    peak_queue: float
    horizon: float
    utilization: float
    empty_fraction: float
    area: float
    diagnostic: str | None = None


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
        write_rows(fh, "%.9f,%.9f", (self.times, self.levels), (*comments, "time,level"))


def fluid_queue(process: FluidOnOffProcess) -> tuple[QueueStats, QueuePath]:
    """Exact workload process of the on/off source against a unit server.

    During an on period the queue rises at m-1; afterwards it drains
    at 1 until empty. Each cycle is a trapezoid or triangle, summed in
    compensated arithmetic, so the area is exact up to rounding.
    """
    on = process.on_lengths
    off = process.off_lengths
    m = process.m
    horizon = math.fsum(on) + math.fsum(off)
    if m <= 1.0:
        # work never arrives faster than it is served, so no queue forms
        stats = QueueStats(
            mean_queue=0.0,
            peak_queue=0.0,
            horizon=horizon,
            utilization=min(m, 1.0) * math.fsum(on) / horizon if horizon > 0 else 0.0,
            empty_fraction=1.0,
            area=0.0,
            diagnostic="on rate m <= 1 never builds a queue",
        )
        path = QueuePath(np.array([0.0, horizon]), np.zeros(2), "linear")
        return stats, path

    rise = (m - 1.0) * on
    # queue level at cycle ends follows q_i = max(0, q_{i-1} + rise_i - off_i)
    w = np.cumsum(rise - off)
    q_end = w - np.minimum(np.minimum.accumulate(w), 0.0)
    q_start = np.concatenate(([0.0], q_end[:-1]))
    q_peak = q_start + rise

    drain = np.minimum(off, q_peak)  # time the queue stays positive while off
    area_on = 0.5 * (q_start + q_peak) * on
    area_off = drain * (q_peak - 0.5 * drain)
    area = math.fsum(area_on) + math.fsum(area_off)
    busy = math.fsum(on) + math.fsum(drain)

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

    stats = QueueStats(
        mean_queue=area / horizon,
        peak_queue=float(q_peak.max()),
        horizon=horizon,
        utilization=busy / horizon,
        empty_fraction=(horizon - busy) / horizon,
        area=area,
    )
    return stats, QueuePath(times, levels, "linear")


def packet_fifo(trace: PacketTrace, bandwidth: float) -> tuple[QueueStats, QueuePath]:
    """FIFO service of the trace at `bandwidth` bytes/second.

    Departure times obey d_i = max(a_i, d_{i-1}) + size_i/bandwidth.
    The queue level counts every packet in the system, including the
    one in service. The mean is the packet sojourn total over the
    horizon, which equals the piecewise-constant integral exactly.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    a = trace.timestamps
    service = trace.sizes / bandwidth
    # d_i = S_i + max_{j<=i}(a_j - S_{j-1}) with S the service prefix sum
    s_prefix = np.cumsum(service)
    s_before = np.concatenate(([0.0], s_prefix[:-1]))
    d = s_prefix + np.maximum.accumulate(a - s_before)

    horizon = float(d[-1])
    busy = min(math.fsum(service), horizon)  # min() guards cumsum/fsum rounding skew
    area = math.fsum(d - a)  # sum of sojourns = integral of the level

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

    peak = float(path_levels.max())
    # the queue is empty before the first arrival and wherever an
    # arrival finds every earlier packet gone
    idle = a[1:] - d[:-1]
    empty = math.fsum(idle[idle > 0.0]) + float(a[0])

    stats = QueueStats(
        mean_queue=area / horizon,
        peak_queue=peak,
        horizon=horizon,
        utilization=busy / horizon,
        empty_fraction=empty / horizon,
        area=area,
    )
    return stats, QueuePath(path_times, path_levels, "step")


def prefix_mean_queue(source, sizes, bandwidth: float | None = None) -> list[tuple[int, float]]:
    """Mean queue of each prefix, simulated independently from empty.

    source is a PacketTrace (sizes count packets, bandwidth required)
    or a FluidOnOffProcess (sizes count cycles). sizes must be
    nondecreasing and within the source length.
    """
    sizes = list(sizes)
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be nondecreasing")
    out: list[tuple[int, float]] = []
    if isinstance(source, PacketTrace):
        if bandwidth is None:
            raise ValueError("bandwidth required for packet traces")
        for n in sizes:
            if not 1 <= n <= source.packet_count:
                raise ValueError(f"prefix of {n} packets outside trace")
            sub = PacketTrace(source.timestamps[:n], source.sizes[:n], origin=source.origin)
            stats, _ = packet_fifo(sub, bandwidth)
            out.append((n, stats.mean_queue))
    elif isinstance(source, FluidOnOffProcess):
        for n in sizes:
            stats, _ = fluid_queue(source.prefix(n))
            out.append((n, stats.mean_queue))
    else:
        raise TypeError("source must be a PacketTrace or FluidOnOffProcess")
    return out

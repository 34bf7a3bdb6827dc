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
    "packet_stats",
    "prefix_mean_queue",
]


@dataclass(frozen=True)
class QueueStats:
    """Summary of one packet queue run.

    mean_queue is area/horizon. utilization is busy time over the
    horizon, where the server is busy while any packet is in the system.
    """

    mean_queue: float
    peak_queue: float
    horizon: float
    utilization: float
    empty_fraction: float
    area: float


@dataclass(eq=False)
class QueuePath:
    """Queue level breakpoints of a packet run, enough to reconstruct Q_t
    exactly: the level holds from each breakpoint until the next. The
    path always starts at (0, 0).
    """

    times: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        q = np.asarray(self.levels, dtype=np.float64)
        if t.shape != q.shape or t.ndim != 1:
            raise ValueError("times and levels must be 1-d and equal length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "levels", q)

    def write_csv(self, fh, comments: tuple[str, ...] = ()) -> None:
        fixed = f"%.{TIMESTAMP_DIGITS}f"
        write_rows(fh, f"{fixed},{fixed}", (self.times, self.levels), (*comments, "time,level"))


@dataclass(frozen=True)
class QueueRun:
    """The mean of one queue run, from its kernel's one pass over its
    input: mean_queue is area/horizon."""

    mean_queue: float
    area: float
    horizon: float


# the slice length of the kernels and of _fsum (at most 2**16, which the
# extraction needs), and the magnitude limit and sigma floor of _extract
_CHUNK = 1 << 16
_LIMIT = 2.0**977
_FLOOR = 2.0**-1000


def _extract(p, parts: list, q, r) -> None:
    """Append to parts terms whose exact total is the sum of p: the exact
    sum of each extraction level of p, then the plain sum of what is
    left once that sum is exact, or, where the domain of _fsum ends, the
    terms still left as they stand. _fsum gives the bounds.

    p holds at most 2**16 terms (an empty p, or one of zeros, appends
    its plain sum 0.0 and nothing else); q and r are scratch at least as
    long, and r may be p itself, which is then overwritten.
    """
    q, r = q[: len(p)], r[: len(p)]
    a = p
    low, top = float(p.min(initial=np.inf)), float(p.max(initial=0.0))
    if low < 0.0:  # only a signed slice needs its magnitudes
        a = np.abs(p, out=q)
        low, top = float(a.min()), float(a.max())
    if low == 0.0:  # zeros add nothing: the smallest nonzero magnitude sets the unit
        low = float(np.min(a, where=a > 0.0, initial=np.inf))
    # every term is a whole number of units, the ulp of the smallest nonzero
    # magnitude; a slice with none, all zeros or empty, takes the plain sum at once
    unit = ldexp(1.0, max(frexp(low)[1] - 53, -1074)) if low < np.inf else np.inf
    plain = unit * 2.0**54  # at or under this sigma, p.sum() is exact
    # a top past the limit (inf and nan too) is found before p is written,
    # and leaves every term of p raw
    sigma = ldexp(1.0, frexp(top)[1] + 17) if top < _LIMIT else 0.0
    while sigma:
        if sigma <= plain:
            parts.append(float(p.sum()))
            return
        if sigma < _FLOOR:
            break
        np.add(p, sigma, out=q)
        q -= sigma  # q = fl(fl(sigma + p) - sigma)
        p = np.subtract(p, q, out=r)  # exact
        parts.append(float(q.sum()))
        sigma *= 2.0**-36
    parts += p.tolist()


def _fsum(x) -> float:
    """math.fsum of the float64 values of the 1-d x, bit for bit.

    Each slice p of at most 2**16 terms is split exactly by magnitude
    (Rump, Ogita & Oishi 2008, ExtractVector). Let |p| < 2**e and
    sigma = 2**(e+17). Then fl(sigma + p) lies within [sigma/2, 2*sigma],
    so q = fl(fl(sigma + p) - sigma) subtracts exactly (Sterbenz), is a
    whole number of units 2**-53 * sigma, and has |q| <= 2**e. p - q is
    the rounding error of sigma + p, so it is exact too, and at most one
    unit in size. Every partial sum of the slice's q is a whole number
    of units and at most 2**16 * 2**e = sigma / 2 in size, that is at
    most 2**52 units, which float64 holds exactly: q.sum() adds without
    rounding in any order. The remainder p - q meets the same bound for
    sigma * 2**(17-53), and the next level extracts from it. Because
    each slice stands alone, the kernels extract their terms one slice
    at a time as they compute them (_extract), with the same result.

    The same bound ends a slice with one plain sum. Let u be the ulp of
    the slice's smallest nonzero magnitude, at least 2**-1074; a slice
    of zeros has none and takes the plain sum at once. Every term is a
    whole number of u, a zero too, and so is every remainder: sigma is,
    and fl(sigma + p) rounds at a unit of at least u or not at all. At
    the top of each level |p| <= sigma * 2**-17, so every partial sum of
    p is at most sigma / 2 in size; once sigma <= 2**54 * u, that is at
    most 2**53 u, a whole number of u that float64 holds exactly, so
    p.sum() adds without rounding in any order and ends the slice. The
    first level never ends this way, and each level lowers sigma by 36
    bits: with the top in binade e and the smallest nonzero magnitude in
    binade e - k, the plain sum follows the first level when k <= 20 and
    the second when k <= 56.

    The domain: every |p| < 2**977, so sigma <= 2**994 and neither
    sigma + p nor any sum overflows; and a level runs only at sigma at
    or above 2**-1000, so sigma + p is never subnormal. The plain sum
    needs no such floor, and a slice whose smallest nonzero magnitude is
    subnormal takes it once sigma <= 2**-1020. The floor ends every
    slice within 56 levels. A slice whose top is outside the domain
    (inf, nan or a value at or above 2**977) keeps its raw terms, and a
    remainder that reaches the floor before its plain sum, as a tail
    near the subnormals may, keeps its terms as they stand. On the
    traffic measured, one divergence_fluid benchmark operation (seed
    501) made 336 extractions: 280 took the plain sum after one level
    and 56 after two. The 292 of a sweep_blocks_onoff operation all took
    it after one level. Of the 16 idle-gap slices of packet_stats' pass
    in a trace_pipeline_1m operation (seed 501), which hold zeros, 13
    took the plain sum after one level and 3, all zero, took it at once.

    Since every step is exact, the list of level sums, plain sums and
    kept terms has the exact total of x, and math.fsum rounds that
    total once, as it rounds the exact total of x. Special values reach
    the list only in raw slices, so it also sees the same inf and nan;
    in-domain sums stay under 2**994, so they add no overflow of their
    own. The one difference: math.fsum raises OverflowError when a
    running sum passes the largest float, and a running sum that passes
    it and comes back within one in-domain slice is seen by math.fsum
    over x but not over the list. The kernels' terms are never
    negative, so their running sums never come back.
    """
    x = np.asarray(x, dtype=np.float64)
    parts, q = [], np.empty(min(len(x), _CHUNK))
    r = np.empty_like(q)
    for lo in range(0, len(x), _CHUNK):
        _extract(x[lo : lo + _CHUNK], parts, q, r)
    return math.fsum(parts)


def _fluid_slices(process: FluidOnOffProcess):
    """The cycles of process, one run of process._slices(_CHUNK), at most
    _CHUNK cycles, at a time: yields (on, off, on_area, off_area), their
    on and off lengths and the queue's area over each cycle's on and off
    period. The areas are buffers that the next run reuses and the
    caller may overwrite; so are the silences of a process that computes
    them a run at a time (reorder_nonoverlap's).

    With q_start and q_peak the levels a cycle starts and peaks at, and
    drain the time the queue stays positive while off, the on area is
    (0.5 * (q_start + q_peak)) * on and the off area
    drain * (q_peak - 0.5 * drain). The scan finds the levels, carrying
    them from cycle to cycle. A process whose every cycle starts and ends
    empty (its _drains_each_cycle) takes the areas in closed form instead,
    with r = on * (m - 1): the on areas (r * 0.5) * on and the off areas
    r * (r - r * 0.5), the same operations at q_start = 0 and
    q_peak = drain = r. reorder_nonoverlap's process is one: lam < 1
    gives fl(m/lam) >= m, so its ratio fl(m/lam) - 1 >= m - 1 exactly,
    and monotone rounding gives off = fl(on * ratio) >= r. The scan
    would find the same levels, so the same bits, wherever its running
    sum is finite: every w = fl(r - off) is <= 0, so the running sum
    never rises, its running minimum is itself, and qe = wk - low = 0.
    The closed form forms no running sum, so where that sum would pass
    the largest float and the scan's levels turn nan, it still returns
    the run. Every other process, its silences held as an array, is
    scanned.
    """
    m = process.m
    size = min(process.n_cycles, _CHUNK)
    if process._drains_each_cycle:
        rise, off_area = np.empty(size), np.empty(size)
        for on, off in process._slices(_CHUNK):
            k = len(on)
            r = np.multiply(on, m - 1.0, out=rise[:k])
            y = np.multiply(r, 0.5, out=off_area[:k])
            np.subtract(r, y, out=y)
            y *= r
            r *= 0.5
            r *= on  # the rise's buffer becomes the on areas
            yield on, off, r, y
        return
    rise, w, q_end, on_area = (np.empty(size) for _ in range(4))
    # the carries; adding the first w_last, 0.0, changes no bit of w, which
    # is never -0.0
    w_last, w_min, level = 0.0, math.inf, 0.0
    for on, off in process._slices(_CHUNK):
        k = len(on)
        r = np.multiply(on, m - 1.0, out=rise[:k])
        # queue level at cycle ends follows q_i = max(0, q_{i-1} + rise_i - off_i);
        # w is a cumsum of finite values, so it holds no nan and no -0.0, and
        # fmin, the faster scan, gives the bits of minimum. Each scan writes
        # to another buffer than its input: an accumulate whose output is its
        # own input holds the GIL (numpy 2.4), so two threads' kernels could
        # not run side by side
        x = np.subtract(r, off, out=w[:k])
        x[0] += w_last
        wk = np.cumsum(x, out=q_end[:k])
        low = np.fmin.accumulate(wk, out=x)
        np.fmin(low, w_min, out=low)  # the running minimum carried in
        w_last, w_min = wk[-1], low[-1]
        np.minimum(low, 0.0, out=low)
        qe = np.subtract(wk, low, out=wk)
        # a cycle starts at the level the previous one ended at, the first
        # at 0; the running minimum's buffer becomes the peaks q_start + rise
        qp = low
        qp[0] = level + r[0]
        np.add(qe[:-1], r[1:], out=qp[1:])
        drain = np.minimum(off, qp, out=r)
        x = on_area[:k]
        x[0] = level + qp[0]
        np.add(qe[:-1], qp[1:], out=x[1:])
        x *= 0.5
        x *= on
        level = qe[-1]
        y = np.multiply(drain, 0.5, out=qe)  # the end levels' buffer becomes the off areas
        np.subtract(qp, y, out=y)
        y *= drain
        yield on, off, x, y


def fluid_queue(process: FluidOnOffProcess) -> QueueRun:
    """Exact workload process of the on/off source against a unit server.

    During an on period the queue rises at m-1; afterwards it drains
    at 1 until empty. Each cycle is a trapezoid or triangle. The on and
    off areas of the cycles are each summed exactly and rounded once,
    so summing adds no rounding beyond that of each cycle's terms.

    One loop (_fluid_slices) gives the areas of runs of at most _CHUNK
    cycles, which the exact sums need to be at most 2**16, carrying only
    scalars across; reorder_nonoverlap's process, whose every cycle
    starts and ends empty, takes them in closed form. Each run's on, off
    and area terms are extracted as they are made (_extract), into one
    list per sum that math.fsum rounds once. A process of
    reorder_nonoverlap is read a run at a time, its silences computed
    into a buffer, so the pass builds no off_lengths: it holds four
    _CHUNK-cycle buffers and no array as long as the process; a scanned
    run holds five. Cycles so long that the horizon or the area is not a
    finite float are a ValueError, as in packet_fifo.
    """
    q = np.empty(min(process.n_cycles, _CHUNK))
    on_sum, off_sum, on_areas, off_areas = [], [], [], []
    # a level or an area past the largest float is the error below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for on, off, on_area, off_area in _fluid_slices(process):
            _extract(on_area, on_areas, q, on_area)
            _extract(off_area, off_areas, q, off_area)
            _extract(on, on_sum, q, on_area)  # the extracted areas' buffers are scratch
            _extract(off, off_sum, q, off_area)
    try:
        horizon = math.fsum(on_sum) + math.fsum(off_sum)
        area = math.fsum(on_areas) + math.fsum(off_areas)
    except OverflowError:  # math.fsum found a total past the largest float
        horizon = area = math.inf
    if not (math.isfinite(horizon) and math.isfinite(area)):
        raise ValueError("the cycles are too long: the horizon or the queue area is not a finite float")
    return QueueRun(area / horizon, area, horizon)


def _fifo_slices(trace: PacketTrace, bandwidth: float):
    """Departure times of trace served at bandwidth, one run of
    trace._slices(_CHUNK), at most _CHUNK packets, at a time.

    d_i = S_i + max_{j<=i}(a_j - S_{j-1}) with S the service prefix sum
    and S_0 = 0; the scan carries S and the running max across slices,
    so where the trace cuts its runs changes no bit. Yields (a, sizes,
    d, s) for the run's packets: their arrivals and sizes as the run
    gives them, their departures d and a buffer s of the same length
    that the caller may overwrite. d and s are buffers reused by the
    next run, as the run's own may be (a block shuffle's).
    """
    s_buf = np.empty(min(len(trace), _CHUNK))
    # the scans' inputs: an accumulate whose output is its own input holds
    # the GIL (numpy 2.4), so each scan writes to another buffer, and two
    # threads' kernels run side by side
    x_buf, d_buf = np.empty_like(s_buf), np.empty_like(s_buf)
    # the carries; adding the first s_last, 0.0, changes no bit, as s > 0
    s_last, run_max = 0.0, -math.inf
    for a, sizes in trace._slices(_CHUNK):
        k = len(a)
        with np.errstate(over="ignore"):
            x = np.divide(sizes, bandwidth, out=x_buf[:k])
            x[0] += s_last
            s = np.cumsum(x, out=s_buf[:k])
            x[0] = a[0] - s_last
            np.subtract(a[1:], s[:-1], out=x[1:])
            x[0] = np.fmax(run_max, x[0])
            # a is finite and S finite or +inf, so a - S is never nan, and
            # fmax, the faster scan, differs from maximum at most in the sign
            # of a zero, which d += S erases
            d = np.fmax.accumulate(x, out=d_buf[:k])
            s_last, run_max = s[-1], d[-1]
            d += s
        yield a, sizes, d, s


def packet_fifo(trace: PacketTrace, bandwidth: float) -> QueueRun:
    """FIFO service of the trace at `bandwidth` bytes/second.

    Departure times obey d_i = max(a_i, d_{i-1}) + size_i/bandwidth.
    The queue level counts every packet in the system, including the
    one in service. The mean is the packet sojourn total over the
    horizon, which equals the piecewise-constant integral exactly.

    One loop (_fifo_slices) runs over the trace's runs of at most _CHUNK
    packets, which the exact sums need to be at most 2**16, and carries
    only two scalars across: the service prefix sum and the running max
    of arrival minus it. Each slice's sojourns are extracted as they are
    made (_extract), into a list that math.fsum rounds once, raw terms
    of a slice past the domain of _fsum included. The list holds the
    exact total of nonnegative terms however the runs are cut, so the
    cuts change no bit. The pass reads no column of a trace that builds
    them on demand (a block shuffle's), only its runs. A bandwidth so
    small that the horizon or the sojourn total is not a finite float
    is a ValueError.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    sojourns, q = [], np.empty(min(len(trace), _CHUNK))
    for a, _, d, s in _fifo_slices(trace, bandwidth):
        _extract(np.subtract(d, a, out=s), sojourns, q, s)
    horizon = float(d[-1])
    try:
        area = math.fsum(sojourns)  # sum of sojourns = integral of the level
    except OverflowError:  # math.fsum found the total past the largest float
        area = math.inf
    if not (math.isfinite(horizon) and math.isfinite(area)):
        raise ValueError(f"bandwidth {float(bandwidth)!r} is too small: the horizon or sojourn total is not finite")
    return QueueRun(area / horizon, area, horizon)


def packet_stats(trace: PacketTrace, bandwidth: float, keep_path: bool = False) -> tuple[QueueStats, QueuePath | None]:
    """The QueueStats of packet_fifo(trace, bandwidth), and its QueuePath
    when keep_path is true (None otherwise).

    packet_fifo makes the mean, area and horizon; then a second pass of
    its slice loop sums the service times and idle gaps and merges each
    run's arrivals with the departures up to its last arrival, carrying
    the level and its peak. Only keep_path writes the 2n+1 points, the
    departures after the last arrival included. Neither pass reads a
    column of a trace that builds them on demand (a block shuffle's),
    only its runs. The merge's arrays are as long as the run plus the
    departures pending, at most the queue's peak: on acceptance 6's
    alpha = 1.2 trace (1,600,541 packets, peak 127,999 at load 0.5) the
    stats alone peak at 9.8 MiB under tracemalloc.
    """
    run = packet_fifo(trace, bandwidth)
    n = len(trace)
    service, idle, q = [], [], np.empty(min(n, _CHUNK))
    path = QueuePath(np.zeros(2 * n + 1), np.zeros(2 * n + 1)) if keep_path else None
    pending, d_last, level, peak, first, at = np.empty(0), math.inf, 0.0, 0.0, None, 1
    for a, sizes, d, s in _fifo_slices(trace, bandwidth):
        if first is None:  # the queue is empty until the first arrival
            first = float(a[0])
        _extract(np.divide(sizes, bandwidth, out=s), service, q, s)
        # and wherever an arrival finds every earlier packet gone; the
        # first packet's gap, a[0] - inf, adds a zero
        s[0] = a[0] - d_last
        np.subtract(a[1:], d[:-1], out=s[1:])
        _extract(np.maximum(s, 0.0, out=s), idle, q, s)
        # the departures up to the run's last arrival and its arrivals
        # are each sorted, so a stable sort of the departures followed by
        # the arrivals merges them, and at a tie it keeps the departure
        # first: the level never counts a packet that has already left
        dep = np.concatenate([pending, d])
        k = int(np.searchsorted(dep, a[-1], side="right"))
        t = np.concatenate([dep[:k], a])
        order = np.argsort(t, kind="stable")
        step = np.where(order >= k, 1.0, -1.0)
        step[0] += level  # the levels are whole numbers, so the carried sum is exact
        np.cumsum(step, out=step)
        if keep_path:  # at: 1 + the arrivals and departures merged so far
            np.take(t, order, out=path.times[at : at + len(t)])
            path.levels[at : at + len(t)] = step
        level, peak, pending, d_last, at = step[-1], max(peak, step.max()), dep[k:], d[-1], at + len(t)
    if keep_path:  # the departures after the last arrival, one step down each
        path.times[at:] = pending
        path.levels[at:] = level - np.arange(1.0, len(pending) + 1.0)
    busy = min(math.fsum(service), run.horizon)  # min() guards cumsum/fsum rounding skew
    empty = math.fsum(idle) + first
    stats = QueueStats(mean_queue=run.mean_queue, peak_queue=float(peak), horizon=run.horizon,
                       utilization=busy / run.horizon, empty_fraction=empty / run.horizon, area=run.area)
    return stats, path


def prefix_mean_queue(process: FluidOnOffProcess, sizes) -> list[tuple[int, float]]:
    """Mean queue of each prefix of sizes cycles, simulated independently
    from empty. sizes must be nondecreasing and within the process length.
    """
    sizes = list(sizes)
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be nondecreasing")
    return [(n, fluid_queue(process.prefix(n)).mean_queue) for n in sizes]

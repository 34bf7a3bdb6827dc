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


class QueueRun:
    """One queue run.

    mean_queue, area and horizon come from the kernel's one pass over
    its input. A fluid run keeps nothing else. A packet run keeps its
    trace and bandwidth, and its stats (a QueueStats) and path (a
    QueuePath) come from a rebuild, a second pass of the same slice
    loop that makes the statistics as it goes and writes the path only
    when path is read. That pass fills stats too, while stats read first
    keeps no path, so a caller that reads only the mean pays for neither
    and one that wants both reads path first.
    """

    def __init__(self, area: float, horizon: float, rebuild=None):
        self.area = area
        self.horizon = horizon
        self.mean_queue = area / horizon
        self._rebuild = rebuild  # keep_path -> (peak, busy time, empty time, path or None); None: a fluid run

    def _read(self, keep_path: bool):
        if self._rebuild is None:
            raise AttributeError("stats and path belong to packet runs: a fluid run keeps only "
                                 "mean_queue, area and horizon")
        peak, busy, empty, path = self._rebuild(keep_path)
        stats = QueueStats(mean_queue=self.mean_queue, peak_queue=peak, horizon=self.horizon,
                           utilization=busy / self.horizon, empty_fraction=empty / self.horizon, area=self.area)
        return vars(self).setdefault("stats", stats), path

    @cached_property
    def stats(self) -> QueueStats:
        return self._read(False)[0]

    @cached_property
    def path(self) -> QueuePath:
        return self._read(True)[1]


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
    it after one level. Of the 16 idle-gap slices of the packet rebuild
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
    """The cycle levels of process, one run of process._slices(_CHUNK),
    at most _CHUNK cycles, at a time, each scan carried from run to run
    in scalars.

    Yields (on, off, before, q_peak, drain, q_end) for the next cycles:
    their on and off lengths, the level the run starts at, and each
    cycle's peak level, drain time and end level. The levels are buffers
    reused by the next run, and so are the silences of a process that
    computes them a run at a time (reorder_nonoverlap's), whose fourth
    buffer this loop then holds.
    """
    m = process.m
    rise, w, q_end = (np.empty(min(process.n_cycles, _CHUNK)) for _ in range(3))
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
        drain = np.minimum(off, qp, out=r)  # time the queue stays positive while off
        before, level = level, qe[-1]
        yield on, off, before, qp, drain, qe


def fluid_queue(process: FluidOnOffProcess) -> QueueRun:
    """Exact workload process of the on/off source against a unit server.

    During an on period the queue rises at m-1; afterwards it drains
    at 1 until empty. Each cycle is a trapezoid or triangle. The on and
    off areas of the cycles are each summed exactly and rounded once,
    so summing adds no rounding beyond that of each cycle's terms.

    One loop (_fluid_slices) runs over runs of at most _CHUNK cycles,
    which the exact sums need to be at most 2**16, and carries only
    scalars across: the cumulative rise minus off w, its running
    minimum, and the previous cycle's end level. Each run's on, off and
    area terms are extracted as they are made (_extract), into one list
    per sum that math.fsum rounds once. The run keeps only its
    mean_queue, area and horizon: reading its stats or path is an
    AttributeError. A process of reorder_nonoverlap is read a run at a
    time, its silences computed into a buffer, so the pass builds no
    off_lengths: it holds five _CHUNK-cycle buffers and no array as long
    as the process. Cycles so long that the horizon or the area is not a
    finite float are a ValueError, as in packet_fifo.
    """
    buf = np.empty(min(process.n_cycles, _CHUNK))
    on_sum, off_sum, on_area, off_area = [], [], [], []
    # a level or an area past the largest float is the error below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for on, off, before, q_peak, drain, q_end in _fluid_slices(process):
            # on areas (0.5 * (q_start + q_peak)) * on, then the off areas
            # drain * (q_peak - 0.5 * drain)
            x = buf[: len(on)]
            x[0] = before + q_peak[0]
            np.add(q_end[:-1], q_peak[1:], out=x[1:])
            x *= 0.5
            x *= on
            q = q_end  # read: from here on the end levels' buffer is _extract's scratch
            _extract(x, on_area, q, x)
            np.multiply(drain, 0.5, out=x)
            np.subtract(q_peak, x, out=x)
            x *= drain
            _extract(x, off_area, q, x)
            _extract(on, on_sum, q, x)
            _extract(off, off_sum, q, x)
    try:
        horizon = math.fsum(on_sum) + math.fsum(off_sum)
        area = math.fsum(on_area) + math.fsum(off_area)
    except OverflowError:  # math.fsum found a total past the largest float
        horizon = area = math.inf
    if not (math.isfinite(horizon) and math.isfinite(area)):
        raise ValueError("the cycles are too long: the horizon or the queue area is not a finite float")
    return QueueRun(area, horizon)


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
    cuts change no bit. The run keeps only the trace and bandwidth;
    stats and path come from a second pass of the same loop, which sums
    the service times and idle gaps and merges each run's arrivals with
    the departures up to its last arrival, carrying the level and its
    peak; only path writes the 2n+1 points, the departures after the
    last arrival included. Neither pass reads a column of a trace that
    builds them on demand (a block shuffle's), only its runs. The merge's
    arrays are as long as the run plus the departures pending, at most
    the queue's peak: on acceptance 6's alpha = 1.2 trace (1,600,541
    packets, peak 127,999 at load 0.5) stats peaks at 9.8 MiB under
    tracemalloc. A bandwidth so small that the horizon or the sojourn
    total is not a finite float is a ValueError.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive and finite")
    n = len(trace)
    size = min(n, _CHUNK)
    sojourns, q = [], np.empty(size)
    for a, _, d, s in _fifo_slices(trace, bandwidth):
        _extract(np.subtract(d, a, out=s), sojourns, q, s)
    horizon = float(d[-1])
    try:
        area = math.fsum(sojourns)  # sum of sojourns = integral of the level
    except OverflowError:  # math.fsum found the total past the largest float
        area = math.inf
    if not (math.isfinite(horizon) and math.isfinite(area)):
        raise ValueError(f"bandwidth {float(bandwidth)!r} is too small: the horizon or sojourn total is not finite")

    def rebuild(keep_path: bool):
        service, idle, q = [], [], np.empty(size)
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
        busy = min(math.fsum(service), horizon)  # min() guards cumsum/fsum rounding skew
        return float(peak), busy, math.fsum(idle) + first, path

    return QueueRun(area, horizon, rebuild)


def prefix_mean_queue(process: FluidOnOffProcess, sizes) -> list[tuple[int, float]]:
    """Mean queue of each prefix of sizes cycles, simulated independently
    from empty. sizes must be nondecreasing and within the process length.
    """
    sizes = list(sizes)
    if any(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1)):
        raise ValueError("sizes must be nondecreasing")
    return [(n, fluid_queue(process.prefix(n)).mean_queue) for n in sizes]

"""Synthetic traffic: heavy-tailed on/off fluid sources and packetization.

The on/off source alternates between transmitting at a fixed rate m
(in units of the server rate) for a heavy-tailed duration and staying
silent. OFF_MODELS names the three off-period rules, by the names the
CLI's --off-model takes: "iid", independent exponential silences
matched in mean to a target load; "reordered", silences proportional
to the preceding burst (which pins the long-run load exactly and keeps
queue excursions from overlapping); and "bounded", silences stretched
so that no single burst can push the mean queue above a chosen bound.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .traces import _MAX_SIZE, PacketTrace, _equal_sizes

__all__ = [
    "HeavyTailSpec",
    "FluidOnOffProcess",
    "GeneratorSpec",
    "SyntheticSource",
    "sample_heavy_tail",
    "generate_onoff",
    "reorder_nonoverlap",
    "packetize",
    "generate_poisson",
]

OFF_MODELS = ("iid", "reordered", "bounded")
_M_RULE = "m must exceed 1, otherwise no queue can form"


@dataclass(frozen=True)
class HeavyTailSpec:
    """Pareto-form tail P[X > x] = (x_min/x)**tail_index.

    tail_index in (1, 2) gives a finite mean but infinite variance,
    the regime where burst sizes have no typical scale. x_max, when
    set, caps every sample (quantile capping), restoring all moments.
    """

    tail_index: float
    x_min: float
    x_max: float | None = None

    def __post_init__(self):
        if not 1.0 < self.tail_index < 2.0:
            raise ValueError("tail_index must lie in (1, 2)")
        # written so that NaN fails each test
        if not 0 < self.x_min < np.inf:
            raise ValueError("x_min must be positive and finite")
        if self.x_max is not None and not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def mean(self) -> float:
        """Mean of what sample_heavy_tail draws: with a = tail_index,
        a * x_min / (a - 1) uncapped, and with the cap
        x_min + x_min / (a - 1) * (1 - (x_min / x_max)**(a - 1)),
        which is the uncapped mean when x_max is inf."""
        a = self.tail_index
        mean = a * self.x_min / (a - 1.0)
        if self.x_max is not None:
            mean -= self.x_min / (a - 1.0) * (self.x_min / self.x_max) ** (a - 1.0)
        return mean


@dataclass(eq=False)
class FluidOnOffProcess:
    """Alternating on/off cycles; cycle i is on for on_lengths[i] seconds
    then silent for off_lengths[i]. While on, work arrives at rate m
    (server rate normalized to 1), and m must exceed 1."""

    on_lengths: np.ndarray
    off_lengths: np.ndarray
    m: float
    # whether every cycle starts and ends empty, so that the fluid kernel
    # takes its areas without scanning its levels (queue_sim._fluid_slices):
    # never for silences held as an array, as only a pass over them could tell
    _drains_each_cycle = False

    def __post_init__(self):
        on = np.asarray(self.on_lengths, dtype=np.float64)
        off = np.asarray(self.off_lengths, dtype=np.float64)
        _check_cycles(self.m, on.shape, off.shape, _extremes(on), _extremes(off))
        on.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "on_lengths", on)
        object.__setattr__(self, "off_lengths", off)

    @property
    def n_cycles(self) -> int:
        return len(self.on_lengths)

    def prefix(self, n_cycles: int) -> "FluidOnOffProcess":
        if not 1 <= n_cycles <= self.n_cycles:
            raise ValueError("prefix length out of range")
        return self._head(n_cycles)

    def _head(self, n_cycles: int) -> "FluidOnOffProcess":
        """The first n_cycles cycles, as slices of the frozen arrays, which
        already hold every invariant __post_init__ checks: nothing is
        checked again."""
        head = FluidOnOffProcess.__new__(FluidOnOffProcess)
        head.on_lengths, head.off_lengths, head.m = self.on_lengths[:n_cycles], self.off_lengths[:n_cycles], self.m
        return head

    def _slices(self, size: int):
        """(on, off) lengths of the cycles in order, at most size cycles
        at a time: read-only views of the arrays here. reorder_nonoverlap's
        process computes each run's silences into a buffer that the next
        run reuses; a caller reads each run before it takes the next."""
        on, off = self.on_lengths, self.off_lengths
        for lo in range(0, len(on), size):
            yield on[lo : lo + size], off[lo : lo + size]


def _extremes(x: np.ndarray) -> tuple[float, float]:
    """The smallest and the largest value of x, nan if x holds one."""
    return x.min(initial=np.inf), x.max(initial=-np.inf)


def _check_cycles(m: float, on_shape: tuple, off_shape: tuple, on_range: tuple, off_range: tuple) -> None:
    """Raise the ValueError of the first rule of FluidOnOffProcess, in its
    order, that a process of rate m breaks whose bursts and silences have
    these shapes and these (smallest, largest) values."""
    if not m > 1:
        raise ValueError(_M_RULE)
    if len(on_shape) != 1 or on_shape != off_shape:
        raise ValueError("on_lengths and off_lengths must be 1-d and equal length")
    if on_shape == (0,):
        raise ValueError("process needs at least one cycle")
    if not np.isfinite([*on_range, *off_range]).all():
        raise ValueError("non-finite cycle length")
    if not on_range[0] > 0:
        raise ValueError("on_lengths must be positive")
    if off_range[0] < 0:
        raise ValueError("off_lengths must be nonnegative")


class _Reordered(FluidOnOffProcess):
    """The process of reorder_nonoverlap: the frozen bursts and the ratio
    m/lam - 1 of each silence to its burst. A silence is computed where
    it is read, as the product on * ratio that an eager silence array
    holds, so its bits are the same: a run at a time in _slices, and
    the whole off_lengths array, frozen, only when something reads it.
    Every silence is at least its burst's rise, on * (m - 1), so every
    cycle drains within itself (queue_sim._fluid_slices)."""

    _drains_each_cycle = True

    def __init__(self, on_lengths: np.ndarray, ratio: float, m: float):
        self.on_lengths, self._ratio, self.m = on_lengths, ratio, m

    @cached_property
    def off_lengths(self) -> np.ndarray:
        off = self.on_lengths * self._ratio
        off.setflags(write=False)
        return off

    def _head(self, n_cycles: int) -> "FluidOnOffProcess":
        return _Reordered(self.on_lengths[:n_cycles], self._ratio, self.m)

    def _slices(self, size: int):
        on, ratio = self.on_lengths, self._ratio
        buf = np.empty(min(len(on), size))
        for lo in range(0, len(on), size):
            x = on[lo : lo + size]
            yield x, np.multiply(x, ratio, out=buf[: len(x)])


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random on/off process, checked before any draw.

    off_model is one of OFF_MODELS. lambda_target is the intended
    long-run work arrival rate for the iid and reordered models; the
    bounded model ignores it and needs the queue bound q instead.
    """

    m: float
    tail: HeavyTailSpec
    n_cycles: int
    lambda_target: float | None = None
    off_model: str = "iid"
    q: float | None = None

    def __post_init__(self):
        if not self.m > 1:
            raise ValueError(_M_RULE)
        if self.m == np.inf:
            raise ValueError("m must be finite")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if self.n_cycles > sys.maxsize:
            raise ValueError(f"n_cycles {self.n_cycles} is past the largest array length")
        if self.off_model not in OFF_MODELS:
            raise ValueError(f"off_model must be one of {OFF_MODELS}")
        if self.off_model == "bounded":
            if self.q is None or not self.q > 0:
                raise ValueError("the bounded model needs a positive queue bound q")
        elif self.lambda_target is None:
            raise ValueError(f"the {self.off_model} model needs lambda_target")
        elif not 0 < self.lambda_target < 1:
            raise ValueError("lambda_target must lie in (0, 1)")
        elif not float(self.m) / float(self.lambda_target) - 1.0 < np.inf:  # the silence per unit of burst
            raise ValueError(f"the silence ratio m/lambda_target - 1 is past the largest float: "
                             f"m {self.m!r}, lambda_target {self.lambda_target!r}")


def sample_heavy_tail(spec: HeavyTailSpec, u, *, out: np.ndarray | None = None):
    """Inverse-transform sample x_min * u**(-1/tail_index) for u in (0, 1].

    u may be a scalar or an array; the result matches. u=1 maps to
    x_min and u -> 0 walks out the tail. Samples are capped at x_max
    when the spec has one. The result is one new array (0-d for scalar
    u), scaled and capped in place; u is never written. Given out, a
    float64 array of u's shape, as in numpy's ufuncs, the samples are
    written there instead and out is returned: out may be u itself, as
    generate_onoff draws its bursts into the buffer of their uniforms.
    Each step is the same elementwise operation either way, so the bits
    are too. Without x_max, a largest draw, that of the smallest u, past
    the largest float is a ValueError that names x_min; with it, such a
    draw is capped to x_max exactly.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    # the extremes of u, found without an array of u's length; fmin and
    # fmax skip nan, which passes, as it passes u <= 0 and u > 1
    u_min = np.fmin.reduce(u_arr, axis=None, initial=np.inf)
    if u_min <= 0 or np.fmax.reduce(u_arr, axis=None, initial=-np.inf) > 1:
        raise ValueError("u must lie in (0, 1]")
    with np.errstate(over="ignore"):  # an inf draw is refused here, or capped below
        if spec.x_max is None and not spec.x_min * np.power(u_min, -1.0 / spec.tail_index) < np.inf:
            raise ValueError(f"x_min {spec.x_min!r} is too large for tail index {spec.tail_index!r}: "
                             f"the draw of u = {float(u_min)!r} is past the largest float; set x_max to cap it")
        x = np.power(u_arr, -1.0 / spec.tail_index, out=np.empty(u_arr.shape) if out is None else out)
        x *= spec.x_min  # the same product as x_min * x
    if spec.x_max is not None:
        np.minimum(x, spec.x_max, out=x)
    return float(x) if x.ndim == 0 else x


def generate_onoff(spec: GeneratorSpec, rng: np.random.Generator) -> FluidOnOffProcess:
    """Draw spec.n_cycles on/off cycles from rng: the only code that draws
    on/off cycles, for packet traces and fluid sweeps alike, in each off
    model. The bursts, sample_heavy_tail of 1 - rng.random(n), are drawn
    into the uniforms' buffer. "reordered" gives reorder_nonoverlap's
    process of the bursts, which holds its silence rule; the others hold
    their silences in an array. Silences past the largest float are
    refused, naming the longest burst and the silence ratio m/lam - 1,
    x_min and the silence mean, or q and the longest burst."""
    u = rng.random(spec.n_cycles)
    on = sample_heavy_tail(spec.tail, np.subtract(1.0, u, out=u), out=u)
    try:
        if spec.off_model == "reordered":
            return reorder_nonoverlap(on, spec.m, spec.lambda_target)
        if spec.off_model == "bounded":
            off = _bounded_offs(on, spec.m, spec.q)
        else:
            mean = spec.tail.mean * (spec.m / spec.lambda_target - 1.0)
            off = rng.exponential(mean, len(on))
        return FluidOnOffProcess(on, off, spec.m)
    except ValueError:
        longest = float(on.max())
        if spec.off_model == "reordered":
            ratio = spec.m / spec.lambda_target - 1.0
            if longest * ratio < np.inf:
                raise
            raise ValueError(f"bursts of up to {longest!r} s and the silence ratio m/lam - 1 = {ratio!r} "
                             "make silences past the largest float") from None
        if np.isfinite(off).all():
            raise
        if spec.off_model == "bounded":
            raise ValueError(f"q {spec.q!r} and bursts of up to {longest!r} s make "
                             "bounded silences past the largest float") from None
        raise ValueError(f"x_min {spec.tail.x_min!r} makes the silence mean {mean!r} too large: "
                         f"exponential silences of that mean are drawn past the largest float") from None


def reorder_nonoverlap(on_lengths, m: float, lam: float) -> FluidOnOffProcess:
    """Pair each burst X with silence X*(m/lam - 1).

    Every queue excursion then drains completely inside its own cycle,
    and over whole cycles the arrival rate is exactly lam: work m*X
    arrives in elapsed time X*m/lam.

    The process keeps the bursts, frozen, and the ratio m/lam - 1, not
    a silence array: the queue kernels compute the silences a run at a
    time (FluidOnOffProcess._slices), and off_lengths is built on first
    read, with the bits of on * (m/lam - 1). It is checked as
    FluidOnOffProcess(on, on * (m/lam - 1), m) is, with the same errors:
    the ratio is positive when m > 1, so the silences' extremes are
    those of the shortest and the longest burst times the ratio.
    """
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    on = np.asarray(on_lengths, dtype=np.float64)
    ratio = m / lam - 1.0
    shortest, longest = _extremes(on)
    # a silence past the largest float is the check's error, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        _check_cycles(m, on.shape, on.shape, (shortest, longest), (shortest * ratio, longest * ratio))
    on.setflags(write=False)
    return _Reordered(on, ratio, m)


def _bounded_offs(on: np.ndarray, m: float, q: float) -> np.ndarray:
    # first term lets the excursion drain; second stretches the cycle
    # until the burst's own triangular area, averaged over the cycle,
    # is at most q. Silences grow quadratically with their bursts, so
    # the long-run arrival rate tends to zero as bursts pile up
    with np.errstate(over="ignore", invalid="ignore"):  # generate_onoff names an overflow
        return np.maximum((m - 1.0) * on, (m - 1.0) * m * on * on / (2.0 * q) - on)


# packets are emitted in groups of at most this many cycles and, within
# a group, pieces of at most this many packets
_GROUP = 1 << 16


def _counts(on, rate_bytes, packet_size):
    """floor(on * rate_bytes / packet_size): the packets each on period
    of a group emits, as int64.

    A group whose float total reaches 2**62 (inf and nan too) is refused:
    the float sum of nonnegative counts errs by far less than a factor
    of 2, so below it every count, and the group's total that _emit's
    cumsum and packetize's sizing reach, fits in int64."""
    with np.errstate(over="ignore"):  # a product past the largest float is the error below
        x = on * rate_bytes
    x /= packet_size
    np.floor(x, out=x)
    if not (total := float(x.sum())) < 2.0**62:
        raise ValueError(f"too many packets: on periods of up to {float(on.max()):g} s at {rate_bytes:g} bytes/s "
                         f"emit {total:.4g} packets of {packet_size} bytes, more than 2**62 in one group of cycles")
    return x.astype(np.int64)


def _emit(on, off, rate_bytes, packet_size, t0, times):
    """Write the timestamps of the packets that one run of cycles from t0
    sends at rate_bytes into the caller's array times, in order, until
    either runs out; return (packets, silent): all the packets the
    cycles emit, held or not, and the on periods that emit none.

    Packet j of a cycle starting at s leaves at s + j * spacing: j, a
    whole number exact in float64, is written in place, scaled by
    spacing and shifted by s. Cycles are taken in groups of at most
    _GROUP, their packets written in pieces of at most _GROUP, a piece
    possibly cutting a cycle; a cycle's start is the running sum of the
    lengths before it, carried from group to group. So each time has the
    bits of the whole run at once, and emitting holds the temporaries of
    one group and one piece, however many cycles and packets there are.
    """
    spacing = packet_size / rate_bytes
    at, elapsed, silent = 0, 0.0, 0
    for lo in range(0, len(on), _GROUP):
        count = _counts(on[lo : lo + _GROUP], rate_bytes, packet_size)
        silent += len(count) - np.count_nonzero(count)
        ends = np.cumsum(count)  # the group's packets up to each cycle's last
        length = on[lo : lo + _GROUP] + off[lo : lo + _GROUP]
        length[0] += elapsed  # the first carry, 0.0, changes no bit
        total = np.cumsum(length)
        starts = np.empty_like(total)
        starts[0], starts[1:] = elapsed, total[:-1]
        np.add(t0, starts, out=starts)
        elapsed = total[-1]
        stop = min(int(ends[-1]), len(times) - at)  # the group's packets that times holds
        for q0 in range(0, stop, _GROUP):
            q1 = min(q0 + _GROUP, stop)
            # the cycles that emit packets q0 to q1 - 1 of the group, and
            # how many each emits among them
            i0, i1 = np.searchsorted(ends, q0, "right"), np.searchsorted(ends, q1 - 1, "right") + 1
            first = ends[i0:i1] - count[i0:i1]
            emitted = np.minimum(ends[i0:i1], q1) - np.maximum(first, q0)
            piece = times[at + q0 : at + q1]
            piece[...] = np.arange(q0, q1)
            piece -= np.repeat(first, emitted)
            piece *= spacing
            piece += np.repeat(starts[i0:i1], emitted)
        at += int(ends[-1])
    return at, silent


def _check_packet_size(packet_size: int) -> None:
    """The packet size rule of every generator: from 1 byte to the largest size a PacketTrace holds."""
    if packet_size < 1:
        raise ValueError("packet_size must be >= 1 byte")
    if packet_size > _MAX_SIZE:
        raise ValueError(f"packet_size must be <= {_MAX_SIZE} bytes")


def _check_emission(packet_size: int, server_rate: float, m: float) -> None:
    """The packet size, server rate and peak rate checks of packetize and SyntheticSource."""
    _check_packet_size(packet_size)
    if not 0 < server_rate < np.inf:
        raise ValueError("server_rate must be positive and finite")
    if not float(m) * float(server_rate) < np.inf:
        raise ValueError(f"m * server_rate is past the largest float: m {m!r}, server_rate {server_rate!r}")


def packetize(process: FluidOnOffProcess, packet_size: int, server_rate: float) -> tuple[PacketTrace, int]:
    """Turn the fluid process into equal-size packets: (trace,
    silent_on_periods).

    During each on period packets of packet_size bytes leave every
    packet_size/(m*server_rate) seconds starting at the period start;
    floor(on * m * server_rate / packet_size) of them fit. On periods
    shorter than one spacing emit nothing; they are counted in
    silent_on_periods rather than treated as errors. A process that
    emits too many packets for int64 to count is a ValueError.

    The trace holds one packet-length array, its timestamps, sized from
    the on periods' packet counts a group of _GROUP cycles at a time and
    filled by _emit; its sizes are stored once (traces._equal_sizes).
    """
    _check_emission(packet_size, server_rate, process.m)
    on, rate_bytes = process.on_lengths, process.m * server_rate
    times = np.empty(sum(int(_counts(on[lo : lo + _GROUP], rate_bytes, packet_size).sum())
                         for lo in range(0, len(on), _GROUP)))
    if len(times) == 0:
        raise ValueError("no packets emitted; every on period is shorter than one packet spacing")
    _, silent = _emit(on, process.off_lengths, rate_bytes, packet_size, 0.0, times)
    return PacketTrace(times, _equal_sizes(packet_size, len(times))), int(silent)


def generate_poisson(rate: float, packet_size: int, n: int, rng: np.random.Generator) -> PacketTrace:
    """n equal-size packets with exponential inter-arrivals (mean 1/rate)
    drawn from rng, rebased so the first packet arrives at t=0. A rate
    so small that the last arrival passes the largest float is refused."""
    if not 0 < rate < np.inf:
        raise ValueError("rate must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_packet_size(packet_size)
    ts = rng.exponential(1.0 / rate, n)
    np.cumsum(ts, out=ts)
    if not ts[-1] < np.inf:  # nan too: the arrivals only grow
        raise ValueError(f"rate {rate!r} is too small for n {n}: the arrival times pass the largest float")
    ts -= ts[0]
    return PacketTrace(ts, _equal_sizes(packet_size, n))


@dataclass(frozen=True)
class SyntheticSource:
    """A generator recipe plus the packetization that turns it into traces.

    server_rate, in bytes/s, is the rate the recipe's send rate m is a
    multiple of: a queue served at it sees the packetized load approach
    the recipe's lambda_target. sample_size_sweep serves its traces at the
    bandwidth it is given, which need not be this rate.
    """

    spec: GeneratorSpec
    packet_size: int
    server_rate: float

    def __post_init__(self):
        # trace(n_packets=...) never calls packetize, so check here too
        _check_emission(self.packet_size, self.server_rate, self.spec.m)
        # the most packets a capped burst emits, by _counts' float steps,
        # which are monotone: none means no burst emits one
        if (x_max := self.spec.tail.x_max) is not None:
            with np.errstate(over="ignore"):
                most = np.float64(x_max) * (self.spec.m * self.server_rate)
            if not np.floor(most / self.packet_size):
                raise ValueError("no packets emitted; every on period is shorter than one packet spacing")

    def trace(self, rng: np.random.Generator, n_packets: int | None = None) -> PacketTrace:
        """Fresh trace from `rng`; exactly n_packets when given, else one
        full run of spec.n_cycles cycles. Its sizes are stored once, as
        packetize's are. Given n_packets, _emit fills one array of exactly
        that many timestamps from chunks of cycles drawn by generate_onoff,
        each starting where the last ended; the packets that do not fit
        are never written. A capped recipe that cannot emit a packet is
        refused when built; an uncapped one whose bursts almost never
        reach one packet spacing is refused after 1000 chunks without one.
        """
        if n_packets is None:
            trace, _ = packetize(generate_onoff(self.spec, rng), self.packet_size, self.server_rate)
            return trace
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        times, have, t0 = np.empty(n_packets), 0, 0.0
        # a cycle yields about mean_on * m * rate / size packets; chunk by
        # what is still owed, not by n_cycles, so small requests on long
        # recipes stay small
        per_cycle = self.spec.tail.mean * self.spec.m * self.server_rate / self.packet_size
        rounds = 0
        while have < n_packets:
            rounds += 1
            # only an uncapped tail gets here without a packet: its bursts
            # can reach one spacing, however rarely, so a count caps the wait
            if rounds > 1000 and have == 0:
                raise ValueError("packetization produced no packets; check packet_size vs on periods")
            chunk = int(np.clip((n_packets - have) / max(per_cycle, 1e-12), 256, 1 << 20))
            process = generate_onoff(replace(self.spec, n_cycles=chunk), rng)
            on, off = process.on_lengths, process.off_lengths
            have += _emit(on, off, self.spec.m * self.server_rate, self.packet_size, t0, times[have:])[0]
            t0 = float(t0 + (on + off).sum())
        return PacketTrace(times, _equal_sizes(self.packet_size, n_packets))

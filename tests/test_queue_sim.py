import bisect
import dataclasses
import math
import re
import tracemalloc
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trafficlab as tl
from trafficlab import queue_sim, synth
from trafficlab.queue_sim import _fsum, prefix_mean_queue

# _fsum sums values below this magnitude by error-free extraction; a
# slice holding one at or past it hands its raw terms to math.fsum
FSUM_LIMIT = 2.0**977


def rational_sum(x):
    """The sum of x rounded once to a float, by exact rational arithmetic
    (Fraction division rounds correctly); no math.fsum."""
    return float(sum(map(Fraction, x.tolist())))


def fsum_spied(x):
    """_fsum(x), and the length of each term list it handed math.fsum:
    the level sums of each slice, and the terms a slice has left where
    the domain ends, the raw terms of a slice past the limit included."""
    lengths = []

    def fsum(terms):
        terms = list(terms)
        lengths.append(len(terms))
        return math.fsum(terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queue_sim, "math", types.SimpleNamespace(fsum=fsum))
        return _fsum(x), lengths


def fluid(on, off, m):
    return tl.FluidOnOffProcess(np.asarray(on, float), np.asarray(off, float), m)


def step_integral(path):
    dt = np.diff(path.times)
    return float(np.sum(dt * path.levels[:-1]))


def lexsort_path(ts, sizes, bandwidth):
    """Path, peak and empty time built the direct way: sort all arrival
    and departure events by time, a departure before a tied arrival, and
    accumulate +1/-1 steps. Departures use packet_fifo's own formula, so
    only the event ordering is under test."""
    service = sizes / bandwidth
    s_prefix = np.cumsum(service)
    d = s_prefix + np.maximum.accumulate(ts - np.concatenate(([0.0], s_prefix[:-1])))
    n = len(ts)
    times = np.concatenate([ts, d])
    steps = np.concatenate([np.ones(n), -np.ones(n)])
    order = np.lexsort((steps, times))
    ev_times = times[order]
    levels = np.cumsum(steps[order])
    dt = np.diff(ev_times)
    empty = math.fsum(dt[levels[:-1] == 0.0]) + float(ev_times[0])
    return (
        np.concatenate(([0.0], ev_times)),
        np.concatenate(([0.0], levels)),
        float(levels.max()),
        empty,
    )


def argsort_merge(ts, sizes, bandwidth):
    """The path merged over the whole trace at once, as packet_fifo once
    built it: a stable argsort of all n departures followed by all n
    arrivals, so a departure comes first at a tie, and the cumsum of the
    +1/-1 steps, behind the origin (0, 0). Departures use packet_fifo's
    own formula, so only the merge is under test."""
    service = sizes / bandwidth
    s_prefix = np.cumsum(service)
    d = s_prefix + np.maximum.accumulate(ts - np.concatenate(([0.0], s_prefix[:-1])))
    n = len(ts)
    times = np.concatenate([d, ts])
    order = np.argsort(times, kind="stable")
    path_times, path_levels = np.zeros(2 * n + 1), np.zeros(2 * n + 1)
    np.take(times, order, out=path_times[1:])
    np.cumsum(np.where(order >= n, 1.0, -1.0), out=path_levels[1:])
    return path_times, path_levels


def lindley_sojourns(ts, sizes, bandwidth):
    """Sojourn of each packet from the waiting-time recursion
    W_i = max(0, W_{i-1} + S_{i-1} - (a_i - a_{i-1})), one packet at a time."""
    out = []
    wait = prev_a = prev_s = 0.0
    for i, (a, size) in enumerate(zip(ts.tolist(), sizes.tolist())):
        s = size / bandwidth
        if i:
            wait = max(0.0, wait + prev_s - (a - prev_a))
        out.append(wait + s)
        prev_a, prev_s = a, s
    return out


def fluid_cycles(on, off, m):
    """Each cycle's area while on, area while off and peak level, in order,
    from q = max(0, q + (m-1) on - off): a trapezoid while on, and a
    trapezoid or triangle while off."""
    q = 0.0
    for x, y in zip(on, off):
        top = q + (m - 1.0) * x
        on_area = 0.5 * (q + top) * x
        q = max(0.0, top - y)
        # still queued at the cycle end: a trapezoid over the whole off
        # period; drained: a triangle lasting `top` seconds
        yield on_area, (0.5 * (top + q) * y if q > 0.0 else 0.5 * top * top), top


def fluid_recursion(on, off, m):
    """Mean, area and peak of the fluid queue, one cycle at a time: the
    areas of fluid_cycles summed by math.fsum over Python floats."""
    cycles = list(fluid_cycles(on, off, m))
    area = math.fsum(a for c in cycles for a in c[:2])
    peak = max((c[2] for c in cycles), default=0.0)
    return area / (math.fsum(on) + math.fsum(off)), area, peak


def fluid_level_bound(on, off, m, peak):
    """Bound on a fluid level computed by the kernel against the same
    level from fluid_recursion: 4 n eps (S + peak), S = sum((m-1) on + off).

    S bounds every partial sum either side accumulates, and summing k
    terms one at a time errs by at most (k-1)(eps/2) S. The kernel's
    cycle-end levels subtract two such cumulative values, the recursion
    accumulates a third, and the products per cycle add a few eps of
    the peak. Over 6000 seeded processes of up to 600 cycles (dyadic,
    heavy-tailed and near-critical) the largest error of the mean, of
    the area over the horizon and of a prefix mean against the
    recursion stopped at the prefix was 0.03 of this bound."""
    s = math.fsum([(m - 1.0) * x + y for x, y in zip(on, off)])
    return 4 * len(on) * np.finfo(float).eps * (s + peak)


def bits(x):
    return float(x).hex()


def fifo_formulas(ts, sizes, bandwidth):
    """packet_fifo's figures written out with a new array for every
    intermediate: (area, horizon, stats fields, path times, path levels)."""
    service = sizes / bandwidth
    s_prefix = np.cumsum(service)
    s_before = np.concatenate(([0.0], s_prefix[:-1]))
    d = s_prefix + np.maximum.accumulate(ts - s_before)
    horizon = float(d[-1])
    area = math.fsum((d - ts).tolist())
    busy = min(math.fsum(service.tolist()), horizon)
    idle = ts[1:] - d[:-1]
    empty = math.fsum(idle[idle > 0.0].tolist()) + float(ts[0])
    times, levels, peak, _ = lexsort_path(ts, sizes, bandwidth)
    stats = (area / horizon, peak, horizon, busy / horizon, empty / horizon, area)
    return area, horizon, stats, times, levels


def fluid_formulas(on, off, m):
    """fluid_queue's figures written out with a new array for every
    intermediate: (area, horizon)."""
    rise = (m - 1.0) * on
    w = np.cumsum(rise - off)
    q_end = w - np.minimum(np.minimum.accumulate(w), 0.0)
    q_start = np.concatenate(([0.0], q_end[:-1]))
    q_peak = q_start + rise
    drain = np.minimum(off, q_peak)
    area_on = 0.5 * (q_start + q_peak) * on
    area_off = drain * (q_peak - 0.5 * drain)
    horizon = math.fsum(on.tolist()) + math.fsum(off.tolist())
    area = math.fsum(area_on.tolist()) + math.fsum(area_off.tolist())
    return area, horizon


def packet_run(trace, bandwidth):
    """packet_fifo's run of the trace, then packet_stats' stats and path."""
    return tl.packet_fifo(trace, bandwidth), *tl.packet_stats(trace, bandwidth, keep_path=True)


def assert_run_is(made, formulas):
    """The figures made are those of formulas, bit for bit: a fluid run's
    mean, area and horizon, and for a packet_run its stats and path too."""
    area, horizon, *packet = formulas
    run, got, path = made if packet else (made, None, None)
    figures = (bits(run.area), bits(run.horizon), bits(run.mean_queue))
    assert figures == (bits(area), bits(horizon), bits(area / horizon))
    if packet:
        stats, times, levels = packet
        fields = (got.mean_queue, got.peak_queue, got.horizon, got.utilization, got.empty_fraction, got.area)
        assert [bits(x) for x in fields] == [bits(x) for x in stats]
        assert path.times.tobytes() == times.tobytes()
        assert path.levels.tobytes() == levels.tobytes()


# slice lengths for the kernels' loops: at 1, 2, 3 and 7 packets or cycles
# a slice, every carry crosses slice boundaries; None keeps _CHUNK
SLICES = (1, 2, 3, 7, None)


def assert_runs_are(make_run, formulas):
    """assert_run_is for make_run() with the kernels' slice length set to
    each of SLICES, a packet run's stats and path made under it too."""
    for chunk in SLICES:
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(queue_sim, "_CHUNK", chunk)
            assert_run_is(make_run(), formulas)


# strictly positive on lengths, dyadic so horizons accumulate exactly
on_lists = st.lists(st.integers(1, 512).map(lambda k: k / 64.0), min_size=1, max_size=50)
# cycle lengths that round: off periods are often empty, so busy
# periods run over many cycles and levels accumulate
cycles = st.lists(
    st.tuples(st.floats(1e-3, 1e3), st.one_of(st.just(0.0), st.floats(0.0, 1e3))), min_size=1, max_size=60
)

# m from just above 1, where the rise is a small multiple of the on length
ms = st.one_of(st.floats(1.0, 1.0 + 1e-9, exclude_min=True), st.floats(1.0, 8.0, exclude_min=True))
# arrivals with runs of equal timestamps and gaps across nine orders of magnitude
fifo_pairs = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), st.integers(1, 1500)), min_size=1, max_size=80
)


class TestFluidQueue:
    def test_single_triangle(self):
        # X=3, m=2: rises to 3 over the on period, drains in 3 of the 5
        # off seconds; area is the m(m-1)X^2/2 triangle
        run = tl.fluid_queue(fluid([3.0], [5.0], 2.0))
        assert run.area == pytest.approx(9.0, rel=1e-12)
        assert run.horizon == pytest.approx(8.0)
        assert run.mean_queue == pytest.approx(9.0 / 8.0, rel=1e-12)

    def test_carryover_between_cycles(self):
        # first off too short to drain: 3 - 2 = 1 carries into cycle 2
        run = tl.fluid_queue(fluid([3.0, 1.0], [2.0, 10.0], 2.0))
        assert run.area == pytest.approx(12.0, rel=1e-12)
        assert run.mean_queue == pytest.approx(0.75, rel=1e-12)

    def test_reordered_process_mean(self):
        # on = [1/2, 5/4, 2], m=2, lam=1/2; exact rational mean is 31/80
        proc = tl.reorder_nonoverlap(np.array([0.5, 1.25, 2.0]), 2.0, 0.5)
        assert tl.fluid_queue(proc).mean_queue == pytest.approx(0.3875, rel=1e-12)

    @given(on=on_lists, m=st.floats(1.05, 8.0), lam=st.floats(0.1, 0.9))
    def test_reordered_identity_is_exact(self, on, m, lam):
        x = np.array(on)
        run = tl.fluid_queue(tl.reorder_nonoverlap(x, m, lam))
        want = lam * (m - 1.0) * float(np.sum(x * x)) / (2.0 * float(np.sum(x)))
        assert run.mean_queue == pytest.approx(want, rel=1e-9)

    @given(pairs=cycles, m=st.floats(1.05, 8.0))
    def test_stats_match_the_cycle_recursion(self, pairs, m):
        on, off = [x for x, _ in pairs], [y for _, y in pairs]
        run = tl.fluid_queue(fluid(on, off, m))
        mean, area, peak = fluid_recursion(on, off, m)
        bound = fluid_level_bound(on, off, m, peak)
        assert run.horizon == math.fsum(on) + math.fsum(off)
        assert abs(run.mean_queue - mean) <= bound
        assert abs(run.area - area) <= bound * run.horizon

    @given(pairs=cycles, m=ms)
    @settings(max_examples=200)
    def test_run_matches_the_allocating_formulas_bit_for_bit(self, pairs, m):
        on = np.array([x for x, _ in pairs])
        off = np.array([y for _, y in pairs])
        assert_runs_are(lambda: tl.fluid_queue(fluid(on, off, m)), fluid_formulas(on, off, m))

    @pytest.mark.parametrize("on, off", [([2.0], [0.0]), ([2.0], [1.0]), ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])])
    def test_single_cycles_and_zero_off_periods_match_the_formulas(self, on, off):
        on, off = np.array(on), np.array(off)
        for m in (np.nextafter(1.0, 2.0), 2.0):
            assert_runs_are(lambda: tl.fluid_queue(fluid(on, off, m)), fluid_formulas(on, off, m))

    @pytest.mark.parametrize("long_period", ["on", "off"])
    def test_a_length_past_the_limit_after_a_good_slice_keeps_its_raw_terms(self, long_period):
        # in slices of 1 to 3 cycles the third cycle's length of 2**977 sits
        # in a later slice than the first: that slice is outside the domain
        # and keeps its raw terms beside the first slice's level sums. A long
        # off period keeps every figure finite; a long on period makes its
        # on area inf, which is refused, with no numpy warning
        on, off = np.array([1.0, 2.0, 0.5, 3.0]), np.array([1.0, 0.5, 1.0, 4.0])
        (on if long_period == "on" else off)[2] = FSUM_LIMIT
        if long_period == "off":
            assert_runs_are(lambda: tl.fluid_queue(fluid(on, off, 2.0)), fluid_formulas(on, off, 2.0))
            return
        for chunk in SLICES:
            with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
                warnings.simplefilter("error")
                if chunk is not None:
                    mp.setattr(queue_sim, "_CHUNK", chunk)
                with pytest.raises(ValueError, match="^the cycles are too long: the horizon or the queue area"):
                    tl.fluid_queue(fluid(on, off, 2.0))

    @pytest.mark.parametrize("on, off", [
        ([1e300] * 3, [1e300] * 3),  # areas of 1e600
        ([1e308] * 3, [1e308] * 3),  # a horizon of 6e308, past the largest float in math.fsum
        ([1e308, 1.0], [1e308, 1e308]),  # a rise past the largest float: inf levels
    ])
    def test_a_non_finite_horizon_or_area_is_refused_without_a_warning(self, on, off):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the cycles are too long"):
                tl.fluid_queue(fluid(np.array(on), np.array(off), 3.0))

    def test_a_slice_under_the_sigma_floor_keeps_its_remainder_not_the_overwritten_terms(self):
        # the on areas are extracted in place; in slices of 2 cycles or
        # more, the first slice's take 29 levels before sigma falls under
        # the floor, so the terms left are the remainder written over the
        # areas, not the areas themselves
        on, off = np.array([1.0, 5e-324, 1.0, 2.0]), np.array([0.0, 0.0, 3.0, 1.0])
        assert_runs_are(lambda: tl.fluid_queue(fluid(on, off, 2.0)), fluid_formulas(on, off, 2.0))


class TestPacketFifo:
    def test_back_to_back_service(self):
        # two 100 B packets at t=0 and t=0.5, served at 100 B/s:
        # departures at 1 and 2, sojourns 1 and 1.5
        tr = tl.PacketTrace(np.array([0.0, 0.5]), np.array([100, 100]))
        stats, path = tl.packet_stats(tr, 100.0, keep_path=True)
        assert stats.mean_queue == pytest.approx(1.25, rel=1e-12)
        assert stats.horizon == pytest.approx(2.0)
        assert stats.utilization == pytest.approx(1.0)
        assert stats.empty_fraction == pytest.approx(0.0)
        assert stats.peak_queue == 2.0
        assert list(zip(path.times, path.levels)) == [(0, 0), (0, 1), (0.5, 2), (1, 1), (2, 0)]

    def test_idle_gap_between_packets(self):
        tr = tl.PacketTrace(np.array([0.0, 10.0]), np.array([100, 100]))
        stats, _ = tl.packet_stats(tr, 100.0)
        assert stats.horizon == pytest.approx(11.0)
        assert stats.utilization == pytest.approx(2.0 / 11.0, rel=1e-12)
        assert stats.empty_fraction == pytest.approx(9.0 / 11.0, rel=1e-12)
        assert stats.mean_queue == pytest.approx(2.0 / 11.0, rel=1e-12)

    def test_departure_applied_before_tied_arrival(self):
        # second packet lands exactly as the first leaves; level never 2
        tr = tl.PacketTrace(np.array([0.0, 1.0]), np.array([100, 100]))
        stats, _ = tl.packet_stats(tr, 100.0)
        assert stats.peak_queue == 1.0
        assert stats.utilization == pytest.approx(1.0)

    def test_leading_idle_counts_as_empty(self):
        tr = tl.PacketTrace(np.array([5.0, 5.5]), np.array([50, 50]))
        stats, path = tl.packet_stats(tr, 100.0, keep_path=True)
        assert path.times[0] == 0.0 and path.levels[0] == 0.0
        assert stats.empty_fraction == pytest.approx(5.0 / stats.horizon, rel=1e-12)

    def test_bandwidth_must_be_positive(self):
        tr = tl.PacketTrace(np.array([0.0]), np.array([100]))
        with pytest.raises(ValueError):
            tl.packet_fifo(tr, 0.0)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -math.inf])
    def test_bandwidth_must_be_finite(self, bandwidth):
        # nan would fill every figure with nan; inf serves a one-packet
        # trace in zero time and leaves a zero horizon
        tr = tl.PacketTrace(np.array([0.0]), np.array([100]))
        with pytest.raises(ValueError, match="positive and finite"):
            tl.packet_fifo(tr, bandwidth)

    @given(pairs=fifo_pairs, start=st.sampled_from((0.0, 1.0, 1e6)), rho=st.floats(0.05, 1.5))
    @settings(max_examples=200)
    def test_run_matches_the_allocating_formulas_bit_for_bit(self, pairs, start, rho):
        ts = start + np.cumsum([g for g, _ in pairs])
        sizes = np.array([s for _, s in pairs])
        bandwidth = sizes.sum() / max(ts[-1] - ts[0], 1e-3) / rho
        trace = tl.PacketTrace(ts, sizes)
        assert_runs_are(lambda: packet_run(trace, bandwidth), fifo_formulas(ts, sizes, bandwidth))

    @pytest.mark.parametrize("ts", [[0.0], [3.5], [2.0, 2.0, 2.0, 2.0], [0.5, 0.5, 0.75, 9.0]],
                             ids=["at_zero", "one_packet", "batched", "batched_then_idle"])
    def test_one_packet_and_batched_traces_match_the_formulas(self, ts):
        ts = np.array(ts)
        sizes = np.arange(100, 100 + len(ts))
        for bandwidth in (1.0, 300.0, 1e9):
            assert_runs_are(lambda: packet_run(tl.PacketTrace(ts, sizes), bandwidth),
                            fifo_formulas(ts, sizes, bandwidth))

    def test_sojourns_past_the_limit_after_a_good_slice_keep_their_raw_terms(self):
        # at 1e-280 bytes/s a 1-byte packet is served in 1e280 s, inside the
        # domain of the extraction, and the 10**18-byte packet in 1e298 s,
        # past it; the horizon and every sum stay finite
        ts = np.arange(5.0)
        sizes = np.array([1, 1, 1, 10**18, 1])
        assert_runs_are(lambda: packet_run(tl.PacketTrace(ts, sizes), 1e-280),
                        fifo_formulas(ts, sizes, 1e-280))

    def test_sojourns_under_the_sigma_floor_keep_their_remainder_not_the_overwritten_terms(self):
        # at 1e306 bytes/s the sojourns 1e-306 and 1e-306 + 1e-288 are
        # extracted in place: two levels, then sigma falls under the floor
        ts, sizes = np.array([0.0, 0.0]), np.array([1, 10**18])
        assert_runs_are(lambda: packet_run(tl.PacketTrace(ts, sizes), 1e306),
                        fifo_formulas(ts, sizes, 1e306))

    @pytest.mark.parametrize("n", [1, 5])
    def test_run_shares_no_memory_with_the_trace(self, n):
        trace = tl.PacketTrace(np.arange(n, dtype=float), np.full(n, 100))
        before = trace.timestamps.tobytes(), trace.sizes.tobytes()
        _, path = tl.packet_stats(trace, 50.0, keep_path=True)
        for out in (path.times, path.levels):
            assert not np.shares_memory(out, trace.timestamps)
            assert not np.shares_memory(out, trace.sizes)
        assert (trace.timestamps.tobytes(), trace.sizes.tobytes()) == before

    @pytest.mark.parametrize("bandwidth", [1e-320, 1e-305, 1e-301])
    def test_bandwidth_too_small_for_a_finite_horizon_is_named(self, bandwidth):
        # 1e-320: every service time is inf; 1e-305: the service prefix
        # sum passes the largest float; 1e-301: the horizon is finite but
        # the sojourn total is not
        # the same in slices of a few packets
        tr = tl.generate_poisson(1000.0, 100, 2000, np.random.default_rng(1))
        for chunk in SLICES:
            with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
                warnings.simplefilter("error")
                if chunk is not None:
                    mp.setattr(queue_sim, "_CHUNK", chunk)
                with pytest.raises(ValueError, match=f"^bandwidth {bandwidth!r} is too small"):
                    tl.packet_fifo(tr, bandwidth)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 256), st.integers(1, 1500)), min_size=1, max_size=60
        ),
        bandwidth=st.sampled_from((64.0, 500.0, 4000.0)),
    )
    def test_step_path_reproduces_the_sojourn_area(self, pairs, bandwidth):
        gaps = np.array([g for g, _ in pairs], float) / 64.0
        ts = np.cumsum(gaps) - gaps[0]
        sizes = np.array([s for _, s in pairs])
        stats, path = tl.packet_stats(tl.PacketTrace(ts, sizes), bandwidth, keep_path=True)
        assert step_integral(path) == pytest.approx(stats.area, rel=1e-9)
        assert stats.mean_queue * stats.horizon == pytest.approx(stats.area, rel=1e-12)
        assert 0.0 <= stats.utilization <= 1.0
        assert 0.0 <= stats.empty_fraction <= 1.0
        assert np.all(path.levels >= 0.0)
        assert path.levels[-1] == 0.0  # every packet has departed
        assert stats.peak_queue >= 1.0

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 256), st.integers(1, 1500)), min_size=1, max_size=60
        )
    )
    def test_empty_fraction_matches_the_path(self, pairs):
        gaps = np.array([g for g, _ in pairs], float) / 64.0
        ts = np.cumsum(gaps) - gaps[0]
        sizes = np.array([s for _, s in pairs])
        stats, path = tl.packet_stats(tl.PacketTrace(ts, sizes), 1000.0, keep_path=True)
        dt = np.diff(path.times)
        idle = float(np.sum(dt[path.levels[:-1] == 0.0]))
        assert idle == pytest.approx(stats.empty_fraction * stats.horizon, rel=1e-9, abs=1e-12)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=80
        ),
        bandwidth=st.sampled_from((1.0, 2.0, 3.0, 64.0)),
        start=st.integers(0, 4),
    )
    @settings(max_examples=200)
    def test_path_matches_the_lexsort_reference(self, pairs, bandwidth, start):
        # small integer gaps and sizes put many arrivals exactly on
        # departures, so the tie rule decides most of the order
        ts = start + np.cumsum([g for g, _ in pairs]).astype(float)
        sizes = np.array([s for _, s in pairs])
        stats, path = tl.packet_stats(tl.PacketTrace(ts, sizes), bandwidth, keep_path=True)
        times, levels, peak, empty = lexsort_path(ts, sizes, bandwidth)
        assert path.times.tobytes() == times.tobytes()
        assert path.levels.tobytes() == levels.tobytes()
        assert stats.peak_queue == peak
        assert stats.empty_fraction == empty / stats.horizon

    @given(
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from((0.0, 1e3, 1e5, 1e6)),
        rho=st.floats(0.1, 0.99),
        heavy=st.booleans(),
    )
    def test_mean_queue_matches_the_lindley_recursion(self, n, seed, offset, rho, heavy):
        # Bound: rel err <= 4 eps (horizon / mean sojourn + n). Each
        # departure comes from prefix sums as large as the horizon, so it
        # carries a few ulps of the horizon against a sojourn of mean
        # size; rounding in those sums, and in the recursion over a busy
        # period, grows at most with the packet count. Over 1500 seeded
        # traces of up to 3000 packets the largest ratio seen was 0.94.
        rng = np.random.default_rng(seed)
        gaps = rng.pareto(1.2, n) if heavy else rng.exponential(1.0, n)
        ts = offset + np.cumsum(gaps)
        sizes = rng.integers(1, 1500, n)
        bandwidth = sizes.sum() / max(ts[-1] - ts[0], 1.0) / rho
        stats, _ = tl.packet_stats(tl.PacketTrace(ts, sizes), bandwidth)
        sojourns = lindley_sojourns(ts, sizes, bandwidth)
        horizon = ts[-1] + sojourns[-1]
        want = math.fsum(sojourns) / horizon
        bound = 4 * np.finfo(float).eps * (horizon / (math.fsum(sojourns) / n) + n)
        assert abs(stats.mean_queue - want) <= bound * want


class TestDyadicInputs:
    """Inputs on which every kernel step is exact: arrivals, sizes, bursts
    and silences of a few bits each, so every level, sum and area is a
    float. The kernels must then give the exact values of an independent
    recursion in Fractions, each rounded once by the final division, at
    any slice length: 1, 2, 3 and 7 carry every level and sum across
    many slices."""

    chunks = st.sampled_from([1, 2, 3, 7, 2**16])

    @given(chunk=chunks, start=st.integers(0, 255),
           packets=st.lists(st.tuples(st.integers(0, 255), st.integers(1, 1499)), min_size=1, max_size=400))
    @settings(max_examples=250, deadline=None)
    def test_packet_fifo(self, chunk, start, packets):
        # gaps of k/64 s, ties included, and sizes of 1 to 1499 bytes served
        # at 1024 bytes/s; the first arrival may be past 0
        a = [Fraction(start + sum(k for k, _ in packets[: i + 1]), 64) for i in range(len(packets))]
        s = [Fraction(size, 1024) for _, size in packets]
        d, empty = [], a[0]
        for ai, si in zip(a, s):  # d_i = max(a_i, d_{i-1}) + s_i
            if d:
                empty += max(ai - d[-1], 0)
            d.append(max([ai, *d[-1:]]) + si)
        area, horizon = sum(di - ai for di, ai in zip(d, a)), d[-1]
        # the level just after arrival i: i + 1 arrivals less the departures
        # at or before it, a departure first at a tie
        peak = max(i + 1 - bisect.bisect_right(d, ai, 0, i) for i, ai in enumerate(a))
        trace = tl.PacketTrace(np.array([float(t) for t in a]), np.array([size for _, size in packets]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(queue_sim, "_CHUNK", chunk)
            run = tl.packet_fifo(trace, 1024.0)
            stats, _ = tl.packet_stats(trace, 1024.0)
        assert (run.area, run.horizon) == (area, horizon)
        assert run.mean_queue == stats.mean_queue == float(area / horizon)
        assert stats.utilization == float(sum(s) / horizon)
        assert stats.empty_fraction == float(empty / horizon)
        assert stats.peak_queue == peak

    @given(chunk=chunks, m=st.sampled_from([1.25, 1.5, 2.0, 3.0]),
           cycles=st.lists(st.tuples(st.integers(1, 511), st.integers(0, 511)), min_size=1, max_size=400))
    @settings(max_examples=250, deadline=None)
    def test_fluid_queue(self, chunk, m, cycles):
        # bursts of k/64 s and silences of j/64 s: an array-held process is
        # scanned, its levels carried from cycle to cycle, and
        # reorder_nonoverlap's, silences three times their bursts, takes
        # the closed form
        on = np.array([k for k, _ in cycles]) / 64
        off = np.array([j for _, j in cycles]) / 64
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(queue_sim, "_CHUNK", chunk)
            runs = [tl.fluid_queue(tl.FluidOnOffProcess(on, off, m)), tl.fluid_queue(tl.reorder_nonoverlap(on, 2, 0.5))]
        for run, (x, y, rate) in zip(runs, [(on, off, m), (on, 3 * on, 2)]):
            level, area = Fraction(0), Fraction(0)
            for burst, silence in zip(map(Fraction, x.tolist()), map(Fraction, y.tolist())):
                peak = level + burst * (Fraction(rate) - 1)
                drain = min(silence, peak)
                area += (level + peak) / 2 * burst + drain * (peak - drain / 2)
                level = peak - drain
            horizon = sum(map(Fraction, x.tolist())) + sum(map(Fraction, y.tolist()))
            assert (run.area, run.horizon, run.mean_queue) == (area, horizon, float(area / horizon))


class TestQueuePath:
    def test_write_csv(self):
        import io

        _, path = tl.packet_stats(tl.PacketTrace(np.array([0.0]), np.array([100])), 100.0, keep_path=True)
        buf = io.BytesIO()
        path.write_csv(buf, comments=("demo",))
        lines = buf.getvalue().decode().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "# time,level"
        assert len(lines) == 2 + len(path.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            tl.QueuePath(np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            tl.QueuePath(np.zeros((2, 2)), np.zeros((2, 2)))


class TestPrefixMeanQueue:
    def test_fluid_route_matches_prefix_simulation(self):
        proc = tl.reorder_nonoverlap(np.array([1.0, 2.0, 3.0, 4.0]), 2.0, 0.5)
        out = prefix_mean_queue(proc, [1, 3])
        assert out == [(1, tl.fluid_queue(proc.prefix(1)).mean_queue), (3, tl.fluid_queue(proc.prefix(3)).mean_queue)]

    @given(pairs=cycles, m=st.floats(1.05, 8.0), cuts=st.lists(st.integers(1, 60), min_size=1, max_size=4))
    def test_fluid_prefix_is_the_truncated_full_run(self, pairs, m, cuts):
        # a prefix simulated from empty is the full run up to the prefix's
        # horizon: the cycles of the full process's recursion, cut there;
        # the tolerance is fluid_level_bound of the full process
        on, off = [x for x, _ in pairs], [y for _, y in pairs]
        proc = fluid(on, off, m)
        full = list(fluid_cycles(on, off, m))
        bound = fluid_level_bound(on, off, m, max(c[2] for c in full))
        sizes = sorted({min(c, len(on)) for c in cuts})
        for n, mean in prefix_mean_queue(proc, sizes):
            area = math.fsum(a for c in full[:n] for a in c[:2])
            assert abs(mean - area / (math.fsum(on[:n]) + math.fsum(off[:n]))) <= bound

    def test_decreasing_sizes_rejected(self):
        proc = tl.reorder_nonoverlap(np.array([1.0, 2.0]), 2.0, 0.5)
        with pytest.raises(ValueError):
            prefix_mean_queue(proc, [2, 1])

    @pytest.mark.parametrize("sizes", [[0, 1], [1, 3]])
    def test_sizes_outside_the_process_rejected(self, sizes):
        proc = tl.reorder_nonoverlap(np.array([1.0, 2.0]), 2.0, 0.5)
        with pytest.raises(ValueError, match="out of range"):
            prefix_mean_queue(proc, sizes)


def assert_prefix_runs_are_equal(lazy, eager, cuts):
    """fluid_queue of lazy and of eager, and of their prefixes of each
    length in cuts, give the same mean, area and horizon, bit for bit."""
    for k in cuts:
        got, want = (tl.fluid_queue(p.prefix(k) if k < p.n_cycles else p) for p in (lazy, eager))
        assert [bits(x) for x in (got.mean_queue, got.area, got.horizon)] == \
            [bits(x) for x in (want.mean_queue, want.area, want.horizon)], k


class TestReorderedRuns:
    """reorder_nonoverlap's process computes its silences a run at a time,
    and its levels take the closed form of _fluid_slices: every cycle
    starts and ends empty. fluid_queue gives it the bits of the eager
    process of the same silences, whose levels are scanned, within one
    run, across runs and on every prefix."""

    @pytest.mark.parametrize("n", [1, 2**16, 2**16 + 1, 200_001])
    def test_lazy_silences_give_the_eager_bits(self, n):
        m, lam = 2.0, 0.5
        on = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0), 1.0 - np.random.default_rng(n).random(n))
        eager = tl.FluidOnOffProcess(on, on * (m / lam - 1.0), m)
        lazy = tl.reorder_nonoverlap(on, m, lam)
        assert lazy._drains_each_cycle and not eager._drains_each_cycle
        cuts = sorted({k for k in (1, 2, 2**16 - 1, 2**16, 2**16 + 1, n - 1, n) if 1 <= k <= n})
        assert_prefix_runs_are_equal(lazy, eager, cuts)
        assert "off_lengths" not in vars(lazy)  # no pass built the silences

    @pytest.mark.parametrize("lam", [0.5, 0.9999999999999999])
    @pytest.mark.parametrize("x_max", [None, 1000.0])
    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_the_closed_form_levels_are_the_scanned_ones(self, alpha, x_max, lam):
        # fl(m/lam) is at least m plus one ulp for every lam < 1, so at the
        # largest lam below 1 the silence ratio is 1 + 2**-51: the nearest
        # to the rise, m - 1, that reorder_nonoverlap makes
        m, n = 2.0, 3 * 2**16 + 5
        assert lam == 0.5 or m / lam - 1.0 == 1.0 + 2.0**-51
        u = 1.0 - np.random.default_rng(round(100 * alpha)).random(n)
        on = tl.sample_heavy_tail(tl.HeavyTailSpec(alpha, 1.0, x_max), u)
        lazy, eager = tl.reorder_nonoverlap(on, m, lam), tl.FluidOnOffProcess(on, on * (m / lam - 1.0), m)
        assert lazy._drains_each_cycle and not eager._drains_each_cycle
        assert_prefix_runs_are_equal(lazy, eager, [1, 100, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3, n])

    @pytest.mark.parametrize("m", [np.nextafter(1.0, 2.0), 2.0, 3.0])
    def test_silences_equal_to_their_rise_give_the_scanned_bits(self, m):
        # a ratio of exactly m - 1, which no lam < 1 gives: every silence
        # equals its rise, so every term of the scan's running sum is 0
        n = 2**16 + 7
        on = tl.sample_heavy_tail(tl.HeavyTailSpec(1.2, 1.0), 1.0 - np.random.default_rng(42).random(n))
        lazy = synth._Reordered(on, m - 1.0, m)
        eager = tl.FluidOnOffProcess(on, on * (m - 1.0), m)
        assert np.array_equal(lazy.off_lengths, on * (m - 1.0))
        assert lazy._drains_each_cycle
        assert_prefix_runs_are_equal(lazy, eager, [1, 2**16, n])

    @given(on=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=60), m=ms,
           lam=st.floats(1e-6, 1.0, exclude_max=True))
    @example(on=[1.0, 0.5, 3.0], m=2.0, lam=0.9999999999999999)
    @settings(max_examples=200)
    def test_the_closed_form_is_the_scan_bit_for_bit(self, on, m, lam):
        x = np.array(on)
        assert_runs_are(lambda: tl.fluid_queue(tl.reorder_nonoverlap(x, m, lam)),
                        fluid_formulas(x, x * (m / lam - 1.0), m))

    def test_a_running_sum_past_the_largest_float_refuses_only_the_scan(self):
        # one silence 48 units (ulps, 2**971) under 2**1024, then 64 of
        # just over half a unit: their exact total stays 16 units under,
        # so the horizon is finite, but each step of the scan's running sum
        # rounds up a whole unit, and the sum passes the largest float. The
        # eager process's scan refuses the run. The closed form forms no
        # running sum: its mean is m (m-1) sum X^2 / 2 / sum (X + O) within
        # 7 u, u = 2**-53. The bound: m - 1 = 1/2 and the ratio 2**512 make
        # the rises, their halves and the silences exact, so each area term
        # rounds once; the four sums round once each, their two additions
        # once each, and the division once: (1 + u)**4 / (1 - u)**2 < 1 + 7 u
        m, lam = 1.5, 1.5 * 2.0**-512
        assert m / lam - 1.0 == 2.0**512
        off = np.array([float(2**1024 - 48 * 2**971)] + [2.0**970 * (1.0 + 2.0**-52)] * 64)
        on = off / 2.0**512
        with pytest.raises(ValueError, match="^the cycles are too long"):
            tl.fluid_queue(tl.FluidOnOffProcess(on, off, m))
        mean = tl.fluid_queue(tl.reorder_nonoverlap(on, m, lam)).mean_queue
        x, o = [list(map(Fraction, a.tolist())) for a in (on, off)]
        exact = Fraction(m) * (Fraction(m) - 1) / 2 * sum(v * v for v in x) / (sum(x) + sum(o))
        assert abs(Fraction(mean) - exact) <= 7 * Fraction(2) ** -53 * exact

    def test_prefix_means_are_those_of_the_eager_process(self):
        on = tl.sample_heavy_tail(tl.HeavyTailSpec(1.5, 1.0, 1000.0), 1.0 - np.random.default_rng(3).random(70_000))
        sizes = [1, 100, 2**16, 2**16 + 1, 70_000]
        eager = tl.FluidOnOffProcess(on, on * 3.0, 2.0)
        got = prefix_mean_queue(tl.reorder_nonoverlap(on, 2.0, 0.5), sizes)
        assert [(k, bits(x)) for k, x in got] == [(k, bits(x)) for k, x in prefix_mean_queue(eager, sizes)]


def capped_second_moment(tail):
    """E[X^2] of sample_heavy_tail's draw of the capped tail: with
    P[X > x] = (x_min/x)**a, x_min^2 plus the integral of 2 x P[X > x]
    from x_min to x_max."""
    a, x_min, x_max = tail.tail_index, tail.x_min, tail.x_max
    return x_min**2 + 2.0 * x_min**a * (x_max ** (2.0 - a) - x_min ** (2.0 - a)) / (2.0 - a)


def pollaczek_khinchine_wait(spec):
    """E[W], the mean level at the start of an on period of spec's iid on/off
    fluid model with capped bursts.

    The silences are exponential of rate nu, 1/nu = E[X] (m/lam - 1), so
    the level W at the start of each on period follows the Lindley
    recursion W' = max(0, W + (m-1) X - O) of an M/G/1 queue whose
    service is (m-1) X: its mean is the Pollaczek-Khinchine
    E[W] = nu (m-1)^2 E[X^2] / (2 (1 - rho)), rho = nu (m-1) E[X].
    E[X^2] is capped_second_moment(spec.tail)."""
    m, mean = spec.m, spec.tail.mean
    silence = mean * (m / spec.lambda_target - 1.0)
    rho = (m - 1.0) * mean / silence
    return (m - 1.0) ** 2 * capped_second_moment(spec.tail) / (2.0 * silence * (1.0 - rho))


def pollaczek_khinchine_mean(spec):
    """The exact time-average mean queue of spec's iid on/off fluid model
    with capped bursts: E[W] + (m-1) E[X^2] / (2 (E[X] + 1/nu)), with W and
    nu as in pollaczek_khinchine_wait. A cycle adds W X + (m-1) X^2 / 2
    while on, and U/nu - (1 - e^(-nu U))/nu^2 while off from the level
    U = W + (m-1) X, with E[e^(-nu U)] = 1 - rho."""
    m, mean = spec.m, spec.tail.mean
    silence = mean * (m / spec.lambda_target - 1.0)
    return pollaczek_khinchine_wait(spec) + (m - 1.0) * capped_second_moment(spec.tail) / (2.0 * (mean + silence))


def ladder_series_levels(spec, n, rng):
    """n draws of W, the level at the start of an on period of spec's iid
    on/off fluid model, by the Pollaczek-Khinchine ladder series, with no
    package kernel: W is the sum of K draws from the integrated tail of
    the service (m-1) X, with P(K = k) = (1 - rho)rho^k and
    rho = lam (m-1) / (m - lam) (Asmussen, "Applied Probability and
    Queues", 2003, ch. VIII).

    The integrated tail of the Pareto X capped at x_max has the CDF
    F(y) = y / E[X] up to x_min, and beyond it
    F(y) = (x_min + x_min ((y/x_min)^(1-a) - 1) / (1-a)) / E[X],
    whose value at x_max is 1. A uniform t = u E[X] past x_min so inverts
    to y = x_min (1 - (a-1)(t - x_min)/x_min)^(1/(1-a)): one power."""
    a, x_min, m, lam = spec.tail.tail_index, spec.tail.x_min, spec.m, spec.lambda_target
    cap = math.inf if spec.tail.x_max is None else spec.tail.x_max
    mean = x_min + x_min * ((cap / x_min) ** (1.0 - a) - 1.0) / (1.0 - a)
    k = rng.geometric(1.0 - lam * (m - 1.0) / (m - lam), n) - 1  # numpy's geometric counts from 1
    t = rng.random(int(k.sum())) * mean
    y = np.where(t <= x_min, t, x_min * (1.0 - (a - 1.0) * (t - x_min) / x_min) ** (1.0 / (1.0 - a)))
    return np.bincount(np.repeat(np.arange(n), k), weights=(m - 1.0) * y, minlength=n)


# (alpha, x_max, m, lam) of the capped iid recipes the oracle checks, x_min = 1
PK_RECIPES = [(1.5, 100.0, 2.0, 0.5), (1.2, 100.0, 3.0, 0.7), (1.8, 1000.0, 1.5, 0.8)]


class TestPollaczekKhinchine:
    """An oracle of the level scan: the iid model's silences are drawn
    apart from its bursts, so its levels are always scanned."""

    @pytest.mark.parametrize("alpha, x_max, m, lam", PK_RECIPES)
    def test_the_capped_iid_mean_is_the_pollaczek_khinchine_mean(self, alpha, x_max, m, lam):
        # 40 seeds of 10^5 cycles. Tolerance: 4 standard errors of their
        # mean, from the spread over the seeds. Over 12 other sets of 40
        # seeds per recipe the gap was at most 2.66 standard errors, and
        # its average over the sets, the bias of starting empty included,
        # at most 0.21
        spec = tl.GeneratorSpec(m, tl.HeavyTailSpec(alpha, 1.0, x_max), 10**5, lam, "iid")
        means = []
        for seed in range(41000, 41040):
            process = tl.generate_onoff(spec, np.random.default_rng(seed))
            assert not process._drains_each_cycle
            means.append(tl.fluid_queue(process).mean_queue)
        means = np.array(means)
        error = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - pollaczek_khinchine_mean(spec)) <= 4.0 * error

    @pytest.mark.parametrize("alpha, x_max, m, lam", PK_RECIPES)
    def test_the_ladder_series_mean_is_the_pollaczek_khinchine_wait(self, alpha, x_max, m, lam):
        # 10^6 draws of W at seed 7. Tolerance: 4 standard errors of their
        # mean, from the draws' own spread. Over 200 other seeds per recipe
        # (1000-1199) the gap was at most 3.37 standard errors; its mean
        # over the seeds was -0.08 to -0.02 and its spread 0.99 to 1.07
        spec = tl.GeneratorSpec(m, tl.HeavyTailSpec(alpha, 1.0, x_max), 10, lam, "iid")
        w = ladder_series_levels(spec, 10**6, np.random.default_rng(7))
        error = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - pollaczek_khinchine_wait(spec)) <= 4.0 * error

    @pytest.mark.parametrize("alpha, x_max", [(a, x_max) for a, x_max, _, _ in PK_RECIPES])
    def test_the_capped_second_moment_is_the_mean_square_of_the_draws(self, alpha, x_max):
        # 10^7 draws, 10^6 at a time. Tolerance: 4 standard errors of the
        # mean square, from the draws' own spread of X^2; the float sums'
        # rounding is some 10^-13 of the mean square, far under one error
        tail = tl.HeavyTailSpec(alpha, 1.0, x_max)
        rng, n, square, fourth = np.random.default_rng(43), 10**7, 0.0, 0.0
        for _ in range(n // 10**6):
            x = tl.sample_heavy_tail(tail, 1.0 - rng.random(10**6))
            x *= x
            square += float(x.sum()) / n
            x *= x
            fourth += float(x.sum()) / n
        error = math.sqrt((fourth - square * square) / (n - 1))
        assert abs(square - capped_second_moment(tail)) <= 4.0 * error


class TestBoundedModel:
    """An exact oracle of the level scan: the bounded model's silences are
    each at least their burst's rise, so every cycle drains within itself
    and adds the triangle m (m-1) X^2 / 2, but the silences are held as an
    array, so its levels are scanned."""

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_the_mean_is_the_triangles_over_the_horizon_and_at_most_q(self, alpha):
        # 3 * 2**16 + 5 cycles, so the scan carries its sums across slices.
        # Bound: 9 u, u = 2**-53. m - 1 = fl(m) - 1 is exact, so the rise r
        # rounds once, r * 0.5 and r - r * 0.5 are exact, and the on area
        # (r * 0.5) * X and the off area r * (r - r * 0.5) carry at most
        # (1 + u)**3; since off >= r the scan's running sum never rises,
        # so every level it finds is exactly 0. The four sums, their two
        # additions and the division round once each: (1 + u)**6 / (1 - u)**2
        m, q, n = 1.7, 2.0, 3 * 2**16 + 5
        spec = tl.GeneratorSpec(m, tl.HeavyTailSpec(alpha, 1.0), n, off_model="bounded", q=q)
        process = tl.generate_onoff(spec, np.random.default_rng(round(100 * alpha)))
        assert not process._drains_each_cycle
        mean = tl.fluid_queue(process).mean_queue
        # bursts of at least 1 and silences of at least m - 1 are whole
        # numbers of 2**-53, so Python integers sum them exactly
        x, o = ([int(v) for v in (a * 2.0**53).tolist()] for a in (process.on_lengths, process.off_lengths))
        exact = Fraction(m) * (Fraction(m) - 1) / 2 * Fraction(sum(v * v for v in x), 2**53 * (sum(x) + sum(o)))
        assert abs(Fraction(mean) - exact) <= 9 * Fraction(2) ** -53 * exact
        assert exact <= q and mean <= q


class TestQueueRun:
    @given(
        values=st.lists(
            st.one_of(st.floats(-1e300, 1e300), st.sampled_from((5e-324, -5e-324, 1e-310, -2.5e-320, -0.0))),
            max_size=80,
        ),
        step=st.sampled_from((1, 2, 3, -1, -2)),
        readonly=st.booleans(),
    )
    def test_fsum_is_math_fsum_bit_for_bit(self, values, step, readonly):
        x = np.array(values, dtype=np.float64)[::step]
        if readonly:
            x.setflags(write=False)
        assert _fsum(x).hex() == math.fsum(x.tolist()).hex()

    @given(
        values=st.lists(
            st.one_of(
                # from below the smallest subnormal to just past FSUM_LIMIT
                st.builds(math.ldexp, st.floats(-2.0, 2.0), st.integers(-1076, 979)),
                # a few exponents only, so that bucket sums carry and cancel
                st.builds(math.ldexp, st.floats(-2.0, 2.0), st.sampled_from((-1074, -1040, -3, 0, 52, 900))),
                st.sampled_from((5e-324, -5e-324, -0.0, 0.0, math.nextafter(FSUM_LIMIT, 0.0))),
            ),
            max_size=300,
        ),
        cancel=st.booleans(),
        chunk=st.integers(1, 8),
    )
    def test_fsum_across_chunks_is_math_fsum_bit_for_bit(self, values, cancel, chunk):
        x = np.array(values, dtype=np.float64)
        if cancel:
            x = np.concatenate([x, -x[::-2]])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(queue_sim, "_CHUNK", chunk)
            assert _fsum(x).hex() == math.fsum(x.tolist()).hex()

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [-0.0],
            [-0.0, -0.0],
            [0.0, -0.0],
            [5e-324],
            [-1.5],
            [3e300],
            [1.0, -1.0],
            [math.inf],
            [-math.inf],
            [math.nan],
            [1.0, math.inf, 2.0],
            [math.inf, -math.inf],
            [FSUM_LIMIT],
            [FSUM_LIMIT, -FSUM_LIMIT, 1e-300],
            [math.nextafter(FSUM_LIMIT, 0.0)] * 3 + [-1.0],
            [1e308, 1e308, -1e308],
        ],
    )
    def test_fsum_edge_cases_match_math_fsum(self, values):
        x = np.array(values, dtype=np.float64)
        try:
            want = math.fsum(values).hex()
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _fsum(x)
        else:
            assert _fsum(x).hex() == want

    def test_fsum_rounds_only_the_bucket_sums_inside_its_domain(self):
        x = np.random.default_rng(5).standard_normal(200_000) * 1e6
        got, lengths = fsum_spied(x)
        assert len(lengths) == 1 and lengths[0] <= 4096
        # past the limit, 2**977 makes only the last of four chunks raw: its
        # 200000 - 3 * 65536 = 3392 terms and 2**977 itself reach math.fsum
        # beside the first three chunks' level sums
        _, levels = fsum_spied(x[: 3 * 65536])
        _, lengths = fsum_spied(np.append(x, FSUM_LIMIT))
        assert lengths == [levels[0] + 3393]
        assert got.hex() == math.fsum(x.tolist()).hex()

    @given(pairs=st.lists(st.tuples(st.integers(0, 256), st.integers(1, 1500)), min_size=1, max_size=60))
    def test_packet_mean_is_the_stats_mean(self, pairs):
        # packet_stats' mean, area and horizon are packet_fifo's, bit for bit
        gaps = np.array([g for g, _ in pairs], float) / 64.0
        trace = tl.PacketTrace(np.cumsum(gaps), [s for _, s in pairs])
        run = tl.packet_fifo(trace, 500.0)
        stats, _ = tl.packet_stats(trace, 500.0)
        assert [bits(x) for x in (run.mean_queue, run.area, run.horizon)] == \
            [bits(x) for x in (stats.mean_queue, stats.area, stats.horizon)]

    @pytest.mark.parametrize("keep_path", [False, True])
    def test_packet_fifo_makes_one_pass_and_packet_stats_two(self, keep_path, monkeypatch):
        passes = []
        slices = queue_sim._fifo_slices
        monkeypatch.setattr(queue_sim, "_fifo_slices", lambda *args: passes.append(args) or slices(*args))
        trace = tl.PacketTrace(np.array([0.0, 0.5, 4.0]), np.array([100, 100, 100]))
        tl.packet_fifo(trace, 100.0)
        assert len(passes) == 1
        _, path = tl.packet_stats(trace, 100.0, keep_path=keep_path)
        assert len(passes) == 3 and (path is not None) == keep_path

    def test_both_kernels_return_a_plain_record_of_three_fields(self):
        packet = tl.packet_fifo(tl.PacketTrace(np.array([0.0, 1.0]), np.array([100, 100])), 100.0)
        fluid_run = tl.fluid_queue(fluid([1.0, 1.0], [1.0, 1.0], 2.0))
        for run in (packet, fluid_run):
            assert type(run) is tl.QueueRun
            assert [f.name for f in dataclasses.fields(run)] == ["mean_queue", "area", "horizon"]
        assert packet == tl.QueueRun(1.0, 2.0, 2.0)
        assert fluid_run == tl.QueueRun(0.5, 2.0, 4.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            packet.area = 0.0

    @pytest.mark.parametrize("kernel", ["packet_fifo", "fluid_queue"])
    def test_the_mean_streams_and_the_run_keeps_only_its_input(self, kernel, monkeypatch):
        # 16 slices of 4096 terms: the slice buffers together stay under one
        # n-length array. packet_stats without the path keeps none and stays
        # under one n-length array too
        monkeypatch.setattr(queue_sim, "_CHUNK", 4096)
        n = 16 * 4096
        rng = np.random.default_rng(15)
        if kernel == "packet_fifo":
            trace = tl.generate_poisson(1000.0, 1000, n, rng)
            makers, loop = [lambda: tl.packet_fifo(trace, 1.2e6)], "_fifo_slices"
        else:
            # the reordered model's levels take the closed form, the iid
            # model's the scan: both routes keep the bounds
            reordered = tl.reorder_nonoverlap(1.0 + rng.pareto(1.5, n), 2.0, 0.5)
            iid = tl.generate_onoff(tl.GeneratorSpec(2.0, tl.HeavyTailSpec(1.5, 1.0), n, 0.5), rng)
            assert reordered._drains_each_cycle and not iid._drains_each_cycle
            makers, loop = [lambda: tl.fluid_queue(reordered), lambda: tl.fluid_queue(iid)], "_fluid_slices"
        passes = []
        slices = getattr(queue_sim, loop)
        monkeypatch.setattr(queue_sim, loop, lambda *args: passes.append(args) or slices(*args))

        def traced(read):
            """read()'s result, and the bytes it kept and its peak above them."""
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                got = read()
                return (got, *(x - before for x in tracemalloc.get_traced_memory()))
            finally:
                tracemalloc.stop()

        array = 8 * n
        for make_run in makers:
            passes.clear()
            run, kept, peak = traced(make_run)
            assert peak < array
            assert kept < array / 16
            assert len(passes) == 1
        if kernel == "fluid_queue":
            return
        (stats, path), _, peak = traced(lambda: tl.packet_stats(trace, 1.2e6))
        assert peak < array
        assert stats.mean_queue == run.mean_queue and path is None
        both, path = tl.packet_stats(trace, 1.2e6, keep_path=True)
        assert len(path.times) > n
        assert both == stats


class TestSliceMerge:
    """packet_fifo merges each slice's arrivals with the departures up to
    its last arrival; argsort_merge merges the whole trace at once."""

    # gaps and service times in whole quarter seconds at 1000 bytes/s, so
    # departures land exactly on arrivals; a zero gap makes a batch
    @given(pairs=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 8)), min_size=1, max_size=60),
           chunk=st.sampled_from((1, 2, 3, 7)))
    @example(pairs=[(3, 5)], chunk=1)  # a single packet
    @example(pairs=[(0, 1)] * 3 + [(3, 1)] * 3 + [(3, 1)] * 3, chunk=2)  # batches, each tied with the last departure
    @example(pairs=[(0, 8)] + [(1, 8)] * 30, chunk=3)  # one busy period across every slice
    @example(pairs=[(4, 1), (0, 2), (0, 1), (1, 8), (0, 8), (8, 4), (4, 4)], chunk=2)
    def test_the_slice_merge_is_the_whole_trace_merge(self, pairs, chunk):
        ts = np.cumsum([g / 4.0 for g, _ in pairs])
        sizes = np.array([250 * k for _, k in pairs])
        times, levels = argsort_merge(ts, sizes, 1000.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(queue_sim, "_CHUNK", chunk)
            stats, path = tl.packet_stats(tl.PacketTrace(ts, sizes), 1000.0, keep_path=True)
            alone, _ = tl.packet_stats(tl.PacketTrace(ts, sizes), 1000.0)  # a pass that keeps no path
        assert path.times.tobytes() == times.tobytes()
        assert path.levels.tobytes() == levels.tobytes()
        assert bits(stats.peak_queue) == bits(alone.peak_queue) == bits(levels.max())
        assert stats == alone

    @pytest.mark.parametrize("read, mib", [("stats", 24), ("path", 56)])
    def test_a_rebuild_of_a_million_packets_stays_under_its_bound(self, read, mib):
        # stats alone keeps no path: under three 10**6-float arrays. path
        # holds its 2n+1 times and levels, and stats comes from its pass.
        # The whole-trace merge peaked at 87.3 MiB for either
        trace = tl.generate_poisson(1000.0, 1000, 10**6, np.random.default_rng(32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, path = tl.packet_stats(trace, 2e6, keep_path=read == "path")
            assert (path is not None) == (read == "path")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20


class TestFsumRoutes:
    """_fsum against a rational oracle, and each of its routes by name.
    Arrays of 10**5 terms span two 65536-term chunks."""

    N = 100_000

    @pytest.mark.parametrize("kind", ["sojourns", "areas", "signed"])
    def test_fsum_is_the_rational_sum_across_chunks(self, kind):
        rng = np.random.default_rng(1301)
        if kind == "sojourns":  # 1000-byte packets at 1e6 bytes/s behind heavy-tailed waits
            x = 1e-3 + 1e-3 * rng.pareto(1.2, self.N)
        elif kind == "areas":  # fluid on areas, on lengths with tail index 1.05
            on = 1.0 + rng.pareto(1.05, self.N)
            x = (0.5 * on) * on
        else:  # gaps of both signs over nine decades
            x = rng.standard_normal(self.N) * 10.0 ** rng.integers(-6, 3, self.N)
        got, lengths = fsum_spied(x)
        assert got.hex() == rational_sum(x).hex()
        assert len(lengths) == 1 and lengths[0] <= 2 * 3  # at most 3 levels per chunk

    def test_fsum_route_one_level(self):
        # |x| < 1 sits in [2**-1, 2**0), so sigma = 2**17, and the first level
        # takes every multiple of 2**-35 whole: one level sum per chunk. The
        # first chunk's smallest magnitude, 1.1e-5, is 16 binades under the
        # top, so the plain sum of its all-zero remainder follows; the
        # second's, 3.6e-7, is 21 binades under, so a second level, of its
        # all-zero remainder, comes before the plain sum
        x = np.random.default_rng(7).integers(-(2**35), 2**35, self.N) * 2.0**-35
        got, lengths = fsum_spied(x)
        assert lengths == [5]
        assert got.hex() == rational_sum(x).hex()

    def test_fsum_route_several_levels(self):
        # 2**-36 is half a unit of the first level for a top of 0.75, a tie
        # that rounds to even and leaves it to the second level; 36 binades
        # apart, the plain sum (of zeros) follows the second level
        assert fsum_spied(np.array([0.75, 2.0**-36])) == (0.75 + 2.0**-36, [3])
        # 120 binades of scale and 53 bits of precision: each chunk's smallest
        # magnitude sits 129 or 134 binades under its top, past 20 + 3 * 36,
        # so the plain sum follows the fifth level
        rng = np.random.default_rng(8)
        x = rng.standard_normal(self.N) * 2.0 ** rng.integers(-120, 1, self.N)
        got, lengths = fsum_spied(x)
        assert lengths == [2 * (5 + 1)]
        assert got.hex() == rational_sum(x).hex()

    def test_fsum_route_under_the_sigma_floor(self):
        # a top of 2**-950 starts at sigma = 2**-932; 2**-1040 needs a third
        # level, whose sigma 2**-1004 is under the floor of 2**-1000: the
        # two level sums and the remainder, 2**-1040 and 1001 zeros, reach
        # math.fsum. The rational sum checks that the remainder, not x,
        # goes beside the level sums
        x = np.concatenate([np.full(1000, 2.0**-950), [-(2.0**-951), 2.0**-1040]])
        got, lengths = fsum_spied(x)
        assert lengths == [2 + len(x)]
        assert got.hex() == rational_sum(x).hex()


def extracted(p):
    """The terms _extract appends for the slice p, which it leaves as it is."""
    parts = []
    queue_sim._extract(p, parts, np.empty(len(p)), np.empty(len(p)))
    return parts


def near_top_slice(width, signed=False):
    """2**16 terms: the top binade is [0.5, 1), and the smallest magnitude,
    the first term, lies in [2**-(width+1), 2**-width), `width` binades
    under it. Each term of the top binade sits just under half a unit of
    the first level (2**-35) above a multiple of it, so it leaves that
    level 2**-36 - 2**-53; the smallest term leaves 2**-36 less its own
    ulp. Their total is just under 2**-20 and needs every bit down to that
    ulp: just under 2**53 ulps at width 20, and 2**54 at width 21. signed
    negates every other term but the first; a negated term leaves 2**-53,
    so the total then passes 2**52 ulps at width 20 and 2**53 at width 21."""
    k = np.random.default_rng(width).integers(2**33, 2**34 - 1, 2**16)
    x = 0.5 + k * 2.0**-35 + (2.0**-36 - 2.0**-53)
    x[0] = 2.0 ** -(width + 1) + 2.0**-36 - 2.0 ** -(width + 53)
    if signed:
        x[1::2] *= -1.0
    return x


class TestFsumPlainExit:
    """The plain sum that ends a slice once every partial sum is a whole
    number of at most 2**53 units, the ulp of the slice's smallest
    magnitude: its boundary on full 2**16-term slices, and the route of
    each kind of slice, each against math.fsum, the rational sum, and the
    exact total of the terms _extract appends."""

    @staticmethod
    def check(x, lengths):
        assert fsum_spied(x) == (math.fsum(x.tolist()), lengths)
        assert _fsum(x).hex() == rational_sum(x).hex()
        assert sum(map(Fraction, extracted(x))) == sum(map(Fraction, x.tolist()))

    @pytest.mark.parametrize("signed", [False, True])
    def test_20_binades_take_the_plain_sum_after_one_level(self, signed):
        # sigma falls from 2**17 to 2**-19 = 2**54 ulps of 2**-73: one level
        # sum, then the plain sum of remainders just under 2**53 ulps
        self.check(near_top_slice(20, signed), [2])

    @pytest.mark.parametrize("signed", [False, True])
    def test_21_binades_take_a_second_level(self, signed):
        # 2**-19 is 2**55 ulps of 2**-74, and the remainders' total, past
        # 2**53 ulps, would round: a second level comes first
        self.check(near_top_slice(21, signed), [3])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_takes_the_plain_sum_after_one_level(self, zero):
        # zeros add nothing: the unit is the ulp of the smallest nonzero
        # magnitude, 20 binades under the top
        x = near_top_slice(20)
        x[1] = zero
        self.check(x, [2])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_an_all_zero_slice_takes_the_plain_sum_at_once(self, zero):
        self.check(np.full(2**16, zero), [1])

    def test_zeros_among_positives_20_binades_wide_take_one_level(self):
        # every third term zero, as packet_stats' idle gaps hold them
        x = near_top_slice(20)
        x[1::3] = 0.0
        self.check(x, [2])

    def test_a_signed_slice_holding_a_zero_takes_its_unit_from_the_magnitudes(self):
        # the smallest magnitude, negated, sits 21 binades under the top, and
        # the smallest positive term in the top binade: a second level comes
        # before the plain sum
        x = near_top_slice(21, signed=True)
        x[0] = -x[0]
        x[1] = 0.0
        self.check(x, [3])

    def test_a_zero_beside_a_subnormal_minimum_takes_the_plain_sum_under_the_sigma_floor(self):
        # as below: the unit is the smallest subnormal, not the zero's
        x = near_top_slice(20) * 2.0**-1005
        x[0] = 3 * 2.0**-1074
        x[1] = 0.0
        self.check(x, [2])

    def test_a_subnormal_minimum_takes_the_plain_sum_under_the_sigma_floor(self):
        # a top in [2**-1006, 2**-1005) starts at sigma = 2**-988; the next,
        # 2**-1024, is under the floor of 2**-1000 but within 2**54 ulps of
        # the smallest subnormal, 2**-1074
        x = near_top_slice(20) * 2.0**-1005
        x[0] = 3 * 2.0**-1074
        self.check(x, [2])

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    def test_inf_or_nan_keeps_the_raw_terms(self, special):
        x = near_top_slice(20)
        x[5] = special
        got, lengths = fsum_spied(x)
        assert (got.hex(), lengths) == (math.fsum(x.tolist()).hex(), [len(x)])

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trafficlab as tl
from trafficlab.queue_sim import prefix_mean_queue
from trafficlab.rng import substream


def fluid(on, off, m):
    return tl.FluidOnOffProcess(np.asarray(on, float), np.asarray(off, float), m)


def trapezoid_integral(path):
    dt = np.diff(path.times)
    avg = 0.5 * (path.levels[:-1] + path.levels[1:])
    return float(np.sum(dt * avg))


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


# strictly positive on lengths and nonnegative off lengths, dyadic so
# horizons accumulate exactly
on_lists = st.lists(st.integers(1, 512).map(lambda k: k / 64.0), min_size=1, max_size=50)
off_lists = st.lists(st.integers(0, 512).map(lambda k: k / 64.0), min_size=1, max_size=50)


class TestFluidQueue:
    def test_single_triangle(self):
        # X=3, m=2: rises to 3 over the on period, drains in 3 of the 5
        # off seconds; area is the m(m-1)X^2/2 triangle
        stats, path = tl.fluid_queue(fluid([3.0], [5.0], 2.0))
        assert stats.area == pytest.approx(9.0, rel=1e-12)
        assert stats.peak_queue == pytest.approx(3.0)
        assert stats.horizon == pytest.approx(8.0)
        assert stats.mean_queue == pytest.approx(9.0 / 8.0, rel=1e-12)
        assert stats.utilization == pytest.approx(6.0 / 8.0)
        assert stats.empty_fraction == pytest.approx(2.0 / 8.0)
        assert stats.diagnostic is None
        assert list(zip(path.times, path.levels)) == [(0, 0), (3, 3), (6, 0), (8, 0)]

    def test_carryover_between_cycles(self):
        # first off too short to drain: 3 - 2 = 1 carries into cycle 2
        stats, path = tl.fluid_queue(fluid([3.0, 1.0], [2.0, 10.0], 2.0))
        assert stats.area == pytest.approx(12.0, rel=1e-12)
        assert stats.mean_queue == pytest.approx(0.75, rel=1e-12)
        assert stats.peak_queue == pytest.approx(3.0)
        assert stats.utilization == pytest.approx(0.5)
        expected_path = [(0, 0), (3, 3), (5, 1), (6, 2), (8, 0), (16, 0)]
        assert list(zip(path.times, path.levels)) == expected_path

    def test_reordered_process_mean(self):
        # on = [1/2, 5/4, 2], m=2, lam=1/2; exact rational mean is 31/80
        proc = tl.reorder_nonoverlap(np.array([0.5, 1.25, 2.0]), 2.0, 0.5)
        stats, _ = tl.fluid_queue(proc)
        assert stats.mean_queue == pytest.approx(0.3875, rel=1e-12)

    def test_sub_unit_on_rate_is_degenerate(self):
        stats, path = tl.fluid_queue(fluid([2.0], [2.0], 0.5))
        assert stats.diagnostic is not None
        assert stats.mean_queue == 0.0
        assert stats.peak_queue == 0.0
        assert stats.empty_fraction == 1.0
        # server is busy only while work arrives, at rate m < 1
        assert stats.utilization == pytest.approx(0.5 * 2.0 / 4.0)
        assert np.all(path.levels == 0.0)

    @given(on=on_lists, off=off_lists, m=st.floats(1.05, 8.0))
    def test_path_integral_matches_area(self, on, off, m):
        k = min(len(on), len(off))
        stats, path = tl.fluid_queue(fluid(on[:k], off[:k], m))
        assert path.times[0] == 0.0 and path.levels[0] == 0.0
        assert np.all(path.levels >= 0.0)
        assert np.all(np.diff(path.times) >= 0.0)
        assert trapezoid_integral(path) == pytest.approx(stats.area, rel=1e-9, abs=1e-12)
        assert stats.mean_queue * stats.horizon == pytest.approx(stats.area, rel=1e-12)

    @given(on=on_lists, off=off_lists, m=st.floats(1.05, 8.0))
    def test_busy_and_empty_partition_the_horizon(self, on, off, m):
        k = min(len(on), len(off))
        stats, _ = tl.fluid_queue(fluid(on[:k], off[:k], m))
        assert 0.0 <= stats.utilization <= 1.0 + 1e-12
        assert stats.utilization + stats.empty_fraction == pytest.approx(1.0, rel=1e-9)

    @given(on=on_lists, m=st.floats(1.05, 8.0), lam=st.floats(0.1, 0.9))
    def test_reordered_identity_is_exact(self, on, m, lam):
        x = np.array(on)
        stats, _ = tl.fluid_queue(tl.reorder_nonoverlap(x, m, lam))
        want = lam * (m - 1.0) * float(np.sum(x * x)) / (2.0 * float(np.sum(x)))
        assert stats.mean_queue == pytest.approx(want, rel=1e-9)


class TestPacketFifo:
    def test_back_to_back_service(self):
        # two 100 B packets at t=0 and t=0.5, served at 100 B/s:
        # departures at 1 and 2, sojourns 1 and 1.5
        tr = tl.PacketTrace(np.array([0.0, 0.5]), np.array([100, 100]))
        stats, path = tl.packet_fifo(tr, 100.0)
        assert stats.mean_queue == pytest.approx(1.25, rel=1e-12)
        assert stats.horizon == pytest.approx(2.0)
        assert stats.utilization == pytest.approx(1.0)
        assert stats.empty_fraction == pytest.approx(0.0)
        assert stats.peak_queue == 2.0
        assert list(zip(path.times, path.levels)) == [(0, 0), (0, 1), (0.5, 2), (1, 1), (2, 0)]

    def test_idle_gap_between_packets(self):
        tr = tl.PacketTrace(np.array([0.0, 10.0]), np.array([100, 100]))
        stats, _ = tl.packet_fifo(tr, 100.0)
        assert stats.horizon == pytest.approx(11.0)
        assert stats.utilization == pytest.approx(2.0 / 11.0, rel=1e-12)
        assert stats.empty_fraction == pytest.approx(9.0 / 11.0, rel=1e-12)
        assert stats.mean_queue == pytest.approx(2.0 / 11.0, rel=1e-12)

    def test_departure_applied_before_tied_arrival(self):
        # second packet lands exactly as the first leaves; level never 2
        tr = tl.PacketTrace(np.array([0.0, 1.0]), np.array([100, 100]))
        stats, _ = tl.packet_fifo(tr, 100.0)
        assert stats.peak_queue == 1.0
        assert stats.utilization == pytest.approx(1.0)

    def test_leading_idle_counts_as_empty(self):
        tr = tl.PacketTrace(np.array([5.0, 5.5]), np.array([50, 50]))
        stats, path = tl.packet_fifo(tr, 100.0)
        assert path.times[0] == 0.0 and path.levels[0] == 0.0
        assert stats.empty_fraction == pytest.approx(5.0 / stats.horizon, rel=1e-12)

    def test_bandwidth_must_be_positive(self):
        tr = tl.PacketTrace(np.array([0.0]), np.array([100]))
        with pytest.raises(ValueError):
            tl.packet_fifo(tr, 0.0)

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
        stats, path = tl.packet_fifo(tl.PacketTrace(ts, sizes), bandwidth)
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
        stats, path = tl.packet_fifo(tl.PacketTrace(ts, sizes), 1000.0)
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
        stats, path = tl.packet_fifo(tl.PacketTrace(ts, sizes), bandwidth)
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
        stats, _ = tl.packet_fifo(tl.PacketTrace(ts, sizes), bandwidth)
        sojourns = lindley_sojourns(ts, sizes, bandwidth)
        horizon = ts[-1] + sojourns[-1]
        want = math.fsum(sojourns) / horizon
        bound = 4 * np.finfo(float).eps * (horizon / (math.fsum(sojourns) / n) + n)
        assert abs(stats.mean_queue - want) <= bound * want


class TestQueuePath:
    def test_write_csv(self):
        import io

        _, path = tl.packet_fifo(tl.PacketTrace(np.array([0.0]), np.array([100])), 100.0)
        buf = io.StringIO()
        path.write_csv(buf, comments=("demo",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "# time,level"
        assert len(lines) == 2 + len(path.times)

    def test_validation(self):
        with pytest.raises(ValueError):
            tl.QueuePath(np.array([0.0, 1.0]), np.array([0.0]), "step")
        with pytest.raises(ValueError):
            tl.QueuePath(np.array([0.0]), np.array([0.0]), "cubic")


class TestPrefixMeanQueue:
    def test_packet_route_matches_direct_simulation(self):
        tr = tl.generate_poisson(50.0, 100, 200, substream(11))
        out = prefix_mean_queue(tr, [10, 50, 200], bandwidth=6000.0)
        for n, mq in out:
            sub = tl.PacketTrace(tr.timestamps[:n], tr.sizes[:n])
            stats, _ = tl.packet_fifo(sub, 6000.0)
            assert mq == stats.mean_queue

    def test_fluid_route_matches_prefix_simulation(self):
        proc = tl.reorder_nonoverlap(np.array([1.0, 2.0, 3.0, 4.0]), 2.0, 0.5)
        out = prefix_mean_queue(proc, [1, 3])
        stats1, _ = tl.fluid_queue(proc.prefix(1))
        stats3, _ = tl.fluid_queue(proc.prefix(3))
        assert out == [(1, stats1.mean_queue), (3, stats3.mean_queue)]

    def test_decreasing_sizes_rejected(self):
        proc = tl.reorder_nonoverlap(np.array([1.0, 2.0]), 2.0, 0.5)
        with pytest.raises(ValueError):
            prefix_mean_queue(proc, [2, 1])

    def test_packet_route_requires_bandwidth(self):
        tr = tl.PacketTrace(np.array([0.0, 1.0]), np.array([10, 10]))
        with pytest.raises(ValueError):
            prefix_mean_queue(tr, [1, 2])

    def test_unknown_source_rejected(self):
        with pytest.raises(TypeError):
            prefix_mean_queue([1, 2, 3], [1])

import io
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trafficlab as tl
from trafficlab import cli, experiments, synth, traces
from trafficlab.experiments import aggregate_replications
from trafficlab.queue_sim import packet_fifo
from trafficlab.rng import substream


def make(ts, sizes):
    return tl.PacketTrace(np.asarray(ts, dtype=np.float64), np.asarray(sizes))


def reordered(tail, n_cycles):
    """The reordered recipe, m = 2 and lambda = 0.5, of the prefix sweeps here."""
    return tl.GeneratorSpec(2.0, tail, n_cycles, 0.5, "reordered")


def gap_vector(trace):
    """Leading gap (taken as 0 at the head) plus successive diffs.

    This is the multiset a block shuffle moves around, so two traces
    with equal sorted gap vectors carry exactly the same spacings.
    """
    return np.concatenate(([trace.timestamps[0]], np.diff(trace.timestamps)))


class TestAggregateReplications:
    def test_mean_and_sample_std(self):
        mean, std = aggregate_replications([2.0, 4.0])
        assert mean == pytest.approx(3.0)
        assert std == pytest.approx(np.sqrt(2.0))

    def test_single_value_has_zero_std(self):
        assert aggregate_replications([5.0]) == (5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_replications([])


class TestReplicationPlan:
    def test_defaults_to_ten(self):
        assert tl.ReplicationPlan(master_seed=0).replications == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            tl.ReplicationPlan(master_seed=0, replications=0)
        with pytest.raises(ValueError):
            tl.ReplicationPlan(master_seed=-1)

    def test_replications_past_the_largest_index(self):
        assert tl.ReplicationPlan(master_seed=0, replications=sys.maxsize).replications == sys.maxsize
        with pytest.raises(ValueError, match=f"replications must be <= {sys.maxsize}"):
            tl.ReplicationPlan(master_seed=0, replications=sys.maxsize + 1)


class TestBlockShuffle:
    def test_two_block_swap(self):
        # gaps (0,1,2,3), sizes (10,20,30,40), blocks of 2; the seed is
        # searched for the permutation that swaps the halves, giving
        # gap stream (2,3,0,1) -> times (2,5,5,6) and sizes (30,40,10,20)
        tr = make([0.0, 1.0, 3.0, 6.0], [10, 20, 30, 40])
        swapped = None
        for seed in range(20):
            out = tl.block_shuffle(tr, 2, np.random.default_rng(seed))
            if out.sizes[0] == 30:
                swapped = out
                break
        assert swapped is not None
        assert np.allclose(swapped.timestamps, [2.0, 5.0, 5.0, 6.0])
        assert np.array_equal(swapped.sizes, [30, 40, 10, 20])

    def test_single_block_is_identity(self):
        tr = make([0.0, 1.0, 3.0, 6.0], [10, 20, 30, 40])
        out = tl.block_shuffle(tr, 4, substream(0))
        assert np.array_equal(out.timestamps, tr.timestamps)
        assert np.array_equal(out.sizes, tr.sizes)
        out = tl.block_shuffle(tr, 99, substream(0))
        assert np.array_equal(out.timestamps, tr.timestamps)

    def test_unit_blocks_move_pairs_together(self):
        # at B=1 each packet keeps its own leading gap
        tr = make([0.0, 0.25, 1.0, 1.125, 4.0], [1, 2, 3, 4, 5])
        out = tl.block_shuffle(tr, 1, substream(7))
        orig = sorted(zip(gap_vector(tr), tr.sizes))
        got = sorted(zip(gap_vector(out), out.sizes))
        assert orig == got

    def test_block_size_validated(self):
        tr = make([0.0, 1.0], [1, 1])
        with pytest.raises(ValueError):
            tl.block_shuffle(tr, 0, substream(0))

    def test_same_seed_same_permutation(self):
        tr = tl.generate_poisson(100.0, 100, 500, substream(1))
        a = tl.block_shuffle(tr, 7, substream(2))
        b = tl.block_shuffle(tr, 7, substream(2))
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.sizes, b.sizes)

    @given(n=st.integers(1, 300), block=st.integers(1, 320), seed=st.integers(0, 2**32 - 1))
    def test_permutation_matches_the_argsort_reference(self, n, block, seed):
        # reference: rank every packet by its block's new position and
        # sort stably, which keeps the order inside each block
        sizes = np.arange(1, n + 1)  # distinct sizes expose the permutation
        tr = tl.PacketTrace(tl.generate_poisson(100.0, 100, n, substream(3)).timestamps, sizes)
        order = np.random.default_rng(seed).permutation(-(-n // block))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        perm = np.argsort(rank[np.arange(n) // block], kind="stable")
        gaps = np.concatenate(([0.0], np.diff(tr.timestamps)))
        out = tl.block_shuffle(tr, block, np.random.default_rng(seed))
        assert out.sizes.tobytes() == sizes[perm].tobytes()
        assert out.timestamps.tobytes() == np.cumsum(gaps[perm]).tobytes()

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 2048), st.integers(1, 1500)), min_size=1, max_size=120
        ),
        block=st.integers(1, 130),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_shuffle_conserves_gaps_and_sizes_exactly(self, pairs, block, seed):
        gaps = np.array([g for g, _ in pairs], float) / 512.0
        ts = np.cumsum(gaps) - gaps[0]
        sizes = np.array([s for _, s in pairs])
        tr = tl.PacketTrace(ts, sizes)
        out = tl.block_shuffle(tr, block, np.random.default_rng(seed))
        assert out.packet_count == tr.packet_count
        assert out.total_bytes == tr.total_bytes
        assert np.all(np.diff(out.timestamps) >= 0.0)
        # dyadic gaps accumulate without rounding, so the multisets
        # must match to the last bit
        assert np.array_equal(np.sort(gap_vector(out)), np.sort(gap_vector(tr)))
        assert np.array_equal(np.sort(out.sizes), np.sort(sizes))


    @given(
        gaps=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60),
        data=st.data(),
        block=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_derived_traces_are_frozen_and_equal_to_checked_ones(self, gaps, data, block, seed):
        n = len(gaps)
        sz = data.draw(st.lists(st.integers(1, 2**62), min_size=n, max_size=n))
        tr = tl.PacketTrace(np.cumsum(gaps), sz)
        start = data.draw(st.integers(0, n - 1))
        for out in (tl.block_shuffle(tr, block, np.random.default_rng(seed)), tl.window(tr, start, n - start)):
            checked = tl.PacketTrace(out.timestamps.copy(), out.sizes.copy())
            for got, want in ((out.timestamps, checked.timestamps), (out.sizes, checked.sizes)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_short_last_block_lands_at_its_position(self, where):
        # 10 packets in blocks of 3: three whole blocks and block 3 of
        # one packet; the seed is searched for the position it lands at
        n, block = 10, 3
        sizes = np.arange(1, n + 1)
        tr = tl.PacketTrace(tl.generate_poisson(100.0, 100, n, substream(3)).timestamps, sizes)
        position = {"first": 0, "middle": 2, "last": 3}[where]
        seed = next(s for s in range(200) if np.random.default_rng(s).permutation(4)[position] == 3)
        order = np.random.default_rng(seed).permutation(4)
        perm = np.concatenate([np.arange(i * block, min(n, (i + 1) * block)) for i in order])
        gaps = np.concatenate(([0.0], np.diff(tr.timestamps)))
        out = tl.block_shuffle(tr, block, np.random.default_rng(seed))
        assert out.sizes[position * block] == n
        assert out.sizes.tobytes() == sizes[perm].tobytes()
        assert out.timestamps.tobytes() == np.cumsum(gaps[perm]).tobytes()

    @pytest.mark.parametrize("n, block", [(1, 1), (7, 1), (7, 3), (7, 7), (7, 8), (7, 10**20)])
    def test_shuffled_arrays_share_no_memory_with_the_trace(self, n, block):
        tr = tl.generate_poisson(100.0, 100, n, substream(4))
        before = tr.timestamps.tobytes(), tr.sizes.tobytes()
        out = tl.block_shuffle(tr, block, substream(5))
        for got in (out.timestamps, out.sizes):
            assert not np.shares_memory(got, tr.timestamps)
            assert not np.shares_memory(got, tr.sizes)
        assert (tr.timestamps.tobytes(), tr.sizes.tobytes()) == before

    @pytest.mark.parametrize("k", [1, 2, 7, 160001, 1605703])
    @pytest.mark.parametrize("seed", [0, 7001, 2**63 + 5])
    def test_the_int32_order_is_the_permutation(self, k, seed):
        # k packets in blocks of 1: an order of k blocks, drawn as int32
        trace = tl.PacketTrace(np.arange(k, dtype=np.float64), np.ones(k, dtype=np.int64))
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        order = tl.block_shuffle(trace, 1, drawn)._order
        assert order.dtype == np.int32
        assert np.array_equal(order, reference.permutation(k))
        assert drawn.bit_generator.state == reference.bit_generator.state

    def test_shuffle_rounding_past_the_largest_float_is_rejected(self):
        tr = tl.PacketTrace(np.array([0.0, 3e307, np.finfo(float).max]), np.array([1, 1, 1]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite timestamp"):
            tl.block_shuffle(tr, 1, substream(0))


class FixedOrder(np.random.Generator):
    """A generator whose shuffle of block_shuffle's block indices leaves
    them in the given order."""

    def __init__(self, order):
        super().__init__(np.random.PCG64(0))
        self.order = order

    def shuffle(self, x):
        assert np.array_equal(np.sort(x), np.sort(self.order))
        x[:] = self.order


# 150001 packets: B = 2 leaves a short block of 1 packet, and B = 65535,
# 65536 and 65537 straddle the 2**16-packet runs with short blocks of
# 18931, 18929 and 18927
SHUFFLE_N = 150_001


def short_block_positions(block):
    """Where the short block is put for block, or [None] when it has none."""
    if block >= SHUFFLE_N or SHUFFLE_N % block == 0:
        return [None]
    return ["first", "middle", "last"] if SHUFFLE_N // block > 1 else ["first", "last"]


SHUFFLE_CASES = [
    (block, where)
    for block in (1, 2, 65535, 65536, 65537, SHUFFLE_N - 1, SHUFFLE_N, 2 * SHUFFLE_N)
    for where in short_block_positions(block)
]


class TestLazyShuffle:
    """A shuffled trace serves its runs without building its columns,
    and the columns it builds on a read are the shuffle itself."""

    @pytest.fixture(scope="class")
    def trace(self):
        return tl.generate_poisson(1000.0, 500, SHUFFLE_N, substream(31))

    @staticmethod
    def shuffled(trace, block, where):
        """The shuffle in blocks of block whose short block lands first, in
        the middle or last, and the block order it used."""
        count = -(-len(trace) // min(block, len(trace)))
        order = np.random.default_rng(block).permutation(count)
        if where is not None:
            position = {"first": 0, "middle": count // 2, "last": count - 1}[where]
            order = np.insert(order[order != count - 1], position, count - 1)
        return tl.block_shuffle(trace, block, FixedOrder(order)), order

    def test_length_count_and_mean_build_no_columns(self, trace):
        out, _ = self.shuffled(trace, 100, "middle")
        assert len(out) == out.packet_count == SHUFFLE_N
        assert packet_fifo(out, tl.bandwidth_for_utilization(trace, 0.9)).mean_queue > 0.0
        assert "_columns" not in vars(out)
        out.sizes
        assert "_columns" in vars(out)

    def test_a_duration_up_to_half_the_largest_float_streams(self):
        half = float(np.finfo(float).max) / 2
        tr = tl.PacketTrace(np.array([0.0, half / 2, half]), np.array([1, 2, 3]))
        out = tl.block_shuffle(tr, 1, substream(0))
        assert "_columns" not in vars(out)
        assert np.isfinite(out.timestamps).all() and out.timestamps[-1] == half

    @pytest.mark.parametrize("block, where", SHUFFLE_CASES)
    def test_columns_are_the_blocks_in_order_then_one_cumsum(self, trace, block, where):
        out, order = self.shuffled(trace, block, where)
        gaps = np.concatenate(([0.0], np.diff(trace.timestamps)))
        b = min(block, SHUFFLE_N)
        perm = np.concatenate([np.arange(i * b, min(SHUFFLE_N, (i + 1) * b)) for i in order])
        assert out.sizes.tobytes() == trace.sizes[perm].tobytes()
        assert out.timestamps.tobytes() == np.cumsum(gaps[perm]).tobytes()
        assert not out.timestamps.flags.writeable and not out.sizes.flags.writeable

    @pytest.mark.parametrize("block, where", SHUFFLE_CASES)
    def test_the_queue_run_is_the_run_of_the_stored_columns(self, trace, block, where):
        bandwidth = tl.bandwidth_for_utilization(trace, 0.95)
        shuffled = self.shuffled(trace, block, where)[0]
        run = packet_fifo(shuffled, bandwidth)
        stats, path = tl.packet_stats(shuffled, bandwidth, keep_path=True)
        out = self.shuffled(trace, block, where)[0]
        stored = tl.PacketTrace(out.timestamps, out.sizes)
        stored_run = packet_fifo(stored, bandwidth)
        for got, want in ((run.mean_queue, stored_run.mean_queue), (run.area, stored_run.area),
                          (run.horizon, stored_run.horizon)):
            assert got.hex() == want.hex()
        stored_stats, stored_path = tl.packet_stats(stored, bandwidth, keep_path=True)
        assert stats == stored_stats
        assert path.times.tobytes() == stored_path.times.tobytes()

    @pytest.mark.parametrize("read", ["stats", "path"])
    @pytest.mark.parametrize("block, where", [(1, None), (100, "first"), (65537, "middle"), (SHUFFLE_N - 1, "last")])
    def test_stats_and_path_build_no_columns(self, trace, block, where, read):
        # packet_stats with or without the path reads the shuffle's runs only
        bandwidth = tl.bandwidth_for_utilization(trace, 0.95)
        out, _ = self.shuffled(trace, block, where)
        keep_path = read == "path"
        stats, path = tl.packet_stats(out, bandwidth, keep_path=keep_path)
        assert "_columns" not in vars(out)
        stored, stored_path = tl.packet_stats(tl.PacketTrace(out.timestamps, out.sizes), bandwidth, keep_path=keep_path)
        assert stats == stored
        if keep_path:
            assert path.times.tobytes() == stored_path.times.tobytes()
            assert path.levels.tobytes() == stored_path.levels.tobytes()
        else:
            assert path is stored_path is None


class TestSizesStoredOnce:
    """A trace whose sizes are one zero-stride column, as packetize and
    generate_poisson store them, gives the bits and bytes of its twin
    with np.full sizes wherever the sizes are read."""

    N = 1003  # blocks of 7 and of 100 leave a short last block

    @pytest.fixture(scope="class")
    def twins(self):
        ts = tl.generate_poisson(1000.0, 1500, self.N, substream(41)).timestamps
        once = tl.PacketTrace(ts, np.broadcast_to(np.int64(1500), self.N))
        full = tl.PacketTrace(ts, np.full(self.N, 1500))
        assert once.sizes.strides == (0,) and full.sizes.strides == (8,)
        return once, full

    @pytest.mark.parametrize("block", [1, 7, 100, N])
    @pytest.mark.parametrize("run", [50, 2**16])
    def test_block_shuffle_runs_and_columns(self, twins, block, run):
        once, full = (tl.block_shuffle(trace, block, substream(42)) for trace in twins)
        # runs of 50 packets take 50, 7 or no whole blocks at a time, and
        # cut blocks of 100 and of N into spans
        for (t1, z1), (t2, z2) in zip(once._slices(run), full._slices(run), strict=True):
            assert t1.tobytes() == t2.tobytes() and z1.tobytes() == z2.tobytes()
        for got, want in ((once.timestamps, full.timestamps), (once.sizes, full.sizes)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert once.sizes.strides == (0,) and not once.sizes.flags.writeable

    @pytest.mark.parametrize("block", [None, 7])
    def test_packet_fifo_mean_stats_and_path(self, twins, block):
        bandwidth = tl.bandwidth_for_utilization(twins[1], 0.9)
        once, full = (trace if block is None else tl.block_shuffle(trace, block, substream(43)) for trace in twins)
        assert packet_fifo(once, bandwidth).mean_queue.hex() == packet_fifo(full, bandwidth).mean_queue.hex()
        (once_stats, once_path), (full_stats, full_path) = (tl.packet_stats(t, bandwidth, keep_path=True)
                                                            for t in (once, full))
        assert once_stats == full_stats
        for got, want in ((once_path.times, full_path.times), (once_path.levels, full_path.levels)):
            assert got.tobytes() == want.tobytes()

    def test_save_bin_window_and_summaries(self, twins, tmp_path):
        once, full = twins
        for name, trace in (("once", once), ("full", full)):
            tl.save_trace(trace, tmp_path / f"{name}.csv", comments=("equal sizes",))
        assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
        width = once.duration / 64
        assert (tl.bin_counts(once, width, unit="bytes").tobytes()
                == tl.bin_counts(full, width, unit="bytes").tobytes())
        got, want = tl.window(once, 100, 500), tl.window(full, 100, 500)
        assert got.timestamps.tobytes() == want.timestamps.tobytes() and got.sizes.tobytes() == want.sizes.tobytes()
        assert cli._summary_row(once) == cli._summary_row(full)
        assert once.total_bytes == full.total_bytes == 1500 * self.N

    def test_a_window_keeps_them_stored_once(self):
        trace = tl.generate_poisson(100.0, 500, 10**6, substream(44))
        got = tl.window(trace, 1234, 500_000)
        assert got.sizes.strides == (0,) and not got.sizes.flags.writeable and got.sizes[0] == 500
        assert got.timestamps.tobytes() == (trace.timestamps[1234:501_234] - trace.timestamps[1234]).tobytes()
        # the window's 500,000 timestamps and a few small objects; copied
        # sizes would add 8 bytes a packet
        assert peak_bytes(lambda: tl.window(trace, 1234, 500_000)) <= 8 * 500_000 + MiB // 8


def peak_bytes(run) -> int:
    """The peak memory traced while run() runs; numpy reports its array
    buffers to tracemalloc, so the peak counts them."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MiB = 2**20


class TestAllocationBudget:
    # 2**19 packets or cycles: one float64 array of that length is 4 MiB,
    # eight times the small allowance below, so one n-length array more
    # than a budget counts fails it. Each budget takes the queue kernel's
    # own peak, measured on the same length, as the kernel's share, so
    # the bounds count only the arrays a replication itself makes
    N = 2**19
    SMALL = MiB // 2  # the N-byte boolean checks and small temporaries

    @staticmethod
    def runs(block):
        """The run buffers of a shuffle of a trace whose sizes are stored
        once (_BlockShuffled._slices): float64 runs of 2**16 timestamps and
        gaps, and the intp indices of a run's 2**16 // block blocks. With
        block > 1 take also buffers its strided output, the packets before
        the blocks, as long as those indices."""
        return 2 * 8 * 2**16 + 8 * (2**16 // block) * (2 if block > 1 else 1)

    def replication_budget(self, trace, block, bandwidth):
        """What a shuffled replication's mean queue may hold: the int32
        order of ceil(n / block) blocks, the run buffers and the kernel's
        peak, which packet_fifo on the trace itself measures."""
        kernel = peak_bytes(lambda: packet_fifo(trace, bandwidth).mean_queue)
        return 4 * -(-len(trace) // block) + self.runs(block) + kernel

    @pytest.mark.parametrize("block", [1, 100])
    def test_a_shuffled_replication_allocates_its_outputs_and_permutation(self, block):
        trace = tl.generate_poisson(1000.0, 500, self.N, substream(21))
        bandwidth = tl.bandwidth_for_utilization(trace, 0.9)

        def replicate(seed):
            shuffled = tl.block_shuffle(trace, block, substream(seed))
            packet_fifo(shuffled, bandwidth).mean_queue
            return shuffled.timestamps, shuffled.sizes

        replicate(0)
        # the replication's mean, and then its columns: float64 timestamps,
        # 8N bytes, and the sizes stored once, as the trace stores them. An
        # int64 size column, or the trace's gaps, would add 8N bytes
        budget = 8 * self.N + self.replication_budget(trace, block, bandwidth) + self.SMALL
        assert peak_bytes(lambda: replicate(1)) <= budget

    @pytest.mark.parametrize("block", [1, 100])
    def test_a_shuffled_replication_holds_its_permutation_and_two_runs(self, block):
        trace = tl.generate_poisson(1000.0, 500, self.N, substream(22))
        bandwidth = tl.bandwidth_for_utilization(trace, 0.9)

        def replicate(seed):
            return packet_fifo(tl.block_shuffle(trace, block, substream(seed)), bandwidth).mean_queue

        replicate(0)
        # no N-length array: the shuffled timestamps or the gaps would add 8N bytes
        budget = self.replication_budget(trace, block, bandwidth) + self.SMALL
        assert peak_bytes(lambda: replicate(1)) <= budget

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_a_shuffled_replication_of_a_packetized_trace_makes_no_n_length_array(self, block):
        # N packets of 1000 bytes, 8 per on period, in 2**16 cycles
        spacing = 1000 / (2.0 * 1e6)
        process = tl.FluidOnOffProcess(np.full(self.N // 8, 8.5 * spacing), np.full(self.N // 8, 0.01), 2.0)
        trace, _ = tl.packetize(process, 1000, 1e6)
        assert len(trace) == self.N and trace.sizes.strides == (0,)
        bandwidth = tl.bandwidth_for_utilization(trace, 0.9)

        def replicate(seed):
            return packet_fifo(tl.block_shuffle(trace, block, substream(seed)), bandwidth).mean_queue

        replicate(0)
        # the sizes are read as slices of the one stored size: gathered,
        # take would first copy the column whole, 8N bytes
        budget = self.replication_budget(trace, block, bandwidth) + self.SMALL
        assert peak_bytes(lambda: replicate(1)) <= budget

    def test_a_pooled_block_sweep_holds_one_order_per_thread(self, monkeypatch):
        trace = tl.generate_poisson(1000.0, 500, self.N, substream(23))
        bandwidth = tl.bandwidth_for_utilization(trace, 0.9)
        kernel = peak_bytes(lambda: packet_fifo(trace, bandwidth).mean_queue)
        # the baseline and 7 replications run in pairs, each pair's kernels
        # side by side, each replication's order drawn in its own thread
        together = threading.Barrier(2, timeout=30)

        def paired(*args):
            together.wait()
            return packet_fifo(*args)

        monkeypatch.setattr(experiments, "packet_fifo", paired)
        plan = tl.ReplicationPlan(master_seed=4, replications=7)
        with pool_of(2):
            peak = peak_bytes(lambda: tl.blocksize_sweep(trace, [1], plan, bandwidth=bandwidth))
        # each of the 2 threads' int32 order of N blocks, 4N bytes, its
        # kernel peak and its run buffers. One more order, 4N bytes, or one
        # more N-length array, such as the trace's gaps, would exceed the budget
        budget = 2 * (4 * self.N + kernel + self.runs(1)) + self.SMALL
        assert peak <= budget

    def test_a_block_sweep_lists_no_replications(self, monkeypatch):
        # 3 block sizes of 10**5 replications each: a list of their
        # 3 * 10**5 keys, made before the first replication, would take
        # about 33 MiB. The first simulation fails at once
        def refuse(*args):
            raise RuntimeError("not served")

        monkeypatch.setattr(experiments, "packet_fifo", refuse)
        trace = make([0.0, 1.0, 2.0], [100, 100, 100])
        plan = tl.ReplicationPlan(master_seed=5, replications=10**5)

        def sweep():
            with pytest.raises(RuntimeError, match="not served"):
                tl.blocksize_sweep(trace, [1, 2, 3], plan, bandwidth=1e3)

        for workers in (1, POOL):
            with pool_of(workers):
                assert peak_bytes(sweep) < MiB

    def test_a_pooled_synthetic_sweep_holds_a_trace_per_thread(self, monkeypatch):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 1.0), n_cycles=64,
                                lambda_target=0.5, off_model="reordered")
        src = tl.SyntheticSource(spec=spec, packet_size=100, server_rate=10_000.0)
        plan = tl.ReplicationPlan(master_seed=4, replications=3 * POOL)
        # each replication alone: its trace of N packets, 8N bytes of
        # timestamps and its sizes stored once, the pieces it is cut from,
        # and the kernel's peak
        alone = max(peak_bytes(lambda: packet_fifo(src.trace(substream(4, i, 0), n_packets=self.N),
                                                   src.server_rate).mean_queue)
                    for i in range(plan.replications))
        # the replications run POOL at a time, their kernels side by side
        together = threading.Barrier(POOL, timeout=30)

        def side_by_side(*args):
            together.wait()
            return packet_fifo(*args)

        monkeypatch.setattr(experiments, "packet_fifo", side_by_side)
        with pool_of(POOL):
            peak = peak_bytes(lambda: tl.sample_size_sweep(src, [self.N], plan))
        # at most POOL replications at once, each within its peak alone.
        # One more trace, 8N bytes, would exceed the budget
        assert peak <= POOL * alone + self.SMALL

    def _prefix_kernel(self, tail):
        """The peak of prefix_mean_queue on replication 0's process, made
        outside the measurement: one thread's share of a sweep's peak."""
        u = 1.0 - substream(3, 0).random(self.N)
        process = tl.reorder_nonoverlap(tl.sample_heavy_tail(tail, u, out=u), 2.0, 0.5)
        return peak_bytes(lambda: tl.prefix_mean_queue(process, [self.N]))

    @pytest.mark.parametrize("x_max", [None, 1000.0])
    def test_one_thread_prefix_sweep_holds_one_array(self, x_max):
        tail = tl.HeavyTailSpec(1.5, 1.0, x_max)
        kernel = self._prefix_kernel(tail)
        plan = tl.ReplicationPlan(master_seed=3, replications=2)
        # a replication holds one N-length float64 array: the uniforms,
        # into which the bursts are drawn, and which the process keeps
        # while the kernel computes the silences a run at a time. The
        # second replication must not hold the first's bursts
        budget = 8 * self.N + kernel + self.SMALL
        with pool_of(1):
            assert peak_bytes(lambda: tl.prefix_mean_sweep(reordered(tail, self.N), [self.N], plan)) <= budget

    @pytest.mark.parametrize("x_max", [None, 1000.0])
    def test_pooled_prefix_sweep_holds_n_arrays(self, x_max, monkeypatch):
        tail = tl.HeavyTailSpec(1.5, 1.0, x_max)
        kernel = self._prefix_kernel(tail)
        # 6 replications run in pairs, each pair's kernels side by side,
        # each replication's bursts drawn in its own thread
        together = threading.Barrier(2, timeout=30)
        prefix_mean_queue = experiments.prefix_mean_queue

        def paired(*args):
            together.wait()
            return prefix_mean_queue(*args)

        monkeypatch.setattr(experiments, "prefix_mean_queue", paired)
        plan = tl.ReplicationPlan(master_seed=3, replications=6)
        with pool_of(2):
            peak = peak_bytes(lambda: tl.prefix_mean_sweep(reordered(tail, self.N), [self.N], plan))
        # each of the 2 threads' replication: its bursts, 8N bytes, and its
        # kernel peak. One more N-length array would exceed the budget
        budget = 2 * (8 * self.N + kernel) + self.SMALL
        assert peak <= budget


class TestSampleSizeSweep:
    def _trace(self):
        return tl.generate_poisson(200.0, 100, 2000, substream(0))

    def test_points_are_sorted_and_replicated(self):
        plan = tl.ReplicationPlan(master_seed=1, replications=4)
        sweep = tl.sample_size_sweep(self._trace(), [500, 100], plan, rho=0.5)
        assert [p.x for p in sweep.points] == [100.0, 500.0]
        assert all(len(p.rep_means) == 4 for p in sweep.points)
        assert sweep.baseline is None
        assert sweep.x_label == "sample_size"

    def test_deterministic_given_plan(self):
        plan = tl.ReplicationPlan(master_seed=1, replications=3)
        a = tl.sample_size_sweep(self._trace(), [200, 800], plan, rho=0.5)
        b = tl.sample_size_sweep(self._trace(), [200, 800], plan, rho=0.5)
        assert [p.rep_means for p in a.points] == [p.rep_means for p in b.points]

    def test_aggregates_match_replications(self):
        plan = tl.ReplicationPlan(master_seed=2, replications=5)
        sweep = tl.sample_size_sweep(self._trace(), [300], plan, rho=0.5)
        p = sweep.points[0]
        mean, std = aggregate_replications(p.rep_means)
        assert p.mean == pytest.approx(mean)
        assert p.std == pytest.approx(std)

    def test_size_beyond_trace_rejected(self):
        plan = tl.ReplicationPlan(master_seed=0, replications=2)
        with pytest.raises(ValueError):
            tl.sample_size_sweep(self._trace(), [5000], plan, rho=0.5)

    def test_exactly_one_rate_argument(self):
        plan = tl.ReplicationPlan(master_seed=0, replications=2)
        with pytest.raises(ValueError):
            tl.sample_size_sweep(self._trace(), [100], plan)
        with pytest.raises(ValueError):
            tl.sample_size_sweep(self._trace(), [100], plan, bandwidth=1e4, rho=0.5)

    def test_synthetic_source_generates_fresh_traces(self):
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 0.05), n_cycles=64,
            lambda_target=0.5, off_model="reordered",
        )
        src = tl.SyntheticSource(spec=spec, packet_size=100, server_rate=10_000.0)
        plan = tl.ReplicationPlan(master_seed=3, replications=3)
        sweep = tl.sample_size_sweep(src, [50, 150], plan)
        assert [p.x for p in sweep.points] == [50.0, 150.0]
        assert all(np.isfinite(p.mean) for p in sweep.points)

    def test_synthetic_source_rejects_rho(self):
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 0.05), n_cycles=64,
            lambda_target=0.5, off_model="reordered",
        )
        src = tl.SyntheticSource(spec=spec, packet_size=100, server_rate=10_000.0)
        plan = tl.ReplicationPlan(master_seed=3, replications=2)
        with pytest.raises(ValueError):
            tl.sample_size_sweep(src, [50], plan, rho=0.5)

    def test_unknown_source_rejected(self):
        with pytest.raises(TypeError):
            tl.sample_size_sweep("trace.csv", [10], tl.ReplicationPlan(0, 2), rho=0.5)


class TestBlocksizeSweep:
    def test_baseline_and_identity_blocksize(self):
        tr = tl.generate_poisson(200.0, 100, 400, substream(4))
        plan = tl.ReplicationPlan(master_seed=5, replications=3)
        sweep = tl.blocksize_sweep(tr, [400], plan, rho=0.5)
        # one block means the permutation is the identity, so every
        # replication reproduces the unshuffled baseline bit for bit
        assert sweep.baseline is not None
        assert all(v == sweep.baseline for v in sweep.points[0].rep_means)

    def test_deterministic_given_plan(self):
        tr = tl.generate_poisson(200.0, 100, 400, substream(4))
        plan = tl.ReplicationPlan(master_seed=6, replications=3)
        a = tl.blocksize_sweep(tr, [1, 40], plan, rho=0.5)
        b = tl.blocksize_sweep(tr, [1, 40], plan, rho=0.5)
        assert [p.rep_means for p in a.points] == [p.rep_means for p in b.points]
        assert a.baseline == b.baseline

    def test_block_sizes_validated(self):
        tr = tl.generate_poisson(200.0, 100, 100, substream(4))
        plan = tl.ReplicationPlan(master_seed=0, replications=2)
        with pytest.raises(ValueError):
            tl.blocksize_sweep(tr, [], plan, rho=0.5)
        with pytest.raises(ValueError):
            tl.blocksize_sweep(tr, [0, 10], plan, rho=0.5)


def pool_of(workers):
    """Make _in_order's pool this many threads, whatever the machine has."""
    return mock.patch.object(traces, "_workers", lambda: workers)


POOL = max(2, traces._workers())


def sweep_csv(sweep) -> str:
    fh = io.BytesIO()
    sweep.write_csv(fh)
    return fh.getvalue().decode()


class TestPooledReplications:
    """A sweep runs its replications on _in_order's pool: the bytes of a
    one-thread run, each trace made and served in one worker thread, an
    error at its replication, and no thread left behind."""

    @pytest.fixture(scope="class")
    def trace(self):
        return tl.generate_poisson(1000.0, 500, 3001, substream(41))

    @staticmethod
    def one_thread_and_pooled(run):
        """run() on one thread and on a pool of POOL threads; each leaves
        as many threads running as there were before it."""
        before = threading.active_count()
        with pool_of(1):
            serial = run()
        assert threading.active_count() == before
        with pool_of(POOL):
            pooled = run()
        assert threading.active_count() == before
        return serial, pooled

    # B = 1, a short last block of 5 packets, B = n and B > n, then all four
    @pytest.mark.parametrize("blocks", [[1], [7], [3001, 10**6], [1, 7, 3001, 10**6]])
    def test_block_sweeps_keep_their_bytes(self, trace, blocks):
        plan = tl.ReplicationPlan(master_seed=5, replications=5)
        serial, pooled = self.one_thread_and_pooled(lambda: tl.blocksize_sweep(trace, blocks, plan, rho=0.95))
        assert sweep_csv(pooled) == sweep_csv(serial)
        assert pooled.baseline == packet_fifo(trace, tl.bandwidth_for_utilization(trace, 0.95)).mean_queue

    def test_window_sweeps_keep_their_bytes(self, trace):
        plan = tl.ReplicationPlan(master_seed=6, replications=5)
        serial, pooled = self.one_thread_and_pooled(lambda: tl.sample_size_sweep(trace, [10, 500, 3001], plan, rho=0.9))
        assert sweep_csv(pooled) == sweep_csv(serial)

    def test_synthetic_sweeps_keep_their_bytes(self):
        spec = tl.GeneratorSpec(m=2.0, tail=tl.HeavyTailSpec(1.5, 0.05), n_cycles=64,
                                lambda_target=0.5, off_model="reordered")
        src = tl.SyntheticSource(spec=spec, packet_size=100, server_rate=10_000.0)
        plan = tl.ReplicationPlan(master_seed=7, replications=5)
        serial, pooled = self.one_thread_and_pooled(lambda: tl.sample_size_sweep(src, [50, 150, 1000], plan))
        assert sweep_csv(pooled) == sweep_csv(serial)

    def test_more_threads_than_cores_and_short_switches_keep_the_bytes(self, trace):
        plan = tl.ReplicationPlan(master_seed=8, replications=5)

        def run():
            return sweep_csv(tl.blocksize_sweep(trace, [1, 7, 3001], plan, rho=0.95))

        with pool_of(1):
            serial = run()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool_of(2 * POOL + 1):
                pooled = [run() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert pooled == [serial] * 3

    def test_each_trace_is_made_and_served_in_one_thread(self, trace, monkeypatch):
        made, served = [], []
        shuffle, fifo = experiments.block_shuffle, experiments.packet_fifo

        def recorded_shuffle(*args):
            shuffled = shuffle(*args)
            made.append((threading.get_ident(), shuffled))
            return shuffled

        def recorded_fifo(served_trace, *args):
            served.append((threading.get_ident(), served_trace))
            return fifo(served_trace, *args)

        monkeypatch.setattr(experiments, "block_shuffle", recorded_shuffle)
        monkeypatch.setattr(experiments, "packet_fifo", recorded_fifo)
        with pool_of(POOL):
            tl.blocksize_sweep(trace, [1, 10], tl.ReplicationPlan(master_seed=2, replications=5), rho=0.9)
        here = threading.get_ident()
        assert len(made) == 10 and len(served) == 11
        # each shuffle is served once, in the thread that made it, and the
        # baseline once, all off the calling thread
        for thread, shuffled in made:
            assert [t for t, s in served if s is shuffled] == [thread]
        assert sum(s is trace for _, s in served) == 1
        assert here not in {t for t, _ in made + served}

    def test_a_failing_replication_raises_at_its_point(self, trace):
        # 2**62-byte packets at 1e-290 bytes/s take longer than the largest
        # float, so the seventh replication, the second of x = 2, fails
        huge = tl.PacketTrace(np.array([0.0, 1.0]), np.array([2**62, 2**62]))
        plan = tl.ReplicationPlan(master_seed=3, replications=5)
        seventh = substream(3, 1, 1).bit_generator.state

        made = []

        def make_trace(x, rng):
            made.append(rng.bit_generator.state == seventh)
            return huge if made[-1] else trace

        before = threading.active_count()
        errors = []
        for workers in (1, 2, 5):
            made.clear()
            with pool_of(workers), pytest.raises(ValueError, match="is too small") as info:
                experiments._replicate("x", [1, 2, 3], plan, 1e-290, make_trace)
            assert threading.active_count() == before
            errors.append(str(info.value))
            # only the seventh fails; one thread makes the six before it and stops
            assert made.count(True) == 1 and len(made) >= 7
            if workers == 1:
                assert made == [False] * 6 + [True]
        assert errors == [errors[0]] * 3


class TestPooledPrefixMeans:
    """prefix_mean_sweep runs its replications on _in_order's pool as the
    sweeps above do: the bits of a one-thread run, each process made and
    served in one worker thread, an error at its replication, and no
    thread left behind."""

    TAIL = tl.HeavyTailSpec(1.5, 1.0)
    # one cycle, one 2**16-cycle run, into a second run, and past it
    SIZES = [1, 2**16, 2**16 + 1, 70_000]

    @pytest.mark.parametrize("reps", [1, 2, 7])
    @pytest.mark.parametrize("x_max", [None, 100.0])
    def test_pooled_sweeps_keep_the_one_thread_bits(self, reps, x_max):
        tail = tl.HeavyTailSpec(1.5, 1.0, x_max)
        plan = tl.ReplicationPlan(master_seed=9, replications=reps)
        before = threading.active_count()
        runs = []
        interval = sys.getswitchinterval()
        for workers in (1, 2, 5):
            # more threads than cores, switching as often as they can
            sys.setswitchinterval(1e-6 if workers == 5 else interval)
            try:
                with pool_of(workers):
                    runs.append(tl.prefix_mean_sweep(reordered(tail, self.SIZES[-1]), self.SIZES, plan))
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == before
        serial, *pooled = runs
        assert all(sweep_csv(p) == sweep_csv(serial) for p in pooled)
        # and each replication is the library route, one call at a time
        for i in range(reps):
            bursts = tl.sample_heavy_tail(tail, 1.0 - substream(9, i).random(self.SIZES[-1]))
            want = tl.prefix_mean_queue(tl.reorder_nonoverlap(bursts, 2.0, 0.5), self.SIZES)
            assert [(int(p.x), p.rep_means[i]) for p in serial.points] == want

    def test_each_replication_is_made_and_served_in_one_thread(self, monkeypatch):
        drawn, served = [], []
        sample, prefix_means = synth.sample_heavy_tail, experiments.prefix_mean_queue

        def recorded_sample(*args, **kwargs):
            bursts = sample(*args, **kwargs)
            drawn.append((threading.get_ident(), bursts))
            return bursts

        def recorded_prefix_means(process, sizes):
            served.append((threading.get_ident(), process))
            return prefix_means(process, sizes)

        monkeypatch.setattr(synth, "sample_heavy_tail", recorded_sample)
        monkeypatch.setattr(experiments, "prefix_mean_queue", recorded_prefix_means)
        with pool_of(POOL):
            tl.prefix_mean_sweep(reordered(self.TAIL, 1000), [10, 1000], tl.ReplicationPlan(master_seed=2, replications=5))
        here = threading.get_ident()
        assert len(drawn) == 5 and len(served) == 5
        # each replication's process, holding its bursts, is served in the
        # thread that drew them, off the calling thread
        for thread, bursts in drawn:
            assert [t for t, p in served if np.shares_memory(p.on_lengths, bursts)] == [thread]
        assert here not in {t for t, _ in drawn + served}

    def test_a_replication_that_cannot_be_made_raises_at_it(self, monkeypatch):
        # the fourth replication's last burst is 1e308, whose silence, three
        # times as long, overflows, so reorder_nonoverlap refuses it. Each
        # replication is known by its first uniform, from its substream
        first = [1.0 - substream(2, i).random() for i in range(7)]
        sample, prefix_means = synth.sample_heavy_tail, experiments.prefix_mean_queue
        index_of, served = {}, []

        def huge_fourth(tail, u, **kwargs):
            i = first.index(u[0])
            x = sample(tail, u, **kwargs)
            index_of[x[0]] = i
            if i == 3:
                x[-1] = 1e308
            return x

        def recorded_prefix_means(process, sizes):
            served.append(index_of[process.on_lengths[0]])
            return prefix_means(process, sizes)

        monkeypatch.setattr(synth, "sample_heavy_tail", huge_fourth)
        monkeypatch.setattr(experiments, "prefix_mean_queue", recorded_prefix_means)
        before = threading.active_count()
        for workers in (1, 2, 5):
            index_of.clear()
            served.clear()
            with pool_of(workers), pytest.raises(ValueError, match=r"bursts of up to 1e\+308 s and the silence ratio "
                                                                   r"m/lam - 1 = 3\.0 make silences past"):
                tl.prefix_mean_sweep(reordered(self.TAIL, 1000), [10, 1000],
                                     tl.ReplicationPlan(master_seed=2, replications=7))
            assert threading.active_count() == before
            # the three before the failing one drawn and served, the fourth
            # drawn and not served; later ones may have run beside them
            drawn = sorted(index_of.values())
            assert drawn[:4] == [0, 1, 2, 3] and sorted(served)[:3] == [0, 1, 2] and 3 not in served
            if workers == 1:
                assert (drawn, served) == ([0, 1, 2, 3], [0, 1, 2])


class TestPrefixMeanSweep:
    """prefix_mean_sweep runs the recipe it is given, of any off model."""

    TAIL = tl.HeavyTailSpec(1.5, 1.0)
    # one cycle, one 2**16-cycle run, into a second run, and past it, of a
    # recipe one cycle longer than the longest prefix
    SIZES = [1, 2**16, 2**16 + 1, 70_000]
    SPECS = {"iid": tl.GeneratorSpec(2.0, TAIL, 70_001, 0.5, "iid"),
             "reordered": tl.GeneratorSpec(2.0, TAIL, 70_001, 0.5, "reordered"),
             "bounded": tl.GeneratorSpec(1.7, TAIL, 70_001, off_model="bounded", q=2.0)}

    def test_every_library_model_is_swept(self):
        assert tuple(self.SPECS) == synth.OFF_MODELS

    @pytest.mark.parametrize("model", SPECS)
    def test_each_prefix_mean_is_the_fluid_queue_of_the_drawn_prefix(self, model):
        spec, plan = self.SPECS[model], tl.ReplicationPlan(master_seed=45, replications=3)
        sweep = tl.prefix_mean_sweep(spec, self.SIZES, plan)
        assert [p.x for p in sweep.points] == self.SIZES
        for i in range(plan.replications):
            process = tl.generate_onoff(spec, substream(45, i))
            want = [tl.fluid_queue(process.prefix(n)).mean_queue for n in self.SIZES]
            assert [p.rep_means[i] for p in sweep.points] == want
        if model == "bounded":  # each cycle's area averages at most q over the cycle
            assert max(max(p.rep_means) for p in sweep.points) <= spec.q

    def test_a_size_past_the_recipe_is_refused_before_any_replication(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(experiments, "generate_onoff", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"^size 70002 is past the spec's 70001 cycles$"):
            tl.prefix_mean_sweep(self.SPECS["iid"], [10, 70_002], tl.ReplicationPlan(master_seed=1, replications=2))
        assert drawn == []


class TestSweepCsv:
    def test_layout(self):
        points = [
            tl.SweepPoint(1.0, 2.0, 0.5, (1.5, 2.5)),
            tl.SweepPoint(10.0, 4.0, 1.0, (3.0, 5.0)),
        ]
        sweep = tl.SweepResult(x_label="block_size", points=points, baseline=6.25)
        buf = io.BytesIO()
        sweep.write_csv(buf, comments=("manifest: deadbeef",))
        lines = buf.getvalue().decode().splitlines()
        assert lines[0] == "# manifest: deadbeef"
        assert lines[1] == "# block_size,mean,std,rep_1,rep_2"
        assert lines[2] == "# baseline_mean_queue: 6.25"
        assert lines[3].split(",") == ["1.0", "2.0", "0.5", "1.5", "2.5"]
        assert len(lines) == 5

    def test_baseline_line_omitted_without_baseline(self):
        sweep = tl.SweepResult(x_label="sample_size", points=[tl.SweepPoint(1.0, 2.0, 0.0, (2.0,))])
        buf = io.BytesIO()
        sweep.write_csv(buf)
        assert "baseline" not in buf.getvalue().decode()

    def test_rows_parse_back_to_the_points(self):
        tr = tl.generate_poisson(200.0, 100, 300, substream(7))
        plan = tl.ReplicationPlan(master_seed=8, replications=2)
        sweep = tl.blocksize_sweep(tr, [10, 50], plan, rho=0.5)
        buf = io.BytesIO()
        sweep.write_csv(buf)
        rows = [l for l in buf.getvalue().decode().splitlines() if not l.startswith("#")]
        for row, point in zip(rows, sweep.points):
            x, mean, std, *reps = (float(v) for v in row.split(","))
            assert (x, mean, std) == (point.x, point.mean, point.std)
            assert tuple(reps) == point.rep_means

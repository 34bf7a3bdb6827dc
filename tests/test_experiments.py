import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trafficlab as tl
from trafficlab.experiments import aggregate_replications
from trafficlab.rng import substream


def make(ts, sizes):
    return tl.PacketTrace(np.asarray(ts, dtype=np.float64), np.asarray(sizes))


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


class TestBlockShuffle:
    def test_two_block_swap(self):
        # gaps (0,1,2,3), sizes (10,20,30,40), blocks of 2; the seed is
        # searched for the permutation that swaps the halves, giving
        # gap stream (2,3,0,1) -> times (2,5,5,6) and sizes (30,40,10,20)
        tr = make([0.0, 1.0, 3.0, 6.0], [10, 20, 30, 40])
        swapped = None
        for seed in range(20):
            out = tl.block_shuffle(tr, 2, seed)
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
        out = tl.block_shuffle(tr, block, seed)
        assert out.packet_count == tr.packet_count
        assert out.total_bytes == tr.total_bytes
        assert np.all(np.diff(out.timestamps) >= 0.0)
        # dyadic gaps accumulate without rounding, so the multisets
        # must match to the last bit
        assert np.array_equal(np.sort(gap_vector(out)), np.sort(gap_vector(tr)))
        assert np.array_equal(np.sort(out.sizes), np.sort(sizes))


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
            lambda_target=0.5, off_model="theorem_reordered",
        )
        src = tl.SyntheticSource(spec=spec, packet_size=100, server_rate=10_000.0)
        plan = tl.ReplicationPlan(master_seed=3, replications=3)
        sweep = tl.sample_size_sweep(src, [50, 150], plan)
        assert [p.x for p in sweep.points] == [50.0, 150.0]
        assert all(np.isfinite(p.mean) for p in sweep.points)

    def test_synthetic_source_rejects_rho(self):
        spec = tl.GeneratorSpec(
            m=2.0, tail=tl.HeavyTailSpec(1.5, 0.05), n_cycles=64,
            lambda_target=0.5, off_model="theorem_reordered",
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


class TestSweepCsv:
    def test_layout(self):
        points = [
            tl.SweepPoint(1.0, 2.0, 0.5, (1.5, 2.5)),
            tl.SweepPoint(10.0, 4.0, 1.0, (3.0, 5.0)),
        ]
        sweep = tl.SweepResult(x_label="block_size", points=points, baseline=6.25)
        buf = io.StringIO()
        sweep.write_csv(buf, comments=("manifest: deadbeef",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# manifest: deadbeef"
        assert lines[1] == "# block_size,mean,std,rep_1,rep_2"
        assert lines[2] == "# baseline_mean_queue: 6.25"
        assert lines[3].split(",") == ["1.0", "2.0", "0.5", "1.5", "2.5"]
        assert len(lines) == 5

    def test_baseline_line_omitted_without_baseline(self):
        sweep = tl.SweepResult(x_label="sample_size", points=[tl.SweepPoint(1.0, 2.0, 0.0, (2.0,))])
        buf = io.StringIO()
        sweep.write_csv(buf)
        assert "baseline" not in buf.getvalue()

    def test_rows_parse_back_to_the_points(self):
        tr = tl.generate_poisson(200.0, 100, 300, substream(7))
        plan = tl.ReplicationPlan(master_seed=8, replications=2)
        sweep = tl.blocksize_sweep(tr, [10, 50], plan, rho=0.5)
        buf = io.StringIO()
        sweep.write_csv(buf)
        rows = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        for row, point in zip(rows, sweep.points):
            x, mean, std, *reps = (float(v) for v in row.split(","))
            assert (x, mean, std) == (point.x, point.mean, point.std)
            assert tuple(reps) == point.rep_means

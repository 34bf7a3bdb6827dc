import numpy as np
import pytest
from hypothesis import given, strategies as st

import trafficlab as tl
from trafficlab.traces import TraceFormatError, window


def make(ts, sizes):
    return tl.PacketTrace(np.asarray(ts, dtype=np.float64), np.asarray(sizes))


# timestamps that are multiples of 1/512 survive both float accumulation
# and the 9-digit decimal file format exactly
dyadic_pairs = st.lists(
    st.tuples(st.integers(0, 8192), st.integers(1, 1500)), min_size=1, max_size=200
)


class TestPacketTrace:
    def test_basic_properties(self):
        tr = make([0.0, 0.5, 2.0], [100, 200, 400])
        assert tr.packet_count == 3
        assert len(tr) == 3
        assert tr.duration == 2.0
        assert tr.total_bytes == 700

    def test_equal_timestamps_allowed(self):
        tr = make([0.0, 1.0, 1.0], [1, 1, 1])
        assert tr.packet_count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make([0.0, 1.0], [10])

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            make([-1.0, 0.0], [10, 10])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make([0.0, np.nan], [10, 10])

    def test_decreasing_rejected(self):
        with pytest.raises(ValueError):
            make([0.0, 2.0, 1.0], [10, 10, 10])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make([0.0, 1.0], [10, 0])

    def test_fractional_size_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="whole bytes"):
            make([0.0, 1.0], [10, 1.5])
        tr = make([0.0, 1.0], [10.0, 1e3])
        assert tr.sizes.dtype == np.int64
        assert tr.sizes.tolist() == [10, 1000]

    def test_arrays_are_frozen(self):
        tr = make([0.0, 1.0], [10, 10])
        with pytest.raises(ValueError):
            tr.timestamps[0] = 5.0
        with pytest.raises(ValueError):
            tr.sizes[0] = 1


class TestParsing:
    def test_csv_round_trip(self, tmp_path):
        tr = make([0.0, 0.001953125, 1.0], [64, 1500, 40])
        path = tmp_path / "t.csv"
        tl.save_trace(tr, path)
        back = tl.load_trace(path)
        assert np.array_equal(back.timestamps, tr.timestamps)
        assert np.array_equal(back.sizes, tr.sizes)

    def test_second_save_is_byte_identical(self, tmp_path):
        tr = make([0.0, 0.25, 7.5], [100, 100, 9000])
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        tl.save_trace(tr, p1)
        tl.save_trace(tl.load_trace(p1), p2)
        assert p2.read_bytes() == p1.read_bytes()

    def test_format_autodetection(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("# a comment\n\n0.5 100\n1.5 200\n")
        tr = tl.load_trace(p)
        assert tr.packet_count == 2
        assert tr.sizes[1] == 200
        p2 = tmp_path / "t2.txt"
        p2.write_text("0.5,100\n1.5,200\n")
        assert tl.load_trace(p2).packet_count == 2

    def test_explicit_format_overrides_detection(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.5 100\n")
        with pytest.raises(TraceFormatError):
            tl.load_trace(p, fmt="csv_ts_bytes")

    def test_unknown_format_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0 1\n")
        with pytest.raises(ValueError):
            tl.load_trace(p, fmt="pcap")

    def test_timestamps_rebase_to_zero(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("5.25,10\n6.25,20\n")
        tr = tl.load_trace(p)
        assert tr.timestamps[0] == 0.0
        assert tr.duration == 1.0

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.0,10\n1.0,20\nbad,line,here\n")
        with pytest.raises(TraceFormatError) as err:
            tl.load_trace(p)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_decreasing_timestamp_reported_with_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.0,10\n2.0,20\n1.0,30\n")
        with pytest.raises(TraceFormatError) as err:
            tl.load_trace(p)
        assert err.value.line == 3

    def test_nonpositive_size_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0.0,0\n")
        with pytest.raises(TraceFormatError):
            tl.load_trace(p)

    def test_file_of_only_comments_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# nothing\n# here\n")
        with pytest.raises(TraceFormatError):
            tl.load_trace(p)

    def test_comments_are_written_and_skipped(self, tmp_path):
        tr = make([0.0, 1.0], [10, 10])
        p = tmp_path / "t.csv"
        tl.save_trace(tr, p, comments=("manifest: abc",))
        assert p.read_text().startswith("# manifest: abc\n")
        assert tl.load_trace(p).packet_count == 2

    @given(pairs=dyadic_pairs)
    def test_save_then_load_is_exact_for_dyadic_times(self, pairs, tmp_path_factory):
        gaps = np.array([g for g, _ in pairs], dtype=np.float64) / 512.0
        ts = np.cumsum(gaps)
        ts -= ts[0]  # loader rebases, so start at zero to compare arrays
        sizes = np.array([s for _, s in pairs], dtype=np.int64)
        tr = tl.PacketTrace(ts, sizes)
        path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
        tl.save_trace(tr, path)
        back = tl.load_trace(path)
        assert np.array_equal(back.timestamps, tr.timestamps)
        assert np.array_equal(back.sizes, tr.sizes)


class TestSummary:
    def test_millisecond_spaced_trace_rate(self):
        tr = make(np.arange(1000) * 0.001, np.full(1000, 64))
        s = tl.summarize(tr)
        assert s.packet_count == 1000
        assert s.total_bytes == 64000
        assert s.duration == pytest.approx(0.999)
        assert s.mean_rate == pytest.approx(64064.06406406406, rel=1e-12)

    def test_zero_duration_has_no_rate(self):
        s = tl.summarize(make([0.0], [100]))
        assert s.mean_rate is None
        assert s.duration == 0.0


class TestBandwidthForUtilization:
    def test_worked_value(self):
        tr = make([0.0, 10.0], [500000, 500000])
        assert tl.bandwidth_for_utilization(tr, 0.5) == pytest.approx(200000.0)

    def test_rho_one_means_rate_equals_load(self):
        tr = make([0.0, 10.0], [500000, 500000])
        assert tl.bandwidth_for_utilization(tr, 1.0) == pytest.approx(100000.0)

    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5])
    def test_rho_out_of_range_rejected(self, rho):
        tr = make([0.0, 10.0], [100, 100])
        with pytest.raises(ValueError):
            tl.bandwidth_for_utilization(tr, rho)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            tl.bandwidth_for_utilization(make([0.0], [100]), 0.5)

    @given(rho=st.floats(0.01, 1.0))
    def test_served_at_derived_rate_offered_load_is_rho(self, rho):
        # offered work per second over the span equals rho by definition
        tr = make([0.0, 2.0, 8.0], [1000, 3000, 2000])
        b = tl.bandwidth_for_utilization(tr, rho)
        assert tr.total_bytes / b / tr.duration == pytest.approx(rho, rel=1e-9)


class TestWindow:
    def test_slice_is_rebased(self):
        tr = make([0.0, 1.0, 3.0, 6.0], [1, 2, 3, 4])
        w = window(tr, 1, 2)
        assert np.array_equal(w.timestamps, [0.0, 2.0])
        assert np.array_equal(w.sizes, [2, 3])

    def test_full_window_is_identity(self):
        tr = make([0.0, 1.0, 3.0], [1, 2, 3])
        w = window(tr, 0, 3)
        assert np.array_equal(w.timestamps, tr.timestamps)

    def test_out_of_range_rejected(self):
        tr = make([0.0, 1.0, 3.0], [1, 2, 3])
        with pytest.raises(ValueError):
            window(tr, 2, 2)
        with pytest.raises(ValueError):
            window(tr, -1, 2)
        with pytest.raises(ValueError):
            window(tr, 0, 0)

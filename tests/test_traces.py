import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trafficlab as tl
from trafficlab import traces
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

    def test_oversized_packet_size_names_the_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.0 10\n0.0 99999999999999999999\n")
        with pytest.raises(TraceFormatError, match="exceeds") as err:
            tl.load_trace(p)
        assert err.value.line == 2


def line_parser_outcome(path):
    """What load_trace gave before the vectorized path: the line parser's
    arrays rebased to zero, or its error."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
        comma = traces._detect_format(lines) == "csv_ts_bytes"
        ts, sz = traces._parse_lines(lines, comma=comma)
        ts -= ts[0]
        return "ok", ts.tobytes(), sz.tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def loader_outcome(path):
    try:
        tr = tl.load_trace(path)
        return "ok", tr.timestamps.tobytes(), tr.sizes.tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


# each mutation rewrites one record line (t, s, sep) into something the
# vectorized path must either read exactly as the line parser does or
# hand over to it
MUTATIONS = {
    "inline_hash": lambda t, s, sep: f"{t}{sep}{s} # note",
    "third_field": lambda t, s, sep: f"{t}{sep}{s}{sep}7",
    "float_size": lambda t, s, sep: f"{t}{sep}5.0",
    "underscore_size": lambda t, s, sep: f"{t}{sep}1_000",
    "plus_size": lambda t, s, sep: f"{t}{sep}+5",
    "tab": lambda t, s, sep: f"{t}{sep.strip()}\t{s}",
    "leading_space": lambda t, s, sep: f"   {t}{sep}{s}",
    "blank": lambda t, s, sep: "",
    "spaces_only": lambda t, s, sep: "   ",
    "comment": lambda t, s, sep: "# a comment",
    "indented_comment": lambda t, s, sep: "  # indented comment",
    "negative_time": lambda t, s, sep: f"-{t}{sep}{s}",
    "decreasing_time": lambda t, s, sep: f"{float(t) - 2.5}{sep}{s}",
    "nan_time": lambda t, s, sep: f"nan{sep}{s}",
    "inf_time": lambda t, s, sep: f"inf{sep}{s}",
    "zero_size": lambda t, s, sep: f"{t}{sep}0",
    "oversized_size": lambda t, s, sep: f"{t}{sep}99999999999999999999",
    "non_ascii_comment": lambda t, s, sep: "# caf\u00e9 \u2615",
    "non_ascii_separator": lambda t, s, sep: f"{t}\u00a0{s}",
    "non_ascii_digits": lambda t, s, sep: f"{t}{sep}\u0661\u0660",
}

# mostly clean files with at most three mutated lines, so that a
# mutation the vectorized path mishandles is not masked by another one
# that sends the whole file to the line parser
trace_files = st.tuples(
    st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 1500)), min_size=1, max_size=40),
    st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 39)), max_size=3),
    st.sampled_from([",", " ", "  "]),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


class TestVectorizedLoader:
    @given(spec=trace_files)
    @settings(max_examples=300)
    def test_matches_the_line_parser(self, spec, tmp_path_factory):
        records, mutations, sep, newline, header = spec
        clock = 0
        fields = []
        for step, size in records:
            clock += step
            fields.append((f"{clock / 512:.6f}", size))
        lines = [f"{t}{sep}{size}" for t, size in fields]
        for kind, at in mutations:
            t, size = fields[at % len(fields)]
            lines[at % len(fields)] = MUTATIONS[kind](t, size, sep)
        if header:
            lines.insert(0, "# timestamp bytes")
        path = tmp_path_factory.getbasetemp() / "differential.txt"
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        assert loader_outcome(path) == line_parser_outcome(path)

    @pytest.mark.parametrize(
        "text",
        [
            "0.5 100 # note\n",
            "0.5 100 7\n",
            "0.5 5.0\n",
            "0.5 1_000\n",
            "# caf\u00e9\n0.5 100\n",
        ],
        ids=["inline_hash", "third_field", "float_size", "underscore_size", "non_ascii"],
    )
    def test_what_numpy_reads_differently_goes_to_the_line_parser(self, text, tmp_path):
        data = text.encode("utf-8")
        assert traces._parse_plain(data, comma=False) is None
        p = tmp_path / "t.txt"
        p.write_bytes(data)
        assert loader_outcome(p) == line_parser_outcome(p)

    def test_underscore_size_still_accepted(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("0.5 1_000\n")
        assert tl.load_trace(p).sizes.tolist() == [1000]

    @pytest.mark.parametrize("name", ["clean.csv", "clean.txt"])
    def test_clean_file_never_reaches_the_line_parser(self, name, tmp_path, monkeypatch):
        tr = tl.generate_poisson(200.0, 100, 1000, tl.substream(4))
        p = tmp_path / name
        if name.endswith(".csv"):
            tl.save_trace(tr, p, comments=("manifest: abc",))
        else:
            rows = "".join(f"{t:.6f} {s}\n" for t, s in zip(tr.timestamps.tolist(), tr.sizes.tolist()))
            p.write_text("# seconds bytes\n" + rows)
        want = line_parser_outcome(p)

        def refuse(*args, **kwargs):
            raise AssertionError("clean file fell back to the line parser")

        monkeypatch.setattr(traces, "_parse_lines", refuse)
        assert loader_outcome(p) == want


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

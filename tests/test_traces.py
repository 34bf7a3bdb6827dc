import hashlib
import io
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trafficlab as tl
from trafficlab import cli, traces
from trafficlab.traces import TraceFormatError, window

from test_experiments import MiB, peak_bytes


@pytest.fixture(autouse=True, scope="module")
def pool_size():
    """Every test here runs the text kernels on a pool of at least two
    threads, so a one-CPU runner takes the pooled route too."""
    workers = max(2, traces._workers())
    with mock.patch.object(traces, "_workers", lambda: workers):
        yield workers


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

    # a numpy cast warning, as from casting a size past int64, fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sizes", [
        np.array([10.0, 1e19]),
        np.array([10.0, np.inf]),
        np.array([10.0, 2.0**63]),  # float(2**63 - 1) rounds to it
        np.array([10.0, 2.0**63], dtype=np.float32),
        np.array([10, 2**63], dtype=np.uint64),
    ])
    def test_size_past_int64_is_refused_before_the_cast(self, sizes):
        with pytest.raises(ValueError, match=r"^packet sizes must be <= 9223372036854775807 bytes$"):
            make([0.0, 1.0], sizes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sizes", [
        np.array([10.0, 2.0**63 - 1024]),  # the largest float under 2**63
        np.array([10, 2**63 - 1], dtype=np.uint64),
    ])
    def test_largest_int64_sizes_are_kept(self, sizes):
        assert make([0.0, 1.0], sizes).sizes.tolist() == [10, int(sizes[1])]

    # numpy's own errors and cast warnings fail these tests
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sizes", [
        ["5"],
        [b"5"],
        [1 + 0j],
        np.array(["2020-01-01"], dtype="datetime64[D]"),
        np.array([5], dtype="timedelta64[s]"),
        [None],
        np.array(["5"], dtype=object),
    ], ids=repr)
    def test_a_size_that_is_not_a_real_number_is_not_whole_bytes(self, sizes):
        with pytest.raises(ValueError, match=r"^packet sizes must be whole bytes$"):
            tl.PacketTrace([0.0], sizes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("timestamps", [
        np.array(["2020-01-01"], dtype="datetime64[D]"),  # numpy would read 18262.0
        np.array([5], dtype="timedelta64[s]"),
        [1 + 0j],
        np.array([1 + 0j], dtype=np.complex64),
        np.array([0, 1 + 0j, 2**70], dtype=object),
        ["0.5"],
        [b"0.5"],
    ], ids=repr)
    def test_timestamps_that_are_not_real_numbers_are_refused(self, timestamps):
        with pytest.raises(ValueError, match=r"^timestamps must be real numbers$"):
            tl.PacketTrace(timestamps, [1] * len(timestamps))

    @pytest.mark.filterwarnings("error")
    def test_python_ints_and_booleans_are_read_as_numbers(self):
        with pytest.raises(ValueError, match=r"^packet sizes must be <= 9223372036854775807 bytes$"):
            tl.PacketTrace([0.0, 1.0], [1, 2**70])
        tr = tl.PacketTrace([0, 2**70], [2**62, 1])
        assert tr.timestamps.tolist() == [0.0, 2.0**70] and tr.sizes.tolist() == [2**62, 1]
        tr = tl.PacketTrace([False, True], [True, True])
        assert tr.timestamps.tolist() == [0.0, 1.0] and tr.sizes.tolist() == [1, 1]

    def test_arrays_are_frozen(self):
        tr = make([0.0, 1.0], [10, 10])
        with pytest.raises(ValueError):
            tr.timestamps[0] = 5.0
        with pytest.raises(ValueError):
            tr.sizes[0] = 1


class TestGaps:
    @given(
        steps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=80),
        start=st.floats(0.0, 1e9),
    )
    def test_equal_to_the_diff_of_the_timestamps(self, steps, start):
        # ties are drawn as often as any other gap
        tr = make(start + np.cumsum(steps), np.ones(len(steps), dtype=np.int64))
        want = np.concatenate(([0.0], np.diff(tr.timestamps)))
        assert tr.gaps.dtype == np.float64 and tr.gaps.tobytes() == want.tobytes()

    def test_read_only_and_not_kept_with_the_trace(self):
        tr = make([0.0, 0.5, 0.5, 2.0], [1, 2, 3, 4])
        gaps = tr.gaps
        assert not gaps.flags.writeable
        with pytest.raises(ValueError):
            gaps[1] = 5.0
        # each read computes the gaps again, and the trace holds none
        assert tr.gaps is not gaps and tr.gaps.tobytes() == gaps.tobytes()
        assert "gaps" not in vars(tr)

    @pytest.mark.parametrize("build", ["PacketTrace", "load_trace", "window", "block_shuffle"])
    def test_computed_on_first_read(self, build, tmp_path):
        base = make([0.0, 0.5, 0.5, 2.0], [1, 2, 3, 4])
        path = tmp_path / "t.csv"
        traces.save_trace(base, path)
        tr = {
            "PacketTrace": lambda: base,
            "load_trace": lambda: traces.load_trace(path),
            "window": lambda: window(base, 1, 3),
            "block_shuffle": lambda: tl.block_shuffle(base, 2, tl.substream(0)),
        }[build]()
        assert "gaps" not in vars(tr)
        want = np.concatenate(([0.0], np.diff(tr.timestamps)))
        assert tr.gaps.tobytes() == want.tobytes()
        assert "gaps" not in vars(tr)


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

    @pytest.mark.parametrize(
        "text",
        ["# csv\n0.5,100\n1.0,200\n1.5 300\n", "# text\n0.5 100\n1.0 200\n1.5,300\n"],
        ids=["csv_first", "text_first"],
    )
    def test_mixed_separators_fail_naming_the_line(self, tmp_path, text):
        # the first record line names the format, so a later record in the
        # other one is an error at its own line
        p = tmp_path / "t.txt"
        p.write_text(text)
        with pytest.raises(TraceFormatError) as err:
            tl.load_trace(p)
        assert str(err.value) == "line 4: expected 2 fields, got 1"

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

    def test_comment_in_any_encoding_is_skipped(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"# caf\xe9\n0.0 100\n0.5 200\n")
        tr = tl.load_trace(p)
        assert tr.timestamps.tolist() == [0.0, 0.5]
        assert tr.sizes.tolist() == [100, 200]

    def test_undecodable_record_names_its_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"# caf\xe9\r\n0.0 100\r\n0.5 2\xe900\r\n")
        with pytest.raises(TraceFormatError, match="not valid UTF-8") as err:
            tl.load_trace(p)
        assert err.value.line == 3


def line_parser_outcome(path):
    """What load_trace gave before the vectorized path: the line parser's
    arrays over the whole file, rebased to zero, or its error."""
    try:
        with open(path, "rb") as fh:
            lines = traces._text_lines(fh.read()).readlines()
        # CSV when the first line that is neither blank nor a comment holds a comma
        records = (line.strip() for line in lines)
        comma = "," in next((r for r in records if r and not r.startswith("#")), "")
        ts, sz = traces._parse_lines(lines, comma=comma)
        if not len(ts):
            raise TraceFormatError("no packet records found")
        ts -= ts[0]
        return "ok", ts.tobytes(), sz.tobytes()
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


class KernelRefused(Exception):
    pass


def kernel(data, comma):
    """The byte kernel's columns for the bytes, read as CSV or not, or
    None when it refuses a block or reads no record."""
    blocks = traces._blocks
    with mock.patch.object(traces, "_blocks", lambda fh: ((b, comma, k) for b, _, k in blocks(fh))), \
            mock.patch.object(traces, "_parse_lines", mock.Mock(side_effect=KernelRefused)):
        try:
            return traces._read_columns(io.BytesIO(data))
        except (KernelRefused, TraceFormatError):
            return None


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
# that sends its block to the line parser, read whole and in blocks of
# a few lines
trace_files = st.tuples(
    st.lists(st.tuples(st.integers(0, 4000), st.integers(1, 1500)), min_size=1, max_size=40),
    st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 39)), max_size=3),
    st.sampled_from([",", " ", "  "]),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.integers(1, 80),
)


def digit_strings(lo, hi):
    return st.text("0123456789", min_size=lo, max_size=hi)


def with_point(mantissa, frac_digits):
    digits = str(mantissa).rjust(frac_digits + 1, "0")
    return f"{digits[:-frac_digits]}.{digits[-frac_digits:]}"


# canonical files at the byte kernel's edges: integer parts of 1 to 16
# digits and fractions of 1 to 17, digits on either side of 2**53 (past
# it, float() reads the field), sizes of 1 to 19 digits (past 16, int()
# reads them; past int64 the file goes to the line parser), space or tab
# separators, LF or CRLF, with or without the last line end, header
# comments, and blocks small enough that most lines end one
kernel_files = st.tuples(
    st.lists(
        st.tuples(
            st.one_of(
                st.builds("{}.{}".format, digit_strings(1, 16), digit_strings(1, 17)),
                st.builds(with_point, st.integers(2**53 - 40, 2**53 + 40), st.integers(1, 15)),
            ),
            st.one_of(st.integers(1, 2**63 - 1).map(str), digit_strings(1, 19)),
            st.sampled_from([" ", "\t"]),
        ),
        min_size=1,
        max_size=30,
    ),
    st.booleans(),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.lists(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\t"), max_size=12),
             max_size=2),
    st.integers(1, 200),
)


class TestVectorizedLoader:
    @given(spec=trace_files)
    @settings(max_examples=300)
    def test_matches_the_line_parser(self, spec, tmp_path_factory):
        records, mutations, sep, newline, header, block = spec
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
        want = line_parser_outcome(path)
        assert loader_outcome(path) == want
        with mock.patch.object(traces, "_BLOCK", block):
            assert loader_outcome(path) == want

    @pytest.mark.parametrize(
        "text",
        [
            "0.5 100 # note\n",
            "0.5 100 7\n",
            "0.5 5.0\n",
            "0.5 1_000\n",
        ],
        ids=["inline_hash", "third_field", "float_size", "underscore_size"],
    )
    def test_refused_records_reach_the_line_parser(self, text, tmp_path):
        data = text.encode("utf-8")
        assert kernel(data, comma=False) is None
        p = tmp_path / "t.txt"
        p.write_bytes(data)
        assert loader_outcome(p) == line_parser_outcome(p)

    @pytest.mark.parametrize("lines", [["# caf\u00e9", "0.5 100"], ["", "0.5 100"]], ids=["non_ascii", "blank"])
    def test_the_kernel_reads_past_leading_lines(self, lines, tmp_path):
        # the leading lines the line parser skips are cut away, whatever they hold
        assert_kernel_reads(lines)
        p = tmp_path / "t.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
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

    @given(spec=kernel_files)
    @settings(max_examples=300)
    def test_byte_kernel_matches_the_line_parser(self, spec, tmp_path_factory):
        records, comma, newline, final_newline, header, block = spec
        records = sorted(records, key=lambda r: float(r[0]))
        lines = [f"#{h}" for h in header] + [f"{t}{',' if comma else sep}{s}" for t, s, sep in records]
        data = (newline.join(lines) + newline * final_newline).encode()
        try:
            want = traces._parse_lines(traces._text_lines(data).readlines(), comma=comma)
        except TraceFormatError:
            want = None
        path = tmp_path_factory.getbasetemp() / "kernel.txt"
        path.write_bytes(data)
        with mock.patch.object(traces, "_BLOCK", block):
            got = kernel(data, comma=comma)
            loaded = loader_outcome(path)
        if want is None:
            assert got is None
        else:
            assert got is not None
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert loaded == line_parser_outcome(path)

    @pytest.mark.parametrize(
        "text, comma",
        [
            ("# a\rb\n0.5 100\n", False),
            (" 0.5 100\n", False),
            ("0.5  100\n", False),
            ("0.5 100 \n", False),
            ("5 100\n", False),
            (".5 100\n", False),
            ("0. 100\n", False),
            ("0.5 \n", False),
            ("0.5 100\r\n0.6 100\n", False),
            # four marks a line, the third a CR, but not the one before the LF
            pytest.param("0.5 100\r\n0.6 10\r0\n", False, id="CR inside a line"),
            ("0.5 100\r", False),
            ("0.5 100\n# note\n0.6 100\n", False),
            ("0.5,100\n", False),
            ("0.5 100\n", True),
            ("0.5;100\n", True),
            ("0.5 0\n", False),
            ("0.6 100\n0.5 100\n", False),
            ("0.5 99999999999999999999\n", False),
            ("0.5 00000000000000000001\n", False),
            pytest.param("0.5 " + "1" * 5000 + "\n", False, id="5000-digit size"),
            pytest.param("9" * 400 + ".0 100\n", False, id="400-digit timestamp"),
            ("# only a header\n", False),
            ("", False),
        ],
    )
    def test_byte_kernel_refuses_what_it_does_not_read(self, text, comma, tmp_path):
        data = text.encode("utf-8")
        assert kernel(data, comma=comma) is None
        p = tmp_path / "t.txt"
        p.write_bytes(data)
        assert loader_outcome(p) == line_parser_outcome(p)

    @pytest.mark.parametrize(
        "text",
        ["# kernel\n0.5 100\n1.25 200\n", "0.5  100\n 1.25 1_000\n"],
        ids=["byte_kernel", "line_parser"],
    )
    def test_loaded_trace_is_frozen_and_equal_to_the_checked_trace(self, text, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text(text)
        got = tl.load_trace(p)
        want = tl.PacketTrace(got.timestamps, got.sizes)
        assert type(got) is tl.PacketTrace
        for a, b in ((got.timestamps, want.timestamps), (got.sizes, want.sizes)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def assert_kernel_reads(lines, comma=False, newline="\n"):
    """The byte kernel reads the lines bit for bit as the line parser does."""
    data = (newline.join(lines) + newline).encode()
    got = kernel(data, comma=comma)
    want = traces._parse_lines(traces._text_lines(data).readlines(), comma=comma)
    assert got is not None
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelBoundaries:
    """The byte kernel at the edges of its shortcuts: fields of one width
    on every line of a block (a scalar mask and power of ten), the
    float() scan that runs only past 15 timestamp digits, fraction and
    size widths either side of one 8-byte word, and separators."""

    @pytest.mark.parametrize(
        "lines",
        [
            ["1.500000 100", "2.250000 200", "3.125000 300"],
            ["1.500000 100", "22.250000 200", "333.125000 300"],
            ["1.5 100", "2.25 200", "3.125000000 300"],
            ["1.5 1", "2.5 22", "3.5 4444"],
            ["1.5 1", "22.25 22", "333.125000000 4444"],
            ["123456789.123456 123456789012", "123456789.654321 987654321098"],
            ["1.5 123456789012", "12345.25 1", "1234567890.125 12345678901"],
        ],
        ids=["uniform", "mixed_ints", "mixed_fractions", "mixed_sizes", "all_mixed", "uniform_wide", "mixed_wide"],
    )
    def test_uniform_and_mixed_field_widths(self, lines):
        assert_kernel_reads(lines)

    @pytest.mark.parametrize(
        "stamps",
        [
            ["123456789.012345"],
            ["999999999.999999", "12345678901234.5"],
            ["900719925474099.5"],
            ["90071992547409.93"],
            ["123456789.012345", "900719925474099.5"],
            ["1.123456", "1234567890.1"],
            ["1.0000000000000001"],
            ["12345678.123456789", "12345678.987654321"],
        ],
        ids=["15", "15_wide_int", "16_past_2**53", "16_past_2**53_two_places", "15_and_16",
             "16_across_lines", "17", "17_uniform"],
    )
    def test_timestamp_digit_counts(self, stamps):
        # 16 digits may reach 2**53, where m / 10**f is not float()'s value:
        # 900719925474099.5 and 90071992547409.93 are two such
        assert_kernel_reads([f"{t} 100" for t in stamps])

    @pytest.mark.parametrize("digits", [6, 9])
    def test_fixed_fractions(self, digits):
        rng = np.random.default_rng(digits)
        ts = np.sort(rng.uniform(0, 5000, 3000))
        assert_kernel_reads([f"{t:.{digits}f} {s}" for t, s in zip(ts, rng.integers(1, 10**6, len(ts)))])

    @pytest.mark.parametrize(
        "sizes",
        [
            ["12345678"], ["123456789"], ["1234567890123456"], ["12345678901234567"],
            ["123456789012345678"], ["9223372036854775807"],
            ["12345678", "123456789", "1234567890123456", "12345678901234567", "9223372036854775807", "7"],
        ],
        ids=["8", "9", "16", "17", "18", "19", "mixed"],
    )
    def test_size_digit_counts(self, sizes):
        assert_kernel_reads([f"{0.5 * i:.6f} {s}" for i, s in enumerate(sizes)])

    @pytest.mark.parametrize(
        "sep, newline, comma",
        [("\t", "\n", False), ("\t", "\r\n", False), (" ", "\r\n", False), (",", "\r\n", True)],
    )
    def test_separators_and_line_ends(self, sep, newline, comma):
        lines = [f"{0.25 * i:.9f}{sep}{100 + i}" for i in range(50)]
        if not comma:
            lines[7] = lines[7].replace(sep, " " if sep == "\t" else "\t")
        assert_kernel_reads(lines, comma=comma, newline=newline)


def python_rows(fmt, columns):
    """The reference: Python % on each row of Python scalars."""
    line = fmt + "\n"
    return "".join(line % row for row in zip(*(np.asarray(c).tolist() for c in columns)))


def written_rows(fmt, columns):
    fh = io.BytesIO()
    traces.write_rows(fh, fmt, columns)
    return fh.getvalue().decode()


def assert_same_text(got, want):
    # compared as lists of lines, so a failure names the first differing
    # line instead of diffing two long strings
    assert got.splitlines(keepends=True) == want.splitlines(keepends=True)


FIXED_LIMIT = 2.0**53 / 1e9

# float cells for the writer: exact ties at odd multiples of 2**-10,
# decimals one digit past the ninth that end in 5 (near-ties whose
# binary value falls on either side), uniform values and subnormals
fixed_floats = st.one_of(
    st.integers(0, 2**32).map(lambda k: (2 * k + 1) / 1024),
    st.integers(0, 9 * 10**15).map(lambda k: float(f"{10 * k + 5}e-10")),
    st.floats(0.0, FIXED_LIMIT, exclude_max=True),
    st.floats(0.0, 1e-300),
)
size_cells = st.integers(0, 2**63 - 1)


class TestVectorizedWriter:
    """write_rows must give the bytes of Python % for the two formats it
    lays out with numpy, whichever path each chunk takes."""

    @given(
        rows=st.lists(st.tuples(fixed_floats, fixed_floats, size_cells), min_size=1, max_size=300),
        special=st.sampled_from([None, -0.0, float("nan"), float("inf"), -1e-12, FIXED_LIMIT, 1e300]),
    )
    @settings(max_examples=300)
    def test_same_bytes_as_python_format(self, rows, special):
        x, y, s = (np.array(c) for c in zip(*rows))
        if special is not None:
            x[len(x) // 2] = special
        for fmt, columns in (("%.9f,%d", (x, s)), ("%.9f,%.9f", (x, y))):
            assert_same_text(written_rows(fmt, columns), python_rows(fmt, columns))

    @pytest.mark.parametrize(
        "value, text",
        [
            (1 / 1024, "0.000976562"),
            (3 / 1024, "0.002929688"),
            (1290.8961958435, "1290.896195843"),
            (641.7625260635, "641.762526063"),
            (587.2321171705, "587.232117171"),
            (0.0, "0.000000000"),
            (5e-324, "0.000000000"),
            (2.2250738585072014e-308 / 3, "0.000000000"),
            (np.nextafter(FIXED_LIMIT, 0), "9007199.254740991"),
        ],
    )
    def test_pinned_values_take_the_numpy_path(self, value, text):
        columns = [np.array([value]), np.array([2**63 - 1])]
        want = f"{text},9223372036854775807\n"
        assert python_rows("%.9f,%d", columns) == want
        assert traces._format_rows(["", ",", "\n"], ["%.9f", "%d"], columns).tobytes().decode() == want
        assert written_rows("%.9f,%d", columns) == want

    @pytest.mark.parametrize("value", [-0.0, float("nan"), float("inf"), -float("inf"), -1e-12, FIXED_LIMIT])
    def test_values_outside_the_domain_fall_back(self, value):
        columns = [np.array([0.5, value]), np.array([1, 2])]
        assert traces._format_rows(["", ",", "\n"], ["%.9f", "%d"], columns) is None
        assert written_rows("%.9f,%d", columns) == python_rows("%.9f,%d", columns)

    @pytest.mark.parametrize("sizes", [np.array([1, -1]), np.array([1.0, 2.0]), np.array([True, False])])
    def test_sizes_outside_the_domain_fall_back(self, sizes):
        columns = [np.array([0.5, 1.0]), sizes]
        assert traces._format_rows(["", ",", "\n"], ["%.9f", "%d"], columns) is None
        assert written_rows("%.9f,%d", columns) == python_rows("%.9f,%d", columns)

    def test_largest_unsigned_size(self):
        columns = [np.array([0.5, 1.0]), np.array([0, 2**64 - 1], dtype=np.uint64)]
        assert written_rows("%.9f,%d", columns) == "0.500000000,0\n1.000000000,18446744073709551615\n"

    def test_fluid_queue_path(self):
        # a path with the fractional levels a fluid queue passes through:
        # heavy-tailed breakpoint times beside non-integer levels
        rng = tl.substream(9)
        path = tl.QueuePath(np.cumsum(rng.pareto(1.3, 2000) + 0.01), 0.7 * rng.pareto(1.3, 2000))
        assert np.any(path.levels != np.round(path.levels))
        fh = io.BytesIO()
        path.write_csv(fh, comments=("manifest: abc",))
        want = "# manifest: abc\n# time,level\n" + python_rows("%.9f,%.9f", (path.times, path.levels))
        assert_same_text(fh.getvalue().decode(), want)

    def test_widths_change_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(traces, "_WRITE_CHUNK", 7)
        ts = np.concatenate([[0.0], np.geomspace(1e-3, 9e6, 60)])
        sz = np.concatenate([[1], np.geomspace(1, 2**62, 60).astype(np.int64)])
        for fmt, columns in (("%.9f,%d", (ts, sz)), ("%.9f,%.9f", (ts, ts[::-1]))):
            assert_same_text(written_rows(fmt, columns), python_rows(fmt, columns))

    @pytest.mark.parametrize(
        "values",
        [[0.0], [9007199.0], [0.0, 3.0, 9007199.0, 42.0], [0.0, 1.0, 2.5, 9007199.0, np.nextafter(FIXED_LIMIT, 0)]],
        ids=["zero", "largest_whole", "whole", "whole_and_fractional"],
    )
    def test_whole_number_chunks(self, values):
        # 9007199 is the largest whole number below 2**53 / 10**9
        columns = [np.array(values), np.arange(len(values))]
        want = python_rows("%.9f,%d", columns)
        assert traces._format_rows(["", ",", "\n"], ["%.9f", "%d"], columns).tobytes().decode() == want
        assert written_rows("%.9f,%d", columns) == want

    @pytest.mark.parametrize("special", [-0.0, float("nan"), float("inf")])
    def test_a_whole_number_chunk_with_a_special_value_falls_back(self, special):
        columns = [np.array([1.0, special, 2.0]), np.array([1.0, 2.0, 3.0])]
        assert traces._format_rows(["", ",", "\n"], ["%.9f", "%.9f"], columns) is None
        assert written_rows("%.9f,%.9f", columns) == python_rows("%.9f,%.9f", columns)

    @pytest.mark.parametrize("mode", ["wb"])
    def test_a_python_chunk_between_numpy_chunks_keeps_file_order(self, mode, tmp_path, monkeypatch):
        monkeypatch.setattr(traces, "_WRITE_CHUNK", 3)
        x = np.array([0.5, 1.0, 2.0, 3.0, -0.0, 4.0, 5.25, 6.0, 7.0])  # -0.0 sends the second chunk to Python %
        columns = (x, np.arange(1, 10))
        assert traces._format_rows(["", ",", "\n"], ["%.9f", "%d"], [c[3:6] for c in columns]) is None
        path = tmp_path / "rows.csv"
        with open(path, mode) as fh:
            traces.write_rows(fh, "%.9f,%d", columns, ("manifest: abc",))
        assert path.read_bytes() == ("# manifest: abc\n" + python_rows("%.9f,%d", columns)).encode()

    @pytest.mark.parametrize("sink", [io.BytesIO])
    def test_step_queue_path_in_a_text_and_a_binary_sink(self, sink):
        trace = tl.generate_poisson(200.0, 100, 3000, tl.substream(4))
        _, path = tl.packet_stats(trace, 25000.0, keep_path=True)
        assert np.all(path.levels == np.round(path.levels))
        fh = sink()
        path.write_csv(fh, comments=("manifest: abc",))
        want = "# manifest: abc\n# time,level\n" + python_rows("%.9f,%.9f", (path.times, path.levels))
        assert_same_text(fh.getvalue().decode(), want)

    def test_saved_trace_bytes(self, tmp_path):
        tr = tl.generate_poisson(200.0, 100, 3000, tl.substream(4))
        p = tmp_path / "t.csv"
        tl.save_trace(tr, p, comments=("manifest: abc",))
        assert_same_text(p.read_text(), "# manifest: abc\n" + python_rows("%.9f,%d", (tr.timestamps, tr.sizes)))


class TestPool:
    """The text kernels' pool: work cut and joined in file order, errors
    raised at their block or chunk, and a bounded formatted-ahead window."""

    @staticmethod
    def clean_file(path, lines):
        path.write_text("# seconds bytes\n" + "".join(f"{i / 64:.6f} {100 + i}\n" for i in range(lines)))

    def test_blocks_and_chunks_run_on_pool_threads(self, tmp_path, monkeypatch):
        threads = []
        parse_block, format_rows = traces._parse_block, traces._format_rows

        def parse_on(*args):
            threads.append(("parse", threading.get_ident()))
            return parse_block(*args)

        def format_on(*args):
            threads.append(("format", threading.get_ident()))
            return format_rows(*args)

        monkeypatch.setattr(traces, "_parse_block", parse_on)
        monkeypatch.setattr(traces, "_format_rows", format_on)
        monkeypatch.setattr(traces, "_BLOCK", 256)
        monkeypatch.setattr(traces, "_WRITE_CHUNK", 7)
        self.clean_file(tmp_path / "t.txt", 200)
        tr = tl.load_trace(tmp_path / "t.txt")
        tl.save_trace(tr, tmp_path / "t.csv")
        assert tr.sizes.tolist() == list(range(100, 300))
        assert tl.load_trace(tmp_path / "t.csv").sizes.tolist() == tr.sizes.tolist()
        main = threading.get_ident()
        for kind in ("parse", "format"):
            ran_on = [t for k, t in threads if k == kind]
            assert len(ran_on) > 2 and main not in ran_on

    def test_a_failing_chunk_raises_after_the_chunks_before_it(self, monkeypatch):
        monkeypatch.setattr(traces, "_WRITE_CHUNK", 7)
        ts, sz = np.arange(60) / 8, np.arange(1, 61)
        err = RuntimeError("the fifth chunk")
        format_rows = traces._format_rows

        def failing(literals, fields, columns):
            if columns[1][0] == 29:  # rows 28 to 34
                raise err
            return format_rows(literals, fields, columns)

        monkeypatch.setattr(traces, "_format_rows", failing)
        fh = io.BytesIO()
        with pytest.raises(RuntimeError) as info:
            traces.write_rows(fh, "%.9f,%d", (ts, sz))
        assert info.value is err
        assert fh.getvalue().decode() == python_rows("%.9f,%d", (ts[:28], sz[:28]))

    def test_ahead_bounds_the_items_read_and_not_yielded(self, pool_size):
        started = []

        def call(i):
            started.append(i)
            return -i

        before = threading.active_count()
        for k, value in enumerate(traces._in_order(call, range(50))):
            assert value == -k
            # the call yielded and at most 2 * pool_size - 1 after it
            assert len(started) - k <= 2 * pool_size
            time.sleep(0.001)
        assert sorted(started) == list(range(50)) and threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_at_most_one_call_per_worker_runs_at_once(self, workers):
        lock, running, most = threading.Lock(), [0], [0]

        def call(i):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)  # long enough for every thread to start one
            with lock:
                running[0] -= 1
            return i

        with mock.patch.object(traces, "_workers", lambda: workers):
            # the caller takes its time, so the window fills and no thread waits for a call
            for k, value in enumerate(traces._in_order(call, range(40))):
                assert value == k
                time.sleep(0.001)
        # never more than the pool, and more than one call at once on a pool
        assert most[0] <= workers and (most[0] > 1) == (workers > 1)

    def test_a_failing_block_raises_out_of_load_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(traces, "_BLOCK", 256)
        self.clean_file(tmp_path / "t.txt", 200)
        err = RuntimeError("a middle block")
        parse_block = traces._parse_block

        def failing(buf, comma):
            if b" 200\n" in bytes(buf):  # record 100 of 200
                raise err
            return parse_block(buf, comma)

        monkeypatch.setattr(traces, "_parse_block", failing)
        with pytest.raises(RuntimeError) as info:
            tl.load_trace(tmp_path / "t.txt")
        assert info.value is err

    def test_bad_record_in_the_last_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(traces, "_BLOCK", 256)
        p = tmp_path / "t.txt"
        self.clean_file(p, 200)
        p.write_text(p.read_text() + "3.200000 300 # late note\n")
        blocks = []
        parse_block = traces._parse_block

        def recorded(buf, comma):
            blocks.append(bytes(buf).endswith(b"# late note\n"))
            return parse_block(buf, comma)

        monkeypatch.setattr(traces, "_parse_block", recorded)
        with pytest.raises(TraceFormatError) as info:
            tl.load_trace(p)
        assert info.value.line == 202 and "expected 2 fields, got 5" in str(info.value)
        assert len(blocks) > 3 and blocks.count(True) == 1

    def test_formatted_chunks_wait_in_a_bounded_window(self, pool_size, monkeypatch):
        chunk, chunks = 4096, 200
        monkeypatch.setattr(traces, "_WRITE_CHUNK", chunk)
        ts = 1e6 + np.arange(chunk * chunks) / 1024
        sz = np.full(len(ts), 1500)
        formatted = []
        format_rows = traces._format_rows

        def counted(*args):
            text = format_rows(*args)
            formatted.append(len(text))
            return text

        monkeypatch.setattr(traces, "_format_rows", counted)
        one = peak_bytes(lambda: counted(["", ",", "\n"], ["%.9f", "%d"], [ts[:chunk], sz[:chunk]]))
        formatted.clear()
        ahead = []

        class SlowSink:
            """Holds up the first chunk, so the pool runs as far ahead as it may."""

            def writelines(self, lines):
                pass

            def write(self, text):
                if not ahead:
                    time.sleep(0.5)
                    ahead.append(len(formatted))

        peak = peak_bytes(lambda: traces.write_rows(SlowSink(), "%.9f,%d", (ts, sz)))
        assert len(formatted) == chunks
        # 2 * workers chunks submitted ahead of the one written, each
        # formatted or being formatted, and the one the sink holds; at
        # the parent every chunk waited, 200 * 86 KiB of text
        assert ahead == [2 * pool_size]
        assert one < MiB and peak <= (2 * pool_size + 1) * one + MiB // 2


class ShortReads:
    """A binary file whose read(n) returns at most 7 bytes."""

    def __init__(self, data):
        self.fh = io.BytesIO(data)

    def read(self, size):
        return self.fh.read(min(size, 7))


def hashed_load(source):
    """load_trace of source through the CLI's hashing reader: the outcome,
    as loader_outcome gives it, and the SHA-256 of the bytes read."""
    hashed = cli._Hashed(source)
    try:
        tr = tl.load_trace(hashed)
        outcome = "ok", tr.timestamps.tobytes(), tr.sizes.tobytes()
    except ValueError as exc:
        outcome = type(exc).__name__, str(exc), getattr(exc, "line", None)
    return outcome, hashed.sha256.hexdigest()


class TestStreamedLoad:
    """load_trace reads _BLOCK bytes at a time and parses each read, cut
    after its last line end, while the next is read: every byte is read
    and hashed once, and the result is the line parser's wherever the
    reads fall."""

    @staticmethod
    def check(tmp_path, data, block, monkeypatch, canonical):
        """The file's trace and errors are the line parser's, and the CLI
        hashes exactly its bytes, or, when the load fails, the bytes read
        up to the failure, which end no earlier than its line; canonical
        files never reach the line parser."""
        p = tmp_path / "t.txt"
        p.write_bytes(data)
        want = line_parser_outcome(p), hashlib.sha256(data).hexdigest()
        read = {want[1]}  # and the digests of the prefixes that hold an error's line
        if want[0][0] != "ok" and want[0][2] is not None:
            end = len(b"".join(data.splitlines(keepends=True)[: want[0][2]]))
            sha = hashlib.sha256(data[:end])
            for byte in data[end:]:
                read.add(sha.hexdigest())
                sha.update(bytes([byte]))
        monkeypatch.setattr(traces, "_BLOCK", block)
        if canonical:
            monkeypatch.setattr(traces, "_parse_lines", mock.Mock(side_effect=AssertionError("line parser")))
        with open(p, "rb") as fh:
            outcomes = [hashed_load(fh), hashed_load(ShortReads(data))]
        for outcome, digest in outcomes:
            assert outcome == want[0] and digest in read
        if want[0][0] == "ok":
            trace, inputs = cli._load(str(p))
            assert (trace.timestamps.tobytes(), trace.sizes.tobytes()) == want[0][1:]
            assert inputs == {str(p): want[1]}

    LINES = b"# seconds bytes\n0.500000 100\r\n1.250000 2000\r\n2.125000 30\r\n"

    @pytest.mark.parametrize("cut", [
        LINES.index(b"1.25") + 3,  # inside a record
        LINES.index(b"2000\r") + 5,  # between CR and LF
        LINES.index(b"bytes"),  # inside the header line
    ], ids=["record", "crlf", "header"])
    def test_a_line_split_across_reads(self, tmp_path, monkeypatch, cut):
        self.check(tmp_path, self.LINES, cut, monkeypatch, canonical=True)

    def test_a_header_longer_than_one_read(self, tmp_path, monkeypatch):
        data = b"# " + b"h" * 40 + b"\n#\t" + b"x" * 25 + b"\n0.5,100\n0.75,200\n"
        self.check(tmp_path, data, 8, monkeypatch, canonical=True)

    def test_no_last_line_end(self, tmp_path, monkeypatch):
        # one line a read, the last without its line end
        data = b"\n".join(b"%d.125000 %d" % (i, 100 + i) for i in range(40))
        self.check(tmp_path, data, 16, monkeypatch, canonical=True)

    @pytest.mark.parametrize("data", [b"# seconds bytes\n# no records\n", b""], ids=["header_only", "empty"])
    def test_no_records(self, tmp_path, monkeypatch, data):
        self.check(tmp_path, data, 8, monkeypatch, canonical=False)
        with pytest.raises(TraceFormatError, match="^no packet records found$"):
            tl.load_trace(io.BytesIO(data))

    def test_a_timestamp_that_decreases_at_a_block_boundary(self, tmp_path, monkeypatch):
        first = b"# s b\n0.500000 100\n2.000000 100\n"
        data = first + b"1.000000 100\n3.000000 100\n"
        blocks = []
        parse_block = traces._parse_block

        def recorded(buf, comma):
            columns = parse_block(buf, comma)
            blocks.append(columns[0].tolist())
            return columns

        monkeypatch.setattr(traces, "_parse_block", recorded)
        self.check(tmp_path, data, len(first), monkeypatch, canonical=False)
        # each block is in order alone: only the boundary breaks the rule
        assert [2.0, 1.0] not in blocks and [0.5, 2.0] in blocks and [1.0, 3.0] in blocks
        with pytest.raises(TraceFormatError) as info:
            tl.load_trace(io.BytesIO(data))
        assert info.value.line == 4 and str(info.value) == "line 4: timestamp 1.0 decreases from 2.0"

    @pytest.mark.parametrize("at", [0, 399], ids=["first_block", "last_block"])
    def test_a_line_the_kernel_does_not_read(self, tmp_path, monkeypatch, at):
        lines = [b"%d.250000 %d\n" % (i, 100 + i) for i in range(400)]
        lines[at] = b"%d.5  1_000\n" % at
        data = b"".join(lines)
        blocks, line_blocks = [], []
        parse_block, parse_lines = traces._parse_block, traces._parse_lines

        def recorded(buf, comma):
            blocks.append(b"  1_000\n" in bytes(buf))
            return parse_block(buf, comma)

        def recorded_lines(lines, **kwargs):
            loose = "%d.5  1_000\n" % at
            line_blocks.append(kwargs["start"] + lines.index(loose) if loose in lines else None)
            return parse_lines(lines, **kwargs)

        monkeypatch.setattr(traces, "_parse_block", recorded)
        # reads of 64 bytes cut lines, so a partial line is held whenever
        # the kernel gives up
        self.check(tmp_path, data, 64, monkeypatch, canonical=False)
        blocks.clear()
        monkeypatch.setattr(traces, "_parse_lines", recorded_lines)
        assert tl.load_trace(io.BytesIO(data)).sizes.tolist()[at] == 1000
        # every block reaches the kernel, and only the one it refuses
        # reaches the line parser, which numbers its lines as the file's
        assert len(blocks) > 3 and blocks.count(True) == 1
        assert line_blocks == [at]


    # a stripped header, then 60 records of 18 bytes, so a block of 256
    # bytes or less ends before record 40
    HEADER = b"# seconds bytes\n# recorded offline\n"
    RECORDS = [b"%05d.250000 %04d\n" % (i, 100 + i) for i in range(60)]

    @pytest.mark.parametrize("block", [16, 64, 256])
    @pytest.mark.parametrize("bad, line, message", [
        (b"00040.250000 0140 # note\n", 43, "expected 2 fields, got 4"),
        (b"00040.250000 01\xe90\n", 43, "record is not valid UTF-8: b'00040.250000 01\\xe90'"),
    ], ids=["bad_record", "undecodable_record"])
    def test_a_bad_record_after_the_first_block(self, tmp_path, monkeypatch, block, bad, line, message):
        records = list(self.RECORDS)
        records[40] = bad
        data = self.HEADER + b"".join(records)
        starts = []
        parse_lines = traces._parse_lines

        def recorded(lines, **kwargs):
            starts.append(kwargs["start"])
            return parse_lines(lines, **kwargs)

        self.check(tmp_path, data, block, monkeypatch, canonical=False)
        monkeypatch.setattr(traces, "_parse_lines", recorded)
        with pytest.raises(TraceFormatError) as info:
            tl.load_trace(io.BytesIO(data))
        assert info.value.line == line and str(info.value) == f"line {line}: {message}"
        # only the block that holds it reaches the line parser
        assert len(starts) == 1 and 2 < starts[0] < line

    @pytest.mark.parametrize("block", [16, 64, 256])
    def test_a_decrease_at_the_start_of_a_later_block(self, tmp_path, monkeypatch, block):
        # the record that decreases is the first of the third block
        # holding records: each block is in order alone
        data = self.HEADER + b"".join(self.RECORDS)
        monkeypatch.setattr(traces, "_BLOCK", block)
        firsts = [b.lstrip(b"\0").split(b"\n", 1)[0] for b, _, _ in traces._blocks(io.BytesIO(data))]
        at = self.RECORDS.index(firsts[2] + b"\n")
        records = list(self.RECORDS)
        records[at] = b"%05d.250000 %04d\n" % (at - 2, 100 + at)
        data = self.HEADER + b"".join(records)
        self.check(tmp_path, data, block, monkeypatch, canonical=False)
        with pytest.raises(TraceFormatError) as info:
            tl.load_trace(io.BytesIO(data))
        line = at + 3
        assert str(info.value) == f"line {line}: timestamp {at - 2}.25 decreases from {at - 1}.25"

    # leading lines the line parser skips, each cut away before the first
    # block, so the byte kernel reads the records after them
    LEADING = {
        "utf8_comment": b"# capture \xe2\x80\x94 seconds, \xc2\xb5s\n",
        "undecodable_comment": b"# caf\xe9\n",
        "blank": b"\n",
        "whitespace_only": b" \t \n",
        "indented_comment": b"  # seconds bytes\n",
        "crlf_comment": b"# seconds bytes\r\n",
    }

    @pytest.mark.parametrize("block", [16, 64, 256])
    @pytest.mark.parametrize("lead", LEADING)
    def test_leading_lines_never_reach_the_line_parser(self, tmp_path, monkeypatch, block, lead):
        self.check(tmp_path, self.LEADING[lead] + b"".join(self.RECORDS), block, monkeypatch, canonical=True)

    @pytest.mark.parametrize("block", [16, 64, 256])
    def test_a_bad_record_after_every_kind_of_leading_line(self, tmp_path, monkeypatch, block):
        records = list(self.RECORDS)
        records[1] = b"00001.250000 0101 # note\n"
        data = b"".join(self.LEADING.values()) + b"".join(records)
        self.check(tmp_path, data, block, monkeypatch, canonical=False)
        with pytest.raises(TraceFormatError) as info:
            tl.load_trace(io.BytesIO(data))
        assert str(info.value) == f"line {len(self.LEADING) + 2}: expected 2 fields, got 4"

    @pytest.mark.parametrize("block", [16, 64, 256])
    def test_a_lone_cr_ends_a_leading_comment(self, tmp_path, monkeypatch, block):
        # the record after the CR is a line of its own, as the line parser reads it
        data = b"# a\r0.5 100\n1.0 200\n"
        self.check(tmp_path, data, block, monkeypatch, canonical=True)
        assert tl.load_trace(io.BytesIO(data)).sizes.tolist() == [100, 200]

    def test_a_header_with_a_blank_line_longer_than_one_read(self, tmp_path, monkeypatch):
        data = b"# " + b"h" * 40 + b"\n\n#\t" + b"x" * 25 + b"\n0.5,100\n0.75,200\n"
        self.check(tmp_path, data, 8, monkeypatch, canonical=True)

    def test_a_canonical_load_keeps_no_byte_it_has_parsed(self, tmp_path, monkeypatch, pool_size):
        # 10**6 records of 22 bytes: the file is 20 MiB and its columns
        # 15 MiB. The load holds the columns of the blocks and their join,
        # and a window of blocks on the pool. A loader that also kept
        # every byte read until the last block was in, for a fallback to
        # the whole file, peaked at 36.3 MiB against 30.7 MiB here
        # (2 threads, 64 KiB blocks; 2-core VM)
        n = 10**6
        tr = tl.generate_poisson(10.0, 1500, n, tl.substream(7))
        p = tmp_path / "t.csv"
        tl.save_trace(tl.PacketTrace(tr.timestamps + 1e5, np.arange(n) % 1500 + 1), p, comments=("manifest: abc",))
        monkeypatch.setattr(traces, "_BLOCK", 1 << 16)
        peak = peak_bytes(lambda: tl.load_trace(p))
        columns = 16 * n
        assert peak <= 2 * columns + MiB + 4 * pool_size * traces._BLOCK


class TestSummary:
    """The row of `summarize`, which cli._summary_row builds from the trace."""

    def test_millisecond_spaced_trace_rate(self):
        row = cli._summary_row(make(np.arange(1000) * 0.001, np.full(1000, 64)))
        assert list(row) == ["packet_count", "duration", "total_bytes", "mean_rate"]
        assert row["packet_count"] == 1000
        assert row["total_bytes"] == 64000
        assert row["duration"] == pytest.approx(0.999)
        assert row["mean_rate"] == pytest.approx(64064.06406406406, rel=1e-12)

    def test_zero_duration_has_no_rate(self):
        row = cli._summary_row(make([0.0], [100]))
        assert row["mean_rate"] == ""
        assert row["duration"] == 0.0

    def test_byte_total_past_int64_is_exact(self):
        # each size is valid, but an int64 sum of the two wraps negative
        tr = make([0.0, 2.0], [2**62, 2**62])
        row = cli._summary_row(tr)
        assert tr.total_bytes == row["total_bytes"] == 2**63
        assert row["mean_rate"] == 2.0**62
        assert tl.bandwidth_for_utilization(tr, 0.5) == 2.0**63

    @given(sizes=st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=20))
    def test_byte_total_is_the_exact_sum(self, sizes):
        assert make(np.arange(len(sizes)), sizes).total_bytes == sum(sizes)


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

    @pytest.mark.parametrize("times, rho", [([0.0, 1e-300], 1e-30), ([0.0, 1.0], 1e-320), ([0.0, 1.0], 5e-324)])
    def test_a_bandwidth_past_the_largest_float_names_rho(self, times, rho):
        # duration * rho underflows to 0, or total_bytes over it passes the largest float
        with pytest.raises(ValueError, match=f"^rho {rho!r} is too small for this trace"):
            tl.bandwidth_for_utilization(make(times, [100, 100]), rho)

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

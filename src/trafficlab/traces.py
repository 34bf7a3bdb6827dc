"""Packet traces: the (timestamp, size) sequences everything else consumes.

A trace is stored as two parallel numpy arrays rather than a list of
records so that million-packet traces stay cheap to simulate and bin.
Timestamps are seconds from the start of the trace, sizes are bytes.
"""
from __future__ import annotations

import io
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PacketTrace",
    "TraceSummary",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "summarize",
    "bandwidth_for_utilization",
    "window",
    "write_rows",
]

# the formats load_trace reads: comma separated ``timestamp,bytes`` and
# whitespace separated ``timestamp bytes``
TRACE_FORMATS = ("csv_ts_bytes", "two_column_text")

# seconds are written with fixed sub-nanosecond precision so that a
# write/read cycle reproduces the file byte for byte
TIMESTAMP_DIGITS = 9

# rows are formatted this many at a time, so a million-row write never
# holds a million-element list or a million-row digit buffer
_WRITE_CHUNK = 65536

# the conversions write_rows can lay out with numpy, and their domain:
# below _FIXED_LIMIT, x * _SCALE is under 2**53, so float64 holds the
# rounded digits as an exact integer
_FIXED = f"%.{TIMESTAMP_DIGITS}f"
_FIELDS = re.compile(f"({re.escape(_FIXED)}|%d)")
_SCALE = 10**TIMESTAMP_DIGITS
_FIXED_LIMIT = 2.0**53 / _SCALE
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for float64

# one record as the vectorized loader reads it
_RECORD = np.dtype([("t", np.float64), ("s", np.int64)])
# the bytes a file may hold and still take the vectorized path
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
_MAX_SIZE = int(np.iinfo(np.int64).max)


def write_rows(fh, fmt: str, columns, comments=()) -> None:
    """Write each comment as a ``# `` line, then one ``fmt % row`` line per
    row of the parallel columns.

    The text is exactly that of ``fmt % row`` with each cell a Python
    scalar, so ``%r`` prints a float's repr and never a numpy wrapper.
    A format made of ``%.9f`` (TIMESTAMP_DIGITS digits) and ``%d``
    fields between literal text, as save_trace and
    QueuePath.write_csv use, is laid out digit by digit with numpy, one
    _WRITE_CHUNK of rows at a time, when every ``%.9f`` cell of the
    chunk is a float64 in [0, 2**53 / 10**9) with the sign bit clear
    and every ``%d`` cell is a nonnegative integer of an integer dtype.
    Any other chunk or format, -0.0, nan and inf included, goes through
    Python ``%``. tests/test_traces.py::TestVectorizedWriter checks the
    two byte for byte.
    """
    fh.writelines(f"# {c}\n" for c in comments)
    line = fmt + "\n"
    parts = _FIELDS.split(line)
    literals, fields = parts[::2], parts[1::2]
    numpy_layout = len(fields) == len(columns) and not any("%" in s or "\0" in s for s in literals)
    for lo in range(0, len(columns[0]), _WRITE_CHUNK):
        chunk = [np.asarray(c[lo : lo + _WRITE_CHUNK]) for c in columns]
        text = _format_rows(literals, fields, chunk) if numpy_layout else None
        if text is None:
            text = "".join(line % row for row in zip(*(c.tolist() for c in chunk)))
        fh.write(text)


def _fixed_point(x: np.ndarray) -> np.ndarray:
    """x * 10**TIMESTAMP_DIGITS rounded as ``%.9f`` rounds it: the exact
    product of the binary value, ties to even.

    Dekker's two-product gives the rounding error of p = x * _SCALE
    exactly (_SCALE has 21 significant bits, so it needs no split).
    np.rint(p) is right unless p is a tie that the exact product is not.
    """
    p = x * _SCALE
    hi = x * _SPLIT  # Veltkamp split: hi and x - hi have 26 bits each
    hi -= hi - x
    err = (hi * _SCALE - p) + (x - hi) * _SCALE  # x * _SCALE == p + err exactly
    n = np.rint(p)
    off = p - n
    n += (off == 0.5) & (err > 0)
    n -= (off == -0.5) & (err < 0)
    return n.astype(np.uint64)


def _put_digits(rows: np.ndarray, v: np.ndarray) -> None:
    """Write the ASCII decimal digits of v down rows, zero padded, last digit last."""
    v = v.astype(np.uint32 if v.max() <= np.iinfo(np.uint32).max else np.uint64)
    for row in rows[::-1]:
        q = v // 10
        np.add(v - q * 10, ord("0"), out=row, casting="unsafe")
        v = q


def _format_rows(literals, fields, columns) -> str | None:
    """The text Python ``%`` gives for these rows, or None when a cell is
    outside the domain write_rows states.

    The rows are laid out in a buffer with one row per character and one
    column per table row. Integer digits are padded to the widest in the
    chunk with NUL bytes, which the literals never hold, and the padding
    is deleted from the joined bytes.
    """
    whole, fractions = [], []
    for spec, col in zip(fields, columns):
        if spec == "%d":
            if col.dtype.kind not in "iu" or col.min() < 0:
                return None
            whole.append(col)
            fractions.append(None)
        else:
            if col.dtype != np.float64 or not (col < _FIXED_LIMIT).all() or np.signbit(col).any():
                return None
            fixed = _fixed_point(col)
            ip = fixed // _SCALE
            whole.append(ip)
            fractions.append(fixed - ip * _SCALE)
    widths = [len(str(v.max())) for v in whole]
    points = sum(1 + TIMESTAMP_DIGITS for f in fractions if f is not None)
    buf = np.empty((sum(map(len, literals)) + sum(widths) + points, len(columns[0])), np.uint8)
    at = 0
    for lit, v, width, frac in zip(literals, whole, widths, fractions):
        buf[at : at + len(lit)] = np.frombuffer(lit.encode(), np.uint8)[:, None]
        at += len(lit)
        _put_digits(buf[at : at + width], v)
        for j in range(width - 1):  # a leading zero becomes NUL
            np.multiply(buf[at + j], v >= 10 ** (width - 1 - j), out=buf[at + j])
        at += width
        if frac is not None:
            buf[at] = ord(".")
            _put_digits(buf[at + 1 : at + 1 + TIMESTAMP_DIGITS], frac)
            at += 1 + TIMESTAMP_DIGITS
    buf[at:] = np.frombuffer(literals[-1].encode(), np.uint8)[:, None]
    return buf.T.tobytes().replace(b"\0", b"").decode()


class TraceFormatError(ValueError):
    """A trace file failed to parse or violated ordering/size rules."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(eq=False)
class PacketTrace:
    """Ordered packet arrivals.

    timestamps are nondecreasing (equal values mean batched arrivals)
    and sizes are whole positive bytes. Arrays are frozen after
    construction; derive new traces instead of mutating.
    """

    timestamps: np.ndarray
    sizes: np.ndarray
    origin: str = ""

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        sz = np.asarray(self.sizes)
        # integer input, as from packetize or a shuffle, skips the check
        if sz.dtype.kind not in "iu" and np.any(sz != np.floor(sz)):
            raise ValueError("packet sizes must be whole bytes")
        sz = np.asarray(sz, dtype=np.int64)
        if ts.ndim != 1 or sz.ndim != 1 or len(ts) != len(sz):
            raise ValueError("timestamps and sizes must be 1-d and equal length")
        if len(ts) == 0:
            raise ValueError("empty trace")
        if not np.all(np.isfinite(ts)):
            raise ValueError("non-finite timestamp")
        if ts[0] < 0:
            raise ValueError("negative timestamp")
        if len(ts) > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be nondecreasing")
        if np.any(sz < 1):
            raise ValueError("packet sizes must be >= 1 byte")
        ts.setflags(write=False)
        sz.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "sizes", sz)

    @classmethod
    def _derived(cls, timestamps: np.ndarray, sizes: np.ndarray, origin: str) -> PacketTrace:
        """A trace of new float64 and int64 arrays that already hold every
        invariant __post_init__ checks, as a reordering or window of a
        checked trace does: the arrays are frozen, not checked again."""
        trace = cls.__new__(cls)
        timestamps.setflags(write=False)
        sizes.setflags(write=False)
        trace.timestamps, trace.sizes, trace.origin = timestamps, sizes, origin
        return trace

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def packet_count(self) -> int:
        return len(self.timestamps)

    @property
    def duration(self) -> float:
        """Span from first to last arrival, seconds."""
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def total_bytes(self) -> int:
        """Exact byte count, even where an int64 sum would wrap."""
        sizes = self.sizes
        if int(sizes.max()) <= np.iinfo(np.int64).max // len(sizes):
            return int(sizes.sum())
        return sum(sizes.tolist())


@dataclass(frozen=True)
class TraceSummary:
    packet_count: int
    duration: float
    total_bytes: int
    mean_rate: float | None  # bytes/second; None for zero-duration traces


def _parse_lines(lines, *, comma: bool) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and sizes of the records, checked one line at a time.

    This is the only code that reports a bad trace: every
    TraceFormatError names the first offending line.
    """
    ts: list[float] = []
    sz: list[int] = []
    prev = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            bad = line.encode("utf-8", "surrogateescape")
            raise TraceFormatError(f"record is not valid UTF-8: {bad!r}", lineno) from None
        parts = line.split(",") if comma else line.split()
        if len(parts) != 2:
            raise TraceFormatError(f"expected 2 fields, got {len(parts)}", lineno)
        try:
            t = float(parts[0])
            s = int(parts[1])
        except ValueError:
            raise TraceFormatError(f"unparsable record {line!r}", lineno) from None
        if not np.isfinite(t) or t < 0:
            raise TraceFormatError(f"bad timestamp {parts[0]}", lineno)
        if s < 1:
            raise TraceFormatError(f"nonpositive packet size {s}", lineno)
        if s > _MAX_SIZE:
            raise TraceFormatError(f"packet size {s} exceeds {_MAX_SIZE}", lineno)
        if prev is not None and t < prev:
            raise TraceFormatError(f"timestamp {t} decreases from {prev}", lineno)
        prev = t
        ts.append(t)
        sz.append(s)
    if not ts:
        raise TraceFormatError("no packet records found")
    return np.array(ts, dtype=np.float64), np.array(sz, dtype=np.int64)


def _parse_plain(data: bytes, *, comma: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns _parse_lines would return, parsed in one numpy call.

    Returns None, and reports nothing, for any file outside the plain
    subset or failing a check, so the caller reruns _parse_lines for
    the error. The subset is what numpy and the line parser read alike:
    printable ASCII, tabs and line ends; ``#`` only as the first byte of
    a line, since numpy would strip a trailing note the line parser
    rejects; and plain integer sizes, since numpy rejects ``1_000``.
    """
    if data.translate(None, _PLAIN_BYTES):
        return None
    hashes = data.count(b"#")
    if hashes and hashes != data.count(b"\n#") + data.startswith(b"#"):
        return None
    text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    try:
        with warnings.catch_warnings():
            # numpy only warns on an empty file, and older numpy on a
            # size read through a float; both must fall back
            warnings.simplefilter("error")
            rec = np.loadtxt(text, dtype=_RECORD, delimiter="," if comma else None, comments="#", ndmin=1)
    except (ValueError, Warning):
        return None
    ts, sz = rec["t"].copy(), rec["s"].copy()
    if not (
        len(ts)
        and np.isfinite(ts).all()
        and ts[0] >= 0
        and (ts[1:] >= ts[:-1]).all()
        and (sz >= 1).all()
    ):
        return None
    return ts, sz


def _detect_format(lines) -> str:
    """The format named by the first record line: a comma means CSV."""
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return "csv_ts_bytes" if "," in stripped else "two_column_text"
    return "two_column_text"


def _text_lines(data: bytes):
    """The lines text-mode readlines() would give for these bytes, decoded
    as UTF-8 whatever the locale. An undecodable byte becomes a lone
    surrogate, so a comment may hold any bytes and _parse_lines names
    the record line that holds one."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def load_trace(path: str | os.PathLike, fmt: str | None = None) -> PacketTrace:
    """Read a trace file.

    fmt is "csv_ts_bytes" (comma separated ``timestamp,bytes``) or
    "two_column_text" (whitespace separated ``timestamp bytes``). With
    fmt=None the first record line picks the format: a comma means CSV.
    Blank lines and lines whose first non-blank character is ``#`` are
    skipped; any other line must hold exactly a timestamp and a plain
    integer size. Timestamps are rebased to start at zero.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt is None:
        fmt = _detect_format(_text_lines(data))
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}")
    comma = fmt == "csv_ts_bytes"
    columns = _parse_plain(data, comma=comma)
    if columns is None:
        columns = _parse_lines(_text_lines(data).readlines(), comma=comma)
    del data
    ts, sz = columns
    ts -= ts[0]  # rebase so the trace starts at t=0
    return PacketTrace(ts, sz, origin=f"{os.path.basename(path)} ({fmt})")


def save_trace(trace: PacketTrace, path: str | os.PathLike, comments: tuple[str, ...] = ()) -> None:
    """Write csv_ts_bytes with 9 fractional digits on timestamps.

    comments are emitted first, one per line, prefixed with ``# ``.
    """
    with open(path, "w") as fh:
        write_rows(fh, f"{_FIXED},%d", (trace.timestamps, trace.sizes), comments)


def summarize(trace: PacketTrace) -> TraceSummary:
    dur = trace.duration
    total = trace.total_bytes
    rate = total / dur if dur > 0 else None
    return TraceSummary(
        packet_count=trace.packet_count,
        duration=dur,
        total_bytes=total,
        mean_rate=rate,
    )


def bandwidth_for_utilization(trace: PacketTrace, rho: float) -> float:
    """Service rate (bytes/s) that would carry the trace at load rho.

    Load here is offered work per unit time over the arrival span:
    b = total_bytes / (duration * rho).
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    dur = trace.duration
    if dur <= 0:
        raise ValueError("trace duration is zero; utilization target undefined")
    return trace.total_bytes / (dur * rho)


def window(trace: PacketTrace, start_index: int, count: int) -> PacketTrace:
    """Contiguous sub-trace of `count` packets, rebased to start at 0."""
    n = trace.packet_count
    if count < 1:
        raise ValueError("window must contain at least one packet")
    if start_index < 0 or start_index + count > n:
        raise ValueError(f"window [{start_index}, {start_index + count}) outside trace of {n}")
    ts = trace.timestamps[start_index : start_index + count].copy()
    ts -= ts[0]
    sz = trace.sizes[start_index : start_index + count].copy()
    return PacketTrace._derived(ts, sz, f"window[{start_index}:{start_index + count}] of {trace.origin}")

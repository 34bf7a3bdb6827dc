"""Packet traces: the (timestamp, size) sequences everything else consumes.

A trace is stored as two parallel numpy arrays rather than a list of
records so that million-packet traces stay cheap to simulate and bin.
Timestamps are seconds from the start of the trace, sizes are bytes.
"""
from __future__ import annotations

import io
import os
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

# seconds are written with fixed sub-nanosecond precision so that a
# write/read cycle reproduces the file byte for byte
TIMESTAMP_DIGITS = 9

# rows are converted to Python scalars this many at a time, so a
# million-row write never holds a million-element list
_WRITE_CHUNK = 65536

# one record as the vectorized loader reads it
_RECORD = np.dtype([("t", np.float64), ("s", np.int64)])
# the bytes a file may hold and still take the vectorized path
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\t\r\n"
_MAX_SIZE = int(np.iinfo(np.int64).max)


def write_rows(fh, fmt: str, columns, comments=()) -> None:
    """Write each comment as a ``# `` line, then one ``fmt % row`` line per
    row of the parallel columns.

    Cells are formatted as Python scalars, so ``%r`` prints a float's
    repr and never a numpy wrapper.
    """
    fh.writelines(f"# {c}\n" for c in comments)
    line = fmt + "\n"
    for lo in range(0, len(columns[0]), _WRITE_CHUNK):
        chunk = [np.asarray(c[lo : lo + _WRITE_CHUNK]).tolist() for c in columns]
        fh.write("".join(line % row for row in zip(*chunk)))


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
        return int(self.sizes.sum())


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
        with open(path, "r") as fh:
            fmt = _detect_format(fh)
    if fmt not in ("csv_ts_bytes", "two_column_text"):
        raise ValueError(f"unknown trace format {fmt!r}")
    comma = fmt == "csv_ts_bytes"
    columns = _parse_plain(data, comma=comma)
    del data
    if columns is None:
        with open(path, "r") as fh:
            columns = _parse_lines(fh.readlines(), comma=comma)
    ts, sz = columns
    ts -= ts[0]  # rebase so the trace starts at t=0
    return PacketTrace(ts, sz, origin=f"{os.path.basename(path)} ({fmt})")


def save_trace(trace: PacketTrace, path: str | os.PathLike, comments: tuple[str, ...] = ()) -> None:
    """Write csv_ts_bytes with 9 fractional digits on timestamps.

    comments are emitted first, one per line, prefixed with ``# ``.
    """
    with open(path, "w") as fh:
        write_rows(fh, f"%.{TIMESTAMP_DIGITS}f,%d", (trace.timestamps, trace.sizes), comments)


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
    return PacketTrace(ts, sz, origin=f"window[{start_index}:{start_index + count}] of {trace.origin}")

"""Packet traces: the (timestamp, size) sequences everything else consumes.

A trace is stored as two parallel numpy arrays rather than a list of
records so that million-packet traces stay cheap to simulate and bin.
Timestamps are seconds from the start of the trace, sizes are bytes.
"""
from __future__ import annotations

import os
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


def _parse_lines(lines, *, comma: bool, label: str) -> PacketTrace:
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
        if prev is not None and t < prev:
            raise TraceFormatError(f"timestamp {t} decreases from {prev}", lineno)
        prev = t
        ts.append(t)
        sz.append(s)
    if not ts:
        raise TraceFormatError("no packet records found")
    arr = np.array(ts, dtype=np.float64)
    arr -= arr[0]  # rebase so the trace starts at t=0
    return PacketTrace(arr, np.array(sz, dtype=np.int64), origin=label)


def load_trace(path: str | os.PathLike, fmt: str | None = None) -> PacketTrace:
    """Read a trace file.

    fmt is "csv_ts_bytes" (comma separated ``timestamp,bytes``) or
    "two_column_text" (whitespace separated, ``#`` comments allowed).
    With fmt=None the first record line picks the format: a comma means
    CSV. Timestamps are rebased to start at zero.
    """
    path = os.fspath(path)
    with open(path, "r") as fh:
        lines = fh.readlines()
    if fmt is None:
        fmt = "two_column_text"
        for line in lines:
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                if "," in stripped:
                    fmt = "csv_ts_bytes"
                break
    if fmt not in ("csv_ts_bytes", "two_column_text"):
        raise ValueError(f"unknown trace format {fmt!r}")
    return _parse_lines(
        lines, comma=(fmt == "csv_ts_bytes"), label=f"{os.path.basename(path)} ({fmt})"
    )


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

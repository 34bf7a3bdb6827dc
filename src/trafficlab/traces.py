"""Packet traces: the (timestamp, size) sequences everything else consumes.

A trace is stored as two parallel numpy arrays rather than a list of
records so that million-packet traces stay cheap to simulate and bin.
Timestamps are seconds from the start of the trace, sizes are bytes.
"""
from __future__ import annotations

import io
import os
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass
from itertools import chain, islice
from typing import BinaryIO

import numpy as np

__all__ = [
    "PacketTrace",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "bandwidth_for_utilization",
    "window",
]

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
_SCALE = 10**TIMESTAMP_DIGITS
_FIXED_LIMIT = 2.0**53 / _SCALE
_SPLIT = 2.0**27 + 1  # Veltkamp's constant for float64
# the fraction digits of a whole number, broadcast down each fraction row
_NO_FRACTION = np.zeros(1, np.uint64)

_MAX_SIZE = int(np.iinfo(np.int64).max)

# a trace file is read this many bytes at a time, and the byte kernel
# parses each read, cut after its last line end, as one block, so its
# per-line temporaries stay in cache and the blocks spread over
# _in_order's pool while the next is read. Loading a 1M-line file on two
# threads (2-core VM), 512 KiB blocks tied this size, 2 MiB ones were
# 4-14% slower, 256 KiB 9-19% and 128 KiB 40-60%; one pass over the
# whole file, on one thread, took about 1.7 times as long and peaked
# 115 MiB higher
_BLOCK = 1 << 20
# bytes put before each block, so the word ending at any field end
# starts inside the buffer
_PAD = 16
_PADDING = b"\0" * _PAD
# a timestamp of more digits in a field or in all, or whose digits reach
# 2**53, is read by float(); a block with a longer size goes to the line parser
_FIELD_DIGITS = 16
_POW10 = np.array([10**k for k in range(_FIELD_DIGITS + 1)], np.uint64)
_POW10_FLOAT = _POW10.astype(np.float64)  # exact: 10**k = 5**k * 2**k, 5**k < 2**53
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"


def _workers() -> int:
    """The CPUs this process may run on: the size of _in_order's pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(fn, items):
    """fn(item) for each item of the iterable items, yielded in order.

    With more than one usable CPU and at least two items, the calls run
    on a pool of _workers() threads, made when the iteration starts and
    shut down when it ends. The text kernels and the queue kernels spend
    most of their time in numpy loops that release the GIL, so the
    threads can share the cores. items is drawn lazily, on the calling
    thread. This bounds every pooled loop's memory: at most _workers()
    calls run at once, each holding what it makes, and at most
    2 * _workers() are submitted and not yet yielded, so however slowly
    the caller consumes, no more results than that wait, and at most one
    item more has been taken. An exception from fn comes out at its
    item, after every result before it; calls not yet started are cancelled.
    """
    workers = _workers()
    items = iter(items)
    first = list(islice(items, 2))
    if workers < 2 or len(first) < 2:
        yield from map(fn, chain(first, items))
        return
    # imported on first use: concurrent.futures takes about 7 ms to import
    # (2-core VM, Python 3.11), which a command that never pools need not pay
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for item in chain(first, items):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def write_rows(fh, fmt: str, columns, comments=()) -> None:
    """Write each comment as a ``# `` line, then one ``fmt % row`` line per
    row of the parallel columns, to the binary file fh in UTF-8.

    The text is exactly that of ``fmt % row`` with each cell a Python
    scalar, so ``%r`` prints a float's repr and never a numpy wrapper.
    A format of comma-separated ``%.9f`` (TIMESTAMP_DIGITS digits) and
    ``%d`` fields, one per column, as save_trace and QueuePath.write_csv
    use, is laid out digit by digit with numpy, one _WRITE_CHUNK of rows
    at a time, when every ``%.9f`` cell of the chunk is a float64 in
    [0, 2**53 / 10**9) with the sign bit clear and every ``%d`` cell is
    a nonnegative integer of an integer dtype.
    Any other chunk or format, -0.0, nan and inf included, goes through
    Python ``%``. tests/test_traces.py::TestVectorizedWriter checks the
    two byte for byte.

    fh is a file opened "wb" or an io.BytesIO: the bytes numpy laid out
    are handed to it as they are, and the comments and the Python ``%``
    chunks are encoded.

    The chunks are formatted on _in_order's pool and written in order
    from the calling thread, so the chunks formatted ahead of the one
    being written are bounded as _in_order states, whatever the row
    count or the speed of fh. An exception from a chunk comes out after
    every chunk before it was written.
    """
    fh.writelines(f"# {c}\n".encode() for c in comments)
    line = fmt + "\n"
    fields = fmt.split(",")
    numpy_layout = len(fields) == len(columns) and all(f in (_FIXED, "%d") for f in fields)

    def format_chunk(lo):
        chunk = [np.asarray(c[lo : lo + _WRITE_CHUNK]) for c in columns]
        rows = _format_rows(fields, chunk) if numpy_layout else None
        if rows is None:
            return "".join(line % row for row in zip(*(c.tolist() for c in chunk))).encode()
        return rows

    for piece in _in_order(format_chunk, range(0, len(columns[0]), _WRITE_CHUNK)):
        fh.write(piece)


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


def _format_rows(fields, columns) -> np.ndarray | None:
    """The UTF-8 bytes Python ``%`` gives for these rows in the format
    ``",".join(fields)``, as a uint8 array, or None when a cell is
    outside the domain write_rows states.

    The rows are laid out in a buffer with one row per character and one
    column per table row: each field's digits and a comma, the last comma
    made the line end. Integer digits are padded to the widest in the
    chunk with NUL bytes, which no field holds, and the padding is
    deleted from the joined bytes. Both steps are numpy copies, which
    release the GIL, so chunks format side by side on _in_order's pool.
    A ``%.9f`` column whose cells are all whole numbers, as a
    QueuePath's levels are, is laid out as integer digits followed by
    ``.000000000``, without the rounding of _fixed_point.
    """
    whole, fractions = [], []
    for spec, col in zip(fields, columns):
        if spec == "%d":
            if col.dtype.kind not in "iu" or col.min() < 0:
                return None
            whole.append(col)
            fractions.append(None)
            continue
        if col.dtype != np.float64 or not (col < _FIXED_LIMIT).all() or np.signbit(col).any():
            return None
        ip = col.astype(np.uint64)
        if (ip == col).all():
            fractions.append(_NO_FRACTION)
        else:
            fixed = _fixed_point(col)
            ip = fixed // _SCALE
            fractions.append(fixed - ip * _SCALE)
        whole.append(ip)
    widths = [len(str(v.max())) for v in whole]
    points = sum(1 + TIMESTAMP_DIGITS for f in fractions if f is not None)
    buf = np.empty((sum(widths) + points + len(fields), len(columns[0])), np.uint8)
    at = 0
    for v, width, frac in zip(whole, widths, fractions):
        _put_digits(buf[at : at + width], v)
        for j in range(width - 1):  # a leading zero becomes NUL
            np.multiply(buf[at + j], v >= 10 ** (width - 1 - j), out=buf[at + j])
        at += width
        if frac is not None:
            buf[at] = ord(".")
            _put_digits(buf[at + 1 : at + 1 + TIMESTAMP_DIGITS], frac)
            at += 1 + TIMESTAMP_DIGITS
        buf[at] = ord(",")
        at += 1
    buf[-1] = ord("\n")
    text = np.ascontiguousarray(buf.T).reshape(-1)
    return text[text != 0]


class TraceFormatError(ValueError):
    """A trace file failed to parse or violated ordering/size rules."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _broken_rule(ts: np.ndarray, sz: np.ndarray) -> str | None:
    """The first rule of a trace that timestamps ts, real numbers if float64,
    and sizes sz break, as PacketTrace's error message, or None. sz is read
    as given, so a size past int64 is refused before any cast."""
    if ts.dtype != np.float64:
        return "timestamps must be real numbers"
    try:  # integer input, as from packetize or a parser, skips the check
        whole = sz.dtype.kind in "iu" or np.all(sz == np.floor(sz))
    except TypeError:  # floor of text, complex numbers, dates or None
        whole = False
    if not whole:
        return "packet sizes must be whole bytes"
    if ts.ndim != 1 or sz.ndim != 1 or len(ts) != len(sz):
        return "timestamps and sizes must be 1-d and equal length"
    if len(ts) == 0:
        return "empty trace"
    if not np.isfinite(ts).all():
        return "non-finite timestamp"
    if ts[0] < 0:
        return "negative timestamp"
    if not (ts[1:] >= ts[:-1]).all():
        return "timestamps must be nondecreasing"
    if sz.min() < 1:
        return "packet sizes must be >= 1 byte"
    # compared as a Python number, exactly, whatever the dtype: numpy would
    # compare a float size with float(_MAX_SIZE), which rounds up to 2**63
    if np.asarray(sz.max()).item() > _MAX_SIZE:
        return f"packet sizes must be <= {_MAX_SIZE} bytes"
    return None


def _equal_sizes(packet_size: int, n: int) -> np.ndarray:
    """n sizes of packet_size bytes, stored once: a read-only int64 column
    of stride 0, which every reader of PacketTrace.sizes takes as it takes
    np.full(n, packet_size). synth's traces store their sizes so."""
    return np.broadcast_to(np.int64(packet_size), n)


def _one_size(sizes: np.ndarray) -> bool:
    """Whether a size column is stored once (stride 0): then any run of it
    is a slice of it."""
    return not sizes.strides[0]


@dataclass(eq=False)
class PacketTrace:
    """Ordered packet arrivals.

    timestamps are nondecreasing (equal values mean batched arrivals)
    and sizes are whole positive bytes. Arrays are frozen after
    construction; derive new traces instead of mutating.

    sizes may be stored once (_equal_sizes), as synth stores equal
    sizes: a read-only int64 column of stride 0, one value read as n.
    numpy's arithmetic, reductions, slices, boolean masks and copies
    take it as they take np.full(n, size), with the same bits; np.take
    would first copy it whole, so a gather reads such a column as a
    slice, and a window or a block shuffle keeps it stored once.
    """

    timestamps: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        sz = np.asarray(self.sizes)
        if ts.dtype.kind in "biufO":  # numpy would cast a date to a day count
            with suppress(TypeError):  # an object array holding a complex
                ts = np.asarray(ts, dtype=np.float64)
        if (rule := _broken_rule(ts, sz)) is not None:
            raise ValueError(rule)
        sz = np.asarray(sz, dtype=np.int64)
        ts.setflags(write=False)
        sz.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "sizes", sz)

    @classmethod
    def _derived(cls, timestamps: np.ndarray, sizes: np.ndarray) -> PacketTrace:
        """A trace of new float64 and int64 arrays that already hold every
        invariant __post_init__ checks, as a window of a checked trace
        and the columns load_trace has checked do: the arrays are
        frozen, not checked again."""
        trace = cls.__new__(cls)
        timestamps.setflags(write=False)
        sizes.setflags(write=False)
        trace.timestamps, trace.sizes = timestamps, sizes
        return trace

    def __len__(self) -> int:
        return len(self.timestamps)

    def _slices(self, size: int):
        """(timestamps, sizes) of the packets in order, at most size
        packets at a time: read-only views of the columns here. A trace
        that builds its columns on first read, as block_shuffle's does,
        yields its runs without building them, in buffers that the next
        run reuses; a caller reads each run before it takes the next."""
        ts, sz = self.timestamps, self.sizes
        for lo in range(0, len(ts), size):
            yield ts[lo : lo + size], sz[lo : lo + size]

    @property
    def packet_count(self) -> int:
        return len(self)

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


def _parse_lines(lines, *, comma: bool | None, start: int = 0,
                 prev: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and sizes of the records, checked one line at a time.

    lines are the lines of the file after its line `start`, and prev the
    last timestamp before them, if any; comma tells CSV records apart
    from text ones. This is the only code that reports a bad record:
    every TraceFormatError names the first offending line.
    """
    ts: list[float] = []
    sz: list[int] = []
    for lineno, raw in enumerate(lines, start=start + 1):
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
    return np.array(ts, dtype=np.float64), np.array(sz, dtype=np.int64)


def _pieces(fh: BinaryIO):
    """The bytes of the binary file fh, read _BLOCK bytes at a time, up
    to the last line end in each read, or up to the end of the file,
    each after _PAD NUL bytes; a line cut by a read goes into the next
    piece."""
    carry = []  # the bytes read after the last line end
    while chunk := fh.read(_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry.append(chunk)
            continue
        yield b"".join((_PADDING, *carry, memoryview(chunk)[:cut]))
        carry = [chunk[cut:]]
    if any(carry):
        yield b"".join((_PADDING, *carry))


def _blocks(fh: BinaryIO):
    """(block, comma, skipped) for each piece of fh (_pieces): block is
    its lines after _PAD NUL bytes, comma whether the file's first record
    line holds a comma, and skipped the count of the file's leading lines
    cut away just before the block. Those are the lines _parse_lines
    skips, blank or ``#`` after stripping, whatever bytes they hold; the
    first line kept is the first record line. A piece of leading lines
    alone gives no block."""
    comma, skipped = None, 0
    for piece in _pieces(fh):
        if comma is None:
            start = _PAD
            for line in _text_lines(piece[_PAD:]):
                record = line.strip()
                if record and not record.startswith("#"):
                    comma = "," in record
                    break
                start += len(line.encode("utf-8", "surrogateescape"))
                skipped += 1
            else:
                continue
            if start > _PAD:
                piece = b"".join((_PADDING, memoryview(piece)[start:]))
        yield piece, comma, skipped
        skipped = 0


def _parse_checked(item):
    """item, a (block, comma, skipped) triple of _blocks, and _parse_block's
    columns of it, or None when it gives none or they break a rule of a
    trace (_broken_rule)."""
    columns = _parse_block(*item[:2])
    return item, None if columns is None or _broken_rule(*columns) else columns


def _parse_block(buf: bytes, comma: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The records of buf[_PAD:], whole lines of canonical records, or None.

    The canonical shape is records ``D+.D+<sep>D+`` with LF or CRLF line
    ends and a single-byte separator: ``,`` for CSV, a space or a tab
    otherwise. The last line end may be missing. That is what
    save_trace and a Bellcore-style ``%.6f bytes`` file hold once _blocks
    has cut their leading blank and ``#`` lines away. Any other block
    gives None.

    A timestamp of at most 16 digits whose digits m are below 2**53 is
    m / 10**f, f the count of fractional digits: m and 10**f are exact
    doubles, so the one rounded division gives the bits of float()
    (Clinger 1990). Other timestamps are read by float() on their bytes;
    a block holding a size of more than 16 digits gives None.

    Every line holds exactly three bytes that are not digits (four with
    CRLF): the point, the separator and the line end. Their offsets are
    kept as one int32 (3, n) copy, (4, n) with CRLF, a contiguous row per
    mark, and every field is read from the 8-byte words that end at its last digit
    (_eight_digits). A field whose width is the same on every line of
    the block, such as the fraction of a ``%.6f`` or ``%.9f`` column,
    is read with a scalar mask and a scalar power of ten. The float()
    scan for timestamps that the one division may not round as float()
    does runs only when the block's widest integer part and widest
    fraction add up to more than 15 digits: below that, every
    timestamp's digits are below 10**15 < 2**53.
    """
    crlf = buf.find(b"\r") >= 0
    if not buf.endswith(b"\n"):
        buf += b"\r\n" if crlf else b"\n"
    text = np.frombuffer(buf, np.uint8)[_PAD:]
    flat = np.flatnonzero((text - np.uint8(ord("0"))) > 9)
    per_line = 4 if crlf else 3
    if len(flat) % per_line:
        return None
    nd = text[flat]
    sep_byte = nd[1::per_line]
    ok = (nd[::per_line] == ord(".")).all() and (nd[per_line - 1 :: per_line] == ord("\n")).all()
    ok = ok and ((sep_byte == ord(",")) if comma else (sep_byte == ord(" ")) | (sep_byte == ord("\t"))).all()
    if not ok or crlf and not (nd[2::4] == ord("\r")).all():
        return None
    # offsets of text; a block is cut after about _BLOCK bytes, so int32
    # holds them unless one line is gigabytes long
    marks = flat.reshape(-1, per_line).T.astype(np.int32 if len(text) < 2**31 else np.int64, order="C")
    point, sep, end, last = marks[0], marks[1], marks[2], marks[-1]
    line_start = np.empty_like(point)
    line_start[0] = 0
    np.add(last[:-1], 1, out=line_start[1:])
    if crlf and not (last - end == 1).all():
        return None
    int_digits, frac_digits, size_digits = point - line_start, sep - point, end - sep
    frac_digits -= 1
    size_digits -= 1
    ints, fracs, sizes = _Widths(int_digits), _Widths(frac_digits), _Widths(size_digits)
    if min(ints.low, fracs.low, sizes.low) < 1 or sizes.high > _FIELD_DIGITS:
        return None

    # words[0][i] holds the 8 bytes of text before offset i, words[1][i]
    # the 8 before those
    words = [np.ndarray((len(buf) - 15,), "<u8", buf, offset, (1,)) for offset in (_PAD - 8, _PAD - 16)]
    mantissa = _digits(words, point, ints)
    scale = min(fracs.high, _FIELD_DIGITS) if fracs.uniform else np.minimum(frac_digits, _FIELD_DIGITS)
    mantissa *= _POW10[scale]
    mantissa += _digits(words, sep, fracs)
    ts = mantissa.astype(np.float64)
    ts /= _POW10_FLOAT[scale]
    if ints.high + fracs.high > 15:
        for i in np.flatnonzero((int_digits + frac_digits > _FIELD_DIGITS) | (mantissa >= 2**53)).tolist():
            ts[i] = float(buf[line_start[i] + _PAD : sep[i] + _PAD])
    return ts, _digits(words, end, sizes).view(np.int64)  # below 10**16


class _Widths:
    """The digit counts of one field on every line of a block, with their
    least and greatest; uniform when every line has the same count."""

    def __init__(self, widths: np.ndarray):
        self.widths = widths
        self.low, self.high = int(widths.min()), int(widths.max())
        self.uniform = self.low == self.high


def _digits(words, ends: np.ndarray, field: _Widths) -> np.ndarray:
    """The values of the digit fields ending before text offsets ends,
    exact for widths up to _FIELD_DIGITS, as uint64."""
    widths = field.high if field.uniform else field.widths
    if field.high <= 8:
        return _eight_digits(words[0][ends], widths)
    value = _eight_digits(words[0][ends], np.minimum(widths, 8))
    value += _eight_digits(words[1][ends], np.clip(widths - 8, 0, 8)) * np.uint64(10**8)
    return value


def _eight_digits(words: np.ndarray, widths: int | np.ndarray) -> np.ndarray:
    """The value of the last `widths` ASCII digits of each word, folded
    pairwise in the word (Lemire 2021, "Number parsing at a gigabyte per
    second"); the bytes before them count as zeros.

    XOR with eight "0" turns each digit into its value, and the bytes
    before the digits are cleared: by one scalar mask when widths is one
    number, else by a shift down and back up.
    """
    v = words ^ _ZEROS
    if np.ndim(widths) == 0:
        w = int(widths)
        v &= ((1 << 8 * w) - 1) << (64 - 8 * w)
    else:
        shift = (64 - 8 * widths).astype(np.uint64)
        v >>= shift
        v <<= shift
    v *= 10 * 256 + 1  # pairs of digits, in bytes 0, 2, 4 and 6 after the shift
    v >>= 8
    v &= 0x00FF00FF00FF00FF
    v *= 100 * 65536 + 1  # groups of four digits, in bytes 0-1 and 4-5
    v >>= 16
    v &= 0x0000FFFF0000FFFF
    v *= 10000 * 2**32 + 1  # all eight digits, in bytes 4-7
    v >>= 32
    return v


def _text_lines(data: bytes):
    """The lines text-mode readlines() would give for these bytes, decoded
    as UTF-8 whatever the locale, each with its own line end: LF, CRLF or
    a lone CR. An undecodable byte becomes a lone surrogate, so a comment
    may hold any bytes, a line encoded back with surrogateescape gives
    its bytes, and _parse_lines names the record line that holds one."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="")


def load_trace(source: str | os.PathLike | BinaryIO) -> PacketTrace:
    """Read a trace file of comma separated ``timestamp,bytes`` or
    whitespace separated ``timestamp bytes`` records; a comma in the
    first record line means CSV.

    source is a path, or a binary file open for reading, which is read
    to its end, by read(n) calls of _BLOCK bytes, and left open. Either
    way each byte is read once: the file's leading blank and ``#`` lines
    are counted and cut away, whatever bytes they hold, then each block
    of whole lines is parsed by the byte kernel (_parse_block) as the
    blocks come in, and a block it refuses by the line parser, which
    names the first bad line.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped; any other line must hold exactly a timestamp and a plain
    integer size. Timestamps are rebased to start at zero.
    """
    if hasattr(source, "read"):
        ts, sz = _read_columns(source)
    else:
        with open(source, "rb") as fh:
            ts, sz = _read_columns(fh)
    ts -= ts[0]  # rebase so the trace starts at t=0
    # both parsers checked what __post_init__ would, and rebasing a
    # finite nondecreasing column keeps it so
    return PacketTrace._derived(ts, sz)


def _read_columns(fh: BinaryIO) -> tuple[np.ndarray, np.ndarray]:
    """The checked columns of the trace file fh, read to its end.

    Each block of _blocks is parsed by the byte kernel on _in_order's
    pool, within its bound, while the calling thread reads the next. A
    block the kernel refuses, whose columns break a rule of a trace, or
    whose first timestamp is below the last one before it goes to the
    line parser alone, in order, on the calling thread, told the file
    line the block starts after and the timestamp before it; so its
    columns are those the line parser gives for the whole file, and an
    error names the same line. A kernel block holds one record per line.
    No block is kept once its columns are in.
    """
    ts_blocks, sz_blocks = [], []
    line, prev = 0, None  # the lines and the last timestamp before the block
    with closing(_in_order(_parse_checked, _blocks(fh))) as parsed:
        for (block, comma, skipped), columns in parsed:
            line += skipped
            if columns is None or prev is not None and columns[0][0] < prev:
                lines = _text_lines(block[_PAD:]).readlines()
                columns = _parse_lines(lines, comma=comma, start=line, prev=prev)
                line += len(lines)
            else:
                line += len(columns[0])
            if len(columns[0]):
                prev = float(columns[0][-1])
                ts_blocks.append(columns[0])
                sz_blocks.append(columns[1])
    if not ts_blocks:
        raise TraceFormatError("no packet records found")
    return np.concatenate(ts_blocks), np.concatenate(sz_blocks)


def save_trace(trace: PacketTrace, path: str | os.PathLike, comments: tuple[str, ...] = ()) -> None:
    """Write ``timestamp,bytes`` CSV with 9 fractional digits on timestamps,
    in UTF-8 with LF line ends.

    comments are emitted first, one per line, prefixed with ``# ``.
    """
    with open(path, "wb") as fh:
        write_rows(fh, f"{_FIXED},%d", (trace.timestamps, trace.sizes), comments)


def bandwidth_for_utilization(trace: PacketTrace, rho: float) -> float:
    """Service rate (bytes/s) that would carry the trace at load rho.

    Load here is offered work per unit time over the arrival span:
    b = total_bytes / (duration * rho). A rho so small that b passes the
    largest float, or that duration * rho is 0, is a ValueError naming it.
    """
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    dur = trace.duration
    if dur <= 0:
        raise ValueError("trace duration is zero; utilization target undefined")
    span = dur * rho  # 0 where it underflows
    bandwidth = trace.total_bytes / span if span else np.inf
    if not bandwidth < np.inf:
        raise ValueError(f"rho {rho!r} is too small for this trace: the bandwidth "
                         f"total_bytes / (duration * rho) is past the largest float")
    return bandwidth


def window(trace: PacketTrace, start_index: int, count: int) -> PacketTrace:
    """Contiguous sub-trace of `count` packets, rebased to start at 0: a
    copy, but for sizes stored once, which stay so, as a slice."""
    n = trace.packet_count
    if count < 1:
        raise ValueError("window must contain at least one packet")
    if start_index < 0 or start_index + count > n:
        raise ValueError(f"window [{start_index}, {start_index + count}) outside trace of {n}")
    ts = trace.timestamps[start_index : start_index + count].copy()
    ts -= ts[0]
    sz = trace.sizes[start_index : start_index + count]
    if not _one_size(sz):
        sz = sz.copy()
    return PacketTrace._derived(ts, sz)

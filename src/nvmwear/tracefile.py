"""The trace text format: parse, emit, load and save trace files.

File format (UTF-8, one record per line, each ending in a line feed)::

    @segment <name> <start_hex> <end_hex>    header, one line per segment
    W <addr_hex>                             line write of zero bytes
    W <addr_hex> <value_hex>                 line write carrying a payload word
    S <sp_hex>                               stack-pointer update
    # comment

All header lines must precede the first event line.  Addresses are
0x-prefixed hex.  Write addresses are 64-byte aligned; the payload is
the 8-byte word at the line's base address, and a write without one
writes zero bytes, so `W a` and `W a 0x0` are the same event.
Stack-pointer values are 8-byte aligned and stay inside the stack
segment.
"""

from __future__ import annotations

import io
import os
from array import array
from bisect import bisect_right
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import LayoutError, TraceFormatError
from .metrics import format_rows
from .trace import (KIND_SP, KIND_WRITE, MemoryLayout, Segment, Trace,
                    deliver, join_chunks, same_layout)

_PARSE_CHUNK = 1 << 16  # bytes tokenized at once; bounds the temporaries
_READ_BLOCK = 1 << 18  # bytes `load_trace` reads at once
_LOAD_CHUNK = 1 << 14  # events, at least, of each chunk trace `_parse` builds

# each byte's hex digit value, or 16 for a byte that is not a hex digit
_NIBBLE = bytes(int(chr(c), 16) if chr(c) in "0123456789abcdefABCDEF" else 16
                for c in range(256))


def _hex_field(nibbles: np.ndarray, ends: np.ndarray,
               n_digits: np.ndarray) -> np.ndarray:
    """The numbers whose `n_digits` (1-16) hex digits end before `ends`."""
    out = np.zeros(len(ends), np.uint64)
    last = ends - 1
    for k in range(int(n_digits.max(initial=0))):  # one pass per place
        digit = np.take(nibbles, last - k, mode="clip")
        out |= np.where(k < n_digits, digit, 0).astype(np.uint64) << 4 * k
    return out


def _tokenize_chunk(chunk: bytes, payloads: bool = True
                    ) -> Optional[Tuple[Optional[np.ndarray], ...]]:
    """Kinds, addresses and values of a chunk of canonical event lines.

    A canonical line is one `emit_trace` writes: `W` or `S`, a space and
    a 0x-prefixed address below 2^63, then for a write optionally a space
    and a 0x-prefixed value, then a line feed; each number has 1-16 hex
    digits.  Returns None if any line of the chunk is not canonical, and
    the caller then reads the chunk line by line.  Without `payloads`
    the values are checked the same way but not decoded: None stands for
    them.
    """
    if not chunk.endswith(b"\n"):
        return None
    b = np.frombuffer(chunk, np.uint8)
    # a canonical line has two delimiters (a space, then the line feed),
    # or three when a space also ends its address
    delims = np.flatnonzero((b == ord(" ")) | (b == ord("\n")))
    last = np.flatnonzero(b[delims] == ord("\n"))
    n_delims = np.diff(last, prepend=-1)
    if not np.all((n_delims == 2) | (n_delims == 3)):
        return None
    ends = delims[last]
    starts = np.concatenate(([0], ends[:-1] + 1))
    mid = delims[last - n_delims + 2]  # ends the address
    two = n_delims == 3  # the line has a value
    sep = mid[two]  # the space before each value
    addr_digits = mid - starts - 4
    value_digits = ends[two] - sep - 3
    if not (np.all((addr_digits >= 1) & (addr_digits <= 16))
            and np.all((value_digits >= 1) & (value_digits <= 16))):
        return None
    tags = b[starts]
    if not (np.all((tags == ord("W")) | ((tags == ord("S")) & ~two))
            and np.all(b[starts + 1] == ord(" "))
            and np.all(b[starts + 2] == ord("0"))
            and np.all(b[starts + 3] == ord("x"))
            and np.all(b[sep + 1] == ord("0"))
            and np.all(b[sep + 2] == ord("x"))):
        return None
    # the tag, spaces, x's and line feed, checked above, are the only
    # bytes allowed that are not hex digits
    nibbles = np.frombuffer(chunk.translate(_NIBBLE), np.uint8)
    not_hex = 4 * len(ends) + 2 * len(value_digits)
    if np.count_nonzero(nibbles == 16) != not_hex:
        return None
    addrs = _hex_field(nibbles, mid, addr_digits).view(np.int64)
    if np.any(addrs < 0):  # at or above 2^63
        return None
    kinds = np.where(tags == ord("S"), KIND_SP, KIND_WRITE).astype(np.uint8)
    if not payloads:
        return kinds, addrs, None
    values = np.zeros(len(ends), np.uint64)
    values[two] = _hex_field(nibbles, ends[two], value_digits)
    return kinds, addrs, values


def _pieces(blocks: Iterable[bytes]) -> Iterator[Tuple[bytes, int]]:
    """`(data, cut)` pairs whose `data[:cut]` are the text of `blocks` cut
    after a line feed; a block's partial last line is carried into the
    next pair, and the last pair ends where the text does."""
    carry = b""
    for block in blocks:
        data = carry + block
        cut = data.rfind(b"\n") + 1
        yield data, cut
        carry = data[cut:]
    yield carry, len(carry)


def _parse(blocks: Iterable[bytes], payloads: bool = True
           ) -> Iterator[Trace]:
    """Parse trace text given as consecutive blocks of bytes into checked
    chunk traces, each of at least `_LOAD_CHUNK` events but the last, and
    at least one; errors carry the 1-based line number.

    Canonical event lines (see `_tokenize_chunk`), CRLF folded to LF, are
    tokenized with numpy a chunk at a time.  Every other chunk, and the
    header up to its first event line, is read line by line over UTF-8.
    That loop checks the record grammar and words every grammar error.
    An event's line is kept in a table of runs of consecutive event
    lines, for the `Trace` constructor's event rules.  A chunk trace is
    checked when it is built, before a later line is read, so an error
    names the first bad line, a line that is not UTF-8 included.

    Without `payloads` every value is checked as above but none is
    stored: no value column is made, and the Trace's payloads are all 0.
    """
    segments: List[Segment] = []
    layout: Optional[MemoryLayout] = None
    yielded = False

    def new_chunk():
        """Empty columns of a chunk, which grow in place and which its
        Trace takes without a copy; and its table of runs: event run_ev[j]
        is on line run_ln[j], and each next event on the next line, up to
        the next run."""
        return (array("B"), array("q"), array("Q") if payloads else None,
                array("q"), array("q"))

    kinds, addrs, values, run_ev, run_ln = new_chunk()
    next_line = 0  # the line after the chunk's last event's

    def parse_hex(tok: str, line_no: int, what: str, bits: int = 64) -> int:
        if not tok.lower().startswith("0x"):
            raise TraceFormatError("%s %r is not 0x-prefixed hex" % (what, tok),
                                   line_no)
        try:
            # int() would also take "_" separators and non-ASCII digits
            if "_" in tok or not tok.isascii():
                raise ValueError
            val = int(tok, 16)
        except ValueError:
            raise TraceFormatError("bad hex %s %r" % (what, tok), line_no)
        if val >= 1 << bits:
            raise TraceFormatError("%s %r exceeds %d bits" % (what, tok, bits),
                                   line_no)
        return val

    def finish_header(line_no: int) -> MemoryLayout:
        try:
            return MemoryLayout(tuple(segments))
        except LayoutError as exc:
            raise TraceFormatError(str(exc), line_no)

    def build() -> Trace:
        """A Trace of the chunk's events, naming a bad event by its line."""
        try:
            return Trace(layout, np.frombuffer(kinds, np.uint8),
                         np.frombuffer(addrs, np.int64),
                         np.frombuffer(values, np.uint64) if payloads else None)
        except TraceFormatError as exc:
            i = exc.event_index
            if i is None:
                raise
            j = bisect_right(run_ev, i) - 1
            raise TraceFormatError(str(exc),
                                   run_ln[j] + i - run_ev[j]) from None

    line_no = 0
    try:
        for data, cut in _pieces(blocks):
            pos = 0
            while pos < cut:
                if len(kinds) >= _LOAD_CHUNK:
                    full = build()
                    kinds, addrs, values, run_ev, run_ln = new_chunk()
                    next_line = 0
                    yield full
                    yielded = True
                if layout is None:  # the header, up to its first event line
                    stop = data.find(b"\n", pos, cut) + 1 or cut
                    chunk = None
                else:
                    # cut at the chunk's last line feed, or past a long line
                    lim = min(pos + _PARSE_CHUNK, cut)
                    stop = (data.rfind(b"\n", pos, lim) + 1
                            or data.find(b"\n", pos, cut) + 1 or cut)
                    chunk = data[pos:stop]
                    if b"\r" in chunk:  # one memchr; most chunks have none
                        chunk = chunk.replace(b"\r\n", b"\n")
                    chunk = _tokenize_chunk(chunk, payloads)
                if chunk is not None:
                    k = len(chunk[0])
                    if line_no + 1 != next_line:
                        run_ev.append(len(kinds))
                        run_ln.append(line_no + 1)
                    kinds.frombytes(chunk[0])
                    addrs.frombytes(chunk[1].view(np.uint8))
                    if payloads:
                        values.frombytes(chunk[2].view(np.uint8))
                    line_no, pos = line_no + k, stop
                    next_line = line_no + 1
                    continue
                # bytes split at b"\n" alone; a trailing "\r" is stripped
                lines, pos = io.BytesIO(data[pos:stop]), stop
                for line_no, raw in enumerate(lines, start=line_no + 1):
                    try:
                        line = raw.decode("utf-8").strip()
                    except UnicodeDecodeError:
                        raise TraceFormatError("not UTF-8 text",
                                               line_no) from None
                    if not line or line.startswith("#"):
                        continue
                    toks = line.split()
                    tag = toks[0]
                    if tag == "@segment":
                        if layout is not None:
                            raise TraceFormatError(
                                "@segment after the first event line", line_no)
                        if len(toks) != 4:
                            raise TraceFormatError("malformed @segment record",
                                                   line_no)
                        start = parse_hex(toks[2], line_no, "segment start")
                        end = parse_hex(toks[3], line_no, "segment end")
                        segments.append(Segment(toks[1], start, end))
                        continue
                    if layout is None:
                        layout = finish_header(line_no)
                    # addresses fit 63 bits because a Trace holds them as int64
                    if tag == "W" and len(toks) in (2, 3):
                        kind = KIND_WRITE
                        addr = parse_hex(toks[1], line_no, "address", 63)
                        value = parse_hex(toks[2], line_no, "value") \
                            if len(toks) == 3 else 0
                    elif tag == "S" and len(toks) == 2:
                        kind = KIND_SP
                        addr = parse_hex(toks[1], line_no, "stack pointer", 63)
                        value = 0
                    elif tag in ("W", "S"):
                        raise TraceFormatError("malformed %s record" % tag,
                                               line_no)
                    else:
                        raise TraceFormatError("unrecognized record %r" % tag,
                                               line_no)
                    if line_no != next_line:
                        run_ev.append(len(kinds))
                        run_ln.append(line_no)
                    kinds.append(kind)
                    addrs.append(addr)
                    if payloads:
                        values.append(value)
                    next_line = line_no + 1
    except TraceFormatError:
        if layout is not None:
            build()  # an invalid event on an earlier line is reported first
        raise

    if layout is None:
        layout = finish_header(line_no + 1)
    if kinds or not yielded:
        yield build()


def parse_trace(data: Union[bytes, str], payloads: bool = True) -> Trace:
    """Parse trace text, read as one block (see `_parse`); a `str` is read
    as its UTF-8 encoding."""
    if isinstance(data, str):
        # a lone surrogate is kept, and then fails to decode at its line
        data = data.encode("utf-8", "surrogatepass")
    return join_chunks(_parse([data], payloads))


# events formatted at once: at 1 << 12 a chunk's byte matrix and keep
# mask stay below glibc's 128 KiB mmap threshold, so a `gen` child reuses
# heap pages; at 1 << 13 it took about twice the page faults
_EMIT_CHUNK = 1 << 12


def _emit_header(layout: MemoryLayout) -> bytes:
    return "".join("@segment %s 0x%x 0x%x\n" % (seg.name, seg.start, seg.end)
                   for seg in layout.segments).encode()


def _emit_records(trace: Trace) -> Iterator[bytes]:
    """The trace's event lines, one part per `_EMIT_CHUNK` events: the
    tag, " 0x" and the address, then " 0x" and the value unless it is 0."""
    for lo in range(0, trace.n_events, _EMIT_CHUNK):
        part = slice(lo, lo + _EMIT_CHUNK)
        tags = np.where(trace.kinds[part] == KIND_SP, np.uint8(ord("S")),
                        np.uint8(ord("W")))
        addrs = trace.addrs[part].view(np.uint64)
        yield format_rows([tags, b" 0x", (addrs, 16),
                           (trace.values[part], 16, b" 0x"), b"\n"], len(tags))


def emit_trace(trace: Trace) -> bytes:
    """Serialize a trace; emit/parse round-trips to an equal trace.

    Each record is its tag, a space and the 0x-prefixed lowercase hex
    address without leading zeros; a write's value follows the same way
    only when it is nonzero."""
    return b"".join([_emit_header(trace.layout), *_emit_records(trace)])


def load_trace(path, payloads: bool = True, chunked: bool = False
               ) -> Union[Trace, Iterator[Trace]]:
    """Parse a trace file; a TraceFormatError names the file.

    The file is read once, in blocks, never whole, and parsed into
    checked chunk traces as it is read (see `_parse`).  With `chunked`
    those chunks are returned as an iterator, as `gen_workload` returns
    them, which holds the file open until it is used up; otherwise they
    are joined into one `Trace`.  Either way an error in the header or
    the first chunk is raised here.  Without `payloads` the values are
    checked but none is kept, which saves 8 of the 17 bytes an event
    takes; the trace then equals the file's trace only if all its
    payloads are 0."""
    return deliver(_load_chunks(path, payloads), chunked)


def _load_chunks(path, payloads: bool) -> Iterator[Trace]:
    with open(path, "rb") as fh:
        try:
            yield from _parse(iter(lambda: fh.read(_READ_BLOCK), b""),
                              payloads)
        except TraceFormatError as exc:
            exc.args = ("%s: %s" % (path, exc),)
            raise


@contextmanager
def open_atomic(path):
    """A binary file that replaces `path` when the block ends, written as
    `path` + ".tmp" and renamed; if the block raises, it is removed, so
    readers never see a partial file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def save_trace(trace: Union[Trace, Iterable[Trace]], path) -> Tuple[int, int]:
    """Write `emit_trace`'s bytes of a trace, or of the consecutive chunk
    traces of an iterable on one layout, such as `gen_workload` yields
    with `chunked=True`: the header once, then each chunk's records as it
    arrives, so no more than a chunk is held.  The file appears whole
    (see `open_atomic`).  Returns the events and writes saved."""
    chunks = [trace] if isinstance(trace, Trace) else trace
    layout, n_events, n_writes = None, 0, 0
    with open_atomic(path) as fh:
        for chunk in chunks:
            if layout is None:
                fh.write(_emit_header(chunk.layout))
            layout = same_layout(layout, chunk)
            fh.writelines(_emit_records(chunk))
            n_events += chunk.n_events
            n_writes += chunk.n_writes
        if layout is None:
            raise TraceFormatError("no trace chunk to save")
    return n_events, n_writes


"""Write-trace data model, file format, and synthetic workload generators.

A trace couples a memory layout (text/data/bss/stack segments) with an
ordered stream of 64-byte line writes and stack-pointer updates.  Trace
addresses are *logical*: they name locations in a fixed layout that never
moves.  Address shifting done by a wear-leveling policy happens later, at
replay time, so a single trace is comparable across policies.

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

import copy
import io
import itertools
import os
import random
import tempfile
from array import array
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import GeneratorError, LayoutError, TraceFormatError

PAGE_SIZE = 4096
LINE_SIZE = 64
MIN_ADDRESS = 1 << 32

SEGMENT_NAMES = ("text", "data", "bss", "stack")

_KIND_WRITE = 0
_KIND_SP = 1

_VALIDATE_CHUNK = 1 << 14  # events `Trace.validate` checks at once


@dataclass(frozen=True)
class Segment:
    name: str
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class MemoryLayout:
    """Segments plus the page/line granularity they are managed at."""

    segments: Tuple[Segment, ...]
    page_size: int = PAGE_SIZE
    line_size: int = LINE_SIZE

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        self.validate()

    def validate(self):
        ps, ls = self.page_size, self.line_size
        if not (type(ps) is type(ls) is int and 0 < ls <= ps
                and not ps & ps - 1 and not ls & ls - 1):
            raise LayoutError("page size %r and line size %r are not powers "
                              "of two with the line no larger" % (ps, ls))
        if not self.segments:
            raise LayoutError("layout has no segments")
        seen = set()
        prev_end = 0
        for seg in self.segments:
            if seg.name not in SEGMENT_NAMES:
                raise LayoutError("unknown segment name %r" % seg.name)
            if seg.name in seen:
                raise LayoutError("duplicate segment %r" % seg.name)
            seen.add(seg.name)
            if seg.start % self.page_size or seg.end % self.page_size:
                raise LayoutError("segment %s is not page-aligned" % seg.name)
            if seg.end <= seg.start:
                raise LayoutError("segment %s is empty" % seg.name)
            if seg.start < MIN_ADDRESS:
                raise LayoutError("segment %s starts below 2^32" % seg.name)
            # a Trace holds addresses as int64, and sp may equal the end
            if seg.end >= 1 << 63:
                raise LayoutError("segment %s ends at or above 2^63"
                                  % seg.name)
            if seg.start < prev_end:
                raise LayoutError(
                    "segments overlap or are out of order at %s" % seg.name)
            prev_end = seg.end
        # the stack's shadow alias takes the stack-sized range below it
        stack = self.segment("stack")
        if stack is not None:
            shadow_lo = stack.start - stack.size
            if shadow_lo < MIN_ADDRESS:
                raise LayoutError("no room for a shadow region below the stack")
            for seg in self.segments:
                if shadow_lo < seg.end <= stack.start:
                    raise LayoutError("segment %s overlaps the stack's shadow "
                                      "region" % seg.name)

    def segment(self, name: str) -> Optional[Segment]:
        for seg in self.segments:
            if seg.name == name:
                return seg
        return None

    @property
    def total_pages(self) -> int:
        return sum(s.size for s in self.segments) // self.page_size


@dataclass(frozen=True)
class WriteEvent:
    """One whole-line write; `value` is the word at the line base.

    A line's other bytes are zero, so `None` is stored as the word 0."""

    address: int
    value: Optional[int] = None


@dataclass(frozen=True)
class SpUpdateEvent:
    sp: int


Event = Union[WriteEvent, SpUpdateEvent]


def _event_field(name: str, data, dtype) -> np.ndarray:
    """`data` as a 1-D contiguous `dtype` array, if no value changes.

    A contiguous array of that dtype is used as it is, with no scan."""
    try:
        with np.errstate(invalid="ignore"):  # a bad float cast fails below
            arr = np.ascontiguousarray(data, dtype=dtype)
        src = data if isinstance(data, np.ndarray) else np.asarray(data)
        ok = src.ndim == 1 and (src.dtype == dtype or np.array_equal(arr, src))
    except (OverflowError, TypeError, ValueError):
        ok = False
    if not ok:
        raise TraceFormatError("event field %s out of range for a 1-D %s array"
                               % (name, np.dtype(dtype).name))
    return arr


def _no_payloads(n: int) -> np.ndarray:
    """A read-only column of n zero payloads that takes no memory."""
    return np.broadcast_to(np.uint64(0), n)


class Trace:
    """A layout plus an ordered event stream, stored as parallel arrays.

    The array representation keeps multi-million-event traces cheap to
    hold and replay.  The constructor validates every event and then
    makes the arrays read-only, so a Trace stays valid for its lifetime
    and consumers need not check it again.  `values=None` means every
    payload is the word 0, held as a zero-stride column of no bytes.
    """

    def __init__(self, layout: MemoryLayout, kinds, addrs, values=None):
        self.layout = layout
        self.kinds = _event_field("kinds", kinds, np.uint8)
        self.addrs = _event_field("addrs", addrs, np.int64)
        self.values = _no_payloads(len(self.kinds)) if values is None \
            else _event_field("values", values, np.uint64)
        if not len(self.kinds) == len(self.addrs) == len(self.values):
            raise TraceFormatError("event arrays disagree in length")
        self.validate()
        for arr in (self.kinds, self.addrs, self.values):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_events(cls, layout: MemoryLayout, events: Iterable[Event]) -> "Trace":
        kinds: List[int] = []
        addrs: List[int] = []
        values: List[int] = []
        for ev in events:
            if isinstance(ev, WriteEvent):
                kinds.append(_KIND_WRITE)
                addrs.append(ev.address)
                values.append(0 if ev.value is None else ev.value)
            elif isinstance(ev, SpUpdateEvent):
                kinds.append(_KIND_SP)
                addrs.append(ev.sp)
                values.append(0)
            else:
                raise TraceFormatError("unknown event %r" % (ev,))
        return cls(layout, kinds, addrs, values)

    def chunks(self, n: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Views of the kinds and addresses of each `n` consecutive events,
        as a trace spilled by `spill` yields them."""
        for lo in range(0, self.n_events, n):
            yield self.kinds[lo:lo + n], self.addrs[lo:lo + n]

    @property
    def has_sp_updates(self) -> bool:
        """Whether any event is a stack-pointer update."""
        return bool(self.kinds.any())

    def without_payloads(self) -> "Trace":
        """This trace with every payload the word 0, sharing its other
        columns; a zero payload breaks no event rule, so none is checked."""
        out = copy.copy(self)
        out.values = _no_payloads(self.n_events)
        return out

    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.kinds)

    @property
    def n_writes(self) -> int:
        return int(np.count_nonzero(self.kinds == _KIND_WRITE))

    def __repr__(self) -> str:
        """Counts, then the segments and first events as trace-file text."""
        head = Trace(self.layout, *(a[:4] for a in (self.kinds, self.addrs,
                                                    self.values)))
        text = emit_trace(head).decode().strip().replace("\n", "; ")
        return "Trace(%d events, %d writes: %s%s)" % (
            self.n_events, self.n_writes, text,
            "; ..." if self.n_events > 4 else "")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.layout == other.layout
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.addrs, other.addrs)
                and np.array_equal(self.values, other.values))

    def validate(self):
        """Check every event against the layout; raises TraceFormatError.

        The constructor runs this.  The error names the first invalid
        event in stream order and carries its 0-based index as
        `event_index`.  Events are checked `_VALIDATE_CHUNK` at a time,
        so the masks take O(chunk) memory.
        """
        stack = self.layout.segment("stack")
        ls = self.layout.line_size
        for lo in range(0, self.n_events, _VALIDATE_CHUNK):
            part = slice(lo, lo + _VALIDATE_CHUNK)
            k, a = self.kinds[part], self.addrs[part]
            is_w, is_sp = k == _KIND_WRITE, k == _KIND_SP
            inside = np.zeros(len(a), dtype=bool)
            for seg in self.layout.segments:
                inside |= (a >= seg.start) & (a < seg.end)
            in_stack = np.zeros(len(a), dtype=bool) if stack is None \
                else (a >= stack.start) & (a <= stack.end)
            rules = (  # a failing event is named by the first rule it breaks
                (k > _KIND_SP, "event at 0x%x is neither a write nor a "
                               "stack-pointer update"),
                (is_w & (a & ls - 1 != 0),
                 "unaligned write address 0x%%x, not %d-byte aligned" % ls),
                (is_w & ~inside, "write address 0x%x outside all segments"),
                (is_sp & (stack is None),
                 "stack pointer 0x%x without a stack segment"),
                (is_sp & (a & 7 != 0),
                 "unaligned stack pointer 0x%x, not 8-byte aligned"),
                (is_sp & ~in_stack,
                 "stack pointer 0x%x outside the stack segment"),
                (is_sp & (self.values[part] != 0),
                 "stack pointer 0x%x carries a payload"),
            )
            bad = np.logical_or.reduce([mask for mask, _ in rules])
            if bad.any():
                i = int(np.argmax(bad))
                msg = next(msg for mask, msg in rules if mask[i])
                raise TraceFormatError(msg % int(a[i]), event_index=lo + i)


# ----------------------------------------------------------------------
# file format

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
    kinds = np.where(tags == ord("S"), _KIND_SP, _KIND_WRITE).astype(np.uint8)
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
                        kind = _KIND_WRITE
                        addr = parse_hex(toks[1], line_no, "address", 63)
                        value = parse_hex(toks[2], line_no, "value") \
                            if len(toks) == 3 else 0
                    elif tag == "S" and len(toks) == 2:
                        kind = _KIND_SP
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
    return _join(_parse([data], payloads))


# events formatted at once: at 1 << 13 a chunk's temporaries are small
# beside the output, so emit's peak is the 2x its join needs (3.1x at
# 1 << 16), and no size from 1 << 12 to 1 << 16 was faster
_EMIT_CHUNK = 1 << 13

# 16 ** 1 .. 16 ** 15; a number's hex digit count is 1 + how many it reaches
_HEX_POWERS = np.uint64(16) ** np.arange(1, 16, dtype=np.uint64)
_SEP = np.frombuffer(b" 0x", np.uint8)[:, None]


def _hex_columns(col: np.ndarray, width: int) -> np.ndarray:
    """(width, n) lowercase ASCII hex of the low `width` digits of each
    uint64, most significant digit first."""
    octets = col.astype(">u8").view(np.uint8).reshape(-1, 8).T
    nibbles = np.empty((16, len(col)), np.uint8)
    nibbles[0::2] = octets >> 4
    nibbles[1::2] = octets & 15
    nibbles = nibbles[16 - width:]
    # "0"-"9" are 48-57 and "a"-"f" 97-102
    return nibbles + np.uint8(48) + (nibbles > 9) * np.uint8(39)


def _emit_header(layout: MemoryLayout) -> bytes:
    return "".join("@segment %s 0x%x 0x%x\n" % (seg.name, seg.start, seg.end)
                   for seg in layout.segments).encode()


def _emit_records(trace: Trace) -> Iterator[bytes]:
    """The trace's event lines, one part per `_EMIT_CHUNK` events.

    A chunk's records are the rows of an (n, w) uint8 matrix, stored
    column-major so that each numpy pass runs along the events: the tag,
    " 0x" and the address, " 0x" and the value, then a line feed.  Each
    number is written at the chunk's widest digit count, and one keep
    mask drops its leading zeros and the value field of every record
    whose value is 0."""
    for start in range(0, trace.n_events, _EMIT_CHUNK):
        part = slice(start, start + _EMIT_CHUNK)
        addrs = trace.addrs[part].view(np.uint64)
        has = np.flatnonzero(trace.values[part])  # the records with a value
        values = trace.values[part][has]
        a_digits = np.searchsorted(_HEX_POWERS, addrs, "right") + 1
        v_digits = np.zeros(len(addrs), np.intp)
        v_digits[has] = np.searchsorted(_HEX_POWERS, values, "right") + 1
        wa, wv = int(a_digits.max()), int(v_digits.max())
        v0 = 4 + wa  # the value's " 0x"
        out = np.empty((v0 + 3 + wv + 1, len(addrs)), np.uint8)
        out[0] = np.where(trace.kinds[part] == _KIND_SP, ord("S"), ord("W"))
        out[1:4] = out[v0:v0 + 3] = _SEP
        out[4:v0] = _hex_columns(addrs, wa)
        out[v0 + 3:-1, has] = _hex_columns(values, wv)
        out[-1] = ord("\n")
        # keep a number's own digits, and a value's " 0x" if it has any
        keep = np.ones(out.shape, bool)
        np.greater_equal(np.arange(wa)[:, None], wa - a_digits,
                         out=keep[4:v0])
        rank = np.concatenate((np.full(3, wv - 1), np.arange(wv)))
        np.greater_equal(rank[:, None], wv - v_digits, out=keep[v0:-1])
        yield out.T[keep.T].tobytes()


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
    return _deliver(_load_chunks(path, payloads), chunked)


def _load_chunks(path, payloads: bool) -> Iterator[Trace]:
    with open(path, "rb") as fh:
        try:
            yield from _parse(iter(lambda: fh.read(_READ_BLOCK), b""),
                              payloads)
        except TraceFormatError as exc:
            exc.args = ("%s: %s" % (path, exc),)
            raise


class SpilledTrace:
    """What `replay` reads of a trace, its layout and its kinds and
    addresses a chunk at a time, with the columns in two unlinked
    temporary files that `spill` writes and closes."""

    def __init__(self, layout: MemoryLayout, has_sp_updates: bool,
                 kinds_file, addrs_file):
        self.layout = layout
        self.has_sp_updates = has_sp_updates
        self.files = kinds_file, addrs_file

    def chunks(self, n: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The kinds and addresses of each `n` consecutive events, read
        from the files with `np.fromfile`; one walk at a time.  A memory
        map would do, but the pages it touches count as resident."""
        kinds_file, addrs_file = self.files
        for fh in self.files:
            fh.seek(0)
        while True:
            kinds = np.fromfile(kinds_file, np.uint8, n)
            if not len(kinds):
                return
            yield kinds, np.fromfile(addrs_file, np.int64, len(kinds))


@contextmanager
def spill(chunks: Iterable[Trace]) -> Iterator[SpilledTrace]:
    """The consecutive chunk traces of one layout, as `gen_workload` and
    `load_trace` yield them with `chunked=True`, written to temporary
    files as each arrives, 9 bytes an event, and read back for each
    replay; the files are gone when the block ends.  Payloads are not
    kept: replay reads none."""
    with tempfile.TemporaryFile() as kinds_file, \
            tempfile.TemporaryFile() as addrs_file:
        layout, has_sp = None, False
        for chunk in chunks:
            layout = _same_layout(layout, chunk)
            kinds_file.write(chunk.kinds)
            addrs_file.write(chunk.addrs)
            has_sp = has_sp or chunk.has_sp_updates
        if layout is None:
            raise TraceFormatError("no trace chunk to spill")
        yield SpilledTrace(layout, has_sp, kinds_file, addrs_file)


def _same_layout(layout: Optional[MemoryLayout], chunk: Trace
                 ) -> MemoryLayout:
    """The chunk's layout, which must be `layout` if that is not None."""
    if layout is not None and chunk.layout != layout:
        raise TraceFormatError("trace chunks disagree in layout")
    return chunk.layout


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
            layout = _same_layout(layout, chunk)
            fh.writelines(_emit_records(chunk))
            n_events += chunk.n_events
            n_writes += chunk.n_writes
        if layout is None:
            raise TraceFormatError("no trace chunk to save")
    return n_events, n_writes


# ----------------------------------------------------------------------
# layout helper

def make_layout(text_pages: int = 2, data_pages: int = 8, bss_pages: int = 4,
                stack_pages: int = 4, base: int = MIN_ADDRESS) -> MemoryLayout:
    """Build a contiguous layout with a gap below the stack.

    The gap is exactly the stack size, which keeps the virtual range one
    stack-size below the stack segment free for shadow aliasing.
    """
    segs = []
    cursor = base
    for name, pages in (("text", text_pages), ("data", data_pages),
                        ("bss", bss_pages)):
        if pages:
            segs.append(Segment(name, cursor, cursor + pages * PAGE_SIZE))
            cursor += pages * PAGE_SIZE
    if stack_pages:
        stack_size = stack_pages * PAGE_SIZE
        cursor += stack_size  # shadow gap
        segs.append(Segment("stack", cursor, cursor + stack_size))
    return MemoryLayout(tuple(segs))


# ----------------------------------------------------------------------
# synthetic workloads

def gen_workload(kind: str, total_writes: int, layout: MemoryLayout,
                 seed: int, chunked: bool = False
                 ) -> Union[Trace, Iterator[Trace]]:
    """Generate a deterministic synthetic workload.

    Kinds: hotspot (few very hot data lines plus shallow stack traffic),
    stream (sequential cycling over the data segment), deepstack (LIFO
    call/return activity with sp updates and pointer payloads), queue
    (skewed ring over the bss segment).

    Each generator draws its events a chunk at a time and yields each
    chunk as a `Trace` of at most `_GEN_CHUNK` events, at least one
    chunk.  With `chunked` those chunks are returned as an iterator, for
    `save_trace` to write as they come; otherwise they are joined into
    one `Trace`.  Either way the events do not depend on the chunk size,
    and a generator's own errors are raised here, not from the iterator.
    """
    if total_writes < 0:
        raise GeneratorError("total_writes must be non-negative")
    if kind not in WORKLOADS:
        raise GeneratorError("unknown workload kind %r" % kind)
    return _deliver(WORKLOADS[kind](total_writes, layout, seed), chunked)


def _deliver(chunks: Iterator[Trace], chunked: bool
             ) -> Union[Trace, Iterator[Trace]]:
    """The chunks as an iterator, with the first taken now so that its
    errors are raised at the call, or joined into one `Trace`."""
    chunks = itertools.chain([next(chunks)], chunks)
    return chunks if chunked else _join(chunks)


def _join(chunks: Iterable[Trace]) -> Trace:
    """One trace of consecutive chunks on one layout, their columns
    copied into arrays that grow in place.  The value column starts at
    the first nonzero payload; with none the trace has no value column.

    Every event rule holds per event, and each chunk was checked when it
    was built, so the joined trace is not checked again."""
    kinds, addrs, values = array("B"), array("q"), None
    for chunk in chunks:
        if values is None and chunk.values.any():
            values = array("Q", [0]) * len(kinds)
        kinds.frombytes(chunk.kinds)
        addrs.frombytes(chunk.addrs.view(np.uint8))
        if values is not None:
            values.frombytes(np.ascontiguousarray(chunk.values).view(np.uint8))
    out = copy.copy(chunk)
    out.kinds = np.frombuffer(kinds, np.uint8)
    out.addrs = np.frombuffer(addrs, np.int64)
    out.values = _no_payloads(len(kinds)) if values is None \
        else np.frombuffer(values, np.uint64)
    for arr in (out.kinds, out.addrs, out.values):
        arr.flags.writeable = False
    return out


def _need(layout: MemoryLayout, name: str, min_bytes: int, kind: str) -> Segment:
    seg = layout.segment(name)
    if seg is None or seg.size < min_bytes:
        raise GeneratorError(
            "%s workload needs a %s segment of at least %d bytes"
            % (kind, name, min_bytes))
    return seg


# events a generator draws for and yields at once; a `gen` child's peak
# holds a chunk, and at 1 << 16 it was about 3 MB higher
_GEN_CHUNK = 1 << 13


def _bounds(total: int) -> Iterator[Tuple[int, int]]:
    """`(lo, hi)` of each chunk of `total` events; one empty one for 0."""
    for lo in range(0, max(total, 1), _GEN_CHUNK):
        yield lo, min(lo + _GEN_CHUNK, total)


def _gen_hotspot(total: int, layout: MemoryLayout, seed: int
                 ) -> Iterator[Trace]:
    data = _need(layout, "data", PAGE_SIZE, "hotspot")
    bss = layout.segment("bss")
    stack = _need(layout, "stack", 1024, "hotspot")
    # any line of the data or bss segment: a segment's start, then a line
    spans = [(data.start, data.size // LINE_SIZE)]
    if bss is not None:
        spans.append((bss.start, bss.size // LINE_SIZE))
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    sizes = np.array([n for _, n in spans], dtype=np.int64)

    # Five passes draw one PCG64 stream in turn, each for the whole trace:
    # every write's category from a float (hot, stack or other), the
    # hot writes' lines, the stack writes' payloads, the other writes'
    # segments, then their lines.  A pass draws the same numbers a chunk
    # at a time as at once.  So a counting pass draws the first four,
    # keeping only the category totals, and notes where each pass starts
    # in the stream; then five generators set to those states draw the
    # passes side by side, one chunk at a time.
    rng = np.random.default_rng(seed)

    def category(g: np.random.Generator, n: int):
        """Masks of the hot, stack and other writes among the next n."""
        f = g.random(n)
        hot, rest = f < 0.75, f >= 0.95
        return hot, ~(hot | rest), rest

    draws = (lambda g, n: g.integers(0, 4, n),
             lambda g, n: g.integers(0, 1 << 32, n, dtype=np.uint64),
             lambda g, n: g.integers(0, len(spans), n))
    states, counts = [rng.bit_generator.state], np.zeros(3, np.int64)
    for lo, hi in _bounds(total):
        counts += [np.count_nonzero(m) for m in category(rng, hi - lo)]
    states.append(rng.bit_generator.state)
    for draw, n in zip(draws, counts):
        for lo, hi in _bounds(n):
            draw(rng, hi - lo)
        states.append(rng.bit_generator.state)
    gens = [np.random.Generator(np.random.PCG64()) for _ in states]
    for g, state in zip(gens, states):
        g.bit_generator.state = state
    cat_rng, hot_rng, stk_rng, seg_rng, line_rng = gens

    # shallow LIFO sawtooth over the top eight stack lines
    tri = np.array([0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1], dtype=np.int64)
    window = 512  # shallow valid stack below the top
    n_stk = 0
    for lo, hi in _bounds(total + 1):
        kinds = np.zeros(hi - lo, np.uint8)
        all_addrs = np.empty(hi - lo, np.int64)
        all_values = np.zeros(hi - lo, np.uint64)
        # event 0 is an sp update, and event i > 0 is write i - 1
        skip = int(lo == 0)
        if skip:
            kinds[0], all_addrs[0] = _KIND_SP, stack.end - window
        addrs, values = all_addrs[skip:], all_values[skip:]
        hot, stk, rest = category(cat_rng, len(addrs))
        # one of the data segment's first four lines
        addrs[hot] = data.start + LINE_SIZE * draws[0](
            hot_rng, np.count_nonzero(hot))
        n = np.count_nonzero(stk)
        depth = tri[np.arange(n_stk, n_stk + n) % len(tri)]
        addrs[stk] = stack.end - LINE_SIZE * (1 + depth)
        values[stk] = draws[1](stk_rng, n)
        n_stk += n
        seg = draws[2](seg_rng, np.count_nonzero(rest))
        off = line_rng.random(len(seg)) * sizes[seg]
        addrs[rest] = starts[seg] + off.astype(np.int64) * LINE_SIZE
        yield Trace(layout, kinds, all_addrs, all_values)


def _gen_stream(total: int, layout: MemoryLayout, seed: int
                ) -> Iterator[Trace]:
    data = _need(layout, "data", PAGE_SIZE, "stream")
    n_lines = data.size // LINE_SIZE
    for lo, hi in _bounds(total):
        idx = np.arange(lo, hi, dtype=np.int64) % n_lines
        yield Trace(layout, np.zeros(hi - lo, np.uint8),
                    data.start + idx * LINE_SIZE)


def _gen_queue(total: int, layout: MemoryLayout, seed: int
               ) -> Iterator[Trace]:
    bss = _need(layout, "bss", PAGE_SIZE, "queue")
    rng = np.random.default_rng(seed)
    ring = bss.size // LINE_SIZE
    # slow drift of the ring head plus a geometric reach back over recent
    # slots; front slots are revisited far more often than the tail
    for lo, hi in _bounds(total):
        drift = np.arange(lo, hi, dtype=np.int64) // 16
        reach = rng.geometric(0.08, hi - lo).astype(np.int64) - 1
        line = (drift + np.minimum(reach, ring - 1)) % ring
        yield Trace(layout, np.zeros(hi - lo, np.uint8),
                    bss.start + line * LINE_SIZE)


def _gen_deepstack(total: int, layout: MemoryLayout, seed: int
                   ) -> Iterator[Trace]:
    stack = _need(layout, "stack", 4 * PAGE_SIZE, "deepstack")
    rng = random.Random(seed)
    draw, getrandbits = rng.random, rng.getrandbits

    def below(n: int) -> int:
        """`rng.randrange(n)`, drawing the same bits as CPython does."""
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    top = stack.end
    max_depth = stack.size // 2  # keeps relocation headroom at replay time
    shallow_depth = stack.size // 8
    frame_sizes = (64, 128, 192, 256)
    # a return below p_ret (0.20 near the top, 0.45 deeper down), else a
    # call below p_ret + p_call, the same float sum at either depth
    p_ret_call = 0.45 + 0.20

    # the pending events, and the positions of the sp updates among them
    addrs, values, sp_events = array("q"), array("Q"), array("q")
    sp = top
    frames: List[int] = []
    push, pop = frames.append, frames.pop
    writes = 0
    chunk = _GEN_CHUNK
    while True:
        add_addr, add_value = addrs.append, values.append
        while writes < total and len(addrs) < chunk:
            depth = top - sp
            r = draw()
            first = n = 0  # n lines written from `first` on
            if frames and r < (0.20 if depth < shallow_depth else 0.45):
                sp += pop()
            elif (not frames) or r < p_ret_call:
                i = getrandbits(3)  # below(4)
                while i >= 4:
                    i = getrandbits(3)
                size = frame_sizes[i]
                if depth + size > max_depth:
                    sp += pop()
                else:
                    sp -= size
                    push(size)
                    # a call writes its new frame, up to the total
                    first, n = sp, min(size // LINE_SIZE, total - writes)
            else:
                # rewrite a line of the newest frame; keeps the top hot
                lines = frames[-1] // LINE_SIZE
                k = lines.bit_length()  # below(lines)
                i = getrandbits(k)
                while i >= lines:
                    i = getrandbits(k)
                first, n = sp + LINE_SIZE * i, 1
            if top - sp != depth:  # a call or a return moved sp
                sp_events.append(len(addrs))
                add_addr(sp)
                add_value(0)
            for addr in range(first, first + n * LINE_SIZE, LINE_SIZE):
                # an occasional payload is a pointer into the current valid
                # stack, which is not empty while a frame is written
                if draw() < 0.02:
                    add_value(sp + 8 * below((top - sp) // 8))
                else:
                    add_value(getrandbits(32))
                add_addr(addr)
            writes += n
        # yield a chunk and carry the rest into the next: only writes, as
        # a step's sp update comes first, at a position below the chunk
        k = min(len(addrs), chunk)
        kinds = np.zeros(k, np.uint8)
        kinds[np.asarray(sp_events, np.intp)] = _KIND_SP
        yield Trace(layout, kinds, addrs[:k], values[:k])
        addrs, values, sp_events = addrs[k:], values[k:], array("q")
        if writes >= total and not addrs:
            return


# workload kind -> generator, in the order the CLI lists them
WORKLOADS = {
    "hotspot": _gen_hotspot,
    "stream": _gen_stream,
    "deepstack": _gen_deepstack,
    "queue": _gen_queue,
}

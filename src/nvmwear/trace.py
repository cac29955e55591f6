"""Write-trace data model: layouts, events and the `Trace` arrays.

A trace couples a memory layout (text/data/bss/stack segments) with an
ordered stream of 64-byte line writes and stack-pointer updates.  Trace
addresses are *logical*: they name locations in a fixed layout that never
moves.  Address shifting done by a wear-leveling policy happens later, at
replay time, so a single trace is comparable across policies.
"""

from __future__ import annotations

import copy
import itertools
import tempfile
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import LayoutError, TraceFormatError

PAGE_SIZE = 4096
LINE_SIZE = 64
MIN_ADDRESS = 1 << 32

SEGMENT_NAMES = ("text", "data", "bss", "stack")

# an event's kind: a line write or a stack-pointer update
KIND_WRITE = 0
KIND_SP = 1

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
                kinds.append(KIND_WRITE)
                addrs.append(ev.address)
                values.append(0 if ev.value is None else ev.value)
            elif isinstance(ev, SpUpdateEvent):
                kinds.append(KIND_SP)
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

    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.kinds)

    @property
    def n_writes(self) -> int:
        return int(np.count_nonzero(self.kinds == KIND_WRITE))

    def __repr__(self) -> str:
        """Counts, then the segments and first events as trace-file text."""
        from .tracefile import emit_trace
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
        # a bound index found by the search is odd exactly inside a segment
        bounds = np.ravel([(s.start, s.end) for s in self.layout.segments])
        for lo in range(0, self.n_events, _VALIDATE_CHUNK):
            part = slice(lo, lo + _VALIDATE_CHUNK)
            k, a = self.kinds[part], self.addrs[part]
            is_w, is_sp = k == KIND_WRITE, k == KIND_SP
            inside = (np.searchsorted(bounds, a, side="right") & 1) == 1
            in_stack = np.zeros(len(a), dtype=bool) if stack is None \
                else (a >= stack.start) & (a <= stack.end)
            rules = (  # a failing event is named by the first rule it breaks
                (k > KIND_SP, "event at 0x%x is neither a write nor a "
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


def deliver(chunks: Iterator[Trace], chunked: bool
            ) -> Union[Trace, Iterator[Trace]]:
    """The chunks as an iterator, with the first taken now so that its
    errors are raised at the call, or joined into one `Trace`."""
    chunks = itertools.chain([next(chunks)], chunks)
    return chunks if chunked else join_chunks(chunks)


def join_chunks(chunks: Iterable[Trace]) -> Trace:
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


def same_layout(layout: Optional[MemoryLayout], chunk: Trace) -> MemoryLayout:
    """The chunk's layout, which must be `layout` if that is not None."""
    if layout is not None and chunk.layout != layout:
        raise TraceFormatError("trace chunks disagree in layout")
    return chunk.layout


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
        from the files into new arrays with `readinto`; one walk at a
        time.  A memory map would do, but the pages it touches count as
        resident."""
        kinds_file, addrs_file = self.files
        for fh in self.files:
            fh.seek(0)
        while True:
            kinds = np.empty(n, np.uint8)
            k = kinds_file.readinto(kinds)
            if not k:
                return
            addrs = np.empty(k, np.int64)
            if addrs_file.readinto(addrs) != addrs.nbytes:
                raise TraceFormatError("spilled addresses end before kinds")
            yield kinds[:k], addrs


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
            layout = same_layout(layout, chunk)
            kinds_file.write(chunk.kinds)
            addrs_file.write(chunk.addrs)
            has_sp = has_sp or chunk.has_sp_updates
        if layout is None:
            raise TraceFormatError("no trace chunk to spill")
        yield SpilledTrace(layout, has_sp, kinds_file, addrs_file)

"""Write-trace data model, file format, and synthetic workload generators.

A trace couples a memory layout (text/data/bss/stack segments) with an
ordered stream of 64-byte line writes and stack-pointer updates.  Trace
addresses are *logical*: they name locations in a fixed layout that never
moves.  Address shifting done by a wear-leveling policy happens later, at
replay time, so a single trace is comparable across policies.

File format (UTF-8, one record per line)::

    @segment <name> <start_hex> <end_hex>    header, one line per segment
    W <addr_hex>                             line write
    W <addr_hex> <value_hex>                 line write carrying a payload word
    S <sp_hex>                               stack-pointer update
    # comment

All header lines must precede the first event line.  Addresses are
0x-prefixed hex.  Write addresses are 64-byte aligned; a payload, when
present, is the 8-byte word at the line's base address.  Stack-pointer
values are 8-byte aligned and stay inside the stack segment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .errors import GeneratorError, LayoutError, TraceFormatError

PAGE_SIZE = 4096
LINE_SIZE = 64
MIN_ADDRESS = 1 << 32

SEGMENT_NAMES = ("text", "data", "bss", "stack")

_KIND_WRITE = 0
_KIND_SP = 1


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
    """One whole-line write; `value` is the optional word at the line base."""

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


class Trace:
    """A layout plus an ordered event stream, stored as parallel arrays.

    The array representation keeps multi-million-event traces cheap to
    hold and replay.  The constructor validates every event and then
    makes the arrays read-only, so a Trace stays valid for its lifetime
    and consumers need not check it again.
    """

    def __init__(self, layout: MemoryLayout, kinds, addrs, values, has_value):
        self.layout = layout
        self.kinds = _event_field("kinds", kinds, np.uint8)
        self.addrs = _event_field("addrs", addrs, np.int64)
        self.values = _event_field("values", values, np.uint64)
        self.has_value = _event_field("has_value", has_value, np.bool_)
        n = len(self.kinds)
        if not (len(self.addrs) == len(self.values) == len(self.has_value) == n):
            raise TraceFormatError("event arrays disagree in length")
        self.validate()
        for arr in (self.kinds, self.addrs, self.values, self.has_value):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_events(cls, layout: MemoryLayout, events: Iterable[Event]) -> "Trace":
        kinds: List[int] = []
        addrs: List[int] = []
        values: List[int] = []
        has_value: List[bool] = []
        for ev in events:
            if isinstance(ev, WriteEvent):
                kinds.append(_KIND_WRITE)
                addrs.append(ev.address)
                values.append(0 if ev.value is None else ev.value)
                has_value.append(ev.value is not None)
            elif isinstance(ev, SpUpdateEvent):
                kinds.append(_KIND_SP)
                addrs.append(ev.sp)
                values.append(0)
                has_value.append(False)
            else:
                raise TraceFormatError("unknown event %r" % (ev,))
        return cls(layout, kinds, addrs, values, has_value)

    # ------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.kinds)

    @property
    def n_writes(self) -> int:
        return int(np.count_nonzero(self.kinds == _KIND_WRITE))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.layout == other.layout
                and np.array_equal(self.kinds, other.kinds)
                and np.array_equal(self.addrs, other.addrs)
                and np.array_equal(self.has_value, other.has_value)
                and np.array_equal(np.where(self.has_value, self.values, 0),
                                   np.where(other.has_value, other.values, 0)))

    def validate(self):
        """Check every event against the layout; raises TraceFormatError.

        The constructor runs this.  The error names the first invalid
        event in stream order and carries its 0-based index as
        `event_index`.
        """
        a = self.addrs
        is_w = self.kinds == _KIND_WRITE
        is_sp = self.kinds == _KIND_SP
        inside = np.zeros(len(a), dtype=bool)
        for seg in self.layout.segments:
            inside |= (a >= seg.start) & (a < seg.end)
        stack = self.layout.segment("stack")
        in_stack = np.zeros(len(a), dtype=bool) if stack is None \
            else (a >= stack.start) & (a <= stack.end)
        rules = (  # a failing event is named by the first rule it breaks
            (self.kinds > _KIND_SP,
             "event at 0x%x is neither a write nor a stack-pointer update"),
            (is_w & (a % self.layout.line_size != 0),
             "unaligned write address 0x%%x, not %d-byte aligned"
             % self.layout.line_size),
            (is_w & ~inside, "write address 0x%x outside all segments"),
            (is_sp & (stack is None),
             "stack pointer 0x%x without a stack segment"),
            (is_sp & (a % 8 != 0),
             "unaligned stack pointer 0x%x, not 8-byte aligned"),
            (is_sp & ~in_stack, "stack pointer 0x%x outside the stack segment"),
            (is_sp & self.has_value, "stack pointer 0x%x carries a payload"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in rules])
        if bad.any():
            i = int(np.argmax(bad))
            msg = next(msg for mask, msg in rules if mask[i])
            raise TraceFormatError(msg % int(a[i]), event_index=i)


# ----------------------------------------------------------------------
# file format

def parse_trace(data: Union[bytes, str]) -> Trace:
    """Parse trace text into a Trace; errors carry the 1-based line number.

    Only the record grammar is checked per line; the event rules are the
    `Trace` constructor's, and a failing event's line is looked up after.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise TraceFormatError("not UTF-8 text", line_no) from None
    lines = data.splitlines()
    del data  # free the decoded text before the per-line lists grow

    segments: List[Segment] = []
    layout: Optional[MemoryLayout] = None
    kinds: List[int] = []
    addrs: List[int] = []
    values: List[int] = []
    has_value: List[bool] = []

    def parse_hex(tok: str, line_no: int, what: str, bits: int = 64) -> int:
        if not tok.lower().startswith("0x"):
            raise TraceFormatError("%s %r is not 0x-prefixed hex" % (what, tok),
                                   line_no)
        try:
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
        """A Trace of the events so far, naming a bad event by its line."""
        try:
            return Trace(layout, kinds, addrs, values, has_value)
        except TraceFormatError as exc:
            events = -1
            for line_no, raw in enumerate(lines, start=1):
                toks = raw.split()
                if toks and not toks[0].startswith("#") \
                        and toks[0] != "@segment":
                    events += 1
                    if events == exc.event_index:
                        raise TraceFormatError(str(exc), line_no) from None
            raise

    try:
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
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
                    if len(toks) == 3 else None
            elif tag == "S" and len(toks) == 2:
                kind = _KIND_SP
                addr = parse_hex(toks[1], line_no, "stack pointer", 63)
                value = None
            elif tag in ("W", "S"):
                raise TraceFormatError("malformed %s record" % tag, line_no)
            else:
                raise TraceFormatError("unrecognized record %r" % tag, line_no)
            kinds.append(kind)
            addrs.append(addr)
            values.append(0 if value is None else value)
            has_value.append(value is not None)
    except TraceFormatError:
        if layout is not None:
            build()  # an invalid event on an earlier line is reported first
        raise

    if layout is None:
        layout = finish_header(len(lines) + 1)
    # free each list as it becomes an array, before the Trace validates
    kinds = np.array(kinds, dtype=np.uint8)
    addrs = np.array(addrs, dtype=np.int64)
    values = np.array(values, dtype=np.uint64)
    has_value = np.array(has_value, dtype=np.bool_)
    return build()


def emit_trace(trace: Trace) -> bytes:
    """Serialize a trace; emit/parse round-trips to an equal trace."""
    out: List[str] = []
    for seg in trace.layout.segments:
        out.append("@segment %s 0x%x 0x%x" % (seg.name, seg.start, seg.end))
    for k, a, v, h in zip(trace.kinds, trace.addrs, trace.values,
                          trace.has_value):
        if k == _KIND_WRITE:
            if h:
                out.append("W 0x%x 0x%x" % (a, v))
            else:
                out.append("W 0x%x" % a)
        else:
            out.append("S 0x%x" % a)
    out.append("")
    return "\n".join(out).encode("utf-8")


def load_trace(path) -> Trace:
    """Parse a trace file; a TraceFormatError names the file."""
    with open(path, "rb") as fh:
        try:
            return parse_trace(fh.read())
        except TraceFormatError as exc:
            exc.args = ("%s: %s" % (path, exc),)
            raise


def save_trace(trace: Trace, path):
    with open(path, "wb") as fh:
        fh.write(emit_trace(trace))


# ----------------------------------------------------------------------
# aggregation oracle

def aggregate_linecounts(trace: Trace) -> Dict[int, int]:
    """Exact per-line write counts under identity translation.

    Keys are absolute line indices (address // line_size).  Serves as the
    ground-truth oracle that any leveling-off replay must reproduce.
    """
    w = trace.kinds == _KIND_WRITE
    lines = trace.addrs[w] // trace.layout.line_size
    uniq, counts = np.unique(lines, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


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
                 seed: int) -> Trace:
    """Generate a deterministic synthetic workload.

    Kinds: hotspot (few very hot data lines plus shallow stack traffic),
    stream (sequential cycling over the data segment), deepstack (LIFO
    call/return activity with sp updates and pointer payloads), queue
    (skewed ring over the bss segment).
    """
    if total_writes < 0:
        raise GeneratorError("total_writes must be non-negative")
    if kind not in WORKLOADS:
        raise GeneratorError("unknown workload kind %r" % kind)
    return WORKLOADS[kind](total_writes, layout, seed)


def _need(layout: MemoryLayout, name: str, min_bytes: int, kind: str) -> Segment:
    seg = layout.segment(name)
    if seg is None or seg.size < min_bytes:
        raise GeneratorError(
            "%s workload needs a %s segment of at least %d bytes"
            % (kind, name, min_bytes))
    return seg


def _gen_hotspot(total: int, layout: MemoryLayout, seed: int) -> Trace:
    data = _need(layout, "data", PAGE_SIZE, "hotspot")
    bss = layout.segment("bss")
    stack = _need(layout, "stack", 1024, "hotspot")
    rng = np.random.default_rng(seed)

    hot_lines = data.start + LINE_SIZE * np.arange(4, dtype=np.int64)
    window = 512  # shallow valid stack below the top
    sp0 = stack.end - window

    cat = rng.random(total)
    hot = cat < 0.75
    stk = (cat >= 0.75) & (cat < 0.95)

    addrs = np.empty(total, dtype=np.int64)
    values = np.zeros(total, dtype=np.uint64)
    has_value = np.zeros(total, dtype=bool)

    addrs[hot] = hot_lines[rng.integers(0, 4, int(hot.sum()))]

    # shallow LIFO sawtooth over the top eight stack lines
    n_stk = int(stk.sum())
    tri = np.array([0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1], dtype=np.int64)
    depth = tri[np.arange(n_stk) % len(tri)]
    addrs[stk] = stack.end - LINE_SIZE * (1 + depth)
    values[stk] = rng.integers(0, 1 << 32, n_stk, dtype=np.uint64)
    has_value[stk] = True

    rest = ~(hot | stk)
    n_rest = int(rest.sum())
    spans = [(data.start, data.size // LINE_SIZE)]
    if bss is not None:
        spans.append((bss.start, bss.size // LINE_SIZE))
    starts = np.array([s for s, _ in spans], dtype=np.int64)
    sizes = np.array([n for _, n in spans], dtype=np.int64)
    pick = rng.integers(0, len(spans), n_rest)
    off = (rng.random(n_rest) * sizes[pick]).astype(np.int64)
    addrs[rest] = starts[pick] + off * LINE_SIZE

    kinds = np.concatenate((np.uint8([_KIND_SP]), np.zeros(total, np.uint8)))
    all_addrs = np.concatenate(([sp0], addrs))
    all_values = np.concatenate((np.uint64([0]), values))
    all_has = np.concatenate(([False], has_value))
    return Trace(layout, kinds, all_addrs, all_values, all_has)


def _gen_stream(total: int, layout: MemoryLayout, seed: int) -> Trace:
    data = _need(layout, "data", PAGE_SIZE, "stream")
    n_lines = data.size // LINE_SIZE
    idx = np.arange(total, dtype=np.int64) % n_lines
    addrs = data.start + idx * LINE_SIZE
    kinds = np.zeros(total, dtype=np.uint8)
    return Trace(layout, kinds, addrs, np.zeros(total, dtype=np.uint64),
                 np.zeros(total, dtype=bool))


def _gen_queue(total: int, layout: MemoryLayout, seed: int) -> Trace:
    bss = _need(layout, "bss", PAGE_SIZE, "queue")
    rng = np.random.default_rng(seed)
    ring = bss.size // LINE_SIZE
    # slow drift of the ring head plus a geometric reach back over recent
    # slots; front slots are revisited far more often than the tail
    drift = np.arange(total, dtype=np.int64) // 16
    reach = rng.geometric(0.08, total).astype(np.int64) - 1
    line = (drift + np.minimum(reach, ring - 1)) % ring
    addrs = bss.start + line * LINE_SIZE
    kinds = np.zeros(total, dtype=np.uint8)
    return Trace(layout, kinds, addrs, np.zeros(total, dtype=np.uint64),
                 np.zeros(total, dtype=bool))


def _gen_deepstack(total: int, layout: MemoryLayout, seed: int) -> Trace:
    stack = _need(layout, "stack", 4 * PAGE_SIZE, "deepstack")
    rng = random.Random(seed)
    top = stack.end
    max_depth = stack.size // 2  # keeps relocation headroom at replay time
    frame_sizes = (64, 128, 192, 256)

    kinds: List[int] = []
    addrs: List[int] = []
    values: List[int] = []
    sp = top
    frames: List[int] = []
    writes = 0

    def payload() -> int:
        # an occasional payload is a pointer into the current valid stack
        if sp < top and rng.random() < 0.02:
            return sp + 8 * rng.randrange((top - sp) // 8)
        return rng.getrandbits(32)

    def emit_write(addr: int):
        nonlocal writes
        kinds.append(_KIND_WRITE)
        addrs.append(addr)
        values.append(payload())
        writes += 1

    def emit_sp(val: int):
        kinds.append(_KIND_SP)
        addrs.append(val)
        values.append(0)

    while writes < total:
        depth = top - sp
        r = rng.random()
        shallow = depth < stack.size // 8
        p_call = 0.45 if shallow else 0.20
        p_ret = 0.20 if shallow else 0.45
        if frames and r < p_ret:
            sp += frames.pop()
            emit_sp(sp)
        elif (not frames) or r < p_ret + p_call:
            size = rng.choice(frame_sizes)
            if depth + size > max_depth:
                sp += frames.pop()
                emit_sp(sp)
                continue
            sp -= size
            frames.append(size)
            emit_sp(sp)
            for off in range(0, size, LINE_SIZE):
                if writes >= total:
                    break
                emit_write(sp + off)
        else:
            # rewrite a line of the newest frame; keeps the top hot
            size = frames[-1]
            off = LINE_SIZE * rng.randrange(size // LINE_SIZE)
            emit_write(sp + off)

    # free each list as it becomes an array, before the Trace validates
    kinds = np.array(kinds, dtype=np.uint8)
    addrs = np.array(addrs, dtype=np.int64)
    values = np.array(values, dtype=np.uint64)
    # every write carries a payload and no sp update does
    return Trace(layout, kinds, addrs, values, kinds == _KIND_WRITE)


# workload kind -> generator, in the order the CLI lists them
WORKLOADS = {
    "hotspot": _gen_hotspot,
    "stream": _gen_stream,
    "deepstack": _gen_deepstack,
    "queue": _gen_queue,
}

"""Trace model, file format, generators, and the aggregation oracle."""

import numpy as np
import pytest

from nvmwear import (
    MemoryLayout,
    Segment,
    SpUpdateEvent,
    Trace,
    WriteEvent,
    gen_workload,
    make_layout,
)
from nvmwear.errors import GeneratorError, LayoutError, TraceFormatError
from nvmwear.trace import aggregate_linecounts, emit_trace, parse_trace

HEADER = "@segment stack 0x100010000 0x100020000\n"


def test_parse_single_write():
    tr = parse_trace(HEADER + "W 0x100011000\n")
    assert tr == Trace.from_events(tr.layout, [WriteEvent(0x100011000)])
    assert tr.layout.segments == (Segment("stack", 0x100010000, 0x100020000),)


def test_parse_write_with_value():
    tr = parse_trace(HEADER + "W 0x100011040 0xDEADBEEF\n")
    assert tr == Trace.from_events(tr.layout,
                                   [WriteEvent(0x100011040, 0xDEADBEEF)])


def test_parse_unaligned_address_rejected():
    with pytest.raises(TraceFormatError, match="aligned"):
        parse_trace(HEADER + "W 0x100011001\n")


def test_parse_reports_line_number():
    text = HEADER + "W 0x100011000\nW 0x100011001\n"
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_trace(text)


def test_parse_reports_the_first_invalid_line():
    # an invalid event before a grammar error is the one reported
    with pytest.raises(TraceFormatError, match="line 4: .*8-byte"):
        parse_trace(HEADER + "# c\n\nS 0x100011004\nW zz\n")
    with pytest.raises(TraceFormatError, match="line 2: .*0x-prefixed"):
        parse_trace(HEADER + "W zz\nS 0x100011004\n")
    # a Trace holds addresses as int64
    with pytest.raises(TraceFormatError, match="line 2: .*63 bits"):
        parse_trace(HEADER + "W 0x8000000000000000\n")


def test_parse_address_outside_segments():
    with pytest.raises(TraceFormatError, match="outside"):
        parse_trace(HEADER + "W 0x200000000\n")


def test_parse_requires_hex_prefix():
    with pytest.raises(TraceFormatError, match="0x"):
        parse_trace(HEADER + "W 4295040000\n")
    with pytest.raises(TraceFormatError, match="line 2: bad hex"):
        parse_trace(HEADER + "W 0xzz\n")


def test_parse_value_width_checked():
    with pytest.raises(TraceFormatError, match="64 bits"):
        parse_trace(HEADER + "W 0x100011000 0x10000000000000000\n")


def test_parse_header_after_events_rejected():
    text = HEADER + "W 0x100011000\n@segment data 0x100030000 0x100031000\n"
    with pytest.raises(TraceFormatError, match="@segment after"):
        parse_trace(text)


def test_parse_comments_and_blanks_anywhere():
    text = ("# a trace\n\n" + HEADER + "# events follow\n"
            "W 0x100011000\n\n# done\nS 0x100011008\n")
    tr = parse_trace(text)
    assert tr == Trace.from_events(tr.layout, [WriteEvent(0x100011000),
                                               SpUpdateEvent(0x100011008)])


def test_parse_sp_alignment_and_range():
    with pytest.raises(TraceFormatError, match="8-byte"):
        parse_trace(HEADER + "S 0x100011004\n")
    with pytest.raises(TraceFormatError, match="outside the stack"):
        parse_trace(HEADER + "S 0x100020008\n")
    # the segment end itself is a legal sp (empty stack)
    tr = parse_trace(HEADER + "S 0x100020000\n")
    assert tr == Trace.from_events(tr.layout, [SpUpdateEvent(0x100020000)])


def test_parse_unknown_record():
    with pytest.raises(TraceFormatError, match="unrecognized"):
        parse_trace(HEADER + "R 0x100011000\n")
    with pytest.raises(TraceFormatError,
                       match="line 1: malformed @segment record"):
        parse_trace("@segment data 0x1\n")
    for record in ("W a b c", "S"):
        with pytest.raises(TraceFormatError,
                           match="line 2: malformed %s record" % record[0]):
            parse_trace(HEADER + record + "\n")


def test_emit_empty_trace_is_header_only(layout):
    tr = Trace.from_events(layout, [])
    text = emit_trace(tr).decode()
    lines = [ln for ln in text.splitlines() if ln]
    assert all(ln.startswith("@segment") for ln in lines)
    assert len(lines) == len(layout.segments)
    assert parse_trace(text) == tr and parse_trace(text).n_events == 0
    with pytest.raises(TraceFormatError, match="line 1: layout has no segm"):
        parse_trace("")


def test_emit_single_event(layout):
    data = layout.segment("data")
    tr = Trace.from_events(layout, [WriteEvent(data.start)])
    assert emit_trace(tr).decode().splitlines()[-1] == "W 0x%x" % data.start


@pytest.mark.parametrize("kind", ["hotspot", "stream", "deepstack", "queue"])
def test_round_trip_generated(kind, layout):
    tr = gen_workload(kind, 2000, layout, 42)
    assert parse_trace(emit_trace(tr)) == tr


@pytest.mark.parametrize("kind", ["hotspot", "stream", "deepstack", "queue"])
def test_generator_deterministic(kind, layout):
    a = gen_workload(kind, 1000, layout, 7)
    b = gen_workload(kind, 1000, layout, 7)
    assert emit_trace(a) == emit_trace(b)


def test_generator_seed_changes_output(layout):
    a = gen_workload("hotspot", 1000, layout, 7)
    b = gen_workload("hotspot", 1000, layout, 8)
    assert emit_trace(a) != emit_trace(b)


def test_generated_traces_validate(layout):
    for kind in ("hotspot", "stream", "deepstack", "queue"):
        gen_workload(kind, 3000, layout, 5).validate()


def test_unknown_kind(layout):
    with pytest.raises(GeneratorError):
        gen_workload("zigzag", 10, layout, 0)
    with pytest.raises(GeneratorError, match="non-negative"):
        gen_workload("stream", -1, layout, 0)


def test_deepstack_needs_four_stack_pages():
    small = make_layout(stack_pages=2)
    with pytest.raises(GeneratorError):
        gen_workload("deepstack", 100, small, 0)


def test_aggregate_trivials(layout):
    data = layout.segment("data")
    a, b = data.start, data.start + 64
    tr = Trace.from_events(layout, [WriteEvent(a)] * 3)
    assert aggregate_linecounts(tr) == {a // 64: 3}
    tr2 = Trace.from_events(layout, [WriteEvent(a), WriteEvent(b)])
    assert aggregate_linecounts(tr2) == {a // 64: 1, b // 64: 1}


def test_aggregate_conserves_writes(layout):
    tr = gen_workload("deepstack", 10**4, layout, 9)
    counts = aggregate_linecounts(tr)
    assert sum(counts.values()) == tr.n_writes == 10**4


def test_hotspot_concentration(layout):
    tr = gen_workload("hotspot", 10**4, layout, 3)
    counts = aggregate_linecounts(tr)
    data = layout.segment("data")
    in_data = {ln: c for ln, c in counts.items()
               if data.start // 64 <= ln < data.end // 64}
    top4 = sum(sorted(in_data.values())[-4:])
    assert top4 >= 0.70 * tr.n_writes


def test_deepstack_skews_toward_stack_top(layout):
    tr = gen_workload("deepstack", 10**5, layout, 1)
    counts = aggregate_linecounts(tr)
    stack = layout.segment("stack")
    per_line = np.zeros(stack.size // 64, dtype=np.int64)
    for ln, c in counts.items():
        if stack.start // 64 <= ln < stack.end // 64:
            per_line[ln - stack.start // 64] = c
    assert per_line.max() >= 10 * per_line.mean()


def test_deepstack_pointer_payload_share(layout):
    tr = gen_workload("deepstack", 10**4, layout, 2)
    stack = layout.segment("stack")
    w = tr.kinds == 0
    vals = tr.values[w][tr.has_value[w]]
    ptrs = np.count_nonzero((vals >= stack.start) & (vals < stack.end))
    assert ptrs >= 0.01 * len(vals)
    # all stack writes carry a payload word
    in_stack = (tr.addrs[w] >= stack.start) & (tr.addrs[w] < stack.end)
    assert tr.has_value[w][in_stack].all()


def test_queue_skew(layout):
    # within one revolution of the ring the head area is far hotter than
    # the tail; over many revolutions the pattern evens out by design
    tr = gen_workload("queue", 2000, layout, 4)
    counts = aggregate_linecounts(tr)
    bss = layout.segment("bss")
    assert all(bss.start // 64 <= ln < bss.end // 64 for ln in counts)
    arr = np.array(sorted(counts.values()))
    assert arr.max() > 2 * arr.mean()


def test_layout_validation():
    seg = Segment("data", 0x100000000, 0x100001000)
    with pytest.raises(LayoutError, match="unknown segment"):
        MemoryLayout((Segment("heap", 0x100000000, 0x100001000),))
    with pytest.raises(LayoutError, match="duplicate"):
        MemoryLayout((seg, Segment("data", 0x100002000, 0x100003000)))
    with pytest.raises(LayoutError, match="page-aligned"):
        MemoryLayout((Segment("data", 0x100000040, 0x100001040),))
    with pytest.raises(LayoutError, match="empty"):
        MemoryLayout((Segment("data", 0x100001000, 0x100001000),))
    with pytest.raises(LayoutError, match="below 2\\^32"):
        MemoryLayout((Segment("data", 0x1000, 0x2000),))
    with pytest.raises(LayoutError, match="overlap"):
        MemoryLayout((Segment("data", 0x100001000, 0x100003000),
                      Segment("bss", 0x100002000, 0x100004000),))
    # MemorySpace shifts by page and line size, so both are powers of two
    for page_size, line_size in ((0, 64), (-4096, 64), (4096, 0),
                                 (4096, 48), (64, 4096), (4096.0, 64),
                                 ("4096", 64)):
        with pytest.raises(LayoutError, match="powers of two"):
            MemoryLayout((seg,), page_size, line_size)
    assert MemoryLayout((seg,), 4096, 4096).line_size == 4096


def test_layout_rejects_stack_shadow_over_a_segment():
    # bss directly below the stack: the stack's shadow alias would cover
    # bss, folding every bss write onto a stack line
    base = 1 << 32
    segs = (Segment("data", base, base + 0x1000),
            Segment("bss", base + 0x1000, base + 0x5000),
            Segment("stack", base + 0x5000, base + 0x9000))
    with pytest.raises(LayoutError, match="bss overlaps the stack's shadow"):
        MemoryLayout(segs)
    text = "".join("@segment %s 0x%x 0x%x\n" % (s.name, s.start, s.end)
                   for s in segs) + "W 0x%x\n" % (base + 0x1000)
    with pytest.raises(TraceFormatError, match="line 4: .*shadow"):
        parse_trace(text)
    with pytest.raises(LayoutError, match="no room for a shadow"):
        MemoryLayout((Segment("stack", base, base + 0x4000),))


def test_layout_and_trace_reject_addresses_past_int64():
    top = 1 << 63
    with pytest.raises(LayoutError, match="2\\^63"):
        MemoryLayout((Segment("data", top - 0x1000, top),))
    # sp may equal the stack's end, so the end itself must fit int64
    with pytest.raises(LayoutError, match="2\\^63"):
        MemoryLayout((Segment("stack", top - 0x1000, top),))
    with pytest.raises(TraceFormatError, match="line 2: .*2\\^63"):
        parse_trace("@segment data 0x%x 0x%x\nW 0x%x\n"
                    % (top - 0x1000, top, top - 0x1000))
    highest = MemoryLayout((Segment("data", top - 0x2000, top - 0x1000),))
    assert highest.segments[0].end == top - 0x1000
    layout = make_layout()
    data = layout.segment("data")
    with pytest.raises(TraceFormatError, match="out of range"):
        Trace.from_events(layout, [WriteEvent(top)])
    with pytest.raises(TraceFormatError, match="out of range"):
        Trace.from_events(layout, [WriteEvent(data.start, 1 << 64)])
    with pytest.raises(TraceFormatError, match="out of range"):
        Trace(layout, [0], [data.start], [-1], [True])


def test_make_layout_leaves_shadow_gap():
    lay = make_layout()
    stack = lay.segment("stack")
    below = [s for s in lay.segments if s.name != "stack"]
    assert stack.start - stack.size >= max(s.end for s in below)


def test_validate_catches_bad_events(layout):
    # a Trace is checked when it is built, by either constructor
    stack = layout.segment("stack")
    good = WriteEvent(stack.start)
    with pytest.raises(TraceFormatError, match="unaligned") as exc:
        Trace.from_events(layout, [good, WriteEvent(stack.start + 1)])
    assert exc.value.event_index == 1 and exc.value.line_no is None
    with pytest.raises(TraceFormatError, match="outside the stack") as exc:
        Trace.from_events(layout, [SpUpdateEvent(stack.start - 8), good])
    assert exc.value.event_index == 0
    with pytest.raises(TraceFormatError, match="8-byte") as exc:
        Trace(layout, [0, 0, 1], [stack.start, stack.start, stack.start + 4],
              [0] * 3, [False] * 3)
    assert exc.value.event_index == 2
    with pytest.raises(TraceFormatError, match="disagree in length"):
        Trace(layout, [0, 0], [stack.start], [0], [False])
    with pytest.raises(TraceFormatError, match="unknown event"):
        Trace.from_events(layout, [good, stack.start])


def test_constructor_rejects_events_the_text_format_cannot_express(layout):
    # neither has a text form, so emit/parse could not round-trip them
    d, stack = layout.segment("data").start, layout.segment("stack")
    with pytest.raises(TraceFormatError, match="neither a write") as exc:
        Trace(layout, [0, 2, 0], [d, d + 64, d + 128], [0] * 3, [False] * 3)
    assert exc.value.event_index == 1
    with pytest.raises(TraceFormatError, match="carries a payload") as exc:
        Trace(layout, [1], [stack.end - 64], [5], [True])
    assert exc.value.event_index == 0


@pytest.mark.parametrize("field, bad", [
    ("kinds", lambda d: np.array([256])),          # would become a write
    ("values", lambda d: np.array([-1])),          # would become 2^64 - 1
    ("addrs", lambda d: np.array([d + 0.5])),      # would be truncated to d
    ("has_value", lambda d: np.array([2])),        # would become True
    ("kinds", lambda d: np.zeros((1, 1), dtype=np.uint8)),
    ("addrs", lambda d: ["0x%x" % d]),             # a string, not a number
    ("addrs", lambda d: np.array([(1 << 63) + d], dtype=np.uint64)),
], ids=["kind-256", "negative-value", "float-addr", "has-value-2", "2d-kinds",
        "string-addr", "uint64-addr"])
def test_constructor_rejects_fields_that_change_on_conversion(layout, field,
                                                             bad):
    d = layout.segment("data").start
    fields = {"kinds": [0], "addrs": [d], "values": [0], "has_value": [True]}
    assert Trace(layout, **fields).n_writes == 1
    fields[field] = bad(d)
    with pytest.raises(TraceFormatError, match="event field %s" % field):
        Trace(layout, **fields)


def test_trace_arrays_are_read_only(layout):
    data = layout.segment("data")
    addrs = np.array([data.start, data.start + 64], dtype=np.int64)
    tr = Trace(layout, [0, 0], addrs, [0, 0], [False, False])
    assert tr.addrs is addrs  # frozen in place, not copied
    for arr in (tr.kinds, tr.addrs, tr.values, tr.has_value):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_trace_equality_ignores_masked_values(layout):
    data = layout.segment("data")
    a = Trace(layout, [0], [data.start], [123], [False])
    b = Trace(layout, [0], [data.start], [0], [False])
    assert a == b
    c = Trace(layout, [0], [data.start], [123], [True])
    assert a != c

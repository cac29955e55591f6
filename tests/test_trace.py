"""Trace model, file format, generators, and the aggregation oracle."""

import io
import random
import tracemalloc
from unittest import mock

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
import nvmwear.trace as trace_module
import nvmwear.tracefile as tracefile_module
import nvmwear.workloads as workloads_module
from nvmwear.errors import GeneratorError, LayoutError, TraceFormatError
from nvmwear.spec import aggregate_linecounts
from nvmwear.tracefile import emit_trace, parse_trace
from nvmwear.workloads import WORKLOADS

HEADER = "@segment stack 0x100010000 0x100020000\n"


def _parse_chunked(data, payloads=True):
    """`parse_trace(data, payloads)`, parsed in blocks of about a
    sixteenth of its bytes each, at least one, and joined."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    with mock.patch.object(tracefile_module, "_READ_BLOCK",
                           max(1, len(data) // 16)):
        return trace_module.join_chunks(tracefile_module._parse(
            tracefile_module._blocks(io.BytesIO(data)), payloads))


def _outcome(parse, data, payloads):
    """The Trace `parse` gives, or its error's message and line."""
    try:
        return parse(data, payloads=payloads)
    except TraceFormatError as exc:
        return str(exc), exc.line_no


def parse_both(data):
    """`parse_trace(data)`, once it is checked that the payload-free parse
    gives the same trace without its payloads, or the same error on the
    same line: a bad value is a format error either way; and that a parse
    into many chunk traces gives the same as each."""
    (bare, bare_chunked), (full, full_chunked) = (
        [_outcome(parse, data, payloads)
         for parse in (parse_trace, _parse_chunked)]
        for payloads in (False, True))
    assert bare_chunked == bare and full_chunked == full
    if isinstance(full, Trace):
        assert bare == Trace(full.layout, full.kinds, full.addrs) \
            and bare.values.strides == (0,)
    else:
        assert bare == full
    return parse_trace(data)


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
        parse_both(text)


def test_parse_reports_the_first_invalid_line():
    # an invalid event before a grammar error is the one reported
    with pytest.raises(TraceFormatError, match="line 4: .*8-byte"):
        parse_both(HEADER + "# c\n\nS 0x100011004\nW zz\n")
    with pytest.raises(TraceFormatError, match="line 2: .*0x-prefixed"):
        parse_both(HEADER + "W zz\nS 0x100011004\n")
    # a Trace holds addresses as int64
    with pytest.raises(TraceFormatError, match="line 2: .*63 bits"):
        parse_both(HEADER + "W 0x8000000000000000\n")


def test_parse_reports_the_first_bad_line_before_a_bad_byte():
    # a byte that is not UTF-8 on line 4 is no error until line 4
    tail = b"# ok\n\xff\n"
    with pytest.raises(TraceFormatError, match="^line 2: unaligned write"):
        parse_both(HEADER.encode() + b"W 0x100011001\n" + tail)
    with pytest.raises(TraceFormatError, match="^line 2: .*0x-prefixed"):
        parse_both(HEADER.encode() + b"W zz\n" + tail)
    with pytest.raises(TraceFormatError, match="^line 4: not UTF-8 text$"):
        parse_both(HEADER.encode() + b"W 0x100011000\n" + tail)


def test_parse_reads_a_str_as_its_utf8_bytes():
    # a lone surrogate has no UTF-8 form, like a bad byte in a file
    with pytest.raises(TraceFormatError, match="^line 2: not UTF-8 text$"):
        parse_trace(HEADER + "# \ud800\nW 0x100011000\n")


def test_parse_reraises_a_constructor_error_without_an_event(monkeypatch):
    # only an error that names an event is given that event's line
    def fail(self):
        raise TraceFormatError("event arrays disagree in length")

    monkeypatch.setattr(Trace, "validate", fail)
    with pytest.raises(TraceFormatError,
                       match="^event arrays disagree in length$") as exc:
        parse_trace(HEADER + "W 0x100011000\n")
    assert exc.value.line_no is None and exc.value.event_index is None


def test_parse_address_outside_segments():
    with pytest.raises(TraceFormatError, match="outside"):
        parse_trace(HEADER + "W 0x200000000\n")


def test_parse_requires_hex_prefix():
    with pytest.raises(TraceFormatError, match="0x"):
        parse_both(HEADER + "W 4295040000\n")
    with pytest.raises(TraceFormatError, match="line 2: bad hex"):
        parse_both(HEADER + "W 0xzz\n")
    for tok in ("0x1_0001_1000", "0x10001100\u0661"):
        with pytest.raises(TraceFormatError, match="line 2: bad hex address"):
            parse_both(HEADER + "W %s\n" % tok)
    with pytest.raises(TraceFormatError, match="line 2: bad hex value"):
        parse_both(HEADER + "W 0x100011000 0x_5\n")


def test_parse_value_width_checked():
    with pytest.raises(TraceFormatError, match="64 bits"):
        parse_both(HEADER + "W 0x100011000 0x10000000000000000\n")


@pytest.mark.parametrize("breaker", ["\x0c", "\x85", "\u2028"])
def test_only_newline_ends_a_line(breaker):
    # str.splitlines would cut the comment and parse its tail as line 3
    text = ("@segment data 0x100000000 0x100001000\n# note%smore\nW 0xzz\n"
            % breaker)
    for data in (text, text.encode()):
        with pytest.raises(TraceFormatError,
                           match="^line 3: bad hex address '0xzz'$"):
            parse_both(data)


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
        parse_both(HEADER + "R 0x100011000\n")
    with pytest.raises(TraceFormatError,
                       match="line 1: malformed @segment record"):
        parse_both("@segment data 0x1\n")
    for record in ("W a b c", "S"):
        with pytest.raises(TraceFormatError,
                           match="line 2: malformed %s record" % record[0]):
            parse_both(HEADER + record + "\n")


def test_an_error_quotes_at_most_64_characters_of_a_token():
    # an unrecognized record and each of the three hex errors
    for body in ("W" * (1 << 20), "W 0x" + "g" * (1 << 20),
                 "W 0x100011000 0x" + "1" * (1 << 20),
                 "W 0x100011000 " + "1" * (1 << 20)):
        with pytest.raises(TraceFormatError) as exc:
            parse_both(HEADER + "# c\n" + body + "\n")
        msg = str(exc.value)
        assert msg.startswith("line 3: ") and "'..." in msg
        assert len(msg) < 200, msg


@pytest.mark.parametrize("size", [1, 7, 64])
def test_blocks_end_at_line_feeds(monkeypatch, size):
    monkeypatch.setattr(tracefile_module, "_READ_BLOCK", size)
    for data in (b"", b"a\n", HEADER.encode() + b"# " + b"x" * 200 + b"\n"
                 b"W 0x100011000\r\nS 0x100011000\r\n\nW 0x100011040"):
        blocks = list(tracefile_module._blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data
        assert all(b.endswith(b"\n") for b in blocks[:-1])
        assert all(blocks)


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
    assert parse_trace(emit_trace(tr).replace(b"\n", b"\r\n")) == tr


@pytest.mark.parametrize("size", [1, 7, 64, 4096])
def test_chunk_size_does_not_change_the_trace(monkeypatch, layout, size):
    monkeypatch.setattr(tracefile_module, "_READ_BLOCK", size)
    for kind in WORKLOADS:
        tr = gen_workload(kind, 300, layout, 5)
        assert parse_trace(emit_trace(tr)) == tr
    # CRLF lines between LF chunks
    tr = gen_workload("deepstack", 300, layout, 5)
    data = emit_trace(tr)
    a = data.index(b"\n", len(data) // 3) + 1
    b = data.index(b"\n", 2 * len(data) // 3) + 1
    assert parse_trace(data[:a] + data[a:b].replace(b"\n", b"\r\n")
                       + data[b:]) == tr


def test_errors_name_their_line_past_many_chunks(layout):
    lines = emit_trace(gen_workload("stream", 100_000, layout, 0)).split(b"\n")
    lines[70_000] = b"W 0x%x" % (int(lines[70_000][2:], 16) + 8)
    with pytest.raises(TraceFormatError, match="^line 70001: unaligned write"):
        parse_both(b"\n".join(lines))
    # a grammar error on a later line does not hide it
    lines[90_000] = b"W zz"
    with pytest.raises(TraceFormatError, match="^line 70001: unaligned write"):
        parse_both(b"\n".join(lines))


def test_emitted_event_lines_skip_the_line_loop(monkeypatch, layout):
    """Past the header's first event line, every line of `emit_trace`
    output, and of its CRLF form, is tokenized in chunks, with payloads
    or without, and no chunk is
    left to the line loop (a count that pins the fast path where a timing
    test would flake).  Without its final line feed, only the last block
    is left to the line loop."""
    tokenized = []
    tokenize = tracefile_module._tokenize_chunk

    def counting(chunk, payloads):
        cols = tokenize(chunk, payloads)
        tokenized.append(None if cols is None else len(cols[0]))
        return cols

    monkeypatch.setattr(tracefile_module, "_tokenize_chunk", counting)
    for kind in WORKLOADS:
        data = emit_trace(gen_workload(kind, 20_000, layout, 3))
        for text in (data, data.replace(b"\n", b"\r\n")):
            for payloads in (True, False):
                tokenized.clear()
                tr = parse_trace(text, payloads=payloads)
                assert len(tokenized) > 1 and None not in tokenized
                assert sum(tokenized) == tr.n_events
                tokenized.clear()
                chunks = list(tracefile_module._parse(
                    tracefile_module._blocks(io.BytesIO(text[:-1])), payloads))
                assert len(chunks) == len(tokenized) > 1
                assert None not in tokenized[:-1] and tokenized[-1] is None
                assert sum(tokenized[:-1]) + chunks[-1].n_events \
                    == tr.n_events


def _mutate(rng: random.Random, data: bytes, layout) -> bytes:
    """`data` with a few edits, each of which the parser may reject."""
    lines = data.split(b"\n")
    events = range(len(layout.segments), len(lines) - 1)
    for i in rng.sample(events, rng.randint(1, 3)):
        line = lines[i]
        tag, addr = line.split()[:2]
        addr = int(addr, 16)
        j = rng.randrange(len(line) + 1)
        last = line.rfind(b"0x")  # the prefix of the last number
        lines[i] = rng.choice((
            line + b"\r",
            line.replace(b" ", b"\t", 1),
            rng.choice((b"", b"# note", b" ")) + b"\n" + line,
            line.upper().replace(b"0X", b"0x"),  # uppercase digits
            line.replace(b"0x", b"0X", 1),
            line[:last] + b"1" + line[last + 1:],  # 1x
            line[:last + 1] + line[last + 2:] + b"x",  # the x moved last
            line[:last + 2],  # 0x without digits
            b"%s10x%x %x" % (tag, addr, rng.randrange(16)),  # no tag space
            b"%s 0x%x%016x" % (tag, rng.randrange(2), addr),  # 17 digits
            b"%s 0x%x" % (tag, addr | 1 << 63),
            b"W 0x%x" % (addr + 8),  # unaligned
            b"S 0x%x" % (layout.segment("stack").end + 8),
            b"S 0x%x 0x0" % (layout.segment("stack").end - 64),
            line[:j] + b"\xff" + line[j:],
            line + b" 0x%x" % rng.getrandbits(rng.choice((8, 64, 65))),
        ))
    data = b"\n".join(lines)
    if rng.random() < 0.3:  # flip one bit of one byte
        j = rng.randrange(len(data))
        data = data[:j] + bytes([data[j] ^ 1 << rng.randrange(8)]) \
            + data[j + 1:]
    return data[:-1] if rng.random() < 0.1 else data


def test_parser_fuzz_agrees_with_the_line_loop(monkeypatch, layout):
    """Mutated `emit_trace` text parses as the line loop alone parses it:
    to an equal Trace, or to the same error on the same line; and so
    without payloads, to that Trace without them, or to the same error."""
    rng = random.Random(15)
    texts = [emit_trace(gen_workload(kind, 40, layout, 1))
             for kind in WORKLOADS]
    tokenize = tracefile_module._tokenize_chunk

    def parse(data, tokenizer, payloads=True):
        monkeypatch.setattr(tracefile_module, "_tokenize_chunk", tokenizer)
        try:
            return parse_trace(data, payloads=payloads)
        except TraceFormatError as exc:
            assert exc.line_no is not None
            return str(exc)

    traces, errors = 0, set()
    for _ in range(300):
        monkeypatch.setattr(tracefile_module, "_READ_BLOCK",
                            rng.choice((1, 7, 64)))
        data = _mutate(rng, rng.choice(texts), layout)
        fast = parse(data, tokenize)
        assert fast == parse(data, lambda *args: None), data
        bare = fast if isinstance(fast, str) \
            else Trace(fast.layout, fast.kinds, fast.addrs)
        assert bare == parse(data, tokenize, False) \
            == parse(data, lambda *args: None, False), data
        if isinstance(fast, str):
            errors.add(fast)
        else:
            traces += 1
    assert traces >= 20 and len(errors) >= 100  # both outcomes are tried


@pytest.mark.parametrize("kind", ["hotspot", "stream", "deepstack"])
def test_parse_peak_stays_near_the_final_arrays(kind, layout):
    """Parsing reads one line at a time, so its whole peak, with nothing
    set aside for a list of lines, stays under 3x the final arrays."""
    data = emit_trace(gen_workload(kind, 50_000, layout, 1))
    tracemalloc.start()
    try:
        tr = parse_trace(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (tr.kinds.nbytes + tr.addrs.nbytes + tr.values.nbytes)


@pytest.mark.parametrize("kind", ["hotspot", "stream", "deepstack"])
def test_emit_peak_stays_near_the_output(kind, layout):
    """Emitting formats a chunk of events at a time: a string per event
    for the whole trace would take 5-7x the output."""
    tr = gen_workload(kind, 200_000, layout, 1)
    tracemalloc.start()
    try:
        data = emit_trace(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(data)


def spec_emit(trace: Trace) -> bytes:
    """The per-record loop that `emit_trace` must equal byte for byte.

    The header, then per event its tag, a space and the 0x-prefixed
    address, and for a write with a nonzero value a space and the value."""
    parts = ["".join("@segment %s 0x%x 0x%x\n" % (seg.name, seg.start, seg.end)
                     for seg in trace.layout.segments)]
    for k, a, v in zip(trace.kinds.tolist(), trace.addrs.tolist(),
                       trace.values.tolist()):
        if k == trace_module.KIND_WRITE:
            if v:
                parts.append("W 0x%x 0x%x\n" % (a, v))
            else:
                parts.append("W 0x%x\n" % a)
        else:
            parts.append("S 0x%x\n" % a)
    return "".join(parts).encode()


def _edge_trace() -> Trace:
    """Writes at the least and greatest aligned address of 9 to 16 hex
    digits in a data segment just below 2^63, each with every payload
    whose hex width changes at it: 16 addresses x 7 values."""
    end = (1 << 63) - trace_module.PAGE_SIZE
    layout = MemoryLayout((Segment("data", trace_module.MIN_ADDRESS, end),))
    addrs = [16 ** (d - 1) for d in range(9, 17)] \
        + [min(16 ** d, end) - 64 for d in range(9, 17)]
    payloads = [0, 1, 0xF, 0x10, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
    return Trace.from_events(layout, [WriteEvent(a, v) for a in addrs
                                      for v in payloads])


@pytest.mark.parametrize("size", [1, 7, 64, None])
def test_emit_matches_the_spec(monkeypatch, layout, size):
    """Every chunking of every generator's trace, of edge addresses and
    payloads, of an empty trace and of chunks with no nonzero value,
    emits the spec's bytes; so does `repr`, which emits a 4-event head."""
    if size is not None:
        monkeypatch.setattr(tracefile_module, "_EMIT_CHUNK", size)
    n = 300 if size else 3 * tracefile_module._EMIT_CHUNK
    traces = [gen_workload(kind, n, layout, seed)
              for kind in WORKLOADS for seed in (0, 1)]
    edge = _edge_trace()
    d = layout.segment("data").start
    # a chunk of zero values before, between and after chunks with values
    mixed = Trace.from_events(layout, [
        WriteEvent(d + 64 * i, 5 * i if (i // 4) % 2 else 0)
        for i in range(24)])
    for tr in traces + [edge, mixed, Trace.from_events(layout, [])]:
        assert emit_trace(tr) == spec_emit(tr)
        head = Trace(tr.layout, tr.kinds[:4], tr.addrs[:4], tr.values[:4])
        text = spec_emit(head).decode().strip().replace("\n", "; ")
        assert repr(tr) == "Trace(%d events, %d writes: %s%s)" % (
            tr.n_events, tr.n_writes, text, "; ..." if tr.n_events > 4 else "")
    widths = {len(ln.split()[1]) - 2 for ln in spec_emit(edge).split(b"\n")
              if ln.startswith(b"W")}
    assert widths == set(range(9, 17))


@pytest.mark.parametrize("kind", ["hotspot", "stream", "deepstack", "queue"])
def test_save_writes_the_emitted_bytes(tmp_path, layout, kind):
    tr = gen_workload(kind, 20_000, layout, 1)
    tracefile_module.save_trace(tr, tmp_path / "t.trace")
    assert (tmp_path / "t.trace").read_bytes() == emit_trace(tr)


def test_save_peak_does_not_grow_with_the_trace(tmp_path, layout):
    """`save_trace` writes each chunk as it is made, so its peak is one
    chunk's, whatever the trace length; joining the chunks first would
    grow it about 4x from 100k to 400k events."""
    peaks = []
    for n in (100_000, 400_000):
        tr = gen_workload("hotspot", n, layout, 1)
        tracemalloc.start()
        try:
            tracefile_module.save_trace(tr, tmp_path / "t.trace")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("kind, n", [("hotspot", 50_000), ("stream", 50_000),
                                     ("queue", 50_000), ("deepstack", 5_000)])
def test_streamed_gen_peak_does_not_grow_with_the_trace(tmp_path, layout,
                                                        kind, n):
    """Saving a generator's chunks as they are drawn holds one chunk, so
    the peak does not grow with the trace; a joined trace would grow it
    about 4x from n to 4n events (deepstack's Python loop is slow under
    tracemalloc, hence its smaller n)."""
    path = tmp_path / "t.trace"
    tracefile_module.save_trace(
        gen_workload(kind, 100, layout, 0, chunked=True),
        path)  # lazy imports off the peak
    peaks = []
    for writes in (n, 4 * n):
        tracemalloc.start()
        try:
            tracefile_module.save_trace(
                gen_workload(kind, writes, layout, 1, chunked=True), path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_save_of_chunks_writes_the_whole_file_or_none(tmp_path, layout):
    """Chunks are saved as one trace, and the file is renamed into place
    only once all are written: a failure leaves an older file as it was
    and no temp file."""
    path, tmp = tmp_path / "t.trace", tmp_path / "t.trace.tmp"
    tr = gen_workload("hotspot", 3 * workloads_module._GEN_CHUNK + 5, layout, 1)
    chunks = list(gen_workload("hotspot", 3 * workloads_module._GEN_CHUNK + 5,
                               layout, 1, chunked=True))
    assert len(chunks) == 4
    assert tracefile_module.save_trace(iter(chunks), path) \
        == (tr.n_events, tr.n_writes)
    assert path.read_bytes() == emit_trace(tr) and not tmp.exists()

    def failing():
        yield chunks[0]
        raise GeneratorError("drawing failed")

    other = gen_workload("stream", 10, make_layout(data_pages=9), 0)
    for bad, error, msg in (
            (failing(), GeneratorError, "drawing failed"),
            ([chunks[0], other], TraceFormatError, "disagree in layout"),
            ([], TraceFormatError, "no trace chunk")):
        with pytest.raises(error, match=msg):
            tracefile_module.save_trace(bad, path)
        assert path.read_bytes() == emit_trace(tr) and not tmp.exists()


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


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_generator_chunking_draws_the_same_stream(monkeypatch, size):
    """Each generator draws a chunk at a time, in chunks of at most
    `_GEN_CHUNK` events; the trace equals the default chunk's.  An odd
    chunk splits PCG64's buffered 32-bit half between two draws of
    hotspot stack payloads.  A chunk of one event costs a `Trace` per
    event, hence the shorter traces there."""
    n = 500 if size == 1 else 3000
    layouts = (make_layout(), make_layout(64, 4096, 1024, 64))
    cases = [(kind, lay, seed) for kind in WORKLOADS for lay in layouts
             for seed in (0, 1)]
    want = [gen_workload(kind, n, lay, seed) for kind, lay, seed in cases]
    monkeypatch.setattr(workloads_module, "_GEN_CHUNK", size)
    got = [gen_workload(kind, n, lay, seed) for kind, lay, seed in cases]
    assert got == want
    for (kind, lay, seed), tr in list(zip(cases, want))[::4]:  # each kind
        sizes = [c.n_events for c in
                 gen_workload(kind, n, lay, seed, chunked=True)]
        assert 0 < min(sizes) and max(sizes) <= size
        assert sum(sizes) == tr.n_events


def test_hotspot_generation_peak_stays_near_the_columns(layout):
    """The hotspot generator holds the columns, a category byte per write
    and O(chunk) temporaries: drawing each pass for the whole trace at once
    took 1.7x the columns."""
    gen_workload("hotspot", 1000, layout, 0)  # lazy imports off the peak
    tracemalloc.start()
    try:
        tr = gen_workload("hotspot", 300_000, layout, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (tr.kinds.nbytes + tr.addrs.nbytes + tr.values.nbytes)


def test_unknown_kind(layout):
    with pytest.raises(GeneratorError):
        gen_workload("zigzag", 10, layout, 0)
    with pytest.raises(GeneratorError, match="non-negative"):
        gen_workload("stream", -1, layout, 0)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_every_kind_rejects_a_seed_that_is_not_a_non_negative_int(kind,
                                                                   layout):
    # random.Random(-3) would draw as Random(3), and numpy raises ValueError
    for seed in (-1, -3, 1.0, "3"):
        with pytest.raises(GeneratorError, match="seed"):
            gen_workload(kind, 10, layout, seed)


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
    vals = tr.values[w]
    ptrs = np.count_nonzero((vals >= stack.start) & (vals < stack.end))
    assert ptrs >= 0.01 * len(vals)


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
        Trace(layout, [0], [data.start], [-1])


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
              [0] * 3)
    assert exc.value.event_index == 2
    with pytest.raises(TraceFormatError, match="disagree in length"):
        Trace(layout, [0, 0], [stack.start], [0])
    with pytest.raises(TraceFormatError, match="unknown event"):
        Trace.from_events(layout, [good, stack.start])


def test_constructor_rejects_events_the_text_format_cannot_express(layout):
    # neither has a text form, so emit/parse could not round-trip them
    d, stack = layout.segment("data").start, layout.segment("stack")
    with pytest.raises(TraceFormatError, match="neither a write") as exc:
        Trace(layout, [0, 2, 0], [d, d + 64, d + 128], [0] * 3)
    assert exc.value.event_index == 1
    with pytest.raises(TraceFormatError, match="carries a payload") as exc:
        Trace(layout, [1, 0, 1], [stack.end - 64, d, stack.end - 64],
              [0, 7, 5])
    assert exc.value.event_index == 2


@pytest.mark.parametrize("field, bad", [
    ("kinds", lambda d: np.array([256])),          # would become a write
    ("values", lambda d: np.array([-1])),          # would become 2^64 - 1
    ("addrs", lambda d: np.array([d + 0.5])),      # would be truncated to d
    ("kinds", lambda d: np.zeros((1, 1), dtype=np.uint8)),
    ("addrs", lambda d: ["0x%x" % d]),             # a string, not a number
    ("addrs", lambda d: np.array([(1 << 63) + d], dtype=np.uint64)),
], ids=["kind-256", "negative-value", "float-addr", "2d-kinds",
        "string-addr", "uint64-addr"])
def test_constructor_rejects_fields_that_change_on_conversion(layout, field,
                                                             bad):
    d = layout.segment("data").start
    fields = {"kinds": [0], "addrs": [d], "values": [0]}
    assert Trace(layout, **fields).n_writes == 1
    fields[field] = bad(d)
    with pytest.raises(TraceFormatError, match="event field %s" % field):
        Trace(layout, **fields)


def test_trace_arrays_are_read_only(layout):
    data = layout.segment("data")
    addrs = np.array([data.start, data.start + 64], dtype=np.int64)
    tr = Trace(layout, [0, 0], addrs, [0, 0])
    assert tr.addrs is addrs  # frozen in place, not copied
    for arr in (tr.kinds, tr.addrs, tr.values):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_zero_payload_is_the_same_event_as_none(layout):
    # a write without a payload leaves the line's bytes zero
    d = layout.segment("data").start
    top = layout.segment("stack").end - 64
    header = "".join("@segment %s 0x%x 0x%x\n" % (s.name, s.start, s.end)
                     for s in layout.segments)
    events = "W 0x%x 0x5\nW 0x%x%s\nW 0x%x 0x7\nW 0x%x%s\n"
    bare = header + events % (d, d, "", top, top, "")
    zero = header + events % (d, d, " 0x0", top, top, " 0x0")
    a, b = parse_trace(bare), parse_trace(zero)
    assert a == b == Trace.from_events(layout, [
        WriteEvent(d, 5), WriteEvent(d, 0), WriteEvent(top, 7),
        WriteEvent(top)])
    assert emit_trace(a) == emit_trace(b) == bare.encode()
    assert Trace(layout, [0], [d], [123]) != Trace(layout, [0], [d], [0])


def test_repr_shows_segments_counts_and_first_events():
    tr = parse_trace(HEADER + "W 0x100011000\nS 0x100020000\n"
                     "W 0x100011040 0xbeef\nW 0x100011000\nW 0x100011080\n")
    assert repr(tr) == (
        "Trace(5 events, 4 writes: @segment stack 0x100010000 0x100020000; "
        "W 0x100011000; S 0x100020000; W 0x100011040 0xbeef; "
        "W 0x100011000; ...)")
    empty = Trace.from_events(tr.layout, [])
    assert repr(empty) == (
        "Trace(0 events, 0 writes: @segment stack 0x100010000 0x100020000)")


def _error(make):
    """(message, event_index, line_no) of the TraceFormatError `make()`
    raises."""
    with pytest.raises(TraceFormatError) as exc:
        make()
    return str(exc.value), exc.value.event_index, exc.value.line_no


# the texts the tests above reject, and a few more
_BAD_TEXTS = [HEADER + body for body in (
    "W 0x100011001\n", "W 0x100011000\nW 0x100011001\n",
    "# c\n\nS 0x100011004\nW zz\n", "W zz\nS 0x100011004\n",
    "W 0x8000000000000000\n", "W 0x200000000\n", "W 4295040000\n",
    "W 0xzz\n", "W 0x1_0001_1000\n", "W 0x100011000 0x_5\n",
    "W 0x100011000 0x10000000000000000\n",
    "W 0x100011000\n@segment data 0x100030000 0x100031000\n",
    "S 0x100011004\n", "S 0x100020008\n", "R 0x100011000\n", "W a b c\n",
    "S\n", "# \ud800\nW 0x100011000\n", "S 0x100020000 0x5\n",
    "W 0x100011000\n\n# c\nW 0x100011040\nS 0x100020008\n",
)] + ["", "@segment data 0x1\n",
      "@segment data 0x100000000 0x100001000\n# note\x85more\nW 0xzz\n"]


def _bad_constructions(layout):
    """Callables that build an invalid Trace, from the tests above."""
    d, stack = layout.segment("data").start, layout.segment("stack")
    good = WriteEvent(stack.start)
    return [
        lambda: Trace.from_events(layout, [good, WriteEvent(stack.start + 1)]),
        lambda: Trace.from_events(layout, [SpUpdateEvent(stack.start - 8),
                                           good]),
        lambda: Trace(layout, [0, 0, 1],
                      [stack.start, stack.start, stack.start + 4], [0] * 3),
        lambda: Trace(layout, [0, 2, 0], [d, d + 64, d + 128], [0] * 3),
        lambda: Trace(layout, [1, 0, 1], [stack.end - 64, d, stack.end - 64],
                      [0, 7, 5]),
        lambda: Trace.from_events(layout, [WriteEvent(1 << 63)]),
        lambda: Trace(layout, [0, 0], [stack.start], [0]),
        # an sp without a stack segment
        lambda: Trace(MemoryLayout((layout.segment("data"),)), [0, 1],
                      [d, d], [0, 0]),
    ]


def _edge_case(layout, bad):
    """Columns of a 200-write deepstack trace with each (index, rule) of
    `bad` broken, and their text with a comment and a blank line every 9
    lines, so that an event's line is not its index plus a constant."""
    tr = gen_workload("deepstack", 200, layout, 2)
    kinds, addrs, values = (a.copy() for a in (tr.kinds, tr.addrs, tr.values))
    outside = layout.segment("stack").start - 64  # in the shadow gap
    for i, rule in bad:
        if rule == "unaligned":
            addrs[i] += 4
        elif rule == "outside":
            addrs[i] = outside
        elif rule == "kind":  # a kind of 2 that is also unaligned
            kinds[i], addrs[i] = 2, addrs[i] + 4
        else:  # a payload on an sp update, or on a write an address outside
            kinds[i], values[i] = 1, 5
    lines = ["@segment %s 0x%x 0x%x" % (s.name, s.start, s.end)
             for s in layout.segments]
    for i, (k, a, v) in enumerate(zip(kinds.tolist(), addrs.tolist(),
                                      values.tolist())):
        if i % 9 == 4:
            lines += ["# note", ""]
        lines.append("S 0x%x" % a if k else "W 0x%x 0x%x" % (a, v))
    return (kinds, addrs, values), ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("size", [1, 7, 64])
def test_validation_chunk_does_not_change_errors(monkeypatch, layout, size):
    """Every error case above, and bad events one before, at and one after
    a chunk boundary, names the same message, event and line at any
    chunk size as in one chunk."""
    bads = [bad for c in (7, 64) for i in (c - 1, c, c + 1)
            for bad in ([(i, "unaligned")], [(i, "outside")], [(i, "kind")],
                        [(i, "payload")],
                        [(i, "outside"), (i + 70, "unaligned")],
                        [(i, "payload"), (i + 1, "kind")])]
    edges = [_edge_case(layout, bad) for bad in bads]
    cases = [lambda t=t: parse_both(t) for t in _BAD_TEXTS] \
        + _bad_constructions(layout) \
        + [lambda c=c: Trace(layout, *c) for c, _ in edges]
    # a kind of 2 and an sp payload have no text form
    text_bads = [bad for bad in bads
                 if all(rule in ("unaligned", "outside") for _, rule in bad)]
    texts = [_edge_case(layout, bad)[1] for bad in text_bads]
    cases += [lambda t=t: parse_trace(t) for t in texts]
    monkeypatch.setattr(trace_module, "_VALIDATE_CHUNK", 1 << 20)
    want = [_error(make) for make in cases]
    monkeypatch.setattr(trace_module, "_VALIDATE_CHUNK", size)
    assert [_error(make) for make in cases] == want
    # the edge cases name their first bad event, and its line
    n = len(_BAD_TEXTS) + len(_bad_constructions(layout))
    assert [index for _, index, _ in want[n:n + len(edges)]] \
        == [bad[0][0] for bad in bads]
    for text, bad, (_, _, line) in zip(texts, text_bads,
                                       want[n + len(edges):]):
        event_lines = [no for no, ln in enumerate(text.split(b"\n"), 1)
                       if ln[:1] in (b"W", b"S")]
        assert line == event_lines[bad[0][0]]


def _load_cases(layout):
    """Trace texts that `load_trace` must read as `parse_trace` does, at
    any block size."""
    texts = [emit_trace(gen_workload(kind, 300, layout, 5))
             for kind in WORKLOADS]
    data = texts[2]  # deepstack: S records and payloads
    lines = data.split(b"\n")
    long_line = b"# " + "\u00e9".join("x" * 40 for _ in range(120)).encode()
    between = [ln for i, ln in enumerate(lines) for ln in (
        (ln, b"# c\xc3\xa9", b"", b"  ") if i % 5 == 3 else (ln,))]
    return texts + [
        b"\r\n".join(between),  # comments and blank lines in CRLF lines
        data.replace(b"\n", b"\r\n"),  # CRLF lines
        data[:-1],  # no final line feed
        data[:-1].replace(b"\n", b"\r\n"),
        b"\n".join(lines[:40] + [long_line] + lines[40:]),  # > 4096 bytes
        b"\n".join(between),  # comments and blank lines between events
    ]


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_load_matches_parse_at_any_block_size(monkeypatch, tmp_path, layout,
                                              block):
    """Read in blocks, a file gives the trace, or the error and line, that
    parsing its bytes at once gives, with payloads or without."""
    monkeypatch.setattr(tracefile_module, "_READ_BLOCK", block)
    path = tmp_path / "t.trace"
    good = _load_cases(layout)
    for data in good:
        path.write_bytes(data)
        tr = parse_both(data)
        assert tracefile_module.load_trace(path) == tr
        assert tracefile_module.load_trace(path, payloads=False) \
            == Trace(tr.layout, tr.kinds, tr.addrs)
        # in chunk traces, one a block, each checked on its own
        chunks = list(tracefile_module.load_trace(path, chunked=True))
        assert len(chunks) > 1
        assert trace_module.join_chunks(chunks) == tr
    lines = good[-1].split(b"\n")
    bad = [b"\n".join(lines[:i] + [edit] + lines[i + 1:])
           for i, edit in ((100, b"W zz"), (150, b"W 0x100000004"),
                           (151, b"\xff"), (len(lines) - 2, b"S 0x1"))]
    bad += [good[-2][:-1] + b"\xc3", good[-5] + b"W 0x4"]
    crlf = good[-6].split(b"\r\n")  # an invalid event among CRLF comments
    bad.append(b"\r\n".join(crlf[:150] + [b"W 0x100000004"] + crlf[151:]))
    for data in bad:
        path.write_bytes(data)
        msg, _, line = _error(lambda: parse_both(data))
        assert line is not None
        for payloads in (True, False):
            assert _error(lambda: tracefile_module.load_trace(
                path, payloads=payloads)) == ("%s: %s" % (path, msg), None,
                                              line)
        assert _error(lambda: list(tracefile_module.load_trace(
            path, payloads=False, chunked=True))) \
            == ("%s: %s" % (path, msg), None, line)


def test_load_peak_stays_near_the_final_columns(tmp_path, layout):
    """A file of several blocks loads within its final columns plus
    O(block) scratch: neither the whole file nor a per-event line number
    is held."""
    block = tracefile_module._READ_BLOCK
    tr = gen_workload("hotspot", 300_000, layout, 1)
    path = tmp_path / "t.trace"
    tracefile_module.save_trace(tr, path)
    assert path.stat().st_size >= 4 * block
    tracemalloc.start()
    try:
        loaded = tracefile_module.load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == tr
    cols = tr.kinds.nbytes + tr.addrs.nbytes + tr.values.nbytes
    assert peak < 1.3 * cols + 4 * block


def test_payload_free_load_holds_no_value_column(tmp_path, layout):
    """Without payloads a load keeps 9 bytes an event, the kinds and the
    addresses, where a value column would add 8; its payloads are a
    zero-stride column of the word 0."""
    block = tracefile_module._READ_BLOCK
    tr = gen_workload("hotspot", 300_000, layout, 1)
    path = tmp_path / "t.trace"
    tracefile_module.save_trace(tr, path)
    tracemalloc.start()
    try:
        loaded = tracefile_module.load_trace(path, payloads=False)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == Trace(tr.layout, tr.kinds, tr.addrs) \
        and loaded.values.strides == (0,)
    assert not loaded.values.flags.writeable
    assert kept < 9.1 * loaded.n_events, kept / loaded.n_events
    assert peak < 1.3 * (tr.kinds.nbytes + tr.addrs.nbytes) + 4 * block


def test_spilled_chunks_are_the_trace_chunks_and_a_short_read_raises(layout):
    tr = gen_workload("deepstack", 3000, layout, 2)
    with trace_module.spill(gen_workload("deepstack", 3000, layout, 2,
                                         chunked=True)) as spilled:
        for n in (1, 700, 1 << 13):
            got, want = list(spilled.chunks(n)), list(tr.chunks(n))
            assert len(got) == len(want)
            for (k, a), (wk, wa) in zip(got, want):
                assert np.array_equal(k, wk) and np.array_equal(a, wa)
        # an addresses file cut short never yields columns of two lengths
        spilled.files[1].truncate(8 * (tr.n_events - 1))
        with pytest.raises(TraceFormatError, match="spilled addresses"):
            list(spilled.chunks(700))

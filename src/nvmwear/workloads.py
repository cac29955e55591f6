"""Synthetic workloads: `make_layout` and the four trace generators."""

from __future__ import annotations

import random
from array import array
from typing import Iterator, List, Tuple, Union

import numpy as np

from .errors import GeneratorError
from .trace import (KIND_SP, LINE_SIZE, MIN_ADDRESS, PAGE_SIZE, MemoryLayout,
                    Segment, Trace, deliver)


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
    if not isinstance(seed, int) or seed < 0:  # Random(-3) is Random(3)
        raise GeneratorError("seed %r is not a non-negative int" % (seed,))
    if kind not in WORKLOADS:
        raise GeneratorError("unknown workload kind %r" % kind)
    return deliver(WORKLOADS[kind](total_writes, layout, seed), chunked)


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
            kinds[0], all_addrs[0] = KIND_SP, stack.end - window
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
        kinds[np.asarray(sp_events, np.intp)] = KIND_SP
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

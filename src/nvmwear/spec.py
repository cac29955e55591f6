"""The per-write model: the executable spec that `replay` must equal.

`reference_replay` feeds events one at a time through the sampler, the
coarse leveler and a per-line stack relocation, on a memory that also
holds each line's content: one `uint64` word at the line base.  Words
in the current stack window are in-memory pointers and move with it;
data words stay below 2^32, under the stack region.  A payload in the
stack region is stored translated, as later relocations adjust it.
The engine imports nothing from here.

Known limit: with lines wider than the step, a window longer than S
meets a line twice, and gather-then-scatter leaves a different word on
that line than a low-to-high line copy would.
"""

from __future__ import annotations

import numpy as np

from .coarse import CoarseWearLeveler
from .errors import SimulationError, StackOverflowError
from .memspace import MemorySpace
from .sampler import WriteSampler
from .stack import StackState, wraparound_reset
from .trace import KIND_SP, KIND_WRITE, Trace


def translate_stack(addr: int, st: StackState) -> int:
    """Logical stack address -> virtual address under the current shift."""
    if not st.region_base <= addr < st.top:
        raise SimulationError("address 0x%x outside the stack region" % addr)
    return addr - st.shift


class ContentSpace(MemorySpace):
    """A `MemorySpace` that also holds each line's base word."""

    def __init__(self, layout):
        super().__init__(layout)
        self.words = np.zeros(self.n_lines, dtype=np.uint64)

    def record_write(self, line: int, value: int = 0):
        """Charge one write to a dense line, storing its base word."""
        self.wear[line] += 1
        self.words[line] = value

    def copy_frame(self, src_frame: int, dst_frame: int) -> int:
        pages = self.words.reshape(-1, self.lines_per_page)
        pages[dst_frame] = pages[src_frame]
        return super().copy_frame(src_frame, dst_frame)


def adjust_inmemory_pointers(words: np.ndarray, st: StackState) -> np.ndarray:
    """Move the uint64 words inside the current virtual stack window by -step.

    Returns a new array.  The window is [translate(sp), translate(top));
    every other word, including all 32-bit data, is returned unchanged.
    """
    in_window = (words >= st.sp - st.shift) & (words < st.top - st.shift)
    return np.where(in_window, words - np.uint64(st.step), words)


def relocate_content(st: StackState, space: ContentSpace) -> int:
    """Move the valid stack down one step, line by line; returns lines copied.

    One address per line that holds a destination byte, in
    [sp - shift - step, top - shift - step) rounded outward to lines;
    each such line is charged one write and takes the word of the line
    holding the byte `step` above its base.  The words are gathered, the
    pointers adjusted and the words scattered, by `line_index` of every
    source and destination.  Then the shift advances; at a wraparound
    reset, the words of the new window that point into its shadow copy
    move up by S.
    """
    ls = space.line_size
    if st.valid_bytes > st.region_size - st.step:
        raise StackOverflowError(
            "valid stack of %d bytes leaves no room for a %d-byte step"
            % (st.valid_bytes, st.step))
    lo = st.sp - st.shift - st.step
    dst = np.arange(lo - lo % ls, st.top - st.shift - st.step, ls) \
        if st.valid_bytes else np.zeros(0, np.int64)
    dst_lines, src_lines = space.line_index(np.stack((dst, dst + st.step)))
    np.add.at(space.wear, dst_lines, 1)
    space.words[dst_lines] = adjust_inmemory_pointers(space.words[src_lines],
                                                      st)
    st.shift += st.step
    st.relocations += 1
    if wraparound_reset(st):  # shift 0: the window is [sp, top) again
        lines = space.line_index(np.arange(st.sp - st.sp % ls, st.top, ls))
        w = space.words[lines]
        shadow = (w >= st.sp - st.region_size) & (w < st.region_base)
        space.words[lines] = np.where(shadow, w + np.uint64(st.region_size), w)
    return len(dst)


def reference_replay(trace: Trace, config):
    """Feed events one by one through the per-write model, content included.

    Returns the `ContentSpace`, the sampler (None with both levelers off),
    the sample, remap and relocation logs as lists, and the totals.
    """
    space = ContentSpace(trace.layout)
    stack = trace.layout.segment("stack")
    fine = config.enable_fine and stack is not None
    coarse = config.enable_coarse
    sampler = WriteSampler(config.sample_interval_n, space.n_pages) \
        if coarse or fine else None
    leveler = CoarseWearLeveler(space, config.remap_threshold_t) \
        if coarse else None
    if fine:  # with no sp events the valid stack has a fixed size
        has_sp = np.any(trace.kinds == KIND_SP)
        cur_sp = stack.end if has_sp else stack.end - min(
            config.fixed_valid_stack, stack.size - config.stack_step)
        st = StackState(region_base=stack.start, region_size=stack.size,
                        sp=cur_sp, step=config.stack_step)
    sample_log, remap_log, reloc_log = [], [], []
    stack_copy = w_count = 0
    for kind, addr, value in zip(trace.kinds.tolist(), trace.addrs.tolist(),
                                 trace.values.tolist()):
        if kind == KIND_SP:
            cur_sp = addr
            continue
        w_count += 1
        if fine and stack.start <= addr < stack.end:
            addr = translate_stack(addr, st)
        if fine and stack.start <= value < stack.end:
            value = translate_stack(value, st)
        line = space.line_index(addr)
        space.record_write(line, value)
        got = None if sampler is None \
            else sampler.observe_write(line // space.lines_per_page)
        if got is None:
            continue
        sample_log.append((w_count, got))
        if coarse:
            request = leveler.on_sample(got)
            if request is not None:
                result = leveler.perform_remap(request)
                if result is not None:
                    remap_log.append((w_count,) + result)
        if fine:
            st.sp = cur_sp
            wraps_before = st.wraps
            copied = relocate_content(st, space)
            stack_copy += copied
            reloc_log.append((w_count, st.shift, st.valid_bytes, copied,
                              1 if st.wraps > wraps_before else 0))
    coarse_lines = leveler.copy_lines if coarse else 0
    totals = dict(
        app_writes=w_count, coarse_copy_lines=coarse_lines,
        stack_copy_lines=stack_copy,
        total_writes=w_count + coarse_lines + stack_copy,
        samples=sampler.samples_taken if sampler is not None else 0,
        remaps=leveler.remaps if coarse else 0,
        relocations=st.relocations if fine else 0,
        wraps=st.wraps if fine else 0)
    return space, sampler, sample_log, remap_log, reloc_log, totals


def aggregate_linecounts(trace: Trace) -> dict[int, int]:
    """Exact write counts by absolute line index (address // line_size):
    the wear that any leveling-off replay must reproduce."""
    lines = trace.addrs[trace.kinds == KIND_WRITE] // trace.layout.line_size
    uniq, counts = np.unique(lines, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))

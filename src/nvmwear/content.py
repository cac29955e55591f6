"""Per-write content model: one word per line, moved by every copy.

A line's content is one `uint64` word, the 8 bytes at its base; the
rest of the line is zero.  Words that point into the current stack
window are in-memory stack pointers and move with it; data words stay
below 2^32 and the stack region sits above it.  `replay` reads no
payloads and never imports this module.

Known limits: a raw pointer payload stored after relocations is not
translated.  With lines wider than the step, a window longer than S
meets a line twice, and gather-then-scatter leaves a different word on
that line than a low-to-high line copy would.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .memspace import MemorySpace
from .stack import StackState, relocate_step, window_lines


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


def _window(space: MemorySpace, st: StackState, down: int = 0):
    """Dense lines of the valid window's lines, moved down `down` bytes."""
    lo, n = window_lines(st, space.line_size)
    return space.line_index(lo - down + space.line_size * np.arange(n))


def relocate_content(st: StackState, space: ContentSpace) -> int:
    """`relocate_step`, then the move of the valid window's words.

    The window's words move down one step, in-window pointers by -step;
    at a wraparound reset, the new window's words that point into its
    shadow copy move up by S, both relative to the state before the step.
    While the line-rounded window fits in S, u <= S - step keeps each
    destination line clear of the source lines a low-to-high copy has yet
    to read, so gathering all words first moves the same words.
    """
    before = replace(st)
    n = relocate_step(st, space)
    words = space.words
    words[_window(space, before, st.step)] = adjust_inmemory_pointers(
        words[_window(space, before)], before)
    if st.wraps > before.wraps:
        lines = _window(space, st)
        w = words[lines]
        lo = before.sp - before.shift - before.step
        words[lines] = np.where((w >= lo) & (w < lo + before.valid_bytes),
                                w + np.uint64(st.region_size), w)
    return n

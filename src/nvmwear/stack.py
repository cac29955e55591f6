"""Fine-grained stack wear leveling: circular relocation with a shadow region.

The stack occupies the reserved virtual range [region_base,
region_base + S).  One relocation step moves the valid stack content
(between the stack pointer and the top) down by `step` bytes and grows
the translation shift by the same amount, so application-visible stack
addresses stay fixed while their physical placement rotates through the
region.  Addresses that slide below region_base land in the shadow range
[region_base - S, region_base), whose pages alias the real stack frames;
the whole valid window sits in the shadow exactly when the shift reaches
S, and the shift then collapses to 0 with no copying.

Payload words whose value points into the current stack window are
in-memory stack pointers; each relocation rewrites them by -step, and a
wraparound reset rewrites those left in the shadow window by +S.  Data
words are confined to the lower 32 bits and the region sits above 2^32,
so the classification cannot confuse the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError, StackOverflowError
from .memspace import MemorySpace


@dataclass
class StackState:
    region_base: int
    region_size: int
    sp: int
    step: int = 64
    shift: int = 0
    relocations: int = 0
    wraps: int = 0

    def __post_init__(self):
        # neither the layout nor the config alone can check this pairing
        if self.region_size % self.step:
            raise ConfigError("region size must be a multiple of the step")

    @property
    def top(self) -> int:
        return self.region_base + self.region_size

    @property
    def valid_bytes(self) -> int:
        return self.top - self.sp


def translate_stack(addr: int, st: StackState) -> int:
    """Logical stack address -> virtual address under the current shift."""
    if not st.region_base <= addr < st.top:
        raise SimulationError("address 0x%x outside the stack region" % addr)
    return addr - st.shift


def wraparound_reset(st: StackState) -> bool:
    """Collapse the shift to 0 once it reaches one region size.

    Called after each shift advance.  The translated window
    [sp - shift, top - shift) is all-shadow exactly at shift S, since
    sp >= region_base; so k steps from shift 0 leave a shift of
    k * step mod S.  No bytes move: shadow pages alias the real frames.
    """
    if st.shift == st.region_size:
        st.shift = 0
        st.wraps += 1
        return True
    return False


def translate_after(addrs: np.ndarray, steps, st: StackState) -> np.ndarray:
    """Addresses translated after `steps` relocations from shift 0.

    `steps` is one count, or one per address.  Stack addresses move down
    as `translate_stack` moves them; others pass through unchanged.
    """
    shift = steps % (st.region_size // st.step) * st.step
    in_stack = (addrs >= st.region_base) & (addrs < st.top)
    return addrs - shift * in_stack


def adjust_inmemory_pointers(words: np.ndarray, st: StackState
                             ) -> np.ndarray:
    """Move the uint64 words inside the current virtual stack window by -step.

    Returns a new array.  The window is [translate(sp), translate(top));
    every other word, including all 32-bit data, is returned unchanged.
    """
    in_window = (words >= st.sp - st.shift) & (words < st.top - st.shift)
    return np.where(in_window, words - np.uint64(st.step), words)


def _window(st: StackState, line_size: int):
    """Address of the valid window's first line and its line count."""
    lo = st.sp - st.shift
    lo -= lo % line_size
    return lo, -(-(st.top - st.shift - lo) // line_size)


def _rewrite(words: np.ndarray, src_runs, dst_runs, adjust):
    """Gather the words of src_runs, adjust them, scatter them over dst_runs."""
    if not src_runs:
        return
    moved = adjust(np.concatenate([words[a:a + k] for a, k in src_runs]))
    i = 0
    for a, k in dst_runs:
        words[a:a + k] = moved[i:i + k]
        i += k


def relocate_step(st: StackState, space: MemorySpace) -> int:
    """Move the valid stack down by one step; returns lines copied.

    Copies ceil(u / line) lines for a u-byte valid window, charging each
    copy one write as a slice per page the window touches, adjusts
    in-window pointer words during the copy, advances the shift, and
    applies the wraparound reset when it falls due; at a reset, the
    window's pointer words that still point into its shadow copy move up
    by S.  While the line-rounded window fits in S, u <= S - step keeps
    each destination line clear of every source line a low-to-high copy
    has yet to read, including across the alias fold, so gathering all
    source words before scattering them equals the line-by-line copy.
    With lines wider than the step the rounded window can exceed S by a
    line; a destination line met twice is then charged twice, so the
    wear added equals the lines returned.  Without a content image
    (`space.words is None`) only wear is charged.
    """
    ls = space.line_size
    u = st.valid_bytes
    if u > st.region_size - st.step:
        raise StackOverflowError(
            "valid stack of %d bytes leaves no room for a %d-byte step"
            % (u, st.step))
    src, n = _window(st, ls)
    dst_runs = space.line_runs(src - st.step, n)
    for a, k in dst_runs:
        space.wear[a:a + k] += 1
    words = space.words
    if words is not None:
        _rewrite(words, space.line_runs(src, n), dst_runs,
                 lambda w: adjust_inmemory_pointers(w, st))
    st.shift += st.step
    st.relocations += 1
    if wraparound_reset(st) and words is not None:
        runs = space.line_runs(*_window(st, ls))
        lo = st.sp - st.shift - st.region_size
        _rewrite(words, runs, runs, lambda w: np.where(
            (w >= lo) & (w < lo + u), w + np.uint64(st.region_size), w))
    return n


class SmartPointer:
    """Holds a logical stack address; resolves through the live shift."""

    __slots__ = ("logical",)

    def __init__(self, logical: int):
        self.logical = logical

    def deref(self, st: StackState) -> int:
        """Current address of the pointee: the live shift cancels the moves."""
        return translate_stack(self.logical, st)

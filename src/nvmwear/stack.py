"""Fine-grained stack wear leveling: circular relocation with a shadow region.

The stack occupies the reserved virtual range [region_base,
region_base + S).  One relocation step moves the valid stack content
(between the stack pointer and the top) down by `step` bytes and grows
the translation shift by the same amount, so application-visible stack
addresses stay fixed while their physical placement rotates through the
region.  Addresses that slide below region_base land in the shadow range
[region_base - S, region_base), whose pages alias the real stack frames;
once the whole valid window sits in the shadow the shift collapses by S
with no copying.

Payload words whose value points into the current stack window are
in-memory stack pointers; each relocation rewrites them by -step.  Data
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
    """Collapse the shift by one region size when the window is all-shadow.

    Called after each shift advance.  Fires exactly when the translated
    valid window [top - shift - u, top - shift) lies entirely inside the
    shadow range [region_base - S, region_base); no bytes move because
    shadow pages alias the frames the reset re-addresses.
    """
    u = st.valid_bytes
    upper = st.top - st.shift
    if upper <= st.region_base and upper - u >= st.region_base - st.region_size:
        st.shift -= st.region_size
        st.wraps += 1
        return True
    return False


def adjust_inmemory_pointers(words: np.ndarray, st: StackState
                             ) -> np.ndarray:
    """Move the uint64 words inside the current virtual stack window by -step.

    Returns a new array.  The window is [translate(sp), translate(top));
    every other word, including all 32-bit data, is returned unchanged.
    """
    in_window = (words >= st.sp - st.shift) & (words < st.top - st.shift)
    return np.where(in_window, words - np.uint64(st.step), words)


def relocate_step(st: StackState, space: MemorySpace) -> int:
    """Move the valid stack down by one step; returns lines copied.

    Copies ceil(u / line) lines for a u-byte valid window, charging each
    destination line one write, adjusts in-window pointer words during
    the copy, advances the shift, and applies the wraparound reset when
    it falls due.  u <= S - step keeps each destination line clear of
    every source line a low-to-high copy has yet to read, including
    across the alias fold, so gathering all source words before
    scattering them equals the line-by-line copy.
    """
    ls = space.line_size
    u = st.valid_bytes
    if u > st.region_size - st.step:
        raise StackOverflowError(
            "valid stack of %d bytes leaves no room for a %d-byte step"
            % (u, st.step))
    win_lo = st.sp - st.shift
    win_hi = st.top - st.shift
    src = np.arange(win_lo - (win_lo % ls), win_hi, ls, dtype=np.int64)
    dst_lines, src_lines = space.line_index(np.stack((src - st.step, src)))
    space.wear[dst_lines] += 1
    space.words[dst_lines] = adjust_inmemory_pointers(space.words[src_lines],
                                                      st)
    st.shift += st.step
    st.relocations += 1
    wraparound_reset(st)
    return len(src)


class SmartPointer:
    """Holds a logical stack address; resolves through the live shift."""

    __slots__ = ("logical",)

    def __init__(self, logical: int):
        self.logical = logical

    def deref(self, st: StackState) -> int:
        """Current address of the pointee: the live shift cancels the moves."""
        return translate_stack(self.logical, st)

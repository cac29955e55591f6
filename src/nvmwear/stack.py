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
from typing import Dict, Optional

from .errors import ConfigError, SimulationError, StackOverflowError
from .memspace import MemorySpace


@dataclass
class StackState:
    region_base: int
    region_size: int
    sp: int
    step: int = 64
    shift: int = 0
    reloc_interval: Optional[int] = None
    relocations: int = 0
    wraps: int = 0

    def __post_init__(self):
        if self.region_base < (1 << 32) + self.region_size:
            raise ConfigError("stack region leaves no room above 2^32 "
                              "for its shadow")
        if self.step <= 0 or self.region_size % self.step:
            raise ConfigError("region size must be a multiple of the step")
        if self.step % 64:
            raise ConfigError("step must be a multiple of the line size")

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


def _adjust_word(word: int, win_lo: int, win_hi: int, step: int) -> int:
    if win_lo <= word < win_hi:
        return word - step
    return word


def adjust_inmemory_pointers(words: Dict[int, int], st: StackState
                             ) -> Dict[int, int]:
    """Rewrite stack-window pointers in a copied image by -step.

    `words` maps slots to 8-byte values; exactly the values inside the
    current virtual stack window [translate(sp), translate(top)) change.
    """
    win_lo = st.sp - st.shift
    win_hi = st.top - st.shift
    return {slot: _adjust_word(w, win_lo, win_hi, st.step)
            for slot, w in words.items()}


def relocate_step(st: StackState, space: MemorySpace) -> int:
    """Move the valid stack down by one step; returns lines copied.

    Copies ceil(u / line) lines for a u-byte valid window, charging each
    destination line one write, adjusts in-window pointer words during
    the copy, advances the shift, and applies the wraparound reset when
    it falls due.  u <= S - step keeps the destination clear of any
    source line that is still unread, including across the alias fold.
    """
    ls = space.line_size
    u = st.valid_bytes
    if u > st.region_size - st.step:
        raise StackOverflowError(
            "valid stack of %d bytes leaves no room for a %d-byte step"
            % (u, st.step))
    win_lo = st.sp - st.shift
    win_hi = st.top - st.shift
    src_lo = win_lo - (win_lo % ls)
    copied = (win_hi - src_lo) // ls
    step = st.step
    wear = space.wear
    for src in range(src_lo, win_hi, ls):
        dst_line = space.line_index(src - step)
        wear[dst_line] += 1
        w = space.word(space.line_index(src))
        if w is None:
            space.clear_word(dst_line)
        else:
            space.set_word(dst_line, _adjust_word(w, win_lo, win_hi, step))
    st.shift += step
    st.relocations += 1
    wraparound_reset(st)
    return copied


class SmartPointer:
    """Holds a logical stack address; resolves through the live shift."""

    __slots__ = ("logical",)

    def __init__(self, logical: int):
        self.logical = logical

    def deref(self, st: StackState) -> int:
        """Current address of the pointee: the live shift cancels the moves."""
        return translate_stack(self.logical, st)

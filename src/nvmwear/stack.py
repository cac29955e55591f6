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

A relocation here charges wear alone; the per-write model in
`nvmwear.spec` also moves the content of the lines, in-memory pointers
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StackOverflowError
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
    by the shift; others pass through unchanged.
    """
    shift = steps % (st.region_size // st.step) * st.step
    in_stack = (addrs >= st.region_base) & (addrs < st.top)
    return addrs - shift * in_stack


def relocate_step(st: StackState, space: MemorySpace) -> int:
    """Move the valid stack down by one step; returns lines copied.

    Charges one copy, by `MemorySpace.charge_lines`, to each line holding
    a destination byte: [sp - shift - step, top - shift - step) rounded
    outward to lines, inside the stack and its shadow once the overflow
    check passes.  Then the shift advances and `wraparound_reset` applies.
    A range rounded past S (lines wider than the step) charges a line twice.
    """
    step, top = st.step, st.top
    if top - st.sp > st.region_size - step:
        raise StackOverflowError(
            "valid stack of %d bytes leaves no room for a %d-byte step"
            % (top - st.sp, step))
    ls = space.line_size
    lo, hi = st.sp - st.shift - step, top - st.shift - step
    lo -= lo % ls
    n = space.charge_lines(lo, -(-(hi - lo) // ls) if st.sp < top else 0)
    st.relocations += 1
    st.shift += step
    wraparound_reset(st)
    return n
